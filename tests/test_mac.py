"""Unit tests for the MAC model."""

from repro.secure.mac import MacStore, compute_mac


def test_mac_is_64_bits():
    mac = compute_mac(b"cipher", 0x40, 1)
    assert 0 <= mac < (1 << 64)


def test_mac_depends_on_every_input():
    base = compute_mac(b"cipher", 0x40, 1)
    assert compute_mac(b"ciphex", 0x40, 1) != base
    assert compute_mac(b"cipher", 0x80, 1) != base
    assert compute_mac(b"cipher", 0x40, 2) != base
    assert compute_mac(b"cipher", 0x40, 1, key=b"other") != base


def test_store_verify_roundtrip():
    store = MacStore()
    store.update(5, b"ciphertext", counter=3)
    assert store.verify(5, b"ciphertext", counter=3)


def test_store_detects_tampered_ciphertext():
    store = MacStore()
    store.update(5, b"ciphertext", counter=3)
    assert not store.verify(5, b"CIPHERTEXT", counter=3)


def test_store_detects_replayed_counter():
    store = MacStore()
    store.update(5, b"old", counter=3)
    store.update(5, b"new", counter=4)
    # Replaying the old pair fails because the stored MAC covers the new one.
    assert not store.verify(5, b"old", counter=3)
    assert store.verify(5, b"new", counter=4)


def test_unknown_block_fails_verification():
    assert not MacStore().verify(1, b"x", counter=0)


def test_known_blocks_count():
    store = MacStore()
    store.update(1, b"a", 0)
    store.update(2, b"b", 0)
    store.update(1, b"c", 1)
    assert store.known_blocks() == 2
