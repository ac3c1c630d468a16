"""Unit tests for the secure-memory engine."""

from repro.secure.counters import SplitCounters
from repro.secure.engine import EngineConfig, SecureMemoryEngine
from repro.secure.layout import SecureLayout
from repro.secure.mac import MACS_PER_LINE


def make_engine(**config_kwargs):
    layout = SecureLayout(data_blocks=1 << 20, blocks_per_ctr=128)
    defaults = dict(ctr_cache_bytes=8 * 1024, mt_cache_bytes=4 * 1024)
    defaults.update(config_kwargs)
    return SecureMemoryEngine(layout, config=EngineConfig(**defaults))


def test_ctr_hit_is_cheap():
    engine = make_engine()
    engine.ctr_access(0)
    hit, latency = engine.ctr_access(5)  # same counter line
    assert hit
    assert latency == engine.config.ctr_lookup_latency + engine.config.ctr_combine_latency


def test_ctr_miss_charges_dram_and_mt():
    engine = make_engine()
    hit, latency = engine.ctr_access(0)
    assert not hit
    assert latency > engine.config.ctr_lookup_latency
    assert engine.traffic.ctr_reads == 1
    assert engine.traffic.mt_reads > 0


def test_mt_reads_shrink_with_cached_path():
    engine = make_engine()
    engine.ctr_access(0)
    first = engine.traffic.mt_reads
    engine.ctr_access(128)  # sibling counter line shares most of the path
    assert engine.traffic.mt_reads - first < first


def test_read_data_counts_traffic_and_macs():
    engine = make_engine()
    for block in range(16):
        engine.read_data(block)
    assert engine.traffic.data_reads == 16
    assert engine.traffic.mac_accesses == 2  # one per 8 accesses


def test_engine_charges_one_mac_per_eight_reads():
    engine = make_engine()
    charged = []
    for block in range(MACS_PER_LINE * 3):
        engine.read_data(block)
        charged.append(engine.traffic.mac_accesses)
    assert charged[-1] == 3
    # The first MAC line access comes with exactly the 8th data read.
    assert charged[: MACS_PER_LINE - 1] == [0] * (MACS_PER_LINE - 1)
    assert charged[MACS_PER_LINE - 1] == 1


def test_secure_write_increments_counter():
    engine = make_engine()
    engine.secure_write(0)
    assert engine.scheme.counter_value(0) == 1
    assert engine.traffic.data_writes == 1
    assert engine.events.writes_seen == 1


def test_write_overflow_generates_reencryption_traffic():
    layout = SecureLayout(data_blocks=1 << 20, blocks_per_ctr=64)
    engine = SecureMemoryEngine(
        layout,
        scheme=SplitCounters(),
        config=EngineConfig(ctr_cache_bytes=8 * 1024, mt_cache_bytes=4 * 1024),
    )
    for _ in range(200):  # 7-bit minor overflows at 128
        engine.secure_write(0)
    assert engine.events.ctr_overflows >= 1
    assert engine.traffic.reencryption_requests >= 128


def test_ctr_classifier_hook_used_on_writes():
    engine = make_engine()
    seen = []

    def classifier(ctr_index):
        seen.append(ctr_index)
        return 1, 7

    engine.ctr_classifier = classifier
    engine.secure_write(300)
    assert seen == [engine.scheme.ctr_index(300)]
    line = engine.ctr_cache.cache.get_line(engine.ctr_cache.ctr_block_address(300))
    assert line.locality_flag == 1
    assert line.locality_score == 7


def test_ctr_classifier_tags_every_ctr_access():
    engine = make_engine()
    seen = []

    def classifier(ctr_index):
        seen.append(ctr_index)
        return 0, len(seen)

    engine.ctr_classifier = classifier
    engine.ctr_access(300)  # miss
    engine.ctr_access(301)  # hit on the same counter line, re-tagged
    index = engine.scheme.ctr_index(300)
    assert seen == [index, index]
    line = engine.ctr_cache.cache.get_line(engine.ctr_cache.ctr_block_address(300))
    assert (line.locality_flag, line.locality_score) == (0, 2)
    assert engine.ctr_cache.stats.bad_locality_tags == 2


def test_dirty_ctr_eviction_counts_ctr_write():
    engine = make_engine(ctr_cache_bytes=4 * 1024, ctr_cache_assoc=4)  # 64 lines
    engine.ctr_access(0, is_write=True)
    for line_index in range(1, 512):
        engine.ctr_access(line_index * 128)
    assert engine.traffic.ctr_writes >= 1


def test_prefetcher_by_name_charges_integrity_checks():
    engine = make_engine(ctr_prefetcher_name="next_line")
    engine.ctr_access(0)
    # The next-line prefetch of counter line 1 costs a CTR read + MT walk.
    assert engine.traffic.ctr_reads == 2
    assert engine.ctr_cache.cache.stats.prefetch_issued == 1
    # And the prefetched line services the next demand access.
    hit, _ = engine.ctr_access(128)
    assert hit


def test_policy_by_name():
    engine = make_engine(ctr_policy_name="rrip")
    assert engine.ctr_cache.cache.policy.name == "rrip"


def test_mac_in_ecc_disables_mac_traffic():
    engine = make_engine(mac_in_ecc=True)
    for block in range(32):
        engine.read_data(block)
    assert engine.traffic.mac_accesses == 0
    # Everything else still charged normally.
    assert engine.traffic.data_reads == 32


def test_decrypt_ready_adds_aes_latency():
    engine = make_engine()
    assert engine.decrypt_ready_latency(10) == 10 + engine.config.aes_latency
