"""Unit tests for the secure address-space layout."""

from dataclasses import FrozenInstanceError

import pytest

from repro.secure.layout import SecureLayout


def test_paper_geometry_32gb():
    layout = SecureLayout.for_memory_size(32 * 1024**3, blocks_per_ctr=128)
    assert layout.data_blocks == 536_870_912  # ~537M lines, Sec. 3.1
    assert layout.ctr_blocks == 4_194_304
    # Paper: log2(537M/128) ~ 22 MT levels for the binary tree.
    assert layout.mt_levels == 22


def test_regions_do_not_overlap():
    layout = SecureLayout(data_blocks=1 << 20)
    assert layout.ctr_region_base == layout.data_blocks
    assert layout.mac_region_base == layout.ctr_region_base + layout.ctr_blocks
    assert layout.mt_region_base == layout.mac_region_base + layout.mac_blocks


def test_ctr_block_address_bounds():
    layout = SecureLayout(data_blocks=1024)
    assert layout.ctr_block_address(0) == layout.ctr_region_base
    with pytest.raises(ValueError):
        layout.ctr_block_address(layout.ctr_blocks)
    with pytest.raises(ValueError):
        layout.ctr_block_address(-1)


def test_mac_packing_8_per_line():
    layout = SecureLayout(data_blocks=64)
    assert layout.mac_blocks == 8
    assert layout.mac_block_address(0) == layout.mac_block_address(7)
    assert layout.mac_block_address(8) == layout.mac_block_address(0) + 1


def test_mac_address_bounds():
    layout = SecureLayout(data_blocks=64)
    with pytest.raises(ValueError):
        layout.mac_block_address(64)


def test_mt_path_lengths_and_root_exclusion():
    layout = SecureLayout(data_blocks=1 << 16, blocks_per_ctr=128)
    path = layout.mt_path(0)
    assert len(path) == layout.mt_levels - 1  # root pinned on-chip
    assert len(set(path)) == len(path)  # distinct nodes


def test_mt_path_addresses_in_mt_region():
    layout = SecureLayout(data_blocks=1 << 16)
    for node in layout.mt_path(3):
        assert node >= layout.mt_region_base


def test_sibling_ctrs_share_upper_path():
    layout = SecureLayout(data_blocks=1 << 18, blocks_per_ctr=128, mt_arity=2)
    path0 = layout.mt_path(0)
    path1 = layout.mt_path(1)
    assert path0 == path1  # counters 0 and 1 share the same parent chain
    path_far = layout.mt_path(layout.ctr_blocks - 1)
    assert len(path_far) == len(path0)
    # The last fetched level sits just below the on-chip root, so the two
    # extreme counters land on sibling nodes there.
    assert abs(path0[-1] - path_far[-1]) <= layout.mt_arity - 1


def test_mt_arity_8_is_shallower():
    binary = SecureLayout(data_blocks=1 << 20, mt_arity=2)
    octal = SecureLayout(data_blocks=1 << 20, mt_arity=8)
    assert octal.mt_levels < binary.mt_levels


def test_level_node_counts_shrink():
    layout = SecureLayout(data_blocks=1 << 18)
    counts = [layout.mt_nodes_at_level(level) for level in range(layout.mt_levels)]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 1  # root level


def test_invalid_parameters():
    with pytest.raises(ValueError):
        SecureLayout(data_blocks=0)
    with pytest.raises(ValueError):
        SecureLayout(data_blocks=10, blocks_per_ctr=0)
    with pytest.raises(ValueError):
        SecureLayout(data_blocks=10, mt_arity=1)


def test_mt_node_address_bounds():
    layout = SecureLayout(data_blocks=1 << 12)
    with pytest.raises(ValueError):
        layout.mt_node_address(layout.mt_levels, 0)
    # An index past its level would alias the next level's first node; a
    # negative one would alias the end of the MAC region.
    assert layout.mt_nodes_at_level(0) == 16
    assert layout.mt_node_address(0, 15) + 1 == layout.mt_node_address(1, 0)
    with pytest.raises(ValueError):
        layout.mt_node_address(0, 16)
    with pytest.raises(ValueError):
        layout.mt_node_address(0, -1)
    with pytest.raises(ValueError):
        layout.mt_node_address(layout.mt_levels - 1, 1)  # the root level has one node


@pytest.mark.parametrize("arity", [2, 8])
def test_mt_path_matches_mt_node_address(arity):
    layout = SecureLayout(data_blocks=1 << 18, mt_arity=arity)
    for ctr in (0, 1, arity, layout.ctr_blocks // 3, layout.ctr_blocks - 1):
        expected = [
            layout.mt_node_address(level, ctr // arity ** (level + 1))
            for level in range(layout.mt_levels - 1)
        ]
        assert layout.mt_path(ctr) == expected


def test_mt_path_bounds():
    layout = SecureLayout(data_blocks=1 << 12)
    with pytest.raises(ValueError):
        layout.mt_path(layout.ctr_blocks)


@pytest.mark.parametrize("arity", [2, 8])
def test_fetched_level_bases_are_fixed(arity):
    layout = SecureLayout(data_blocks=1 << 18, mt_arity=arity)
    assert layout.mt_fetched_level_bases == tuple(
        layout.mt_node_address(level, 0) for level in range(layout.mt_levels - 1))
    with pytest.raises(FrozenInstanceError):
        layout.mt_fetched_level_bases = ()
    assert layout == SecureLayout(data_blocks=1 << 18, mt_arity=arity)
