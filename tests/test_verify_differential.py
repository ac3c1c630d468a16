"""Differential oracle: schemes and conservation invariants.

Covers the two cross-check flavours in :mod:`repro.verify.differential`
plus the reporting machinery itself (flatten / diff_dicts / first
divergence), including deliberately-broken inputs so the oracle is known
to *fail* when it should, not just pass on healthy runs.
"""

import random

import pytest

from repro.mem.access import AccessType, MemoryAccess
from repro.secure.counters import make_counter_scheme
from repro.secure.functional import FunctionalSecureMemory
from repro.sim.config import small_test_config
from repro.sim.simulator import SimulationConfig, build_design, Simulator
from repro.verify import (
    Op,
    check_invariants,
    diff_functional,
)
from repro.verify.differential import diff_dicts, flatten
from repro.verify.fuzz import DESIGNS

SCHEMES = ("monolithic", "split", "morphctr")


def make_memory(scheme: str, num_blocks: int = 128, **kwargs) -> FunctionalSecureMemory:
    return FunctionalSecureMemory(
        num_blocks=num_blocks, scheme=make_counter_scheme(scheme), **kwargs
    )


def random_accesses(seed: str, count: int = 400, footprint: int = 256):
    rng = random.Random(seed)
    hot = [rng.randrange(footprint) for _ in range(16)]
    accesses = []
    for _ in range(count):
        block = rng.choice(hot) if rng.random() < 0.6 else rng.randrange(footprint)
        kind = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
        accesses.append(MemoryAccess(block << 6, kind, core=0))
    return accesses


def random_ops(seed: str, count: int = 120, footprint: int = 64):
    rng = random.Random(seed)
    written = []
    ops = []
    for i in range(count):
        if not written or rng.random() < 0.5:
            block = rng.randrange(footprint)
            ops.append(Op(block=block, is_write=True, payload=f"v{i}".encode()))
            written.append(block)
        else:
            ops.append(Op(block=rng.choice(written), is_write=False))
    return ops


# ----------------------------------------------------------------------
# Reporting machinery
# ----------------------------------------------------------------------
def test_flatten_produces_dotted_scalar_keys():
    nested = {"a": {"b": 1, "c": [10, {"d": 2}]}, "e": None}
    assert flatten(nested) == {"a.b": 1, "a.c[0]": 10, "a.c[1].d": 2, "e": None}


def test_diff_dicts_reports_changed_and_absent_fields_sorted():
    left = {"x": {"y": 1, "only_left": 5}, "same": 3}
    right = {"x": {"y": 2}, "same": 3, "only_right": 7}
    divergences = diff_dicts(left, right)
    assert [d.key for d in divergences] == ["only_right", "x.only_left", "x.y"]
    by_key = {d.key: d for d in divergences}
    assert by_key["x.y"].left == 1 and by_key["x.y"].right == 2
    assert by_key["x.only_left"].right == "<absent>"
    assert by_key["only_right"].left == "<absent>"


def test_diff_dicts_honours_the_divergence_limit():
    left = {f"k{i}": i for i in range(40)}
    right = {f"k{i}": i + 1 for i in range(40)}
    assert len(diff_dicts(left, right, limit=5)) == 5


# ----------------------------------------------------------------------
# Functional memory: scheme vs scheme
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pair", [("monolithic", "split"), ("split", "morphctr"),
                                  ("morphctr", "monolithic")])
def test_counter_schemes_decrypt_identically(pair):
    ops = random_ops(f"func:{pair}")
    report = diff_functional(
        ops, make_memory(pair[0]), make_memory(pair[1]), label=f"{pair[0]}-vs-{pair[1]}"
    )
    assert report.matched, report.to_dict()
    assert report.first_divergence_at is None


class _LyingMemory(FunctionalSecureMemory):
    """Returns garbage for one block — the oracle must localise it."""

    def __init__(self, lie_block: int, **kwargs):
        super().__init__(**kwargs)
        self._lie_block = lie_block

    def read(self, block: int) -> bytes:
        value = super().read(block)
        if block == self._lie_block:
            return bytes(64)
        return value


def test_diff_functional_pinpoints_the_first_divergent_read():
    ops = [
        Op(block=3, is_write=True, payload=b"good"),
        Op(block=7, is_write=True, payload=b"also good"),
        Op(block=7, is_write=False),
        Op(block=3, is_write=False),
    ]
    liar = _LyingMemory(3, num_blocks=64, scheme=make_counter_scheme("split"))
    report = diff_functional(ops, make_memory("monolithic", 64), liar)
    assert not report.matched
    assert report.first_divergence_at == 3
    assert report.divergences[0].key == "read[3].block3"


# ----------------------------------------------------------------------
# Conservation invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design", DESIGNS)
def test_invariants_hold_on_real_runs(design):
    # small_test_config's CTR cache covers 16,384 data blocks (its LCR-CTR
    # cache 8,192), so a 65,536-block footprint makes it miss and evict,
    # and the Merkle walk fetches nodes.
    built = run_design(
        design, random_accesses(f"inv:{design}", count=1500, footprint=1 << 16),
        small_test_config(1))
    problems = check_invariants(built)
    assert not problems, problems
    engine = getattr(built, "engine", None)
    if engine is not None:
        assert engine.ctr_cache.cache.stats.evictions > 0
        assert engine.integrity.stats.nodes_fetched > 0


def run_design(design_name: str, accesses, config=None):
    config = config if config is not None else SimulationConfig()
    design = build_design(design_name, config)
    Simulator(design, config).run(accesses)
    return design


def test_invariants_catch_unauthenticated_counter_fetches():
    design = run_design("cosmos", random_accesses("corrupt:ctr"))
    design.engine.traffic.ctr_reads += 1  # one fetch "skipped" verification
    problems = check_invariants(design)
    assert any("authenticated exactly once" in p for p in problems)


def test_invariants_catch_reencryption_traffic_mismatch():
    design = run_design("cosmos", random_accesses("corrupt:reenc"))
    design.engine.traffic.reencryption_requests += 3
    problems = check_invariants(design)
    assert any("overflow accounting" in p for p in problems)


def test_invariants_catch_uncounted_ctr_miss():
    design = run_design("cosmos", random_accesses("corrupt:ctr-miss"))
    design.engine.ctr_cache.stats.misses += 1  # a miss the cache never saw
    problems = check_invariants(design)
    assert any("CTR-cache miss or a CTR prefetch" in p for p in problems)
    assert any("its cache's" in p for p in problems)


def test_invariants_catch_widening_miss_funnel():
    design = run_design("np", random_accesses("corrupt:funnel"))
    design.stats.llc_misses = design.stats.l1_misses + 1
    problems = check_invariants(design)
    assert any("llc_misses" in p for p in problems)
