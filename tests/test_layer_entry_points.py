"""Every layer of a COSMOS design is reached through its instance attribute.

``perfbench/layers.py`` times each layer by replacing its entry point on
the live instance after ``build_design``.  That sees every call only if the
simulator looks the entry point up on the instance at each call; a method
bound earlier (say ``self._request = dram.request`` in a constructor)
bypasses the wrapper and the layer silently loses calls.  This test wraps
the same entry points with call counters and checks each count against the
model's own statistics; the DRAM requests are the ``request`` calls plus the
reads passed to ``reads_at``.
"""

from collections import Counter

from repro.sim.config import small_test_config
from repro.sim.simulator import Simulator, build_design
from repro.workloads import generate_db_trace


def _count_calls(owner, method, counts):
    inner = getattr(owner, method)

    def counted(*args, **kwargs):
        counts[method] += 1
        return inner(*args, **kwargs)

    setattr(owner, method, counted)


def _count_reads(dram, counts):
    """Wrap ``dram.reads_at``, counting its calls and the reads passed."""
    inner = dram.reads_at

    def counted(addresses, now):
        counts["reads_at"] += 1
        counts["reads_at reads"] += len(addresses)
        return inner(addresses, now)

    dram.reads_at = counted


def test_instance_wrappers_see_every_layer_call():
    config = small_test_config(4)
    design = build_design("cosmos", config)
    engine = design.engine
    controller = design.controller
    dram = design.dram_model()
    counts = Counter()
    for owner, method in (
        (design.hierarchy, "access_block"),
        (controller.location, "predict_and_train"),
        (controller.locality, "predict"),
        (engine, "ctr_access"),
        (engine, "read_data"),
        (engine, "secure_write"),
        (engine.ctr_cache, "access_index"),
        (engine.integrity, "traverse"),
        (dram, "request"),
    ):
        _count_calls(owner, method, counts)
    _count_reads(dram, counts)
    # db-hashjoin: a third of the accesses are writes, so the write path
    # (secure_write, and the CTR accesses and writebacks it issues) runs.
    trace = generate_db_trace("hashjoin", num_cores=4, max_accesses=6000, seed=1)
    result = Simulator(design, config, workload="db-hashjoin").run(trace, path="arrays")

    ctr_accesses = engine.ctr_cache.stats.accesses
    walk_reads = counts.pop("reads_at reads")
    assert counts == {
        "access_block": result.accesses,
        "predict_and_train": controller.location.stats.predictions,
        "predict": controller.locality.stats.predictions,
        "ctr_access": ctr_accesses,
        "access_index": ctr_accesses,
        "read_data": engine.events.reads_seen,
        "secure_write": engine.events.writes_seen,
        "traverse": engine.integrity.stats.traversals,
        "reads_at": engine.integrity.stats.traversals,
        "request": dram.stats.requests - walk_reads,
    }
    # Every DRAM read is a request call or one of the walk's batched reads.
    assert walk_reads == engine.integrity.stats.nodes_fetched > 0
    # Every layer was exercised, the Merkle walk and its DRAM reads too.
    assert all(counts.values())
