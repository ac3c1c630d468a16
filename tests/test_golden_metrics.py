"""Golden metrics: every design's full payload, pinned to a snapshot.

``tests/golden/sim_payloads.json`` holds, for each design x core count x
warmup cell, the whole ``SimulationResult.to_dict()`` payload and the
progress-hook sequence ``(done, total_latency)`` of one run over a seeded
Zipf trace.  Every cell feeds the trace as a ``Trace``; the single-core
cells also feed it as a plain list and as a generator, which must reach
the same payload, as must a ``Trace`` run with the loop named explicitly
(``path="arrays"``, as ``perfbench/run.py`` calls it), with and without
warmup.  A mismatch names the first diverging keys.

The file is a regression snapshot of the current model, not validation:
it proves that a refactor changed no number, not that the numbers are
right.  A change that is meant to move metrics re-pins it deliberately::

    PYTHONPATH=src python tests/test_golden_metrics.py

and records the re-pin, with its reason, in CHANGES.md.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim.config import small_test_config
from repro.sim.simulator import Simulator, build_design, simulate
from repro.verify.differential import diff_dicts
from repro.workloads.micro import zipf_trace

GOLDEN = Path(__file__).parent / "golden" / "sim_payloads.json"

DESIGNS = [
    "np", "morphctr", "early", "emcc", "rmcc",
    "cosmos-dp", "cosmos-cp", "cosmos", "cosmos-early",
    "synergy", "cosmos-synergy",
]
CORES = (1, 4)
WARMUPS = (0, 1000)

#: Trace parameters; any change here needs a re-pin.
TRACE = {"n": 6000, "alpha": 1.0, "write_fraction": 0.4, "seed": 11}
#: Progress-hook period; it does not divide the trace length.
HOOK_INTERVAL = 777

#: How each input kind is built from the ``Trace``.
SOURCES = {
    "trace": lambda trace: trace,
    "list": lambda trace: list(trace.accesses),
    "generator": lambda trace: (access for access in trace.accesses),
}


def make_trace():
    return zipf_trace(**TRACE)


def cell_key(design, cores, warmup):
    return f"{design}/{cores}c/w{warmup}"


def run_cell(design, config, source, warmup):
    """One hooked run: its JSON-normalised payload and hook sequence."""
    hooks = []

    def hook(done, simulator):
        hooks.append([done, simulator.total_latency])

    simulator = Simulator(build_design(design, config), config, "zipf")
    result = simulator.run(
        source, progress_hook=hook, progress_interval=HOOK_INTERVAL,
        warmup_accesses=warmup,
    )
    return json.loads(json.dumps({"result": result.to_dict(), "hooks": hooks}))


def run_payload(design, config, source, warmup=0, path=None):
    """One hookless run: its JSON-normalised payload."""
    simulator = Simulator(build_design(design, config), config, "zipf")
    result = simulator.run(source, warmup_accesses=warmup, path=path)
    return json.loads(json.dumps(result.to_dict()))


def pin():
    """Recompute every cell from the current code and write the golden file."""
    trace = make_trace()
    cells = {}
    for design in DESIGNS:
        for cores in CORES:
            config = small_test_config(num_cores=cores)
            for warmup in WARMUPS:
                cells[cell_key(design, cores, warmup)] = run_cell(
                    design, config, trace, warmup
                )
    payload = {"trace": TRACE, "hook_interval": HOOK_INTERVAL, "cells": cells}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _cells():
    for design in DESIGNS:
        for cores in CORES:
            for warmup in WARMUPS:
                kinds = SOURCES if cores == 1 else ("trace",)
                for kind in kinds:
                    yield pytest.param(
                        design, cores, warmup, kind,
                        id=f"{design}-{cores}c-w{warmup}-{kind}",
                    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def trace():
    return make_trace()


def mismatch(expected, actual):
    """Diverging keys between a pinned and a fresh cell ("" when equal)."""
    divergences = diff_dicts(expected, actual, limit=8)
    return "; ".join(
        f"{d.key}: pinned {d.left!r}, got {d.right!r}" for d in divergences
    )


def test_golden_file_matches_cell_parameters(golden):
    assert golden["trace"] == TRACE
    assert golden["hook_interval"] == HOOK_INTERVAL
    assert sorted(golden["cells"]) == sorted(
        cell_key(d, c, w) for d in DESIGNS for c in CORES for w in WARMUPS
    )


@pytest.mark.parametrize("design, cores, warmup, kind", _cells())
def test_payload_matches_golden(design, cores, warmup, kind, trace, golden):
    config = small_test_config(num_cores=cores)
    actual = run_cell(design, config, SOURCES[kind](trace), warmup)
    expected = golden["cells"][cell_key(design, cores, warmup)]
    assert expected["hooks"], "the hook must fire at least once"
    diff = mismatch(expected, actual)
    assert not diff, f"{cell_key(design, cores, warmup)} ({kind}): {diff}"


@pytest.mark.parametrize("warmup", WARMUPS, ids=lambda warmup: f"w{warmup}")
@pytest.mark.parametrize("design", DESIGNS)
def test_hookless_run_matches_golden(design, warmup, trace, golden):
    """Without a hook the loop takes its hookless branch; same payload."""
    actual = run_payload(design, small_test_config(num_cores=1), trace, warmup)
    diff = mismatch(golden["cells"][cell_key(design, 1, warmup)]["result"], actual)
    assert not diff, f"{cell_key(design, 1, warmup)} (hookless): {diff}"


def _same_bytes(payloads):
    """Whether every payload serialises to the same JSON text."""
    return len({json.dumps(p, sort_keys=True) for p in payloads.values()}) == 1


@pytest.mark.parametrize("path", ["arrays"])
@pytest.mark.parametrize("design", ["np", "morphctr", "early", "cosmos"])
def test_paths_are_byte_identical(design, path, trace, golden):
    """Naming the loop changes nothing: a ``Trace`` run with an explicit
    ``path`` and a plain list run with the default reach the same bytes,
    and they are the pinned payload."""
    config = small_test_config(num_cores=1)
    payloads = {
        path: run_payload(design, config, trace, path=path),
        "list": run_payload(design, config, list(trace.accesses)),
    }
    assert _same_bytes(payloads)
    diff = mismatch(golden["cells"][cell_key(design, 1, 0)]["result"], payloads[path])
    assert not diff, f"{cell_key(design, 1, 0)} ({path}): {diff}"


@pytest.mark.parametrize("design", ["np", "cosmos"])
@pytest.mark.parametrize("warmup", WARMUPS)
def test_paths_agree_under_warmup(design, warmup, trace, golden):
    """Warmup resets stats mid-trace; every input kind, and the explicitly
    named loop, must still reach the same pinned post-warmup payload."""
    config = small_test_config(num_cores=1)
    payloads = {
        kind: run_payload(design, config, make(trace), warmup)
        for kind, make in SOURCES.items()
    }
    payloads["arrays"] = run_payload(design, config, trace, warmup, path="arrays")
    assert _same_bytes(payloads)
    expected = golden["cells"][cell_key(design, 1, warmup)]["result"]
    diff = mismatch(expected, payloads["arrays"])
    assert not diff, f"{cell_key(design, 1, warmup)} (arrays): {diff}"


def test_changed_timing_constant_fails_comparison(trace, golden):
    """The snapshot is sensitive: one cycle of auth latency must show."""
    config = small_test_config(num_cores=1)
    engine = replace(config.engine, auth_latency=config.engine.auth_latency + 1)
    actual = run_cell("cosmos", replace(config, engine=engine), trace, 0)
    assert mismatch(golden["cells"][cell_key("cosmos", 1, 0)], actual)


def test_array_path_actually_processes_every_access(trace):
    config = small_test_config(num_cores=1)
    result = simulate("np", trace, config)
    assert result.accesses == len(trace)


if __name__ == "__main__":
    pin()
    print(f"wrote {GOLDEN}")
