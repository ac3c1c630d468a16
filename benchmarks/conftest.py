"""Benchmark-suite configuration.

Each benchmark reproduces one of the paper's tables or figures: it runs the
corresponding experiment exactly once (``benchmark.pedantic`` with a single
round — these are minutes-long simulations, not microbenchmarks) and prints
the rows the paper reports.  Environment knobs:

    REPRO_TRACE_LEN=250000   accesses per trace
    REPRO_QUICK=1            5x shorter traces for smoke runs
    REPRO_NO_CACHE=1         simulate every cell: time a cold run, not
                             a read of the on-disk result cache
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)

    return runner
