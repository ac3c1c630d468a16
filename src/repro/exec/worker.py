"""Worker-side job execution.

:func:`run_job` is the function the process pool ships to workers; it must
stay a top-level importable so it pickles by reference.  A job is entirely
self-describing (see :class:`~repro.exec.jobs.JobSpec`), so the *metrics*
never depend on the environment — the same spec produces the same result in
a worker process, a thread, or inline in the parent.  Observability
(``REPRO_OBS``) is the one environment knob consulted, and it only adds
side artifacts: phase spans, a windowed time-series and an event log per
job, written under ``<cache_dir>/obs/<hash16>/``.
"""

from __future__ import annotations

from .. import obs
from ..obs.artifacts import obs_root, write_job_artifacts
from ..sim.results import SimulationResult
from ..sim.simulator import Simulator, build_design
from .jobs import JobSpec


def run_job(spec: JobSpec) -> SimulationResult:
    """Execute one simulation cell described by ``spec``.

    Trace generation goes through the shared trace cache
    (``bench.runner.get_trace``), so concurrent workers converging on one
    workload pay the generation cost at most once per process and reuse
    the on-disk ``.npz`` across processes.

    With observability on, the job records its phases on its own
    :class:`~repro.obs.SpanRecorder` and writes them, with the sampler's
    series and events, as the job's artifacts; run inline, the runner's
    ``job`` span times the whole job.  With it off, ``obs.recording(None)``
    and ``obs.span`` do nothing.
    """
    from ..bench.runner import cache_dir, get_trace

    recorder = (obs.SpanRecorder(f"job {spec.design}/{spec.workload}")
                if obs.enabled() else None)
    with obs.recording(recorder):
        with obs.span("trace_gen", workload=spec.workload):
            trace = get_trace(
                spec.workload,
                num_cores=spec.num_cores,
                max_accesses=spec.trace_length,
                seed=spec.seed,
                scale=spec.graph_scale,
            )
        with obs.span("simulate", design=spec.design):
            simulator = Simulator(
                build_design(spec.design, spec.config), spec.config,
                workload=spec.workload,
            )
            result = simulator.run(trace)
    if recorder is not None:
        write_job_artifacts(
            obs_root(cache_dir()),
            spec.content_hash(),
            recorder=recorder,
            sampler=simulator.sampler,
            meta={
                "design": spec.design,
                "workload": spec.workload,
                "accesses": result.accesses,
                "cycles": result.cycles,
            },
        )
    return result
