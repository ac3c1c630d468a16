"""The process pool behind :class:`~repro.exec.runner.ParallelRunner`.

:class:`WorkerPool` decides:

* **creation** — a fork-context :class:`ProcessPoolExecutor` opened by the
  first submit (fork carries the active trace context into the workers);
  :class:`PoolUnavailable` reports a platform that refuses one;
* **kill** — a job past its timeout may have wedged its worker, so its
  pool is killed.  The pool remembers the kill, so the jobs that were
  running beside the wedged one re-run without losing an attempt;
* **crash** — a dead worker breaks every future of its pool.  The first
  report retires the pool; later reports from it leave the replacement
  alone.  Every job that was in flight is charged an attempt: the job
  that crashed cannot be told apart, and charging all of them bounds a
  job that always crashes by its retry budget.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Tuple

#: What a platform raises when it cannot fork workers or lacks the
#: semaphores a process pool needs.
_REFUSED = (OSError, ValueError, ImportError, NotImplementedError)


class PoolUnavailable(RuntimeError):
    """The platform refused to start a process pool."""


class Generation(ProcessPoolExecutor):
    """One executor's lifetime; every future is judged by the one it ran on."""

    killed = False


class WorkerPool:
    """A lazily forked process pool, killed on timeout and rebuilt after a
    crash."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._current: Optional[Generation] = None

    def submit(self, fn: Callable, *args) -> Tuple[Future, Generation]:
        """Run ``fn(*args)`` on the current executor, opening one if needed.

        Raises:
            PoolUnavailable: The platform refused to start worker processes.
        """
        try:
            return self._submit(fn, args)
        except BrokenProcessPool:
            # A worker died after the last result was read: this submit
            # is the crash's first report.
            self.crashed(self._current)
            return self._submit(fn, args)

    def _submit(self, fn: Callable, args: tuple) -> Tuple[Future, Generation]:
        generation = self._current
        try:
            if generation is None:
                generation = self._current = Generation(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"))
            return generation.submit(fn, *args), generation
        except _REFUSED as exc:
            if generation is not None:
                self.kill(generation)
            raise PoolUnavailable(f"{type(exc).__name__}: {exc}") from exc

    def kill(self, generation: Generation) -> None:
        """Kill ``generation``'s workers unless it already crashed."""
        if generation is self._current:
            self._current = None
            generation.killed = True
            # shutdown() alone would wait for a wedged worker forever.
            for process in list((generation._processes or {}).values()):
                with contextlib.suppress(OSError, ValueError):
                    process.kill()
            generation.shutdown(wait=False)

    def crashed(self, generation: Generation) -> bool:
        """Judge a ``BrokenProcessPool`` from a future of ``generation``:
        ``False`` if the pool was killed on purpose (the job re-runs free),
        ``True`` if a worker crashed (the job is charged an attempt)."""
        if generation.killed:
            return False
        if generation is self._current:
            self._current = None
            generation.shutdown(wait=False)
        return True

    def close(self) -> None:
        """Kill the workers, including any still running a job."""
        if self._current is not None:
            self.kill(self._current)
