"""The sweep-execution engine: fan out, return in order.

:class:`SweepRunner` takes a list of :class:`~repro.runner.spec.PointSpec`
and produces one :class:`~repro.runner.spec.PointResult` per spec, **in the
input order** regardless of which worker finishes first. Each point is an
independent deterministic simulation (fresh cloud, fixed seed), so the
runner adds parallelism without perturbing a single simulated timeline:
sequential and parallel runs of the same sweep are bit-identical.

Every point is simulated. The points fan out over a ``multiprocessing``
pool (``fork`` start method); with ``jobs=1``, a single point, or on
platforms without ``fork`` the runner degrades to plain in-process
execution. A point that raises is surfaced as :class:`SweepError` naming
the failing spec (the worker catches and ships the traceback — the pool
never hangs on a crashed point).
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Iterable, List, Optional, Sequence

from .points import execute_point
from .spec import PointResult, PointSpec


class SweepError(RuntimeError):
    """A sweep point failed; carries the failing spec and the worker trace."""

    def __init__(self, spec: PointSpec, message: str, trace: str = ""):
        self.spec = spec
        self.trace = trace
        super().__init__(f"sweep point [{spec.label()}] failed: {message}")


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _execute_indexed(item):
    """Pool worker: never raises — errors travel back as values."""
    index, spec = item
    try:
        return index, ("ok", execute_point(spec))
    except Exception as exc:  # noqa: BLE001 — surfaced as SweepError by the parent
        return index, (
            "err", spec, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        )


class SweepRunner:
    """Execute sweeps of independent measurement points.

    :param jobs: worker processes; ``None`` (the default) means all cores,
        ``1`` forces in-process sequential execution.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = (os.cpu_count() or 1) if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")

    def run(self, specs: Sequence[PointSpec]) -> List[PointResult]:
        """All results, ordered like ``specs``."""
        specs = list(specs)
        results: List[Optional[PointResult]] = [None] * len(specs)
        for index, outcome in self._execute(list(enumerate(specs))):
            if outcome[0] == "err":
                _, spec, message, trace = outcome
                raise SweepError(spec, message, trace)
            results[index] = outcome[1]
        return results

    def _execute(self, items: List[tuple]) -> Iterable[tuple]:
        """Yield ``(index, outcome)`` for every ``(index, spec)``, any order."""
        workers = min(self.jobs, len(items))
        if workers <= 1 or not _fork_available():
            for item in items:
                yield _execute_indexed(item)
            return
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            yield from pool.imap_unordered(_execute_indexed, items)
