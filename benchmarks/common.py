"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark describes each measurement point as a pure
:class:`~repro.runner.PointSpec` (fresh seeds, no state leakage between
points) and routes it through the :class:`~repro.runner.SweepRunner`: every
point is simulated, fanned out over a multiprocessing pool
(``REPRO_BENCH_JOBS``, default all cores).

Two profiles are provided (see :mod:`repro.runner.profiles`):

* ``paper`` (default) — the full §5.1 setup: 120-node pool, 2 GiB image,
  256 KiB chunks, up to 110 concurrent instances.
* ``quick`` — a scaled-down profile for smoke-testing the harness
  (``REPRO_BENCH_PROFILE=quick``).

Rendered figure tables are printed; the machine-readable form of each lands
in ``benchmarks/results/<figure_id>.json`` and is tracked.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

from repro.analysis import render_bars
from repro.runner import (
    BenchProfile,
    PointResult,
    PointSpec,
    SweepRunner,
    active_profile,
)

RESULTS_DIR = Path(__file__).parent / "results"


def bench_runner(jobs: Optional[int] = None) -> SweepRunner:
    """A sweep runner configured from the benchmark environment."""
    if jobs is None:
        env = os.environ.get("REPRO_BENCH_JOBS")
        jobs = int(env) if env else None
    return SweepRunner(jobs=jobs)


def run_sweep(specs: Sequence[PointSpec], jobs: Optional[int] = None) -> List[PointResult]:
    """Execute a list of specs through the shared benchmark runner."""
    return bench_runner(jobs=jobs).run(specs)


def deploy_specs(
    profile: BenchProfile, approach: str, seed: int = 1, counts=None
) -> List[PointSpec]:
    """The Fig. 4 instance-count sweep for one approach."""
    return [
        PointSpec(kind="deploy", profile=profile.name, approach=approach, n=n, seed=seed)
        for n in (counts or profile.instance_counts)
    ]


def snapshot_specs(
    profile: BenchProfile, approach: str, seed: int = 1, counts=None
) -> List[PointSpec]:
    """The Fig. 5 instance-count sweep for one approach."""
    return [
        PointSpec(kind="snapshot", profile=profile.name, approach=approach, n=n, seed=seed)
        for n in (counts or profile.instance_counts)
    ]


def run_deploy_point(
    profile: BenchProfile, approach: str, n: int, seed: int = 1
) -> PointResult:
    """One Fig. 4 measurement: deploy ``n`` instances with ``approach``."""
    return run_sweep(deploy_specs(profile, approach, seed=seed, counts=(n,)))[0]


def run_snapshot_point(
    profile: BenchProfile, approach: str, n: int, seed: int = 1
) -> PointResult:
    """One Fig. 5 measurement: deploy, write diffs, snapshot all."""
    return run_sweep(snapshot_specs(profile, approach, seed=seed, counts=(n,)))[0]


def figure_data(fig, checks: Sequence[str] = ()) -> dict:
    """JSON-able payload of a rendered figure (series + shape checks)."""
    return {
        "title": fig.title,
        "x_label": fig.x_label,
        "y_label": fig.y_label,
        "series": {name: {"x": s.x, "y": s.y} for name, s in fig.series.items()},
        "checks": list(checks),
    }


def emit(figure_id: str, text: str, data: dict) -> None:
    """Print a rendered figure and write its machine-readable form.

    ``data`` lands in ``benchmarks/results/<figure_id>.json`` — the tracked
    artifact; the text rendering is for the terminal only.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{figure_id}.json").write_text(
        json.dumps({"figure_id": figure_id, **data}, indent=2, sort_keys=True) + "\n"
    )
    print("\n" + text)


def emit_grid(figure_id: str, title: str, points: dict, checks: Sequence[str]) -> None:
    """Emit one tracked grid — every recorded field of every point — and gate it.

    ``points`` maps a point label to its ``{field: value}`` record; the
    artifact keeps that shape, one field per line, so a drifted outcome shows
    up in ``git diff`` under its own name. The values are deterministic and
    the committed file is the expectation: ``make tracked`` regenerates it
    and fails on any diff.
    """
    fields = list(next(iter(points.values())))
    columns = {label: [row[f] for f in fields] for label, row in points.items()}
    emit(
        figure_id,
        render_bars(f"{figure_id}: {title}", fields, columns, fmt="{:16.9g}")
        + "\n" + "\n".join(checks),
        {"title": title, "points": points, "checks": list(checks)},
    )
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def skip_under_quick_profile(tier1_tests: str) -> None:
    """Module-level: a tracked grid has one size, so the quick profile skips it.

    Its smoke-size behaviour is what ``tier1_tests`` check; skipping (rather
    than shrinking) also keeps ``make bench-quick`` from overwriting the
    tracked artifact with other numbers.
    """
    if active_profile().name == "quick":
        pytest.skip(
            f"tracked-size grid; smoke-size behaviour is tier-1 ({tier1_tests})",
            allow_module_level=True,
        )
