"""Tracked long-horizon churn grids for the multi-tenant control plane.

The *steady-state* regime (not a paper figure): thousands of deploy /
snapshot / teardown requests arriving over a shared 48-node pool (``churn``
profile, 8 concentrated repository nodes, rate-limited tenant NICs) while the
periodic garbage collector keeps the repository bounded. Two grids, seed 1:

* ``churn_policy`` — least-loaded vs locality-aware placement at 1500
  deploy requests with the cooperative peer exchange enabled: each wins its
  own boot metric;
* ``churn_gc``     — the storage ablation at 600: periodic GC sweeps vs no
  GC at all (``gc_interval=0``), same arrival trace.

The committed ``benchmarks/results/churn_*.json`` *are* the expectation:
every simulated outcome below is deterministic, so ``make tracked`` reruns
the grids and fails on any ``git diff``. The smoke-size behaviour
(determinism, GC reclaim, monotone no-GC growth) is tier-1:
``tests/churn/test_churn_engine.py``.
"""

from repro.analysis import check_shape
from repro.common.units import MiB

from common import PointSpec, emit_grid, run_sweep, skip_under_quick_profile

skip_under_quick_profile("tests/churn/test_churn_engine.py")

#: steady-state workload shared by every point: rate * mean_lifetime ≈ 96
#: concurrent VMs on ~96 slots, so the pool runs near saturation with bursts
#: spilling into the bounded admission queue
WORKLOAD = (
    ("rate", 6.0),
    ("n_tenants", 8),
    ("mean_lifetime", 16.0),
    ("min_lifetime", 4.0),
    ("p2p", True),
    ("p2p_cache_bytes", 64 * MiB),
)

#: grid -> (deploy requests, ((label, placement policy, gc_interval), ...))
GRIDS = {
    "churn_policy": (1500, (
        ("least-loaded", "least-loaded", 60.0),
        ("locality", "locality", 60.0),
    )),
    "churn_gc": (600, (
        ("gc", "least-loaded", 60.0),
        ("nogc", "least-loaded", 0.0),
    )),
}

#: the two grids together must cover at least this many simulated requests
MIN_REQUESTS = 10_000

#: simulated outcomes recorded per point (plus ``footprint_monotone``)
SIM_FIELDS = (
    "boot_p50_exact", "boot_p99_exact", "boot_mean",
    "queue_wait_p99_exact", "snapshot_p99_exact",
    "rejection_rate", "utilization",
    "booted", "rejected", "snapshots_taken",
    "gc_sweeps", "bytes_reclaimed", "footprint_peak", "footprint_final",
    "makespan", "n_requests", "trace_crc",
)


def grid_specs(grid):
    n, points = GRIDS[grid]
    return [
        PointSpec(
            kind="churn", profile="churn", approach=label, n=n, seed=1,
            params=WORKLOAD + (("policy", policy), ("gc_interval", gc_interval)),
        )
        for label, policy, gc_interval in points
    ]


def _row(point):
    row = {f: point.metrics[f] for f in SIM_FIELDS}
    fp = point.series["footprint_bytes"]
    row["footprint_monotone"] = all(b >= a for a, b in zip(fp, fp[1:]))
    return row


def test_churn_sweep(benchmark, sweep_cache):
    """Run both grids in one sweep (four points)."""
    specs = [s for grid in GRIDS for s in grid_specs(grid)]
    points = benchmark.pedantic(lambda: run_sweep(specs), rounds=1, iterations=1)
    sweep_cache["churn"] = {(p.spec.n, p.spec.approach): _row(p) for p in points}
    assert len(sweep_cache["churn"]) == len(specs)


def _rows(sweep_cache, grid):
    n, points = GRIDS[grid]
    return {label: sweep_cache["churn"][(n, label)] for label, _p, _g in points}


def test_churn_policy(benchmark, sweep_cache):
    rows = benchmark.pedantic(lambda: _rows(sweep_cache, "churn_policy"), rounds=1, iterations=1)
    ll, loc = rows["least-loaded"], rows["locality"]
    total = sum(r["n_requests"] for g in GRIDS for r in _rows(sweep_cache, g).values())
    emit_grid(
        "churn_policy",
        "Placement policies under churn (1500 deploys, p2p on, seed 1)",
        rows,
        [
            check_shape(
                f"least-loaded placement has the lower p99 boot latency "
                f"({ll['boot_p99_exact']:.3f} s < {loc['boot_p99_exact']:.3f} s "
                f"over {ll['n_requests']:.0f} requests each)",
                ll["boot_p99_exact"] < loc["boot_p99_exact"],
            ),
            check_shape(
                f"locality-aware placement has the lower p50 and mean boot latency "
                f"(p50 {loc['boot_p50_exact']:.3f} s < {ll['boot_p50_exact']:.3f} s, "
                f"mean {loc['boot_mean']:.3f} s < {ll['boot_mean']:.3f} s)",
                loc["boot_p50_exact"] < ll["boot_p50_exact"]
                and loc["boot_mean"] < ll["boot_mean"],
            ),
            check_shape(
                f"the tracked grids cover >= {MIN_REQUESTS} simulated requests "
                f"({total:.0f})",
                total >= MIN_REQUESTS,
            ),
        ],
    )


def test_churn_gc(benchmark, sweep_cache):
    rows = benchmark.pedantic(lambda: _rows(sweep_cache, "churn_gc"), rounds=1, iterations=1)
    gc, nogc = rows["gc"], rows["nogc"]
    emit_grid(
        "churn_gc",
        "Repository footprint with and without periodic GC (600 deploys, seed 1)",
        rows,
        [
            check_shape(
                f"GC reclaims retired state ({gc['bytes_reclaimed'] / MiB:.0f} MiB "
                f"over {gc['gc_sweeps']:.0f} sweeps)",
                gc["bytes_reclaimed"] > 0,
            ),
            check_shape(
                f"GC bounds the footprint: peak {gc['footprint_peak'] / MiB:.0f} MiB "
                f"vs {nogc['footprint_peak'] / MiB:.0f} MiB without",
                gc["footprint_peak"] < nogc["footprint_peak"],
            ),
            check_shape(
                "without GC the footprint only ever grows",
                nogc["footprint_monotone"],
            ),
        ],
    )
