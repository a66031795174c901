"""Tracked snapshot-lineage grid: restore cost vs chain depth.

The paper's title promises going *back and forth*; this grid pins the "back"
half. One VM commits an ever-deeper snapshot chain (``lineage`` profile), then
a restore-to-version boots the chain head on another node. The restore scan
pays one version-manager round-trip per ancestry hop — the qcow2
backing-chain analogue — so uncompacted restore cost grows with depth, and
depth-bounded compaction (:mod:`repro.lineage.compact`) is what keeps it flat.

One grid, seed 1: depths x {uncompacted, flatten} plus one delta-merge point
at the deepest chain. The committed ``benchmarks/results/lineage_restore.json``
*is* the expectation: ``make tracked`` reruns the grid and fails on any
``git diff``. The smoke-size behaviour (flatten bounds the scan, merge
reclaims, accounting conserves, determinism) is tier-1:
``tests/lineage/test_point.py``.
"""

from repro.analysis import check_shape
from repro.common.units import MiB

from common import PointSpec, emit_grid, run_sweep, skip_under_quick_profile

skip_under_quick_profile("tests/lineage/test_point.py")

#: chain depths of the grid (n = COMMITs on one VM's clone)
DEPTHS = (4, 8, 16, 32)

#: anchor spacing of the compacted points; a compacted scan may take
#: ``DEPTH_BOUND + 2`` hops
DEPTH_BOUND = 4

#: (label prefix, compaction policy or None, depths)
MODES = (
    ("off", None, DEPTHS),
    ("flatten", "flatten", DEPTHS),
    ("merge", "merge", DEPTHS[-1:]),
)

#: simulated outcomes recorded per point
SIM_FIELDS = (
    "chain_depth", "scan_hops", "scan_time", "clone_time", "open_time",
    "restore_time", "boot_time",
    "dedup_exclusive", "dedup_shared", "dedup_live", "dedup_stored",
    "conserved", "footprint_matches",
    "forest_snapshots", "forest_max_depth",
    "skips_written", "versions_merged", "gc_bytes_reclaimed",
)


def grid_specs():
    return {
        f"{mode}-d{depth}": PointSpec(
            kind="lineage", profile="lineage", approach="mirror", n=depth, seed=1,
            params=() if policy is None else (
                ("compact", True), ("policy", policy), ("depth_bound", DEPTH_BOUND),
            ),
        )
        for mode, policy, depths in MODES
        for depth in depths
    }


def test_lineage_restore(benchmark):
    specs = grid_specs()
    points = benchmark.pedantic(lambda: run_sweep(list(specs.values())), rounds=1, iterations=1)
    rows = {
        label: {f: p.metrics[f] for f in SIM_FIELDS} for label, p in zip(specs, points)
    }
    off = [rows[f"off-d{d}"] for d in DEPTHS]
    flat = [rows[f"flatten-d{d}"] for d in DEPTHS]
    merge = rows[f"merge-d{DEPTHS[-1]}"]

    def hops(series):
        return " / ".join(f"{r['scan_hops']:.0f}" for r in series)

    emit_grid(
        "lineage_restore",
        f"Restore-to-version vs chain depth, compaction off / flatten / merge "
        f"(depth bound {DEPTH_BOUND}, seed 1)",
        rows,
        [
            check_shape(
                f"the uncompacted scan grows strictly with depth: {hops(off)} hops at "
                f"depth {' / '.join(map(str, DEPTHS))}, and its latency with it",
                all(b["scan_hops"] > a["scan_hops"] and b["scan_time"] > a["scan_time"]
                    for a, b in zip(off, off[1:])),
            ),
            check_shape(
                f"flatten holds the scan at {hops(flat)} hops (bound {DEPTH_BOUND} + 2)",
                all(r["scan_hops"] <= DEPTH_BOUND + 2 for r in flat),
            ),
            check_shape(
                f"at depth {DEPTHS[-1]} flatten cuts the scan latency "
                f"({flat[-1]['scan_time'] * 1e3:.2f} ms vs {off[-1]['scan_time'] * 1e3:.2f} ms)",
                flat[-1]["scan_time"] < off[-1]["scan_time"],
            ),
            check_shape(
                f"merge at depth {DEPTHS[-1]} merges {merge['versions_merged']:.0f} versions "
                f"and the GC after it reclaims {merge['gc_bytes_reclaimed'] / MiB:.0f} MiB",
                merge["versions_merged"] > 0 and merge["gc_bytes_reclaimed"] > 0,
            ),
            check_shape(
                "dedup accounting conserves bytes at every point "
                "(exclusive + shared == live == stored)",
                all(r["conserved"] == 1.0 and r["footprint_matches"] == 1.0
                    for r in rows.values()),
            ),
        ],
    )
