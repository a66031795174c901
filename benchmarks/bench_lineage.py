"""Tracked snapshot-lineage grid: restore cost vs chain depth.

The paper's title promises going *back and forth*; this grid pins the "back"
half. One VM commits an ever-deeper snapshot chain (``lineage`` profile), then
a restore-to-version boots the chain head on another node. Shadowing and
cloning make every snapshot a standalone image (§3.1, Fig. 3): the restore
reads the head's own lineage record, and its metadata root reaches every
chunk, so restore latency does not grow with depth — unlike a qcow2 backing
chain, whose open pays one file per ancestor. A retention merge
(:mod:`repro.lineage.compact`) thins the chain's published versions so GC
can reclaim their exclusive chunks.

One grid, seed 1: the unmerged chain at every depth plus one merge point at
the deepest chain. The committed ``benchmarks/results/lineage_restore.json``
*is* the expectation: ``make tracked`` reruns the grid and fails on any
``git diff``. The smoke-size behaviour (depth-independent restore, merge
reclaims, accounting conserves, determinism) is tier-1:
``tests/lineage/test_point.py``.
"""

from repro.analysis import check_shape
from repro.common.units import MiB

from common import PointSpec, emit_grid, run_sweep, skip_under_quick_profile

skip_under_quick_profile("tests/lineage/test_point.py")

#: chain depths of the grid (n = COMMITs on one VM's clone)
DEPTHS = (4, 8, 16, 32)

#: the merge point keeps every KEEP_EVERY-th version from the genesis
KEEP_EVERY = 4

#: (label prefix, merge keep_every or None, depths)
MODES = (
    ("off", None, DEPTHS),
    ("merge", KEEP_EVERY, DEPTHS[-1:]),
)

#: simulated outcomes recorded per point
SIM_FIELDS = (
    "chain_depth", "lookup_time", "clone_time", "open_time",
    "restore_time", "boot_time",
    "dedup_exclusive", "dedup_shared", "dedup_live", "dedup_stored",
    "conserved", "footprint_matches",
    "forest_snapshots", "forest_max_depth",
    "versions_merged", "gc_bytes_reclaimed",
)


def grid_specs():
    return {
        f"{mode}-d{depth}": PointSpec(
            kind="lineage", profile="lineage", approach="mirror", n=depth, seed=1,
            params=() if keep_every is None else (("keep_every", keep_every),),
        )
        for mode, keep_every, depths in MODES
        for depth in depths
    }


def test_lineage_restore(benchmark):
    specs = grid_specs()
    points = benchmark.pedantic(lambda: run_sweep(list(specs.values())), rounds=1, iterations=1)
    rows = {
        label: {f: p.metrics[f] for f in SIM_FIELDS} for label, p in zip(specs, points)
    }
    off = [rows[f"off-d{d}"] for d in DEPTHS]
    merge = rows[f"merge-d{DEPTHS[-1]}"]
    restores = [r["restore_time"] for r in off]
    lookup = min(r["lookup_time"] for r in off)

    emit_grid(
        "lineage_restore",
        f"Restore-to-version vs chain depth, unmerged / merged keeping every "
        f"{KEEP_EVERY}th version (seed 1)",
        rows,
        [
            check_shape(
                f"restore latency is equal at depth {' / '.join(map(str, DEPTHS))}: "
                f"{' / '.join(f'{t * 1e3:.2f}' for t in restores)} ms, spread under "
                f"one lineage lookup ({lookup * 1e3:.2f} ms)",
                max(restores) - min(restores) < lookup,
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
