"""Tracked paper-scale benchmark for the simulator fabric.

The paper's headline experiments are *concurrency at scale*: hundreds of VM
instances hammering a shared GigE fabric during multideployment and
multisnapshotting. This harness pins that regime with the ``scale`` profile
(see :mod:`repro.runner.profiles`): a 520-node pool whose BlobSeer
repository is concentrated on 8 dedicated provider nodes with NVMe-class
disks, so the network — not the disks — is the bottleneck and every
deployment fans hundreds of concurrent flows into 8 uplinks.

Three workload variants are measured at n ∈ {64, 256, 512}:

* ``deploy``   — fig4-style mirror multideployment;
* ``snapshot`` — fig5-style deploy + local diffs + multisnapshot;
* ``p2p``      — the cooperative-exchange deployment (peers serve chunks).

Each point runs in a **forked child process** so its peak RSS is measured
per point (``ru_maxrss`` of the child, not a monotone high-water mark of the
whole harness); wall time and the deterministic event count yield events/s.

Results are tracked in ``BENCH_scale.json`` at the repository root:

* ``baseline_precohort`` — the same measurement taken immediately before
  the cohort-based rebalancing engine landed (per-flow O(flows-on-link)
  rebalance). Kept as a static record of what the cohort engine bought.
* ``current`` — the committed measurement for the present tree.

Running as a script re-measures and **gates** (mirroring bench_simperf):
non-zero exit if fresh events/s falls more than ``REGRESSION_TOLERANCE``
below the committed ``current``, if the deterministic event count changed,
or if deploy@512 is not ``TARGET_SPEEDUP``× faster (wall time) than the
pre-cohort baseline.
``--update`` rewrites the committed ``current`` section; ``--baseline``
(re)records ``baseline_precohort`` — only meaningful on a pre-cohort tree.

Usage::

    make perf                                    # measure + regression gate
    make scale-smoke                             # tiny-n gate-logic check
    PYTHONPATH=src python benchmarks/bench_scale.py --update
    PYTHONPATH=src python benchmarks/bench_scale.py --full   # adds n=1024
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_scale.json"

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from gates import (  # noqa: E402
    field_drift, jcopy, load_tracked, rss_mib, run_in_child,
    throughput_floor, write_tracked,
)
from repro.cloud import deploy, snapshot_all  # noqa: E402
from repro.runner import (  # noqa: E402
    SCALE,
    BenchProfile,
    apply_diffs,
    build_point_cloud,
    register_profile,
    resolve_profile,
)

#: allowed fractional drop in events/s before the gate fails
REGRESSION_TOLERANCE = 0.25

#: acceptance floor: deploy@512 wall time vs the pre-cohort baseline (the
#: simulated workload is the same, the event count is not: event fusion
#: spends fewer events on it, so events/s does not compare across trees)
TARGET_SPEEDUP = 1.5

#: best-of-N repetitions per point (each in a fresh forked child)
DEFAULT_REPEATS = 1

#: fixed seed — the simulated workload (and its event count) is identical
#: across runs and machines
SEED = 1

#: the tracked grid: variant -> instance counts
VARIANTS = ("deploy", "snapshot", "p2p")
COUNTS = SCALE.instance_counts  # (64, 256, 512)

#: headline point the ≥ TARGET_SPEEDUP acceptance criterion applies to
HEADLINE = ("deploy", 512)

#: ad-hoc profile for the ``--full`` n=1024 smoke point (informational
#: only; not part of the tracked grid)
SCALE_XL = register_profile(
    BenchProfile(
        name="scale-xl",
        pool_nodes=1030,
        instance_counts=(1024,),
        image_size=SCALE.image_size,
        chunk_size=SCALE.chunk_size,
        touched_bytes=SCALE.touched_bytes,
        n_regions=SCALE.n_regions,
        diff_bytes=SCALE.diff_bytes,
        mc_workers=SCALE.mc_workers,
        mc_total_compute=SCALE.mc_total_compute,
        bonnie_working_set=SCALE.bonnie_working_set,
        data_nodes=SCALE.data_nodes,
        meta_nodes=SCALE.meta_nodes,
        calib_overrides=SCALE.calib_overrides,
    )
)


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def run_workload(variant: str, n: int, profile_name: str = SCALE.name) -> int:
    """Run one scale point in-process; returns the processed event count."""
    profile = resolve_profile(profile_name)
    if variant == "deploy":
        cloud, image = build_point_cloud(profile, SEED)
        deploy(cloud, image, n, "mirror")
    elif variant == "snapshot":
        cloud, image = build_point_cloud(profile, SEED)
        res = deploy(cloud, image, n, "mirror")
        apply_diffs(cloud, image, res.vms, profile.diff_bytes)
        snapshot_all(cloud, res.vms, "mirror")
    elif variant == "p2p":
        cloud, image = build_point_cloud(profile, SEED, p2p=True)
        deploy(cloud, image, n, "mirror")
    else:
        raise ValueError(f"unknown scale variant {variant!r}")
    return cloud.env.event_count


def _measure_once(variant: str, n: int, profile_name: str) -> dict:
    t0 = time.perf_counter()
    events = run_workload(variant, n, profile_name)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": events, "peak_rss_mib": rss_mib()}


def measure_point(
    variant: str, n: int, profile_name: str = SCALE.name,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Best-of-N measurement of one point, each run in a forked child.

    The fork (see :func:`gates.run_in_child`) gives a true per-point peak
    RSS; where fork is unavailable the point runs in-process and RSS
    degrades to a monotone high-water mark.
    """
    best = None
    for _ in range(max(1, repeats)):
        row = run_in_child(
            _measure_once, variant, n, profile_name,
            label=f"scale point {variant}@{n}",
        )
        if best is None or row["wall_s"] < best["wall_s"]:
            best = row
    best["wall_s"] = round(best["wall_s"], 3)
    best["events_per_s"] = round(best["events"] / best["wall_s"]) if best["wall_s"] else 0
    return best


def measure(
    variants=VARIANTS, counts=COUNTS, profile_name: str = SCALE.name,
    repeats: int = DEFAULT_REPEATS, verbose: bool = True,
) -> dict:
    """Measure the whole grid; returns {variant: {str(n): row}}."""
    out = {}
    for variant in variants:
        out[variant] = {}
        for n in counts:
            row = measure_point(variant, n, profile_name, repeats)
            out[variant][str(n)] = row
            if verbose:
                print(
                    f"{variant}@{n}: {row['wall_s']:.3f}s wall, "
                    f"{row['events']} events, {row['events_per_s']} events/s, "
                    f"{row['peak_rss_mib']} MiB peak RSS"
                )
    return out


# --------------------------------------------------------------------------- #
# tracked file + gate
# --------------------------------------------------------------------------- #
def load_committed() -> dict:
    return load_tracked(BENCH_PATH)


def _points(section: dict):
    for variant, rows in sorted(section.items()):
        for n, row in sorted(rows.items(), key=lambda kv: int(kv[0])):
            yield variant, n, row


def check_regression(fresh: dict, committed: dict) -> list:
    """Return a list of human-readable failures (empty = gate passes)."""
    failures = []
    current = committed.get("current", {})
    for variant, n, now in _points(fresh):
        base = current.get(variant, {}).get(n)
        if base is None:
            continue
        failures += throughput_floor(
            f"{variant}@{n}", now["events_per_s"], base["events_per_s"],
            REGRESSION_TOLERANCE,
        )
        failures += field_drift(f"{variant}@{n}", now, base, ("events",))
    failures += check_target(fresh, committed)
    return failures


def check_target(fresh: dict, committed: dict) -> list:
    """The ≥ TARGET_SPEEDUP acceptance floor on the headline point."""
    variant, n = HEADLINE
    base = committed.get("baseline_precohort", {}).get(variant, {}).get(str(n))
    now = fresh.get(variant, {}).get(str(n))
    if base is None or now is None:
        return []
    ratio = base["wall_s"] / now["wall_s"]
    if ratio < TARGET_SPEEDUP:
        return [
            f"{variant}@{n}: {now['wall_s']} s wall is only "
            f"{ratio:.2f}x faster than the pre-cohort baseline "
            f"{base['wall_s']} s (target ≥ {TARGET_SPEEDUP}x)"
        ]
    return []


def _speedups(committed: dict) -> dict:
    out = {}
    base = committed.get("baseline_precohort", {})
    for variant, n, row in _points(committed.get("current", {})):
        b = base.get(variant, {}).get(n)
        if b:
            out[f"{variant}@{n}"] = round(b["wall_s"] / row["wall_s"], 2)
    return out


# --------------------------------------------------------------------------- #
# smoke mode: tiny n, asserts the gate logic itself
# --------------------------------------------------------------------------- #
def run_smoke(repeats: int = 1) -> int:
    """``make scale-smoke``: measure tiny points and assert the gate logic.

    Uses the ``scale-smoke`` profile (20 nodes, 4 repository nodes — the
    same concentrated shape at sub-second n) and then exercises
    :func:`check_regression` against synthetic committed data: the gate must
    pass on matching numbers, flag an events/s collapse, flag an event-count
    change, and flag a headline point below the target speedup.
    """
    fresh = measure(
        variants=VARIANTS, counts=(4, 12), profile_name="scale-smoke",
        repeats=repeats,
    )

    committed = {"current": jcopy(fresh)}
    if check_regression(fresh, committed):
        print("smoke: gate failed on identical numbers", file=sys.stderr)
        return 1

    slow = jcopy(committed)
    for rows in slow["current"].values():
        for row in rows.values():
            row["events_per_s"] = row["events_per_s"] * 100 + 1000
    if not check_regression(fresh, slow):
        print("smoke: gate missed an events/s collapse", file=sys.stderr)
        return 1

    drifted = jcopy(committed)
    drifted["current"]["deploy"]["12"]["events"] += 1
    if not any(
        ": events " in f for f in check_regression(fresh, drifted)
    ):
        print("smoke: gate missed an event-count change", file=sys.stderr)
        return 1

    headline_v, headline_n = HEADLINE
    behind = {
        "current": committed["current"],
        "baseline_precohort": {
            headline_v: {
                str(headline_n): {
                    "events_per_s": 10**9, "events": 1, "wall_s": 1.0,
                }
            }
        },
    }
    synthetic_fresh = {
        headline_v: {
            str(headline_n): {"events_per_s": 10**9, "events": 1, "wall_s": 1.0}
        }
    }
    if not check_target(synthetic_fresh, behind):
        print("smoke: gate missed a below-target headline point", file=sys.stderr)
        return 1

    print("scale smoke passed (gate logic verified)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite BENCH_scale.json's 'current' section with this run",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="record this run as 'baseline_precohort' (pre-cohort tree only)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny-n run on the scale-smoke profile + gate-logic self-test",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="additionally smoke-run deployment at n=1024 (informational)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS, help="best-of-N runs"
    )
    parser.add_argument(
        "--variants", nargs="+", default=list(VARIANTS), choices=VARIANTS,
    )
    parser.add_argument(
        "--counts", nargs="+", type=int, default=list(COUNTS),
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    if args.smoke:
        return run_smoke(repeats=args.repeats)

    fresh = measure(
        variants=tuple(args.variants), counts=tuple(args.counts),
        repeats=args.repeats,
    )
    if args.full:
        row = measure_point("deploy", 1024, SCALE_XL.name, repeats=1)
        print(
            f"deploy@1024 (smoke): {row['wall_s']:.3f}s wall, "
            f"{row['events']} events, {row['events_per_s']} events/s, "
            f"{row['peak_rss_mib']} MiB peak RSS"
        )

    committed = load_committed() if BENCH_PATH.exists() else {}

    if args.baseline or args.update:
        committed.setdefault("profile", SCALE.name)
        committed.setdefault("seed", SEED)
        if args.baseline:
            committed["baseline_precohort"] = fresh
        if args.update:
            committed["current"] = fresh
        committed["speedup_vs_precohort"] = _speedups(committed)
        write_tracked(BENCH_PATH, committed)
        print(f"updated {BENCH_PATH}")
        return 0

    if not committed.get("current"):
        print(f"no committed numbers at {BENCH_PATH}; run with --update first")
        return 1
    failures = check_regression(fresh, committed)
    if failures:
        for f in failures:
            print(f"SCALE REGRESSION: {f}", file=sys.stderr)
        return 1
    speedups = _speedups(committed)
    if speedups:
        print("committed speedups vs pre-cohort baseline:", json.dumps(speedups))
    print("scale gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
