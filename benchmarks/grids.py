"""The tracked grids: one row per sweep, one record per artifact.

Every committed ``benchmarks/results/<id>.json`` is written by one row of
:data:`GRIDS`, and ``benchmarks/tracked.py`` runs the table. A row has

* ``profile``: a fixed profile (``CHURN``, ``LINEAGE``, ``TOPO``,
  ``P2P``: a tracked grid has one size), or ``None`` to follow
  ``REPRO_BENCH_PROFILE`` (the figures, ablations and resilience sweep);
* ``specs``: ``profile -> {label: PointSpec}``, the row's points. The
  driver simulates the points of every selected row in one sweep;
* ``records``: one per artifact, named after its id. ``record(points,
  profile)`` gets ``{label: PointResult}`` and returns the rendered text
  and the artifact's data, whose ``checks`` are its ``check_shape`` lines.
  Records run in the driver's process after the sweep's pool has joined,
  so a record may also simulate what is no sweep point (a bare-fabric
  broadcast, a pilot's prefetch profile, the dedup variants, the max-min
  yardstick).

The values are deterministic and the committed files are the expectation:
``make tracked`` reruns the table at the ``quick`` profile and fails on any
diff.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
# `import repro` without an installed package or PYTHONPATH=src, and the test
# references importable (the fairness ablation's max-min yardstick)
for path in (ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from reference_network import maxmin_fabric  # noqa: E402

from repro.analysis import (  # noqa: E402
    Figure,
    Series,
    ascii_chart,
    check_shape,
    render_bars,
    render_figure,
    speedup,
)
from repro.baselines.broadcast import broadcast  # noqa: E402
from repro.calibration import Calibration, ImageSpec  # noqa: E402
from repro.cloud import build_cloud, deploy, instance, snapshot_all  # noqa: E402
from repro.cloud.deployment import seed_image  # noqa: E402
from repro.common.payload import Payload  # noqa: E402
from repro.common.units import GiB, KiB, MiB  # noqa: E402
from repro.core.prefetch import AccessProfile, Prefetcher, ProfileRecorder  # noqa: E402
from repro.runner import PointSpec, execute_point  # noqa: E402
from repro.runner.profiles import CHURN, LINEAGE, P2P, TOPO, BenchProfile  # noqa: E402
from repro.simkit.host import Fabric  # noqa: E402
from repro.vmsim import boot_trace, make_image  # noqa: E402


class Grid(NamedTuple):
    """One row of the table: one sweep and the artifacts it writes."""

    profile: Optional[BenchProfile]
    specs: Callable
    #: one per artifact, named after its id
    records: Tuple[Callable, ...]


# ---- the four record shapes -------------------------------------------------


def figure(figure_id, title, x_label, y_label, series, checks, fmt="{:10.2f}"):
    """A figure artifact: its ``series`` (table + ASCII chart) and checks."""
    fig = Figure(figure_id, title, x_label, y_label)
    for s in series:
        fig.add_series(s)
    text = render_figure(fig, fmt=fmt) + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks)
    return text, {
        "title": fig.title,
        "x_label": fig.x_label,
        "y_label": fig.y_label,
        "series": {name: {"x": s.x, "y": s.y} for name, s in fig.series.items()},
        "checks": list(checks),
    }


def grid(figure_id, title, points, checks):
    """A tracked grid: ``points`` maps a point label to its ``{field: value}``."""
    fields = list(next(iter(points.values())))
    columns = {label: [row[f] for f in fields] for label, row in points.items()}
    text = render_bars(f"{figure_id}: {title}", fields, columns, fmt="{:16.9g}")
    return "\n".join([text, *checks]), {"title": title, "points": points, "checks": list(checks)}


def bars(title, labels, groups, checks, fmt="{:12.1f}"):
    """A bar chart (Figs. 6-8); a NaN bar (no such run) is null in the JSON."""
    text = render_bars(title, labels, groups, fmt=fmt)
    return "\n".join([text, *checks]), {
        "labels": list(labels),
        "groups": {k: [None if v != v else v for v in vals] for k, vals in groups.items()},
        "checks": checks,
    }


def table(lines, checks, data):
    """An ablation: its own text lines and fields."""
    return "\n".join([*lines, *checks]), {**data, "checks": checks}


def point(profile, kind, approach="mirror", n=0, seed=1, **params):
    """A :class:`PointSpec` on ``profile``; the keywords are its params."""
    return PointSpec(kind=kind, profile=profile, approach=approach, n=n, seed=seed,
                     params=params)


def recorded(points, fields):
    """A grid's ``{label: {field: value}}``: the named metrics of every point."""
    return {label: {f: p.metrics[f] for f in fields} for label, p in points.items()}


def curves(points, names, xs, metric, label=str):
    """One :class:`Series` per name: ``metric(points[name, x])`` over ``xs``."""
    out = {}
    for name in names:
        s = Series(label(name))
        for x in xs:
            s.add(x, metric(points[name, x]))
        out[name] = s
    return out


# ---- Figure 4: multideployment (paper §5.2) ---------------------------------
# One initial image deployed to N concurrent instances, N swept over the
# profile's counts, for the three approaches; the panels assert the paper's
# qualitative shapes.

FIG4_APPROACHES = ("prepropagation", "qcow2-pvfs", "mirror")


def campaign_specs(kind, approaches):
    """One ``kind`` point per approach and instance count of the profile."""
    return lambda profile: {
        (a, n): point(profile, kind, a, n) for a in approaches for n in profile.instance_counts
    }


def campaign(points, profile, metric):
    """The figure's curves, one per approach; every point ran its ``n`` instances."""
    assert all(len(p.boot_times if p.spec.kind == "deploy" else p.per_instance) == p.spec.n
               for p in points.values())
    return curves(points, dict.fromkeys(a for a, _n in points), profile.instance_counts, metric)


def fig4a(points, profile):
    series = campaign(points, profile, lambda r: r.avg_boot_time)
    checks = [
        # prepropagation boots from a local copy: flat, lowest
        check_shape(
            "prepropagation flat (max/min < 1.35)",
            series["prepropagation"].max() / min(series["prepropagation"].y) < 1.35,
        ),
        check_shape(
            "mirror grows slower than qcow2-over-PVFS",
            (series["mirror"].last() / series["mirror"].y[0])
            < (series["qcow2-pvfs"].last() / series["qcow2-pvfs"].y[0]),
        ),
        check_shape(
            "remote-backed approaches above prepropagation at max N",
            series["mirror"].last() > series["prepropagation"].last()
            and series["qcow2-pvfs"].last() > series["mirror"].last(),
        ),
    ]
    return figure("fig4a", "Average time to boot per instance", "instances", "seconds",
                  series.values(), checks)


def fig4b(points, profile):
    series = campaign(points, profile, lambda r: r.completion_time)
    checks = [
        check_shape(
            "prepropagation completion grows strongly with N (broadcast)",
            series["prepropagation"].last()
            > (3 if profile.name == "paper" else 1.5) * series["prepropagation"].y[0],
        ),
        check_shape(
            "mirror completes first at every N",
            all(
                series["mirror"].at(n) < series["qcow2-pvfs"].at(n)
                and series["mirror"].at(n) < series["prepropagation"].at(n)
                for n in profile.instance_counts
            ),
        ),
    ]
    return figure("fig4b", "Completion time to boot all instances", "instances", "seconds",
                  series.values(), checks)


def fig4c(points, profile):
    series = campaign(points, profile, lambda r: r.completion_time)
    vs_taktuk = speedup(series["prepropagation"], series["mirror"], "vs taktuk prepropagation")
    vs_qcow2 = speedup(series["qcow2-pvfs"], series["mirror"], "vs qcow2 over PVFS")
    last_n = profile.instance_counts[-1]
    checks = [
        check_shape(
            f"speedup vs prepropagation large at scale (paper: up to ~25; got {vs_taktuk.max():.1f})",
            vs_taktuk.max() > (15 if profile.name == "paper" else 4),
        ),
        check_shape(
            f"speedup vs qcow2-over-PVFS ~2 at N={last_n} (got {vs_qcow2.at(last_n):.2f})",
            1.5 < vs_qcow2.at(last_n) < 3.5,
        ),
        check_shape(
            "speedup vs qcow2 slowly increases with N",
            vs_qcow2.last() > vs_qcow2.y[0],
        ),
    ]
    return figure("fig4c", "Speedup of completion time (our approach)", "instances", "x",
                  (vs_taktuk, vs_qcow2), checks)


def fig4d(points, profile):
    series = campaign(points, profile, lambda r: r.total_traffic / 1e9)
    last_n = profile.instance_counts[-1]
    reduction = 1 - series["mirror"].at(last_n) / series["prepropagation"].at(last_n)
    checks = [
        check_shape(
            f"~90% traffic reduction vs prepropagation (got {reduction:.0%})",
            reduction > 0.85,
        ),
        check_shape(
            "mirror slightly above qcow2 (chunk-prefetch overhead)",
            1.0
            < series["mirror"].at(last_n) / series["qcow2-pvfs"].at(last_n)
            < 1.35,
        ),
        check_shape(
            "all approaches grow linearly with N (monotone)",
            all(s.is_monotonic_nondecreasing() for s in series.values()),
        ),
    ]
    return figure("fig4d", "Total network traffic", "instances", "GB", series.values(), checks)


# ---- Figure 5: multisnapshotting (paper §5.3) -------------------------------
# N running instances, each with the profile's local modifications,
# snapshotted concurrently: ours (CLONE+COMMIT) against qcow2-file copy-back
# to PVFS (prepropagation cannot multisnapshot).

FIG5_APPROACHES = ("qcow2-pvfs", "mirror")


def fig5a(points, profile):
    series = campaign(points, profile, lambda r: r.avg_time)
    last_n = profile.instance_counts[-1]
    checks = [
        check_shape(
            "mirror starts much lower (async write pipeline)",
            series["mirror"].y[0] < 0.5 * series["qcow2-pvfs"].y[0],
        ),
        check_shape(
            "mirror degrades with write pressure (grows with N)",
            series["mirror"].at(last_n) > 1.2 * series["mirror"].y[0],
        ),
        check_shape(
            "both grow slowly (no blow-up: max < 3x first point)",
            all(s.last() < 3 * s.y[0] for s in series.values()),
        ),
        check_shape(
            "mirror stays at or below qcow2 level",
            all(
                series["mirror"].at(n) <= series["qcow2-pvfs"].at(n) * 1.05
                for n in profile.instance_counts
            ),
        ),
    ]
    return figure("fig5a", "Average time to snapshot one instance", "instances", "seconds",
                  series.values(), checks, fmt="{:10.3f}")


def fig5b(points, profile):
    series = campaign(points, profile, lambda r: r.completion_time)
    last_n = profile.instance_counts[-1]
    checks = [
        check_shape(
            "completion grows faster than the per-instance average (stragglers)",
            series["mirror"].at(last_n) > points["mirror", last_n].avg_time,
        ),
        check_shape(
            "same order of magnitude, sub-second scale (paper: 'perform similarly')",
            all(
                0.1
                < series["mirror"].at(n) / series["qcow2-pvfs"].at(n)
                < 4.0
                and series["mirror"].at(n) < 3.0
                for n in profile.instance_counts[1:]
            ),
        ),
    ]
    return figure("fig5b", "Completion time to snapshot all instances", "instances", "seconds",
                  series.values(), checks, fmt="{:10.3f}")


# ---- Figures 6 and 7: Bonnie++ (paper §5.4) ---------------------------------
# A single VM writes, reads back and overwrites its working set in 8 KiB
# blocks inside its image: the mirror (FUSE + mmap write-back) against a
# locally available raw image. One run per backend feeds both figures: Fig. 6
# reads its sustained throughput, Fig. 7 its metadata-class ops/s.


def bonnie_groups(points, metrics):
    """The bars of Figs. 6 and 7: ``metrics`` of the local-raw run and of ours."""
    return {name: [points[run].metrics[m] for m in metrics]
            for name, run in (("local", "local"), ("our-approach", "mirror"))}


def fig6(points, profile):
    local, ours = points["local"].metrics, points["mirror"].metrics
    # §5.4: written-then-read data never triggers remote reads
    assert ours["payload_traffic"] < 2 * MiB
    groups = bonnie_groups(points, ("block_write_kbps", "block_read_kbps", "block_overwrite_kbps"))
    w_ratio = ours["block_write_kbps"] / local["block_write_kbps"]
    o_ratio = ours["block_overwrite_kbps"] / local["block_overwrite_kbps"]
    r_ratio = ours["block_read_kbps"] / local["block_read_kbps"]
    checks = [
        check_shape(f"BlockW ~2x higher for ours (mmap write-back; got {w_ratio:.2f}x)", 1.5 < w_ratio < 2.6),
        check_shape(f"BlockO ~2x higher for ours (got {o_ratio:.2f}x)", 1.3 < o_ratio < 2.6),
        check_shape(f"BlockR equal for both (got {r_ratio:.2f}x)", 0.85 < r_ratio < 1.15),
    ]
    return bars("fig6: Bonnie++ sustained throughput (KB/s)",
                ["BlockW", "BlockR", "BlockO"], groups, checks)


def fig7(points, profile):
    """The mirror pays FUSE's extra user/kernel context switches per
    operation, so its ops/s are lower: the paper's acknowledged trade-off
    ("since such operations are relatively rare and execute very fast, the
    performance penalty in real life is not an issue")."""
    local, ours = points["local"].metrics, points["mirror"].metrics
    assert local["rnd_seek_ops"] > 0 and ours["rnd_seek_ops"] > 0
    groups = bonnie_groups(points, ("rnd_seek_ops", "create_ops", "delete_ops"))
    checks = [
        check_shape(
            "ours lower in every ops/s metric (FUSE context switches)",
            ours["rnd_seek_ops"] < local["rnd_seek_ops"]
            and ours["create_ops"] < local["create_ops"]
            and ours["delete_ops"] < local["delete_ops"],
        ),
        check_shape(
            "gap is a small constant factor (2-4x), not orders of magnitude",
            all(
                1.5 < l / o < 5.0
                for l, o in [
                    (local["rnd_seek_ops"], ours["rnd_seek_ops"]),
                    (local["create_ops"], ours["create_ops"]),
                    (local["delete_ops"], ours["delete_ops"]),
                ]
            ),
        ),
    ]
    return bars("fig7: Bonnie++ operations per second",
                ["RndSeek", "CreatF", "DelF"], groups, checks, fmt="{:12.0f}")


# ---- Figure 8: Monte Carlo in the real world (paper §5.5) -------------------
# Workers estimate pi, each periodically saving an intermediate result inside
# its VM image. Uninterrupted: deploy and run to completion. Suspend/Resume:
# run half-way, multisnapshot, terminate, redeploy every instance on a
# different node and resume (prepropagation cannot multisnapshot). The point
# executor asserts end to end that resumed workers continue from the saved
# progress, never from scratch.


def fig8(points, profile):
    t = {"uninterrupted": {}, "suspend-resume": {}}
    for p in points.values():
        t[p.spec.param("mode")][p.spec.approach] = p.metrics["completion_time"]
        assert p.metrics["completion_time"] > profile.mc_total_compute  # computation dominates
    uninterrupted, suspend = t["uninterrupted"], t["suspend-resume"]
    groups = {
        "pre-propagation": [uninterrupted["prepropagation"], float("nan")],
        "qcow2-over-PVFS": [uninterrupted["qcow2-pvfs"], suspend["qcow2-pvfs"]],
        "our-approach": [uninterrupted["mirror"], suspend["mirror"]],
    }
    gain = 1 - suspend["mirror"] / suspend["qcow2-pvfs"]
    checks = [
        check_shape(
            "uninterrupted: prepropagation worst (costly init phase)",
            uninterrupted["prepropagation"] > uninterrupted["qcow2-pvfs"] > uninterrupted["mirror"],
        ),
        check_shape(
            f"suspend/resume: ours faster by a few percent (paper ~5%; got {gain:.1%})",
            0.0 < gain < 0.25,
        ),
        check_shape(
            "suspend/resume costs more than uninterrupted (double boot)",
            suspend["mirror"] > uninterrupted["mirror"],
        ),
    ]
    workers = min(profile.mc_workers, profile.pool_nodes)  # what the point runs
    return bars(f"fig8: Monte Carlo completion time (s), {workers} VM instances",
                ["Uninterrupted", "Suspend/Resume"], groups, checks)


# ---- Resilience: multideployment under injected provider crashes ------------
# Not a paper figure (its evaluation runs failure-free): N instances deploy
# with the mirror approach while a staggered fault plan permanently crashes
# spare pool nodes, taking their providers down with every unreplicated
# chunk. Replication 1 loses instances as soon as providers die; replication
# >= 2 rides out every crash level (the plan never kills a whole replica
# set) at the cost of slower, retry-laden boots.

CRASH_COUNTS = (0, 2, 4)
REPLICATIONS = (1, 2, 3)


def resilience_specs(profile):
    """The deployment size is the second entry of the profile's sweep (8
    quick / 20 paper): it leaves plenty of spare pool nodes to crash."""
    return {
        (r, c): point(profile, "resilience", n=profile.instance_counts[1], replication_factor=r,
                      crashes=c, window=5.0, rpc_timeout=2.0)
        for r in REPLICATIONS
        for c in CRASH_COUNTS
    }


def _resilience(points, profile, metric):
    assert all(p.metrics["boots_completed"] + p.metrics["boots_failed"] == p.spec.n
               for p in points.values())
    return curves(points, REPLICATIONS, CRASH_COUNTS, lambda p: p.metrics[metric],
                  label=lambda r: f"replication={r}")


def resilience_survival(points, profile):
    series = _resilience(points, profile, "survival_rate")
    max_c = CRASH_COUNTS[-1]
    checks = [
        check_shape(
            "fault-free deployments always complete (every replication)",
            all(series[r].at(0) == 1.0 for r in REPLICATIONS),
        ),
        check_shape(
            f"replication 1 loses instances under {max_c} permanent crashes",
            series[1].at(max_c) < 1.0,
        ),
        check_shape(
            "replication >= 2 survives every crash level",
            all(
                series[r].at(c) == 1.0
                for r in REPLICATIONS if r >= 2
                for c in CRASH_COUNTS
            ),
        ),
    ]
    return figure(
        "resilience_survival",
        f"Instances booted under provider crashes (n={profile.instance_counts[1]})",
        "crashed providers", "survival rate", series.values(), checks, fmt="{:10.3f}",
    )


def resilience_degradation(points, profile):
    series = _resilience(points, profile, "completion_time")
    max_c = CRASH_COUNTS[-1]
    checks = [
        check_shape(
            "crash-free completion is unaffected by the replication factor "
            "(reads always hit the primary replica)",
            max(series[r].at(0) for r in REPLICATIONS)
            / min(series[r].at(0) for r in REPLICATIONS) < 1.25,
        ),
        check_shape(
            "surviving replicated deployments degrade (slower, not dead) "
            "under crashes",
            all(series[r].at(max_c) > series[r].at(0) for r in (2, 3)),
        ),
    ]
    return figure(
        "resilience_degradation",
        f"Boot-phase completion time under provider crashes (n={profile.instance_counts[1]})",
        "crashed providers", "seconds", series.values(), checks, fmt="{:10.3f}",
    )


# ---- Ablations of the design choices DESIGN.md calls out --------------------
# Not paper figures: sanity probes behind the paper's §3 design arguments,
# on a mid-size cluster distinct from both paper profiles.

CHUNK_SIZES = (64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB)


def ablation(profile):
    """``(N, POOL, IMAGE, TOUCHED)`` of the ablations' cluster."""
    if profile.name == "paper":
        return 24, 32, 1 * GiB, 64 * MiB
    return 8, 12, 256 * MiB, 24 * MiB


def ablation_deploy(profile, chunk_size=256 * KiB, mirror_prefetch=True, seed=5):
    """One ablation deployment as a sweep point, on the ablations' cluster
    with an image of ``chunk_size`` chunks."""
    N, POOL, IMAGE, TOUCHED = ablation(profile)
    image = ImageSpec(size=IMAGE, chunk_size=chunk_size, boot_touched_bytes=TOUCHED)
    cluster = replace(profile, name=f"ablation-{profile.name}", pool_nodes=POOL,
                      instance_counts=(N,), calib=replace(profile.calib, image=image),
                      n_regions=48)
    params = () if mirror_prefetch else (("mirror_prefetch", False),)
    return PointSpec(kind="deploy", profile=cluster, approach="mirror", n=N, seed=seed,
                     params=params)


def ablation_specs(profile):
    """The chunk-size sweep, and the default ``mirror`` deployment (strategy 1,
    broadcast, fairness) with its ``exact``-ranges variant."""
    return {**{cs: ablation_deploy(profile, chunk_size=cs) for cs in CHUNK_SIZES},
            "mirror": ablation_deploy(profile),
            "exact": ablation_deploy(profile, mirror_prefetch=False)}


def ablation_chunk_size(points, profile):
    """§3.1.3: too small a chunk and per-request overhead dominates, too
    large and false sharing does; 256 KiB should sit in the sweet spot."""
    boot = Series("avg boot (s)")
    traffic = Series("traffic (GB)")
    for cs in CHUNK_SIZES:
        boot.add(cs / KiB, points[cs].avg_boot_time)
        traffic.add(cs / KiB, points[cs].total_traffic / 1e9)
    fig = Figure("ablation-chunk", "Chunk-size trade-off (mirror)", "chunk KiB", "mixed")
    fig.add_series(boot)
    fig.add_series(traffic)
    checks = [
        check_shape(
            "traffic grows with chunk size (prefetch amplification)",
            traffic.is_monotonic_nondecreasing(tolerance=0.02),
        ),
        check_shape(
            "256 KiB boots no slower than the extremes",
            boot.at(256) <= boot.at(64) * 1.05 and boot.at(256) <= boot.at(4096) * 1.05,
        ),
    ]
    return table([render_figure(fig)], checks,
                 {"series": {s.name: {"x": s.x, "y": s.y} for s in (boot, traffic)}})


def ablation_strategy1(points, profile):
    """Strategy 1's trade-off (§3.3): a little more traffic, fewer remote reads.

    At the boot-trace granularity both variants finish in similar time (the
    per-chunk re-access win is demonstrated at micro level in
    ``tests/core/test_prefetch_ablation.py``); what the deployment-scale
    ablation shows robustly is the traffic-for-round-trips trade the paper
    describes: prefetch moves chunk-rounded bytes but never issues *more*
    remote reads, and the fetched surplus is the Fig. 4(d) gap between our
    approach (~13 GB) and qcow2 (~12 GB).
    """
    with_prefetch, without = points["mirror"], points["exact"]
    trips_pf = with_prefetch.counters["mirror-remote-read"]
    trips_exact = without.counters["mirror-remote-read"]
    lines = [
        "# ablation: mirroring strategy 1 (full-chunk prefetch)",
        "",
        f"{'variant':<22}{'avg boot (s)':>14}{'traffic (GB)':>14}{'remote trips':>14}",
        f"{'prefetch (paper)':<22}{with_prefetch.avg_boot_time:>14.2f}"
        f"{with_prefetch.total_traffic / 1e9:>14.2f}{trips_pf:>14}",
        f"{'exact ranges':<22}{without.avg_boot_time:>14.2f}"
        f"{without.total_traffic / 1e9:>14.2f}{trips_exact:>14}",
    ]
    checks = [
        check_shape(
            "prefetch moves more bytes (chunk rounding)",
            with_prefetch.total_traffic > without.total_traffic,
        ),
        check_shape(
            "prefetch never issues more remote reads",
            trips_pf <= trips_exact,
        ),
        check_shape(
            "boot time not hurt by the surplus traffic (within 3%)",
            with_prefetch.avg_boot_time < without.avg_boot_time * 1.03,
        ),
    ]
    return table(lines, checks, {
        "prefetch": {"avg_boot_time": with_prefetch.avg_boot_time,
                     "total_traffic": with_prefetch.total_traffic,
                     "remote_trips": trips_pf},
        "exact": {"avg_boot_time": without.avg_boot_time,
                  "total_traffic": without.total_traffic,
                  "remote_trips": trips_exact},
    })


def ablation_broadcast(points, profile):
    """Taktuk-style store-and-forward vs block pipelining: what a better
    broadcast would buy prepropagation, and that even then it cannot catch
    lazy mirroring on time-to-ready."""
    N, POOL, IMAGE, TOUCHED = ablation(profile)
    makespans = {}
    for label, block in (("store-and-forward", None), ("pipelined-4MiB", 4 * MiB)):
        fab = Fabric(seed=11)
        source = fab.add_host("source")
        targets = [fab.add_host(f"n{i}") for i in range(N)]

        def run(block=block, fab=fab, source=source, targets=targets):
            report = yield from broadcast(
                fab, source, targets, Payload.opaque("img", IMAGE), "/img",
                block_size=block,
            )
            return report

        makespans[label] = fab.run(fab.env.process(run())).makespan
    mirror_time = points["mirror"].completion_time
    lines = [
        "# ablation: broadcast pipelining (prepropagation transport)",
        "",
        *(f"{k:<22}{v:>12.1f} s" for k, v in makespans.items()),
        f"{'mirror (lazy, total)':<22}{mirror_time:>12.1f} s",
    ]
    checks = [
        check_shape(
            "block pipelining much faster than store-and-forward",
            makespans["pipelined-4MiB"] < makespans["store-and-forward"] / 2,
        ),
        check_shape(
            "even pipelined broadcast slower to readiness than lazy mirroring",
            mirror_time < makespans["pipelined-4MiB"],
        ),
    ]
    return table(lines, checks,
                 {"makespans": makespans, "mirror_completion_time": mirror_time})


def ablation_prefetch(points, bench_profile):
    """§7 extension: profile-guided background prefetch during boot.

    A pilot instance records the image's chunk-access order; subsequent
    instances run a bounded-look-ahead prefetcher alongside the boot, so
    chunk fetch overlaps guest CPU bursts instead of serializing with them.
    """
    N, POOL, IMAGE, TOUCHED = ablation(bench_profile)

    def run_variant(use_prefetch):
        calib = Calibration(
            image=ImageSpec(size=IMAGE, chunk_size=256 * KiB, boot_touched_bytes=TOUCHED)
        )
        cloud = build_cloud(POOL, seed=5, calib=calib)
        image = make_image(IMAGE, TOUCHED, n_regions=48)
        idents = seed_image(cloud, image)
        rec = idents["blobseer"]
        at = (rec.blob_id, rec.version)

        def mirror_vm(name, node, path, rng):
            backend = instance.open_mirror(node, cloud.blobseer, at, cloud.calib.fuse, path)
            return instance.new_vm(name, backend, rng, calib.boot)

        # pilot run records the profile
        profile = AccessProfile(256 * KiB)
        pilot_backend = mirror_vm(
            "pilot", cloud.compute[POOL - 1], "/mirror/pilot", ("pilot",)
        ).backend
        trace = boot_trace(image, calib.boot, cloud.fabric.rng.get("pilot-trace"))

        def pilot_boot():
            yield from pilot_backend.open()
            recorder = ProfileRecorder(pilot_backend.handle)
            yield cloud.env.timeout(0.5)
            for op in trace:
                if op.kind == "cpu":
                    yield cloud.env.timeout(op.duration)
                elif op.kind == "read":
                    yield from recorder.read(op.offset, op.nbytes)
                else:
                    yield from recorder.write(op.offset, Payload.opaque("w", op.nbytes))
            recorder.finish_into(profile)

        cloud.run(cloud.env.process(pilot_boot()))

        # fleet boots, optionally with prefetchers
        boots = []
        vms = []
        for i in range(N):
            vm = mirror_vm(f"vm{i}", cloud.compute[i], f"/mirror/vm{i}", ("vm", i))
            backend = vm.backend
            vms.append(vm)
            vm_trace = boot_trace(image, calib.boot, cloud.fabric.rng.get("trace", i))

            def boot_one(vm=vm, backend=backend, vm_trace=vm_trace):
                env = cloud.env
                t0 = env.now
                init = vm.rng.uniform(calib.boot.hypervisor_init_min, calib.boot.hypervisor_init_max)
                yield env.timeout(float(init))
                yield from backend.open()
                prefetcher = None
                if use_prefetch:
                    prefetcher = Prefetcher(backend.handle, profile, window=24)
                    prefetcher.start()
                yield from vm.run_ops(vm_trace)
                if prefetcher is not None:
                    prefetcher.stop()
                vm.boot_time = env.now - t0

            boots.append(cloud.env.process(boot_one()))
        cloud.run(cloud.env.all_of(boots))
        return sum(vm.boot_time for vm in vms) / len(vms)

    without, with_pf = run_variant(False), run_variant(True)
    lines = [
        "# ablation: profile-guided prefetching (paper §7 future work)",
        "",
        f"{'no prefetch':<22}{without:>12.2f} s avg boot",
        f"{'profile prefetch':<22}{with_pf:>12.2f} s avg boot",
        f"improvement: {1 - with_pf / without:.1%}",
    ]
    checks = [
        check_shape(
            f"profile-guided prefetch speeds up boots (got {1 - with_pf / without:.1%})",
            with_pf < without,
        ),
    ]
    return table(lines, checks,
                 {"avg_boot_time": {"no_prefetch": without, "profile_prefetch": with_pf}})


def ablation_dedup(points, profile):
    """§7 extension: deduplication for multisnapshotting.

    All instances of one deployment write largely *identical* local
    modifications (the common case: contextualization writes the same config
    templates everywhere). With content-addressed dedup the repository
    stores the shared diff once.
    """
    N, POOL, IMAGE, TOUCHED = ablation(profile)

    def run_variant(dedup):
        calib = Calibration(
            image=ImageSpec(size=IMAGE, chunk_size=256 * KiB, boot_touched_bytes=TOUCHED)
        )
        cloud = build_cloud(POOL, seed=5, calib=calib, dedup=dedup)
        image = make_image(IMAGE, TOUCHED, n_regions=48)
        res = deploy(cloud, image, N, "mirror")
        # identical 4 MiB of contextualization writes on every instance:
        # real shared bytes so the content index can recognize them. Placed
        # away from the boot's per-instance log writes so chunk contents are
        # bit-identical across VMs. The pattern has period 256.
        shared = bytes((i * 31 + 7) % 256 for i in range(256)) * (4 * MiB // 256)
        base_off = IMAGE - 8 * MiB

        def write_shared(vm):
            yield from vm.backend.write(base_off, Payload.from_bytes(shared))

        procs = [cloud.env.process(write_shared(vm)) for vm in res.vms]
        cloud.run(cloud.env.all_of(procs))
        before = cloud.blobseer.stored_bytes()
        campaign = snapshot_all(cloud, res.vms, "mirror")
        added = cloud.blobseer.stored_bytes() - before
        return added, campaign.avg_time

    (plain_added, plain_avg), (dedup_added, dedup_avg) = run_variant(False), run_variant(True)
    lines = [
        "# ablation: deduplicated multisnapshotting (paper §7 future work)",
        "",
        f"{'variant':<14}{'stored (MiB)':>14}{'avg snap (s)':>14}",
        f"{'plain':<14}{plain_added / 2**20:>14.1f}{plain_avg:>14.3f}",
        f"{'dedup':<14}{dedup_added / 2**20:>14.1f}{dedup_avg:>14.3f}",
        f"storage saved: {1 - dedup_added / plain_added:.0%}",
        "note: concurrent identical commits can race the content index",
        "      (query happens before the winner registers); a fully",
        "      synchronized campaign dedups all but a handful of copies.",
    ]
    checks = [
        check_shape(
            f"most of the {N} identical 4 MiB diffs deduplicated "
            f"(saved {(plain_added - dedup_added) / 2**20:.0f} MiB of the "
            f"(N-1) x 4 MiB = {(N - 1) * 4} MiB ideal)",
            plain_added - dedup_added >= (N - 1) * 4 * MiB * 0.6,
        ),
        check_shape(
            "snapshot latency not inflated by fingerprinting (within 2x)",
            dedup_avg < plain_avg * 2.0,
        ),
    ]
    return table(lines, checks, {
        "stored_bytes": {"plain": plain_added, "dedup": dedup_added},
        "avg_snapshot_time": {"plain": plain_avg, "dedup": dedup_avg},
    })


def ablation_fairness(points, profile):
    """The equal-share flow engine against exact max-min. Max-min is a test
    reference (``MaxMinNetwork`` in ``tests/reference_network.py``), not a
    cloud param, so its point runs in this process with the equal-share
    point's spec; only the network class differs."""
    with maxmin_fabric():
        maxmin = execute_point(ablation_deploy(profile))
    times = {
        "equal-share": points["mirror"].completion_time,
        "maxmin": maxmin.completion_time,
    }
    rel_err = abs(times["equal-share"] - times["maxmin"]) / times["maxmin"]
    lines = [
        "# ablation: network fairness model",
        "",
        *(f"{k:<22}{v:>12.2f} s" for k, v in times.items()),
        f"relative difference: {rel_err:.1%}",
    ]
    checks = [
        check_shape(
            f"equal-share approximation within 15% of exact max-min (got {rel_err:.1%})",
            rel_err < 0.15,
        ),
        check_shape(
            "equal-share is conservative (never faster than max-min)",
            times["equal-share"] >= times["maxmin"] * 0.999,
        ),
    ]
    return table(lines, checks, {"completion_times": times, "relative_error": rel_err})


# ---- churn: the steady-state control plane ----------------------------------
# Thousands of deploy / snapshot / teardown requests over a shared 48-node
# pool (8 concentrated repository nodes, rate-limited tenant NICs) while the
# periodic GC keeps the repository bounded. ``churn_policy``: least-loaded vs
# locality-aware placement at 1500 deploys with the peer exchange on, each
# winning its own boot metric; ``churn_gc``: periodic GC vs none at 600, same
# arrival trace. Smoke-size behaviour (determinism, GC reclaim, monotone
# no-GC growth) is tier-1: ``tests/churn/test_churn_engine.py``.

#: steady-state workload shared by every point: rate * mean_lifetime ≈ 96
#: concurrent VMs on ~96 slots, so the pool runs near saturation with bursts
#: spilling into the bounded admission queue
CHURN_WORKLOAD = (
    ("rate", 6.0),
    ("n_tenants", 8),
    ("mean_lifetime", 16.0),
    ("min_lifetime", 4.0),
    ("p2p", True),
    ("p2p_cache_bytes", 64 * MiB),
)

#: label -> (deploy requests, placement policy, gc_interval)
CHURN_POINTS = {
    "least-loaded": (1500, "least-loaded", 60.0),
    "locality": (1500, "locality", 60.0),
    "gc": (600, "least-loaded", 60.0),
    "nogc": (600, "least-loaded", 0.0),
}

#: the two grids together must cover at least this many simulated requests
MIN_REQUESTS = 10_000

#: simulated outcomes recorded per point (plus ``footprint_monotone``)
CHURN_FIELDS = (
    "boot_p50_exact", "boot_p99_exact", "boot_mean",
    "queue_wait_p99_exact", "snapshot_p99_exact",
    "rejection_rate", "utilization",
    "booted", "rejected", "snapshots_taken",
    "gc_sweeps", "bytes_reclaimed", "footprint_peak", "footprint_final",
    "makespan", "n_requests", "trace_crc",
)


def churn_specs(profile):
    return {
        label: point(profile, "churn", label, n, policy=policy, gc_interval=gc_interval,
                     **dict(CHURN_WORKLOAD))
        for label, (n, policy, gc_interval) in CHURN_POINTS.items()
    }


def _churn_row(p):
    row = {f: p.metrics[f] for f in CHURN_FIELDS}
    fp = p.series["footprint_bytes"]
    row["footprint_monotone"] = all(b >= a for a, b in zip(fp, fp[1:]))
    return row


def churn_policy(points, profile):
    rows = {label: _churn_row(points[label]) for label in ("least-loaded", "locality")}
    ll, loc = rows["least-loaded"], rows["locality"]
    total = sum(p.metrics["n_requests"] for p in points.values())
    return grid(
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


def churn_gc(points, profile):
    rows = {label: _churn_row(points[label]) for label in ("gc", "nogc")}
    gc, nogc = rows["gc"], rows["nogc"]
    return grid(
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


# ---- lineage: restore cost vs chain depth -----------------------------------
# The title's "back" half: one VM commits an ever-deeper snapshot chain, then
# a restore-to-version boots the chain head on another node. Every snapshot
# is a standalone image (§3.1, Fig. 3): the restore reads the head's own
# lineage record and its metadata root reaches every chunk, so restore
# latency does not grow with depth, unlike a qcow2 backing chain. A retention
# merge thins the chain so GC can reclaim the merged versions' exclusive
# chunks. Smoke-size behaviour is tier-1: ``tests/lineage/test_point.py``.

#: chain depths of the grid (n = COMMITs on one VM's clone)
DEPTHS = (4, 8, 16, 32)

#: the merge point keeps every KEEP_EVERY-th version from the genesis
KEEP_EVERY = 4

#: (label prefix, merge keep_every or None, depths)
LINEAGE_MODES = (
    ("off", None, DEPTHS),
    ("merge", KEEP_EVERY, DEPTHS[-1:]),
)

#: simulated outcomes recorded per point
LINEAGE_FIELDS = (
    "chain_depth", "lookup_time", "clone_time", "open_time",
    "restore_time", "boot_time",
    "dedup_exclusive", "dedup_shared", "dedup_live", "dedup_stored",
    "conserved", "footprint_matches",
    "forest_snapshots", "forest_max_depth",
    "versions_merged", "gc_bytes_reclaimed",
)


def lineage_specs(profile):
    return {
        f"{mode}-d{depth}": point(profile, "lineage", n=depth,
                                  **({} if keep_every is None else {"keep_every": keep_every}))
        for mode, keep_every, depths in LINEAGE_MODES
        for depth in depths
    }


def lineage_restore(points, profile):
    rows = recorded(points, LINEAGE_FIELDS)
    off = [rows[f"off-d{d}"] for d in DEPTHS]
    merge = rows[f"merge-d{DEPTHS[-1]}"]
    restores = [r["restore_time"] for r in off]
    lookup = min(r["lookup_time"] for r in off)
    return grid(
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


# ---- topo: locality vs the oversubscribed core ------------------------------
# Compute nodes block-assigned to racks, each rack's uplink oversubscribed
# (``hosts_per_rack * NIC / ratio``), every cross-rack flow sharing the
# trunks: do rack-ranked peer selection, rack-diverse replica placement and
# same-rack replica reads keep deployment traffic off the uplinks? Every
# point is a ``deploy`` spec with the fabric cloud params. Smoke-size
# behaviour is tier-1: ``tests/topo/test_topo_point.py``.

TOPO_COUNTS = (64, 256)
TOPO_N_MAX = TOPO_COUNTS[-1]
RACKS = 8
OVERSUB = 4.0

#: locality must cut cross-rack bytes by at least this fraction at ``TOPO_N_MAX``
MIN_CROSS_RACK_CUT = 0.50

#: label -> (n, racks, oversubscription, topo_aware): topology-blind vs
#: locality-aware with the peer exchange on, plus locality at 2x and 8x
TOPO_SWEEP = {
    **{
        f"{mode}-n{n}": (n, RACKS, OVERSUB, mode == "locality")
        for mode in ("blind", "locality")
        for n in TOPO_COUNTS
    },
    f"locality-o2-n{TOPO_N_MAX}": (TOPO_N_MAX, RACKS, 2.0, True),
    f"locality-o8-n{TOPO_N_MAX}": (TOPO_N_MAX, RACKS, 8.0, True),
}

#: both points place replicas rack-diverse (one copy per rack); with
#: rack-aware reads every chunk fetch has an intra-rack copy to hit, so only
#: the *read* side differs between the two points
TOPO_REPLICA = {
    "blind": (64, 2, OVERSUB, False),
    "local": (64, 2, OVERSUB, True),
}
TOPO_REPLICA_PARAMS = (("p2p", False), ("replication_factor", 2), ("placement", "rack-diverse"))

#: simulated outcomes recorded per point
TOPO_FIELDS = (
    "avg_boot_time", "completion_time", "total_traffic",
    "intra_rack_bytes", "cross_rack_bytes",
    "intra_rack_payload_bytes", "cross_rack_payload_bytes",
    "peer_hit_ratio", "bytes_from_peers", "bytes_from_providers",
)


def topo_specs(points, extra_params):
    return lambda profile: {
        label: point(profile, "deploy", n=n, racks=racks, oversubscription=oversub,
                     topo_aware=aware, **dict(extra_params))
        for label, (n, racks, oversub, aware) in points.items()
    }


def topo_sweep(points, profile):
    rows = recorded(points, TOPO_FIELDS)
    blind, aware = rows[f"blind-n{TOPO_N_MAX}"], rows[f"locality-n{TOPO_N_MAX}"]
    cut = 1.0 - aware["cross_rack_bytes"] / blind["cross_rack_bytes"]
    return grid(
        "topo_sweep",
        f"Mirror deployment on {RACKS} racks, topology-blind vs locality-aware "
        f"(p2p on, {OVERSUB:g}x oversubscription unless labelled, seed 1)",
        rows,
        [
            check_shape(
                f"locality cuts cross-rack bytes by >= {MIN_CROSS_RACK_CUT:.0%} at "
                f"n={TOPO_N_MAX} (measured {cut:.1%}: {aware['cross_rack_bytes'] / MiB:.0f} "
                f"vs {blind['cross_rack_bytes'] / MiB:.0f} MiB)",
                cut >= MIN_CROSS_RACK_CUT,
            ),
            check_shape(
                f"with locality on, the n={TOPO_N_MAX} timeline at 2x, 4x and 8x "
                "oversubscription is identical: the trunks never bind",
                rows[f"locality-o2-n{TOPO_N_MAX}"] == aware == rows[f"locality-o8-n{TOPO_N_MAX}"],
            ),
        ],
    )


def topo_replica(points, profile):
    rows = recorded(points, TOPO_FIELDS)
    blind, local = rows["blind"], rows["local"]
    return grid(
        "topo_replica",
        "Replication 2 over 2 racks, rack-diverse placement: topology-blind vs "
        "rack-aware replica reads (p2p off, n=64, seed 1)",
        rows,
        [
            check_shape(
                "rack-aware reads fetch no payload across the uplink "
                f"({local['cross_rack_payload_bytes']:.0f} bytes): every chunk has a "
                "same-rack replica",
                local["cross_rack_payload_bytes"] == 0.0,
            ),
            check_shape(
                "topology-blind reads do cross it "
                f"({blind['cross_rack_payload_bytes'] / MiB:.0f} MiB of replica payload)",
                blind["cross_rack_payload_bytes"] > 0,
            ),
        ],
    )


# ---- p2p: the cooperative chunk exchange ------------------------------------
# Nodes serve already-fetched chunks to each other, so the booting fleet
# stops pulling the same hot chunks from the same few providers. Acceptance
# gate of the subsystem: at the largest swept count the exchange cuts
# provider bytes by >= 30 % and improves the average boot time.

#: strategy label -> spec params, baseline first
P2P_STRATEGIES = {
    "baseline": {"p2p": False},
    "announce": {"p2p": True, "p2p_directory": "announce"},
    "rendezvous": {"p2p": True, "p2p_directory": "rendezvous"},
}

CACHE_MIBS = (4, 16, 64)


def p2p_matrix_specs(profile):
    return {
        (label, n): point(profile, "deploy", n=n, **params)
        for label, params in P2P_STRATEGIES.items()
        for n in profile.instance_counts
    }


def p2p_cache_specs(profile):
    return {
        mib: point(profile, "deploy", n=profile.instance_counts[-1], p2p=True,
                   p2p_directory="announce", p2p_cache_bytes=mib * MiB)
        for mib in CACHE_MIBS
    }


def _p2p(points, profile, metric):
    """The strategies' curves; peers serve hits exactly where the exchange is on."""
    assert all((p.metrics["peer_hit_ratio"] > 0.0) == p.spec.param("p2p") for p in points.values())
    return curves(points, P2P_STRATEGIES, profile.instance_counts, lambda p: p.metrics[metric])


def p2p_boot(points, profile):
    series = _p2p(points, profile, "avg_boot_time")
    first, n_max = profile.instance_counts[0], profile.instance_counts[-1]
    checks = [
        check_shape(
            f"announce improves avg boot time at n={n_max}",
            series["announce"].at(n_max) < series["baseline"].at(n_max),
        ),
        check_shape(
            "the exchange flattens the curve: announce's boot-time growth "
            f"from n={first} to n={n_max} is below the baseline's",
            (series["announce"].at(n_max) - series["announce"].at(first))
            < (series["baseline"].at(n_max) - series["baseline"].at(first)),
        ),
    ]
    return figure(
        "p2p_boot", "Avg boot time with cooperative chunk exchange (mirror approach)",
        "instances", "seconds", series.values(), checks, fmt="{:12.3f}",
    )


def p2p_provider_bytes(points, profile):
    series = _p2p(points, profile, "provider_bytes")
    first, n_max = profile.instance_counts[0], profile.instance_counts[-1]
    drop = 1.0 - series["announce"].at(n_max) / series["baseline"].at(n_max)
    checks = [
        check_shape(
            f"announce cuts provider bytes >= 30% at n={n_max} "
            f"(measured {drop:.0%})",
            drop >= 0.30,
        ),
        check_shape(
            "rendezvous offloads providers too (no directory traffic at all)",
            series["rendezvous"].at(n_max) < series["baseline"].at(n_max),
        ),
        check_shape(
            "baseline provider bytes grow linearly with the instance count "
            "(every booter re-fetches everything)",
            series["baseline"].at(n_max) > series["baseline"].at(first) * 2,
        ),
    ]
    return figure(
        "p2p_provider_bytes", "Bytes served by the data providers (lower = less contention)",
        "instances", "bytes", series.values(), checks, fmt="{:14.0f}",
    )


def p2p_cache(points, profile):
    hits = Series("peer_hit_ratio")
    for mib in CACHE_MIBS:
        hits.add(mib, points[mib].metrics["peer_hit_ratio"])
    checks = [
        check_shape(
            "every cache size produces peer hits",
            all(points[m].metrics["peer_hit_ratio"] > 0.0 for m in CACHE_MIBS),
        ),
        check_shape(
            "a bigger cache never serves fewer peer hits",
            hits.at(CACHE_MIBS[-1]) >= hits.at(CACHE_MIBS[0]),
        ),
    ]
    return figure(
        "p2p_cache",
        f"Peer hit ratio vs per-node cache budget (announce, n={profile.instance_counts[-1]})",
        "cache MiB", "hit ratio", (hits,), checks, fmt="{:10.3f}",
    )


# ---- the table --------------------------------------------------------------
# Heaviest sweeps first: the driver feeds the pool in table order.

GRIDS = (
    # profile (None: REPRO_BENCH_PROFILE), specs, records
    Grid(CHURN, churn_specs, (churn_policy, churn_gc)),
    Grid(TOPO, topo_specs(TOPO_SWEEP, (("p2p", True),)), (topo_sweep,)),
    Grid(TOPO, topo_specs(TOPO_REPLICA, TOPO_REPLICA_PARAMS), (topo_replica,)),
    Grid(P2P, p2p_matrix_specs, (p2p_boot, p2p_provider_bytes)),
    Grid(P2P, p2p_cache_specs, (p2p_cache,)),
    Grid(LINEAGE, lineage_specs, (lineage_restore,)),
    Grid(None, campaign_specs("deploy", FIG4_APPROACHES), (fig4a, fig4b, fig4c, fig4d)),
    Grid(None, campaign_specs("snapshot", FIG5_APPROACHES), (fig5a, fig5b)),
    Grid(None, lambda p: {kind: point(p, "bonnie", kind, seed=3) for kind in ("local", "mirror")},
         (fig6, fig7)),
    Grid(None, lambda p: {(a, mode): point(p, "montecarlo", a, seed=8, mode=mode)
                          for mode, approaches in (("uninterrupted", FIG4_APPROACHES),
                                                   ("suspend-resume", FIG5_APPROACHES))
                          for a in approaches}, (fig8,)),
    Grid(None, resilience_specs, (resilience_survival, resilience_degradation)),
    Grid(None, ablation_specs, (ablation_chunk_size, ablation_strategy1, ablation_broadcast,
                                ablation_prefetch, ablation_dedup, ablation_fairness)),
)
