"""Command-line interface: run the canonical experiments from a shell.

Every scenario subcommand describes its run as :class:`~repro.runner.PointSpec`
values on a profile derived from its flags, runs them with
:func:`~repro.runner.execute_point` — the executors the figure benchmarks
use — and prints the metrics. ``sweep`` fans a figure's specs out over the
parallel runner; ``trace`` replays one figure's scenario with the causal
tracer on. ``python -m repro --help`` lists the subcommands.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import sys
from typing import List, Optional

from .calibration import DEFAULT, Calibration, ImageSpec
from .common.errors import SimulationError
from .common.units import KiB, MiB, fmt_rate, fmt_size, fmt_time
from .faults.policy import MAX_DELAY


def _add_cluster_args(
    parser: argparse.ArgumentParser, instances_flags=("--instances",)
) -> None:
    parser.add_argument(
        *instances_flags, dest="instances", type=_positive(int), default=16,
        help="concurrent VMs",
    )
    parser.add_argument("--pool", type=_within(0, kind=int), default=0,
                        help="storage pool size (0 = max(24, instances))")
    parser.add_argument("--image-mib", type=_positive(int), default=1024,
                        help="image size in MiB")
    parser.add_argument("--touched-mib", type=_positive(int), default=64,
                        help="bytes the boot actually reads, in MiB")
    parser.add_argument("--chunk-kib", type=_positive(int), default=256,
                        help="chunk size in KiB")
    parser.add_argument("--seed", type=_within(0, kind=int), default=1, help="experiment seed")


def _positive(kind, unit=1):
    """An argparse type: ``kind(text) * unit``, refused with usage unless above 0."""
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value * unit

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _within(low, high=math.inf, kind=float):
    """An argparse type: ``kind(text)``, refused with usage unless in [low, high]."""
    bound = f">= {low}" if high == math.inf else f"within [{low}, {high}]"

    def parse(text):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _param(parser, *flags, **kw):
    """A flag whose ``dest`` is a point param of the command's kind.

    The command forwards it to the point under that name. Left at the
    default ``argparse.SUPPRESS`` an unset flag passes nothing, so the
    param's reader keeps its own default.
    """
    kw.setdefault("default", argparse.SUPPRESS)
    dest = parser.add_argument(*flags, **kw).dest
    parser.set_defaults(params=(parser.get_default("params") or ()) + (dest,))


def _params(args) -> dict:
    """The point params ``args`` sets: every given :func:`_param` flag."""
    return {d: getattr(args, d) for d in getattr(args, "params", ()) if hasattr(args, d)}


def _setting(args, dest, reader, name=None):
    """What a point runs with: ``args.<dest>`` if set, else ``reader``'s own
    default for its keyword or field ``name`` (``dest`` by default)."""
    if hasattr(args, dest):
        return getattr(args, dest)
    return inspect.signature(reader).parameters[name or dest].default


def _cli_profile(image: ImageSpec, **fields):
    """The ``cli`` profile: ``paper`` on ``image``, resized by one command's flags."""
    from .runner import PAPER

    return dataclasses.replace(PAPER, name="cli", calib=Calibration(image=image), **fields)


def _cluster_profile(args):
    """The ``cli`` profile of the cluster flags (and ``--diff-mib``, if any)."""
    fields = dict(pool_nodes=args.pool or max(24, args.instances), n_regions=48)
    if hasattr(args, "diff_mib"):
        fields["diff_bytes"] = args.diff_mib * MiB
    image = ImageSpec(size=args.image_mib * MiB, chunk_size=args.chunk_kib * KiB,
                      boot_touched_bytes=args.touched_mib * MiB)
    return _cli_profile(image, **fields)


def _check_pool(profile, counts) -> None:
    bad = [n for n in counts if n > profile.pool_nodes]
    if bad:
        raise SimulationError(
            f"counts {bad} exceed the {profile.name} profile's "
            f"{profile.pool_nodes}-node pool"
        )


def _point(profile, kind, n, seed, approach="mirror", pooled=True, **params):
    """Execute one ``kind`` point; ``pooled`` means ``n`` counts instances."""
    from .runner import PointSpec, execute_point

    if pooled:
        _check_pool(profile, [n])
    return execute_point(PointSpec(
        kind=kind, profile=profile, approach=approach, n=n, seed=seed,
        params=params,
    ))


def _print_pair(n, setup, rows, columns=None) -> None:
    """Two runs side by side: ``a -> b`` per row, or two aligned ``columns``."""
    print(f"instances:        {n}  ({setup})")
    if columns:
        print(" " * 18 + "".join(f"{c:>14}" for c in columns))
    for label, a, b in rows:
        print(f"{label:<18}" + (f"{a:>14}{b:>14}" if columns else f"{a} -> {b}"))


def _add_peer_args(parser: argparse.ArgumentParser) -> None:
    _param(parser, "--directory", dest="p2p_directory",
           choices=["announce", "rendezvous"],
           help="peer-location strategy")
    _param(parser, "--fanout", dest="p2p_locate_fanout", type=_positive(int),
           help="candidate peers tried per chunk before providers")


def cmd_deploy(args) -> int:
    m = _point(_cluster_profile(args), "deploy", args.instances, args.seed,
               approach=args.approach).metrics
    print(f"approach:        {args.approach}")
    print(f"instances:       {args.instances}")
    print(f"init phase:      {fmt_time(m['init_time'])}")
    print(f"avg boot:        {fmt_time(m['avg_boot_time'])}")
    print(f"completion:      {fmt_time(m['completion_time'])}")
    print(f"network traffic: {fmt_size(m['total_traffic'])}")
    return 0


def cmd_snapshot(args) -> int:
    m = _point(_cluster_profile(args), "snapshot", args.instances, args.seed,
               approach=args.approach).metrics
    print(f"approach:          {args.approach}")
    print(f"instances:         {args.instances}")
    print(f"avg snapshot time: {fmt_time(m['avg_time'])}")
    print(f"completion:        {fmt_time(m['completion_time'])}")
    print(f"bytes persisted:   {fmt_size(m['total_bytes_moved'])}")
    return 0


#: every traced root must be at least this much explained by specific spans
TRACE_COVERAGE_GATE = 0.95


def cmd_trace(args) -> int:
    from . import obs
    from .cloud import deploy, snapshot_all
    from .runner import apply_diffs, build_point_cloud

    if args.figure == "fig5" and args.approach == "prepropagation":
        raise SimulationError("prepropagation cannot multisnapshot (paper §5.3)")
    profile = _cluster_profile(args)
    _check_pool(profile, [args.instances])
    cloud, image = build_point_cloud(profile, args.seed)
    tracer = obs.install_tracer(cloud.fabric)
    res = deploy(cloud, image, args.instances, args.approach)

    if args.figure == "fig5":
        apply_diffs(cloud, image, res.vms, profile.diff_bytes)
        snapshot_all(cloud, res.vms, args.approach)
        roots = obs.snapshot_spans(tracer.spans)
        title = "per-VM snapshot time breakdown (seconds)"
    else:
        roots = obs.boot_spans(tracer.spans)
        title = "per-VM boot time breakdown (seconds)"

    tracer.finish_open_spans()
    out = args.out or f"{args.figure}-n{args.instances}.trace.json"
    obs.write_trace_json(out, tracer)

    worst = None
    if roots:
        print(obs.render_breakdown_table(roots, tracer.spans, title=title))
        print()
        print(obs.render_critical_path(roots[0], tracer.spans))
        covs = [obs.coverage(r, tracer.spans) for r in roots]
        print()
        print(f"span coverage:   {min(covs):.1%} (worst VM) / "
              f"{sum(covs) / len(covs):.1%} (mean)")
        worst = min(zip(covs, (r.name for r in roots)))
    print(f"trace:           {out} ({len(tracer.spans)} spans; "
          f"open in https://ui.perfetto.dev)")
    if worst is not None and worst[0] < TRACE_COVERAGE_GATE:
        print(f"error: span coverage of {worst[1]} is {worst[0]:.1%}, "
              f"below the {TRACE_COVERAGE_GATE:.0%} gate", file=sys.stderr)
        return 1
    return 0


def cmd_faults(args) -> int:
    res = _point(_cluster_profile(args), "resilience", args.instances, args.seed,
                 approach=args.approach, **_params(args))
    m, s = res.metrics, res.series
    print(f"approach:        {args.approach}  (replication={args.replication_factor})")
    print(f"fault plan:      {s['fault_plan'][0]}")
    if args.crashes:
        print(f"injected:        {m['faults_injected']:.0f} incidents")
    print(f"instances:       {args.instances}")
    print(f"booted:          {m['boots_completed']:.0f}  "
          f"(survival {m['survival_rate']:.0%})")
    if s["failed"]:
        print(f"failed:          {', '.join(s['failed'])}")
    print(f"init phase:      {fmt_time(m['init_time'])}")
    print(f"avg boot:        {fmt_time(m['avg_boot_time'])}")
    print(f"completion:      {fmt_time(m['completion_time'])}")
    print(f"network traffic: {fmt_size(m['total_traffic'])}")
    retries = sum(
        res.counters.get(k, 0) for k in ("fetch-retry", "meta-retry", "put-retry")
    )
    print(f"client retries:  {retries}")
    return 0 if m["boots_failed"] == 0 else 1


def _peer(args, field):
    """The peer-exchange setting ``field`` a point runs with (``p2p_<field>``)."""
    from .p2p import P2PConfig

    return _setting(args, f"p2p_{field}", P2PConfig, field)


def cmd_p2p(args) -> int:
    profile = _cluster_profile(args)
    base, res = (
        _point(profile, "deploy", args.instances, args.seed, **params).metrics
        for params in ({}, dict(p2p=True, **_params(args)))
    )
    base_pb, p2p_pb = base["provider_bytes"], res["provider_bytes"]
    saved = 1.0 - (p2p_pb / base_pb) if base_pb else 0.0
    setup = f"directory={_peer(args, 'directory')}, fanout={_peer(args, 'locate_fanout')}"
    _print_pair(args.instances, setup, [
        ("avg boot:", fmt_time(base["avg_boot_time"]), fmt_time(res["avg_boot_time"])),
        ("completion:", fmt_time(base["completion_time"]),
         fmt_time(res["completion_time"])),
        ("provider bytes:", fmt_size(base_pb),
         f"{fmt_size(p2p_pb)} ({saved:.0%} served by peers instead)"),
    ])
    print(f"peer hit ratio:   {res['peer_hit_ratio']:.1%}")
    print(f"bytes from peers: {fmt_size(res['bytes_from_peers'])}")
    print(f"peer failovers:   {res['peer_failovers']:.0f}")
    return 0


def cmd_topo(args) -> int:
    from .cloud import build_cloud
    from .runner import resolve_profile

    profile = resolve_profile(args.profile)
    n = args.instances or profile.instance_counts[0]
    bm, am = (
        _point(profile, "deploy", n, args.seed, topo_aware=aware, **_params(args)).metrics
        for aware in (False, True)
    )

    def cross_frac(m):
        total = m["intra_rack_bytes"] + m["cross_rack_bytes"]
        return m["cross_rack_bytes"] / total if total else 0.0

    cut = (1.0 - am["cross_rack_bytes"] / bm["cross_rack_bytes"]
           if bm["cross_rack_bytes"] else 0.0)
    _print_pair(
        n,
        f"racks={args.racks}, "
        f"oversubscription={_setting(args, 'oversubscription', build_cloud):g}, "
        f"p2p={args.p2p}, directory={_peer(args, 'directory')}",
        [
            ("avg boot:", fmt_time(bm["avg_boot_time"]), fmt_time(am["avg_boot_time"])),
            ("completion:", fmt_time(bm["completion_time"]),
             fmt_time(am["completion_time"])),
            ("intra-rack bytes:", fmt_size(bm["intra_rack_bytes"]),
             fmt_size(am["intra_rack_bytes"])),
            ("cross-rack bytes:", fmt_size(bm["cross_rack_bytes"]),
             fmt_size(am["cross_rack_bytes"])),
        ],
        columns=("blind", "locality"),
    )
    print(f"cross-rack share: {cross_frac(bm):>13.1%}{cross_frac(am):>14.1%}")
    print(f"cross-rack cut:   {cut:.1%} (locality vs topology-blind)")
    return 0


def cmd_churn(args) -> int:
    from .churn import ChurnSpec
    from .cloud import build_cloud
    from .runner import resolve_profile

    profile = resolve_profile(args.profile)
    n = args.deploys or profile.instance_counts[0]

    def churn(field):
        return _setting(args, field, ChurnSpec)

    m = _point(profile, "churn", n, args.seed, approach=churn("policy"), pooled=False,
               **_params(args)).metrics
    print(f"policy:           {churn('policy')}  (rate={churn('rate')}/s, "
          f"tenants={churn('n_tenants')}, "
          f"p2p={_setting(args, 'p2p', build_cloud)})")
    print(f"requests:         {m['n_requests']:.0f} total, {n} deploys "
          f"({m['booted']:.0f} booted, {m['rejected']:.0f} rejected, "
          f"{m['canceled']:.0f} canceled while queued)")
    print(f"boot latency:     p50 {fmt_time(m['boot_p50_exact'])}  "
          f"p99 {fmt_time(m['boot_p99_exact'])}  mean {fmt_time(m['boot_mean'])}")
    print(f"queue wait:       p99 {fmt_time(m['queue_wait_p99_exact'])}  "
          f"mean {fmt_time(m['queue_wait_mean'])}")
    print(f"snapshots:        {m['snapshots_taken']:.0f} taken "
          f"({m['snapshots_missed']:.0f} missed), commit p99 "
          f"{fmt_time(m['snapshot_p99_exact'])}")
    if churn("restore_fraction") > 0.0:
        print(f"restores:         {m['restores_completed']:.0f} completed "
              f"({m['restores_missed']:.0f} missed, "
              f"{m['restores_from_retired']:.0f} from retired chains), p99 "
              f"{fmt_time(m['restore_p99_exact'])}")
    print(f"rejection rate:   {m['rejection_rate']:.1%}")
    print(f"utilization:      {m['utilization']:.1%}")
    print(f"storage:          peak {fmt_size(m['footprint_peak'])}, final "
          f"{fmt_size(m['footprint_final'])}, reclaimed "
          f"{fmt_size(m['bytes_reclaimed'])} over {m['gc_sweeps']:.0f} GC sweeps")
    print(f"makespan:         {fmt_time(m['makespan'])}")

    return 0


def cmd_lineage(args) -> int:
    from .runner import resolve_profile

    profile = resolve_profile(args.profile)
    depth = args.depth or profile.instance_counts[-1]
    params = _params(args)
    m = _point(profile, "lineage", depth, args.seed, pooled=False, **params).metrics

    keep_every = params.get("keep_every")
    mode = f"merged, keep every {keep_every}" if keep_every else "unmerged"
    print(f"chain:            depth {depth} ({mode}), "
          f"{m['forest_snapshots']:.0f} snapshots in the forest")
    print(f"restore latency:  {fmt_time(m['restore_time'])} "
          f"(lookup {fmt_time(m['lookup_time'])}, clone "
          f"{fmt_time(m['clone_time'])}, open {fmt_time(m['open_time'])})")
    print(f"restored boot:    {fmt_time(m['boot_time'])}")
    print(f"dedup accounting: exclusive {fmt_size(m['dedup_exclusive'])}, shared "
          f"{fmt_size(m['dedup_shared'])} ({m['sharing_ratio']:.1%} of "
          f"{fmt_size(m['dedup_live'])} live)")
    print(f"conservation:     exclusive+shared==live: "
          f"{'ok' if m['conserved'] else 'VIOLATED'}; live==stored: "
          f"{'ok' if m['footprint_matches'] else 'VIOLATED'}")
    if keep_every:
        print(f"merge:            {m['versions_merged']:.0f} versions merged "
              f"in {fmt_time(m['merge_time'])}, GC reclaimed "
              f"{fmt_size(m['gc_bytes_reclaimed'])}")

    return 0 if m["conserved"] and m["footprint_matches"] else 1


def cmd_bonnie(args) -> int:
    size = args.image_mib * MiB
    profile = _cli_profile(
        ImageSpec(size=size, boot_touched_bytes=size // 8),  # boot hot set: Bonnie++ never boots
        pool_nodes=8, bonnie_working_set=min(args.working_mib * MiB, size // 2),
    )
    rows = {
        a: _point(profile, "bonnie", 0, args.seed, approach=a).metrics
        for a in ("local", "mirror")
    }
    print(f"{'metric':<16}{'local':>14}{'our-approach':>14}")
    for label, metric in [
        ("BlockW KB/s", "block_write_kbps"),
        ("BlockR KB/s", "block_read_kbps"),
        ("BlockO KB/s", "block_overwrite_kbps"),
        ("RndSeek ops/s", "rnd_seek_ops"),
        ("CreatF ops/s", "create_ops"),
        ("DelF ops/s", "delete_ops"),
    ]:
        print(f"{label:<16}{rows['local'][metric]:>14.0f}"
              f"{rows['mirror'][metric]:>14.0f}")
    return 0


#: figure -> (point kind, approaches swept)
SWEEP_FIGURES = {
    "fig4": ("deploy", ("prepropagation", "qcow2-pvfs", "mirror")),
    "fig5": ("snapshot", ("qcow2-pvfs", "mirror")),
}

#: headline metrics printed per figure sweep
SWEEP_METRICS = {
    "fig4": (("avg_boot_time", "seconds"), ("completion_time", "seconds"),
             ("total_traffic", "bytes")),
    "fig5": (("avg_time", "seconds"), ("completion_time", "seconds")),
}


def cmd_sweep(args) -> int:
    import time

    from .analysis import Figure, from_points, render_figure
    from .runner import PointSpec, SweepRunner, resolve_profile

    profile = resolve_profile(args.profile)
    kind, all_approaches = SWEEP_FIGURES[args.figure]
    approaches = tuple(args.approach) or all_approaches
    counts = tuple(args.counts) if args.counts else profile.instance_counts
    _check_pool(profile, counts)

    specs = [
        PointSpec(kind=kind, profile=profile, approach=a, n=n, seed=args.seed)
        for a in approaches
        for n in counts
    ]
    runner = SweepRunner(jobs=args.jobs)
    t0 = time.perf_counter()
    results = runner.run(specs)
    wall = time.perf_counter() - t0

    by_approach = {a: [r for r in results if r.spec.approach == a] for a in approaches}
    for metric, unit in SWEEP_METRICS[args.figure]:
        fig = Figure(f"{args.figure}-{metric}", f"{args.figure} sweep: {metric}",
                     "instances", unit)
        for a in approaches:
            fig.add_series(from_points(by_approach[a], metric, a))
        print(render_figure(fig, fmt="{:14.3f}"))
        print()

    rate = f", {len(specs) / wall:.2f} points/s" if wall > 0 else ""
    print(f"sweep: {len(specs)} points simulated in {wall:.2f}s{rate} "
          f"[jobs={runner.jobs}, profile={profile.name}]")
    return 0


def cmd_info(args) -> int:
    calib = DEFAULT
    print("calibration (Grid'5000 Nancy, paper §5.1):")
    for section_field in dataclasses.fields(calib):
        section = getattr(calib, section_field.name)
        print(f"  [{section_field.name}]")
        for f in dataclasses.fields(section):
            print(f"    {f.name} = {getattr(section, f.name)}")
    print(f"\nexample: NIC {fmt_rate(calib.testbed.nic_bandwidth)}, "
          f"disk {fmt_rate(calib.testbed.disk_read_bandwidth)}, "
          f"image {fmt_size(calib.image.size)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    from .runner import known_kinds, known_profiles

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Going Back and Forth' (HPDC 2011)",
        epilog=(
            f"point kinds: {', '.join(known_kinds())}. "
            f"profiles: {', '.join(known_profiles())}."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_deploy = sub.add_parser("deploy", help="run one multideployment")
    _add_cluster_args(p_deploy)
    p_deploy.add_argument(
        "--approach", choices=["mirror", "qcow2-pvfs", "prepropagation"],
        default="mirror",
    )
    p_deploy.set_defaults(func=cmd_deploy)

    p_snap = sub.add_parser("snapshot", help="deploy, dirty, multisnapshot")
    _add_cluster_args(p_snap)
    p_snap.add_argument("--approach", choices=["mirror", "qcow2-pvfs"], default="mirror")
    p_snap.add_argument("--diff-mib", type=_within(0, kind=int), default=15,
                        help="local modifications per VM, in MiB")
    p_snap.set_defaults(func=cmd_snapshot)

    p_trace = sub.add_parser(
        "trace", help="trace one figure's scenario; write Perfetto JSON"
    )
    _add_cluster_args(p_trace, instances_flags=("-n", "--instances"))
    p_trace.add_argument(
        "--figure", choices=["fig4", "fig5"], default="fig4",
        help="fig4 = multideployment boots, fig5 = multisnapshotting",
    )
    p_trace.add_argument(
        "--approach", choices=["mirror", "qcow2-pvfs", "prepropagation"],
        default="mirror",
    )
    p_trace.add_argument("--diff-mib", type=_within(0, kind=int), default=15,
                         help="fig5: local modifications per VM, in MiB")
    p_trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="output file (default <figure>-n<N>.trace.json)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_sweep = sub.add_parser(
        "sweep", help="run a figure's sweep through the parallel runner"
    )
    p_sweep.add_argument(
        "--figure", choices=sorted(SWEEP_FIGURES), default="fig4",
        help="which paper figure's sweep to run",
    )
    p_sweep.add_argument(
        "--profile", default="quick",
        help="benchmark profile (paper, quick, or a registered name)",
    )
    p_sweep.add_argument(
        "--jobs", type=_positive(int), default=None, metavar="N",
        help="worker processes (default: all cores; 1 = in-process sequential)",
    )
    p_sweep.add_argument(
        "--approach", action="append", default=[],
        choices=["mirror", "qcow2-pvfs", "prepropagation"],
        help="restrict to one approach (repeatable; default: the figure's set)",
    )
    p_sweep.add_argument(
        "--counts", type=lambda s: [_positive(int)(v) for v in s.split(",")], default=None,
        metavar="N1,N2,...", help="instance counts (default: the profile's sweep)",
    )
    p_sweep.add_argument("--seed", type=_within(0, kind=int), default=1, help="experiment seed")
    p_sweep.set_defaults(func=cmd_sweep)

    p_faults = sub.add_parser(
        "faults", help="multideployment under an injected fault plan"
    )
    _add_cluster_args(p_faults)
    p_faults.add_argument(
        "--approach", choices=["mirror", "qcow2-pvfs", "prepropagation"],
        default="mirror",
    )
    _param(p_faults, "--replication", dest="replication_factor", type=_positive(int),
           default=2, help="replicas per chunk (and metadata node)")
    _param(p_faults, "--crashes", type=_within(0, kind=int), default=2,
           help="spare nodes to crash during the boot phase")
    _param(p_faults, "--mttr", type=_within(0),
           help="seconds until a crashed node revives (0 = permanent)")
    _param(p_faults, "--window", type=_within(0),
           help="crashes spread over the first WINDOW seconds")
    _param(p_faults, "--attempts", type=_positive(int),
           help="client retry attempts per chunk/metadata fetch")
    _param(p_faults, "--base-delay", type=_within(0, MAX_DELAY),
           help="initial retry backoff in seconds")
    _param(p_faults, "--rpc-timeout", type=_positive(float),
           help="per-RPC deadline in seconds")
    p_faults.set_defaults(func=cmd_faults)

    p_p2p = sub.add_parser(
        "p2p", help="multideployment with cooperative peer chunk exchange"
    )
    _add_cluster_args(p_p2p)
    _add_peer_args(p_p2p)
    _param(p_p2p, "--cache-mib", dest="p2p_cache_bytes", type=_positive(int, MiB),
           help="per-node peer cache in MiB")
    p_p2p.set_defaults(func=cmd_p2p)

    p_topo = sub.add_parser(
        "topo",
        help="multideployment over a hierarchical (racked) fabric, "
             "locality-aware vs topology-blind",
    )
    p_topo.add_argument("--instances", type=_within(0, kind=int), default=0,
                        help="concurrent VMs (0 = the profile's first count)")
    p_topo.add_argument("--profile", default="topo-smoke",
                        help="benchmark profile (topo, topo-smoke, ...)")
    _param(p_topo, "--racks", type=_positive(int), default=4,
           help="racks the compute pool is split across")
    _param(p_topo, "--oversubscription", type=_positive(float),
           help="rack uplink = hosts_per_rack * NIC / this ratio")
    _add_peer_args(p_topo)
    _param(p_topo, "--no-p2p", dest="p2p", action="store_false", default=True,
           help="disable the cooperative chunk exchange")
    _param(p_topo, "--replication", dest="replication_factor", type=_positive(int),
           help="replicas per chunk (the locality run places them rack-diverse)")
    p_topo.add_argument("--seed", type=_within(0, kind=int), default=1, help="experiment seed")
    p_topo.set_defaults(func=cmd_topo)

    p_churn = sub.add_parser(
        "churn", help="long-horizon multi-tenant churn run with steady-state SLOs"
    )
    p_churn.add_argument("--deploys", type=_within(0, kind=int), default=0,
                         help="deploy requests (0 = the profile's first count)")
    p_churn.add_argument("--profile", default="churn-smoke",
                         help="benchmark profile (churn, churn-smoke, ...)")
    _param(p_churn, "--policy", choices=["least-loaded", "locality"],
           help="placement policy")
    _param(p_churn, "--rate", type=_positive(float),
           help="mean arrival rate, deploys/second")
    _param(p_churn, "--tenants", dest="n_tenants", type=_positive(int),
           help="tenants sharing the pool (one base image each)")
    _param(p_churn, "--mean-lifetime", type=_within(0),
           help="mean VM lifetime in seconds")
    _param(p_churn, "--gc-interval", type=_within(0),
           help="seconds between GC sweeps (0 disables GC)")
    _param(p_churn, "--p2p", action="store_true",
           help="enable the cooperative peer chunk exchange")
    _param(p_churn, "--cache-mib", dest="p2p_cache_bytes", type=_positive(int, MiB),
           help="per-node peer cache in MiB")
    _param(p_churn, "--restore-fraction", type=_within(0, 1),
           help="fraction of deploys that schedule a post-teardown "
                "restore-to-version (0 = off)")
    p_churn.add_argument("--seed", type=_within(0, kind=int), default=1, help="experiment seed")
    p_churn.set_defaults(func=cmd_churn)

    p_lineage = sub.add_parser(
        "lineage",
        help="snapshot chain + merge + restore-to-version with dedup "
             "accounting",
    )
    p_lineage.add_argument("--depth", type=_within(0, kind=int), default=0,
                           help="chain depth / COMMITs (0 = the profile's "
                                "deepest sweep point)")
    p_lineage.add_argument("--profile", default="lineage",
                           help="benchmark profile (lineage, lineage-smoke, ...)")
    _param(p_lineage, "--merge-keep-every", dest="keep_every", type=_positive(int),
           metavar="K",
           help="before restoring, merge the chain: unpublish its interior "
                "versions except every K-th from the genesis (off if not "
                "given)")
    _param(p_lineage, "--replication", dest="replication_factor", type=_positive(int),
           help="replicas per chunk (dedup counts physical bytes per "
                "replica)")
    p_lineage.add_argument("--seed", type=_within(0, kind=int), default=1, help="experiment seed")
    p_lineage.set_defaults(func=cmd_lineage)

    p_bonnie = sub.add_parser("bonnie", help="run the §5.4 micro-benchmark")
    p_bonnie.add_argument("--image-mib", type=_positive(int), default=1024)
    p_bonnie.add_argument("--working-mib", type=_positive(int), default=256)
    p_bonnie.add_argument("--seed", type=_within(0, kind=int), default=1)
    p_bonnie.set_defaults(func=cmd_bonnie)

    p_info = sub.add_parser("info", help="print the active calibration")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:  # a run the runner refuses: no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
