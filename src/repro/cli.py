"""Command-line interface: run the canonical experiments from a shell.

Subcommands::

    python -m repro deploy    --instances 16 --approach mirror
    python -m repro snapshot  --instances 16 --diff-mib 15
    python -m repro sweep     --figure fig4 --profile quick --jobs 4
    python -m repro faults    --instances 8 --replication 2 --crashes 2
    python -m repro p2p       --instances 32 --directory announce
    python -m repro topo      --racks 4 --oversubscription 4
    python -m repro churn     --deploys 200 --policy locality --p2p
    python -m repro lineage   --depth 8 --compact --policy flatten
    python -m repro trace     --figure fig4 -n 8
    python -m repro bonnie
    python -m repro info
    python -m repro --version

``deploy`` and ``snapshot`` build a fresh simulated cluster, run the chosen
pattern at the requested scale, and print the paper's metrics; ``sweep``
runs a whole figure's measurement sweep through the parallel
:mod:`repro.runner` engine (multi-core fan-out plus the persistent result
cache); ``faults`` replays a multideployment while a deterministic fault
plan crashes storage nodes (chunk replication + client failover keep it
alive); ``topo`` deploys over a hierarchical (racked, oversubscribed)
fabric and compares locality-aware policies against a topology-blind
baseline; ``churn`` runs a long-horizon multi-tenant arrival/teardown stream
through the placement engine and prints steady-state SLOs; ``lineage``
builds a deep snapshot chain, optionally compacts it, and restores a VM
from the chain head with exact dedup accounting; ``trace``
replays one figure's scenario with the causal tracer
enabled and writes a Chrome/Perfetto ``trace_event`` JSON plus the
critical-path breakdown; ``bonnie`` runs the §5.4 micro-benchmark; ``info``
dumps the active calibration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from .calibration import DEFAULT, Calibration, ImageSpec
from .common.units import GiB, KiB, MiB, fmt_rate, fmt_size, fmt_time


def _add_cluster_args(
    parser: argparse.ArgumentParser, instances_flags=("--instances",)
) -> None:
    parser.add_argument(
        *instances_flags, dest="instances", type=int, default=16,
        help="concurrent VMs",
    )
    parser.add_argument("--pool", type=int, default=0,
                        help="storage pool size (0 = max(24, instances))")
    parser.add_argument("--image-mib", type=int, default=1024, help="image size in MiB")
    parser.add_argument("--touched-mib", type=int, default=64,
                        help="bytes the boot actually reads, in MiB")
    parser.add_argument("--chunk-kib", type=int, default=256, help="chunk size in KiB")
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")


def _calibration(args) -> Calibration:
    return Calibration(
        image=ImageSpec(
            size=args.image_mib * MiB,
            chunk_size=args.chunk_kib * KiB,
            boot_touched_bytes=args.touched_mib * MiB,
        )
    )


def _pool(args) -> int:
    return args.pool if args.pool > 0 else max(24, args.instances)


def _maybe_install_tracer(args, cloud):
    """Honour a ``--trace [PATH]`` flag; returns the live tracer or None."""
    if getattr(args, "trace", None) is None:
        return None
    from . import obs

    return obs.install_tracer(cloud.fabric)


def _maybe_write_trace(args, tracer, default_name: str) -> None:
    if tracer is None:
        return
    from . import obs

    out = args.trace or default_name
    tracer.finish_open_spans()
    obs.write_trace_json(out, tracer)
    print(f"trace:           {out} ({len(tracer.spans)} spans; "
          f"open in https://ui.perfetto.dev)")


def cmd_deploy(args) -> int:
    from .cloud import build_cloud, deploy
    from .vmsim import make_image

    calib = _calibration(args)
    cloud = build_cloud(_pool(args), seed=args.seed, calib=calib)
    tracer = _maybe_install_tracer(args, cloud)
    image = make_image(calib.image.size, calib.image.boot_touched_bytes, n_regions=48)
    res = deploy(cloud, image, args.instances, args.approach)
    print(f"approach:        {res.approach}")
    print(f"instances:       {res.n_instances}")
    print(f"init phase:      {fmt_time(res.init_time)}")
    print(f"avg boot:        {fmt_time(res.avg_boot_time)}")
    print(f"completion:      {fmt_time(res.completion_time)}")
    print(f"network traffic: {fmt_size(res.total_traffic)}")
    _maybe_write_trace(
        args, tracer, f"deploy-{args.approach}-n{args.instances}.trace.json"
    )
    return 0


def cmd_snapshot(args) -> int:
    from .cloud import build_cloud, deploy, snapshot_all
    from .vmsim import make_image
    from .vmsim.workloads import read_your_writes_workload

    calib = _calibration(args)
    cloud = build_cloud(_pool(args), seed=args.seed, calib=calib)
    tracer = _maybe_install_tracer(args, cloud)
    image = make_image(calib.image.size, calib.image.boot_touched_bytes, n_regions=48)
    res = deploy(cloud, image, args.instances, args.approach)

    def diff(vm, i):
        ops = read_your_writes_workload(
            image.write_base, args.diff_mib * MiB,
            cloud.fabric.rng.get("cli-diff", i), reread_fraction=0.05,
        )
        yield from vm.run_ops(ops)

    procs = [cloud.env.process(diff(vm, i)) for i, vm in enumerate(res.vms)]
    cloud.run(cloud.env.all_of(procs))
    snap = snapshot_all(cloud, res.vms, args.approach)
    print(f"approach:          {snap.approach}")
    print(f"instances:         {snap.n_instances}")
    print(f"avg snapshot time: {fmt_time(snap.avg_time)}")
    print(f"completion:        {fmt_time(snap.completion_time)}")
    print(f"bytes persisted:   {fmt_size(snap.total_bytes_moved)}")
    _maybe_write_trace(
        args, tracer, f"snapshot-{args.approach}-n{args.instances}.trace.json"
    )
    return 0


def cmd_trace(args) -> int:
    from . import obs
    from .cloud import build_cloud, deploy, snapshot_all
    from .vmsim import make_image
    from .vmsim.workloads import read_your_writes_workload

    if args.figure == "fig5" and args.approach == "prepropagation":
        print("error: prepropagation cannot multisnapshot (paper §5.3)",
              file=sys.stderr)
        return 2
    calib = _calibration(args)
    cloud = build_cloud(_pool(args), seed=args.seed, calib=calib)
    tracer = obs.install_tracer(cloud.fabric)
    image = make_image(calib.image.size, calib.image.boot_touched_bytes, n_regions=48)
    res = deploy(cloud, image, args.instances, args.approach)

    if args.figure == "fig5":
        def diff(vm, i):
            ops = read_your_writes_workload(
                image.write_base, args.diff_mib * MiB,
                cloud.fabric.rng.get("cli-diff", i), reread_fraction=0.05,
            )
            yield from vm.run_ops(ops)

        procs = [cloud.env.process(diff(vm, i)) for i, vm in enumerate(res.vms)]
        cloud.run(cloud.env.all_of(procs))
        snapshot_all(cloud, res.vms, args.approach)
        roots = obs.snapshot_spans(tracer.spans)
        title = "per-VM snapshot time breakdown (seconds)"
    else:
        roots = obs.boot_spans(tracer.spans)
        title = "per-VM boot time breakdown (seconds)"

    tracer.finish_open_spans()
    out = args.out or f"{args.figure}-n{args.instances}.trace.json"
    obs.write_trace_json(out, tracer)

    if roots:
        print(obs.render_breakdown_table(roots, tracer.spans, title=title))
        print()
        print(obs.render_critical_path(roots[0], tracer.spans))
        covs = [obs.coverage(r, tracer.spans) for r in roots]
        print()
        print(f"span coverage:   {min(covs):.1%} (worst VM) / "
              f"{sum(covs) / len(covs):.1%} (mean)")
    print(f"trace:           {out} ({len(tracer.spans)} spans; "
          f"open in https://ui.perfetto.dev)")
    return 0


def cmd_faults(args) -> int:
    from .cloud import build_cloud
    from .faults import FaultPlan, RetryPolicy, resilient_deploy
    from .vmsim import make_image

    calib = _calibration(args)
    pool = _pool(args)
    retry = RetryPolicy(
        attempts=args.attempts,
        base_delay=args.base_delay,
        rpc_timeout=args.rpc_timeout,
    )
    cloud = build_cloud(
        pool, seed=args.seed, calib=calib,
        replication_factor=args.replication,
        replica_write_mode=args.write_mode,
        retry=retry,
    )
    image = make_image(calib.image.size, calib.image.boot_touched_bytes, n_regions=48)
    spares = [h.name for h in cloud.compute[args.instances:]]
    if args.crashes > len(spares):
        print(f"error: {args.crashes} crashes exceed the {len(spares)} spare "
              f"nodes of a {pool}-node pool with {args.instances} instances",
              file=sys.stderr)
        return 2
    if args.crashes == 0:
        plan = FaultPlan()
    elif args.plan == "staggered":
        plan = FaultPlan.staggered_crashes(
            spares, args.crashes, args.window, mttr=args.mttr
        )
    else:
        plan = FaultPlan.random_crashes(
            spares, args.crashes, args.window, mttr=args.mttr,
            seed=args.faults_seed if args.faults_seed is not None else args.seed,
        )
    res = resilient_deploy(cloud, image, args.instances, args.approach, plan=plan)
    print(f"approach:        {res.approach}  (replication={args.replication}, "
          f"{args.write_mode} writes)")
    print(f"fault plan:      {plan.describe()}")
    if cloud.injector is not None:
        print(f"injected:        {len(cloud.injector.applied)} incidents")
    print(f"instances:       {res.n_instances}")
    print(f"booted:          {res.boots_completed}  "
          f"(survival {res.survival_rate:.0%})")
    if res.failed:
        print(f"failed:          " + ", ".join(
            f"{name} ({why})" for name, why in sorted(res.failed.items())))
    print(f"init phase:      {fmt_time(res.init_time)}")
    print(f"avg boot:        {fmt_time(res.avg_boot_time)}")
    print(f"completion:      {fmt_time(res.completion_time)}")
    print(f"network traffic: {fmt_size(res.total_traffic)}")
    retries = sum(
        cloud.metrics.counters.get(k, 0)
        for k in ("fetch-retry", "meta-retry", "put-retry")
    )
    print(f"client retries:  {retries}")
    return 0 if res.boots_failed == 0 else 1


def cmd_p2p(args) -> int:
    from .cloud import build_cloud, deploy
    from .vmsim import make_image

    calib = _calibration(args)
    pool = _pool(args)

    def run(p2p_on: bool):
        kw = {}
        if p2p_on:
            kw = dict(
                p2p=True,
                p2p_directory=args.directory,
                p2p_locate_fanout=args.fanout,
            )
            if args.cache_mib > 0:
                kw["p2p_cache_bytes"] = args.cache_mib * MiB
        cloud = build_cloud(pool, seed=args.seed, calib=calib, **kw)
        image = make_image(
            calib.image.size, calib.image.boot_touched_bytes, n_regions=48
        )
        res = deploy(cloud, image, args.instances, "mirror")
        return cloud, res

    base_cloud, base = run(False)
    p2p_cloud, res = run(True)
    base_pb = base_cloud.metrics.counters.get("provider-bytes", 0)
    p2p_pb = p2p_cloud.metrics.counters.get("provider-bytes", 0)
    stats = res.p2p_stats or {}
    saved = 1.0 - (p2p_pb / base_pb) if base_pb else 0.0

    print(f"instances:        {args.instances}  (directory={args.directory}, "
          f"fanout={args.fanout})")
    print(f"avg boot:         {fmt_time(base.avg_boot_time)} -> "
          f"{fmt_time(res.avg_boot_time)}")
    print(f"completion:       {fmt_time(base.completion_time)} -> "
          f"{fmt_time(res.completion_time)}")
    print(f"provider bytes:   {fmt_size(base_pb)} -> {fmt_size(p2p_pb)} "
          f"({saved:.0%} served by peers instead)")
    print(f"peer hit ratio:   {stats.get('peer_hit_ratio', 0.0):.1%}")
    print(f"bytes from peers: {fmt_size(stats.get('bytes_from_peers', 0))}")
    print(f"peer failovers:   {stats.get('peer_failovers', 0)}")

    return 0


def cmd_topo(args) -> int:
    from .runner import PointSpec, execute_point, resolve_profile

    profile = resolve_profile(args.profile)
    n = args.instances if args.instances > 0 else profile.instance_counts[0]

    def spec_for(locality: bool):
        params = [
            ("racks", args.racks),
            ("oversubscription", args.oversubscription),
            ("locality", locality),
            ("directory", args.directory),
            ("locate_fanout", args.fanout),
        ]
        if args.no_p2p:
            params.append(("p2p", False))
        if args.replication > 1:
            params.append(("replication", args.replication))
        return PointSpec(
            kind="topo", profile=profile.name, approach="mirror",
            n=n, seed=args.seed, params=tuple(params),
        )

    blind = execute_point(spec_for(False))
    aware = execute_point(spec_for(True))
    bm, am = blind.metrics, aware.metrics

    def cross_frac(m):
        total = m["intra_rack_bytes"] + m["cross_rack_bytes"]
        return m["cross_rack_bytes"] / total if total else 0.0

    cut = (1.0 - am["cross_rack_bytes"] / bm["cross_rack_bytes"]
           if bm["cross_rack_bytes"] else 0.0)
    print(f"instances:        {n}  (racks={args.racks}, "
          f"oversubscription={args.oversubscription:g}, "
          f"p2p={not args.no_p2p}, directory={args.directory})")
    print(f"                  {'blind':>14}{'locality':>14}")
    print(f"avg boot:         {fmt_time(bm['avg_boot_time']):>14}"
          f"{fmt_time(am['avg_boot_time']):>14}")
    print(f"completion:       {fmt_time(bm['completion_time']):>14}"
          f"{fmt_time(am['completion_time']):>14}")
    print(f"intra-rack bytes: {fmt_size(bm['intra_rack_bytes']):>14}"
          f"{fmt_size(am['intra_rack_bytes']):>14}")
    print(f"cross-rack bytes: {fmt_size(bm['cross_rack_bytes']):>14}"
          f"{fmt_size(am['cross_rack_bytes']):>14}")
    print(f"cross-rack share: {cross_frac(bm):>13.1%}{cross_frac(am):>14.1%}")
    print(f"cross-rack cut:   {cut:.1%} (locality vs topology-blind)")

    return 0


def cmd_churn(args) -> int:
    from .runner import PointSpec, execute_point, resolve_profile

    profile = resolve_profile(args.profile)
    n = args.deploys if args.deploys > 0 else profile.instance_counts[0]
    params = [
        ("policy", args.policy),
        ("arrivals", args.arrivals),
        ("rate", args.rate),
        ("tenants", args.tenants),
        ("mean_lifetime", args.mean_lifetime),
        ("gc_interval", args.gc_interval),
    ]
    if args.restore_fraction > 0.0:
        params.append(("restore_fraction", args.restore_fraction))
        if args.retain_snapshots:
            params.append(("retain_snapshots", True))
    if args.p2p:
        params.append(("p2p", True))
        if args.cache_mib > 0:
            params.append(("cache_mib", args.cache_mib))
    spec = PointSpec(
        kind="churn", profile=profile.name, approach=args.policy,
        n=n, seed=args.seed, params=tuple(params),
    )
    res = execute_point(spec)
    m = res.metrics

    print(f"policy:           {args.policy}  (arrivals={args.arrivals}, "
          f"rate={args.rate}/s, tenants={args.tenants}, p2p={args.p2p})")
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
    if args.restore_fraction > 0.0:
        print(f"restores:         {m['restores_completed']:.0f} completed "
              f"({m['restores_missed']:.0f} missed, "
              f"{m['restores_from_retired']:.0f} from retired chains), p99 "
              f"{fmt_time(m['restore_p99_exact'])}, mean "
              f"{m['restore_mean_hops']:.1f} hops")
    print(f"rejection rate:   {m['rejection_rate']:.1%}")
    print(f"utilization:      {m['utilization']:.1%}")
    print(f"storage:          peak {fmt_size(m['footprint_peak'])}, final "
          f"{fmt_size(m['footprint_final'])}, reclaimed "
          f"{fmt_size(m['bytes_reclaimed'])} over {m['gc_sweeps']:.0f} GC sweeps")
    print(f"makespan:         {fmt_time(m['makespan'])}")

    return 0


def cmd_lineage(args) -> int:
    from .runner import PointSpec, execute_point, resolve_profile

    profile = resolve_profile(args.profile)
    depth = args.depth if args.depth > 0 else profile.instance_counts[-1]
    params = []
    if args.compact:
        params += [
            ("compact", True),
            ("policy", args.policy),
            ("depth_bound", args.depth_bound),
        ]
    if args.replication > 1:
        params.append(("replication", args.replication))
    spec = PointSpec(
        kind="lineage", profile=profile.name, approach="mirror",
        n=depth, seed=args.seed, params=tuple(params),
    )
    res = execute_point(spec)
    m = res.metrics

    mode = (f"compact={args.policy}/{args.depth_bound}" if args.compact
            else "uncompacted")
    print(f"chain:            depth {depth} ({mode}), "
          f"{m['forest_snapshots']:.0f} snapshots in the forest")
    print(f"restore scan:     {m['scan_hops']:.0f} hops, "
          f"{fmt_time(m['scan_time'])}")
    print(f"restore latency:  {fmt_time(m['restore_time'])} "
          f"(clone {fmt_time(m['clone_time'])}, open {fmt_time(m['open_time'])})")
    print(f"restored boot:    {fmt_time(m['boot_time'])}")
    print(f"dedup accounting: exclusive {fmt_size(m['dedup_exclusive'])}, shared "
          f"{fmt_size(m['dedup_shared'])} ({m['sharing_ratio']:.1%} of "
          f"{fmt_size(m['dedup_live'])} live)")
    print(f"conservation:     exclusive+shared==live: "
          f"{'ok' if m['conserved'] else 'VIOLATED'}; live==stored: "
          f"{'ok' if m['footprint_matches'] else 'VIOLATED'}")
    if args.compact:
        print(f"compaction:       {m['skips_written']:.0f} skips written, "
              f"{m['versions_merged']:.0f} versions merged, "
              f"{fmt_time(m['compact_duration'])}")

    return 0


def cmd_bonnie(args) -> int:
    from .blobseer import BlobSeerDeployment
    from .common.payload import Payload
    from .simkit.host import Fabric
    from .vmsim import BonnieBenchmark
    from .vmsim.backends import LocalRawBackend, MirrorBackend

    size = args.image_mib * MiB
    working = min(args.working_mib * MiB, size // 2)
    rows = {}
    for kind in ("local", "mirror"):
        fabric = Fabric(seed=args.seed)
        nodes = [fabric.add_host(f"node{i}") for i in range(8)]
        manager = fabric.add_host("manager")
        dep = BlobSeerDeployment(fabric, nodes, nodes, manager)
        rec = dep.seed_blob(Payload.opaque("img", size), 256 * KiB)
        fuse = DEFAULT.fuse
        if kind == "local":
            f = nodes[0].create_file("/img", size)
            f.write(0, Payload.opaque("img", size))
            backend = LocalRawBackend(nodes[0], "/img", fuse)
            ops = (fuse.local_data_op_overhead, fuse.local_per_op_overhead)
        else:
            backend = MirrorBackend(nodes[0], dep, rec.blob_id, rec.version, fuse)
            ops = (fuse.data_op_overhead, fuse.per_op_overhead)
        bench = BonnieBenchmark(backend, *ops, working_set=working, base_offset=size // 2)
        out = {}

        def master(backend=backend, bench=bench, out=out):
            yield from backend.open()
            out["r"] = yield from bench.run()

        fabric.run(fabric.env.process(master()))
        rows[kind] = out["r"]

    print(f"{'metric':<16}{'local':>14}{'our-approach':>14}")
    for label, attr in [
        ("BlockW KB/s", "block_write_kbps"),
        ("BlockR KB/s", "block_read_kbps"),
        ("BlockO KB/s", "block_overwrite_kbps"),
        ("RndSeek ops/s", "rnd_seek_ops"),
        ("CreatF ops/s", "create_ops"),
        ("DelF ops/s", "delete_ops"),
    ]:
        print(f"{label:<16}{getattr(rows['local'], attr):>14.0f}"
              f"{getattr(rows['mirror'], attr):>14.0f}")
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
    from .runner import PointSpec, ResultCache, SweepRunner, resolve_profile

    profile = resolve_profile(args.profile)
    kind, all_approaches = SWEEP_FIGURES[args.figure]
    approaches = tuple(args.approach) or all_approaches
    counts = tuple(args.counts) if args.counts else profile.instance_counts
    bad = [n for n in counts if n > profile.pool_nodes]
    if bad:
        print(f"error: counts {bad} exceed the {profile.name} profile's "
              f"{profile.pool_nodes}-node pool", file=sys.stderr)
        return 2

    specs = [
        PointSpec(kind=kind, profile=profile.name, approach=a, n=n, seed=args.seed)
        for a in approaches
        for n in counts
    ]
    cache = None if args.no_cache else ResultCache(
        Path(args.cache_dir) if args.cache_dir else None
    )
    runner = SweepRunner(jobs=args.jobs, cache=cache, refresh=args.refresh)
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

    stats = runner.stats
    rate = f", {len(specs) / wall:.2f} points/s" if wall > 0 else ""
    print(f"sweep: {len(specs)} points ({stats.executed} simulated, "
          f"{stats.cached} from cache) in {wall:.2f}s{rate} "
          f"[jobs={runner.jobs}, profile={profile.name}]")
    if cache is not None:
        print(f"cache: {cache.root} ({len(cache)} entries)")
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
            "subcommands: deploy (one multideployment), snapshot "
            "(multisnapshotting), sweep (figure sweeps via the parallel "
            "runner), faults (deployment under injected crashes), p2p "
            "(cooperative chunk exchange), topo (hierarchical fabric + "
            "locality policies), churn (long-horizon multi-tenant "
            "SLOs), lineage (snapshot chains, compaction, restore-to-"
            "version), trace (Perfetto causal traces), bonnie (the §5.4 "
            "micro-benchmark), info (active calibration). "
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
    p_deploy.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="PATH",
        help="record a Perfetto trace (optional output path; "
             "default deploy-<approach>-n<N>.trace.json)",
    )
    p_deploy.set_defaults(func=cmd_deploy)

    p_snap = sub.add_parser("snapshot", help="deploy, dirty, multisnapshot")
    _add_cluster_args(p_snap)
    p_snap.add_argument("--approach", choices=["mirror", "qcow2-pvfs"], default="mirror")
    p_snap.add_argument("--diff-mib", type=int, default=15,
                        help="local modifications per VM, in MiB")
    p_snap.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="PATH",
        help="record a Perfetto trace (optional output path; "
             "default snapshot-<approach>-n<N>.trace.json)",
    )
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
    p_trace.add_argument("--diff-mib", type=int, default=15,
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
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: all cores; 1 = in-process sequential)",
    )
    p_sweep.add_argument(
        "--approach", action="append", default=[],
        choices=["mirror", "qcow2-pvfs", "prepropagation"],
        help="restrict to one approach (repeatable; default: the figure's set)",
    )
    p_sweep.add_argument(
        "--counts", type=lambda s: [int(v) for v in s.split(",")], default=None,
        metavar="N1,N2,...", help="instance counts (default: the profile's sweep)",
    )
    p_sweep.add_argument("--seed", type=int, default=1, help="experiment seed")
    p_sweep.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache entirely"
    )
    p_sweep.add_argument(
        "--refresh", action="store_true",
        help="recompute every point and refresh its cache entry",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: benchmarks/results/cache)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_faults = sub.add_parser(
        "faults", help="multideployment under an injected fault plan"
    )
    _add_cluster_args(p_faults)
    p_faults.add_argument(
        "--approach", choices=["mirror", "qcow2-pvfs", "prepropagation"],
        default="mirror",
    )
    p_faults.add_argument("--replication", type=int, default=2,
                          help="replicas per chunk (and metadata node)")
    p_faults.add_argument("--write-mode", choices=["parallel", "pipeline"],
                          default="parallel", help="replica write strategy")
    p_faults.add_argument("--crashes", type=int, default=2,
                          help="spare nodes to crash during the boot phase")
    p_faults.add_argument("--mttr", type=float, default=0.0,
                          help="seconds until a crashed node revives (0 = permanent)")
    p_faults.add_argument("--window", type=float, default=5.0,
                          help="crashes spread over the first WINDOW seconds")
    p_faults.add_argument("--plan", choices=["staggered", "random"],
                          default="staggered", help="fault plan generator")
    p_faults.add_argument("--faults-seed", type=int, default=None,
                          help="seed for --plan random (default: --seed)")
    p_faults.add_argument("--attempts", type=int, default=4,
                          help="client retry attempts per chunk/metadata fetch")
    p_faults.add_argument("--base-delay", type=float, default=0.25,
                          help="initial retry backoff in seconds")
    p_faults.add_argument("--rpc-timeout", type=float, default=2.0,
                          help="per-RPC deadline in seconds")
    p_faults.set_defaults(func=cmd_faults)

    p_p2p = sub.add_parser(
        "p2p", help="multideployment with cooperative peer chunk exchange"
    )
    _add_cluster_args(p_p2p)
    p_p2p.add_argument("--directory", choices=["announce", "rendezvous"],
                       default="announce", help="peer-location strategy")
    p_p2p.add_argument("--cache-mib", type=int, default=0,
                       help="per-node peer cache in MiB (0 = default 64)")
    p_p2p.add_argument("--fanout", type=int, default=2,
                       help="candidate peers tried per chunk before providers")
    p_p2p.set_defaults(func=cmd_p2p)

    p_topo = sub.add_parser(
        "topo",
        help="multideployment over a hierarchical (racked) fabric, "
             "locality-aware vs topology-blind",
    )
    p_topo.add_argument("--instances", type=int, default=0,
                        help="concurrent VMs (0 = the profile's first count)")
    p_topo.add_argument("--profile", default="topo-smoke",
                        help="benchmark profile (topo, topo-smoke, ...)")
    p_topo.add_argument("--racks", type=int, default=4,
                        help="racks the compute pool is split across")
    p_topo.add_argument("--oversubscription", type=float, default=4.0,
                        help="rack uplink = hosts_per_rack * NIC / this ratio")
    p_topo.add_argument("--directory", choices=["announce", "rendezvous"],
                        default="announce", help="peer-location strategy")
    p_topo.add_argument("--fanout", type=int, default=2,
                        help="candidate peers tried per chunk before providers")
    p_topo.add_argument("--no-p2p", action="store_true",
                        help="disable the cooperative chunk exchange")
    p_topo.add_argument("--replication", type=int, default=1,
                        help="replicas per chunk (locality run places them "
                             "rack-diverse)")
    p_topo.add_argument("--seed", type=int, default=1, help="experiment seed")
    p_topo.set_defaults(func=cmd_topo)

    p_churn = sub.add_parser(
        "churn", help="long-horizon multi-tenant churn run with steady-state SLOs"
    )
    p_churn.add_argument("--deploys", type=int, default=0,
                         help="deploy requests (0 = the profile's first count)")
    p_churn.add_argument("--profile", default="churn-smoke",
                         help="benchmark profile (churn, churn-smoke, ...)")
    p_churn.add_argument("--policy",
                         choices=["first-fit", "least-loaded", "locality"],
                         default="least-loaded", help="placement policy")
    p_churn.add_argument("--arrivals",
                         choices=["poisson", "diurnal", "bursty"],
                         default="poisson", help="arrival process")
    p_churn.add_argument("--rate", type=float, default=2.0,
                         help="mean arrival rate, deploys/second")
    p_churn.add_argument("--tenants", type=int, default=4,
                         help="tenants sharing the pool (one base image each)")
    p_churn.add_argument("--mean-lifetime", type=float, default=40.0,
                         help="mean VM lifetime in seconds")
    p_churn.add_argument("--gc-interval", type=float, default=60.0,
                         help="seconds between GC sweeps (0 disables GC)")
    p_churn.add_argument("--p2p", action="store_true",
                         help="enable the cooperative peer chunk exchange")
    p_churn.add_argument("--cache-mib", type=int, default=0,
                         help="per-node peer cache in MiB (0 = default 64)")
    p_churn.add_argument("--restore-fraction", type=float, default=0.0,
                         help="fraction of deploys that schedule a "
                              "post-teardown restore-to-version (0 = off)")
    p_churn.add_argument("--retain-snapshots", action="store_true",
                         help="pin snapshot chains past teardown so restores "
                              "never hit a retired chain")
    p_churn.add_argument("--seed", type=int, default=1, help="experiment seed")
    p_churn.set_defaults(func=cmd_churn)

    p_lineage = sub.add_parser(
        "lineage",
        help="snapshot chain + compaction + restore-to-version with dedup "
             "accounting",
    )
    p_lineage.add_argument("--depth", type=int, default=0,
                           help="chain depth / COMMITs (0 = the profile's "
                                "deepest sweep point)")
    p_lineage.add_argument("--profile", default="lineage",
                           help="benchmark profile (lineage, lineage-smoke, ...)")
    p_lineage.add_argument("--compact", action="store_true",
                           help="compact the chain before restoring")
    p_lineage.add_argument("--policy", choices=["flatten", "merge"],
                           default="flatten", help="compaction policy")
    p_lineage.add_argument("--depth-bound", type=int, default=4,
                           help="compacted-walk bound (anchor spacing)")
    p_lineage.add_argument("--replication", type=int, default=1,
                           help="replicas per chunk (dedup counts physical "
                                "bytes per replica)")
    p_lineage.add_argument("--seed", type=int, default=1, help="experiment seed")
    p_lineage.set_defaults(func=cmd_lineage)

    p_bonnie = sub.add_parser("bonnie", help="run the §5.4 micro-benchmark")
    p_bonnie.add_argument("--image-mib", type=int, default=1024)
    p_bonnie.add_argument("--working-mib", type=int, default=256)
    p_bonnie.add_argument("--seed", type=int, default=1)
    p_bonnie.set_defaults(func=cmd_bonnie)

    p_info = sub.add_parser("info", help="print the active calibration")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
