"""Point executors: turn a :class:`PointSpec` into a :class:`PointResult`.

Each executor builds a *fresh* simulated cloud (fixed seed, no state shared
with any other point), runs one experiment, and returns plain data. The
executors reproduce the figure benchmarks' measurement code exactly — same
RNG labels, same construction order — so routing a sweep through the runner
yields bit-identical series to the old in-line loops.

Every kind reads the same cloud params (:data:`CLOUD_PARAMS`: the p2p
overlay, storage replication and the rack fabric) plus the workload params it
declares at :func:`point_kind`; a spec naming any other param is rejected
before anything is built.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Tuple

from ..cloud import build_cloud, deploy, seed_image, snapshot_all
from ..common.errors import SimulationError
from ..common.units import KiB, MiB
from ..vmsim import make_image
from ..vmsim.workloads import read_your_writes_workload
from .profiles import BenchProfile, profile_calibration, resolve_profile
from .spec import PointResult, PointSpec

#: kind -> (executor, the workload params it accepts beside the cloud params)
_EXECUTORS: Dict[str, Tuple[Callable, FrozenSet[str]]] = {}


def point_kind(name: str, *params: str):
    """Register the executor of kind ``name``, which reads workload ``params``."""
    def register(fn):
        _EXECUTORS[name] = (fn, frozenset(params))
        return fn
    return register


def known_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_EXECUTORS))


#: The cloud params every kind accepts, with their defaults (a flat,
#: provider-only, unreplicated cloud: the seed model of §5.1).
CLOUD_PARAMS = {
    # p2p overlay
    "p2p": False,              # enable the cooperative chunk exchange
    "directory": "announce",   # peer location: announce | rendezvous
    "cache_mib": None,         # per-node peer cache (None = the P2PConfig default)
    "locate_fanout": 2,        # candidate peers tried per chunk before the providers
    # storage
    "replication": 1,          # provider replica count
    "placement": None,         # None = rack-diverse if locality, racks > 1 and
                               # replication > 1, else round-robin
    "replica_write_mode": "parallel",  # parallel | pipeline
    # fabric
    "racks": 1,                # 1 = the flat fabric
    "oversubscription": 4.0,   # rack uplink = hosts_per_rack * nic_bw / this
    "locality": True,          # rack-aware peer ranking and replica reads
                               # (False = the topology-blind baseline)
    "fairness": "equal-share",  # flow-sharing model
}


def build_point_cloud(profile: BenchProfile, seed: int, calib=None, **cloud_kw):
    """Fresh cluster + image for one measurement point."""
    calib = calib if calib is not None else profile_calibration(profile)
    if profile.data_nodes is not None:
        cloud_kw.setdefault("data_nodes", profile.data_nodes)
    if profile.meta_nodes is not None:
        cloud_kw.setdefault("meta_nodes", profile.meta_nodes)
    cloud = build_cloud(profile.pool_nodes, seed=seed, calib=calib, **cloud_kw)
    image = make_image(
        calib.image.size, calib.image.boot_touched_bytes, n_regions=profile.n_regions
    )
    return cloud, image


def _spec_cloud(spec: PointSpec, profile: BenchProfile, calib, **cloud_kw):
    """:func:`build_point_cloud` under ``spec``'s cloud params (+ the kind's keywords)."""
    p = {name: spec.param(name, default) for name, default in CLOUD_PARAMS.items()}
    replication, racks, locality = int(p["replication"]), int(p["racks"]), bool(p["locality"])
    if p["cache_mib"] is not None:
        cloud_kw["p2p_cache_bytes"] = int(p["cache_mib"]) * MiB
    return build_point_cloud(
        profile, spec.seed, calib=calib,
        p2p=bool(p["p2p"]), p2p_directory=p["directory"],
        p2p_locate_fanout=int(p["locate_fanout"]),
        replication_factor=replication,
        placement=p["placement"] or (
            "rack-diverse" if locality and racks > 1 and replication > 1 else "round-robin"
        ),
        replica_write_mode=p["replica_write_mode"],
        racks=racks, oversubscription=float(p["oversubscription"]), topo_aware=locality,
        fairness=p["fairness"], **cloud_kw,
    )


def apply_diffs(cloud, image, vms, diff_bytes: int) -> None:
    """Each running VM writes ~``diff_bytes`` of local modifications (§5.3)."""

    def one(vm, i):
        ops = read_your_writes_workload(
            image.write_base, diff_bytes, cloud.fabric.rng.get("app-diff", i),
            reread_fraction=0.05,
        )
        yield from vm.run_ops(ops)

    procs = [cloud.env.process(one(vm, i)) for i, vm in enumerate(vms)]
    cloud.run(cloud.env.all_of(procs))


def _source_metrics(cloud) -> Dict[str, float]:
    """Where the point's bytes came from: providers, peers, and fabric tiers.

    The per-tier split sorts the fluid-flow bytes by the scope of each flow's
    endpoints (intra-rack / cross-rack), overall and for the ``payload`` kind
    alone (provider chunk reads; peer-exchange chunk bytes travel as
    ``rpc-response``). All of it is zero where the feature is off.
    """
    m = cloud.metrics
    stats = cloud.p2p.stats() if cloud.p2p is not None else {}
    scopes = m.topo_scope_totals()
    return {
        "provider_bytes": float(m.counters.get("provider-bytes", 0)),
        "peer_hit_ratio": float(stats.get("peer_hit_ratio", 0.0)),
        "bytes_from_peers": float(stats.get("bytes_from_peers", 0)),
        "bytes_from_providers": float(stats.get("bytes_from_providers", 0)),
        "peer_failovers": float(stats.get("peer_failovers", 0)),
        "cache_evictions": float(stats.get("cache_evictions", 0)),
        "intra_rack_bytes": float(scopes.get("intra-rack", 0)),
        "cross_rack_bytes": float(scopes.get("cross-rack", 0) + scopes.get("cross-pod", 0)),
        "intra_rack_payload_bytes": float(m.topo_kind_bytes("intra-rack", "payload")),
        "cross_rack_payload_bytes": float(
            m.topo_kind_bytes("cross-rack", "payload")
            + m.topo_kind_bytes("cross-pod", "payload")
        ),
    }


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
@point_kind("deploy", "mirror_prefetch")
def _run_deploy(spec: PointSpec, profile: BenchProfile, calib):
    """One Fig. 4 measurement: deploy ``n`` instances with ``approach``.

    Param ``mirror_prefetch`` (strategy 1 of §3.3; default True). With the
    cloud params this is also the cooperative-exchange point (``p2p``) and
    the rack-fabric point (``racks``, ``locality``, ...).
    """
    cloud, image = _spec_cloud(spec, profile, calib)
    res = deploy(
        cloud, image, spec.n, spec.approach,
        mirror_prefetch=spec.param("mirror_prefetch", True),
    )
    metrics = {
        "init_time": res.init_time,
        "avg_boot_time": res.avg_boot_time,
        "completion_time": res.completion_time,
        "total_traffic": res.total_traffic,
        **_source_metrics(cloud),
    }
    series = {"boot_times": tuple(res.boot_times)}
    return cloud, metrics, series


@point_kind("snapshot", "diff_bytes")
def _run_snapshot(spec: PointSpec, profile: BenchProfile, calib):
    """One Fig. 5 measurement: deploy, write diffs, snapshot all.

    Param ``diff_bytes`` (per-VM local modifications; default the
    profile's). A racked, replicated burst is the same point with the cloud
    params set: with ``racks`` > 1 and ``replication`` > 1 the default
    rack-diverse placement sends a copy of every committed chunk across an
    uplink.
    """
    cloud, image = _spec_cloud(spec, profile, calib)
    res = deploy(cloud, image, spec.n, spec.approach)
    diff_bytes = spec.param("diff_bytes", profile.diff_bytes)
    apply_diffs(cloud, image, res.vms, diff_bytes)
    snap = snapshot_all(cloud, res.vms, spec.approach)
    metrics = {
        "avg_time": snap.avg_time,
        "completion_time": snap.completion_time,
        "total_bytes_moved": snap.total_bytes_moved,
        "deploy_completion_time": res.completion_time,
        **_source_metrics(cloud),
    }
    series = {"snapshot_durations": tuple(s.duration for s in snap.per_instance)}
    return cloud, metrics, series


@point_kind("bonnie")
def _run_bonnie(spec: PointSpec, profile: BenchProfile, calib):
    """The §5.4 Bonnie++ run; ``approach`` is ``local`` or ``mirror``."""
    from ..vmsim import BonnieBenchmark
    from ..vmsim.backends import LocalRawBackend, MirrorBackend

    cloud, image = _spec_cloud(spec, profile, calib)
    idents = seed_image(cloud, image)
    node = cloud.compute[0]
    fuse = cloud.calib.fuse
    if spec.approach == "local":
        f = node.create_file("/local/image.raw", image.size)
        f.write(0, image.payload)
        backend = LocalRawBackend(node, "/local/image.raw", fuse)
        data_op, meta_op = fuse.local_data_op_overhead, fuse.local_per_op_overhead
    elif spec.approach == "mirror":
        rec = idents["blobseer"]
        backend = MirrorBackend(node, cloud.blobseer, rec.blob_id, rec.version, fuse)
        data_op, meta_op = fuse.data_op_overhead, fuse.per_op_overhead
    else:
        raise SimulationError(
            f"bonnie approach must be 'local' or 'mirror', got {spec.approach!r}"
        )
    base = image.size // 2  # working set in the free half of the image
    bench = BonnieBenchmark(
        backend, data_op, meta_op,
        working_set=profile.bonnie_working_set, base_offset=base,
    )
    out = {}

    def master():
        yield from backend.open()
        out["results"] = yield from bench.run()

    cloud.run(cloud.env.process(master(), name=f"bonnie-{spec.approach}"))
    r = out["results"]
    metrics = {
        "block_write_kbps": r.block_write_kbps,
        "block_read_kbps": r.block_read_kbps,
        "block_overwrite_kbps": r.block_overwrite_kbps,
        "rnd_seek_ops": r.rnd_seek_ops,
        "create_ops": r.create_ops,
        "delete_ops": r.delete_ops,
        "payload_traffic": cloud.metrics.traffic.get("payload", 0),
    }
    return cloud, metrics, {}


@point_kind(
    "resilience", "crashes", "mttr", "window", "plan", "faults_seed",
    "attempts", "base_delay", "rpc_timeout",
)
def _run_resilience(spec: PointSpec, profile: BenchProfile, calib):
    """One resilience-sweep point: multideployment under injected crashes.

    Victims are *spare* pool nodes (nodes not running a VM), so the sweep
    measures how the storage layer — not the hypervisor hosts — degrades:
    a crashed spare takes its data provider (and metadata shard) down with
    whatever chunks it held.

    Params: ``crashes`` (how many spares die), ``mttr`` (0 = permanent
    loss), ``window`` (crash spread, seconds into the boot phase), ``plan``
    (``staggered`` | ``random``), ``faults_seed``, ``attempts`` /
    ``rpc_timeout`` / ``base_delay`` (client retry policy); the replica
    count and write mode are the cloud params ``replication`` /
    ``replica_write_mode``.
    """
    from ..faults import FaultPlan, RetryPolicy, resilient_deploy

    crashes = int(spec.param("crashes", 0))
    mttr = float(spec.param("mttr", 0.0))
    window = float(spec.param("window", 5.0))
    mode = spec.param("plan", "staggered")

    retry = RetryPolicy(
        attempts=int(spec.param("attempts", 4)),
        base_delay=float(spec.param("base_delay", 0.25)),
        rpc_timeout=float(spec.param("rpc_timeout", 2.0)),
    )
    cloud, image = _spec_cloud(spec, profile, calib, retry=retry)
    spares = [h.name for h in cloud.compute[spec.n:]]
    if crashes > len(spares):
        raise SimulationError(
            f"resilience: {crashes} crashes exceed the {len(spares)} spare "
            f"nodes of a {profile.pool_nodes}-node pool with n={spec.n}"
        )
    if crashes == 0:
        plan = FaultPlan()
    elif mode == "staggered":
        plan = FaultPlan.staggered_crashes(spares, crashes, window, mttr=mttr)
    elif mode == "random":
        plan = FaultPlan.random_crashes(
            spares, crashes, window, mttr=mttr,
            seed=int(spec.param("faults_seed", spec.seed)),
        )
    else:
        raise SimulationError(
            f"resilience plan must be 'staggered' or 'random', got {mode!r}"
        )

    from ..simkit import rpc as _rpc

    try:
        res = resilient_deploy(
            cloud, image, spec.n, spec.approach or "mirror", plan=plan
        )
    finally:
        # The down-host registry is process-global and keyed by id(fabric);
        # purge it so a later point in this worker (which may reuse the
        # fabric's memory address) cannot inherit stale crash markers.
        _rpc.reset_failures()
    metrics = {
        "init_time": res.init_time,
        "avg_boot_time": res.avg_boot_time,
        "completion_time": res.completion_time,
        "total_traffic": res.total_traffic,
        "boots_completed": float(res.boots_completed),
        "boots_failed": float(res.boots_failed),
        "survival_rate": res.survival_rate,
        "faults_injected": float(len(cloud.injector.applied) if cloud.injector else 0),
    }
    series = {
        "boot_times": tuple(res.boot_times),
        "failed": tuple(f"{vm} ({why})" for vm, why in sorted(res.failed.items())),
        "fault_plan": (plan.describe(),),
    }
    return cloud, metrics, series


@point_kind(
    "churn", "policy", "arrivals", "rate", "tenants", "mean_lifetime",
    "min_lifetime", "snapshot_fraction", "restore_fraction", "slots_per_node",
    "max_queue", "gc_interval", "sample_interval", "retention",
    "retain_snapshots", "diff_kib",
)
def _run_churn(spec: PointSpec, profile: BenchProfile, calib):
    """One long-horizon churn run; ``spec.n`` counts *deploy requests*.

    Params mirror :class:`~repro.churn.arrivals.ChurnSpec`: ``policy``
    (``first-fit`` | ``least-loaded`` | ``locality``), ``arrivals``
    (``poisson`` | ``diurnal`` | ``bursty``), ``rate``, ``tenants``,
    ``mean_lifetime``, ``min_lifetime``, ``snapshot_fraction``,
    ``restore_fraction`` (post-teardown restore-to-version arrivals),
    ``slots_per_node``, ``max_queue``, ``gc_interval`` (0 disables the
    periodic sweep — the storage-growth ablation), ``sample_interval``,
    ``retention``, ``retain_snapshots``, ``diff_kib``. Locality-aware
    placement reads the peer caches of the cloud param ``p2p``.
    ``approach`` is ignored (churn always runs the mirror path).
    """
    from ..churn import ChurnEngine, ChurnSpec

    cloud, image = _spec_cloud(spec, profile, calib, with_pvfs=False)
    churn_spec = ChurnSpec(
        n_deploys=spec.n,
        arrivals=spec.param("arrivals", "poisson"),
        rate=float(spec.param("rate", 2.0)),
        n_tenants=int(spec.param("tenants", 4)),
        mean_lifetime=float(spec.param("mean_lifetime", 40.0)),
        min_lifetime=float(spec.param("min_lifetime", 8.0)),
        snapshot_fraction=float(spec.param("snapshot_fraction", 0.5)),
        restore_fraction=float(spec.param("restore_fraction", 0.0)),
        diff_bytes=int(spec.param("diff_kib", profile.diff_bytes // KiB)) * KiB,
        policy=spec.param("policy", "first-fit"),
        slots_per_node=int(spec.param("slots_per_node", 2)),
        max_queue=int(spec.param("max_queue", 16)),
        gc_interval=float(spec.param("gc_interval", 60.0)),
        sample_interval=float(spec.param("sample_interval", 25.0)),
        retention_per_vm=int(spec.param("retention", 1)),
        retain_snapshots=bool(spec.param("retain_snapshots", False)),
    )
    res = ChurnEngine(cloud, image, churn_spec).run()
    s = res.summary
    metrics = {
        "boot_p50": s["boot_latency"]["p50"],
        "boot_p95": s["boot_latency"]["p95"],
        "boot_p99": s["boot_latency"]["p99"],
        "boot_p50_exact": s["boot_latency"]["p50_exact"],
        "boot_p99_exact": s["boot_latency"]["p99_exact"],
        "boot_mean": s["boot_latency"]["mean"],
        "queue_wait_p99_exact": s["queue_wait"]["p99_exact"],
        "queue_wait_mean": s["queue_wait"]["mean"],
        "snapshot_p99_exact": s["snapshot_latency"]["p99_exact"],
        "rejection_rate": s["rejection_rate"],
        "utilization": s["utilization"],
        "booted": float(s["requests"]["booted"]),
        "completed": float(s["requests"]["completed"]),
        "rejected": float(s["requests"]["rejected"]),
        "canceled": float(s["requests"]["canceled"]),
        "snapshots_taken": float(s["requests"]["snapshots_taken"]),
        "snapshots_missed": float(s["requests"]["snapshots_missed"]),
        "restores_completed": float(s["requests"]["restores_completed"]),
        "restores_missed": float(s["requests"]["restores_missed"]),
        "restores_from_retired": float(s["requests"]["restores_from_retired"]),
        "restore_p99_exact": s["restore_latency"]["p99_exact"],
        "restore_mean_hops": s["restore_latency"]["mean_hops"],
        "gc_sweeps": float(s["gc"]["sweeps"]),
        "bytes_reclaimed": float(s["gc"]["bytes_reclaimed"]),
        "footprint_peak": float(s["gc"]["footprint_peak"]),
        "footprint_final": float(s["gc"]["footprint_final"]),
        "makespan": s["makespan"],
        "n_requests": float(res.n_requests),
        "trace_crc": float(res.trace_crc),
    }
    series = {
        "placements": tuple(res.placements),
        "footprint_t": tuple(t for t, _ in res.footprint),
        "footprint_bytes": tuple(v for _, v in res.footprint),
    }
    return cloud, metrics, series


@point_kind("lineage", "compact", "policy", "depth_bound")
def _run_lineage(spec: PointSpec, profile: BenchProfile, calib):
    """One snapshot-lineage point; ``spec.n`` is the *chain depth*.

    A single mirror-backed VM commits ``n`` snapshots (CLONE once, then
    COMMITs), building an ``n``-deep chain. The point then optionally
    compacts the chain, runs a GC sweep, computes the exact dedup
    accounting, and restores the chain head onto a different node — the
    measured quantity is the restore *scan*, whose per-hop version-manager
    round-trips are what compaction bounds.

    Params: ``compact`` (run :func:`~repro.lineage.compact_chain`; default
    False), ``policy`` (``flatten`` | ``merge``), ``depth_bound``. The
    cloud params ``replication`` and ``p2p`` (the peer exchange on the
    restore fetch path) apply as to every kind.
    """
    from ..blobseer.gc import collect_garbage
    from ..lineage import (
        LineageForest, compact_chain, dedup_accounting, restore_to_version,
    )
    from ..vmsim import boot_trace

    depth = spec.n
    if depth < 1:
        raise SimulationError(f"lineage: chain depth must be >= 1, got {depth}")
    do_compact = bool(spec.param("compact", False))
    policy = spec.param("policy", "flatten")
    depth_bound = int(spec.param("depth_bound", 4))

    cloud, image = _spec_cloud(spec, profile, calib, with_pvfs=False)
    dep = cloud.blobseer

    res = deploy(cloud, image, 1, "mirror")
    vm = res.vms[0]
    durations = []

    def step(i):
        ops = read_your_writes_workload(
            image.write_base, profile.diff_bytes,
            cloud.fabric.rng.get("lineage-diff", i), reread_fraction=0.05,
        )
        yield from vm.run_ops(ops)
        snap = yield from vm.backend.snapshot()
        durations.append(snap.duration)

    for i in range(depth):
        cloud.run(cloud.env.process(step(i), name=f"lineage-step-{i}"))
    handle = vm.backend.handle
    head = (handle.target_blob, handle.target_version)

    out = {}
    if do_compact:
        def run_compact():
            out["compact"] = yield from compact_chain(
                dep, vm.host, head[0], head[1],
                policy=policy, depth_bound=depth_bound,
            )
        cloud.run(cloud.env.process(run_compact(), name="lineage-compact"))
    gc_report = collect_garbage(dep)
    report = dedup_accounting(dep)

    node = cloud.compute[-1]
    def run_restore():
        out["restore"] = yield from restore_to_version(
            dep, node, head[0], head[1],
            image=image, boot_model=cloud.calib.boot,
            vm_rng=cloud.fabric.rng.get("lineage-restore-vm", 0),
            trace=boot_trace(
                image, cloud.calib.boot,
                cloud.fabric.rng.get("lineage-restore-trace", 0),
            ),
            fuse=cloud.calib.fuse,
        )
    cloud.run(cloud.env.process(run_restore(), name="lineage-restore"))

    restore = out["restore"]
    compact = out.get("compact")
    forest = LineageForest.from_registry(dep.registry)
    stats = forest.stats()
    metrics = {
        "chain_depth": float(depth),
        "scan_hops": float(restore.scan_hops),
        "scan_time": restore.scan_time,
        "clone_time": restore.clone_time,
        "open_time": restore.open_time,
        "restore_time": restore.restore_time,
        "boot_time": restore.boot_time,
        "dedup_exclusive": float(report.total_exclusive),
        "dedup_shared": float(report.total_shared),
        "dedup_live": float(report.live_bytes),
        "dedup_stored": float(report.stored_bytes),
        "sharing_ratio": report.sharing_ratio(),
        "conserved": 1.0 if report.conserves() else 0.0,
        "footprint_matches": 1.0 if report.matches_footprint() else 0.0,
        "gc_bytes_reclaimed": float(gc_report.bytes_reclaimed),
        "forest_snapshots": float(stats["snapshots"]),
        "forest_max_depth": float(stats["max_depth"]),
        "skips_written": float(compact.skips_written if compact else 0),
        "versions_merged": float(compact.versions_merged if compact else 0),
        "compact_duration": compact.duration if compact else 0.0,
    }
    series = {
        "snapshot_durations": tuple(durations),
        "chain": tuple(f"b{b}v{v}" for b, v in restore.chain),
    }
    return cloud, metrics, series


def _mc_config(profile: BenchProfile, calib, image):
    from ..vmsim import MonteCarloConfig

    return MonteCarloConfig(
        total_compute=profile.mc_total_compute,
        checkpoint_interval=profile.mc_total_compute / 10,
        state_bytes=calib.snapshot.montecarlo_state_bytes,
        state_offset=image.write_base,
    )


def _run_mc_workers(cloud, workers, until=None):
    procs = [cloud.env.process(w.run(until_progress=until)) for w in workers]
    cloud.run(cloud.env.all_of(procs))


@point_kind("montecarlo", "mode")
def _run_montecarlo(spec: PointSpec, profile: BenchProfile, calib):
    """The §5.5 Monte Carlo application; param ``mode`` picks the setting:

    * ``uninterrupted`` (default) — deploy and run to completion;
    * ``suspend-resume`` — run half-way, multisnapshot, terminate, redeploy
      on different nodes, resume from the saved intermediate result.
    """
    from ..vmsim import MonteCarloWorker

    mode = spec.param("mode", "uninterrupted")
    cloud, image = _spec_cloud(spec, profile, calib)
    n = min(profile.mc_workers, profile.pool_nodes)
    cfg = _mc_config(profile, calib, image)

    if mode == "uninterrupted":
        res = deploy(cloud, image, n, spec.approach)
        workers = [MonteCarloWorker(vm.name, vm.backend, cfg) for vm in res.vms]
        _run_mc_workers(cloud, workers)
        if not all(w.finished for w in workers):
            raise SimulationError("montecarlo: not every worker finished")
    elif mode == "suspend-resume":
        _montecarlo_suspend_resume(spec, profile, cloud, image, cfg, n)
    else:
        raise SimulationError(
            f"montecarlo mode must be 'uninterrupted' or 'suspend-resume', "
            f"got {mode!r}"
        )
    metrics = {"completion_time": cloud.env.now, "workers": n}
    return cloud, metrics, {}


def _montecarlo_suspend_resume(spec, profile, cloud, image, cfg, n):
    from ..baselines.qcow2 import Qcow2Image
    from ..cloud.middleware import CloudMiddleware
    from ..vmsim import MonteCarloWorker, boot_trace
    from ..vmsim.backends import Qcow2PvfsBackend
    from ..vmsim.hypervisor import VMInstance

    half = profile.mc_total_compute / 2
    mw = CloudMiddleware(cloud)
    res = mw.deploy_set(image, n, spec.approach)
    workers = [MonteCarloWorker(vm.name, vm.backend, cfg) for vm in res.vms]
    _run_mc_workers(cloud, workers, until=half)
    if not all(w.progress == half for w in workers):
        raise SimulationError("montecarlo: workers did not reach half progress")

    campaign = snapshot_all(cloud, res.vms, spec.approach)
    mw.terminate_set(res.vms)

    # resume on different nodes: shifted placement over the pool
    shift = max(1, profile.pool_nodes - n)
    fresh = [cloud.compute[(i + shift) % profile.pool_nodes] for i in range(n)]
    boot_model = cloud.calib.boot

    if spec.approach == "mirror":
        resumed = mw.resume_set(list(campaign.per_instance), fresh)
    else:
        resumed = []
        for i, (snap, node) in enumerate(zip(campaign.per_instance, fresh)):
            # download the qcow2 snapshot file from PVFS, reopen it locally
            src_backend = res.vms[i].backend
            backend = Qcow2PvfsBackend(
                node, cloud.pvfs, "/images/initial.raw", cloud.calib.fuse,
                cluster_size=src_backend.image.cluster_size,
            )

            def fetch(backend=backend, snap=snap, src=src_backend):
                payload = yield from backend.client.read(snap.ident, 0, snap.bytes_moved)
                _, index = src.image.serialize()
                backend.image = Qcow2Image.deserialize(
                    payload, index, image.size,
                    backing_read=backend.image.backing_read,
                    cluster_size=src.image.cluster_size,
                )

            cloud.run(cloud.env.process(fetch(), name=f"resume-fetch-{i}"))
            resumed.append(
                VMInstance(
                    f"resumed-{i:03d}", node, backend, boot_model,
                    cloud.fabric.rng.get("vm-resume", i),
                )
            )

    # reboot the resumed instances (fresh nodes: everything remote again)
    boots = []
    for i, vm in enumerate(resumed):
        trace = boot_trace(image, boot_model, cloud.fabric.rng.get("trace-resume", i))
        boots.append(cloud.env.process(vm.boot(trace), name=f"reboot-{vm.name}"))
    cloud.run(cloud.env.all_of(boots))

    new_workers = [MonteCarloWorker(vm.name, vm.backend, cfg) for vm in resumed]
    _run_mc_workers(cloud, new_workers)
    if not all(w.finished for w in new_workers):
        raise SimulationError("montecarlo resume: not every worker finished")
    # end-to-end: progress really came from the snapshot, not from scratch
    if not all(w.progress == profile.mc_total_compute for w in new_workers):
        raise SimulationError("montecarlo resume: progress lost across snapshot")


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def execute_point(spec: PointSpec) -> PointResult:
    """Run one spec in-process and return its structured result."""
    try:
        executor, params = _EXECUTORS[spec.kind]
    except KeyError:
        raise SimulationError(
            f"unknown point kind {spec.kind!r}; known kinds: "
            f"{', '.join(known_kinds())}"
        ) from None
    accepted = params | CLOUD_PARAMS.keys()
    unknown = sorted({name for name, _ in spec.params} - accepted)
    if unknown:
        raise SimulationError(
            f"point {spec.label()!r}: unknown params {', '.join(unknown)}; "
            f"kind {spec.kind!r} accepts {', '.join(sorted(accepted))}"
        )
    profile = resolve_profile(spec.profile)
    calib = profile_calibration(profile, spec.overrides)
    t0 = time.perf_counter()
    cloud, metrics, series = executor(spec, profile, calib)
    wall = time.perf_counter() - t0
    return PointResult(
        spec=spec,
        metrics=metrics,
        series=series,
        counters=dict(cloud.metrics.counters),
        event_count=cloud.env.event_count,
        wall_s=round(wall, 6),
    )
