"""Point executors: turn a :class:`PointSpec` into a :class:`PointResult`.

Each executor builds a *fresh* simulated cloud (fixed seed, no state shared
with any other point), runs one experiment, and returns plain data. The
executors reproduce the figure benchmarks' measurement code exactly — same
RNG labels, same construction order — so routing a sweep through the runner
yields bit-identical series to the old in-line loops.

A point param is named after the keyword or field that reads it, and only
that reader holds its default: every kind takes the cloud params
(:data:`CLOUD_PARAMS`, keywords of :func:`~repro.cloud.build_cloud`), its
executor's own keyword-only arguments, and the keywords it passes on to one
consumer (``ChurnSpec``, ``RetryPolicy``, ``merge_chain``, ``deploy``),
declared at :func:`point_kind`. A spec naming any other param is rejected
before anything is built.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..churn import ChurnEngine, ChurnSpec
from ..cloud import build_cloud, deploy, instance, seed_image, snapshot_all
from ..common.errors import SimulationError
from ..faults import FaultPlan, RetryPolicy, resilient_deploy
from ..lineage import LineageForest, dedup_accounting, merge_chain, restore_to_version
from ..vmsim import make_image
from .profiles import BenchProfile
from .spec import PointResult, PointSpec

#: kind -> (executor, the consumer it passes params on to, the workload
#: params it accepts beside the cloud params)
_EXECUTORS: Dict[str, Tuple[Callable, Optional[Callable], FrozenSet[str]]] = {}


def point_kind(name: str, consumer: Optional[Callable] = None, *passed: str):
    """Register the executor of kind ``name``.

    Its workload params are its own keyword-only arguments plus ``passed``,
    keywords or fields of ``consumer`` that it hands on unchanged.
    """
    def register(fn):
        own = {p.name for p in inspect.signature(fn).parameters.values()
               if p.kind is p.KEYWORD_ONLY}
        _EXECUTORS[name] = (fn, consumer, frozenset(own) | frozenset(passed))
        return fn
    return register


def known_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_EXECUTORS))


#: The cloud params every kind accepts: :func:`build_cloud` keywords, which
#: hold their defaults (a flat, provider-only, unreplicated cloud: the seed
#: model of §5.1).
CLOUD_PARAMS = (
    "p2p", "p2p_directory", "p2p_cache_bytes", "p2p_locate_fanout",  # peer exchange
    "replication_factor", "placement",                                # storage
    "racks", "oversubscription", "topo_aware",                        # fabric
)


def accepted_params(kind: str) -> FrozenSet[str]:
    """Every param name a ``kind`` point accepts."""
    try:
        return _EXECUTORS[kind][2] | frozenset(CLOUD_PARAMS)
    except KeyError:
        raise SimulationError(
            f"unknown point kind {kind!r}; known kinds: {', '.join(known_kinds())}"
        ) from None


def build_point_cloud(profile: BenchProfile, seed: int, **cloud_kw):
    """Fresh cluster + image for one measurement point, under ``profile.calib``."""
    calib = profile.calib
    if profile.data_nodes is not None:
        cloud_kw.setdefault("data_nodes", profile.data_nodes)
    if profile.meta_nodes is not None:
        cloud_kw.setdefault("meta_nodes", profile.meta_nodes)
    cloud = build_cloud(profile.pool_nodes, seed=seed, calib=calib, **cloud_kw)
    image = make_image(
        calib.image.size, calib.image.boot_touched_bytes, n_regions=profile.n_regions
    )
    return cloud, image


def _spec_cloud(spec: PointSpec, **cloud_kw):
    """:func:`build_point_cloud` under ``spec``'s cloud params (+ the kind's keywords)."""
    cloud_kw.update((k, v) for k, v in spec.params if k in CLOUD_PARAMS)
    return build_point_cloud(spec.profile, spec.seed, **cloud_kw)


def apply_diffs(cloud, image, vms, diff_bytes: int) -> None:
    """Each running VM writes ~``diff_bytes`` of local modifications (§5.3)."""
    procs = [
        cloud.env.process(instance.write_diff(vm, image, diff_bytes, ("app-diff", i)))
        for i, vm in enumerate(vms)
    ]
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
        "cross_rack_bytes": float(scopes.get("cross-rack", 0)),
        "intra_rack_payload_bytes": float(m.topo_kind_bytes("intra-rack", "payload")),
        "cross_rack_payload_bytes": float(m.topo_kind_bytes("cross-rack", "payload")),
    }


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
@point_kind("deploy", deploy, "mirror_prefetch")
def _run_deploy(spec: PointSpec, **deploy_kw):
    """One Fig. 4 measurement: deploy ``n`` instances with ``approach``.

    Param ``mirror_prefetch`` (strategy 1 of §3.3) goes to :func:`deploy`.
    With the cloud params this is also the cooperative-exchange point
    (``p2p``) and the rack-fabric point (``racks``, ``topo_aware``, ...).
    """
    cloud, image = _spec_cloud(spec)
    res = deploy(cloud, image, spec.n, spec.approach, **deploy_kw)
    metrics = {
        "init_time": res.init_time,
        "avg_boot_time": res.avg_boot_time,
        "completion_time": res.completion_time,
        "total_traffic": res.total_traffic,
        **_source_metrics(cloud),
    }
    series = {"boot_times": tuple(res.boot_times)}
    return cloud, metrics, series


@point_kind("snapshot")
def _run_snapshot(spec: PointSpec):
    """One Fig. 5 measurement: deploy, write the profile's diffs, snapshot all.

    A racked, replicated burst is the same point with the cloud params set:
    with ``racks`` > 1 and ``replication`` > 1 the default rack-diverse
    placement sends a copy of every committed chunk across an uplink.
    """
    cloud, image = _spec_cloud(spec)
    res = deploy(cloud, image, spec.n, spec.approach)
    apply_diffs(cloud, image, res.vms, spec.profile.diff_bytes)
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
def _run_bonnie(spec: PointSpec):
    """The §5.4 Bonnie++ run; ``approach`` is ``local`` or ``mirror``."""
    from ..baselines.prepropagation import LOCAL_IMAGE_PATH
    from ..vmsim import BonnieBenchmark

    cloud, image = _spec_cloud(spec)
    rec = seed_image(cloud, image)["blobseer"]
    node = cloud.compute[0]
    fuse = cloud.calib.fuse
    if spec.approach == "local":
        node.create_file(LOCAL_IMAGE_PATH, image.size).write(0, image.payload)
        backend = instance.open_backend(cloud, "prepropagation", node)
        data_op, meta_op = fuse.local_data_op_overhead, fuse.local_per_op_overhead
    elif spec.approach == "mirror":
        backend = instance.open_backend(cloud, "mirror", node, (rec.blob_id, rec.version))
        data_op, meta_op = fuse.data_op_overhead, fuse.per_op_overhead
    else:
        raise SimulationError(
            f"bonnie approach must be 'local' or 'mirror', got {spec.approach!r}"
        )
    base = image.size // 2  # working set in the free half of the image
    bench = BonnieBenchmark(
        backend, data_op, meta_op,
        working_set=spec.profile.bonnie_working_set, base_offset=base,
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


@point_kind("resilience", RetryPolicy, "attempts", "base_delay", "rpc_timeout")
def _run_resilience(
    spec: PointSpec, *, crashes=0, mttr=0.0, window=5.0, **retry_kw,
):
    """One resilience-sweep point: multideployment under injected crashes.

    Victims are *spare* pool nodes (nodes not running a VM), so the sweep
    measures how the storage layer — not the hypervisor hosts — degrades:
    a crashed spare takes its data provider (and metadata shard) down with
    whatever chunks it held.

    Params: ``crashes`` (how many spares die, staggered across the window),
    ``mttr`` (0 = permanent loss), ``window`` (crash spread, seconds into
    the boot phase); ``attempts`` / ``base_delay`` / ``rpc_timeout`` go to
    the client's :class:`RetryPolicy`. The replica count is the cloud param
    ``replication_factor``.
    """
    cloud, image = _spec_cloud(spec, retry=RetryPolicy(**retry_kw))
    spares = [h.name for h in cloud.compute[spec.n:]]
    if crashes > len(spares):
        raise SimulationError(
            f"resilience: {crashes} crashes exceed the {len(spares)} spare "
            f"nodes of a {spec.profile.pool_nodes}-node pool with n={spec.n}"
        )
    faults = (FaultPlan.staggered_crashes(spares, crashes, window, mttr=mttr)
              if crashes else FaultPlan())

    res = resilient_deploy(cloud, image, spec.n, spec.approach or "mirror", plan=faults)
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
        "fault_plan": (faults.describe(),),
    }
    return cloud, metrics, series


@point_kind(
    "churn", ChurnSpec, "rate", "n_tenants", "mean_lifetime",
    "min_lifetime", "snapshot_fraction", "restore_fraction", "diff_bytes",
    "policy", "max_queue", "gc_interval",
)
def _run_churn(spec: PointSpec, **churn_kw):
    """One long-horizon churn run; ``spec.n`` counts *deploy requests*.

    Every workload param is a :class:`~repro.churn.arrivals.ChurnSpec`
    field and keeps its default there, except ``diff_bytes``: the profile's
    diff size unless set. Slots per node and the footprint sampling
    cadence are no params: every churn run shares them. Locality-aware
    placement reads the peer caches of the cloud param ``p2p``.
    ``approach`` is ignored (churn always runs the mirror path).
    """
    cloud, image = _spec_cloud(spec, with_pvfs=False)
    churn_kw.setdefault("diff_bytes", spec.profile.diff_bytes)
    res = ChurnEngine(cloud, image, ChurnSpec(n_deploys=spec.n, **churn_kw)).run()
    s = res.summary
    metrics = {
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


@point_kind("lineage", merge_chain, "keep_every")
def _run_lineage(spec: PointSpec, **merge_kw):
    """One snapshot-lineage point; ``spec.n`` is the *chain depth*.

    A single mirror-backed VM commits ``n`` snapshots (CLONE once, then
    COMMITs), building an ``n``-deep chain. The point then optionally
    merges the chain, runs a GC sweep, computes the exact dedup
    accounting, and restores the chain head onto a different node. A
    restore reads the head's own lineage record only, so its latency does
    not depend on the depth.

    Params: ``keep_every`` (given: run :func:`~repro.lineage.merge_chain`,
    one version-manager RPC, before the sweep, keeping every
    ``keep_every``-th version). The cloud
    params ``replication_factor`` and ``p2p`` (the peer exchange on the
    restore fetch path) apply as to every kind.
    """
    from ..blobseer.gc import collect_garbage

    depth = spec.n
    if depth < 1:
        raise SimulationError(f"lineage: chain depth must be >= 1, got {depth}")

    cloud, image = _spec_cloud(spec, with_pvfs=False)
    dep = cloud.blobseer

    res = deploy(cloud, image, 1, "mirror")
    vm = res.vms[0]
    env = cloud.env
    durations = []
    for i in range(depth):
        snap = cloud.run(env.process(
            instance.snapshot(vm, image, spec.profile.diff_bytes, ("lineage-diff", i)),
            name=f"lineage-step-{i}",
        ))
        durations.append(snap.duration)
    head = snap.at

    merged, merge_time = 0, 0.0
    if merge_kw:
        t0 = env.now
        merged = cloud.run(env.process(
            merge_chain(dep, vm.host, *head, **merge_kw), name="lineage-merge"
        ))
        merge_time = env.now - t0
    gc_report = collect_garbage(dep)
    report = dedup_accounting(dep)

    restore = cloud.run(env.process(restore_to_version(
        dep, cloud.compute[-1], *head,
        image=image, boot_model=cloud.calib.boot,
        vm_rng=("lineage-restore-vm", 0), trace=("lineage-restore-trace", 0),
        fuse=cloud.calib.fuse,
    ), name="lineage-restore"))
    forest = LineageForest.from_registry(dep.registry)
    stats = forest.stats()
    metrics = {
        "chain_depth": float(depth),
        "lookup_time": restore.lookup_time,
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
        "versions_merged": float(merged),
        "merge_time": merge_time,
    }
    series = {"snapshot_durations": tuple(durations)}
    return cloud, metrics, series


def _mc_config(profile: BenchProfile, image):
    from ..vmsim import MonteCarloConfig

    return MonteCarloConfig(
        total_compute=profile.mc_total_compute,
        checkpoint_interval=profile.mc_total_compute / 10,
        state_bytes=profile.calib.snapshot.montecarlo_state_bytes,
        state_offset=image.write_base,
    )


def _run_mc_workers(cloud, workers, until=None):
    procs = [cloud.env.process(w.run(until_progress=until)) for w in workers]
    cloud.run(cloud.env.all_of(procs))


@point_kind("montecarlo")
def _run_montecarlo(spec: PointSpec, *, mode="uninterrupted"):
    """The §5.5 Monte Carlo application; param ``mode`` picks the setting:

    * ``uninterrupted`` (default) — deploy and run to completion;
    * ``suspend-resume`` — run half-way, multisnapshot, terminate, redeploy
      on different nodes, resume from the saved intermediate result.
    """
    from ..vmsim import MonteCarloWorker

    profile = spec.profile
    cloud, image = _spec_cloud(spec)
    n = min(profile.mc_workers, profile.pool_nodes)
    cfg = _mc_config(profile, image)

    if mode == "uninterrupted":
        res = deploy(cloud, image, n, spec.approach)
        workers = [MonteCarloWorker(vm.name, vm.backend, cfg) for vm in res.vms]
        _run_mc_workers(cloud, workers)
        if not all(w.finished for w in workers):
            raise SimulationError("montecarlo: not every worker finished")
    elif mode == "suspend-resume":
        _montecarlo_suspend_resume(spec, cloud, image, cfg, n)
    else:
        raise SimulationError(
            f"montecarlo mode must be 'uninterrupted' or 'suspend-resume', "
            f"got {mode!r}"
        )
    metrics = {"completion_time": cloud.env.now, "workers": n}
    return cloud, metrics, {}


def _montecarlo_suspend_resume(spec, cloud, image, cfg, n):
    from ..baselines.qcow2 import Qcow2Image
    from ..cloud.middleware import CloudMiddleware
    from ..vmsim import MonteCarloWorker

    profile = spec.profile
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

    if spec.approach == "mirror":
        resumed = mw.resume_set(list(campaign.per_instance), fresh)
    else:
        resumed = []
        for i, (snap, node) in enumerate(zip(campaign.per_instance, fresh)):
            # download the qcow2 snapshot file from PVFS, reopen it locally
            src = res.vms[i].backend
            backend = instance.open_backend(cloud, "qcow2-pvfs", node)

            def fetch(backend=backend, snap=snap, src=src):
                payload = yield from backend.client.read(snap.ident, 0, snap.bytes_moved)
                _, index = src.image.serialize()
                backend.image = Qcow2Image.deserialize(
                    payload, index, image.size,
                    backing_read=backend.image.backing_read,
                    cluster_size=src.image.cluster_size,
                )

            cloud.run(cloud.env.process(fetch(), name=f"resume-fetch-{i}"))
            resumed.append(instance.new_vm(
                f"resumed-{i:03d}", backend, ("vm-resume", i), cloud.calib.boot,
            ))

    # reboot the resumed instances (fresh nodes: everything remote again)
    cloud.run(cloud.env.all_of(instance.spawn_boots(resumed, image, ("trace-resume",))))

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
    accepted = accepted_params(spec.kind)
    unknown = sorted({name for name, _ in spec.params} - accepted)
    if unknown:
        raise SimulationError(
            f"point {spec.label()!r}: unknown params {', '.join(unknown)}; "
            f"kind {spec.kind!r} accepts {', '.join(sorted(accepted))}"
        )
    t0 = time.perf_counter()
    workload = {k: v for k, v in spec.params if k not in CLOUD_PARAMS}
    cloud, metrics, series = _EXECUTORS[spec.kind][0](spec, **workload)
    wall = time.perf_counter() - t0
    return PointResult(
        spec=spec,
        metrics=metrics,
        series=series,
        counters=dict(cloud.metrics.counters),
        event_count=cloud.env.event_count,
        wall_s=round(wall, 6),
    )
