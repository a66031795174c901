"""The four benchmark workloads.

Each workload is a small object with the same life cycle, driven by
``child.py`` inside a fresh interpreter:

``build(seed)``   untimed: the cloud (seeded) and the image;
``prepare()``     untimed: seed the repository and materialise the inputs
                  (``snapshot-256`` also deploys its VMs here);
``run()``         the timed region;
``collect()``     simulated outcomes of the timed region (exact, repeat
                  bit-for-bit for a seed), counters, failures;
``check()``       correctness checks that may simulate further (read-backs),
                  so they run after ``collect``.

All four use the NVMe repository of ``SCALE.calib_overrides`` so the
network, not the disks, is the bottleneck. Layer entry points are reached
through their modules (``deployment.deploy``) so a traced run sees the
ledger's wrappers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.churn import ChurnEngine, ChurnSpec
from repro.cloud import deployment, snapshotting
from repro.common.payload import Payload
from repro.common.units import MiB
from repro.runner import build_point_cloud, profiles
from repro.vmsim.workloads import read_your_writes_workload

GiB = float(2**30)


# ---------------------------------------------------------------------- #
# statistics shared with run.py (kept here so the child needs one import)
# ---------------------------------------------------------------------- #
def nearest_rank(values, q: float):
    """Nearest-rank percentile: ``(value, samples beyond it)``.

    The number of samples strictly beyond the reported rank says whether
    the percentile is supported (the guide asks for at least ten).
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, min(len(ordered), int(q * len(ordered) + 0.5)))
    return ordered[rank - 1], len(ordered) - rank


def digest_of(outcome) -> str:
    """SHA-256 over the canonical JSON of the simulated outcomes."""
    blob = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# cloud construction and counters
# ---------------------------------------------------------------------- #
def build(profile_name: str, seed: int, **cloud_kw):
    """Fresh cluster + image for ``profile_name``.

    The image is the same initial image on every seed (its layout fixes how
    much a boot reads); the seed feeds the cloud's RNG streams: boot traces,
    hypervisor jitter, diffs and arrival traces.
    """
    profile = profiles.resolve_profile(profile_name)
    cloud, image = build_point_cloud(profile, seed, with_pvfs=False, **cloud_kw)
    return profile, cloud, image


def snapshot_state(cloud) -> dict:
    """Everything the per-layer counters are deltas of."""
    m = cloud.metrics
    kinds: Dict[str, int] = {}
    for entry in cloud.blobseer.registry.lineage_entries():
        kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
    return {
        "counters": dict(m.counters),
        "traffic": dict(m.traffic),
        "topo": m.topo_scope_totals(),
        "events": cloud.env.event_count,
        "boots": len(m.raw["boot-time"]),
        "lineage": kinds,
        "stored": cloud.blobseer.stored_bytes(),
    }


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer metrics read from counters the program exposes publicly."""
    c = _delta(after["counters"], before["counters"]).get
    topo = _delta(after["topo"], before["topo"])
    lineage = _delta(after["lineage"], before["lineage"])
    cross = topo.get("cross-rack", 0) + topo.get("cross-pod", 0)
    intra = topo.get("intra-rack", 0)
    remote, local = c("mirror-remote-read", 0), c("mirror-local-read", 0)
    hits, misses = c("p2p-chunk-hit", 0), c("p2p-chunk-miss", 0)
    local_hits = c("p2p-local-hit", 0)
    return {
        "simkit.core.events": after["events"] - before["events"],
        "simkit.network.bytes": sum(
            _delta(after["traffic"], before["traffic"]).values()
        ),
        "simkit.rpc.connects": c("rpc-connect", 0),
        "simkit.disk.reads": c("disk-read", 0),
        "simkit.disk.writes": c("disk-write", 0),
        "blobseer.client.chunks_fetched": c("chunk-get", 0),
        "blobseer.client.chunks_put": c("chunk-put", 0),
        "blobseer.client.retries": (
            c("meta-retry", 0) + c("fetch-retry", 0) + c("put-retry", 0)
        ),
        "blobseer.client.provider_bytes": c("provider-bytes", 0),
        "blobseer.metadata.nodes_get": c("meta-get", 0),
        "blobseer.metadata.nodes_put": c("meta-put", 0),
        "blobseer.vmanager.publishes": lineage.get("publish", 0),
        "blobseer.vmanager.clones": lineage.get("clone", 0),
        "core.translator.remote_reads": remote,
        "core.translator.local_reads": local,
        "core.translator.remote_read_ratio": _ratio(remote, remote + local),
        "core.translator.gap_fills": c("mirror-gap-fill", 0),
        "core.translator.commit_gap_fills": c("commit-gap-fill", 0),
        "core.vfs.opens": c("mirror-open", 0),
        "core.vfs.clones": c("ioctl-clone", 0),
        "core.vfs.commits": c("ioctl-commit", 0),
        "core.vfs.commit_chunks": c("commit-chunks", 0),
        "vmsim.hypervisor.boots": after["boots"] - before["boots"],
        "p2p.exchange.chunk_hits": hits,
        "p2p.exchange.chunk_misses": misses,
        "p2p.exchange.local_hits": local_hits,
        "p2p.exchange.peer_hit_ratio": _ratio(
            hits + local_hits, hits + local_hits + misses
        ),
        "p2p.exchange.bytes_from_peers": c("p2p-bytes-peer", 0),
        "p2p.exchange.failovers": c("p2p-peer-failover", 0),
        "p2p.directory.locates": c("p2p-locate", 0),
        "p2p.directory.announces": c("p2p-announce", 0),
        "topo.fabric.intra_rack_bytes": intra,
        "topo.fabric.cross_rack_bytes": cross,
        "topo.fabric.cross_rack_share": _ratio(cross, cross + intra),
    }


#: per-layer metrics only churn-mixed produces; zero elsewhere
CHURN_ONLY = (
    "blobseer.gc.sweeps", "blobseer.gc.bytes_reclaimed",
    "churn.scheduler.placed", "churn.scheduler.rejected",
    "churn.scheduler.queue_wait_mean_s", "churn.scheduler.queue_wait_p99_s",
    "churn.engine.requests", "churn.engine.utilization",
    "churn.engine.snapshot_p99_s",
    "lineage.restore.restores", "lineage.restore.missed",
    "lineage.restore.hops_mean", "lineage.restore.sim_p50_ms",
)


class Workload:
    """Common bookkeeping; subclasses fill in the four phases."""

    #: the operation whose latency ``sim_op_p50_s`` / ``sim_op_p95_s`` report
    op = "boot"
    racked = False

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.cloud = None
        self.image = None
        self.before = None
        self.after = None

    # -- life cycle ---------------------------------------------------- #
    def build(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def mark_start(self) -> None:
        self.before = snapshot_state(self.cloud)

    def mark_end(self) -> None:
        self.after = snapshot_state(self.cloud)

    def op_samples(self) -> List[float]:
        raise NotImplementedError

    def outcome(self) -> dict:
        """Further workload-specific simulated outcomes for the digest."""
        return {}

    def failures(self):
        """``(attempted, failed)`` operations of the timed region."""
        raise NotImplementedError

    def check(self):
        """``(violated checks, operations they found failed)``."""
        return [], 0

    def extra_counters(self) -> Dict[str, float]:
        return {}

    def completion_s(self) -> float:
        raise NotImplementedError

    # -- shared -------------------------------------------------------- #
    def collect(self) -> dict:
        before, after = self.before, self.after
        samples = self.op_samples()
        p50, _ = nearest_rank(samples, 0.50)
        p95, beyond = nearest_rank(samples, 0.95)
        counters = layer_counters(before, after)
        traffic = counters["simkit.network.bytes"]
        sim = {
            "sim_op_p50_s": p50,
            "sim_op_p95_s": p95,
            "sim_traffic_gib": traffic / GiB,
            "sim_stored_mib": self.stored_bytes() / MiB,
        }
        counters.update(dict.fromkeys(CHURN_ONLY, 0))
        counters["cloud.deployment.sim_completion_s"] = self.completion_s()
        counters.update(self.extra_counters())
        attempted, failed = self.failures()
        violations = []
        if self.racked:
            tiers = sum(_delta(after["topo"], before["topo"]).values())
            if tiers != traffic:
                violations.append(
                    f"per-tier bytes {tiers} != total traffic {traffic}"
                )
        outcome = {
            "sim": sim,
            "op_samples": samples,
            "counters": _delta(after["counters"], before["counters"]),
            "traffic": _delta(after["traffic"], before["traffic"]),
            "events": counters["simkit.core.events"],
            "completion": self.completion_s(),
            "workload": self.outcome(),
        }
        return {
            "sim": sim,
            "op": {"name": self.op, "samples": len(samples), "beyond_p95": beyond},
            "digest": digest_of(outcome),
            "attempted": attempted,
            "failed": failed,
            "violations": violations,
            "counters": counters,
        }

    def stored_bytes(self) -> int:
        return self.after["stored"]


# ---------------------------------------------------------------------- #
# deploy-flat-512 / deploy-rack-384
# ---------------------------------------------------------------------- #
class DeployWorkload(Workload):
    """Closed burst: ``n`` mirror boots start together on a pre-seeded image."""

    def __init__(self, n: int, racks: int, smoke: bool = False):
        super().__init__(smoke)
        self.n = 12 if smoke else n
        self.racks = (2 if racks > 1 else 1) if smoke else racks
        self.racked = self.racks > 1
        self.result = None

    def build(self, seed: int) -> None:
        kw = {}
        if self.racked:
            kw = dict(racks=self.racks, oversubscription=4.0, topo_aware=True)
        _, self.cloud, self.image = build(
            "scale-smoke" if self.smoke else "scale", seed, **kw
        )

    def prepare(self) -> None:
        self.idents = deployment.seed_image(self.cloud, self.image)

    def run(self) -> None:
        self.result = deployment.deploy(
            self.cloud, self.image, self.n, "mirror", idents=self.idents
        )

    def op_samples(self):
        return list(self.result.boot_times)

    def completion_s(self):
        return self.result.completion_time

    def failures(self):
        return self.n, self.n - len(self.result.boot_times)

    def check(self):
        bad = []
        if len(self.result.boot_times) != self.n:
            bad.append(f"{len(self.result.boot_times)} of {self.n} VMs booted")
        if self.after["stored"] != self.before["stored"]:
            bad.append("a deployment changed the repository")
        return bad, 0


# ---------------------------------------------------------------------- #
# snapshot-256
# ---------------------------------------------------------------------- #
class SnapshotWorkload(Workload):
    """Two rounds of {local diffs, multisnapshot} over already-booted VMs."""

    op = "snapshot"
    ROUNDS = 2
    READBACK_VMS = 4  # x ROUNDS snapshots re-opened from other nodes

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.n = 12 if smoke else 256
        self.campaigns = []
        self.versions = []   # per round: [(blob, version)] in VM order
        self.written = []    # per round: [[(offset, nbytes)]] in VM order

    def build(self, seed: int) -> None:
        self.profile, self.cloud, self.image = build(
            "scale-smoke" if self.smoke else "scale", seed
        )

    def prepare(self) -> None:
        idents = deployment.seed_image(self.cloud, self.image)
        self.base = idents["blobseer"]
        self.vms = deployment.deploy(
            self.cloud, self.image, self.n, "mirror", idents=idents
        ).vms
        # read-your-writes diffs, a distinct RNG stream per (round, VM);
        # round r appends after round r-1 so both commits store new chunks
        diff = self.profile.diff_bytes
        self.ops = [
            [
                read_your_writes_workload(
                    self.image.write_base + r * diff, diff,
                    self.cloud.fabric.rng.get("suite-diff", r, i),
                    reread_fraction=0.05,
                )
                for i in range(self.n)
            ]
            for r in range(self.ROUNDS)
        ]
        self.written = [
            [[(op.offset, op.nbytes) for op in ops if op.kind == "write"]
             for ops in round_ops]
            for round_ops in self.ops
        ]

    def run(self) -> None:
        env = self.cloud.env
        for round_ops in self.ops:
            procs = [
                env.process(vm.run_ops(ops))
                for vm, ops in zip(self.vms, round_ops)
            ]
            self.cloud.run(env.all_of(procs))
            self.campaigns.append(
                snapshotting.snapshot_all(self.cloud, self.vms, "mirror")
            )
            self.versions.append([
                (vm.backend.handle.target_blob, vm.backend.handle.target_version)
                for vm in self.vms
            ])

    def op_samples(self):
        return [s.duration for c in self.campaigns for s in c.per_instance]

    def completion_s(self):
        return sum(c.completion_time for c in self.campaigns)

    def outcome(self):
        return {"versions": self.versions}

    def _readbacks(self):
        step = max(1, self.n // self.READBACK_VMS)
        return [
            (r, i) for r in range(self.ROUNDS)
            for i in range(0, self.n, step)
        ][: self.ROUNDS * self.READBACK_VMS]

    def failures(self):
        taken = sum(len(c.per_instance) for c in self.campaigns)
        attempted = self.ROUNDS * self.n + len(self._readbacks())
        # check() adds the mismatching read-backs
        return attempted, self.ROUNDS * self.n - taken

    def check(self):
        """Re-open sampled snapshots from another node and compare content."""
        cloud, n = self.cloud, self.n
        registry = cloud.blobseer.registry
        bad = []
        for r, versions in enumerate(self.versions):
            missing = [v for v in versions if not registry.is_published(*v)]
            if missing:
                bad.append(f"round {r}: {len(missing)} snapshots not published")
        # incremental storage (the paper's claim): the repository grows by
        # exactly the committed dirty chunks, which cover every modified byte
        growth = self.after["stored"] - self.before["stored"]
        chunks = (
            self.after["counters"].get("commit-chunks", 0)
            - self.before["counters"].get("commit-chunks", 0)
        )
        moved = sum(c.total_bytes_moved for c in self.campaigns)
        if growth != chunks * cloud.calib.image.chunk_size or growth < moved:
            bad.append(
                f"stored growth {growth} B vs {chunks} committed chunks "
                f"covering {moved} modified bytes"
            )

        results = {}

        def readback(r, i):
            reader = cloud.blobseer.client(cloud.compute[(i + 1) % n])
            blob, version = self.versions[r][i]
            vm = self.vms[i]
            # every round written before this snapshot was taken; reading
            # round 0's snapshot after round 1 committed onto the same clone
            # also shows the later COMMIT left it intact
            for rr in range(r + 1):
                spans = self.written[rr][i]
                lo, hi = spans[0][0], spans[-1][0] + spans[-1][1]
                got = yield from reader.read(blob, version, lo, hi - lo)
                want = Payload.concat([
                    Payload.opaque(f"vmwrite-{vm.name}", nbytes)
                    for _, nbytes in spans
                ])
                base = yield from reader.read(
                    self.base.blob_id, self.base.version, lo, hi - lo
                )
                results[(r, i, rr)] = (
                    got == want and base == self.image.payload.slice(lo, hi)
                )

        procs = [cloud.env.process(readback(r, i)) for r, i in self._readbacks()]
        cloud.run(cloud.env.all_of(procs))
        mismatched = len({(r, i) for (r, i, _), ok in results.items() if not ok})
        if mismatched:
            bad.append(f"{mismatched} snapshot read-backs mismatch")
        return bad, mismatched


# ---------------------------------------------------------------------- #
# churn-mixed
# ---------------------------------------------------------------------- #
class ChurnWorkload(Workload):
    """Open loop in simulated time: Poisson deploys at a fixed rate."""

    racked = True

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.result = None

    def build(self, seed: int) -> None:
        smoke = self.smoke
        self.profile, self.cloud, self.image = build(
            "churn-smoke" if smoke else "churn", seed,
            racks=2 if smoke else 4, oversubscription=4.0, topo_aware=True,
            p2p=True, p2p_directory="announce", p2p_cache_bytes=64 * MiB,
            p2p_locate_fanout=2,
        )

    def prepare(self) -> None:
        smoke = self.smoke
        # offered load = rate x (min + mean lifetime) = 64 of 96 slots
        # (smoke: 12 of 20), so the admission queue stays almost empty and
        # no request is refused; the engine materialises the arrival trace
        # from the cloud's seeded RNG in its constructor
        spec = ChurnSpec(
            n_deploys=60 if smoke else 400,
            arrivals="poisson", rate=0.6 if smoke else 3.2,
            n_tenants=8, mean_lifetime=16, min_lifetime=4,
            snapshot_fraction=0.5, restore_fraction=0.4,
            diff_bytes=self.profile.diff_bytes, policy="least-loaded",
            gc_interval=60, max_queue=32,
        )
        self.engine = ChurnEngine(self.cloud, self.image, spec)

    def run(self) -> None:
        self.result = self.engine.run()

    def op_samples(self):
        # every VM boot of the timed region: deploys and restored instances
        return list(self.cloud.metrics.raw["boot-time"])

    def completion_s(self):
        return self.result.summary["makespan"]

    def stored_bytes(self):
        return self.result.summary["gc"]["footprint_peak"]

    def outcome(self):
        return {
            "summary": self.result.summary,
            "placements": self.result.placements,
            "trace_crc": self.result.trace_crc,
        }

    def failures(self):
        r = self.result.summary["requests"]
        snapshots = r["snapshots_taken"] + r["snapshots_missed"]
        restores = r["restores_completed"] + r["restores_missed"]
        # a restore whose retired target the GC already reclaimed is the
        # retention policy's documented outcome, reported as
        # lineage.restore.missed; a refused or dropped request is a failure
        failed = r["rejected"] + r["canceled"] + r["snapshots_missed"]
        return r["deploys"] + snapshots + restores, failed

    def extra_counters(self):
        s = self.result.summary
        r = s["requests"]
        return {
            "blobseer.gc.sweeps": s["gc"]["sweeps"],
            "blobseer.gc.bytes_reclaimed": s["gc"]["bytes_reclaimed"],
            "churn.scheduler.placed": r["deploys"] - r["rejected"] - r["canceled"],
            "churn.scheduler.rejected": r["rejected"],
            "churn.scheduler.queue_wait_mean_s": s["queue_wait"]["mean"],
            "churn.scheduler.queue_wait_p99_s": s["queue_wait"]["p99_exact"],
            "churn.engine.requests": self.result.n_requests,
            "churn.engine.utilization": s["utilization"],
            "churn.engine.snapshot_p99_s": s["snapshot_latency"]["p99_exact"],
            "lineage.restore.restores": r["restores_completed"],
            "lineage.restore.missed": r["restores_missed"],
            "lineage.restore.hops_mean": s["restore_latency"]["mean_hops"],
            "lineage.restore.sim_p50_ms": s["restore_latency"]["p50_exact"] * 1e3,
        }

    def check(self):
        r = self.result.summary["requests"]
        bad = []
        placed = sum(1 for p in self.result.placements if p >= 0)
        if placed + r["rejected"] + r["canceled"] != r["deploys"]:
            bad.append("placed + rejected + canceled != deploys")
        if not r["booted"] == r["completed"] == placed:
            bad.append(
                f"placed {placed}, booted {r['booted']}, "
                f"completed {r['completed']} differ"
            )
        asked = {}
        for req in self.engine.trace:
            kind = type(req).__name__
            asked[kind] = asked.get(kind, 0) + 1
        for kind, done, missed in (
            ("SnapshotRequest", "snapshots_taken", "snapshots_missed"),
            ("RestoreRequest", "restores_completed", "restores_missed"),
        ):
            if r[done] + r[missed] != asked.get(kind, 0):
                bad.append(f"{done} + {missed} != {kind}s in the trace")
        return bad, 0


WORKLOADS = {
    "deploy-flat-512": lambda smoke=False: DeployWorkload(512, 1, smoke),
    "deploy-rack-384": lambda smoke=False: DeployWorkload(384, 8, smoke),
    "snapshot-256": SnapshotWorkload,
    "churn-mixed": ChurnWorkload,
}
