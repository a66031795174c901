"""One storage-client RPC path, with or without a retry policy.

A :class:`RetryPolicy` only tunes the client's one failover loop (deadline,
rounds, backoff): a fault-free run takes the same timeline armed or not, and
without a policy a read still fails over once per replica or metadata home
and a replicated COMMIT still prunes a dead replica. The source walk at the
end keeps the retry-free / resilient forks from coming back.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.blobseer import BlobSeerDeployment
from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy
from repro.common.payload import Payload
from repro.common.units import KiB, MiB
from repro.faults import RetryPolicy
from repro.simkit.host import Fabric
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=8 * MiB)
)
N_NODES = 8
CHUNK = 4 * KiB

CLOUDS = {
    "flat": {},
    "replicated": {"replication_factor": 2},
    "racked-replicated": {"racks": 2, "replication_factor": 2, "placement": "round-robin"},
}


def fault_free_deploy(kind, prefetch, retry):
    cloud = build_cloud(N_NODES, seed=3, calib=CALIB, retry=retry, **CLOUDS[kind])
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    result = deploy(cloud, image, N_NODES, "mirror", mirror_prefetch=prefetch)
    return {
        "boot_times": tuple(result.boot_times),
        "traffic": dict(cloud.metrics.traffic),
        "topo_traffic": dict(cloud.metrics.topo_traffic),
    }


@pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "exact-ranges"])
@pytest.mark.parametrize("kind", sorted(CLOUDS))
def test_an_armed_policy_leaves_a_fault_free_run_alone(kind, prefetch):
    plain = fault_free_deploy(kind, prefetch, retry=None)
    armed = fault_free_deploy(kind, prefetch, retry=RetryPolicy())
    assert armed == plain


def test_exact_range_reads_prefer_the_same_rack_replica_without_a_policy():
    """Exact ranges pick their replica like whole chunks: same-rack first.

    The two copies of the exact-range fetch this path replaced both read
    rank 0, which sent 35,104,545 B of this payload across the racks.
    """
    topo = fault_free_deploy("racked-replicated", prefetch=False, retry=None)["topo_traffic"]
    assert topo["cross-rack/payload"] == 25_421_557
    assert topo["intra-rack/payload"] == 33_984_271


# ---------------------------------------------------------------------- #
# the retry-free path fails over like the armed one
# ---------------------------------------------------------------------- #
def make(replication=2, n_data=4, n_meta=2):
    fab = Fabric(seed=37)
    data = [fab.add_host(f"node{i}") for i in range(n_data)]
    meta = [fab.add_host(f"meta{i}") for i in range(n_meta)]
    dep = BlobSeerDeployment(
        fab, data_hosts=data, meta_hosts=meta, vmanager_host=fab.add_host("manager"),
        replication_factor=replication,
    )
    assert dep.retry is None
    return fab, dep, data, meta, fab.add_host("client")


def run(fab, gen):
    return fab.run(fab.env.process(gen))


def pattern(n):
    return Payload.from_bytes(bytes((i * 131 + 17) % 256 for i in range(n)))


@pytest.mark.parametrize("crash_at", [None, 0.0001], ids=["down", "dies-mid-gather"])
def test_a_dead_primary_shard_fails_over_to_the_next_home(crash_at):
    fab, dep, _, meta, ch = make(replication=2)  # two metadata homes per node
    dep.seed_blob(Payload.opaque("img", 16 * CHUNK), CHUNK)
    client = dep.client(ch)
    ids = list(range(8))  # homed on both shards: a two-leg gather

    def crasher():
        yield fab.env.timeout(crash_at)
        meta[1].fail()

    if crash_at is None:
        meta[1].fail()
    else:
        fab.env.process(crasher())
    run(fab, client._get_nodes(ids))
    assert all(client._fetched[nid] for nid in ids)
    assert fab.metrics.counters["meta-retry"] == 1


def test_a_dead_primary_provider_costs_one_get_chunks_per_fallback_provider():
    fab, dep, data, _, ch = make(replication=2)
    payload = pattern(16 * CHUNK)
    rec = dep.seed_blob(payload, CHUNK)
    refs = [node.ref for node in dep.metadata.nodes if node.ref is not None]
    data[0].down = True
    tracer = obs.install_tracer(fab)
    client = dep.client(ch)

    got = run(fab, client.read(rec.blob_id, rec.version, 0, 16 * CHUNK))
    assert got.to_bytes() == payload.to_bytes()
    calls = [s for s in tracer.spans if s.name == "rpc:blob-data.get_chunks"]
    primaries = {ref.providers[0] for ref in refs}
    fallbacks = {ref.providers[1] for ref in refs if ref.providers[0] == data[0].name}
    assert len(fallbacks) < sum(ref.providers[0] == data[0].name for ref in refs)
    assert len(calls) == len(primaries) + len(fallbacks)
    assert fab.metrics.counters["fetch-retry"] == 1


def test_a_commit_losing_a_provider_mid_write_prunes_the_replica():
    fab, dep, data, _, ch = make(replication=2)
    client = dep.client(ch)
    payload = pattern(8 * CHUNK)

    def crash_mid_put():
        yield fab.env.timeout(0.002)
        data[1].fail()

    def scenario():
        blob = yield from client.create(8 * CHUNK, CHUNK)
        rec = yield from client.upload(blob, payload)
        return (yield from client.read(rec.blob_id, rec.version, 0, 8 * CHUNK))

    fab.env.process(crash_mid_put())
    assert run(fab, scenario()).to_bytes() == payload.to_bytes()
    assert fab.metrics.counters["replica-pruned"] > 0


# ---------------------------------------------------------------------- #
# the forks stay gone
# ---------------------------------------------------------------------- #
SRC = Path(repro.__file__).parent


def _tree(rel):
    return ast.parse((SRC / rel).read_text(), filename=rel)


@pytest.mark.parametrize("rel", ["core/translator.py", "p2p/exchange.py"])
def test_callers_never_read_the_retry_policy(rel):
    reads = [
        node.lineno for node in ast.walk(_tree(rel))
        if isinstance(node, ast.Attribute) and node.attr == "retry"
    ]
    assert reads == [], f"{rel} reads .retry at lines {reads}"


def test_the_client_has_no_resilient_twins():
    names = {
        node.name for node in ast.walk(_tree("blobseer/client.py"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not {name for name in names if name.endswith("_resilient")}
