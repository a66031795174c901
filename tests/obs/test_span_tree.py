"""The span tree of three traced scenarios, pinned by digest.

Each span contributes its name, category, parent's name, ``t0``, ``t1``,
sorted attributes and error, in creation order; the digest is the SHA-256
of those lines. An instrumentation refactor that means to leave the traced
output alone keeps all three digests. One that means to change a span
(a new attribute, a renamed phase, a different parent) re-records them in
the same commit and says why:

    PYTHONPATH=src python tests/obs/test_span_tree.py

prints the ``(spans, digest)`` pair of every scenario in the form of
``EXPECTED`` below.

The scenarios cover every instrumented layer between them: a mirror
deploy + CLONE/COMMIT campaign (boot, vfs, rpc, flows, chunk publish,
metadata scatter), a failover read under a retry policy (per-attempt fetch
spans, one failing), and a small racked churn run with the peer exchange,
restores and one chain merge.
"""

import hashlib

from test_fault_trace import failover_read
from test_integration import run_cycle

from repro import obs
from repro.churn import ChurnEngine, ChurnSpec
from repro.lineage import LineageForest, merge_chain
from repro.runner.points import build_point_cloud
from repro.runner.profiles import resolve_profile


def span_tree_digest(spans):
    """``(span count, SHA-256)`` of the span tree, in creation order."""
    names = {s.span_id: s.name for s in spans}
    h = hashlib.sha256()
    for s in spans:
        row = (
            s.name, s.category, names.get(s.parent_id), s.t0, s.t1,
            sorted(s.attrs.items()), s.error,
        )
        h.update(repr(row).encode())
        h.update(b"\n")
    return len(spans), h.hexdigest()


def deploy_snapshot_spans():
    _, tracer = run_cycle("mirror", traced=True, with_snapshot=True)
    return tracer.spans


def failover_spans():
    _, tracer = failover_read(traced=True)
    return tracer.spans


def churn_spans():
    """A racked churn run with p2p and restores, then one chain merge."""
    profile = resolve_profile("churn-smoke")
    cloud, image = build_point_cloud(
        profile, 3, with_pvfs=False, racks=2, topo_aware=True,
        p2p=True, p2p_directory="announce",
    )
    tracer = obs.install_tracer(cloud.fabric)
    spec = ChurnSpec(
        n_deploys=10, rate=1.0, n_tenants=2, mean_lifetime=6.0,
        min_lifetime=3.0, snapshot_fraction=1.0, restore_fraction=1.0,
        diff_bytes=profile.diff_bytes, policy="least-loaded", gc_interval=15.0,
        retention_per_vm=3, retain_snapshots=True,
    )
    ChurnEngine(cloud, image, spec).run()
    forest = LineageForest.from_registry(cloud.blobseer.registry)
    # the head with the most commits of its own: its v1 is an interior
    # version at position 2 from the genesis, which keep_every=3 merges
    head = max(forest.heads(), key=lambda key: (key[1], key))
    assert head[1] >= 2, "the churn run committed no chain to merge"

    def merge():
        merged = yield from merge_chain(
            cloud.blobseer, cloud.compute[0], head[0], head[1], keep_every=3,
        )
        assert merged == 1

    cloud.run(cloud.env.process(merge(), name="merge"))
    return tracer.spans


SCENARIOS = {
    "deploy-snapshot": deploy_snapshot_spans,
    "failover-read": failover_spans,
    "churn-p2p-restore-compact": churn_spans,
}

EXPECTED = {
    'deploy-snapshot': (4245, 'ba48f53231697dd6f6bff780e797715741ce534cd5fd68fcecd1a61b4a40ed2c'),
    'failover-read': (44, '19c21643c3df29cc94fa36d890e1ea422c61649bf099f3e94b734cb33c9f383e'),
    'churn-p2p-restore-compact': (8727, '22342ebe38cbf7ca5f80c01f288b94b48e143b36bf2588c7cc4fb05d234b3a8d'),
}


def test_deploy_snapshot_span_tree():
    assert span_tree_digest(deploy_snapshot_spans()) == EXPECTED["deploy-snapshot"]


def test_failover_read_span_tree():
    assert span_tree_digest(failover_spans()) == EXPECTED["failover-read"]


def test_churn_span_tree():
    spans = churn_spans()
    names = {s.name for s in spans}
    for expected in ("churn:run", "p2p.fetch", "lineage.restore", "lineage.merge"):
        assert expected in names, expected
    assert span_tree_digest(spans) == EXPECTED["churn-p2p-restore-compact"]


if __name__ == "__main__":
    for name, scenario in SCENARIOS.items():
        print(f"    {name!r}: {span_tree_digest(scenario())!r},")
