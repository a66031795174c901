"""Tracked hierarchical-fabric grids: locality vs the oversubscribed core.

The flat testbed of the paper's §5.1 gives every NIC the full fabric; real
datacenters do not. These grids pin the hierarchical model
(:mod:`repro.topo`): compute nodes block-assigned to racks, each rack's
uplink oversubscribed (``hosts_per_rack * NIC / ratio``), every cross-rack
flow sharing the trunks. The question is whether the locality consumers —
rack-ranked peer selection, rack-diverse replica placement, same-rack
replica reads — keep deployment traffic off the uplinks.

Two grids, seed 1, ``topo`` profile (264-node pool):

* ``topo_sweep``   — topology-blind vs locality-aware mirror deployment with
  the peer exchange on 8 racks at 4x oversubscription, n in {64, 256}, plus
  the locality point at 2x and 8x for n = 256;
* ``topo_replica`` — replication 2 over 2 racks, rack-diverse placement, p2p
  off, n = 64: only the *read* side differs between the two points.

The committed ``benchmarks/results/topo_*.json`` *are* the expectation:
``make tracked`` reruns the grids uncached and fails on any ``git diff``.
Every point is a ``deploy`` spec with the fabric cloud params. The
smoke-size behaviour (``racks=1`` equals the flat fabric, the cross-rack
cut, zero cross-rack replica payload, determinism) is tier-1:
``tests/topo/test_topo_point.py``.
"""

from repro.analysis import check_shape
from repro.common.units import MiB

from common import PointSpec, emit_grid, run_sweep, skip_under_quick_profile

skip_under_quick_profile("tests/topo/test_topo_point.py")

COUNTS = (64, 256)
N_MAX = COUNTS[-1]
RACKS = 8
OVERSUB = 4.0

#: locality must cut cross-rack bytes by at least this fraction at ``N_MAX``
MIN_CROSS_RACK_CUT = 0.50

#: label -> (n, racks, oversubscription, locality)
SWEEP = {
    **{
        f"{mode}-n{n}": (n, RACKS, OVERSUB, mode == "locality")
        for mode in ("blind", "locality")
        for n in COUNTS
    },
    f"locality-o2-n{N_MAX}": (N_MAX, RACKS, 2.0, True),
    f"locality-o8-n{N_MAX}": (N_MAX, RACKS, 8.0, True),
}

#: both points place replicas rack-diverse (one copy per rack); with
#: rack-aware reads every chunk fetch has an intra-rack copy to hit
REPLICA = {
    "blind": (64, 2, OVERSUB, False),
    "local": (64, 2, OVERSUB, True),
}
REPLICA_PARAMS = (("p2p", False), ("replication", 2), ("placement", "rack-diverse"))

#: simulated outcomes recorded per point
SIM_FIELDS = (
    "avg_boot_time", "completion_time", "total_traffic",
    "intra_rack_bytes", "cross_rack_bytes",
    "intra_rack_payload_bytes", "cross_rack_payload_bytes",
    "peer_hit_ratio", "bytes_from_peers", "bytes_from_providers",
)


def _run_grid(grid, extra_params):
    specs = [
        PointSpec(
            kind="deploy", profile="topo", approach="mirror", n=n, seed=1,
            params=(
                ("racks", racks), ("oversubscription", oversub), ("locality", locality),
            ) + extra_params,
        )
        for n, racks, oversub, locality in grid.values()
    ]
    points = run_sweep(specs)
    return {label: {f: p.metrics[f] for f in SIM_FIELDS} for label, p in zip(grid, points)}


def test_topo_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: _run_grid(SWEEP, (("p2p", True),)), rounds=1, iterations=1
    )
    blind, aware = rows[f"blind-n{N_MAX}"], rows[f"locality-n{N_MAX}"]
    cut = 1.0 - aware["cross_rack_bytes"] / blind["cross_rack_bytes"]
    emit_grid(
        "topo_sweep",
        f"Mirror deployment on {RACKS} racks, topology-blind vs locality-aware "
        f"(p2p on, {OVERSUB:g}x oversubscription unless labelled, seed 1)",
        rows,
        [
            check_shape(
                f"locality cuts cross-rack bytes by >= {MIN_CROSS_RACK_CUT:.0%} at "
                f"n={N_MAX} (measured {cut:.1%}: {aware['cross_rack_bytes'] / MiB:.0f} "
                f"vs {blind['cross_rack_bytes'] / MiB:.0f} MiB)",
                cut >= MIN_CROSS_RACK_CUT,
            ),
            check_shape(
                f"with locality on, the n={N_MAX} timeline at 2x, 4x and 8x "
                "oversubscription is identical: the trunks never bind",
                rows[f"locality-o2-n{N_MAX}"] == aware == rows[f"locality-o8-n{N_MAX}"],
            ),
        ],
    )


def test_topo_replica(benchmark):
    rows = benchmark.pedantic(
        lambda: _run_grid(REPLICA, REPLICA_PARAMS), rounds=1, iterations=1
    )
    blind, local = rows["blind"], rows["local"]
    emit_grid(
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
