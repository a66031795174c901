"""Cooperative peer-to-peer chunk exchange sweep (not a paper figure).

The paper's multideployment experiments (§5, Fig. 4) degrade as every
booting node pulls the same hot image chunks from the same few providers.
The ``repro.p2p`` subsystem lets nodes serve already-fetched chunks to each
other; this sweep quantifies the effect:

* boot-time curve — avg boot time vs instance count for the provider-only
  baseline and both directory strategies (announce / rendezvous);
* provider offload — bytes served by the data providers vs instance count
  (the contention the exchange removes);
* cache sizing — peer hit ratio and provider bytes vs per-node cache budget
  at the largest instance count.

Acceptance gate of the subsystem: at the largest swept count the exchange
cuts provider bytes by >= 30% and improves average boot time. Every point is
a ``deploy`` spec with the ``p2p`` cloud params and goes through the parallel
sweep runner.

The grids have one size, the ``p2p`` profile's: the committed
``benchmarks/results/p2p_*.json`` *are* the expectation, and ``make tracked``
reruns them and fails on any ``git diff``.
"""

from repro.analysis import Figure, Series, ascii_chart, check_shape, render_figure
from repro.common.units import MiB
from repro.runner import P2P

from common import (
    PointSpec,
    emit,
    figure_data,
    run_sweep,
    skip_under_quick_profile,
)

skip_under_quick_profile("tests/p2p/")

#: (strategy label, spec params) — baseline first
STRATEGIES = (
    ("baseline", (("p2p", False),)),
    ("announce", (("p2p", True), ("p2p_directory", "announce"))),
    ("rendezvous", (("p2p", True), ("p2p_directory", "rendezvous"))),
)

CACHE_MIBS = (4, 16, 64)

PROFILE = P2P
COUNTS = PROFILE.instance_counts
N_MAX = COUNTS[-1]


def matrix_specs():
    return [
        PointSpec(
            kind="deploy", profile=PROFILE.name, approach="mirror", n=n, seed=1,
            params=params,
        )
        for _label, params in STRATEGIES
        for n in COUNTS
    ]


def cache_specs():
    return [
        PointSpec(
            kind="deploy", profile=PROFILE.name, approach="mirror", n=N_MAX, seed=1,
            params=(
                ("p2p", True),
                ("p2p_directory", "announce"),
                ("p2p_cache_bytes", mib * MiB),
            ),
        )
        for mib in CACHE_MIBS
    ]


def _strategy_of(point):
    if not point.spec.param("p2p"):
        return "baseline"
    return point.spec.param("p2p_directory")


def test_p2p_sweep(benchmark, sweep_cache):
    """Run the strategy x instance-count matrix (feeds both panels)."""

    def sweep():
        points = run_sweep(matrix_specs())
        return {(_strategy_of(p), p.spec.n): p for p in points}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sweep_cache["p2p"] = result
    assert len(result) == len(STRATEGIES) * len(COUNTS)
    for (label, _n), p in result.items():
        if label == "baseline":
            assert p.metrics["peer_hit_ratio"] == 0.0
        else:
            assert p.metrics["peer_hit_ratio"] > 0.0


def test_p2p_boot_curve(benchmark, sweep_cache):
    sweep = sweep_cache["p2p"]

    def compute():
        out = {}
        for label, _params in STRATEGIES:
            s = Series(label)
            for n in COUNTS:
                s.add(n, sweep[(label, n)].metrics["avg_boot_time"])
            out[label] = s
        return out

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    fig = Figure(
        "p2p_boot",
        "Avg boot time with cooperative chunk exchange (mirror approach)",
        "instances", "seconds",
    )
    for s in series.values():
        fig.add_series(s)
    checks = [
        check_shape(
            f"announce improves avg boot time at n={N_MAX}",
            series["announce"].at(N_MAX) < series["baseline"].at(N_MAX),
        ),
        check_shape(
            "the exchange flattens the curve: announce's boot-time growth "
            f"from n={COUNTS[0]} to n={N_MAX} is below the baseline's",
            (series["announce"].at(N_MAX) - series["announce"].at(COUNTS[0]))
            < (series["baseline"].at(N_MAX) - series["baseline"].at(COUNTS[0])),
        ),
    ]
    emit(
        "p2p_boot",
        render_figure(fig, fmt="{:12.3f}") + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks),
        figure_data(fig, checks),
    )
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_p2p_provider_offload(benchmark, sweep_cache):
    sweep = sweep_cache["p2p"]

    def compute():
        out = {}
        for label, _params in STRATEGIES:
            s = Series(label)
            for n in COUNTS:
                s.add(n, sweep[(label, n)].metrics["provider_bytes"])
            out[label] = s
        return out

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    fig = Figure(
        "p2p_provider_bytes",
        "Bytes served by the data providers (lower = less contention)",
        "instances", "bytes",
    )
    for s in series.values():
        fig.add_series(s)
    drop = 1.0 - series["announce"].at(N_MAX) / series["baseline"].at(N_MAX)
    checks = [
        check_shape(
            f"announce cuts provider bytes >= 30% at n={N_MAX} "
            f"(measured {drop:.0%})",
            drop >= 0.30,
        ),
        check_shape(
            "rendezvous offloads providers too (no directory traffic at all)",
            series["rendezvous"].at(N_MAX) < series["baseline"].at(N_MAX),
        ),
        check_shape(
            "baseline provider bytes grow linearly with the instance count "
            "(every booter re-fetches everything)",
            series["baseline"].at(N_MAX) > series["baseline"].at(COUNTS[0]) * 2,
        ),
    ]
    emit(
        "p2p_provider_bytes",
        render_figure(fig, fmt="{:14.0f}") + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks),
        figure_data(fig, checks),
    )
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_p2p_cache_sizing(benchmark, sweep_cache):
    def sweep():
        points = run_sweep(cache_specs())
        return {p.spec.param("p2p_cache_bytes") // MiB: p for p in points}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fig = Figure(
        "p2p_cache",
        f"Peer hit ratio vs per-node cache budget (announce, n={N_MAX})",
        "cache MiB", "hit ratio",
    )
    hits = Series("peer_hit_ratio")
    for mib in CACHE_MIBS:
        hits.add(mib, result[mib].metrics["peer_hit_ratio"])
    fig.add_series(hits)
    checks = [
        check_shape(
            "every cache size produces peer hits",
            all(result[m].metrics["peer_hit_ratio"] > 0.0 for m in CACHE_MIBS),
        ),
        check_shape(
            "a bigger cache never serves fewer peer hits",
            hits.at(CACHE_MIBS[-1]) >= hits.at(CACHE_MIBS[0]),
        ),
    ]
    emit(
        "p2p_cache",
        render_figure(fig, fmt="{:10.3f}") + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks),
        figure_data(fig, checks),
    )
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)
