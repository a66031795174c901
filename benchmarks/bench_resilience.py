"""Resilience sweep — multideployment under injected provider crashes.

Not a paper figure: the paper's evaluation runs failure-free (design
principle 3 of §3.1 only *notes* that the striped repository supports chunk
replication). This sweep exercises the fault-injection subsystem end to end:
``N`` instances multideploy with the mirror approach while a deterministic
fault plan permanently crashes spare pool nodes — taking their data
providers (and co-located metadata shards) down with every unreplicated
chunk they held. Panels:

* survival — fraction of instances that still booted, per
  (crash count x replication factor);
* degradation — completion time of the boot phase as crashes increase.

Expected shapes: replication 1 loses instances as soon as providers die;
replication >= 2 rides out every crash level of the sweep (the staggered
plan never kills a whole replica set) at the cost of slower, retry-laden
boots. The point loop goes through the parallel sweep runner like every
figure.
"""

from repro.analysis import Figure, Series, ascii_chart, check_shape, render_figure

from common import PointSpec, active_profile, emit, figure_data, run_sweep

PROFILE = active_profile()

#: deployment size: second entry of the profile's sweep (8 quick / 20 paper)
#: leaves plenty of spare pool nodes to crash
N_INSTANCES = PROFILE.instance_counts[1]
CRASH_COUNTS = (0, 2, 4)
REPLICATIONS = (1, 2, 3)


def resilience_specs():
    return [
        PointSpec(
            kind="resilience", profile=PROFILE.name, approach="mirror",
            n=N_INSTANCES, seed=1,
            params=(
                ("replication_factor", r),
                ("crashes", c),
                ("window", 5.0),
                ("rpc_timeout", 2.0),
            ),
        )
        for r in REPLICATIONS
        for c in CRASH_COUNTS
    ]


def _sweep():
    points = run_sweep(resilience_specs())
    return {
        (p.spec.param("replication_factor"), p.spec.param("crashes")): p for p in points
    }


def test_resilience_sweep(benchmark, sweep_cache):
    """Run the crash-count x replication sweep (feeds both panels)."""
    result = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    sweep_cache["resilience"] = result
    assert len(result) == len(REPLICATIONS) * len(CRASH_COUNTS)
    for (r, c), p in result.items():
        assert p.metrics["boots_completed"] + p.metrics["boots_failed"] == N_INSTANCES


def test_resilience_survival(benchmark, sweep_cache):
    sweep = sweep_cache["resilience"]

    def compute():
        out = {}
        for r in REPLICATIONS:
            s = Series(f"replication={r}")
            for c in CRASH_COUNTS:
                s.add(c, sweep[(r, c)].metrics["survival_rate"])
            out[r] = s
        return out

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    fig = Figure(
        "resilience_survival",
        f"Instances booted under provider crashes (n={N_INSTANCES})",
        "crashed providers", "survival rate",
    )
    for s in series.values():
        fig.add_series(s)
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
    emit(
        "resilience_survival",
        render_figure(fig, fmt="{:10.3f}") + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks),
        figure_data(fig, checks),
    )
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_resilience_degradation(benchmark, sweep_cache):
    sweep = sweep_cache["resilience"]

    def compute():
        out = {}
        for r in REPLICATIONS:
            s = Series(f"replication={r}")
            for c in CRASH_COUNTS:
                s.add(c, sweep[(r, c)].metrics["completion_time"])
            out[r] = s
        return out

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    fig = Figure(
        "resilience_degradation",
        f"Boot-phase completion time under provider crashes (n={N_INSTANCES})",
        "crashed providers", "seconds",
    )
    for s in series.values():
        fig.add_series(s)
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
    emit(
        "resilience_degradation",
        render_figure(fig, fmt="{:10.3f}") + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks),
        figure_data(fig, checks),
    )
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)
