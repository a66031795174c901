"""Figure 4 — multideployment (paper §5.2).

One initial 2 GiB image deployed to N concurrent instances, N swept up to
110, for the three approaches. Panels:

* 4(a) average boot time per instance,
* 4(b) completion time to boot all instances (incl. initialization phase),
* 4(c) speedup of our approach over both baselines,
* 4(d) total network traffic.

Each sweep runs once (``pedantic`` with one round — the simulation is
deterministic); the reported benchmark time is the harness cost of the whole
sweep. The point loop goes through the parallel sweep runner (jobs from
the ``REPRO_BENCH_*`` environment). Panels assert the paper's
qualitative shapes.
"""

import pytest

from repro.analysis import Figure, Series, ascii_chart, check_shape, render_figure, speedup

from common import active_profile, deploy_specs, emit, figure_data, run_sweep

PROFILE = active_profile()


def _sweep(approach):
    points = run_sweep(deploy_specs(PROFILE, approach, seed=1))
    return {p.spec.n: p for p in points}


@pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
def test_fig4_sweep(benchmark, sweep_cache, approach):
    """Run the instance-count sweep for one approach (feeds all panels)."""
    result = benchmark.pedantic(lambda: _sweep(approach), rounds=1, iterations=1)
    sweep_cache[("fig4", approach)] = result
    assert all(len(r.boot_times) == n for n, r in result.items())


def _series(sweep_cache, metric):
    out = {}
    for approach in ("prepropagation", "qcow2-pvfs", "mirror"):
        sweep = sweep_cache[("fig4", approach)]
        s = Series(approach)
        for n, res in sorted(sweep.items()):
            s.add(n, metric(res))
        out[approach] = s
    return out


def test_fig4a_avg_boot_time(benchmark, sweep_cache):
    series = benchmark.pedantic(
        lambda: _series(sweep_cache, lambda r: r.avg_boot_time), rounds=1, iterations=1
    )
    fig = Figure("fig4a", "Average time to boot per instance", "instances", "seconds")
    for s in series.values():
        fig.add_series(s)
    checks = [
        # prepropagation boots from a local copy: flat, lowest
        check_shape(
            "prepropagation flat (max/min < 1.35)",
            series["prepropagation"].max() / min(series["prepropagation"].y) < 1.35,
        ),
        check_shape(
            "mirror grows slower than qcow2-over-PVFS",
            (series["mirror"].last() / series["mirror"].y[0])
            < (series["qcow2-pvfs"].last() / series["qcow2-pvfs"].y[0]),
        ),
        check_shape(
            "remote-backed approaches above prepropagation at max N",
            series["mirror"].last() > series["prepropagation"].last()
            and series["qcow2-pvfs"].last() > series["mirror"].last(),
        ),
    ]
    emit("fig4a", render_figure(fig) + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks), figure_data(fig, checks))
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_fig4b_completion_time(benchmark, sweep_cache):
    series = benchmark.pedantic(
        lambda: _series(sweep_cache, lambda r: r.completion_time), rounds=1, iterations=1
    )
    fig = Figure("fig4b", "Completion time to boot all instances", "instances", "seconds")
    for s in series.values():
        fig.add_series(s)
    checks = [
        check_shape(
            "prepropagation completion grows strongly with N (broadcast)",
            series["prepropagation"].last()
            > (3 if PROFILE.name == "paper" else 1.5) * series["prepropagation"].y[0],
        ),
        check_shape(
            "mirror completes first at every N",
            all(
                series["mirror"].at(n) < series["qcow2-pvfs"].at(n)
                and series["mirror"].at(n) < series["prepropagation"].at(n)
                for n in PROFILE.instance_counts
            ),
        ),
    ]
    emit("fig4b", render_figure(fig) + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks), figure_data(fig, checks))
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_fig4c_speedup(benchmark, sweep_cache):
    def compute():
        series = _series(sweep_cache, lambda r: r.completion_time)
        return (
            speedup(series["prepropagation"], series["mirror"], "vs taktuk prepropagation"),
            speedup(series["qcow2-pvfs"], series["mirror"], "vs qcow2 over PVFS"),
        )

    vs_taktuk, vs_qcow2 = benchmark.pedantic(compute, rounds=1, iterations=1)
    fig = Figure("fig4c", "Speedup of completion time (our approach)", "instances", "x")
    fig.add_series(vs_taktuk)
    fig.add_series(vs_qcow2)
    last_n = PROFILE.instance_counts[-1]
    checks = [
        check_shape(
            f"speedup vs prepropagation large at scale (paper: up to ~25; got {vs_taktuk.max():.1f})",
            vs_taktuk.max() > (15 if PROFILE.name == "paper" else 4),
        ),
        check_shape(
            f"speedup vs qcow2-over-PVFS ~2 at N={last_n} (got {vs_qcow2.at(last_n):.2f})",
            1.5 < vs_qcow2.at(last_n) < 3.5,
        ),
        check_shape(
            "speedup vs qcow2 slowly increases with N",
            vs_qcow2.last() > vs_qcow2.y[0],
        ),
    ]
    emit("fig4c", render_figure(fig, fmt="{:10.2f}") + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks), figure_data(fig, checks))
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)


def test_fig4d_total_network_traffic(benchmark, sweep_cache):
    series = benchmark.pedantic(
        lambda: _series(sweep_cache, lambda r: r.total_traffic / 1e9), rounds=1, iterations=1
    )
    fig = Figure("fig4d", "Total network traffic", "instances", "GB")
    for s in series.values():
        fig.add_series(s)
    last_n = PROFILE.instance_counts[-1]
    reduction = 1 - series["mirror"].at(last_n) / series["prepropagation"].at(last_n)
    checks = [
        check_shape(
            f"~90% traffic reduction vs prepropagation (got {reduction:.0%})",
            reduction > 0.85,
        ),
        check_shape(
            "mirror slightly above qcow2 (chunk-prefetch overhead)",
            1.0
            < series["mirror"].at(last_n) / series["qcow2-pvfs"].at(last_n)
            < 1.35,
        ),
        check_shape(
            "all approaches grow linearly with N (monotone)",
            all(s.is_monotonic_nondecreasing() for s in series.values()),
        ),
    ]
    emit("fig4d", render_figure(fig) + "\n\n" + ascii_chart(fig) + "\n" + "\n".join(checks), figure_data(fig, checks))
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)
