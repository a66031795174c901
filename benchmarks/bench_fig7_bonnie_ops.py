"""Figure 7 — Bonnie++ operations per second (paper §5.4).

Same run as Figure 6, metadata-class metrics: random seeks, file creation,
file deletion. The mirror pays FUSE's extra user/kernel context switches per
operation, so its ops/s are lower — the paper's acknowledged trade-off
("since such operations are relatively rare and execute very fast, the
performance penalty in real life is not an issue").
"""

import pytest

from repro.analysis import check_shape, render_bars

from bench_fig6_bonnie_throughput import _run_bonnie
from common import emit


@pytest.mark.parametrize("kind", ["local", "mirror"])
def test_fig7_run(benchmark, sweep_cache, kind):
    if ("bonnie", kind) in sweep_cache:  # reuse the Fig. 6 run when present
        point = sweep_cache[("bonnie", kind)]
        benchmark.pedantic(lambda: point, rounds=1, iterations=1)
    else:
        # a fig7-only session simulates the run itself
        point = benchmark.pedantic(lambda: _run_bonnie(kind), rounds=1, iterations=1)
        sweep_cache[("bonnie", kind)] = point
    assert point.metrics["rnd_seek_ops"] > 0


def test_fig7_report(benchmark, sweep_cache):
    local = sweep_cache[("bonnie", "local")].metrics
    ours = sweep_cache[("bonnie", "mirror")].metrics
    groups = {
        "local": [local["rnd_seek_ops"], local["create_ops"], local["delete_ops"]],
        "our-approach": [ours["rnd_seek_ops"], ours["create_ops"], ours["delete_ops"]],
    }
    table = benchmark.pedantic(
        lambda: render_bars(
            "fig7: Bonnie++ operations per second",
            ["RndSeek", "CreatF", "DelF"],
            groups,
            fmt="{:12.0f}",
        ),
        rounds=1,
        iterations=1,
    )
    checks = [
        check_shape(
            "ours lower in every ops/s metric (FUSE context switches)",
            ours["rnd_seek_ops"] < local["rnd_seek_ops"]
            and ours["create_ops"] < local["create_ops"]
            and ours["delete_ops"] < local["delete_ops"],
        ),
        check_shape(
            "gap is a small constant factor (2-4x), not orders of magnitude",
            all(
                1.5 < l / o < 5.0
                for l, o in [
                    (local["rnd_seek_ops"], ours["rnd_seek_ops"]),
                    (local["create_ops"], ours["create_ops"]),
                    (local["delete_ops"], ours["delete_ops"]),
                ]
            ),
        ),
    ]
    emit("fig7", table + "\n" + "\n".join(checks),
         {"labels": ["RndSeek", "CreatF", "DelF"], "groups": groups,
          "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)
