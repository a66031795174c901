"""Figure 6 — Bonnie++ sustained throughput (paper §5.4).

A single VM writes, reads back, and overwrites an 800 MB working set in
8 KiB blocks inside its image, comparing the mirror (FUSE + mmap write-back)
with a locally available raw image (hypervisor default path). Since the data
is written before being read, the mirror never goes remote.

Both runs are sweep points (``kind="bonnie"``) routed through the runner and
kept in the session's ``sweep_cache`` fixture, so Figure 7 — which reports
other metrics of the same run — reads them instead of re-simulating.
"""

import pytest

from repro.analysis import check_shape, render_bars

from common import PointSpec, active_profile, emit, run_sweep

from repro.common.units import MiB

PROFILE = active_profile()


def _run_bonnie(kind: str):
    """One §5.4 Bonnie++ point; returns its :class:`PointResult`."""
    spec = PointSpec(kind="bonnie", profile=PROFILE.name, approach=kind, seed=3)
    return run_sweep([spec])[0]


@pytest.mark.parametrize("kind", ["local", "mirror"])
def test_fig6_run(benchmark, sweep_cache, kind):
    point = benchmark.pedantic(lambda: _run_bonnie(kind), rounds=1, iterations=1)
    sweep_cache[("bonnie", kind)] = point
    if kind == "mirror":
        # §5.4: written-then-read data never triggers remote reads
        assert point.metrics["payload_traffic"] < 2 * MiB


def test_fig6_report(benchmark, sweep_cache):
    local = sweep_cache[("bonnie", "local")].metrics
    ours = sweep_cache[("bonnie", "mirror")].metrics
    groups = {
        "local": [local["block_write_kbps"], local["block_read_kbps"],
                  local["block_overwrite_kbps"]],
        "our-approach": [ours["block_write_kbps"], ours["block_read_kbps"],
                         ours["block_overwrite_kbps"]],
    }
    table = benchmark.pedantic(
        lambda: render_bars(
            "fig6: Bonnie++ sustained throughput (KB/s)",
            ["BlockW", "BlockR", "BlockO"],
            groups,
        ),
        rounds=1,
        iterations=1,
    )
    w_ratio = ours["block_write_kbps"] / local["block_write_kbps"]
    o_ratio = ours["block_overwrite_kbps"] / local["block_overwrite_kbps"]
    r_ratio = ours["block_read_kbps"] / local["block_read_kbps"]
    checks = [
        check_shape(f"BlockW ~2x higher for ours (mmap write-back; got {w_ratio:.2f}x)", 1.5 < w_ratio < 2.6),
        check_shape(f"BlockO ~2x higher for ours (got {o_ratio:.2f}x)", 1.3 < o_ratio < 2.6),
        check_shape(f"BlockR equal for both (got {r_ratio:.2f}x)", 0.85 < r_ratio < 1.15),
    ]
    emit("fig6", table + "\n" + "\n".join(checks),
         {"labels": ["BlockW", "BlockR", "BlockO"], "groups": groups,
          "checks": checks})
    assert all(c.startswith("[PASS]") for c in checks), "\n".join(checks)
