"""Every sweep point is simulated: no result cache comes back.

A cache that replays a point's outcome by a hand-bumped version token writes
stale values into the tracked artifacts the moment a change forgets the bump.
This walks the program, the benchmark modules and the tooling so that neither
the cache nor a switch for it returns unnoticed.
"""

from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN = (
    "CODE_VERSION",
    "ResultCache",
    "point_key",
    "REPRO_SWEEP_CACHE",
    "REPRO_BENCH_NO_CACHE",
    "results/cache",
)


def _scanned_files():
    files = sorted((ROOT / "src").rglob("*.py"))
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    files.append(ROOT / "Makefile")
    files += sorted((ROOT / ".github" / "workflows").glob("*"))
    files.append(ROOT / ".claude" / "skills" / "verify" / "SKILL.md")
    return [p for p in files if p.is_file()]


def test_no_cache_name_in_program_or_tooling():
    hits = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in _scanned_files()
        for name in FORBIDDEN
        if name in path.read_text(errors="replace")
    ]
    assert hits == []


@pytest.mark.parametrize("argv", [
    ["--no-cache"],
    ["--refresh"],
    ["--cache-dir", "somewhere"],
])
def test_sweep_has_no_cache_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
