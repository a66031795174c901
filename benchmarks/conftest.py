"""Benchmark fixtures: per-session caches so one sweep feeds several panels."""

import sys
from pathlib import Path

import pytest

# make `import repro` work without an installed package or PYTHONPATH=src, and
# the test references importable (the fairness ablation's max-min yardstick)
ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def sweep_cache():
    """Shared store for sweep results reused across figure panels."""
    return {}
