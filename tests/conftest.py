"""Shared fixtures for the test suite."""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.common.units import MiB
from repro.runner import BenchProfile
from repro.simkit import Fabric

#: small enough that one deploy point simulates in tens of milliseconds, and
#: one resilience point in well under a second
MICRO = BenchProfile(
    name="micro-test",
    pool_nodes=6,
    instance_counts=(1, 2),
    calib=Calibration(image=ImageSpec(size=64 * MiB, boot_touched_bytes=8 * MiB)),
    n_regions=16,
    diff_bytes=2 * MiB,
    mc_workers=3,
    mc_total_compute=10.0,
    bonnie_working_set=8 * MiB,
)


@pytest.fixture
def fabric():
    return Fabric(seed=1234)


@pytest.fixture
def micro_profile():
    """A tiny ad-hoc profile; points carry it by value."""
    return MICRO


def run_process(fab: Fabric, gen, name: str = "test"):
    """Run a generator as a process to completion and return its value."""
    proc = fab.env.process(gen, name=name)
    return fab.run(proc)
