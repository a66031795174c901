"""Shared fixtures for the test suite."""

import pytest

from repro.simkit import Fabric


@pytest.fixture
def fabric():
    return Fabric(seed=1234)


def run_process(fab: Fabric, gen, name: str = "test"):
    """Run a generator as a process to completion and return its value."""
    proc = fab.env.process(gen, name=name)
    return fab.run(proc)
