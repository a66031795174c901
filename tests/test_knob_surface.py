"""Keep only what the workloads run: no unread constant, no untaken fork.

A calibration field nothing reads still shows up in ``repro info`` as if it
shaped the simulation; a placement strategy, a spec field or a
``build_cloud`` keyword that no workload selects is a second code path the
outcomes never exercise. This walks the source and the option surface so
neither comes back unnoticed.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro import calibration
from repro.blobseer.pmanager import STRATEGIES, PlacementPolicy
from repro.churn import ARRIVAL_KINDS, POLICIES, ChurnSpec
from repro.cli import build_parser
from repro.cloud import build_cloud, deploy
from repro.common.errors import SimulationError
from repro.faults import RetryPolicy
from repro.runner import PointSpec, execute_point
from repro.runner.points import CLOUD_PARAMS

SRC = Path(repro.__file__).parent


def _calibration_fields():
    """``Class.field`` of every dataclass defined in ``calibration.py``."""
    out = set()
    for name, obj in vars(calibration).items():
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) \
                and obj.__module__ == calibration.__name__:
            out |= {(name, f.name) for f in dataclasses.fields(obj)}
    return out


def _attributes_read_outside_calibration():
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "calibration.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names


def test_every_calibration_field_is_read():
    read = _attributes_read_outside_calibration()
    unread = sorted(f"{cls}.{field}" for cls, field in _calibration_fields()
                    if field not in read)
    assert unread == []


def test_placement_has_two_strategies_and_one_allocation_path():
    assert STRATEGIES == ("round-robin", "rack-diverse")
    methods = {name for name, _ in inspect.getmembers(PlacementPolicy, inspect.isfunction)}
    assert methods == {"__init__", "allocate", "_rack_diverse_picks"}


def test_build_cloud_takes_no_unselected_knobs():
    params = inspect.signature(build_cloud).parameters
    assert "meta_replication" not in params
    assert "topology" not in params
    assert "with_blobseer" not in params
    assert "boot_model" not in inspect.signature(deploy).parameters


def test_churn_has_no_unset_shape_knobs_or_strategies():
    fields = {f.name for f in dataclasses.fields(ChurnSpec)}
    gone = {"period", "amplitude", "burst_factor", "burst_len", "calm_len", "trace_times"}
    assert fields & gone == set()
    assert ARRIVAL_KINDS == ("poisson", "diurnal", "bursty")
    assert set(POLICIES) == {"first-fit", "least-loaded", "locality"}


def test_retry_policy_has_three_fields():
    assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
        "attempts", "base_delay", "rpc_timeout",
    ]


def test_no_write_mode_selector():
    assert "replica_write_mode" not in CLOUD_PARAMS
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["faults", "--write-mode", "pipeline"])
    assert exc.value.code == 2


def test_snapshot_point_refuses_diff_bytes():
    spec = PointSpec("snapshot", "quick", "mirror", n=1, params={"diff_bytes": 1})
    with pytest.raises(SimulationError, match="unknown params diff_bytes"):
        execute_point(spec)
