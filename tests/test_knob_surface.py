"""Keep only what the workloads run: no unread constant, no untaken fork.

A calibration field nothing reads still shows up in ``repro info`` as if it
shaped the simulation; a placement strategy or a
``build_cloud`` keyword that no workload selects is a second code path the
outcomes never exercise. This walks the source so neither comes back
unnoticed.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro import calibration
from repro.blobseer.pmanager import STRATEGIES, PlacementPolicy
from repro.cloud import build_cloud

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
