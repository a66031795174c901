"""Keep only what the workloads run: no unread constant, no untaken fork.

A calibration field nothing reads still shows up in ``repro info`` as if it
shaped the simulation; a placement strategy, a spec field or a
``build_cloud`` keyword that no workload selects is a second code path the
outcomes never exercise. A knob that goes by one name on the CLI, another in
the point params and a third at its reader, each with its own default, can
drift apart. This walks the source and the option surface so none of it
comes back unnoticed.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro import calibration, runner
from repro.blobseer import BlobSeerDeployment
from repro.blobseer.pmanager import STRATEGIES, PlacementPolicy
from repro.churn import POLICIES, ChurnSpec
from repro.cli import build_parser
from repro.cloud import build_cloud, deploy
from repro.common.errors import SimulationError
from repro.faults import RetryPolicy
from repro.runner import CHURN_SMOKE, QUICK, BenchProfile, PointSpec, execute_point, known_kinds
from repro.runner.points import _EXECUTORS, CLOUD_PARAMS, accepted_params

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
    # By attribute name only: a calibration field that shares its name with
    # an attribute read elsewhere (``SnapshotModel.diff_bytes`` and
    # ``profile.diff_bytes`` once) passes here while nothing reads it.
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
    assert set(POLICIES) == {"least-loaded", "locality"}


def test_retry_policy_has_three_fields():
    assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
        "attempts", "base_delay", "rpc_timeout",
    ]


def test_no_write_mode_selector():
    assert "replica_write_mode" not in CLOUD_PARAMS
    assert "replica_write_mode" not in inspect.signature(build_cloud).parameters
    assert "replica_write_mode" not in inspect.signature(BlobSeerDeployment).parameters
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["faults", "--write-mode", "pipeline"])
    assert exc.value.code == 2


#: churn knobs only tests set; each is the constant every churn run shares
GONE_CHURN_FIELDS = ("retention_per_vm", "retain_snapshots", "slots_per_node",
                     "sample_interval")


def test_churn_has_no_one_value_knobs():
    assert {f.name for f in dataclasses.fields(ChurnSpec)}.isdisjoint(GONE_CHURN_FIELDS)
    for name in GONE_CHURN_FIELDS:
        spec = PointSpec("churn", CHURN_SMOKE, "mirror", n=1, params={name: 1})
        with pytest.raises(SimulationError, match=f"unknown params {name}"):
            execute_point(spec)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["churn", "--retain-snapshots"])
    assert exc.value.code == 2


def test_a_calibration_value_is_set_in_one_place():
    """No profile field or string path patches a calibration: ``calib`` is it."""
    fields = {f.name for f in dataclasses.fields(BenchProfile)}
    assert "calib" in fields
    assert fields.isdisjoint({"calib_overrides", "image_size", "chunk_size", "touched_bytes"})
    assert "overrides" not in {f.name for f in dataclasses.fields(PointSpec)}
    for name in ("register_profile", "apply_overrides", "profile_calibration"):
        assert not hasattr(runner, name), name


def test_snapshot_point_refuses_diff_bytes():
    spec = PointSpec("snapshot", QUICK, "mirror", n=1, params={"diff_bytes": 1})
    with pytest.raises(SimulationError, match="unknown params diff_bytes"):
        execute_point(spec)


# --------------------------------------------------------------------------- #
# one name and one default per scenario knob
# --------------------------------------------------------------------------- #
def _keywords(fn):
    return set(inspect.signature(fn).parameters)


def test_executors_read_no_defaulted_spec_param():
    """Params reach an executor as keywords; the reader holds the default."""
    tree = ast.parse((SRC / "runner" / "points.py").read_text())
    defaulted = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "param" and len(node.args) + len(node.keywords) > 1
    ]
    assert defaulted == []


def test_cloud_params_are_build_cloud_keywords():
    assert set(CLOUD_PARAMS) <= _keywords(build_cloud)


def test_every_kind_param_is_a_keyword_of_its_reader():
    for kind in known_kinds():
        executor, consumer, params = _EXECUTORS[kind]
        own = {p.name for p in inspect.signature(executor).parameters.values()
               if p.kind is p.KEYWORD_ONLY}
        readers = own | (_keywords(consumer) if consumer else set())
        assert params <= readers, kind
    # the consumers' knobs stay settable: every field the executor does not fill
    # ``arrivals`` has one value, so it is no param
    assert accepted_params("churn") >= _keywords(ChurnSpec) - {"n_deploys", "arrivals"}
    assert "arrivals" not in accepted_params("churn")
    assert {"plan", "faults_seed"}.isdisjoint(accepted_params("resilience"))
    assert accepted_params("resilience") >= _keywords(RetryPolicy)


#: subcommand -> the point kind it runs
COMMAND_KINDS = {
    "deploy": "deploy", "snapshot": "snapshot", "bonnie": "bonnie",
    "faults": "resilience", "p2p": "deploy", "topo": "deploy",
    "churn": "churn", "lineage": "lineage",
}
#: dests that size the profile or pick the run, not a point param
RUN_DESTS = {
    "help", "instances", "pool", "image_mib", "touched_mib", "chunk_kib",
    "diff_mib", "seed", "approach", "profile", "deploys", "depth", "working_mib",
}


def test_every_forwarded_cli_dest_is_an_accepted_param():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, kind in COMMAND_KINDS.items():
        sub = commands[command]
        dests = {a.dest for a in sub._actions} - RUN_DESTS
        assert set(sub.get_default("params") or ()) == dests, command
        assert dests <= accepted_params(kind), command


#: keywords no program path passed: each is the constant every path ran with
GONE_KEYWORDS = [
    ("repro.blobseer.service:BlobSeerDeployment", "meta_replication"),
    ("repro.analysis.series:Series.at", "tol"),
    ("repro.analysis.plot:ascii_chart", "width"),
    ("repro.analysis.plot:ascii_chart", "height"),
    ("repro.baselines.broadcast:broadcast", "read_from_disk_at_source"),
    ("repro.baselines.broadcast:broadcast", "forward_from_disk"),
    ("repro.baselines.prepropagation:prepropagate", "dest_path"),
    ("repro.obs.analyze:render_critical_path", "min_fraction"),
    ("repro.vmsim.bonnie:BonnieBenchmark", "batch_bytes"),
    ("repro.vmsim.workloads:read_your_writes_workload", "write_block"),
    ("repro.vmsim.workloads:read_your_writes_workload", "cpu_between"),
    ("repro.vmsim.workloads:log_append_workload", "cpu_between"),
    ("repro.lineage.restore:restore_to_version", "name"),
    ("repro.lineage.restore:restore_to_version", "full_chunk_prefetch"),
    # merge_chain runs one pass: no policy to select, no walk bound, no sweep
    ("repro.lineage.compact:merge_chain", "policy"),
    ("repro.lineage.compact:merge_chain", "depth_bound"),
    ("repro.lineage.compact:merge_chain", "gc"),
    # a deployment opens and boots; resilient_deploy boots guarded itself
    ("repro.cloud.deployment:deploy", "run_boot"),
    # a resilience point crashes its spares staggered; no random plan to seed
    ("repro.runner.points:_run_resilience", "plan"),
    ("repro.runner.points:_run_resilience", "faults_seed"),
]


@pytest.mark.parametrize("target,keyword", GONE_KEYWORDS,
                         ids=[f"{t.split(':')[1]}-{k}" for t, k in GONE_KEYWORDS])
def test_a_keyword_only_tests_set_stays_gone(target, keyword):
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for name in qualname.split("."):
        obj = getattr(obj, name)
    assert keyword not in inspect.signature(obj).parameters
