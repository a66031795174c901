"""One module opens every instance: ``repro.cloud.instance``.

The middleware's lifecycle (open, boot, snapshot, tear down, resume) is one
path only while no second module builds its own VM or backend; a second
site soon names its own mirror files, draws its own RNG streams and handles
failure its own way. A resume opens at the ``(blob, version)`` a snapshot
carries (``SnapshotResult.at``), never by parsing its display ident.
Tests are exempt: they build backends to probe them.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONSTRUCTORS = {"VMInstance", "MirrorBackend", "LocalRawBackend", "Qcow2PvfsBackend"}
PARSERS = {"split", "rsplit", "partition", "rpartition"}


def program_files():
    yield from sorted((REPO / "src").rglob("*.py"))
    yield from sorted((REPO / "examples").glob("*.py"))
    yield from sorted((REPO / "benchmarks").glob("*.py"))


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_one_module_constructs_instances_and_backends():
    sites = {
        f"{path.relative_to(REPO)}: {_called_name(call)}"
        for path in program_files()
        for call in calls(path)
        if _called_name(call) in CONSTRUCTORS
    }
    modules = {site.split(":")[0] for site in sites}
    assert modules == {"src/repro/cloud/instance.py"}, sorted(sites)
    assert {site.split(": ")[1] for site in sites} == CONSTRUCTORS


def test_no_snapshot_ident_is_parsed():
    parsed = [
        f"{path.relative_to(REPO)}:{call.lineno}"
        for path in program_files()
        for call in calls(path)
        if _called_name(call) in PARSERS and any(
            isinstance(arg, ast.Constant) and "@" in str(arg.value)
            for arg in call.args
        )
    ]
    assert parsed == []
