"""One span idiom: ``with tracer.start(...)`` everywhere but the hot path.

A null ``with`` costs a few hundred nanoseconds per site (DESIGN.md §9), so
only the sites that run once per guest op or once per RPC may branch on
``tracer.enabled``; everything colder opens its span with ``with`` and one
body. This walks the source so a guard triple (``span = None`` ...
``if span is not None: span.finish()``) or an untraced twin cannot come
back at a cold site unnoticed.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: the per-guest-op / per-RPC sites allowed to read ``tracer.enabled``
GUARDED = {
    "vmsim/hypervisor.py::VMInstance.run_ops",
    "core/vfs.py::MirrorHandle.read",
    "core/vfs.py::MirrorHandle.write",
    "simkit/rpc.py::call",
    "simkit/rpc.py::_begin_timed",
    "simkit/network.py::FlowNetwork.transfer",
}

#: the one guard triple left: rpc.call's client span, on the per-RPC path
NONE_SPAN = {"simkit/rpc.py::call"}


def _functions(tree, prefix=""):
    """``(qualified name, node)`` of every function, methods as ``Class.name``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _sites():
    """``(site, function node)`` for every top-level function and method outside obs/."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in _functions(tree):
            yield f"{rel}::{name}", fn


def test_enabled_is_read_only_on_the_hot_path():
    readers = {
        site
        for site, fn in _sites()
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "enabled"
        and isinstance(node.ctx, ast.Load)
    }
    assert readers == GUARDED


def test_no_guard_triples_off_the_rpc_path():
    offenders = {
        site
        for site, fn in _sites()
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant) and node.value.value is None
        and any(isinstance(t, ast.Name) and t.id.endswith("span") for t in node.targets)
    }
    assert offenders == NONE_SPAN
