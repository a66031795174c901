"""One measurement sink, one percentile rule.

``Metrics`` keeps the four fields its readers use, and every percentile the
simulator reports goes through :func:`repro.simkit.trace.nearest_rank`. This
walks the source so a second sample container or a second percentile
function (a histogram estimate beside the exact one, a private helper in a
report) cannot come back unnoticed.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.simkit.trace import Metrics

SRC = Path(repro.__file__).parent

#: names that make a function a percentile estimator
PERCENTILE_WORDS = ("percentile", "quantile", "nearest_rank")
PERCENTILE_PROPERTIES = {"p50", "p95", "p99"}


def _functions(tree, prefix=""):
    """``(qualified name, node)`` of every function, methods as ``Class.name``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _is_percentile(fn) -> bool:
    """Named for a percentile, a ``p50``-style accessor, or taking a quantile ``q``."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    return (
        any(word in fn.name for word in PERCENTILE_WORDS)
        or fn.name in PERCENTILE_PROPERTIES
        or "q" in params
    )


def test_metrics_has_exactly_the_four_read_fields():
    names = {f.name for f in dataclasses.fields(Metrics)}
    assert names == {"traffic", "counters", "raw", "topo_traffic"}


def test_src_defines_one_percentile_function():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {f"{rel}::{name}" for name, fn in _functions(tree) if _is_percentile(fn)}
    assert found == {"simkit/trace.py::nearest_rank"}
