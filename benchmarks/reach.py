#!/usr/bin/env python3
"""Reach audit: every ``src/repro`` function is entered by a program path.

    python3 benchmarks/reach.py        # or: make reach (~2 min on 2 cores)

A *program path* is something a user or the benchmark harness runs, never a
test: every ``examples/*.py``, every ``python -m repro`` subcommand and
strategy choice at toy sizes, ``benchmarks/suite/run.py --smoke``,
``benchmarks/outcome_digest.py --smoke`` and ``benchmarks/tracked.py``
over the grid rows that follow ``REPRO_BENCH_PROFILE``, at ``quick``. Each
runs in fresh interpreters whose ``PYTHONPATH`` starts with a generated
``sitecustomize``: it installs a ``sys.setprofile`` hook that notes the first
entry of every code object, dumps the ``src/repro`` ones when the process
exits (also through ``os._exit``, as fork-pool workers do, or on the
SIGTERM with which a pool ends its idle workers) and re-arms itself in
forked children.

An AST walk then lists every ``def`` under ``src/repro``, keyed by its first
line (the first decorator's, as ``co_firstlineno`` counts it). A function no
path entered is *unreached*; only the outermost one of a nest counts. The
audit fails on any unreached function missing from
``benchmarks/reach_allowlist.txt``, and on any allowlist entry that a path
now reaches, that no longer exists, or that gives no reason. Each entry is
``repro/<module>.py::<qualname>  <reason>: <detail>``, with the reason one
of ``REASONS``. A function only a test calls has no reason: a program path
that computes the same value calls it, or the test moves onto the public
path and the function goes.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = HERE / "reach_allowlist.txt"

#: why an unreached function may stay: a name the suite ledger patches
#: (ROADMAP item 1(c)), a fault hook the chaos profile is to arm (item 4(d)),
#: an error / cleanup / durability path or one implementation's half of a
#: protocol a program path calls on the others, or a debugging ``__repr__``
REASONS = ("ledger", "fault-hook", "safety", "repr")

BOOTSTRAP = '''\
"""Reach recorder (generated by benchmarks/reach.py): first entry per code object."""
import atexit
import os
import signal
import sys
import threading

_RECORDS = {records!r}
_PACKAGE = {package!r}
_seen = {{}}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code  # holding the code keeps its id unique


def _dump():
    rows = sorted({{
        f"{{c.co_filename}}:{{c.co_firstlineno}}" for c in list(_seen.values())
        if c.co_filename.startswith(_PACKAGE)
    }})
    with open(os.path.join(_RECORDS, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.write("".join(row + "\\n" for row in rows))


def _arm():
    sys.setprofile(_profile)
    threading.setprofile(_profile)


def _rearm_in_child():
    _seen.clear()  # the parent dumps what it saw before the fork
    # a pool that leaves its `with` block terminates its idle workers
    signal.signal(signal.SIGTERM, lambda signum, frame: _dump_then_exit(128 + signum))
    _arm()


_os_exit = os._exit


def _dump_then_exit(status):
    _dump()
    _os_exit(status)


os._exit = _dump_then_exit
os.register_at_fork(after_in_child=_rearm_in_child)
atexit.register(_dump)
_arm()
'''

#: toy cluster flags shared by the scenario subcommands
SMALL = ["--pool", "8", "--image-mib", "64", "--touched-mib", "12"]


def profile_rows():
    """Artifact ids of the grid rows that follow ``REPRO_BENCH_PROFILE``: the
    fixed-size ones add a minute and run point kinds the CLI paths enter."""
    spec = importlib.util.spec_from_file_location("grids", HERE / "grids.py")
    grids = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grids)
    return [r.__name__ for row in grids.GRIDS if row.profile is None for r in row.records]


def program_paths(scratch: Path):
    """``(label, argv, extra env)`` of every program path the audit runs."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    paths = [(f"examples/{p.name}", [py, str(p)], {})
             for p in sorted((ROOT / "examples").glob("*.py"))]
    cli = [
        ["info"],
        ["deploy", "--instances", "4", *SMALL],
        ["deploy", "--instances", "4", "--approach", "qcow2-pvfs", *SMALL],
        ["deploy", "--instances", "4", "--approach", "prepropagation", *SMALL],
        ["snapshot", "--instances", "4", "--diff-mib", "2", *SMALL],
        ["snapshot", "--instances", "4", "--diff-mib", "2",
         "--approach", "qcow2-pvfs", *SMALL],
        ["trace", "--figure", "fig4", "-n", "4", *SMALL,
         "--out", str(scratch / "fig4.trace.json")],
        ["trace", "--figure", "fig5", "-n", "4", "--diff-mib", "2", *SMALL,
         "--out", str(scratch / "fig5.trace.json")],
        ["sweep", "--figure", "fig4", "--profile", "quick",
         "--approach", "mirror", "--jobs", "2"],
        ["faults", "--instances", "8", "--replication", "2", "--crashes", "2"],
        ["faults", "--instances", "8", "--replication", "2", "--crashes", "1",
         "--mttr", "1"],
        ["p2p", "--instances", "4", *SMALL],
        ["p2p", "--instances", "4", "--directory", "rendezvous", *SMALL],
        ["topo"],
        ["topo", "--replication", "2"],
        ["churn"],
        ["churn", "--gc-interval", "0"],
        ["churn", "--policy", "locality", "--p2p"],
        ["lineage"],
        ["lineage", "--merge-keep-every", "4"],
        ["bonnie", "--image-mib", "64", "--working-mib", "16"],
    ]
    small = " ".join(SMALL)
    paths += [(f"repro {' '.join(argv).replace(small, '(toy cluster)')}",
               repro + argv, {}) for argv in cli]
    paths += [
        ("suite run.py --smoke", [py, str(HERE / "suite" / "run.py"), "--smoke"], {}),
        ("outcome_digest.py --smoke", [py, str(HERE / "outcome_digest.py"), "--smoke"], {}),
        ("tracked.py, quick-profile rows", [py, str(HERE / "tracked.py"), *profile_rows()],
         {"REPRO_BENCH_PROFILE": "quick"}),
    ]
    return paths


def run_paths(records: Path) -> None:
    """Run every program path under the recorder; stop at the first failure."""
    with tempfile.TemporaryDirectory(prefix="reach-boot-") as boot:
        Path(boot, "sitecustomize.py").write_text(
            BOOTSTRAP.format(records=str(records), package=str(PACKAGE) + os.sep)
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([boot, str(SRC)]))
        for label, argv, extra in program_paths(Path(boot)):
            t0 = time.monotonic()
            proc = subprocess.run(argv, cwd=ROOT, env={**env, **extra},
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, check=False)
            print(f"  {time.monotonic() - t0:6.1f} s  {label}", flush=True)
            if proc.returncode != 0:
                sys.exit(f"reach: {label} exited {proc.returncode}:\n{proc.stderr}")


def entered(records: Path) -> set:
    """``(path, first line)`` of every code object some process entered."""
    out = set()
    for dump in records.glob("*.txt"):
        for row in dump.read_text().splitlines():
            path, _, line = row.rpartition(":")
            out.add((os.path.realpath(path), int(line)))
    return out


def functions():
    """``{id: (path, first line, lines, outer id)}`` for every def in src/repro."""
    out = {}

    def visit(node, rel, path, scope, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                ident = f"{rel}::{'.'.join(scope + [child.name])}"
                if ident in out:  # a redefinition (property setter): key by line
                    ident = f"{ident}@{first}"
                out[ident] = (path, first, child.end_lineno - first + 1, outer)
                visit(child, rel, path, scope + [child.name], ident)
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, path, scope + [child.name], outer)
            else:
                visit(child, rel, path, scope, outer)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(), str(path)), rel, os.path.realpath(path), [], None)
    return out


def load_allowlist():
    """``{id: reason}``, plus the lines that do not parse."""
    entries, bad = {}, []
    pattern = re.compile(rf"^(\S+)\s+({'|'.join(REASONS)}):\s+(\S.*)$")
    for n, raw in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = pattern.match(line)
        if m is None:
            bad.append(f"{ALLOWLIST.name}:{n}: {line}")
        else:
            entries[m.group(1)] = m.group(2)
    return entries, bad


def audit(records: Path) -> int:
    seen = entered(records)
    defs = functions()
    reached = {i for i, (path, first, _, _) in defs.items() if (path, first) in seen}
    unreached = {
        i for i, (_, _, _, outer) in defs.items()
        if i not in reached and (outer is None or outer in reached)
    }
    allow, bad = load_allowlist()
    missing = sorted(unreached - allow.keys())
    stale = sorted(allow.keys() - unreached)
    lines = sum(defs[i][2] for i in unreached)
    by_reason = {r: sum(1 for i in unreached if allow.get(i) == r) for r in REASONS}
    print(f"reach: {len(reached)} of {len(defs)} src/repro functions entered; "
          f"{len(unreached)} outermost unreached ({lines} lines): "
          + ", ".join(f"{r} {k}" for r, k in by_reason.items()))
    for i in missing:
        print(f"unreached, not allowlisted: {i}")
    for i in stale:
        why = ("no longer exists" if i not in defs else
               "now reached" if i in reached else "inside an unreached function")
        print(f"allowlisted but {why}: {i}")
    for line in bad:
        print(f"allowlist line without a valid reason ({'/'.join(REASONS)}): {line}")
    return 1 if missing or stale or bad else 0


def main() -> int:
    records = Path(tempfile.mkdtemp(prefix="reach-records-"))
    try:
        run_paths(records)
        return audit(records)
    finally:
        shutil.rmtree(records, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
