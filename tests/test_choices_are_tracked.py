"""Every strategy a user can pick is one a tracked artifact measures.

A ``choices=`` value of the CLI is a second code path. It earns its place
the way the paper's mirror does against its baselines: by a committed
comparison. So every choice must be a series, point or group label of some
``benchmarks/results/*.json``, or a prefix of one's ``figure_id`` (``fig4``
names ``fig4a``-``fig4d``). A choice no artifact measures is deleted, not
listed here. The runs ``make reach`` drives are held to the same rule, so a
strategy cannot stay reached by a hand-written argument list alone.
"""

import argparse
import importlib.util
import json
from pathlib import Path

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

#: choices that stay although their tracked comparison shows them losing,
#: each with the reason
EXCEPTIONS = {
    "rendezvous": "benchmarks/suite/ledger.py patches RendezvousDirectory "
                  "by name; it loses both p2p grids to announce and goes "
                  "with the benchmark PR (ROADMAP item 1)",
}


def _tracked_names():
    names = set()
    for path in RESULTS.glob("*.json"):
        data = json.loads(path.read_text())
        figure = data["figure_id"]
        names |= {figure[:i] for i in range(1, len(figure) + 1)}
        for key in ("series", "points", "groups"):
            names |= set(data.get(key, ()))
    return names


def _choice_actions(parser):
    """``(command, action)`` of every option with ``choices`` in the CLI."""
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, sub in commands.items():
        for action in sub._actions:
            if action.choices is not None and action.option_strings:
                yield command, action


def _untracked(values):
    tracked = _tracked_names()
    return sorted(v for v in values if v not in tracked and v not in EXCEPTIONS)


def test_every_cli_choice_is_tracked():
    values = {v for _c, action in _choice_actions(build_parser())
              for v in action.choices}
    assert set(EXCEPTIONS) <= values, "an exception names a choice that is gone"
    assert _untracked(values) == []


def test_every_choice_the_reach_audit_runs_is_tracked(tmp_path):
    spec = importlib.util.spec_from_file_location("reach", REPO / "benchmarks" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    flags = {(command, flag) for command, action in _choice_actions(build_parser())
             for flag in action.option_strings}
    given = set()
    for _label, argv, _env in reach.program_paths(tmp_path):
        if argv[1:3] == ["-m", "repro"]:
            command, rest = argv[3], argv[4:]
            given |= {value for flag, value in zip(rest, rest[1:])
                      if (command, flag) in flags}
    assert _untracked(given) == []
