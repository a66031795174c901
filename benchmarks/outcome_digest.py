#!/usr/bin/env python3
"""Outcome digest of one suite workload, without the engine half.

    python3 benchmarks/outcome_digest.py --workload W --seed N [--smoke]
    python3 benchmarks/outcome_digest.py --smoke --expect benchmarks/outcome_digests.json

``sim_digest`` of the benchmark suite hashes the simulated outcome *and* the
event count, so a change that spends fewer events on the same timeline moves
it. This tool runs one workload of ``benchmarks/suite/workloads.py`` (imported
read-only, untraced, in this process) and prints the event count, the four
``sim_*`` values and the SHA-256 of the suite's ``outcome`` dict minus its
``events`` key — latency series, counters, traffic by kind, completion and
the workload summary. Two trees that print the same ``outcome_digest`` for a
workload and seed simulate the same cloud, whatever their event counts.

Without ``--workload`` every workload of the suite runs in turn. The last
line is one JSON object keyed by workload.

``--expect FILE`` compares what ran with such an object saved earlier and
exits 1 on any difference. ``benchmarks/outcome_digests.json`` holds the
``--smoke`` values of seed 1 (``make outcome-digest`` and CI check against
it); a change that means to move a simulated outcome re-records it in the
same commit:

    python3 benchmarks/outcome_digest.py --smoke | tail -1 \
        | python3 -m json.tool --sort-keys > benchmarks/outcome_digests.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "suite")]

import workloads  # noqa: E402  (benchmarks/suite/workloads.py)


def run_workload(name: str, seed: int, smoke: bool = False) -> dict:
    """One untraced run of ``name``; the values described above."""
    captured = {}
    digest_of = workloads.digest_of

    def capture(outcome):
        captured.update(outcome)
        return digest_of(outcome)

    workload = workloads.WORKLOADS[name](smoke=smoke)
    workload.build(seed)
    workload.prepare()
    workload.mark_start()
    workload.run()
    workload.mark_end()
    # collect() hands the outcome to the module-level digest_of and keeps
    # only the hash; borrow the dict on its way through
    workloads.digest_of = capture
    try:
        result = workload.collect()
    finally:
        workloads.digest_of = digest_of
    events = captured.pop("events")
    return {
        "events": events,
        **result["sim"],
        "outcome_digest": digest_of(captured),
        "sim_digest": result["digest"],
    }


#: what ``--expect`` compares, per workload
COMPARED = (
    "events", "sim_op_p50_s", "sim_op_p95_s", "sim_traffic_gib", "sim_stored_mib",
    "outcome_digest",
)


def differences(expected: dict, got: dict) -> list:
    """One line per compared value of ``got`` that ``expected`` does not repeat."""
    lines = []
    for name, res in got.items():
        want = expected.get(name)
        if want is None:
            lines.append(f"{name}: not in the expected file")
            continue
        lines += [
            f"{name}: {key} expected {want.get(key)!r}, got {res[key]!r}"
            for key in COMPARED if want.get(key) != res[key]
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="toy sizes")
    parser.add_argument("--expect", metavar="FILE",
                        help="exit 1 unless the values equal the ones saved in FILE")
    args = parser.parse_args(argv)
    expected = None
    if args.expect:
        with open(args.expect, encoding="utf-8") as fh:
            expected = json.load(fh)

    out = {}
    for name in args.workload or list(workloads.WORKLOADS):
        res = out[name] = run_workload(name, args.seed, args.smoke)
        print(
            f"{name:<16} seed {args.seed}  events {res['events']:>9}  "
            f"p50 {res['sim_op_p50_s']!r}  p95 {res['sim_op_p95_s']!r}  "
            f"traffic_gib {res['sim_traffic_gib']!r}  "
            f"stored_mib {res['sim_stored_mib']!r}  "
            f"outcome_digest {res['outcome_digest'][:16]}",
            flush=True,
        )
    print(json.dumps(out, sort_keys=True))
    if expected is not None:
        diff = differences(expected, out)
        for line in diff:
            print(f"OUTCOME MOVED  {line}", file=sys.stderr)
        if diff:
            return 1
        print(f"outcomes equal {args.expect} ({len(out)} workloads)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
