"""``benchmarks/outcome_digest.py --expect``: the committed outcomes are checked.

One toy-size workload runs against ``benchmarks/outcome_digests.json`` in
tier 1 (``make outcome-digest`` runs all four), and a doctored file must be
refused with a per-value diff.
"""

import json
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import outcome_digest  # noqa: E402

EXPECTED = BENCHMARKS / "outcome_digests.json"
WORKLOAD = "snapshot-256"


def test_committed_file_covers_every_workload_and_compared_value():
    expected = json.loads(EXPECTED.read_text())
    assert sorted(expected) == sorted(outcome_digest.workloads.WORKLOADS)
    for values in expected.values():
        assert set(outcome_digest.COMPARED) <= set(values)


def test_smoke_outcome_equals_the_committed_one(capsys):
    argv = ["--smoke", "--workload", WORKLOAD, "--expect", str(EXPECTED)]
    assert outcome_digest.main(argv) == 0
    assert "outcomes equal" in capsys.readouterr().err


def test_moved_outcome_exits_1_with_a_diff(tmp_path, capsys):
    doctored = json.loads(EXPECTED.read_text())
    doctored[WORKLOAD]["events"] += 1
    doctored[WORKLOAD]["sim_op_p95_s"] *= 2
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    assert outcome_digest.main(["--smoke", "--workload", WORKLOAD, "--expect", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{WORKLOAD}: events expected" in err and f"{WORKLOAD}: sim_op_p95_s expected" in err
    assert "outcome_digest expected" not in err  # the values that did not move stay quiet


def test_workload_missing_from_the_file_is_a_difference():
    got = {"new-workload": dict.fromkeys(outcome_digest.COMPARED, 0)}
    assert outcome_digest.differences({}, got) == ["new-workload: not in the expected file"]
