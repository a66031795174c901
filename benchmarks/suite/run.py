#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds T --trace 0|1
    python3 benchmarks/suite/run.py [--workload W]... [--trace both] [--out F]
    python3 benchmarks/suite/run.py --compare A.json B.json
    python3 benchmarks/suite/run.py --smoke

Every repetition runs in a fresh ``python`` child (``child.py``), strictly
one at a time. ``--trace 0`` measures the end-to-end metrics untraced and
reports host metrics as the median over the repetitions; ``--trace 1`` runs
one untraced, one host-traced and one sim-traced repetition and reports the
per-layer ledger. ``BENCHMARK.json`` declares every metric name and unit;
emitting an undeclared name, or missing a declared one, is an error. Host
time is what the simulator takes, in CPU seconds of the child (the shared
sandbox steals wall-clock time, not CPU time; wall seconds and the stolen
share are printed beside them); ``sim_*`` is what the modelled cloud takes.
See README.md in this directory for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST_PATH = ROOT / "BENCHMARK.json"

#: host metrics: one sample per repetition, reported as the median
HOST_METRICS = ("setup_s", "cpu_s", "peak_rss_mib")
#: fewest untraced repetitions per invocation, whatever --seconds says
MIN_REPS = 3
MAX_REPS = 9
#: ... unless the next one would end past this many wall-clock seconds: the
#: driver allows 3420 s for 92 invocations, and on the shared sandbox a
#: noisy neighbour can stretch a repetition severalfold. The printed R shows
#: when an invocation was cut short.
WALL_ALLOWANCE_S = 30.0
#: a repetition that lost more than this share of its wall time is disturbed
MAX_STEAL = 0.1
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def load_manifest() -> dict:
    with open(MANIFEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------- #
# children
# ---------------------------------------------------------------------- #
def spawn(workload: str, seed: int, mode: str = "untraced", smoke: bool = False,
          bare: bool = False, spans: str | None = None) -> dict:
    """Run one repetition in a fresh interpreter; returns the child's JSON."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if smoke:
        cmd.append("--smoke")
    if bare:
        cmd.append("--bare")
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} ({mode}) child exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values) -> dict:
    """Median, quartiles and range of one host metric over the repetitions."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def steal_share(host: dict) -> float:
    """1 - CPU seconds / wall seconds of the timed region."""
    return 1.0 - host["cpu_s"] / host["wall_s"]


# ---------------------------------------------------------------------- #
# end to end (untraced)
# ---------------------------------------------------------------------- #
def measure(workload: str, seed: int, seconds: float = 0.0, repeats: int = 0,
            smoke: bool = False) -> dict:
    """Untraced repetitions of one workload -> end-to-end metrics.

    Repeats until ``seconds`` CPU seconds of timed region have been measured
    (at least MIN_REPS and at most MAX_REPS times, within WALL_ALLOWANCE_S),
    or exactly ``repeats`` times.
    """
    manifest = load_manifest()
    reps = []
    started = time.monotonic()
    while True:
        reps.append(spawn(workload, seed, smoke=smoke))
        n = len(reps)
        timed = sum(r["host"]["cpu_s"] for r in reps)
        spent = time.monotonic() - started
        if repeats:
            if n >= repeats:
                break
        elif (
            n >= MAX_REPS
            or (n >= MIN_REPS and timed + timed / n > seconds)
            or spent + spent / n > WALL_ALLOWANCE_S
        ):
            break

    first = reps[0]
    for rep in reps[1:]:
        if rep["digest"] != first["digest"] or rep["sim"] != first["sim"]:
            raise BenchError(
                f"{workload}: simulated outcome differs between repetitions "
                f"of seed {seed} ({first['digest'][:12]} vs {rep['digest'][:12]})"
            )

    end_to_end = {}
    for name in HOST_METRICS:
        end_to_end[name] = summarize(r["host"][name] for r in reps)
    for name, value in first["sim"].items():
        end_to_end[name] = summarize([value] * len(reps))
    declared = {m["name"]: m for m in manifest["end_to_end"]}
    if set(end_to_end) != set(declared):
        raise BenchError(
            "end-to-end metrics differ from BENCHMARK.json: "
            f"{sorted(set(end_to_end) ^ set(declared))}"
        )
    for name, stats in end_to_end.items():
        stats["unit"] = declared[name]["unit"]

    steals = [steal_share(r["host"]) for r in reps]
    violations = sorted({v for r in reps for v in r["violations"]})
    return {
        "workload": workload,
        "seed": seed,
        "reps": len(reps),
        "end_to_end": end_to_end,
        "sim_digest": first["digest"],
        "op": first["op"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "violations": violations,
        "correct": not violations,
        "wall_s": summarize(r["host"]["wall_s"] for r in reps),
        "steal_share": summarize(steals),
        "disturbed": [s > MAX_STEAL for s in steals],
    }


# ---------------------------------------------------------------------- #
# per layer (traced)
# ---------------------------------------------------------------------- #
def trace(workload: str, seed: int, smoke: bool = False,
          spans: str | None = None) -> dict:
    """One untraced, one host-traced and one sim-traced repetition.

    Both traced repetitions must reproduce the untraced ``sim_digest``:
    tracing observes the run, it never changes the simulated outcome.
    """
    manifest = load_manifest()
    plain = spawn(workload, seed, smoke=smoke, bare=True)
    host = spawn(workload, seed, mode="host", smoke=smoke, spans=spans)
    sim = spawn(workload, seed, mode="sim", smoke=smoke)
    for traced in (host, sim):
        if traced["digest"] != plain["digest"]:
            raise BenchError(
                f"{workload}: {traced['mode']}-traced run changed the simulated "
                f"outcome ({plain['digest'][:12]} -> {traced['digest'][:12]})"
            )

    cpu = plain["host"]["cpu_s"]
    ledger = host["ledger"]
    values = dict(plain["counters"])
    self_s = dict(ledger["self_s"])
    outside = self_s.pop("bench.driver")
    for layer, seconds in self_s.items():
        values[f"{layer}.calls"] = ledger["calls"][layer]
        values[f"{layer}.host_self_s"] = seconds
    for layer, share in sim["obs"]["shares"].items():
        values[f"{layer}.sim_share_op"] = share
    sweeps = values["blobseer.gc.sweeps"]
    values.update({
        "simkit.core.events_per_s": values["simkit.core.events"] / cpu,
        "simkit.core.bare_events_per_s": plain["bare_events_per_s"],
        "simkit.network.transfers": ledger["transfers"],
        "simkit.network.messages": ledger["messages"],
        "simkit.network.peak_active_flows": ledger["peak_active_flows"],
        "blobseer.gc.host_s_per_sweep": (
            self_s["blobseer.gc"] / sweeps if sweeps else 0.0
        ),
        "churn.engine.requests_per_s": values["churn.engine.requests"] / cpu,
        "cloud.import_host_s": plain["host"]["import_s"],
        "cloud.build_host_s": plain["host"]["build_s"],
        "cloud.seed_host_s": plain["host"]["seed_s"],
        "obs.spans": sim["obs"]["spans"],
        "obs.overhead_x": sim["host"]["cpu_s"] / cpu,
        "obs.op_coverage": sim["obs"]["coverage"],
        "bench.trace_overhead_x": host["host"]["cpu_s"] / cpu,
        "bench.attributed_share": 1.0 - outside / (outside + sum(self_s.values())),
        "bench.wall_s": plain["host"]["wall_s"],
        "bench.setup_wall_s": plain["host"]["setup_wall_s"],
        "bench.steal_share": steal_share(plain["host"]),
        "bench.failed_share": plain["failed"] / plain["attempted"],
    })

    declared = {m["name"]: m for m in manifest["per_layer"]}
    if set(values) != set(declared):
        raise BenchError(
            "per-layer metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    violations = sorted(
        {v for r in (plain, host, sim) for v in r["violations"]}
    )
    return {
        "workload": workload,
        "seed": seed,
        "per_layer": {
            name: {"value": values[name], "unit": declared[name]["unit"]}
            for name in declared
        },
        "sim_digest": plain["digest"],
        "sim_root": sim["obs"]["root"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "violations": violations,
        "correct": not violations,
        "spans_written": ledger.get("spans_written"),
    }


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #
def print_end_to_end(res: dict) -> None:
    op = res["op"]
    print(
        f"\n== {res['workload']}  seed {res['seed']}  R = {res['reps']} "
        f"untraced repetitions, fresh interpreter each =="
    )
    print(
        f"{'metric':<18}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'min':>12}{'max':>12}{'R':>4}"
    )
    for name, s in res["end_to_end"].items():
        print(
            f"{name:<18}{s['unit']:<6}{s['median']:>12.4f}{s['q1']:>12.4f}"
            f"{s['q3']:>12.4f}{s['min']:>12.4f}{s['max']:>12.4f}{s['n']:>4}"
        )
    st, wall = res["steal_share"], res["wall_s"]
    flags = "".join("D" if d else "." for d in res["disturbed"])
    print(
        f"wall_s median {wall['median']:.4f} [{wall['q1']:.4f}, {wall['q3']:.4f}]; "
        f"bench.steal_share median {st['median']:.4f} (max {st['max']:.4f}); "
        f"disturbed repetitions [{flags}]"
    )
    print(
        f"sim_op = {op['name']}: {op['samples']} samples, "
        f"{op['beyond_p95']} beyond p95; sim_* identical in all {res['reps']} "
        f"repetitions; sim_digest {res['sim_digest']}"
    )
    print_verdict(res)


def print_per_layer(res: dict) -> None:
    print(
        f"\n== {res['workload']}  seed {res['seed']}  per-layer ledger "
        f"(1 untraced + 1 host-traced + 1 sim-traced repetition) =="
    )
    print(f"sim_share_op root: {res['sim_root']}; sim_digest {res['sim_digest']} "
          "reproduced by both traced runs")
    for name, m in res["per_layer"].items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40}{shown:>16} {m['unit']}")
    print_verdict(res)


def print_verdict(res: dict) -> None:
    share = res["failed"] / res["attempted"]
    print(
        f"failed {res['failed']} / attempted {res['attempted']} "
        f"(failed_share {share:.4f}); checks "
        + ("passed" if res["correct"] else "VIOLATED: " + "; ".join(res["violations"]))
    )


def contract_line(res: dict, section: str) -> str:
    """The driver's result object: the last line of standard output."""
    metrics = {
        name: {
            "value": m["median"] if section == "end_to_end" else m["value"],
            "unit": m["unit"],
        }
        for name, m in res[section].items()
    }
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics,
    })


# ---------------------------------------------------------------------- #
# --compare
# ---------------------------------------------------------------------- #
def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def classify(a: dict, b: dict, better: str, bound: float, disturbed: bool) -> str:
    """Verdict for one (workload, metric) row; ``a`` is the base.

    A noisy metric must move by more than its bound either way; a metric
    that repeats exactly (``sim_*``) improves on any gain but still regresses
    only past the bound. Where the run-to-run spread of either side is wider
    than the bound, or a side was disturbed, the row is unresolved.
    """
    if not a["median"]:
        return "unresolved"
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    noise = max(spread(a), spread(b))
    if noise > bound or disturbed:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > (bound if noise > 0 else 0.0):
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    manifest = load_manifest()
    declared = {m["name"]: m for m in manifest["end_to_end"]}
    with open(path_a, encoding="utf-8") as fh:
        a_all = json.load(fh)["results"]
    with open(path_b, encoding="utf-8") as fh:
        b_all = json.load(fh)["results"]
    regressed = 0
    print(f"base A = {path_a}\n     B = {path_b}")
    print(
        f"{'workload':<17}{'metric':<17}{'A median [q1, q3]':>36}"
        f"{'B median [q1, q3]':>36}{'B/A':>8}  verdict"
    )
    for workload in a_all:
        if workload not in b_all:
            continue
        a, b = a_all[workload], b_all[workload]
        disturbed_all = (
            a["steal_share"]["median"] > MAX_STEAL
            or b["steal_share"]["median"] > MAX_STEAL
        )
        for name, meta in declared.items():
            sa, sb = a["end_to_end"][name], b["end_to_end"][name]
            host = name in HOST_METRICS
            verdict = classify(
                sa, sb, meta["better"], meta["bound"], host and disturbed_all
            )
            regressed += verdict == "regressed"
            ratio = sb["median"] / sa["median"] if sa["median"] else float("nan")

            def cell(s):
                return f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"

            print(
                f"{workload:<17}{name:<17}{cell(sa):>36}{cell(sb):>36}"
                f"{ratio:>8.3f}  {verdict}"
            )
        same = a["sim_digest"] == b["sim_digest"]
        print(
            f"{workload:<17}sim_digest {'identical' if same else 'changed'}; "
            f"failed A {a['failed']}/{a['attempted']}, "
            f"B {b['failed']}/{b['attempted']}"
        )
    print(f"{regressed} regressed row(s)")
    return 1 if regressed else 0


# ---------------------------------------------------------------------- #
# --smoke
# ---------------------------------------------------------------------- #
def smoke() -> int:
    """All four workloads at toy size in all three modes, with self-checks."""
    manifest = load_manifest()
    t0 = time.monotonic()
    for w in manifest["workloads"]:
        name = w["name"]
        e2e = measure(name, seed=1, repeats=1, smoke=True)
        layers = trace(name, seed=1, smoke=True)  # raises on digest drift
        values = {k: m["value"] for k, m in layers["per_layer"].items()}
        problems = list(e2e["violations"]) + list(layers["violations"])
        if e2e["sim_digest"] != layers["sim_digest"]:
            problems.append("sim_digest differs between invocations")
        if values["bench.failed_share"] * e2e["attempted"] != e2e["failed"]:
            problems.append("failed_share arithmetic")
        if any(not m["unit"] for m in layers["per_layer"].values()):
            problems.append("a metric has no unit")
        if values["bench.attributed_share"] < 0.9:
            problems.append("ledger attributes under 90 % of the timed region")
        print(
            f"smoke {name:<16} cpu {e2e['end_to_end']['cpu_s']['median']:.3f} s, "
            f"{len(e2e['end_to_end'])} + {len(values)} metrics, "
            f"trace overhead x{values['bench.trace_overhead_x']:.2f}: "
            + ("ok" if not problems else "; ".join(problems))
        )
        if problems:
            return 1
    print(f"smoke passed in {time.monotonic() - t0:.1f} s")
    return 0


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds build_cloud and through it boot traces, "
                             "diffs and arrival traces (default 1)")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="timed CPU seconds to measure per workload "
                             f"(at least {MIN_REPS} repetitions)")
    parser.add_argument("--repeats", type=int, default=0,
                        help="exactly this many untraced repetitions instead")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics; 1: per-layer ledger; both")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--spans", metavar="DIR",
                        help="with --trace 1/both: write the host-traced run's "
                             "boundary spans as DIR/<workload>.spans.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()

    results = {}
    ok = True
    last = ""
    for name in args.workload or names:
        res = {}
        if args.trace in ("0", "both"):
            res = measure(name, args.seed, args.seconds, args.repeats)
            print_end_to_end(res)
            last = contract_line(res, "end_to_end")
        if args.trace in ("1", "both"):
            spans = None
            if args.spans:
                os.makedirs(args.spans, exist_ok=True)
                spans = os.path.join(args.spans, f"{name}.spans.jsonl")
            layers = trace(name, args.seed, spans=spans)
            print_per_layer(layers)
            last = contract_line(layers, "per_layer")
            if res:
                if res["sim_digest"] != layers["sim_digest"]:
                    raise BenchError(f"{name}: sim_digest differs between runs")
                res["per_layer"] = layers["per_layer"]
                res["violations"] = sorted(
                    set(res["violations"]) | set(layers["violations"])
                )
                res["correct"] = not res["violations"]
            else:
                res = layers
        ok = ok and res["correct"]
        results[name] = res
        print(last, flush=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "machine": {
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                },
                "seed": args.seed,
                "results": results,
            }, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
