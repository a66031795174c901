"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, strictly one at a time, so
``import repro`` — which users pay on every CLI run — lands in ``setup_s``
and ``ru_maxrss`` is the true per-repetition peak. Host times are CPU seconds
of this process; wall-clock seconds ride along as ``wall_s``. The last line written to
standard output is one JSON object (see :func:`main`).

Modes: ``untraced`` (what end-to-end numbers come from), ``host`` (the
ledger's timing wrappers installed: where host time goes) and ``sim``
(``repro.obs`` tracer installed: where simulated time goes).
"""

import time

_T_ENTER = time.monotonic()  # before the heavy imports, on purpose

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: repro.obs span category -> the layer whose simulated time it is. The
#: attribution is deepest-cover, so the meta / chunk / p2p categories, whose
#: spans always wrap an rpc span, never own an instant and are left out.
CATEGORY_LAYER = {
    "net": "simkit.network",
    "rpc": "simkit.rpc",
    "rpc-server": "simkit.rpc",
    "vfs": "core.vfs",
    "snapshot": "core.vfs",
    "cpu": "vmsim.hypervisor",
    "vm": "vmsim.hypervisor",
}
SIM_SHARE_LAYERS = tuple(dict.fromkeys(CATEGORY_LAYER.values()))

#: timeouts in the bare event loop that normalises for machine speed
BARE_EVENTS = 200_000


def bare_events_per_s() -> float:
    """Events/s of an empty ``Environment`` loop: the machine-speed yardstick."""
    from repro.simkit.core import Environment

    env = Environment()

    def ticker():
        for _ in range(BARE_EVENTS):
            yield env.timeout(1.0)

    env.process(ticker())
    t0 = time.perf_counter()
    env.run()
    return env.event_count / (time.perf_counter() - t0)


def sim_ledger(tracer, op: str) -> dict:
    """Simulated-time shares of the p95 operation's span, by layer."""
    from repro import obs
    from workloads import nearest_rank

    tracer.finish_open_spans()
    spans = tracer.spans
    pick = obs.snapshot_spans if op == "snapshot" else obs.boot_spans
    roots = [s for s in pick(spans) if s.t1 > s.t0]
    p95, _ = nearest_rank([s.duration for s in roots], 0.95)
    root = next(s for s in roots if s.duration == p95)
    # obs.attribute scans every span it is given; hand it the subtree only
    children = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    subtree, frontier = [], [root]
    while frontier:
        span = frontier.pop()
        subtree.append(span)
        frontier.extend(children.get(span.span_id, ()))
    shares = dict.fromkeys(SIM_SHARE_LAYERS, 0.0)
    for category, seconds in obs.category_breakdown(root, subtree).items():
        layer = CATEGORY_LAYER.get(category)
        if layer is not None:
            shares[layer] += seconds / root.duration
    return {
        "spans": len(spans),
        "root": root.name,
        "coverage": obs.coverage(root, subtree),
        "shares": shares,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "host", "sim"),
                        default="untraced")
    parser.add_argument("--t0", type=float, default=_T_ENTER,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bare", action="store_true",
                        help="also time the bare event loop (after the run)")
    parser.add_argument("--spans", help="host mode: write boundary spans as JSONL")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    # set-up is accounted in CPU seconds of this process since it started
    # (interpreter start-up and imports included): on the shared sandbox the
    # hypervisor steals whole seconds of wall time, never of CPU time
    cpu_imported = time.process_time()
    ledger = None
    if args.mode == "host":
        from ledger import Ledger

        ledger = Ledger(spans=args.spans is not None).install()

    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    workload.build(args.seed)
    cpu_built = time.process_time()
    workload.prepare()
    cpu_prepared = time.process_time()
    tracer = None
    if args.mode == "sim":
        from repro import obs

        tracer = obs.install_tracer(workload.cloud.fabric)
    workload.mark_start()
    gc.collect()
    if ledger is not None:
        ledger.env = workload.cloud.env
        ledger.reset()

    # ---- the timed region ------------------------------------------- #
    cpu_start = time.process_time()
    t_start = time.monotonic()
    workload.run()
    t_end = time.monotonic()
    cpu_s = time.process_time() - cpu_start
    # ----------------------------------------------------------------- #
    if ledger is not None:
        ledger.flush()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.mark_end()
    result = workload.collect()
    violations, found_failed = workload.check()
    result["violations"] += violations
    result["failed"] += found_failed
    result.update(
        workload=args.workload, seed=args.seed, mode=args.mode,
        host={
            "setup_s": cpu_start,
            "cpu_s": cpu_s,
            "peak_rss_mib": peak_rss_mib,
            "setup_wall_s": t_start - args.t0,
            "wall_s": t_end - t_start,
            "import_s": cpu_imported,
            "build_s": cpu_built - cpu_imported,
            "seed_s": cpu_prepared - cpu_built,
        },
    )
    if ledger is not None:
        result["ledger"] = {
            "self_s": ledger.layer_self_s(),
            "calls": ledger.layer_calls(),
            "transfers": ledger.calls_of("FlowNetwork.transfer"),
            "messages": ledger.calls_of("FlowNetwork.message"),
            "peak_active_flows": ledger.peak_active_flows,
        }
        if args.spans:
            result["ledger"]["spans_written"] = ledger.write_spans_jsonl(args.spans)
        ledger.uninstall()
    if tracer is not None:
        result["obs"] = sim_ledger(tracer, workload.op)
    if args.bare:
        result["bare_events_per_s"] = bare_events_per_s()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
