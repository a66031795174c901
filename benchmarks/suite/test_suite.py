"""Tests of the benchmark harness itself (``pytest benchmarks/suite``).

Not part of the tier-1 ``testpaths``: they guard the measuring instrument,
not the program.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import ledger as ledger_mod  # noqa: E402
import run as suite  # noqa: E402
import workloads  # noqa: E402
from ledger import LAYERS, GenProxy, Ledger  # noqa: E402
from repro.common.errors import InterruptedError_  # noqa: E402
from repro.simkit.core import Environment  # noqa: E402

NET = LAYERS.index("simkit.network")
RPC = LAYERS.index("simkit.rpc")


class FakeClock:
    """Advances one second per reading, so self times are exact integers."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


# ---------------------------------------------------------------------- #
# generator proxy
# ---------------------------------------------------------------------- #
def chatty(log):
    """A generator exercising every way a caller can drive it."""
    total = 0
    try:
        while True:
            try:
                got = yield total
            except KeyError as exc:
                log.append(f"caught {exc!r}")
                got = 100
            if got is None:
                continue
            if got < 0:
                return f"done at {total}"
            total += got
    finally:
        log.append("finally")


def drive(gen, script):
    """Apply (method, arg) steps; the transcript of outcomes."""
    out = []
    for method, arg in script:
        try:
            out.append(("value", getattr(gen, method)(*arg)))
        except BaseException as exc:  # noqa: BLE001 - transcript, re-checked
            out.append(("raised", type(exc).__name__, str(getattr(exc, "value", exc))))
    return out


SCRIPTS = {
    "send-return": [("__next__", ()), ("send", (2,)), ("send", (3,)), ("send", (-1,)),
                    ("send", (1,))],
    "throw-caught": [("__next__", ()), ("throw", (KeyError("k"),)), ("send", (1,))],
    "throw-uncaught": [("__next__", ()), ("throw", (ValueError("boom"),)),
                       ("__next__", ())],
    "early-close": [("__next__", ()), ("send", (5,)), ("close", ()), ("__next__", ())],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_proxy_matches_bare_generator(name):
    bare_log, proxy_log = [], []
    bare = drive(chatty(bare_log), SCRIPTS[name])
    proxied = drive(
        GenProxy(Ledger(), chatty(proxy_log), NET, -1, False), SCRIPTS[name]
    )
    assert proxied == bare
    assert proxy_log == bare_log


def test_proxy_is_transparent_to_yield_from():
    def outer(inner):
        got = yield from inner
        return f"outer saw {got}"

    log = []
    bare = drive(outer(chatty(log)), SCRIPTS["send-return"])
    proxied = drive(
        outer(GenProxy(Ledger(), chatty(log), NET, -1, False)),
        SCRIPTS["send-return"],
    )
    assert proxied == bare


def _interrupt_scenario(wrap):
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10.0)
            return "slept"
        except InterruptedError_ as exc:
            log.append((env.now, exc.cause))
            yield env.timeout(0.5)
            return "interrupted"

    def killer(victim):
        yield env.timeout(1.0)
        victim.interrupt("stop")

    victim = env.process(wrap(sleeper()))
    env.process(killer(victim))
    return env.run(victim), env.now, env.event_count, log


def test_proxy_under_process_interrupt():
    led = Ledger()
    bare = _interrupt_scenario(lambda g: g)
    proxied = _interrupt_scenario(lambda g: GenProxy(led, g, RPC, -1, False))
    assert proxied == bare == ("interrupted", 1.5, bare[2], [(1.0, "stop")])


# ---------------------------------------------------------------------- #
# ledger accounting
# ---------------------------------------------------------------------- #
def test_self_time_excludes_nested_layers():
    led = Ledger(clock=FakeClock())

    def inner():
        return "x"

    inner_w = led._wrap(inner, NET, 0)

    def outer():
        return inner_w() + inner_w()

    outer_w = led._wrap(outer, RPC, 1)
    led.reset()
    assert outer_w() == "xx"
    led.flush()
    self_s = led.layer_self_s()
    # fake clock: one tick between any two consecutive readings
    assert self_s["simkit.network"] == 2.0      # two calls, one tick each
    assert self_s["simkit.rpc"] == 3.0          # before, between, after
    assert led.ncalls[:2] == [2, 1]
    assert sum(self_s.values()) == led.clock.t - 2.0  # every tick since reset()


def test_generator_resumptions_are_charged_to_the_layer():
    led = Ledger(clock=FakeClock())

    def work():
        yield 1
        yield 2
        return 3

    work_w = led._wrap(work, NET, 0)
    led.reset()
    gen = work_w()
    assert isinstance(gen, GenProxy)
    assert drive(gen, [("__next__", ())] * 3) == [
        ("value", 1), ("value", 2), ("raised", "StopIteration", "3"),
    ]
    led.flush()
    # creation + three resumptions, one tick each
    assert led.layer_self_s()["simkit.network"] == 4.0


def test_spawned_process_is_charged_to_the_spawning_layer():
    led = Ledger(spans=True).install()
    try:
        env = led.env = Environment()
        seen = []

        def helper():  # private helper: not a wrapped callable
            seen.append(led.state[1])
            yield env.timeout(1.0)
            seen.append(led.state[1])

        def public():
            yield env.process(helper())

        public_w = led._wrap(public, RPC, led.names.index("call"))
        env.process(public_w())
        env.run()
        assert seen == [RPC, RPC]
    finally:
        led.uninstall()
    spans = list(led.span_dicts())
    by_name = {s["name"]: s for s in spans}
    # Environment.process inside `public` is caused by the `call` span,
    # which is its own root; all spans closed with simulated times
    assert by_name["call"]["root"] == by_name["call"]["id"]
    inner = [s for s in spans if s["parent"] == by_name["call"]["id"]]
    assert [s["name"] for s in inner] == ["Environment.process"]
    assert all(s["host_t1"] is not None for s in spans)
    assert by_name["call"]["sim_t1"] == 1.0


def test_install_and_uninstall_restore_every_attribute():
    import repro.blobseer.client as client
    import repro.blobseer.gc as gc_mod
    import repro.blobseer.metadata as metadata
    import repro.churn.engine as engine
    import repro.cloud as cloud
    from repro.simkit.core import Environment as Env
    from repro.simkit.network import FlowNetwork

    before = {
        "run": vars(Env)["run"],
        "transfer": vars(FlowNetwork)["transfer"],
        "write_chunks": metadata.write_chunks,
        "collect_garbage": gc_mod.collect_garbage,
        "deploy": cloud.deploy,
    }
    # imported by name into other modules
    assert client.write_chunks is before["write_chunks"]
    assert engine.collect_garbage is before["collect_garbage"]

    led = Ledger().install()
    try:
        assert vars(Env)["run"] is not before["run"]
        assert vars(Env)["run"].__wrapped__ is before["run"]
        assert metadata.write_chunks.__wrapped__ is before["write_chunks"]
        assert client.write_chunks is metadata.write_chunks
        assert engine.collect_garbage is gc_mod.collect_garbage
        assert cloud.deploy is cloud.deployment.deploy
        with pytest.raises(RuntimeError):
            led.install()
    finally:
        led.uninstall()
    assert vars(Env)["run"] is before["run"]
    assert vars(FlowNetwork)["transfer"] is before["transfer"]
    assert metadata.write_chunks is client.write_chunks is before["write_chunks"]
    assert engine.collect_garbage is gc_mod.collect_garbage is before["collect_garbage"]
    assert cloud.deploy is cloud.deployment.deploy is before["deploy"]


def test_every_target_exists_and_is_public():
    names = [qual for layer in LAYERS for _, qual in ledger_mod.TARGETS[layer]]
    assert len(names) == len(set(names))
    assert not [n for n in names if n.split(".")[-1].startswith("_")]
    Ledger().install().uninstall()  # raises if a target is missing


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def test_nearest_rank_reports_samples_beyond():
    values = list(range(1, 513))
    assert workloads.nearest_rank(values, 0.50) == (256, 256)
    assert workloads.nearest_rank(values, 0.95) == (486, 26)
    assert workloads.nearest_rank([7.0], 0.95) == (7.0, 0)
    assert workloads.nearest_rank([3, 1, 2], 0.99) == (3, 0)
    with pytest.raises(ValueError):
        workloads.nearest_rank([], 0.5)


def test_summarize_uses_quartiles_of_the_repetitions():
    s = suite.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["min"], s["max"], s["n"]) == (3.0, 1.0, 5.0, 5)
    assert (s["q1"], s["q3"]) == (1.5, 4.5)
    assert suite.summarize([2.0]) == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "min": 2.0, "max": 2.0, "n": 1,
    }


# ---------------------------------------------------------------------- #
# --compare
# ---------------------------------------------------------------------- #
def _stats(median, iqr=0.0):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2,
            "min": median - iqr, "max": median + iqr, "n": 3}


def test_classify():
    noisy = lambda m: _stats(m, iqr=0.04 * m)  # noqa: E731
    assert suite.classify(noisy(10), noisy(10.5), "lower", 0.10, False) == "unchanged"
    assert suite.classify(noisy(10), noisy(11.5), "lower", 0.10, False) == "regressed"
    assert suite.classify(noisy(10), noisy(8.5), "lower", 0.10, False) == "improved"
    assert suite.classify(noisy(10), noisy(9.5), "lower", 0.10, False) == "unchanged"
    assert suite.classify(noisy(10), noisy(8.5), "higher", 0.10, False) == "regressed"
    # spread wider than the bound, or a disturbed side: unresolved
    wide = _stats(10, iqr=3.0)
    assert suite.classify(wide, noisy(20), "lower", 0.10, False) == "unresolved"
    assert suite.classify(noisy(10), noisy(20), "lower", 0.10, True) == "unresolved"
    # exact (simulated) metrics: any gain counts, losses only past the bound
    assert suite.classify(_stats(10), _stats(9.99), "lower", 0.05, False) == "improved"
    assert suite.classify(_stats(10), _stats(10.2), "lower", 0.05, False) == "unchanged"
    assert suite.classify(_stats(10), _stats(10.6), "lower", 0.05, False) == "regressed"


def _result_file(tmp_path, name, cpu, digest="d0", steal=0.01):
    manifest = suite.load_manifest()
    e2e = {m["name"]: _stats(1.0) for m in manifest["end_to_end"]}
    e2e["cpu_s"] = _stats(cpu, iqr=0.02 * cpu)
    doc = {"results": {"deploy-flat-512": {
        "end_to_end": e2e, "sim_digest": digest, "failed": 0, "attempted": 512,
        "steal_share": _stats(steal),
    }}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_on_doctored_inputs(tmp_path, capsys):
    base = _result_file(tmp_path, "a.json", cpu=6.0)
    same = _result_file(tmp_path, "same.json", cpu=6.1)
    slow = _result_file(tmp_path, "slow.json", cpu=9.0, digest="d1")
    stolen = _result_file(tmp_path, "stolen.json", cpu=9.0, steal=0.3)

    assert suite.compare(base, same) == 0
    out = capsys.readouterr().out
    assert "sim_digest identical" in out and "regressed  " not in out
    assert out.count("unchanged") == len(suite.load_manifest()["end_to_end"])

    assert suite.compare(base, slow) == 1
    out = capsys.readouterr().out
    assert "1.500  regressed" in out and "sim_digest changed" in out

    assert suite.compare(base, stolen) == 0
    out = capsys.readouterr().out
    assert "1.500  unresolved" in out


# ---------------------------------------------------------------------- #
# the workloads' own checks
# ---------------------------------------------------------------------- #
def test_snapshot_readback_check_detects_wrong_content():
    w = workloads.SnapshotWorkload(smoke=True)
    w.build(seed=3)
    w.prepare()
    w.mark_start()
    w.run()
    w.mark_end()
    assert w.collect()["failed"] == 0
    assert w.check() == ([], 0)
    # pretend VM 0 wrote one byte less in its first block: the re-opened
    # snapshot no longer matches the expectation
    offset, nbytes = w.written[0][0][0]
    w.written[0][0][0] = (offset, nbytes - 1)
    violations, failed = w.check()
    assert any("read-backs mismatch" in v for v in violations)
    assert failed == 2  # VM 0 is sampled in both rounds


def test_host_traced_child_writes_consistent_spans(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    plain = suite.spawn("churn-mixed", 2, smoke=True)
    traced = suite.spawn("churn-mixed", 2, mode="host", smoke=True,
                         spans=str(spans_path))
    assert traced["digest"] == plain["digest"]
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert traced["ledger"]["spans_written"] == len(spans) > 1000
    by_id = {s["id"]: s for s in spans}
    roots = set()
    for s in spans:
        root = by_id[s["root"]]
        roots.add(root["name"])
        if s["parent"] is not None and s["root"] != s["id"]:
            assert by_id[s["parent"]]["root"] == s["root"]
        if s["host_t1"] is not None:
            assert s["host_t1"] >= s["host_t0"] and s["sim_t1"] >= s["sim_t0"]
    # the requests a churn run serves: boots, snapshots' CLONE/COMMIT,
    # restores, GC sweeps, admissions
    assert {"VMInstance.boot", "MirrorHandle.ioctl_commit", "restore_to_version",
            "collect_garbage", "Scheduler.submit"} <= roots
