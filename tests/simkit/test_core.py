"""Tests for the discrete-event engine."""

import pytest

from repro.common.errors import InterruptedError_, SimulationError
from repro.simkit.core import Environment


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(2.5)
        return env.now

    assert env.run(env.process(proc())) == 2.5
    assert env.now == 2.5


def test_sequential_timeouts_accumulate():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        yield env.timeout(0.5)
        return env.now

    assert env.run(env.process(proc())) == 1.5


def test_timeout_carries_value():
    env = Environment()

    def proc():
        v = yield env.timeout(1.0, value="payload")
        return v

    assert env.run(env.process(proc())) == "payload"


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("b", 2.0))
    env.process(worker("a", 1.0))
    env.process(worker("c", 1.0))
    env.run()
    # Equal times resolved by creation order (a before c).
    assert log == [(1.0, "a"), (1.0, "c"), (2.0, "b")]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    out = []

    def waiter():
        v = yield gate
        out.append(v)

    def opener():
        yield env.timeout(3.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert out == ["open"]
    assert env.now == 3.0


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield gate
        return "handled"

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(failer())
    assert env.run(p) == "handled"


def test_process_exception_propagates_to_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        env.run(env.process(bad()))


def test_waiting_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed(99)
    env.run(until=0.0)  # process the trigger
    assert env.event_count == 1

    def late():
        v = yield ev
        return v

    assert env.run(env.process(late())) == 99


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_all_of_collects_values():
    env = Environment()

    def proc():
        values = yield env.all_of([env.timeout(1.0, "a"), env.timeout(2.0, "b")])
        return values, env.now

    values, t = env.run(env.process(proc()))
    assert values == ["a", "b"]
    assert t == 2.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        v = yield env.all_of([])
        return v

    assert env.run(env.process(proc())) == []


def test_any_of_returns_first():
    env = Environment()

    def proc():
        slow = env.timeout(5.0, "slow")
        fast = env.timeout(1.0, "fast")
        ev, value = yield env.any_of([slow, fast])
        return value, env.now

    assert env.run(env.process(proc())) == ("fast", 1.0)


def test_interrupt_raises_at_yield_point():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except InterruptedError_ as exc:
            caught.append(exc.cause)
            return "interrupted"
        return "completed"

    p = env.process(sleeper())

    def killer():
        yield env.timeout(2.0)
        p.interrupt("shutdown")

    env.process(killer())
    assert env.run(p) == "interrupted"
    assert caught == ["shutdown"]
    assert env.now == 2.0


def test_interrupt_after_completion_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1.0)
        return "done"

    p = env.process(quick())
    env.run(p)
    p.interrupt("late")  # must not raise
    env.run()


def test_run_until_time_leaves_future_events():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(10.0)
        fired.append(True)

    env.process(proc())
    env.run(until=5.0)
    assert env.now == 5.0
    assert not fired
    env.run()
    assert fired


def test_deadlock_detected():
    env = Environment()

    def stuck():
        yield env.event()  # never triggered

    p = env.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(p)


def test_yielding_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="expected an Event"):
        env.run(env.process(bad()))


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_subprocess_composition():
    env = Environment()

    def child(n):
        yield env.timeout(n)
        return n * 2

    def parent():
        a = yield env.process(child(1.0))
        b = yield env.process(child(2.0))
        return a + b

    assert env.run(env.process(parent())) == 6
    assert env.now == 3.0


def test_determinism_same_structure_same_timeline():
    def build():
        env = Environment()
        log = []

        def w(i):
            yield env.timeout(i % 3 * 0.5)
            log.append((env.now, i))

        for i in range(20):
            env.process(w(i))
        env.run()
        return log

    assert build() == build()
