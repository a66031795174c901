"""Guard rails and fast-path primitives of the event engine.

Covers the defensive behaviors the fast-path refactor must not lose:
descriptive deadlock errors, exception-safe horizon runs, exact
``schedule_at`` semantics, and the shared-bootstrap ``process_batch``
being timeline-identical to individual spawns.
"""

import pytest

from repro.common.errors import SimulationError
from repro.simkit.core import Environment, Event, Timeout


class TestEmptyQueue:
    def test_run_until_none_on_empty_queue_is_noop(self):
        env = Environment()
        assert env.run() is None
        assert env.now == 0.0

    def test_run_until_event_deadlocks_when_queue_drains(self):
        env = Environment()
        never = Event(env)
        Timeout(env, 1.0)
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(never)
        # the drained events were still counted and the clock advanced
        assert env.now == 1.0


class TestHorizonExceptionSafety:
    def _arm_raiser(self, env, at):
        ev = Event(env)

        def boom(_ev):
            raise RuntimeError("callback exploded")

        ev.callbacks.append(boom)
        env.schedule_at(ev, at)
        return ev

    def test_callback_exception_leaves_clock_at_event_time(self):
        env = Environment()
        self._arm_raiser(env, 1.0)
        with pytest.raises(RuntimeError, match="callback exploded"):
            env.run(until=5.0)
        # the clock reflects the event actually processed, not the horizon
        assert env.now == 1.0

    def test_run_resumes_to_horizon_after_exception(self):
        env = Environment()
        self._arm_raiser(env, 1.0)
        fired = []
        later = Event(env)
        later.callbacks.append(lambda ev: fired.append(env.now))
        env.schedule_at(later, 2.0)
        with pytest.raises(RuntimeError):
            env.run(until=5.0)
        # later events survived the exception; a second run processes them
        env.run(until=5.0)
        assert fired == [2.0]
        assert env.now == 5.0

    def test_horizon_does_not_rewind_clock(self):
        env = Environment()
        Timeout(env, 3.0)
        env.run(until=4.0)
        assert env.now == 4.0
        env.run(until=2.0)  # horizon already passed: nothing to do
        assert env.now == 4.0


class TestScheduleAt:
    def test_fires_at_exact_time_with_value(self):
        env = Environment()
        ev = Event(env)
        env.schedule_at(ev, 2.5, value="hello")

        def waiter():
            got = yield ev
            return got, env.now

        assert env.run(env.process(waiter())) == ("hello", 2.5)

    def test_past_time_rejected(self):
        env = Environment()
        Timeout(env, 1.0)
        env.run()
        with pytest.raises(SimulationError, match="past"):
            env.schedule_at(Event(env), 0.5)

    def test_already_triggered_event_rejected(self):
        env = Environment()
        ev = Event(env)
        ev.succeed("done")
        with pytest.raises(SimulationError, match="already triggered"):
            env.schedule_at(ev, 1.0)


class TestProcessBatch:
    def _staggered(self, env, delay, log, tag):
        yield Timeout(env, delay)
        log.append((env.now, tag))
        return tag

    def test_empty_batch(self):
        env = Environment()
        assert env.process_batch([]) == []
        env.run()

    def test_results_match_individual_spawns(self):
        delays = [0.3, 0.1, 0.2, 0.1]

        def run(batched):
            env = Environment()
            log = []
            gens = [self._staggered(env, d, log, i) for i, d in enumerate(delays)]
            if batched:
                procs = env.process_batch(gens)
            else:
                procs = [env.process(g) for g in gens]

            def master():
                results = yield env.all_of(procs)
                return results

            results = env.run(env.process(master()))
            return results, log, env.now

        res_a, log_a, now_a = run(batched=True)
        res_b, log_b, now_b = run(batched=False)
        assert res_a == res_b
        assert log_a == log_b  # identical completion times AND tie order
        assert now_a == now_b

    def test_batch_saves_bootstrap_events(self):
        def run(batched):
            env = Environment()
            gens = [self._staggered(env, 0.1, [], i) for i in range(5)]
            procs = env.process_batch(gens) if batched else [env.process(g) for g in gens]

            def master():
                yield env.all_of(procs)

            env.run(env.process(master()))
            return env.event_count

        assert run(batched=False) - run(batched=True) == 4  # K-1 boots saved
