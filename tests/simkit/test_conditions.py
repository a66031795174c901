"""Edge cases for composite events and process plumbing."""

import pytest

from repro.simkit.core import Environment


class TestConditionFailures:
    def test_all_of_fails_fast(self):
        env = Environment()

        def failer():
            yield env.timeout(1.0)
            raise ValueError("first failure")

        def slow():
            yield env.timeout(100.0)

        p1 = env.process(failer())
        p2 = env.process(slow())

        def waiter():
            with pytest.raises(ValueError, match="first failure"):
                yield env.all_of([p1, p2])
            return env.now

        t = env.run(env.process(waiter()))
        assert t == 1.0  # did not wait for the slow one

    def test_any_of_propagates_failure(self):
        env = Environment()

        def failer():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        p = env.process(failer())

        def waiter():
            with pytest.raises(RuntimeError):
                yield env.any_of([p, env.timeout(100.0)])
            return True

        assert env.run(env.process(waiter()))

    def test_all_of_with_already_processed_events(self):
        env = Environment()
        t1 = env.timeout(1.0, "a")
        env.run(until=2.0)  # t1 already processed

        def waiter():
            values = yield env.all_of([t1, env.timeout(1.0, "b")])
            return values

        assert env.run(env.process(waiter())) == ["a", "b"]

    def test_nested_conditions(self):
        env = Environment()

        def proc():
            inner = env.all_of([env.timeout(1.0, 1), env.timeout(2.0, 2)])
            ev, value = yield env.any_of([inner, env.timeout(5.0, "slow")])
            return value

        assert env.run(env.process(proc())) == [1, 2]
