"""Tests for Resource / Container."""

import pytest

from repro.common.errors import InterruptedError_, SimulationError
from repro.simkit.core import Environment
from repro.simkit.resources import Container, Resource


class TestResource:
    def test_capacity_one_serializes(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def user(name):
            req = res.request()
            yield req
            log.append((env.now, name, "start"))
            yield env.timeout(1.0)
            res.release()
            log.append((env.now, name, "end"))

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert log == [
            (0.0, "a", "start"),
            (1.0, "a", "end"),
            (1.0, "b", "start"),
            (2.0, "b", "end"),
        ]

    def test_capacity_two_overlaps(self):
        env = Environment()
        res = Resource(env, capacity=2)
        ends = []

        def user():
            yield res.request()
            yield env.timeout(1.0)
            res.release()
            ends.append(env.now)

        for _ in range(4):
            env.process(user())
        env.run()
        assert ends == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def user(i):
            yield res.request()
            order.append(i)
            yield env.timeout(0.1)
            res.release()

        for i in range(5):
            env.process(user(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_release_without_request_raises(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            yield res.request()
            yield env.timeout(10.0)
            res.release()

        acquired = []

        def waiter():
            yield res.request()
            acquired.append(env.now)
            res.release()

        env.process(holder())
        env.process(waiter())
        env.run(until=1.0)
        assert acquired == []  # queued behind the holder
        env.run()
        assert acquired == [10.0]

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestContainer:
    def test_get_blocks_until_level(self):
        env = Environment()
        c = Container(env, capacity=100.0, init=0.0)
        out = []

        def consumer():
            yield c.get(30.0)
            out.append(env.now)

        def producer():
            yield env.timeout(1.0)
            yield c.put(15.0)
            yield env.timeout(1.0)
            yield c.put(15.0)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert out == [2.0]
        assert c.level == 0.0

    def test_put_blocks_at_capacity(self):
        env = Environment()
        c = Container(env, capacity=10.0, init=10.0)
        out = []

        def producer():
            yield c.put(5.0)
            out.append(env.now)

        def consumer():
            yield env.timeout(3.0)
            yield c.get(5.0)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert out == [3.0]

    def test_init_over_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Container(Environment(), capacity=1.0, init=2.0)


class TestWaiterCancellation:
    """Interrupting a process blocked on a resource must not leak state
    (fault injection kills processes at arbitrary yield points)."""

    def test_interrupted_container_getter_leaves_queue(self):
        env = Environment()
        c = Container(env, capacity=100.0, init=0.0)
        outcome = []

        def doomed():
            try:
                yield c.get(30.0)
            except InterruptedError_:
                outcome.append("interrupted")

        def lucky():
            yield c.get(10.0)
            outcome.append(("lucky", env.now))

        victim = env.process(doomed())
        env.process(lucky())

        def killer():
            yield env.timeout(1.0)
            victim.interrupt("crash")
            yield c.put(10.0)

        env.process(killer())
        env.run()
        # the dead getter's 30-unit claim must not shadow the live one
        assert outcome == ["interrupted", ("lucky", 1.0)]
        assert c.level == 0.0

    def test_granted_unconsumed_get_refunds_level(self):
        """Interrupt lands in the same timestep the get was granted: the
        deducted amount must flow back (the victim never saw it)."""
        env = Environment()
        c = Container(env, capacity=100.0, init=0.0)
        outcome = []

        def doomed():
            try:
                yield c.get(10.0)
                outcome.append("got")
            except InterruptedError_:
                outcome.append("interrupted")

        victim = env.process(doomed())

        def killer():
            yield env.timeout(1.0)
            yield c.put(10.0)  # grants the get; victim resumes *later*
            victim.interrupt("crash")  # ...but dies first

        env.process(killer())
        env.run()
        assert outcome == ["interrupted"]
        assert c.level == 10.0  # refunded, not lost

    def test_interrupted_putter_leaves_queue(self):
        env = Environment()
        c = Container(env, capacity=10.0, init=10.0)
        outcome = []

        def doomed():
            try:
                yield c.put(5.0)
            except InterruptedError_:
                outcome.append("interrupted")

        victim = env.process(doomed())

        def killer():
            yield env.timeout(1.0)
            victim.interrupt("crash")
            yield c.get(4.0)

        env.process(killer())
        env.run()
        assert outcome == ["interrupted"]
        # the dead putter must not have topped the container back up
        assert c.level == 6.0

    def test_interrupted_resource_waiter_frees_no_slot(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def holder():
            yield res.request()
            yield env.timeout(2.0)
            res.release()

        def doomed():
            try:
                yield res.request()
            except InterruptedError_:
                order.append("interrupted")

        def patient():
            yield env.timeout(1.5)
            yield res.request()
            order.append(("patient", env.now))
            res.release()

        env.process(holder())
        victim = env.process(doomed())
        env.process(patient())

        def killer():
            yield env.timeout(1.0)
            victim.interrupt("crash")

        env.process(killer())
        env.run()
        # the cancelled waiter is skipped; the slot goes to the live one
        assert order == ["interrupted", ("patient", 2.0)]
        assert res.in_use == 0

    def test_fail_waiters_propagates_error(self):
        env = Environment()
        c = Container(env, capacity=100.0, init=0.0)
        seen = []

        def waiter():
            try:
                yield c.get(1.0)
            except SimulationError as exc:
                seen.append(str(exc))

        env.process(waiter())

        def crash():
            yield env.timeout(1.0)
            c.fail_waiters(SimulationError("provider crashed"))

        env.process(crash())
        env.run()
        assert seen == ["provider crashed"]
