"""Tracer core: nesting, context propagation, and the null tracer."""

from repro.obs.span import NULL_TRACER, Span, Tracer
from repro.simkit import Fabric


def make_tracer():
    fab = Fabric(seed=1)
    tracer = Tracer(fab.env)
    fab.env._tracer = tracer
    return fab, tracer


class TestNesting:
    def test_siblings_share_parent(self):
        fab, tr = make_tracer()

        def proc():
            with tr.start("outer", "rpc"):
                yield fab.env.timeout(1.0)
                with tr.start("a", "net"):
                    yield fab.env.timeout(1.0)
                with tr.start("b", "net"):
                    yield fab.env.timeout(1.0)

        fab.run(fab.env.process(proc()))
        outer, a, b = tr.spans
        assert outer.parent_id is None
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id
        assert (a.t0, a.t1) == (1.0, 2.0)
        assert (outer.t0, outer.t1) == (0.0, 3.0)

    def test_sequential_spans_do_not_nest(self):
        fab, tr = make_tracer()

        def proc():
            with tr.start("first", "cpu"):
                yield fab.env.timeout(1.0)
            with tr.start("second", "cpu"):
                yield fab.env.timeout(1.0)

        fab.run(fab.env.process(proc()))
        first, second = tr.spans
        assert second.parent_id is None  # first already finished

    def test_explicit_parent_overrides_context(self):
        fab, tr = make_tracer()

        def proc():
            root = tr.start("root", "vm")
            with tr.start("inner", "cpu"):
                orphan = tr.start("pinned", "net", parent=root)
                orphan.finish()
                yield fab.env.timeout(1.0)
            root.finish()

        fab.run(fab.env.process(proc()))
        by_name = {s.name: s for s in tr.spans}
        assert by_name["pinned"].parent_id == by_name["root"].span_id

    def test_exception_inside_with_marks_error(self):
        fab, tr = make_tracer()

        def proc():
            try:
                with tr.start("doomed", "rpc"):
                    yield fab.env.timeout(1.0)
                    raise ValueError("boom")
            except ValueError:
                pass

        fab.run(fab.env.process(proc()))
        (span,) = tr.spans
        assert span.error == "ValueError: boom"
        assert span.t1 == 1.0


class TestSpawnPropagation:
    def test_child_process_inherits_open_span(self):
        fab, tr = make_tracer()

        def child():
            with tr.start("child-work", "net"):
                yield fab.env.timeout(1.0)

        def parent():
            with tr.start("parent-op", "rpc"):
                proc = fab.env.process(child())
                yield proc

        fab.run(fab.env.process(parent()))
        by_name = {s.name: s for s in tr.spans}
        assert by_name["child-work"].parent_id == by_name["parent-op"].span_id

    def test_process_batch_inherits_too(self):
        fab, tr = make_tracer()

        def child(i):
            with tr.start(f"batch-{i}", "net"):
                yield fab.env.timeout(1.0)

        def parent():
            with tr.start("scatter", "chunk"):
                procs = fab.env.process_batch([child(0), child(1)])
                yield fab.env.all_of(procs)

        fab.run(fab.env.process(parent()))
        by_name = {s.name: s for s in tr.spans}
        for name in ("batch-0", "batch-1"):
            assert by_name[name].parent_id == by_name["scatter"].span_id

    def test_no_open_span_means_no_parent(self):
        fab, tr = make_tracer()

        def child():
            with tr.start("lonely", "cpu"):
                yield fab.env.timeout(1.0)

        fab.run(fab.env.process(child()))
        (span,) = tr.spans
        assert span.parent_id is None

    def test_sibling_processes_get_distinct_tracks(self):
        fab, tr = make_tracer()

        def child(i):
            with tr.start(f"c{i}", "cpu"):
                yield fab.env.timeout(1.0)

        def parent():
            procs = [fab.env.process(child(i), name=f"child-{i}") for i in range(2)]
            yield fab.env.all_of(procs)

        fab.run(fab.env.process(parent()))
        tracks = {s.track for s in tr.spans}
        assert len(tracks) == 2


class TestAsyncSpans:
    def test_start_async_is_not_ambient(self):
        fab, tr = make_tracer()

        def proc():
            flow = tr.start_async("flow", "net")
            with tr.start("next-op", "rpc"):
                yield fab.env.timeout(1.0)
            flow.finish()

        fab.run(fab.env.process(proc()))
        by_name = {s.name: s for s in tr.spans}
        # next-op must NOT nest under the async flow span
        assert by_name["next-op"].parent_id is None
        assert by_name["flow"].t1 == 1.0


class TestLifecycle:
    def test_finish_is_idempotent(self):
        fab, tr = make_tracer()

        def proc():
            s = tr.start("s", "cpu")
            yield fab.env.timeout(1.0)
            s.finish()
            yield fab.env.timeout(1.0)
            s.finish()  # second call must not move t1

        fab.run(fab.env.process(proc()))
        assert tr.spans[0].t1 == 1.0

    def test_finish_open_spans_closes_leaks(self):
        fab, tr = make_tracer()

        def proc():
            tr.start("leaked", "rpc")
            yield fab.env.timeout(2.0)

        fab.run(fab.env.process(proc()))
        assert tr.spans[0].t1 is None
        assert tr.finish_open_spans() == 1
        assert tr.spans[0].t1 == 2.0

    def test_duration_of_open_span_is_zero(self):
        fab, tr = make_tracer()
        span = tr.start("open", "cpu")
        assert span.duration == 0.0
        span.finish()


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.start("x", "rpc", foo=1)
        assert span is NULL_TRACER.record("y", "net", 0.0, 1.0)
        # what a `with tracer.start(...) as span:` body may call must no-op
        with span as s:
            s.set(bar=2)
            s.set_error(ValueError("x"))
        assert NULL_TRACER.spans == []

    def test_fabric_defaults_to_null_tracer(self):
        fab = Fabric(seed=1)
        assert fab.tracer is NULL_TRACER
        assert fab.network.tracer is NULL_TRACER
        assert fab.env._tracer is None


class TestInstallUninstall:
    def test_install_wires_all_three_hooks(self):
        from repro import obs

        fab = Fabric(seed=1)
        tracer = obs.install_tracer(fab)
        assert fab.tracer is tracer
        assert fab.network.tracer is tracer
        assert fab.env._tracer is tracer

    def test_span_repr_mentions_name(self):
        fab, tr = make_tracer()
        s = tr.start("boot:vm0", "vm")
        assert isinstance(s, Span)
        s.finish()
