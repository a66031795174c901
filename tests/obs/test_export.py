"""Exporter: Perfetto trace-event JSON."""

import json

from repro.obs.export import to_trace_events, write_trace_json
from repro.obs.span import Tracer


class StubEnv:
    """Just enough Environment for a Tracer: a clock and an active process."""

    def __init__(self):
        self.now = 0.0
        self._active_process = None


def sample_tracer():
    env = StubEnv()
    tr = Tracer(env, trace_id="trace-test")
    root = tr.start("boot:vm000", "vm", host="node00")
    env.now = 0.5
    inner = tr.start("rpc:read", "rpc")
    env.now = 1.5
    inner.set_error("TimeoutError: slow")
    inner.finish()
    env.now = 2.0
    root.finish()
    return env, tr


def iter_complete_events(doc):
    """The ``ph:"X"`` span events of a trace-event document."""
    return [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]


class TestTraceEvents:
    def test_document_shape(self):
        _, tr = sample_tracer()
        doc = to_trace_events(tr)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["trace_id"] == "trace-test"
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert phases == {"M", "X"}

    def test_complete_events_use_microseconds(self):
        _, tr = sample_tracer()
        doc = to_trace_events(tr)
        by_name = {ev["name"]: ev for ev in iter_complete_events(doc)}
        boot = by_name["boot:vm000"]
        assert boot["ts"] == 0.0
        assert boot["dur"] == 2.0 * 1e6
        rpc = by_name["rpc:read"]
        assert rpc["ts"] == 0.5 * 1e6
        assert rpc["dur"] == 1.0 * 1e6

    def test_args_carry_links_attrs_and_error(self):
        _, tr = sample_tracer()
        doc = to_trace_events(tr)
        by_name = {ev["name"]: ev for ev in iter_complete_events(doc)}
        boot, rpc = by_name["boot:vm000"], by_name["rpc:read"]
        assert boot["args"]["host"] == "node00"
        assert rpc["args"]["parent_id"] == boot["args"]["span_id"]
        assert rpc["args"]["error"] == "TimeoutError: slow"

    def test_metadata_names_threads(self):
        _, tr = sample_tracer()
        doc = to_trace_events(tr)
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        names = {ev["name"] for ev in meta}
        assert {"process_name", "thread_name", "thread_sort_index"} <= names

    def test_open_span_clipped_to_end_time(self):
        env = StubEnv()
        tr = Tracer(env)
        tr.start("open", "rpc")
        env.now = 3.0
        doc = to_trace_events(tr)  # end_time defaults to env.now
        (ev,) = iter_complete_events(doc)
        assert ev["dur"] == 3.0 * 1e6

    def test_write_trace_json_is_loadable(self, tmp_path):
        _, tr = sample_tracer()
        path = write_trace_json(tmp_path / "out.trace.json", tr)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) >= 3
