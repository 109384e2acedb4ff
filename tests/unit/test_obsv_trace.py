"""Unit tests for the structured trace facility (ring buffer semantics)."""

from __future__ import annotations

import json

from repro.common.types import RequestId
from repro.obsv import TraceEvent, Tracer
from repro.obsv.trace import read_jsonl, request_trace_id
from repro.sim.kernel import Simulator


def make_tracer(capacity=8):
    kernel = Simulator()
    return kernel, Tracer(kernel, capacity=capacity)


class TestTracerRecording:
    def test_record_stamps_kernel_time(self):
        kernel, tracer = make_tracer()
        kernel.schedule(1_500.0, lambda: tracer.record("msg.send", node="a"))
        kernel.run_until_idle()
        (event,) = list(tracer)
        assert event.time_us == 1_500.0
        assert event.kind == "msg.send"
        assert event.node == "a"

    def test_defaults_mark_missing_fields(self):
        _, tracer = make_tracer()
        tracer.record("kernel.run")
        (event,) = list(tracer)
        assert event.seq == -1 and event.view == -1
        assert event.detail == "" and event.node == ""

    def test_as_dict_round_trips_every_field(self):
        event = TraceEvent(time_us=2.0, kind="view.change", node="replica-1",
                           detail="x", seq=7, view=3, trace_id="c/1",
                           dur_us=12.5)
        assert event.as_dict() == {"time_us": 2.0, "kind": "view.change",
                                   "node": "replica-1", "detail": "x",
                                   "seq": 7, "view": 3, "trace_id": "c/1",
                                   "dur_us": 12.5}


class TestTraceIds:
    def test_record_carries_the_given_trace_id(self):
        _, tracer = make_tracer()
        tracer.record("req.submit", node="client-0", detail="client-0/1",
                      trace_id="client-0/1")
        tracer.record("kernel.stop")
        submit, stop = tracer
        assert submit.trace_id == "client-0/1"
        assert stop.trace_id == ""

    def test_request_trace_id_names_the_payloads_request(self):
        class Named:
            request_id = RequestId(client="client-3", number=9)

        assert request_trace_id(Named()) == str(Named.request_id)
        assert request_trace_id(Named()) == "client-3#9"
        assert request_trace_id(object()) == ""

    def test_tail_returns_newest_events_as_dicts(self):
        _, tracer = make_tracer(capacity=8)
        for i in range(6):
            tracer.record("msg.send", seq=i)
        tail = tracer.tail(count=3)
        assert [entry["seq"] for entry in tail] == [3, 4, 5]
        assert tracer.tail(count=0) == []
        assert len(tracer.tail(count=100)) == 6


class TestRingBuffer:
    def test_capacity_bounds_retained_events(self):
        _, tracer = make_tracer(capacity=4)
        for i in range(10):
            tracer.record("msg.send", seq=i)
        assert len(tracer) == 4
        assert [e.seq for e in tracer] == [6, 7, 8, 9]

    def test_counts_survive_eviction(self):
        _, tracer = make_tracer(capacity=2)
        for _ in range(5):
            tracer.record("msg.send")
        tracer.record("msg.drop")
        assert tracer.total == 6
        assert tracer.counts == {"msg.send": 5, "msg.drop": 1}

    def test_dropped_counts_evicted_events(self):
        _, tracer = make_tracer(capacity=3)
        for _ in range(10):
            tracer.record("msg.recv")
        assert tracer.dropped == 7
        _, fresh = make_tracer(capacity=3)
        fresh.record("msg.recv")
        assert fresh.dropped == 0

    def test_exactly_at_capacity_evicts_nothing(self):
        _, tracer = make_tracer(capacity=5)
        for i in range(5):
            tracer.record("msg.send", seq=i)
        assert len(tracer) == 5
        assert tracer.dropped == 0
        assert [e.seq for e in tracer] == [0, 1, 2, 3, 4]

    def test_one_past_capacity_evicts_exactly_the_oldest(self):
        _, tracer = make_tracer(capacity=5)
        for i in range(6):
            tracer.record("msg.send", seq=i)
        assert len(tracer) == 5
        assert tracer.dropped == 1
        assert [e.seq for e in tracer] == [1, 2, 3, 4, 5]


class TestFiltering:
    def test_events_filters_by_kind_and_node(self):
        _, tracer = make_tracer(capacity=16)
        tracer.record("msg.send", node="a")
        tracer.record("msg.send", node="b")
        tracer.record("msg.recv", node="a")
        assert len(tracer.events(kind="msg.send")) == 2
        assert len(tracer.events(node="a")) == 2
        assert len(tracer.events(kind="msg.recv", node="a")) == 1
        assert tracer.events(kind="view.change") == []


class TestJsonl:
    def test_write_jsonl_emits_one_object_per_event(self, tmp_path):
        _, tracer = make_tracer(capacity=16)
        tracer.record("tcp.connect", node="replica-0", detail="127.0.0.1:9")
        tracer.record("checkpoint.stable", node="replica-1", seq=20)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["kind"] == "tcp.connect"
        assert first["detail"] == "127.0.0.1:9"
        assert second["seq"] == 20

    def test_read_jsonl_round_trips_every_field(self, tmp_path):
        _, tracer = make_tracer(capacity=16)
        tracer.record("req.submit", node="client-0", detail="client-0/1",
                      trace_id="client-0/1")
        tracer.record("msg.send", node="client-0", detail="ClientRequest")
        tracer.record("msg.verified", node="replica-0", seq=3, view=1,
                      dur_us=40.0, trace_id="client-0/1")
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path) == 3
        events = read_jsonl(path)
        assert events == list(tracer)

    def test_read_jsonl_tolerates_blank_lines_and_unknown_keys(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        future = json.dumps({"time_us": 1.0, "kind": "msg.send",
                             "trace_id": "t1", "dur_us": 2.0,
                             "future_field": "ignored"})
        # An export from before the trace was keyed by request id: its
        # causal-link columns are unknown keys now.
        old = json.dumps({"time_us": 3.0, "kind": "msg.recv",
                          "node": "replica-0", "detail": "ClientRequest",
                          "seq": -1, "view": -1, "trace_id": "client-0/1",
                          "span_id": 5, "parent_span_id": 4, "dur_us": 0.0})
        path.write_text(future + "\n\n" + old + "\n")
        first, second = read_jsonl(path)
        assert first.kind == "msg.send"
        assert first.trace_id == "t1"
        assert first.dur_us == 2.0
        assert second == TraceEvent(time_us=3.0, kind="msg.recv",
                                    node="replica-0", detail="ClientRequest",
                                    trace_id="client-0/1")
