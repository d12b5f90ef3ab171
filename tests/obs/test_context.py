"""Span and trace identity."""

from repro.obs import Tracer, new_span_id, new_trace_id


class TestIds:
    def test_formats(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)  # pure hex
        int(new_span_id(), 16)

    def test_uniqueness(self):
        assert len({new_span_id() for _ in range(256)}) == 256
        assert len({new_trace_id() for _ in range(256)}) == 256


class TestTracerContext:
    def test_context_names_current_span(self):
        tr = Tracer(clock=iter([0.0, 1.0, 2.0]).__next__)
        with tr.span("eval") as sp:
            assert len(tr.trace_id) == 32
            assert tr.current is sp
        assert sp.span_id  # spans get real ids under a real tracer

    def test_tracer_accepts_external_trace_id(self):
        tid = new_trace_id()
        assert Tracer(trace_id=tid).trace_id == tid
