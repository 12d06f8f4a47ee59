"""SVG rendering: structure, determinism, backend restriction."""

import pytest

from skewplane.constructions import (
    ConstructionTrace,
    LineFrame,
    trace_addition,
    trace_multiplication,
)
from skewplane.errors import UnsupportedBackendError
from skewplane.plane import PlaneLine, PlanePoint
from skewplane.scalars import PrimeField, QuaternionField, Rational, RationalField
from skewplane.svg import emit_svg, render_construction


def _rational_trace(kind="add"):
    frame = LineFrame.canonical(RationalField())
    a, b = frame.embed(Rational(2)), frame.embed(Rational(3))
    aux = PlanePoint(Rational(0), Rational(1))
    tracer = trace_addition if kind == "add" else trace_multiplication
    return tracer(frame, a, b, aux)


class TestRendering:
    def test_addition_trace_has_seven_labels(self):
        text = render_construction(_rational_trace("add"))
        assert text.count("<text") == 7
        for label in ("O", "I", "A", "B", "B1", "P1", "C"):
            assert f">{label}</text>" in text

    def test_multiplication_trace_has_seven_labels(self):
        text = render_construction(_rational_trace("mul"))
        assert text.count("<text") == 7

    def test_base_line_and_construction_lines_present(self):
        text = render_construction(_rational_trace("add"))
        assert text.count("<line") == 6
        assert 'stroke="#000000"' in text  # the base line stands out

    def test_viewbox_and_background(self):
        text = render_construction(_rational_trace("add"))
        assert 'viewBox="0 0 640 480"' in text
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')

    def test_line_outside_the_box_is_not_drawn(self):
        trace = _rational_trace("add")
        far = PlaneLine(PlanePoint(Rational(0), Rational(1000)), (Rational(1), Rational(0)))
        extra = ConstructionTrace(trace.kind, trace.frame, trace.a, trace.b, trace.aux,
                                  trace.p1, trace.result, trace.lines + (("far", far),))
        assert render_construction(extra) == render_construction(trace)

    def test_byte_determinism(self, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        emit_svg(_rational_trace("add"), first)
        emit_svg(_rational_trace("add"), second)
        assert first.read_bytes() == second.read_bytes()

    def test_quaternion_backend_rejected(self):
        field = QuaternionField()
        frame = LineFrame.canonical(field)
        aux = PlanePoint(field.zero(), field.one())
        trace = trace_addition(frame, frame.embed(field.i()), frame.embed(field.j()), aux)
        with pytest.raises(UnsupportedBackendError):
            render_construction(trace)

    def test_prime_field_backend_rejected(self):
        field = PrimeField(5)
        frame = LineFrame.canonical(field)
        aux = PlanePoint(field.zero(), field.one())
        trace = trace_addition(frame, frame.embed(field.from_int(2)),
                               frame.embed(field.from_int(3)), aux)
        with pytest.raises(UnsupportedBackendError):
            render_construction(trace)
