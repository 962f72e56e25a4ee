"""Slice measure tests: arc measures, set algebra, products, quadrature."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylens.errors import ParseError, ScaleMismatch
from polylens.slices import (
    FULL_CIRCLE,
    AngularInterval,
    Slice,
    SliceSet,
    arc_integral_check,
    parse_interval,
    product_measure,
    slice_intersect,
    slice_measure,
    slice_subtract,
)


class TestMeasure:
    def test_full_circle_normalization(self):
        for lam in (0.2, 1.0, 3.5):
            assert slice_measure(Slice(lam, FULL_CIRCLE)) == 1.0

    def test_quarter_arc(self):
        assert slice_measure(Slice(0.7, AngularInterval(0.0, math.pi / 2))) == pytest.approx(0.25)

    def test_degenerate_arc(self):
        assert slice_measure(Slice(1.0, AngularInterval(0.3, 0.3))) == 0.0

    def test_radius_invariance_exact(self):
        iv = AngularInterval(-1.1, 0.4)
        values = {slice_measure(Slice(lam, iv)) for lam in (0.25, 1.0, 2.5)}
        assert len(values) == 1

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            AngularInterval(1.0, 0.5)
        with pytest.raises(ValueError):
            AngularInterval(-4.0, 0.0)

    def test_positive_radius(self):
        with pytest.raises(ValueError):
            Slice(0.0, FULL_CIRCLE)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_radius_is_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="slice radius must be positive and finite"):
            Slice(lam, FULL_CIRCLE)
        with pytest.raises(ValueError, match="slice radius must be positive and finite"):
            SliceSet(lam, (FULL_CIRCLE,))


class TestAlgebra:
    def test_intersect(self):
        a = Slice(1.0, AngularInterval(0.0, math.pi))
        b = Slice(1.0, AngularInterval(math.pi / 2, math.pi))
        out = slice_intersect(a, b)
        assert len(out.components) == 1
        assert out.components[0].lo == math.pi / 2
        assert out.components[0].hi == math.pi

    def test_subtract_two_pieces(self):
        a = Slice(1.0, AngularInterval(0.0, math.pi))
        b = Slice(1.0, AngularInterval(math.pi / 4, math.pi / 2, lo_open=True, hi_open=True))
        out = slice_subtract(a, b)
        assert len(out.components) == 2
        left, right = out.components
        assert (left.lo, left.hi) == (0.0, math.pi / 4)
        assert not left.hi_open  # excluded-from-b endpoint stays in the difference
        assert (right.lo, right.hi) == (math.pi / 2, math.pi)
        assert not right.lo_open

    def test_disjoint_intersection_is_empty(self):
        a = Slice(1.0, AngularInterval(0.0, math.pi / 2, hi_open=True))
        b = Slice(1.0, AngularInterval(math.pi / 2, math.pi, lo_open=True))
        assert slice_intersect(a, b).components == ()

    def test_scale_mismatch(self):
        with pytest.raises(ScaleMismatch):
            slice_intersect(Slice(1.0, FULL_CIRCLE), Slice(2.0, FULL_CIRCLE))
        with pytest.raises(ScaleMismatch):
            slice_subtract(Slice(1.0, FULL_CIRCLE), Slice(2.0, FULL_CIRCLE))

    def test_sliceset_requires_disjoint(self):
        with pytest.raises(ValueError):
            SliceSet(1.0, (AngularInterval(0.0, 1.0), AngularInterval(0.5, 2.0)))

    def test_measure_splits_across_difference(self):
        a = Slice(1.0, AngularInterval(-1.0, 2.0))
        b = Slice(1.0, AngularInterval(0.0, 0.75))
        total = slice_intersect(a, b).measure() + slice_subtract(a, b).measure()
        assert total == pytest.approx(slice_measure(a), abs=1e-15)


class TestProduct:
    def test_product_example(self):
        factors = [
            Slice(1.0, AngularInterval(0.0, math.pi / 2)),
            Slice(1.0, AngularInterval(0.0, math.pi)),
        ]
        assert product_measure(factors) == pytest.approx(0.125)

    def test_full_times_full(self):
        assert product_measure([Slice(1.0, FULL_CIRCLE)] * 3) == 1.0

    def test_null_factor(self):
        factors = [Slice(1.0, FULL_CIRCLE), SliceSet(1.0, ())]
        assert product_measure(factors) == 0.0


class TestArcIntegral:
    def test_quarter_arc(self):
        value = arc_integral_check(Slice(0.7, AngularInterval(0.0, math.pi / 2)), 1000)
        assert abs(value.real - 0.25) < 1e-6
        assert abs(value.imag) < 1e-12

    def test_full_circle(self):
        value = arc_integral_check(Slice(1.0, FULL_CIRCLE), 64)
        assert abs(value - 1.0) < 1e-12

    def test_third(self):
        value = arc_integral_check(
            Slice(1.3, AngularInterval(-math.pi / 3, math.pi / 3)), 1000
        )
        assert abs(value.real - 1.0 / 3.0) < 1e-6

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            arc_integral_check(Slice(1.0, FULL_CIRCLE), 4)


_angle = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_angle, min_size=0, max_size=15))
def test_partition_additivity(cuts):
    bounds = [-math.pi] + sorted(cuts) + [math.pi]
    total = sum(
        slice_measure(Slice(1.0, AngularInterval(a, b)))
        for a, b in zip(bounds, bounds[1:])
    )
    assert abs(total - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.tuples(_angle, _angle), st.tuples(_angle, _angle))
def test_monotonicity(outer, inner):
    lo, hi = sorted(outer)
    a, b = sorted(min(max(x, lo), hi) for x in inner)
    assert slice_measure(Slice(1.0, AngularInterval(a, b))) <= slice_measure(
        Slice(1.0, AngularInterval(lo, hi))
    )


@settings(max_examples=100, deadline=None)
@given(st.tuples(_angle, _angle), st.tuples(_angle, _angle))
def test_semiring_closure_shapes(first, second):
    a = Slice(1.0, AngularInterval(*sorted(first)))
    b = Slice(1.0, AngularInterval(*sorted(second)))
    assert len(slice_intersect(a, b).components) <= 1
    diff = slice_subtract(a, b)
    assert len(diff.components) <= 2
    for left, right in zip(diff.components, diff.components[1:]):
        assert left.hi <= right.lo


class TestIntervalStrings:
    @pytest.mark.parametrize(
        "text,lo,hi",
        [
            ("0:pi/2", 0.0, math.pi / 2),
            ("-pi:pi", -math.pi, math.pi),
            ("0:pi", 0.0, math.pi),
            ("-pi/3:pi/3", -math.pi / 3, math.pi / 3),
            ("0.5:1.5", 0.5, 1.5),
            ("2*pi/3:pi", 2 * math.pi / 3, math.pi),
        ],
    )
    def test_parse(self, text, lo, hi):
        iv = parse_interval(text)
        assert iv.lo == pytest.approx(lo)
        assert iv.hi == pytest.approx(hi)

    @pytest.mark.parametrize(
        "text", ["", "0", "0:pi:2", "a:b", "0:4", "-4:0", "pi:0", "0:²", "0:pi/٢", "0:1.2.3"]
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_interval(text)

    @pytest.mark.parametrize(
        "text,offset",
        [("0:²", 2), ("0:pi/٢", 5), ("²:pi", 0), ("0: pi / ٢", 8), ("0:1.2.3", 5),
         ("0:2*x", 4), ("0:pi/0", 5), ("-pi/3:pi/3 x", 11)],
    )
    def test_error_names_the_offending_character(self, text, offset):
        with pytest.raises(ParseError) as excinfo:
            parse_interval(text)
        assert excinfo.value.offset == offset
