"""Unit tests for the exact Laurent oracle."""

import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylens.errors import AdmissibilityViolation, DimensionMismatch, MixedPoleTerm
from polylens.expr import parse
from polylens.quadrature import (
    adaptive_coefficients,
    laurent_coefficient,
    sample_torus,
)
from polylens.laurent import (
    CR_ZERO,
    ComplexRational,
    LaurentPoly,
    component_norm_sq,
    decompose,
    exterior_integral,
    inner_product_exact,
    trace_norm_sq_exact,
    variance_exact,
    variance_model,
    variance_model_exact,
)


def cr(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def scalar(n, mapping):
    return LaurentPoly.scalar(n, mapping)


# ------------------------------------------------------------- coefficients


class TestComplexRational:
    def test_arithmetic(self):
        a = cr(1, 2)
        b = cr(3, -1)
        assert a + b == cr(4, 1)
        assert a - b == cr(-2, 3)
        assert a * b == cr(5, 5)
        assert -a == cr(-1, -2)

    def test_reciprocal_and_abs2(self):
        z = cr(3, 4)
        assert z.abs2() == 25
        assert z * z.reciprocal() == cr(1)
        with pytest.raises(ZeroDivisionError):
            CR_ZERO.reciprocal()

    def test_exact_float_coercion(self):
        assert ComplexRational.from_value(0.5) == cr(Fraction(1, 2))
        assert ComplexRational.from_value(2 + 1j) == cr(2, 1)

    def test_conjugate(self):
        assert cr(1, 2).conjugate() == cr(1, -2)

    def test_complex_conversion(self):
        assert complex(cr(Fraction(1, 2), -3)) == 0.5 - 3j


# -------------------------------------------------------------- arithmetic


class TestArithmetic:
    def test_add_poles(self):
        assert scalar(1, {(-1,): 2}) + scalar(1, {(-1,): 3}) == scalar(1, {(-1,): 5})

    def test_mul_exponent_addition(self):
        assert scalar(1, {(-1,): 1}) * scalar(1, {(2,): 1}) == scalar(1, {(1,): 1})

    def test_mul_rejects_order_two_pole(self):
        with pytest.raises(AdmissibilityViolation):
            scalar(1, {(-1,): 1}) * scalar(1, {(-1,): 1})

    def test_construction_rejects_deep_exponent(self):
        with pytest.raises(AdmissibilityViolation):
            LaurentPoly(1, 1, {(-2,): (1,)})

    def test_normal_form_drops_zeros(self):
        p = scalar(1, {(1,): 1}) - scalar(1, {(1,): 1})
        assert p.terms == {}

    def test_scale(self):
        assert scalar(1, {(1,): 2}).scale(cr(0, 1)) == scalar(1, {(1,): cr(0, 2)})
        assert 3 * scalar(1, {(0,): 1}) == scalar(1, {(0,): 3})

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            scalar(1, {(0,): 1}) + scalar(2, {(0, 0): 1})

    def test_vector_assembly(self):
        f = LaurentPoly.from_components([scalar(1, {(-1,): 1}), scalar(1, {(1,): 2})])
        assert f.k == 2
        assert f.coefficient((-1,)) == (cr(1), CR_ZERO)
        assert f.coefficient((1,)) == (CR_ZERO, cr(2))


# ------------------------------------------------------- boundary integrals


class TestExteriorIntegral:
    def test_pole_expectation_vanishes(self):
        f = scalar(1, {(-1,): 1})
        assert exterior_integral(f, (-1,)) == (CR_ZERO,)

    def test_tail_expectation_vanishes(self):
        assert exterior_integral(scalar(1, {(2,): 1}), (-1,)) == (CR_ZERO,)

    def test_conjugate_weighting(self):
        # conj(w^2) restricted to |w| = 2 is 16/w^2; against weight w the
        # normalized contour integral picks up conj(c_2) * lam^4 = 16.
        value = exterior_integral(scalar(1, {(2,): 1}), (1,), conjugate=True, lam=2)
        assert value == (cr(16),)

    def test_conjugate_of_absent_coefficient(self):
        value = exterior_integral(scalar(1, {(2,): 1}), (2,), conjugate=True, lam=2)
        assert value == (CR_ZERO,)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            exterior_integral(scalar(1, {(0,): 1}), (0, 0))


class TestInnerProduct:
    def test_pole_norm(self):
        f = scalar(1, {(-1,): 1})
        assert inner_product_exact(f, f, Fraction(1, 2)) == cr(4)

    def test_distinct_monomials_orthogonal(self):
        assert inner_product_exact(scalar(1, {(1,): 1}), scalar(1, {(-1,): 1}), 1) == CR_ZERO

    def test_linear_norm(self):
        f = scalar(1, {(1,): 1})
        assert inner_product_exact(f, f, 2) == cr(4)

    def test_conjugate_linear_in_first_argument(self):
        f = scalar(1, {(1,): cr(0, 1)})
        g = scalar(1, {(1,): 1})
        assert inner_product_exact(f, g, 1) == cr(0, -1)
        assert inner_product_exact(g, f, 1) == cr(0, 1)


# ------------------------------------------------------------ decomposition


class TestDecompose:
    def test_basic_reading(self):
        f = scalar(1, {(0,): 3, (-1,): 2, (1,): 5, (2,): 1})
        d = decompose(f)
        assert d.core == (cr(3),)
        assert d.eta == ((cr(2),),)
        assert d.jacobian == ((cr(5),),)
        assert d.analytic == scalar(1, {(1,): 5, (2,): 1})
        assert d.principal == scalar(1, {(-1,): 2})

    def test_two_dimensional(self):
        f = LaurentPoly(2, 1, {(-1, 0): (1,), (0, -1): (1,), (1, 1): (1,)})
        d = decompose(f)
        assert d.eta == ((cr(1), cr(1)),)
        assert d.jacobian == ((CR_ZERO, CR_ZERO),)
        assert d.analytic == LaurentPoly(2, 1, {(1, 1): (1,)})

    def test_mixed_pole_rejected(self):
        with pytest.raises(MixedPoleTerm):
            decompose(LaurentPoly(2, 1, {(-1, 1): (1,)}))
        with pytest.raises(MixedPoleTerm):
            decompose(LaurentPoly(2, 1, {(-1, -1): (1,)}))


# ---------------------------------------------------------------- variance


class TestVariance:
    def test_pole_plus_linear(self):
        assert variance_exact(scalar(1, {(-1,): 2, (1,): 5}), 1) == 29

    def test_constant_has_no_variance(self):
        assert variance_exact(scalar(1, {(0,): 7}), Fraction(1, 2)) == 0

    def test_square_tail(self):
        assert variance_exact(scalar(1, {(2,): 1}), Fraction(1, 2)) == Fraction(1, 16)

    def test_mixed_pole_propagates(self):
        with pytest.raises(MixedPoleTerm):
            variance_exact(LaurentPoly(2, 1, {(-1, 1): (1,)}), 1)

    def test_model_values(self):
        eta = ((cr(1),),)
        zero = ((CR_ZERO,),)
        assert variance_model_exact(eta, zero, Fraction(1, 2)) == 4
        assert variance_model_exact(eta, eta, 1) == 2
        eta2 = ((cr(1), cr(1)),)
        zero2 = ((CR_ZERO, CR_ZERO),)
        assert variance_model_exact(eta2, zero2, 1) == 2

    def test_model_numeric_matches_exact(self):
        eta = ((cr(1, 1), cr(0, 2)),)
        jac = ((cr(3), CR_ZERO),)
        exact = float(variance_model_exact(eta, jac, Fraction(7, 10)))
        numeric = variance_model(eta, jac, 0.7)
        assert math.isclose(exact, numeric, rel_tol=1e-12)

    def test_trace_norm(self):
        assert trace_norm_sq_exact(((cr(1, 1), cr(2)),)) == 6

    def test_component_norm(self):
        f = scalar(1, {(2,): 1})
        for lam in (Fraction(1, 2), Fraction(1), Fraction(17, 10)):
            assert component_norm_sq(f, 0, lam) == lam**4

    def test_component_index_is_checked(self):
        # a negative index does not wrap round to the last component, a bool
        # is not read as 1 and an index past k - 1 is not a raw IndexError
        f = LaurentPoly(1, 2, {(0,): (1, 0), (1,): (0, 2)})
        assert [component_norm_sq(f, alpha) for alpha in (0, 1)] == [1, 4]
        for alpha in (-1, 2):
            with pytest.raises(DimensionMismatch, match="outside 0..1"):
                component_norm_sq(f, alpha)
        for alpha in (True, 1.0, np.float64(0)):
            with pytest.raises(ValueError, match="not an integer"):
                component_norm_sq(f, alpha)
        assert component_norm_sq(f, np.int64(1)) == 4

    def test_scale_must_be_positive(self):
        f = scalar(1, {(-1,): 1})
        with pytest.raises(ValueError):
            variance_exact(f, 0)
        with pytest.raises(ValueError):
            inner_product_exact(f, f, -1)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_scale_must_be_finite(self, lam):
        f = scalar(1, {(-1,): 1, (1,): 2})
        calls = [
            lambda: variance_exact(f, lam),
            lambda: inner_product_exact(f, f, lam),
            lambda: component_norm_sq(f, 0, lam),
            lambda: variance_model_exact(((cr(1),),), ((cr(2),),), lam),
            lambda: exterior_integral(f, (0,), conjugate=True, lam=lam),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="positive and finite"):
                call()


# ------------------------------------------------------------ exponent rule

# Every entry point that takes an exponent, order or weight vector, here
# given one of length 1, reads it by one rule (laurent._exponents).
_VECTOR_READERS = {
    "LaurentPoly": lambda a: scalar(1, {(0,): 2, a: 3}).terms,
    "coefficient": lambda a: scalar(1, {(0,): 3, (1,): 2}).coefficient(a),
    "exterior_integral": lambda a: exterior_integral(
        scalar(1, {(1,): 1, (2,): 5}), a, conjugate=True),
    "laurent_coefficient": lambda a: laurent_coefficient(
        sample_torus(parse("1/w + 2 + w", 1), 1.0, 8), a),
    "adaptive_coefficients": lambda a: adaptive_coefficients(parse("1/(w-2)", 1), 1.0, [a]),
}


@pytest.mark.parametrize("reader", list(_VECTOR_READERS))
@pytest.mark.parametrize("a, error", [
    ((0.5,), ValueError), ((1.0,), ValueError), ((True,), ValueError),
    ((np.int64(1),), None), ((1, 0), DimensionMismatch),
], ids=["0.5", "1.0", "True", "int64", "length2"])
def test_one_rule_for_exponent_vectors(reader, a, error):
    # each reader has a nonzero coefficient at 0 and 1, so truncating 0.5,
    # 1.0 or True would read a plausible number; an int64 entry is read as
    # the int it equals
    read = _VECTOR_READERS[reader]
    if error is None:  # repr tells np.int64(1) from 1, so keys must be ints
        assert repr(read(a)) == repr(read((1,)))
    else:
        with pytest.raises(error):
            read(a)


# ---------------------------------------------------------------- properties

_coeff = st.integers(-3, 3)
_rational = st.fractions(-3, 3, max_denominator=12)
# integer, rational and mixed operands
_coeffs = st.sampled_from([_coeff, _rational, st.one_of(_coeff, _rational)])


@st.composite
def decomposable_polys(draw, coeff=_coeff, n=None, k=None):
    n = draw(st.integers(1, 3)) if n is None else n
    k = draw(st.integers(1, 2)) if k is None else k
    allowed = [(0,) * n]
    for beta in range(n):
        for sign in (-1, 1):
            e = [0] * n
            e[beta] = sign
            allowed.append(tuple(e))
    tails = draw(
        st.lists(
            st.tuples(*([st.integers(0, 4)] * n)).filter(lambda e: 2 <= sum(e) <= 4),
            max_size=4,
        )
    )
    exps = allowed + tails
    terms = {}
    for e in exps:
        coeffs = tuple(cr(draw(coeff), draw(coeff)) for _ in range(k))
        terms[e] = coeffs
    return LaurentPoly(n, k, terms)


@settings(max_examples=150, deadline=None)
@given(decomposable_polys(), st.sampled_from([Fraction(3, 10), Fraction(1), Fraction(2)]))
def test_parseval_consistency(f, lam):
    ip = inner_product_exact(f, f, lam)
    core = f.coefficient((0,) * f.n)
    core_energy = sum((c.abs2() for c in core), Fraction(0))
    assert ip.im == 0
    assert variance_exact(f, lam) == ip.re - core_energy


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.data(),
    st.sampled_from([Fraction(3, 10), Fraction(1), Fraction(2)]),
)
def test_monomial_orthogonality(n, data, lam):
    a = tuple(data.draw(st.integers(-1, 4)) for _ in range(n))
    b = tuple(data.draw(st.integers(-1, 4)) for _ in range(n))
    wa = LaurentPoly.scalar(n, {a: 1})
    wb = LaurentPoly.scalar(n, {b: 1})
    ip = inner_product_exact(wa, wb, lam)
    if a == b:
        assert ip == ComplexRational(lam ** (2 * sum(a)))
    else:
        assert ip == CR_ZERO


@settings(max_examples=100, deadline=None)
@given(decomposable_polys(), st.sampled_from([Fraction(3, 10), Fraction(1), Fraction(2)]))
def test_variance_never_below_model(f, lam):
    d = decompose(f)
    assert variance_exact(f, lam) >= variance_model_exact(d.eta, d.jacobian, lam)


@settings(max_examples=100, deadline=None)
@given(decomposable_polys())
def test_uncertainty_floor_exact(f):
    d = decompose(f)
    for lam in (Fraction(3, 10), Fraction(1), Fraction(2)):
        assert lam * lam * variance_exact(f, lam) >= trace_norm_sq_exact(d.eta)


# ------------------------------------------------------------- serialization


def test_canonical_text():
    f = LaurentPoly(2, 2, {(1, 1): (cr(Fraction(1, 3)), CR_ZERO), (-1, 0): (cr(2), cr(0, 1))})
    assert f.canonical_text() == (
        "laurent n=2 k=2\n"
        "-1,0 : 2 0 | 0 1\n"
        "1,1 : 1/3 0 | 0 0\n"
    )


def test_eval_matches_terms():
    f = scalar(1, {(-1,): 2, (1,): 5})
    value = f.eval_at([0.5j])
    assert value[0] == pytest.approx(2 / 0.5j + 5 * 0.5j)


# ------------------------------------------------ exactness against Fractions
#
# A reference oracle in Fraction pairs (re, im) alone: every function of the
# oracle must equal it, and no part of a result may be a float.


def _pairs(vec):
    return [(Fraction(c.re), Fraction(c.im)) for c in vec]


def _ref_abs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _ref_conj_mul(a, b):
    """conj(a) * b."""
    return (a[0] * b[0] + a[1] * b[1], a[0] * b[1] - a[1] * b[0])


def _ref_energy(f, lam, part):
    """sum over the terms e of |part(e, vec)|^2 lam^(2 sum e)."""
    lam2 = Fraction(lam) ** 2
    return sum((sum((_ref_abs2(z) for z in _pairs(part(e, vec))), Fraction(0)) * lam2 ** sum(e)
                for e, vec in f.terms.items()), Fraction(0))


def _ref_trace(matrix):
    return sum((_ref_abs2(z) for row in matrix for z in _pairs(row)), Fraction(0))


def _exact_number(x):
    """An int, or a Fraction that is not integral: never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _same(z, pair):
    return _exact_number(z.re) and _exact_number(z.im) and (z.re, z.im) == pair


_scales = st.sampled_from([1, 2, Fraction(1, 3), Fraction(7, 4), Fraction(0.3)])


@settings(max_examples=80, deadline=None)
@given(st.data(), _coeffs, _scales)
def test_oracle_equals_fraction_reference(data, coeff, lam):
    f = data.draw(decomposable_polys(coeff))
    g = data.draw(decomposable_polys(coeff, f.n, f.k))
    lam2 = Fraction(lam) ** 2
    zero = (0,) * f.n
    d = decompose(f)

    value = variance_exact(f, lam)
    assert value == _ref_energy(f, lam, lambda e, vec: vec if e != zero else ())
    assert not isinstance(value, float)
    for alpha in range(f.k):
        value = component_norm_sq(f, alpha, lam)
        assert value == _ref_energy(f, lam, lambda e, vec: vec[alpha : alpha + 1])
        assert not isinstance(value, float)
    value = variance_model_exact(d.eta, d.jacobian, lam)
    assert value == _ref_trace(d.eta) / lam2 + lam2 * _ref_trace(d.jacobian)
    assert not isinstance(value, float)
    value = trace_norm_sq_exact(d.eta)
    assert value == _ref_trace(d.eta) and _exact_number(value)

    re = im = Fraction(0)
    for e, fvec in f.terms.items():
        for a, b in zip(_pairs(fvec), _pairs(g.terms.get(e, (CR_ZERO,) * f.k))):
            x, y = _ref_conj_mul(a, b)
            re, im = re + x * lam2 ** sum(e), im + y * lam2 ** sum(e)
    assert _same(inner_product_exact(f, g, lam), (re, im))

    for s in [tuple(x - 1 for x in e) for e in f.terms] + [zero]:
        got = exterior_integral(f, s, conjugate=True, lam=lam)
        factor = lam2 ** (sum(s) + f.n)
        want = _pairs(f.coefficient(tuple(x + 1 for x in s)))
        assert all(_same(z, (w[0] * factor, -w[1] * factor)) for z, w in zip(got, want))
        got = exterior_integral(f, s)
        want = _pairs(f.coefficient(tuple(-x - 1 for x in s)))
        assert all(_same(z, w) for z, w in zip(got, want))

    for vec in f.terms.values():
        for z, (x, y) in zip(vec, _pairs(vec)):
            value = z.abs2()
            assert value == x * x + y * y and _exact_number(value)
            if z:
                d2 = x * x + y * y
                assert _same(z.reciprocal(), (x / d2, -y / d2))


# ------------------------------------------- ComplexRational value contract


class TestComplexRationalContract:
    """What the frozen-dataclass ComplexRational guaranteed still holds."""

    def test_equal_parts_equal_values(self):
        for a, b in [(ComplexRational(1), ComplexRational(Fraction(1))),
                     (ComplexRational(0.5, 2), ComplexRational(Fraction(1, 2), Fraction(4, 2))),
                     (ComplexRational(), CR_ZERO)]:
            assert a == b and hash(a) == hash(b)
        assert ComplexRational(1) != ComplexRational(1, 1)
        assert ComplexRational(1) != 1  # no equality with plain numbers

    def test_parts_are_ints_or_fractions(self):
        z = ComplexRational(Fraction(4, 2), 0.25)
        assert type(z.re) is int and z.re == 2
        assert z.im == Fraction(1, 4) and type(z.im) is Fraction
        w = ComplexRational(Fraction(1, 2)) + ComplexRational(Fraction(1, 2))
        assert type(w.re) is int and type(w.im) is int
        v = ComplexRational(np.int64(3), np.float64(-2.0))
        assert type(v.re) is int and type(v.im) is int and v == ComplexRational(3, -2)

    def test_repr_and_str(self):
        z = ComplexRational(1, Fraction(-1, 2))
        assert repr(z) == "ComplexRational(re=Fraction(1, 1), im=Fraction(-1, 2))"
        assert str(z) == "1-1/2i"
        assert str(ComplexRational(Fraction(3, 4), 2)) == "3/4+2i"

    def test_frozen(self):
        z = ComplexRational(1, 2)
        with pytest.raises(FrozenInstanceError):
            z.re = 3
        with pytest.raises(FrozenInstanceError):
            z.other = 3
        with pytest.raises(FrozenInstanceError):
            del z.im
        assert z == ComplexRational(1, 2)

    def test_pickle_round_trip(self):
        for z in (CR_ZERO, ComplexRational(3, -2), ComplexRational(Fraction(1, 3), 0.1)):
            back = pickle.loads(pickle.dumps(z))
            assert back == z and hash(back) == hash(z) and repr(back) == repr(z)

    def test_canonical_text_bytes(self):
        text = (
            "laurent n=1 k=2\n"
            "-1 : 2 0 | 1/2 -3\n"
            "1 : 0 1 | 7/3 0\n"
        )
        for two, half in [(2, Fraction(1, 2)), (Fraction(2), 0.5), (2.0, Fraction(2, 4))]:
            f = LaurentPoly(1, 2, {(-1,): (two, ComplexRational(half, -3)),
                                   (1,): (ComplexRational(0, 1), Fraction(7, 3))})
            assert f.canonical_text() == text


# ----------------------------------------------- evaluation, bit for bit


def _eval_reference(f, coords):
    """Term-by-term evaluation: each power taken where its term needs it."""
    out = [None] * f.k
    for exps, vec in f.terms.items():
        mono = None
        for j, e in enumerate(exps):
            if e == 0:
                continue
            p = coords[j] ** e
            mono = p if mono is None else mono * p
        for alpha in range(f.k):
            if not vec[alpha]:
                continue
            term = complex(vec[alpha]) if mono is None else complex(vec[alpha]) * mono
            out[alpha] = term if out[alpha] is None else out[alpha] + term
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    return [np.broadcast_to(np.asarray(v if v is not None else 0j), shape) for v in out]


def _grid_coords(n, lam, N) -> list[np.ndarray]:
    """The coordinates lam * exp(2*pi*i*m/N) of the N^n grid, axis j's along
    axis j, after a leading scale axis when lam is a sequence."""
    radius = np.asarray(lam, dtype=float)
    radius = radius.reshape(radius.shape + (1,) * n)
    circle = np.exp(2j * np.pi * np.arange(N) / N)
    return [radius * circle.reshape([N if i == j else 1 for i in range(n)]) for j in range(n)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data(), _coeffs,
       st.lists(st.floats(0.2, 5.0), min_size=1, max_size=4), st.booleans())
def test_eval_grid_matches_term_by_term(n, data, coeff, lams, lead):
    term = st.tuples(*[st.integers(-1, 4)] * n)
    vec = st.tuples(*[st.builds(cr, coeff, coeff)] * 2)
    f = LaurentPoly(n, 2, data.draw(st.dictionaries(term, vec, max_size=8)))
    coords = _grid_coords(n, lams if lead else lams[0], 8)
    for _ in range(2):  # the second call reads the cached coefficients
        got = f.eval_grid(coords)
        want = _eval_reference(f, coords)
        assert [g.shape for g in got] == [w.shape for w in want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
