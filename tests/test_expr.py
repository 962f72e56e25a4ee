"""Parser, evaluator and exact-form tests for the expression DSL."""

import pickle
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import MALFORMED_CASES, NESTED_SHAPES, VALID_CASES
from polylens.errors import (
    AdmissibilityViolation,
    DimensionMismatch,
    DivisionNearZero,
    ExpansionTooLarge,
    NotLaurent,
    ParseError,
    UnknownVariable,
)
from polylens.expr import (
    MAX_NESTING,
    BinOp,
    Lit,
    MeroExpr,
    Neg,
    Pow,
    Var,
    fold,
    parse,
    substitute,
    to_laurent,
    to_text,
)
from polylens.laurent import LaurentPoly


class TestGrammar:
    def test_basic_shape(self):
        e = parse("1/w + w", 1)
        assert e.components == (BinOp("+", BinOp("/", Lit(Fraction(1), Fraction(0)), Var(0)), Var(0)),)

    def test_precedence_power_binds_tightest(self):
        e = parse("2*w^3", 1)
        (comp,) = e.components
        assert comp.right == Pow(Var(0), 3)

    def test_left_association(self):
        e = parse("1 - 2 - 3", 1)
        (comp,) = e.components
        assert isinstance(comp.left, type(comp))  # (1-2)-3

    def test_unary_minus(self):
        e = parse("-w", 1)
        assert e.components == (Neg(Var(0)),)

    def test_imaginary_literals(self):
        assert parse("i", 1).components == (Lit(Fraction(0), Fraction(1)),)
        assert parse("4i", 1).components == (Lit(Fraction(0), Fraction(4)),)
        assert parse("0.5i", 1).components == (Lit(Fraction(0), Fraction(1, 2)),)

    def test_decimals_are_exact(self):
        (lit,) = parse("0.1", 1).components
        assert lit.re == Fraction(1, 10)

    def test_vector(self):
        e = parse("1/w, w", 1)
        assert e.k == 2

    def test_bare_variable_only_when_univariate(self):
        assert parse("w", 1).components == (Var(0),)
        with pytest.raises(UnknownVariable):
            parse("w", 2)

    def test_variable_letter(self):
        e = parse("1/u1 + u2", 2, var_letter="u")
        assert e.var_letter == "u"
        with pytest.raises(ParseError):
            parse("1/w1", 2, var_letter="u")

    def test_signed_exponent(self):
        assert parse("w^-1", 1).components == (Pow(Var(0), -1),)


@pytest.mark.parametrize("text,n", VALID_CASES)
def test_round_trip(text, n):
    first = parse(text, n)
    second = parse(to_text(first), n)
    assert second.components == first.components


def test_valid_corpus_size():
    assert len(VALID_CASES) >= 100


@pytest.mark.parametrize("text,n,offset", MALFORMED_CASES)
def test_error_offsets(text, n, offset):
    with pytest.raises(ParseError) as excinfo:
        parse(text, n)
    assert excinfo.value.offset == offset
    assert excinfo.value.expected
    assert excinfo.value.found


def test_malformed_corpus_size():
    assert len(MALFORMED_CASES) >= 30


class TestNestingCap:
    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    def test_at_the_cap(self, shape):
        make, _ = NESTED_SHAPES[shape]
        e = parse(make(MAX_NESTING), 1)
        assert to_laurent(e).terms  # every reader folds the whole tree
        assert e.eval_at([0.5])
        assert parse(to_text(e), 1).components == e.components

    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    def test_over_the_cap(self, shape):
        make, offset = NESTED_SHAPES[shape]
        with pytest.raises(ParseError, match="levels of nesting") as excinfo:
            parse(make(MAX_NESTING + 1), 1)
        assert excinfo.value.offset == offset

    @pytest.mark.parametrize("text", [
        "w+" * 1199 + "w", "(" * 200 + "w" + ")" * 200, "-" * 1000 + "w", "*".join(["w"] * 1200),
    ])
    def test_far_over_the_cap(self, text):
        with pytest.raises(ParseError, match="levels of nesting"):
            parse(text, 1)

    def test_levels_add_up(self):
        # a chain inside parentheses inside a chain: 1 + 1 + 98 levels
        inner = "*".join(["w"] * 99)
        parse(f"w + ({inner})", 1)
        with pytest.raises(ParseError, match="levels of nesting"):
            parse(f"w + ({inner}*w)", 1)
        # the left operand of a chain goes one level down per operator
        parse("-" * 99 + "w + w", 1)
        with pytest.raises(ParseError, match="levels of nesting") as excinfo:
            parse("-" * 99 + "w + w + w", 1)
        assert excinfo.value.offset == 105


@pytest.mark.parametrize("n", [1.5, 2.0, True, False, 0, -1])
def test_dimension_must_be_a_positive_integer(n):
    # a float is not truncated inside the fold and a bool is not read as 1
    with pytest.raises(DimensionMismatch, match="dimension must be an integer >= 1"):
        parse("w1", n)


def test_unknown_variable_example():
    with pytest.raises(UnknownVariable) as excinfo:
        parse("1/w3", 2)
    assert excinfo.value.offset == 2


class TestEval:
    def test_complex_division(self):
        assert parse("(3+4i)/w", 1).eval_at([1j]) == (pytest.approx(4 - 3j),)

    def test_product(self):
        assert parse("w1*w2", 2).eval_at([2, 3j]) == (pytest.approx(6j),)

    def test_power(self):
        assert parse("w^3", 1).eval_at([2]) == (pytest.approx(8 + 0j),)

    def test_division_near_zero(self):
        with pytest.raises(DivisionNearZero) as excinfo:
            parse("1/w", 1).eval_at([1e-15])
        assert excinfo.value.point is not None

    def test_negative_power_near_zero(self):
        with pytest.raises(DivisionNearZero):
            parse("w^-2", 1).eval_at([1e-15])

    def test_grid_broadcasting(self):
        e = parse("w1 + w2", 2)
        a = np.array([[1.0], [2.0]], dtype=complex)
        b = np.array([[10.0, 20.0]], dtype=complex)
        (values,) = e.eval_grid([a, b])
        assert values.shape == (2, 2)
        assert values[1, 0] == 12


class TestToLaurent:
    def test_simple_terms(self):
        lp = to_laurent(parse("3 + 2/w1 + w1*w2", 2))
        assert len(lp.terms) == 3
        assert lp == LaurentPoly(2, 1, {(0, 0): (3,), (-1, 0): (2,), (1, 1): (1,)})

    def test_non_monomial_divisor(self):
        with pytest.raises(NotLaurent):
            to_laurent(parse("1/(w1+w2)", 2))

    def test_order_two_pole(self):
        with pytest.raises(AdmissibilityViolation):
            to_laurent(parse("(1/w)^2", 1))
        with pytest.raises(AdmissibilityViolation):
            to_laurent(parse("w^-2", 1))

    def test_negative_power_of_monomial(self):
        assert to_laurent(parse("(2*w)^-1", 1)) == LaurentPoly.scalar(
            1, {(-1,): Fraction(1, 2)}
        )

    def test_exact_decimal_coefficients(self):
        lp = to_laurent(parse("0.1*w", 1))
        assert lp.coefficient((1,))[0].re == Fraction(1, 10)

    def test_division_by_exact_zero(self):
        with pytest.raises((NotLaurent, ZeroDivisionError)):
            to_laurent(parse("1/(w - w)", 1))


class TestExpansionCaps:
    def test_binary_power_matches_repeated_products(self):
        base = to_laurent(parse("1 + 2*w1 - w1^2*w2", 2))
        want = base
        for _ in range(6):
            want = want * base
        assert to_laurent(parse("(1 + 2*w1 - w1^2*w2)^7", 2)) == want

    @pytest.mark.parametrize("text,n", [
        ("w^5000", 1),                         # degree cap, before expanding
        ("w + 0.25*w^99999999", 1),
        # the walk sees no range (non-monomial divisor); the power's expanded
        # base is checked before exponentiation
        ("((w + 1 - 1)/(w + 1 - 1) + w)^1000000", 1),
        ("(1 + w)^200", 1),                    # product cap inside a power
        ("(1 + w1)^70 * (1 + w2)^70", 2),      # product cap of a multiplication
    ])
    def test_caps_bound_the_work(self, text, n):
        start = time.perf_counter()
        with pytest.raises(ExpansionTooLarge):
            to_laurent(parse(text, n))
        assert time.perf_counter() - start < 1.0

    def test_sparse_wide_range_expands(self):
        # a 6 x 4 x 6 exponent box with six terms, as random_decomposable draws
        lp = to_laurent(parse("1/w1 + 1/w2 + 1/w3 + w1^4 + w2^2*w3^2 + w3^4", 3))
        assert len(lp.terms) == 6


@st.composite
def _monomial_divisor_texts(draw):
    """Expressions in w1..wn that divide (or take negative powers) only by
    monomials, so their exponent range is always known."""
    n = draw(st.integers(1, 3))
    var = st.integers(1, n).map(lambda j: f"w{j}")
    number = st.sampled_from(["1", "2", "0.5", "3i", "(1-2i)"])
    monomial = st.tuples(number, st.lists(var, min_size=1, max_size=3)).map(
        lambda t: "*".join([t[0], *t[1]])
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"
            ),
            st.tuples(inner, monomial).map(lambda t: f"({t[0]})/({t[1]})"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(monomial, st.integers(-2, -1)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda t: f"-({t})"),
        )

    components = draw(st.lists(st.recursive(st.one_of(number, var), extend, max_leaves=6),
                               min_size=1, max_size=2))
    return ", ".join(components), n


@settings(max_examples=100, deadline=None)
@given(_monomial_divisor_texts())
def test_exponent_bounds_hold_the_expansion(case):
    text, n = case
    e = parse(text, n)
    bounds = e.exponent_bounds()
    assert bounds is not None and len(bounds) == n
    try:
        exact = to_laurent(e)
    except (AdmissibilityViolation, ExpansionTooLarge):
        return
    for exps in exact.terms:
        assert all(lo <= x <= hi for x, (lo, hi) in zip(exps, bounds))


def test_exponent_bounds_need_monomial_divisors():
    assert parse("1/(2*w1*w2^2) + w1, w2^3", 2).exponent_bounds() == [(-1, 1), (-2, 3)]
    assert parse("(3*w)^-2 - 1", 1).exponent_bounds() == [(-2, 0)]
    assert parse("1/w + 1/(w - 2)", 1).exponent_bounds() is None
    assert parse("(w + 1)^-1", 1).exponent_bounds() is None


def test_semantic_agreement_with_oracle():
    """Wherever the exact form exists, numeric evaluation matches it at random
    points of the boundary torus to 1e-12."""
    rng = np.random.default_rng(20260810)
    checked = 0
    for text, n in VALID_CASES:
        expr = parse(text, n)
        try:
            exact = to_laurent(expr)
        except (NotLaurent, AdmissibilityViolation, ZeroDivisionError):
            continue
        for _ in range(100 // max(1, len(VALID_CASES) // 40)):
            lam = float(rng.choice([0.7, 1.0]))
            point = [
                lam * np.exp(2j * np.pi * float(rng.random())) for _ in range(n)
            ]
            got = expr.eval_at(point)
            want = exact.eval_at(point)
            scale = max(1.0, max(abs(v) for v in want))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, want))
            checked += 1
    assert checked >= 100


def test_substitute():
    e = parse("1/u", 1, var_letter="u")
    g = parse("2*w", 1)
    out = substitute(e.components[0], g.components)
    composed = MeroExpr(1, (out,), "w")
    assert composed.eval_at([0.25]) == (pytest.approx(1 / 0.5),)


def test_to_text_explicit_form():
    assert to_text(parse("1/w + w", 1)) == "1/w1+w1"
    # unary minus is part of `base`, so the power applies to the negated base
    assert to_text(parse("-w^2", 1)) == "-w1^2"


def test_pickle_round_trip():
    coords = [np.exp(2j * np.pi * np.arange(16) / 16)[:, None], np.array([[0.5, 2j, -1.5]])]
    for text in ["1/w1 + w1*w2^2 - (3+4i)", "(2*w1)^-1 + w2, 1/(w2 - 3) + 0.5i*w1"]:
        e = parse(text, 2)
        back = pickle.loads(pickle.dumps(e))
        assert back == e and hash(back) == hash(e) and repr(back) == repr(e)
        assert back.exponent_bounds() == e.exponent_bounds()
        for got, want in zip(back.eval_grid(coords), e.eval_grid(coords)):
            assert np.array_equal(got, want)


def test_fold_rejects_a_non_node():
    steps = {kind: lambda node, *subs: node for kind in (Lit, Var, Neg, BinOp, Pow)}
    with pytest.raises(TypeError, match="unknown node"):
        fold("w1", steps)
    with pytest.raises(TypeError, match="unknown node"):
        fold(BinOp("+", Var(0), 1.5), steps)


def _trees(n: int, depth: int):
    """Trees of every node type, as the parser builds them: literals are
    nonnegative and either real or imaginary.  Divisors and negative powers
    may be non-monomials; depth and exponents are kept small so that the
    float evaluation stays within 1e-12 relative of the exact one."""
    number = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
    leaf = st.one_of(
        number.map(lambda x: Lit(x, Fraction(0))),
        number.map(lambda x: Lit(Fraction(0), x)),
        st.integers(0, n - 1).map(Var),
    )
    if depth == 0:
        return leaf
    inner = _trees(n, depth - 1)
    return st.one_of(
        leaf,
        st.builds(Neg, inner),
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
        st.builds(Pow, inner, st.integers(-2, 2)),
    )


@st.composite
def _random_exprs(draw):
    n = draw(st.integers(1, 3))
    return MeroExpr(n, tuple(draw(st.lists(_trees(n, 3), min_size=1, max_size=2))))


@settings(max_examples=200, deadline=None)
@given(_random_exprs())
def test_readers_agree_on_random_trees(e):
    assert parse(to_text(e), e.n).components == e.components
    identity = [Var(j) for j in range(e.n)]
    assert all(substitute(node, identity) == node for node in e.components)
    try:
        exact = to_laurent(e)
    except (NotLaurent, AdmissibilityViolation, ExpansionTooLarge):
        return
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    coords = [ring.reshape([-1 if j == d else 1 for j in range(e.n)]) for d in range(e.n)]
    for got, want in zip(e.eval_grid(coords), exact.eval_grid(coords)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
