"""The random inputs the verify checks draw; the evaluators they build
around LaurentPoly inputs: their declared exponent ranges, and the grids a
tail case samples; and the result a failing check reports."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _grids import exact_grid, recorded_grids
from polylens import quadrature, verify
from polylens.laurent import LaurentPoly, trace_norm_sq_exact
from polylens.quadrature import expectation_numeric, sample_torus
from polylens.verify import (
    CheckResult,
    _coordinate_functions,
    _tail_integral_shapes_exact,
    _tail_integral_shapes_numeric,
    _tail_self_energy_numeric,
    check_full_disc,
    check_pairing_identities,
    check_tail_integrals_vanish,
    random_decomposable,
    random_matrices,
    random_tail,
)


def _parts(vec, bound):
    """Assert each coefficient of vec has integer parts in [-bound, bound]."""
    for c in vec:
        assert type(c.re) is int and type(c.im) is int
        assert abs(c.re) <= bound and abs(c.im) <= bound


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 2), st.booleans())
def test_generators_draw_from_their_family(seed, n, k, allow_tail):
    rng = np.random.default_rng(seed)
    f = random_decomposable(rng, n=n, k=k, allow_tail=allow_tail)
    tail = random_tail(rng, n, k)
    eta, jac = random_matrices(rng, n, k)
    units = [tuple(sign * (j == beta) for j in range(n)) for beta in range(n) for sign in (-1, 1)]
    tails = set(verify._tail_exps(n))
    assert all(2 <= sum(e) <= 4 and min(e) >= 0 for e in tails)
    for poly in (f, tail):
        # the trusted constructor skipped no normalisation
        assert (poly.n, poly.k) == (n, k) and poly == LaurentPoly(n, k, poly.terms)
        for vec in poly.terms.values():
            _parts(vec, 3)
    assert set(f.terms) <= {(0,) * n, *units, *(tails if allow_tail else ())}
    assert set(tail.terms) <= tails
    for alpha in range(k):  # every component of a tail is nonzero, of 1 to 4 terms
        assert 1 <= sum(bool(vec[alpha]) for vec in tail.terms.values()) <= 4
    for matrix in (eta, jac):
        assert len(matrix) == k and all(len(row) == n for row in matrix)
        assert trace_norm_sq_exact(matrix) > 0
        for row in matrix:
            _parts(row, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tail_table_is_the_set_rejection_accepts(n):
    accepted = {e for e in itertools.product(range(5), repeat=n) if 2 <= sum(e) <= 4}
    table = verify._tail_exps(n)
    assert len(table) == len(set(table)) and set(table) == accepted


def test_terms_appear_with_their_probabilities():
    # a term is kept with probability p and its coefficient is nonzero with
    # probability 48/49; 5 standard deviations over 4,000 draws
    draws, n = 4000, 2
    rng = np.random.default_rng(2025)
    seen = dict.fromkeys([(0, 0), (-1, 0), (0, -1), (1, 0), (0, 1)], 0)
    for _ in range(draws):
        f = random_decomposable(rng, n=n, k=1)
        for e in seen:
            seen[e] += e in f.terms
    for e, count in seen.items():
        p = (0.8 if e == (0, 0) else 0.7) * 48 / 49
        assert abs(count / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws), (e, count)


def _assert_range_holds(fn, lam):
    """Every coefficient outside the declared range vanishes on a grid twice
    the exact one and of at least 32 points, so that no stray term of
    degree below 16 aliases inside the range, relative to the peak of the
    samples."""
    bounds = fn.exponent_bounds()
    M = max(32, 2 * exact_grid(bounds))
    grid = sample_torus(fn, lam, M)
    # entry a (mod M) is lam^(sum a) times the coefficient of order a
    spectrum = np.fft.fftn(grid.values, axes=tuple(range(fn.n))) / M**fn.n
    inside = np.zeros((M,) * fn.n, dtype=bool)
    inside[np.ix_(*[np.arange(lo, hi + 1) % M for lo, hi in bounds])] = True
    outside = np.abs(spectrum[~inside]).max(initial=0.0)
    assert outside <= 1e-12 * max(1.0, grid.peak), (bounds, outside)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 2),
    st.sampled_from((0.5, 0.8, 1.1, 2.0)),
)
def test_declared_ranges_hold_the_expansion(seed, n, k, lam):
    tail = random_tail(np.random.default_rng(seed), n, k)
    _, shapes = _tail_integral_shapes_numeric(tail)
    for fn in (shapes, _tail_self_energy_numeric(tail), *_coordinate_functions(n)):
        _assert_range_holds(fn, lam)
        exact = expectation_numeric(fn, lam)
        doubled = expectation_numeric(dataclasses.replace(fn, bounds=None), lam)
        assert np.all(np.abs(exact - doubled) <= 1e-12 * np.maximum(1.0, np.abs(doubled)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_shapes_follow_the_exact_order(n):
    tail = random_tail(np.random.default_rng(n), n, 2)
    names, fn = _tail_integral_shapes_numeric(tail)
    assert names == [name for name, _ in _tail_integral_shapes_exact(tail)]
    assert len(names) == 2 + 4 * n and fn.k == 2 * len(names)
    # each block of k components is the integrand its name describes
    c = [np.asarray(0.6 + 0.3j * (j + 1)) for j in range(n)]
    v = tail.eval_grid(c)
    want = {"plain": v, "conj": [np.conj(x) for x in v]}
    for d in range(n):
        for prefix, base in (("", want["plain"]), ("conj_", want["conj"])):
            want[f"{prefix}times_w{d + 1}"] = [x * c[d] for x in base]
            want[f"{prefix}over_w{d + 1}"] = [x / c[d] for x in base]
    got = fn.eval_grid(c)
    for s, name in enumerate(names):
        assert np.array_equal(got[2 * s : 2 * s + 2], want[name]), name


@pytest.mark.parametrize("seed", [0, 7])
def test_a_tail_case_samples_one_exact_grid(seed, monkeypatch):
    def doubling(*args, **kwargs):
        raise AssertionError("the doubling loop ran")

    monkeypatch.setattr(quadrature, "_adaptive", doubling)
    with recorded_grids() as grids:
        result = check_tail_integrals_vanish(seed)
    assert result.passed and result.cases == 100
    assert len(grids) == 100
    assert all(g.N == exact_grid(g.f.exponent_bounds()) for g in grids)


def test_pairings_sample_only_their_exact_grids(monkeypatch):
    # each operand's rounding is bounded by its own peak, so a coordinate
    # monomial against f meets the tolerance on the exact grid at every scale
    def doubling(*args, **kwargs):
        raise AssertionError("the doubling loop ran")

    monkeypatch.setattr(quadrature, "_adaptive", doubling)
    result = check_pairing_identities(7)
    assert result.passed and result.cases == 50


def test_a_failing_check_reports_its_first_failure(monkeypatch):
    monkeypatch.setattr(verify, "slice_measure", lambda s: 0.5)
    assert check_full_disc(0) == CheckResult(
        name="full_disc_normalization",
        passed=False,
        cases=3,
        detail="full disc at radius 0.2 != 1",
    )


_OFFSETS = {
    "measure": [0, 0, 1, 2, 0, 3, 4],
    "prop1": [0, 1],
    "lemma": [0, 1, 2],
    "theorem": [0, 1, 2, 3, 4, 5, 9, 6, 7, 8],
    "morph": [0, 0, 0, 0, 0],
}


def test_each_suite_runs_its_checks_by_name_at_their_seed_offsets(monkeypatch):
    # every suite entry reaches its check through the module-level name, so
    # a recorder set on each check_* sees every run and the seed it gets
    calls = []
    checks = [name for name in vars(verify) if name.startswith("check_")]
    for name in checks:
        def recorder(seed, name=name):
            calls.append((name, seed))
            return CheckResult(name, True, 0)

        monkeypatch.setattr(verify, name, recorder)
    assert sorted(verify.SUITES) == sorted(_OFFSETS)
    ran = []
    for suite, offsets in _OFFSETS.items():
        calls.clear()
        assert len(verify.run_suite(suite, 100)) == len(offsets)
        assert [seed - 100 for _, seed in calls] == offsets, suite
        ran += [name for name, _ in calls]
    assert sorted(ran) == sorted(checks)
