"""Torus-quadrature engine tests: sampling, coefficient extraction, adaptive
summaries, and agreement with the exact oracle."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylens.errors import (
    AliasingRisk,
    DimensionMismatch,
    GridTooLarge,
    NonConvergent,
    PoleOnTorus,
)
from polylens.analysis import variance_sweep
from polylens.expr import parse
from polylens.laurent import LaurentPoly, decompose, matrix_to_complex, variance_exact
from polylens.quadrature import (
    BLOCK_VALUES,
    GRID_SHIFT,
    SLAB_VALUES,
    GridFunction,
    TorusGrid,
    _alias_floor,
    adaptive_coefficients,
    expectation_numeric,
    first_order_summary,
    inner_product_numeric,
    laurent_coefficient,
    laurent_coefficients,
    sample_torus,
    spectral_summaries,
    spectral_summary,
    torus_coords,
)
from polylens.verify import random_decomposable


class TestSampling:
    def test_unit_pole_has_unit_modulus(self):
        grid = sample_torus(parse("1/w", 1), 1.0, 8)
        assert grid.values.shape == (8, 1)
        assert np.allclose(np.abs(grid.values), 1.0)

    def test_pole_on_torus_detected(self):
        with pytest.raises(PoleOnTorus):
            sample_torus(parse("1/(w1+w2)", 2), 1.0, 16)

    def test_pole_outside_disc_is_fine(self):
        grid = sample_torus(parse("1/(w-2)", 1), 1.0, 8)
        assert np.all(np.isfinite(grid.values))

    def test_grid_budget(self):
        with pytest.raises(GridTooLarge):
            sample_torus(parse("w1*w2", 2), 1.0, 8192)

    def test_dimension_cap(self):
        f = GridFunction(5, 1, lambda c: [c[0]])
        with pytest.raises(GridTooLarge):
            sample_torus(f, 1.0, 8)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            sample_torus(parse("w", 1), 1.0, 2)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0, 1e300, 1e-300])
    def test_scale_must_be_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="positive and finite"):
            sample_torus(parse("1/w", 1), lam, 16)

    def test_even_subgrid_has_the_coarse_coordinates(self):
        # the first refinement level reads the N grid off the 2N grid
        for N in (16, 32, 64, 128):
            for lam in (0.3, 1.0, 1.7, 2.5):
                fine = torus_coords(1, lam, 2 * N)[0]
                assert np.array_equal(fine[::2], torus_coords(1, lam, N)[0])

    def test_even_subgrid_matches_direct_sampling(self):
        f = parse("1/w1 + w2/(1.5 - w1*w2), w1^2", 2)
        coarse = sample_torus(f, 0.8, 32).even_subgrid()
        direct = sample_torus(f, 0.8, 16)
        assert coarse.N == 16 and coarse.values.shape == direct.values.shape
        assert np.allclose(coarse.values, direct.values, rtol=1e-14, atol=0)

    def test_big_grid_is_evaluated_in_slabs_of_the_first_axis(self):
        f = parse("1/w1 + 2*w2 + 3*w3 + 0.5/(4 - w1*w2*w3), w2^2", 3)
        counted = _Counted(f)
        grid = sample_torus(counted, 1.1, 64)
        rows = SLAB_VALUES * 64 // grid.values.size
        assert 1 < rows < 64 and counted.sizes == [rows] * (64 // rows)
        # a GridFunction need not be pointwise, so it is evaluated once
        sizes = []
        whole = sample_torus(
            GridFunction(3, 2, lambda c: sizes.append(c[0].size) or f.eval_grid(c)), 1.1, 64
        )
        assert sizes == [64]
        assert np.array_equal(grid.values, whole.values) and grid.peak == whole.peak

    def test_pole_found_in_a_slab_is_named_as_on_the_whole_grid(self):
        # |den| is 2e-10 at w1 = 1, in the first slab, and about 2e-16 at
        # w1 = -1, in the third: the error names the smallest, as one
        # evaluation of the whole grid does
        f = parse("1/((w1 - 1.0000000001)*(w1 + 1))", 2)
        errors = []
        for g in (f, GridFunction(2, 1, f.eval_grid)):
            with pytest.raises(PoleOnTorus) as excinfo:
                sample_torus(g, 1.0, 512)
            errors.append(excinfo.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].point == errors[1].point and errors[0].point[0].real < 0


class TestCoefficients:
    def test_residue_direct(self):
        grid = sample_torus(parse("1/w", 1), 0.3, 16)
        value = laurent_coefficient(grid, (-1,))
        assert abs(value[0] - 1.0) < 1e-12

    def test_shifted_pole_derivative(self):
        # d/dw (w-2)^-1 at 0 = -1/4
        grid = sample_torus(parse("1/(w-2)", 1), 1.0, 32)
        value = laurent_coefficient(grid, (1,))
        assert abs(value[0] + 0.25) < 1e-10

    def test_dft_exact_for_polynomials(self):
        grid = sample_torus(parse("w^3", 1), 1.0, 8)
        assert abs(laurent_coefficient(grid, (3,))[0] - 1.0) < 1e-12

    def test_aliasing_guard(self):
        grid = sample_torus(parse("w", 1), 1.0, 16)
        with pytest.raises(AliasingRisk):
            laurent_coefficient(grid, (8,))

    def test_dimension_check(self):
        grid = sample_torus(parse("w", 1), 1.0, 16)
        with pytest.raises(DimensionMismatch):
            laurent_coefficient(grid, (1, 1))


def _direct_coefficient(grid: TorusGrid, a) -> np.ndarray:
    """c_a as a plain sum over every grid point, one index at a time."""
    n, N = grid.n, grid.N
    dot = np.tensordot(np.asarray(a), np.indices((N,) * n), axes=(0, 0))
    phase = np.exp(-2j * np.pi * dot / N)
    total = np.sum(grid.values * phase[..., None], axis=tuple(range(n)))
    return total * grid.lam ** (-sum(a)) / N**n


@st.composite
def _grids_with_indices(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    N = draw(st.sampled_from((8, 16, 32)))
    lam = draw(st.sampled_from((0.3, 1.0, 1.7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (N,) * n + (k,)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # an order -2 class probe and a mixed index such as (1, -1, 0)
    beta = draw(st.integers(0, n - 1))
    fixed = [tuple(-2 if j == beta else 0 for j in range(n))]
    if n >= 2:
        fixed.append((1, -1) + (0,) * (n - 2))
    drawn = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=6))
    indices = draw(st.permutations(fixed + drawn))
    return TorusGrid(n=n, k=k, lam=lam, N=N, values=values), indices


class TestBatchedCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(_grids_with_indices())
    def test_matches_direct_sum(self, case):
        grid, indices = case
        got = laurent_coefficients(grid, indices)
        assert got.shape == (len(indices), grid.k)
        for row, a in zip(got, indices):
            want = _direct_coefficient(grid, a)
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_single_index_wrapper(self):
        grid = sample_torus(parse("1/w1 + 2*w2, w1*w2", 2), 0.7, 16)
        indices = [(0, 0), (-1, 0), (0, 1), (1, 1)]
        batch = laurent_coefficients(grid, indices)
        for row, a in zip(batch, indices):
            assert np.allclose(laurent_coefficient(grid, a), row, rtol=1e-14, atol=1e-14)

    def test_checks_every_index(self):
        grid = sample_torus(parse("w1", 2), 1.0, 16)
        with pytest.raises(AliasingRisk):
            laurent_coefficients(grid, [(0, 0), (1, 8)])
        with pytest.raises(DimensionMismatch):
            laurent_coefficients(grid, [(0, 0), (1,)])


# Accepted grid sizes and raised errors of the refinement loop:
# (expression, n, scale, keyword arguments, grid_n or error type).  Laurent
# expressions take the single exact grid; expressions that divide by a
# non-monomial (here 1/(w - 10) and the like) double N, and a grid whose
# nested delta squared meets the tolerance is confirmed on the shifted grid
# of the same N (1/(w-2): the N=32 confirmation misses 1e-10, N=64 passes).
_REFINEMENT_CORPUS = [
    ("1/w + w", 1, 1.0, {}, 16),
    ("1/w", 1, 0.5, {}, 16),
    ("1/w + 3*w + w^2", 1, 0.8, {}, 16),
    ("1/(w-2)", 1, 1.0, {}, 64),
    ("2/w1 + w2/(1.5 - w2)", 2, 0.9, {}, 64),
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {}, 64),
    ("1/(w-2)", 1, 1.0, {"max_n": 32}, NonConvergent),
    ("1/(w-2)", 1, 1.0, {"max_n": 64}, 64),
    ("1/w", 1, 1.0, {"max_n": 8}, NonConvergent),
    ("1/w", 1, 1.0, {"max_n": 16}, 16),
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {"max_points": 32**3 - 1}, GridTooLarge),
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {"max_points": 64**3 - 1}, GridTooLarge),
    ("1/(w - 1)", 1, 1.0, {}, PoleOnTorus),
    # exp(2*pi*i/32): a pole on an odd point of the 32-grid only
    ("1/(w - (0.98078528040323043 + 0.19509032201612825i))", 1, 1.0, {}, PoleOnTorus),
    # accepted at the second level of the doubling loop
    ("1/w + w + 1/(w - 10)", 1, 1.0, {}, 32),
    ("1/w + 1/(w - 10)", 1, 0.5, {}, 32),
    ("1/w + 3*w + w^2 + 1/(w - 10)", 1, 0.8, {}, 32),
    ("1/(w - 10)", 1, 1.0, {"max_n": 16}, NonConvergent),
    # exponent width 34 (orders -1..33): the exact grid is N=64
    ("w^33", 1, 1.0, {}, 64),
    ("w^33", 1, 1.0, {"max_n": 32}, NonConvergent),
    ("1/w + w^-31", 1, 1.0, {}, 64),
    ("2/w1 + 3*w2^2 + w1*w2/w3", 3, 0.7, {}, 16),
    # rho = 0.8: levels 32 and 64 miss, the shifted 128 grid confirms; a cap
    # of 64 refuses after two levels
    ("1/(w - 1.25)", 1, 1.0, {}, 128),
    ("1/(w - 1.25)", 1, 1.0, {"max_n": 64}, NonConvergent),
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {"max_points": 64**3}, 64),
]


class TestRefinement:
    @pytest.mark.parametrize("text,n,lam,kwargs,outcome", _REFINEMENT_CORPUS)
    def test_outcome_pinned(self, text, n, lam, kwargs, outcome):
        f = parse(text, n)
        if isinstance(outcome, int):
            assert spectral_summary(f, lam, **kwargs).grid_n == outcome
        else:
            with pytest.raises(outcome):
                spectral_summary(f, lam, **kwargs)

    def test_aliasing_at_the_first_level(self):
        # order 8 fits the 32-grid but not the 16-grid of the first level
        with pytest.raises(AliasingRisk):
            adaptive_coefficients(parse("w^8", 1), 1.0, [(8,)])

    def test_second_level_acceptance_samples_once(self):
        f = parse("1/w1 + 2*w2", 2)
        sizes = []

        def counted(coords):
            sizes.append(coords[0].size)
            return f.eval_grid(coords)

        s = spectral_summary(GridFunction(2, 1, counted), 1.0)
        assert s.grid_n == 32
        assert sizes == [32]

    @pytest.mark.parametrize("max_n", [8, 16, 31])
    def test_cap_without_room_for_two_grids(self, max_n):
        sizes = []
        f = GridFunction(1, 1, lambda c: sizes.append(c[0].size) or [1 / c[0]])
        with pytest.raises(NonConvergent, match="no room for two grids"):
            spectral_summary(f, 1.0, max_n=max_n)
        assert sizes == []


class _Counted:
    """An evaluator with an exponent range that records its grid sizes."""

    def __init__(self, f):
        self.f, self.n, self.k, self.sizes = f, f.n, f.k, []

    def exponent_bounds(self):
        return self.f.exponent_bounds()

    def eval_grid(self, coords):
        self.sizes.append(coords[0].size)
        return self.f.eval_grid(coords)


class TestExactGrid:
    @pytest.mark.parametrize("f", [
        parse("1/w1 + 2*w2 + w1^3*w2", 2),
        LaurentPoly.scalar(2, {(-1, 0): 1, (0, 1): 2, (3, 1): 1}),
    ])
    def test_one_evaluation_on_the_exact_grid(self, f):
        counted = _Counted(f)
        s = spectral_summary(counted, 1.0)
        assert s.grid_n == 16
        assert counted.sizes == [16]
        assert 0 < s.est_error <= 1e-12

    @pytest.mark.parametrize("max_n", [8, 15])
    def test_cap_below_the_exact_grid(self, max_n):
        counted = _Counted(parse("1/w + w", 1))
        with pytest.raises(NonConvergent, match="exact grid of N=16"):
            spectral_summary(counted, 1.0, max_n=max_n)
        assert counted.sizes == []

    def test_requested_orders_widen_the_grid(self):
        # w^-10 aliases onto order 6 of a 16-grid; the spread -10..6 needs N=32
        coeffs, _, _, n_used = adaptive_coefficients(parse("w^-10", 1), 1.0, [(6,)])
        assert n_used == 32 and abs(coeffs[(6,)][0]) < 1e-12
        # orders above N/2 - 1 of the exact grid still raise, as on the first
        # level of the doubling loop
        with pytest.raises(AliasingRisk):
            adaptive_coefficients(parse("1/w", 1), 1.0, [(9,)])

    def test_zero_function_has_a_nonzero_bound(self):
        s = spectral_summary(parse("0", 2), 0.5)
        assert s.variance == 0.0 and 0 < s.est_error < 1e-12

    def test_missed_bound_compares_two_exact_grids(self):
        # the bound on D (scale 1/lam, peak 1e5) misses 1e-10, so the exact
        # grid 64 is compared with 128; neither aliases w^33 onto w
        s = spectral_summary(parse("w^33 + 100000/w", 1), 0.9)
        assert s.grid_n == 128
        assert abs(s.jacobian[0, 0]) < 1e-10 and abs(s.eta[0, 0] - 1e5) < 1e-10 * 1e5

    def test_inner_product_grid_covers_the_exponent_difference(self):
        # conj(w^8) * w^-8 = w^-16 on the unit circle: a 16-grid would read 1
        f, g = parse("w^8", 1), parse("w^-8", 1)
        assert abs(inner_product_numeric(f, g, 1.0)) < 1e-12
        assert abs(inner_product_numeric(f, f, 1.1) - 1.1**16) < 1e-12 * 1.1**16

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.3, 1.0, 1.7)))
    def test_error_estimate_bounds_the_oracle_gap(self, seed, lam):
        f = random_decomposable(np.random.default_rng(seed))
        s = spectral_summary(f, lam)
        d = decompose(f)
        assert s.grid_n == 16 and s.est_error > 0
        gaps = [
            np.max(np.abs(s.core - matrix_to_complex([d.core]).ravel())),
            np.max(np.abs(s.eta - matrix_to_complex(d.eta))),
            np.max(np.abs(s.jacobian - matrix_to_complex(d.jacobian))),
            abs(s.variance - float(variance_exact(f, Fraction(lam)))),
        ]
        assert max(gaps) <= s.est_error


class TestSpectralSummary:
    def test_pole_plus_linear(self):
        s = spectral_summary(parse("1/w + w", 1), 1.0)
        assert abs(s.variance - 2.0) < 1e-10
        assert abs(s.eta[0, 0] - 1.0) < 1e-10
        assert abs(s.jacobian[0, 0] - 1.0) < 1e-10
        assert abs(s.tail_energy) < 1e-10

    def test_pure_pole_scaling(self):
        s = spectral_summary(parse("1/w", 1), 0.5)
        assert abs(s.variance - 4.0) < 1e-10

    def test_analytic_function_has_no_residue(self):
        s = spectral_summary(parse("1/(w-2)", 1), 1.0)
        assert abs(s.eta[0, 0]) < 1e-10
        assert abs(s.core[0] + 0.5) < 1e-10

    def test_summary_consistency_invariant(self):
        s = spectral_summary(parse("2/w + w^2", 1), 0.8)
        assert s.variance >= 0
        assert s.tail_energy >= -1e-12
        assert abs(s.variance - (s.variance_model + s.tail_energy)) < 1e-12

    def test_json_schema(self):
        s = spectral_summary(parse("1/w", 1), 1.0)
        doc = s.to_json_dict()
        assert list(doc) == [
            "lambda", "core", "eta", "jacobian",
            "variance", "tail_energy", "est_error", "grid_n",
        ]
        assert doc["lambda"] == 1.0
        assert len(doc["core"]) == 1 and len(doc["core"][0]) == 2

    def test_nonconvergent_when_capped(self):
        with pytest.raises(NonConvergent):
            spectral_summary(parse("1/(w-2)", 1), 1.0, max_n=32)

    def test_vector_valued(self):
        s = spectral_summary(parse("1/w, w", 1), 1.0)
        assert s.eta.shape == (2, 1)
        assert abs(s.eta[0, 0] - 1.0) < 1e-10
        assert abs(s.jacobian[1, 0] - 1.0) < 1e-10


class TestInnerProduct:
    def test_conjugate_coordinate_against_pole(self):
        zbar = GridFunction(1, 1, lambda c: [np.conj(c[0])])
        value = inner_product_numeric(zbar, parse("1/w", 1), 1.0)
        assert abs(value - 1.0) < 1e-10

    def test_linear_norm(self):
        w = parse("w", 1)
        assert abs(inner_product_numeric(w, w, 2.0) - 4.0) < 1e-10

    def test_probability_normalization(self):
        one = GridFunction(1, 1, lambda c: [np.ones_like(c[0])])
        for lam in (0.3, 1.0, 2.5):
            assert abs(inner_product_numeric(one, one, lam) - 1.0) < 1e-12

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_decomposable(rng, n=2, k=1)
            g = random_decomposable(rng, n=2, k=1)
            ab = inner_product_numeric(f, g, 0.9)
            ba = inner_product_numeric(g, f, 0.9)
            assert abs(ab - np.conj(ba)) < 1e-10

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            inner_product_numeric(parse("w", 1), parse("w1, w2", 2), 1.0)

    def test_point_budget(self):
        # no exponent range: the first level samples 32^2 points
        f = GridFunction(2, 1, lambda c: [c[0] * c[1]])
        assert abs(inner_product_numeric(f, f, 1.0, max_points=32**2) - 1) < 1e-12
        with pytest.raises(GridTooLarge):
            inner_product_numeric(f, f, 1.0, max_points=32**2 - 1)


class TestOracleAgreement:
    def test_summary_matches_oracle(self):
        rng = np.random.default_rng(11)
        for i in range(20):
            f = random_decomposable(rng)
            lam = (0.3, 1.0, 1.7)[i % 3]
            s = spectral_summary(f, lam)
            d = decompose(f)
            assert np.max(np.abs(s.core - matrix_to_complex([d.core]).ravel())) < 1e-9
            assert np.max(np.abs(s.eta - matrix_to_complex(d.eta))) < 1e-9
            assert np.max(np.abs(s.jacobian - matrix_to_complex(d.jacobian))) < 1e-9
            want = float(variance_exact(f, Fraction(lam)))
            assert abs(s.variance - want) <= 1e-9 * max(1.0, want)

    def test_expectation_scale_independent(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = random_decomposable(rng)
            low = expectation_numeric(f, 0.3)
            high = expectation_numeric(f, 1.2)
            assert np.max(np.abs(low - high)) < 1e-9

    def test_first_order_summary_handles_mixed_poles(self):
        # w2^k / w1 terms appear in pullbacks; coefficient extraction must not
        # require decomposability
        f = parse("1/(w1*(1 + w2/4))", 2)
        core, eta, jac, _, _ = first_order_summary(f, 0.25)
        assert abs(eta[0, 0] - 1.0) < 1e-9
        assert abs(eta[0, 1]) < 1e-9
        assert np.max(np.abs(jac)) < 1e-9


def test_mean_of_modulus_squared_equals_self_inner_product():
    f = parse("1/w + 3*w + w^2", 1)
    lam = 0.8
    s = spectral_summary(f, lam)
    ip = inner_product_numeric(f, f, lam)
    core_energy = float(np.sum(np.abs(s.core) ** 2))
    assert abs((s.variance + core_energy) - ip.real) < 1e-10
    assert abs(ip.imag) < 1e-10


@st.composite
def _laurent_with_shift(draw):
    n = draw(st.integers(1, 3))
    f = random_decomposable(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n=n)
    N = draw(st.sampled_from((16, 32)))
    lam = draw(st.sampled_from((0.5, 1.0, 1.5)))
    fraction = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)
    shift = draw(st.one_of(st.just(GRID_SHIFT[:n]), st.tuples(*[fraction] * n)))
    drawn = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6))
    return f, N, lam, shift, drawn


def _deep_case(rng, n: int, band: tuple[float, float]):
    """A member of c0 + sum e/w + sum d*w + r/(a - w1...wn) with the series
    ratio rho = lam^n/|a| drawn from the band, and its closed-form core, eta
    and D (r/(a - w) adds r/a^2 to D when n = 1)."""
    def decimal(x):  # the grammar has no exponent notation: 1e-05 won't parse
        return np.format_float_positional(x, unique=True, trim="0")

    def text(z):
        return f"({decimal(z.real)}{'+' if z.imag >= 0 else '-'}{decimal(abs(z.imag))}i)"

    def cplx(bound):
        return complex(*rng.uniform(-bound, bound, 2))

    lam = rng.uniform(0.8, 1.25)
    a = lam**n / rng.uniform(*band) * cmath.exp(2j * math.pi * rng.uniform())
    r = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.uniform()) * a
    c0, e, d = cplx(1), [cplx(2) for _ in range(n)], [cplx(2) for _ in range(n)]
    product = "*".join(f"w{j + 1}" for j in range(n))
    parts = [text(c0)] + [f"{text(x)}/w{j + 1}" for j, x in enumerate(e)]
    parts += [f"{text(x)}*w{j + 1}" for j, x in enumerate(d)]
    parts.append(f"{text(r)}/({text(a)} - {product})")
    jac = np.array(d) + (r / a**2 if n == 1 else 0)
    return parse(" + ".join(parts), n), lam, c0 + r / a, np.array(e), jac


# Bands of rho accepted at N = 32 by the nested grids, at N = 32 by the
# shifted grid, and at N = 64 by the shifted grid, with the accepted N.  n = 4
# leaves out the last to keep every grid at or below 32^4 points.
_RHO_BANDS = (((0.10, 0.19), 32), ((0.33, 0.42), 32), ((0.55, 0.64), 64))
_DEEP_SHAPES = [(n, band) for n in (1, 2, 3, 4) for band in _RHO_BANDS
                if n < 4 or band[1] == 32]


class TestShiftedGrid:
    @settings(max_examples=60, deadline=None)
    @given(_laurent_with_shift())
    def test_coefficients_match_the_unshifted_grid(self, case):
        f, N, lam, shift, drawn = case
        indices = [(0,) * f.n, *drawn]
        plain = laurent_coefficients(sample_torus(f, lam, N), indices)
        turned = sample_torus(f, lam, N, shift=shift)
        assert turned.shift == shift
        got = laurent_coefficients(turned, indices)
        assert np.all(np.abs(got - plain) <= 1e-12 * np.maximum(1.0, np.abs(plain)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shifts_keep_every_alias_detectable(self, n):
        shift = np.array(GRID_SHIFT[:n])
        factors, distances = [], []
        for m in itertools.product((-1, 0, 1), repeat=n):
            if any(m):
                turn = float(np.dot(m, shift))
                distances.append(abs(turn - round(turn)))
                factors.append(abs(1 - cmath.exp(2j * math.pi * turn)))
        assert min(distances) == 2.0**-n
        assert min(factors) >= _alias_floor(n) * (1 - 1e-12)
        assert min(factors) <= _alias_floor(n) * (1 + 1e-12)

    def test_shift_needs_one_entry_per_axis(self):
        with pytest.raises(DimensionMismatch):
            sample_torus(parse("w1*w2", 2), 1.0, 16, shift=(0.5,))

    def test_confirmation_samples_the_same_grid_size(self):
        sizes = []
        f = GridFunction(1, 1, lambda c: sizes.append(c[0].size) or [1 / (c[0] - 2)])
        s = spectral_summary(f, 1.0)
        # 16 against 32 misses by ~1e-5, too far for a shifted 32 grid; 32
        # against 64 misses by ~1e-10, and the shifted 64 grid confirms 64
        assert s.grid_n == 64 and sizes == [32, 64, 64]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(_DEEP_SHAPES))
    def test_error_estimate_bounds_the_closed_form_gap(self, seed, shape):
        n, (rho_band, grid_n) = shape
        f, lam, core, eta, jac = _deep_case(np.random.default_rng(seed), n, rho_band)
        s = spectral_summary(f, lam, max_points=32**4)
        assert s.grid_n == grid_n
        gaps = [abs(s.core[0] - core), *np.abs(s.eta[0] - eta),
                *np.abs(s.jacobian[0] - jac)]
        assert max(gaps) <= s.est_error

    @pytest.mark.parametrize("b,lam", [(3, 0.05), (10, 0.02)])
    def test_first_level_estimate_is_floored_by_rounding(self, b, lam):
        # 1/w + w + 1/(w - b) = 1/w + w - sum_m w^m / b^(m+1): the nested
        # grids 16 and 32 agree below the real error of D, so the rounding
        # bound of the 32 grid has to carry the estimate
        s = spectral_summary(parse(f"1/w + w + 1/(w - {b})", 1), lam)
        assert s.grid_n == 32
        gaps = [abs(s.core[0] + 1 / b), abs(s.eta[0, 0] - 1),
                abs(s.jacobian[0, 0] - (1 - 1 / b**2))]
        assert max(gaps) <= s.est_error


def _assert_same_summary(got, want):
    """Equal grid and error estimate, values within 1e-15 max(1, |v|)."""
    assert got.lam == want.lam
    assert got.grid_n == want.grid_n and got.est_error == want.est_error
    for name in ("core", "eta", "jacobian", "variance", "tail_energy"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert np.all(np.abs(a - b) <= 1e-15 * np.maximum(1.0, np.abs(b))), name


class TestScaleBlocks:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 2),
           st.lists(st.floats(0.2, 5.0), min_size=1, max_size=12, unique=True))
    def test_matches_one_scale_summaries(self, seed, n, k, lams):
        f = random_decomposable(np.random.default_rng(seed), n=n, k=k)
        lams = sorted(lams)
        batched = spectral_summaries(f, lams)
        assert len(batched) == len(lams)
        for lam, s in zip(lams, batched):
            _assert_same_summary(s, spectral_summary(f, lam))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_one_evaluation_per_block(self, extra):
        # n = 3, k = 1 on the exact 16-grid: 4096 values per scale
        f = random_decomposable(np.random.default_rng(3), n=3, k=1)
        block = BLOCK_VALUES // 16**3
        lams = [0.4 + 0.1 * i for i in range(block + extra)]
        counted = _Counted(f)
        batched = spectral_summaries(counted, lams)
        blocks = [lams[i : i + block] for i in range(0, len(lams), block)]
        assert counted.sizes == [16 * len(b) for b in blocks]
        for lam, s in zip(lams, batched):
            _assert_same_summary(s, spectral_summary(f, lam))

    def test_sweep_samples_its_grid_in_one_block(self):
        counted = _Counted(parse("1/w + w", 1))
        sweep = variance_sweep(counted, [0.25 * 2 ** (i / 8) for i in range(33)])
        # the sweep grid is one block; golden section then samples one scale
        # at a time
        assert counted.sizes[0] == 33 * 16
        assert set(counted.sizes[1:]) == {16}
        assert abs(sweep.lambda_star_empirical - 1) < 1e-3

    @pytest.mark.parametrize("text,lams,bad", [
        ("w^12", [1.0, 2.0, 20.0], 20.0),    # blow-up: |w^12| = 4e15
        ("1/w + w", [1e-10, 1.0, 2.0], 1e-10),  # division near zero
    ])
    def test_pole_in_a_block_names_its_scale(self, text, lams, bad):
        f = parse(text, 1)
        with pytest.raises(PoleOnTorus) as one:
            spectral_summary(f, bad)
        with pytest.raises(PoleOnTorus) as batched:
            spectral_summaries(f, lams)
        assert str(batched.value) == str(one.value)
        assert batched.value.point == one.value.point
        assert f"radius-{bad:g} torus" in str(one.value)

    def test_invalid_scale_in_a_block_names_itself(self):
        with pytest.raises(ValueError, match="got nan"):
            spectral_summaries(parse("1/w + w", 1), [1.0, float("nan"), 2.0])

    def test_extreme_scales_take_the_doubling_fallback(self):
        f = parse("1/w + w", 1)
        lams = [0.001, 1.0, 1000.0]
        counted = _Counted(f)
        batched = spectral_summaries(counted, lams)
        # one block on the exact 16-grid; the rounding bound misses the
        # tolerance at both extremes, which compare the grids 16 and 32 alone
        assert counted.sizes == [3 * 16, 32, 32]
        assert [s.grid_n for s in batched] == [32, 16, 32]
        for lam, s in zip(lams, batched):
            _assert_same_summary(s, spectral_summary(f, lam))
