"""Torus-quadrature engine tests: sampling, coefficient extraction, adaptive
summaries, and agreement with the exact oracle."""

import cmath
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _grids import exact_grid, grid_above, recorded_grids, recorded_reads
from polylens import quadrature
from polylens.errors import (
    AliasingRisk,
    DimensionMismatch,
    GridTooLarge,
    NonConvergent,
    PoleOnTorus,
)
from polylens import analysis
from polylens.analysis import (
    detectability_check,
    empirical_optimal_scale,
    geometric_grid,
    variance_sweep,
)
from polylens.expr import EPS_POLE, parse
from polylens.laurent import (
    LaurentPoly,
    decompose,
    inner_product_exact,
    matrix_to_complex,
    variance_exact,
)
from polylens.quadrature import (
    BLOCK_VALUES,
    DEFAULT_MAX_N,
    DEFAULT_TOL,
    SLAB_VALUES,
    GridFunction,
    TorusGrid,
    adaptive_coefficients,
    expectation_numeric,
    first_order_summary,
    inner_product_numeric,
    laurent_coefficient,
    sample_torus,
    spectral_summaries,
    spectral_summary,
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

    def test_dimension_cap_precedes_the_coefficient_reader(self, monkeypatch):
        # n > 4 is refused before the 2n + 1 orders of length n are built
        def unreached(*args, **kwargs):
            raise AssertionError("_coefficients reached")

        monkeypatch.setattr(quadrature, "_coefficients", unreached)
        with pytest.raises(GridTooLarge, match="dimension 5 exceeds the cap of 4"):
            spectral_summary(LaurentPoly(5, 1, {}), 1.0)
        with pytest.raises(GridTooLarge, match="dimension 5 exceeds the cap of 4"):
            detectability_check(LaurentPoly(5, 1, {}), [0.5, 1.0])

    @pytest.mark.parametrize("front", ["adaptive_coefficients", "expectation_numeric",
                                       "inner_product_numeric"])
    def test_dimension_cap_precedes_the_doubling_loop(self, front):
        # without a range, n > 4 is refused before the loop looks up a
        # lattice pair, which the table has only for n <= 4
        f = GridFunction(5, 1, lambda c: [c[0]])
        reads = {
            "adaptive_coefficients": lambda: adaptive_coefficients(f, 1.0, [(0,) * 5]),
            "expectation_numeric": lambda: expectation_numeric(f, 1.0),
            "inner_product_numeric": lambda: inner_product_numeric(f, f, 1.0),
        }
        with pytest.raises(GridTooLarge, match="dimension 5 exceeds the cap of 4"):
            reads[front]()

    @pytest.mark.parametrize("max_n", [40.5, 64.0, True, np.float64(64), 0, -64])
    @pytest.mark.parametrize("text", ["1/(w - 2)", "1/w + 2*w"], ids=["doubling", "exact"])
    def test_grid_cap_must_be_a_positive_integer(self, text, max_n):
        # a float cap is not truncated, a bool is not read as 1 and a
        # negative cap is not raised to the n-th power as a positive one, on
        # either path and by every front end that takes a cap
        f = parse(text, 1)
        reads = [
            lambda: spectral_summary(f, 1.0, max_n=max_n),
            lambda: spectral_summaries(f, [0.5, 1.0], max_n=max_n),
            lambda: first_order_summary(f, 1.0, max_n=max_n),
            lambda: variance_sweep(f, [0.5, 1.0, 2.0], max_n=max_n),
        ]
        for read in reads:
            with pytest.raises(ValueError, match="grid cap must be a positive integer"):
                read()

    def test_integer_grid_caps_are_taken(self):
        f = parse("1/(w - 2)", 1)
        _assert_same_summary(spectral_summary(f, 1.0, max_n=np.int64(DEFAULT_MAX_N)),
                             spectral_summary(f, 1.0))

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            sample_torus(parse("w", 1), 1.0, 2)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0, 1e300, 1e-300])
    def test_scale_must_be_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="positive and finite"):
            sample_torus(parse("1/w", 1), lam, 16)

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

    def test_read_is_a_keyword(self):
        # a fourth positional argument, or a shift, is refused at the call
        # and never reaches the reader
        f = parse("1/w", 1)
        with pytest.raises(TypeError, match="3 positional arguments but 4 were given"):
            sample_torus(f, 1.0, 8, (0.5,))
        with pytest.raises(TypeError, match="unexpected keyword argument 'shift'"):
            sample_torus(f, 1.0, 8, shift=(0.5,))

    def test_pole_found_in_a_slab_is_named_at_that_slab(self):
        # |den| is 2e-10 at w1 = 1, in the first slab of 128 rows, and about
        # 2e-16 at w1 = -1, in the third: the error names a point of the
        # first slab, and no row is evaluated again to look for a smaller one
        f = parse("1/((w1 - 1.0000000001)*(w1 + 1))", 2)
        counted = _Counted(f)
        with pytest.raises(PoleOnTorus, match="pole on the radius-1 torus") as excinfo:
            sample_torus(counted, 1.0, 512)
        assert counted.sizes == [SLAB_VALUES // 512]
        w1, _ = excinfo.value.point
        row = round(cmath.phase(w1) / (2 * math.pi) * 512) % 512
        assert 0 <= row < SLAB_VALUES // 512
        assert abs((w1 - 1.0000000001) * (w1 + 1)) < EPS_POLE


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

    @pytest.mark.parametrize("order", [(1.5,), (0.7,), (True,), (np.float64(1.0),), ("1",)],
                             ids=["1.5", "0.7", "True", "float64", "str"])
    def test_orders_must_be_integers(self, order):
        # refused, not truncated: int(1.5) and True read c_1 = 1 of 1/w + w,
        # and int(0.7) read c_0 = -0.5 of 1/(w - 2)
        grid = sample_torus(parse("1/w + w", 1), 1.0, 8)
        with pytest.raises(ValueError, match="not an integer"):
            laurent_coefficient(grid, order)
        with pytest.raises(ValueError, match="not an integer"):
            adaptive_coefficients(parse("1/(w-2)", 1), 1.0, [(0,), order])

    def test_numpy_integer_orders_are_read(self):
        grid = sample_torus(parse("1/w + w", 1), 1.0, 8)
        assert laurent_coefficient(grid, (np.int64(1),))[0] == pytest.approx(1)
        coeffs, _, _ = adaptive_coefficients(parse("1/(w-2)", 1), 1.0, [(np.int64(1),)])
        (key,) = coeffs
        assert key == (1,) and type(key[0]) is int
        assert coeffs[key][0] == pytest.approx(-0.25)


def _fresh_circle(N) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(N) / N)


def _fresh_phase(axis, N) -> np.ndarray:
    return np.exp(-2j * np.pi * np.array(axis)[:, None] * np.arange(N) / N)


def _whole_tables(make, N, *columns) -> list[np.ndarray]:
    """Every table of a point set (see quadrature._table), axis 0's whole."""
    first, rest = quadrature._table(make, N, *columns)
    return [first(slice(None)), *rest]


def _grid_units(n, N) -> list[np.ndarray]:
    """The unit coordinates of the N^n grid, one (1, N, 1, ...) table per
    axis, as sample_torus keys them."""
    return _whole_tables(quadrature._circle, N, ((1,),) * n, range(n - 1, -1, -1))


def _grid_orders(orders):
    """Per-axis orders of the grid as the readers take them: each order a
    as the part (a,) of an order vector on that axis's one coordinate."""
    return tuple(tuple((a,) for a in axis) for axis in orders)


def _grid_phases(orders, N) -> list[np.ndarray]:
    """The phase matrices of the N^n grid at the integer orders of each axis."""
    return _whole_tables(quadrature._phase, N, _grid_orders(orders), ((1,),) * len(orders))


class TestSharedTables:
    """Unit coordinates and phase matrices of at most BLOCK_VALUES entries
    are made once and shared, read-only; larger ones are made afresh."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(4, 300), st.lists(st.integers(-40, 40), min_size=1, max_size=6),
           st.floats(0.2, 3.0))
    def test_cached_tables_equal_fresh_ones(self, N, axis, lam):
        circle = _fresh_circle(N)
        seen = []
        f = GridFunction(2, 1, lambda coords: seen.append(coords) or [coords[0] + coords[1]])
        for _ in range(2):  # a miss, then a hit
            sample_torus(f, lam, N)
            for got, shape in zip(seen.pop(), [(N, 1), (1, N)]):
                assert got.tobytes() == (np.asarray(lam) * circle.reshape(shape)).tobytes()
            for got, shape in zip(_grid_units(2, N), [(1, N, 1), (1, N)]):
                assert got.tobytes() == circle.reshape(shape).tobytes()
            first, second = _grid_phases([axis, [0, 1]], N)
            assert first.tobytes() == _fresh_phase(axis, N).tobytes()
            assert second.tobytes() == _fresh_phase([0, 1], N).tobytes()

    def test_cached_tables_are_read_only(self):
        key = (quadrature._phase, 16, _grid_orders([[-1, 0, 1]]), ((1,),))
        assert quadrature._table(*key) is quadrature._table(*key)  # shared
        [phase], [circle] = _grid_phases([[-1, 0, 1]], 16), _grid_units(1, 16)
        for table in (phase, circle):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(table, 2, out=table)

    def test_a_table_above_block_values_is_not_retained(self):
        # BLOCK_VALUES entries are cached, one more row is not
        key = (quadrature._phase, BLOCK_VALUES, _grid_orders([[3]]), ((1,),))
        assert quadrature._table(*key) is quadrature._table(*key)
        caches = (quadrature._cached, quadrature._shared)
        before = [cache.cache_info() for cache in caches]
        big, = _grid_phases([[2, 3]], BLOCK_VALUES)
        again, = _grid_phases([[2, 3]], BLOCK_VALUES)
        units, = _grid_units(1, 2 * BLOCK_VALUES)
        assert big is not again and big.flags.writeable
        assert np.array_equal(big, again)
        assert np.array_equal(units, _fresh_circle(2 * BLOCK_VALUES)[None])
        assert [cache.cache_info() for cache in caches] == before

    def test_a_kept_grid_shares_no_memory_with_the_tables(self):
        grid = sample_torus(parse("1/w1 + w2 + w1*w2", 2), 0.9, 8)
        laurent_coefficient(grid, (1, 1))
        tables = _grid_units(2, 8) + _grid_phases([[1], [1]], 8)
        for table in tables:
            assert not table.flags.writeable
            assert not np.shares_memory(grid.values, table)
        grid.values[...] = 0  # a kept grid is the caller's to change
        assert tables[0].tobytes() == _fresh_circle(8).reshape(1, 8, 1).tobytes()


def _direct_coefficient(grid: TorusGrid, a) -> np.ndarray:
    """c_a as a plain sum over every grid point, one index at a time."""
    n, N = grid.n, grid.N
    steps = np.indices((N,) * n, dtype=float)
    phase = np.exp(-2j * np.pi * np.tensordot(np.asarray(a), steps, axes=(0, 0)) / N)
    total = np.sum(grid.values * phase[..., None], axis=tuple(range(-n - 1, -1)))
    return total * np.asarray(grid.lam)[..., None] ** (-sum(a)) / N**n


@st.composite
def _grids_with_indices(draw):
    """A grid of random values, with or without a leading axis of scales, and
    indices that include a class probe and a mixed order."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    N = draw(st.sampled_from((8, 16, 32)))
    scales = st.sampled_from((0.3, 1.0, 1.7))
    lam = draw(st.one_of(scales, st.lists(scales, min_size=1, max_size=3).map(np.array)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = np.shape(lam) + (N,) * n + (k,)
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
        for a in indices:
            got, want = laurent_coefficient(grid, a), _direct_coefficient(grid, a)
            assert got.shape == np.shape(grid.lam) + (grid.k,)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_checks_every_index(self):
        # without a range every order is contracted, so one bad order among
        # good ones is refused on the first grid of the doubling loop
        f = GridFunction(2, 1, parse("w1", 2).eval_grid)
        with pytest.raises(AliasingRisk, match=r"order \(1, 8\) too high for N=16"):
            adaptive_coefficients(f, 1.0, [(0, 0), (1, 8)])
        with pytest.raises(DimensionMismatch):
            adaptive_coefficients(f, 1.0, [(0, 0), (1,)])


# Accepted grid sizes and raised errors of the refinement loop:
# (expression, n, scale, keyword arguments, grid_n or error type); the
# argument max_points sets quadrature.MAX_TOTAL_POINTS instead.  Laurent
# expressions take the single exact grid; expressions that divide by a
# non-monomial (here 1/(w - 10) and the like) double N until the grids N and
# N - 1 agree (1/(w-2): 32 against 31 misses 1e-10, 64 against 63 passes).
_REFINEMENT_CORPUS = [
    ("1/w + w", 1, 1.0, {}, 4),
    ("1/w", 1, 0.5, {}, 4),
    ("1/w + 3*w + w^2", 1, 0.8, {}, 4),
    ("1/(w-2)", 1, 1.0, {}, 64),
    # without a range, n >= 2 reads the lattices of lattices.PAIRS: grid_n
    # is the point count of the accepted lattice
    ("2/w1 + w2/(1.5 - w2)", 2, 0.9, {}, 1024),
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {}, 256),
    ("1/(w-2)", 1, 1.0, {"max_n": 32}, NonConvergent),
    ("1/(w-2)", 1, 1.0, {"max_n": 64}, 64),
    ("1/w", 1, 1.0, {"max_n": 2}, NonConvergent),
    ("1/w", 1, 1.0, {"max_n": 4}, 4),
    # the lattices stop at min(max_n^n, the point budget): the 256-point
    # level is over a budget of 255, and over 6^3 = 216
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {"max_points": 255}, NonConvergent),
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {"max_n": 6}, NonConvergent),
    ("1/(w - 1)", 1, 1.0, {}, PoleOnTorus),
    # exp(2*pi*i/32): a pole on an odd point of the 32-grid only
    ("1/(w - (0.98078528040323043 + 0.19509032201612825i))", 1, 1.0, {}, PoleOnTorus),
    # accepted at the first level of the doubling loop, 32 against 31
    ("1/w + w + 1/(w - 10)", 1, 1.0, {}, 32),
    ("1/w + 1/(w - 10)", 1, 0.5, {}, 32),
    ("1/w + 3*w + w^2 + 1/(w - 10)", 1, 0.8, {}, 32),
    ("1/(w - 10)", 1, 1.0, {"max_n": 16}, NonConvergent),
    # the range 33..33 has spread 0, so the smallest grid reads it, and the
    # orders -1..1 outside it read as 0; the range -31..-1 needs N=32
    ("w^33", 1, 1.0, {}, 4),
    ("w^33", 1, 1.0, {"max_n": 32}, 4),
    ("1/w + w^-31", 1, 1.0, {}, 32),
    ("2/w1 + 3*w2^2 + w1*w2/w3", 3, 0.7, {}, 4),
    # rho = 0.8: levels 32 and 64 miss, 128 against 127 agrees; a cap of 64
    # refuses after two levels
    ("1/(w - 1.25)", 1, 1.0, {}, 128),
    ("1/(w - 1.25)", 1, 1.0, {"max_n": 64}, NonConvergent),
    ("1/w1 + 1/(2 - w1*w2*w3)", 3, 1.0, {"max_points": 256}, 256),
    # the exact grid of a range checks the budget too
    ("1/w1 + w2*w3", 3, 1.0, {"max_points": 4**3 - 1}, GridTooLarge),
]


class TestRefinement:
    @pytest.mark.parametrize("text,n,lam,kwargs,outcome", _REFINEMENT_CORPUS)
    def test_outcome_pinned(self, text, n, lam, kwargs, outcome, monkeypatch):
        kwargs = dict(kwargs)
        budget = kwargs.pop("max_points", quadrature.MAX_TOTAL_POINTS)
        monkeypatch.setattr(quadrature, "MAX_TOTAL_POINTS", budget)
        f = parse(text, n)
        if isinstance(outcome, int):
            assert spectral_summary(f, lam, **kwargs).grid_n == outcome
        else:
            with pytest.raises(outcome):
                spectral_summary(f, lam, **kwargs)

    def test_aliasing_at_the_first_level(self):
        # without a range, w^8 takes the doubling loop: order 8 fits its
        # 31- and 32-grids but not its alias rule, that of the 16-grid
        f = GridFunction(1, 1, parse("w^8", 1).eval_grid)
        with pytest.raises(AliasingRisk, match="too high for N=16"):
            adaptive_coefficients(f, 1.0, [(8,)])

    def test_refused_read_samples_no_grid(self):
        # the orders are checked against the alias rule before any grid
        f = GridFunction(1, 1, parse("w^8", 1).eval_grid)
        with recorded_grids() as grids, pytest.raises(AliasingRisk):
            adaptive_coefficients(f, 1.0, [(8,)])
        assert grids == []

    @pytest.mark.parametrize("axis", [0, 1])
    def test_orders_up_to_seven_without_a_range(self, axis):
        # order 7 on either axis is read; order 8 or -8 is refused with the
        # alias rule's message and no grid
        f = GridFunction(2, 1, parse("1/w1 + 3*w1^7 + 2*w2^7 + 1/(3 - w1*w2)", 2).eval_grid)
        exact = {(7, 0): 3, (0, 7): 2, (-7, 0): 0, (0, -7): 0, (7, 7): 3.0**-8}
        coeffs, _, _ = adaptive_coefficients(f, 1.0, list(exact))
        for a, want in exact.items():
            assert abs(coeffs[a][0] - want) <= 1e-9
        for x in (8, -8):
            a = tuple(x if j == axis else 0 for j in range(2))
            message = f"coefficient order {a} too high for N=16 (need |a_j| <= N/2 - 1)"
            with recorded_grids() as grids, pytest.raises(AliasingRisk, match=re.escape(message)):
                adaptive_coefficients(f, 1.0, [(7, 7), a])
            assert grids == []

    def test_second_level_acceptance_samples_once(self):
        f = parse("1/w1 + 2*w2", 2)
        sizes = []

        def counted(coords):
            sizes.append(coords[0].size)
            return f.eval_grid(coords)

        # accepted at the first level: the grids 32 and 31, each once
        s = spectral_summary(GridFunction(2, 1, counted), 1.0)
        assert s.grid_n == 32
        assert sizes == [32, 31]

    @pytest.mark.parametrize("tol,sizes", [(1e-9, [32, 31]), (1e-10, [32, 31, 64, 63])],
                             ids=["accepts_32", "refines_to_64"])
    def test_grids_32_and_31_decide_acceptance(self, tol, sizes):
        # the 32- and 31-grid reads of eta in 1/(w - 2) alias c_31 = -2^-32
        # and c_30 = -2^-31; twice their gap, 2^-31 = 4.7e-10, is the largest:
        # 1e-9 accepts N = 32 with that estimate, 1e-10 refines to 64
        f = parse("1/(w - 2)", 1)
        seen = []
        g = GridFunction(1, 1, lambda c: seen.append(c[0].size) or f.eval_grid(c))
        s = spectral_summary(g, 1.0, tol=tol)
        assert seen == sizes and s.grid_n == sizes[-2]
        grids = [sample_torus(f, 1.0, N) for N in sizes[-2:]]
        reads = [[laurent_coefficient(grid, (a,))[0] for a in (0, -1, 1)]
                 + [np.mean(np.abs(grid.values) ** 2)] for grid in grids]
        gap = 2 * np.max(np.abs(np.subtract(*reads)))
        assert s.est_error == pytest.approx(gap, rel=1e-3)
        if tol == 1e-9:
            assert s.est_error == pytest.approx(2.0**-31, rel=1e-3)

    @pytest.mark.parametrize("max_n", [8, 16, 31])
    def test_cap_without_room_for_two_grids(self, max_n):
        sizes = []
        f = GridFunction(1, 1, lambda c: sizes.append(c[0].size) or [1 / c[0]])
        with pytest.raises(NonConvergent, match="no room for two grids"):
            spectral_summary(f, 1.0, max_n=max_n)
        assert sizes == []


class _Counted:
    """A pointwise evaluator with an exponent range that records its grid
    sizes."""

    pointwise = True

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
        # w1^3 against 1/w1: the spread 4 of axis 0 needs N=8
        counted = _Counted(f)
        s = spectral_summary(counted, 1.0)
        assert s.grid_n == 8
        assert counted.sizes == [8]
        assert 0 < s.est_error <= 1e-12

    @pytest.mark.parametrize("max_n", [8, 15])
    def test_cap_below_the_exact_grid(self, max_n):
        # the range -1..8 needs the exact grid N=16
        counted = _Counted(parse("1/w + w^8", 1))
        with pytest.raises(NonConvergent, match="exact grid of N=16"):
            spectral_summary(counted, 1.0, max_n=max_n)
        assert counted.sizes == []

    def test_the_grid_is_sized_by_the_spread(self):
        # spread 4: a 4-grid would read w^3 as 1/w, so N=8 reads c_-1 = 1
        f = parse("w^3 + 1/w", 1)
        assert laurent_coefficient(sample_torus(f, 1.0, 4), (-1,))[0] == pytest.approx(2)
        s = spectral_summary(f, 1.0)
        assert s.grid_n == 8 and abs(s.eta[0, 0] - 1) < 1e-12
        assert abs(s.jacobian[0, 0]) < 1e-12 and abs(s.tail_energy - 1) < 1e-12
        # spread 3 fits the smallest grid
        s = spectral_summary(parse("w^2 + 1/w", 1), 1.0)
        assert s.grid_n == 4 and abs(s.eta[0, 0] - 1) < 1e-12
        assert abs(s.jacobian[0, 0]) < 1e-12 and abs(s.tail_energy - 1) < 1e-12

    @pytest.mark.parametrize("order,grid_n", [
        ((-2,), 8), ((3,), 8), ((7,), 16), ((8,), 32), ((9,), 32),
    ])
    def test_the_grid_holds_every_requested_order(self, order, grid_n):
        # the range a..a+N-1 has spread N-1, the widest an N-grid reads
        # exactly; there w^(a+N-1) aliases onto order a-1, which lies
        # outside the range and so reads as exactly 0
        (a,) = order
        top, below = (a + grid_n - 1,), (a - 1,)
        f = parse(f"w^{a} + 2*w^{top[0]}", 1)
        assert exact_grid(f.exponent_bounds()) == grid_n
        coeffs, err, n_used = adaptive_coefficients(f, 1.0, [order, top, below])
        assert n_used == grid_n
        assert abs(coeffs[order][0] - 1) <= err and abs(coeffs[top][0] - 2) <= err
        assert coeffs[below][0] == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.05, 0.3, 1.0, 1.7, 6.0)))
    def test_error_estimate_bounds_the_oracle_gap_at_every_scale(self, seed, lam):
        # at extreme scales the rounding bound of the exact grid may miss
        # the tolerance; it still bounds the gap to the oracle
        f = random_decomposable(np.random.default_rng(seed))
        s = spectral_summary(f, lam)
        d = decompose(f)
        assert s.grid_n == exact_grid(f.exponent_bounds())
        gaps = [
            np.max(np.abs(s.core - matrix_to_complex([d.core]).ravel())),
            np.max(np.abs(s.eta - matrix_to_complex(d.eta))),
            np.max(np.abs(s.jacobian - matrix_to_complex(d.jacobian))),
            abs(s.variance - float(variance_exact(f, Fraction(lam)))),
        ]
        assert max(gaps) <= s.est_error

    def test_zero_function_has_a_nonzero_bound(self):
        s = spectral_summary(parse("0", 2), 0.5)
        assert s.variance == 0.0 and 0 < s.est_error < 1e-12

    def test_missed_bound_compares_two_exact_grids(self):
        # the rounding bound of the mean of |f|^2 (peak 1.1e5) misses 1e-10,
        # yet the 64-grid, which does not alias w^33 onto w, is the answer:
        # a 128-grid would only double the bound
        counted = _Counted(parse("w^33 + 100000/w", 1))
        s = spectral_summary(counted, 0.9)
        assert counted.sizes == [64] and s.grid_n == 64
        assert abs(s.jacobian[0, 0]) < 1e-10 and abs(s.eta[0, 0] - 1e5) < 1e-10 * 1e5
        # est_error is the largest rounding bound of the row: the 2k + 1
        # coefficients at their scales, and the mean of |f|^2
        grid = sample_torus(counted.f, 0.9, 64)
        unit = quadrature._rounding_bound(grid.n, grid.N, 33, grid.peak)
        bounds = [unit * 0.9**-a for a in (0, 1, -1)] + [4 * 1 * max(grid.peak, 1.0) * unit]
        assert s.est_error == max(bounds) > DEFAULT_TOL

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
        assert s.grid_n == exact_grid(f.exponent_bounds()) and s.est_error > 0
        gaps = [
            np.max(np.abs(s.core - matrix_to_complex([d.core]).ravel())),
            np.max(np.abs(s.eta - matrix_to_complex(d.eta))),
            np.max(np.abs(s.jacobian - matrix_to_complex(d.jacobian))),
            abs(s.variance - float(variance_exact(f, Fraction(lam)))),
        ]
        assert max(gaps) <= s.est_error


class TestGridFunctionBounds:
    @staticmethod
    def _fn(c):
        return [c[0] ** 3 + 1 / c[0]]

    def test_bounds_put_a_grid_function_on_the_exact_grid(self):
        sizes = []
        f = GridFunction(1, 1, lambda c: sizes.append(c[0].size) or self._fn(c), ((-1, 3),))
        s = spectral_summary(f, 0.7)
        assert s.grid_n == 8 and sizes == [8]
        assert abs(s.eta[0, 0] - 1) < 1e-12 and abs(s.jacobian[0, 0]) < 1e-12

    def test_bounds_are_normalized_to_integer_pairs(self):
        f = GridFunction(2, 1, self._fn, [(np.int64(-1), 0), [0, 3]])
        assert f.bounds == ((-1, 0), (0, 3)) and f.exponent_bounds() == [(-1, 0), (0, 3)]
        assert GridFunction(1, 1, self._fn).exponent_bounds() is None

    def test_wrong_number_of_axes(self):
        with pytest.raises(DimensionMismatch, match="2 axes, expected 1"):
            GridFunction(1, 1, self._fn, ((-1, 3), (0, 0)))

    @pytest.mark.parametrize("bounds", [
        ((-1, 3.0),), ((0.5, 3),), (("-1", 3),), ((True, 3),), ((-1, 3, 4),), (3,),
    ])
    def test_non_integer_pairs(self, bounds):
        with pytest.raises(ValueError, match="not an integer"):
            GridFunction(1, 1, self._fn, bounds)

    def test_lo_above_hi(self):
        with pytest.raises(ValueError, match="lo > hi"):
            GridFunction(1, 1, self._fn, ((3, -1),))

    def test_bounds_do_not_make_a_grid_function_pointwise(self):
        # a range alone says nothing about how the callable treats its
        # coordinates, so a big grid is still evaluated in one piece
        f = parse("1/w1 + 2*w2 + 3*w3, w2^2", 3)
        sizes = []
        g = GridFunction(
            3, 2, lambda c: sizes.append(c[0].size) or f.eval_grid(c), tuple(f.exponent_bounds())
        )
        grid = sample_torus(g, 1.1, 64)
        assert grid.values.size > SLAB_VALUES and sizes == [64]


class TestEvaluatorShapes:
    """sample_torus refuses a component count other than k from eval_grid,
    and a GridFunction an empty domain or codomain."""

    @staticmethod
    def _one_of_two(c):
        return [c[0] + 0j]

    @pytest.mark.parametrize("N", [4, 16])
    def test_too_few_components(self, N):
        # N = 4 left the second component uninitialised, N = 16 a pole
        with pytest.raises(DimensionMismatch, match="1 components from eval_grid, expected 2"):
            sample_torus(GridFunction(1, 2, self._one_of_two), 1.0, N)

    @pytest.mark.parametrize("bounds", [None, ((1, 1),)])
    def test_too_few_components_in_a_summary(self, bounds):
        f = GridFunction(1, 2, self._one_of_two, bounds)
        with pytest.raises(DimensionMismatch, match="expected 2"):
            spectral_summary(f, 1.0)
        with pytest.raises(DimensionMismatch, match="expected 2"):
            spectral_summaries(f, [0.5, 1.0, 2.0])

    def test_too_many_components(self):
        f = GridFunction(1, 1, lambda c: [c[0], c[0]])
        with pytest.raises(DimensionMismatch, match="2 components from eval_grid, expected 1"):
            sample_torus(f, 1.0, 8)

    @pytest.mark.parametrize("bounds", [None, ((0, 1),)])
    def test_component_of_the_wrong_shape(self, bounds):
        # a component that does not broadcast is a DimensionMismatch, a LensError
        f = GridFunction(1, 1, lambda c: [np.ones(3)], bounds)
        grid = "(32,)" if bounds is None else "(1, 4)"
        with pytest.raises(DimensionMismatch, match=rf"component 0 .* shape \(3,\), .* {re.escape(grid)}"):
            spectral_summary(f, 1.0)

    def test_component_of_the_wrong_shape_samples_its_block_once(self):
        # a block that raises a DimensionMismatch is not sampled again one
        # scale at a time, as a block that raises a pole is
        f = GridFunction(1, 1, lambda c: [np.ones(3)], ((0, 1),))
        with recorded_grids() as grids, pytest.raises(
                DimensionMismatch, match=r"shape \(3,\), .* \(3, 4\)"):
            spectral_summaries(f, [0.5, 1.0, 2.0])
        assert [np.shape(g.lam) for g in grids] == [(3,)]

    @pytest.mark.parametrize("n,k", [(0, 1), (1, 0), (-1, 2)])
    def test_empty_domain_or_codomain(self, n, k):
        with pytest.raises(DimensionMismatch, match="need n >= 1 and k >= 1"):
            GridFunction(n, k, lambda c: [])


class _Evaluator:
    """A duck-typed evaluator of the identity, with any n, even a float."""

    def __init__(self, n):
        self.n, self.k = n, 1

    def eval_grid(self, coords):
        return [coords[0] + 0j]


# A count that is not an integer is refused as n < 1 is: by a constructor as
# a DimensionMismatch, and by the engine as a ValueError, before range() or
# a slice would fail on it with a bare TypeError.
@pytest.mark.parametrize("call, error", [
    (lambda: LaurentPoly(1.5, 1, {}), DimensionMismatch),
    (lambda: LaurentPoly(1, 2.0, {}), DimensionMismatch),
    (lambda: GridFunction(1.5, 1, lambda c: [c[0]]), DimensionMismatch),
    (lambda: GridFunction(2.0, 1, lambda c: [c[0]]), DimensionMismatch),
    (lambda: spectral_summary(_Evaluator(2.0), 1.0), ValueError),
    (lambda: sample_torus(parse("w", 1), 1.0, 16.0), ValueError),
    (lambda: geometric_grid(0.5, 2, 3.5), ValueError),
], ids=["LaurentPoly-n", "LaurentPoly-k", "GridFunction-1.5", "GridFunction-2.0",
        "spectral_summary", "sample_torus", "geometric_grid"])
def test_counts_must_be_integers(call, error):
    with pytest.raises(error):
        call()


# The exact-grid width of an inner product: the widest gap between the
# exponents of f and g.
def _inner_product_width(f_bounds, g_bounds) -> int:
    return max(
        max(g_hi - f_lo, f_hi - g_lo)
        for (f_lo, f_hi), (g_lo, g_hi) in zip(f_bounds, g_bounds)
    )


@st.composite
def _ranged(draw, n):
    """(terms, bounds): a few unit-size Gaussian-integer terms inside a drawn
    per-axis range, which may reach below -1 and need not be attained."""
    bounds = []
    for _ in range(n):
        lo = draw(st.integers(-4, 3))
        bounds.append((lo, lo + draw(st.integers(0, 4))))
    exps = st.tuples(*[st.integers(lo, hi) for lo, hi in bounds])
    coeff = st.builds(complex, st.integers(-1, 1), st.integers(-1, 1))
    return draw(st.dictionaries(exps, coeff, max_size=4)), tuple(bounds)


def _ranged_function(terms, bounds) -> GridFunction:
    """A GridFunction of the terms {exponents: coefficient} with the bounds."""
    def fn(coords):
        total = np.zeros(np.broadcast(*coords).shape, dtype=complex)
        for exps, c in terms.items():
            total = total + c * math.prod(w**e for w, e in zip(coords, exps))
        return [total]

    return GridFunction(len(bounds), 1, fn, bounds)


class TestOneAliasRule:
    """Each reader samples one grid, sized by _gap, and reads the oracle's
    values from it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_coefficients(self, data, n):
        # the grid is sized by the spread alone, whatever the orders read
        terms, bounds = data.draw(_ranged(n))
        order = st.tuples(*[st.integers(-5, 5) | st.integers(-40, 40)] * n)
        indices = data.draw(st.lists(order, min_size=1, max_size=5, unique=True))
        f = _ranged_function(terms, bounds)
        with recorded_grids() as grids:
            coeffs, err, n_used = adaptive_coefficients(f, 1.0, indices)
        N = exact_grid(bounds)
        assert [grid.N for grid in grids] == [N] and n_used == N
        for a in indices:
            assert abs(coeffs[a][0] - terms.get(a, 0)) <= err
            if any(not lo <= x <= hi for x, (lo, hi) in zip(a, bounds)):
                assert coeffs[a][0] == 0  # outside the range: not contracted

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_degree_energies(self, data, n):
        terms, bounds = data.draw(_ranged(n))
        f = _ranged_function(terms, bounds)
        with recorded_grids() as grids:
            degrees, energies, err = _box_energies(f, 1.0)
        assert [grid.N for grid in grids] == [exact_grid(bounds)]
        want = np.zeros(len(degrees))
        for exps, c in terms.items():
            if any(exps):
                want[sum(exps) - degrees[0]] += abs(c) ** 2
        assert np.abs(energies - want).sum() <= err

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_inner_product(self, data, n):
        (f_terms, f_bounds), (g_terms, g_bounds) = data.draw(_ranged(n)), data.draw(_ranged(n))
        f, g = _ranged_function(f_terms, f_bounds), _ranged_function(g_terms, g_bounds)
        with recorded_grids() as grids:
            value = inner_product_numeric(f, g, 1.0)
        assert [grid.N for grid in grids] == [grid_above(_inner_product_width(f_bounds, g_bounds))]
        want = sum(np.conj(c) * g_terms.get(a, 0) for a, c in f_terms.items())
        assert abs(value - want) <= 1e-12


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
    def test_ranges_sample_one_exact_grid(self):
        # the exponents of conj(f).g, differences of those of g and f, lie
        # in -2..3, so no term but the constant lands on order 0 of a 4-grid
        f, g = parse("1/w + 2*w", 1), parse("w + 3*w^2 + 1/w", 1)
        with recorded_grids() as grids:
            assert abs(inner_product_numeric(f, g, 1.0) - 3.0) < 1e-12
        assert [grid.N for grid in grids] == [4]

    def test_no_range_samples_the_doubling_levels(self):
        f = parse("1/(w-2)", 1)
        with recorded_grids() as grids:
            assert abs(inner_product_numeric(f, f, 1.0) - 1 / 3) < 1e-12
        assert [grid.N for grid in grids] == [32, 31, 64, 63]

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

    @pytest.mark.parametrize("degree,lam", [(9, 1.05), (9, 1.3), (300, 1.05)])
    def test_high_degree_terms_stay_within_the_bound(self, degree, lam):
        # the difference of conj(w^d).w^d is 0, so a 4-grid holds it, but
        # each value is a product of d factors: the bound counts d, not N
        f = LaurentPoly.scalar(1, {(degree,): 1})
        with recorded_reads() as reads:
            value = inner_product_numeric(f, f, lam)
        [read] = reads
        [est], [N] = read.est_error, read.grid_n
        exact = inner_product_exact(f, f, Fraction(lam))
        assert N == 4
        assert abs(value - complex(exact)) <= est

    def test_high_degree_beyond_the_blowup_threshold(self):
        # |w^300| = 1.3^300 = 2e34 on the radius-1.3 torus
        f = LaurentPoly.scalar(1, {(300,): 1})
        with pytest.raises(PoleOnTorus):
            inner_product_numeric(f, f, 1.3)

    def test_point_budget(self, monkeypatch):
        # no exponent range: the first level reads lattices of 32 and 31
        # points, which a budget of 31 leaves no room for
        f = GridFunction(2, 1, lambda c: [c[0] * c[1]])
        monkeypatch.setattr(quadrature, "MAX_TOTAL_POINTS", 32)
        assert abs(inner_product_numeric(f, f, 1.0) - 1) < 1e-12
        monkeypatch.setattr(quadrature, "MAX_TOTAL_POINTS", 31)
        with pytest.raises(NonConvergent, match="no room for two grids"):
            inner_product_numeric(f, f, 1.0)


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


# Bands of rho, and per n the sizes N at which the pair N, N - 1 agrees for
# a band: the grids at n = 1, the lattices of lattices.PAIRS at n >= 2.  The
# last band straddles the ratio at which the lattice pair of 256 (n = 2, 3)
# or 512 points (n = 4) stops agreeing, so it reaches one of two sizes.
_RHO_BANDS = ((0.10, 0.19), (0.33, 0.42), (0.55, 0.64))
_BAND_SIZES = {1: ((32,), (32,), (64,)), 2: ((64,), (256,), (256, 1024)),
               3: ((256,), (256,), (256, 512)), 4: ((256,), (512,), (512, 2048))}
_DEEP_SHAPES = [(n, band) for n, sizes in _BAND_SIZES.items() for band in zip(_RHO_BANDS, sizes)]


class TestDeepFamilyErrorEstimate:
    """On the doubling path, est_error bounds the gap to the closed forms of
    the family c0 + sum e/w + sum d*w + r/(a - w1...wn) (see _deep_case)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(_DEEP_SHAPES))
    def test_error_estimate_bounds_the_closed_form_gap(self, seed, shape):
        n, (rho_band, sizes) = shape
        f, lam, core, eta, jac = _deep_case(np.random.default_rng(seed), n, rho_band)
        s = spectral_summary(f, lam)
        assert s.grid_n in sizes
        gaps = [abs(s.core[0] - core), *np.abs(s.eta[0] - eta),
                *np.abs(s.jacobian[0] - jac)]
        assert max(gaps) <= s.est_error


class TestShiftedGrid:
    """The first-level floor of est_error on 1/w + w + 1/(w - b), a pole
    shifted off the origin.  The class keeps its earlier name so that the
    ids of its cases stay stable."""

    @pytest.mark.parametrize("b,lam", [(3, 0.05), (10, 0.02)])
    def test_first_level_estimate_is_floored_by_rounding(self, b, lam):
        # 1/w + w + 1/(w - b) = 1/w + w - sum_m w^m / b^(m+1): at a small
        # scale the grids 32 and 31 agree to rounding, and the estimate is
        # their larger rounding bound, which covers the error of D
        s = spectral_summary(parse(f"1/w + w + 1/(w - {b})", 1), lam)
        assert s.grid_n == 32
        gaps = [abs(s.core[0] + 1 / b), abs(s.eta[0, 0] - 1),
                abs(s.jacobian[0, 0] - (1 - 1 / b**2))]
        assert max(gaps) <= s.est_error


def _row(s, i):
    """Row i of a stacked summary (see quadrature._summaries), as the
    one-scale summary of its scale."""
    return quadrature.SpectralSummary(
        lam=float(s.lam[i]), core=s.core[i], eta=s.eta[i], jacobian=s.jacobian[i],
        variance=float(s.variance[i]), tail_energy=float(s.tail_energy[i]),
        est_error=float(s.est_error[i]), grid_n=int(s.grid_n[i]))


def _binned(f, box) -> np.ndarray:
    """sum |c^_a|^2 over the components and the a != 0 of each total degree,
    lowest first, of a range box of f (axis j over lo_j..hi_j, components
    last), binned one entry at a time in C order."""
    bounds = f.exponent_bounds()
    total = sum(np.ix_(*[np.arange(lo, hi + 1) for lo, hi in bounds]))
    power = (np.abs(box) ** 2).sum(axis=-1)
    if all(lo <= 0 <= hi for lo, hi in bounds):  # a = 0 is the mean
        power[tuple(-lo for lo, _ in bounds)] = 0.0
    return np.bincount((total - total.min()).ravel(), weights=power.ravel())


def _assert_same_summary(got, want):
    """The same summary, bit for bit."""
    assert got.lam == want.lam
    assert got.grid_n == want.grid_n and got.est_error == want.est_error
    for name in ("core", "eta", "jacobian", "variance", "tail_energy"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 2),
           st.lists(st.floats(0.2, 5.0), min_size=1, max_size=12, unique=True))
    def test_stacked_summary_splits_into_one_scale_summaries(self, seed, n, k, lams):
        f = random_decomposable(np.random.default_rng(seed), n=n, k=k)
        lams = sorted(lams)
        s, _, _ = quadrature._summaries(f, lams, DEFAULT_TOL, DEFAULT_MAX_N)
        assert s.lam.shape == s.variance.shape == (len(lams),)
        models = s.variance_model
        for i, lam in enumerate(lams):
            one = spectral_summary(f, lam)
            _assert_same_summary(_row(s, i), one)
            assert models[i] == one.variance_model

    def test_tail_is_variance_minus_the_lone_model(self):
        # scales whose float power x**2 and product x*x differ in the last
        # bit; inputs without a tail, so that the model's last bits show
        draws = np.random.default_rng(0).uniform(0.3, 3.0, 40000).tolist()
        lams = sorted(x for x in draws if x**2 != x * x)[:12]
        assert len(lams) == 12
        for seed in range(3):
            f = random_decomposable(np.random.default_rng(seed), n=2, k=2, allow_tail=False)
            for s in spectral_summaries(f, lams):
                assert s.tail_energy == s.variance - s.variance_model

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_one_evaluation_per_block(self, extra):
        # n = 3, k = 1, orders -1..4 on the last axis: the exact 8-grid, 512
        # values per scale
        f = LaurentPoly.scalar(3, {
            (0, 0, 0): 1 + 1j, (-1, 0, 0): 2, (0, 1, 0): -1, (0, 0, -1): 3,
            (0, 0, 1): 1 - 2j, (1, 1, 2): 2, (0, 0, 4): -3,
        })
        assert exact_grid(f.exponent_bounds()) == 8
        block = BLOCK_VALUES // 8**3
        lams = [0.4 + 0.4 * i / block for i in range(block + extra)]
        counted = _Counted(f)
        batched = spectral_summaries(counted, lams)
        blocks = [lams[i : i + block] for i in range(0, len(lams), block)]
        assert counted.sizes == [8 * len(b) for b in blocks]
        for lam, s in zip(lams, batched):
            _assert_same_summary(s, spectral_summary(f, lam))

    def test_sweep_samples_its_grid_in_one_block(self):
        counted = _Counted(parse("1/w + w", 1))
        sweep = variance_sweep(counted, [0.25 * 2 ** (i / 8) for i in range(33)])
        # the sweep grid is one block; golden section then reads every probe
        # from the block's row at the sweep minimum
        assert counted.sizes == [33 * 4]
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

    @pytest.mark.parametrize("text", ["1/w + w", "1/(w-2)"])
    def test_no_scales_give_no_summaries(self, text):
        # the exact grid and the doubling loop alike sample nothing
        counted = _Counted(parse(text, 1))
        assert spectral_summaries(counted, []) == []
        assert counted.sizes == []

    def test_invalid_scale_in_a_block_names_itself(self):
        with pytest.raises(ValueError, match="got nan"):
            spectral_summaries(parse("1/w + w", 1), [1.0, float("nan"), 2.0])

    @pytest.mark.parametrize("f", [
        LaurentPoly.scalar(2, {(-1, 0): 1, (0, 1): 2, (3, 1): 1}),
        parse("2/w1 + 3*w2^2 + w1*w2/w3, 1/w2 - 0.5*w1*w3", 3),
        # the doubling loop, where the mean of |f|^2 takes part in acceptance
        parse("1/(2*w + 0.25*w^2)", 1),
        GridFunction(2, 1, parse("1/w1 + 2*w2 + 0.5/(3 - w1*w2)", 2).eval_grid),
    ])
    def test_first_order_summary_reads_what_summaries_read(self, f):
        # the front ends share one coefficient reader: the same bits at one
        # scale and in a block of scales
        lams = [0.5, 0.8, 1.3]
        for lam, in_block in zip(lams, spectral_summaries(f, lams)):
            core, eta, jac, _, grid_n = first_order_summary(f, lam)
            for s in (spectral_summary(f, lam), in_block):
                assert s.grid_n == grid_n
                assert np.array_equal(s.core, core)
                assert np.array_equal(s.eta, eta) and np.array_equal(s.jacobian, jac)

    def test_extreme_scales_take_the_doubling_fallback(self):
        f = parse("1/w + w", 1)
        lams = [0.001, 1.0, 1000.0]
        counted = _Counted(f)
        batched = spectral_summaries(counted, lams)
        # one block on the exact 4-grid is the whole answer: the rounding
        # bound misses the tolerance at both extremes, and no scale is
        # refined, since a finer exact grid would only raise the bound
        assert counted.sizes == [3 * 4]
        assert [s.grid_n for s in batched] == [4, 4, 4]
        for lam, s in zip(lams, batched):
            exact = [abs(s.core[0]), abs(s.eta[0, 0] - 1), abs(s.jacobian[0, 0] - 1),
                     abs(s.variance - (lam**-2 + lam**2))]
            assert max(exact) <= s.est_error
            _assert_same_summary(s, spectral_summary(f, lam))

    @pytest.mark.parametrize("text,lams", [
        ("1/w + w", [0.001, 1.0, 1000.0]),
        # a bound far above the tolerance, with 35 box entries near
        # rounding noise
        ("w^33 + 100000/w", [0.3]),
    ])
    def test_exact_box_beyond_the_tolerance(self, text, lams):
        # a scale whose bound misses the tolerance is still read once from
        # its exact grid: a sweep's summaries are the plain ones, and its
        # energies bin that grid's contraction of the whole box
        f = parse(text, 1)
        s, _, energies = quadrature._summaries(f, lams, DEFAULT_TOL, DEFAULT_MAX_N, box=True)
        N = exact_grid(f.exponent_bounds())
        for i, (lam, plain) in enumerate(zip(lams, spectral_summaries(f, lams))):
            _assert_same_summary(_row(s, i), plain)
            exact = sample_torus(f, lam, N)
            orders = [range(lo, hi + 1) for lo, hi in f.exponent_bounds()]
            want = quadrature._contract_axes(exact.values, _grid_phases(orders, N), np.ndim(lam))
            assert np.array_equal(energies[i], _binned(f, want / N))


def _pairing(f_terms, g_terms, lam) -> complex:
    """sum conj(c^f_a) . c^g_a lam^(2 sum a), in exact rationals, for terms
    {exponents: vector of Gaussian integers}."""
    total = [Fraction(0), Fraction(0)]
    for a, f_vec in f_terms.items():
        weight = Fraction(lam) ** (2 * sum(a))
        for x, y in zip(f_vec, g_terms.get(a, [0] * len(f_vec))):
            z = x.conjugate() * y
            total[0] += Fraction(z.real) * weight
            total[1] += Fraction(z.imag) * weight
    return complex(float(total[0]), float(total[1]))


@st.composite
def _exact_inputs(draw):
    """Two evaluators with exponent ranges of one shape, random_decomposable
    polynomials or _ranged functions, each with its terms {exponents:
    vector of Gaussian integers}, exact as complex floats."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        f = random_decomposable(rng)
        pair = (f, random_decomposable(rng, n=f.n, k=f.k))
        return [(p, {a: [complex(c) for c in v] for a, v in p.terms.items()}) for p in pair]
    n = draw(st.integers(1, 3))
    pair = (draw(_ranged(n)) for _ in range(2))
    return [(_ranged_function(terms, bounds), {a: [c] for a, c in terms.items()})
            for terms, bounds in pair]


class TestExactReadIsTheAnswer:
    """An evaluator with an exponent range is read once, from its exact grid,
    whatever the tolerance: no front end enters the doubling loop, and the
    rounding bound it reports bounds the gap to the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(_exact_inputs(), st.floats(-3, math.log10(30)), st.sampled_from([1e-10, 1e-20]))
    def test_no_front_end_enters_the_doubling_loop(self, pair, log_lam, tol):
        (f, terms), (g, g_terms) = pair
        lam = 10**log_lam
        for t in (terms, g_terms):  # no value beyond the blow-up threshold
            assume(sum(max(map(abs, v)) * lam ** sum(a) for a, v in t.items())
                   <= quadrature.BLOWUP_THRESHOLD)
        n, zero = f.n, [0j] * f.k
        with mock.patch.object(quadrature, "_adaptive",
                               side_effect=AssertionError("the doubling loop ran")), \
             recorded_reads() as reads:
            [s] = spectral_summaries(f, [lam], tol)
            orders = list(dict.fromkeys([(0,) * n, *terms, *(
                tuple(d * (i == j) for i in range(n)) for j in range(n) for d in (-1, 1))]))
            coeffs, err, n_used = adaptive_coefficients(f, lam, orders)
            value = inner_product_numeric(f, g, lam)
        [ip_err] = reads[-1].est_error
        assert s.grid_n == n_used == exact_grid(f.exponent_bounds())

        unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        core = np.array(terms.get((0,) * n, zero))
        eta = np.array([terms.get(tuple(-x for x in e), zero) for e in unit]).T
        jac = np.array([terms.get(e, zero) for e in unit]).T
        variance = float(sum(sum(int(c.real) ** 2 + int(c.imag) ** 2 for c in v)
                             * Fraction(lam) ** (2 * sum(a)) for a, v in terms.items() if any(a)))
        gaps = [np.max(np.abs(s.core - core)), np.max(np.abs(s.eta - eta)),
                np.max(np.abs(s.jacobian - jac)), abs(s.variance - variance)]
        assert max(gaps) <= s.est_error
        for a in orders:
            assert np.max(np.abs(coeffs[a] - np.array(terms.get(a, zero)))) <= err
        assert abs(value - _pairing(terms, g_terms, lam)) <= ip_err

    def test_no_range_still_refuses_an_unreachable_tolerance(self):
        # the doubling loop cannot resolve 1e-20, so an input without a
        # range is refused; the same function with its range reads its
        # 4-grid and reports the rounding bound
        f = parse("(1+2i)/w + 3*w^2 - 0.7*w", 1)
        with pytest.raises(NonConvergent, match="without two grids agreeing within 1e-20"):
            spectral_summary(GridFunction(1, 1, f.eval_grid), 1.3, tol=1e-20)
        s = spectral_summary(f, 1.3, tol=1e-20)
        assert s.grid_n == 4 and 1e-20 < s.est_error < 1e-12


def _per_entry_bound(f, lams, N, dims, peak, indices, energy_size) -> np.ndarray:
    """The rounding bound of every entry of a coefficient read of f from its
    N-point grid of ``dims`` axes (one for a lattice) at the scales lams, as
    the reader once reported it entry by entry: unit * lam^(-sum a) for each
    component of each coefficient, 4*k*max(peak, 1)*unit for the mean of
    |f|^2 and 0 for each energy by degree, unit being
    _rounding_bound(dims, N, degree, peak), one row per scale."""
    k = f.k
    degree = quadrature._degree(quadrature._exponent_bounds(f))
    unit = np.asarray(quadrature._rounding_bound(dims, N, degree, peak))[..., None]
    scales = np.asarray(lams)[..., None] ** -np.array([sum(a) for a in indices], dtype=float)
    power = 4 * k * np.maximum(peak, 1.0)[..., None] * unit
    zeros = np.zeros(np.shape(lams) + (energy_size,))
    return np.concatenate([(unit * scales).repeat(k, axis=-1), power, zeros], axis=-1)


class _PerEntry:
    """A reader (see sample_torus) that reads as ``reader`` does and reports
    _per_entry_bound for its bound."""

    def __init__(self, reader, bound):
        self.reader, self.bound = reader, bound

    def add(self, *args):
        self.reader.add(*args)

    def result(self, peak):
        return self.reader.result(peak)[0], self.bound(peak)


_NO_RANGE = [
    parse("1/(w-2)", 1),
    parse("1/w1 + 2*w2 + 0.5/(3 - w1*w2)", 2),
    GridFunction(1, 2, parse("1/w + w^2 + 1/(3 - w), 3*w", 1).eval_grid),
]


@st.composite
def _bound_inputs(draw):
    """An evaluator, a few scales, extra orders and whether to read the range
    box: a random_decomposable polynomial, a _ranged function, or one
    without a range at one or two scales.  An extra order of high degree at
    a small scale has a bound above that of the mean of |f|^2."""
    kind = draw(st.sampled_from(["decomposable", "ranged", "none"]))
    if kind == "decomposable":
        f = random_decomposable(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    elif kind == "ranged":
        f = _ranged_function(*draw(_ranged(draw(st.integers(1, 3)))))
    else:
        f = draw(st.sampled_from(_NO_RANGE))
    scales = st.sampled_from((0.3, 0.5, 0.8, 1.0, 1.3, 1.7))
    lams = draw(st.lists(scales, min_size=1, max_size=2 if kind == "none" else 5))
    extra = draw(st.lists(st.tuples(*[st.integers(-3, 4)] * f.n), max_size=3))
    return f, lams, extra, draw(st.booleans())


class TestOneBoundPerScale:
    """A read reports one rounding bound per scale, the largest of the
    bounds it once reported entry by entry, so est_error keeps its bits on
    the exact grid and in the doubling loop alike."""

    @settings(max_examples=60, deadline=None)
    @given(_bound_inputs())
    def test_est_error_is_the_largest_per_entry_bound(self, case):
        f, lams, extra, box = case
        with recorded_reads() as reads:
            s, _, energies = quadrature._summaries(f, lams, DEFAULT_TOL, DEFAULT_MAX_N, extra, box)
        [read] = [r.read for r in reads]
        unit = [tuple(int(i == j) for i in range(f.n)) for j in range(f.n)]
        indices = [(0,) * f.n, *(tuple(-x for x in e) for e in unit), *unit, *extra]
        size = energies.shape[-1]

        def per_entry(lams, zs, N):
            return _PerEntry(read(lams, zs, N), lambda peak: _per_entry_bound(
                f, lams, N, len(zs), peak, indices, size))

        if quadrature._exponent_bounds(f) is None:
            want = [quadrature._adaptive(f, lam, per_entry, DEFAULT_TOL, DEFAULT_MAX_N, indices)[1]
                    for lam in lams]
        else:
            N = int(s.grid_n[0])
            want = sample_torus(f, lams, N, read=per_entry)[1].max(axis=-1).tolist()
        assert s.est_error.tolist() == want


def _box_energies(f, lam, max_n=DEFAULT_MAX_N):
    """(degrees, energies, est_error) of the range box read at lam, as a
    sweep reads the row of its minimum."""
    s, _, [energies] = quadrature._summaries(f, [lam], DEFAULT_TOL, max_n, box=True)
    lowest = sum(lo for lo, _ in f.exponent_bounds())
    return lowest + np.arange(energies.size), energies, float(s.est_error[0])


def _oracle_energies(f, degrees) -> np.ndarray:
    """sum |c_a|^2 over the components and the a != 0 of each total degree."""
    want = np.zeros(len(degrees))
    for exps, coeffs in f.terms.items():
        if any(exps):
            want[sum(exps) - degrees[0]] += sum(float(c.abs2()) for c in coeffs)
    return want


class TestSweepProbes:
    """Golden-section probes read from the degree energies of the sweep's
    row at its minimum."""

    def test_energies_give_the_variance_at_every_scale(self):
        f = random_decomposable(np.random.default_rng(11), n=2, k=2)
        sweep = variance_sweep(f, geometric_grid(0.3, 3.0, 9))
        i = int(np.argmin(sweep.variance))
        anchor = sweep.lambdas[i]
        degrees, energies, err = _box_energies(f, anchor)
        assert err == sweep.est_error[i]
        # c^_a = c_a anchor^(sum a): the oracle's energies at the anchor
        want = _oracle_energies(f, degrees) * anchor ** (2.0 * degrees)
        assert np.abs(energies - want).sum() <= err
        for lam in (0.3, anchor, 2.0):
            value = float(energies @ (lam / anchor) ** (2.0 * degrees))
            exact = float(variance_exact(f, Fraction(lam)))
            assert abs(value - exact) <= err * max((lam / anchor) ** (2.0 * degrees))

    @pytest.mark.parametrize("seed,n,k", [(0, 1, 1), (5, 2, 2), (9, 3, 1)])
    def test_degree_energies_bin_the_range_box(self, seed, n, k):
        f = random_decomposable(np.random.default_rng(seed), n=n, k=k)
        s, _, [energies] = quadrature._summaries(f, [1.0], DEFAULT_TOL, DEFAULT_MAX_N, box=True)
        bounds = f.exponent_bounds()
        lowest, highest = sum(lo for lo, _ in bounds), sum(hi for _, hi in bounds)
        assert energies.shape == (highest - lowest + 1,)
        degrees = np.arange(lowest, highest + 1)
        assert np.abs(energies - _oracle_energies(f, degrees)).sum() <= s.est_error[0]

    def test_no_range_reads_no_energies(self):
        f = GridFunction(1, 1, parse("1/w + w", 1).eval_grid)
        _, _, energies = quadrature._summaries(f, [1.0], DEFAULT_TOL, DEFAULT_MAX_N, box=True)
        assert energies.shape == (1, 0)

    def test_sweep_peak_does_not_grow_with_its_steps(self):
        # 9,702 box entries per scale, each scale one block of the 32^3
        # grid: a sweep keeps their energies by degree, not the box
        f = parse("1/w1 + w1 + w1^20*w2^20*w3^20", 3)
        peaks = []
        variance_sweep(f, geometric_grid(0.8, 1.2, 3))  # caches warmed outside the trace
        for steps in (9, 33):
            tracemalloc.start()
            try:
                variance_sweep(f, geometric_grid(0.8, 1.2, steps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_no_range_samples_every_probe(self, monkeypatch):
        f = GridFunction(1, 1, parse("1/w + w", 1).eval_grid)
        sampled = []
        summary = analysis.spectral_summary
        monkeypatch.setattr(analysis, "spectral_summary",
                            lambda g, lam, **kw: sampled.append(lam) or summary(g, lam, **kw))
        sweep = variance_sweep(f, geometric_grid(0.25, 4.0, 17))
        during = list(sampled)
        probes = _probes(sweep)
        assert len(probes) > 10 and during == probes

    def test_anchor_above_the_tolerance_reads_its_exact_box(self, monkeypatch):
        # at peak 2e5 the rounding bound of the exact grid misses 1e-10, and
        # the row at the minimum is still that grid's read: its est_error
        # certifies the box, and no probe is sampled
        f = parse("100000/w + 100000*w", 1)
        sampled = []
        summary = analysis.spectral_summary
        monkeypatch.setattr(analysis, "spectral_summary",
                            lambda g, lam, **kw: sampled.append(lam) or summary(g, lam, **kw))
        sweep = variance_sweep(f, geometric_grid(0.5, 2.0, 9))
        i = int(np.argmin(sweep.variance))
        assert sweep.lambdas[i] == 1.0 and sweep.est_error[i] > 1e-10
        probes = _probes(sweep)
        assert len(probes) > 10 and sampled == []
        for lam in probes:
            exact = 1e10 * (lam**-2 + lam**2)
            assert abs(sweep.variance_fn(lam) - exact) <= DEFAULT_TOL * exact
        assert abs(sweep.lambda_star_empirical - 1) < 1e-3

    def test_uncertified_probe_is_sampled(self, monkeypatch):
        # degrees -1..2 on the box of the range, the top one empty: at 100
        # times the anchor its factor 100^4 leaves the certificate above tol
        f = parse("1/w1 + w2, w1", 2)
        sweep = variance_sweep(f, geometric_grid(0.25, 4.0, 17))
        anchor = sweep.lambdas[int(np.argmin(sweep.variance))]
        sampled = []
        summary = analysis.spectral_summary
        monkeypatch.setattr(analysis, "spectral_summary",
                            lambda g, lam, **kw: sampled.append(lam) or summary(g, lam, **kw))
        assert sweep.variance_fn(100 * anchor) == summary(f, 100 * anchor).variance
        assert sampled == [100 * anchor]

    def test_read_is_accepted_on_the_mean(self):
        # at peak 202 the bound misses 1e-10 for the energies of size 1
        # and 0, not for the mean of |f|^2 = 40002
        f = parse("200 + w + 1/w", 1)
        sweep = variance_sweep(f, [0.5, 1.0, 2.0], max_n=4)
        assert sweep.variance.index(min(sweep.variance)) == 1
        degrees, energies, err = _box_energies(f, 1.0, max_n=4)
        assert list(degrees) == [-1, 0, 1] and 1e-10 < err <= 1e-10 * 40002
        assert err == sweep.est_error[1]
        assert np.allclose(energies, [1, 0, 1], rtol=0, atol=err)

    def test_two_point_sweep_samples_no_anchor(self):
        counted = _Counted(parse("1/w + w", 1))
        variance_sweep(counted, [0.5, 2.0])
        assert counted.sizes == [2 * 4]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from([9, 17, 33]))
    def test_every_probe_within_its_certificate(self, seed, n, k, steps):
        f = random_decomposable(np.random.default_rng(seed), n=n, k=k)
        sweep = variance_sweep(f, geometric_grid(0.3, 3.0, steps))
        i = int(np.argmin(sweep.variance))
        anchor, err = sweep.lambdas[i], sweep.est_error[i]
        degrees, energies, _ = _box_energies(f, anchor)
        want = _oracle_energies(f, degrees) * anchor ** (2.0 * degrees)
        assert np.abs(energies - want).sum() <= err
        for lam in _probes(sweep):
            value = sweep.variance_fn(lam)
            bound = err * max((lam / anchor) ** (2.0 * degrees))
            if bound > DEFAULT_TOL * max(1.0, value):  # sampled
                bound = spectral_summary(f, lam).est_error
            assert abs(value - float(variance_exact(f, Fraction(lam)))) <= bound
        assert abs(sweep.variance_fn(anchor) - sweep.variance[i]) <= sweep.est_error[i]


def _probes(sweep) -> list[float]:
    """The scales golden section probes on a finished sweep, in order; the
    refined optimum comes out as the sweep reported it."""
    probes = []
    read = sweep.variance_fn
    sweep.variance_fn = lambda lam: probes.append(lam) or read(lam)
    try:
        if len(sweep.lambdas) >= 3:
            assert empirical_optimal_scale(sweep) == sweep.lambda_star_empirical
    finally:
        sweep.variance_fn = read
    return probes


# Inputs without a range, each with the scale and a grid size of its doubling
# loop above SLAB_VALUES values: a 1024^2 grid, a 64^3 grid of two
# components and the 32^4 grid of the first level.
_STREAMED = [
    (parse("1/w1 + 2*w2 + 0.5/(1.02 - w1*w2)", 2), 1.0, 1024),
    (parse("1/w1 + w2 + 1/(2 - w1*w2*w3), w3^2/(3 - w1)", 3), 1.0, 64),
    (parse("(1+2i)/w1 + w4 + 1/(2 - w1*w2*w3*w4)", 4), 0.9, 32),
]


def _stream(orders):
    """A reader (see sample_torus) of the box of orders, given per read axis,
    and the mean of |f|^2, as (box, mean, peak)."""
    def read(lams, zs, N):
        points = N ** len(zs)
        return quadrature._Stream(lams, zs, N, orders, lambda lams, N, total, power, peak:
                                  (total / points, power / points, peak))
    return read


def _whole_grid_read(f, lam, N, orders):
    """(box, mean, peak) of a whole sampled grid: the reference."""
    grid = sample_torus(f, lam, N)
    phases = _grid_phases(orders, N)
    box = quadrature._contract_axes(grid.values, phases, np.ndim(lam)) / N**f.n
    return box, (np.abs(grid.values) ** 2).sum() / N**f.n, grid.peak


def _assert_within_bound(got, want, n, k, N):
    """Each streamed statistic is within the engine's rounding bound of the
    whole-grid one: the coefficient bound for the box, and that of the mean
    for the mean; the peaks are equal."""
    (box, power, peak), (box_want, power_want, peak_want) = got, want
    assert peak == peak_want
    unit = quadrature._rounding_bound(n, N, 0, peak)
    assert np.max(np.abs(box - box_want)) <= unit
    assert abs(power - power_want) <= 4 * k * max(peak, 1.0) * unit


class TestStreamedRead:
    """A grid is read in parts of at most READ_VALUES values as it is
    evaluated, and never held whole: each part's moduli give its peak and
    share of the mean of |f|^2, and its rows their share of every
    coefficient."""

    @pytest.fixture(params=["default", "small"])
    def sizes(self, request, monkeypatch):
        # small slabs and parts split even the 32-grids of the first level
        if request.param == "small":
            monkeypatch.setattr(quadrature, "SLAB_VALUES", 2**9)
            monkeypatch.setattr(quadrature, "READ_VALUES", 2**11)
        return request.param

    @pytest.mark.parametrize("f,lam,N", _STREAMED)
    def test_parts_read_as_the_whole_grid(self, sizes, f, lam, N):
        # a level's grids N and N - 1, the odd one read in parts as well
        n, k = f.n, f.k
        orders = [[-1, 0, 1]] * n
        for size in (N, N - 1):
            assert size**n * k > quadrature.READ_VALUES  # read in parts
            got = sample_torus(f, lam, size, read=_stream(_grid_orders(orders)))
            _assert_within_bound(got, _whole_grid_read(f, lam, size, orders), n, k, size)

    @pytest.mark.parametrize("f,lam,N", _STREAMED)
    def test_lattice_parts_read_as_the_whole_lattice(self, f, lam, N, monkeypatch):
        # a 512-point lattice of lattices.PAIRS read at once, then in parts
        # of 128 points with phase matrices made for each part (more than
        # BLOCK_VALUES entries)
        n, k, M = f.n, f.k, 512
        unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        orders = [(0,) * n, *unit, *(tuple(-x for x in e) for e in unit)]
        lattice = quadrature._Lattice(f, quadrature.PAIRS[n, M][0])
        stream = _stream((tuple(orders),))  # one read axis of n coordinates
        want = sample_torus(lattice, lam, M, read=stream)
        monkeypatch.setattr(quadrature, "SLAB_VALUES", 64)
        monkeypatch.setattr(quadrature, "READ_VALUES", 128 * k)
        monkeypatch.setattr(quadrature, "BLOCK_VALUES", 64)
        _assert_within_bound(sample_torus(lattice, lam, M, read=stream), want, 1, k, M)

    @pytest.mark.parametrize("N", [31, 32, 1024])
    def test_the_lattice_of_one_axis_is_the_grid(self, N):
        # z = (1,): the same coordinates, phases and sums, bit for bit
        f, orders = parse("1/w + 2*w + 1/(3 - w^5)", 1), _grid_orders([[-1, 0, 1]])
        grid = sample_torus(f, 0.9, N, read=_stream(orders))
        lattice = sample_torus(quadrature._Lattice(f, (1,)), 0.9, N, read=_stream(orders))
        for got, want in zip(lattice, grid):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("f,lam,N", _STREAMED)
    def test_summary_in_small_parts(self, f, lam, N, monkeypatch):
        want = spectral_summary(f, lam)
        monkeypatch.setattr(quadrature, "SLAB_VALUES", 2**9)
        monkeypatch.setattr(quadrature, "READ_VALUES", 2**11)
        got = spectral_summary(f, lam)
        assert got.grid_n == want.grid_n and got.grid_n >= N
        for field in ("core", "eta", "jacobian", "variance"):
            assert np.max(np.abs(getattr(got, field) - getattr(want, field))) <= want.est_error

    def test_inner_product_in_small_parts(self, monkeypatch):
        # the pair of two pointwise evaluators is pointwise, so it is read in
        # parts too, on its exact grid and in the doubling loop
        pairs = [(random_decomposable(np.random.default_rng(seed), n=3, k=2),) * 2
                 for seed in (1, 2)]
        pairs.append((_STREAMED[1][0], parse("w1*w2 + 1/(4 - w3), 1/w2", 3)))
        want = [inner_product_numeric(f, g, 0.9) for f, g in pairs]
        monkeypatch.setattr(quadrature, "SLAB_VALUES", 2**9)
        monkeypatch.setattr(quadrature, "READ_VALUES", 2**11)
        for (f, g), value in zip(pairs, want):
            pair = quadrature._Pair(f, g)
            assert pair.pointwise and pair.k == 2 * f.k
            assert abs(inner_product_numeric(f, g, 0.9) - value) <= 1e-12 * max(1, abs(value))

    @pytest.mark.parametrize("lam,N", [(1.0, 64), (1.15, 128)])
    def test_memory_is_bounded_by_the_slab(self, lam, N):
        # the exact 64^3 grid of one component is READ_VALUES values, read
        # at once; the 128^3 grid, 33.6 MB of values, in eight parts: either
        # read holds a part, its moduli and a slab's intermediates (9.6 MB
        # traced, against 48.0 MB for a whole 128^3 grid)
        f = parse(f"1/w1 + w1^{N // 2}*w2*w3", 3)
        spectral_summary(f, lam)  # caches warmed outside the trace
        tracemalloc.start()
        try:
            s = spectral_summary(f, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.grid_n == N
        assert peak < 10 * SLAB_VALUES * 16
