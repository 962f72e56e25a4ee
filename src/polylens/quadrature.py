"""Numerical engine: expectations, inner products, Laurent coefficients and
variances of black-box functions, computed by uniform sampling of the product
of boundary circles |w_j| = lam.

The boundary measure turns every integral into a plain average over the
equispaced sample grid, and coefficient extraction into a discrete Fourier
contraction.  Uniform sampling of a periodic analytic integrand is spectrally
accurate, and exact (to rounding) for Laurent polynomials whose exponent range
per dimension is narrower than the grid.

Evaluators that know their exponent range (an ``exponent_bounds()`` method
returning per-axis ``(lo, hi)`` pairs, or None) are sampled once, on the
exact grid: the smallest power of two N >= n_start with N greater than
max(hi, max a_j) - min(lo, min a_j) on every axis, where a runs over the
requested coefficient orders.  On that grid every requested coefficient and
the mean of |f|^2 are exact up to rounding (discrete orthogonality), so no
second grid is sampled; the reported error is an a-priori rounding bound (see
_rounding_bound), which must meet the tolerance.  Where it does not (its
constants are worst-case, so this happens at extreme scales), the exact grids
N and 2N are compared as in the doubling loop.  For inner products N must
exceed the widest exponent difference of conj(f)*g.  ``laurent.LaurentPoly``
and ``expr.MeroExpr`` provide the method; a MeroExpr has a range when it
divides only by monomials.

Every other evaluator (divisions by non-monomials, :class:`GridFunction`) is
refined by doubling N.  Each level samples its grid once and extracts every
requested coefficient in one separable contraction (one small phase matrix
per axis).  The first level samples 2*n_start points per dimension and reads
the n_start statistic from the even sub-grid, whose coordinates are bitwise
those of the n_start grid, so a result accepted at N = 2*n_start costs one
evaluation of f.  A level accepts N when the grids N/2 and N agree within the
tolerance.  When they do not, but the square of their delta does (on
geometric decay the error of N is near that square), N is confirmed on a
copy of the N grid turned by GRID_SHIFT grid steps per axis instead of
sampling 2N: an alias term c_{a+N m} of a coefficient read from the N grid
turns its phase by 2*pi*m.s under the shift, so the two grids differ by the
alias error times |1 - exp(2*pi*i*m.s)|.  The estimate divides that
difference by the smallest such factor over the nonzero m in {-1,0,1}^n
(see _alias_floor), with a margin of SHIFT_MARGIN; if it misses the
tolerance, N doubles as before.  On either path the estimate is floored by
the rounding bound of the accepted grid, since the nested grids share points
and rounding.

Evaluators are duck-typed: anything with integer attributes ``n`` and ``k``
and a method ``eval_grid(coords) -> list[np.ndarray]`` accepting broadcastable
coordinate arrays works, e.g. ``expr.MeroExpr``, ``laurent.LaurentPoly`` or
the :class:`GridFunction` adapter below.  Evaluators must be re-entrant and
side-effect free; grids and summaries are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AliasingRisk,
    DimensionMismatch,
    DivisionNearZero,
    GridTooLarge,
    NonConvergent,
    PoleOnTorus,
)

DEFAULT_TOL = 1e-10
DEFAULT_START_N = 16
DEFAULT_MAX_N = 4096          # per-dimension cap; env LENS_MAX_GRID overrides via CLI
MAX_TOTAL_POINTS = 2**24      # budget on N**n
MAX_DIMENSION = 4
BLOWUP_THRESHOLD = 1e12       # |f| beyond this counts as a pole on the torus

# Per-axis turn of the confirming grid, in grid steps.  For every nonzero m in
# {-1,0,1}^n the binary fractions keep m.s at least 2^-n from an integer, the
# most any n shifts allow: two of the 2^n sums over m in {0,1}^n lie within
# 2^-n of each other on the circle.  Aliases c_{a+2N m} keep their phase
# under these shifts, as they do between the nested grids N and 2N.
GRID_SHIFT = (1 / 2, 1 / 4, 1 / 8, 1 / 16)
SHIFT_MARGIN = 2.0            # safety factor on the shifted-grid estimate


@dataclass(frozen=True)
class GridFunction:
    """Adapter turning a plain callable on coordinate arrays into an evaluator."""

    n: int
    k: int
    fn: Callable[[Sequence[np.ndarray]], list[np.ndarray]]

    def eval_grid(self, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
        return self.fn(coords)


@dataclass(frozen=True)
class TorusGrid:
    """Values of an evaluator on the N^n equispaced grid of the radius-lam
    torus; values[m1,...,mn,alpha] = f_alpha(lam * exp(2*pi*i*m/N))."""

    n: int
    k: int
    lam: float
    N: int
    values: np.ndarray  # shape (N,)*n + (k,)
    peak: float | None = None  # max |value|, recorded by sample_torus
    shift: tuple[float, ...] | None = None  # per-axis turn in grid steps

    def even_subgrid(self) -> "TorusGrid":
        """The N/2 grid formed by the even-indexed points of this one (its
        peak is this grid's, an upper bound)."""
        values = self.values[(slice(None, None, 2),) * self.n]
        shift = None if self.shift is None else tuple(s / 2 for s in self.shift)
        return TorusGrid(n=self.n, k=self.k, lam=self.lam, N=self.N // 2,
                         values=np.ascontiguousarray(values), peak=self.peak,
                         shift=shift)


def _steps(N: int, shift: tuple[float, ...] | None, j: int) -> np.ndarray:
    """Grid positions along axis j, in grid steps."""
    return np.arange(N) if shift is None else np.arange(N) + shift[j]


def torus_coords(
    n: int, lam: float, N: int, shift: tuple[float, ...] | None = None
) -> list[np.ndarray]:
    """Broadcastable coordinate arrays for the sample grid, axis j turned by
    shift[j] grid steps when a shift is given."""
    coords = []
    for j in range(n):
        shape = [1] * n
        shape[j] = N
        circle = lam * np.exp(2j * np.pi * _steps(N, shift, j) / N)
        coords.append(circle.reshape(shape))
    return coords


def sample_torus(
    f,
    lam: float,
    N: int,
    max_points: int = MAX_TOTAL_POINTS,
    shift: tuple[float, ...] | None = None,
) -> TorusGrid:
    """Evaluate f on the N^n torus grid, turned by shift[j] grid steps along
    axis j when a shift is given.

    Raises PoleOnTorus when evaluation divides by a near-zero modulus or any
    value is non-finite or beyond the blow-up threshold, and GridTooLarge when
    the point count exceeds the budget (or n > 4).
    """
    n, k = f.n, f.k
    if not 0 < lam < np.inf:  # also rejects NaN
        raise ValueError(f"radius must be positive and finite, got {lam!r}")
    if N < 4:
        raise ValueError("need at least 4 points per dimension")
    if n > MAX_DIMENSION:
        raise GridTooLarge(f"dimension {n} exceeds the cap of {MAX_DIMENSION}")
    if N**n > max_points:
        raise GridTooLarge(f"grid of {N}^{n} points exceeds the budget of {max_points}")
    if shift is not None and len(shift) != n:
        raise DimensionMismatch(f"shift has length {len(shift)}, expected {n}")
    coords = torus_coords(n, lam, N, shift)
    try:
        components = f.eval_grid(coords)
    except DivisionNearZero as exc:
        raise PoleOnTorus(
            f"pole on the radius-{lam:g} torus: {exc}", point=exc.point
        ) from exc
    shape = (N,) * n
    values = np.stack([np.broadcast_to(c, shape) for c in components], axis=-1)
    if not np.all(np.isfinite(values)):
        raise PoleOnTorus(f"non-finite value on the radius-{lam:g} torus")
    peak = float(np.max(np.abs(values)))
    if peak > BLOWUP_THRESHOLD:
        raise PoleOnTorus(
            f"value of modulus {peak:.3g} on the radius-{lam:g} torus"
        )
    return TorusGrid(n=n, k=k, lam=lam, N=N, values=values, peak=peak, shift=shift)


def laurent_coefficients(grid: TorusGrid, indices: Sequence[Sequence[int]]) -> np.ndarray:
    """Coefficients c_a of the sampled function for every index a, as an
    array of shape (len(indices), k).

    c_a = lam^(-sum a) * (1/N^n) * sum_m values(m) exp(-2*pi*i*a.(m + s)/N),
    with s the grid's shift (zero when it has none); exact to rounding for
    Laurent polynomials whose per-dimension exponent width is below N.
    Requires |a_j| <= N/2 - 1 against aliasing.

    The sum is separable: axis j is contracted against one phase matrix with a
    row per distinct order requested on that axis.  Axis 0 goes first, from
    the left, so the full grid is read in place; the remaining axes are
    contracted on the small result.
    """
    n, N = grid.n, grid.N
    idx = [tuple(int(x) for x in a) for a in indices]
    for avec in idx:
        if len(avec) != n:
            raise DimensionMismatch(f"index {avec} has length {len(avec)}, expected {n}")
        if any(abs(x) > N // 2 - 1 for x in avec):
            raise AliasingRisk(
                f"coefficient order {avec} too high for N={N} (need |a_j| <= N/2 - 1)"
            )
    rows = []
    out = grid.values
    for j in range(n):
        orders = sorted({a[j] for a in idx})
        rows.append([orders.index(a[j]) for a in idx])
        m = _steps(N, grid.shift, j)
        phases = np.exp(-2j * np.pi * np.array(orders)[:, None] * m / N)
        # (r_j, N) @ (r_0, ..., r_{j-1}, N, rest): contracts grid axis j; the
        # first step reads the full grid in place
        out = phases @ out.reshape(out.shape[:j] + (N, -1))
    # out has shape (r_0, ..., r_{n-1}, k)
    coeffs = out[tuple(rows)]
    scale = grid.lam ** -np.array([sum(a) for a in idx], dtype=float) / N**n
    return coeffs * scale[:, None]


def laurent_coefficient(grid: TorusGrid, a: Sequence[int]) -> np.ndarray:
    """Coefficient c_a of the sampled function, one entry per component
    (see laurent_coefficients)."""
    return laurent_coefficients(grid, [a])[0]


@dataclass(frozen=True)
class SpectralSummary:
    """Constant term, residue and first-derivative matrices, and variance of
    an evaluator at one scale, with the refinement error estimate."""

    lam: float
    core: np.ndarray       # (k,)
    eta: np.ndarray        # (k, n): coefficient of 1/w_beta per component
    jacobian: np.ndarray   # (k, n): coefficient of w_beta per component
    variance: float
    tail_energy: float     # variance minus the two-term closed form
    est_error: float
    grid_n: int

    @property
    def variance_model(self) -> float:
        tr_eta = float(np.sum(np.abs(self.eta) ** 2))
        tr_jac = float(np.sum(np.abs(self.jacobian) ** 2))
        return tr_eta / self.lam**2 + self.lam**2 * tr_jac

    def to_json_dict(self) -> dict:
        pair = lambda z: [float(z.real), float(z.imag)]
        return {
            "lambda": self.lam,
            "core": [pair(z) for z in self.core],
            "eta": [[pair(z) for z in row] for row in self.eta],
            "jacobian": [[pair(z) for z in row] for row in self.jacobian],
            "variance": self.variance,
            "tail_energy": self.tail_energy,
            "est_error": self.est_error,
            "grid_n": self.grid_n,
        }


def _alias_floor(n: int) -> float:
    """Smallest |1 - exp(2*pi*i*m.s)| over the nonzero m in {-1,0,1}^n, for
    s = GRID_SHIFT[:n]: 2*sin(pi * 2^-n), since m.s keeps 2^-n from an
    integer."""
    return 2 * np.sin(np.pi / 2**n)


def _adaptive(
    sample: Callable[..., TorusGrid],
    read: Callable[[TorusGrid], tuple[np.ndarray, np.ndarray]],
    tol: float,
    n_start: int,
    max_n: int,
) -> tuple[np.ndarray, float, int]:
    """Refine N until the statistic is resolved within tol.

    ``sample(N, shift=None)`` samples a grid and ``read`` returns the
    statistic on it with a per-entry rounding bound.  The first level
    samples 2*n_start and reads its even sub-grid as the n_start level;
    every later level samples one new grid.  A level accepts N when the
    grids N/2 and N agree; when only the squared delta is within tol, it
    samples the N grid turned by GRID_SHIFT and accepts N when the alias
    error inferred from the two (see _alias_floor) is.  Otherwise N doubles.
    Agreement is absolute for entries of modulus <= 1 and relative above, so
    large variances do not stall the refinement at the rounding floor.  The
    returned error estimate is the infinity-norm of the accepting delta or
    alias error, floored entry by entry by the rounding bound of N.
    """
    if n_start < 4:
        raise ValueError("need at least 4 points per dimension")
    N = 2 * n_start
    if N > max_n:
        raise NonConvergent(
            f"grid cap N={max_n} leaves no room for two grids "
            f"(N={n_start} and N={N})"
        )
    grid = sample(N)
    shift = GRID_SHIFT[: grid.n]
    prev, _ = read(grid.even_subgrid())
    cur, floor = read(grid)
    del grid  # hold no grid while the next one is sampled
    while True:
        bound = tol * np.maximum(1.0, np.abs(cur))
        delta = np.abs(cur - prev)
        if np.all(delta <= bound):
            return cur, float(np.max(np.maximum(delta, floor))), N
        if np.all(delta <= np.sqrt(bound)):
            turned, _ = read(sample(N, shift))
            alias = SHIFT_MARGIN * np.abs(turned - cur) / _alias_floor(len(shift))
            if np.all(alias <= bound):
                return cur, float(np.max(np.maximum(alias, floor))), N
        if 2 * N > max_n:
            break
        prev = cur
        N *= 2
        cur, floor = read(sample(N))
    raise NonConvergent(
        f"refinement reached N={N} (cap {max_n}) without two grids agreeing within {tol:g}"
    )


def _rounding_bound(grid: TorusGrid) -> float:
    """A-priori rounding bound on a coefficient read from an exact grid,
    before its lam^(-sum a) scale: (n + 1) * N * eps * max(peak |f|, 1).

    n*N*eps is the standard bound for the n length-N phase contractions and
    N*eps allows for evaluating terms of degree below N, both relative to the
    peak (floored at 1 for intermediates of unit size).  A mean of a product
    of two samples is bounded by 4*k*max(peak, 1) times this, which also
    covers the variance formed from the mean of |f|^2.  Rounding inside the
    evaluator beyond that, as in the cancellation of (w + 1e8) - 1e8, is not
    covered.
    """
    return (grid.n + 1) * grid.N * np.finfo(float).eps * max(grid.peak, 1.0)


def _refine(
    sample: Callable[..., TorusGrid],
    read: Callable[[TorusGrid], tuple[np.ndarray, np.ndarray]],
    width: int | None,
    tol: float,
    n_start: int,
    max_n: int,
) -> tuple[np.ndarray, float, int]:
    """One refinement: the exact grid when the exponent width is known, else
    the doubling loop (see _adaptive).

    The exact grid is the smallest power of two N >= n_start above
    ``width``, the widest per-axis spread of the exponents the statistic
    involves, so no term aliases onto a read one.  ``read`` returns the
    statistic with a per-entry rounding bound; when every entry meets the
    acceptance rule of _adaptive, the largest bound is the error estimate.
    The bound uses worst-case constants, so at extreme scales it can miss
    the tolerance while the values are accurate: the doubling loop then
    compares the exact grids N and 2N, both alias-free.
    """
    if width is None:
        return _adaptive(sample, read, tol, n_start, max_n)
    if n_start < 4:
        raise ValueError("need at least 4 points per dimension")
    N = 1 << (n_start - 1).bit_length()
    while N <= width:
        N *= 2
    if N > max_n:
        raise NonConvergent(
            f"exponent width {width} needs an exact grid of N={N}, above the cap {max_n}"
        )
    value, est = read(sample(N))
    if np.all(est <= tol * np.maximum(1.0, np.abs(value))):
        return value, float(np.max(est)), N
    return _adaptive(sample, read, tol, N, max_n)


def _exponent_bounds(f) -> list[tuple[int, int]] | None:
    """Per-axis exponent range of an evaluator, or None when it has none."""
    method = getattr(f, "exponent_bounds", None)
    return None if method is None else method()


def _index_set(n: int, orders: Sequence[int]) -> list[tuple[int, ...]]:
    """Zero vector plus each +-order unit vector for the requested orders."""
    out = [(0,) * n]
    for order in orders:
        for beta in range(n):
            vec = [0] * n
            vec[beta] = order
            out.append(tuple(vec))
    return out


def adaptive_coefficients(
    f,
    lam: float,
    indices: Sequence[Sequence[int]],
    tol: float = DEFAULT_TOL,
    with_power: bool = False,
    n_start: int = DEFAULT_START_N,
    max_n: int = DEFAULT_MAX_N,
    max_points: int = MAX_TOTAL_POINTS,
) -> tuple[dict[tuple[int, ...], np.ndarray], float | None, float, int]:
    """Laurent coefficients at the given indices (and optionally the mean of
    |f|^2): from the exact grid when f has an exponent range, else refined by
    grid doubling until stable.

    Returns (coefficients, mean_power, est_error, N_used).
    """
    idx = [tuple(int(x) for x in a) for a in indices]

    def sample(N: int, shift: tuple[float, ...] | None = None) -> TorusGrid:
        return sample_torus(f, lam, N, max_points, shift)

    def read(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
        vec = laurent_coefficients(grid, idx).ravel()
        unit = _rounding_bound(grid)
        scales = lam ** -np.array([sum(a) for a in idx], dtype=float)
        est = np.repeat(unit * scales, f.k)
        if with_power:
            # pairwise summation keeps the sum's rounding logarithmic in N^n
            power = float(np.sum(np.abs(grid.values) ** 2)) / grid.N**grid.n
            vec = np.append(vec, power)
            est = np.append(est, 4 * f.k * max(grid.peak, 1.0) * unit)
        return vec, est

    bounds = _exponent_bounds(f)
    width = None if bounds is None else max(
        max(hi, *(a[j] for a in idx)) - min(lo, *(a[j] for a in idx))
        for j, (lo, hi) in enumerate(bounds)
    )
    vec, err, n_used = _refine(sample, read, width, tol, n_start, max_n)
    coeffs: dict[tuple[int, ...], np.ndarray] = {}
    for i, a in enumerate(idx):
        coeffs[a] = vec[i * f.k : (i + 1) * f.k]
    power = float(vec[-1].real) if with_power else None
    return coeffs, power, err, n_used


def _first_order(
    f, lam: float, **options
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None, float, int]:
    """Constant term, residue matrix eta and derivative matrix D of f, as
    (core, eta, D, mean_power, est_error, N_used); options go to
    adaptive_coefficients."""
    n, k = f.n, f.k
    coeffs, power, err, n_used = adaptive_coefficients(
        f, lam, _index_set(n, (-1, 1)), **options
    )
    eta = np.empty((k, n), dtype=complex)
    jac = np.empty((k, n), dtype=complex)
    for beta in range(n):
        vec = [0] * n
        vec[beta] = -1
        eta[:, beta] = coeffs[tuple(vec)]
        vec[beta] = 1
        jac[:, beta] = coeffs[tuple(vec)]
    return coeffs[(0,) * n], eta, jac, power, err, n_used


def spectral_summary(
    f,
    lam: float,
    tol: float = DEFAULT_TOL,
    n_start: int = DEFAULT_START_N,
    max_n: int = DEFAULT_MAX_N,
    max_points: int = MAX_TOTAL_POINTS,
) -> SpectralSummary:
    """Full one-scale summary of an evaluator whose only possible pole on the
    closed poly-disc is at the origin.

    The variance is the grid mean of |f|^2 minus |c_0|^2 (the boundary average
    of |f|^2 equals <f,f>); the tail energy is whatever part of it the
    two-term closed form does not account for.
    """
    core, eta, jac, power, err, n_used = _first_order(
        f, lam, tol=tol, with_power=True,
        n_start=n_start, max_n=max_n, max_points=max_points,
    )
    variance = max(power - float(np.sum(np.abs(core) ** 2)), 0.0)
    tr_eta = float(np.sum(np.abs(eta) ** 2))
    tr_jac = float(np.sum(np.abs(jac) ** 2))
    tail = variance - (tr_eta / lam**2 + lam**2 * tr_jac)
    return SpectralSummary(
        lam=lam, core=core, eta=eta, jacobian=jac,
        variance=variance, tail_energy=tail, est_error=err, grid_n=n_used,
    )


def first_order_summary(
    f,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Constant term plus residue and derivative matrices only (no variance).

    Unlike spectral_summary this stays meaningful for functions whose pole
    structure mixes coordinates, e.g. pullbacks under coordinate changes.
    """
    core, eta, jac, _, err, n_used = _first_order(f, lam, tol=tol, max_n=max_n)
    return core, eta, jac, err, n_used


def expectation_numeric(
    f,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> np.ndarray:
    """Boundary-measure expectation of f (its constant Laurent coefficient)."""
    coeffs, _, _, _ = adaptive_coefficients(f, lam, [(0,) * f.n], tol=tol, max_n=max_n)
    return coeffs[(0,) * f.n]


def inner_product_numeric(
    f,
    g,
    lam: float,
    tol: float = DEFAULT_TOL,
    n_start: int = DEFAULT_START_N,
    max_n: int = DEFAULT_MAX_N,
    max_points: int = MAX_TOTAL_POINTS,
) -> complex:
    """<f, g> as the grid mean of conj(f).g, conjugate-linear in f.  When both
    have an exponent range, the exact grid must exceed the widest exponent
    difference of conj(f).g on every axis.  Raises GridTooLarge when a grid
    exceeds max_points."""
    if f.n != g.n or f.k != g.k:
        raise DimensionMismatch(
            f"shape ({f.n},{f.k}) vs ({g.n},{g.k})"
        )

    k = f.k
    pair = GridFunction(f.n, 2 * k, lambda coords: [*f.eval_grid(coords), *g.eval_grid(coords)])

    def sample(N: int, shift: tuple[float, ...] | None = None) -> TorusGrid:
        return sample_torus(pair, lam, N, max_points, shift)

    def read(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
        values = grid.values
        # pairwise summation, as for the mean power in adaptive_coefficients
        total = np.sum(np.conj(values[..., :k]) * values[..., k:])
        est = 4 * k * max(grid.peak, 1.0) * _rounding_bound(grid)
        return np.asarray([total / grid.N**grid.n]), np.asarray([est])

    f_bounds, g_bounds = _exponent_bounds(f), _exponent_bounds(g)
    width = None if f_bounds is None or g_bounds is None else max(
        max(g_hi - f_lo, f_hi - g_lo)
        for (f_lo, f_hi), (g_lo, g_hi) in zip(f_bounds, g_bounds)
    )
    vec, _, _ = _refine(sample, read, width, tol, n_start, max_n)
    return complex(vec[0])
