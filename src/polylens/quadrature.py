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

The exact grid does not depend on the scale, so a sweep over several scales
(:func:`spectral_summaries`) samples them together in blocks: one evaluation
of f on the coordinates lam[:, None] * circle and one separable contraction
per block, with the scale axis leading.  A block holds at most BLOCK_VALUES
values (scales x N^n points x k components), which keeps its memory that of
a small grid.  Every scale keeps its own peak, rounding bound and acceptance
test, and a scale whose bound misses the tolerance runs the doubling loop
alone.  A block that raises (a pole on one of its tori, an invalid scale) is
sampled again one scale at a time, so the error names the scale and point
that a one-scale call names.  One scale is the block of one.

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

A pointwise evaluator (one with an ``exponent_bounds`` method, such as
``MeroExpr`` and ``LaurentPoly``) is evaluated on a grid of more than
SLAB_VALUES values slab by slab, rows of the first grid axis at a time, into
the one array of the grid.  Its intermediates then stay arrays of a slab,
not of the grid: an n = 4 expression summed term by term otherwise holds
three grid-sized temporaries at once, and where the allocator placed them
moved the peak memory of a process by one grid array from run to run.  The
operations are elementwise, so the values are those of one evaluation.

Evaluators are duck-typed: anything with integer attributes ``n`` and ``k``
and a method ``eval_grid(coords) -> list[np.ndarray]`` accepting broadcastable
coordinate arrays works, e.g. ``expr.MeroExpr``, ``laurent.LaurentPoly`` or
the :class:`GridFunction` adapter below.  The arrays of a block carry one more
leading axis, the scale, which an evaluator with an exponent range must
broadcast like the others.  Evaluators must be re-entrant and side-effect
free; grids and summaries are immutable once built.
"""

from __future__ import annotations

import functools
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
from .laurent import trace_norm_sq, variance_model

DEFAULT_TOL = 1e-10
DEFAULT_START_N = 16
DEFAULT_MAX_N = 4096          # per-dimension cap; env LENS_MAX_GRID overrides via CLI
MAX_TOTAL_POINTS = 2**24      # budget on N**n
MAX_DIMENSION = 4
BLOWUP_THRESHOLD = 1e12       # |f| beyond this counts as a pole on the torus
BLOCK_VALUES = 2**14          # most values (scales x N^n x k) in one block of scales
SLAB_VALUES = 2**16           # most values one evaluation of a pointwise evaluator yields
SCALE_RANGE = (2.0**-511, 2.0**511)  # scales whose square is a normal float

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
    torus; values[m1,...,mn,alpha] = f_alpha(lam * exp(2*pi*i*m/N)).

    A block sampled at L scales at once has the scales as an (L,) array in
    ``lam``, one peak per scale in ``peak``, and a leading scale axis on
    ``values``."""

    n: int
    k: int
    lam: float | np.ndarray
    N: int
    values: np.ndarray  # shape lead + (N,)*n + (k,), lead = () or (L,)
    peak: float | np.ndarray | None = None  # max |value| per scale, recorded by sample_torus
    shift: tuple[float, ...] | None = None  # per-axis turn in grid steps

    def even_subgrid(self) -> "TorusGrid":
        """The N/2 grid formed by the even-indexed points of this one (its
        peak is this grid's, an upper bound)."""
        values = self.values[(..., *(slice(None, None, 2),) * self.n, slice(None))]
        shift = None if self.shift is None else tuple(s / 2 for s in self.shift)
        return TorusGrid(n=self.n, k=self.k, lam=self.lam, N=self.N // 2,
                         values=np.ascontiguousarray(values), peak=self.peak,
                         shift=shift)


def _steps(N: int, shift: tuple[float, ...] | None, j: int) -> np.ndarray:
    """Grid positions along axis j, in grid steps."""
    return np.arange(N) if shift is None else np.arange(N) + shift[j]


def torus_coords(
    n: int, lam, N: int, shift: tuple[float, ...] | None = None
) -> list[np.ndarray]:
    """Broadcastable coordinate arrays for the sample grid, axis j turned by
    shift[j] grid steps when a shift is given.  For a sequence of L scales
    the arrays carry a leading scale axis: lam[:, None] * circle."""
    radius = np.asarray(lam, dtype=float)
    radius = radius.reshape(radius.shape + (1,) * n)
    coords = []
    for j in range(n):
        shape = [1] * n
        shape[j] = N
        circle = np.exp(2j * np.pi * _steps(N, shift, j) / N)
        coords.append(radius * circle.reshape(shape))
    return coords


def _torus(lams: np.ndarray) -> str:
    """The sampled torus, or the tori of a block, as error messages name them."""
    radii = ", ".join(f"{x:g}" for x in lams.ravel())
    return f"radius-{radii} torus" if lams.size == 1 else f"tori of radii {radii}"


def _evaluate(f, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
    """f on the given coordinates; overflow and 0/0 leave non-finite values,
    which sample_torus refuses."""
    with np.errstate(all="ignore"):
        return f.eval_grid(coords)


def _whole_grid_pole(
    f, coords: Sequence[np.ndarray], slab_error: DivisionNearZero
) -> DivisionNearZero:
    """The error an evaluation of f on the whole grid raises after one slab
    raised: it names the smallest denominator of the grid, not of the slab."""
    try:
        _evaluate(f, coords)
    except DivisionNearZero as exc:
        return exc
    return slab_error


def sample_torus(
    f,
    lam,
    N: int,
    max_points: int = MAX_TOTAL_POINTS,
    shift: tuple[float, ...] | None = None,
) -> TorusGrid:
    """Evaluate f on the N^n torus grid, turned by shift[j] grid steps along
    axis j when a shift is given.  ``lam`` is one scale, or a sequence of L
    scales sampled as one block in a single evaluation of f (see TorusGrid).
    A pointwise evaluator on a grid of more than SLAB_VALUES values is
    evaluated slab by slab along the first grid axis (see the module
    docstring).

    Raises ValueError for a scale outside SCALE_RANGE (the variance model
    divides by lam^2 and multiplies by it), PoleOnTorus when evaluation
    divides by a near-zero modulus or any value is non-finite or beyond the
    blow-up threshold, and GridTooLarge when the point count per scale
    exceeds the budget (or n > 4).
    """
    n, k = f.n, f.k
    lams = np.asarray(lam, dtype=float)
    lo, hi = SCALE_RANGE
    for i, x in enumerate(lams.ravel().tolist()):
        if not lo <= x <= hi:  # also rejects NaN
            value = lam if lams.ndim == 0 else lam[i]
            raise ValueError(
                f"radius must be positive and finite, within 2^-511..2^511, got {value!r}"
            )
    if N < 4:
        raise ValueError("need at least 4 points per dimension")
    if n > MAX_DIMENSION:
        raise GridTooLarge(f"dimension {n} exceeds the cap of {MAX_DIMENSION}")
    if N**n > max_points:
        raise GridTooLarge(f"grid of {N}^{n} points exceeds the budget of {max_points}")
    if shift is not None and len(shift) != n:
        raise DimensionMismatch(f"shift has length {len(shift)}, expected {n}")
    coords = torus_coords(n, lams, N, shift)
    values = np.empty(lams.shape + (N,) * n + (k,), dtype=complex)
    rows = N  # of the first grid axis per evaluation of f
    if hasattr(f, "exponent_bounds"):  # pointwise, so it may run on slabs
        rows = min(N, max(1, SLAB_VALUES * N // values.size))
    lead = (slice(None),) * lams.ndim
    grid_axes = tuple(range(lams.ndim, values.ndim))
    finite, peaks = True, []
    for start in range(0, N, rows):
        part = lead + (slice(start, start + rows),)
        try:
            components = _evaluate(f, [coords[0][part], *coords[1:]])
        except DivisionNearZero as exc:
            error = exc if rows == N else _whole_grid_pole(f, coords, exc)
            raise PoleOnTorus(
                f"pole on the {_torus(lams)}: {error}", point=error.point
            ) from error
        slab = values[part]
        for alpha, component in enumerate(components):
            slab[..., alpha] = component
        # checked per slab, so that no temporary has the size of the grid
        finite = finite and np.isfinite(slab).all()
        if finite:
            peaks.append(np.abs(slab).max(axis=grid_axes))
    if not finite:
        raise PoleOnTorus(f"non-finite value on the {_torus(lams)}")
    peak = functools.reduce(np.maximum, peaks)  # per scale
    if peak.max() > BLOWUP_THRESHOLD:
        raise PoleOnTorus(
            f"value of modulus {peak.max():.3g} on the {_torus(lams)}"
        )
    one = lams.ndim == 0
    return TorusGrid(n=n, k=k, lam=lam if one else lams, N=N, values=values,
                     peak=float(peak) if one else peak, shift=shift)


def laurent_coefficients(grid: TorusGrid, indices: Sequence[Sequence[int]]) -> np.ndarray:
    """Coefficients c_a of the sampled function for every index a, as an
    array of shape (len(indices), k), or (L, len(indices), k) for a block of
    L scales.

    c_a = lam^(-sum a) * (1/N^n) * sum_m values(m) exp(-2*pi*i*a.(m + s)/N),
    with s the grid's shift (zero when it has none); exact to rounding for
    Laurent polynomials whose per-dimension exponent width is below N.
    Requires |a_j| <= N/2 - 1 against aliasing.

    The sum is separable: axis j is contracted against one phase matrix with a
    row per distinct order requested on that axis.  Axis 0 goes first, from
    the left, so the full grid is read in place; the remaining axes are
    contracted on the small result.  A block's scale axis leads throughout.
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
    lead = np.ndim(grid.lam)
    for j in range(n):
        orders = sorted({a[j] for a in idx})
        rows.append([orders.index(a[j]) for a in idx])
        m = _steps(N, grid.shift, j)
        phases = np.exp(-2j * np.pi * np.array(orders)[:, None] * m / N)
        # (r_j, N) @ (lead, r_0, ..., r_{j-1}, N, rest): contracts grid axis
        # j; the first step reads the full grid in place
        out = phases @ out.reshape(out.shape[: lead + j] + (N, -1))
    # out has shape lead + (r_0, ..., r_{n-1}, k)
    coeffs = out[(..., *rows, slice(None))]
    sums = np.array([sum(a) for a in idx], dtype=float)
    scale = np.asarray(grid.lam)[..., None] ** -sums / N**n
    return coeffs * scale[..., None]


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
        return variance_model(self.eta, self.jacobian, self.lam)

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

    ``sample(N, shift=None)`` samples one scale and ``read`` returns the
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


def _grid_axes(grid: TorusGrid) -> tuple[int, ...]:
    """The point and component axes of a grid's values, after any scale axis;
    a sum over them runs in the memory order of one scale's grid."""
    return tuple(range(-grid.n - 1, 0))


def _rounding_bound(grid: TorusGrid) -> float | np.ndarray:
    """A-priori rounding bound on a coefficient read from an exact grid,
    before its lam^(-sum a) scale: (n + 1) * N * eps * max(peak |f|, 1), one
    per scale of a block.

    n*N*eps is the standard bound for the n length-N phase contractions and
    N*eps allows for evaluating terms of degree below N, both relative to the
    peak (floored at 1 for intermediates of unit size).  A mean of a product
    of two samples is bounded by 4*k*max(peak, 1) times this, which also
    covers the variance formed from the mean of |f|^2.  Rounding inside the
    evaluator beyond that, as in the cancellation of (w + 1e8) - 1e8, is not
    covered.
    """
    return (grid.n + 1) * grid.N * np.finfo(float).eps * np.maximum(grid.peak, 1.0)


def _refine(
    sample: Callable[..., TorusGrid],
    read: Callable[[TorusGrid], tuple[np.ndarray, np.ndarray]],
    width: int | None,
    lams: Sequence[float],
    dims: tuple[int, int],
    tol: float,
    n_start: int,
    max_n: int,
) -> list[tuple[np.ndarray, float, int]]:
    """One refinement per scale in lams: the exact grid when the exponent
    width is known, else the doubling loop (see _adaptive).

    ``sample(lam, N, shift=None)`` samples one scale or a list of scales as
    a block, and ``read`` returns the statistic with a per-entry rounding
    bound, the block's scale axis leading.  The exact grid is the smallest
    power of two N >= n_start above ``width``, the widest per-axis spread of
    the exponents the statistic involves, so no term aliases onto a read
    one.  Its scales are sampled in blocks of at most BLOCK_VALUES values,
    for an evaluator of dims = (n, k).  A scale is accepted when every entry
    of its row meets the acceptance rule of _adaptive, with the largest bound
    as its error estimate.  The bound uses worst-case constants, so at
    extreme scales it can miss the tolerance while the values are accurate:
    the doubling loop then compares the exact grids N and 2N of that scale,
    both alias-free.  A block that raises a pole or an invalid scale is
    sampled again one scale at a time, so the error is the one a one-scale
    call raises.
    """
    if width is None:
        return [
            _adaptive(functools.partial(sample, lam), read, tol, n_start, max_n)
            for lam in lams
        ]
    if n_start < 4:
        raise ValueError("need at least 4 points per dimension")
    N = 1 << (n_start - 1).bit_length()
    while N <= width:
        N *= 2
    if N > max_n:
        raise NonConvergent(
            f"exponent width {width} needs an exact grid of N={N}, above the cap {max_n}"
        )
    n, k = dims
    step = max(1, BLOCK_VALUES // (N**n * k))
    pending = [lams[i : i + step] for i in range(0, len(lams), step)]
    results = []
    while pending:
        block = pending.pop(0)
        try:
            values, ests = read(sample(block, N))
        except (PoleOnTorus, ValueError):
            if len(block) == 1:
                raise
            pending[:0] = [[lam] for lam in block]
            continue
        accepted = np.all(ests <= tol * np.maximum(1.0, np.abs(values)), axis=-1)
        for lam, value, err, ok in zip(block, values, np.max(ests, axis=-1), accepted):
            if ok:
                results.append((value, float(err), N))
            else:
                results.append(
                    _adaptive(functools.partial(sample, lam), read, tol, N, max_n)
                )
    return results


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


def _coefficients(
    f,
    lams: Sequence[float],
    indices: Sequence[Sequence[int]],
    tol: float = DEFAULT_TOL,
    with_power: bool = False,
    n_start: int = DEFAULT_START_N,
    max_n: int = DEFAULT_MAX_N,
    max_points: int = MAX_TOTAL_POINTS,
) -> list[tuple[dict[tuple[int, ...], np.ndarray], float | None, float, int]]:
    """adaptive_coefficients at each scale in lams, the scales of an
    evaluator with an exponent range sampled together in blocks."""
    idx = [tuple(int(x) for x in a) for a in indices]
    powers = -np.array([sum(a) for a in idx], dtype=float)  # of lam in each scale

    def sample(lam, N: int, shift: tuple[float, ...] | None = None) -> TorusGrid:
        return sample_torus(f, lam, N, max_points, shift)

    def read(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
        lead = np.shape(grid.lam)
        vec = laurent_coefficients(grid, idx).reshape(lead + (-1,))
        unit = np.asarray(_rounding_bound(grid))[..., None]
        scales = np.asarray(grid.lam)[..., None] ** powers
        est = (unit * scales).repeat(f.k, axis=-1)
        if with_power:
            # pairwise summation keeps the sum's rounding logarithmic in N^n
            power = (np.abs(grid.values) ** 2).sum(axis=_grid_axes(grid))
            peak = np.maximum(np.asarray(grid.peak)[..., None], 1.0)
            vec = np.concatenate([vec, power[..., None] / grid.N**grid.n], axis=-1)
            est = np.concatenate([est, 4 * f.k * peak * unit], axis=-1)
        return vec, est

    bounds = _exponent_bounds(f)
    width = None if bounds is None else max(
        max(hi, *(a[j] for a in idx)) - min(lo, *(a[j] for a in idx))
        for j, (lo, hi) in enumerate(bounds)
    )
    results = []
    for vec, err, n_used in _refine(
        sample, read, width, lams, (f.n, f.k), tol, n_start, max_n
    ):
        coeffs = {a: vec[i * f.k : (i + 1) * f.k] for i, a in enumerate(idx)}
        power = float(vec[-1].real) if with_power else None
        results.append((coeffs, power, err, n_used))
    return results


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
    return _coefficients(
        f, [lam], indices, tol, with_power, n_start, max_n, max_points
    )[0]


def _first_order(
    f, lams: Sequence[float], **options
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float | None, float, int]]:
    """Constant term, residue matrix eta and derivative matrix D of f at each
    scale, as (core, eta, D, mean_power, est_error, N_used); options go to
    _coefficients."""
    n, k = f.n, f.k
    results = []
    for coeffs, power, err, n_used in _coefficients(
        f, lams, _index_set(n, (-1, 1)), **options
    ):
        eta = np.empty((k, n), dtype=complex)
        jac = np.empty((k, n), dtype=complex)
        for beta in range(n):
            vec = [0] * n
            vec[beta] = -1
            eta[:, beta] = coeffs[tuple(vec)]
            vec[beta] = 1
            jac[:, beta] = coeffs[tuple(vec)]
        results.append((coeffs[(0,) * n], eta, jac, power, err, n_used))
    return results


def spectral_summaries(
    f,
    lams: Sequence[float],
    tol: float = DEFAULT_TOL,
    n_start: int = DEFAULT_START_N,
    max_n: int = DEFAULT_MAX_N,
    max_points: int = MAX_TOTAL_POINTS,
) -> list[SpectralSummary]:
    """spectral_summary at each scale in lams, in order.

    An evaluator with an exponent range has the same exact grid at every
    scale, so its scales are sampled and contracted together in blocks (see
    the module docstring); each summary is the one spectral_summary returns
    at its scale, and an error is the one the first failing scale raises.
    """
    lams = list(lams)
    results = _first_order(
        f, lams, tol=tol, with_power=True,
        n_start=n_start, max_n=max_n, max_points=max_points,
    )
    summaries = []
    for lam, (core, eta, jac, power, err, n_used) in zip(lams, results):
        variance = max(power - trace_norm_sq(core), 0.0)
        summaries.append(SpectralSummary(
            lam=lam, core=core, eta=eta, jacobian=jac, variance=variance,
            tail_energy=variance - variance_model(eta, jac, lam),
            est_error=err, grid_n=n_used,
        ))
    return summaries


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
    return spectral_summaries(f, [lam], tol, n_start, max_n, max_points)[0]


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
    core, eta, jac, _, err, n_used = _first_order(f, [lam], tol=tol, max_n=max_n)[0]
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

    def sample(lam, N: int, shift: tuple[float, ...] | None = None) -> TorusGrid:
        return sample_torus(pair, lam, N, max_points, shift)

    def read(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
        values = grid.values
        # pairwise summation, as for the mean power in _coefficients
        total = np.sum(np.conj(values[..., :k]) * values[..., k:], axis=_grid_axes(grid))
        est = 4 * k * np.maximum(grid.peak, 1.0) * _rounding_bound(grid)
        return total[..., None] / grid.N**grid.n, np.asarray(est)[..., None]

    f_bounds, g_bounds = _exponent_bounds(f), _exponent_bounds(g)
    width = None if f_bounds is None or g_bounds is None else max(
        max(g_hi - f_lo, f_hi - g_lo)
        for (f_lo, f_hi), (g_lo, g_hi) in zip(f_bounds, g_bounds)
    )
    [(vec, _, _)] = _refine(sample, read, width, [lam], (f.n, 2 * k), tol, n_start, max_n)
    return complex(vec[0])
