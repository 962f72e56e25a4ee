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
exact grid: the smallest power of two N >= MIN_N above the widest exponent
gap of the product the read pairs (see _gap); a coefficient read needs only
the range's spread, as an order outside the range is 0.  A case of spread
2..7 is thus sampled on 4^n or 8^n points, not 16^n.  On that grid every
coefficient of the range, the mean of |f|^2 and an inner product are exact
up to rounding (discrete orthogonality), so the read is the answer: no
second grid is sampled, and the reported error is an a-priori rounding
bound (see _rounding_bound), whatever the tolerance.  The tolerance governs
only the doubling loop below; a finer exact grid would only raise the bound.
``laurent.LaurentPoly`` and ``expr.MeroExpr`` provide the method; a MeroExpr
has a range when it divides only by monomials.  A :class:`GridFunction` has
the range of its ``bounds`` field, which its maker declares: on the
radius-lam torus conj(w^a) = lam^(2a) w^(-a), so conjugation negates a
range, and a factor w_d or 1/w_d shifts axis d by +1 or -1.

The exact grid does not depend on the scale, so a sweep over several scales
(:func:`spectral_summaries`) samples them together in blocks: one evaluation
of f on the coordinates lam[:, None] * circle and one separable contraction
per block, with the scale axis leading.  A block holds at most BLOCK_VALUES
values (scales x N^n points x k components), which keeps its memory that of
a small grid.  Every scale keeps its own peak and rounding bound.  A block
that raises (a pole on one of its tori, an invalid scale) is sampled again
one scale at a time, so the error names the scale and point that a
one-scale call names.  One scale is the block of one.

The exact grid holds every exponent of the range, so a sweep
(analysis.variance_sweep) also reads every coefficient of the range box from
its blocks, c^_a = c_a lam^(sum a) to rounding, and _coefficients bins their
energies by total degree as each block is read: the box leaves no block, and
no other read contracts it.

Every read is of one point set: a tuple zs of generating vectors, one per
read axis of N points m = 0, ..., N - 1, axis j giving f the coordinates
lam * exp(2*pi*i*(m*z mod N)/N) for z in zs[j].  The grid N^n is
zs = ((1,),) * n; the rank-1 lattice of N points and generating vector z
is zs = (z,), one axis of n coordinates (see _Lattice).  An order splits
over the read axes as the coordinates do, and a coefficient contracts each
axis against the phase matrix of its part (see _phase): a grid each axis at
its order, a lattice its one axis at the frequency z.a mod N.  Means are
over the N^A points of A read axes, and the rounding bound is that of A
contractions of N terms (see _rounding_bound).

Every other evaluator (divisions by non-monomials, a :class:`GridFunction`
without ``bounds``) is refined by doubling.  Its coefficient orders must
keep |a_j| <= DEFAULT_START_N/2 - 1 = 7; a higher order is refused
(AliasingRisk) before any grid is sampled.  At N = 2*DEFAULT_START_N = 32,
64, ... up to min(max_n^n, MAX_TOTAL_POINTS) a level reads two rank-1
lattices of coprime sizes N and N - 1: the points k*z/N mod 1 and
k*z'/(N - 1) mod 1, k = 0, 1, ..., with the generating vectors (z, z') of
lattices.PAIRS (Sloan and Joe, Lattice Methods for Multiple Integration,
1994).  At n = 1, z = (1,): the lattices are the grids N and N - 1.  The
lattice of N points reads c_a + sum c_(a + d) over its dual lattice
{d != 0 : z.d = 0 mod N} (for a grid, d = N m), so the two lattices alias
a term alike only on the intersection of their duals, and an alias that
one of them makes shows as their difference.  A level accepts N when
twice that difference is within the tolerance, and reports it as the
error estimate, floored by both lattices' rounding bounds; otherwise N
doubles.  The factor 2 is a margin.  Where one lattice is exact and the
other is not, the difference is the other's whole error.  A level whose
lattices map two requested orders to one frequency is skipped.  grid_n is
N, the points per read axis: the accepted lattice's point count.

The pair rule (tests/gen_lattices.py, which writes the table): every pair
keeps the duals of both lattices, and their intersection, free of short
vectors by l1 norm.  A rank-1 lattice of N points reads N values where a
grid resolving the same series along w1...wn reads N^n, but an input whose
spectrum fills a box needs as many lattice points as grid points: a series
in w2 alone, 2/w1 + w2/(1.5 - w2) at scale 0.9, is accepted on the lattice
of 1024 points, against the 64^2 grid.  At n = 1 the grids N and N - 1 see
a slowly decaying tail at neighbouring aliases, so under geometric decay of
ratio rho per order the N grid's error is rho/(1 - rho) times their
difference, which 2 covers for rho <= 2/3; at n >= 2 the two lattices
alias the tail at unrelated orders.

Three gaps stay open, and a certified bound is what closes them.  A term
at a multiple of N (N - 1) passes unseen at n = 1: 1/w + 1/(2 - w^992),
992 = 32 * 31, prints core 1 on the 32-grid where the closed form is 1/2.
At n >= 2 it is a term on the intersection of the pair's duals, which
the pair rule only pushes out to an l1 norm of at least
0.65 (n! N (N - 1))^(1/n): (29, 5) lies on both duals of the first level
at n = 2, so
1/w1 + 1/(2 - w1^29*w2^5) prints core 1 on the 32-point lattice where the
closed form is 1/2.  And at n = 1 slower decay is accepted with an
estimate below the error: 1/w + 1/(w - 1.1) at scale 1 is off by 1.5e-10
on the 256-grid, with an est_error of 3.8e-11.

sample_torus evaluates f in slabs, rows of the first read axis at a time,
and reads the rows as they come, up to READ_VALUES values (a few slabs) at
a time, while they are in cache: one modulus pass gives their peak
(non-finite iff some value is) and their share of the mean of |f|^2, and a
contraction of the other axes and then of those rows, by axis 0's phase
matrix restricted to them, their share of every coefficient.  A pointwise
evaluator (one whose ``pointwise`` attribute is true, such as ``MeroExpr``
and ``LaurentPoly``) runs on slabs of at most SLAB_VALUES values (one row
at least), so a read of it holds at most READ_VALUES values, their moduli,
a slab's intermediates and r^A * k sums (r orders on each of A read axes),
not N^A values.  A :class:`GridFunction` wraps an arbitrary callable, which
is not pointwise, so it is evaluated as one slab and read in one part: its
whole grid is held, 24 bytes a value for the values and their moduli,
beside whatever the callable allocates.  A grid of up to READ_VALUES values
is read at once, with the bits of a whole-grid read.  The operations are
elementwise, so the values are those of one evaluation; a pole found in a
slab is reported at that slab's point, and no row is evaluated twice.  The
engine's readers take grids of any N, odd or even.  A caller that asks for
the values, which the engine never does, gets the whole grid, copied from
each part as it is read.

A sweep, a verify suite or a run of CLI commands reads the same few point
sets many times, so a point set's unit coordinates are made once per
(zs, N) and its phase matrices once per (orders, zs, N), one table per read
axis, and shared as one list (see _table).  Two least-recently-used caches
of TABLE_CACHE entries keep the lists and their axes' tables, which lists
share.  A shared table has the bits a fresh one has and is read-only, so no
caller can change it under the next.  Only lists of at most BLOCK_VALUES
entries (256 KB) in all are kept, so the caches hold at most 2 x
TABLE_CACHE x 256 KB = 32 MB.  Larger ones are made afresh, read axis 0's
for each slab or part of the read alone: the 262 MB phase matrix of a box
read of 1 + w^4000 on its 4096-grid, read in one part, is made for its read
and freed with it, and no table of a 2^24-point lattice is ever held whole.
A grid that sample_torus keeps is a new array and shares no memory with the
tables.

Evaluators are duck-typed: anything with integer attributes ``n`` and ``k``
and a method ``eval_grid(coords) -> list[np.ndarray]`` accepting broadcastable
coordinate arrays works, e.g. ``expr.MeroExpr``, ``laurent.LaurentPoly`` or
the :class:`GridFunction` adapter below; ``exponent_bounds`` and
``pointwise`` are optional.  The arrays of a block carry one more leading
axis, the scale, which an evaluator with an exponent range must broadcast
like the others.  Evaluators must be re-entrant and side-effect
free; grids and summaries are immutable once built.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
from .lattices import PAIRS
from .laurent import _exponents, _integral, trace_norm_sq, variance_model

DEFAULT_TOL = 1e-10
DEFAULT_START_N = 16          # doubling loop's alias rule: orders |a_j| <= DEFAULT_START_N/2 - 1
MIN_N = 4                     # smallest grid per dimension, and the smallest exact grid
DEFAULT_MAX_N = 4096          # per-dimension cap; env LENS_MAX_GRID overrides via CLI
# Budget on N**n per scale, read by sample_torus at each call.  It bounds
# time.  For a pointwise evaluator memory is bounded by the slab and the read
# (SLAB_VALUES and READ_VALUES) and the accumulators; a GridFunction is read
# whole (see the module docstring).
MAX_TOTAL_POINTS = 2**24
MAX_DIMENSION = 4
BLOWUP_THRESHOLD = 1e12       # |f| beyond this counts as a pole on the torus
BLOCK_VALUES = 2**14          # most values (scales x N^n x k) in one block of scales
SLAB_VALUES = 2**16           # most values one evaluation of a pointwise evaluator yields
READ_VALUES = 2**18           # most values the engine reads at once: a few slabs
SCALE_RANGE = (2.0**-511, 2.0**511)  # scales whose square is a normal float
TABLE_CACHE = 64              # tables, lists and layouts kept for reuse (see _table)


@dataclass(frozen=True)
class GridFunction:
    """Adapter turning a plain callable on coordinate arrays into an evaluator.

    ``bounds``, when given, holds one (lo, hi) pair of integers per axis: a
    range holding every exponent of every component's Laurent expansion on
    the sampled tori.  The evaluator is then sampled once, on the exact grid
    of that range (see _gap), and trusted for the zeros outside it: an order
    outside it reads as exactly 0.  So a range that misses an exponent gives
    wrong numbers; without it the doubling loop reads the lattices of N and
    N - 1 points (the grids N and N - 1 at n = 1) for N = 32, 64, ... until
    they agree (see _adaptive)."""

    n: int
    k: int
    fn: Callable[[Sequence[np.ndarray]], list[np.ndarray]]
    bounds: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if not _integral((self.n, self.k)) or self.n < 1 or self.k < 1:
            raise DimensionMismatch(
                f"need n >= 1 and k >= 1, both integers, got n={self.n!r}, k={self.k!r}")
        if self.bounds is None:
            return
        if len(self.bounds) != self.n:
            raise DimensionMismatch(
                f"bounds has {len(self.bounds)} axes, expected {self.n}"
            )
        for pair in self.bounds:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and _integral(pair)):
                raise ValueError(f"bounds entry {pair!r} is not an integer (lo, hi) pair")
            if pair[0] > pair[1]:
                raise ValueError(f"bounds entry {pair!r} has lo > hi")
        object.__setattr__(
            self, "bounds", tuple((int(lo), int(hi)) for lo, hi in self.bounds)
        )

    def eval_grid(self, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
        return self.fn(coords)

    def exponent_bounds(self) -> list[tuple[int, int]] | None:
        return None if self.bounds is None else list(self.bounds)


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


class _Lattice:
    """f on the rank-1 lattice of generating vector z, as sample_torus reads
    it: an evaluator of one read axis (n = 1) whose point set is zs = (z,)."""

    def __init__(self, f, z):
        self.n, self.k, self.f, self.zs = 1, f.k, f, (z,)
        self.pointwise = getattr(f, "pointwise", False)

    def eval_grid(self, coords):
        return self.f.eval_grid(coords)


def _circle(z, tail: int, N: int, rows=slice(None)) -> np.ndarray:
    """The unit coordinates exp(2*pi*i*x_j/N), x_j = m*z_j mod N, of a read
    axis of N points and generating vector z at its points m in rows, shaped
    (len(z), rows) + (1,) * tail to broadcast along that axis when ``tail``
    read axes follow it; a grid axis has z = (1,), the circle
    exp(2*pi*i*m/N)."""
    m = np.arange(*rows.indices(N))
    out = np.exp(2j * np.pi * (m * np.array(z)[:, None] % N) / N)
    return out.reshape(out.shape + (1,) * tail)


def _phase(orders, z, N: int, rows=slice(None)) -> np.ndarray:
    """The (r, rows) phase matrix of a read axis of N points and generating
    vector z, a row per order a in orders (each len(z) long): at point m,
    the product over j of exp(-2*pi*i*a_j*x_j/N), x_j = m*z_j mod N.  That
    is exp(-2*pi*i*(z.a)*m/N), taken from small orders a_j, so it keeps the
    accuracy of a grid axis's phase matrix exp(-2*pi*i*a*m/N), z = (1,)."""
    m = np.arange(*rows.indices(N))
    out = None
    for j, zj in enumerate(z):
        phase = np.exp(-2j * np.pi * np.array([a[j] for a in orders])[:, None] * (m * zj % N) / N)
        out = phase if out is None else out * phase
    return out


@functools.lru_cache(maxsize=TABLE_CACHE)
def _cached(make, *key) -> np.ndarray:
    table = make(*key)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=TABLE_CACHE)
def _shared(make, N: int, *columns):  # a new list reuses its axes' cached tables
    first, *rest = [_cached(make, *key, N) for key in zip(*columns)]
    return (lambda rows: first[:, rows]), tuple(rest)


def _table(make, N: int, *columns) -> tuple[Callable[[slice], np.ndarray], tuple[np.ndarray, ...]]:
    """The tables make(*key, N) of a point set of N points per read axis,
    one per read axis, whose key holds that axis's entry of each column
    (columns[0] gives each table's rows: its coordinates or orders), as
    (first, rest): first(rows) is axis 0's table at its points in rows and
    rest the other axes' tables.  Tables of at most BLOCK_VALUES entries in
    all are shared, read-only, as one cached list; larger ones are made
    afresh for the read, axis 0's for those rows alone, so it is never held
    whole."""
    if N * sum(map(len, columns[0])) > BLOCK_VALUES:
        first, *rest = zip(*columns)
        return functools.partial(make, *first, N), tuple(make(*key, N) for key in rest)
    return _shared(make, N, *columns)


def _torus(lams: np.ndarray) -> str:
    """The sampled torus, or the tori of a block, as error messages name them."""
    radii = ", ".join(f"{x:g}" for x in lams.ravel())
    return f"radius-{radii} torus" if lams.size == 1 else f"tori of radii {radii}"


def check_dimension(n: int) -> None:
    """Raise ValueError for an n that is not an integer (see
    laurent._integral) and GridTooLarge for n > MAX_DIMENSION, before any
    work of size n."""
    if not _integral((n,)):
        raise ValueError(f"dimension {n!r} is not an integer")
    if n > MAX_DIMENSION:
        raise GridTooLarge(f"dimension {n} exceeds the cap of {MAX_DIMENSION}")


def sample_torus(f, lam, N: int, *, read=None):
    """Evaluate f on the N^n torus grid and return it as a TorusGrid.
    ``lam`` is one scale, or a sequence of L scales sampled as one block in
    a single evaluation of f (see TorusGrid).  A pointwise evaluator on a
    grid of more than SLAB_VALUES values is evaluated slab by slab along the
    first read axis, and the rows are read up to READ_VALUES values at a
    time (see the module docstring); without ``read`` each part is copied
    into the returned grid as it is read.  The buffer of a part's values
    and moduli is allocated once the first slab is evaluated, so it does not
    coexist with that slab's temporaries.  The points are those of f.zs
    when f has that attribute, as the engine's _Lattice does (its n read
    axes are then len(zs), not the coordinates of the evaluator it wraps),
    else of the grid ((1,),) * n (see the module docstring).

    ``read``, a keyword which only the engine passes, keeps no grid:
    read(lams, zs, N) makes a reader of the point set, each part goes to
    reader.add(values, modulus, rows) with its moduli (which the reader may
    overwrite) and the slice of the first axis it fills, and sample_torus
    returns reader.result(peak), for the peak max |value| per scale.

    Raises ValueError for a scale outside SCALE_RANGE (the variance model
    divides by lam^2 and multiplies by it), or an N or n that is not an
    integer, or N < MIN_N (see laurent._integral), PoleOnTorus when evaluation
    divides by a near-zero modulus or any value is non-finite or beyond the
    blow-up threshold, GridTooLarge when the point count per scale exceeds
    MAX_TOTAL_POINTS (or n > MAX_DIMENSION, see check_dimension), and
    DimensionMismatch when eval_grid returns other than k components or a
    component that does not broadcast to the grid.
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
    if not _integral((N,)) or N < MIN_N:
        raise ValueError(f"need an integer of at least {MIN_N} points per dimension, got {N!r}")
    check_dimension(n)
    if N**n > MAX_TOTAL_POINTS:
        raise GridTooLarge(f"grid of {N}^{n} points exceeds the budget of {MAX_TOTAL_POINTS}")
    zs = getattr(f, "zs", ((1,),) * n)
    radius = lams.reshape(lams.shape + (1,) * n)
    first, rest = _table(_circle, N, zs, range(n - 1, -1, -1))
    others = [radius * unit for table in rest for unit in table]
    shape = lams.shape + (N,) * n + (k,)
    per_row = lams.size * N ** (n - 1) * k  # values in a row of the first read axis
    rows = N  # per evaluation of f
    if getattr(f, "pointwise", False):  # so it may run on slabs
        rows = min(N, max(1, SLAB_VALUES // per_row))
    span = min(N, rows * max(1, READ_VALUES // (rows * per_row)))  # rows read at once
    size = span * per_row
    part = lams.shape + (span,) + shape[lams.ndim + 1 :]
    values = modulus = None
    reader = None if read is None else read(lams, zs, N)
    kept = np.empty(shape, dtype=complex) if read is None else None
    lead = (slice(None),) * lams.ndim
    grid_axes = tuple(range(lams.ndim, len(shape)))
    peak = np.zeros(lams.shape)  # per scale
    # overflow and 0/0 leave non-finite values, refused below
    with np.errstate(all="ignore"):
        for begin in range(0, N, span):
            end = min(begin + span, N)
            for start in range(begin, end, rows):
                stop = min(start + rows, end)
                at = slice(start, stop)
                try:
                    components = f.eval_grid([radius * unit for unit in first(at)] + others)
                except DivisionNearZero as exc:
                    raise PoleOnTorus(
                        f"pole on the {_torus(lams)}: {exc}", point=exc.point
                    ) from exc
                if len(components) != k:
                    raise DimensionMismatch(
                        f"{len(components)} components from eval_grid, expected {k}"
                    )
                if values is None:
                    # The values and their moduli share one allocation, made
                    # once the first slab's temporaries are freed.  Freed, a
                    # block this large lifts glibc's dynamic mmap and trim
                    # thresholds above the evaluator's temporaries, which
                    # otherwise go back to the system after every grid and
                    # fault in again (with two allocations, each summary of a
                    # 32^4 grid took 5,000 page faults on 2-core Linux).
                    buffer = np.empty(3 * size)
                    values = buffer[: 2 * size].view(complex).reshape(part)
                    modulus = buffer[2 * size :].reshape(part)
                slab = values[lead + (slice(start - begin, stop - begin),)]
                try:
                    for alpha, component in enumerate(components):
                        slab[..., alpha] = component
                except ValueError as exc:
                    raise DimensionMismatch(
                        f"component {alpha} from eval_grid has shape {np.shape(component)}, "
                        f"which does not broadcast to {slab.shape[:-1]}"
                    ) from exc
            filled = lead + (slice(0, end - begin),)
            chunk, mag = values[filled], modulus[filled]
            peak = np.maximum(peak, np.abs(chunk, out=mag).max(axis=grid_axes))
            if reader is None:
                kept[lead + (slice(begin, end),)] = chunk
            else:
                reader.add(chunk, mag, slice(begin, end))
    worst = peak.max()
    if not np.isfinite(worst):  # NaN propagates through the maxima
        raise PoleOnTorus(f"non-finite value on the {_torus(lams)}")
    if worst > BLOWUP_THRESHOLD:
        raise PoleOnTorus(f"value of modulus {worst:.3g} on the {_torus(lams)}")
    one = lams.ndim == 0
    peak = float(peak) if one else peak
    if reader is not None:
        return reader.result(peak)
    return TorusGrid(n=n, k=k, lam=lam if one else lams, N=N, values=kept, peak=peak)


def _contract_axes(out: np.ndarray, phases, lead: int) -> np.ndarray:
    """Contract the axes of ``out`` after its ``lead`` leading ones against
    one phase matrix each, from the left: (r_j, N_j) @ (lead, r_0, ...,
    r_{j-1}, N_j, rest).  The first step reads ``out`` in place; the others
    read its small result."""
    for j, p in enumerate(phases):
        out = p @ out.reshape(out.shape[: lead + j] + (p.shape[1], -1))
    return out


def _check_aliasing(indices: Sequence[Sequence[int]], N: int) -> None:
    """Raise AliasingRisk unless every index a has |a_j| <= N/2 - 1."""
    for a in indices:
        if any(abs(x) > N // 2 - 1 for x in a):
            raise AliasingRisk(f"coefficient order {a} too high for N={N} (need |a_j| <= N/2 - 1)")


def laurent_coefficient(grid: TorusGrid, a: Sequence[int]) -> np.ndarray:
    """Coefficient c_a of the sampled function, one entry per component
    after a block's scale axis: lam^(-sum a) / N^n times the _contract_axes
    sum of values(m) exp(-2*pi*i*a.m/N), exact to rounding when N
    exceeds the exponent gaps of _gap.  Raises AliasingRisk as
    _check_aliasing does, and DimensionMismatch or ValueError for an order
    that is not n integers (see laurent._exponents)."""
    a = _exponents(a, grid.n)
    _check_aliasing([a], grid.N)
    first, rest = _table(_phase, grid.N, tuple(((x,),) for x in a), ((1,),) * grid.n)
    sums = _contract_axes(grid.values, [first(slice(None)), *rest], np.ndim(grid.lam))
    coeff = sums[(..., *(0,) * grid.n, slice(None))]
    return coeff * (np.asarray(grid.lam)[..., None] ** -float(sum(a)) / grid.N**grid.n)


@dataclass(frozen=True)
class SpectralSummary:
    """Constant term, residue and first-derivative matrices, and variance of
    an evaluator at one scale, with the refinement error estimate.  The
    engine reads L scales as one summary in stacked form (see _summaries),
    as a block's TorusGrid: ``lam`` an (L,) array, a leading scale axis on
    every field."""

    lam: float | np.ndarray
    core: np.ndarray       # (k,)
    eta: np.ndarray        # (k, n): coefficient of 1/w_beta per component
    jacobian: np.ndarray   # (k, n): coefficient of w_beta per component
    variance: float | np.ndarray
    tail_energy: float | np.ndarray  # variance minus the two-term closed form
    est_error: float | np.ndarray
    grid_n: int | np.ndarray  # N, the points per read axis (a lattice's point count)

    @property
    def variance_model(self) -> float | np.ndarray:
        lam = self.lam if np.ndim(self.lam) == 0 else self.lam.tolist()  # Python's float power
        return variance_model(self.eta, self.jacobian, lam)

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


def _adaptive(
    f,
    lam: float,
    read,
    tol: float,
    max_n: int,
    indices: Sequence[tuple[int, ...]] = (),
) -> tuple[np.ndarray, float, int]:
    """Refine N at one scale until the statistic is resolved within tol.

    ``read`` makes the reader of a point set (see sample_torus), here
    read(lams, (z,), N) for the N-point lattice of generating vector z,
    whose result is the statistic with its rounding bound.  Each level
    reads the lattices of N and N - 1 points of lattices.PAIRS (at n = 1,
    z = (1,): the grids N and N - 1), for N = 2*DEFAULT_START_N,
    4*DEFAULT_START_N, ... up to min(max_n^n, MAX_TOTAL_POINTS), and accepts
    N when twice their difference is within tol; otherwise N doubles (see
    the module docstring).  A level is skipped, unsampled, when one of its
    lattices maps two of the orders in ``indices`` to one frequency
    z.a mod N.
    Agreement is absolute for entries of modulus <= 1 and relative above, so
    large variances do not stall the refinement at the rounding floor.  The
    returned error estimate is the infinity-norm of twice the difference,
    floored by the rounding bounds of both lattices.
    """
    n, N = f.n, 2 * DEFAULT_START_N
    cap = min(max_n**n, MAX_TOTAL_POINTS)
    if N > cap:
        raise NonConvergent(
            f"grid cap N={cap} leaves no room for two grids (N={N - 1} and N={N})"
        )
    distinct = tuple(sorted(set(indices)))
    while True:
        lattices = list(zip(((1,), (1,)) if n == 1 else PAIRS[n, N], (N, N - 1)))
        if all(_separates(z, size, distinct) for z, size in lattices):
            (cur, floor), (other, other_floor) = [
                sample_torus(_Lattice(f, z), lam, size, read=read) for z, size in lattices]
            delta = 2 * np.abs(cur - other)
            if np.all(delta <= tol * np.maximum(1.0, np.abs(cur))):
                return cur, float(np.max(np.maximum(delta, np.maximum(floor, other_floor)))), N
        if 2 * N > cap:
            break
        N *= 2
    raise NonConvergent(
        f"refinement reached N={N} (cap {cap}) without two grids agreeing within {tol:g}"
    )


@functools.lru_cache(maxsize=TABLE_CACHE)
def _separates(z, size: int, orders) -> bool:
    """Whether the lattice of generating vector z and size points maps the
    orders to distinct frequencies z.a mod size."""
    return len({sum(map(operator.mul, z, a)) % size for a in orders}) == len(orders)


def _degree(bounds) -> int:
    """Highest total degree sum_j max(|lo_j|, |hi_j|) of a range; 0 for none."""
    return 0 if bounds is None else sum(max(abs(lo), abs(hi)) for lo, hi in bounds)


def _rounding_bound(n: int, N: int, degree: int, peak) -> float | np.ndarray:
    """A-priori rounding bound on a coefficient read from a point set of n
    read axes of N points each (see the module docstring), before its
    lam^(-sum a) scale: (n + 1) * M * eps * max(peak, 1) for samples of
    modulus up to ``peak``, M = max(N, degree), one per scale of a block;
    degree, the _degree of the range, covers w^9 read on a 4-grid.

    n*M*eps covers the n length-N phase contractions (a sum of N terms errs
    by gamma_(N-1) times the sum of their moduli) and M*eps the evaluation
    of a term of total degree d, d products with relative error gamma_d
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    Secs. 3.1 and 4.2), both relative to the peak (floored at 1 for
    intermediates of unit size).  A mean of a product of two samples is
    bounded by 4*k*max(peak, 1) times this, each at its own operand's peak
    (see _grid_mean), which also covers the variance formed from the mean of
    |f|^2.  Rounding inside the evaluator beyond that, as in
    (w + 1e8) - 1e8, is not covered.

    A lattice has one read axis, so n = 1: one contraction of its N points.
    Its weights multiply the phase factors exp(-2*pi*i*a_j*x_j/N) of its
    coordinates, each rounded as a grid's phase entry is, and 1 exactly
    where a_j = 0, so for the orders of a summary (0 and +-e_beta) one
    factor rounds, as on a grid.

    A read in S parts of at most c rows of the first axis (see the
    module docstring) sums in another order, and the bound still holds.  A
    coefficient contracts each part's other axes and sums its c rows, and
    adds the S parts in sequence: that errs by gamma_(c - 1 + (n - 1)(N - 1)
    + S - 1) times the sum of the moduli, and c + S - 1 <= N for
    S = ceil(N/c) and 1 <= c <= N (N <= c(N - c + 1) as
    (c - 1)(N - c) >= 0), so gamma_(n(N - 1)), which n*M*eps covers, still
    covers it.  A mean sums pairwise within a part of V values and adds the
    S <= N parts in sequence: that errs by gamma_(S - 1 + ceil(log2 V)), and
    S - 1 + log2(N^n * k) stays below 4*k*(n + 1)*N, the factor its bound
    allows.
    """
    eps = math.ulp(1.0)  # machine epsilon
    return (n + 1) * max(N, degree) * eps * np.maximum(peak, 1.0)


def _grid_mean(
    total: np.ndarray, n: int, N: int, k: int, degree: int, peaks
) -> tuple[np.ndarray, np.ndarray]:
    """Mean from the ``total`` over the N^n points of n read axes of k
    products conj(u).v of two samples (|f|^2 or conj(f).g), in a last axis
    of length one, and its bound
    4*k*max(peak_u, 1)*_rounding_bound(n, N, degree, peak_v), one per
    scale, for the peaks (peak_u, peak_v) of the two operands."""
    peak_u, peak_v = peaks
    est = 4 * k * np.maximum(peak_u, 1.0) * _rounding_bound(n, N, degree, peak_v)
    return total[..., None] / N**n, np.asarray(est)


class _Stream:
    """A reader (see sample_torus) of one point set zs for _coefficients:
    the contraction of the ``orders`` (None for no order) and the sum of
    |f|^2 over each scale's points, each summed over the reads in the order
    of _rounding_bound.  orders[j] holds the orders of read axis j, each the
    part of an order vector on that axis's coordinates, contracted by its
    _phase.  A part of a few rows contracts its other axes first, while it
    is in cache, and then its rows, by axis 0's phase matrix restricted to
    them, so what is summed across parts has r^A * k values (r orders on
    each of A read axes); a grid read at once takes the steps of laurent_coefficient.
    The result is finish(lams, N, contraction, sum of |f|^2, peak)."""

    def __init__(self, lams, zs, N, orders, finish):
        self.lams, self.N, self.finish = lams, N, finish
        self.axes = tuple(range(-len(zs) - 1, 0))  # the read axes and the component axis
        self.power, self.total = 0, None if orders is None else 0
        self.first, self.rest = (None, ()) if orders is None else _table(_phase, N, orders, zs)

    def add(self, values, mag, rows):
        self.power += np.square(mag, out=mag).sum(axis=self.axes)
        if self.first is not None:
            lead, first = np.ndim(self.lams), self.first(rows)
            if first.shape[1] == self.N:  # the whole grid, axis 0 first
                part = _contract_axes(values, [first, *self.rest], lead)
            else:  # a few rows: the other axes first, then the rows
                rest = _contract_axes(values, self.rest, lead + 1)  # rows as one more lead axis
                part = _contract_axes(rest, [first], lead).reshape(
                    rest.shape[:lead] + (len(first),) + rest.shape[lead + 1 :])
            self.total += part

    def result(self, peak):
        return self.finish(self.lams, self.N, self.total, self.power, peak)


class _Products:
    """A reader (see sample_torus) of the grid mean of conj(f).g for
    inner_product_numeric, the 2k components of its values being f's and
    then g's: the sum of the k products and the peaks of f and g, each over
    the parts of the grid; ``n`` is the number of read axes.  The result is
    the mean and its _grid_mean bound."""

    def __init__(self, n, k, N, degree):
        self.n, self.k, self.N, self.degree = n, k, N, degree
        self.axes = tuple(range(-n - 1, 0))  # the read axes and the component axis
        self.total = self.peaks = 0

    def add(self, values, mag, rows):
        k, axes = self.k, self.axes
        peaks = [mag[..., :k].max(axis=axes), mag[..., k:].max(axis=axes)]
        self.peaks = np.maximum(self.peaks, peaks)
        self.total += (np.conj(values[..., :k]) * values[..., k:]).sum(axis=axes)

    def result(self, peak):
        return _grid_mean(self.total, self.n, self.N, self.k, self.degree, self.peaks)


def _refine(
    f,
    read,
    width: int | None,
    lams: Sequence[float],
    tol: float,
    max_n: int,
    indices: Sequence[tuple[int, ...]] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One refinement of f per scale in lams, stacked: (values, est_error,
    grid_n) of shapes (L, W), (L,) and (L,) for L scales and a statistic of
    W entries.  The exact grid is read when the exponent width is known,
    else the doubling loop runs on lattices that keep the coefficient orders
    in ``indices`` apart (see _adaptive).  Raises ValueError unless tol is
    positive and finite and max_n a positive integer (see laurent._integral),
    and GridTooLarge for f.n > MAX_DIMENSION (see check_dimension) before
    either path.

    ``read`` makes the reader of a point set (see sample_torus), whose
    result is the statistic and its rounding bound, one per scale, the
    block's scale axis leading.  The exact grid is the smallest power of two
    N >= MIN_N above ``width``, the widest exponent gap the statistic pairs
    (see _gap).  Its scales are sampled in blocks of at most BLOCK_VALUES
    values, and each scale's row and bound are its answer and error
    estimate.  tol governs only the doubling loop: an exact read holds every
    coefficient it pairs, so a finer grid would only raise the bound's
    max(N, degree).  A block that raises a pole or an invalid scale is
    sampled again one scale at a time, so the error is the one a one-scale
    call raises.
    """
    if not 0 < tol < np.inf:  # also rejects NaN
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if not _integral((max_n,)) or max_n < 1:
        raise ValueError(f"grid cap must be a positive integer, got {max_n!r}")
    check_dimension(f.n)
    if width is None:
        runs = [_adaptive(f, lam, read, tol, max_n, indices) for lam in lams]
        return tuple(np.array(column) for column in zip(*runs))
    N = MIN_N
    while N <= width:
        N *= 2
    if N > max_n:
        raise NonConvergent(
            f"exponent width {width} needs an exact grid of N={N}, above the cap {max_n}"
        )
    step = max(1, BLOCK_VALUES // (N**f.n * f.k))
    reads = []
    for block in (lams[i : i + step] for i in range(0, len(lams), step)):
        try:
            reads.append(sample_torus(f, block, N, read=read))
        except (PoleOnTorus, ValueError):
            if len(block) == 1:
                raise
            reads += [sample_torus(f, [lam], N, read=read) for lam in block]
    values, ests = zip(*reads)
    return np.concatenate(values), np.concatenate(ests), np.full(len(lams), N)


def _exponent_bounds(f) -> list[tuple[int, int]] | None:
    """Per-axis exponent range of an evaluator, or None when it has none."""
    method = getattr(f, "exponent_bounds", None)
    return None if method is None else method()


def _gap(u, v) -> int:
    """Widest |e_v - e_u| over the axes, for exponents e_u and e_v in the
    per-axis (lo, hi) ranges u and v.

    This is the one alias rule of the exact grids.  Every exact read is a
    grid mean of a product conj(u).v: a coefficient c_a is the mean of
    conj(w^a).f up to lam^(2 sum a), the variance starts from the mean of
    |f|^2, and <f, g> is the mean of conj(f).g.  On the torus
    conj(w^e) = lam^(2e) w^(-e), so the product's exponents are the gaps
    e_v - e_u, and its N-point mean is the term of gap 0 alone unless a
    nonzero gap is a multiple of N on every axis.  N > _gap(u, v) rules
    that out.  A coefficient read needs _gap(bounds, bounds) alone, since
    c_a is 0 for an order a outside the range.
    """
    return max(max(v_hi - u_lo, u_hi - v_lo) for (u_lo, u_hi), (v_lo, v_hi) in zip(u, v))


@functools.lru_cache(maxsize=TABLE_CACHE)
def _layout(indices, split) -> tuple[tuple | None, tuple[np.ndarray, ...]]:
    """(orders, picks) of a read of the order vectors ``indices`` on read
    axes of split[j] coordinates each: orders[j] the sorted parts of the
    indices on axis j's coordinates (None for no index), picks[j] the row of
    each index's part in orders[j]; made once and shared."""
    ends = itertools.accumulate(split)
    parts = [[a[end - d : end] for a in indices] for d, end in zip(split, ends)]
    orders = tuple(tuple(sorted(set(axis))) for axis in parts)
    picks = tuple(np.array([axis.index(p) for p in axis_parts], int)
                  for axis, axis_parts in zip(orders, parts))
    for pick in picks:  # shared, so read-only
        pick.flags.writeable = False
    return (orders if indices else None), picks


def _coefficients(
    f,
    lams: Sequence[float],
    indices: Sequence[Sequence[int]],
    tol: float,
    max_n: int,
    box: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one coefficient reader: (rows, mean |f|^2, est_error, N_used,
    energies) stacked over the L scales in lams, rows[l, i] the k components
    of the coefficient at indices[i], a tuple of n ints, all read from one
    point set per scale by one _Stream, in the _layout of its split (see
    _refine for blocks).  A range is read on the exact grid of its spread,
    _gap(bounds, bounds): an order outside it is exactly 0 and is not
    contracted.  Without a range every order is
    contracted, and _check_aliasing refuses, before any grid is sampled, an
    order beyond the doubling loop's alias rule, that of a DEFAULT_START_N
    grid (|a_j| <= 7), which its least grid (n = 1), of 31 points, keeps
    with room to spare; the doubling loop reads a lattice at the orders'
    frequencies (see _adaptive).  With ``box`` and a range, the whole range
    box is contracted, and energies[l, s] sums |c^_a|^2,
    c^_a = c_a lam^(sum a), over the components and the a != 0 of total
    degree sum_j lo_j + s, for s up to sum_j (hi_j - lo_j); else energies
    has no columns.  They carry no bound
    of their own: the est_error covers them (Parseval)."""
    k, m = f.k, len(indices)
    powers = -np.array([sum(a) for a in indices], dtype=float)  # of lam in each scale
    bounds = _exponent_bounds(f)
    if bounds is None:
        _check_aliasing(indices, DEFAULT_START_N)
    degree = _degree(bounds)
    box = box and bounds is not None
    inside = [i for i, a in enumerate(indices) if bounds is None
              or all(lo <= x <= hi for x, (lo, hi) in zip(a, bounds))]
    wanted = tuple(indices[i] for i in inside)
    inside = np.array(inside, int)  # an index array reads faster than a list
    if box:  # the range box, read on the exact grid, one coordinate per axis
        box_layout = (tuple(tuple((x,) for x in range(lo, hi + 1)) for lo, hi in bounds),
                      tuple(np.array([a[j] - lo for a in wanted], int)
                            for j, (lo, _) in enumerate(bounds)))
        # per box entry: its total degree less sum_j lo_j, and a != 0
        axes = np.ix_(*[np.arange(lo, hi + 1) for lo, hi in bounds])
        offset = (sum(axes) - sum(lo for lo, _ in bounds)).ravel()
        moving = (sum(np.abs(a) for a in axes) > 0).ravel()  # a = 0 is the mean

    def finish(dims, picks, lams, N, read_box, power_sum, peak):
        lead = np.shape(lams)
        scales = np.asarray(lams)[..., None] ** powers
        vec, energies = np.zeros(lead + (m, k), dtype=complex), np.zeros(lead + (0,))
        if read_box is not None:
            read_box = read_box / N**dims
            vec[..., inside, :] = read_box[(..., *picks, slice(None))] * scales[..., inside, None]
            if box:  # one bincount, scale l's bins after l * (offset[-1] + 1)
                energy = (np.abs(read_box) ** 2).sum(axis=-1).reshape(lead + (-1,)) * moving
                bins = np.arange(math.prod(lead))[:, None] * (offset[-1] + 1) + offset
                energies = np.bincount(bins.ravel(), weights=energy.ravel()).reshape(lead + (-1,))
        unit = _rounding_bound(dims, N, degree, peak)
        power, bound = _grid_mean(power_sum, dims, N, k, degree, (peak, peak))
        est = np.maximum(unit * scales.max(axis=-1, initial=0.0), bound)
        return np.concatenate([vec.reshape(lead + (-1,)), power, energies], axis=-1), est

    def read(lams, zs, N) -> _Stream:
        orders, picks = box_layout if box else _layout(wanted, tuple(map(len, zs)))
        return _Stream(lams, zs, N, orders, functools.partial(finish, len(zs), picks))

    width = None if bounds is None else _gap(bounds, bounds)
    values, est, grid_n = _refine(f, read, width, lams, tol, max_n, indices)
    return (values[:, : m * k].reshape(len(lams), m, k), values[:, m * k].real, est, grid_n,
            values[:, m * k + 1 :].real)


def adaptive_coefficients(
    f, lam: float, indices: Sequence[Sequence[int]]
) -> tuple[dict[tuple[int, ...], np.ndarray], float, int]:
    """Laurent coefficients at the given indices: from the exact grid when f
    has an exponent range, else refined by grid doubling until stable.

    Returns (coefficients, est_error, N_used), the coefficients keyed by
    index as a tuple of ints.  Raises DimensionMismatch or ValueError for an
    index that is not f.n integers (see laurent._exponents).
    """
    idx = [_exponents(a, f.n) for a in indices]
    rows, _, err, n_used, _ = _coefficients(f, [lam], idx, DEFAULT_TOL, DEFAULT_MAX_N)
    return dict(zip(idx, rows[0])), float(err[0]), int(n_used[0])


def _summaries(
    f,
    lams: list[float],
    tol: float,
    max_n: int,
    extra: Sequence[Sequence[int]] = (),
    box: bool = False,
) -> tuple[SpectralSummary, np.ndarray, np.ndarray]:
    """The summaries of spectral_summaries as one SpectralSummary in stacked
    form, with the (L, e, k) coefficient rows of each scale's grid at the e
    orders in extra and, with ``box``, the (L, D) energies of its range box
    by total degree (see _coefficients).  One grid per scale is read at the
    orders 0, -e_0..-e_{n-1}, +e_0..+e_{n-1} and then extra; lams is a
    nonempty list."""
    n = f.n
    check_dimension(n)
    unit = [tuple(int(i == beta) for i in range(n)) for beta in range(n)]
    indices = [(0,) * n, *(tuple(-x for x in e) for e in unit), *unit, *extra]
    rows, power, est, grid_n, energies = _coefficients(f, lams, indices, tol, max_n, box)
    core, eta = rows[:, 0], rows[:, 1 : n + 1].swapaxes(1, 2)
    jac = rows[:, n + 1 : 2 * n + 1].swapaxes(1, 2)
    variance = np.maximum(power - trace_norm_sq(core, 1), 0.0)
    tail = variance - variance_model(eta, jac, lams)
    summary = SpectralSummary(lam=np.array(lams, dtype=float), core=core, eta=eta, jacobian=jac,
                              variance=variance, tail_energy=tail, est_error=est, grid_n=grid_n)
    return summary, rows[:, 2 * n + 1 :], energies


def spectral_summaries(
    f,
    lams: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> list[SpectralSummary]:
    """spectral_summary at each scale in lams, in order.

    An evaluator with an exponent range has the same exact grid at every
    scale, so its scales are sampled and contracted together in blocks (see
    the module docstring); each summary is the one spectral_summary returns
    at its scale, and an error is the one the first failing scale raises.
    """
    lams = list(lams)
    if not lams:
        check_dimension(f.n)
        return []
    s, _, _ = _summaries(f, lams, tol, max_n)
    return [SpectralSummary(*fields) for fields in zip(
        lams, s.core, s.eta, s.jacobian, s.variance.tolist(), s.tail_energy.tolist(),
        s.est_error.tolist(), s.grid_n.tolist())]


def spectral_summary(
    f,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> SpectralSummary:
    """Full one-scale summary of an evaluator whose only possible pole on the
    closed poly-disc is at the origin.

    The variance is the grid mean of |f|^2 minus |c_0|^2 (the boundary average
    of |f|^2 equals <f,f>); the tail energy is whatever part of it the
    two-term closed form does not account for.
    """
    return spectral_summaries(f, [lam], tol, max_n)[0]


def first_order_summary(
    f,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """(core, eta, jacobian, est_error, grid_n) of spectral_summary(f, lam,
    tol, max_n): the same reads of the same grid, without the variance."""
    s, _, _ = _summaries(f, [lam], tol, max_n)
    return s.core[0], s.eta[0], s.jacobian[0], float(s.est_error[0]), int(s.grid_n[0])


def expectation_numeric(f, lam: float) -> np.ndarray:
    """Boundary-measure expectation of f (its constant Laurent coefficient)."""
    coeffs, _, _ = adaptive_coefficients(f, lam, [(0,) * f.n])
    return coeffs[(0,) * f.n]


def inner_product_numeric(f, g, lam: float) -> complex:
    """<f, g> as the grid mean of conj(f).g, conjugate-linear in f: read
    once from the exact grid of the two ranges (see _gap) when both have
    one, else refined by the doubling loop to DEFAULT_TOL.  Raises
    GridTooLarge when the exact grid exceeds MAX_TOTAL_POINTS points, and
    NonConvergent when the doubling loop reaches that many unresolved."""
    if f.n != g.n or f.k != g.k:
        raise DimensionMismatch(f"shape ({f.n},{f.k}) vs ({g.n},{g.k})")

    k = f.k
    f_bounds, g_bounds = _exponent_bounds(f), _exponent_bounds(g)
    width = None if f_bounds is None or g_bounds is None else _gap(f_bounds, g_bounds)
    degree = 0 if width is None else max(_degree(f_bounds), _degree(g_bounds))

    def read(lams, zs, N) -> _Products:
        return _Products(len(zs), k, N, degree)

    values, _, _ = _refine(_Pair(f, g), read, width, [lam], DEFAULT_TOL, DEFAULT_MAX_N)
    return complex(values[0, 0])


class _Pair:
    """f and g as one evaluator of their 2k components, pointwise when both
    are."""

    def __init__(self, f, g):
        self.n, self.k, self.f, self.g = f.n, 2 * f.k, f, g
        self.pointwise = getattr(f, "pointwise", False) and getattr(g, "pointwise", False)

    def eval_grid(self, coords):
        return [*self.f.eval_grid(coords), *self.g.eval_grid(coords)]
