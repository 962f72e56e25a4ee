"""Scale-level analyses: variance sweeps, the uncertainty floor, the optimal
observation scale, and detectability checks.

For a function with residue matrix eta and first-derivative matrix D, the
measured variance at scale lam decomposes as Tr(eta* eta)/lam^2 +
lam^2 Tr(D* D) plus a nonnegative tail energy, so lam^2 * variance never
drops below Tr(eta* eta), and the two-term model is minimized at
lam* = [Tr(eta* eta)/Tr(D* D)]^(1/4).

A sweep reads all its scales as one stacked summary, and for an input with
an exponent range the energies E_s by total degree s of the range box
c^_a = c_a lam^(sum a) from the same grids, which the engine bins block by
block.  Golden section refines the minimum lam_i of a sweep between its
neighbours; each probe reads the variance as sum_s E_s (lam/lam_i)^(2s)
from the sweep's own row of energies at lam_i, with that row's est_error
times max_s (lam/lam_i)^(2s) as its certified error.  A probe whose bound
misses tol * max(1, V), and each probe of an input without an exponent
range, is sampled with spectral_summary instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InconsistentScales, PoleOnTorus
from .laurent import _integral, trace_norm_sq
from .quadrature import (
    DEFAULT_MAX_N,
    DEFAULT_TOL,
    _summaries,
    check_dimension,
    spectral_summary,
)

# A trace at most this fraction of Tr(eta* eta) + Tr(D* D) is treated as
# exactly zero when classifying degeneracies.
TRACE_ZERO_THRESHOLD = 1e-18

GOLDEN_REL_TOL = 1e-4  # golden section stops at a bracket this fraction of its midpoint

DRIFT_TOL = 1e-9  # most expectation drift across probe scales that is detectable
CLASS_TOL = 1e-8  # largest order -2 coefficient of an input in the class
MAX_SWEEP_STEPS = 4096  # most scales in a geometric grid, each one summary

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Degenerate:
    """Typed stand-in for an optimal scale that runs away to 0 or infinity."""

    reason: str  # "ZeroJacobian" or "ZeroResidue"

    def __str__(self) -> str:
        return f"Degenerate({self.reason})"


ZERO_JACOBIAN = Degenerate("ZeroJacobian")
ZERO_RESIDUE = Degenerate("ZeroResidue")

OptimalScale = Union[float, Degenerate]


def optimal_scale(eta, jacobian) -> OptimalScale:
    """Closed-form minimizer [Tr(eta* eta)/Tr(D* D)]^(1/4) of the two-term
    variance model.

    Degenerate(ZeroJacobian) when Tr(D* D) = 0 (variance monotone decreasing
    in the scale) and Degenerate(ZeroResidue) when Tr(eta* eta) = 0 (monotone
    increasing toward zero scale); degeneracies are values, not errors.  A
    trace is zero relative to the two together, so the outcome does not
    depend on the units of f.
    """
    tr_eta = trace_norm_sq(eta)
    tr_jac = trace_norm_sq(jacobian)
    zero = TRACE_ZERO_THRESHOLD * (tr_eta + tr_jac)
    if tr_jac <= zero:
        return ZERO_JACOBIAN
    if tr_eta <= zero:
        return ZERO_RESIDUE
    return (tr_eta / tr_jac) ** 0.25


@dataclass
class LensSweep:
    """Per-scale variances with the model curve and bound gap, plus the
    scale-independent matrices (reported from the smallest scale).
    ``variance_fn`` is the variance at any scale, read as golden section's
    probes are: certified closed form or sampled (see the module docstring)."""

    lambdas: list[float]
    variance: list[float]
    variance_model: list[float]
    bound_gap: list[float]  # lam^2 * variance - Tr(eta* eta)
    est_error: list[float]
    eta: np.ndarray
    jacobian: np.ndarray
    lambda_star_closed: OptimalScale
    lambda_star_empirical: float
    variance_fn: Callable[[float], float] = field(repr=False)


def variance_sweep(
    f,
    lam_grid: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> LensSweep:
    """Spectral summaries at every grid scale, collected into a sweep.

    The grid must be positive and strictly increasing.  The residue and
    derivative matrices are reported from the smallest scale and checked for
    consistency across all scales: a drift beyond max(1e-9, 100 * tol) plus
    the est_error of both scales' reads means the input is outside the
    supported class (its coefficients depend on the radius).
    The empirical optimum is refined only for grids of at least 3 points;
    shorter sweeps leave it NaN.
    """
    lams = [float(x) for x in lam_grid]
    if not lams or any(x <= 0 for x in lams) or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("scale grid must be nonempty, positive and increasing")

    s, _, energies = _summaries(f, lams, tol, max_n, box=True)
    drift = np.maximum(np.abs(s.eta - s.eta[0]).max(axis=(1, 2)),
                       np.abs(s.jacobian - s.jacobian[0]).max(axis=(1, 2)))
    drifting = np.flatnonzero(drift > max(1e-9, 100.0 * tol) + s.est_error[0] + s.est_error)
    if drifting.size:
        i = drifting[0]
        raise InconsistentScales(
            f"coefficient matrices drift by {drift[i]:.3g} between scales "
            f"{lams[0]:g} and {lams[i]:g}"
        )

    eta, jac = s.eta[0], s.jacobian[0]
    tr_eta = trace_norm_sq(eta)
    variance = s.variance.tolist()
    i = int(np.argmin(s.variance))
    anchor, err, energy = lams[i], float(s.est_error[i]), energies[i]
    if energy.size:  # energy[s] is that of total degree sum_j lo_j + s
        degrees = sum(lo for lo, _ in f.exponent_bounds()) + np.arange(energy.size)

    def variance_at(lam: float) -> float:
        if energy.size:
            with np.errstate(over="ignore", invalid="ignore"):
                weights = (lam / anchor) ** (2.0 * degrees)
                value = float((energy * weights).sum())  # not @: a BLAS dot pages in a kernel
                bound = err * float(weights.max())
            if bound <= tol * max(1.0, value) and bound < math.inf:
                return value
        return spectral_summary(f, lam, tol=tol, max_n=max_n).variance

    sweep = LensSweep(
        lambdas=lams,
        variance=variance,
        variance_model=s.variance_model.tolist(),
        bound_gap=[lam**2 * v - tr_eta for lam, v in zip(lams, variance)],
        est_error=s.est_error.tolist(),
        eta=eta,
        jacobian=jac,
        lambda_star_closed=optimal_scale(eta, jac),
        lambda_star_empirical=math.nan,
        variance_fn=variance_at,
    )
    if len(lams) >= 3:
        sweep.lambda_star_empirical = empirical_optimal_scale(sweep)
    return sweep


def empirical_optimal_scale(sweep: LensSweep) -> float:
    """Golden-section refinement of the sweep minimizer of measured variance.

    Needs at least 3 sweep points.  When the minimum sits on the boundary of
    the sweep there is no interior bracket; the boundary scale is returned
    unrefined.
    """
    if len(sweep.lambdas) < 3:
        raise ValueError("need at least 3 sweep points")
    i = int(np.argmin(sweep.variance))
    if i == 0 or i == len(sweep.lambdas) - 1:
        return sweep.lambdas[i]
    a, b = sweep.lambdas[i - 1], sweep.lambdas[i + 1]
    h = b - a
    f = sweep.variance_fn
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > GOLDEN_REL_TOL * (a + b) / 2.0:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    return (a + b) / 2.0


@dataclass(frozen=True)
class DetectabilityReport:
    """Outcome of probing expectation stability and variance finiteness."""

    is_detectable: bool
    expectation_drift: float
    max_variance: float
    in_class: bool
    reason: str | None = None


def detectability_check(f, lam_probe: Sequence[float]) -> DetectabilityReport:
    """Detectable iff the expectation is the same at every probed scale and
    every variance is finite.  Two probes drift apart when their cores differ
    by more than DRIFT_TOL plus both reads' est_error, so only a gap the
    reads' own rounding cannot explain counts.

    Class membership is probed alongside: a pole on a sampled torus, or a
    coefficient above CLASS_TOL at order -2 in some coordinate (the signature
    of a higher-order pole at the origin or of an off-centre pole inside the
    probed annulus), is reported as NotInClass.  Each probe scale samples
    one grid, read at the summary's orders and at -2 e_beta together.
    """
    probes = [float(x) for x in lam_probe]
    if len(probes) < 2:
        raise ValueError("need at least 2 probe scales")
    check_dimension(f.n)  # before the n orders of length n
    deep = [tuple(-2 * (i == beta) for i in range(f.n)) for beta in range(f.n)]
    cores, errors = [], []
    max_variance = 0.0
    for lam in probes:  # the first probe out of the class ends the loop
        try:
            s, rows, _ = _summaries(f, [lam], DEFAULT_TOL, DEFAULT_MAX_N, deep)
            max_variance = max(max_variance, float(s.variance[0]))
            in_class = float(np.max(np.abs(rows))) <= CLASS_TOL
        except PoleOnTorus:
            max_variance, in_class = math.inf, False
        if not in_class:
            return DetectabilityReport(
                is_detectable=False,
                expectation_drift=math.nan,
                max_variance=max_variance,
                in_class=False,
                reason="NotInClass",
            )
        cores.append(s.core[0])
        errors.append(float(s.est_error[0]))
    cores, errors = np.array(cores), np.array(errors)  # (probes, k), (probes,)
    gaps = np.abs(cores[:, None] - cores).max(axis=-1)  # of every two probes
    drift = float(gaps.max())
    ok = bool(np.all(gaps <= DRIFT_TOL + errors[:, None] + errors)) and math.isfinite(max_variance)
    return DetectabilityReport(
        is_detectable=ok,
        expectation_drift=drift,
        max_variance=max_variance,
        in_class=True,
        reason=None if ok else "ExpectationDrift",
    )


def geometric_grid(lam_min: float, lam_max: float, steps: int) -> list[float]:
    """Geometric scale grid; log spacing resolves both variance branches."""
    if not (0 < lam_min < lam_max < math.inf):
        raise ValueError(f"need 0 < lam_min < lam_max < inf, got {lam_min!r} and {lam_max!r}")
    if not _integral((steps,)) or not 3 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"need 3 to {MAX_SWEEP_STEPS} steps, got {steps}")
    ratio = lam_max / lam_min
    if ratio == math.inf:
        raise ValueError(f"lam_max / lam_min overflows: {lam_min!r} to {lam_max!r}")
    return [lam_min * ratio ** (i / (steps - 1)) for i in range(steps)]
