"""Scale-level analyses: variance sweeps, the uncertainty floor, the optimal
observation scale, and detectability checks.

For a function with residue matrix eta and first-derivative matrix D, the
measured variance at scale lam decomposes as Tr(eta* eta)/lam^2 +
lam^2 Tr(D* D) plus a nonnegative tail energy, so lam^2 * variance never
drops below Tr(eta* eta), and the two-term model is minimized at
lam* = [Tr(eta* eta)/Tr(D* D)]^(1/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InconsistentScales, PoleOnTorus
from .laurent import trace_norm_sq
from .quadrature import (
    DEFAULT_MAX_N,
    DEFAULT_TOL,
    adaptive_coefficients,
    spectral_summaries,
    spectral_summary,
)

# Traces below this are treated as exactly zero when classifying degeneracies.
TRACE_ZERO_THRESHOLD = 1e-18

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


def optimal_scale(eta, jacobian, zero_threshold: float = TRACE_ZERO_THRESHOLD) -> OptimalScale:
    """Closed-form minimizer [Tr(eta* eta)/Tr(D* D)]^(1/4) of the two-term
    variance model.

    Degenerate(ZeroJacobian) when Tr(D* D) = 0 (variance monotone decreasing
    in the scale) and Degenerate(ZeroResidue) when Tr(eta* eta) = 0 (monotone
    increasing toward zero scale); degeneracies are values, not errors.
    """
    tr_eta = trace_norm_sq(eta)
    tr_jac = trace_norm_sq(jacobian)
    if tr_jac <= zero_threshold:
        return ZERO_JACOBIAN
    if tr_eta <= zero_threshold:
        return ZERO_RESIDUE
    return (tr_eta / tr_jac) ** 0.25


@dataclass
class LensSweep:
    """Per-scale variances with the model curve and bound gap, plus the
    scale-independent matrices (reported from the smallest scale)."""

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
    consistency across all scales: drift beyond tolerance means the input is
    outside the supported class (its coefficients depend on the radius).
    The empirical optimum is refined only for grids of at least 3 points;
    shorter sweeps leave it NaN.
    """
    lams = [float(x) for x in lam_grid]
    if not lams or any(x <= 0 for x in lams) or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("scale grid must be nonempty, positive and increasing")

    summaries = spectral_summaries(f, lams, tol=tol, max_n=max_n)
    eta = summaries[0].eta
    jac = summaries[0].jacobian
    consistency = max(1e-9, 100.0 * tol)
    for s in summaries[1:]:
        drift = max(
            float(np.max(np.abs(s.eta - eta))), float(np.max(np.abs(s.jacobian - jac)))
        )
        if drift > consistency:
            raise InconsistentScales(
                f"coefficient matrices drift by {drift:.3g} between scales "
                f"{lams[0]:g} and {s.lam:g}"
            )

    tr_eta = trace_norm_sq(eta)

    def variance_at(lam: float) -> float:
        return spectral_summary(f, lam, tol=tol, max_n=max_n).variance

    sweep = LensSweep(
        lambdas=lams,
        variance=[s.variance for s in summaries],
        variance_model=[s.variance_model for s in summaries],
        bound_gap=[lam**2 * s.variance - tr_eta for lam, s in zip(lams, summaries)],
        est_error=[s.est_error for s in summaries],
        eta=eta,
        jacobian=jac,
        lambda_star_closed=optimal_scale(eta, jac),
        lambda_star_empirical=math.nan,
        variance_fn=variance_at,
    )
    if len(lams) >= 3:
        sweep.lambda_star_empirical = empirical_optimal_scale(sweep)
    return sweep


def empirical_optimal_scale(sweep: LensSweep, rel_tol: float = 1e-4) -> float:
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
    while h > rel_tol * (a + b) / 2.0:
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


def detectability_check(
    f,
    lam_probe: Sequence[float],
    tol: float = 1e-9,
    quad_tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> DetectabilityReport:
    """Detectable iff the expectation is the same at every probed scale (within
    tol) and every variance is finite.

    Class membership is probed alongside: a pole on a sampled torus, or a
    nonvanishing coefficient at order -2 in some coordinate (the signature of
    a higher-order pole at the origin or of an off-centre pole inside the
    probed annulus), is reported as NotInClass.
    """
    probes = [float(x) for x in lam_probe]
    if len(probes) < 2:
        raise ValueError("need at least 2 probe scales")
    class_tol = max(1e-8, 100.0 * quad_tol)
    deep = []
    for beta in range(f.n):
        vec = [0] * f.n
        vec[beta] = -2
        deep.append(tuple(vec))
    cores = []
    max_variance = 0.0
    try:
        for lam in probes:
            s = spectral_summary(f, lam, tol=quad_tol, max_n=max_n)
            cores.append(s.core)
            max_variance = max(max_variance, s.variance)
            coeffs, _, _, _ = adaptive_coefficients(f, lam, deep, tol=quad_tol, max_n=max_n)
            worst = max(float(np.max(np.abs(coeffs[a]))) for a in deep)
            if worst > class_tol:
                return DetectabilityReport(
                    is_detectable=False,
                    expectation_drift=math.nan,
                    max_variance=max_variance,
                    in_class=False,
                    reason="NotInClass",
                )
    except PoleOnTorus:
        return DetectabilityReport(
            is_detectable=False,
            expectation_drift=math.nan,
            max_variance=math.inf,
            in_class=False,
            reason="NotInClass",
        )
    drift = 0.0
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            drift = max(drift, float(np.max(np.abs(cores[i] - cores[j]))))
    ok = drift <= tol and math.isfinite(max_variance)
    return DetectabilityReport(
        is_detectable=ok,
        expectation_drift=drift,
        max_variance=max_variance,
        in_class=True,
        reason=None if ok else "ExpectationDrift",
    )


def geometric_grid(lam_min: float, lam_max: float, steps: int) -> list[float]:
    """Geometric scale grid; log spacing resolves both variance branches."""
    if not (0 < lam_min < lam_max):
        raise ValueError("need 0 < lam_min < lam_max")
    if steps < 3:
        raise ValueError("need at least 3 steps")
    ratio = lam_max / lam_min
    return [lam_min * ratio ** (i / (steps - 1)) for i in range(steps)]
