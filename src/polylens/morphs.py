"""Holomorphic coordinate changes fixing the origin, and numerical checks of
how the residue and derivative matrices transform under them.

A morph g maps w-coordinates to target coordinates with g(0) = 0 and an
invertible derivative J at the origin (J[gamma, beta] = d g_gamma / d w_beta).
If a function psi' in target coordinates has matrices eta' and D', then the
pullback psi' o g has

    eta[alpha, beta]  = sum_gamma eta'[alpha, gamma] * Jinv[beta, gamma]
    D[alpha, beta]    = sum_gamma D'[alpha, gamma] * J[gamma, beta]

i.e. residues pick up the inverse derivative (contravariant) and first-order
coefficients the forward one (covariant).  verify_transform measures both
sides by torus quadrature and reports the residuals.

One subtlety: a pulled-back pole sheds analytic terms (for n = 1 and
g = c*w + a*w^2, the pullback of eta'/u is eta'/(c*w) - eta' a/c^2 +
(eta' a^2/c^3) w - ...), so the raw first-order coefficient of the full
pullback overshoots D' J by exactly eta' a^2/c^3.  The covariance law is a
chain rule for the analytic component, the full pullback minus the pole part
sum_gamma eta'[alpha, gamma] / g_gamma.  Coefficient reads are linear, so its
derivative matrix is D_raw - eta' K, where D_raw is that of the full pullback
and K that of the 1/g_gamma; both come from one read of the pullback of psi'
with the components 1/u_gamma appended.  The residue law is insensitive to
this split and is checked on the same read.  TransformReport.feedthrough,
eta' K, quantifies the shed term itself.

For n >= 2 only diagonal-dominant morphs g_gamma = c_gamma * w_gamma *
(1 + h_gamma(w)) with sup|h_gamma| < 1/2 on the poly-disc are accepted:
general morphs (e.g. g1 = w1 + w2) can send a pulled-back pole onto the
equal-radius torus and the integrals stop being well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AdmissibilityViolation,
    DimensionMismatch,
    NotDiagonalDominant,
    NotFixingOrigin,
    NotLaurent,
    NotPolynomial,
    SingularJacobian,
    VanishesOnTorus,
)
from .expr import BinOp, Lit, MeroExpr, Var, substitute, to_laurent
from .laurent import LaurentPoly, decompose, matrix_to_complex
from .quadrature import (
    DEFAULT_MAX_N,
    DEFAULT_TOL,
    first_order_summary,
    sample_torus,
)

DEFAULT_MORPH_LAMBDA = 0.25   # default check radius, well inside invertibility
DET_THRESHOLD = 1e-9
VANISH_THRESHOLD = 1e-9
_SAMPLE_POINTS = {1: 4096, 2: 64, 3: 16, 4: 8}  # ~4096 total torus samples


@dataclass(frozen=True)
class Morph:
    """A validated coordinate change with its derivative data at the origin."""

    components: MeroExpr       # n polynomial components in w
    lam: float                 # radius the validity certificate was checked at
    jac: np.ndarray            # (n, n): jac[gamma, beta] = d g_gamma / d w_beta
    jac_inv: np.ndarray

    @property
    def n(self) -> int:
        return self.components.n


def morph_validate(g: MeroExpr, lam: float = DEFAULT_MORPH_LAMBDA) -> Morph:
    """Check a candidate coordinate change and package its derivative data.

    Validates: polynomial components, g(0) = 0, invertible derivative at the
    origin (read off the exact first-order coefficients), the
    diagonal-dominance certificate for n >= 2, and nonvanishing of every
    component on the radius-lam torus by dense sampling.
    """
    n = g.n
    if g.k != n:
        raise DimensionMismatch(f"coordinate change needs {n} components, got {g.k}")
    try:
        exact = to_laurent(g)
    except (NotLaurent, AdmissibilityViolation) as exc:
        raise NotPolynomial(f"components are not polynomial: {exc}") from exc
    if any(e < 0 for exps in exact.terms for e in exps):
        raise NotPolynomial("components must have no poles")

    split = decompose(exact)
    if any(split.core):
        raise NotFixingOrigin("constant term must vanish in every component")

    jac = matrix_to_complex(split.jacobian)
    if abs(np.linalg.det(jac)) <= DET_THRESHOLD:
        raise SingularJacobian("derivative at the origin is not invertible")

    if n >= 2:
        _check_diagonal_dominance(exact, jac, lam)

    N = _SAMPLE_POINTS.get(n, 8)
    grid = sample_torus(g, lam, N)
    low = float(np.min(np.abs(grid.values)))
    if low <= VANISH_THRESHOLD:
        raise VanishesOnTorus(
            f"a component reaches modulus {low:.3g} on the radius-{lam:g} torus"
        )

    return Morph(components=g, lam=lam, jac=jac, jac_inv=np.linalg.inv(jac))


def _check_diagonal_dominance(exact: LaurentPoly, jac: np.ndarray, lam: float) -> None:
    """Certify g_gamma = c_gamma * w_gamma * (1 + h_gamma) with a sup-norm
    bound sum |coef| * lam^(deg-1) / |c_gamma| < 1/2 for the remainder."""
    n = exact.n
    for gamma in range(n):
        diag = jac[gamma, gamma]
        if abs(diag) <= DET_THRESHOLD:
            raise NotDiagonalDominant(
                f"component {gamma + 1} has no linear diagonal term"
            )
        remainder = 0.0
        for exps, vec in exact.terms.items():
            coeff = complex(vec[gamma])
            if coeff == 0:
                continue
            if exps[gamma] < 1:
                raise NotDiagonalDominant(
                    f"component {gamma + 1} has a term {exps} not divisible by "
                    f"its own coordinate"
                )
            if sum(exps) == 1:
                continue  # the linear diagonal term itself
            remainder += abs(coeff) * lam ** (sum(exps) - 1)
        if remainder / abs(diag) >= 0.5:
            raise NotDiagonalDominant(
                f"component {gamma + 1} remainder bound {remainder / abs(diag):.3g} "
                f"is not below 1/2 at radius {lam:g}"
            )


def pullback(psi: MeroExpr, g: Morph) -> MeroExpr:
    """Compose psi with the coordinate change: substitute each target variable
    by the corresponding component of g.  Evaluable wherever no component of g
    vanishes when psi has poles."""
    if psi.n != g.n:
        raise DimensionMismatch(
            f"function in {psi.n} variables vs change of {g.n} coordinates"
        )
    return compose(psi, g.components)


def compose(outer: MeroExpr, inner: MeroExpr) -> MeroExpr:
    """Coordinate-change composition (outer o inner) as expression substitution."""
    if outer.n != inner.k:
        raise DimensionMismatch(
            f"outer change expects {outer.n} inputs, inner produces {inner.k}"
        )
    return MeroExpr(
        n=inner.n,
        components=tuple(substitute(node, inner.components) for node in outer.components),
        var_letter=inner.var_letter,
    )


@dataclass(frozen=True)
class TransformReport:
    """Directly measured vs transformation-law-predicted matrices, and the
    raw first-order matrix of the full pullback."""

    eta_direct: np.ndarray
    eta_predicted: np.ndarray
    jac_direct: np.ndarray
    jac_predicted: np.ndarray
    eta_residual: float
    jac_residual: float
    jac_raw: np.ndarray

    @property
    def feedthrough(self) -> np.ndarray:
        """First-order coefficients that the pulled-back pole part sheds: the
        gap eta' K between the raw first-order matrix of the full pullback and
        the derivative of its analytic component, K the first-order matrix of
        the 1/g_gamma.  Zero for linear changes; eta' a^2/c^3 for the
        one-dimensional quadratic family."""
        return self.jac_raw - self.jac_direct

    @property
    def max_residual(self) -> float:
        return max(self.eta_residual, self.jac_residual)

    def passed(self, tol: float) -> bool:
        return self.max_residual <= tol


def verify_transform(
    psi_prime: MeroExpr,
    g: Morph,
    *,  # by keyword: a radius passed third must not become tol
    tol: float = DEFAULT_TOL,
    max_n: int = DEFAULT_MAX_N,
) -> TransformReport:
    """Measure eta and D for psi' and for its pullback along g at the radius
    g.lam that morph_validate certified, and compare against the tensor
    transformation laws.

    Both laws are read from one summary of the pullback of psi' with the
    components 1/u_gamma of its poles appended: its first k rows are the
    pullback's, its last ones give K (see the module docstring).
    """
    if psi_prime.n != g.n:
        raise DimensionMismatch(
            f"function in {psi_prime.n} variables vs change of {g.n} coordinates"
        )
    lam, k = g.lam, psi_prime.k
    _, eta_p, jac_p, _, _ = first_order_summary(psi_prime, lam, tol=tol, max_n=max_n)
    poles = [gamma for gamma in range(g.n) if np.any(eta_p[:, gamma])]
    inverses = tuple(BinOp("/", Lit(Fraction(1), Fraction(0)), Var(gamma)) for gamma in poles)
    augmented = MeroExpr(n=g.n, components=psi_prime.components + inverses,
                         var_letter=psi_prime.var_letter)
    _, eta, jac, _, _ = first_order_summary(pullback(augmented, g), lam, tol=tol, max_n=max_n)
    eta_d, jac_raw = eta[:k], jac[:k]
    jac_d = jac_raw - eta_p[:, poles] @ jac[k:]
    eta_pred = eta_p @ g.jac_inv.T
    jac_pred = jac_p @ g.jac
    return TransformReport(
        eta_direct=eta_d,
        eta_predicted=eta_pred,
        jac_direct=jac_d,
        jac_predicted=jac_pred,
        eta_residual=float(np.max(np.abs(eta_d - eta_pred))),
        jac_residual=float(np.max(np.abs(jac_d - jac_pred))),
        jac_raw=jac_raw,
    )


def pole_feedthrough(psi_prime: MeroExpr, g: Morph) -> np.ndarray:
    """The feedthrough matrix of verify_transform's report (see
    TransformReport.feedthrough)."""
    return verify_transform(psi_prime, g).feedthrough
