"""Exact arithmetic for vector-valued Laurent polynomials with a pole of
order at most one in each coordinate.

Coefficients are complex numbers with rational real and imaginary parts, so
every operation here is exact; the numerical torus engine is validated against
the values computed in this module.  A polynomial f : C^n -> C^k is stored
sparsely as a map from exponent vectors (tuples of ints, each >= -1) to
length-k coefficient vectors.  An exponent of -1 in coordinate j encodes a
first-order pole in w_j; anything below -1 is rejected at construction.

The boundary-circle integrals implemented here reduce to coefficient reads:
on |w| = r the only monomial with nonzero circle average is the constant, and
conjugation maps w^a to r^(2a) w^(-a).  Radii therefore enter only through
even powers, so a radius given as a float is converted to its exact binary
rational and the whole computation stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AdmissibilityViolation, DimensionMismatch, MixedPoleTerm

Exponents = tuple[int, ...]


def _frac(x) -> Fraction:
    """Coerce ints, floats (exact binary value) and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _scale_sq(lam) -> Fraction:
    """Exact squared scale; scales must be positive."""
    value = _frac(lam)
    if value <= 0:
        raise ValueError("scale must be positive")
    return value * value


@dataclass(frozen=True)
class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @classmethod
    def from_value(cls, z) -> "ComplexRational":
        if isinstance(z, ComplexRational):
            return z
        if isinstance(z, complex):
            return cls(_frac(z.real), _frac(z.imag))
        return cls(_frac(z))

    def __add__(self, other) -> "ComplexRational":
        o = ComplexRational.from_value(other)
        return ComplexRational(self.re + o.re, self.im + o.im)

    def __sub__(self, other) -> "ComplexRational":
        o = ComplexRational.from_value(other)
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other) -> "ComplexRational":
        o = ComplexRational.from_value(other)
        return ComplexRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, exactly."""
        return self.re * self.re + self.im * self.im

    def reciprocal(self) -> "ComplexRational":
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("reciprocal of exact zero")
        return ComplexRational(self.re / d, -self.im / d)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(Fraction(1))

# k x n matrix of exact complex rationals (rows indexed by component).
Matrix = tuple[tuple[ComplexRational, ...], ...]


class LaurentPoly:
    """Sparse exact Laurent polynomial f : C^n -> C^k in normal form.

    Instances are immutable by convention: no method mutates `terms` after
    construction, so values are safe to share across threads.
    """

    __slots__ = ("n", "k", "terms")
    pointwise = True  # eval_grid acts point by point (see quadrature)

    def __init__(self, n: int, k: int, terms: Mapping[Exponents, object]):
        if n < 1 or k < 1:
            raise DimensionMismatch(f"need n >= 1 and k >= 1, got n={n}, k={k}")
        normalized: dict[Exponents, tuple[ComplexRational, ...]] = {}
        for exps, coeffs in terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != n:
                raise DimensionMismatch(
                    f"exponent vector {key} has length {len(key)}, expected {n}"
                )
            if any(e < -1 for e in key):
                raise AdmissibilityViolation(
                    f"exponent vector {key} has a component below -1"
                )
            if k == 1 and not isinstance(coeffs, (tuple, list)):
                coeffs = (coeffs,)
            if len(coeffs) != k:
                raise DimensionMismatch(
                    f"coefficient vector for {key} has length {len(coeffs)}, expected {k}"
                )
            vec = tuple(ComplexRational.from_value(c) for c in coeffs)
            if any(vec):
                normalized[key] = vec
        self.n = n
        self.k = k
        self.terms = normalized

    # ---------------------------------------------------------------- build

    @classmethod
    def scalar(cls, n: int, mapping: Mapping[Exponents, object]) -> "LaurentPoly":
        """Build a k=1 polynomial from {exponents: coefficient}."""
        return cls(n, 1, {exps: (c,) for exps, c in mapping.items()})

    @classmethod
    def from_components(cls, components: Sequence["LaurentPoly"]) -> "LaurentPoly":
        """Stack k=1 polynomials over a shared domain into one vector-valued one."""
        if not components:
            raise DimensionMismatch("need at least one component")
        n = components[0].n
        if any(c.n != n or c.k != 1 for c in components):
            raise DimensionMismatch("components must be scalar with equal n")
        k = len(components)
        merged: dict[Exponents, list[ComplexRational]] = {}
        for alpha, comp in enumerate(components):
            for exps, (c,) in comp.terms.items():
                merged.setdefault(exps, [CR_ZERO] * k)[alpha] = c
        return cls(n, k, {e: tuple(v) for e, v in merged.items()})

    # ----------------------------------------------------------- arithmetic

    def _check_shape(self, other: "LaurentPoly") -> None:
        if self.n != other.n or self.k != other.k:
            raise DimensionMismatch(
                f"shape ({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_shape(other)
        out = dict(self.terms)
        for exps, vec in other.terms.items():
            cur = out.get(exps)
            out[exps] = vec if cur is None else tuple(a + b for a, b in zip(cur, vec))
        return LaurentPoly(self.n, self.k, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(
            self.n, self.k, {e: tuple(-c for c in v) for e, v in self.terms.items()}
        )

    def scale(self, factor) -> "LaurentPoly":
        f = ComplexRational.from_value(factor)
        return LaurentPoly(
            self.n, self.k, {e: tuple(c * f for c in v) for e, v in self.terms.items()}
        )

    def __mul__(self, other):
        """Componentwise product with another polynomial, or scaling."""
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check_shape(other)
        acc: dict[Exponents, list[ComplexRational]] = {}
        for ea, va in self.terms.items():
            for eb, vb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                cur = acc.setdefault(exps, [CR_ZERO] * self.k)
                for alpha in range(self.k):
                    cur[alpha] = cur[alpha] + va[alpha] * vb[alpha]
        return LaurentPoly(self.n, self.k, {e: tuple(v) for e, v in acc.items()})

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.n == other.n
            and self.k == other.k
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"LaurentPoly(n={self.n}, k={self.k}, {len(self.terms)} terms)"

    # -------------------------------------------------------------- queries

    def coefficient(self, exps: Iterable[int]) -> tuple[ComplexRational, ...]:
        key = tuple(int(e) for e in exps)
        if len(key) != self.n:
            raise DimensionMismatch(
                f"exponent vector {key} has length {len(key)}, expected {self.n}"
            )
        return self.terms.get(key, (CR_ZERO,) * self.k)

    def exponent_bounds(self) -> list[tuple[int, int]]:
        """Per-axis (min, max) of the term exponents; (0, 0) when f = 0."""
        if not self.terms:
            return [(0, 0)] * self.n
        return [(min(axis), max(axis)) for axis in zip(*self.terms)]

    # ----------------------------------------------------------- evaluation

    def eval_grid(self, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Evaluate all components on broadcastable coordinate arrays."""
        if len(coords) != self.n:
            raise DimensionMismatch(f"expected {self.n} coordinate arrays")
        out: list = [None] * self.k
        for exps, vec in self.terms.items():
            mono = None
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                p = coords[j] ** e
                mono = p if mono is None else mono * p
            for alpha in range(self.k):
                if not vec[alpha]:
                    continue
                term = complex(vec[alpha]) if mono is None else complex(vec[alpha]) * mono
                out[alpha] = term if out[alpha] is None else out[alpha] + term
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords)) if coords else ()
        return [
            np.broadcast_to(np.asarray(v if v is not None else 0j), shape)
            for v in out
        ]

    def eval_at(self, point: Sequence[complex]) -> tuple[complex, ...]:
        coords = [np.asarray(complex(p)) for p in point]
        return tuple(complex(v) for v in self.eval_grid(coords))

    # -------------------------------------------------------- serialization

    def canonical_text(self) -> str:
        """Sorted-term textual form: exponent vector, then exact re/im pairs."""
        lines = [f"laurent n={self.n} k={self.k}"]
        for exps in sorted(self.terms):
            vec = self.terms[exps]
            coeffs = " | ".join(f"{c.re} {c.im}" for c in vec)
            lines.append(f"{','.join(str(e) for e in exps)} : {coeffs}")
        return "\n".join(lines) + "\n"


# -------------------------------------------------------------- decomposing


@dataclass(frozen=True)
class Decomposition:
    """Core / principal / analytic split of a Laurent polynomial, together
    with its residue and first-derivative matrices."""

    core: tuple[ComplexRational, ...]
    principal: LaurentPoly
    analytic: LaurentPoly
    eta: Matrix
    jacobian: Matrix


def decompose(f: LaurentPoly) -> Decomposition:
    """Split f into constant, pure-pole and regular parts.

    Raises MixedPoleTerm when some term carries a -1 exponent alongside any
    other nonzero exponent; such functions fall outside the class whose
    principal part is a constant-residue sum of single-coordinate poles.
    """
    n, k = f.n, f.k
    core = f.coefficient((0,) * n)
    principal: dict[Exponents, tuple[ComplexRational, ...]] = {}
    analytic: dict[Exponents, tuple[ComplexRational, ...]] = {}
    eta = [[CR_ZERO] * n for _ in range(k)]
    jac = [[CR_ZERO] * n for _ in range(k)]
    for exps, vec in f.terms.items():
        negatives = [j for j, e in enumerate(exps) if e < 0]
        if negatives:
            if len(negatives) > 1 or any(e != 0 for j, e in enumerate(exps) if j != negatives[0]):
                raise MixedPoleTerm(
                    f"term {exps} mixes a pole with other nonzero exponents"
                )
            beta = negatives[0]
            principal[exps] = vec
            for alpha in range(k):
                eta[alpha][beta] = vec[alpha]
        elif any(exps):
            analytic[exps] = vec
            if sum(exps) == 1 and max(exps) == 1:
                beta = exps.index(1)
                for alpha in range(k):
                    jac[alpha][beta] = vec[alpha]
    return Decomposition(
        core=core,
        principal=LaurentPoly(n, k, principal),
        analytic=LaurentPoly(n, k, analytic),
        eta=tuple(tuple(row) for row in eta),
        jacobian=tuple(tuple(row) for row in jac),
    )


# ----------------------------------------------------------- torus integrals


def exterior_integral(
    f: LaurentPoly, s: Iterable[int], conjugate: bool = False, lam=1
) -> tuple[ComplexRational, ...]:
    """Normalized contour integral of f (or its conjugate) against the
    monomial weight prod_j w_j^(s_j) over the product of circles |w_j| = lam.

    Without conjugation the result is the coefficient of f at -s-1: on each
    circle only w^(-1) integrates to something nonzero.  With conjugation,
    conj(w^a) = lam^(2a) w^(-a) on the circle turns the same rule into
    conj(c_(s+1)) * lam^(2*sum(s_j+1)).
    """
    svec = tuple(int(x) for x in s)
    if len(svec) != f.n:
        raise DimensionMismatch(f"weight vector has length {len(svec)}, expected {f.n}")
    if not conjugate:
        return f.coefficient(tuple(-x - 1 for x in svec))
    lam2 = _scale_sq(lam)
    factor = ComplexRational(lam2 ** (sum(svec) + f.n))
    return tuple(c.conjugate() * factor for c in f.coefficient(tuple(x + 1 for x in svec)))


def inner_product_exact(f: LaurentPoly, g: LaurentPoly, lam=1) -> ComplexRational:
    """<f, g> on the product of circles of radius lam, conjugate-linear in f.

    Distinct monomials are orthogonal under the boundary average, so the
    pairing is the diagonal sum conj(c^f_a) . c^g_a . lam^(2*sum(a)).
    """
    f._check_shape(g)
    lam2 = _scale_sq(lam)
    total = CR_ZERO
    for exps, fvec in f.terms.items():
        gvec = g.terms.get(exps)
        if gvec is None:
            continue
        pair = CR_ZERO
        for a, b in zip(fvec, gvec):
            pair = pair + a.conjugate() * b
        total = total + pair * ComplexRational(lam2 ** sum(exps))
    return total


def component_norm_sq(f: LaurentPoly, alpha: int, lam=1) -> Fraction:
    """<f_alpha, f_alpha> for a single component, exactly."""
    lam2 = _scale_sq(lam)
    total = Fraction(0)
    for exps, vec in f.terms.items():
        if vec[alpha]:
            total += vec[alpha].abs2() * lam2 ** sum(exps)
    return total


# ------------------------------------------------------------------ variance


def variance_exact(f: LaurentPoly, lam=1) -> Fraction:
    """Exact variance of f on the radius-lam boundary torus.

    By monomial orthogonality this is the full coefficient energy away from
    the constant term: sum over a != 0 of |c_a|^2 lam^(2*sum(a)), which equals
    <f,f> - |c_0|^2.  Requires f to be decomposable (no mixed pole terms).
    """
    decompose(f)  # raise MixedPoleTerm for out-of-class input
    lam2 = _scale_sq(lam)
    zero = (0,) * f.n
    total = Fraction(0)
    for exps, vec in f.terms.items():
        if exps == zero:
            continue
        total += sum((c.abs2() for c in vec), Fraction(0)) * lam2 ** sum(exps)
    return total


def trace_norm_sq_exact(matrix: Matrix) -> Fraction:
    """Tr(M* M) as the exact sum of squared entry moduli."""
    return sum((c.abs2() for row in matrix for c in row), Fraction(0))


def variance_model_exact(eta: Matrix, jacobian: Matrix, lam=1) -> Fraction:
    """Two-term closed-form variance Tr(eta* eta)/lam^2 + lam^2 Tr(D* D),
    exact.  Equals variance_exact precisely when the degree->=2 tail is absent;
    otherwise it is a strict lower bound."""
    lam2 = _scale_sq(lam)
    return trace_norm_sq_exact(eta) / lam2 + lam2 * trace_norm_sq_exact(jacobian)


def matrix_to_complex(matrix) -> np.ndarray:
    """Convert an exact matrix (or any nested complex-able data) to complex128."""
    return np.array(
        [[complex(entry) for entry in row] for row in matrix], dtype=complex
    )


def trace_norm_sq(matrix) -> float:
    """Numeric counterpart of trace_norm_sq_exact: Tr(M* M) of a measured (or
    exact) matrix, or the squared norm of a vector, in floating point."""
    return float(np.sum(np.abs(np.asarray(matrix, dtype=complex)) ** 2))


def variance_model(eta, jacobian, lam: float) -> float:
    """Numeric counterpart of variance_model_exact for measured matrices."""
    return trace_norm_sq(eta) / lam**2 + lam**2 * trace_norm_sq(jacobian)
