"""Exact arithmetic for vector-valued Laurent polynomials with a pole of
order at most one in each coordinate.

Coefficients are complex numbers with rational real and imaginary parts,
each an int when integral and a Fraction otherwise, never a float (every
division goes through Fraction), so every operation here is exact; the
numerical torus engine is validated against the values computed in this
module.  A polynomial f : C^n -> C^k is stored sparsely as a map from
exponent vectors (tuples of ints, each >= -1) to length-k coefficient
vectors.  An exponent of -1 in coordinate j encodes a first-order pole in
w_j; anything below -1 is rejected at construction.  One rule, _exponents,
reads every exponent, order and weight vector that comes in, here and in
the quadrature engine: n integers of an integral type, none a bool, so
0.5, 1.0 or True raises ValueError rather than being truncated.

The boundary-circle integrals implemented here reduce to coefficient reads:
on |w| = r the only monomial with nonzero circle average is the constant, and
conjugation maps w^a to r^(2a) w^(-a).  Radii therefore enter only through
even powers, so a radius given as a float is converted to its exact binary
rational and the whole computation stays exact.
"""

from __future__ import annotations

import numbers
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AdmissibilityViolation, DimensionMismatch, MixedPoleTerm

Exponents = tuple[int, ...]


def _integral(a) -> bool:
    """Whether every entry of a is an integer of an integral type, not a bool."""
    return all(type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))
               for x in a)


def _exponents(a, n: int) -> Exponents:
    """An exponent, coefficient-order or weight vector as a tuple of n ints.
    Raises DimensionMismatch for another length, and ValueError, rather than
    truncate, for an entry that is not an integer (see _integral)."""
    if type(a) is tuple and len(a) == n and all(type(x) is int for x in a):
        return a  # the common case, already in normal form
    a = tuple(a)
    if len(a) != n:
        raise DimensionMismatch(f"exponent vector {a} has length {len(a)}, expected {n}")
    if not _integral(a):
        raise ValueError(f"exponent vector {a!r} has an entry that is not an integer")
    return tuple(map(int, a))


def _exact(x) -> int | Fraction:
    """x as an int when integral, else a Fraction (a float by its exact value)."""
    x = x if type(x) is int or isinstance(x, Fraction) else Fraction(x)
    return x if type(x) is int or x.denominator != 1 else int(x.numerator)


def _scale_sq(lam) -> Fraction:
    """Exact squared scale, a Fraction so its negative powers stay exact."""
    if not 0 < lam < np.inf:  # also rejects NaN
        raise ValueError(f"scale must be positive and finite, got {lam!r}")
    value = Fraction(lam)
    return value * value


class ComplexRational:
    """A complex number with exact rational real and imaginary parts: each an
    int when integral and a Fraction otherwise, never a float.  Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _exact(re))
        _set_im(self, _exact(im))

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ComplexRational, (self.re, self.im)

    @classmethod
    def from_value(cls, z) -> "ComplexRational":
        if isinstance(z, ComplexRational):
            return z
        if isinstance(z, complex):
            return cls(z.real, z.imag)
        return cls(z)

    def __add__(self, other) -> "ComplexRational":
        o = ComplexRational.from_value(other)
        return _cr(self.re + o.re, self.im + o.im)

    def __sub__(self, other) -> "ComplexRational":
        o = ComplexRational.from_value(other)
        return _cr(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "ComplexRational":
        return _cr(-self.re, -self.im)

    def __mul__(self, other) -> "ComplexRational":
        o = ComplexRational.from_value(other)
        return _cr(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not ComplexRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def conjugate(self) -> "ComplexRational":
        return _cr(self.re, -self.im)

    def abs2(self) -> int | Fraction:
        """Squared modulus, exactly."""
        return _exact(self.re * self.re + self.im * self.im)

    def reciprocal(self) -> "ComplexRational":
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("reciprocal of exact zero")
        return _cr(Fraction(self.re, d), Fraction(-self.im, d))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __repr__(self) -> str:
        return f"ComplexRational(re={Fraction(self.re)!r}, im={Fraction(self.im)!r})"

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


_set_re, _set_im = ComplexRational.re.__set__, ComplexRational.im.__set__


def _cr(re, im) -> ComplexRational:
    """ComplexRational of exact parts, uncoerced; an integral Fraction becomes an int."""
    z = object.__new__(ComplexRational)
    _set_re(z, re if type(re) is int or re.denominator != 1 else re.numerator)
    _set_im(z, im if type(im) is int or im.denominator != 1 else im.numerator)
    return z


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(1)

# k x n matrix of exact complex rationals (rows indexed by component).
Matrix = tuple[tuple[ComplexRational, ...], ...]


class LaurentPoly:
    """Sparse exact Laurent polynomial f : C^n -> C^k in normal form.

    n and k are integers >= 1 and every key of ``terms`` is a vector of n
    integers, each >= -1 (see _exponents): a float or bool count or exponent
    is refused, never truncated.  Instances are immutable by convention: no
    method mutates `terms` after construction, so values are safe to share
    across threads.  eval_grid caches the complex coefficients on first use.
    """

    __slots__ = ("n", "k", "terms", "_complex")
    pointwise = True  # eval_grid acts point by point (see quadrature)

    def __init__(self, n: int, k: int, terms: Mapping[Exponents, object]):
        if not _integral((n, k)) or n < 1 or k < 1:
            raise DimensionMismatch(f"need n >= 1 and k >= 1, both integers, got n={n!r}, k={k!r}")
        normalized: dict[Exponents, tuple[ComplexRational, ...]] = {}
        for exps, coeffs in terms.items():
            key = _exponents(exps, n)
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
        self.n, self.k, self.terms, self._complex = n, k, normalized, None

    @classmethod
    def _normal(cls, n: int, k: int, terms: dict) -> "LaurentPoly":
        """Trusted constructor, for terms already in the normal form of __init__."""
        poly = object.__new__(cls)
        poly.n, poly.k, poly.terms, poly._complex = n, k, terms, None
        return poly

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
        return cls._normal(n, k, {e: tuple(v) for e, v in merged.items()})

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
        return LaurentPoly._normal(self.n, self.k, {e: v for e, v in out.items() if any(v)})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._normal(
            self.n, self.k, {e: tuple(-c for c in v) for e, v in self.terms.items()}
        )

    def scale(self, factor) -> "LaurentPoly":
        f = ComplexRational.from_value(factor)
        terms = {e: tuple(c * f for c in v) for e, v in self.terms.items()} if f else {}
        return LaurentPoly._normal(self.n, self.k, terms)

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
        return self.terms.get(_exponents(exps, self.n), (CR_ZERO,) * self.k)

    def exponent_bounds(self) -> list[tuple[int, int]]:
        """Per-axis (min, max) of the term exponents; (0, 0) when f = 0."""
        if not self.terms:
            return [(0, 0)] * self.n
        return [(min(axis), max(axis)) for axis in zip(*self.terms)]

    # ----------------------------------------------------------- evaluation

    def eval_grid(self, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Evaluate all components on broadcastable coordinate arrays, term by
        term in the order of `terms`, each power coords[j] ** e taken once."""
        if len(coords) != self.n:
            raise DimensionMismatch(f"expected {self.n} coordinate arrays")
        if self._complex is None:
            self._complex = [
                (exps, [(alpha, complex(c)) for alpha, c in enumerate(vec) if c])
                for exps, vec in self.terms.items()
            ]
        powers: list[dict] = [{} for _ in coords]  # per axis: exponent -> power
        out: list = [None] * self.k
        for exps, row in self._complex:
            mono = None
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                p = powers[j].get(e)
                if p is None:
                    p = powers[j][e] = coords[j] ** e
                mono = p if mono is None else mono * p
            for alpha, c in row:
                term = c if mono is None else c * mono
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


def _pole_axis(exps: Exponents) -> int | None:
    """The axis of a term's pole, None for a term without one.  Raises
    MixedPoleTerm when a -1 exponent sits alongside any other nonzero one;
    such functions fall outside the class whose principal part is a
    constant-residue sum of single-coordinate poles."""
    if -1 not in exps:
        return None
    if exps.count(0) != len(exps) - 1:
        raise MixedPoleTerm(f"term {exps} mixes a pole with other nonzero exponents")
    return exps.index(-1)


def decompose(f: LaurentPoly) -> Decomposition:
    """Split f into constant, pure-pole and regular parts (raises
    MixedPoleTerm as _pole_axis does)."""
    n, k = f.n, f.k
    core = f.coefficient((0,) * n)
    principal: dict[Exponents, tuple[ComplexRational, ...]] = {}
    analytic: dict[Exponents, tuple[ComplexRational, ...]] = {}
    eta = [[CR_ZERO] * n for _ in range(k)]
    jac = [[CR_ZERO] * n for _ in range(k)]
    for exps, vec in f.terms.items():
        beta = _pole_axis(exps)
        if beta is not None:
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
        principal=LaurentPoly._normal(n, k, principal),
        analytic=LaurentPoly._normal(n, k, analytic),
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
    svec = _exponents(s, f.n)
    if not conjugate:
        return f.coefficient(tuple(-x - 1 for x in svec))
    factor = _scale_sq(lam) ** (sum(svec) + f.n)
    return tuple(c.conjugate() * factor for c in f.coefficient(tuple(x + 1 for x in svec)))


def inner_product_exact(f: LaurentPoly, g: LaurentPoly, lam=1) -> ComplexRational:
    """<f, g> on the product of circles of radius lam, conjugate-linear in f.

    Distinct monomials are orthogonal under the boundary average, so the
    pairing is the diagonal sum conj(c^f_a) . c^g_a . lam^(2*sum(a)).
    """
    f._check_shape(g)
    lam2 = _scale_sq(lam)
    pairs: dict[int, ComplexRational] = {}
    for exps, fvec in f.terms.items():
        gvec = g.terms.get(exps)
        if gvec is not None:
            d = sum(exps)
            pairs[d] = sum((a.conjugate() * b for a, b in zip(fvec, gvec)), pairs.get(d, CR_ZERO))
    return sum((pair * lam2**d for d, pair in pairs.items()), CR_ZERO)


def component_norm_sq(f: LaurentPoly, alpha: int, lam=1) -> int | Fraction:
    """<f_alpha, f_alpha> for a single component, exactly.  Raises ValueError
    for an index that is not an integer (see _integral) and DimensionMismatch
    for one outside 0..k-1."""
    if not _integral((alpha,)):
        raise ValueError(f"component index {alpha!r} is not an integer")
    if not 0 <= alpha < f.k:
        raise DimensionMismatch(f"component index {alpha} outside 0..{f.k - 1}")
    lam2 = _scale_sq(lam)
    energy: dict[int, int | Fraction] = {}
    for exps, vec in f.terms.items():
        d = sum(exps)
        energy[d] = energy.get(d, 0) + vec[alpha].abs2()
    return sum(e * lam2**d for d, e in energy.items())


# ------------------------------------------------------------------ variance


def variance_exact(f: LaurentPoly, lam=1) -> int | Fraction:
    """Exact variance of f on the radius-lam boundary torus.

    By monomial orthogonality this is the full coefficient energy away from
    the constant term: sum over a != 0 of |c_a|^2 lam^(2*sum(a)), which equals
    <f,f> - |c_0|^2.  Requires f to be decomposable (no mixed pole terms).
    """
    lam2 = _scale_sq(lam)
    energy: dict[int, int | Fraction] = {}
    for exps, vec in f.terms.items():
        _pole_axis(exps)  # raises MixedPoleTerm for out-of-class input
        if any(exps):
            d = sum(exps)
            energy[d] = energy.get(d, 0) + sum(c.abs2() for c in vec)
    return sum(e * lam2**d for d, e in energy.items())


def trace_norm_sq_exact(matrix: Matrix) -> int | Fraction:
    """Tr(M* M) as the exact sum of squared entry moduli."""
    return _exact(sum(c.abs2() for row in matrix for c in row))


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


def trace_norm_sq(matrix, lead: int = 0) -> float | np.ndarray:
    """Numeric counterpart of trace_norm_sq_exact: Tr(M* M) of a measured (or
    exact) matrix, or the squared norm of a vector, in floating point; one per
    matrix of a stack with ``lead`` leading axes, each summed as one flat run,
    so as that matrix alone is."""
    sq = np.abs(np.asarray(matrix, dtype=complex)) ** 2
    total = sq.reshape(sq.shape[:lead] + (-1,)).sum(axis=-1)
    return float(total) if lead == 0 else total


def variance_model(eta, jacobian, lam) -> float | np.ndarray:
    """Numeric counterpart of variance_model_exact for measured matrices; for
    a sequence of scales, one model per matrix pair of the stacks eta and
    jacobian, each scale squared by Python's float power as a lone one is."""
    lam2 = lam**2 if np.ndim(lam) == 0 else np.array([x**2 for x in lam], dtype=float)
    lead = np.ndim(lam2)
    return trace_norm_sq(eta, lead) / lam2 + lam2 * trace_norm_sq(jacobian, lead)
