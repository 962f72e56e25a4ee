"""Randomized property suites pairing the exact oracle with the numerical
engine; the CLI `verify` command and the acceptance tests run these.

Every check is deterministic given its seed.  Suite names are part of the CLI
contract:

* ``measure``  - slice measure: normalization, additivity, products, arcs.
* ``prop1``    - vanishing boundary integrals of degree->=2 tails, and the
  tail self-energy, which is nonzero (documented erratum: the claimed
  vanishing of the conjugate-pairing integral fails for tails sharing one
  variable with equal degrees).
* ``lemma``    - component expectations, orthogonality and norms of the
  core/principal/analytic split.
* ``theorem``  - the two-term variance decomposition: exact on the tail-free
  subclass, a lower bound with tail energy in general; the uncertainty floor;
  oracle/quadrature equivalence; pairing identities; the optimal scale.
* ``morph``    - tensor transformation laws under coordinate changes.

Each check is a generator body(rng, cases) under the
``_check(name, cases, suite, offset=0)`` decorator, which states the check's
result name, fixed case count, suite and the offset it adds to the suite seed
once.  The decorated ``check_*(seed=0)`` seeds ``rng`` with ``seed``, runs the
body and returns a CheckResult: passed when the body yields nothing, else
failed with the first yielded message as its detail.  ``SUITES`` lists each
suite's checks in definition order, each reached through its module-level
name, so a wrapper set on that name applies.

The random inputs (random_decomposable, random_tail, random_matrices) draw
each polynomial's term flags, tail counts, tail exponents and integer
coefficients, or each matrix pair's entries, in a few batched rng calls, and
build the polynomial with the trusted LaurentPoly._normal.  A tail exponent
is a uniform index into the per-n table of exponent vectors in [0, 4]^n of
total degree 2 to 4 (_tail_exps), which is the law of drawing from [0, 4]^n
until the degree fits.  So the family and each term's probability are
fixed, but which cases a seed draws depends on the order of the draws: the
batched draws give each seed other cases than the earlier draws of one
scalar at a time did, with the same case counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import geometric_grid, optimal_scale, variance_sweep
from .expr import parse
from .laurent import (
    CR_ZERO,
    ComplexRational,
    LaurentPoly,
    component_norm_sq,
    decompose,
    exterior_integral,
    inner_product_exact,
    matrix_to_complex,
    trace_norm_sq_exact,
    variance_exact,
    variance_model_exact,
)
from .morphs import compose, morph_validate, pole_feedthrough, verify_transform
from .quadrature import (
    GridFunction,
    expectation_numeric,
    inner_product_numeric,
    laurent_coefficient,
    sample_torus,
    spectral_summaries,
    spectral_summary,
)
from .slices import (
    FULL_CIRCLE,
    AngularInterval,
    Slice,
    arc_integral_check,
    product_measure,
    slice_intersect,
    slice_measure,
    slice_subtract,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


# Each suite's checks as run(seed) callables, filled in by _check.
SUITES: dict[str, list] = {}


def _check(name: str, cases: int, suite: str, offset: int = 0):
    """Turn a body(rng, cases) that yields one message per failure into a
    check(seed=0) -> CheckResult named ``name`` over ``cases`` cases, and
    append to ``SUITES[suite]`` a run(seed) that calls the check by its
    module-level name at ``seed + offset``."""

    def decorate(body):
        def check(seed: int = 0) -> CheckResult:
            failures = list(body(np.random.default_rng(seed), cases))
            return CheckResult(name, not failures, cases, failures[0] if failures else "")

        check.__name__, check.__doc__ = body.__name__, body.__doc__
        SUITES.setdefault(suite, []).append(lambda seed: globals()[body.__name__](seed + offset))
        return check

    return decorate


# ------------------------------------------------------------ random inputs


_COEFF_BOUND = 3  # real and imaginary parts of a drawn coefficient lie in [-3, 3]

# The nonzero coefficients, as (re, im) pairs, for random_tail.
_NONZERO = [(re, im) for re in range(-_COEFF_BOUND, _COEFF_BOUND + 1)
            for im in range(-_COEFF_BOUND, _COEFF_BOUND + 1) if re or im]


def _unit_exps(n: int, beta: int, sign: int) -> tuple[int, ...]:
    e = [0] * n
    e[beta] = sign
    return tuple(e)


@functools.cache
def _tail_exps(n: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors in [0, 4]^n of total degree 2 to 4, each entry
    the multiplicity of its axis in a multiset of 2 to 4 axes.  A uniform
    index into them is a uniform draw from [0, 4]^n kept only at those
    degrees."""
    return tuple(
        tuple(axes.count(j) for j in range(n))
        for degree in range(2, 5)
        for axes in itertools.combinations_with_replacement(range(n), degree)
    )


def _poly(n: int, k: int, components) -> LaurentPoly:
    """The k-component polynomial whose component alpha holds the terms of
    components[alpha], pairs (exponents, (re, im)) of ints in which a later
    pair replaces an earlier one of the same exponents; all-zero
    coefficient vectors are dropped."""
    merged: dict = {}
    for alpha, pairs in enumerate(components):
        for exps, (re, im) in dict(pairs).items():
            if re or im:
                merged.setdefault(exps, [CR_ZERO] * k)[alpha] = ComplexRational(re, im)
    return LaurentPoly._normal(n, k, {e: tuple(v) for e, v in merged.items()})


def random_decomposable(rng, n=None, k=None, allow_tail: bool = True) -> LaurentPoly:
    """Random polynomial from the decomposable family: per component a
    constant term with probability 0.8, each pole and each linear term with
    probability 0.7, and (optionally) 0 to 3 tail terms of total degree 2
    to 4 (see _tail_exps); integer coefficients in [-3, 3] for both real and
    imaginary parts.  Each component's draws are made in a few batched rng
    calls."""
    n = int(rng.integers(1, 4)) if n is None else n
    k = int(rng.integers(1, 3)) if k is None else k
    slots = [(0,) * n] + [_unit_exps(n, beta, sign) for beta in range(n) for sign in (-1, 1)]
    table = _tail_exps(n)
    chance = np.array([0.8] + [0.7] * (2 * n))
    kept = (rng.random((k, len(slots))) < chance).tolist()
    parts = rng.integers(-_COEFF_BOUND, _COEFF_BOUND + 1, size=(k, len(slots) + 3, 2)).tolist()
    tails = rng.integers(0, 4, size=k).tolist() if allow_tail else [0] * k
    picks = rng.integers(0, len(table), size=(k, 3)).tolist()
    return _poly(n, k, [
        [(e, c) for e, keep, c in zip(slots, kept[alpha], parts[alpha]) if keep]
        + [(table[i], c) for i, c in zip(picks[alpha][: tails[alpha]], parts[alpha][len(slots):])]
        for alpha in range(k)
    ])


def random_tail(rng, n=None, k=None) -> LaurentPoly:
    """Random nonzero power series tail of minimum total degree 2: per
    component 1 to 4 terms (see _tail_exps) with nonzero coefficients drawn
    uniformly from those of random_decomposable."""
    n = int(rng.integers(1, 4)) if n is None else n
    k = int(rng.integers(1, 3)) if k is None else k
    table = _tail_exps(n)
    counts = rng.integers(1, 5, size=k).tolist()
    picks = rng.integers(0, len(table), size=(k, 4)).tolist()
    coeffs = rng.integers(0, len(_NONZERO), size=(k, 4)).tolist()
    return _poly(n, k, [
        [(table[i], _NONZERO[c]) for i, c in zip(picks[alpha], coeffs[alpha])][: counts[alpha]]
        for alpha in range(k)
    ])


def _rand_crs(rng, bound: int, *shape: int) -> tuple:
    """Nested tuples of the given shape of ComplexRational whose real and
    imaginary parts are integers drawn uniformly from [-bound, bound], all
    in one rng call."""

    def nest(parts):
        return ComplexRational(*parts) if isinstance(parts[0], int) else tuple(map(nest, parts))

    return nest(rng.integers(-bound, bound + 1, size=shape + (2,)).tolist())


def random_matrices(rng, n: int, k: int):
    """Random exact (eta, jacobian) pair, both with nonzero trace norms and
    entries of real and imaginary parts in [-2, 2], each pair drawn in one
    rng call."""
    while True:
        eta, jac = _rand_crs(rng, 2, 2, k, n)
        if trace_norm_sq_exact(eta) and trace_norm_sq_exact(jac):
            return eta, jac


def poly_from_matrices(core, eta, jacobian) -> LaurentPoly:
    """Assemble f = core + sum eta_b / w_b + sum D_b w_b (no tail)."""
    k = len(eta)
    n = len(eta[0])
    terms: dict = {(0,) * n: tuple(core)}
    for beta in range(n):
        terms[_unit_exps(n, beta, -1)] = tuple(eta[alpha][beta] for alpha in range(k))
        terms[_unit_exps(n, beta, 1)] = tuple(jacobian[alpha][beta] for alpha in range(k))
    return LaurentPoly(n, k, terms)


# ------------------------------------------------------------- measure suite

_DISC_RADII = (0.2, 1.0, 3.0)

# (arc, quadrature points, expected measure, tolerance), each at _ARC_RADII
_ARCS = [
    (AngularInterval(0.0, math.pi / 2), 1000, 0.25, 1e-6),
    (FULL_CIRCLE, 64, 1.0, 1e-12),
    (AngularInterval(-math.pi / 3, math.pi / 3), 1000, 1.0 / 3.0, 1e-6),
]
_ARC_RADII = (0.7, 1.0)


@_check("full_disc_normalization", len(_DISC_RADII), "measure")
def check_full_disc(rng, cases):
    for lam in _DISC_RADII:
        if slice_measure(Slice(lam, FULL_CIRCLE)) != 1.0:
            yield f"full disc at radius {lam} != 1"


@_check("partition_additivity", 1000, "measure")
def check_partition_additivity(rng, cases):
    for i in range(cases):
        m = int(rng.integers(0, 16))
        cuts = sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=m))
        bounds = [-math.pi] + cuts + [math.pi]
        total = sum(
            slice_measure(Slice(1.0, AngularInterval(a, b)))
            for a, b in zip(bounds, bounds[1:])
        )
        if abs(total - 1.0) > 1e-12:
            yield f"case {i}: partition sums to {total!r}"


@_check("product_multiplicativity", 100, "measure", 1)
def check_product_multiplicativity(rng, cases):
    for i in range(cases):
        m = int(rng.integers(2, 4))
        factors = []
        for _ in range(m):
            a, b = sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=2))
            factors.append(Slice(1.0, AngularInterval(a, b)))
        direct = product_measure(factors)
        # independent route: each factor measure from the quadrature of the
        # defining arc integral
        via_arcs = 1.0
        for s in factors:
            via_arcs *= arc_integral_check(s, 256).real
        if abs(direct - via_arcs) > 1e-12:
            yield f"case {i}: {direct!r} vs {via_arcs!r}"


@_check("semiring_closure", 200, "measure", 2)
def check_semiring_closure(rng, cases):
    for i in range(cases):
        (a1, b1), (a2, b2) = (
            sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=2)),
            sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=2)),
        )
        sa = Slice(1.0, AngularInterval(a1, b1))
        sb = Slice(1.0, AngularInterval(a2, b2))
        inter = slice_intersect(sa, sb)
        diff = slice_subtract(sa, sb)
        if len(inter.components) > 1 or len(diff.components) > 2:
            yield f"case {i}: closure shape violated"
            continue
        recomposed = inter.measure() + diff.measure()
        if abs(recomposed - slice_measure(sa)) > 1e-12:
            yield f"case {i}: {recomposed!r} vs {slice_measure(sa)!r}"


@_check("arc_integral_convergence", len(_ARCS) * len(_ARC_RADII), "measure")
def check_arc_integrals(rng, cases):
    for iv, n_pts, expected, tol in _ARCS:
        for lam in _ARC_RADII:
            value = arc_integral_check(Slice(lam, iv), n_pts)
            if abs(value.real - expected) > tol or abs(value.imag) > 1e-12:
                yield f"arc over {iv} at {lam}: {value!r}"


@_check("measure_scale_invariance", 100, "measure", 3)
def check_scale_invariance(rng, cases):
    for i in range(cases):
        a, b = sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=2))
        iv = AngularInterval(a, b)
        values = {slice_measure(Slice(lam, iv)) for lam in (0.3, 1.0, 2.5)}
        if len(values) != 1:
            yield f"case {i}: measure depends on radius"


@_check("measure_monotonicity", 200, "measure", 4)
def check_monotonicity(rng, cases):
    for i in range(cases):
        a, b = sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=2))
        inner_a = float(rng.uniform(a, b))
        inner_b = float(rng.uniform(inner_a, b))
        outer = Slice(1.0, AngularInterval(a, b))
        inner = Slice(1.0, AngularInterval(inner_a, inner_b))
        if slice_measure(inner) > slice_measure(outer):
            yield f"case {i}: monotonicity violated"


# --------------------------------------------------------------- tail suite


def _tail_shapes(n: int) -> list[tuple[str, bool, int | None, int]]:
    """The six families of weighted boundary integrals that must vanish for a
    tail in n variables, as (name, conjugated, axis d of the factor w_d^step
    or None, step): the tail or its conjugate, alone or times w_d or 1/w_d."""
    shapes = [("plain", False, None, 0), ("conj", True, None, 0)]
    for d in range(n):
        shapes += [
            (f"times_w{d + 1}", False, d, 1),
            (f"conj_times_w{d + 1}", True, d, 1),
            (f"over_w{d + 1}", False, d, -1),
            (f"conj_over_w{d + 1}", True, d, -1),
        ]
    return shapes


def _tail_integral_shapes_exact(tail: LaurentPoly):
    """The integrals of _tail_shapes, by the exact oracle: the factor w_d^step
    adds step to the weight -1 on axis d."""
    for name, conj, d, step in _tail_shapes(tail.n):
        weight = tuple(-1 + (step if j == d else 0) for j in range(tail.n))
        yield name, exterior_integral(tail, weight, conjugate=conj)


def _tail_integral_shapes_numeric(tail: LaurentPoly) -> tuple[list[str], GridFunction]:
    """The integrands of _tail_shapes, in its order, as the shape names and
    one evaluator holding k components per shape.

    On the radius-lam torus conj(w^a) = lam^(2a) w^(-a), so a conjugate
    negates the tail's exponent range [lo, hi], and a factor w_d or 1/w_d
    shifts axis d by +1 or -1.  Every axis carries both shifts of the tail
    and of its conjugate, so the evaluator declares the hull
    [min(lo, -hi) - 1, max(hi, -lo) + 1] on each axis."""
    shapes = _tail_shapes(tail.n)

    def fn(c):
        values = tail.eval_grid(c)
        conjugates = [np.conj(v) for v in values]
        out = []
        for _, conj, d, step in shapes:
            for v in conjugates if conj else values:
                out.append(v if d is None else v * c[d] if step > 0 else v / c[d])
        return out

    hull = tuple((min(lo, -hi) - 1, max(hi, -lo) + 1) for lo, hi in tail.exponent_bounds())
    return [shape[0] for shape in shapes], GridFunction(tail.n, tail.k * len(shapes), fn, hull)


@_check("tail_integrals_vanish", 100, "prop1")
def check_tail_integrals_vanish(rng, cases):
    lams = (0.8, 1.1)
    for i in range(cases):
        tail = random_tail(rng)
        for shape, value in _tail_integral_shapes_exact(tail):
            if any(value):
                yield f"case {i}: exact {shape} integral is nonzero"
        lam = lams[i % len(lams)]
        names, fn = _tail_integral_shapes_numeric(tail)
        values = expectation_numeric(fn, lam)
        for s, shape in enumerate(names):
            value = values[s * tail.k : (s + 1) * tail.k]
            if float(np.max(np.abs(value))) > 1e-9:
                yield f"case {i}: numeric {shape} integral = {value!r}"


def _tail_self_energy_numeric(tail: LaurentPoly) -> GridFunction:
    """|v|^2 for each component v of a tail.  It is conj(v) * v, so its
    range is [lo - hi, hi - lo] on each axis of the tail's range."""
    return GridFunction(
        tail.n,
        tail.k,
        lambda c: [np.abs(v) ** 2 + 0j for v in tail.eval_grid(c)],
        tuple((lo - hi, hi - lo) for lo, hi in tail.exponent_bounds()),
    )


@_check("tail_self_energy_nonzero", 60, "prop1", 1)
def check_tail_self_energy(rng, cases):
    """The conjugate-pairing tail integral equals the coefficient energy
    sum |c_a|^2 lam^(2 sum a) -- nonzero whenever the tail is, and exactly
    lam^4 for the one-variable square tail (documented erratum: the claimed
    universal vanishing does not hold)."""
    for lam_exact in (Fraction(1, 2), Fraction(1), Fraction(17, 10)):
        sq = LaurentPoly.scalar(1, {(2,): 1})
        if component_norm_sq(sq, 0, lam_exact) != lam_exact**4:
            yield f"square tail energy at {lam_exact} != lam^4"
        if not component_norm_sq(sq, 0, lam_exact):
            yield "square tail energy unexpectedly zero"
    for i in range(cases):
        tail = random_tail(rng)
        lam = 0.8 if i % 2 else 1.2
        numeric = expectation_numeric(_tail_self_energy_numeric(tail), lam)
        for alpha in range(tail.k):
            exact = float(component_norm_sq(tail, alpha, Fraction(lam)))
            if abs(float(numeric[alpha].real) - exact) > 1e-9 * max(1.0, exact):
                yield f"case {i} component {alpha}: {numeric[alpha]!r} vs {exact!r}"


# -------------------------------------------------------------- lemma suite


@_check("component_expectations_vanish", 150, "lemma")
def check_component_expectations(rng, cases):
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        base = (-1,) * f.n
        for part, name in ((d.principal, "principal"), (d.analytic, "analytic")):
            if any(exterior_integral(part, base)):
                yield f"case {i}: E({name}) != 0"
            if any(exterior_integral(part, base, conjugate=True, lam=Fraction(1, 2))):
                yield f"case {i}: E(conj {name}) != 0"


@_check("component_orthogonality", 150, "lemma", 1)
def check_component_orthogonality(rng, cases):
    lams = (Fraction(1, 2), Fraction(1), Fraction(2))
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        lam = lams[i % 3]
        if inner_product_exact(d.principal, d.analytic, lam) != CR_ZERO:
            yield f"case {i}: <principal, analytic> != 0"
        if inner_product_exact(d.analytic, d.principal, lam) != CR_ZERO:
            yield f"case {i}: <analytic, principal> != 0"


@_check("component_norms", 150, "lemma", 2)
def check_component_norms(rng, cases):
    lams = (Fraction(1, 2), Fraction(1), Fraction(17, 10))
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        lam = lams[i % 3]
        lam2 = lam * lam
        pp = inner_product_exact(d.principal, d.principal, lam)
        if pp.im != 0 or pp.re != trace_norm_sq_exact(d.eta) / lam2:
            yield f"case {i}: principal norm mismatch"
        aa = inner_product_exact(d.analytic, d.analytic, lam)
        tail_energy = sum(
            (component_norm_sq(d.analytic, alpha, lam) for alpha in range(f.k)),
            Fraction(0),
        ) - lam2 * trace_norm_sq_exact(d.jacobian)
        if aa.im != 0 or aa.re != lam2 * trace_norm_sq_exact(d.jacobian) + tail_energy:
            yield f"case {i}: analytic norm mismatch"
        if tail_energy < 0:
            yield f"case {i}: negative tail energy"
        has_tail = any(sum(e) >= 2 for e in d.analytic.terms)
        if (tail_energy == 0) == has_tail:
            yield f"case {i}: tail energy zero iff tail absent violated"


# ------------------------------------------------------------- theorem suite


@_check("exact_subclass_variance", 200, "theorem")
def check_exact_subclass_variance(rng, cases):
    """On functions with no degree->=2 tail the measured variance equals the
    two-term closed form at every scale."""
    exact_lams = (Fraction(3, 10), Fraction(1), Fraction(17, 10))
    for i in range(cases):
        f = random_decomposable(rng, allow_tail=False)
        d = decompose(f)
        for lam in exact_lams:
            if variance_exact(f, lam) != variance_model_exact(d.eta, d.jacobian, lam):
                yield f"case {i}: exact equality fails at {lam}"
        for s in spectral_summaries(f, (0.3, 1.0, 1.7)):
            model = float(variance_model_exact(d.eta, d.jacobian, Fraction(s.lam)))
            if abs(s.variance - model) > 1e-9 * max(1.0, model):
                yield f"case {i}: measured {s.variance!r} vs model {model!r}"


@_check("variance_lower_bound_exact", 200, "theorem", 1)
def check_variance_lower_bound_exact(rng, cases):
    lams = (Fraction(3, 10), Fraction(1), Fraction(2))
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        lam = lams[i % 3]
        v = variance_exact(f, lam)
        model = variance_model_exact(d.eta, d.jacobian, lam)
        if v < model:
            yield f"case {i}: variance below the closed form"
        has_tail = any(sum(e) >= 2 for e in d.analytic.terms)
        if (v == model) == has_tail:
            yield f"case {i}: equality iff tail-free violated"
        # uncertainty floor, exactly: lam^2 * variance >= Tr(eta* eta)
        if lam * lam * v < trace_norm_sq_exact(d.eta):
            yield f"case {i}: uncertainty floor violated"


@_check("uncertainty_floor_sweep", 200, "theorem", 2)
def check_bound_sweep(rng, cases):
    """lam^2 * measured variance stays above Tr(eta* eta) - 1e-9 across a
    33-point geometric sweep, tails included."""
    grid = geometric_grid(0.3, 3.0, 33)
    for i in range(cases):
        f = random_decomposable(rng)
        tr_eta = float(trace_norm_sq_exact(decompose(f).eta))
        for s in spectral_summaries(f, grid):
            if s.lam * s.lam * s.variance < tr_eta - 1e-9:
                yield f"case {i}: floor broken at scale {s.lam:g}"
                break


@_check("oracle_equivalence", 200, "theorem", 3)
def check_oracle_equivalence(rng, cases):
    """Every spectral-summary field agrees with the exact oracle within 1e-9."""
    for i in range(cases):
        f = random_decomposable(rng)
        lam = (0.3, 1.0, 1.7)[i % 3]
        s = spectral_summary(f, lam)
        d = decompose(f)
        checks = [
            ("core", s.core, matrix_to_complex([d.core]).ravel()),
            ("eta", s.eta, matrix_to_complex(d.eta)),
            ("jacobian", s.jacobian, matrix_to_complex(d.jacobian)),
        ]
        for name, got, want in checks:
            if float(np.max(np.abs(got - want))) > 1e-9:
                yield f"case {i}: {name} differs from oracle"
        v_exact = float(variance_exact(f, Fraction(lam)))
        if abs(s.variance - v_exact) > 1e-9 * max(1.0, v_exact):
            yield f"case {i}: variance differs from oracle"
        tail_exact = v_exact - float(
            variance_model_exact(d.eta, d.jacobian, Fraction(lam))
        )
        if abs(s.tail_energy - tail_exact) > 1e-9 * max(1.0, abs(tail_exact)):
            yield f"case {i}: tail energy differs from oracle"


@_check("dft_exactness", 100, "theorem", 4)
def check_dft_exactness(rng, cases):
    """Grid coefficients are exact to 1e-12 once the per-dimension exponent
    width fits under the grid size."""
    for i in range(cases):
        f = random_decomposable(rng)
        lam = (0.5, 1.0, 1.3)[i % 3]
        grid = sample_torus(f, lam, 16)
        for exps in list(f.terms)[:6]:
            got = laurent_coefficient(grid, exps)
            want = matrix_to_complex([f.coefficient(exps)]).ravel()
            if float(np.max(np.abs(got - want))) > 1e-12:
                yield f"case {i}: coefficient {exps} off"
        absent = tuple([5] + [0] * (f.n - 1))
        if float(np.max(np.abs(laurent_coefficient(grid, absent)))) > 1e-12:
            yield f"case {i}: phantom coefficient at {absent}"


@_check("expectation_scale_independence", 100, "theorem", 5)
def check_expectation_scale_independence(rng, cases):
    for i in range(cases):
        f = random_decomposable(rng)
        c_low = expectation_numeric(f, 0.3)
        c_high = expectation_numeric(f, 1.2)
        if float(np.max(np.abs(c_low - c_high))) > 1e-9:
            yield f"case {i}: expectation drifts with scale"


@_check("matrix_scale_independence", 100, "theorem", 9)
def check_matrix_scale_independence(rng, cases):
    """Residue and derivative matrices agree across scales within 1e-9."""
    for i in range(cases):
        f = random_decomposable(rng)
        low, high = spectral_summaries(f, (0.3, 1.2))
        drift = max(
            float(np.max(np.abs(low.eta - high.eta))),
            float(np.max(np.abs(low.jacobian - high.jacobian))),
        )
        if drift > 1e-9:
            yield f"case {i}: matrices drift by {drift:.3g}"


def _coordinate_functions(n: int):
    """z-bar, 1/z, z, 1/z-bar as grid evaluators with k = n components.
    Component j of each is w_j^(+-1) on the radius-lam torus, up to a power
    of lam (conj(w_j) = lam^2 / w_j), so each range is [-1, 0] or [0, 1] on
    every axis."""
    below, above = ((-1, 0),) * n, ((0, 1),) * n
    zbar = GridFunction(n, n, lambda c: [np.conj(c[j]) + 0j for j in range(n)], below)
    inv_z = GridFunction(n, n, lambda c: [1.0 / c[j] for j in range(n)], below)
    z = GridFunction(n, n, lambda c: [c[j] + 0j for j in range(n)], above)
    inv_zbar = GridFunction(n, n, lambda c: [1.0 / np.conj(c[j]) for j in range(n)], above)
    return zbar, inv_z, z, inv_zbar


@_check("pairing_identities", 50, "theorem", 6)
def check_pairing_identities(rng, cases):
    """<zbar, f> = lam^2 <1/z, f> = Tr(eta) and <z, f> = lam^2 <1/zbar, f> =
    lam^2 Tr(D) for k = n.  Note the lam^2 on the derivative side: the
    unscaled version of the second chain is dimensionally inconsistent
    (documented erratum) and is checked to actually differ at lam != 1."""
    for i in range(cases):
        n = int(rng.integers(1, 4))
        f = random_decomposable(rng, n=n, k=n)
        d = decompose(f)
        tr_eta = complex(sum((d.eta[j][j] for j in range(n)), CR_ZERO))
        tr_jac = complex(sum((d.jacobian[j][j] for j in range(n)), CR_ZERO))
        lam = (0.5, 1.0, 2.0)[i % 3]
        zbar, inv_z, z, inv_zbar = _coordinate_functions(n)
        p_zbar = inner_product_numeric(zbar, f, lam)
        p_invz = inner_product_numeric(inv_z, f, lam)
        p_z = inner_product_numeric(z, f, lam)
        p_invzbar = inner_product_numeric(inv_zbar, f, lam)
        scale = max(1.0, abs(tr_eta), abs(tr_jac) * lam**2)
        for got, want, name in (
            (p_zbar, tr_eta, "<zbar,f> = Tr(eta)"),
            (lam**2 * p_invz, tr_eta, "lam^2 <1/z,f> = Tr(eta)"),
            (p_z, lam**2 * tr_jac, "<z,f> = lam^2 Tr(D)"),
            (lam**2 * p_invzbar, lam**2 * tr_jac, "lam^2 <1/zbar,f> = lam^2 Tr(D)"),
        ):
            if abs(got - want) > 1e-9 * scale:
                yield f"case {i}: {name} off by {abs(got - want):.3g}"
    # erratum subtest: without the lam^2 the derivative-side chain fails
    f = LaurentPoly.scalar(1, {(1,): 1})  # Tr(D) = 1
    z = _coordinate_functions(1)[2]
    p = inner_product_numeric(z, f, 2.0)
    if abs(p - 4.0) > 1e-9:
        yield "erratum subtest: <z, w> at scale 2 should be 4"
    if abs(p - 1.0) < 0.1:
        yield "erratum subtest: unscaled pairing unexpectedly matched"


@_check("model_symmetry", 100, "theorem", 7)
def check_model_symmetry(rng, cases):
    """The two-term model is symmetric about the optimal scale on a log axis:
    V(lam) = V(lam*^2 / lam)."""
    for i in range(cases):
        eta, jac = random_matrices(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        tr_e = float(trace_norm_sq_exact(eta))
        tr_d = float(trace_norm_sq_exact(jac))
        lam = float(rng.uniform(0.2, 3.0))
        mirrored = math.sqrt(tr_e / tr_d) / lam
        v1 = tr_e / lam**2 + lam**2 * tr_d
        v2 = tr_e / mirrored**2 + mirrored**2 * tr_d
        if abs(v1 - v2) > 1e-9 * max(1.0, v1):
            yield f"case {i}: model not symmetric about the optimum"


@_check("optimal_scale_reproduction", 50, "theorem", 8)
def check_optimal_scale_reproduction(rng, cases):
    """Empirical sweep minimizer matches [Tr(eta* eta)/Tr(D* D)]^(1/4) within
    1e-3 on the tail-free subclass."""
    grid = geometric_grid(0.2, 5.0, 21)
    for i in range(cases):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        eta, jac = random_matrices(rng, n, k)
        core = _rand_crs(rng, _COEFF_BOUND, k)
        f = poly_from_matrices(core, eta, jac)
        closed = optimal_scale(matrix_to_complex(eta), matrix_to_complex(jac))
        sweep = variance_sweep(f, grid)
        if abs(sweep.lambda_star_empirical - closed) > 1e-3:
            yield f"case {i}: empirical {sweep.lambda_star_empirical!r} vs closed {closed!r}"


# --------------------------------------------------------------- morph suite

# 12 one-dimensional changes c*w + a*w^2 and three one-pole test functions.
MORPHS_1D = [
    f"{c}*w + {a}" if a else f"{c}*w"
    for c in ("0.5", "1", "2", "i")
    for a in ("", "0.25*w^2", "0.25i*w^2")
]
FUNCTIONS_1D = ["1/u", "(1+2i)/u + 3*u", "2/u + u + u^2"]

# 6 two-dimensional diagonal-dominant changes and two test functions.
MORPHS_2D = [
    "w1, w2",
    "w1 + w1*w2/4, 2*w2",
    "2*w1 + w1^2/4, w2 + w2*w1/4",
    "i*w1 + w1*w2^2/8, w2 - w2^2/8",
    "w1 - w1*w2/4 + w1^2*w2/8, 3*w2 + w2*w1/2",
    "w1 + i*w1*w2/4, w2 + w2*w1^2/4",
]
FUNCTIONS_2D = ["1/u1 + 1/u2 + u1 + 2*u2", "(1+i)/u1 + u2 + u1*u2"]

# (c, a) of the one-dimensional quadratic changes g = c*w + a*w^2.
_FEEDTHROUGH_MORPHS = [(0.5, 0.25), (1.0, 0.25), (2.0, -0.25), (1.0, 0.25j)]

# (g, h) pairs whose composition h o g is checked.
_COMPOSITIONS = [
    ("2*w", "w + 0.25*w^2"),
    ("i*w", "0.5*w - 0.25*w^2"),
    ("w + 0.25i*w^2", "2*w"),
]


def _transform_laws(n: int, morphs, functions, tol: float):
    """One case per (morph, function) pair: the transform laws hold within tol."""
    for text in morphs:
        morph = morph_validate(parse(text, n))
        for fn_text in functions:
            report = verify_transform(parse(fn_text, n, var_letter="u"), morph)
            if not report.passed(tol):
                yield f"{fn_text} under {text}: residual {report.max_residual:.3g}"


@_check("transform_laws_1d", len(MORPHS_1D) * len(FUNCTIONS_1D), "morph")
def check_transform_1d(rng, cases):
    return _transform_laws(1, MORPHS_1D, FUNCTIONS_1D, 1e-8)


@_check("transform_laws_2d", len(MORPHS_2D) * len(FUNCTIONS_2D), "morph")
def check_transform_2d(rng, cases):
    return _transform_laws(2, MORPHS_2D, FUNCTIONS_2D, 1e-8)


@_check("identity_morph", len(FUNCTIONS_1D), "morph")
def check_identity_morph(rng, cases):
    return _transform_laws(1, ["w"], FUNCTIONS_1D, 1e-10)


@_check("pole_feedthrough_quantified", len(_FEEDTHROUGH_MORPHS), "morph")
def check_pole_feedthrough(rng, cases):
    """The raw first-order coefficient of a full pullback overshoots the
    covariance prediction by exactly eta' a^2 / c^3 for the one-dimensional
    quadratic family: documents why the derivative law lives on the analytic
    component."""
    for c, a in _FEEDTHROUGH_MORPHS:
        text = f"{c}*w + {a.real}*w^2" if isinstance(a, float) else f"{c}*w + {a.imag}i*w^2"
        morph = morph_validate(parse(text, 1))
        shed = pole_feedthrough(parse("1/u", 1, var_letter="u"), morph)
        expected = a * a / c**3
        if abs(complex(shed[0, 0]) - expected) > 1e-9:
            yield f"g={text}: shed {shed[0, 0]!r} vs {expected!r}"
        if a and abs(complex(shed[0, 0])) < 1e-3:
            yield f"g={text}: feedthrough unexpectedly vanished"


@_check("composition_consistency", len(_COMPOSITIONS), "morph")
def check_composition(rng, cases):
    """Derivatives multiply under composition and the transform check agrees
    with sequential application."""
    for g_text, h_text in _COMPOSITIONS:
        g = morph_validate(parse(g_text, 1))
        h = morph_validate(parse(h_text, 1))
        hg = morph_validate(compose(h.components, g.components))
        if float(np.max(np.abs(hg.jac - h.jac @ g.jac))) > 1e-10:
            yield f"{h_text} o {g_text}: derivative product rule off"
        psi = parse("1/u + u", 1, var_letter="u")
        combined = verify_transform(psi, hg)
        if not combined.passed(1e-8):
            yield f"{h_text} o {g_text}: combined residual"


# ------------------------------------------------------------------- suites


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite deterministically; raises KeyError for unknown names."""
    return [fn(seed) for fn in SUITES[name]]
