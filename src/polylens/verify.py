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
"""

from __future__ import annotations

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


def _result(name: str, failures: list[str], cases: int) -> CheckResult:
    detail = "" if not failures else failures[0]
    return CheckResult(name=name, passed=not failures, cases=cases, detail=detail)


# ------------------------------------------------------------ random inputs


def _rand_cr(rng, bound: int = 3) -> ComplexRational:
    return ComplexRational(
        int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1))
    )


def _rand_nonzero_cr(rng, bound: int = 3) -> ComplexRational:
    while True:
        c = _rand_cr(rng, bound)
        if c:
            return c


def _unit_exps(n: int, beta: int, sign: int) -> tuple[int, ...]:
    e = [0] * n
    e[beta] = sign
    return tuple(e)


def _rand_tail_exps(rng, n: int) -> tuple[int, ...]:
    """Exponent vector of total degree between 2 and 4, all entries >= 0."""
    while True:
        exps = tuple(int(x) for x in rng.integers(0, 5, size=n))
        if 2 <= sum(exps) <= 4:
            return exps


def random_decomposable(rng, n=None, k=None, allow_tail: bool = True) -> LaurentPoly:
    """Random polynomial from the decomposable family: constant, single-pole,
    linear and (optionally) degree-2..4 tail terms; integer coefficients in
    [-3, 3] for both real and imaginary parts."""
    n = int(rng.integers(1, 4)) if n is None else n
    k = int(rng.integers(1, 3)) if k is None else k
    components = []
    for _ in range(k):
        terms: dict = {}
        if rng.random() < 0.8:
            terms[(0,) * n] = _rand_cr(rng)
        for beta in range(n):
            if rng.random() < 0.7:
                terms[_unit_exps(n, beta, -1)] = _rand_cr(rng)
            if rng.random() < 0.7:
                terms[_unit_exps(n, beta, 1)] = _rand_cr(rng)
        if allow_tail:
            for _ in range(int(rng.integers(0, 4))):
                terms[_rand_tail_exps(rng, n)] = _rand_cr(rng)
        components.append(LaurentPoly.scalar(n, terms))
    return LaurentPoly.from_components(components)


def random_tail(rng, n=None, k=None) -> LaurentPoly:
    """Random nonzero power series tail of minimum total degree 2."""
    n = int(rng.integers(1, 4)) if n is None else n
    k = int(rng.integers(1, 3)) if k is None else k
    components = []
    for _ in range(k):
        terms = {
            _rand_tail_exps(rng, n): _rand_nonzero_cr(rng)
            for _ in range(int(rng.integers(1, 5)))
        }
        components.append(LaurentPoly.scalar(n, terms))
    return LaurentPoly.from_components(components)


def random_matrices(rng, n: int, k: int, bound: int = 2):
    """Random exact (eta, jacobian) pair, both with nonzero trace norms."""
    while True:
        eta = tuple(tuple(_rand_cr(rng, bound) for _ in range(n)) for _ in range(k))
        jac = tuple(tuple(_rand_cr(rng, bound) for _ in range(n)) for _ in range(k))
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


def check_full_disc(seed: int = 0) -> CheckResult:
    failures = []
    for lam in (0.2, 1.0, 3.0):
        if slice_measure(Slice(lam, FULL_CIRCLE)) != 1.0:
            failures.append(f"full disc at radius {lam} != 1")
    return _result("full_disc_normalization", failures, 3)


def check_partition_additivity(seed: int, cases: int = 1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        m = int(rng.integers(0, 16))
        cuts = sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=m))
        bounds = [-math.pi] + cuts + [math.pi]
        total = sum(
            slice_measure(Slice(1.0, AngularInterval(a, b)))
            for a, b in zip(bounds, bounds[1:])
        )
        if abs(total - 1.0) > 1e-12:
            failures.append(f"case {i}: partition sums to {total!r}")
    return _result("partition_additivity", failures, cases)


def check_product_multiplicativity(seed: int, cases: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
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
            failures.append(f"case {i}: {direct!r} vs {via_arcs!r}")
    return _result("product_multiplicativity", failures, cases)


def check_semiring_closure(seed: int, cases: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
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
            failures.append(f"case {i}: closure shape violated")
            continue
        recomposed = inter.measure() + diff.measure()
        if abs(recomposed - slice_measure(sa)) > 1e-12:
            failures.append(f"case {i}: {recomposed!r} vs {slice_measure(sa)!r}")
    return _result("semiring_closure", failures, cases)


def check_arc_integrals(seed: int = 0) -> CheckResult:
    failures = []
    cases = [
        (AngularInterval(0.0, math.pi / 2), 1000, 0.25, 1e-6),
        (FULL_CIRCLE, 64, 1.0, 1e-12),
        (AngularInterval(-math.pi / 3, math.pi / 3), 1000, 1.0 / 3.0, 1e-6),
    ]
    for iv, n_pts, expected, tol in cases:
        for lam in (0.7, 1.0):
            value = arc_integral_check(Slice(lam, iv), n_pts)
            if abs(value.real - expected) > tol or abs(value.imag) > 1e-12:
                failures.append(f"arc over {iv} at {lam}: {value!r}")
    return _result("arc_integral_convergence", failures, len(cases) * 2)


def check_scale_invariance(seed: int, cases: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        a, b = sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=2))
        iv = AngularInterval(a, b)
        values = {slice_measure(Slice(lam, iv)) for lam in (0.3, 1.0, 2.5)}
        if len(values) != 1:
            failures.append(f"case {i}: measure depends on radius")
    return _result("measure_scale_invariance", failures, cases)


def check_monotonicity(seed: int, cases: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        a, b = sorted(float(x) for x in rng.uniform(-math.pi, math.pi, size=2))
        inner_a = float(rng.uniform(a, b))
        inner_b = float(rng.uniform(inner_a, b))
        outer = Slice(1.0, AngularInterval(a, b))
        inner = Slice(1.0, AngularInterval(inner_a, inner_b))
        if slice_measure(inner) > slice_measure(outer):
            failures.append(f"case {i}: monotonicity violated")
    return _result("measure_monotonicity", failures, cases)


# --------------------------------------------------------------- tail suite


def _tail_integral_shapes_exact(tail: LaurentPoly):
    """The six weighted boundary integrals that must vanish for a tail."""
    n = tail.n
    base = (-1,) * n
    yield "plain", exterior_integral(tail, base)
    yield "conj", exterior_integral(tail, base, conjugate=True)
    for delta in range(n):
        up = tuple(-1 + (1 if j == delta else 0) for j in range(n))
        down = tuple(-1 - (1 if j == delta else 0) for j in range(n))
        yield f"times_w{delta + 1}", exterior_integral(tail, up)
        yield f"conj_times_w{delta + 1}", exterior_integral(tail, up, conjugate=True)
        yield f"over_w{delta + 1}", exterior_integral(tail, down)
        yield f"conj_over_w{delta + 1}", exterior_integral(tail, down, conjugate=True)


def _tail_integral_shapes_numeric(tail: LaurentPoly, lam: float):
    n, k = tail.n, tail.k

    def wrap(fn):
        return GridFunction(n, k, fn)

    yield "plain", wrap(lambda c: tail.eval_grid(c))
    yield "conj", wrap(lambda c: [np.conj(v) for v in tail.eval_grid(c)])
    for delta in range(n):
        d = delta
        yield f"times_w{d + 1}", wrap(
            lambda c, d=d: [v * c[d] for v in tail.eval_grid(c)]
        )
        yield f"conj_times_w{d + 1}", wrap(
            lambda c, d=d: [np.conj(v) * c[d] for v in tail.eval_grid(c)]
        )
        yield f"over_w{d + 1}", wrap(
            lambda c, d=d: [v / c[d] for v in tail.eval_grid(c)]
        )
        yield f"conj_over_w{d + 1}", wrap(
            lambda c, d=d: [np.conj(v) / c[d] for v in tail.eval_grid(c)]
        )


def check_tail_integrals_vanish(seed: int, cases: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    lams = (0.8, 1.1)
    for i in range(cases):
        tail = random_tail(rng)
        for shape, value in _tail_integral_shapes_exact(tail):
            if any(value):
                failures.append(f"case {i}: exact {shape} integral is nonzero")
        lam = lams[i % len(lams)]
        for shape, fn in _tail_integral_shapes_numeric(tail, lam):
            value = expectation_numeric(fn, lam)
            if float(np.max(np.abs(value))) > 1e-9:
                failures.append(f"case {i}: numeric {shape} integral = {value!r}")
    return _result("tail_integrals_vanish", failures, cases)


def check_tail_self_energy(seed: int, cases: int = 60) -> CheckResult:
    """The conjugate-pairing tail integral equals the coefficient energy
    sum |c_a|^2 lam^(2 sum a) -- nonzero whenever the tail is, and exactly
    lam^4 for the one-variable square tail (documented erratum: the claimed
    universal vanishing does not hold)."""
    rng = np.random.default_rng(seed)
    failures = []
    for lam_exact in (Fraction(1, 2), Fraction(1), Fraction(17, 10)):
        sq = LaurentPoly.scalar(1, {(2,): 1})
        if component_norm_sq(sq, 0, lam_exact) != lam_exact**4:
            failures.append(f"square tail energy at {lam_exact} != lam^4")
        if not component_norm_sq(sq, 0, lam_exact):
            failures.append("square tail energy unexpectedly zero")
    for i in range(cases):
        tail = random_tail(rng)
        lam = 0.8 if i % 2 else 1.2
        fn = GridFunction(
            tail.n,
            tail.k,
            lambda c: [np.abs(v) ** 2 + 0j for v in tail.eval_grid(c)],
        )
        numeric = expectation_numeric(fn, lam)
        for alpha in range(tail.k):
            exact = float(component_norm_sq(tail, alpha, Fraction(lam)))
            if abs(float(numeric[alpha].real) - exact) > 1e-9 * max(1.0, exact):
                failures.append(
                    f"case {i} component {alpha}: {numeric[alpha]!r} vs {exact!r}"
                )
    return _result("tail_self_energy_nonzero", failures, cases)


# -------------------------------------------------------------- lemma suite


def check_component_expectations(seed: int, cases: int = 150) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        base = (-1,) * f.n
        for part, name in ((d.principal, "principal"), (d.analytic, "analytic")):
            if any(exterior_integral(part, base)):
                failures.append(f"case {i}: E({name}) != 0")
            if any(exterior_integral(part, base, conjugate=True, lam=Fraction(1, 2))):
                failures.append(f"case {i}: E(conj {name}) != 0")
    return _result("component_expectations_vanish", failures, cases)


def check_component_orthogonality(seed: int, cases: int = 150) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    lams = (Fraction(1, 2), Fraction(1), Fraction(2))
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        lam = lams[i % 3]
        if inner_product_exact(d.principal, d.analytic, lam) != CR_ZERO:
            failures.append(f"case {i}: <principal, analytic> != 0")
        if inner_product_exact(d.analytic, d.principal, lam) != CR_ZERO:
            failures.append(f"case {i}: <analytic, principal> != 0")
    return _result("component_orthogonality", failures, cases)


def check_component_norms(seed: int, cases: int = 150) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    lams = (Fraction(1, 2), Fraction(1), Fraction(17, 10))
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        lam = lams[i % 3]
        lam2 = lam * lam
        pp = inner_product_exact(d.principal, d.principal, lam)
        if pp.im != 0 or pp.re != trace_norm_sq_exact(d.eta) / lam2:
            failures.append(f"case {i}: principal norm mismatch")
        aa = inner_product_exact(d.analytic, d.analytic, lam)
        tail_energy = sum(
            (component_norm_sq(d.analytic, alpha, lam) for alpha in range(f.k)),
            Fraction(0),
        ) - lam2 * trace_norm_sq_exact(d.jacobian)
        if aa.im != 0 or aa.re != lam2 * trace_norm_sq_exact(d.jacobian) + tail_energy:
            failures.append(f"case {i}: analytic norm mismatch")
        if tail_energy < 0:
            failures.append(f"case {i}: negative tail energy")
        has_tail = any(sum(e) >= 2 for e in d.analytic.terms)
        if (tail_energy == 0) == has_tail:
            failures.append(f"case {i}: tail energy zero iff tail absent violated")
    return _result("component_norms", failures, cases)


# ------------------------------------------------------------- theorem suite


def check_exact_subclass_variance(seed: int, cases: int = 200) -> CheckResult:
    """On functions with no degree->=2 tail the measured variance equals the
    two-term closed form at every scale."""
    rng = np.random.default_rng(seed)
    failures = []
    exact_lams = (Fraction(3, 10), Fraction(1), Fraction(17, 10))
    for i in range(cases):
        f = random_decomposable(rng, allow_tail=False)
        d = decompose(f)
        for lam in exact_lams:
            if variance_exact(f, lam) != variance_model_exact(d.eta, d.jacobian, lam):
                failures.append(f"case {i}: exact equality fails at {lam}")
        for s in spectral_summaries(f, (0.3, 1.0, 1.7)):
            model = float(variance_model_exact(d.eta, d.jacobian, Fraction(s.lam)))
            if abs(s.variance - model) > 1e-9 * max(1.0, model):
                failures.append(f"case {i}: measured {s.variance!r} vs model {model!r}")
    return _result("exact_subclass_variance", failures, cases)


def check_variance_lower_bound_exact(seed: int, cases: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    lams = (Fraction(3, 10), Fraction(1), Fraction(2))
    for i in range(cases):
        f = random_decomposable(rng)
        d = decompose(f)
        lam = lams[i % 3]
        v = variance_exact(f, lam)
        model = variance_model_exact(d.eta, d.jacobian, lam)
        if v < model:
            failures.append(f"case {i}: variance below the closed form")
        has_tail = any(sum(e) >= 2 for e in d.analytic.terms)
        if (v == model) == has_tail:
            failures.append(f"case {i}: equality iff tail-free violated")
        # uncertainty floor, exactly: lam^2 * variance >= Tr(eta* eta)
        if lam * lam * v < trace_norm_sq_exact(d.eta):
            failures.append(f"case {i}: uncertainty floor violated")
    return _result("variance_lower_bound_exact", failures, cases)


def check_bound_sweep(seed: int, cases: int = 200, steps: int = 33) -> CheckResult:
    """lam^2 * measured variance stays above Tr(eta* eta) - 1e-9 across a
    geometric sweep, tails included."""
    rng = np.random.default_rng(seed)
    failures = []
    grid = geometric_grid(0.3, 3.0, steps)
    for i in range(cases):
        f = random_decomposable(rng)
        tr_eta = float(trace_norm_sq_exact(decompose(f).eta))
        for s in spectral_summaries(f, grid):
            if s.lam * s.lam * s.variance < tr_eta - 1e-9:
                failures.append(f"case {i}: floor broken at scale {s.lam:g}")
                break
    return _result("uncertainty_floor_sweep", failures, cases)


def check_oracle_equivalence(seed: int, cases: int = 200) -> CheckResult:
    """Every spectral-summary field agrees with the exact oracle within 1e-9."""
    rng = np.random.default_rng(seed)
    failures = []
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
                failures.append(f"case {i}: {name} differs from oracle")
        v_exact = float(variance_exact(f, Fraction(lam)))
        if abs(s.variance - v_exact) > 1e-9 * max(1.0, v_exact):
            failures.append(f"case {i}: variance differs from oracle")
        tail_exact = v_exact - float(
            variance_model_exact(d.eta, d.jacobian, Fraction(lam))
        )
        if abs(s.tail_energy - tail_exact) > 1e-9 * max(1.0, abs(tail_exact)):
            failures.append(f"case {i}: tail energy differs from oracle")
    return _result("oracle_equivalence", failures, cases)


def check_dft_exactness(seed: int, cases: int = 100) -> CheckResult:
    """Grid coefficients are exact to 1e-12 once the per-dimension exponent
    width fits under the grid size."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        f = random_decomposable(rng)
        lam = (0.5, 1.0, 1.3)[i % 3]
        grid = sample_torus(f, lam, 16)
        for exps in list(f.terms)[:6]:
            got = laurent_coefficient(grid, exps)
            want = matrix_to_complex([f.coefficient(exps)]).ravel()
            if float(np.max(np.abs(got - want))) > 1e-12:
                failures.append(f"case {i}: coefficient {exps} off")
        absent = tuple([5] + [0] * (f.n - 1))
        if float(np.max(np.abs(laurent_coefficient(grid, absent)))) > 1e-12:
            failures.append(f"case {i}: phantom coefficient at {absent}")
    return _result("dft_exactness", failures, cases)


def check_expectation_scale_independence(seed: int, cases: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        f = random_decomposable(rng)
        c_low = expectation_numeric(f, 0.3)
        c_high = expectation_numeric(f, 1.2)
        if float(np.max(np.abs(c_low - c_high))) > 1e-9:
            failures.append(f"case {i}: expectation drifts with scale")
    return _result("expectation_scale_independence", failures, cases)


def check_matrix_scale_independence(seed: int, cases: int = 100) -> CheckResult:
    """Residue and derivative matrices agree across scales within 1e-9."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        f = random_decomposable(rng)
        low, high = spectral_summaries(f, (0.3, 1.2))
        drift = max(
            float(np.max(np.abs(low.eta - high.eta))),
            float(np.max(np.abs(low.jacobian - high.jacobian))),
        )
        if drift > 1e-9:
            failures.append(f"case {i}: matrices drift by {drift:.3g}")
    return _result("matrix_scale_independence", failures, cases)


def _coordinate_functions(n: int):
    """z-bar, 1/z, z, 1/z-bar as grid evaluators with k = n components."""
    zbar = GridFunction(n, n, lambda c: [np.conj(c[j]) + 0j for j in range(n)])
    inv_z = GridFunction(n, n, lambda c: [1.0 / c[j] for j in range(n)])
    z = GridFunction(n, n, lambda c: [c[j] + 0j for j in range(n)])
    inv_zbar = GridFunction(n, n, lambda c: [1.0 / np.conj(c[j]) for j in range(n)])
    return zbar, inv_z, z, inv_zbar


def check_pairing_identities(seed: int, cases: int = 50) -> CheckResult:
    """<zbar, f> = lam^2 <1/z, f> = Tr(eta) and <z, f> = lam^2 <1/zbar, f> =
    lam^2 Tr(D) for k = n.  Note the lam^2 on the derivative side: the
    unscaled version of the second chain is dimensionally inconsistent
    (documented erratum) and is checked to actually differ at lam != 1."""
    rng = np.random.default_rng(seed)
    failures = []
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
                failures.append(f"case {i}: {name} off by {abs(got - want):.3g}")
    # erratum subtest: without the lam^2 the derivative-side chain fails
    f = LaurentPoly.scalar(1, {(1,): 1})  # Tr(D) = 1
    z = _coordinate_functions(1)[2]
    p = inner_product_numeric(z, f, 2.0)
    if abs(p - 4.0) > 1e-9:
        failures.append("erratum subtest: <z, w> at scale 2 should be 4")
    if abs(p - 1.0) < 0.1:
        failures.append("erratum subtest: unscaled pairing unexpectedly matched")
    return _result("pairing_identities", failures, cases)


def check_model_symmetry(seed: int, cases: int = 100) -> CheckResult:
    """The two-term model is symmetric about the optimal scale on a log axis:
    V(lam) = V(lam*^2 / lam)."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        eta, jac = random_matrices(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        tr_e = float(trace_norm_sq_exact(eta))
        tr_d = float(trace_norm_sq_exact(jac))
        lam = float(rng.uniform(0.2, 3.0))
        mirrored = math.sqrt(tr_e / tr_d) / lam
        v1 = tr_e / lam**2 + lam**2 * tr_d
        v2 = tr_e / mirrored**2 + mirrored**2 * tr_d
        if abs(v1 - v2) > 1e-9 * max(1.0, v1):
            failures.append(f"case {i}: model not symmetric about the optimum")
    return _result("model_symmetry", failures, cases)


def check_optimal_scale_reproduction(seed: int, cases: int = 50) -> CheckResult:
    """Empirical sweep minimizer matches [Tr(eta* eta)/Tr(D* D)]^(1/4) within
    1e-3 on the tail-free subclass."""
    rng = np.random.default_rng(seed)
    failures = []
    grid = geometric_grid(0.2, 5.0, 21)
    for i in range(cases):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        eta, jac = random_matrices(rng, n, k)
        core = tuple(_rand_cr(rng) for _ in range(k))
        f = poly_from_matrices(core, eta, jac)
        closed = optimal_scale(matrix_to_complex(eta), matrix_to_complex(jac))
        sweep = variance_sweep(f, grid)
        if abs(sweep.lambda_star_empirical - closed) > 1e-3:
            failures.append(
                f"case {i}: empirical {sweep.lambda_star_empirical!r} vs closed {closed!r}"
            )
    return _result("optimal_scale_reproduction", failures, cases)


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


def check_transform_1d(seed: int = 0) -> CheckResult:
    failures = []
    cases = 0
    for text in MORPHS_1D:
        morph = morph_validate(parse(text, 1), 0.25)
        for fn_text in FUNCTIONS_1D:
            cases += 1
            report = verify_transform(parse(fn_text, 1, var_letter="u"), morph)
            if not report.passed(1e-8):
                failures.append(
                    f"{fn_text} under {text}: residual {report.max_residual:.3g}"
                )
    return _result("transform_laws_1d", failures, cases)


def check_transform_2d(seed: int = 0) -> CheckResult:
    failures = []
    cases = 0
    for text in MORPHS_2D:
        morph = morph_validate(parse(text, 2), 0.25)
        for fn_text in FUNCTIONS_2D:
            cases += 1
            report = verify_transform(parse(fn_text, 2, var_letter="u"), morph)
            if not report.passed(1e-8):
                failures.append(
                    f"{fn_text} under {text}: residual {report.max_residual:.3g}"
                )
    return _result("transform_laws_2d", failures, cases)


def check_identity_morph(seed: int = 0) -> CheckResult:
    failures = []
    morph = morph_validate(parse("w", 1), 0.25)
    for fn_text in FUNCTIONS_1D:
        report = verify_transform(parse(fn_text, 1, var_letter="u"), morph)
        if report.max_residual > 1e-10:
            failures.append(f"identity residual {report.max_residual:.3g}")
    return _result("identity_morph", failures, len(FUNCTIONS_1D))


def check_pole_feedthrough(seed: int = 0) -> CheckResult:
    """The raw first-order coefficient of a full pullback overshoots the
    covariance prediction by exactly eta' a^2 / c^3 for the one-dimensional
    quadratic family: documents why the derivative law lives on the analytic
    component."""
    failures = []
    cases = 0
    for c, a in ((0.5, 0.25), (1.0, 0.25), (2.0, -0.25), (1.0, 0.25j)):
        cases += 1
        text = f"{c}*w + {a.real}*w^2" if isinstance(a, float) else f"{c}*w + {a.imag}i*w^2"
        morph = morph_validate(parse(text, 1), 0.25)
        shed = pole_feedthrough(parse("1/u", 1, var_letter="u"), morph)
        expected = a * a / c**3
        if abs(complex(shed[0, 0]) - expected) > 1e-9:
            failures.append(f"g={text}: shed {shed[0, 0]!r} vs {expected!r}")
        if a and abs(complex(shed[0, 0])) < 1e-3:
            failures.append(f"g={text}: feedthrough unexpectedly vanished")
    return _result("pole_feedthrough_quantified", failures, cases)


def check_composition(seed: int = 0) -> CheckResult:
    """Derivatives multiply under composition and the transform check agrees
    with sequential application."""
    failures = []
    pairs = [
        ("2*w", "w + 0.25*w^2"),
        ("i*w", "0.5*w - 0.25*w^2"),
        ("w + 0.25i*w^2", "2*w"),
    ]
    cases = 0
    for g_text, h_text in pairs:
        cases += 1
        g = morph_validate(parse(g_text, 1), 0.25)
        h = morph_validate(parse(h_text, 1), 0.25)
        hg = morph_validate(compose(h.components, g.components), 0.25)
        if float(np.max(np.abs(hg.jac - h.jac @ g.jac))) > 1e-10:
            failures.append(f"{h_text} o {g_text}: derivative product rule off")
        psi = parse("1/u + u", 1, var_letter="u")
        combined = verify_transform(psi, hg)
        if not combined.passed(1e-8):
            failures.append(f"{h_text} o {g_text}: combined residual")
    return _result("composition_consistency", failures, cases)


# ------------------------------------------------------------------- suites

SUITES: dict[str, list] = {
    "measure": [
        check_full_disc,
        lambda seed: check_partition_additivity(seed, 1000),
        lambda seed: check_product_multiplicativity(seed + 1, 100),
        lambda seed: check_semiring_closure(seed + 2, 200),
        check_arc_integrals,
        lambda seed: check_scale_invariance(seed + 3, 100),
        lambda seed: check_monotonicity(seed + 4, 200),
    ],
    "prop1": [
        lambda seed: check_tail_integrals_vanish(seed, 100),
        lambda seed: check_tail_self_energy(seed + 1, 60),
    ],
    "lemma": [
        lambda seed: check_component_expectations(seed, 150),
        lambda seed: check_component_orthogonality(seed + 1, 150),
        lambda seed: check_component_norms(seed + 2, 150),
    ],
    "theorem": [
        lambda seed: check_exact_subclass_variance(seed, 200),
        lambda seed: check_variance_lower_bound_exact(seed + 1, 200),
        lambda seed: check_bound_sweep(seed + 2, 200),
        lambda seed: check_oracle_equivalence(seed + 3, 200),
        lambda seed: check_dft_exactness(seed + 4, 100),
        lambda seed: check_expectation_scale_independence(seed + 5, 100),
        lambda seed: check_matrix_scale_independence(seed + 9, 100),
        lambda seed: check_pairing_identities(seed + 6, 50),
        lambda seed: check_model_symmetry(seed + 7, 100),
        lambda seed: check_optimal_scale_reproduction(seed + 8, 50),
    ],
    "morph": [
        check_transform_1d,
        check_transform_2d,
        check_identity_morph,
        check_pole_feedthrough,
        check_composition,
    ],
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite deterministically; raises KeyError for unknown names."""
    return [fn(seed) for fn in SUITES[name]]
