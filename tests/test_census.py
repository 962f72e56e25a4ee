"""The doubling loop against closed forms: two census families of in-class
inputs with a geometric pole term, every member either printed within its
est_error of the closed form or refused with a typed LensError.

1/w + w + 1/(a - w^m) at n = 1 and 1/w1 + w2 + 1/(a - (w1*w2)^m) at n = 2
expand, on the radius-lam torus with lam^(n m) < a, as the two monomials
plus (1/a) sum_{j>=0} (w^e / a)^j, e = m or (m, m).  No series term lands on
a monomial's exponent, so the core is 1/a, eta and D are those of the
monomials, and the variance is 1/lam^2 + lam^2 + a^-2 q/(1 - q) with
q = lam^(2 n m)/a^2.  These inputs divide by a non-monomial, so they have no
exponent range and take the doubling loop: grids at n = 1, rank-1 lattices
at n >= 2.  A third family, 1/w1 + 1/(b - w1...wn) at n = 2 and 3, decays
slowly, with ratios lam^n/b up to 0.98.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from gen_goldens import run_command
from polylens.errors import LensError
from polylens.expr import parse
from polylens.quadrature import spectral_summary

_A = (Fraction(3, 2), Fraction(2), Fraction(3))
_LAMS = (1.0, 0.9)
_FAMILIES = {
    1: ("1/w + w + 1/({a} - w^{m})", range(2, 130)),
    2: ("1/w1 + w2 + 1/({a} - (w1*w2)^{m})", range(1, 40)),
}


def _closed_form(n: int, m: int, a: Fraction, lam: float):
    """(core, eta, jacobian, variance) of a census member, exact in Fraction
    at the float scale lam."""
    lam = Fraction(lam)
    q = lam ** (2 * n * m) / a**2
    variance = 1 / lam**2 + lam**2 + q / (1 - q) / a**2
    unit = np.eye(n)
    return 1 / a, unit[:1], unit[-1:], variance


@pytest.mark.parametrize("n", sorted(_FAMILIES))
def test_census_is_within_est_error_or_refused(n):
    template, ms = _FAMILIES[n]
    cases = [(m, a, lam) for m in ms for a in _A for lam in _LAMS]
    misses, refused = [], []
    for m, a, lam in cases:
        text = template.format(a=float(a), m=m)
        try:
            s = spectral_summary(parse(text, n), lam)
        except LensError as exc:
            refused.append((text, lam, type(exc).__name__))
            continue
        core, eta, jac, variance = _closed_form(n, m, a, lam)
        gap = max(abs(s.core[0] - float(core)), np.max(np.abs(s.eta - eta)),
                  np.max(np.abs(s.jacobian - jac)), abs(Fraction(s.variance) - variance))
        if gap > s.est_error:
            misses.append((text, lam, float(gap), s.est_error))
    assert misses == []
    # the census is answered, not refused wholesale
    assert len(refused) <= len(cases) // 100, refused


def _slow_closed_form(n: int, b: Fraction, lam: float):
    """(core, eta, jacobian, variance) of 1/w1 + 1/(b - w1...wn), n >= 2:
    the series (1/b) sum_j (w1...wn / b)^j adds 1/b to the core and no unit
    exponent, and its variance b^-2 q/(1 - q), q = lam^(2n)/b^2."""
    lam = Fraction(lam)
    q = lam ** (2 * n) / b**2
    return 1 / b, np.eye(n)[:1], np.zeros((1, n)), 1 / lam**2 + q / (1 - q) / b**2


@pytest.mark.parametrize("n", [2, 3])
def test_slow_decay_is_within_est_error(n):
    # the series ratio lam^n/b runs up to 0.98, where the pair of grids N,
    # N - 1 printed 3 of these 100 inputs further from the closed form than
    # est_error (and refused 4 at n = 3): two lattices of other sizes and
    # vectors alias the slow tail differently, so their difference shows it
    product = "*".join(f"w{j + 1}" for j in range(n))
    cases = [(Fraction(100 + 2 * i, 100), lam) for i in range(1, 51) for lam in _LAMS]
    misses, refused = [], []
    for b, lam in cases:
        text = f"1/w1 + 1/({float(b)} - {product})"
        try:
            s = spectral_summary(parse(text, n), lam)
        except LensError as exc:
            refused.append((text, lam, type(exc).__name__))
            continue
        core, eta, jac, variance = _slow_closed_form(n, b, lam)
        gap = max(abs(s.core[0] - float(core)), np.max(np.abs(s.eta - eta)),
                  np.max(np.abs(s.jacobian - jac)), abs(Fraction(s.variance) - variance))
        if gap > s.est_error:
            misses.append((text, lam, float(gap), s.est_error))
    assert misses == []
    assert len(refused) <= len(cases) // 100, refused


@pytest.mark.parametrize("text,core,variance", [
    ("1/w + 1/(2 - w^64)", Fraction(1, 2), Fraction(13, 12)),
    ("1/w + w + 1/(3 - w^32)", Fraction(1, 3), 2 + Fraction(1, 72)),
])
def test_in_class_probes_print_their_closed_forms(text, core, variance):
    code, out = run_command(["analyze", "--expr", text, "--n", "1", "--lambda", "1", "--json"])
    doc = json.loads(out)
    assert code == 0
    assert abs(complex(*doc["core"][0]) - float(core)) <= doc["est_error"]
    assert abs(Fraction(doc["variance"]) - variance) <= doc["est_error"]
