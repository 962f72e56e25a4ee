"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All randomized criteria are seeded and deterministic.
"""

import numpy as np

import polylens.verify as V
from _corpus import MALFORMED_CASES, VALID_CASES
from gen_goldens import COMMANDS, GOLDEN_DIR
from polylens.cli import main
from polylens.errors import AdmissibilityViolation, NotLaurent, ParseError
from polylens.expr import parse, to_laurent, to_text
from polylens.verify import CheckResult

SEED = 7


def _report(label: str, results: list) -> None:
    ok = all(r.passed for r in results)
    cases = sum(r.cases for r in results)
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({cases} cases)")
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]


def test_criterion_01_measure_suite():
    """Full-disc normalization exact; 1000 random partitions additive to
    1e-12; product multiplicativity on 100 random 2- and 3-factor cases."""
    results = [
        V.check_full_disc(),
        V.check_partition_additivity(SEED),
        V.check_product_multiplicativity(SEED + 1),
    ]
    _report("01 measure suite", results)


def test_criterion_02_closed_form_variance():
    """200 random pole-plus-linear functions (n <= 3, k <= 2): measured
    variance equals Tr(eta* eta)/s^2 + s^2 Tr(D* D) within 1e-9 at three
    scales."""
    _report("02 closed-form variance", [V.check_exact_subclass_variance(SEED)])


def test_criterion_03_uncertainty_floor():
    """200 random functions including degree->=2 tails: s^2 * variance stays
    above Tr(eta* eta) - 1e-9 across a 33-point sweep."""
    _report("03 uncertainty floor", [V.check_bound_sweep(SEED)])


def test_criterion_04_optimal_scale():
    """50 random matrix pairs with nonzero traces: empirical sweep minimizer
    matches the closed form within 1e-3 on the tail-free subclass."""
    _report("04 optimal scale", [V.check_optimal_scale_reproduction(SEED)])


def test_criterion_05_oracle_equivalence():
    """Every summary field matches the exact oracle within 1e-9 on 200 random
    instances; grid coefficients exact to 1e-12 under the width condition."""
    results = [
        V.check_oracle_equivalence(SEED),
        V.check_dft_exactness(SEED + 1),
    ]
    _report("05 oracle equivalence", results)


def test_criterion_06_tail_integrals():
    """All six weighted tail integrals vanish (exactly in the oracle, within
    1e-9 numerically) on 100 random degree->=2 tails; the conjugate-pairing
    self-integral instead equals the coefficient energy, s^4 for the
    one-variable square tail (documented erratum)."""
    results = [
        V.check_tail_integrals_vanish(SEED),
        V.check_tail_self_energy(SEED + 1),
    ]
    _report("06 tail integrals", results)


def test_criterion_07_transformation_laws():
    """Residue contravariance and derivative covariance within 1e-8 over the
    12x3 one-dimensional family and the 6x2 diagonal-dominant family."""
    results = [V.check_transform_1d(SEED), V.check_transform_2d(SEED)]
    assert sum(r.cases for r in results) == 12 * 3 + 6 * 2
    _report("07 transformation laws", results)


def test_criterion_08_pairing_identities():
    """<zbar,f> = s^2 <1/z,f> = Tr(eta) and <z,f> = s^2 <1/zbar,f> =
    s^2 Tr(D) within 1e-9 on 50 random k = n instances, with the scale
    placement on the derivative side checked as a documented erratum."""
    _report("08 pairing identities", [V.check_pairing_identities(SEED)])


def test_criterion_09_parser():
    """100-case round-trip corpus, 30-case malformed corpus with exact error
    offsets, and numeric/exact evaluation agreement at random torus points."""
    failures = []
    assert len(VALID_CASES) >= 100 and len(MALFORMED_CASES) >= 30
    for text, n in VALID_CASES:
        first = parse(text, n)
        if parse(to_text(first), n).components != first.components:
            failures.append(f"round trip broke for {text!r}")
    for text, n, offset in MALFORMED_CASES:
        try:
            parse(text, n)
            failures.append(f"{text!r} unexpectedly parsed")
        except ParseError as exc:
            if exc.offset != offset:
                failures.append(f"{text!r}: offset {exc.offset} != {offset}")
    rng = np.random.default_rng(SEED)
    agreement_points = 0
    for text, n in VALID_CASES:
        expr = parse(text, n)
        try:
            exact = to_laurent(expr)
        except (NotLaurent, AdmissibilityViolation, ZeroDivisionError):
            continue
        for _ in range(2):
            point = [np.exp(2j * np.pi * float(rng.random())) for _ in range(n)]
            got = expr.eval_at(point)
            want = exact.eval_at(point)
            scale = max(1.0, max(abs(v) for v in want))
            if any(abs(a - b) > 1e-12 * scale for a, b in zip(got, want)):
                failures.append(f"{text!r} disagrees with its exact form")
            agreement_points += 1
    result = CheckResult(
        name="parser",
        passed=not failures and agreement_points >= 100,
        cases=len(VALID_CASES) + len(MALFORMED_CASES) + agreement_points,
        detail=failures[0] if failures else "",
    )
    _report("09 parser", [result])


def test_criterion_10_cli(capsys, golden_run):
    """Golden-file byte equality for the documented commands and the
    five-way exit-code contract."""
    failures = []
    for name, argv in COMMANDS.items():
        code, text = golden_run(argv)
        if code != 0:
            failures.append(f"{name}: exit {code}")
        elif text != (GOLDEN_DIR / name).read_text():
            failures.append(f"{name}: output drifted from golden file")
    exit_checks = [
        (["analyze", "--expr", "1/w + w", "--n", "1", "--lambda", "1"], 0),
        (["verify", "--suite", "nosuch"], 1),
        (["analyze", "--expr", "1/w +", "--n", "1", "--lambda", "1"], 2),
        (["analyze", "--expr", "1/(w1+w2)", "--n", "2", "--lambda", "1"], 3),
    ]
    for argv, expected in exit_checks:
        got = main(argv)
        capsys.readouterr()
        if got != expected:
            failures.append(f"{argv}: exit {got} != {expected}")
    # exit 4: a failing invariant inside a verify suite
    original = V.SUITES["measure"]
    V.SUITES["measure"] = [
        lambda seed: CheckResult(name="forced_failure", passed=False, cases=1)
    ]
    try:
        got = main(["verify", "--suite", "measure"])
        capsys.readouterr()
        if got != 4:
            failures.append(f"verification failure exit {got} != 4")
    finally:
        V.SUITES["measure"] = original
    result = CheckResult(
        name="cli",
        passed=not failures,
        cases=len(COMMANDS) + len(exit_checks) + 1,
        detail=failures[0] if failures else "",
    )
    _report("10 cli contract", [result])
