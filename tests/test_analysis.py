"""Scale-analysis tests: sweeps, optimal scale, detectability."""

import math

import numpy as np
import pytest

from _grids import recorded_grids
from polylens.analysis import (
    CLASS_TOL,
    DRIFT_TOL,
    Degenerate,
    ZERO_JACOBIAN,
    ZERO_RESIDUE,
    detectability_check,
    empirical_optimal_scale,
    geometric_grid,
    optimal_scale,
    variance_sweep,
)
from polylens.errors import InconsistentScales
from polylens.expr import parse
from polylens.quadrature import spectral_summaries, spectral_summary


class TestSweep:
    def test_pole_plus_linear_values(self):
        sweep = variance_sweep(parse("1/w + w", 1), [0.5, 1.0, 2.0])
        assert sweep.variance == pytest.approx([4.25, 2.0, 4.25], abs=1e-10)
        assert sweep.lambda_star_closed == pytest.approx(1.0, abs=1e-9)

    def test_pure_pole_saturates_floor(self):
        sweep = variance_sweep(parse("1/w", 1), [0.5, 1.0])
        for lam, v in zip(sweep.lambdas, sweep.variance):
            assert lam**2 * v == pytest.approx(1.0, abs=1e-10)
        assert all(abs(g) < 1e-9 for g in sweep.bound_gap)

    def test_constant_is_flat(self):
        sweep = variance_sweep(parse("5", 1), [0.5, 1.0, 2.0])
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in sweep.variance)
        assert sweep.lambda_star_closed == ZERO_JACOBIAN

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            variance_sweep(parse("w", 1), [1.0, 0.5])
        with pytest.raises(ValueError):
            variance_sweep(parse("w", 1), [])

    def test_matrices_reported_from_smallest_scale(self):
        sweep = variance_sweep(parse("2/w + 3*w", 1), [0.4, 0.9, 1.6])
        assert sweep.eta[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert sweep.jacobian[0, 0] == pytest.approx(3.0, abs=1e-9)

    def test_scale_dependent_coefficients_rejected(self):
        # pole at 0.4: residue matrices differ below and above that radius
        with pytest.raises(InconsistentScales):
            variance_sweep(parse("1/(w-0.4)", 1), [0.3, 0.35, 0.5])

    def test_drift_within_the_reads_error_is_accepted(self):
        # a Laurent polynomial, in the class: its matrices drift by up to
        # 6.7e-8 between scales, above max(1e-9, 100 * tol), and within the
        # reads' est_error of 284 to 938
        f = parse("100000000/w + 100000000*w", 1)
        lams = geometric_grid(0.3, 2.0, 9)
        summaries = spectral_summaries(f, lams)
        drift = max(abs(s.eta[0, 0] - summaries[0].eta[0, 0]) for s in summaries)
        assert drift > 1e-8 and min(s.est_error for s in summaries) > 100
        sweep = variance_sweep(f, lams)
        assert sweep.lambda_star_closed == pytest.approx(1.0, abs=1e-9)
        assert sweep.lambda_star_empirical == pytest.approx(1.0, abs=1e-3)


class TestOptimalScale:
    def test_balanced(self):
        assert optimal_scale([[1]], [[1]]) == pytest.approx(1.0)
        # Tr(D* D) = 1e-20 is not zero beside Tr(eta* eta) = 1e-20
        assert optimal_scale([[1e-10]], [[1e-10]]) == pytest.approx(1.0)

    def test_plugin_value(self):
        assert optimal_scale([[1]], [[2]]) == pytest.approx(0.25**0.25)
        assert optimal_scale([[1]], [[2]]) == pytest.approx(0.7071067811865476)

    def test_degeneracies_are_values(self):
        assert optimal_scale([[1]], [[0]]) == ZERO_JACOBIAN
        assert optimal_scale([[0]], [[1]]) == ZERO_RESIDUE
        assert optimal_scale([[1e-10]], [[0]]) == ZERO_JACOBIAN
        assert optimal_scale([[0]], [[1e-10]]) == ZERO_RESIDUE
        assert isinstance(optimal_scale([[0]], [[0]]), Degenerate)

    @pytest.mark.parametrize("text,closed", [
        ("0.0000000001/w + 0.0000000001*w", pytest.approx(1.0)),
        ("0.0000000001/w", ZERO_JACOBIAN),
    ])
    def test_sweep_outcome_does_not_depend_on_units(self, text, closed):
        sweep = variance_sweep(parse(text, 1), geometric_grid(0.5, 2.0, 9))
        assert sweep.lambda_star_closed == closed

    def test_string_rendering(self):
        assert str(ZERO_JACOBIAN) == "Degenerate(ZeroJacobian)"
        assert str(ZERO_RESIDUE) == "Degenerate(ZeroResidue)"


class TestEmpiricalScale:
    def test_balanced_pole_linear(self):
        sweep = variance_sweep(parse("1/w + w", 1), geometric_grid(0.25, 4.0, 17))
        assert abs(sweep.lambda_star_empirical - 1.0) <= 1e-3

    def test_weighted(self):
        sweep = variance_sweep(parse("1/w + 2*w", 1), geometric_grid(0.2, 3.0, 17))
        assert abs(sweep.lambda_star_empirical - 0.7071) <= 1e-3

    def test_tail_shifts_the_minimum(self):
        # variance is 1/s^2 + s^4, minimized at (1/2)^(1/6): the closed form
        # degenerates (no linear term) while the measured optimum is finite
        sweep = variance_sweep(parse("1/w + w^2", 1), geometric_grid(0.3, 3.0, 17))
        assert sweep.lambda_star_closed == ZERO_JACOBIAN
        assert abs(sweep.lambda_star_empirical - 0.5 ** (1 / 6)) <= 1e-3

    def test_boundary_minimum_returned_unrefined(self):
        sweep = variance_sweep(parse("1/w", 1), [0.5, 1.0, 2.0])
        assert sweep.lambda_star_empirical == 2.0

    def test_needs_three_points(self):
        sweep = variance_sweep(parse("1/w + w", 1), [0.5, 2.0])
        with pytest.raises(ValueError):
            empirical_optimal_scale(sweep)


class TestDetectability:
    def test_pure_pole(self):
        report = detectability_check(parse("1/w", 1), [0.3, 0.7, 1.2])
        assert report.is_detectable
        assert report.expectation_drift <= 1e-10
        assert report.in_class

    def test_affine(self):
        report = detectability_check(parse("3 + w", 1), [0.5, 1.0])
        assert report.is_detectable
        assert report.max_variance == pytest.approx(1.0, abs=1e-10)

    def test_off_centre_pole_not_in_class(self):
        report = detectability_check(parse("1/(w-0.4)", 1), [0.5, 1.0])
        assert not report.is_detectable
        assert not report.in_class
        assert report.reason == "NotInClass"

    def test_pole_on_probed_torus_not_in_class(self):
        report = detectability_check(parse("1/(w-0.5)", 1), [0.5, 1.0])
        assert not report.is_detectable
        assert report.reason == "NotInClass"

    def test_analytic_rational_is_detectable(self):
        report = detectability_check(parse("1/(w-2)", 1), [0.5, 1.0])
        assert report.is_detectable
        assert report.in_class

    def test_each_probe_scale_samples_its_grid_once(self):
        # the order -2 probe is read from the summary's grids, the doubling
        # loop's grids N and N - 1 of each scale
        with recorded_grids() as recorded:
            report = detectability_check(parse("1/w1 + 2*w2 + 1/(3 - w1*w2)", 2), [0.5, 0.9])
        assert report.is_detectable and report.in_class
        grids = [(g.lam, g.N) for g in recorded]
        assert {lam for lam, _ in grids} == {0.5, 0.9}
        assert len(grids) == len(set(grids))

    def test_out_of_class_first_probe_samples_no_later_probe(self):
        # 1/(w - 0.4) has order -2 coefficient 0.4 on the radius-0.5 torus
        with recorded_grids() as grids:
            report = detectability_check(parse("1/(w-0.4)", 1), [0.5, 1.0, 2.0])
        assert report.reason == "NotInClass" and not report.in_class
        scales = [g.lam for g in grids]
        assert scales and set(scales) == {0.5}

    def test_pole_on_the_second_probe_torus(self):
        # 1/(w - 1) is in the class on the radius-0.5 torus, and has its pole
        # on the unit one
        report = detectability_check(parse("1/(w-1)", 1), [0.5, 1.0])
        assert report.reason == "NotInClass" and not report.in_class
        assert not report.is_detectable and report.max_variance == float("inf")

    @pytest.mark.parametrize("text,reason,drift", [
        # order -2 coefficient 5e-9 and 2e-8 about CLASS_TOL = 1e-8
        ("1/w + 0.000000005/w^2", None, 0.0),
        ("1/w + 0.00000002/w^2", "NotInClass", None),
        # c/(w - 0.7) has expectation 0 at 0.5 and c/(-0.7) at 1.0: drifts of
        # 4.3e-9 and 4.3e-10 about DRIFT_TOL = 1e-9
        ("0.000000003/(w - 0.7)", "ExpectationDrift", 3e-9 / 0.7),
        ("0.0000000003/(w - 0.7)", None, 3e-10 / 0.7),
    ])
    def test_thresholds_at_their_boundaries(self, text, reason, drift):
        assert (CLASS_TOL, DRIFT_TOL) == (1e-8, 1e-9)
        report = detectability_check(parse(text, 1), [0.5, 1.0])
        assert report.reason == reason
        assert report.is_detectable == (reason is None)
        assert report.in_class == (reason != "NotInClass")
        if drift is not None:
            # the tiny values meet the tolerance on the first grids, whose
            # aliases leave a relative error of about 3e-5 in the drift
            assert report.expectation_drift == pytest.approx(drift, rel=1e-3, abs=1e-15)

    def test_drift_is_the_largest_gap_of_any_two_probes(self):
        # c/(w - 0.7) has expectation 0 inside the pole's radius and -c/0.7
        # outside it: the widest pair is not the first and last probe
        f = parse("0.000000003/(w - 0.7)", 1)
        probes = [0.5, 1.0, 0.6]
        report = detectability_check(f, probes)
        cores = [spectral_summary(f, lam).core for lam in probes]
        assert report.expectation_drift == max(
            float(np.max(np.abs(a - b))) for a in cores for b in cores)
        assert report.expectation_drift > 4e-9

    def test_drift_within_the_reads_error_is_detectable(self):
        # a Laurent polynomial, in the class: its expectations drift by 2.9e-8
        # between probes, above DRIFT_TOL, and within the reads' est_error of
        # 999 to 2712
        f = parse("100000000 + 100000000/w + 100000000*w + 100000000*w^2", 1)
        report = detectability_check(f, [0.5, 1.0, 1.7])
        assert report.is_detectable and report.in_class and report.reason is None
        assert report.expectation_drift > DRIFT_TOL

    def test_needs_two_probes(self):
        with pytest.raises(ValueError):
            detectability_check(parse("w", 1), [1.0])


class TestGeometricGrid:
    def test_endpoints_and_midpoint(self):
        grid = geometric_grid(0.25, 4.0, 33)
        assert grid[0] == 0.25
        assert grid[-1] == 4.0
        assert grid[16] == pytest.approx(1.0, rel=1e-15)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_grid(1.0, 0.5, 9)
        with pytest.raises(ValueError):
            geometric_grid(0.5, 1.0, 2)

    @pytest.mark.parametrize("lam_min,lam_max", [
        (0.5, math.inf), (0.5, math.nan), (math.nan, 1.0), (0.0, 1.0), (-math.inf, 1.0),
    ])
    def test_ends_must_be_positive_and_finite(self, lam_min, lam_max):
        with pytest.raises(ValueError, match="need 0 < lam_min < lam_max < inf"):
            geometric_grid(lam_min, lam_max, 3)

    def test_ratio_must_not_overflow(self):
        # both ends finite, but their ratio is not: the grid would hold inf
        with pytest.raises(ValueError, match="overflows"):
            geometric_grid(1e-200, 1e200, 3)


def test_model_symmetry_about_optimum():
    tr_eta, tr_jac = 3.0, 7.0
    star = (tr_eta / tr_jac) ** 0.25
    for lam in (0.3, 0.9, 2.4):
        mirrored = star**2 / lam
        v = tr_eta / lam**2 + lam**2 * tr_jac
        v_m = tr_eta / mirrored**2 + mirrored**2 * tr_jac
        assert v == pytest.approx(v_m, rel=1e-12)
