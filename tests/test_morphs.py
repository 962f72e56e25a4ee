"""Coordinate-change tests: validation, pullback, transformation laws."""

import numpy as np
import pytest

from _grids import recorded_grids, recorded_reads
from polylens.errors import (
    DimensionMismatch,
    NotDiagonalDominant,
    NotFixingOrigin,
    NotPolynomial,
    SingularJacobian,
    VanishesOnTorus,
)
from polylens import morphs, quadrature
from polylens.expr import parse, to_text
from polylens.morphs import (
    compose,
    morph_validate,
    pole_feedthrough,
    pullback,
    verify_transform,
)


class TestValidation:
    def test_linear_scaling(self):
        m = morph_validate(parse("2*w", 1), 0.5)
        assert m.jac[0, 0] == pytest.approx(2.0)
        assert m.jac_inv[0, 0] == pytest.approx(0.5)

    def test_singular_square(self):
        with pytest.raises(SingularJacobian):
            morph_validate(parse("w^2", 1), 0.5)

    def test_zero_map_is_singular(self):
        with pytest.raises(SingularJacobian):
            morph_validate(parse("w - w", 1), 0.5)

    def test_must_fix_origin(self):
        with pytest.raises(NotFixingOrigin):
            morph_validate(parse("w + 1", 1), 0.5)

    def test_must_be_polynomial(self):
        with pytest.raises(NotPolynomial):
            morph_validate(parse("1/w", 1), 0.5)
        with pytest.raises(NotPolynomial):
            morph_validate(parse("w + 1/(w-2)", 1), 0.5)
        with pytest.raises(NotPolynomial):
            morph_validate(parse("w + w^-2", 1), 0.5)

    def test_internal_errors_are_not_wrapped(self, monkeypatch):
        def broken(g):
            raise TypeError("unknown node")

        monkeypatch.setattr(morphs, "to_laurent", broken)
        with pytest.raises(TypeError, match="unknown node"):
            morph_validate(parse("2*w", 1), 0.5)

    def test_vanishing_on_torus(self):
        # w - 4 w^2 has a zero at 0.25, exactly on the radius-1/4 circle
        with pytest.raises(VanishesOnTorus):
            morph_validate(parse("w - 4*w^2", 1), 0.25)

    def test_component_count(self):
        with pytest.raises(DimensionMismatch):
            morph_validate(parse("w1", 2), 0.25)

    def test_diagonal_dominance_certificate(self):
        with pytest.raises(NotDiagonalDominant):
            morph_validate(parse("w1 + w2, w2", 2), 0.25)
        with pytest.raises(NotDiagonalDominant):
            morph_validate(parse("w1 + 8*w1*w2, w2", 2), 0.25)
        m = morph_validate(parse("w1 + w1*w2, w2", 2), 0.25)
        assert m.jac[0, 0] == pytest.approx(1.0)

    def test_diagonal_jacobian_for_dominant_family(self):
        m = morph_validate(parse("w1 + w1*w2/4, 2*w2", 2), 0.25)
        assert np.allclose(m.jac, np.diag([1.0, 2.0]))


class TestPullback:
    def test_linear(self):
        g = morph_validate(parse("2*w", 1), 0.5)
        pulled = pullback(parse("1/u", 1, var_letter="u"), g)
        assert pulled.eval_at([0.25]) == (pytest.approx(2.0),)
        assert to_text(pulled) == "1/(2*w1)"

    def test_identity_on_linear_function(self):
        g = morph_validate(parse("2*w", 1), 0.5)
        pulled = pullback(parse("u", 1, var_letter="u"), g)
        assert pulled.eval_at([0.3]) == (pytest.approx(0.6),)

    def test_nonlinear_divisor(self):
        g = morph_validate(parse("w + w^2/4", 1), 0.5)
        pulled = pullback(parse("1/u", 1, var_letter="u"), g)
        w = 0.2
        assert pulled.eval_at([w]) == (pytest.approx(1 / (w + w * w / 4)),)

    def test_dimension_check(self):
        g = morph_validate(parse("2*w", 1), 0.5)
        with pytest.raises(DimensionMismatch):
            pullback(parse("u1 + u2", 2, var_letter="u"), g)


def _closure_pullback(pulled, g, eta_p):
    """Reference: the analytic pullback as a plain callable, evaluated the
    way the expression tree evaluates it."""
    def fn(coords):
        pv, gv = pulled.eval_grid(coords), g.components.eval_grid(coords)
        out = []
        for alpha in range(pulled.k):
            value = pv[alpha].astype(complex)
            for gamma in range(g.n):
                if eta_p[alpha, gamma] != 0:
                    value = value - eta_p[alpha, gamma] / gv[gamma]
            out.append(value)
        return out

    return quadrature.GridFunction(g.n, pulled.k, fn)


class TestAnalyticPart:
    """jac_direct is the derivative matrix of the pullback's analytic part,
    taken by linearity from the one read of the pullback: D_raw - eta' K."""

    @pytest.mark.parametrize("text,n,psi_text,ranged", [
        ("2*w", 1, "(1+2i)/u + 3*u", True),
        ("w + 0.25*w^2", 1, "(1+2i)/u + 3*u", False),
        ("w1 + w1*w2/4, 2*w2", 2, "1/u1 + 1/u2 + u1 + 2*u2", False),
        ("w1, w2", 2, "(1+i)/u1 + u2 + u1*u2", True),
    ])
    def test_agrees_with_the_closure(self, text, n, psi_text, ranged):
        # dividing by the monomial 2*w keeps a range, so the pullback is read
        # on the exact grid; by w + 0.25*w^2 it has none
        g = morph_validate(parse(text, n))
        psi = parse(psi_text, n, var_letter="u")
        _, eta_p, _, _, _ = quadrature.first_order_summary(psi, g.lam)
        reference = _closure_pullback(pullback(psi, g), g, eta_p)
        _, _, jac, _, _ = quadrature.first_order_summary(reference, g.lam)
        with recorded_reads() as reads:
            report = verify_transform(psi, g)
        assert [read.width is not None for read in reads] == [True, ranged]
        assert np.max(np.abs(report.jac_direct - jac)) <= 1e-12

    def test_no_pole_reads_the_raw_matrix(self):
        # eta' of u is 0, so nothing is taken off, and both reads are exact
        g = morph_validate(parse("w + 0.25*w^2", 1))
        with recorded_reads() as reads:
            report = verify_transform(parse("u", 1, var_letter="u"), g)
        assert report.jac_direct.tobytes() == report.jac_raw.tobytes()
        assert [read.grid_n.tolist() for read in reads] == [[4], [4]]

    def test_two_reads(self):
        g = morph_validate(parse("w + w^2/4", 1))
        psi = parse("1/u + u", 1, var_letter="u")
        with recorded_reads() as reads:
            verify_transform(psi, g)
        # psi', then its pullback with 1/g appended
        assert reads[0].f is psi
        assert [read.f.k for read in reads] == [1, 2]


class TestTransform:
    def test_linear_residue(self):
        g = morph_validate(parse("2*w", 1), 0.5)
        report = verify_transform(parse("1/u", 1, var_letter="u"), g)
        assert report.eta_direct[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert report.eta_predicted[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert report.max_residual <= 1e-10

    def test_quadratic_morph_residue(self):
        g = morph_validate(parse("w + w^2/4", 1), 0.5)
        report = verify_transform(parse("1/u", 1, var_letter="u"), g)
        assert report.eta_direct[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert report.eta_residual <= 1e-8

    def test_linear_derivative(self):
        g = morph_validate(parse("2*w", 1), 0.5)
        report = verify_transform(parse("u", 1, var_letter="u"), g)
        assert report.jac_direct[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert report.jac_predicted[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_measured_at_the_validated_radius(self):
        g = morph_validate(parse("w + w^2/4", 1), 0.5)
        psi = parse("1/u + u", 1, var_letter="u")
        augmented = parse("1/u + u, 1/u", 1, var_letter="u")
        _, eta, _, _, _ = quadrature.first_order_summary(pullback(augmented, g), 0.5)
        with recorded_grids() as grids:
            report = verify_transform(psi, g)
        assert np.array_equal(report.eta_direct, eta[:1])
        # one scale, or a block of scales
        radii = [lam for grid in grids for lam in np.ravel(grid.lam)]
        assert radii and set(radii) == {0.5}
        with pytest.raises(TypeError):
            verify_transform(psi, g, 0.5)  # the radius is g.lam, not an argument

    def test_default_radius_from_validation(self):
        g = morph_validate(parse("w + w^2/4", 1))
        report = verify_transform(parse("1/u + u", 1, var_letter="u"), g)
        assert report.max_residual <= 1e-8

    def test_two_dimensional(self):
        g = morph_validate(parse("w1 + w1*w2/4, 2*w2", 2), 0.25)
        psi = parse("1/u1 + 1/u2 + u1 + 2*u2", 2, var_letter="u")
        report = verify_transform(psi, g)
        assert report.max_residual <= 1e-8
        # contravariant: eta columns scale with the inverse derivative
        assert report.eta_direct[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert report.eta_direct[0, 1] == pytest.approx(0.5, abs=1e-8)
        # covariant: derivative columns scale with the forward one
        assert report.jac_direct[0, 1] == pytest.approx(4.0, abs=1e-8)


class TestPoleFeedthrough:
    def test_quadratic_shed_term(self):
        # pullback of 1/u along c*w + a*w^2 sheds (a^2/c^3) w
        for c, a in ((0.5, 0.25), (2.0, -0.25)):
            g = morph_validate(parse(f"{c}*w + {a}*w^2", 1), 0.25)
            shed = pole_feedthrough(parse("1/u", 1, var_letter="u"), g)
            assert shed[0, 0] == pytest.approx(a * a / c**3, abs=1e-9)

    def test_linear_sheds_nothing(self):
        g = morph_validate(parse("2*w", 1), 0.25)
        shed = pole_feedthrough(parse("1/u", 1, var_letter="u"), g)
        assert abs(shed[0, 0]) <= 1e-10

    def test_report_carries_the_feedthrough(self):
        g = morph_validate(parse("w + 0.25*w^2", 1), 0.25)
        report = verify_transform(parse("1/u + u", 1, var_letter="u"), g)
        assert report.feedthrough[0, 0] == pytest.approx(0.0625, abs=1e-9)


class TestComposition:
    def test_derivatives_multiply(self):
        g = morph_validate(parse("2*w", 1), 0.25)
        h = morph_validate(parse("w + 0.25*w^2", 1), 0.25)
        hg = morph_validate(compose(h.components, g.components), 0.25)
        assert np.max(np.abs(hg.jac - h.jac @ g.jac)) <= 1e-10

    def test_composed_transform_consistent(self):
        g = morph_validate(parse("i*w", 1), 0.25)
        h = morph_validate(parse("0.5*w - 0.25*w^2", 1), 0.25)
        hg = morph_validate(compose(h.components, g.components), 0.25)
        psi = parse("1/u + u", 1, var_letter="u")
        report = verify_transform(psi, hg)
        assert report.max_residual <= 1e-8

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            compose(parse("w1, w2", 2), parse("w", 1))
