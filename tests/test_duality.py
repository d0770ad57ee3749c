"""Hodge star and dual-form closure."""

import pytest

from skewforms.expr import ONE, const, differentiate, exp, sin, var
from skewforms.forms import DifferentialForm, FormError, exterior_derivative, zero_verdict
from skewforms.duality import Metric, hodge_star

from conftest import VARSETS, random_form

x, y = var("x"), var("y")
V2 = VARSETS[2]
V3 = VARSETS[3]


def gradient_form(f, vs):
    return DifferentialForm.one_form(vs, [differentiate(f, n) for n in vs.names])


class TestMetric:
    def test_euclidean_default(self):
        g = Metric.euclidean(V3)
        assert g.signature == (1, 1, 1)
        assert g.signature_product() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Metric(V2, (1,))
        with pytest.raises(ValueError):
            Metric(V2, (1, 2))


class TestHodgeStar:
    def test_2d_gradient_dual(self):
        """*(f_x dx + f_y dy) = -f_y dx + f_x dy in 2D Euclidean space."""
        f = x**3 * y + sin(x) * y**2
        fx, fy = differentiate(f, "x"), differentiate(f, "y")
        theta = DifferentialForm.one_form(V2, [fx, fy])
        expected = DifferentialForm.one_form(V2, [-fy, fx])
        assert hodge_star(theta, Metric.euclidean(V2)) == expected

    def test_3d_area_basis(self):
        g = Metric.euclidean(V3)
        dxdy = DifferentialForm(V3, 2, {(1, 2): ONE})
        assert hodge_star(dxdy, g) == DifferentialForm(V3, 1, {(3,): ONE})
        dxdz = DifferentialForm(V3, 2, {(1, 3): ONE})
        assert hodge_star(dxdz, g) == DifferentialForm(V3, 1, {(2,): const(-1)})

    def test_volume_form(self):
        one = DifferentialForm.scalar(V2, ONE)
        assert hodge_star(one, Metric.euclidean(V2)) == DifferentialForm(V2, 2, {(1, 2): ONE})

    def test_linearity(self, rng):
        g = Metric.euclidean(V3)
        for _ in range(10):
            a = random_form(rng, V3, 1)
            b = random_form(rng, V3, 1)
            lhs = hodge_star(a + b, g)
            assert lhs == hodge_star(a, g) + hodge_star(b, g)
            assert hodge_star(3 * a, g) == 3 * hodge_star(a, g)

    def test_involution_all_signatures(self, rng):
        """**a = (-1)^{p(n-p)} * (signature product) * a."""
        for n in (2, 3, 4):
            vs = VARSETS[n]
            metrics = [Metric.euclidean(vs),
                       Metric(vs, tuple([1] * (n - 1) + [-1]))]
            for g in metrics:
                s = g.signature_product()
                for p in range(n + 1):
                    for _ in range(5):
                        a = random_form(rng, vs, p)
                        sign = const(((-1) ** (p * (n - p))) * s)
                        assert hodge_star(hodge_star(a, g), g) == sign * a

    def test_mismatched_vars(self):
        with pytest.raises(FormError):
            hodge_star(DifferentialForm.basis(V2, "x"), Metric.euclidean(V3))

    def test_mixed_signature_sign(self):
        g = Metric(V2, (1, -1))
        dx = DifferentialForm.basis(V2, "x")
        dy = DifferentialForm.basis(V2, "y")
        assert hodge_star(dx, g) == dy
        assert hodge_star(dy, g) == dx  # -1 metric factor times -1 permutation sign


def dual_verdict(theta, g):
    """The zero verdict of d(*theta): "zero" where the dual form closes."""
    return zero_verdict(exterior_derivative(hodge_star(theta, g)))


class TestDualClosure:
    def test_harmonic_closed(self):
        theta = gradient_form(x**2 - y**2, V2)
        assert dual_verdict(theta, Metric.euclidean(V2)) == "zero"

    def test_exp_sin_closed(self):
        theta = gradient_form(exp(x) * sin(y), V2)
        assert dual_verdict(theta, Metric.euclidean(V2)) == "zero"

    def test_x_squared_unclosed(self):
        theta = gradient_form(x**2, V2)
        assert dual_verdict(theta, Metric.euclidean(V2)) == "nonzero"

    def test_gradient_dual_closure_tracks_laplacian(self, rng):
        """theta = df is always closed; *theta closes exactly when the zero
        test certifies the Laplacian."""
        from skewforms.expr import is_zero
        from conftest import random_polynomial
        g = Metric.euclidean(V2)
        for _ in range(25):
            f = random_polynomial(rng, ("x", "y"))
            theta = gradient_form(f, V2)
            assert zero_verdict(exterior_derivative(theta)) == "zero"
            laplacian = differentiate(differentiate(f, "x"), "x") \
                + differentiate(differentiate(f, "y"), "y")
            assert dual_verdict(theta, g) == is_zero(laplacian)

    def test_cauchy_riemann_pair(self):
        """Both conditions hold: theta and *theta both close; a +x
        perturbation of v flips exactly one verdict."""
        u = x**2 - y**2
        v = -2 * x * y
        g = Metric.euclidean(V2)
        theta = DifferentialForm.one_form(V2, [u, v])
        assert zero_verdict(exterior_derivative(theta)) == "zero"
        assert dual_verdict(theta, g) == "zero"

        perturbed = DifferentialForm.one_form(V2, [u, v + x])
        assert zero_verdict(exterior_derivative(perturbed)) == "nonzero"
        assert dual_verdict(perturbed, g) == "zero"
