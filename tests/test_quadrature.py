import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

import kimvolterra.quadrature as quadrature
from kimvolterra import (
    BaryBasis,
    brq_weights,
    lebesgue_constant,
    product_weights,
)
from kimvolterra.quadrature import unit_weight_rows


def abel_monomial_integral(degree: int, upper: float) -> float:
    """Closed form of int_0^T s^k / sqrt(T - s) ds via the Beta function."""
    return (upper ** (degree + 0.5) * math.sqrt(math.pi)
            * math.gamma(degree + 1) / math.gamma(degree + 1.5))


def cardinal_function(basis, j):
    """Scalar L_j(s) for the adaptive reference integrator."""
    def L(s):
        diff = s - basis.nodes
        k = int(np.argmin(np.abs(diff)))
        if abs(diff[k]) < 1e-15 * basis.span:
            return 1.0 if k == j else 0.0
        c = basis.weights / diff
        return (basis.weights[j] / diff[j]) / c.sum()
    return L


class TestGaussLegendre:
    """The rule behind every weight row: numpy's m-point Gauss-Legendre rule,
    which ``unit_weight_rows`` calls with 16 points per unit subinterval."""

    def test_one_point_is_midpoint(self):
        x, w = leggauss(1)
        assert x.tolist() == [0.0]
        assert w.tolist() == [2.0]

    def test_two_point_closed_form(self):
        x, w = leggauss(2)
        assert x == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)],
                                  abs=1e-15)
        assert w == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_five_point_on_t8(self):
        x, w = leggauss(5)
        assert w @ x**8 == pytest.approx(2.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_degree_of_precision(self, m):
        x, w = leggauss(m)
        even = w @ x ** (2 * m - 2)
        exact = 2.0 / (2 * m - 1)
        assert even == pytest.approx(exact, rel=1e-13)
        odd = w @ x ** (2 * m - 1)
        assert abs(odd) <= 1e-13

    def test_positive_weights_sum_two(self):
        for m in (1, 5, 30):
            _, w = leggauss(m)
            assert np.all(w > 0.0)
            assert w.sum() == pytest.approx(2.0, abs=1e-14)


class TestBrqWeights:
    def test_two_nodes_trapezoid(self):
        basis = BaryBasis(np.array([0.0, 1.0]), 1)
        assert brq_weights(basis) == pytest.approx([0.5, 0.5], abs=1e-14)

    @pytest.mark.parametrize("make,interval", [
        (lambda: BaryBasis(np.linspace(0.0, 1.0, 13), 2), (0.0, 1.0)),
        (lambda: BaryBasis(np.linspace(0.0, 3.0, 9), 0), (0.0, 3.0)),
        (lambda: BaryBasis(np.linspace(0.5, 2.5, 21), 3), (0.5, 2.5)),
    ])
    def test_weights_sum_to_interval_length(self, make, interval):
        assert brq_weights(make()).sum() == pytest.approx(interval[1] - interval[0],
                                                          abs=1e-12)

    def test_exp_error_order(self):
        n = 20
        basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), 3)
        err = abs(brq_weights(basis) @ np.exp(basis.nodes) - (math.e - 1.0))
        assert err <= 1.0 * (1.0 / n) ** 4

    def test_stability_sum_bounded_by_lebesgue(self):
        for d in (1, 2, 3):
            basis = BaryBasis(np.linspace(0.0, 1.0, 33), d)
            lam = lebesgue_constant(basis, 40)
            assert np.abs(brq_weights(basis)).sum() <= 1.0 * lam + 1e-8


class TestProductWeights:
    def test_linear_closed_form(self):
        h = 0.25
        basis = BaryBasis(np.array([0.0, h]), 1)
        w = product_weights(basis)
        assert w == pytest.approx([(2.0 / 3.0) * math.sqrt(h),
                                   (4.0 / 3.0) * math.sqrt(h)], abs=1e-14)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_rows_sum_to_kernel_mass(self, n):
        grid = np.linspace(0.0, 1.0, n + 1)
        for i in range(1, n + 1):
            basis = BaryBasis(grid[: i + 1], min(2, i))
            w = product_weights(basis)
            assert w.sum() == pytest.approx(2.0 * math.sqrt(grid[i]), abs=1e-10)

    def test_full_row_reproduces_linear_integrand(self):
        basis = BaryBasis(np.linspace(0.0, 1.0, 9), 2)
        w = product_weights(basis)
        assert w @ basis.nodes == pytest.approx(4.0 / 3.0, abs=1e-3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_monomial_reproduction(self, d):
        # row i carries local order min(d, i); degrees up to that order are
        # reproduced exactly under the singular kernel
        n = 16
        grid = np.linspace(0.0, 1.0, n + 1)
        for i in range(1, n + 1):
            order = min(d, i)
            basis = BaryBasis(grid[: i + 1], order)
            w = product_weights(basis)
            for degree in range(order + 1):
                approx = w @ grid[: i + 1] ** degree
                exact = abel_monomial_integral(degree, grid[i])
                assert abs(approx - exact) <= 1e-8

    # alpha = 0 rows are the BRQ weights; plain adaptive quadrature of each
    # cardinal function keeps them on a reference independent of the panels
    @pytest.mark.parametrize("i,alpha", [
        pytest.param(1, 0.5, id="1"), pytest.param(8, 0.5, id="8"),
        pytest.param(16, 0.5, id="16"), pytest.param(1, 0.0, id="1-alpha0"),
        pytest.param(8, 0.0, id="8-alpha0"), pytest.param(16, 0.0, id="16-alpha0"),
    ])
    def test_substitution_matches_adaptive_reference(self, i, alpha):
        grid = np.linspace(0.0, 1.0, 17)
        basis = BaryBasis(grid[: i + 1], min(3, i))
        w = product_weights(basis, alpha)
        kernel = dict(weight="alg", wvar=(0.0, -alpha)) if alpha else {}
        for j in range(i + 1):
            ref, _ = quad(cardinal_function(basis, j), 0.0, grid[i], limit=400,
                          **kernel)
            assert abs(w[j] - ref) <= 1e-9
        if alpha == 0.0:
            np.testing.assert_array_equal(w, brq_weights(basis))

    def test_alpha_range(self):
        basis = BaryBasis(np.array([0.0, 1.0]), 1)
        with pytest.raises(ValueError):
            product_weights(basis, alpha=1.0)


class TestUnitWeightRows:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("d", [0, 2, 3])
    def test_basis_weights_are_table_rows(self, d, alpha):
        # any basis reads row n of the cached unit table, scaled by h^(1 - alpha)
        for n in (3, 8, 17):
            for start, span in ((0.0, 1.0), (0.0, 0.25), (-2.5, 7.3)):
                basis = BaryBasis(np.linspace(start, start + span, n + 1), d)
                row = (basis.span / n) ** (1.0 - alpha) * unit_weight_rows(n, d, alpha)[0][n]
                np.testing.assert_array_equal(product_weights(basis, alpha), row)
                if alpha == 0.0:
                    np.testing.assert_array_equal(brq_weights(basis), row)

    def test_table_shape_and_zeros(self):
        n, d = 9, 3
        for alpha in (0.0, 0.5):
            table, sums = unit_weight_rows(n, d, alpha)
            assert table.shape == (n + 1, n + 1)
            assert table.flags.writeable is False
            assert np.all(np.triu(table, 1) == 0.0)
            assert unit_weight_rows(n, d, alpha)[0] is table
            # the curvature bound's per-row lag sums of |W[e, e - l]| l^(-1/2) and |W[e, e - l]| / l
            reference = [[sum(abs(table[e, e - l]) * l ** -power for l in range(1, e + 1))
                          for power in (0.5, 1.0)] for e in range(1, n + 1)]
            np.testing.assert_allclose(sums, reference, rtol=1e-14, atol=0.0)
            assert sums.flags.writeable is False

    def test_overflowing_order_raises_before_any_row(self, monkeypatch):
        # row n's weights are the largest, so an order whose weights overflow a double
        # raises on the first basis built, not after a thousand rows
        built, fh_weights = [], quadrature.fh_weights

        def counted(n, d):
            built.append((n, d))
            return fh_weights(n, d)

        monkeypatch.setattr(quadrature, "fh_weights", counted)
        with pytest.raises(ValueError, match="d=1100 "):
            unit_weight_rows.__wrapped__(1200, 1100, 0.5)
        assert built == [(1200, 1100)]
