import dataclasses
import math

import numpy as np
import pytest

from kimvolterra import (
    BaryBasis,
    basis_matrix,
    fh_weights,
    lebesgue_constant,
)


def normalized(beta):
    """Scale so the first weight is +1; removes the free common factor."""
    beta = np.asarray(beta, dtype=float)
    return beta / beta[0]


def fh_weights_partial_fraction(nodes, d):
    """Independent oracle: collect the 1/(t - t_i) residues of the local
    polynomial blend sum_k (-1)^k / prod_{j=k..k+d} (t - t_j)."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size - 1
    beta = np.zeros(n + 1)
    for i in range(n + 1):
        for k in range(max(0, i - d), min(i, n - d) + 1):
            prod = 1.0
            for j in range(k, k + d + 1):
                if j != i:
                    prod *= nodes[i] - nodes[j]
            beta[i] += (-1.0) ** k / prod
    return beta


class TestBerrutWeights:
    def test_reproduces_constants(self):
        basis = BaryBasis(np.linspace(0.0, 2.0, 8), 0)
        ts = np.linspace(0.0, 2.0, 333)
        approx = basis_matrix(basis, ts) @ np.full(8, 3.25)
        assert np.max(np.abs(approx - 3.25)) <= 1e-14


class TestFloaterHormannWeights:
    def test_d0_equals_berrut(self):
        for n in (1, 4, 9):
            assert np.array_equal(fh_weights(n, 0), (-1.0) ** np.arange(n + 1))

    def test_n4_d1_magnitudes(self):
        beta = fh_weights(4, 1)
        assert np.abs(beta).tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]
        assert np.all(beta[:-1] * beta[1:] < 0)

    def test_n5_d2_magnitudes(self):
        beta = fh_weights(5, 2)
        assert np.abs(beta).tolist() == [1.0, 3.0, 4.0, 4.0, 3.0, 1.0]
        assert np.all(beta[:-1] * beta[1:] < 0)

    @pytest.mark.parametrize("n,d", [(4, 1), (5, 2), (8, 3), (12, 4), (7, 0)])
    def test_partial_fraction_oracle(self, n, d):
        nodes = np.linspace(0.0, 1.0, n + 1)
        expected = fh_weights_partial_fraction(nodes, d)
        assert normalized(fh_weights(n, d)) == pytest.approx(
            normalized(expected), rel=1e-10)

    def test_d_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            fh_weights(3, 4)

    @pytest.mark.parametrize("n,d", [(True, 0), (2.5, 0)])
    def test_non_integer_n_rejected(self, n, d):
        with pytest.raises(ValueError, match="0 <= d <= n"):
            fh_weights(n, d)

    @pytest.mark.parametrize("n,d", [(1029, 1029), (1064, 1024)])
    def test_largest_orders_fit_a_double(self, n, d):
        assert np.isfinite(fh_weights(n, d)).all()

    @pytest.mark.parametrize("n,d", [(1030, 1030), (1065, 1025), (1200, 1100)])
    def test_weights_past_the_largest_double_raise(self, n, d):
        # from d = 1030 C(d, d // 2) exceeds the largest double; at d = 1025 on n = d + 40
        # nodes a sum of 41 binomials does
        with pytest.raises(ValueError, match=f"order d={d} on {n + 1} nodes overflows"):
            fh_weights(n, d)

    def test_matches_written_out_sums(self):
        # beta_i = (-1)^(i-d) sum_{j in J_i} C(d, i-j), bit for bit
        for n in range(301):
            for d in range(min(n, 8) + 1):
                expected = [
                    (1 if (i - d) % 2 == 0 else -1)
                    * sum(math.comb(d, i - j)
                          for j in range(max(0, i - d), min(i, n - d) + 1))
                    for i in range(n + 1)]
                assert np.array_equal(fh_weights(n, d), np.array(expected, dtype=float))


class TestBaryBasis:
    def test_rejects_non_equidistant(self):
        with pytest.raises(ValueError):
            BaryBasis(np.array([0.0, 0.1, 0.3, 0.6]), 1)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            BaryBasis(np.array([1.0, 0.5, 0.0]), 0)

    @pytest.mark.parametrize("nodes", [[math.nan, math.nan], [0.0, math.nan, 2.0],
                                       [0.0, math.inf], [-math.inf, 0.0, math.inf]])
    def test_rejects_non_finite(self, nodes):
        with pytest.raises(ValueError, match="finite"):
            BaryBasis(nodes, 0)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            BaryBasis(np.array([1.0]), 0)

    def test_immutable_arrays(self):
        basis = BaryBasis(np.linspace(0.0, 1.0, 5), 1)
        with pytest.raises(ValueError):
            basis.nodes[0] = 3.0

    @pytest.mark.parametrize("degree", [-1, 3, 1.5, True])
    def test_rejects_degree_outside_0_to_n(self, degree):
        with pytest.raises(ValueError, match="0 <= d <= n"):
            BaryBasis(np.array([0.0, 0.5, 1.0]), degree)

    @pytest.mark.parametrize("n,d", [(1, 0), (1, 1), (8, 0), (20, 3), (33, 2)])
    def test_weights_follow_nodes_and_order(self, n, d):
        basis = BaryBasis(np.linspace(0.5, 2.5, n + 1), d)
        assert np.array_equal(basis.weights, fh_weights(n, d))
        with pytest.raises(ValueError):
            basis.weights[0] = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.weights = fh_weights(n, d)

    def test_init_fields_are_nodes_and_degree(self):
        init = [f.name for f in dataclasses.fields(BaryBasis) if f.init]
        assert init == ["nodes", "degree"]


class TestEvalInterpolant:
    def test_exact_at_nodes(self):
        basis = BaryBasis(np.linspace(0.0, 1.0, 11), 2)
        values = np.sin(basis.nodes)
        for k in (0, 3, 10):
            assert (basis_matrix(basis, basis.nodes[k]) @ values)[0] == values[k]

    def test_constant_data(self):
        basis = BaryBasis(np.linspace(0.0, 3.0, 17), 3)
        ts = np.linspace(0.0, 3.0, 500)
        approx = basis_matrix(basis, ts) @ np.full(17, 2.5)
        assert np.max(np.abs(approx - 2.5)) <= 1e-14 * 2.5

    def test_exp_error_within_order_bound(self):
        n, d = 20, 3
        basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
        h = 1.0 / n
        t = 0.5 - h / 2.0
        approx = (basis_matrix(basis, t) @ np.exp(basis.nodes))[0]
        bound = h**4 * (math.e / 5.0 + math.e / 4.0)
        assert abs(approx - math.exp(t)) <= bound


class TestInvariants:
    @pytest.mark.parametrize("make,n", [
        (lambda nodes: BaryBasis(nodes, 0), 32),
        (lambda nodes: BaryBasis(nodes, 2), 32),
        (lambda nodes: BaryBasis(nodes, 3), 32),
    ])
    def test_partition_of_unity(self, make, n):
        basis = make(np.linspace(0.0, 3.0, n + 1))
        rng = np.random.default_rng(11)
        ts = rng.uniform(0.0, 3.0, 1000)
        sums = basis_matrix(basis, ts).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-13

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_no_poles_off_nodes(self, d):
        basis = BaryBasis(np.linspace(0.0, 1.0, 41), d)
        rng = np.random.default_rng(3)
        ts = rng.uniform(0.0, 1.0, 10_000)
        c = basis.weights[None, :] / (ts[:, None] - basis.nodes[None, :])
        assert np.min(np.abs(c.sum(axis=1))) > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_polynomial_reproduction(self, d):
        basis = BaryBasis(np.linspace(0.0, 1.0, 21), d)
        ts = np.linspace(0.0, 1.0, 701)
        for deg in range(d + 1):
            values = basis.nodes**deg
            approx = basis_matrix(basis, ts) @ values
            scale = max(1.0, np.max(np.abs(ts**deg)))
            assert np.max(np.abs(approx - ts**deg)) <= 1e-12 * scale

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_convergence_order_on_exp(self, d):
        errors = {}
        samples = np.linspace(0.0, 1.0, 3137)[1:-1]
        for n in (32, 256):
            basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
            approx = basis_matrix(basis, samples) @ np.exp(basis.nodes)
            errors[n] = np.max(np.abs(approx - np.exp(samples)))
        order = math.log(errors[32] / errors[256]) / math.log(256 / 32)
        assert order >= d + 0.5


def basis_matrix_reference(basis, ts):
    """The full m x (n + 1) node-hit test that basis_matrix replaces by rounding."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    diff = ts[:, None] - basis.nodes[None, :]
    hits = np.abs(diff) <= 1e-14 * basis.span
    hit_rows = hits.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = basis.weights[None, :] / diff
        out = c / c.sum(axis=1, keepdims=True)
    if hit_rows.any():
        out[hit_rows] = 0.0
        rows, cols = np.nonzero(hits)
        out[rows, cols] = 1.0
    return out


class TestBasisMatrixNodeHits:
    @pytest.mark.parametrize("d", [0, 2])
    @pytest.mark.parametrize("n", [8, 129])
    def test_bitwise_reference(self, n, d):
        horizon = 2.7
        basis = BaryBasis(np.linspace(0.0, horizon, n + 1), d)
        near = 0.5e-14 * basis.span  # inside the hit tolerance; 1.5e-14 is outside it
        groups = {
            "random": np.random.default_rng(n + d).uniform(0.0, horizon, 500),
            "nodes": basis.nodes,
            "ends": np.array([0.0, horizon, -near, horizon + near]),
            "near": np.concatenate([basis.nodes + near, basis.nodes - near]),
            "beyond": np.concatenate([basis.nodes + 3.0 * near, basis.nodes - 3.0 * near]),
        }
        for name, ts in groups.items():
            got, want = basis_matrix(basis, ts), basis_matrix_reference(basis, ts)
            assert got.tobytes() == want.tobytes(), name
        hits = basis_matrix(basis, groups["near"])
        assert np.array_equal(hits, np.vstack([np.eye(n + 1)] * 2))

    def test_scalar_and_non_finite_points(self):
        basis = BaryBasis(np.linspace(0.0, 1.0, 9), 2)
        for ts in (0.375, [np.nan, np.inf, -np.inf, 1e300, 0.125]):
            got, want = basis_matrix(basis, ts), basis_matrix_reference(basis, ts)
            np.testing.assert_array_equal(got, want)

    def test_two_dimensional_points_rejected(self):
        basis = BaryBasis(np.linspace(0.0, 1.0, 9), 2)
        with pytest.raises(ValueError, match=r"number or 1-D, got shape \(2, 2\)"):
            basis_matrix(basis, np.zeros((2, 2)))


class TestLebesgueConstant:
    def test_two_nodes_is_one(self):
        for d in (0, 1):
            lam = lebesgue_constant(BaryBasis(np.array([0.0, 1.0]), d), 50)
            assert lam == pytest.approx(1.0, abs=1e-12)

    # frozen values; the lebesgue command samples d >= 1 only, so d = 0 (the
    # Berrut basis of the bfh product rows) is pinned nowhere else
    FROZEN = {
        (0, 8): 2.2208338021032445, (0, 64): 3.4639459265654393,
        (1, 8): 2.118132013378045, (1, 64): 3.4531815558530488,
        (2, 8): 2.515473492855965, (2, 64): 3.990634125100686,
        (3, 8): 3.411999301521908, (3, 64): 6.156796250430211,
    }

    @pytest.mark.parametrize("d,n", sorted(FROZEN))
    def test_frozen_values(self, d, n):
        basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
        assert lebesgue_constant(basis, 30) == pytest.approx(
            self.FROZEN[d, n], rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_logarithmic_bound(self, n, d):
        basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
        lam = lebesgue_constant(basis, 30)
        assert lam <= 2.0 ** (d - 1) * (2.0 + math.log(n))

    def test_grows_from_below_with_sampling(self):
        basis = BaryBasis(np.linspace(0.0, 1.0, 17), 2)
        coarse = lebesgue_constant(basis, 10)
        fine = lebesgue_constant(basis, 200)
        assert coarse <= fine + 1e-12

    def test_oversample_floor(self):
        with pytest.raises(ValueError):
            lebesgue_constant(BaryBasis(np.array([0.0, 1.0]), 0), 9)

    @pytest.mark.parametrize("oversample", [10.5, 12.0])
    def test_oversample_not_integer_rejected(self, oversample):
        with pytest.raises(ValueError, match="oversample must be an integer"):
            lebesgue_constant(BaryBasis(np.array([0.0, 1.0]), 0), oversample)
