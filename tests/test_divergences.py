import csv
import math
from pathlib import Path

import numpy as np
import pytest

from bsdpi import (
    BadBeta,
    Diverging,
    NoConvergence,
    SingularState,
    SupportMismatch,
    bs_entropy,
    bs_entropy_quadrature,
    family_from_tag,
    maximal_f,
    neg_log,
    neg_power,
    random_density,
    regularized_divergence,
    relative_entropy,
    renyi2_trace,
    square_family,
    standard_f,
    xlogx,
)
from bsdpi import divergences, linalg
from bsdpi.campaigns import sample_equal_support_pair, sample_pair
from bsdpi.linalg import LOG_ON_SUPPORT, Spectrum, matrix_fn
from bsdpi.states import EPS_GRID, StatePair, gamma

# classical value for sigma=diag(1/2,1/2), rho=diag(1/4,3/4) under x log x
KL_CANONICAL = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)

SIGMA_C = np.diag([0.5, 0.5]).astype(complex)
RHO_C = np.diag([0.25, 0.75]).astype(complex)


def classical_f(sig_diag, rho_diag, f):
    return float(sum(m * f(l / m) for l, m in zip(sig_diag, rho_diag)))


class TestFamilies:
    @pytest.mark.parametrize(
        "fam", [xlogx(), neg_log(), neg_power(0.25), neg_power(0.5), neg_power(0.75), square_family()]
    )
    def test_transpose_identity(self, fam):
        xs = np.array([0.2, 0.5, 1.0, 1.7, 3.2, 10.0])
        lhs = fam.f_transpose(xs)
        rhs = xs * fam.f(1.0 / xs)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_measure_constants(self):
        fam = neg_power(0.5)
        assert fam.measure_c == pytest.approx(math.pi, abs=1e-12)
        assert fam.measure_alpha == pytest.approx(0.25, abs=1e-15)
        assert xlogx().measure_c == 1.0
        assert xlogx().measure_alpha == 0.0
        assert square_family().measure_c is None

    def test_bad_beta(self):
        with pytest.raises(BadBeta):
            neg_power(1.0)
        with pytest.raises(BadBeta):
            neg_power(0.0)

    def test_tag_parsing(self):
        assert family_from_tag("xlogx").tag == "xlogx"
        assert family_from_tag("neg_power:0.5").tag == "neg_power(0.5)"
        assert family_from_tag("neg_power(0.25)").tag == "neg_power(0.25)"
        with pytest.raises(ValueError):
            family_from_tag("nope")


class TestStandardF:
    def test_equal_states(self):
        rho = random_density(3, 3, 1)
        assert standard_f(StatePair(rho, rho), xlogx()) == pytest.approx(0.0, abs=1e-12)

    def test_classical_oracle(self):
        assert standard_f(StatePair(SIGMA_C, RHO_C), xlogx()) == pytest.approx(KL_CANONICAL, abs=1e-12)

    def test_square_matches_direct_trace(self):
        for seed in range(20):
            sigma, rho = sample_pair(3, seed)
            direct = float(np.trace(sigma.mat @ sigma.mat @ np.linalg.inv(rho.mat)).real)
            value = standard_f(StatePair(sigma, rho), square_family())
            assert value == pytest.approx(direct, abs=1e-10 * max(1.0, direct))

    def test_singular_raises(self):
        with pytest.raises(SingularState):
            standard_f(StatePair(random_density(3, 2, 0), random_density(3, 3, 1)), xlogx())


class TestRelativeEntropy:
    def test_equal_states(self):
        rho = random_density(4, 4, 2)
        assert relative_entropy(StatePair(rho, rho)) == pytest.approx(0.0, abs=1e-12)

    def test_classical_oracle(self):
        assert relative_entropy(StatePair(SIGMA_C, RHO_C)) == pytest.approx(KL_CANONICAL, abs=1e-12)

    def test_matches_standard_f(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        sigma = 0.5 * plus + 0.5 * np.eye(2) / 2.0
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert relative_entropy(StatePair(sigma, rho)) == pytest.approx(
            standard_f(StatePair(sigma, rho), xlogx()), abs=1e-9
        )

    def test_support_violation_is_infinite(self):
        sigma = np.diag([0.5, 0.5]).astype(complex)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert relative_entropy(StatePair(sigma, rho)) == math.inf

    def test_singular_sigma_inside_support(self):
        sigma = np.diag([1.0, 0.0]).astype(complex)
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert relative_entropy(StatePair(sigma, rho)) == pytest.approx(math.log(2.0), abs=1e-12)


class TestMaximalF:
    def test_equal_states_zero_for_xlogx(self):
        rho = random_density(3, 3, 3)
        assert maximal_f(StatePair(rho, rho), xlogx()) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_classical(self):
        assert maximal_f(StatePair(SIGMA_C, RHO_C), xlogx()) == pytest.approx(KL_CANONICAL, abs=1e-12)

    def test_square_degree_two_identity(self):
        for seed in range(20):
            sigma, rho = sample_pair(3, 100 + seed)
            s_val = standard_f(StatePair(sigma, rho), square_family())
            m_val = maximal_f(StatePair(sigma, rho), square_family())
            assert abs(s_val - m_val) <= 1e-10 * max(1.0, abs(s_val))

    def test_renyi2_trace_helper(self):
        sigma, rho = sample_pair(3, 7)
        direct = float(np.trace(sigma.mat @ sigma.mat @ np.linalg.inv(rho.mat)).real)
        assert renyi2_trace(sigma, rho) == pytest.approx(direct, abs=1e-10 * direct)


class TestBsEntropy:
    def test_equal_states(self):
        rho = random_density(4, 4, 4)
        assert bs_entropy(StatePair(rho, rho)) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_classical(self):
        assert bs_entropy(StatePair(SIGMA_C, RHO_C)) == pytest.approx(KL_CANONICAL, abs=1e-12)

    def test_matches_maximal_xlogx(self):
        for seed in range(20):
            sigma, rho = sample_pair(3, 200 + seed)
            assert bs_entropy(StatePair(sigma, rho)) == pytest.approx(
                maximal_f(StatePair(sigma, rho), xlogx()), abs=1e-9
            )

    def test_dominates_relative_entropy(self):
        for seed in range(100):
            sigma, rho = sample_pair(2, 300 + seed)
            pair = StatePair(sigma, rho)
            assert bs_entropy(pair) >= relative_entropy(pair) - 1e-9

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            bs_entropy(StatePair(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])))

    def test_support_mismatch_with_full_rank_sigma(self):
        # the support comparison is skipped only when both states are full rank
        with pytest.raises(SupportMismatch):
            bs_entropy(StatePair(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])))

    def test_scaling_identity(self):
        sigma, rho = sample_pair(3, 11)
        base = bs_entropy(StatePair(sigma, rho))
        for a in (0.5, 2.0):
            for b in (0.5, 2.0):
                value = bs_entropy(StatePair(a * sigma.mat, b * rho.mat))
                assert value == pytest.approx(a * base + a * math.log(a / b), abs=1e-9)


class TestTransposeSymmetry:
    def test_standard(self):
        for seed in range(20):
            sigma, rho = sample_pair(3, 400 + seed)
            lhs = standard_f(StatePair(sigma, rho), xlogx())
            rhs = standard_f(StatePair(rho, sigma), neg_log())
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
            lhs = standard_f(StatePair(sigma, rho), neg_power(0.3))
            rhs = standard_f(StatePair(rho, sigma), neg_power(0.7))
            assert abs(lhs - rhs) <= 1e-9

    def test_maximal(self):
        for seed in range(20):
            sigma, rho = sample_pair(3, 500 + seed)
            lhs = maximal_f(StatePair(sigma, rho), xlogx())
            rhs = maximal_f(StatePair(rho, sigma), neg_log())
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
            lhs = maximal_f(StatePair(sigma, rho), neg_power(0.3))
            rhs = maximal_f(StatePair(rho, sigma), neg_power(0.7))
            assert abs(lhs - rhs) <= 1e-9


class TestOrdering:
    @pytest.mark.parametrize("fam", [xlogx(), neg_power(0.5)])
    def test_standard_below_maximal(self, fam):
        for seed in range(60):
            d = 2 + seed % 3
            sigma, rho = sample_pair(d, 600 + seed)
            pair = StatePair(sigma, rho)
            assert standard_f(pair, fam) <= maximal_f(pair, fam) + 1e-9


class TestRegularizedDivergence:
    def test_full_rank_matches_direct(self):
        sigma, rho = sample_pair(3, 13)
        direct = maximal_f(StatePair(sigma, rho), xlogx())
        reg = regularized_divergence(StatePair(sigma, rho), xlogx(), kind="maximal")
        assert abs(reg.value - direct) <= 1e-6

    def test_equal_singular_states(self):
        sigma = np.diag([0.6, 0.4, 0.0]).astype(complex)
        reg = regularized_divergence(StatePair(sigma, sigma), xlogx(), kind="maximal")
        assert abs(reg.value) <= 1e-8

    def test_classical_on_support(self):
        sigma = np.diag([0.3, 0.7, 0.0]).astype(complex)
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        expected = classical_f([0.3, 0.7], [0.5, 0.5], lambda x: x * math.log(x))
        for kind in ("maximal", "standard"):
            reg = regularized_divergence(StatePair(sigma, rho), xlogx(), kind=kind)
            assert abs(reg.value - expected) <= 1e-6

    def test_diverges_on_support_mismatch(self):
        sigma = np.diag([1.0, 0.0]).astype(complex)
        rho = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(Diverging):
            regularized_divergence(StatePair(sigma, rho), xlogx(), kind="maximal")

    def test_bad_kind(self):
        sigma, rho = sample_pair(2, 14)
        with pytest.raises(ValueError):
            regularized_divergence(StatePair(sigma, rho), xlogx(), kind="other")

    def test_kinds_share_the_regularized_pairs_of_a_state_pair(self):
        # sigma_eps, rho_eps and G_eps: three decompositions per eps for both
        # kinds together, and the values of separate calls
        sigma, rho = sample_equal_support_pair(3, 2, 21)
        kinds = ("standard", "maximal")
        separate = [
            regularized_divergence(StatePair(sigma, rho), neg_power(0.5), kind=k) for k in kinds
        ]
        pair = StatePair(sigma, rho)
        before = linalg.herm_eig_calls
        shared = [regularized_divergence(pair, neg_power(0.5), kind=k) for k in kinds]
        assert linalg.herm_eig_calls - before == 3 * len(EPS_GRID)
        assert shared == separate


class TestQuadratureOracle:
    GOLDEN = Path(__file__).parent / "golden" / "quadrature.csv"

    def test_equal_states(self):
        rho = random_density(3, 3, 15)
        assert abs(bs_entropy_quadrature(StatePair(rho, rho), tol=1e-8)) <= 1e-8

    def test_commuting_classical(self):
        value = bs_entropy_quadrature(StatePair(SIGMA_C, RHO_C), tol=1e-7)
        assert value == pytest.approx(KL_CANONICAL, abs=1e-6)

    def test_cross_method_agreement(self):
        for seed in range(50):
            d = 2 + seed % 2
            sigma, rho = sample_pair(d, 700 + seed)
            spectral = bs_entropy(StatePair(sigma, rho))
            quad = bs_entropy_quadrature(StatePair(sigma, rho), tol=1e-7)
            assert abs(spectral - quad) <= 1e-10

    def test_explicit_t_max(self):
        sigma, rho = sample_pair(2, 16)
        spectral = bs_entropy(StatePair(sigma, rho))
        quad = bs_entropy_quadrature(StatePair(sigma, rho), t_max=1e9, tol=1e-8)
        assert abs(spectral - quad) <= 1e-10

    def test_returns_a_python_float(self):
        # divergence prints the value with repr, which must not read np.float64(...)
        sigma, rho = sample_pair(3, 5)
        assert type(bs_entropy_quadrature(StatePair(sigma, rho))) is float
        assert type(bs_entropy_quadrature(StatePair(sigma, rho), t_max=1e9)) is float

    def test_non_finite_integrand_raises(self, monkeypatch):
        sigma, rho = sample_pair(2, 16)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(a.shape, np.nan))
        with pytest.raises(NoConvergence, match="not finite"):
            bs_entropy_quadrature(StatePair(sigma, rho))

    def test_exhausted_level_budget_raises(self, monkeypatch):
        # this pair's levels agree bitwise from a step of 1/8 on, so two
        # halvings cannot meet a tolerance of 1e-30
        sigma, rho = sample_pair(2, 16)
        monkeypatch.setattr(divergences, "QUAD_MAX_LEVELS", 2)
        with pytest.raises(NoConvergence, match="levels"):
            bs_entropy_quadrature(StatePair(sigma, rho), tol=1e-30)

    def test_ratio_that_is_not_positive_definite_raises(self):
        # rounding can push the smallest eigenvalue of an ill-conditioned G
        # below zero; the lower end of the rule cannot be placed then
        pair = StatePair(*sample_pair(2, 16))
        pair.ratio = Spectrum(np.diag([-1e-9, 2.0]).astype(complex))
        with pytest.raises(NoConvergence, match="not positive"):
            bs_entropy_quadrature(pair)

    def test_nodes_per_call_on_the_golden_cases(self, monkeypatch):
        solve = np.linalg.solve
        nodes = []

        def counting(a, b):
            nodes[-1] += a.shape[0]
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        for row in csv.DictReader(self.GOLDEN.open()):
            sigma, rho = sample_pair(int(row["d"]), int(row["seed"]))
            t_max = float(row["t_max"]) if row["t_max"] else None
            nodes.append(0)
            bs_entropy_quadrature(StatePair(sigma, rho), t_max=t_max, tol=1e-8)
        assert len(nodes) == 49
        assert max(nodes) <= 400, nodes

    def test_each_solve_gets_a_right_hand_side_per_matrix(self, monkeypatch):
        # NumPy 1.x reads a b with one dimension fewer than a as a stack of
        # vectors; levels of one node (equal states, t_max below t_lo) and of
        # d nodes must still pass a full stack
        solve = np.linalg.solve

        def checked(a, b):
            assert b.shape == a.shape, (a.shape, b.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked)
        rho = random_density(3, 3, 15)
        assert abs(bs_entropy_quadrature(StatePair(rho, rho))) <= 1e-8
        sigma, rho = sample_pair(2, 16)
        bs_entropy_quadrature(StatePair(sigma, rho), t_max=1e-30)
        spectral = bs_entropy(StatePair(sigma, rho))
        assert abs(bs_entropy_quadrature(StatePair(sigma, rho)) - spectral) <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularState):
            bs_entropy_quadrature(StatePair(random_density(3, 2, 0), random_density(3, 3, 1)))

    def test_non_positive_t_max_raises(self):
        sigma, rho = sample_pair(2, 16)
        with pytest.raises(ValueError):
            bs_entropy_quadrature(StatePair(sigma, rho), t_max=-1.0)


class TestDataProcessing:
    def test_bs_dpi_smoke(self):
        from bsdpi import random_cptp

        for seed in range(40):
            d = 2 + seed % 3
            sigma, rho = sample_pair(d, 800 + seed)
            channel = random_cptp(d, d, 2, seed=900 + seed)
            gap = bs_entropy(StatePair(sigma, rho)) - bs_entropy(
                StatePair(channel.apply(sigma), channel.apply(rho))
            )
            assert gap >= -1e-9


class TestWeightedTraces:
    """Traces read as weighted sums over a cached spectrum agree with the
    reconstructed form tr[X f(A)]."""

    FAMILIES = (xlogx(), neg_power(0.25), neg_power(0.5), neg_power(0.75))

    @staticmethod
    def assert_close(value, reference):
        assert abs(value - reference) <= 1e-13 * abs(reference), (value, reference)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_full_rank_pairs(self, d):
        for seed in range(3):
            pair = StatePair(*sample_pair(d, 100 * d + seed))
            u = pair.ratio.eig.vectors
            for fam in self.FAMILIES:
                # tr[sigma f~(G)] with f~(G) reconstructed from G's refined eigenvalues
                f_g = (u * fam.f_transpose(pair.ratio_values)) @ u.conj().T
                reference = np.trace(pair.sigma @ f_g).real
                self.assert_close(maximal_f(pair, fam), reference)
            reference = -np.trace(pair.sigma @ matrix_fn(pair.ratio, LOG_ON_SUPPORT)).real
            self.assert_close(bs_entropy(pair), reference)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_equal_support_rank_deficient_pairs(self, d):
        for seed in range(3):
            pair = StatePair(*sample_equal_support_pair(d, d - 1, 100 * d + seed))
            reference = -np.trace(pair.sigma @ matrix_fn(pair.ratio, LOG_ON_SUPPORT)).real
            self.assert_close(bs_entropy(pair), reference)
            for fam in self.FAMILIES:
                reference = np.trace(pair.sigma @ matrix_fn(pair.ratio, fam.f)).real
                self.assert_close(pair.ratio.trace_fn(fam.f, pair.ratio_weights), reference)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_spectral_weights_match_the_direct_diagonal(self, d):
        pair = StatePair(*sample_pair(d, 900 + d))
        core = gamma(pair.r, pair.s)
        weights = core.weights(pair.r)
        u = core.eig.vectors
        direct = np.diag(u.conj().T @ pair.rho @ u).real
        assert np.allclose(weights, direct, rtol=0.0, atol=1e-14)
        assert np.all(weights >= 0.0)
