import math

import numpy as np
import pytest

from bsdpi import (
    MissingMeasureParams,
    SingularState,
    SupportMismatch,
    bs_bound_channel,
    bs_bound_condexp,
    bs_entropy,
    build_contraction,
    depolarizing_channel,
    diagonal_pinching,
    identity_channel,
    k_alpha,
    l_alpha,
    lemma_integrand_check,
    linalg,
    maxf_bound,
    neg_power,
    pinching_fixed_pair,
    random_cptp,
    random_density,
    random_pinching,
    regularized_divergence,
    square_family,
    states,
    xlogx,
)
from bsdpi.bounds import InstanceAnalysis
from bsdpi.campaigns import sample_equal_support_pair, sample_pair
from bsdpi.errors import BadBeta
from bsdpi.states import StatePair


class TestKAlpha:
    def test_alpha_zero(self):
        assert k_alpha(0.0) == pytest.approx((math.pi / 4.0) ** 4, abs=1e-12)

    def test_alpha_one_substitution(self):
        expected = (0.75**8) * (1.0 / 9.0) * 4.0**-6 * math.pi**8
        assert k_alpha(1.0) == pytest.approx(expected, rel=1e-14)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 2.0, 41)
        values = [k_alpha(a) for a in grid]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            k_alpha(-0.1)


class TestLAlpha:
    def test_companion_constant_at_half(self):
        assert neg_power(0.5).measure_c == pytest.approx(math.pi, abs=1e-12)

    def test_value_by_substitution(self):
        b = 0.5
        expected = (
            0.25 * ((b + 1) / (b + 2)) ** (2 * b + 4) * (b + 1) ** -2.0
            * 8.0 ** (-2 * (b + 1)) * math.pi ** (2 * b + 4)
        )
        assert l_alpha(0.5) == pytest.approx(expected, rel=1e-14)

    def test_matches_k_alpha_with_recovery_factor(self):
        for beta in (0.1, 0.25, 0.5, 0.75, 0.9):
            alpha = beta / 2.0
            expected = k_alpha(alpha) * 0.5 ** (4 * (alpha + 1))
            assert l_alpha(beta) == pytest.approx(expected, rel=1e-12)

    def test_bad_beta(self):
        with pytest.raises(BadBeta):
            l_alpha(1.5)

    # 0.3 and 0.7 tell apart closed forms that agree only in exact arithmetic
    @pytest.mark.parametrize("beta", [0.25, 0.3, 0.5, 0.7, 0.75])
    def test_is_the_prefactor_maxf_bound_uses(self, beta):
        sigma, rho = sample_pair(3, 11)
        a = InstanceAnalysis(sigma, rho, random_pinching(3, seed=12))
        fam = neg_power(beta)
        alpha, g = fam.measure_alpha, a.gamma_sup
        # maxf_bound's rhs_l, in its operation order, with l_alpha(beta)
        expected = (
            (l_alpha(beta) / fam.measure_c)
            * (1.0 + g) ** (-(4 * alpha + 2))
            * g ** (-(2 * alpha + 2))
            * a.sigma_inv_sup ** (-(2 * alpha + 2))
            * a.residual_l ** (4 * (alpha + 1))
        )
        assert maxf_bound(a, fam).rhs_l == expected


class TestCondexpBound:
    def test_equal_states(self):
        rho = random_density(3, 3, 1)
        report = bs_bound_condexp(InstanceAnalysis(rho, rho, random_pinching(3, seed=2)))
        assert abs(report.gap) <= 1e-10
        assert report.rhs_k <= 1e-10
        assert report.rhs_l <= 1e-10
        assert report.precondition_ok

    def test_commuting_fixed_pair(self):
        sigma = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rho = np.diag([0.4, 0.4, 0.2]).astype(complex)
        report = bs_bound_condexp(InstanceAnalysis(sigma, rho, diagonal_pinching(3)))
        assert abs(report.gap) <= 1e-10
        assert report.rhs <= 1e-10

    def test_random_campaign(self):
        for seed in range(100):
            d = 2 + seed % 3
            sigma, rho = sample_pair(d, seed)
            pinching = random_pinching(d, seed=1000 + seed)
            report = bs_bound_condexp(InstanceAnalysis(sigma, rho, pinching))
            tol = 1e-8 * (1.0 + report.gap)
            assert report.slack >= -tol


class TestChannelBound:
    def test_identity_channel(self):
        sigma, rho = sample_pair(3, 3)
        report = bs_bound_channel(InstanceAnalysis(sigma, rho, identity_channel(3)))
        assert abs(report.gap) <= 1e-9
        assert report.rhs <= 1e-9

    def test_depolarizing_gap_is_full_divergence(self):
        sigma, rho = sample_pair(3, 4)
        report = bs_bound_channel(InstanceAnalysis(sigma, rho, depolarizing_channel(3)))
        assert report.gap == pytest.approx(bs_entropy(StatePair(sigma, rho)), abs=1e-10)
        assert report.slack >= -1e-8 * (1.0 + report.gap)

    def test_random_campaign(self):
        for seed in range(100):
            d = 2 + seed % 3
            sigma, rho = sample_pair(d, 2000 + seed)
            channel = random_cptp(d, d, 2 + seed % 2, seed=3000 + seed)
            report = bs_bound_channel(InstanceAnalysis(sigma, rho, channel))
            tol = 1e-8 * (1.0 + report.gap)
            assert report.slack >= -tol

    def test_rank_deficient_regularized_route(self):
        # the bound reads the common-support gap; the regularized route agrees
        for seed in range(10):
            sigma, rho = sample_equal_support_pair(4, 3, 4000 + seed)
            channel = random_cptp(4, 4, 2, seed=5000 + seed)
            report = bs_bound_channel(InstanceAnalysis(sigma, rho, channel))
            tol = 1e-8 * (1.0 + report.gap)
            assert report.slack >= -tol
            top = regularized_divergence(StatePair(sigma, rho), xlogx(), kind="maximal")
            bottom = regularized_divergence(
                StatePair(channel.apply(sigma), channel.apply(rho)), xlogx(), kind="maximal"
            )
            assert top.increment < 1e-6
            assert bottom.increment < 1e-6
            assert abs(top.value - bottom.value - report.gap) <= 1e-9

    def test_one_spectral_route_for_every_input(self):
        # sigma, rho, G and their three outputs for either pair: a sampled
        # state arrives undecomposed and is decomposed on its first read here
        channel = random_cptp(4, 4, 2, seed=5000)
        calls = []
        for sigma, rho in (sample_equal_support_pair(4, 3, 4000), sample_pair(4, 4000)):
            before = linalg.herm_eig_calls
            bs_bound_channel(InstanceAnalysis(sigma, rho, channel))
            calls.append(linalg.herm_eig_calls - before)
        assert calls == [6, 6]

    def test_rank_deficient_input_forms_one_projector_difference(self, monkeypatch):
        # gap_bs decides the input supports, once per pair; the bound itself
        # does not decide them again
        sigma, rho = sample_equal_support_pair(4, 3, 4000)
        a = InstanceAnalysis(sigma, rho, random_cptp(4, 4, 2, seed=5000))
        projected = []
        support_projector = states.support_projector
        monkeypatch.setattr(
            states, "support_projector", lambda x: projected.append(x) or support_projector(x)
        )
        bs_bound_channel(a)
        assert sum(x is a.inp.s for x in projected) == 1
        assert sum(x is a.inp.r for x in projected) == 1

    def test_support_mismatch(self):
        sigma = np.diag([1.0, 0.0]).astype(complex)
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(SupportMismatch):
            bs_bound_channel(InstanceAnalysis(sigma, rho, identity_channel(2)))

    def test_support_mismatch_with_full_rank_sigma(self):
        sigma = np.diag([0.5, 0.5]).astype(complex)
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SupportMismatch):
            bs_bound_channel(InstanceAnalysis(sigma, rho, identity_channel(2)))


class TestMaxfBound:
    def test_equal_states_xlogx(self):
        rho = random_density(3, 3, 6)
        report = maxf_bound(InstanceAnalysis(rho, rho, random_pinching(3, seed=7)), xlogx())
        assert abs(report.gap) <= 1e-10
        assert report.rhs <= 1e-10
        assert report.precondition_ok

    def test_neg_power_campaign(self):
        asserted = 0
        for seed in range(60):
            d = 2 + seed % 3
            sigma, rho = sample_pair(d, 6000 + seed)
            pinching = random_pinching(d, seed=7000 + seed)
            report = maxf_bound(InstanceAnalysis(sigma, rho, pinching), neg_power(0.5))
            if report.precondition_ok:
                asserted += 1
                assert report.slack >= -1e-8
        assert asserted > 0

    def test_channel_target(self):
        sigma, rho = sample_pair(3, 8)
        channel = random_cptp(3, 3, 2, seed=9)
        report = maxf_bound(InstanceAnalysis(sigma, rho, channel), xlogx())
        if report.precondition_ok:
            assert report.slack >= -1e-8

    def test_xlogx_recovery_form_below_dedicated_bs_form(self):
        # the generic machinery at alpha=0 is weaker than the dedicated bound
        for seed in range(30):
            sigma, rho = sample_pair(3, 9000 + seed)
            pinching = random_pinching(3, seed=9100 + seed)
            generic = maxf_bound(InstanceAnalysis(sigma, rho, pinching), xlogx())
            dedicated = bs_bound_condexp(InstanceAnalysis(sigma, rho, pinching))
            assert generic.rhs_l <= dedicated.rhs_l + 1e-12
        for seed in range(20):
            sigma, rho = sample_pair(3, 9200 + seed)
            channel = random_cptp(3, 3, 2, seed=9300 + seed)
            generic = maxf_bound(InstanceAnalysis(sigma, rho, channel), xlogx())
            dedicated = bs_bound_channel(InstanceAnalysis(sigma, rho, channel))
            assert generic.rhs_l <= dedicated.rhs_l + 1e-12

    def test_missing_measure_params(self):
        sigma, rho = sample_pair(2, 10)
        with pytest.raises(MissingMeasureParams):
            maxf_bound(InstanceAnalysis(sigma, rho, diagonal_pinching(2)), square_family())

    def test_target_type_checked(self):
        sigma, rho = sample_pair(2, 11)
        with pytest.raises(TypeError):
            maxf_bound(InstanceAnalysis(sigma, rho, "nope"), xlogx())


class TestLemmaIntegrand:
    def test_equal_states_both_sides_vanish(self):
        rho = random_density(3, 3, 12)
        a = InstanceAnalysis(rho, rho, random_pinching(3, seed=13))
        lhs, rhs = lemma_integrand_check(a, 1.0)
        assert abs(lhs) <= 1e-10
        assert abs(rhs) <= 1e-10

    def test_commuting_fixed_pair(self):
        sigma = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rho = np.diag([0.4, 0.4, 0.2]).astype(complex)
        lhs, rhs = lemma_integrand_check(InstanceAnalysis(sigma, rho, diagonal_pinching(3)), 0.5)
        assert abs(lhs) <= 1e-10
        assert abs(rhs) <= 1e-10

    def test_grid_campaign(self):
        for seed in range(30):
            d = 2 + seed % 3
            sigma, rho = sample_pair(d, 10000 + seed)
            pinching = random_pinching(d, seed=11000 + seed)
            for t in (0.01, 0.1, 1.0, 10.0, 100.0):
                lhs, rhs = lemma_integrand_check(InstanceAnalysis(sigma, rho, pinching), t)
                assert lhs - rhs >= -1e-9

    def test_analysis_contraction_is_the_kraus_contraction(self):
        for d in (2, 3, 4):
            sigma, rho = sample_pair(d, 12200 + d)
            pinching = random_pinching(d, seed=12300 + d)
            u = InstanceAnalysis(sigma, rho, pinching).contraction
            reference = build_contraction(sigma, pinching.as_kraus())
            x = pinching.apply(sigma.mat @ rho.mat)
            assert np.linalg.norm(u.apply(x) - reference.apply(x)) <= 1e-12
            assert np.linalg.norm(u.adjoint(x) - reference.adjoint(x)) <= 1e-12

    def test_channel_is_refused(self):
        # the inequality is stated for conditional expectations only
        sigma, rho = sample_pair(2, 14)
        with pytest.raises(TypeError):
            lemma_integrand_check(InstanceAnalysis(sigma, rho, identity_channel(2)), 1.0)

    def test_bad_t(self):
        sigma, rho = sample_pair(2, 14)
        with pytest.raises(ValueError):
            lemma_integrand_check(InstanceAnalysis(sigma, rho, diagonal_pinching(2)), 0.0)

    def test_singular_raises(self):
        pinching = diagonal_pinching(3)
        with pytest.raises(SingularState):
            lemma_integrand_check(
                InstanceAnalysis(random_density(3, 2, 15), random_density(3, 3, 16), pinching), 1.0
            )


class TestZeroCharacterization:
    def test_rhs_zero_iff_residuals_zero(self):
        sigma, rho, pinching = pinching_fixed_pair(4, 17)
        eq_report = bs_bound_condexp(InstanceAnalysis(sigma, rho, pinching))
        assert eq_report.rhs_k <= 1e-20
        assert eq_report.rhs_l <= 1e-20
        sigma2, rho2 = sample_pair(4, 18)
        generic = bs_bound_condexp(InstanceAnalysis(sigma2, rho2, random_pinching(4, seed=19)))
        assert generic.rhs_k > 0.0
        assert generic.rhs_l > 0.0
