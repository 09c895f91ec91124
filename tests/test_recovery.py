import json

import numpy as np
import pytest

from bsdpi import (
    PartialTraceFactor,
    SingularState,
    bs_recovery,
    condexp_equality_residuals,
    depolarizing_channel,
    diagonal_pinching,
    equality_residuals,
    identity_channel,
    pinching_fixed_pair,
    random_cptp,
    random_density,
    random_pinching,
    stinespring_residual,
)
from bsdpi.bounds import InstanceAnalysis
from bsdpi.campaigns import sample_pair
from bsdpi.linalg import Spectrum, schatten_norm
from bsdpi.recovery import petz_recovery


def dilation_residual(sigma, rho, channel):
    """The isometry-form residual in its dilation form, kept as the reference:
    || V s^(1/2) V* (X ⊗ I) - V G^(1/2) s^(1/2) V* ||_2 on the full
    (d_out s)-dimensional space, X = s_T^(-1/2) G_T^(1/2) s_T^(1/2)."""
    a = InstanceAnalysis(sigma, rho, channel)
    inp, out = a.inp, a.out
    dilation = channel.stinespring()
    v = dilation.v
    theta = np.kron(out.s.rsqrt @ out.ratio.sqrt @ out.s.sqrt, np.eye(dilation.s))
    lhs = v @ inp.s.sqrt @ v.conj().T @ theta
    rhs = v @ inp.ratio.sqrt @ inp.s.sqrt @ v.conj().T
    return schatten_norm(lhs - rhs, 2)


class TestStinespringResidual:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_the_dilation_form_on_random_channels(self, d):
        for seed in range(3):
            channel = random_cptp(d, d, 2 + seed, seed=700 + 10 * d + seed)
            sigma, rho = sample_pair(d, 800 + 10 * d + seed)
            reference = dilation_residual(sigma, rho, channel)
            residual = stinespring_residual(InstanceAnalysis(sigma, rho, channel))
            assert residual == pytest.approx(reference, rel=1e-12)

    def test_matches_the_dilation_form_between_dimensions(self):
        channel = random_cptp(3, 2, 3, seed=71)
        sigma, rho = sample_pair(3, 72)
        reference = dilation_residual(sigma, rho, channel)
        residual = stinespring_residual(InstanceAnalysis(sigma, rho, channel))
        assert residual == pytest.approx(reference, rel=1e-12)

    def test_matches_the_dilation_form_on_the_depolarizing_channel(self):
        sigma, rho = sample_pair(3, 73)
        channel = depolarizing_channel(3)
        reference = dilation_residual(sigma, rho, channel)
        assert reference > 0.1
        residual = stinespring_residual(InstanceAnalysis(sigma, rho, channel))
        assert residual == pytest.approx(reference, rel=1e-12)


class TestTargetType:
    """The residuals of a Kraus channel refuse a conditional-expectation
    analysis with TypeError, as lemma_integrand_check refuses a channel."""

    @pytest.mark.parametrize("evaluator", [stinespring_residual, equality_residuals])
    def test_conditional_expectation_is_refused(self, evaluator):
        sigma, rho = sample_pair(3, 1)
        with pytest.raises(TypeError, match="KrausChannel"):
            evaluator(InstanceAnalysis(sigma, rho, random_pinching(3, seed=2)))


def petz(channel, sigma, x):
    """The Petz map of ``channel`` at ``sigma``, from the spectra of sigma and T(sigma)."""
    return petz_recovery(channel, sigma, Spectrum(channel.apply(sigma.mat)), x)


class TestPetzRecovery:
    def test_recovers_channel_output_of_sigma(self):
        sigma = random_density(3, 3, 1)
        channel = random_cptp(3, 3, 2, seed=2)
        out = petz(channel, sigma, channel.apply(sigma))
        assert np.linalg.norm(out - sigma.mat) <= 1e-10

    def test_identity_channel(self):
        sigma = random_density(3, 3, 3)
        x = random_density(3, 3, 4).mat
        assert np.linalg.norm(petz(identity_channel(3), sigma, x) - x) <= 1e-10

    def test_trace_preserving(self):
        for seed in range(10):
            sigma = random_density(3, 3, 10 + seed)
            channel = random_cptp(3, 3, 2, seed=20 + seed)
            state = random_density(3, 3, 30 + seed).mat
            out = petz(channel, sigma, state)
            assert abs(np.trace(out).real - 1.0) <= 1e-10


class TestBsRecoveryMap:
    def test_recovers_channel_output_of_sigma(self):
        sigma = random_density(3, 3, 5)
        channel = random_cptp(3, 3, 2, seed=6)
        out = bs_recovery(channel, sigma, channel.apply(sigma))
        assert np.linalg.norm(out - sigma.mat) <= 1e-10

    def test_identity_channel(self):
        sigma = random_density(3, 3, 7)
        x = random_density(3, 3, 8).mat
        assert np.linalg.norm(bs_recovery(identity_channel(3), sigma, x) - x) <= 1e-10

    def test_trace_preserving(self):
        for seed in range(10):
            sigma = random_density(3, 3, 40 + seed)
            channel = random_cptp(3, 3, 2, seed=50 + seed)
            state = random_density(3, 3, 60 + seed).mat
            out = bs_recovery(channel, sigma, state)
            assert abs(np.trace(out).real - 1.0) <= 1e-10


class TestEqualityResiduals:
    def test_equal_states_all_vanish(self):
        rho = random_density(3, 3, 9)
        channel = random_cptp(3, 3, 2, seed=10)
        report = equality_residuals(InstanceAnalysis(rho, rho, channel))
        assert abs(report.gap_bs) <= 1e-9
        assert report.residual_eq2 <= 1e-9
        assert report.residual_eq3 <= 1e-9
        assert report.residual_bs_recovery <= 1e-9
        assert report.residual_petz <= 1e-9
        assert abs(report.renyi2_gap) <= 1e-9

    def test_partial_trace_fixed_pair(self):
        s = 2
        sigma1 = random_density(3, 3, 11).mat
        rho1 = random_density(3, 3, 12).mat
        sigma = np.kron(sigma1, np.eye(s) / s)
        rho = np.kron(rho1, np.eye(s) / s)
        channel = PartialTraceFactor(3, s).as_kraus()
        report = equality_residuals(InstanceAnalysis(sigma, rho, channel))
        assert abs(report.gap_bs) <= 1e-8
        assert report.residual_eq2 <= 1e-8
        assert report.residual_eq3 <= 1e-8
        assert report.residual_bs_recovery <= 1e-8
        assert report.residual_petz <= 1e-8

    def test_constructed_pinching_pair(self):
        sigma, rho, pinching = pinching_fixed_pair(4, 13)
        report = equality_residuals(InstanceAnalysis(sigma, rho, pinching.as_kraus()))
        assert abs(report.gap_bs) <= 1e-9
        assert max(
            report.residual_eq2,
            report.residual_eq3,
            report.residual_bs_recovery,
            report.residual_petz,
        ) <= 1e-7

    def test_generic_pair_copositive(self):
        hits = 0
        trials = 30
        for seed in range(trials):
            sigma, rho = sample_pair(3, 100 + seed)
            pinching = random_pinching(3, seed=200 + seed)
            report = equality_residuals(InstanceAnalysis(sigma, rho, pinching.as_kraus()))
            assert report.gap_bs >= -1e-9
            if report.gap_bs > 1e-10 and report.residual_bs_recovery > 1e-10:
                hits += 1
        # generic-position pairs violate equality with a visibly positive pair
        assert hits == trials

    def test_report_serializes(self):
        sigma, rho = sample_pair(2, 14)
        channel = random_cptp(2, 2, 2, seed=15)
        report = equality_residuals(InstanceAnalysis(sigma, rho, channel))
        payload = json.loads(report.to_json())
        for key in (
            "gap_bs",
            "residual_eq2",
            "residual_eq3",
            "residual_bs_recovery",
            "residual_petz",
            "renyi2_gap",
        ):
            assert key in payload
        assert set(payload["input_hashes"]) == {"sigma", "rho", "channel"}


class TestCondexpResiduals:
    def test_equal_states(self):
        rho = random_density(4, 4, 16)
        pinching = random_pinching(4, seed=17)
        r_rec, r_str = condexp_equality_residuals(InstanceAnalysis(rho, rho, pinching))
        assert r_rec <= 1e-10
        assert r_str <= 1e-10

    def test_commuting_diagonal_with_diagonal_pinching(self):
        sigma = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rho = np.diag([0.4, 0.4, 0.2]).astype(complex)
        a = InstanceAnalysis(sigma, rho, diagonal_pinching(3))
        r_rec, r_str = condexp_equality_residuals(a)
        assert r_rec <= 1e-10
        assert r_str <= 1e-10

    def test_generic_pair_positive(self):
        positive = 0
        trials = 30
        for seed in range(trials):
            sigma, rho = sample_pair(3, 300 + seed)
            pinching = random_pinching(3, seed=400 + seed)
            r_rec, r_str = condexp_equality_residuals(InstanceAnalysis(sigma, rho, pinching))
            if r_rec > 1e-6 and r_str > 1e-6:
                positive += 1
        assert positive == trials

    def test_singular_raises(self):
        pinching = random_pinching(3, seed=18)
        with pytest.raises(SingularState):
            condexp_equality_residuals(
                InstanceAnalysis(random_density(3, 2, 19), random_density(3, 3, 20), pinching)
            )


class TestEqualityImplications:
    def test_forward_and_reverse_on_constructed(self):
        # tiny gap <=> tiny residuals, exercised where equality actually holds
        for seed in range(20):
            sigma, rho, pinching = pinching_fixed_pair(4, 500 + seed)
            report = equality_residuals(InstanceAnalysis(sigma, rho, pinching.as_kraus()))
            scale = 1.0 + abs(report.gap_bs)
            if report.gap_bs <= 1e-12 * scale:
                assert report.residual_eq2 <= 1e-6
                assert report.residual_bs_recovery <= 1e-6
            if report.residual_eq2 <= 1e-12:
                assert report.gap_bs <= 1e-8

    def test_random_implications_hold(self):
        for seed in range(60):
            sigma, rho = sample_pair(3, 600 + seed)
            channel = random_cptp(3, 3, 2, seed=700 + seed)
            report = equality_residuals(InstanceAnalysis(sigma, rho, channel))
            if report.residual_eq2 <= 1e-12:
                assert report.gap_bs <= 1e-8
            if report.gap_bs <= 1e-12:
                assert report.residual_eq2 <= 1e-6

    def test_renyi2_equivalence(self):
        for seed in range(20):
            sigma, rho, pinching = pinching_fixed_pair(4, 800 + seed)
            report = equality_residuals(InstanceAnalysis(sigma, rho, pinching.as_kraus()))
            assert abs(report.gap_bs) <= 1e-10
            assert abs(report.renyi2_gap) <= 1e-8
        for seed in range(20):
            sigma, rho = sample_pair(3, 900 + seed)
            channel = random_cptp(3, 3, 2, seed=1000 + seed)
            report = equality_residuals(InstanceAnalysis(sigma, rho, channel))
            if abs(report.renyi2_gap) > 1e-8:
                assert report.gap_bs > 1e-10

    def test_petz_recoverable_implies_bs_recoverable(self):
        for seed in range(20):
            sigma, rho, pinching = pinching_fixed_pair(4, 1100 + seed)
            report = equality_residuals(InstanceAnalysis(sigma, rho, pinching.as_kraus()))
            if report.residual_petz <= 1e-10:
                assert report.residual_bs_recovery <= 1e-7

    def test_equality_symmetric_in_arguments(self):
        for seed in range(10):
            sigma, rho, pinching = pinching_fixed_pair(4, 1200 + seed)
            channel = pinching.as_kraus()
            fwd = equality_residuals(InstanceAnalysis(sigma, rho, channel))
            rev = equality_residuals(InstanceAnalysis(rho, sigma, channel))
            assert abs(fwd.gap_bs) <= 1e-9 and abs(rev.gap_bs) <= 1e-9
            assert fwd.residual_bs_recovery <= 1e-7
            assert rev.residual_bs_recovery <= 1e-7
        sigma, rho = sample_pair(3, 1300)
        channel = random_cptp(3, 3, 2, seed=1301)
        fwd = equality_residuals(InstanceAnalysis(sigma, rho, channel))
        rev = equality_residuals(InstanceAnalysis(rho, sigma, channel))
        assert (fwd.gap_bs > 1e-9) == (rev.gap_bs > 1e-9)
