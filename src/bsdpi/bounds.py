"""Evaluators for the strengthened data-processing lower bounds.

Each evaluator returns a BoundReport carrying the divergence gap, the two
right-hand-side variants (the square-root-condition form with the K-type
prefactor and the recovery form with the L-type prefactor) and the
precondition flag.  The constants that enter a bound are read off the
InstanceAnalysis, the family and k_alpha / l_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ContractionMap, KrausChannel, SubalgebraExpectation
from .divergences import FDivFamily, bs_entropy, maximal_f
from .errors import BadBeta, MissingMeasureParams, SingularState
# herm_eig stays bound here: bench/tests check that the tracer wraps this binding
from .linalg import herm_eig, hs_inner, lazy_property, schatten_norm  # noqa: F401
from .recovery import condexp_equality_residuals, stinespring_residual
from .states import StatePair


@dataclass(frozen=True)
class BoundReport:
    """Gap, both bound values and the precondition flag."""

    gap: float
    rhs_k: float
    rhs_l: float
    precondition_ok: bool

    @property
    def rhs(self) -> float:
        return max(self.rhs_k, self.rhs_l)

    @property
    def slack(self) -> float:
        return self.gap - self.rhs

    @property
    def slack_k(self) -> float:
        return self.gap - self.rhs_k

    @property
    def slack_l(self) -> float:
        return self.gap - self.rhs_l


def k_alpha(alpha: float) -> float:
    """Prefactor of the square-root-condition bound; (pi/4)^4 at alpha = 0."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    a = float(alpha)
    return (
        ((2 * a + 1) / (2 * a + 2)) ** (4 * (a + 1))
        * (2 * a + 1) ** (-2.0)
        * 4.0 ** (-(4 * a + 2))
        * math.pi ** (4 * (a + 1))
    )


def _l_from_alpha(alpha: float) -> float:
    # recovery form = square-root form with an extra (1/2)^{4(alpha+1)} factor
    return k_alpha(alpha) * 0.5 ** (4 * (alpha + 1))


def l_alpha(beta: float) -> float:
    """Prefactor of the recovery-form bound for the power family, beta in (0, 1):
    the one maxf_bound uses at that family's measure exponent alpha = beta / 2."""
    if not 0.0 < beta < 1.0:
        raise BadBeta(f"beta {beta} outside (0, 1)")
    return _l_from_alpha(beta / 2.0)


class InstanceAnalysis:
    """The shared spectral analysis of one (sigma, rho, target) instance.

    ``target`` is a KrausChannel or a SubalgebraExpectation.  The input pair
    and the output pair decompose sigma, rho and G at most once each, and
    every quantity below is evaluated at most once, on first use.  The DPI
    gap, both bound forms, the bound of every maximal-f family and the
    equality residuals all read the same analysis, so a family costs one
    scalar function on the cached spectra of G.  An analysis belongs to
    one instance and is dropped with it.  sigma and rho are each a Spectrum
    or a plain, possibly unnormalized, PSD array.

    The instance evaluators of this module and of ``recovery`` take an analysis.
    """

    def __init__(self, sigma, rho, target):
        if not isinstance(target, (SubalgebraExpectation, KrausChannel)):
            raise TypeError("target must be a SubalgebraExpectation or a KrausChannel")
        self.target = target
        self.inp = StatePair(sigma, rho)

    @property
    def is_condexp(self) -> bool:
        return isinstance(self.target, SubalgebraExpectation)

    @lazy_property
    def out(self) -> StatePair:
        """The pair of outputs (sigma_T, rho_T) as the target holds them: a
        conditional expectation's compressed, so G_T goes block by block."""
        return self.target.outputs(self.inp.sigma, self.inp.rho)

    @lazy_property
    def gap_bs(self) -> float:
        """BS(sigma||rho) - BS(sigma_T||rho_T), each on its pair's common support."""
        return bs_entropy(self.inp) - bs_entropy(self.out)

    def gap_maximal(self, fam: FDivFamily) -> float:
        return maximal_f(self.inp, fam) - maximal_f(self.out, fam)

    @property
    def gamma_sup(self) -> float:
        """||G||_inf of the input pair."""
        return self.inp.ratio.lam_max

    @lazy_property
    def sigma_inv_sup(self) -> float:
        """||sigma^-1||_inf for a conditional expectation, ||sigma_T^-1||_inf
        for a channel (Moore-Penrose on singular states)."""
        spec = self.inp.s if self.is_condexp else self.out.s
        return 1.0 / spec.min_positive

    @lazy_property
    def pulled_back(self) -> np.ndarray:
        """T*(sigma_T^-1 rho_T); sigma times it is the BS recovery of rho_T."""
        return self.target.adjoint_apply(self.out.s.pinv @ self.out.rho)

    @lazy_property
    def contraction(self) -> ContractionMap:
        """U(X) = sigma^{1/2} T*(sigma_T^{-1/2} X) on the cached spectra."""
        return ContractionMap(self.target, self.inp.s.sqrt, self.out.s.rsqrt)

    @lazy_property
    def _condexp_residuals(self) -> tuple[float, float]:
        return condexp_equality_residuals(self)

    @lazy_property
    def residual_k(self) -> float:
        """Residual of the square-root equality condition (K form): the
        strange residual for a conditional expectation, the Stinespring
        residual for a channel."""
        if self.is_condexp:
            return self._condexp_residuals[1]
        return stinespring_residual(self)

    @lazy_property
    def residual_l(self) -> float:
        """Residual of the recovery equality condition (L form).

        Conditional expectation: ||rho - sigma sigma_N^-1 rho_N||_2.
        Channel: ||sigma T*(sigma_T^-1 rho_T) - rho||_2.
        """
        if self.is_condexp:
            return self._condexp_residuals[0]
        return schatten_norm(self.inp.sigma @ self.pulled_back - self.inp.rho, 2)


def _bs_report(a: InstanceAnalysis) -> BoundReport:
    """The analysis' gap_bs against rhs_k = (pi/4)^4 ||G||_inf^-2 residual_k^4
    and rhs_l = (pi/8)^4 ||G||_inf^-4 ||sigma^-1||_inf^-2 residual_l^4."""
    gap = a.gap_bs
    residual_k = a.residual_k
    residual_l = a.residual_l
    gamma_sup = a.gamma_sup
    sigma_inv_sup = a.sigma_inv_sup
    rhs_k = (math.pi / 4.0) ** 4 * gamma_sup ** (-2.0) * residual_k**4
    rhs_l = (math.pi / 8.0) ** 4 * gamma_sup ** (-4.0) * sigma_inv_sup ** (-2.0) * residual_l**4
    return BoundReport(gap=gap, rhs_k=rhs_k, rhs_l=rhs_l, precondition_ok=True)


def bs_bound_condexp(a: InstanceAnalysis) -> BoundReport:
    """Strengthened BS-entropy DPI bound under a conditional expectation.

    rhs_k = (pi/4)^4 ||G||_inf^-2 r_strange^4 and
    rhs_l = (pi/8)^4 ||G||_inf^-4 ||sigma^-1||_inf^-2 r_recovery^4.
    Both hold unconditionally, so precondition_ok is always True.
    """
    return _bs_report(a)


def bs_bound_channel(a: InstanceAnalysis) -> BoundReport:
    """Strengthened BS-entropy DPI bound for a general channel.

    The K form uses the Stinespring-isometry residual; the L form uses the
    recovery residual with ||sigma_T^-1||_inf.  Rank-deficient inputs need
    equal supports; their gap is the BS-entropy on the common support, as for
    every input, and their residuals use Moore-Penrose inverses.
    """
    a.inp.require_equal_supports()
    return _bs_report(a)


def maxf_bound(a: InstanceAnalysis, fam: FDivFamily) -> BoundReport:
    """Strengthened DPI bound for a maximal f-divergence with measure constants.

    The analysis' target is either a SubalgebraExpectation or a KrausChannel.
    The precondition flag reflects the states-not-too-far condition; when it is
    False the right-hand sides are still reported but carry no guarantee.
    Every family evaluated on one analysis shares its residuals and spectra.
    """
    if fam.measure_c is None or fam.measure_alpha is None:
        raise MissingMeasureParams(f"family {fam.tag!r} has no (C, alpha)")
    alpha = fam.measure_alpha
    c = fam.measure_c
    residual_k = a.residual_k
    residual_l = a.residual_l
    sigma_inv_sup = a.sigma_inv_sup
    gap = a.gap_maximal(fam)
    gamma_sup = a.gamma_sup

    check = (
        (2 * alpha + 1) * math.sqrt(c) / 4.0 * math.sqrt(max(gap, 0.0)) / (1.0 + gamma_sup)
    ) ** (1.0 / (1.0 + alpha))
    precondition_ok = check <= 1.0

    k = k_alpha(alpha)
    l = _l_from_alpha(alpha)
    envelope = (1.0 + gamma_sup) ** (-(4 * alpha + 2))
    rhs_k = (k / c) * envelope * residual_k ** (4 * (alpha + 1))
    rhs_l = (
        (l / c)
        * envelope
        * gamma_sup ** (-(2 * alpha + 2))
        * sigma_inv_sup ** (-(2 * alpha + 2))
        * residual_l ** (4 * (alpha + 1))
    )
    return BoundReport(gap=gap, rhs_k=rhs_k, rhs_l=rhs_l, precondition_ok=precondition_ok)


def lemma_integrand_check(a: InstanceAnalysis, t: float):
    """Both sides of the resolvent integrand inequality at one t > 0.

    Returns (lhs, rhs) with lhs the pulled-back resolvent difference paired
    against sigma_N^{1/2} and rhs = t ||w_t||_2^2; lhs - rhs >= 0 up to
    rounding for every t > 0.  The analysis' target must be a conditional
    expectation.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not a.is_condexp:
        raise TypeError("the integrand check needs a conditional expectation")
    if not (a.inp.s.full_rank and a.inp.r.full_rank):
        raise SingularState("the integrand check needs full-rank states")
    contraction = a.contraction
    sn_half = a.out.s.sqrt
    eye = np.eye(a.inp.s.dim)

    resolvent_u = np.linalg.solve(a.inp.ratio.mat + t * eye, contraction.apply(sn_half))
    resolvent_n = np.linalg.solve(a.out.ratio.mat + t * eye, sn_half)
    lhs = float((hs_inner(sn_half, contraction.adjoint(resolvent_u))
                 - hs_inner(sn_half, resolvent_n)).real)
    w_t = contraction.apply(resolvent_n) - resolvent_u
    rhs = t * float(np.vdot(w_t, w_t).real)
    return lhs, rhs
