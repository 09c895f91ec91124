"""Standard and maximal f-divergences, relative entropy, BS-entropy,
regularized extensions, and the quadrature oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadBeta, Diverging
from .linalg import LOG_ON_SUPPORT, ScalarFunction, integrate_adaptive
from .states import (
    SUPPORT_EQ_TOL,
    as_matrix,
    as_pair,
    as_spectrum,
    support_leak,
)


@dataclass(frozen=True)
class FDivFamily:
    """An operator convex function, its transpose, and measure constants.

    ``measure_c`` and ``measure_alpha`` are the density constants (C, alpha)
    entering the strengthened bounds; they are None for families whose
    transposed representation has no absolutely continuous lower bound.
    """

    tag: str
    f: ScalarFunction
    f_transpose: ScalarFunction
    measure_c: float | None = None
    measure_alpha: float | None = None


def _xlogx(x):
    return x * np.log(x)


def xlogx() -> FDivFamily:
    """f(x) = x log x: relative entropy / BS-entropy family (C=1, alpha=0)."""
    return FDivFamily(
        tag="xlogx",
        f=ScalarFunction(_xlogx, lo=0.0, at_zero=0.0),
        f_transpose=ScalarFunction(lambda x: -np.log(x), lo=0.0),
        measure_c=1.0,
        measure_alpha=0.0,
    )


def neg_log() -> FDivFamily:
    """f(x) = -log x, the transpose family of xlogx; no measure constants."""
    return FDivFamily(
        tag="neg_log",
        f=ScalarFunction(lambda x: -np.log(x), lo=0.0),
        f_transpose=ScalarFunction(_xlogx, lo=0.0, at_zero=0.0),
    )


def neg_power(beta: float) -> FDivFamily:
    """f(x) = -x^(1-beta) for beta in (0, 1); C = pi/sin(pi beta), alpha = beta/2."""
    if not 0.0 < beta < 1.0:
        raise BadBeta(f"beta {beta} outside (0, 1)")
    return FDivFamily(
        tag=f"neg_power({beta:g})",
        f=ScalarFunction(lambda x: -(x ** (1.0 - beta)), lo=0.0, at_zero=0.0),
        f_transpose=ScalarFunction(lambda x: -(x**beta), lo=0.0, at_zero=0.0),
        measure_c=math.pi / math.sin(math.pi * beta),
        measure_alpha=beta / 2.0,
    )


def square_family() -> FDivFamily:
    """f(x) = x^2; standard and maximal divergences coincide here."""
    return FDivFamily(
        tag="square",
        f=ScalarFunction(np.square),
        f_transpose=ScalarFunction(lambda x: 1.0 / x, lo=0.0),
    )


def family_from_tag(tag: str) -> FDivFamily:
    """Parse tags like 'xlogx', 'square', 'neg_log', 'neg_power:0.5'."""
    tag = tag.strip()
    if tag == "xlogx":
        return xlogx()
    if tag == "square":
        return square_family()
    if tag == "neg_log":
        return neg_log()
    for prefix in ("neg_power:", "neg_power("):
        if tag.startswith(prefix):
            raw = tag[len(prefix):].rstrip(")")
            return neg_power(float(raw))
    raise ValueError(f"unknown divergence family tag {tag!r}")


def standard_f(sigma, rho, fam: FDivFamily) -> float:
    """Double eigenpair sum  sum_ij mu_j f(lambda_i / mu_j) |<u_i, v_j>|^2.

    Both arguments must be full rank; rank-deficient pairs go through
    ``regularized_divergence``.  ``sigma`` may be a StatePair with ``rho``
    None, whose cached spectra are then reused.
    """
    pair = as_pair(sigma, rho)
    pair.require_full_rank()
    es = pair.s.eig
    er = pair.r.eig
    overlap = np.abs(es.vectors.conj().T @ er.vectors) ** 2
    ratios = es.values[:, None] / er.values[None, :]
    return float(np.sum(overlap * fam.f(ratios) * er.values[None, :]))


def relative_entropy(sigma, rho=None) -> float:
    """tr[sigma (log sigma - log rho)] on the joint support.

    Returns +inf when sigma has weight outside the support of rho: that is the
    distinguished value of the divergence, not an error.  ``sigma`` may be a
    StatePair with ``rho`` omitted.
    """
    pair = as_pair(sigma, rho)
    if support_leak(pair.r, pair.sigma) > SUPPORT_EQ_TOL:
        return math.inf
    # sigma's weights in its own eigenbasis are its eigenvalues
    return pair.s.trace_fn(LOG_ON_SUPPORT, pair.s.eig.values) - pair.r.trace_fn(
        LOG_ON_SUPPORT, pair.r.weights(pair.s)
    )


def maximal_f(sigma, rho, fam: FDivFamily) -> float:
    """tr[rho^{1/2} f(rho^{-1/2} sigma rho^{-1/2}) rho^{1/2}] for full-rank pairs.

    The trace is tr[rho f(core)], a sum of f over the core's eigenvalues
    weighted by rho.  ``sigma`` may be a StatePair with ``rho`` None; only
    ``fam.f`` is then evaluated anew, on the pair's cached core spectrum.
    """
    pair = as_pair(sigma, rho)
    pair.require_full_rank()
    return pair.core.trace_fn(fam.f, pair.core_weights)


def bs_entropy(sigma, rho=None) -> float:
    """-tr[sigma log(sigma^{-1/2} rho sigma^{-1/2})] on the common support.

    Accepts unnormalized PSD inputs (needed for the scaling identity); the
    supports of the two arguments must coincide.  ``sigma`` may be a
    StatePair with ``rho`` omitted, whose cached spectra are then reused.
    """
    pair = as_pair(sigma, rho)
    pair.require_equal_supports()
    return -pair.ratio.trace_fn(LOG_ON_SUPPORT, pair.ratio_weights)


def renyi2_trace(sigma, rho) -> float:
    """tr[sigma^2 rho^{-1}] with the Moore-Penrose inverse on singular rho."""
    s = as_matrix(sigma)
    return float(np.trace(s @ s @ as_spectrum(rho).pinv).real)


class RegularizedValue(NamedTuple):
    value: float
    increment: float


def regularized_divergence(sigma, rho, fam: FDivFamily, kind: str = "maximal") -> RegularizedValue:
    """Divergence of rank-deficient states via the epsilon-regularized limit.

    Evaluates at eps in EPS_GRID with both arguments regularized, Richardson
    extrapolates the last three values (first order in eps, then second), and
    reports the extrapolated value together with the increment of the
    extrapolated sequence.  Raises Diverging when the raw increments fail to
    shrink, which signals a support-mismatched (infinite) limit.  ``sigma``
    may be a StatePair with ``rho`` None, whose regularized pairs both kinds share.
    """
    evaluate = {"maximal": maximal_f, "standard": standard_f}.get(kind)
    if evaluate is None:
        raise ValueError("kind must be 'standard' or 'maximal'")
    pair = as_pair(sigma, rho)
    values = [evaluate(reg, None, fam) for reg in pair.regularized]
    d_prev = abs(values[2] - values[1])
    d_last = abs(values[3] - values[2])
    # analytic-in-eps values shrink ~10x per decade; anything slower than 2x
    # above the noise floor signals a divergent (support-mismatched) limit
    if d_last > max(0.5 * d_prev, 1e-10):
        raise Diverging(
            f"regularized increments fail to shrink: {d_prev:.3e} -> {d_last:.3e}"
        )
    # ratio-10 grid: one first-order elimination, then a second-order one
    u1 = (10.0 * values[2] - values[1]) / 9.0
    u2 = (10.0 * values[3] - values[2]) / 9.0
    value = (100.0 * u2 - u1) / 99.0
    return RegularizedValue(value=value, increment=abs(u2 - u1))


def bs_entropy_quadrature(sigma, rho=None, t_max: float | None = None, tol: float = 1e-8) -> float:
    """BS-entropy via the resolvent integral of the operator logarithm.

    Integrates <sigma^{1/2}, ((G + t)^{-1} - (1 + t)^{-1}) sigma^{1/2}> over
    [0, t_max] by adaptive quadrature, with the tail beyond t_max bounded by
    ||G - I||_inf^2 / t_max (G the ratio operator).  With the default t_max
    the result agrees with bs_entropy within ~tol.  Resolvents are evaluated
    by direct linear solves, independent of the spectral-logarithm path: each
    refinement level solves the stack G + t_k I against sigma^{1/2} for all
    its nodes t_k at once.  ``sigma`` may be a StatePair with ``rho`` omitted.
    """
    pair = as_pair(sigma, rho)
    pair.require_full_rank()
    s = pair.sigma
    g = pair.ratio.mat
    s_half = pair.s.sqrt
    s_half_conj = s_half.conj()
    eye = np.eye(s.shape[0])
    w = pair.ratio.eig.values
    dev = max(abs(float(w[0]) - 1.0), abs(float(w[-1]) - 1.0))
    if t_max is None:
        t_max = max(1.0, 10.0 * dev * dev / tol)
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    trace_s = float(np.trace(s).real)

    def integrand(t: np.ndarray) -> np.ndarray:
        rhs = np.broadcast_to(s_half, (t.size, *s.shape))
        x = np.linalg.solve(g + t[:, None, None] * eye, rhs)
        return np.einsum("ij,kij->k", s_half_conj, x).real - trace_s / (1.0 + t)

    # geometric segments keep the adaptive splitting local
    breakpoints = []
    upper = 1.0
    while upper < t_max:
        breakpoints.append(upper)
        upper *= 10.0
    return integrate_adaptive(integrand, 0.0, t_max, 0.5 * tol, breakpoints=breakpoints)
