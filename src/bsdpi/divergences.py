"""Standard and maximal f-divergences, relative entropy, BS-entropy,
regularized extensions, and the quadrature oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadBeta, Diverging, NoConvergence
from .linalg import LOG_ON_SUPPORT, ScalarFunction, spectral_values
from .states import SUPPORT_EQ_TOL, StatePair, as_matrix, as_spectrum, support_leak


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


def standard_f(pair: StatePair, fam: FDivFamily) -> float:
    """Double eigenpair sum  sum_ij mu_j f(lambda_i / mu_j) |<u_i, v_j>|^2.

    Both states must be full rank; rank-deficient pairs go through
    ``regularized_divergence``.
    """
    pair.require_full_rank()
    es = pair.s.eig
    er = pair.r.eig
    overlap = np.abs(es.vectors.conj().T @ er.vectors) ** 2
    ratios = es.values[:, None] / er.values[None, :]
    return float(np.sum(overlap * fam.f(ratios) * er.values[None, :]))


def relative_entropy(pair: StatePair) -> float:
    """tr[sigma (log sigma - log rho)] on the joint support.

    Returns +inf when sigma has weight outside the support of rho: that is the
    distinguished value of the divergence, not an error.
    """
    if support_leak(pair.r, pair.s) > SUPPORT_EQ_TOL:
        return math.inf
    # sigma's weights in its own eigenbasis are its eigenvalues
    return pair.s.trace_fn(LOG_ON_SUPPORT, pair.s.eig.values) - pair.r.trace_fn(
        LOG_ON_SUPPORT, pair.r.weights(pair.s)
    )


def maximal_f(pair: StatePair, fam: FDivFamily) -> float:
    """tr[rho^{1/2} f(rho^{-1/2} sigma rho^{-1/2}) rho^{1/2}] for full-rank pairs.

    By the transpose identity this is tr[sigma f~(G)] with f~ =
    ``fam.f_transpose``, f~(x) = x f(1/x): a sum of f~ over G's refined
    eigenvalues (``pair.ratio_values``) weighted by sigma, on the spectrum
    the BS-entropy reads.  f~ maps every eigenvalue, with no support cut: the
    pair is full rank, so G is positive definite.
    """
    pair.require_full_rank()
    values = spectral_values(pair.ratio, fam.f_transpose, pair.ratio_values)
    return float(values @ pair.ratio_weights)


def bs_entropy(pair: StatePair) -> float:
    """-tr[sigma log(sigma^{-1/2} rho sigma^{-1/2})] on the common support.

    The states may be unnormalized (needed for the scaling identity); their
    supports must coincide.
    """
    pair.require_equal_supports()
    return -pair.ratio.trace_fn(LOG_ON_SUPPORT, pair.ratio_weights)


def renyi2_trace(sigma, rho) -> float:
    """tr[sigma^2 rho^{-1}] with the Moore-Penrose inverse on singular rho."""
    s = as_matrix(sigma)
    return float(np.trace(s @ s @ as_spectrum(rho).pinv).real)


class RegularizedValue(NamedTuple):
    value: float
    increment: float


def regularized_divergence(pair: StatePair, fam: FDivFamily, kind: str = "maximal") -> RegularizedValue:
    """Divergence of rank-deficient states via the epsilon-regularized limit.

    Evaluates at eps in EPS_GRID with both arguments regularized, Richardson
    extrapolates the last three values (first order in eps, then second), and
    reports the extrapolated value together with the increment of the
    extrapolated sequence.  Raises Diverging when the raw increments fail to
    shrink, which signals a support-mismatched (infinite) limit.  Both kinds
    share the pair's regularized pairs.
    """
    evaluate = {"maximal": maximal_f, "standard": standard_f}.get(kind)
    if evaluate is None:
        raise ValueError("kind must be 'standard' or 'maximal'")
    values = [evaluate(reg, fam) for reg in pair.regularized]
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


# the share of tol each dropped end of the quadrature may take, and the
# number of step halvings after its first level
QUAD_END_SHARE = 1e-3
QUAD_MAX_LEVELS = 6


def bs_entropy_quadrature(pair: StatePair, t_max: float | None = None, tol: float = 1e-8) -> float:
    """BS-entropy via the resolvent integral of the operator logarithm.

    Integrates f(t) = <sigma^{1/2}, ((G + t)^{-1} - (1 + t)^{-1}) sigma^{1/2}>
    (G the ratio operator) over [t_lo, t_max] by the trapezoid rule in
    u = log t.  The integrand e^u f(e^u) is analytic in the strip |Im u| < pi
    (its poles sit at log lambda_i +- i pi for the eigenvalues lambda_i of G)
    and decays at both ends, so the sums converge exponentially.  The first
    level has a step of at most 1; each further level halves the step, adds
    only the new midpoints and solves the stack G + t_k I against sigma^{1/2}
    for all of them at once.  The rule stops when two levels agree within
    ``tol``; a level's error is then far below that increment.

    From |f(t)| <= tr(sigma) dev / ((lambda_min + t)(1 + t)), with
    dev = ||G - I||_inf, the dropped [0, t_lo] is at most tr(sigma) dev t_lo /
    lambda_min and [t_max, inf) at most tr(sigma) dev / t_max.  t_lo and the
    default t_max hold each to QUAD_END_SHARE * tol.  Resolvents are direct
    linear solves, independent of the spectral-logarithm path; G's extreme
    eigenvalues only set the ends.

    Raises NoConvergence when G is not numerically positive definite, the
    integrand is not finite at a node, or the levels still disagree after
    QUAD_MAX_LEVELS refinements.
    """
    pair.require_full_rank()
    g = pair.ratio.mat
    s_half = pair.s.sqrt
    s_half_conj = s_half.conj()
    eye = np.eye(g.shape[0])
    w = pair.ratio.eig.values
    trace_s = float(np.trace(pair.sigma).real)
    if w[0] <= 0.0:
        raise NoConvergence(f"ratio operator's smallest eigenvalue {float(w[0])!r} is not positive")
    dev = max(abs(float(w[0]) - 1.0), abs(float(w[-1]) - 1.0))
    # tr(sigma) dev bounds |f| at both ends; equal states (dev = 0) divide by no zero
    scale = trace_s * max(dev, np.finfo(float).tiny)
    if t_max is None:
        t_max = scale / (QUAD_END_SHARE * tol)
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    hi = math.log(t_max)
    lo = min(math.log(QUAD_END_SHARE * tol * float(w[0]) / scale), hi)

    def integrand(u: np.ndarray) -> np.ndarray:
        t = np.exp(u)
        # one right-hand side per matrix: NumPy 1.x reads a (d, d) b against
        # a (k, d, d) stack as k vectors, not as a shared matrix
        rhs = np.broadcast_to(s_half, (t.size, *g.shape))
        x = np.linalg.solve(g + t[:, None, None] * eye, rhs)
        f = t * (np.einsum("ij,kij->k", s_half_conj, x).real - trace_s / (1.0 + t))
        if not np.all(np.isfinite(f)):
            raise NoConvergence("quadrature integrand is not finite")
        return f

    n = max(1, math.ceil(hi - lo))
    h = (hi - lo) / n
    f = integrand(np.linspace(lo, hi, n + 1))
    total = h * (float(np.sum(f)) - 0.5 * float(f[0] + f[-1]))
    for _ in range(QUAD_MAX_LEVELS):
        h *= 0.5
        refined = 0.5 * total + h * float(np.sum(integrand(lo + h * np.arange(1, 2 * n, 2))))
        n *= 2
        if abs(refined - total) <= tol:
            return refined
        total = refined
    raise NoConvergence(f"quadrature levels still differ by more than {tol:.1e}")
