"""The maximal f-divergences read off G by the transpose identity
tr[rho f(rho^{-1/2} sigma rho^{-1/2})] = tr[sigma f~(G)], f~(x) = x f(1/x),
against 50-digit mpmath references and against the route through the core
rho^{-1/2} sigma rho^{-1/2} that they replaced.

The references skip without mpmath.  Each instance's reference is
tr[L f(M) L*] with rho = L L* (Cholesky) and M = L^{-1} sigma L^{-*}, which
is unitarily similar to the core, so one 50-digit eigendecomposition per
instance serves every family.
"""

import numpy as np
import pytest

from bsdpi import StatePair, bs_entropy, maximal_f, neg_power, xlogx
from bsdpi.linalg import RANK_TOL
from bsdpi.sampling import draw_trial, sample_pair
from bsdpi.states import gamma
from test_harness import state_with_spectrum

FAMILIES = {
    "xlogx": (xlogx(), lambda mp, x: x * mp.log(x)),
    "neg_power(0.25)": (neg_power(0.25), lambda mp, x: -x ** (1 - mp.mpf(0.25))),
    "neg_power(0.5)": (neg_power(0.5), lambda mp, x: -x ** (1 - mp.mpf(0.5))),
    "neg_power(0.75)": (neg_power(0.75), lambda mp, x: -x ** (1 - mp.mpf(0.75))),
}
# the error allowed when the core route itself is closer than this
ABS_FLOOR = 1e-12


def pinching_trial_61():
    """Trial 2 of `bounds --channel pinching --dims 16,24,32 --trials 3
    --seed 2019061`, item 61 of the `bounds-large` benchmark pool."""
    return draw_trial(2019061, 2, (16, 24, 32), "pinching")


def product_d9():
    """sigma, rho at d = 3 with eigenvalues proportional to (1, 0.5, 1e-3)
    and (1, 0.3, 1e-4) in random bases, tensored with themselves."""
    sigma = state_with_spectrum([1.0, 0.5, 1e-3], 31)
    rho = state_with_spectrum([1.0, 0.3, 1e-4], 32)
    return np.kron(sigma, sigma), np.kron(rho, rho)


def pair_of_trial_61():
    trial = pinching_trial_61()
    return trial.sigma.mat, trial.rho.mat


# name -> (sigma, rho) builder and the least kappa(G) it is built to reach
INSTANCES = {
    "d3_kappa_7.7e9": (lambda: (state_with_spectrum([1e-5, 0.3, 0.7], 21),
                                state_with_spectrum([1e-7, 0.5, 0.5], 22)), 5e9),
    "d3_kappa_1.7e11": (lambda: (state_with_spectrum([1e-5, 0.3, 0.7], 23),
                                 state_with_spectrum([1e-7, 0.5, 0.5], 24)), 1e11),
    "d3_kappa_8.6e14": (lambda: (state_with_spectrum([1e-8, 0.3, 0.7], 21),
                                 state_with_spectrum([1e-9, 0.5, 0.5], 22)), 5e14),
    "d9_product": (product_d9, 1e13),
    **{f"sample_pair_d{d}": ((lambda d=d: tuple(s.mat for s in sample_pair(d, 100 * d))), 1e4)
       for d in (16, 24, 32)},
    "pinching_trial_61": (pair_of_trial_61, 1e10),
}


def reference(sigma: np.ndarray, rho: np.ndarray) -> dict:
    """tr[rho f(core)] at 50 digits for every family, by name."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    s, r = mp.matrix(sigma.tolist()), mp.matrix(rho.tolist())
    chol = mp.cholesky(r)
    inv = mp.inverse(chol)
    m = inv * s * inv.transpose_conj()
    values, vectors = mp.eighe((m + m.transpose_conj()) / 2)
    lq = chol * vectors
    weights = [mp.fsum(abs(lq[i, j]) ** 2 for i in range(lq.rows)) for j in range(lq.cols)]
    return {
        name: mp.fsum(f(mp, values[j]) * weights[j] for j in range(len(values)))
        for name, (_, f) in FAMILIES.items()
    }


@pytest.mark.parametrize("name", list(INSTANCES))
def test_maximal_f_against_mpmath(name):
    # the G route may be off by at most 10x the core route, or ABS_FLOOR
    build, least_kappa = INSTANCES[name]
    sigma, rho = build()
    refs = reference(sigma, rho)
    pair = StatePair(sigma, rho)
    lam = pair.ratio.eig.values
    assert lam[-1] / lam[0] > least_kappa
    core = gamma(pair.r, pair.s)
    core_weights = core.weights(pair.r)
    for tag, (fam, _) in FAMILIES.items():
        exact = refs[tag]
        error = abs(float(maximal_f(pair, fam) - exact))
        core_error = abs(float(core.trace_fn(fam.f, core_weights) - exact))
        assert error <= max(10.0 * core_error, ABS_FLOOR), (tag, error, core_error)


def test_pinching_trial_61_is_the_one_the_benchmark_runs():
    # kappa(G) = 1.43e10: the rank cut keeps 31 of G's 32 eigenvalues
    trial = pinching_trial_61()
    assert (trial.d, trial.seed) == (32, 16727750584505980138)
    ratio = StatePair(trial.sigma, trial.rho).ratio
    assert ratio.eig.values[-1] / ratio.eig.values[0] > 1e10
    assert ratio.eig.values[0] <= RANK_TOL * ratio.lam_max
    assert ratio.rank == 31


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="bs_entropy drops G's smallest eigenvalue below the rank cut (ROADMAP item 2)")
def test_bs_entropy_matches_maximal_xlogx_on_pinching_trial_61():
    # bs_entropy reads 1.56209 here; maximal_f[xlogx] and mpmath read 2.12869
    trial = pinching_trial_61()
    pair = StatePair(trial.sigma, trial.rho)
    assert abs(bs_entropy(pair) - maximal_f(pair, xlogx())) <= 1e-9
