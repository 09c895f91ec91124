"""Recovery maps for the BS-entropy and residual evaluators for every
equality condition of the data processing inequality."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channels import KrausChannel, SubalgebraExpectation, random_blocks
from .divergences import renyi2_trace
from .errors import SingularState
from .linalg import Spectrum, schatten_norm
from .states import as_matrix, state_to_json

if TYPE_CHECKING:  # bounds imports this module
    from .bounds import InstanceAnalysis


@dataclass(frozen=True)
class RecoveryReport:
    """Gap and equality-condition residuals for one (sigma, rho, channel)."""

    gap_bs: float
    residual_eq2: float
    residual_eq3: float
    residual_bs_recovery: float
    residual_petz: float
    renyi2_gap: float
    input_hashes: dict
    # ||G||_inf of (sigma, rho), which sets the certify threshold; not serialized
    gamma_sup: float

    def to_json(self) -> str:
        payload = {
            "gap_bs": self.gap_bs,
            "residual_eq2": self.residual_eq2,
            "residual_eq3": self.residual_eq3,
            "residual_bs_recovery": self.residual_bs_recovery,
            "residual_petz": self.residual_petz,
            "renyi2_gap": self.renyi2_gap,
            "input_hashes": self.input_hashes,
        }
        return json.dumps(payload)


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _nonvanishing(out: Spectrum) -> Spectrum:
    if out.rank == 0:
        raise SingularState("channel output state vanishes")
    return out


def petz_recovery(
    channel: KrausChannel | SubalgebraExpectation, s: Spectrum, sigma_t: Spectrum, x
) -> np.ndarray:
    """sigma^{1/2} T*(sigma_T^{-1/2} X sigma_T^{-1/2}) sigma^{1/2}, from the
    spectra ``s`` of sigma and ``sigma_t`` of sigma_T = T(sigma) and their
    cached roots."""
    st_rsqrt = sigma_t.rsqrt
    return s.sqrt @ channel.adjoint_apply(st_rsqrt @ np.asarray(x) @ st_rsqrt) @ s.sqrt


def bs_recovery(channel: KrausChannel, sigma, x: np.ndarray) -> np.ndarray:
    """sigma T*(sigma_T^{-1} X): trace preserving but not completely positive."""
    s = as_matrix(sigma)
    sigma_t = _nonvanishing(Spectrum(channel.apply(s)))
    return s @ channel.adjoint_apply(sigma_t.pinv @ np.asarray(x))


def stinespring_residual(a: InstanceAnalysis) -> float:
    """Residual of the isometry-form equality condition.

    || V s^(1/2) V* (X ⊗ I) - V G^(1/2) s^(1/2) V* ||_2 with
    X = s_T^(-1/2) G_T^(1/2) s_T^(1/2), G the ratio operator of (sigma, rho),
    G_T of the channel outputs, and V the Stinespring isometry constructed
    from the Kraus family.  V*V = I, so the left factor V leaves the norm
    unchanged and is dropped, and V*(X ⊗ I) is formed from the blocks K_a* X
    without X ⊗ I.  The analysis' target must be a KrausChannel.
    """
    if not isinstance(a.target, KrausChannel):
        raise TypeError("the Stinespring residual needs a KrausChannel target")
    inp, out = a.inp, a.out
    v_adj = a.target.stinespring().v.conj().T
    x = out.s.rsqrt @ out.ratio.sqrt @ out.s.sqrt
    # column r*s + a of V* is column r of K_a*, so that of V*(X ⊗ I) is column r of K_a* X
    blocks = a.target.kraus.conj().swapaxes(1, 2) @ x
    v_adj_x = blocks.transpose(1, 2, 0).reshape(v_adj.shape)
    lhs = inp.s.sqrt @ v_adj_x
    rhs = inp.ratio.sqrt @ inp.s.sqrt @ v_adj
    return schatten_norm(lhs - rhs, 2)


def equality_residuals(a: InstanceAnalysis) -> RecoveryReport:
    """Every equality-condition residual plus the BS gap for one instance,
    whose target must be a KrausChannel."""
    if not isinstance(a.target, KrausChannel):
        raise TypeError("the equality residuals need a KrausChannel target")
    _nonvanishing(a.out.s)
    _nonvanishing(a.out.r)
    s, r = a.inp.sigma, a.inp.rho
    gap = a.gap_bs
    residual_eq2 = schatten_norm(a.pulled_back - a.inp.s.pinv @ r, 2)
    residual_bs = a.residual_l
    residual_eq3 = a.residual_k
    residual_petz = schatten_norm(s - petz_recovery(a.target, a.inp.r, a.out.r, a.out.sigma), 1)
    renyi_gap = renyi2_trace(s, a.inp.r) - renyi2_trace(a.out.sigma, a.out.r)

    hashes = {
        "sigma": _hash_text(state_to_json(s)),
        "rho": _hash_text(state_to_json(r)),
        "channel": _hash_text(a.target.to_json()),
    }
    return RecoveryReport(
        gap_bs=gap,
        residual_eq2=residual_eq2,
        residual_eq3=residual_eq3,
        residual_bs_recovery=residual_bs,
        residual_petz=residual_petz,
        renyi2_gap=renyi_gap,
        input_hashes=hashes,
        gamma_sup=a.gamma_sup,
    )


def condexp_equality_residuals(a: InstanceAnalysis) -> tuple[float, float]:
    """Residuals of the two conditional-expectation equality conditions.

    Returns (r_recovery, r_strange): the recovery-form residual
    ||rho - sigma sigma_N^{-1} rho_N||_2 and the square-root-form residual
    ||s^(1/2) s_N^(-1/2) G_N^(1/2) s_N^(1/2) - G^(1/2) s^(1/2)||_2
    with N the analysis' conditional expectation.
    """
    inp = a.inp
    inp.require_full_rank()
    out = a.out
    r_recovery = schatten_norm(inp.rho - inp.sigma @ out.s.pinv @ out.rho, 2)
    r_strange = schatten_norm(
        inp.s.sqrt @ out.s.rsqrt @ out.ratio.sqrt @ out.s.sqrt
        - inp.ratio.sqrt @ inp.s.sqrt,
        2,
    )
    return r_recovery, r_strange


def pinching_fixed_pair(dim: int, seed: int):
    """A nontrivial equality instance: a random pinching together with two
    commuting states diagonal in its block eigenbasis, so both are fixed
    points of the expectation and the DPI gap vanishes without rho = sigma.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    pinching = random_blocks(dim, rng)

    def _state() -> Spectrum:
        diag = rng.uniform(0.1, 1.0, size=dim)
        diag = diag / diag.sum()
        m = (pinching.u * diag) @ pinching.u.conj().T
        return Spectrum(0.5 * (m + m.conj().T))

    return _state(), _state(), pinching
