"""Quantum channels as Kraus families, conditional expectations, Stinespring
isometries, and the contraction map used by the strengthened bounds."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    DomainViolation,
    InvalidChannel,
    NumericsError,
    ParseError,
    SingularState,
)
from .linalg import Spectrum
from .states import (
    as_matrix,
    as_spectrum,
    entries_to_matrix,
    ginibre,
    json_dim,
    matrix_to_entries,
    read_input,
)

ISOMETRY_TOL = 1e-10


def matrix_units(n: int) -> np.ndarray:
    """The n x n matrix units E_ij, stacked in row-major order of (i, j)."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def isometry_defect(v: np.ndarray) -> float:
    """||V*V - I||_F: how far the columns of V are from orthonormal."""
    return float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))


def partial_trace_env(x: np.ndarray, d_keep: int, s: int) -> np.ndarray:
    """Trace out the trailing tensor factor of dimension s."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (d_keep * s, d_keep * s):
        raise DimMismatch(f"expected shape {(d_keep * s,) * 2}, got {x.shape}")
    return np.trace(x.reshape(d_keep, s, d_keep, s), axis1=1, axis2=3)


@dataclass(frozen=True, eq=False)
class StinespringIsometry:
    """Isometry V with T(w) = tr_env[V w V*]; environment dimension s."""

    v: np.ndarray
    d_in: int
    d_out: int
    s: int
    defect: float = field(init=False)  # Frobenius norm of V*V - I

    def __post_init__(self):
        defect = isometry_defect(self.v)
        object.__setattr__(self, "defect", defect)
        if defect > ISOMETRY_TOL * max(1.0, self.d_in**0.5):
            raise InvalidChannel("sum K*K = V*V deviates from the identity")

    def apply(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (self.d_in, self.d_in):
            raise DimMismatch(f"expected shape {(self.d_in,) * 2}, got {omega.shape}")
        return partial_trace_env(self.v @ omega @ self.v.conj().T, self.d_out, self.s)


class KrausChannel:
    """CPTP map given by one (s, d_out, d_in) stack of Kraus operators; its
    Stinespring isometry V = sum_a K_a ⊗ e_a is a reshape of that stack."""

    def __init__(self, kraus: Sequence[np.ndarray] | np.ndarray):
        try:
            ops = np.asarray(kraus, dtype=complex)
        except ValueError as exc:  # a ragged family
            raise InvalidChannel("Kraus operators must share one 2-d shape") from exc
        if not len(ops):
            raise InvalidChannel("empty Kraus family")
        if ops.ndim != 3:
            raise InvalidChannel("Kraus operators must share one 2-d shape")
        self.kraus = ops
        self.d_out, self.d_in = ops.shape[1:]
        self.validate()

    def validate(self) -> None:
        """Refuse a non-finite entry, then check trace preservation as V*V = I
        on the Stinespring isometry.  Complete positivity needs no check: choi()
        is sum_a v_a v_a* over the vectorised Kraus operators."""
        s = len(self.kraus)
        # row r*s + a of V is row r of K_a
        v = self.kraus.swapaxes(0, 1).reshape(self.d_out * s, self.d_in)
        if not np.isfinite(v).all():
            raise DomainViolation("Kraus operator has a NaN or infinite entry")
        self.dilation = StinespringIsometry(v=v, d_in=self.d_in, d_out=self.d_out, s=s)

    def choi(self) -> np.ndarray:
        """(Id otimes T) applied to the unnormalized maximally entangled state."""
        # vecs[a, i*d_out + r] = K_a[r, i]
        vecs = self.kraus.swapaxes(1, 2).reshape(len(self.kraus), -1)
        return vecs.T @ vecs.conj()

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(as_matrix(x), dtype=complex)
        if x.shape != (self.d_in, self.d_in):
            raise DimMismatch(f"expected shape {(self.d_in,) * 2}, got {x.shape}")
        return (self.kraus @ x @ self.kraus.conj().swapaxes(1, 2)).sum(axis=0)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(as_matrix(y), dtype=complex)
        if y.shape != (self.d_out, self.d_out):
            raise DimMismatch(f"expected shape {(self.d_out,) * 2}, got {y.shape}")
        return (self.kraus.conj().swapaxes(1, 2) @ y @ self.kraus).sum(axis=0)

    def stinespring(self) -> StinespringIsometry:
        """V = sum_a K_a ⊗ e_a; the environment basis follows the Kraus order."""
        return self.dilation

    def to_json(self) -> str:
        return json.dumps(
            {
                "d_in": self.d_in,
                "d_out": self.d_out,
                "kraus": list(map(matrix_to_entries, self.kraus)),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "KrausChannel":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        for key in ("d_in", "d_out", "kraus"):
            if not isinstance(obj, dict) or key not in obj:
                raise ParseError(f"channel JSON must carry '{key}'")
        d_in, d_out = json_dim(obj, "d_in"), json_dim(obj, "d_out")
        if not isinstance(obj["kraus"], list):
            raise ParseError("'kraus' must be a list of operators")
        kraus = [entries_to_matrix(e, d_out, d_in) for e in obj["kraus"]]
        return cls(kraus)


def save_channel(path: str, channel: KrausChannel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(channel.to_json())


def load_channel(path: str) -> KrausChannel:
    """The Kraus channel in a JSON file.

    Every refusal names the file; a malformed, non-finite or invalid channel
    keeps its error type.
    """
    text = read_input(path, "channel")
    try:
        return KrausChannel.from_json(text)
    except NumericsError as exc:
        raise type(exc)(f"{exc} (channel file {path!r})") from exc


class ConditionalExpectation:
    """Trace-preserving idempotent projection onto a unital subalgebra."""

    dim: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """E itself: E is self-adjoint for the trace inner product tr[X* Y]."""
        return self.apply(y)

    def as_kraus(self) -> KrausChannel:
        raise NotImplementedError


class Pinching(ConditionalExpectation):
    """X -> sum_k P_k X P_k over the (K, d, d) stack of P_k = W_k W_k*, for the
    column blocks W_k = u[:, b_k:b_{k+1}] of a unitary u, 0 = b_0 < ... < b_K = d."""

    def __init__(self, u: np.ndarray, bounds: Sequence[int]):
        self.u = np.asarray(u, dtype=complex)
        self.bounds = list(bounds)
        self.validate()
        self.dim = len(self.u)
        blocks = [self.u[:, lo:hi] for lo, hi in zip(self.bounds[:-1], self.bounds[1:])]
        self.projectors = np.stack([w @ w.conj().T for w in blocks])

    def validate(self) -> None:
        """Refuse a u that is not square or bounds that do not rise strictly
        from 0 to d, then a non-finite entry, then check ||u*u - I||_F.  For
        a square u that equals ||uu* - I||_F = ||sum_k P_k - I||_F, and the
        projectors are Hermitian and mutually orthogonal within the same
        order, so one product checks the whole family."""
        u, b = self.u, self.bounds
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise InvalidChannel(f"pinching unitary must be square, got shape {u.shape}")
        if len(b) < 2 or b[0] != 0 or b[-1] != len(u) or any(lo >= hi for lo, hi in zip(b, b[1:])):
            raise InvalidChannel(f"block bounds {b} do not rise strictly from 0 to {len(u)}")
        if not np.isfinite(u).all():
            raise DomainViolation("pinching unitary has a NaN or infinite entry")
        if isometry_defect(u) > ISOMETRY_TOL:
            raise InvalidChannel("pinching unitary u*u deviates from the identity")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(as_matrix(x), dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise DimMismatch(f"expected shape {(self.dim,) * 2}, got {x.shape}")
        return (self.projectors @ x @ self.projectors).sum(axis=0)

    def as_kraus(self) -> KrausChannel:
        return KrausChannel(self.projectors)


class PartialTraceFactor(ConditionalExpectation):
    """X -> tr_env[X] ⊗ I/s on a d_keep * s dimensional space."""

    def __init__(self, d_keep: int, s: int):
        if d_keep < 1 or s < 1:
            raise InvalidChannel("factor dimensions must be positive")
        self.d_keep = d_keep
        self.s = s
        self.dim = d_keep * s

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(as_matrix(x), dtype=complex)
        reduced = partial_trace_env(x, self.d_keep, self.s)
        return np.kron(reduced, np.eye(self.s) / self.s)

    def as_kraus(self) -> KrausChannel:
        # K_{ij} = (I ⊗ |i><j|)/sqrt(s); their action equals apply() exactly.
        eye = np.eye(self.d_keep)
        return KrausChannel([np.kron(eye, e) / np.sqrt(self.s) for e in matrix_units(self.s)])


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel([np.eye(dim, dtype=complex)])


def depolarizing_channel(dim: int) -> KrausChannel:
    """X -> tr[X] I/dim."""
    return KrausChannel(matrix_units(dim) / np.sqrt(dim))


def diagonal_pinching(dim: int) -> Pinching:
    return Pinching(np.eye(dim), range(dim + 1))


def _haar_isometry(g: np.ndarray) -> np.ndarray:
    """Haar-random isometries from a (k, rows, cols) stack of Ginibre
    matrices: the Q of each QR decomposition, its columns phased so that R
    has a positive diagonal.  One QR call decomposes the stack, each matrix
    bit for bit as alone."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d)).conj()[:, None, :]


def isometry_channel(v: np.ndarray, d_out: int, num_kraus: int) -> KrausChannel:
    """The channel of the isometry V = sum_a K_a ⊗ e_a: its Kraus stack is
    a view of V, the environment slices in index order."""
    return KrausChannel(v.reshape(d_out, num_kraus, v.shape[1]).swapaxes(0, 1))


def random_cptp(d_in: int, d_out: int, num_kraus: int, seed: int) -> KrausChannel:
    """Haar-induced CPTP map: QR-orthonormalized Gaussian isometry, Kraus
    operators read off the environment slices in index order."""
    if d_out * num_kraus < d_in:
        raise InvalidChannel("d_out * num_kraus must be at least d_in")
    rng = np.random.Generator(np.random.Philox(seed))
    v = _haar_isometry(ginibre(rng, d_out * num_kraus, d_in)[None])[0]
    return isometry_channel(v, d_out, num_kraus)


def block_bounds(dim: int, rng: np.random.Generator) -> list:
    """The column bounds of 2 to dim blocks of consecutive columns out of
    dim, the number of blocks and the cuts drawn from ``rng``."""
    blocks = int(rng.integers(2, dim + 1))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False))
    return [0, *cuts.tolist(), dim]


def random_blocks(dim: int, rng: np.random.Generator) -> Pinching:
    """The pinching onto >= 2 blocks of consecutive columns of a Haar-random
    unitary, all drawn from ``rng``: the Ginibre matrix, then the bounds."""
    g = ginibre(rng, dim, dim)
    bounds = block_bounds(dim, rng)
    return Pinching(_haar_isometry(g[None])[0], bounds)


def random_pinching(dim: int, seed: int) -> Pinching:
    """Pinching onto a Haar-random block decomposition with >= 2 blocks."""
    return random_blocks(dim, np.random.Generator(np.random.Philox(seed)))


@dataclass(frozen=True, eq=False)
class ContractionMap:
    """The pair (U, U*) with U(X) = sigma^{1/2} T*(sigma_T^{-1/2} X).

    U maps the output algebra of the channel into the input algebra and is a
    contraction; for conditional expectations U*U is the expectation itself.
    """

    channel: KrausChannel | ConditionalExpectation
    sigma_half: np.ndarray
    sigma_t_rsqrt: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.sigma_half @ self.channel.adjoint_apply(self.sigma_t_rsqrt @ x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.sigma_t_rsqrt @ self.channel.apply(self.sigma_half @ y)


def build_contraction(sigma, channel: KrausChannel | ConditionalExpectation) -> ContractionMap:
    s = as_spectrum(sigma)
    sigma_t = Spectrum(channel.apply(s.mat))
    if sigma_t.rank == 0:
        raise SingularState("channel output state vanishes")
    return ContractionMap(channel=channel, sigma_half=s.sqrt, sigma_t_rsqrt=sigma_t.rsqrt)


def superop_matrix(fn: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Matrix of a linear map on d x d matrices in the unit-matrix basis.

    Intended for property tests at dim <= 8; columns are vec(fn(E_ij)) with
    row-major vec and basis order E_00, E_01, ...
    """
    return np.array([fn(e).ravel() for e in matrix_units(dim)], dtype=complex).T
