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

PROJECTOR_TOL = 1e-10
ISOMETRY_TOL = 1e-10


def matrix_units(n: int) -> np.ndarray:
    """The n x n matrix units E_ij, stacked in row-major order of (i, j)."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


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
        defect = float(np.linalg.norm(self.v.conj().T @ self.v - np.eye(self.d_in)))
        object.__setattr__(self, "defect", defect)
        if defect > ISOMETRY_TOL * max(1.0, self.d_in**0.5):
            raise InvalidChannel("sum K*K = V*V deviates from the identity")

    def apply(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (self.d_in, self.d_in):
            raise DimMismatch(f"expected shape {(self.d_in,) * 2}, got {omega.shape}")
        return partial_trace_env(self.v @ omega @ self.v.conj().T, self.d_out, self.s)


class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise InvalidChannel("empty Kraus family")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise InvalidChannel("Kraus operators must share one 2-d shape")
        self.kraus = ops
        self.d_out, self.d_in = shape
        self.validate()

    def validate(self) -> None:
        """Refuse a non-finite entry, then check trace preservation as V*V = I
        on the Stinespring isometry.  Complete positivity needs no check: choi()
        is sum_a v_a v_a* over the vectorised Kraus operators."""
        s = len(self.kraus)
        # row r*s + a of V is row r of K_a
        v = np.stack(self.kraus, axis=1).reshape(self.d_out * s, self.d_in)
        if not np.isfinite(v).all():
            raise DomainViolation("Kraus operator has a NaN or infinite entry")
        self.dilation = StinespringIsometry(v=v, d_in=self.d_in, d_out=self.d_out, s=s)

    def choi(self) -> np.ndarray:
        """(Id otimes T) applied to the unnormalized maximally entangled state."""
        n = self.d_in * self.d_out
        c = np.zeros((n, n), dtype=complex)
        for k in self.kraus:
            v = k.T.reshape(-1)  # v[i*d_out + r] = K[r, i]
            c += np.outer(v, v.conj())
        return c

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(as_matrix(x), dtype=complex)
        if x.shape != (self.d_in, self.d_in):
            raise DimMismatch(f"expected shape {(self.d_in,) * 2}, got {x.shape}")
        return sum(k @ x @ k.conj().T for k in self.kraus)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(as_matrix(y), dtype=complex)
        if y.shape != (self.d_out, self.d_out):
            raise DimMismatch(f"expected shape {(self.d_out,) * 2}, got {y.shape}")
        return sum(k.conj().T @ y @ k for k in self.kraus)

    def stinespring(self) -> StinespringIsometry:
        """V = sum_a K_a ⊗ e_a; the environment basis follows the Kraus order."""
        return self.dilation

    def to_json(self) -> str:
        return json.dumps(
            {
                "d_in": self.d_in,
                "d_out": self.d_out,
                "kraus": [matrix_to_entries(k) for k in self.kraus],
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
    """X -> sum_k P_k X P_k for orthogonal projectors summing to the identity."""

    def __init__(self, projectors: Sequence[np.ndarray]):
        self.projectors = [np.asarray(p, dtype=complex) for p in projectors]
        if not self.projectors:
            raise InvalidChannel("empty projector family")
        self.dim = self.projectors[0].shape[0]
        self.validate()

    def validate(self) -> None:
        if any(p.shape != (self.dim, self.dim) for p in self.projectors):
            raise InvalidChannel("projectors must be square and equal sized")
        stack = np.array(self.projectors)
        defect = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2))
        if float(defect.max()) > PROJECTOR_TOL:
            raise InvalidChannel("projectors are not Hermitian")
        for j, pj in enumerate(self.projectors):
            products = pj @ stack  # P_j P_k for every k
            products[j] -= pj
            if float(np.linalg.norm(products, axis=(1, 2)).max()) > PROJECTOR_TOL:
                raise InvalidChannel("projectors are not mutually orthogonal")
        total = stack.sum(axis=0)
        if float(np.linalg.norm(total - np.eye(self.dim))) > PROJECTOR_TOL:
            raise InvalidChannel("projectors do not sum to the identity")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(as_matrix(x), dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise DimMismatch(f"expected shape {(self.dim,) * 2}, got {x.shape}")
        return sum(p @ x @ p for p in self.projectors)

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
    return KrausChannel(list(matrix_units(dim) / np.sqrt(dim)))


def diagonal_pinching(dim: int) -> Pinching:
    projectors = []
    for k in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[k, k] = 1.0
        projectors.append(p)
    return Pinching(projectors)


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
    """The channel of the isometry V = sum_a K_a ⊗ e_a: its Kraus operators
    are read off the environment slices in index order."""
    blocks = v.reshape(d_out, num_kraus, v.shape[1])
    return KrausChannel([blocks[:, a, :] for a in range(num_kraus)])


def random_cptp(d_in: int, d_out: int, num_kraus: int, seed: int) -> KrausChannel:
    """Haar-induced CPTP map: QR-orthonormalized Gaussian isometry, Kraus
    operators read off the environment slices in index order."""
    if d_out * num_kraus < d_in:
        raise InvalidChannel("d_out * num_kraus must be at least d_in")
    rng = np.random.Generator(np.random.Philox(seed))
    v = _haar_isometry(ginibre(rng, d_out * num_kraus, d_in)[None])[0]
    return isometry_channel(v, d_out, num_kraus)


def block_bounds(dim: int, rng: np.random.Generator, num_blocks: int | None = None) -> list:
    """The column bounds of >= 2 blocks of consecutive columns out of dim,
    drawn from ``rng`` unless num_blocks is given."""
    if num_blocks is None:
        num_blocks = int(rng.integers(2, dim + 1))
    if not 2 <= num_blocks <= dim:
        raise ValueError(f"num_blocks {num_blocks} outside [2, {dim}]")
    cuts = np.sort(rng.choice(np.arange(1, dim), size=num_blocks - 1, replace=False))
    return [0, *cuts.tolist(), dim]


def block_pinching(u: np.ndarray, bounds: list) -> Pinching:
    """The pinching onto the blocks of columns of the unitary u between bounds."""
    blocks = [u[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return Pinching([w @ w.conj().T for w in blocks])


def random_blocks(dim: int, rng: np.random.Generator, num_blocks: int | None = None):
    """A Haar-random unitary U drawn from ``rng`` and the pinching onto >= 2
    blocks of consecutive columns of U: (U, Pinching)."""
    g = ginibre(rng, dim, dim)
    bounds = block_bounds(dim, rng, num_blocks)
    u = _haar_isometry(g[None])[0]
    return u, block_pinching(u, bounds)


def random_pinching(dim: int, seed: int, num_blocks: int | None = None) -> Pinching:
    """Pinching onto a Haar-random block decomposition with >= 2 blocks."""
    return random_blocks(dim, np.random.Generator(np.random.Philox(seed)), num_blocks)[1]


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
