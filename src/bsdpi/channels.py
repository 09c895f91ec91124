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
from .linalg import BlockSpectrum, Spectrum
from .states import (
    StatePair,
    as_matrix,
    as_spectrum,
    entries_to_matrix,
    ginibre,
    json_dim,
    matrix_to_entries,
    parse_json,
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

    def outputs(self, sigma, rho) -> StatePair:
        """The pair (T(sigma), T(rho)) of full matrices."""
        return StatePair(self.apply(sigma), self.apply(rho))

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
        obj = parse_json(text, ParseError)
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


class SubalgebraExpectation:
    """The trace-preserving conditional expectation onto the unital subalgebra
    u (⊕_k M_{n_k} ⊗ I_{m_k}) u* of M_d, for a unitary u and blocks
    [(n_k, m_k)] with sum_k n_k m_k = d:

        E(X) = u [⊕_k tr_{m_k}(Y_kk) ⊗ I_{m_k}/m_k] u*,   Y = u* X u,

    where Y_kk is the k-th diagonal block of Y, on the next n_k m_k columns of
    u, and tr_{m_k} traces out its trailing factor.  Every unital *-subalgebra
    of M_d has this form.  In u's basis an output is fixed by its compressed
    matrix ⊕_k tr_{m_k}(Y_kk)/m_k, of size N = sum_k n_k: ``compress`` forms
    it, ``expand`` copies each block m_k times and ``lift`` maps it back, so
    ``apply`` is four products.  ``outputs`` keeps a pair of outputs
    compressed, for their spectra to be decomposed block by block.
    """

    kind = "subalgebra"

    def __init__(self, u: np.ndarray, blocks):
        self.u = np.asarray(u, dtype=complex)
        self.blocks = list(blocks)
        self.validate()
        self.dim = len(self.u)
        self.blocks = [(int(n), int(m)) for n, m in self.blocks]
        sizes = [n for n, _ in self.blocks]
        starts: dict = {}  # block size n -> the compressed starts of its blocks
        self.size = 0  # N, of the compressed matrices
        for n in sizes:
            starts.setdefault(n, []).append(self.size)
            self.size += n
        # per block size n: the compressed indices of its k blocks, (k, n), and
        # the flat indices of their entries in a compressed matrix, (k, n, n)
        self.groups = []
        for n, lo in starts.items():
            at = np.array(lo)[:, None] + np.arange(n)
            self.groups.append((at, at[:, :, None] * self.size + at[:, None, :]))
        self.plain = self.size == self.dim  # a pinching: every m_k = 1
        if self.plain:
            self.index = np.arange(self.dim)
            # compress keeps the entries of Y in its diagonal blocks
            label = np.repeat(np.arange(len(sizes)), sizes)
        else:
            # index a * m + i of block k holds its compressed index a and copy
            # i; expand keeps the entries that pair a copy with itself
            self.index = np.repeat(np.arange(self.size), np.repeat([m for _, m in self.blocks], sizes))
            label = np.concatenate([np.tile(np.arange(m), n) for n, m in self.blocks])
        self._keep = label[:, None] == label[None, :]

    def validate(self) -> None:
        """Refuse a u that is not square or blocks that do not tile d, then a
        non-finite entry, then check ||u*u - I||_F: one product."""
        u = self.u
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise InvalidChannel(f"{self.kind} unitary must be square, got shape {u.shape}")
        self._check_blocks()
        if not np.isfinite(u).all():
            raise DomainViolation(f"{self.kind} unitary has a NaN or infinite entry")
        if isometry_defect(u) > ISOMETRY_TOL:
            raise InvalidChannel(f"{self.kind} unitary u*u deviates from the identity")

    def _check_blocks(self) -> None:
        d, blocks = len(self.u), self.blocks
        for block in blocks:
            if (
                not isinstance(block, (tuple, list)) or len(block) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1
                       for v in block)
            ):
                raise InvalidChannel(f"block {block!r} is not a pair (n, m) of positive integers")
        if not blocks or sum(n * m for n, m in blocks) != d:
            raise InvalidChannel(f"blocks {blocks} do not tile dimension {d}: sum n*m != {d}")

    def compress(self, x) -> np.ndarray:
        """The compressed matrix ⊕_k tr_{m_k}(Y_kk)/m_k of E(X), Y = u* X u."""
        x = np.asarray(as_matrix(x), dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise DimMismatch(f"expected shape {(self.dim,) * 2}, got {x.shape}")
        y = self.u.conj().T @ x @ self.u
        if self.plain:
            return y * self._keep
        comp = np.zeros((self.size, self.size), dtype=complex)
        lo = c_lo = 0
        for n, m in self.blocks:
            hi, c_hi = lo + n * m, c_lo + n
            comp[c_lo:c_hi, c_lo:c_hi] = np.trace(
                y[lo:hi, lo:hi].reshape(n, m, n, m), axis1=1, axis2=3) / m
            lo, c_lo = hi, c_hi
        return comp

    def expand(self, z: np.ndarray) -> np.ndarray:
        """⊕_k Z_k ⊗ I_{m_k} in u's basis, for a compressed block-diagonal Z."""
        if self.plain:
            return z
        return z[np.ix_(self.index, self.index)] * self._keep

    def lift(self, z: np.ndarray) -> np.ndarray:
        """u (⊕_k Z_k ⊗ I_{m_k}) u*: the full matrix of a compressed one."""
        return self.u @ self.expand(z) @ self.u.conj().T

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.lift(self.compress(x))

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """E itself: E is self-adjoint for the trace inner product tr[X* Y]."""
        return self.apply(y)

    def outputs(self, sigma, rho) -> StatePair:
        """The pair (E(sigma), E(rho)), each held as its compressed matrix."""
        return StatePair(*(BlockSpectrum(self.compress(x), self) for x in (sigma, rho)))

    def as_kraus(self) -> KrausChannel:
        """The Kraus operators W_k (I_{n_k} ⊗ |i><j|) W_k* / sqrt(m_k), i, j < m_k,
        for the column blocks W_k of u: a pinching's projectors W_k W_k*."""
        ops, lo = [], 0
        for n, m in self.blocks:
            w = self.u[:, lo:lo + n * m]
            lo += n * m
            ops += [w[:, i::m] @ w[:, j::m].conj().T / np.sqrt(m) for i in range(m) for j in range(m)]
        return KrausChannel(ops)


class Pinching(SubalgebraExpectation):
    """X -> sum_k P_k X P_k with P_k = W_k W_k* for the column blocks
    W_k = u[:, b_k:b_{k+1}] of a unitary u, 0 = b_0 < ... < b_K = d: the
    subalgebra of the blocks (b_{k+1} - b_k, 1).  The one check ||u*u - I||_F
    equals ||sum_k P_k - I||_F for a square u, and the projectors are then
    Hermitian and mutually orthogonal within the same order."""

    kind = "pinching"

    def __init__(self, u: np.ndarray, bounds: Sequence[int]):
        self.bounds = list(bounds)
        super().__init__(u, [(hi - lo, 1) for lo, hi in zip(self.bounds, self.bounds[1:])])

    def _check_blocks(self) -> None:
        b, d = self.bounds, len(self.u)
        if len(b) < 2 or b[0] != 0 or b[-1] != d or any(lo >= hi for lo, hi in zip(b, b[1:])):
            raise InvalidChannel(f"block bounds {b} do not rise strictly from 0 to {d}")

    # bound on this class by name, for bench/tracing.py to wrap
    validate = SubalgebraExpectation.validate
    apply = SubalgebraExpectation.apply


class PartialTraceFactor(SubalgebraExpectation):
    """X -> tr_env[X] ⊗ I/s on a d_keep * s dimensional space: u = I and the
    one block (d_keep, s)."""

    def __init__(self, d_keep: int, s: int):
        if d_keep < 1 or s < 1:
            raise InvalidChannel("factor dimensions must be positive")
        self.d_keep = d_keep
        self.s = s
        super().__init__(np.eye(d_keep * s), [(d_keep, s)])


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


def subalgebra_blocks(dim: int, rng: np.random.Generator) -> list:
    """(n_k, m_k) of 2 to dim blocks drawn from ``rng``: the consecutive cuts
    of block_bounds, each of size b split as n * m, with m drawn among the
    divisors of b."""
    bounds = block_bounds(dim, rng)
    blocks = []
    for size in np.diff(bounds).tolist():
        divisors = [m for m in range(1, size + 1) if size % m == 0]
        m = divisors[int(rng.integers(len(divisors)))]
        blocks.append((size // m, m))
    return blocks


def random_subalgebra(dim: int, seed: int) -> SubalgebraExpectation:
    """The expectation onto u (⊕_k M_{n_k} ⊗ I_{m_k}) u* for a Haar-random
    unitary u and subalgebra_blocks, all drawn from the Philox stream of
    ``seed``: the Ginibre matrix, then the blocks."""
    rng = np.random.Generator(np.random.Philox(seed))
    g = ginibre(rng, dim, dim)
    blocks = subalgebra_blocks(dim, rng)
    return SubalgebraExpectation(_haar_isometry(g[None])[0], blocks)


@dataclass(frozen=True, eq=False)
class ContractionMap:
    """The pair (U, U*) with U(X) = sigma^{1/2} T*(sigma_T^{-1/2} X).

    U maps the output algebra of the channel into the input algebra and is a
    contraction; for conditional expectations U*U is the expectation itself.
    """

    channel: KrausChannel | SubalgebraExpectation
    sigma_half: np.ndarray
    sigma_t_rsqrt: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.sigma_half @ self.channel.adjoint_apply(self.sigma_t_rsqrt @ x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.sigma_t_rsqrt @ self.channel.apply(self.sigma_half @ y)


def build_contraction(sigma, channel: KrausChannel | SubalgebraExpectation) -> ContractionMap:
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
