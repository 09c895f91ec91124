"""States as the Spectrum of their matrix: random ensembles, support handling
and serialization."""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    BadRank,
    DimMismatch,
    DomainViolation,
    InputError,
    NumericsError,
    ParseError,
    SingularState,
    SupportMismatch,
)
from .linalg import Spectrum, lazy_property, schatten_norm

# Weight of rho outside the support of sigma tolerated by gamma().
SUPPORT_LEAK_TOL = 1e-8
# Largest sup-norm distance of two support projectors that counts as equal.
SUPPORT_EQ_TOL = 1e-8
TRACE_TOL = 1e-12
# regularization parameters of the epsilon-regularized divergences
EPS_GRID = (1e-4, 1e-5, 1e-6, 1e-7)


def as_matrix(x) -> np.ndarray:
    """Accept a Spectrum or a plain (possibly unnormalized) PSD array."""
    if isinstance(x, Spectrum):
        return x.mat
    return np.asarray(x, dtype=complex)


def as_spectrum(x) -> Spectrum:
    """The spectrum of anything as_matrix accepts, reusing one already made."""
    if isinstance(x, Spectrum):
        return x
    return Spectrum(as_matrix(x))


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A complex Ginibre matrix drawn from ``rng``: the real part first, then
    the imaginary part, each as a single standard-normal block."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def normalized_grams(g: np.ndarray) -> np.ndarray:
    """G G* / tr[G G*] for each G of a (k, rows, cols) stack."""
    m = g @ g.conj().transpose(0, 2, 1)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def density_matrices(g: np.ndarray) -> np.ndarray:
    """The Ginibre-induced states of a (k, dim, rank) stack of Ginibre factors."""
    return hermitian_part(normalized_grams(g))


def random_density(dim: int, rank: int, seed: int) -> Spectrum:
    """Ginibre-induced random state G G* / tr[G G*] with G of shape (dim, rank).

    G is the ``ginibre`` draw of the counter-based Philox generator keyed by
    ``seed``, and the state is ``density_matrices`` of the stack of one G, so
    a stack of a block's factors gives each the same state.  Fixed seeds give
    bit-identical states.
    """
    if not 1 <= rank <= dim:
        raise BadRank(f"rank {rank} outside [1, {dim}]")
    rng = np.random.Generator(np.random.Philox(seed))
    return Spectrum(density_matrices(ginibre(rng, dim, rank)[None])[0])


def regularize(rho, eps: float) -> Spectrum:
    """Full-rank surrogate (rho + eps I) / (1 + eps d); trace is preserved."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = as_matrix(rho)
    d = m.shape[0]
    return Spectrum((m + eps * np.eye(d)) / (1.0 + eps * d))


def support_projector(rho) -> np.ndarray:
    """Orthogonal projector onto the support: the eigenspaces of the last
    Spectrum.rank eigenvalues, those strictly above the rank cut."""
    return as_spectrum(rho).support_projector


def numerical_rank(m) -> int:
    """Spectrum.rank of ``m``."""
    return as_spectrum(m).rank


def support_leak(sigma, rho: np.ndarray) -> float:
    """||(I - P) rho (I - P)||_inf with P the support projector of sigma.

    A full-rank sigma has P = I up to rounding, so its leak is 0 without
    forming P.
    """
    sigma = as_spectrum(sigma)
    if sigma.full_rank:
        return 0.0
    comp = np.eye(sigma.dim) - support_projector(sigma)
    return schatten_norm(comp @ rho @ comp, np.inf)


def gamma(sigma, rho) -> Spectrum:
    """The spectrum of sigma^{-1/2} rho sigma^{-1/2}, with Moore-Penrose
    inverses on singular sigma; its lam_max is ||G||_inf.

    Requires the support of rho to lie inside the support of sigma: the leaked
    weight ||(I - P) rho (I - P)||_inf must not exceed SUPPORT_LEAK_TOL.
    """
    s = as_spectrum(sigma)
    r = as_matrix(rho)
    if s.mat.shape != r.shape:
        raise DimMismatch(f"shape mismatch {s.mat.shape} vs {r.shape}")
    leak = support_leak(s, r)
    if leak > SUPPORT_LEAK_TOL:
        raise SupportMismatch(
            f"rho has weight {leak:.3e} outside the support of sigma"
        )
    rs = s.rsqrt
    g = rs @ r @ rs
    return Spectrum(0.5 * (g + g.conj().T))


class StatePair:
    """A pair (sigma, rho) with the spectra its divergences share.

    sigma, rho, the ratio operator G = gamma(sigma, rho) and the maximal-f
    core rho^{-1/2} sigma rho^{-1/2} = gamma(rho, sigma) are each decomposed
    at most once, on first use, and sigma's weights in G's eigenbasis and
    rho's in the core's are kept, so every divergence of the pair is a
    weighted sum over a cached spectrum.  sigma and rho are each a Spectrum
    or a plain, possibly unnormalized, PSD array.  The divergence evaluators
    take a pair, so that several of them share its spectra.
    """

    def __init__(self, sigma, rho):
        self._sigma, self._rho = sigma, rho
        self.sigma = as_matrix(sigma)
        self.rho = as_matrix(rho)
        if self.sigma.shape != self.rho.shape:
            raise DimMismatch(f"shape mismatch {self.sigma.shape} vs {self.rho.shape}")

    @lazy_property
    def s(self) -> Spectrum:
        return as_spectrum(self._sigma)

    @lazy_property
    def r(self) -> Spectrum:
        return as_spectrum(self._rho)

    @lazy_property
    def ratio(self) -> Spectrum:
        """G = sigma^{-1/2} rho sigma^{-1/2}; raises SupportMismatch as gamma does."""
        return gamma(self.s, self.rho)

    @lazy_property
    def core(self) -> Spectrum:
        """rho^{-1/2} sigma rho^{-1/2}, the argument of the maximal f-divergence."""
        return gamma(self.r, self.sigma)

    @lazy_property
    def ratio_weights(self) -> np.ndarray:
        """sigma in the eigenbasis of G: tr[sigma f(G)] = ratio.trace_fn(f, this)."""
        return self.ratio.weights(self.s)

    @lazy_property
    def core_weights(self) -> np.ndarray:
        """rho in the eigenbasis of the core: tr[rho f(core)] = core.trace_fn(f, this)."""
        return self.core.weights(self.r)

    @lazy_property
    def regularized(self) -> tuple:
        """The pair with both states regularized at each eps of EPS_GRID."""
        return tuple(StatePair(regularize(self.sigma, e), regularize(self.rho, e)) for e in EPS_GRID)

    def require_equal_supports(self) -> None:
        """Raise SupportMismatch unless sigma and rho have equal supports.

        Two full-rank states have the exact identity as support projector, so
        their difference is exactly 0 and needs no singular values.
        """
        diff = support_projector(self.s) - support_projector(self.r)
        if diff.any() and schatten_norm(diff, np.inf) > SUPPORT_EQ_TOL:
            raise SupportMismatch("sigma and rho must have equal supports")

    def require_full_rank(self) -> None:
        """Raise SingularState unless both states are full rank."""
        for name, spec in (("sigma", self.s), ("rho", self.r)):
            if not spec.full_rank:
                raise SingularState(f"{name} is rank deficient; use the regularized route")


def matrix_to_entries(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]


def entries_to_matrix(entries, rows: int, cols: int) -> np.ndarray:
    if not isinstance(entries, list):
        raise ParseError("entries must be a list of [re, im] pairs")
    if len(entries) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, got {len(entries)}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"entry {i} is not an [re, im] pair")
        real, imag = pair
        # float() would take a JSON string or boolean too; a bool is no int here
        if type(real) not in (int, float) or type(imag) not in (int, float):
            raise ParseError(f"entry {i} is not a pair of numbers: {pair!r}")
        try:
            flat[i] = float(real) + 1j * float(imag)
        except OverflowError as exc:
            raise ParseError(f"entry {i} has an integer too large for a float") from exc
    return flat.reshape(rows, cols)


def json_dim(obj: dict, key: str) -> int:
    """The dimension field ``key`` of a parsed JSON object, a positive integer."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def read_input(path: str, what: str) -> str:
    """The text of an input file; InputError when it is missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} file {path!r} is not UTF-8 text") from exc


def open_output(path: str):
    """``path`` opened for writing; InputError when it cannot be."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InputError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc


def state_to_json(m) -> str:
    m = as_matrix(m)
    return json.dumps({"dim": m.shape[0], "entries": matrix_to_entries(m)})


def state_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ParseError("state JSON must be an object with 'dim' and 'entries'")
    dim = json_dim(obj, "dim")
    return entries_to_matrix(obj["entries"], dim, dim)


def save_state(path: str, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(m))


def load_state(path: str) -> Spectrum:
    """The spectrum of the state in a JSON file.

    Every refusal names the file.  Malformed JSON and a matrix herm_eig
    refuses keep their error type; one without unit trace within TRACE_TOL or
    with an eigenvalue below -Spectrum.noise_floor is a DomainViolation.
    """
    text = read_input(path, "state")
    try:
        spec = Spectrum(state_from_json(text))
        spec.eig  # decompose here, so that herm_eig's refusals name the file
    except NumericsError as exc:
        raise type(exc)(f"{exc} (state file {path!r})") from exc
    tr = float(np.trace(spec.mat).real)
    low = float(spec.eig.values[0])
    if abs(tr - 1.0) > TRACE_TOL or low < -spec.noise_floor:
        raise DomainViolation(
            f"state file {path!r} is not a density matrix (unit trace, PSD): "
            f"trace {tr!r}, smallest eigenvalue {low!r}"
        )
    return spec
