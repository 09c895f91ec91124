"""States as the Spectrum of their matrix: random ensembles, support handling
and serialization."""

from __future__ import annotations

import json
import os
import stat

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
# Eigenvalues of G below this share of lambda_max(G) are refined to their
# Rayleigh quotient; see StatePair.ratio_values.  eigh gives each eigenvalue
# an absolute error of ~eps lambda_max, so one kept above the cut is off by
# at most ~eps / REFINE_BELOW ~ 2.2e-12 relative.
REFINE_BELOW = 1e-4


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


def held_alike(sigma, rho) -> tuple[Spectrum, Spectrum]:
    """sigma and rho as spectra held alike: full, or compressed by one subalgebra."""
    s, r = as_spectrum(sigma), as_spectrum(rho)
    if s.held.shape != r.held.shape:
        raise DimMismatch(f"shape mismatch {s.held.shape} vs {r.held.shape}")
    if s.algebra is not r.algebra:
        raise DimMismatch("sigma and rho are not held by one subalgebra")
    return s, r


def support_leak(sigma, rho) -> float:
    """||(I - P) rho (I - P)||_inf with P the support projector of sigma, on
    the matrices as they are held: the norm is the same on a subalgebra's
    compressed ones, since ||⊕_k X_k ⊗ I_{m_k}||_inf = max_k ||X_k||_inf.

    A full-rank sigma has P = I up to rounding, so its leak is 0 without
    forming P.
    """
    s, r = held_alike(sigma, rho)
    if s.full_rank:
        return 0.0
    comp = np.eye(len(s.held)) - s.held_fn("support_projector")
    return schatten_norm(comp @ r.held @ comp, np.inf)


def gamma(sigma, rho) -> Spectrum:
    """The spectrum of sigma^{-1/2} rho sigma^{-1/2}, with Moore-Penrose
    inverses on singular sigma; its lam_max is ||G||_inf.  G is formed and
    held as the states are held, block by block for a subalgebra's outputs;
    sigma's support cut is taken on its whole spectrum either way.

    Requires the support of rho to lie inside the support of sigma: the leaked
    weight ||(I - P) rho (I - P)||_inf must not exceed SUPPORT_LEAK_TOL.
    """
    s, r = held_alike(sigma, rho)
    leak = support_leak(s, r)
    if leak > SUPPORT_LEAK_TOL:
        raise SupportMismatch(f"rho has weight {leak:.3e} outside the support of sigma")
    rs = s.held_fn("rsqrt")
    return s.like(hermitian_part(rs @ r.held @ rs))


class StatePair:
    """A pair (sigma, rho) with the spectra its divergences share.

    sigma, rho and the ratio operator G = gamma(sigma, rho) are each
    decomposed at most once, on first use, and sigma's weights in G's
    eigenbasis are kept, so every divergence of the pair is a weighted sum
    over a cached spectrum: the maximal f-divergences too, through
    tr[rho f(rho^{-1/2} sigma rho^{-1/2})] = tr[sigma f~(G)] with
    f~(x) = x f(1/x).  sigma and rho are each a Spectrum or a plain,
    possibly unnormalized, PSD array, or both BlockSpectra of one
    subalgebra.  The divergence evaluators take a pair, so that several of
    them share its spectra.
    """

    def __init__(self, sigma, rho):
        self.s, self.r = held_alike(sigma, rho)

    @property
    def sigma(self) -> np.ndarray:
        return self.s.mat

    @property
    def rho(self) -> np.ndarray:
        return self.r.mat

    @lazy_property
    def ratio(self) -> Spectrum:
        """G = sigma^{-1/2} rho sigma^{-1/2}; raises SupportMismatch as gamma does."""
        return gamma(self.s, self.r)

    @lazy_property
    def ratio_weights(self) -> np.ndarray:
        """sigma in the eigenbasis of G: tr[sigma f(G)] = ratio.trace_fn(f, this)."""
        return self.ratio.weights(self.s)

    @lazy_property
    def ratio_values(self) -> np.ndarray:
        """G's eigenvalues, each below REFINE_BELOW * lambda_max(G) replaced by
        its Rayleigh quotient ||rho^{1/2} sigma^{-1/2} u_i||^2, read as rho's
        weights on sigma^{-1/2} u_i: a sum of nonnegative terms, off by
        ~eps sqrt(kappa(G)) relative where eigh is off by ~eps kappa(G).
        Above the cut it would gain nothing, and it loses on pairs with G ~ I,
        where the factor sigma^{-1/2} amplifies rounding."""
        lam = self.ratio.eig.values
        n = int(np.searchsorted(lam, REFINE_BELOW * self.ratio.lam_max))
        if n == 0:
            return lam
        y = self.s.rsqrt @ self.ratio.eig.vectors[:, :n]
        lam = lam.copy()
        lam[:n] = self.r.eig.values @ np.abs(self.r.eig.vectors.conj().T @ y) ** 2
        return lam

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


class OutputFile:
    """An output file, written in place.

    Opening it cuts nothing, so a path that cannot be written is refused
    (InputError, naming it) before any byte of an old file is lost.
    ``write`` puts the whole text at offset 0 and then cuts a regular file
    at its end, so no tail of a longer old file survives.  Leaving the
    ``with`` block by an exception cuts the file to zero: a failed run
    leaves it empty.  Truncating a just-written file to zero length makes
    ext4 flush it to disk (its ``auto_da_alloc`` heuristic); cutting it at
    the end of the new text does not.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self.fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        except OSError as exc:
            raise self._error(exc) from exc
        # a pipe or a device, such as /dev/stdout, cannot be cut
        self.regular = stat.S_ISREG(os.fstat(self.fd).st_mode)

    def _error(self, exc: OSError) -> InputError:
        return InputError(f"cannot write output file {self.path!r}: {exc.strerror or exc}")

    def write(self, text: str) -> None:
        """Make ``text`` the whole content of the file; called once."""
        data = memoryview(text.encode("utf-8"))
        end = len(data)
        try:
            while data:
                data = data[os.write(self.fd, data):]
            if self.regular:
                os.ftruncate(self.fd, end)
        except OSError as exc:
            raise self._error(exc) from exc

    def __enter__(self) -> "OutputFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None and self.regular:
                os.ftruncate(self.fd, 0)
        finally:
            os.close(self.fd)


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
