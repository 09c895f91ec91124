"""Dense complex linear algebra.

Hermitian eigendecomposition, spectral matrix functions, Moore-Penrose
pseudo-inverses, Schatten norms, the Hilbert-Schmidt inner product, and an
adaptive quadrature helper.  Everything operates on plain numpy arrays and is
pure: no input is mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    DomainViolation,
    NoConvergence,
    NotHermitian,
    NumericsError,
    SingularState,
)

# Numerical-rank threshold relative to lambda_max, read by Spectrum.rank only.
RANK_TOL = 1e-10
# Relative size of the rounding noise below 0 on PSD matrices, which is
# clipped to zero before PSD-only functions; see Spectrum.noise_floor.
CLIP_TOL = 1e-12
HERMITICITY_TOL = 1e-10

# Self-test hook: a nonzero value perturbs every eigenvalue returned by
# herm_eig so downstream invariants must fail.  Never set in library code.
_EIG_CORRUPTION = 0.0

# Number of herm_eig calls made in this process.  Read it as the difference
# around the code being measured.
herm_eig_calls = 0


def set_eig_corruption(scale: float) -> None:
    """Install (or clear, with 0.0) the eigensolver corruption used by selftest."""
    global _EIG_CORRUPTION
    _EIG_CORRUPTION = float(scale)


class lazy_property:
    """A method read as an attribute: computed on first read, then stored in
    the instance ``__dict__``, which shadows this non-data descriptor.

    functools.cached_property does the same, but on Python < 3.12 it takes a
    lock on every first read, a measurable cost on objects that live for one
    trial.  No lock is needed here: the objects are not shared across threads.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending; of a
    stack of them, values (k, d) and vectors (k, d, d)."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def herm_eig(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, or of a (k, d, d) stack of them.

    Raises DomainViolation when ``a`` has a NaN or infinite entry,
    NotHermitian when ``a`` deviates from its adjoint by more than
    ``HERMITICITY_TOL * max(1, ||a||_2)`` in Frobenius norm, and NoConvergence
    if the underlying solver fails.  A matrix is decomposed as a stack of
    one.  A stack is checked matrix by matrix and raises the error of its
    first refused matrix; it is decomposed by one call of the solver, which
    gives each matrix the values and vectors bit for bit that a call on that
    matrix alone gives.  herm_eig_calls counts the matrices decomposed.

    The checks compare squared Frobenius norms, summed over the real and
    imaginary parts of each matrix: a block route makes many small stacks,
    and axis-wise norm calls cost more than the solver on them.  Two sums
    over the whole stack screen it first: a finite total square far below
    overflow and a total squared skew below half of HERMITICITY_TOL**2 bound
    every matrix's own sums, so each passes its checks.  The skew is formed
    only once the total square has passed, and a stack that fails the screen
    is checked matrix by matrix with floating-point warnings off, so a NaN or
    infinite entry raises its error and nothing else.
    """
    global herm_eig_calls
    a = np.asarray(a, dtype=complex)
    single = a.ndim == 2 and a.shape[0] == a.shape[1]
    if single:
        a = a[None]
    elif a.ndim != 3:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    k, d = a.shape[:2]
    if a.shape[2] != d:
        raise DimMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    herm_eig_calls += k
    whole = a.reshape(k, d * d)
    screened = np.vdot(whole, whole).real <= 1e300
    if screened:
        skew_whole = (a - a.conj().transpose(0, 2, 1)).reshape(k, d * d)
        screened = np.vdot(skew_whole, skew_whole).real <= 0.5 * HERMITICITY_TOL**2
    if not screened:
        with np.errstate(all="ignore"):
            parts = whole.view(float)
            skew_parts = (a - a.conj().transpose(0, 2, 1)).reshape(k, d * d).view(float)
            squares = (parts * parts).sum(axis=1)
            infinite = ~np.isfinite(squares)
            skew = (skew_parts * skew_parts).sum(axis=1) > HERMITICITY_TOL**2 * np.maximum(1.0, squares)
        refused = np.flatnonzero(infinite | skew)
        if refused.size:
            i = int(refused[0])
            what = "matrix" if single else f"matrix {i} of the stack"
            if infinite[i]:
                raise DomainViolation(f"{what} has a NaN or infinite entry")
            raise NotHermitian(f"{what} is not Hermitian within tolerance")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    if _EIG_CORRUPTION:
        shift = _EIG_CORRUPTION * np.maximum(1.0, np.abs(values).max(axis=1, initial=0.0))
        values = values + shift[:, None]
    if single:
        return EigenSystem(values=values[0], vectors=vectors[0])
    return EigenSystem(values=values, vectors=vectors)


@dataclass(frozen=True, eq=False)
class ScalarFunction:
    """A real scalar function together with its admissible open domain.

    ``at_zero`` declares a finite limit at 0+, making (clipped) zero
    eigenvalues admissible.  ``on_support`` (with ``at_zero``) instead maps
    every eigenvalue off the support (Spectrum.rank) to ``at_zero``: the
    Moore-Penrose-style restriction of the function to the support.  Each
    is equal only to itself, and hashed as such: a pair's maximal traces are
    kept by their function.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float = -np.inf
    hi: float = np.inf
    at_zero: float | None = None
    on_support: bool = False

    def __call__(self, x):
        return self.fn(x)


IDENTITY = ScalarFunction(lambda x: x)
SQUARE = ScalarFunction(np.square)
EXP = ScalarFunction(np.exp)
SQRT = ScalarFunction(np.sqrt, lo=0.0, at_zero=0.0)
LOG = ScalarFunction(np.log, lo=0.0)
LOG_ON_SUPPORT = ScalarFunction(np.log, lo=0.0, at_zero=0.0, on_support=True)
RSQRT_ON_SUPPORT = ScalarFunction(lambda x: 1.0 / np.sqrt(x), lo=0.0, at_zero=0.0, on_support=True)
STEP_ON_SUPPORT = ScalarFunction(lambda x: np.ones_like(x), lo=0.0, at_zero=0.0, on_support=True)
INVERSE_ON_SUPPORT = ScalarFunction(lambda x: 1.0 / x, lo=0.0, at_zero=0.0, on_support=True)


class Spectrum:
    """A Hermitian matrix together with its one eigendecomposition.

    The matrix is decomposed by one herm_eig call on the first read of
    ``eig``, unless ``decompose`` stored its slice of a stacked call there
    first, and every spectral quantity is read off that decomposition:
    functions of the matrix (matrix_fn and pinv accept a Spectrum), traces
    tr[X f(A)] as weighted eigenvalue sums, its support projector, numerical
    rank and smallest positive eigenvalue.  Derived matrices are computed on
    first use and kept for the life of the object.
    """

    # the lazy roots, each formed by matrix_fn or pinv, which take one
    # spectrum or a list of them: the lazy read forms one spectrum's, a
    # block's priming a stack's at once.  Both names are looked up at each
    # call, so a rebinding of them, such as the benchmark's tracer, sees it.
    STACKED = {
        "sqrt": lambda spectra: matrix_fn(spectra, SQRT),
        "rsqrt": lambda spectra: matrix_fn(spectra, RSQRT_ON_SUPPORT),
        "pinv": lambda spectra: pinv(spectra),
    }

    # the subalgebra whose compressed matrices a BlockSpectrum holds
    algebra = None

    def __init__(self, a: np.ndarray):
        self.mat = np.asarray(a, dtype=complex)

    @lazy_property
    def eig(self) -> EigenSystem:
        """herm_eig of the matrix; its refusals are raised on this first read."""
        return herm_eig(self.mat)

    @property
    def held(self) -> np.ndarray:
        """The matrix as this spectrum holds it, which gamma reads: the full one."""
        return self.mat

    def held_fn(self, name: str) -> np.ndarray:
        """The lazy ``rsqrt`` or ``support_projector`` in held form: the cached one."""
        return getattr(self, name)

    def like(self, m: np.ndarray) -> Spectrum:
        """The spectrum of ``m``, a matrix held in this spectrum's form."""
        return Spectrum(m)

    @lazy_property
    def dim(self) -> int:
        return self.mat.shape[0]

    @lazy_property
    def lam_max(self) -> float:
        """Largest eigenvalue clipped at 0; the sup norm of a PSD matrix."""
        return max(float(self.eig.values[-1]), 0.0)

    @lazy_property
    def sqrt(self) -> np.ndarray:
        return self.STACKED["sqrt"](self)

    @lazy_property
    def rsqrt(self) -> np.ndarray:
        """Inverse square root on the support, 0 off it."""
        return self.STACKED["rsqrt"](self)

    @lazy_property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse, from the module-level pinv."""
        return self.STACKED["pinv"](self)

    @lazy_property
    def support_projector(self) -> np.ndarray:
        """Projector onto the support; exactly the identity at full rank,
        where U U* would differ from it by rounding: one read-only identity
        per size, shared by every full-rank spectrum of that size."""
        if self.full_rank:
            return _identity(self.dim)
        return matrix_fn(self, STEP_ON_SUPPORT)

    def weights(self, x: Spectrum) -> np.ndarray:
        """The diagonal <u_i, X u_i> of X = sum_k mu_k v_k v_k* in this
        eigenbasis, in eigenvalue order, as sum_k mu_k |<v_k, u_i>|^2.

        For PSD X the terms are nonnegative, so a small weight keeps its
        relative accuracy, which the product <u_i, X u_i> loses to
        cancellation at ~eps ||X||.  eigen_weights forms it.
        """
        return eigen_weights(self, x)

    def trace_fn(self, f: ScalarFunction | Callable, weights: np.ndarray) -> float:
        """tr[X f(A)] = sum_i f(lambda_i) <u_i, X u_i> for Hermitian X, given
        those weights (see ``weights``); f(A) itself is never formed."""
        return float(spectral_values(self, f) @ weights)

    @lazy_property
    def rank(self) -> int:
        """Number of eigenvalues above RANK_TOL * lambda_max, the one support
        cut; eigenvalues ascend, so the first ``dim - rank`` lie off the support."""
        lam, cut = self.eig.values, RANK_TOL * self.lam_max
        return self.dim if lam[0] > cut else int(np.count_nonzero(lam > cut))

    @lazy_property
    def full_rank(self) -> bool:
        return self.rank == self.dim

    @property
    def noise_floor(self) -> float:
        """Negative eigenvalues above minus this are rounding noise on a PSD matrix."""
        return CLIP_TOL * max(self.lam_max, 1.0)

    @lazy_property
    def min_positive(self) -> float:
        """Smallest eigenvalue on the support."""
        if self.rank == 0:
            raise SingularState("state has no positive spectrum")
        return float(self.eig.values[self.dim - self.rank])


@functools.cache
def _identity(dim: int) -> np.ndarray:
    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


def spectral_values(
    spec: Spectrum | Sequence[Spectrum],
    f: ScalarFunction | Callable,
    values: np.ndarray | Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """f(lambda_i) for every eigenvalue of ``spec``, in its eigenvalue order;
    for a sequence of spectra of one dimension, the (k, d) stack of theirs.

    ``values``, when given, are mapped in place of the eigenvalues: one per
    eigenvector of ``spec``, in its order, and not necessarily ascending, such
    as the refined eigenvalues of ``StatePair.ratio_values``; one such array
    per spectrum of a sequence.

    Eigenvalues in (-spec.noise_floor, 0) are clipped to 0 when ``f`` lives
    on the nonnegative axis.  With ``f.at_zero`` set, zero eigenvalues map to
    it, or with ``f.on_support`` the first ``dim - rank`` eigenvalues, those
    off the support.  Any other eigenvalue outside the open domain of ``f``
    raises DomainViolation.

    A spectrum wholly inside the open domain, with nothing off the support or
    at 0 to map to ``at_zero``, has nothing to clip or mask: ``f`` maps it as
    is, the same values the general route computes.  When every spectrum of a
    sequence is such, one call of ``f`` maps their stack, each row bit for
    bit as alone.
    """
    if not isinstance(f, ScalarFunction):
        f = ScalarFunction(f)
    if isinstance(spec, Spectrum):
        lam = spec.eig.values if values is None else values
        if _inside(spec, f, lam):
            return np.array(f.fn(lam), dtype=float)
        return _mapped(spec, f, lam)
    lams = [s.eig.values for s in spec] if values is None else values
    if all(_inside(s, f, lam) for s, lam in zip(spec, lams)):
        return np.array(f.fn(np.array(lams)), dtype=float)
    return np.array([_mapped(s, f, lam) for s, lam in zip(spec, lams)])


def _inside(spec: Spectrum, f: ScalarFunction, lam: np.ndarray) -> bool:
    """Whether ``f`` maps ``lam``, values of ``spec``, as they are: nothing
    off the support or at 0 to mask, and nothing to clip or refuse."""
    low, high = (lam[0], lam[-1]) if lam is spec.eig.values else (lam.min(), lam.max())
    lo = f.lo if f.at_zero is None else max(f.lo, 0.0)
    return low > lo and high < f.hi and not (f.on_support and spec.rank < spec.dim)


def _mapped(spec: Spectrum, f: ScalarFunction, lam: np.ndarray) -> np.ndarray:
    """spectral_values of one spectrum's ``lam`` on the general route."""
    off = spec.dim - spec.rank if f.on_support else 0
    lam = lam.copy()
    if f.lo >= 0.0:
        lam[(lam < 0.0) & (lam > -spec.noise_floor)] = 0.0
    if f.at_zero is None:
        zero = np.zeros(lam.shape, dtype=bool)
    elif f.on_support:
        zero = np.arange(lam.size) < off
    else:
        zero = lam == 0.0
    live = ~zero
    if np.any(lam[live] <= f.lo) or np.any(lam[live] >= f.hi):
        raise DomainViolation(
            f"eigenvalues escape the domain ({f.lo}, {f.hi}) of the scalar function"
        )
    vals = np.empty(lam.shape, dtype=float)
    if zero.any():
        vals[zero] = f.at_zero
    if live.any():
        vals[live] = np.asarray(f.fn(lam[live]), dtype=float)
    return vals


def is_stack(a) -> bool:
    """Whether ``a`` is a list of spectra, which the stacked forms take,
    rather than one matrix or spectrum.  Their array expressions read a
    stack or one array alike, through ``...`` and the last two axes, and
    give each array of a stack, bit for bit, what they give it alone."""
    return isinstance(a, list) and bool(a) and isinstance(a[0], Spectrum)


def matrix_fn(
    a: np.ndarray | Spectrum | Sequence[Spectrum], f: ScalarFunction | Callable
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns ``U diag(f(lambda_i)) U*``, with the eigenvalues mapped by
    spectral_values; the output is hermitized.  ``a`` may be a Spectrum,
    whose decomposition is then reused, or a list of spectra of one
    dimension, whose (k, d, d) stack of functions is formed by one batched
    product, each matrix bit for bit as alone.
    """
    if is_stack(a):
        vectors = np.array([spec.eig.vectors for spec in a])
    else:
        a = a if isinstance(a, Spectrum) else Spectrum(a)
        vectors = a.eig.vectors
    out = (vectors * spectral_values(a, f)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def eigen_weights(base: Spectrum | list, x: Spectrum | list) -> np.ndarray:
    """Spectrum.weights of X = ``x`` in the eigenbasis of ``base``, or, for
    lists of spectra of one dimension, the (k, d) stack of each X's in the
    eigenbasis at its place, sum_j mu_j |<v_j, u_i>|^2, by one batched
    product, each row bit for bit as alone."""
    if is_stack(base):
        values = np.array([s.eig.values for s in x])
        vectors = np.array([s.eig.vectors for s in x])
        basis = np.array([b.eig.vectors for b in base])
    else:
        values, vectors, basis = x.eig.values, x.eig.vectors, base.eig.vectors
    overlap = np.abs(vectors.conj().swapaxes(-1, -2) @ basis) ** 2
    return (values[..., None, :] @ overlap)[..., 0, :]


class BlockSpectrum(Spectrum):
    """The Hermitian matrix u (⊕_k A_k ⊗ I_{m_k}) u* of a subalgebra, held as
    its compressed matrix ⊕_k A_k, with exact zeros off the n_k x n_k blocks.

    ``algebra`` is the SubalgebraExpectation that gives u, the blocks
    (n_k, m_k) and the maps between the compressed matrix and the full one.
    gamma reads the compressed matrix; the full one is formed only when
    ``mat`` is read.  ``eig`` decomposes the blocks, one stacked herm_eig call
    per block size, and expands each eigenpair with multiplicity m_k:
    ascending values and the vectors u (⊕_k V_k ⊗ I_{m_k}), so every reader
    of a Spectrum reads it unchanged.
    """

    HELD_FNS = {"rsqrt": RSQRT_ON_SUPPORT, "support_projector": STEP_ON_SUPPORT}

    def __init__(self, comp: np.ndarray, algebra):
        self.comp = comp
        self.algebra = algebra

    @lazy_property
    def mat(self) -> np.ndarray:
        return self.algebra.lift(self.comp)

    @property
    def held(self) -> np.ndarray:
        return self.comp

    def held_fn(self, name: str) -> np.ndarray:
        """The compressed matrix of the lazy ``rsqrt`` or ``support_projector``:
        each block's function, with the values spectral_values gives the
        expanded spectrum, from the eigenpairs that ``assemble`` keeps."""
        values = spectral_values(self, self.HELD_FNS[name])
        eig = self.compressed_eig
        mapped = np.empty_like(eig.values)
        mapped[self.algebra.index[self.order]] = values
        out = (eig.vectors * mapped) @ eig.vectors.conj().T
        return 0.5 * (out + out.conj().T)

    def like(self, m: np.ndarray) -> BlockSpectrum:
        return BlockSpectrum(m, self.algebra)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @lazy_property
    def eig(self) -> EigenSystem:
        """The blocks' herm_eig, one stacked call per block size, expanded."""
        return self.assemble([herm_eig(part) for part in self.parts()])

    def parts(self) -> list:
        """The blocks, one (k, n, n) stack per block size n."""
        return [self.comp.take(cells) for _, cells in self.algebra.groups]

    def assemble(self, eigs: list) -> EigenSystem:
        """The blocks' eigenpairs, kept in compressed order as
        ``compressed_eig``, expanded with their multiplicities and sorted;
        ``order`` maps the sorted eigenpairs back to the expanded ones."""
        algebra = self.algebra
        values = np.empty(algebra.size)
        vectors = np.zeros_like(self.comp)
        for (at, cells), eig in zip(algebra.groups, eigs):
            values[at] = eig.values
            vectors.put(cells, eig.vectors)
        self.compressed_eig = EigenSystem(values=values, vectors=vectors)
        full = values[algebra.index]
        order = self.order = np.argsort(full, kind="stable")
        return EigenSystem(values=full[order], vectors=algebra.u @ algebra.expand(vectors)[:, order])


def decompose(spectra: Iterable[Spectrum]) -> None:
    """Decompose every spectrum of ``spectra`` whose ``eig`` is unread, by one
    stacked herm_eig call per matrix size over their matrices and the blocks
    of the BlockSpectra among them, and store each matrix's slice, or each
    BlockSpectrum's ``assemble``d slices, as its ``eig``: the values and
    vectors its own first read would give.

    A stack that herm_eig refuses is left undecomposed, so each spectrum with
    a matrix in it raises its own refusal, or none, on its own first read.
    """
    dense: dict = {}  # size -> {id: spectrum}
    stacks: dict = {}  # size -> [(BlockSpectrum, index of its block stack, stack)]
    blocked: dict = {}  # id -> the BlockSpectrum and the eigs of its block stacks
    for spec in spectra:
        if "eig" in vars(spec) or id(spec) in blocked:
            continue
        if isinstance(spec, BlockSpectrum):
            parts = spec.parts()
            blocked[id(spec)] = (spec, [None] * len(parts))
            for j, stack in enumerate(parts):
                stacks.setdefault(stack.shape[1:], []).append((spec, j, stack))
        else:
            dense.setdefault(spec.mat.shape, {})[id(spec)] = spec
    for shape in {**dense, **stacks}:
        group, blocks = list(dense.get(shape, {}).values()), stacks.get(shape, [])
        arrays = [np.array([spec.mat for spec in group])] if group else []
        arrays += [stack for _, _, stack in blocks]
        try:
            eig = herm_eig(arrays[0] if len(arrays) == 1 else np.concatenate(arrays))
        except NumericsError:
            continue
        for spec, values, vectors in zip(group, eig.values, eig.vectors):
            vars(spec)["eig"] = EigenSystem(values=values, vectors=vectors)
        lo = len(group)
        for spec, j, stack in blocks:
            hi = lo + len(stack)
            blocked[id(spec)][1][j] = EigenSystem(values=eig.values[lo:hi], vectors=eig.vectors[lo:hi])
            lo = hi
    for spec, eigs in blocked.values():
        if all(eig is not None for eig in eigs):
            vars(spec)["eig"] = spec.assemble(eigs)


def pinv(a: np.ndarray | Spectrum | Sequence[Spectrum]) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian PSD matrix (or of its Spectrum),
    or the stack of those of a list of spectra, as matrix_fn forms it.

    Eigenvalues off the support (see Spectrum.rank) map to 0, the rest to
    their reciprocal.  The zero matrix maps to itself.
    """
    return matrix_fn(a, INVERSE_ON_SUPPORT)


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}.

    p = 2 is the Frobenius norm; p = 1 and p = inf come from the singular
    values.  Both avoid the spectrum of A*A, whose small eigenvalues carry an
    absolute error of ~eps ||A||^2 and so put a ~sqrt(eps) ||A|| floor under
    each small singular value.
    """
    a = np.asarray(a, dtype=complex)
    if p == 2:
        return float(np.linalg.norm(a))
    if p == 1 or p == np.inf:
        s = np.linalg.svd(a, compute_uv=False)
        if p == 1:
            return float(s.sum())
        return float(s[0]) if s.size else 0.0
    raise ValueError("p must be 1, 2 or inf")


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr[A* B]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def integrate_adaptive(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    max_panels: int = 200_000,
    breakpoints: Sequence[float] = (),
) -> float:
    """Adaptive Simpson quadrature of ``g`` over [lo, hi], refined level by level.

    ``g`` is vectorised: it maps a 1-D array of nodes to the array of its
    values there, and is called once for the initial nodes and once per
    refinement level, with the midpoints of every pending panel.  The
    increasing ``breakpoints`` inside (lo, hi) cut the interval into
    segments; each segment gets the absolute-error target
    ``tol / number of segments`` and a budget of ``max_panels`` panels.  A
    panel whose Simpson halves change its estimate by at most 15 times its
    target, or that is no wider than 1e-14 * max(1, segment width), is
    accepted with the Richardson correction; otherwise it splits into halves
    with half the target each.  Accepted panels are summed right to left
    within each segment, then the segments left to right.

    Raises NoConvergence when a segment exhausts its panel budget or the
    integrand is not finite at a node.
    """
    lo, hi = float(lo), float(hi)
    if hi == lo and len(breakpoints) == 0:
        return 0.0
    if hi < lo:
        return -integrate_adaptive(g, hi, lo, tol, max_panels, breakpoints[::-1])
    edges = np.array([lo, *breakpoints, hi], dtype=float)
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("breakpoints must increase strictly inside (lo, hi)")

    def values(t: np.ndarray) -> np.ndarray:
        f = np.asarray(g(t), dtype=float)
        if f.shape != t.shape:
            raise ValueError(f"integrand returned shape {f.shape} for nodes {t.shape}")
        bad = ~np.isfinite(f)
        if bad.any():
            raise NoConvergence(f"integrand is not finite at t = {float(t[bad][0])!r}")
        return f

    def simp(fa, fm, fb, width):
        return width * (fa + 4.0 * fm + fb) / 6.0

    n_seg = edges.size - 1
    a, b = edges[:-1], edges[1:]
    f = values(np.concatenate((edges, 0.5 * (a + b))))
    fa, fb, fm = f[:n_seg], f[1 : n_seg + 1], f[n_seg + 1 :]
    whole = simp(fa, fm, fb, b - a)
    seg = np.arange(n_seg)
    min_width = 1e-14 * np.maximum(1.0, b - a)
    eps = tol / n_seg  # the target of every panel of the current level
    panels = np.zeros(n_seg, dtype=np.int64)
    done = []
    while seg.size:
        panels += np.bincount(seg, minlength=n_seg)
        if np.any(panels > max_panels):
            raise NoConvergence("panel budget exceeded")
        m = 0.5 * (a + b)
        f = values(np.concatenate((0.5 * (a + m), 0.5 * (m + b))))
        flm, frm = f[: seg.size], f[seg.size :]
        left = simp(fa, flm, fm, m - a)
        right = simp(fm, frm, fb, b - m)
        delta = left + right - whole
        ok = (np.abs(delta) <= 15.0 * eps) | ((b - a) <= min_width[seg])
        done.append((seg[ok], a[ok], (left + right + delta / 15.0)[ok]))
        # the rejected panels split into their left halves, then right halves
        s = ~ok
        seg = np.concatenate((seg[s], seg[s]))
        a, b = np.concatenate((a[s], m[s])), np.concatenate((m[s], b[s]))
        fa, fm, fb = (
            np.concatenate((fa[s], fm[s])),
            np.concatenate((flm[s], frm[s])),
            np.concatenate((fm[s], fb[s])),
        )
        whole = np.concatenate((left[s], right[s]))
        eps *= 0.5
    seg, a, val = (np.concatenate(col) for col in zip(*done))
    order = np.lexsort((-a, seg))  # by segment, then right to left
    seg, val = seg[order], val[order]
    total = 0.0
    for k in range(n_seg):
        # cumsum adds strictly in order, unlike the pairwise np.sum
        total += float(np.cumsum(val[seg == k])[-1])
    return total
