"""Campaign trials, drawn from seed-derived Philox streams.

Trial i of a campaign with seed ``seed`` has the sub-seed
``derive_seed(seed, i)``, and each part of its instance comes from the
Philox stream keyed by ``derive_seed(sub, role)``.  The single-item samplers
draw one part from its own stream; ``draw_block`` draws a block of trials in
phases and gives each trial the bits those samplers give it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    KrausChannel,
    PartialTraceFactor,
    Pinching,
    SubalgebraExpectation,
    _haar_isometry,
    block_bounds,
    isometry_channel,
    random_cptp,
    random_pinching,
    random_subalgebra,
    subalgebra_blocks,
)
from .errors import BadRank, ConfigError, NumericsError, RejectionExhausted
from .linalg import Spectrum, herm_eig
from .states import density_matrices, ginibre, hermitian_part, normalized_grams, random_density
from .streams import Streams

# (d_keep, s) factorizations used for partial-trace conditional expectations
PARTIAL_TRACE_SHAPES = ((2, 2), (3, 2), (2, 3))


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit sub-seed from a tuple of indices."""
    ss = np.random.SeedSequence(list(parts))
    return int(ss.generate_state(1, np.uint64)[0])


# The stream roles of a trial: trial i with sub-seed sub draws each part of
# its instance, and the acceptance checks their extra states, from the
# Philox stream keyed by derive_seed(sub, role).
(SIGMA, RHO, EQUAL_SUPPORT, PINCHING, NUM_KRAUS, ISOMETRY, OMEGA, SIDE_PAIR, COMMUTING,
 SUBALGEBRA) = range(10)
CONSTRUCTED = 1000  # equality pair i is drawn from derive_seed(seed, CONSTRUCTED + i)
# the conditional-expectation kinds, those that sample_condexp draws
CONDEXP_KINDS = ("pinching", "partial_trace", "subalgebra")
# argparse errors list this order
CHANNEL_KINDS = ("pinching", "partial_trace", "random_cptp", "subalgebra")
TARGET_ROLES = {"random_cptp": (NUM_KRAUS, ISOMETRY), "pinching": (PINCHING,), "partial_trace": (),
                "subalgebra": (SUBALGEBRA,)}

# Attempts per state of sample_conditioned_pair.
CONDITIONED_ATTEMPTS = 64
# Attempts per block of sample_equal_support_pair.  Measured per pair of
# blocks, mean and worst: 3.2 and 11 at rank 3 (2,000 pairs), 25 and 88 at
# rank 5 (300), 166 and 444 at rank 6 (60), 2,776 and 4,976 at rank 7 (10);
# the battery's and the benchmark pool's draws took at most 9.  So every
# rank up to 7 is accepted well within the budget.
EQUAL_SUPPORT_ATTEMPTS = 100_000
# smallest eigenvalue of an equal-support pair's blocks in campaign trials
MIN_BLOCK_EIG = 0.02


def sample_pair(dim: int, seed: int) -> tuple[Spectrum, Spectrum]:
    return (
        random_density(dim, dim, derive_seed(seed, SIGMA)),
        random_density(dim, dim, derive_seed(seed, RHO)),
    )


def sample_conditioned_pair(
    dim: int, seed: int, min_eig: float = 0.02
) -> tuple[Spectrum, Spectrum]:
    """Full-rank Ginibre pair with both smallest eigenvalues >= min_eig.

    Identity checks with absolute tolerances need bounded condition numbers;
    rejection stays inside seed-indexed streams, so sampling is deterministic.
    Raises RejectionExhausted at once when no state can qualify (its mean
    eigenvalue is 1/dim), and when CONDITIONED_ATTEMPTS draws of a state are
    all refused.
    """
    if dim * min_eig >= 1.0:
        raise RejectionExhausted(
            f"no {dim}x{dim} state has smallest eigenvalue >= {min_eig}: "
            f"its mean eigenvalue is 1/{dim}"
        )

    def _draw(role: int) -> Spectrum:
        for attempt in range(CONDITIONED_ATTEMPTS):
            state = random_density(dim, dim, derive_seed(seed, role, attempt))
            if float(state.eig.values[0]) >= min_eig:
                return state
        raise RejectionExhausted(
            f"no {dim}x{dim} state with smallest eigenvalue >= {min_eig} "
            f"in {CONDITIONED_ATTEMPTS} attempts"
        )

    return _draw(SIGMA), _draw(RHO)


def _equal_support_draws(rng: np.random.Generator, dim: int, rank: int):
    """(G, blocks) of an equal-support pair, drawn from ``rng`` in this
    order: the Ginibre matrix G of the shared basis, then the two rank x rank
    blocks, each the first G G* / tr[G G*] whose smallest eigenvalue is at
    least MIN_BLOCK_EIG.

    Raises RejectionExhausted at once when no block can qualify (its mean
    eigenvalue is 1/rank), and when EQUAL_SUPPORT_ATTEMPTS draws of a block
    are all refused.
    """
    if not 1 <= rank <= dim:
        raise BadRank(f"rank {rank} outside [1, {dim}]")
    if rank * MIN_BLOCK_EIG >= 1.0:
        raise RejectionExhausted(
            f"no rank-{rank} block of a d = {dim} equal-support pair has smallest "
            f"eigenvalue >= MIN_BLOCK_EIG = {MIN_BLOCK_EIG}: its mean eigenvalue is 1/{rank}"
        )
    g = ginibre(rng, dim, dim)

    def _block() -> np.ndarray:
        for _ in range(EQUAL_SUPPORT_ATTEMPTS):
            a = normalized_grams(ginibre(rng, rank, rank)[None])[0]
            if float(herm_eig(a).values[0]) >= MIN_BLOCK_EIG:
                return a
        raise RejectionExhausted(
            f"no rank-{rank} block of a d = {dim} equal-support pair with smallest "
            f"eigenvalue >= MIN_BLOCK_EIG = {MIN_BLOCK_EIG} in {EQUAL_SUPPORT_ATTEMPTS} attempts"
        )

    return g, (_block(), _block())


def _embed(basis: np.ndarray, a: np.ndarray) -> Spectrum:
    """The state of the block ``a`` on the columns of ``basis``."""
    return Spectrum(hermitian_part(basis @ a @ basis.conj().T))


def sample_equal_support_pair(dim: int, rank: int, seed: int) -> tuple[Spectrum, Spectrum]:
    """Rank-deficient pair with exactly equal supports.

    Blocks are Ginibre states on a shared Haar-random subspace; blocks with a
    tiny smallest eigenvalue are resampled so the regularized route converges
    at the documented rate.
    """
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, EQUAL_SUPPORT)))
    g, blocks = _equal_support_draws(rng, dim, rank)
    basis = _haar_isometry(g[None])[0][:, :rank]
    return _embed(basis, blocks[0]), _embed(basis, blocks[1])


def sample_condexp(dim_index: int, kind: str, seed: int) -> SubalgebraExpectation:
    if kind == "pinching":
        return random_pinching(dim_index, derive_seed(seed, PINCHING))
    if kind == "partial_trace":
        d_keep, s = PARTIAL_TRACE_SHAPES[seed % len(PARTIAL_TRACE_SHAPES)]
        return PartialTraceFactor(d_keep, s)
    if kind == "subalgebra":
        return random_subalgebra(dim_index, derive_seed(seed, SUBALGEBRA))
    raise ConfigError(f"unknown conditional-expectation kind {kind!r}")


def sample_channel(dim: int, seed: int) -> KrausChannel:
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, NUM_KRAUS)))
    num_kraus = int(rng.integers(2, 4))
    return random_cptp(dim, dim, num_kraus, derive_seed(seed, ISOMETRY))


@dataclass
class Trial:
    """One drawn instance of a bound campaign."""

    index: int  # i, the trial's position in its campaign
    seed: int  # the trial's sub-seed, reported in rows and violations
    d: int
    sigma: Spectrum
    rho: Spectrum
    target: KrausChannel | SubalgebraExpectation
    deficient: bool = False  # an equal-support rank-deficient pair


@dataclass
class _Draws:
    """What a trial draws from its streams, before the stacked phases."""

    index: int
    seed: int
    deficient: bool
    d: int = 0
    target: SubalgebraExpectation | None = None  # a partial trace, drawn whole
    num_kraus: int = 0  # of a channel
    layout: list = field(default_factory=list)  # a pinching's bounds, a subalgebra's blocks
    haar: list = field(default_factory=list)  # Ginibre matrices: the target's, the basis's
    factors: list = field(default_factory=list)  # Ginibre factors of sigma and rho
    blocks: tuple = ()  # the blocks of a deficient pair


def _draw_streams(streams: Streams, j: int, i: int, dims, kind: str, deficient: bool) -> _Draws:
    """The draws of trial i, the j-th of its block, each stream's in the
    order of the single-item samplers: the per-trial phase of draw_block."""
    draws = _Draws(i, streams.subs[j], deficient)
    if kind == "partial_trace":
        draws.target = sample_condexp(0, kind, i)
        d = draws.d = draws.target.dim
    elif kind in ("pinching", "subalgebra"):
        d = draws.d = dims[i % len(dims)]
        rng = streams.rng(j, TARGET_ROLES[kind][0])
        draws.haar.append(ginibre(rng, d, d))
        draws.layout = (block_bounds if kind == "pinching" else subalgebra_blocks)(d, rng)
    elif kind == "random_cptp":
        d = draws.d = dims[i % len(dims)]
        draws.num_kraus = int(streams.rng(j, NUM_KRAUS).integers(2, 4))
        draws.haar.append(ginibre(streams.rng(j, ISOMETRY), d * draws.num_kraus, d))
    else:
        raise ConfigError(f"unknown channel kind {kind!r}")
    if deficient:
        rng = streams.rng(j, EQUAL_SUPPORT)
        g, draws.blocks = _equal_support_draws(rng, d, max(1, d - 1))
        draws.haar.append(g)
    else:
        draws.factors = [ginibre(streams.rng(j, role), d, d) for role in (SIGMA, RHO)]
    return draws


def _stacked(fn, groups: list) -> list:
    """fn of every array of every group, by one call per shape on the stack
    of the arrays of that shape; the results come back in their groups."""
    flat = [a for arrays in groups for a in arrays]
    places: dict = {}
    for n, a in enumerate(flat):
        places.setdefault(a.shape, []).append(n)
    results = [None] * len(flat)
    for shaped in places.values():
        stack = flat[shaped[0]][None] if len(shaped) == 1 else np.stack([flat[n] for n in shaped])
        for n, result in zip(shaped, fn(stack)):
            results[n] = result
    out, n = [], 0
    for arrays in groups:
        out.append(results[n:n + len(arrays)])
        n += len(arrays)
    return out


def _finish(draws: _Draws, kind: str, isometries: list, states: list) -> Trial:
    """Trial ``draws`` with its channel or pinching built and validated."""
    if kind == "random_cptp":
        target = isometry_channel(isometries[0], draws.d, draws.num_kraus)
    elif kind == "pinching":
        target = Pinching(isometries[0], draws.layout)
    elif kind == "subalgebra":
        target = SubalgebraExpectation(isometries[0], draws.layout)
    else:
        target = draws.target
    if draws.deficient:
        basis = isometries[-1][:, :len(draws.blocks[0])]
        sigma, rho = (_embed(basis, a) for a in draws.blocks)
    else:
        sigma, rho = (Spectrum(m) for m in states)
    return Trial(draws.index, draws.seed, draws.d, sigma, rho, target, draws.deficient)


def draw_block(seed: int, start: int, stop: int, dims, kind: str, first_deficient: int):
    """Trials start, ..., stop - 1 of a campaign over ``kind`` targets, those
    from first_deficient on equal-support rank-deficient pairs.

    The block is drawn in four phases:
      1. Streams derives the trials' sub-seeds and stream keys together;
      2. each trial draws from its own streams (_draw_streams);
      3. one QR per shape makes the Haar isometries (_haar_isometry);
      4. one call per dimension forms the states (density_matrices).
    Then each trial's channel or pinching is built and validated.  Each
    stream draws in the order the single-item samplers draw it, and the
    stacked phases give each matrix the bits a stack of one gives, so trial
    i is the one that sample_pair, sample_channel, sample_condexp and
    sample_equal_support_pair draw from derive_seed(seed, i).

    Returns (trials, error): the trials before the first one that raised a
    numerics error, and that error with ``trial_seed`` set, or None.
    """
    deficient = [i >= first_deficient for i in range(start, stop)]
    roles = TARGET_ROLES.get(kind, ())
    if not all(deficient):
        roles += (SIGMA, RHO)
    if any(deficient):
        roles += (EQUAL_SUPPORT,)
    streams = Streams(seed, start, stop, roles)
    drawn, error = [], None
    for j, i in enumerate(range(start, stop)):
        try:
            drawn.append(_draw_streams(streams, j, i, dims, kind, deficient[j]))
        except NumericsError as exc:
            exc.trial_seed = streams.subs[j]
            error = exc
            break
    isometries = _stacked(_haar_isometry, [draws.haar for draws in drawn])
    states = _stacked(density_matrices, [draws.factors for draws in drawn])
    trials = []
    for draws, haar, pair in zip(drawn, isometries, states):
        try:
            trials.append(_finish(draws, kind, haar, pair))
        except NumericsError as exc:
            exc.trial_seed = draws.seed
            return trials, exc
    return trials, error


def draw_trial(seed: int, i: int, dims, kind: str, deficient: bool = False) -> Trial:
    """Trial i of a campaign over ``kind`` targets: draw_block's block of one.

    Every campaign draws trial i from the same sub-seed, so the DPI, bound
    and maximal-f campaigns of one seed see the same instances.
    """
    trials, error = draw_block(seed, i, i + 1, dims, kind, i if deficient else i + 1)
    if error is not None:
        raise error
    return trials[0]
