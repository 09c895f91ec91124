"""The seed-derived Philox streams of a block of campaign trials.

Trial i of a campaign with seed ``seed`` draws from the Philox streams keyed
by ``derive_seed(sub, role)``, with the trial's sub-seed
``sub = derive_seed(seed, i)``; each ``derive_seed`` is a hash by
``np.random.SeedSequence``, and ``Philox(s)`` hashes ``s`` once more into its
key.  ``Streams`` derives those sub-seeds and keys for a whole block of
trials at once, by a replica of SeedSequence's hash that works on every pool
of the block together, and hands out one Philox generator re-keyed to each
stream in turn.  Each stream then draws the bytes a fresh
``Generator(Philox(derive_seed(sub, role)))`` draws.
"""

from __future__ import annotations

import numpy as np

# np.random.SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words; hashmix multipliers run from INIT_A by MULT_A while entropy
# is mixed in, and from INIT_B by MULT_B while the output is drawn
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = np.uint32(0xCA01F9DD)
MIX_MULT_R = np.uint32(0x4973F715)
XSHIFT = 16
MASK32 = 0xFFFFFFFF


def _multipliers(init: int, mult: int, n: int) -> list:
    """init, init * mult, init * mult^2, ... (n + 1 terms) modulo 2^32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & MASK32)
    return out


def _mixing_steps(extra: int) -> list:
    """The (xor, multiply) constants of each vectorised step of mix_entropy
    for a pool of POOL_SIZE words and ``extra`` entropy words beyond it.

    A hashmix XORs its value with the current multiplier, advances it and
    multiplies by the new one, so the constants do not depend on the data.
    Step 0 hashes every pool word; step 1 + src hashes word src once for each
    other word (the constants of word src itself are unused); the last
    ``extra`` steps hash one extra entropy word for every pool word.
    """
    c = _multipliers(INIT_A, MULT_A, POOL_SIZE * (POOL_SIZE + extra))
    steps = [(c[:POOL_SIZE], c[1:POOL_SIZE + 1])]
    k = POOL_SIZE
    for src in range(POOL_SIZE):
        xor, mul = [0] * POOL_SIZE, [1] * POOL_SIZE
        for dst in range(POOL_SIZE):
            if dst != src:
                xor[dst], mul[dst] = c[k], c[k + 1]
                k += 1
        steps.append((xor, mul))
    for _ in range(extra):
        steps.append((c[k:k + POOL_SIZE], c[k + 1:k + POOL_SIZE + 1]))
        k += POOL_SIZE
    return [(np.array(x, np.uint32), np.array(m, np.uint32)) for x, m in steps]


_STEPS = _mixing_steps(0)
# the multipliers of generate_state's first 8 output words
_OUTPUT = np.array(_multipliers(INIT_B, MULT_B, 8), np.uint32)


def _hashmix(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    x = x ^ xor
    x *= mul
    x ^= x >> XSHIFT
    return x


def _mix_into(pool: np.ndarray, hashed: np.ndarray) -> None:
    """pool = mix(pool, hashed), in place."""
    pool *= MIX_MULT_L
    pool -= hashed * MIX_MULT_R
    pool ^= pool >> XSHIFT


def seed_hash(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` of each row of an
    (n, L) uint32 entropy array, as an (n, n_words) uint32 array.

    Each row is the entropy SeedSequence assembles from its integers: the
    32-bit words of each, least significant first, and one 0 word for a 0.
    Up to POOL_SIZE words a row is hashed as if padded with 0 words, which is
    what SeedSequence does; longer rows mix their extra words in afterwards.
    """
    n, length = entropy.shape
    extra = max(0, length - POOL_SIZE)
    steps = _mixing_steps(extra) if extra else _STEPS
    if length < POOL_SIZE:
        padded = np.zeros((n, POOL_SIZE), np.uint32)
        padded[:, :length] = entropy
        entropy = padded
    pool = _hashmix(entropy[:, :POOL_SIZE], *steps[0])
    for src in range(POOL_SIZE):
        hashed = _hashmix(pool[:, src, None], *steps[1 + src])
        kept = pool[:, src].copy()
        _mix_into(pool, hashed)
        pool[:, src] = kept
    for j in range(extra):
        _mix_into(pool, _hashmix(entropy[:, POOL_SIZE + j, None], *steps[1 + POOL_SIZE + j]))
    c = _OUTPUT
    if n_words >= len(c):
        c = np.array(_multipliers(INIT_B, MULT_B, n_words), np.uint32)
    return _hashmix(pool[:, np.arange(n_words) % POOL_SIZE], c[:n_words], c[1:n_words + 1])


def int_words(n: int) -> list:
    """The uint32 words SeedSequence reads off a non-negative integer."""
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words


def as_uint64(words: np.ndarray) -> list:
    """Pairs of uint32 words, least significant first, as Python integers."""
    return np.ascontiguousarray(words).astype("<u4").view("<u8").tolist()


class Streams:
    """The streams of trials start, ..., stop - 1 of a campaign, for the
    stream roles ``roles``.

    ``subs[j]`` is ``derive_seed(seed, start + j)``.  ``rng(j, role)`` is one
    shared Generator whose Philox state was just reset to that of a fresh
    ``Philox(derive_seed(subs[j], role))``: its key, a zero counter, an
    empty buffer and no buffered 32-bit half.  A stream's draws must
    therefore be made before the next stream is asked for.
    """

    def __init__(self, seed: int, start: int, stop: int, roles):
        n = stop - start
        if stop <= MASK32 + 1:  # every index is one entropy word
            head = int_words(seed)
            entropy = np.empty((n, len(head) + 1), np.uint32)
            entropy[:, :-1] = head
            entropy[:, -1] = np.arange(start, stop)
            sub = seed_hash(entropy, 2)
        else:
            sub = np.array(
                [np.random.SeedSequence([seed, i]).generate_state(2) for i in range(start, stop)],
                dtype=np.uint32,
            ).reshape(n, 2)
        self.subs = [row[0] for row in as_uint64(sub)]
        # the entropy of (sub, role): [lo, role] when sub < 2^32, else [lo, hi, role]
        short = (sub[:, 1] == 0)[:, None]
        role_words = np.array(roles, np.uint32)
        pools = np.zeros((n, len(roles), POOL_SIZE), np.uint32)
        pools[:, :, 0] = sub[:, :1]
        pools[:, :, 1] = np.where(short, role_words, sub[:, 1:])
        pools[:, :, 2] = np.where(short, 0, role_words)
        seeds = seed_hash(pools.reshape(-1, POOL_SIZE), 2)
        # Philox(s) keys itself with SeedSequence(s).generate_state(2, uint64)
        keys = as_uint64(seed_hash(seeds, 4))
        self._keys = {role: keys[c::len(roles)] for c, role in enumerate(roles)}
        self._bits = np.random.Philox(0)  # any seed: rng() resets the whole state
        self._rng = np.random.Generator(self._bits)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": None},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rng(self, j: int, role: int) -> np.random.Generator:
        self._state["state"]["key"] = self._keys[role][j]
        self._bits.state = self._state
        return self._rng
