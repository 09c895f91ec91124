"""The replica of np.random.SeedSequence's hash behind the block drawer's
Philox streams, pinned against numpy itself.

The replica hashes rows of at most one pool (4 words); a block whose
(seed, i) needs more words takes SeedSequence row by row.
"""

import itertools
import random

import numpy as np
import pytest

from bsdpi.campaigns import derive_seed
from bsdpi import streams as streams_module
from bsdpi.streams import POOL_SIZE, Streams, as_uint64, int_words, seed_hash

EDGE_PARTS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100)


def entropy(parts) -> list:
    """The uint32 words SeedSequence(list(parts)) assembles."""
    return [word for part in parts for word in int_words(part)]


def fits(parts) -> bool:
    return len(entropy(parts)) <= POOL_SIZE


def assert_replica(tuples, n_words=4):
    by_length = {}
    for parts in tuples:
        by_length.setdefault(len(entropy(parts)), []).append(parts)
    for group in by_length.values():
        got = seed_hash(np.array([entropy(p) for p in group], dtype=np.uint32), n_words)
        for parts, row in zip(group, got):
            expected = np.random.SeedSequence(list(parts)).generate_state(n_words)
            assert row.tolist() == expected.tolist(), parts


class TestSeedHash:
    def test_random_tuples(self):
        draw = random.Random(20191904)
        tuples = []
        while len(tuples) < 10_000:
            parts = tuple(draw.getrandbits(draw.choice((1, 8, 31, 32, 33, 63, 64, 65, 100)))
                          for _ in range(draw.randint(1, 4)))
            if fits(parts):
                tuples.append(parts)
        assert_replica(tuples)

    def test_edge_parts(self):
        tuples = [(p,) for p in EDGE_PARTS]
        tuples += list(itertools.product(EDGE_PARTS, repeat=2))
        tuples += [(a, b, c) for a, b in itertools.product(EDGE_PARTS, repeat=2) for c in (0, 5)]
        tuples = [parts for parts in tuples if fits(parts)]
        for n_words in range(1, POOL_SIZE + 1):
            assert_replica(tuples, n_words)

    def test_philox_keys(self):
        for s in (*EDGE_PARTS[:5], derive_seed(7, 3), derive_seed(2**100, 4)):
            key = as_uint64(seed_hash(np.array([int_words(s)], dtype=np.uint32), 4))[0]
            assert key == np.random.Philox(s).state["state"]["key"].tolist()

    def test_derive_seed_literals(self):
        # a change to SeedSequence in numpy fails here, at its source
        assert derive_seed(20190424, 0) == 13898393364354880366
        assert derive_seed(7, 1, 2) == 6837620415509415036
        assert derive_seed(2**100, 5) == 4766560344853597310


def fresh(sub, role):
    return np.random.Generator(np.random.Philox(derive_seed(sub, role)))


class TestStreams:
    ROLES = (0, 1, 2, 3, 4, 5)

    @pytest.mark.parametrize("seed", [*EDGE_PARTS, 20191904, 2**200 + 3])
    def test_sub_seeds_and_keys(self, seed):
        streams = Streams(seed, 60, 70, self.ROLES)
        for j, i in enumerate(range(60, 70)):
            assert streams.subs[j] == derive_seed(seed, i)
            for role in self.ROLES:
                key = fresh(streams.subs[j], role).bit_generator.state["state"]["key"]
                assert streams.rng(j, role).bit_generator.state["state"]["key"].tolist() == key.tolist()

    def test_indices_beyond_one_word(self):
        streams = Streams(7, 2**32 - 2, 2**32 + 2, (4,))
        assert streams.subs == [derive_seed(7, i) for i in range(2**32 - 2, 2**32 + 2)]

    # a block is hashed together only while (seed, i) fills one pool: seed
    # below 2^96 and every index below 2^32
    @pytest.mark.parametrize("seed, start, stop, together", [
        (2**96 - 1, 2**32 - 3, 2**32, True),
        (2**96 - 1, 2**32 - 1, 2**32 + 1, False),
        (2**96, 0, 3, False),
        (2**96, 2**32 - 1, 2**32 + 1, False),
    ])
    def test_the_pool_boundary(self, seed, start, stop, together, monkeypatch):
        calls = []

        def counted(entropy, n_words):
            calls.append(entropy.shape)
            return seed_hash(entropy, n_words)

        monkeypatch.setattr(streams_module, "seed_hash", counted)
        streams = Streams(seed, start, stop, self.ROLES)
        # the sub-seeds, then the stream seeds, then their Philox keys
        assert len(calls) == (3 if together else 2)
        for j, i in enumerate(range(start, stop)):
            sub = int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])
            assert streams.subs[j] == sub
            for role in self.ROLES:
                key = np.random.Philox(derive_seed(sub, role)).state["state"]["key"]
                assert streams.rng(j, role).bit_generator.state["state"]["key"].tolist() == key.tolist()

    def test_a_rekeyed_stream_draws_what_a_fresh_one_draws(self):
        # integers leaves a buffered 32-bit half and a partly used buffer in
        # the shared bit generator; the next stream must not see either
        def take(rng):
            drawn = (rng.integers(2, 4), rng.standard_normal((3, 2)),
                     rng.choice(np.arange(1, 6), size=2, replace=False))
            return [np.asarray(x).tobytes() for x in drawn]

        streams = Streams(20191904, 0, 4, (3, 4, 5))
        for j in range(4):
            for role in (4, 3, 5):
                assert take(streams.rng(j, role)) == take(fresh(streams.subs[j], role))
