"""The replica of np.random.SeedSequence's hash behind the block drawer's
Philox streams, pinned against numpy itself."""

import itertools
import random

import numpy as np
import pytest

from bsdpi.campaigns import derive_seed
from bsdpi.streams import Streams, as_uint64, int_words, seed_hash

EDGE_PARTS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100)


def entropy(parts) -> list:
    """The uint32 words SeedSequence(list(parts)) assembles."""
    return [word for part in parts for word in int_words(part)]


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
        tuples = [
            tuple(draw.getrandbits(draw.choice((1, 8, 31, 32, 33, 63, 64, 65, 100)))
                  for _ in range(draw.randint(1, 4)))
            for _ in range(10_000)
        ]
        assert_replica(tuples)

    def test_edge_parts(self):
        # (seed, i) with seed >= 2^96 fills more entropy words than the pool
        tuples = [(p,) for p in EDGE_PARTS]
        tuples += list(itertools.product(EDGE_PARTS, repeat=2))
        tuples += [(a, b, c) for a, b in itertools.product(EDGE_PARTS, repeat=2) for c in (0, 5)]
        assert_replica(tuples, n_words=8)

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
