"""One conditional expectation for every subalgebra u (⊕_k M_{n_k} ⊗ I_{m_k}) u*.

Its outputs are decomposed block by block (BlockSpectrum); these tests hold
that route against a dense evaluation of the same outputs and against exact
identities of the BS entropy: direct sums, product states and the
Stinespring lift of a channel.
"""

import numpy as np
import pytest

from bsdpi import (
    DimMismatch,
    DomainViolation,
    InstanceAnalysis,
    InvalidChannel,
    NotHermitian,
    PartialTraceFactor,
    Pinching,
    SingularState,
    StatePair,
    SupportMismatch,
    bs_entropy,
    gamma,
    linalg,
    neg_power,
    random_cptp,
    random_density,
    random_pinching,
    relative_entropy,
    xlogx,
)
from bsdpi.channels import SubalgebraExpectation, _haar_isometry, random_subalgebra
from bsdpi.linalg import BlockSpectrum
from bsdpi.sampling import sample_pair
from bsdpi.states import ginibre, support_leak

FAMILIES = (xlogx(), neg_power(0.25), neg_power(0.5), neg_power(0.75))
# Budget of the block route against the dense one, relative to max(1, |dense|):
# over the draws below the largest difference was 8.4e-14 (gap_bs), the
# others at most 1.9e-14.
BLOCK_BUDGET = 1e-12


def rand_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def haar_unitary(dim, seed):
    return _haar_isometry(ginibre(np.random.Generator(np.random.Philox(seed)), dim, dim)[None])[0]


def dense_analysis(sigma, rho, e):
    """The analysis with its outputs as dense matrices, each decomposed by a
    full eigh, in place of the block route."""
    a = InstanceAnalysis(sigma, rho, e)
    vars(a)["out"] = StatePair(e.apply(sigma), e.apply(rho))
    return a


def values(a):
    found = {
        "gap_bs": a.gap_bs,
        "residual_k": a.residual_k,
        "residual_l": a.residual_l,
        "lam_max": a.out.ratio.lam_max,
    }
    found.update((fam.tag, a.gap_maximal(fam)) for fam in FAMILIES)
    return found


def expectations(d):
    return [random_pinching(d, seed=100 * d + k) for k in range(3)] + [
        random_subalgebra(d, seed=100 * d + k) for k in range(3)
    ]


class TestBlockRoute:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_block_route_matches_a_dense_evaluation(self, d):
        for k, e in enumerate(expectations(d)):
            sigma, rho = sample_pair(d, 7000 + 100 * d + k)
            assert isinstance(InstanceAnalysis(sigma, rho, e).out.ratio, BlockSpectrum)
            block = values(InstanceAnalysis(sigma, rho, e))
            dense = values(dense_analysis(sigma.mat, rho.mat, e))
            for key, x in dense.items():
                assert abs(block[key] - x) <= BLOCK_BUDGET * max(1.0, abs(x)), (e.blocks, key)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_singular_outputs_cut_the_support_as_the_dense_route(self, d):
        # states on the first two blocks of a pinching: sigma_T is singular,
        # and its support cut, G_T's pseudo-inverse roots and the leak check
        # are taken on the whole expanded spectrum
        u = haar_unitary(d, d)
        e = Pinching(u, [0, 1, d - 1, d])
        inside = u[:, :d - 1]
        sigma, rho = (inside @ x.mat @ inside.conj().T for x in sample_pair(d - 1, 40 + d))
        block, dense = InstanceAnalysis(sigma, rho, e), dense_analysis(sigma, rho, e)
        assert block.out.s.rank == dense.out.s.rank == d - 1
        assert abs(bs_entropy(block.out) - bs_entropy(dense.out)) <= BLOCK_BUDGET
        assert abs(block.out.ratio.lam_max - dense.out.ratio.lam_max) <= BLOCK_BUDGET * dense.out.ratio.lam_max
        leaking = rho + 1e-3 * np.outer(u[:, -1], u[:, -1].conj())
        for a in (InstanceAnalysis(sigma, leaking, e), dense_analysis(sigma, leaking, e)):
            with pytest.raises(SupportMismatch):
                a.out.ratio

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 1, 3), (4, 4), (1, 2, 3, 4, 5), (6,)])
    def test_direct_sum_identity(self, sizes):
        # D_BS(⊕ p_k s_k || ⊕ p_k r_k) = sum_k p_k D_BS(s_k || r_k), on the
        # block route: both states are fixed points of the pinching
        d, seed = sum(sizes), 31 * len(sizes) + sizes[-1]
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.1, 1.0, size=len(sizes))
        p /= p.sum()
        pairs = [sample_pair(n, seed + k) for k, n in enumerate(sizes)]
        u = haar_unitary(d, seed)
        sigma, rho = (np.zeros((d, d), dtype=complex) for _ in range(2))
        lo = 0
        for weight, n, (s_k, r_k) in zip(p, sizes, pairs):
            sigma[lo:lo + n, lo:lo + n] = weight * s_k.mat
            rho[lo:lo + n, lo:lo + n] = weight * r_k.mat
            lo += n
        sigma, rho = (u @ m @ u.conj().T for m in (sigma, rho))
        e = Pinching(u, np.cumsum([0, *sizes]).tolist())
        expected = sum(weight * bs_entropy(StatePair(*pair)) for weight, pair in zip(p, pairs))
        a = InstanceAnalysis(sigma, rho, e)
        assert abs(bs_entropy(a.out) - expected) <= 1e-12
        assert abs(bs_entropy(StatePair(sigma, rho)) - expected) <= 1e-12
        assert abs(a.gap_bs) <= 1e-12

    def test_every_block_is_one_counted_decomposition(self):
        e = SubalgebraExpectation(haar_unitary(9, 3), [(1, 1), (2, 1), (1, 2), (2, 2)])
        sigma, rho = sample_pair(9, 4)
        out = InstanceAnalysis(sigma, rho, e).out
        before = linalg.herm_eig_calls
        out.s.eig
        assert linalg.herm_eig_calls - before == len(e.blocks)
        values = np.sort(np.repeat(np.concatenate(
            [np.linalg.eigvalsh(out.s.comp[lo:hi, lo:hi]) for lo, hi in ((0, 1), (1, 3), (3, 4), (4, 6))]
        ), [1, 1, 1, 2, 2, 2]))
        assert np.abs(out.s.eig.values - values).max() <= 1e-15
        assert np.abs(out.s.eig.reconstruct() - e.apply(sigma)).max() <= 1e-14

    def test_blocks_meet_the_refusals_and_the_corruption_of_herm_eig(self):
        e = Pinching(haar_unitary(4, 5), [0, 1, 3, 4])
        comp = e.compress(random_density(4, 4, 6).mat)
        clean = BlockSpectrum(comp, e).eig.values
        linalg.set_eig_corruption(1e-6)
        try:
            corrupted = BlockSpectrum(comp, e).eig.values
        finally:
            linalg.set_eig_corruption(0.0)
        # each block, the 1 x 1 ones included, is shifted on its own scale
        assert np.all(corrupted - clean >= 0.9e-6)
        bad = comp.copy()
        bad[3, 3] = np.nan
        with pytest.raises(DomainViolation):
            BlockSpectrum(bad, e).eig
        bad = comp.copy()
        bad[1, 2] += 1e-3
        with pytest.raises(NotHermitian):
            BlockSpectrum(bad, e).eig


class TestSupportLeak:
    """The leak of one output outside the other's support, read on the
    compressed matrices, against the dense pair StatePair(E(sigma), E(rho))."""

    # three blocks; sigma lives on the first two, rho on the first and last
    BLOCKS = [[(1, 1), (2, 1), (2, 1)], [(1, 2), (2, 1), (1, 3)], [(2, 2), (1, 1), (1, 2)]]

    @staticmethod
    def pairs(sigma, rho, e):
        return e.outputs(sigma, rho), StatePair(e.apply(sigma), e.apply(rho))

    @staticmethod
    def on_blocks(u, e, which, seed):
        """A state on the columns of u that the blocks ``which`` of e span."""
        starts = np.cumsum([0] + [n * m for n, m in e.blocks])
        cols = np.concatenate([np.arange(starts[k], starts[k + 1]) for k in which])
        w = u[:, cols]
        return w @ random_density(len(cols), len(cols), seed).mat @ w.conj().T

    def singular_pair(self, blocks, seed, rho_blocks=(0, 2)):
        d = sum(n * m for n, m in blocks)
        u = haar_unitary(d, seed)
        e = SubalgebraExpectation(u, blocks)
        sigma = self.on_blocks(u, e, (0, 1), seed + 1)
        return self.pairs(sigma, self.on_blocks(u, e, rho_blocks, seed + 2), e)

    def test_spectra_held_apart_are_refused(self):
        # a pinching's compressed matrix is d x d in u's basis: read against a
        # full matrix, or against another subalgebra's, it would give a wrong G
        e, f = (Pinching(haar_unitary(4, seed), [0, 2, 4]) for seed in (1, 2))
        sigma, rho = sample_pair(4, 5)
        block = e.outputs(sigma.mat, rho.mat)
        for apart in ((block.s, rho), (rho, block.s), (block.s, f.outputs(sigma.mat, rho.mat).r)):
            for read in (gamma, support_leak, StatePair):
                with pytest.raises(DimMismatch, match="not held by one subalgebra"):
                    read(*apart)

    @pytest.mark.parametrize("d", [4, 6, 9])
    def test_full_rank_outputs_leak_exactly_nothing(self, d):
        for k, e in enumerate(expectations(d)):
            sigma, rho = sample_pair(d, 900 + 10 * d + k)
            for pair in self.pairs(sigma.mat, rho.mat, e):
                assert support_leak(pair.s, pair.r) == 0.0
                assert support_leak(pair.r, pair.s) == 0.0

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("rho_blocks", [(0, 1), (0, 2)])
    def test_singular_outputs_leak_as_the_dense_pair(self, blocks, rho_blocks):
        # rho on sigma's blocks leaks only rounding; on another block, a weight
        block, dense = self.singular_pair(blocks, 70, rho_blocks)
        assert not block.s.full_rank and not block.r.full_rank
        for pick in (lambda p: (p.s, p.r), lambda p: (p.r, p.s)):
            leak = support_leak(*pick(dense))
            assert abs(support_leak(*pick(block)) - leak) <= 1e-12
            assert (leak > 1e-3) == (rho_blocks == (0, 2))

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_leaking_outputs_refuse_as_the_dense_pair(self, blocks):
        block, dense = self.singular_pair(blocks, 80)
        assert relative_entropy(block) == relative_entropy(dense) == np.inf
        messages = []
        for pair in (block, dense):
            with pytest.raises(SupportMismatch) as info:
                pair.ratio
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestMultiplicities:
    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (2, 3), (4, 4)])
    def test_product_family_is_an_equality(self, d1, d2):
        # rho ⊗ omega and sigma ⊗ omega under the one-block expectation (d1, d2):
        # E(x ⊗ omega) = x ⊗ I/d2, and D_BS is invariant under both
        sigma, rho = sample_pair(d1, 10 * d1 + d2)
        omega = random_density(d2, d2, 100 * d1 + d2).mat
        e = SubalgebraExpectation(np.eye(d1 * d2), [(d1, d2)])
        a = InstanceAnalysis(np.kron(sigma.mat, omega), np.kron(rho.mat, omega), e)
        assert abs(a.gap_bs) <= 1e-12
        assert a.residual_k <= 1e-12
        assert a.residual_l <= 1e-12

    @pytest.mark.parametrize("d_in, d_out, s", [(2, 2, 2), (3, 2, 3), (4, 3, 2)])
    def test_stinespring_lift_keeps_the_gap(self, d_in, d_out, s):
        # T's gap on (sigma, rho) is the gap of tr_env(.) ⊗ I/s on (V sigma V*, V rho V*)
        channel = random_cptp(d_in, d_out, s, seed=50 + d_in)
        sigma, rho = sample_pair(d_in, 60 + d_in)
        v = channel.stinespring().v
        lifted = InstanceAnalysis(
            v @ sigma.mat @ v.conj().T, v @ rho.mat @ v.conj().T,
            SubalgebraExpectation(np.eye(d_out * s), [(d_out, s)]),
        )
        assert abs(lifted.gap_bs - InstanceAnalysis(sigma, rho, channel).gap_bs) <= 1e-12
        # the dilated pair has rank d_in < d_out s: its residuals still need full rank
        with pytest.raises(SingularState):
            lifted.residual_k


class TestSubalgebraExpectation:
    @pytest.mark.parametrize("d", [2, 4, 6, 9, 12])
    def test_as_kraus_applies_as_apply(self, d):
        for k in range(4):
            e = random_subalgebra(d, seed=200 * d + k)
            kraus = e.as_kraus()
            x = rand_matrix(d, k)
            assert np.linalg.norm(kraus.apply(x) - e.apply(x)) <= 1e-12 * np.linalg.norm(x)
            assert np.linalg.norm(kraus.adjoint_apply(x) - e.adjoint_apply(x)) <= 1e-12 * np.linalg.norm(x)

    def test_the_one_block_expectation_is_the_partial_trace(self):
        x = rand_matrix(6, 1)
        reduced = np.trace(x.reshape(2, 3, 2, 3), axis1=1, axis2=3)
        expected = np.kron(reduced, np.eye(3) / 3)
        assert np.linalg.norm(PartialTraceFactor(2, 3).apply(x) - expected) <= 1e-14 * np.linalg.norm(x)

    def test_idempotent_and_fixes_its_subalgebra(self):
        for seed in range(6):
            e = random_subalgebra(8, seed=seed)
            x = rand_matrix(8, seed)
            once = e.apply(x)
            assert np.linalg.norm(e.apply(once) - once) <= 1e-12 * np.linalg.norm(x)
            assert abs(np.trace(once) - np.trace(x)) <= 1e-12 * np.linalg.norm(x)
            # an element u (⊕ A_k ⊗ I) u* of the subalgebra is fixed
            fixed = e.lift(e.compress(rand_matrix(8, 50 + seed)))
            assert np.linalg.norm(e.apply(fixed) - fixed) <= 1e-12 * np.linalg.norm(fixed)

    def test_drawn_blocks_tile_the_dimension(self):
        for d in range(2, 20):
            for seed in range(5):
                e = random_subalgebra(d, seed=seed)
                assert len(e.blocks) >= 2
                assert sum(n * m for n, m in e.blocks) == d

    @pytest.mark.parametrize("blocks, message", [
        pytest.param([(2, 1), (1, 1)], "do not tile dimension 4", id="short"),
        pytest.param([(2, 2), (1, 1)], "do not tile dimension 4", id="long"),
        pytest.param([], "do not tile dimension 4", id="empty"),
        pytest.param([(4, 0)], "not a pair", id="zero"),
        pytest.param([(-2, -2)], "not a pair", id="negative"),
        pytest.param([(2, 1), (2.0, 1)], "not a pair", id="float"),
        pytest.param([(2, 1, 1), (2, 1)], "not a pair", id="triple"),
    ])
    def test_bad_blocks_are_refused(self, blocks, message):
        with pytest.raises(InvalidChannel, match=message):
            SubalgebraExpectation(haar_unitary(4, 1), blocks)

    def test_u_must_be_a_square_unitary(self):
        with pytest.raises(InvalidChannel, match="subalgebra unitary must be square"):
            SubalgebraExpectation(np.eye(4)[:, :3], [(3, 1)])
        with pytest.raises(InvalidChannel, match="subalgebra unitary u\\*u deviates"):
            SubalgebraExpectation(1.01 * np.eye(4), [(2, 2)])
        with pytest.raises(DomainViolation, match="subalgebra unitary has a NaN"):
            SubalgebraExpectation(np.full((4, 4), np.nan), [(2, 2)])
