import json

import numpy as np
import pytest

from bsdpi import (
    BadRank,
    DomainViolation,
    ParseError,
    SupportMismatch,
    gamma,
    hs_inner,
    linalg,
    load_state,
    matrix_fn,
    pinching_fixed_pair,
    random_density,
    regularize,
    save_state,
    state_from_json,
    state_to_json,
    support_projector,
)
from bsdpi.campaigns import sample_conditioned_pair, sample_equal_support_pair, sample_pair
from bsdpi.linalg import SQRT, Spectrum
from bsdpi.states import StatePair, matrix_to_entries


class TestRandomDensity:
    def test_one_dimensional(self):
        rho = random_density(1, 1, 99)
        assert np.allclose(rho.mat, [[1.0]])

    def test_determinism(self):
        a = random_density(4, 4, 1234)
        b = random_density(4, 4, 1234)
        assert np.array_equal(a.mat, b.mat)

    def test_distinct_seeds(self):
        a = random_density(4, 4, 1)
        b = random_density(4, 4, 2)
        assert not np.allclose(a.mat, b.mat)

    def test_low_rank(self):
        rho = random_density(4, 2, 7)
        assert rho.rank == 2
        w = np.linalg.eigvalsh(rho.mat)
        assert np.count_nonzero(w > 1e-10 * w[-1]) == 2

    def test_trace_one(self):
        for seed in range(5):
            rho = random_density(5, 5, seed)
            assert abs(np.trace(rho.mat).real - 1.0) <= 1e-12

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            random_density(3, 4, 0)
        with pytest.raises(BadRank):
            random_density(3, 0, 0)


class TestLoadState:
    @staticmethod
    def write(tmp_path, diag) -> str:
        path = str(tmp_path / "state.json")
        save_state(path, np.diag(diag).astype(complex))
        return path

    def test_valid(self, tmp_path):
        rho = load_state(self.write(tmp_path, [0.5, 0.5]))
        assert isinstance(rho, Spectrum)
        assert rho.dim == 2 and rho.rank == 2

    def test_trace_enforced(self, tmp_path):
        path = self.write(tmp_path, [0.5, 0.6])
        with pytest.raises(DomainViolation, match="not a density matrix") as err:
            load_state(path)
        assert repr(path) in str(err.value)

    def test_psd_enforced(self, tmp_path):
        path = self.write(tmp_path, [1.5, -0.5])
        with pytest.raises(DomainViolation, match="not a density matrix") as err:
            load_state(path)
        assert repr(path) in str(err.value)


class TestStatesAreSpectra:
    """Every state the library makes or loads is a Spectrum, decomposed once."""

    def test_constructors_return_spectra(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(str(path), random_density(3, 3, 1))
        states = [
            random_density(3, 2, 1),
            regularize(np.diag([1.0, 0.0]), 1e-3),
            load_state(str(path)),
            *pinching_fixed_pair(4, 2)[:2],
            *sample_pair(3, 4),
            *sample_conditioned_pair(3, 5),
            *sample_equal_support_pair(4, 3, 6),
        ]
        assert all(isinstance(state, Spectrum) for state in states)

    def test_state_pair_reuses_the_spectra(self):
        sigma, rho = sample_pair(3, 7)
        pair = StatePair(sigma, rho)
        before = linalg.herm_eig_calls
        assert pair.s is sigma and pair.r is rho
        assert linalg.herm_eig_calls == before

    def test_rejection_samplers_decompose_through_herm_eig(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh bypasses herm_eig")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        before = linalg.herm_eig_calls
        sample_conditioned_pair(3, 8)
        sample_equal_support_pair(4, 3, 9)
        # at least the two conditioned states and the two blocks; the
        # embedded blocks are decomposed only when read
        assert linalg.herm_eig_calls - before >= 4


class TestRegularize:
    def test_forced_arithmetic(self):
        out = regularize(np.diag([1.0, 0.0]), 1.0)
        assert np.allclose(out.mat, np.diag([2.0 / 3.0, 1.0 / 3.0]))

    def test_small_eps(self):
        out = regularize(np.diag([1.0, 0.0]), 0.01)
        assert np.allclose(out.mat, np.diag([1.01 / 1.02, 0.01 / 1.02]))

    def test_trace_exact(self):
        rho = random_density(4, 2, 3)
        for eps in (1e-2, 1e-5, 1e-8):
            out = regularize(rho, eps)
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-14

    def test_minimum_eigenvalue_increases(self):
        rho = random_density(4, 2, 3)
        lo = np.linalg.eigvalsh(rho.mat)[0]
        hi = np.linalg.eigvalsh(regularize(rho, 1e-3).mat)[0]
        assert hi > lo

    def test_convergence(self):
        rho = random_density(3, 3, 5)
        deltas = [
            np.linalg.norm(regularize(rho, eps).mat - rho.mat)
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[2] < 1e-5


class TestGamma:
    def test_diagonal_arithmetic(self):
        g = gamma(np.eye(2) / 2.0, np.diag([0.25, 0.75]))
        assert np.allclose(g.mat, np.diag([0.5, 1.5]))
        assert g.lam_max == pytest.approx(1.5)

    def test_equal_states_give_projector(self):
        rho = random_density(4, 2, 11)
        g = gamma(rho, rho)
        assert np.linalg.norm(g.mat - support_projector(rho)) <= 1e-8
        assert g.lam_max == pytest.approx(1.0, abs=1e-8)

    def test_trace_identity(self):
        for seed in range(20):
            sigma = random_density(4, 4, 2 * seed)
            rho = random_density(4, 4, 2 * seed + 1)
            g = gamma(sigma, rho)
            s_half = matrix_fn(sigma.mat, SQRT)
            value = hs_inner(s_half, g.mat @ s_half).real
            assert abs(value - 1.0) <= 1e-10

    def test_commuting_ratios(self):
        sigma = np.diag([0.2, 0.3, 0.5])
        rho = np.diag([0.1, 0.6, 0.3])
        g = gamma(sigma, rho)
        assert np.allclose(np.sort(np.diag(g.mat).real), np.sort([0.5, 2.0, 0.6]))

    def test_support_mismatch(self):
        sigma = np.diag([1.0, 0.0])
        rho = np.diag([0.5, 0.5])
        with pytest.raises(SupportMismatch):
            gamma(sigma, rho)


class TestSupportProjector:
    def test_diagonal(self):
        p = support_projector(np.diag([0.7, 0.3, 0.0]))
        assert np.allclose(p, np.diag([1.0, 1.0, 0.0]))

    def test_full_rank(self):
        rho = random_density(3, 3, 17)
        assert np.allclose(support_projector(rho), np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_full_rank_is_exactly_the_identity(self, d):
        assert np.array_equal(support_projector(random_density(d, d, 30 + d)), np.eye(d))

    def test_equal_supports_required_of_rank_deficient_pairs(self):
        sigma, rho = sample_equal_support_pair(4, 2, 31)
        StatePair(sigma, rho).require_equal_supports()
        other, _ = sample_equal_support_pair(4, 2, 32)
        with pytest.raises(SupportMismatch):
            StatePair(sigma, other).require_equal_supports()
        with pytest.raises(SupportMismatch):
            StatePair(sigma, random_density(4, 4, 33)).require_equal_supports()

    def test_full_rank_states_of_one_size_share_one_identity(self):
        pair = StatePair(random_density(4, 4, 34), random_density(4, 4, 35))
        pair.require_equal_supports()
        p = support_projector(pair.s)
        assert p is support_projector(pair.r)
        assert np.array_equal(p, np.eye(4))
        with pytest.raises(ValueError):
            p[0, 0] = 2.0

    def test_rank_one(self):
        v = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
        p_in = np.outer(v, v.conj())
        assert np.linalg.norm(support_projector(p_in) - p_in) <= 1e-10

    def test_idempotent(self):
        rho = random_density(5, 3, 23)
        p = support_projector(rho)
        assert np.linalg.norm(p @ p - p) <= 1e-10


class TestJson:
    @staticmethod
    def looped(m):
        """The reference: the [re, im] pairs made one entry at a time."""
        return [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[-0.0, 0.5 - 0.0j], [complex(0.5, -0.0), complex(-0.0, -0.0)]]),
            np.array([[0.25, -0.0], [1.5, 3.0]]),
            (np.arange(12.0) + 1j * np.arange(12.0)[::-1]).reshape(3, 4).T,
            random_density(4, 4, 36).mat.T,
            random_density(3, 2, 37).mat[:, ::-1],
        ],
        ids=["negative_zero", "real_dtype", "transposed", "transposed_state", "reversed_columns"],
    )
    def test_entries_match_the_loop(self, m):
        entries = matrix_to_entries(m)
        assert json.dumps(entries) == json.dumps(self.looped(m))
        assert all(type(x) is float for pair in entries for x in pair)

    def test_round_trip_exact(self):
        rho = random_density(4, 4, 31)
        back = state_from_json(state_to_json(rho))
        assert np.abs(back - rho.mat).max() <= 1e-15
        # repr-based floats actually round-trip bit for bit
        assert np.array_equal(back, rho.mat)

    def test_malformed_json(self):
        with pytest.raises(ParseError) as err:
            state_from_json("{not json")
        assert "line" in str(err.value)

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            state_from_json(json.dumps({"dim": 2}))

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError):
            state_from_json(json.dumps({"dim": 2, "entries": [[1.0, 0.0]]}))
