import re

import numpy as np
import pytest

import bsdpi.channels
from bsdpi import (
    DimMismatch,
    DomainViolation,
    InvalidChannel,
    KrausChannel,
    PartialTraceFactor,
    Pinching,
    build_contraction,
    depolarizing_channel,
    diagonal_pinching,
    gamma,
    hs_inner,
    identity_channel,
    linalg,
    matrix_fn,
    random_cptp,
    random_density,
    random_pinching,
    superop_matrix,
)
from bsdpi.campaigns import PARTIAL_TRACE_SHAPES, sample_channel
from bsdpi.channels import _haar_isometry, isometry_channel, isometry_defect, load_channel, save_channel
from bsdpi.linalg import SQRT, ScalarFunction
from bsdpi.states import ginibre


def rand_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestApply:
    def test_identity_channel(self):
        x = rand_matrix(3, 0)
        assert np.allclose(identity_channel(3).apply(x), x)

    def test_diagonal_pinching(self):
        x = rand_matrix(3, 1)
        out = diagonal_pinching(3).apply(x)
        assert np.allclose(out, np.diag(np.diag(x)))

    def test_depolarizing(self):
        rho = random_density(2, 2, 5)
        out = depolarizing_channel(2).apply(rho)
        assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)

    def test_trace_and_psd_preserved(self):
        channel = random_cptp(3, 3, 3, seed=2)
        rho = random_density(3, 3, 3)
        out = channel.apply(rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            identity_channel(2).apply(np.eye(3))


class TestAdjoint:
    def test_identity(self):
        y = rand_matrix(2, 4)
        assert np.allclose(identity_channel(2).adjoint_apply(y), y)

    def test_unital(self):
        channel = random_cptp(3, 4, 2, seed=8)
        out = channel.adjoint_apply(np.eye(4))
        assert np.linalg.norm(out - np.eye(3)) <= 1e-10

    def test_duality(self):
        channel = random_cptp(3, 4, 2, seed=9)
        for seed in range(10):
            x = rand_matrix(3, 10 + seed)
            y = rand_matrix(4, 20 + seed)
            lhs = hs_inner(y, channel.apply(x))
            rhs = hs_inner(channel.adjoint_apply(y), x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_pinching_self_adjoint(self):
        pinching = random_pinching(4, seed=1).as_kraus()
        for seed in range(5):
            y = rand_matrix(4, seed)
            assert np.allclose(pinching.apply(y), pinching.adjoint_apply(y), atol=1e-12)


class TestStinespring:
    def test_identity(self):
        dilation = identity_channel(3).stinespring()
        assert dilation.s == 1
        assert np.allclose(dilation.v, np.eye(3))

    def test_pinching_blocks(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        dilation = Pinching(np.eye(2), [0, 1, 2]).as_kraus().stinespring()
        expected = np.kron(p0, [[1.0], [0.0]]) + np.kron(p1, [[0.0], [1.0]])
        assert np.allclose(dilation.v, expected)
        assert np.allclose(dilation.v.conj().T @ dilation.v, np.eye(2))

    @pytest.mark.parametrize("d_in,d_out,s", [(2, 2, 3), (3, 2, 3), (4, 4, 2), (2, 5, 1)])
    def test_isometry_is_bitwise_the_kron_sum(self, d_in, d_out, s):
        channel = random_cptp(d_in, d_out, s, seed=10 * d_in + d_out)
        v = np.zeros((d_out * s, d_in), dtype=complex)
        for a, k in enumerate(channel.kraus):
            e = np.zeros((s, 1), dtype=complex)
            e[a, 0] = 1.0
            v += np.kron(k, e)
        assert channel.stinespring().v.tobytes() == v.tobytes()

    def test_reconstruction(self):
        channel = random_cptp(2, 2, 3, seed=6)
        dilation = channel.stinespring()
        for seed in range(10):
            omega = random_density(2, 2, seed).mat
            assert np.linalg.norm(dilation.apply(omega) - channel.apply(omega)) <= 1e-12


def eps_bound(x):
    """4 eps ||x||_F: how far a stacked product may sit from its per-operator sum."""
    return 4 * np.finfo(float).eps * np.linalg.norm(x)


def per_operator_choi(kraus):
    d_out, d_in = kraus[0].shape
    c = np.zeros((d_in * d_out,) * 2, dtype=complex)
    for k in kraus:
        v = k.T.reshape(-1)  # v[i*d_out + r] = K[r, i]
        c += np.outer(v, v.conj())
    return c


class TestKrausStack:
    """The (s, d_out, d_in) stack against the per-operator sums it replaced."""

    @pytest.mark.parametrize("d, s", [(2, 2), (3, 3), (4, 2), (7, 3)])
    def test_a_drawn_isometry_is_never_copied(self, d, s):
        v = _haar_isometry(ginibre(np.random.Generator(np.random.Philox(d)), d * s, d)[None])[0]
        channel = isometry_channel(v, d, s)
        assert np.shares_memory(channel.stinespring().v, v)
        assert np.shares_memory(channel.kraus, v)

    @staticmethod
    def channels(tmp_path):
        drawn = [random_cptp(d, d, 2 + d % 3, seed=300 + d) for d in range(2, 17)]
        save_channel(str(tmp_path / "c.json"), random_cptp(3, 4, 3, seed=317))
        return [*drawn, load_channel(str(tmp_path / "c.json")), depolarizing_channel(3)]

    def test_apply_and_adjoint_are_the_per_operator_sums(self, tmp_path):
        for n, channel in enumerate(self.channels(tmp_path)):
            x, y = rand_matrix(channel.d_in, 2 * n), rand_matrix(channel.d_out, 2 * n + 1)
            apply = sum(k @ x @ k.conj().T for k in channel.kraus)
            adjoint = sum(k.conj().T @ y @ k for k in channel.kraus)
            assert np.linalg.norm(channel.apply(x) - apply) <= eps_bound(x)
            assert np.linalg.norm(channel.adjoint_apply(y) - adjoint) <= eps_bound(y)

    def test_choi_is_the_sum_of_outer_products(self, tmp_path):
        for channel in self.channels(tmp_path):
            reference = per_operator_choi(channel.kraus)
            assert np.linalg.norm(channel.choi() - reference) <= eps_bound(reference)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_pinching_apply_is_the_per_projector_sum(self, d):
        for pinching in (random_pinching(d, seed=400 + d), diagonal_pinching(d)):
            x = rand_matrix(d, d)
            reference = sum(p @ x @ p for p in pinching.as_kraus().kraus)
            assert np.linalg.norm(pinching.apply(x) - reference) <= eps_bound(x)


class TestConditionalExpectation:
    def test_trivial_pinching(self):
        x = rand_matrix(3, 2)
        assert np.allclose(Pinching(np.eye(3), [0, 3]).apply(x), x)

    def test_diagonal_input_fixed(self):
        x = np.diag([0.3, 0.7, 0.1])
        assert np.allclose(diagonal_pinching(3).apply(x), x)

    def test_partial_trace_fixed_point(self):
        e = PartialTraceFactor(2, 3)
        omega = random_density(2, 2, 4).mat
        x = np.kron(omega, np.eye(3) / 3.0)
        assert np.allclose(e.apply(x), x, atol=1e-12)

    def test_trace_preserved(self):
        e = PartialTraceFactor(2, 2)
        x = rand_matrix(4, 5)
        assert abs(np.trace(e.apply(x)) - np.trace(x)) <= 1e-12 * max(1.0, abs(np.trace(x)))

    def test_idempotence(self):
        for e in (random_pinching(4, seed=3), PartialTraceFactor(2, 2)):
            for seed in range(10):
                x = rand_matrix(e.dim, seed)
                once = e.apply(x)
                assert np.linalg.norm(e.apply(once) - once) <= 1e-10

    def test_module_property(self):
        # E(A E(B)) = E(A) E(B) for operands in the subalgebra
        for e in (random_pinching(4, seed=13), PartialTraceFactor(2, 2)):
            for seed in range(10):
                a = rand_matrix(e.dim, 100 + seed)
                b = e.apply(rand_matrix(e.dim, 200 + seed))
                lhs = e.apply(a @ b)
                rhs = e.apply(a) @ b
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(lhs))

    def test_invalid_projectors(self):
        # column 1 tilted 1e-6 toward column 0: the blocks' projectors overlap
        u = random_pinching(4, seed=55).u.copy()
        u[:, 1] += 1e-6 * u[:, 0]
        with pytest.raises(InvalidChannel, match="pinching unitary u\\*u deviates from the identity"):
            Pinching(u, [0, 1, 4])


class TestAsKraus:
    def test_pinching_count(self):
        assert len(Pinching(np.eye(2), [0, 1, 2]).as_kraus().kraus) == 2

    def test_agreement_with_apply(self):
        for e in (random_pinching(4, seed=21), PartialTraceFactor(2, 3)):
            channel = e.as_kraus()
            for seed in range(50):
                x = rand_matrix(e.dim, seed)
                assert np.linalg.norm(channel.apply(x) - e.apply(x)) <= 1e-12 * max(
                    1.0, np.linalg.norm(x)
                )

    def test_trace_preservation(self):
        for e in (random_pinching(5, seed=22), PartialTraceFactor(3, 2)):
            acc = sum(k.conj().T @ k for k in e.as_kraus().kraus)
            assert np.linalg.norm(acc - np.eye(e.dim)) <= 1e-10


class TestExpectationAdjoint:
    """A conditional expectation is its own Hilbert-Schmidt adjoint."""

    @staticmethod
    def expectations():
        pinchings = [random_pinching(d, seed=10 * d + k) for d in range(2, 7) for k in range(3)]
        return pinchings + [PartialTraceFactor(d_keep, s) for d_keep, s in PARTIAL_TRACE_SHAPES]

    def test_hilbert_schmidt_adjoint(self):
        # <Y, E(X)> = <E*(Y), X>
        for e in self.expectations():
            for seed in range(10):
                x = rand_matrix(e.dim, 60 + seed)
                y = rand_matrix(e.dim, 80 + seed)
                assert abs(hs_inner(y, e.apply(x)) - hs_inner(e.adjoint_apply(y), x)) <= 1e-13

    def test_agrees_with_the_kraus_adjoint(self):
        for e in self.expectations():
            kraus = e.as_kraus()
            for seed in range(10):
                y = rand_matrix(e.dim, 100 + seed)
                assert np.linalg.norm(e.adjoint_apply(y) - kraus.adjoint_apply(y)) <= 1e-14


class TestContraction:
    def test_identity_channel(self):
        sigma = random_density(3, 3, 30)
        u = build_contraction(sigma, identity_channel(3))
        for seed in range(5):
            x = rand_matrix(3, seed)
            assert np.allclose(u.apply(x), x, atol=1e-10)

    def test_maps_output_sqrt_to_input_sqrt(self):
        sigma = random_density(3, 3, 31)
        channel = random_cptp(3, 3, 2, seed=32)
        u = build_contraction(sigma, channel)
        st_half = matrix_fn(channel.apply(sigma.mat), SQRT)
        s_half = matrix_fn(sigma.mat, SQRT)
        assert np.linalg.norm(u.apply(st_half) - s_half) <= 1e-10

    def test_uu_equals_expectation(self):
        sigma = random_density(4, 4, 33)
        pinching = random_pinching(4, seed=34)
        u = build_contraction(sigma, pinching.as_kraus())
        for seed in range(20):
            x = rand_matrix(4, seed)
            lhs = hs_inner(x, u.adjoint(u.apply(x))).real
            rhs = hs_inner(x, pinching.apply(x)).real
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_contraction_property(self):
        for seed in range(30):
            d = 2 + seed % 3
            sigma = random_density(d, d, 300 + seed)
            channel = random_cptp(d, d, 2, seed=400 + seed)
            u = build_contraction(sigma, channel)
            x = rand_matrix(d, 500 + seed)
            lhs = hs_inner(x, u.adjoint(u.apply(x))).real
            rhs = hs_inner(x, x).real
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    def test_gamma_compression(self):
        # <X, U* G U X> <= <X, G_T X> for X in the subalgebra
        for seed in range(20):
            d = 3 + seed % 2
            sigma = random_density(d, d, 600 + seed)
            rho = random_density(d, d, 700 + seed)
            pinching = random_pinching(d, seed=800 + seed)
            channel = pinching.as_kraus()
            u = build_contraction(sigma, channel)
            g = gamma(sigma, rho).mat
            sigma_n = channel.apply(sigma.mat)
            rho_n = channel.apply(rho.mat)
            g_n = gamma(sigma_n, rho_n).mat
            x = pinching.apply(rand_matrix(d, 900 + seed))
            lhs = hs_inner(x, u.adjoint(g @ u.apply(x))).real
            rhs = hs_inner(x, g_n @ x).real
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestNormMonotonicity:
    def test_pinching_and_partial_trace(self):
        for seed in range(40):
            if seed % 2 == 0:
                e = random_pinching(4, seed=seed)
            else:
                e = PartialTraceFactor(2, 2)
            sigma = random_density(e.dim, e.dim, 1000 + seed)
            rho = random_density(e.dim, e.dim, 2000 + seed)
            full = gamma(sigma, rho).lam_max
            reduced = gamma(e.apply(sigma.mat), e.apply(rho.mat)).lam_max
            assert reduced <= full + 1e-10


class TestJensenOperatorInequality:
    def test_pinching_operator_convexity(self):
        functions = (
            ScalarFunction(lambda x: 1.0 / x, lo=0.0),
            ScalarFunction(np.square),
            ScalarFunction(lambda x: -np.sqrt(x), lo=0.0, at_zero=0.0),
        )
        for seed in range(15):
            d = 3 + seed % 2
            pinching = random_pinching(d, seed=3000 + seed)
            x = random_density(d, d, 4000 + seed).mat + 0.1 * np.eye(d)
            for f in functions:
                gap = pinching.apply(matrix_fn(x, f)) - matrix_fn(pinching.apply(x), f)
                assert np.linalg.eigvalsh(gap)[0] >= -1e-9


class TestRandomEnsembles:
    def test_cptp_determinism(self):
        a = random_cptp(3, 3, 2, seed=5)
        b = random_cptp(3, 3, 2, seed=5)
        for ka, kb in zip(a.kraus, b.kraus):
            assert np.array_equal(ka, kb)

    def test_cptp_validity(self):
        for seed in range(10):
            channel = random_cptp(2 + seed % 3, 2, 3, seed=seed)
            channel.validate()

    def test_choi_psd(self):
        channel = random_cptp(3, 2, 2, seed=44)
        w = np.linalg.eigvalsh(channel.choi())
        assert w[0] >= -1e-10

    def test_too_few_kraus(self):
        with pytest.raises(InvalidChannel):
            random_cptp(4, 2, 1, seed=0)

    def test_pinching_blocks_partition(self):
        pinching = random_pinching(5, seed=9)
        total = sum(pinching.as_kraus().kraus)
        assert np.linalg.norm(total - np.eye(5)) <= 1e-10
        assert len(pinching.as_kraus().kraus) >= 2


def dependent_family(seed):
    """Four Kraus operators spanning two: L_b = sum_a W_ba K_a with W an
    isometry, so sum L*L = sum K*K = I while the Gram matrix has rank 2."""
    kraus = random_cptp(3, 3, 2, seed=seed).kraus
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    return KrausChannel([sum(w[b, a] * k for a, k in enumerate(kraus)) for b in range(4)])


class TestValidation:
    def test_validate_decomposes_nothing(self):
        for channel in (sample_channel(16, seed=3), random_cptp(2, 2, 4, seed=52)):
            before = linalg.herm_eig_calls
            channel.validate()
            KrausChannel(channel.kraus)
            assert linalg.herm_eig_calls == before

    def test_choi_is_positive_by_construction(self):
        # no family of Kraus operators has a Choi matrix to refuse
        channels = [
            random_cptp(3, 2, 2, seed=50),
            random_cptp(4, 4, 3, seed=51),
            dependent_family(56),
            dependent_family(57),
            diagonal_pinching(4).as_kraus(),  # rank-deficient Kraus operators
            PartialTraceFactor(2, 2).as_kraus(),
            random_cptp(2, 2, 4, seed=52),  # r = d_in * d_out
            depolarizing_channel(3),  # r = d_in * d_out
        ]
        for channel in channels:
            w = np.linalg.eigvalsh(channel.choi())
            assert w[0] >= -1e-12 * max(1.0, w[-1]), w[0]

    @pytest.mark.parametrize("kraus, message", [
        pytest.param([], "empty Kraus family", id="empty"),
        pytest.param([np.eye(2), np.eye(3)], "Kraus operators must share one 2-d shape", id="ragged"),
        pytest.param([np.ones(2), np.ones(2)], "Kraus operators must share one 2-d shape", id="1-d"),
        pytest.param(np.eye(2), "Kraus operators must share one 2-d shape", id="bare-matrix"),
    ])
    def test_constructor_refuses_a_family_that_is_no_operator_stack(self, kraus, message):
        with pytest.raises(InvalidChannel, match=f"^{message}$"):
            KrausChannel(kraus)

    def test_non_trace_preserving_family_is_refused(self):
        channel = random_cptp(4, 4, 3, seed=53)
        with pytest.raises(InvalidChannel, match="sum K\\*K"):
            KrausChannel([0.9 * k for k in channel.kraus])
        with pytest.raises(InvalidChannel, match="sum K\\*K"):
            KrausChannel([*channel.kraus, 0.1 * np.eye(4)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_entry_is_refused_first(self, bad, monkeypatch):
        kraus = [k.copy() for k in random_cptp(3, 3, 2, seed=54).kraus]
        kraus[1][2, 0] = bad
        built = []
        monkeypatch.setattr(bsdpi.channels, "StinespringIsometry", lambda **kw: built.append(kw))
        before = linalg.herm_eig_calls
        with pytest.raises(DomainViolation, match="Kraus operator has a NaN or infinite entry"):
            KrausChannel(kraus)
        assert built == [] and linalg.herm_eig_calls == before

    def test_stinespring_returns_the_isometry_validate_checked(self):
        # TestStinespring pins its V bitwise to the Kronecker sum
        channel = random_cptp(3, 2, 3, seed=58)
        assert channel.stinespring() is channel.dilation

    def test_the_isometry_keeps_its_defect(self):
        for channel in (random_cptp(3, 2, 3, seed=58), sample_channel(4, seed=59)):
            v = channel.dilation.v
            assert channel.dilation.defect == float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))

    def test_pinching_refuses_overlapping_or_incomplete_projectors(self):
        u = random_pinching(6, seed=55).u
        for bounds in (
            [0, 2, 4],  # incomplete: columns 4 and 5 are in no block
            [1, 3, 6],  # incomplete: column 0 is in no block
            [0, 4, 2, 6],  # overlapping: columns 2 and 3 are in two blocks
            [0, 3, 3, 6],  # an empty block
            [0, 6, 6],
            [6],
            [],
        ):
            message = re.escape(f"block bounds {bounds} do not rise strictly from 0 to 6")
            with pytest.raises(InvalidChannel, match=message):
                Pinching(u, bounds)

    def test_pinching_refuses_oblique_idempotents(self):
        # P = u diag(1, 0) u^-1 = [[1, 1], [0, 0]] is an oblique idempotent
        # along the columns of the upper-triangular u: no unitary's blocks
        u = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InvalidChannel, match="pinching unitary u\\*u deviates from the identity"):
            Pinching(u, [0, 1, 2])

    def test_pinching_checks_every_shape_before_any_product(self, monkeypatch):
        u = random_pinching(3, seed=56).u.copy()
        u[2, 1] = np.nan
        defects = []
        monkeypatch.setattr(bsdpi.channels, "isometry_defect", lambda v: defects.append(v))
        with pytest.raises(InvalidChannel, match="pinching unitary must be square, got shape \\(3, 2\\)"):
            Pinching(np.eye(3)[:, :2], [0, 1, 2])
        with pytest.raises(InvalidChannel, match="pinching unitary must be square, got shape \\(4,\\)"):
            Pinching(np.ones(4), [0, 4])
        with pytest.raises(InvalidChannel, match="block bounds"):
            Pinching(np.full((3, 3), np.nan), [0, 2])
        with pytest.raises(DomainViolation, match="pinching unitary has a NaN or infinite entry"):
            Pinching(u, [0, 1, 3])
        assert defects == []

    def test_pinching_validate_makes_one_product_and_no_decomposition(self, monkeypatch):
        pinching = random_pinching(8, seed=57)
        checked = []
        monkeypatch.setattr(bsdpi.channels, "isometry_defect", lambda v: checked.append(v) or 0.0)
        before = linalg.herm_eig_calls
        pinching.validate()
        assert linalg.herm_eig_calls == before
        assert len(checked) == 1 and checked[0] is pinching.u

    @pytest.mark.parametrize("d", range(2, 33))
    def test_pinching_projectors_keep_the_structure_of_u(self, d):
        # what u*u = I gives the projectors: Hermitian, P_j P_k = delta_jk P_j
        # and sum P = I, each within the flat 1e-10 of the checks it replaced
        pinchings = [random_pinching(d, seed=1000 * d + k) for k in range(4)]
        for pinching in [*pinchings, diagonal_pinching(d)]:
            assert isometry_defect(pinching.u) <= 1e-10
            stack = np.array(pinching.as_kraus().kraus)
            assert len(stack) == len(pinching.bounds) - 1
            assert np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2)).max() <= 1e-10
            for j, pj in enumerate(stack):
                products = pj @ stack
                products[j] -= pj
                assert np.linalg.norm(products, axis=(1, 2)).max() <= 1e-10
            assert np.linalg.norm(stack.sum(axis=0) - np.eye(d)) <= 1e-10


class TestChannelJson:
    def test_round_trip(self):
        channel = random_cptp(2, 3, 2, seed=77)
        back = KrausChannel.from_json(channel.to_json())
        assert back.d_in == 2 and back.d_out == 3
        for ka, kb in zip(channel.kraus, back.kraus):
            assert np.array_equal(ka, kb)


class TestSuperopMatrix:
    def test_identity_map(self):
        m = superop_matrix(lambda x: x, 3)
        assert np.allclose(m, np.eye(9))

    def test_linearity_consistency(self):
        pinching = random_pinching(3, seed=50)
        m = superop_matrix(pinching.apply, 3)
        x = rand_matrix(3, 51)
        assert np.allclose((m @ x.ravel()).reshape(3, 3), pinching.apply(x))
