import math

import numpy as np
import pytest

from bsdpi import (
    DimMismatch,
    DomainViolation,
    NoConvergence,
    NotHermitian,
    herm_eig,
    hs_inner,
    integrate_adaptive,
    matrix_fn,
    pinv,
    schatten_norm,
)
from bsdpi import SingularState, linalg
from bsdpi.linalg import (
    EXP,
    IDENTITY,
    LOG,
    LOG_ON_SUPPORT,
    RSQRT_ON_SUPPORT,
    SQRT,
    SQUARE,
    STEP_ON_SUPPORT,
    ScalarFunction,
    Spectrum,
)


def rand_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def rand_psd(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


def expm_series(a, terms=60):
    """Independent matrix exponential by plain power series."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestHermEig:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 1] = bad
        with pytest.raises(DomainViolation):
            herm_eig(a)

    def test_already_diagonal(self):
        e = herm_eig(np.diag([1.0, 2.0]))
        assert np.allclose(e.values, [1.0, 2.0])
        assert np.allclose(np.abs(e.vectors), np.eye(2))

    def test_pauli_x_spectrum(self):
        e = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(e.values, [-1.0, 1.0])

    def test_random_reconstruction(self):
        for seed in range(100):
            d = 2 + seed % 7
            a = rand_hermitian(d, seed)
            e = herm_eig(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(e.reconstruct() - a) <= 1e-10 * scale
            assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(d)) <= 1e-10
            assert np.all(np.diff(e.values) >= 0)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_not_square(self):
        with pytest.raises(DimMismatch):
            herm_eig(np.zeros((2, 3)))


class TestMatrixFn:
    def test_identity(self):
        a = rand_psd(4, 0)
        assert np.allclose(matrix_fn(a, IDENTITY), a)

    def test_sqrt_diagonal(self):
        out = matrix_fn(np.diag([4.0, 9.0]), SQRT)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_log_exp_round_trip(self):
        for seed in range(5):
            b = rand_hermitian(3, seed) * 0.7
            a = expm_series(b)
            assert np.linalg.norm(matrix_fn(a, LOG) - b) <= 1e-9

    def test_homomorphism_sqrt_square(self):
        for seed in range(20):
            a = rand_psd(4, seed)
            direct = matrix_fn(a, ScalarFunction(lambda x: np.sqrt(np.square(x)), lo=0.0, at_zero=0.0))
            chained = matrix_fn(matrix_fn(a, SQUARE), SQRT)
            assert np.linalg.norm(direct - chained) <= 1e-9 * max(1.0, np.linalg.norm(a))

    def test_plain_callable(self):
        a = rand_hermitian(3, 11)
        assert np.allclose(matrix_fn(a, EXP), expm_series(a), atol=1e-9)

    def test_log_of_singular_raises(self):
        with pytest.raises(DomainViolation):
            matrix_fn(np.diag([1.0, 0.0]), LOG)

    def test_domain_ends_hold_for_matrices_and_traces(self):
        # log(1 - x) lives on (0, 1); the trace shares the matrix function's checks
        f = ScalarFunction(lambda x: np.log(1.0 - x), lo=0.0, hi=1.0)
        inside = Spectrum(np.diag([0.25, 0.5]))
        expected = 0.25 * math.log(0.75) + 0.5 * math.log(0.5)
        assert inside.trace_fn(f, inside.weights(inside)) == pytest.approx(expected, rel=1e-15)
        for values in ([0.5, 1.0], [0.0, 0.5], [-0.1, 0.5]):
            spec = Spectrum(np.diag(values))
            with pytest.raises(DomainViolation):
                matrix_fn(spec, f)
            with pytest.raises(DomainViolation):
                spec.trace_fn(f, spec.weights(spec))

    def test_negative_clipping(self):
        a = np.diag([1.0, -1e-15])
        out = matrix_fn(a, SQRT)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_invertible_residual(self):
        for seed in range(10):
            a = rand_psd(4, seed) + 0.5 * np.eye(4)
            assert np.linalg.norm(a @ pinv(a) - np.eye(4)) < 1e-9

    def test_rank_one_projector(self):
        v = np.array([1.0, 1j]) / math.sqrt(2)
        p = np.outer(v, v.conj())
        assert np.linalg.norm(pinv(p) - p) < 1e-12

    def test_support_projector_product(self):
        a = np.diag([3.0, 1.0, 0.0])
        assert np.allclose(a @ pinv(a), np.diag([1.0, 1.0, 0.0]), atol=1e-9)

    def test_double_pinv_on_support(self):
        for seed in range(10):
            a = rand_psd(3, seed)
            a[2, :] = 0.0
            a[:, 2] = 0.0
            assert np.linalg.norm(pinv(pinv(a)) - a) <= 1e-9 * max(1.0, np.linalg.norm(a))

    def test_zero_matrix(self):
        assert np.allclose(pinv(np.zeros((3, 3))), np.zeros((3, 3)))


class TestSpectrum:
    def test_one_decomposition_feeds_every_derived_matrix(self):
        a = rand_psd(4, 3)
        a[3, :] = 0.0
        a[:, 3] = 0.0
        before = linalg.herm_eig_calls
        spec = Spectrum(a)
        derived = {
            SQRT: spec.sqrt,
            RSQRT_ON_SUPPORT: spec.rsqrt,
            STEP_ON_SUPPORT: spec.support_projector,
        }
        rank, min_positive, inverse = spec.rank, spec.min_positive, spec.pinv
        log_trace = spec.trace_fn(LOG_ON_SUPPORT, spec.weights(spec))
        assert linalg.herm_eig_calls - before == 1
        for f, value in derived.items():
            assert np.array_equal(value, matrix_fn(a, f))
        assert log_trace == pytest.approx(np.trace(a @ matrix_fn(a, LOG_ON_SUPPORT)).real, rel=1e-13)
        assert np.array_equal(inverse, pinv(a))
        assert rank == 3 and not spec.full_rank
        w = np.linalg.eigvalsh(a)
        assert min_positive == pytest.approx(w[1], rel=1e-12)

    def test_zero_matrix_has_no_positive_spectrum(self):
        with pytest.raises(SingularState):
            Spectrum(np.zeros((2, 2))).min_positive


class TestNorms:
    def test_schatten_values(self):
        a = np.diag([3.0, -4.0])
        assert schatten_norm(a, 1) == pytest.approx(7.0, abs=1e-12)
        assert schatten_norm(a, 2) == pytest.approx(5.0, abs=1e-12)
        assert schatten_norm(a, np.inf) == pytest.approx(4.0, abs=1e-12)

    def test_frobenius_matches_inner(self):
        for seed in range(10):
            a = rand_hermitian(5, seed)
            n2 = schatten_norm(a, 2)
            inner = hs_inner(a, a).real
            assert abs(n2 * n2 - inner) <= 1e-12 * max(1.0, inner)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 3)

    def test_small_singular_values_keep_full_precision(self):
        # through the spectrum of A*A each singular value 1e-9 carries an
        # error of ~sqrt(eps); singular values carry ~eps * ||A||
        singular = np.array([1.0, 1e-9, 1e-9, 1e-9])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            a = (u * singular) @ v.conj().T
            assert schatten_norm(a, 1) == pytest.approx(singular.sum(), abs=1e-14)
            assert schatten_norm(a, 2) == pytest.approx(
                math.sqrt(np.sum(singular**2)), abs=1e-14
            )
            assert schatten_norm(a, np.inf) == pytest.approx(1.0, abs=1e-14)


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        assert abs(hs_inner(x, z)) < 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            hs_inner(np.eye(2), np.eye(3))


def depth_first_simpson(g, lo, hi, tol, max_panels=200_000):
    """The depth-first adaptive Simpson loop that integrate_adaptive replaced,
    kept as the reference: a scalar integrand, one panel popped at a time."""

    def simp(fa, fm, fb, width):
        return width * (fa + 4.0 * fm + fb) / 6.0

    mid = 0.5 * (lo + hi)
    fa, fm, fb = g(lo), g(mid), g(hi)
    stack = [(lo, hi, fa, fm, fb, simp(fa, fm, fb, hi - lo), tol)]
    total, panels = 0.0, 0
    min_width = 1e-14 * max(1.0, abs(hi - lo))
    while stack:
        a, b, fa, fm, fb, whole, eps = stack.pop()
        panels += 1
        if panels > max_panels:
            raise NoConvergence("panel budget exceeded")
        m = 0.5 * (a + b)
        flm, frm = g(0.5 * (a + m)), g(0.5 * (m + b))
        left = simp(fa, flm, fm, m - a)
        right = simp(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps or (b - a) <= min_width:
            total += left + right + delta / 15.0
        else:
            stack.append((a, m, fa, flm, fm, left, 0.5 * eps))
            stack.append((m, b, fm, frm, fb, right, 0.5 * eps))
    return total


class TestIntegrateAdaptive:
    def test_constant(self):
        assert integrate_adaptive(lambda t: np.ones_like(t), 0.0, 1.0, 1e-12) == pytest.approx(1.0)

    def test_linear(self):
        assert integrate_adaptive(lambda t: t, 0.0, 2.0, 1e-12) == pytest.approx(2.0)

    def test_long_tail_closed_form(self):
        g = lambda t: 1.0 / (1.0 + t) - 1.0 / (t + math.e)
        exact = 1.0 + math.log((1e6 + 1.0) / (1e6 + math.e))
        assert integrate_adaptive(g, 0.0, 1e6, 1e-9) == pytest.approx(exact, abs=1e-8)

    def test_panel_cap(self):
        with pytest.raises(NoConvergence):
            integrate_adaptive(lambda t: np.sin(1e4 * t), 0.0, 1.0, 1e-14, max_panels=4)

    def test_reversed_bounds(self):
        assert integrate_adaptive(lambda t: t, 2.0, 0.0, 1e-12) == pytest.approx(-2.0)

    def test_segments_equal_single_segment_calls(self):
        g = lambda t: 1.0 / (1.0 + t) - 1.0 / (t + math.e)
        edges = [0.0, 1.0, 10.0, 100.0, 1e3]
        whole = integrate_adaptive(g, 0.0, 1e3, 1e-9, breakpoints=edges[1:-1])
        parts = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            parts += integrate_adaptive(g, lo, hi, 1e-9 / 4)
        assert whole == parts

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize(
        "g",
        [lambda t: 1.0 / (1.0 + t) - 1.0 / (t + math.e), lambda t: np.sqrt(t) / (1.0 + t * t)],
    )
    def test_same_value_as_depth_first_reference(self, g, tol):
        # the arithmetic of every panel is unchanged, so the sums are equal
        edges = [0.0, 1.0, 10.0, 100.0]
        expected = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            expected += depth_first_simpson(g, lo, hi, tol / 3)
        assert integrate_adaptive(g, 0.0, 100.0, tol, breakpoints=edges[1:-1]) == expected

    def test_one_integrand_call_per_level(self):
        sizes = []

        def g(t):
            sizes.append(t.size)
            return np.sqrt(t)

        integrate_adaptive(g, 0.0, 4.0, 1e-6, breakpoints=[1.0, 2.0])
        assert sizes[0] == 7  # four edges and three midpoints
        assert all(n % 2 == 0 for n in sizes[1:])  # two midpoints per panel

    def test_breakpoints_must_increase_inside(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t: t, 0.0, 1.0, 1e-9, breakpoints=[0.5, 0.25])
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t: t, 0.0, 1.0, 1e-9, breakpoints=[1.5])

    def test_non_finite_value_fails_at_once(self):
        calls = []

        def g(t):
            calls.append(t.size)
            return np.where(np.abs(t - 0.3) < 0.01, np.nan, np.sin(50.0 * t))

        with pytest.raises(NoConvergence, match="not finite"):
            integrate_adaptive(g, 0.0, 1.0, 1e-10)
        assert 1 < len(calls) <= 10  # past the initial nodes, well inside the budget
