import math
import re
from pathlib import Path

import numpy as np
import pytest

from bsdpi import (
    DimMismatch,
    DomainViolation,
    NoConvergence,
    NotHermitian,
    herm_eig,
    hs_inner,
    matrix_fn,
    pinv,
    schatten_norm,
)
from bsdpi import SingularState, linalg
from bsdpi.divergences import neg_log, neg_power, square_family, xlogx
from bsdpi.linalg import (
    EXP,
    IDENTITY,
    LOG,
    LOG_ON_SUPPORT,
    RANK_TOL,
    RSQRT_ON_SUPPORT,
    SQRT,
    SQUARE,
    STEP_ON_SUPPORT,
    ScalarFunction,
    Spectrum,
    integrate_adaptive,
    lazy_property,
    spectral_values,
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
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(3, 3), (2, 2, 2)], ids=["matrix", "stack"])
    @pytest.mark.parametrize("at", [(1, 1), (1, 0)], ids=["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_and_warns_nothing(self, bad, at, shape):
        # the refusal is the DomainViolation alone: no RuntimeWarning from
        # the sums that find the entry, such as inf - inf in a - a*
        a = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
        a[(...,) + at] = bad
        with pytest.raises(DomainViolation, match="NaN or infinite entry"):
            herm_eig(a)

    def test_a_matrix_is_a_stack_of_one(self):
        a = rand_psd(4, 5)
        before = linalg.herm_eig_calls
        e = herm_eig(a)
        assert linalg.herm_eig_calls - before == 1
        stacked = herm_eig(a[None])
        assert e.values.shape == (4,) and e.vectors.shape == (4, 4)
        assert np.array_equal(e.values, stacked.values[0])
        assert np.array_equal(e.vectors, stacked.vectors[0])

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


def psd_stack(dim, k, seed):
    return np.stack([rand_psd(dim, 1000 * seed + i) for i in range(k)])


@pytest.fixture
def corrupted_eig():
    linalg.set_eig_corruption(1e-6)
    yield
    linalg.set_eig_corruption(0.0)


class TestStackedEig:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
    def test_bitwise_equal_to_one_call_per_matrix(self, dim):
        stack = psd_stack(dim, 7, dim)
        before = linalg.herm_eig_calls
        e = herm_eig(stack)
        assert linalg.herm_eig_calls - before == 7  # it counts decompositions
        assert e.values.shape == (7, dim) and e.vectors.shape == (7, dim, dim)
        for a, values, vectors in zip(stack, e.values, e.vectors):
            one = herm_eig(a)
            assert np.array_equal(values, one.values)
            assert np.array_equal(vectors, one.vectors)

    def test_corruption_hook_applies_per_matrix(self, corrupted_eig):
        # the shift scales with each matrix's own largest eigenvalue
        stack = psd_stack(3, 4, 1) * np.array([1.0, 10.0, 0.1, 1000.0])[:, None, None]
        e = herm_eig(stack)
        for a, values in zip(stack, e.values):
            assert np.array_equal(values, herm_eig(a).values)
        linalg.set_eig_corruption(0.0)
        assert not np.array_equal(e.values, herm_eig(stack).values)

    @pytest.mark.parametrize(
        "spoil, error",
        [
            (lambda a: a.__setitem__((1, 1), np.nan), DomainViolation),
            (lambda a: a.__setitem__((0, 1), a[0, 1] + 1.0), NotHermitian),
        ],
    )
    def test_one_refused_matrix_refuses_the_stack_with_its_error(self, spoil, error):
        stack = psd_stack(3, 5, 2)
        spoil(stack[3])
        with pytest.raises(error, match="matrix 3 of the stack"):
            herm_eig(stack)
        with pytest.raises(error):
            herm_eig(stack[3])

    def test_stack_of_non_square_matrices(self):
        with pytest.raises(DimMismatch):
            herm_eig(np.zeros((2, 2, 3)))

    @staticmethod
    def skewed(a, size):
        """``a`` with a skew-Hermitian part of Frobenius norm ``size``."""
        b = a.astype(complex)
        b[0, 1] += size / math.sqrt(2.0)
        b[1, 0] -= size / math.sqrt(2.0)
        return b

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scales, skews",
        [
            # each skew below its matrix's threshold, their total above the screen
            ([1.0] * 6, [0.9e-10] * 6),
            # a large matrix tolerates more skew than the stack screen passes
            ([1e6, 1.0], [5e-5, 0.0]),
            # a small matrix after it may not
            ([1e6, 1.0], [5e-5, 1e-8]),
            ([1.0, 1e6, 1.0], [0.0, 1e-2, 0.0]),
            # entries whose squares overflow, after a clean matrix
            ([1.0, 1e160, 1.0], [0.0, 0.0, 0.0]),
            ([1.0, 1e150, 1e150], [0.0, 0.0, 0.0]),
        ],
        ids=["many_small_skews", "large_matrix_skew", "small_after_large",
             "large_skew_too_big", "overflow", "total_overflow_only"],
    )
    def test_a_stack_refuses_what_its_matrices_refuse(self, scales, skews):
        base = psd_stack(3, len(scales), 3)
        stack = np.array([self.skewed(a * c, e) for a, c, e in zip(base, scales, skews)])
        alone = []
        for a in stack:
            try:
                herm_eig(a)
                alone.append(None)
            except (DomainViolation, NotHermitian) as exc:
                alone.append(type(exc))
        refused = [i for i, error in enumerate(alone) if error is not None]
        if not refused:
            e = herm_eig(stack)
            for a, values in zip(stack, e.values):
                assert np.array_equal(values, herm_eig(a).values)
            return
        i = refused[0]
        with pytest.raises(alone[i], match=f"matrix {i} of the stack"):
            herm_eig(stack)


class TestDecompose:
    def test_slices_are_each_spectrum_own_decomposition(self):
        mats = [rand_psd(d, seed) for seed, d in enumerate((2, 3, 2, 4, 3, 2))]
        spectra = [Spectrum(m) for m in mats]
        before = linalg.herm_eig_calls
        linalg.decompose(spectra + spectra[:2])  # a repeat is decomposed once
        assert linalg.herm_eig_calls - before == len(mats)
        for m, spec in zip(mats, spectra):
            assert "eig" in vars(spec)
            alone = herm_eig(m)
            assert np.array_equal(spec.eig.values, alone.values)
            assert np.array_equal(spec.eig.vectors, alone.vectors)
        before = linalg.herm_eig_calls
        linalg.decompose(spectra)
        assert linalg.herm_eig_calls == before

    def test_a_refused_group_stays_lazy(self):
        good = [Spectrum(rand_psd(3, seed)) for seed in range(3)]
        bad = Spectrum(np.array([[0.5, 0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]))
        other = [Spectrum(rand_psd(2, seed)) for seed in range(2)]
        linalg.decompose(good + [bad] + other)
        assert all("eig" not in vars(spec) for spec in good + [bad])
        assert all("eig" in vars(spec) for spec in other)
        with pytest.raises(NotHermitian):
            bad.eig
        assert np.array_equal(good[0].eig.values, herm_eig(good[0].mat).values)

    @pytest.mark.parametrize("name", ["sqrt", "rsqrt", "pinv"])
    def test_stacked_roots_equal_each_spectrum_own(self, name):
        mats = [rand_psd(3, seed) for seed in range(4)]
        mats[1][2, :] = mats[1][:, 2] = 0.0  # rank deficient: rsqrt and pinv take the general route
        spectra = [Spectrum(m) for m in mats]
        linalg.decompose(spectra)
        stack = Spectrum.STACKED[name](spectra)
        assert stack.shape == (4, 3, 3)
        for m, root in zip(mats, stack):
            assert root.tobytes() == getattr(Spectrum(m), name).tobytes()

    def test_a_stack_raises_the_refusal_of_its_function(self):
        # sqrt refuses a clearly negative eigenvalue, of any spectrum of the stack
        spectra = [Spectrum(np.diag([1.0, 0.5])), Spectrum(np.diag([1.0, -0.5]))]
        with pytest.raises(DomainViolation):
            matrix_fn(spectra, SQRT)
        assert matrix_fn(spectra[:1], SQRT).tobytes() == spectra[0].sqrt.tobytes()


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


def functions_in_use():
    """Every scalar function the library maps spectra with, by name."""
    fns = {
        "SQRT": SQRT,
        "LOG": LOG,
        "LOG_ON_SUPPORT": LOG_ON_SUPPORT,
        "RSQRT_ON_SUPPORT": RSQRT_ON_SUPPORT,
        "STEP_ON_SUPPORT": STEP_ON_SUPPORT,
        # pinv's INVERSE_ON_SUPPORT, written out
        "pinv": ScalarFunction(lambda x: 1.0 / x, lo=0.0, at_zero=0.0, on_support=True),
    }
    for fam in (xlogx(), neg_log(), *(neg_power(b) for b in (0.25, 0.5, 0.75)), square_family()):
        fns[f"{fam.tag}.f"] = fam.f
        fns[f"{fam.tag}.f_transpose"] = fam.f_transpose
    return fns


def documented_values(spec, f):
    """spectral_values' rule eigenvalue by eigenvalue: clip, map to at_zero
    on and below the cut, refuse what is left outside the domain, and map
    the rest by f in one call."""
    lam_max = spec.lam_max
    lam = [
        0.0 if f.lo >= 0.0 and -linalg.CLIP_TOL * max(lam_max, 1.0) < x < 0.0 else float(x)
        for x in spec.eig.values
    ]
    cut = RANK_TOL * lam_max
    zero = [f.at_zero is not None and (x <= cut if f.on_support else x == 0.0) for x in lam]
    live = [x for x, z in zip(lam, zero) if not z]
    if any(not f.lo < x < f.hi for x in live):
        raise DomainViolation("outside the domain")
    mapped = iter(np.asarray(f.fn(np.array(live)), dtype=float))
    return np.array([f.at_zero if z else next(mapped) for z in zero])


def route(spec, f):
    """'fast' when f is handed the spectrum's own eigenvalues, else 'general'."""
    seen = []

    def spy(x):
        seen.append(x is spec.eig.values)
        return f.fn(x)

    spectral_values(spec, ScalarFunction(spy, f.lo, f.hi, f.at_zero, f.on_support))
    return "fast" if seen == [True] else "general"


# full-rank spectra, the last with a wide spread that stays above
# RANK_TOL * lambda_max
IN_DOMAIN = [rand_psd(d, seed) / 10.0 for d in (2, 3, 4) for seed in range(3)]
IN_DOMAIN.append(np.diag([2e-9, 0.3, 1.0]))


class TestSpectralFastPath:
    @pytest.mark.parametrize("name", sorted(functions_in_use()))
    def test_in_domain_spectra_agree_bitwise(self, name):
        f = functions_in_use()[name]
        for a in IN_DOMAIN:
            spec = Spectrum(a)
            assert route(spec, f) == "fast"
            values = spectral_values(spec, f)
            assert values.dtype == float
            assert np.array_equal(values, documented_values(spec, f))

    def test_fast_values_do_not_alias_the_spectrum(self):
        spec = Spectrum(np.diag([0.25, 0.75]))
        values = spectral_values(spec, IDENTITY)
        values[0] = 9.0
        assert spec.eig.values[0] == 0.25

    @pytest.mark.parametrize(
        "diag, f, expected",
        [
            # exactly at RANK_TOL * lambda_max: on the cut, so mapped to at_zero
            ([1e-10, 0.5, 1.0], LOG_ON_SUPPORT, [0.0, math.log(0.5), 0.0]),
            ([0.0, 0.5, 0.5], SQRT, [0.0, math.sqrt(0.5), math.sqrt(0.5)]),
            ([0.0, 0.5, 0.5], LOG_ON_SUPPORT, [0.0, math.log(0.5), math.log(0.5)]),
            # rounding noise below 0 is clipped to 0 first
            ([-1e-14, 0.5, 0.5], SQRT, [0.0, math.sqrt(0.5), math.sqrt(0.5)]),
        ],
        ids=["at_cut", "zero_sqrt", "zero_log", "clipped"],
    )
    def test_edge_spectra_take_the_general_route(self, diag, f, expected):
        spec = Spectrum(np.diag(diag))
        assert list(spec.eig.values) == diag
        assert route(spec, f) == "general"
        values = spectral_values(spec, f)
        assert np.array_equal(values, expected)
        assert np.array_equal(values, documented_values(spec, f))

    @pytest.mark.parametrize("diag", [[0.0, 0.5, 0.5], [-1e-14, 0.5, 0.5]], ids=["at_lo", "clipped_to_lo"])
    def test_eigenvalue_at_the_domain_end_still_raises(self, diag):
        with pytest.raises(DomainViolation):
            spectral_values(Spectrum(np.diag(diag)), LOG)

    def test_pinv_maps_with_that_function(self):
        spec = Spectrum(rand_psd(3, 5))
        assert np.array_equal(pinv(spec), matrix_fn(spec, functions_in_use()["pinv"]))


class TestGivenValues:
    """spectral_values(spec, f, values): the domain ends of a given array are
    its min and max unless it is the spectrum's own ascending eigenvalues."""

    @pytest.mark.parametrize(
        "f, middle",
        [(LOG, -0.3), (SQRT, -0.3), (ScalarFunction(np.log, lo=0.0, hi=1.0), 1.5)],
        ids=["log_below", "sqrt_below", "log_above_hi"],
    )
    def test_out_of_domain_entry_in_the_middle_raises(self, f, middle):
        spec = Spectrum(np.diag([0.1, 0.3, 0.6]))
        refined = np.array([0.5, middle, 0.4])
        with pytest.raises(DomainViolation):
            spectral_values(spec, f, refined)
        # a copy of the spectrum with one entry replaced, not the spectrum itself
        copy = spec.eig.values.copy()
        copy[1] = middle
        with pytest.raises(DomainViolation):
            spectral_values(spec, f, copy)

    @pytest.mark.parametrize(
        "diag, f",
        [
            ([-1e-14, 0.5, 0.5], SQRT),
            ([0.0, 0.5, 0.5], SQRT),
            ([1e-10, 0.5, 1.0], LOG_ON_SUPPORT),
            ([0.2, 0.3, 0.5], LOG),
        ],
        ids=["clip", "at_zero", "on_support", "fast"],
    )
    def test_own_values_give_the_bits_of_none(self, diag, f):
        spec = Spectrum(np.diag(diag))
        given = spectral_values(spec, f, spec.eig.values)
        assert np.array_equal(given, spectral_values(spec, f))
        assert given is not spec.eig.values
        assert np.array_equal(spec.eig.values, diag)

    @pytest.mark.parametrize("diag", [[0.0, 0.5, 0.5], [-1e-14, 0.5, 0.5]], ids=["at_lo", "clipped_to_lo"])
    def test_own_values_keep_the_refusals_of_none(self, diag):
        spec = Spectrum(np.diag(diag))
        for values in (None, spec.eig.values):
            with pytest.raises(DomainViolation):
                spectral_values(spec, LOG, values)


class TestLazyProperty:
    class Counted:
        reads = 0

        def __init__(self, value):
            self.value = value

        @lazy_property
        def double(self):
            """Twice the value."""
            type(self).reads += 1
            return 2 * self.value

    def test_computes_once_per_instance(self):
        obj = self.Counted(3)
        before = self.Counted.reads
        assert obj.double == 6 and obj.double == 6
        assert self.Counted.reads - before == 1
        assert obj.__dict__["double"] == 6

    def test_instances_do_not_share_a_value(self):
        a, b = self.Counted(1), self.Counted(2)
        assert (a.double, b.double) == (2, 4)

    def test_class_access_returns_the_descriptor(self):
        prop = self.Counted.double
        assert isinstance(prop, lazy_property)
        assert prop.__doc__ == "Twice the value."
        assert isinstance(Spectrum.eig, lazy_property)

    def test_spectrum_decomposes_on_first_read(self):
        before = linalg.herm_eig_calls
        spec = Spectrum(np.array([[0.5, 0.3], [0.0, 0.5]]))
        assert linalg.herm_eig_calls == before
        with pytest.raises(NotHermitian):
            spec.eig
        spec = Spectrum(rand_psd(3, 1))
        assert spec.eig is spec.eig
        assert linalg.herm_eig_calls - before == 2

    def test_library_uses_no_functools_cached_property(self):
        src = Path(linalg.__file__).parent
        for path in src.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"^from functools import .*\bcached_property\b", text, re.M), path.name
            assert "@functools.cached_property" not in text, path.name


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
