"""Divergences of rotated commuting pairs against exact classical sums.

For sigma = U diag(q) U* and rho = U diag(p) U* every divergence is a
classical sum: the relative entropy D and the BS entropy D_BS are both
sum q log(q/p), and the standard and maximal f-divergences are both
sum p f(q/p).  math.fsum evaluates these to full precision at any spread of
p and q, so the references need neither mpmath nor a second eigensolver.

The pairs are exact in floating point, so the sums are the divergences of
the matrices the library reads.  With a random U the rounding of
U diag(q) U* alone moves an eigenvalue by ~eps ||sigma||, which at a spread
of 1e13 moves D by 1e-5 relative.  Here the weights are powers of two, and U
is a fixed unitary with entries in {0, 1/2, (1 + i)/2, ...} (a 3 x 3 one, or
tensor powers of a 2 x 2 one) between random permutations and phases in
{1, i, -1, -i}; every product and sum of U diag(q) U* is then exact.

The weights are log-uniform with spread max/min = 2^round(log2 spread), for
nominal spreads 1e2 to 1e13, and the largest is 1; they are not normalized,
which the divergences and their sums allow.  kappa(G) of the ratio operator
G = sigma^{-1/2} rho sigma^{-1/2} reaches far beyond the spread of either
state.  Each value must lie within 1e-8 relative of its sum, or 1e-8
absolute where the sum is below 1, the largest weight: a term of that size,
such as q log(q/p) = 0 at q = p = 1, carries an error of ~eps ||G|| into
the sum however small the sum is.  The cases the library misses today are
strict xfails, with the error they raise or AssertionError for a wrong
value.
"""

import math

import numpy as np
import pytest

from bsdpi import StatePair, bs_entropy, maximal_f, neg_power, relative_entropy, xlogx
from bsdpi.divergences import standard_f
from bsdpi.errors import SingularState, SupportMismatch

DIMS = (3, 4, 8)
SPREADS = (1e2, 1e5, 1e8, 1e10, 1e13)
REL_TOL = 1e-8

FAMILIES = {
    "xlogx": (xlogx, lambda x: x * math.log(x)),
    "neg_power(0.5)": (lambda: neg_power(0.5), lambda x: -math.sqrt(x)),
}


def entropy_reference(q, p) -> float:
    return math.fsum(qi * math.log(qi / pi) for qi, pi in zip(q, p))


def f_reference(f):
    return lambda q, p: math.fsum(pi * f(qi / pi) for qi, pi in zip(q, p))


# quantity -> (value of a pair, exact value of its spectra q, p)
QUANTITIES = {
    "relative_entropy": (relative_entropy, entropy_reference),
    "bs_entropy": (bs_entropy, entropy_reference),
}
for _tag, (_family, _f) in FAMILIES.items():
    QUANTITIES[f"standard_f[{_tag}]"] = (
        lambda pair, fam=_family: standard_f(pair, fam()), f_reference(_f)
    )
    QUANTITIES[f"maximal_f[{_tag}]"] = (
        lambda pair, fam=_family: maximal_f(pair, fam()), f_reference(_f)
    )

# (d, spread, quantity) -> the error raised, or AssertionError for a value
# off its reference by more than the tolerance; kappa(G) in the comments
MISSES = {
    # bs_entropy loses G's small eigenvalues once kappa(G) passes ~1e10
    (3, 1e8, "bs_entropy"): AssertionError,  # 1.8e16: -3.4e-4 for 18.71
    (3, 1e10, "bs_entropy"): AssertionError,  # 9.0e15: -5.2e-9 for 14.56
    (4, 1e5, "bs_entropy"): AssertionError,  # 8.6e9: 6.6e-8 relative
    (4, 1e8, "bs_entropy"): AssertionError,  # 1.8e13: -2.4e-7 for 5.557
    (8, 1e8, "bs_entropy"): AssertionError,  # 1.1e12: 0.0432 for 20.06
    (8, 1e10, "bs_entropy"): AssertionError,  # 5.5e11: 8.665 for 10.48
    # a weight below RANK_TOL = 1e-10 of the largest is cut off the support
    # of a full-rank state
    (3, 1e13, "relative_entropy"): AssertionError,  # 1.3e5: -1.0e-8 for 3.9e-9
    (4, 1e13, "relative_entropy"): AssertionError,  # +inf for 29.81
    (8, 1e13, "relative_entropy"): AssertionError,  # +inf for 29.94
    **{
        (d, 1e13, name): SupportMismatch if name == "bs_entropy" else SingularState
        for d in DIMS
        for name in ("bs_entropy", "standard_f[xlogx]", "maximal_f[xlogx]",
                     "standard_f[neg_power(0.5)]", "maximal_f[neg_power(0.5)]")
    },
}


W = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
BASES = {
    3: np.array([[1, 1, 1 + 1j], [1, 1, -1 - 1j], [1 + 1j, -1 - 1j, 0]]) / 2,
    4: np.kron(W, W),
    8: np.kron(np.kron(W, W), W),
}


def log_uniform(rng: np.random.Generator, d: int, spread: float) -> np.ndarray:
    """d powers of two with max/min exactly 2^round(log2 spread), their
    exponents uniform integers in between, in random order."""
    top = round(math.log2(spread))
    exponents = rng.integers(0, top + 1, size=d)
    exponents[:2] = 0, top
    return 2.0 ** -rng.permutation(exponents).astype(float)


def dyadic_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """BASES[d] between random permutations and random phases in {1, i, -1, -i}."""
    def phases():
        return 1j ** rng.integers(0, 4, size=d)

    return (phases()[:, None] * BASES[d][rng.permutation(d)])[:, rng.permutation(d)] * phases()


def rotated_pair(d: int, spread: float):
    """(sigma, rho, q, p): sigma = U diag(q) U*, rho = U diag(p) U*, exactly."""
    rng = np.random.Generator(np.random.Philox(1000 * d + SPREADS.index(spread)))
    q, p = log_uniform(rng, d, spread), log_uniform(rng, d, spread)
    u = dyadic_unitary(rng, d)
    sigma, rho = ((u * w) @ u.conj().T for w in (q, p))
    return sigma, rho, list(q), list(p), u


def cases():
    for d in DIMS:
        for spread in SPREADS:
            for name in QUANTITIES:
                key = (d, spread, name)
                marks = ()
                if key in MISSES:
                    marks = pytest.mark.xfail(raises=MISSES[key], strict=True)
                yield pytest.param(d, spread, name, marks=marks, id=f"d{d}-{spread:.0e}-{name}")


@pytest.mark.parametrize("d, spread, name", cases())
def test_value_matches_its_classical_sum(d, spread, name):
    sigma, rho, q, p, _ = rotated_pair(d, spread)
    value_of, reference_of = QUANTITIES[name]
    value, reference = value_of(StatePair(sigma, rho)), reference_of(q, p)
    assert abs(value - reference) <= REL_TOL * max(abs(reference), 1.0), (value, reference)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("spread", SPREADS)
def test_pairs_are_exact(d, spread):
    # U is unitary and each state has U's columns as eigenvectors, with no
    # rounding in either product
    sigma, rho, q, p, u = rotated_pair(d, spread)
    assert np.array_equal(u @ u.conj().T, np.eye(d))
    for m, w in ((sigma, q), (rho, p)):
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m @ u, u * np.array(w))
        assert max(w) / min(w) == 2.0 ** round(math.log2(spread))
