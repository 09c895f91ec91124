"""A block's priming forms, bit for bit, what each trial's own reads form.

evaluate hands the checks of a block analyses that ``campaigns._prime`` has
filled by one array call per dimension: the decompositions, the roots, G,
sigma's weights in G's eigenbasis and the maximal f-divergence traces.  A
first check records each of them before any other check reads the trial;
each is then compared with the same quantity of a fresh analysis of that
trial, read lazily, and with the one-matrix formula it stands for.
"""

import dataclasses

import numpy as np
import pytest

from bsdpi import campaigns, linalg
from bsdpi.bounds import InstanceAnalysis
from bsdpi.campaigns import (
    BLOCK_TRIALS,
    MAXF_FAMILIES,
    BoundCheck,
    Check,
    DpiCheck,
    MaxfCheck,
    evaluate,
)
from bsdpi.channels import random_cptp
from bsdpi.divergences import transpose_traces
from bsdpi.errors import DomainViolation
from bsdpi.linalg import Spectrum, spectral_values
from bsdpi.states import hermitian_part

# the scalar functions of the Spectrum.STACKED roots
ROOTS = {"sqrt": linalg.SQRT, "rsqrt": linalg.RSQRT_ON_SUPPORT, "pinv": linalg.INVERSE_ON_SUPPORT}


def bounds_checks(kind):
    """The checks of a ``bsdpi bounds`` campaign over ``kind`` targets, with
    the relative-entropy rows of a conditional expectation."""
    maxf = MaxfCheck(MAXF_FAMILIES, 1e-8)
    if kind == "random_cptp":
        return [DpiCheck(1e-9), BoundCheck("bs_channel", 1e-8), maxf]
    return [BoundCheck(f"bs_{kind}", 1e-8, include_standard_row=True), maxf]


def primed(a: InstanceAnalysis) -> dict:
    """Every quantity of ``a`` that priming forms, keyed by where it is kept."""
    kept = {}
    for name in ("inp", "out"):
        pair = vars(a).get(name)
        if pair is None:
            continue
        for spec in ("s", "r", "ratio"):
            spectrum = vars(pair).get(spec)
            if spectrum is None:
                continue
            if spec == "ratio":
                kept[name, spec, "held"] = spectrum.held
            if "eig" in vars(spectrum):
                kept[name, spec, "values"] = spectrum.eig.values
                kept[name, spec, "vectors"] = spectrum.eig.vectors
            for root in ROOTS:
                if root in vars(spectrum):
                    kept[name, spec, root] = vars(spectrum)[root]
        if "ratio_weights" in vars(pair):
            kept[name, "ratio_weights"] = pair.ratio_weights
        for f, trace in pair.maximal_traces.items():
            kept[name, "trace", f] = trace
    return kept


def lone(a: InstanceAnalysis, key) -> tuple:
    """The quantity at ``key`` of an unprimed analysis: its lazy read, and
    the one-matrix formula of that read on the analysis' own spectra."""
    name, what, *rest = key
    pair = getattr(a, name)
    if what == "ratio_weights":
        s, g = pair.s.eig, pair.ratio.eig
        return pair.ratio_weights, s.values @ np.abs(s.vectors.conj().T @ g.vectors) ** 2
    if what == "trace":
        f = rest[0]
        transpose_traces([pair], [f])  # the read of maximal_f
        values = spectral_values(pair.ratio, f, pair.ratio_values)
        return pair.maximal_traces[f], float(values @ pair.ratio_weights)
    spectrum = getattr(pair, what)
    part = rest[0]
    if part == "held":
        rs = pair.s.held_fn("rsqrt")
        return spectrum.held, hermitian_part(rs @ pair.r.held @ rs)
    if part in ("values", "vectors"):
        read = getattr(spectrum.eig, part)
        return read, read
    v = spectrum.eig.vectors
    m = (v * spectral_values(spectrum, ROOTS[part])) @ v.conj().T
    return getattr(spectrum, part), 0.5 * (m + m.conj().T)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@dataclasses.dataclass
class Recorder(Check):
    """Keeps what priming formed on each trial's analysis, as the trial
    reaches the checks; placed first, it sees the analysis untouched."""

    seen: list = dataclasses.field(default_factory=list, init=False)

    def add(self, trial, a):
        self.seen.append((trial, primed(a)))


def assert_primed_as_alone(recorder) -> dict:
    """Compare every recorded quantity with its lone read and formula;
    returns how many of each kind were compared."""
    compared = {}
    for trial, kept in recorder.seen:
        fresh = InstanceAnalysis(Spectrum(trial.sigma.mat), Spectrum(trial.rho.mat), trial.target)
        for key, value in kept.items():
            read, formula = lone(fresh, key)
            assert same_bits(value, read), (trial.index, key)
            assert same_bits(value, formula), (trial.index, key)
            kind = key[1] if key[1] in ("ratio_weights", "trace") else key[-1]
            compared[kind] = compared.get(kind, 0) + 1
    return compared


def run_recorded(seed, trials, dims, kind, deficient=0):
    recorder = Recorder()
    before = linalg.herm_eig_calls
    evaluate(seed, trials, dims, kind, [recorder, *bounds_checks(kind)], deficient)
    return recorder, linalg.herm_eig_calls - before


@pytest.mark.parametrize("kind, dims, trials", [
    ("random_cptp", (2, 3, 4), BLOCK_TRIALS + 6),
    ("random_cptp", (8, 12, 16), 6),
    ("pinching", (16, 24, 32), 6),
    ("subalgebra", (16, 24, 32), 6),
])
def test_primed_quantities_equal_each_trial_alone(kind, dims, trials):
    recorder, decompositions = run_recorded(7, trials, dims, kind)
    compared = assert_primed_as_alone(recorder)
    # every kind of primed quantity was formed, on both pairs of every trial
    assert compared["held"] == compared["ratio_weights"] == 2 * trials
    assert compared["trace"] == 2 * trials * len(MAXF_FAMILIES)
    assert compared["pinv"] == trials
    assert compared["sqrt"] == 4 * trials and compared["rsqrt"] == 2 * trials
    if kind == "random_cptp":
        assert decompositions == 6 * trials


def test_rank_deficient_trials_keep_their_own_route():
    # singular sigma's G takes its own read and no trace is primed on the
    # input pair; its roots and weights are still stacked
    recorder, _ = run_recorded(7, 6, (2, 3, 4), "random_cptp", deficient=6)
    assert_primed_as_alone(recorder)
    traced = {trial.deficient: [] for trial, _ in recorder.seen}
    for trial, kept in recorder.seen:
        assert ("inp", "ratio", "held") in kept and ("inp", "ratio_weights") in kept
        traced[trial.deficient].append(sum(key[:2] == ("inp", "trace") for key in kept))
    assert traced == {False: [len(MAXF_FAMILIES)] * 6, True: [0] * 6}


def refined_trial(trial):
    """``trial`` with rho replaced by a full-rank state of eigenvalue 1e-7,
    so that G has eigenvalues below REFINE_BELOW * lambda_max(G)."""
    d = trial.d
    rng = np.random.default_rng(trial.seed % 2**32)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = np.full(d, (1.0 - 1e-7) / (d - 1))
    lam[0] = 1e-7
    return dataclasses.replace(trial, rho=Spectrum(hermitian_part((q * lam) @ q.conj().T)))


def test_a_refined_pair_is_primed_as_alone(monkeypatch):
    draw = campaigns.draw_block

    def with_refined(seed, start, stop, *args):
        drawn, error = draw(seed, start, stop, *args)
        return [refined_trial(t) if t.index % 3 == 1 else t for t in drawn], error

    monkeypatch.setattr(campaigns, "draw_block", with_refined)
    recorder, _ = run_recorded(7, 9, (2, 3, 4), "random_cptp")
    compared = assert_primed_as_alone(recorder)
    assert compared["trace"] == 2 * 9 * len(MAXF_FAMILIES)
    refined = [trial for trial, _ in recorder.seen if trial.index % 3 == 1]
    assert len(refined) == 3
    for trial in refined:
        pair = InstanceAnalysis(trial.sigma.mat, trial.rho.mat, trial.target).inp
        assert pair.ratio.eig.values[0] < 1e-4 * pair.ratio.lam_max
        assert pair.ratio_values is not pair.ratio.eig.values


def test_a_refused_trial_in_mid_block_raises_after_the_earlier_checks(monkeypatch):
    # trial 5's rho has a NaN entry: herm_eig refuses the stack it is in, so
    # that dimension's spectra stay lazy, and trial 5 raises on its own read
    draw = campaigns.draw_block

    def with_nan(seed, start, stop, *args):
        drawn, error = draw(seed, start, stop, *args)
        for i, trial in enumerate(drawn):
            if trial.index == 5:
                rho = trial.rho.mat.copy()
                rho[0, 0] = np.nan
                drawn[i] = dataclasses.replace(trial, rho=Spectrum(rho))
        return drawn, error

    monkeypatch.setattr(campaigns, "draw_block", with_nan)
    checks = bounds_checks("random_cptp")
    with pytest.raises(DomainViolation) as info:
        evaluate(11, 20, (2, 3, 4), "random_cptp", checks)
    assert info.value.trial_seed == campaigns.derive_seed(11, 5)
    monkeypatch.setattr(campaigns, "draw_block", draw)
    alone = bounds_checks("random_cptp")
    evaluate(11, 5, (2, 3, 4), "random_cptp", alone)
    rows = [row.render() for check in checks for row in check.rows]
    assert rows == [row.render() for check in alone for row in check.rows]
    assert {row.seed for check in checks for row in check.rows} == {
        campaigns.derive_seed(11, i) for i in range(5)
    }


def test_a_root_its_function_refuses_stays_lazy():
    # sqrt refuses the first sigma's clearly negative eigenvalue: the stack
    # of its dimension keeps no square root, and each spectrum forms its own
    # on its first read, the refusal at its own trial
    channel = random_cptp(2, 2, 2, 7)
    analyses = [InstanceAnalysis(np.diag(lam), np.diag([0.5, 0.5]), channel)
                for lam in ([1.0, -0.5], [0.75, 0.25])]
    campaigns._prime(analyses, campaigns._priming_plan(frozenset({"inp.s.sqrt"})))
    refused, other = (a.inp.s for a in analyses)
    assert all("eig" in vars(s) and "sqrt" not in vars(s) for s in (refused, other))
    with pytest.raises(DomainViolation):
        refused.sqrt
    assert same_bits(other.sqrt, np.diag(np.sqrt([0.75, 0.25])).astype(complex))


@pytest.mark.parametrize("kind, decompositions", [
    ("random_cptp", {2: 6, 3: 6, 4: 6}),
    ("pinching", {2: 9, 3: 9, 4: 12}),
])
def test_a_trial_decomposes_as_many_matrices_as_before(kind, decompositions):
    # sigma, rho and G of both pairs; a pinching's outputs block by block
    for d, count in decompositions.items():
        before = linalg.herm_eig_calls
        evaluate(7, 1, (d,), kind, bounds_checks(kind))
        assert linalg.herm_eig_calls - before == count
