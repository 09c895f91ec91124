"""Randomized verification campaigns over states, channels and bounds.

Each campaign draws deterministic instances from seed-derived Philox streams,
evaluates a family of inequalities or residuals, and returns a CampaignSummary
plus CSV-ready rows.  Instances are generated and checked in seed order, so a
fixed configuration always produces byte-identical artifacts.  ``CRITERIA``
is the acceptance battery that the tests and ``bsdpi selftest`` run.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .bounds import (
    InstanceAnalysis,
    bs_bound_channel,
    bs_bound_condexp,
    k_alpha,
    lemma_integrand_check,
    maxf_bound,
)
from .channels import _haar_isometry, superop_matrix
from .divergences import (
    bs_entropy,
    bs_entropy_quadrature,
    family_from_tag,
    maximal_f,
    neg_power,
    regularized_divergence,
    relative_entropy,
    square_family,
    standard_f,
    transpose_traces,
    xlogx,
)
from .errors import ConfigError, NumericsError
from .linalg import Spectrum, decompose, eigen_weights, schatten_norm
from .recovery import equality_residuals, petz_recovery, pinching_fixed_pair
from .sampling import (  # noqa: F401 - the samplers and trials are part of this module's interface
    COMMUTING,
    CONDEXP_KINDS,
    CONSTRUCTED,
    OMEGA,
    PARTIAL_TRACE_SHAPES,
    SIDE_PAIR,
    Trial,
    derive_seed,
    draw_block,
    draw_trial,
    sample_channel,
    sample_condexp,
    sample_conditioned_pair,
    sample_equal_support_pair,
    sample_pair,
)
from .states import OutputFile, StatePair, gamma, ginibre, random_density

CSV_HEADER = "seed,d,family,gap,rhs_k,rhs_l,precondition_ok,slack"


@dataclass
class CampaignSummary:
    total: int = 0
    violations: list = field(default_factory=list)
    min_slack: float = math.inf

    def record_slack(self, value: float) -> None:
        self.min_slack = min(self.min_slack, value)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class Row:
    seed: int
    d: int
    family: str
    gap: float
    rhs_k: float
    rhs_l: float
    precondition_ok: bool
    slack: float

    def render(self) -> str:
        flag = "true" if self.precondition_ok else "false"
        return (
            f"{self.seed},{self.d},{self.family},{self.gap!r},{self.rhs_k!r},"
            f"{self.rhs_l!r},{flag},{self.slack!r}"
        )


def write_csv(out: OutputFile, rows: list[Row]) -> None:
    """The CSV of ``rows`` as the whole content of the open ``out``."""
    out.write(CSV_HEADER + "\n" + "".join(row.render() + "\n" for row in rows))


# Consecutive trials that evaluate draws, decomposes together and then
# checks; at d = 32 a block's spectra and roots stay within a few MB.
BLOCK_TRIALS = 64

# The spectra of an analysis pair (``inp`` or ``out``) that a check may
# declare, by level: the states, then G (``ratio``), built by gamma from
# sigma's inverse square root.  A state held compressed by a subalgebra gives
# gamma its compressed root, so the dense root primed for it serves only its
# other readers.
SPECTRUM_LEVELS = (("s", "r"), ("ratio",))
BUILT_FROM = {"ratio": ("s", "rsqrt")}


@functools.cache
def _priming_plan(reads: frozenset) -> tuple:
    """Per level of SPECTRUM_LEVELS, (pair, spectrum, roots) for every
    spectrum named in ``reads``: the Spectrum.STACKED roots read off it, and
    those the next level is built from.  Made once per set of reads, and
    shared, so it is immutable."""
    wanted: dict = {}
    for name in reads:
        pair, spec, *root = name.split(".")
        wanted.setdefault((pair, spec), set()).update(root)
        if spec in BUILT_FROM:
            base, fn = BUILT_FROM[spec]
            wanted.setdefault((pair, base), set()).add(fn)
    return tuple(
        tuple((pair, spec, frozenset(roots)) for (pair, spec), roots in sorted(wanted.items())
              if spec in level)
        for level in SPECTRUM_LEVELS
    )


def _pairs(analyses, name: str) -> list:
    """The ``name`` pair (inp or out) of every analysis that forms it."""
    pairs = []
    for a in analyses:
        try:
            pairs.append(getattr(a, name))
        except NumericsError:
            continue
    return pairs


def _by_dim(items, dim) -> list:
    """``items`` in groups of one ``dim(item)``, each in its first-seen order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(dim(item), []).append(item)
    return list(groups.values())


def _build_ratios(pairs) -> None:
    """Build G of every pair whose sigma is decomposed.  One stacked gamma
    call per dimension builds those of dense, full-rank sigma whose rsqrt is
    primed, where gamma cannot refuse; the others, a subalgebra's compressed
    outputs and singular sigma, take their own lazy read, and one that it
    refuses stays unbuilt."""
    stacked = []
    for pair in pairs:
        s = pair.s
        if "ratio" in vars(pair) or "eig" not in vars(s):
            continue
        if s.algebra is None and "rsqrt" in vars(s) and s.full_rank:
            stacked.append(pair)
            continue
        try:
            pair.ratio
        except NumericsError:
            continue
    for group in _by_dim(stacked, lambda pair: pair.s.dim):
        for pair, g in zip(group, gamma([p.s for p in group], [p.r for p in group])):
            vars(pair)["ratio"] = g


def _prime(analyses, plan, traces=()) -> None:
    """Decompose the analyses' spectra that ``plan`` names, level by level,
    by one stacked herm_eig call per matrix or block size, and form what the
    checks read off them, each by one array call per dimension over the
    block's pairs of that dimension: the Spectrum.STACKED roots that ``plan``
    names, G by gamma, sigma's weights in G's eigenbasis by eigen_weights,
    and tr[sigma f~(G)] of each (pair, f~) of ``traces`` by transpose_traces.
    Each is, bit for bit, what the trial's own read computes.

    No numerics error leaves here: a spectrum that cannot be built,
    decomposed or rooted, and a group whose roots or traces a function
    refuses, are left lazy, for the trial's own read to raise.  A spectrum
    is not built on an undecomposed base, which only the trial's read
    decomposes, and a trace is formed only on a full-rank pair.
    """
    pairs = {name: _pairs(analyses, name) for name in {name for level in plan for name, _, _ in level}}
    for level in plan:
        _build_ratios([pair for name, spec, _ in level if spec in BUILT_FROM for pair in pairs[name]])
        found: dict = {}  # id -> (spectrum, roots)
        for name, spec, roots in level:
            if spec in BUILT_FROM:
                spectra = [vars(pair)[spec] for pair in pairs[name] if spec in vars(pair)]
            else:
                spectra = [getattr(pair, spec) for pair in pairs[name]]
            for spectrum in spectra:
                found[id(spectrum)] = (spectrum, roots)
        decompose(spectrum for spectrum, _ in found.values())
        ready: dict = {}  # (root, dimension) -> the decomposed spectra that lack it
        for spectrum, roots in found.values():
            kept = vars(spectrum)
            if "eig" in kept:
                for root in roots:
                    if root not in kept:
                        ready.setdefault((root, spectrum.dim), []).append(spectrum)
        for (root, _), group in ready.items():
            try:
                matrices = Spectrum.STACKED[root](group)
            except NumericsError:
                continue
            for spectrum, m in zip(group, matrices):
                vars(spectrum)[root] = m
    weighed = [
        pair for name, spec, _ in plan[-1] if spec == "ratio" for pair in pairs[name]
        if "ratio" in vars(pair) and "eig" in vars(pair.ratio) and "ratio_weights" not in vars(pair)
    ]
    for group in _by_dim(weighed, lambda pair: pair.s.dim):
        weights = eigen_weights([pair.ratio for pair in group], [pair.s for pair in group])
        for pair, w in zip(group, weights):
            vars(pair)["ratio_weights"] = w
    wanted: dict = {}  # name -> the f~ traced on its pairs
    for name, f in traces:
        wanted.setdefault(name, []).append(f)
    groups: dict = {}  # (dimension, f~s) -> the full-rank pairs of those traces
    for name, fs in wanted.items():
        fs = tuple(fs)
        for pair in pairs.get(name, ()):
            if ("ratio_weights" in vars(pair) and pair.s.full_rank
                    and "eig" in vars(pair.r) and pair.r.full_rank):
                groups.setdefault((pair.s.dim, fs), []).append(pair)
    for (_, fs), group in groups.items():
        try:
            transpose_traces(group, fs)
        except NumericsError:
            continue


def evaluate(
    seed: int, trials: int, dims, kind: str, checks, n_rank_deficient: int = 0
) -> None:
    """Draw the trials in seed order, the last n_rank_deficient of them rank
    deficient, analyse each once and hand that analysis to every check.

    Trials come in blocks of up to BLOCK_TRIALS, each drawn by draw_block.
    Before any check runs on a block, ``_prime`` forms for the whole block
    what its checks declare: the spectra in ``reads`` and their roots, G and
    sigma's weights in G's eigenbasis, and the maximal f-divergence traces in
    ``traces``, by one array call per dimension each, to the values each
    trial alone computes, bit for bit.  Then the checks run trial by trial.
    An analysis lives for one block; the checks keep only rows and
    summaries.  A numerics error from drawing or checking a trial leaves
    with ``trial_seed`` set to that trial's seed, after the checks of every
    earlier trial ran.
    """
    plan = _priming_plan(frozenset(name for check in checks for name in check.reads))
    traces = list(dict.fromkeys(read for check in checks for read in check.traces()))
    total = trials + n_rank_deficient
    for start in range(0, total, BLOCK_TRIALS):
        drawn, error = draw_block(seed, start, min(start + BLOCK_TRIALS, total), dims, kind, trials)
        block = [(trial, InstanceAnalysis(trial.sigma, trial.rho, trial.target)) for trial in drawn]
        _prime([analysis for _, analysis in block], plan, traces)
        for trial, analysis in block:
            try:
                for check in checks:
                    check.add(trial, analysis)
            except NumericsError as exc:
                exc.trial_seed = trial.seed
                raise
        if error is not None:
            raise error


@dataclass
class Check:
    """One campaign's per-trial evaluation, with its summary and CSV rows.

    ``reads`` names the spectra of the trial's analysis that ``add`` reads
    on every trial: ``pair.spectrum``, with pair ``inp`` or ``out`` and the
    spectrum from SPECTRUM_LEVELS, or ``pair.spectrum.root`` for a
    Spectrum.STACKED root of it.  ``traces`` names the maximal f-divergence
    traces that ``add`` reads.  evaluate forms them for a block of trials at
    once; a spectrum no check declares is decomposed on its first read, if
    it has one.
    """

    reads = ()
    summary: CampaignSummary = field(default_factory=CampaignSummary, init=False)
    rows: list[Row] = field(default_factory=list, init=False)

    def traces(self) -> tuple:
        """(pair, f~) of each tr[sigma f~(G)] that ``add`` reads through
        maximal_f on every trial, with f~ a family's ``f_transpose``;
        evaluate forms them for a block of trials at once."""
        return ()

    def add(self, trial: Trial, a: InstanceAnalysis) -> None:
        raise NotImplementedError

    def fail(self, seed: int, message: str) -> None:
        """Record a violation on the instance drawn from ``seed``."""
        self.summary.violations.append((seed, message))


# what the BS gap, both bound forms and their residuals read
BOUND_READS = ("inp.r", "out.r", "inp.s.sqrt", "out.s.sqrt", "out.s.rsqrt", "out.s.pinv",
               "inp.ratio.sqrt", "out.ratio.sqrt")


@dataclass
class DpiCheck(Check):
    """BS-entropy data processing: gap >= -tol_abs."""

    reads = ("inp.r", "out.r", "inp.ratio", "out.ratio")
    tol_abs: float

    def add(self, trial, a):
        gap = a.gap_bs
        self.summary.total += 1
        self.summary.record_slack(gap)
        if gap < -self.tol_abs:
            self.fail(trial.seed, f"dpi gap {gap:.3e} below -{self.tol_abs:.0e}")
        self.rows.append(Row(trial.seed, trial.d, "bs_dpi", gap, 0.0, 0.0, True, gap))


@dataclass
class BoundCheck(Check):
    """Strengthened BS bound, both forms: under a conditional expectation, or
    through the Stinespring path for a CPTP map.

    Every trial takes the gap ``gap_bs``; a rank-deficient trial's gap lives
    on the common support and its rows are tagged ``_singular``.  With
    ``include_standard_row`` each conditional-expectation trial also emits an
    informational row for the older relative-entropy bound (trace-norm Petz
    residual); those rows are never counted as violations.
    """

    reads = BOUND_READS
    family: str
    slack_rel: float
    include_standard_row: bool = False

    def add(self, trial, a):
        report = bs_bound_condexp(a) if a.is_condexp else bs_bound_channel(a)
        family = self.family + ("_singular" if trial.deficient else "")
        norm = 1.0 + max(report.gap, 0.0)
        slack = report.slack
        self.summary.total += 1
        self.rows.append(
            Row(trial.seed, trial.d, family, report.gap, report.rhs_k, report.rhs_l,
                report.precondition_ok, slack)
        )
        if report.precondition_ok:
            self.summary.record_slack(slack / norm)
            if slack < -self.slack_rel * norm:
                self.fail(trial.seed,
                          f"{family} slack {slack:.3e} below -{self.slack_rel:.0e}*(1+gap)")
        if self.include_standard_row:
            self.rows.append(_standard_dpi_row(trial, a))


@dataclass
class RegularizedOracleCheck(Check):
    """The epsilon-regularized Richardson route as the oracle of singular gaps.

    On each rank-deficient trial both extrapolation increments must stay
    below ``increment_tol`` and the extrapolated gap must lie within
    ``gap_tol`` of the common-support gap ``gap_bs``; full-rank trials are
    skipped.  The largest increment and disagreement are kept.
    """

    increment_tol: float
    gap_tol: float
    max_increment: float = field(default=0.0, init=False)
    max_disagreement: float = field(default=0.0, init=False)

    def add(self, trial, a):
        if not trial.deficient:
            return
        top, bottom = (regularized_divergence(p, xlogx(), "maximal") for p in (a.inp, a.out))
        increment = max(top.increment, bottom.increment)
        disagreement = abs(top.value - bottom.value - a.gap_bs)
        self.summary.total += 1
        self.max_increment = max(self.max_increment, increment)
        self.max_disagreement = max(self.max_disagreement, disagreement)
        if increment > self.increment_tol:
            self.fail(trial.seed,
                      f"regularized increment {increment:.3e} above {self.increment_tol:.0e}")
        if disagreement > self.gap_tol:
            self.fail(trial.seed,
                      f"regularized gap {disagreement:.3e} off gap_bs, above {self.gap_tol:.0e}")


@dataclass
class MaxfCheck(Check):
    """Maximal f-divergence bounds for every family with measure constants.

    Slack is asserted only on instances that satisfy the not-too-far
    precondition; ``pass_rates`` records how often each family did.
    """

    reads = BOUND_READS
    families: tuple
    slack_abs: float

    def __post_init__(self):
        self.fams = [family_from_tag(t) if isinstance(t, str) else t for t in self.families]
        self.passed = {fam.tag: 0 for fam in self.fams}
        self.trials = 0

    def traces(self):
        return tuple((pair, fam.f_transpose) for fam in self.fams for pair in ("inp", "out"))

    def add(self, trial, a):
        self.trials += 1
        for fam in self.fams:
            report = maxf_bound(a, fam)
            slack = report.slack
            self.summary.total += 1
            self.rows.append(
                Row(trial.seed, trial.d, fam.tag, report.gap, report.rhs_k, report.rhs_l,
                    report.precondition_ok, slack)
            )
            if report.precondition_ok:
                self.passed[fam.tag] += 1
                self.summary.record_slack(slack)
                if slack < -self.slack_abs:
                    self.fail(trial.seed,
                              f"{fam.tag} slack {slack:.3e} below -{self.slack_abs:.0e}")

    @property
    def pass_rates(self) -> dict:
        return {tag: count / max(1, self.trials) for tag, count in self.passed.items()}


@dataclass
class EqualityCheck(Check):
    """Equality certification on constructed and random instances.

    Trial i < ``constructed`` also certifies the constructed pinching-fixed
    pair i, drawn from ``derive_seed(seed, CONSTRUCTED + i)``: its gap and every
    residual must vanish, and ``hits`` counts those that do.  Each random
    trial is checked in both implication directions (a tiny recovery residual
    forces a tiny gap and conversely); ``co_positive`` counts the trials whose
    gap and BS-recovery residual are both positive.
    """

    reads = BOUND_READS + ("inp.s.pinv", "inp.r.sqrt", "inp.r.pinv", "out.r.rsqrt", "out.r.pinv")
    seed: int
    constructed: int
    gap_tol: float
    residual_tol: float
    hits: int = field(default=0, init=False)
    co_positive: int = field(default=0, init=False)

    def add(self, trial, a):
        if trial.index < self.constructed:
            sub = derive_seed(self.seed, CONSTRUCTED + trial.index)
            sigma, rho, pinching = pinching_fixed_pair(trial.d, sub)
            report = equality_residuals(InstanceAnalysis(sigma, rho, pinching.as_kraus()))
            self.summary.total += 1
            tol = self.residual_tol
            checks = {
                "gap": abs(report.gap_bs) <= self.gap_tol,
                "eq2": report.residual_eq2 <= tol,
                "eq3": report.residual_eq3 <= tol,
                "bs_recovery": report.residual_bs_recovery <= tol,
                "petz": report.residual_petz <= tol,
                "renyi2": abs(report.renyi2_gap) <= tol,
            }
            if all(checks.values()):
                self.hits += 1
            else:
                bad = ",".join(k for k, v in checks.items() if not v)
                self.fail(sub, f"constructed pair fails: {bad}")
        report = equality_residuals(a)
        self.summary.total += 1
        if report.residual_eq2 <= 1e-12 and report.gap_bs > 1e-8:
            self.fail(trial.seed, f"residual_eq2 tiny but gap {report.gap_bs:.3e}")
        if abs(report.gap_bs) <= 1e-12 and report.residual_eq2 > 1e-6:
            self.fail(trial.seed, f"gap tiny but residual_eq2 {report.residual_eq2:.3e}")
        if report.gap_bs > 1e-10 and report.residual_bs_recovery > 1e-10:
            self.co_positive += 1


@dataclass
class OrderingCheck(Check):
    """Standard <= maximal, commuting reductions, and the degree-2 identity."""

    reads = ("inp.s", "inp.r", "inp.ratio")
    fams = (xlogx(), neg_power(0.5))
    square = square_family()

    def traces(self):
        return tuple(("inp", fam.f_transpose) for fam in (*self.fams, self.square))

    def add(self, trial, a):
        sub, d = trial.seed, trial.d
        self.summary.total += 1
        for fam in self.fams:
            s_val = standard_f(a.inp, fam)
            m_val = maximal_f(a.inp, fam)
            if s_val > m_val + 1e-9:
                self.fail(sub, f"ordering fails for {fam.tag}: {s_val} > {m_val}")
        # D <= D_BS, and D_BS and the maximal xlogx, both read off G, against
        # tr[rho f(core)] on the core rho^{-1/2} sigma rho^{-1/2}: on both pairs
        # of 200 trials at seeds 20190424, 7 and 20240801 they were within
        # 1.3e-11 and 1.6e-12 of it, and max(D - D_BS) = -5.1e-5
        d_rel, d_bs = relative_entropy(a.inp), bs_entropy(a.inp)
        d_max = maximal_f(a.inp, self.fams[0])
        core = gamma(a.inp.r, a.inp.s)
        d_core = core.trace_fn(self.fams[0].f, core.weights(a.inp.r))
        if d_rel > d_bs + 1e-9:
            self.fail(sub, f"relative entropy {d_rel} > D_BS {d_bs}")
        for label, value in (("D_BS", d_bs), ("maximal xlogx", d_max)):
            if abs(value - d_core) > 1e-9:
                self.fail(sub, f"{label} off the core's xlogx by {value - d_core:.3e}")
        # degree-2 identity at the absolute tolerance needs bounded condition
        # numbers (the value tr[s^2 r^-1] is unbounded); unconditioned pairs
        # are still checked at machine-relative level
        s_sq = standard_f(a.inp, self.square)
        m_sq = maximal_f(a.inp, self.square)
        if abs(s_sq - m_sq) > 1e-11 * max(1.0, abs(s_sq)):
            self.fail(sub, f"degree-2 identity off relative scale by {s_sq - m_sq:.3e}")
        conditioned = StatePair(*sample_conditioned_pair(d, sub))
        s_sq = standard_f(conditioned, self.square)
        m_sq = maximal_f(conditioned, self.square)
        if abs(s_sq - m_sq) > 1e-10:
            self.fail(sub, f"degree-2 identity off by {s_sq - m_sq:.3e}")

        # commuting reduction on a shared eigenbasis
        rng = np.random.Generator(np.random.Philox(derive_seed(sub, COMMUTING)))
        u = _haar_isometry(ginibre(rng, d, d)[None])[0]
        lam = rng.uniform(0.1, 1.0, size=d)
        lam /= lam.sum()
        mu = rng.uniform(0.1, 1.0, size=d)
        mu /= mu.sum()
        pair = StatePair((u * lam) @ u.conj().T, (u * mu) @ u.conj().T)
        classical = float(np.sum(mu * (lam / mu) * np.log(lam / mu)))
        fam = xlogx()
        for label, value in (
            ("standard", standard_f(pair, fam)),
            ("maximal", maximal_f(pair, fam)),
        ):
            if abs(value - classical) > 1e-10:
                self.fail(sub, f"commuting {label} off classical by {value - classical:.3e}")


@dataclass
class OracleCheck(Check):
    """Quadrature agreement for the BS-entropy and the scaling identity."""

    reads = ("inp.s.sqrt", "inp.r", "inp.ratio")
    quad_tol: float

    def add(self, trial, a):
        spectral = bs_entropy(a.inp)
        quad = bs_entropy_quadrature(a.inp, tol=self.quad_tol / 10.0)
        self.summary.total += 1
        if abs(spectral - quad) > self.quad_tol:
            self.fail(trial.seed, f"quadrature disagrees by {spectral - quad:.3e}")
        for x in (0.5, 2.0):
            for y in (0.5, 2.0):
                scaled = bs_entropy(StatePair(x * trial.sigma.mat, y * trial.rho.mat))
                expected = x * spectral + x * math.log(x / y)
                if abs(scaled - expected) > 1e-9:
                    self.fail(trial.seed, f"scaling identity off at a={x}, b={y}")


@dataclass
class StructuralCheck(Check):
    """Stinespring reconstruction, isometry, contraction, norm monotonicity,
    and the resolvent integrand inequality on a t grid."""

    t_grid = (0.01, 0.1, 1.0, 10.0, 100.0)

    def add(self, trial, a):
        sub, d, channel = trial.seed, trial.d, trial.target
        dilation = channel.stinespring()
        omega = random_density(d, d, derive_seed(sub, OMEGA)).mat
        recon = schatten_norm(dilation.apply(omega) - channel.apply(omega), 2)
        isometry = dilation.defect
        self.summary.total += 1
        if recon > 1e-12:
            self.fail(sub, f"stinespring reconstruction {recon:.3e}")
        if isometry > 1e-10:
            self.fail(sub, f"V*V residual {isometry:.3e}")

        if trial.index % 4 == 0:
            expectation = sample_condexp(0, "partial_trace", trial.index)
        else:
            expectation = sample_condexp(d, "pinching", sub)
        de = expectation.dim
        analysis = InstanceAnalysis(*sample_pair(de, derive_seed(sub, SIDE_PAIR)), expectation)
        g_full, g_proj = analysis.gamma_sup, analysis.out.ratio.lam_max
        if g_proj > g_full + 1e-10:
            self.fail(sub, f"norm monotonicity {g_proj:.6f} > {g_full:.6f}")

        u = analysis.contraction
        ce_matrix = superop_matrix(expectation.apply, de)
        uu_matrix = superop_matrix(lambda x: u.adjoint(u.apply(x)), de)
        if float(np.abs(uu_matrix - ce_matrix).max()) > 1e-9:
            self.fail(sub, "U*U deviates from the expectation")

        for t in self.t_grid:
            lhs, rhs = lemma_integrand_check(analysis, t)
            if lhs - rhs < -1e-9:
                self.fail(sub, f"integrand inequality fails at t={t}: {lhs - rhs:.3e}")


def _standard_dpi_row(trial: Trial, a: InstanceAnalysis) -> Row:
    """Informational row: relative-entropy gap vs the trace-norm Petz bound,
    read off the trial's analysis."""
    gap = relative_entropy(a.inp) - relative_entropy(a.out)
    recovered = petz_recovery(a.target, a.inp.s, a.out.s, a.out.rho)
    residual = schatten_norm(recovered - a.inp.rho, 1)
    rho_sup = a.inp.r.lam_max
    sigma_inv_sup = 1.0 / a.inp.s.min_positive
    rhs = (math.pi / 8.0) ** 4 * (rho_sup * sigma_inv_sup) ** (-2.0) * residual**4
    return Row(trial.seed, trial.d, "std_relent_petz", gap, rhs, 0.0, True, gap - rhs)


BATTERY_DIMS = (2, 3, 4)


def _battery(seed: int, trials: int, kind: str, checks, n_rank_deficient: int = 0) -> str:
    """Run ``evaluate`` over BATTERY_DIMS for a criterion.

    Returns "" when every trial was evaluated.  A numerics error stops the
    run; the checks keep what they gathered before it, and the returned text,
    appended to the criterion's line, names the error and the seed of the
    trial that raised it.
    """
    try:
        evaluate(seed, trials, BATTERY_DIMS, kind, checks, n_rank_deficient)
    except NumericsError as exc:
        return f"; {type(exc).__name__} on trial seed {exc.trial_seed}: {exc}"
    return ""


def _dpi(seed, counts, tol):
    check = DpiCheck(tol["dpi_abs"])
    error = _battery(seed, counts[0], "random_cptp", [check])
    return check.summary.ok and not error, f"min gap {check.summary.min_slack:.3e}{error}"


def _condexp(seed, counts, tol):
    checks = []
    error = ""
    # one count per kind: subalgebras are not drawn here yet (ROADMAP item 10)
    for kind, trials in zip(("pinching", "partial_trace"), counts, strict=True):
        checks.append(BoundCheck(f"bs_{kind}", tol["slack_rel"]))
        error = _battery(seed, trials, kind, checks[-1:])
        if error:
            break
    min_slack = min(c.summary.min_slack for c in checks)
    ok = all(c.summary.ok for c in checks) and not error
    return ok, f"min slack {min_slack:.3e}{error}"


def _channel(seed, counts, tol):
    trials, singular = counts
    bound = BoundCheck("bs_channel", tol["slack_rel"])
    oracle = RegularizedOracleCheck(tol["increment"], tol["regularized_gap"])
    error = _battery(seed, trials, "random_cptp", [bound, oracle], singular)
    ok = bound.summary.ok and oracle.summary.ok and oracle.summary.total == singular
    violations = len(bound.summary.violations) + len(oracle.summary.violations)
    return ok and not error, (
        f"min slack {bound.summary.min_slack:.3e}, {bound.summary.total} instances, "
        f"{oracle.summary.total} singular instances, {violations} violations, "
        f"max increment {oracle.max_increment:.1e}, "
        f"max gap disagreement {oracle.max_disagreement:.1e}{error}"
    )


def _maxf(seed, counts, tol):
    trials, families = counts
    check = MaxfCheck(families, tol["slack_abs"])
    error = _battery(seed, trials, "pinching", [check])
    # the prefactor and measure constant of the xlogx and beta = 1/2 bounds
    constants_ok = (
        abs(k_alpha(0.0) - (math.pi / 4.0) ** 4) <= 1e-12
        and abs(neg_power(0.5).measure_c - math.pi) <= 1e-12
    )
    rate_text = ", ".join(f"{tag}={rate:.3f}" for tag, rate in check.pass_rates.items())
    ok = check.summary.ok and constants_ok and not error
    return ok, f"precondition pass-rates: {rate_text}{error}"


def _equality(seed, counts, tol):
    constructed, trials = counts
    check = EqualityCheck(seed, constructed, tol["equality_gap"], tol["equality_residual"])
    error = _battery(seed, trials, "random_cptp", [check])
    ok = check.summary.ok and check.hits == constructed and not error
    return ok, f"hits {check.hits}/{constructed}, co-positive {check.co_positive}/{trials}{error}"


def _one(make_check, seed, counts, tol):
    """A criterion that one check decides over random CPTP trials."""
    check = make_check(tol)
    error = _battery(seed, counts[0], "random_cptp", [check])
    return check.summary.ok and not error, f"{check.summary.total} instances{error}"


@dataclass(frozen=True)
class Criterion:
    """One criterion of the acceptance battery.

    ``full`` holds the counts of the acceptance run and ``reduced`` those of
    ``selftest``, one per part (the maximal-f criterion counts trials and
    families).  ``check(seed, counts, tolerances)`` draws and checks the
    instances over BATTERY_DIMS and returns (ok, detail).
    """

    number: int
    label: str
    full: tuple
    reduced: tuple
    tolerances: dict
    budget_s: float
    check: Callable[[int, tuple, dict], tuple[bool, str]]

    def run(self, seed: int, reduced: bool = False) -> tuple[bool, str]:
        """(ok, its line); a numerics error in a trial or running over budget
        fails, and the line keeps the counts gathered up to the error."""
        started = time.perf_counter()
        ok, detail = self.check(seed, self.reduced if reduced else self.full, self.tolerances)
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < self.budget_s
        status = "PASS" if ok else "FAIL"
        return ok, f"criterion {self.number} {self.label}: {status} ({detail}, {elapsed:.1f} s)"


MAXF_FAMILIES = ("xlogx", "neg_power:0.25", "neg_power:0.5", "neg_power:0.75")

# number, label, full counts, reduced counts, tolerances, budget in s, check
CRITERIA = (
    Criterion(1, "dpi campaign", (500,), (60,), {"dpi_abs": 1e-9}, 30.0, _dpi),
    Criterion(2, "condexp bounds", (500, 200), (60, 24), {"slack_rel": 1e-8}, 60.0, _condexp),
    # regularized_gap: the Richardson and common-support gaps agreed within
    # 4.3e-12 over the 100 singular trials of seeds 20240801, 7 and 20190424
    # (1.9e-12 through the core); 1e-9 stands until ROADMAP item 4 ties each
    # tolerance to an error budget
    Criterion(3, "channel bounds", (500, 100), (60, 12),
              {"slack_rel": 1e-8, "increment": 1e-6, "regularized_gap": 1e-9}, 60.0, _channel),
    Criterion(4, "maxf bounds", (500, MAXF_FAMILIES), (60, ("xlogx", "neg_power:0.5")),
              {"slack_abs": 1e-8}, 30.0, _maxf),
    Criterion(5, "equality certification", (50, 500), (10, 60),
              {"equality_gap": 1e-9, "equality_residual": 1e-7}, 60.0, _equality),
    Criterion(6, "ordering and reductions", (200,), (40,), {}, 30.0,
              partial(_one, lambda tol: OrderingCheck())),
    # quadrature: the oracle at tol 1e-10 agreed with bs_entropy within 6.8e-12
    # over the full count at seeds 20190424 and 7
    Criterion(7, "oracle agreement", (50,), (8,), {"quadrature": 1e-9}, 30.0,
              partial(_one, lambda tol: OracleCheck(tol["quadrature"]))),
    Criterion(8, "structural", (200,), (25,), {}, 30.0,
              partial(_one, lambda tol: StructuralCheck())),
)

# budget of the whole battery at the reduced counts, ``bsdpi selftest``
SELFTEST_BUDGET_S = 120.0

# every tolerance of the battery by name; ``bounds`` defaults to these values
DEFAULT_TOLERANCES = {key: value for c in CRITERIA for key, value in c.tolerances.items()}


def _campaign(check: Check, seed: int, trials: int, dims, kind: str, n_rank_deficient: int = 0):
    evaluate(seed, trials, dims, kind, [check], n_rank_deficient)
    return check.summary, check.rows


def run_dpi_campaign(seed: int, trials: int, dims, tol_abs: float = DEFAULT_TOLERANCES["dpi_abs"]):
    """DpiCheck over random CPTP triples: (summary, rows)."""
    return _campaign(DpiCheck(tol_abs), seed, trials, dims, "random_cptp")


def run_condexp_bound_campaign(
    seed: int,
    trials: int,
    dims,
    kind: str = "pinching",
    slack_rel: float = DEFAULT_TOLERANCES["slack_rel"],
):
    """BoundCheck under conditional expectations of one kind: (summary, rows)."""
    if kind not in CONDEXP_KINDS:
        raise ConfigError(f"unknown conditional-expectation kind {kind!r}")
    return _campaign(BoundCheck(f"bs_{kind}", slack_rel), seed, trials, dims, kind)


def run_channel_bound_campaign(
    seed: int,
    trials: int,
    dims,
    n_rank_deficient: int = 0,
    slack_rel: float = DEFAULT_TOLERANCES["slack_rel"],
):
    """BoundCheck over random CPTP maps, the final n_rank_deficient trials on
    equal-support singular pairs: (summary, rows)."""
    check = BoundCheck("bs_channel", slack_rel)
    return _campaign(check, seed, trials, dims, "random_cptp", n_rank_deficient)


def run_maxf_campaign(
    seed: int,
    trials: int,
    dims,
    families=MAXF_FAMILIES,
    kind: str = "pinching",
    slack_abs: float = DEFAULT_TOLERANCES["slack_abs"],
):
    """MaxfCheck over every family: (summary, rows, pass_rates), where
    pass_rates maps a family tag to the fraction of instances satisfying the
    not-too-far precondition."""
    check = MaxfCheck(families, slack_abs)
    return (*_campaign(check, seed, trials, dims, kind), check.pass_rates)
