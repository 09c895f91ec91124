"""Randomized verification campaigns over states, channels and bounds.

Each campaign draws deterministic instances from seed-derived Philox streams,
evaluates a family of inequalities or residuals, and returns a CampaignSummary
plus CSV-ready rows.  Instances are generated and checked in seed order, so a
fixed configuration always produces byte-identical artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    InstanceAnalysis,
    bs_bound_channel,
    bs_bound_condexp,
    lemma_integrand_check,
    maxf_bound,
)
from .channels import (
    ConditionalExpectation,
    KrausChannel,
    PartialTraceFactor,
    build_contraction,
    random_cptp,
    random_pinching,
    superop_matrix,
    _haar_isometry,
)
from .divergences import (
    bs_entropy,
    bs_entropy_quadrature,
    family_from_tag,
    maximal_f,
    neg_power,
    square_family,
    standard_f,
    xlogx,
)
from .errors import ConfigError
from .linalg import schatten_norm
from .recovery import equality_residuals, pinching_fixed_pair
from .states import DensityMatrix, gamma, random_density

# (d_keep, s) factorizations used for partial-trace conditional expectations
PARTIAL_TRACE_SHAPES = ((2, 2), (3, 2), (2, 3))

CONDEXP_KINDS = ("pinching", "partial_trace")

CSV_HEADER = "seed,d,family,gap,rhs_k,rhs_l,precondition_ok,slack"

# one shared tolerance record: every campaign reads its default here and the
# CLI config may override any entry per run
DEFAULT_TOLERANCES = {
    "dpi_abs": 1e-9,        # absolute floor for the raw DPI gap
    "slack_rel": 1e-8,      # bound slack, relative to 1 + gap
    "slack_abs": 1e-8,      # bound slack for the measure-family evaluators
    "increment": 1e-6,      # regularized-route extrapolation increment
    "equality_gap": 1e-9,   # gap on constructed equality instances
    "equality_residual": 1e-7,
    "quadrature": 1e-6,     # spectral vs resolvent-integral agreement
}


@dataclass
class CampaignSummary:
    total: int = 0
    violations: list = field(default_factory=list)
    min_slack: float = math.inf
    equality_hits: int = 0

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


def write_csv(path: str, rows: list[Row]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.render() + "\n")


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit sub-seed from a tuple of indices."""
    ss = np.random.SeedSequence(list(parts))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_pair(dim: int, seed: int) -> tuple[DensityMatrix, DensityMatrix]:
    return (
        random_density(dim, dim, derive_seed(seed, 0)),
        random_density(dim, dim, derive_seed(seed, 1)),
    )


def sample_conditioned_pair(
    dim: int, seed: int, min_eig: float = 0.02
) -> tuple[DensityMatrix, DensityMatrix]:
    """Full-rank Ginibre pair with both smallest eigenvalues >= min_eig.

    Identity checks with absolute tolerances need bounded condition numbers;
    rejection stays inside seed-indexed streams, so sampling is deterministic.
    """

    def _draw(role: int) -> DensityMatrix:
        for attempt in range(64):
            state = random_density(dim, dim, derive_seed(seed, role, attempt))
            if float(np.linalg.eigvalsh(state.mat)[0]) >= min_eig:
                return state
        raise RuntimeError("conditioned-state rejection budget exhausted")

    return _draw(0), _draw(1)


def sample_equal_support_pair(
    dim: int, rank: int, seed: int, min_block_eig: float = 0.02
) -> tuple[DensityMatrix, DensityMatrix]:
    """Rank-deficient pair with exactly equal supports.

    Blocks are Ginibre states on a shared Haar-random subspace; blocks with a
    tiny smallest eigenvalue are resampled so the regularized route converges
    at the documented rate.
    """
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 2)))
    basis = _haar_isometry(dim, dim, rng)[:, :rank]

    def _block() -> np.ndarray:
        while True:
            g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal(
                (rank, rank)
            )
            a = g @ g.conj().T
            a = a / float(np.trace(a).real)
            if float(np.linalg.eigvalsh(a)[0]) >= min_block_eig:
                return a

    def _embed(a: np.ndarray) -> DensityMatrix:
        m = basis @ a @ basis.conj().T
        m = 0.5 * (m + m.conj().T)
        return DensityMatrix(mat=m, dim=dim, rank=rank)

    return _embed(_block()), _embed(_block())


def sample_condexp(dim_index: int, kind: str, seed: int) -> ConditionalExpectation:
    if kind == "pinching":
        return random_pinching(dim_index, derive_seed(seed, 3))
    if kind == "partial_trace":
        d_keep, s = PARTIAL_TRACE_SHAPES[seed % len(PARTIAL_TRACE_SHAPES)]
        return PartialTraceFactor(d_keep, s)
    raise ConfigError(f"unknown conditional-expectation kind {kind!r}")


def sample_channel(dim: int, seed: int, num_kraus: int | None = None) -> KrausChannel:
    if num_kraus is None:
        rng = np.random.Generator(np.random.Philox(derive_seed(seed, 4)))
        num_kraus = int(rng.integers(2, 4))
    return random_cptp(dim, dim, num_kraus, derive_seed(seed, 5))


def _pick_dim(dims, index: int) -> int:
    return dims[index % len(dims)]


@dataclass
class Trial:
    """One drawn instance of a bound campaign."""

    seed: int  # the trial's sub-seed, reported in rows and violations
    d: int
    sigma: DensityMatrix
    rho: DensityMatrix
    target: KrausChannel | ConditionalExpectation
    deficient: bool = False  # an equal-support rank-deficient pair


def draw_trial(seed: int, i: int, dims, kind: str, deficient: bool = False) -> Trial:
    """Trial i of a campaign over ``kind`` targets.

    Every campaign draws trial i from the same sub-seed, so the DPI, bound
    and maximal-f campaigns of one seed see the same instances.
    """
    sub = derive_seed(seed, i)
    if kind == "partial_trace":
        target = sample_condexp(0, kind, i)
        d = target.dim
    elif kind == "pinching":
        d = _pick_dim(dims, i)
        target = sample_condexp(d, kind, sub)
    elif kind == "random_cptp":
        d = _pick_dim(dims, i)
        target = sample_channel(d, sub)
    else:
        raise ConfigError(f"unknown channel kind {kind!r}")
    if deficient:
        sigma, rho = sample_equal_support_pair(d, max(1, d - 1), sub)
    else:
        sigma, rho = sample_pair(d, sub)
    return Trial(sub, d, sigma, rho, target, deficient)


def evaluate(
    seed: int, trials: int, dims, kind: str, checks, n_rank_deficient: int = 0
) -> None:
    """Draw the trials in seed order, the last n_rank_deficient of them rank
    deficient, analyse each once and hand that analysis to every check.

    An analysis lives for one trial; the checks keep only rows and summaries.
    """
    for i in range(trials + n_rank_deficient):
        trial = draw_trial(seed, i, dims, kind, deficient=i >= trials)
        analysis = InstanceAnalysis(trial.sigma, trial.rho, trial.target)
        for check in checks:
            check.add(trial, analysis)


class Check:
    """One campaign's per-trial evaluation, with its summary and CSV rows."""

    def __init__(self):
        self.summary = CampaignSummary()
        self.rows: list[Row] = []

    def add(self, trial: Trial, a: InstanceAnalysis) -> None:
        raise NotImplementedError


class DpiCheck(Check):
    """BS-entropy data processing: gap >= -tol_abs."""

    def __init__(self, tol_abs: float = DEFAULT_TOLERANCES["dpi_abs"]):
        super().__init__()
        self.tol_abs = tol_abs

    def add(self, trial, a):
        gap = a.gap_bs
        self.summary.total += 1
        self.summary.record_slack(gap)
        if gap < -self.tol_abs:
            self.summary.violations.append(
                (trial.seed, f"dpi gap {gap:.3e} below -{self.tol_abs:.0e}")
            )
        self.rows.append(Row(trial.seed, trial.d, "bs_dpi", gap, 0.0, 0.0, True, gap))


class BoundCheck(Check):
    """Strengthened BS bound, both forms: under a conditional expectation, or
    through the Stinespring path for a CPTP map.

    Rank-deficient trials take the epsilon-regularized gap; their
    extrapolation increments must stay below increment_tol.  With
    ``include_standard_row`` each conditional-expectation trial also emits an
    informational row for the older relative-entropy bound (trace-norm Petz
    residual); those rows are never counted as violations.
    """

    def __init__(
        self,
        family: str,
        slack_rel: float = DEFAULT_TOLERANCES["slack_rel"],
        increment_tol: float = DEFAULT_TOLERANCES["increment"],
        include_standard_row: bool = False,
    ):
        super().__init__()
        self.family = family
        self.slack_rel = slack_rel
        self.increment_tol = increment_tol
        self.include_standard_row = include_standard_row

    def add(self, trial, a):
        report = bs_bound_condexp(a) if a.is_condexp else bs_bound_channel(a)
        family = self.family + ("_singular" if trial.deficient else "")
        norm = 1.0 + max(report.gap, 0.0)
        slack_min = min(report.slack_k, report.slack_l)
        summary = self.summary
        summary.total += 1
        self.rows.append(
            Row(trial.seed, trial.d, family, report.gap, report.rhs_k, report.rhs_l,
                report.precondition_ok, report.slack)
        )
        if report.precondition_ok:
            summary.record_slack(slack_min / norm)
            if slack_min < -self.slack_rel * norm:
                summary.violations.append(
                    (trial.seed,
                     f"{family} slack {slack_min:.3e} below -{self.slack_rel:.0e}*(1+gap)")
                )
        if trial.deficient:
            inc = max(
                report.constants.get("increment_top", 0.0),
                report.constants.get("increment_bottom", 0.0),
            )
            if inc > self.increment_tol:
                summary.violations.append(
                    (trial.seed,
                     f"regularized increment {inc:.3e} above {self.increment_tol:.0e}")
                )
        if self.include_standard_row:
            self.rows.append(
                _standard_dpi_row(trial.sigma, trial.rho, trial.target, trial.seed, trial.d)
            )


class MaxfCheck(Check):
    """Maximal f-divergence bounds for every family with measure constants.

    Slack is asserted only on instances that satisfy the not-too-far
    precondition; ``pass_rates`` records how often each family did.
    """

    def __init__(self, families, slack_abs: float = DEFAULT_TOLERANCES["slack_abs"]):
        super().__init__()
        self.fams = [family_from_tag(t) if isinstance(t, str) else t for t in families]
        self.slack_abs = slack_abs
        self.trials = 0
        self.passed = {fam.tag: 0 for fam in self.fams}

    def add(self, trial, a):
        self.trials += 1
        for fam in self.fams:
            report = maxf_bound(a, None, None, fam)
            self.summary.total += 1
            self.rows.append(
                Row(trial.seed, trial.d, fam.tag, report.gap, report.rhs_k, report.rhs_l,
                    report.precondition_ok, report.slack)
            )
            if report.precondition_ok:
                self.passed[fam.tag] += 1
                slack_min = min(report.slack_k, report.slack_l)
                self.summary.record_slack(slack_min)
                if slack_min < -self.slack_abs:
                    self.summary.violations.append(
                        (trial.seed,
                         f"{fam.tag} slack {slack_min:.3e} below -{self.slack_abs:.0e}")
                    )

    @property
    def pass_rates(self) -> dict:
        return {tag: count / max(1, self.trials) for tag, count in self.passed.items()}


def run_dpi_campaign(seed: int, trials: int, dims, tol_abs: float = DEFAULT_TOLERANCES["dpi_abs"]):
    """BS-entropy data processing: gap >= -tol_abs for random CPTP triples."""
    check = DpiCheck(tol_abs)
    evaluate(seed, trials, dims, "random_cptp", [check])
    return check.summary, check.rows


def run_condexp_bound_campaign(
    seed: int,
    trials: int,
    dims,
    kind: str = "pinching",
    slack_rel: float = DEFAULT_TOLERANCES["slack_rel"],
    include_standard_row: bool = False,
):
    """Strengthened BS bound under conditional expectations, both forms.

    With ``include_standard_row`` each trial also emits an informational row
    for the older relative-entropy bound (trace-norm Petz residual); those
    rows are reported but never counted as violations.
    """
    if kind not in CONDEXP_KINDS:
        raise ConfigError(f"unknown conditional-expectation kind {kind!r}")
    check = BoundCheck(f"bs_{kind}", slack_rel, include_standard_row=include_standard_row)
    evaluate(seed, trials, dims, kind, [check])
    return check.summary, check.rows


def _standard_dpi_row(sigma, rho, expectation, sub: int, d: int) -> Row:
    """Informational row: relative-entropy gap vs the trace-norm Petz bound."""
    from .divergences import relative_entropy
    from .linalg import schatten_norm as norm
    from .recovery import petz_recovery

    channel = expectation.as_kraus()
    sigma_n = expectation.apply(sigma.mat)
    rho_n = expectation.apply(rho.mat)
    gap = relative_entropy(sigma, rho) - relative_entropy(sigma_n, rho_n)
    residual = norm(petz_recovery(channel, sigma, rho_n) - rho.mat, 1)
    rho_sup = norm(rho.mat, np.inf)
    sigma_inv_sup = 1.0 / float(np.linalg.eigvalsh(sigma.mat)[0])
    rhs = (math.pi / 8.0) ** 4 * (rho_sup * sigma_inv_sup) ** (-2.0) * residual**4
    return Row(sub, d, "std_relent_petz", gap, rhs, 0.0, True, gap - rhs)


def run_channel_bound_campaign(
    seed: int,
    trials: int,
    dims,
    n_rank_deficient: int = 0,
    slack_rel: float = DEFAULT_TOLERANCES["slack_rel"],
    increment_tol: float = DEFAULT_TOLERANCES["increment"],
):
    """Strengthened BS bound through the Stinespring path for CPTP maps.

    The final n_rank_deficient trials use equal-support singular pairs and the
    epsilon-regularized gap; their extrapolation increments must stay below
    increment_tol.
    """
    check = BoundCheck("bs_channel", slack_rel, increment_tol)
    evaluate(seed, trials, dims, "random_cptp", [check], n_rank_deficient)
    return check.summary, check.rows


def run_maxf_campaign(
    seed: int,
    trials: int,
    dims,
    families=("xlogx", "neg_power:0.25", "neg_power:0.5", "neg_power:0.75"),
    kind: str = "pinching",
    slack_abs: float = DEFAULT_TOLERANCES["slack_abs"],
):
    """Maximal f-divergence bounds for every family with measure constants.

    Returns (summary, rows, pass_rates): pass_rates maps a family tag to the
    fraction of instances satisfying the not-too-far precondition; slack is
    only asserted on those.
    """
    check = MaxfCheck(families, slack_abs)
    evaluate(seed, trials, dims, kind, [check])
    return check.summary, check.rows, check.pass_rates


def run_equality_campaign(
    seed: int,
    constructed: int,
    random_trials: int,
    dims,
    gap_tol: float = DEFAULT_TOLERANCES["equality_gap"],
    residual_tol: float = DEFAULT_TOLERANCES["equality_residual"],
):
    """Equality certification: constructed fixed pairs and random instances.

    Constructed pinching-fixed pairs must show a vanishing gap and vanishing
    residuals.  Random instances are checked for both implication directions
    (tiny recovery residual forces a tiny gap and conversely); the returned
    stats record how often gap and recovery residual are simultaneously
    positive.
    """
    summary = CampaignSummary()
    stats = {"co_positive": 0, "bs_only_hits": 0}
    for i in range(constructed):
        d = _pick_dim(dims, i)
        sub = derive_seed(seed, 1000 + i)
        sigma, rho, pinching = pinching_fixed_pair(d, sub)
        report = equality_residuals(sigma, rho, pinching.as_kraus())
        summary.total += 1
        checks = {
            "gap": abs(report.gap_bs) <= gap_tol,
            "eq2": report.residual_eq2 <= residual_tol,
            "eq3": report.residual_eq3 <= residual_tol,
            "bs_recovery": report.residual_bs_recovery <= residual_tol,
            "petz": report.residual_petz <= residual_tol,
            "renyi2": abs(report.renyi2_gap) <= residual_tol,
        }
        if all(checks.values()):
            summary.equality_hits += 1
        else:
            bad = ",".join(k for k, v in checks.items() if not v)
            summary.violations.append((sub, f"constructed pair fails: {bad}"))
    for i in range(random_trials):
        d = _pick_dim(dims, i)
        sub = derive_seed(seed, i)
        sigma, rho = sample_pair(d, sub)
        channel = sample_channel(d, sub)
        report = equality_residuals(sigma, rho, channel)
        summary.total += 1
        if report.residual_eq2 <= 1e-12 and report.gap_bs > 1e-8:
            summary.violations.append(
                (sub, f"residual_eq2 tiny but gap {report.gap_bs:.3e}")
            )
        if abs(report.gap_bs) <= 1e-12 and report.residual_eq2 > 1e-6:
            summary.violations.append(
                (sub, f"gap tiny but residual_eq2 {report.residual_eq2:.3e}")
            )
        if report.gap_bs > 1e-10 and report.residual_bs_recovery > 1e-10:
            stats["co_positive"] += 1
        if report.residual_bs_recovery <= 1e-8 and report.residual_petz > 1e-4:
            stats["bs_only_hits"] += 1
    return summary, stats


def run_structural_campaign(seed: int, trials: int, dims, t_grid=(0.01, 0.1, 1.0, 10.0, 100.0)):
    """Stinespring reconstruction, isometry, contraction, norm monotonicity,
    and the resolvent integrand inequality on a t grid."""
    summary = CampaignSummary()
    for i in range(trials):
        d = _pick_dim(dims, i)
        sub = derive_seed(seed, i)
        sigma, rho = sample_pair(d, sub)
        channel = sample_channel(d, sub)
        dilation = channel.stinespring()
        omega = random_density(d, d, derive_seed(sub, 6)).mat
        recon = schatten_norm(dilation.apply(omega) - channel.apply(omega), 2)
        isometry = float(np.linalg.norm(dilation.v.conj().T @ dilation.v - np.eye(d)))
        summary.total += 1
        if recon > 1e-12:
            summary.violations.append((sub, f"stinespring reconstruction {recon:.3e}"))
        if isometry > 1e-10:
            summary.violations.append((sub, f"V*V residual {isometry:.3e}"))

        use_partial = i % 4 == 0
        if use_partial:
            expectation = sample_condexp(0, "partial_trace", i)
            de = expectation.dim
        else:
            expectation = sample_condexp(d, "pinching", sub)
            de = d
        sig_e, rho_e = sample_pair(de, derive_seed(sub, 7))
        g_full = gamma(sig_e, rho_e).sup_norm
        g_proj = gamma(expectation.apply(sig_e), expectation.apply(rho_e)).sup_norm
        if g_proj > g_full + 1e-10:
            summary.violations.append(
                (sub, f"norm monotonicity {g_proj:.6f} > {g_full:.6f}")
            )

        contraction = build_contraction(sig_e, expectation.as_kraus())
        ce_matrix = superop_matrix(expectation.apply, de)
        uu_matrix = superop_matrix(
            lambda x: contraction.adjoint(contraction.apply(x)), de
        )
        if float(np.abs(uu_matrix - ce_matrix).max()) > 1e-9:
            summary.violations.append((sub, "U*U deviates from the expectation"))

        for t in t_grid:
            lhs, rhs = lemma_integrand_check(sig_e, rho_e, expectation, t)
            if lhs - rhs < -1e-9:
                summary.violations.append(
                    (sub, f"integrand inequality fails at t={t}: {lhs - rhs:.3e}")
                )
    return summary


def run_ordering_campaign(seed: int, trials: int, dims):
    """Standard <= maximal, commuting reductions, and the degree-2 identity."""
    summary = CampaignSummary()
    fams = (xlogx(), neg_power(0.5))
    square = square_family()
    for i in range(trials):
        d = _pick_dim(dims, i)
        sub = derive_seed(seed, i)
        sigma, rho = sample_pair(d, sub)
        summary.total += 1
        for fam in fams:
            s_val = standard_f(sigma, rho, fam)
            m_val = maximal_f(sigma, rho, fam)
            if s_val > m_val + 1e-9:
                summary.violations.append(
                    (sub, f"ordering fails for {fam.tag}: {s_val} > {m_val}")
                )
        # degree-2 identity at the absolute tolerance needs bounded condition
        # numbers (the value tr[s^2 r^-1] is unbounded); unconditioned pairs
        # are still checked at machine-relative level
        s_sq = standard_f(sigma, rho, square)
        m_sq = maximal_f(sigma, rho, square)
        if abs(s_sq - m_sq) > 1e-11 * max(1.0, abs(s_sq)):
            summary.violations.append(
                (sub, f"degree-2 identity off relative scale by {s_sq - m_sq:.3e}")
            )
        sigma_c, rho_c = sample_conditioned_pair(d, sub)
        s_sq = standard_f(sigma_c, rho_c, square)
        m_sq = maximal_f(sigma_c, rho_c, square)
        if abs(s_sq - m_sq) > 1e-10:
            summary.violations.append((sub, f"degree-2 identity off by {s_sq - m_sq:.3e}"))

        # commuting reduction on a shared eigenbasis
        rng = np.random.Generator(np.random.Philox(derive_seed(sub, 8)))
        u = _haar_isometry(d, d, rng)
        lam = rng.uniform(0.1, 1.0, size=d)
        lam /= lam.sum()
        mu = rng.uniform(0.1, 1.0, size=d)
        mu /= mu.sum()
        a = (u * lam) @ u.conj().T
        b = (u * mu) @ u.conj().T
        classical = float(np.sum(mu * (lam / mu) * np.log(lam / mu)))
        fam = xlogx()
        for label, value in (
            ("standard", standard_f(a, b, fam)),
            ("maximal", maximal_f(a, b, fam)),
        ):
            if abs(value - classical) > 1e-10:
                summary.violations.append(
                    (sub, f"commuting {label} off classical by {value - classical:.3e}")
                )
    return summary


def run_oracle_campaign(seed: int, pairs: int, dims, quad_tol: float = DEFAULT_TOLERANCES["quadrature"]):
    """Quadrature agreement for the BS-entropy and the scaling identity."""
    summary = CampaignSummary()
    for i in range(pairs):
        d = _pick_dim(dims, i)
        sub = derive_seed(seed, i)
        sigma, rho = sample_pair(d, sub)
        spectral = bs_entropy(sigma, rho)
        quad = bs_entropy_quadrature(sigma, rho, tol=quad_tol / 10.0)
        summary.total += 1
        if abs(spectral - quad) > quad_tol:
            summary.violations.append(
                (sub, f"quadrature disagrees by {spectral - quad:.3e}")
            )
        for a in (0.5, 2.0):
            for b in (0.5, 2.0):
                scaled = bs_entropy(a * sigma.mat, b * rho.mat)
                expected = a * spectral + a * math.log(a / b)
                if abs(scaled - expected) > 1e-9:
                    summary.violations.append(
                        (sub, f"scaling identity off at a={a}, b={b}")
                    )
    return summary
