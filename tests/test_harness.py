import argparse
import dataclasses
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bsdpi import campaigns, cli, linalg, random_cptp, random_density, save_state, sampling
from bsdpi.bounds import InstanceAnalysis
from bsdpi.campaigns import (
    BLOCK_TRIALS,
    CRITERIA,
    DEFAULT_TOLERANCES,
    MAXF_FAMILIES,
    SELFTEST_BUDGET_S,
    BoundCheck,
    CampaignSummary,
    Check,
    DpiCheck,
    EqualityCheck,
    MaxfCheck,
    OracleCheck,
    OrderingCheck,
    RegularizedOracleCheck,
    Row,
    StructuralCheck,
    derive_seed,
    draw_block,
    draw_trial,
    evaluate,
    sample_channel,
    sample_condexp,
    sample_conditioned_pair,
    sample_equal_support_pair,
    sample_pair,
    write_csv,
)
from bsdpi.channels import KrausChannel, PartialTraceFactor, SubalgebraExpectation, save_channel
from bsdpi.cli import CampaignConfig, main
from bsdpi.divergences import family_from_tag
from bsdpi.errors import ConfigError, Diverging, NoConvergence, RejectionExhausted
from bsdpi.recovery import pinching_fixed_pair
from bsdpi.states import OutputFile, StatePair


def shift_rhs_k(monkeypatch, name, by):
    """Make campaigns.<name> report rhs_k = gap + by on every row, with the
    precondition met, so each row falls short of its bound by ``by``."""
    evaluate = getattr(campaigns, name)

    def shifted(*args):
        report = evaluate(*args)
        return dataclasses.replace(report, rhs_k=report.gap + by, precondition_ok=True)

    monkeypatch.setattr(campaigns, name, shifted)


@pytest.fixture
def state_files(tmp_path):
    sigma = random_density(3, 3, 100)
    rho = random_density(3, 3, 101)
    sp = tmp_path / "sigma.json"
    rp = tmp_path / "rho.json"
    save_state(str(sp), sigma)
    save_state(str(rp), rho)
    cp = tmp_path / "chan.json"
    save_channel(str(cp), random_cptp(3, 3, 2, seed=102))
    return str(sp), str(rp), str(cp)


class TestConfig:
    def test_defaults_valid(self):
        config = CampaignConfig()
        assert config.trials == 500

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            CampaignConfig(trials=0)

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            CampaignConfig(dims=(1, 2))

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            CampaignConfig(channel_kind="teleport")

    def test_empty_dims_are_named_empty(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "dims": []}))
        assert main(["bounds", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: ConfigError: dims is empty; give at least one dimension >= 2"
        ]

    def test_from_json(self):
        config = CampaignConfig.from_json(
            json.dumps({"seed": 3, "trials": 4, "dims": [2, 3], "channel_kind": "pinching"})
        )
        assert config.seed == 3 and config.dims == (2, 3)

    def test_unknown_keys(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_json(json.dumps({"sead": 3}))

    def test_not_json(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_json("{oops")

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_json(json.dumps({"tolerances": {"slack_rell": 1e-8}}))

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"trials": "5"}, "trials"),
            ({"trials": 2.5}, "trials"),
            ({"trials": True}, "trials"),
            ({"dims": [2.7]}, "dims"),
            ({"tolerances": [1]}, "tolerances"),
            ({"tolerances": {"slack_rel": "nan"}}, "slack_rel"),
            ({"tolerances": {"slack_rel": -1.0}}, "slack_rel"),
            ({"tolerances": {"slack_abs": True}}, "slack_abs"),
            ({"families": "xlogx"}, "families"),
            ({"families": [3]}, "families"),
            ({"seed": -1}, "seed"),
            ({"seed": "x"}, "seed"),
            ({"output_path": 5}, "output_path"),
        ],
    )
    def test_wrong_type_or_range_exits_2(self, config, named, tmp_path, capsys):
        # exit 1 would read as a violation, so bad input must not reach a campaign
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "dims": [2], **config}))
        assert main(["bounds", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and named in err

    @pytest.mark.parametrize(
        "key", ["increment", "regularized_gap", "equality_gap", "equality_residual", "quadrature"]
    )
    def test_tolerance_unread_by_bounds_is_refused(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError):
            CampaignConfig.from_json(json.dumps({"tolerances": {key: 1e-3}}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "dims": [2], "tolerances": {key: 1e-3}}))
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert "ConfigError" in capsys.readouterr().err


class TestCriteriaTable:
    FAMILIES = ("xlogx", "neg_power:0.25", "neg_power:0.5", "neg_power:0.75")

    def test_counts_tolerances_and_budgets(self):
        # number: (full counts, reduced counts, tolerances, budget in s)
        expected = {
            1: ((500,), (60,), {"dpi_abs": 1e-9}, 30.0),
            2: ((500, 200), (60, 24), {"slack_rel": 1e-8}, 60.0),
            3: ((500, 100), (60, 12),
                {"slack_rel": 1e-8, "increment": 1e-6, "regularized_gap": 1e-9}, 60.0),
            4: ((500, self.FAMILIES), (60, ("xlogx", "neg_power:0.5")),
                {"slack_abs": 1e-8}, 30.0),
            5: ((50, 500), (10, 60), {"equality_gap": 1e-9, "equality_residual": 1e-7}, 60.0),
            6: ((200,), (40,), {}, 30.0),
            7: ((50,), (8,), {"quadrature": 1e-9}, 30.0),
            8: ((200,), (25,), {}, 30.0),
        }
        table = {c.number: (c.full, c.reduced, c.tolerances, c.budget_s) for c in CRITERIA}
        assert table == expected
        assert [c.number for c in CRITERIA] == list(range(1, 9))
        assert SELFTEST_BUDGET_S == 120.0

    @pytest.mark.parametrize("key", ["increment", "regularized_gap"])
    def test_channel_criterion_fails_at_a_zero_oracle_tolerance(self, key):
        # the regularized-route oracle gates criterion 3 and can fail it
        criterion = CRITERIA[2]
        assert criterion.check(7, criterion.reduced, criterion.tolerances)[0]
        ok, detail = criterion.check(7, criterion.reduced, {**criterion.tolerances, key: 0.0})
        assert not ok, detail

    def test_oracle_criterion_fails_on_a_disagreement_of_1e_8(self, monkeypatch):
        criterion = CRITERIA[6]
        assert criterion.check(7, criterion.reduced, criterion.tolerances)[0]
        quad = campaigns.bs_entropy_quadrature
        monkeypatch.setattr(
            campaigns, "bs_entropy_quadrature", lambda *args, **kw: quad(*args, **kw) + 1e-8
        )
        ok, detail = criterion.check(7, criterion.reduced, criterion.tolerances)
        assert not ok, detail

    @pytest.mark.parametrize("name", ["bs_entropy", "relative_entropy"])
    def test_ordering_criterion_fails_when_d_bs_is_off_by_1e_8(self, name, monkeypatch):
        # D_BS 1e-8 off maximal xlogx, or D 1e-8 above D_BS
        criterion = CRITERIA[5]
        assert criterion.check(7, criterion.reduced, criterion.tolerances)[0]
        bs_entropy = campaigns.bs_entropy
        monkeypatch.setattr(campaigns, name, lambda pair: bs_entropy(pair) + 1e-8)
        ok, detail = criterion.check(7, criterion.reduced, criterion.tolerances)
        assert not ok, detail

    def test_numerics_error_keeps_the_gathered_counts(self):
        # the corrupted eigensolver makes the regularized oracle raise on a
        # singular trial; the line still carries what came before it
        criterion = CRITERIA[2]
        trials, singular = criterion.reduced
        linalg.set_eig_corruption(1e-6)
        try:
            ok, line = criterion.run(7, reduced=True)
        finally:
            linalg.set_eig_corruption(0.0)
        assert not ok and ": FAIL (" in line, line
        match = re.search(r"Diverging on trial seed (\d+): ", line)
        assert match, line
        singular_seeds = {derive_seed(7, i) for i in range(trials, trials + singular)}
        assert int(match.group(1)) in singular_seeds
        counts = re.search(
            r"min slack (\S+), (\d+) instances, (\d+) singular instances, (\d+) violations", line
        )
        assert counts, line
        assert float(counts.group(1)) < 1.0
        assert int(counts.group(2)) >= trials
        assert int(counts.group(3)) < singular

    def test_bounds_defaults_are_the_battery_tolerances(self):
        assert {k: CampaignConfig().tol(k) for k in cli.TOLERANCE_KEYS} == {
            "dpi_abs": 1e-9, "slack_rel": 1e-8, "slack_abs": 1e-8,
        }
        assert all(c.tolerances[k] == DEFAULT_TOLERANCES[k] for c in CRITERIA for k in c.tolerances)


class TestTrialCost:
    def test_one_channel_trial_with_four_families(self, monkeypatch):
        # every module's binding of matrix_fn is counted, as the benchmark
        # tracer wraps them; each matrix is decomposed once and no support
        # comparison needs singular values
        calls = {"matrix_fn": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        matrix_fn = linalg.matrix_fn
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bsdpi" and getattr(module, "matrix_fn", None) is matrix_fn:
                monkeypatch.setattr(module, "matrix_fn", counted("matrix_fn", matrix_fn))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        for d in (2, 3, 4):
            calls.update(matrix_fn=0, svd=0)
            checks = [DpiCheck(1e-9), BoundCheck("bs_channel", 1e-8), MaxfCheck(MAXF_FAMILIES, 1e-8)]
            before = linalg.herm_eig_calls
            evaluate(7, 1, (d,), "random_cptp", checks)
            assert linalg.herm_eig_calls - before == 6
            assert calls["matrix_fn"] <= 9, calls
            assert calls["svd"] == 0
            assert sum(len(c.rows) for c in checks) == 6

    @staticmethod
    def eig_calls(kind, dims, check):
        before = linalg.herm_eig_calls
        evaluate(7, 1, dims, kind, [check])
        return linalg.herm_eig_calls - before

    def test_a_channel_trial_validates_its_channel_once(self, monkeypatch):
        calls = []
        validate = KrausChannel.validate
        monkeypatch.setattr(KrausChannel, "validate", lambda c: calls.append(validate(c)))
        evaluate(7, 9, (2, 3, 4), "random_cptp", [SilentCheck()])
        assert len(calls) == 9

    def test_structural_check_reads_the_isometry_defect(self):
        # criterion 8 compares the defect the isometry formed when it was built
        trial = draw_trial(7, 0, (3,), "random_cptp")
        dilation = trial.target.stinespring()
        object.__setattr__(dilation, "defect", 2e-10)
        check = StructuralCheck()
        check.add(trial, InstanceAnalysis(trial.sigma, trial.rho, trial.target))
        assert (trial.seed, "V*V residual 2.000e-10") in check.summary.violations

    def test_structural_trial_reads_one_analysis(self):
        # the expectation's sigma, rho, G, sigma_N and G_N; the lemma grid,
        # the contraction and the norm monotonicity reuse that analysis.  The
        # trial's channel is validated without a decomposition, and its sigma,
        # rho and omega are read only as matrices, so they are never decomposed.
        for d in (2, 3, 4):
            assert self.eig_calls("random_cptp", (d,), StructuralCheck()) == 5

    def test_ordering_trial_shares_the_commuting_pair(self):
        # sigma, rho and G of the input pair and the core that the D_BS
        # cross-checks read against them, and the conditioned and commuting
        # pairs' sigma, rho and G: standard_f and maximal_f share each pair's
        # spectra.  Validating the channel decomposes nothing.
        counts = {d: self.eig_calls("random_cptp", (d,), OrderingCheck()) for d in (2, 3, 4)}
        assert counts == {2: 10, 3: 11, 4: 10}

    @pytest.mark.parametrize("kind", ["pinching", "partial_trace"])
    def test_petz_row_adds_no_decomposition(self, kind):
        # the Petz map reads the expectation itself, not a validated Kraus form:
        # sigma, rho and G once each, and sigma_N, rho_N and G_N once per block
        check = BoundCheck(f"bs_{kind}", 1e-8, include_standard_row=True)
        blocks = len(draw_trial(7, 0, (3,), kind).target.blocks)
        assert self.eig_calls(kind, (3,), check) == 3 + 3 * blocks
        assert [row.family for row in check.rows] == [f"bs_{kind}", "std_relent_petz"]

    def test_oracle_trial_decomposes_each_pair_once(self):
        # the trial's sigma, rho and G, and those of the four scaled pairs of
        # the scaling identity
        counts = {d: self.eig_calls("random_cptp", (d,), OracleCheck(1e-9)) for d in (2, 3, 4)}
        assert counts == {2: 15, 3: 15, 4: 15}

    @pytest.mark.parametrize("criterion", [6, 7])
    def test_a_block_decomposes_what_its_trials_read_alone(self, criterion):
        # priming decomposes each declared spectrum once for the block: as
        # many decompositions as trials checked one at a time, none extra
        entry = CRITERIA[criterion - 1]
        make = lambda: entry.check.args[0](entry.tolerances)  # the criterion's check factory
        before = linalg.herm_eig_calls
        evaluate(7, 9, (2, 3, 4), "random_cptp", [make()])
        blocked = linalg.herm_eig_calls - before
        before = linalg.herm_eig_calls
        per_trial_loop(7, 9, (2, 3, 4), "random_cptp", [make()])
        assert blocked == linalg.herm_eig_calls - before

    def test_priming_decomposes_no_spectrum_that_nothing_reads(self):
        # drawing a trial, its channel included, decomposes nothing
        assert StructuralCheck.reads == ()
        for check in (SilentCheck(), RegularizedOracleCheck(1e-6, 1e-9)):
            before = linalg.herm_eig_calls
            evaluate(7, 9, (2, 3, 4), "random_cptp", [check])
            assert linalg.herm_eig_calls - before == 0


@dataclasses.dataclass
class SilentCheck(Check):
    """Reads nothing of a trial."""

    def add(self, trial, a):
        self.summary.total += 1


def per_trial_loop(seed, trials, dims, kind, checks, n_rank_deficient=0):
    """evaluate as one loop over the trials, each analysed and checked alone."""
    for i in range(trials + n_rank_deficient):
        trial = draw_trial(seed, i, dims, kind, deficient=i >= trials)
        analysis = InstanceAnalysis(trial.sigma, trial.rho, trial.target)
        for check in checks:
            check.add(trial, analysis)


def csv_text(path, checks) -> str:
    with OutputFile(str(path)) as out:
        write_csv(out, [row for check in checks for row in check.rows])
    return path.read_text()


class TestBlocks:
    """evaluate draws blocks of BLOCK_TRIALS trials and decomposes their
    spectra together; the rows, summaries and errors are those of one trial
    at a time."""

    CHECK_SETS = {
        "bounds_cptp": ("random_cptp", (2, 3, 4), 0, lambda: [
            DpiCheck(1e-9), BoundCheck("bs_channel", 1e-8), MaxfCheck(MAXF_FAMILIES, 1e-8)]),
        "pinching_petz": ("pinching", (2, 3, 5), 0, lambda: [
            BoundCheck("bs_pinching", 1e-8, include_standard_row=True),
            MaxfCheck(MAXF_FAMILIES, 1e-8)]),
        "channel_singular": ("random_cptp", (2, 3, 4), 10, lambda: [
            BoundCheck("bs_channel", 1e-8), RegularizedOracleCheck(1e-6, 1e-9)]),
        "equality": ("random_cptp", (2, 3, 4), 0, lambda: [EqualityCheck(7, 3, 1e-9, 1e-7)]),
        "subalgebra_petz": ("subalgebra", (2, 4, 6, 9), 0, lambda: [
            BoundCheck("bs_subalgebra", 1e-8, include_standard_row=True),
            MaxfCheck(MAXF_FAMILIES, 1e-8)]),
    }

    @pytest.mark.parametrize("name", sorted(CHECK_SETS))
    def test_longer_than_a_block_matches_a_per_trial_loop(self, name, tmp_path):
        kind, dims, deficient, make = self.CHECK_SETS[name]
        trials = BLOCK_TRIALS + 6 - deficient  # the second block is partial
        blocked, alone = make(), make()
        before = linalg.herm_eig_calls
        evaluate(20191904, trials, dims, kind, blocked, deficient)
        decompositions = linalg.herm_eig_calls - before
        before = linalg.herm_eig_calls
        per_trial_loop(20191904, trials, dims, kind, alone, deficient)
        assert decompositions == linalg.herm_eig_calls - before
        text = csv_text(tmp_path / "blocked.csv", blocked)
        assert text == csv_text(tmp_path / "alone.csv", alone)
        tallies = ("summary", "pass_rates", "max_increment", "max_disagreement", "hits",
                   "co_positive")
        for b, a in zip(blocked, alone):
            for tally in tallies:
                assert getattr(b, tally, None) == getattr(a, tally, None), tally

    def test_the_corrupted_eigensolver_reaches_the_stacked_spectra(self, tmp_path):
        # the selftest's FAIL lines alone would not show a stacked path that
        # skipped the corruption: other decompositions make them fail too
        make = self.CHECK_SETS["bounds_cptp"][3]
        clean, blocked, alone = make(), make(), make()
        evaluate(7, 12, (2, 3, 4), "random_cptp", clean)
        linalg.set_eig_corruption(1e-6)
        try:
            evaluate(7, 12, (2, 3, 4), "random_cptp", blocked)
            per_trial_loop(7, 12, (2, 3, 4), "random_cptp", alone)
        finally:
            linalg.set_eig_corruption(0.0)
        text = csv_text(tmp_path / "blocked.csv", blocked)
        assert text == csv_text(tmp_path / "alone.csv", alone)
        assert text != csv_text(tmp_path / "clean.csv", clean)

    def test_draw_error_in_mid_block_follows_the_earlier_trials(self, monkeypatch):
        # the failure is injected at the per-trial phase of the block drawer
        draw = sampling._draw_streams

        def failing(streams, j, i, *args, **kwargs):
            if i == 5:
                raise Diverging("drawn trial 5 fails")
            return draw(streams, j, i, *args, **kwargs)

        monkeypatch.setattr(sampling, "_draw_streams", failing)
        check = DpiCheck(1e-9)
        with pytest.raises(Diverging) as info:
            evaluate(11, 20, (2, 3, 4), "random_cptp", [check])
        assert info.value.trial_seed == derive_seed(11, 5)
        assert [row.seed for row in check.rows] == [derive_seed(11, i) for i in range(5)]

    def test_check_error_in_mid_block_names_its_trial(self):
        class FailsOnThird(DpiCheck):
            def add(self, trial, a):
                if trial.index == 2:
                    raise Diverging("checked trial 2 fails")
                super().add(trial, a)

        check = FailsOnThird(1e-9)
        with pytest.raises(Diverging) as info:
            evaluate(11, 20, (2, 3, 4), "random_cptp", [check])
        assert info.value.trial_seed == derive_seed(11, 2)
        assert len(check.rows) == 2


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlockDraws:
    """draw_block's trials are, bit for bit, those that the public
    single-item samplers draw from derive_seed(seed, i)."""

    TOTAL = 2 * BLOCK_TRIALS + 2  # two blocks and a partial one
    DEFICIENT = 6  # the last trials, across the second and the partial block

    @staticmethod
    def alone(seed, i, dims, kind, deficient):
        sub = derive_seed(seed, i)
        if kind == "partial_trace":
            target = sample_condexp(0, kind, i)
            d = target.dim
        else:
            d = dims[i % len(dims)]
            target = sample_channel(d, sub) if kind == "random_cptp" else sample_condexp(d, kind, sub)
        if deficient:
            return sub, d, target, sample_equal_support_pair(d, max(1, d - 1), sub)
        return sub, d, target, sample_pair(d, sub)

    @pytest.mark.parametrize("kind", ["random_cptp", "pinching", "partial_trace", "subalgebra"])
    def test_blocks_match_the_single_item_samplers(self, kind):
        seed, dims = 20191904, (2, 3, 4)
        first_deficient = self.TOTAL - self.DEFICIENT
        for start in range(0, self.TOTAL, BLOCK_TRIALS):
            stop = min(start + BLOCK_TRIALS, self.TOTAL)
            trials, error = draw_block(seed, start, stop, dims, kind, first_deficient)
            assert error is None and [t.index for t in trials] == list(range(start, stop))
            for trial in trials:
                deficient = trial.index >= first_deficient
                sub, d, target, pair = self.alone(seed, trial.index, dims, kind, deficient)
                assert (trial.seed, trial.d, trial.deficient) == (sub, d, deficient)
                assert same_bits(trial.sigma.mat, pair[0].mat)
                assert same_bits(trial.rho.mat, pair[1].mat)
                if isinstance(target, KrausChannel):
                    ops, expected = trial.target.kraus, target.kraus
                elif isinstance(target, PartialTraceFactor):
                    ops, expected = [], []
                    assert (trial.target.d_keep, trial.target.s) == (target.d_keep, target.s)
                else:
                    ops, expected = trial.target.as_kraus().kraus, target.as_kraus().kraus
                assert len(ops) == len(expected)
                assert all(same_bits(a, b) for a, b in zip(ops, expected))

    def test_a_draw_error_keeps_the_trials_before_it(self, monkeypatch):
        # a channel that fails validation in the last, per-trial step
        validate = KrausChannel.validate

        def failing(channel):
            if channel.d_in == 4:
                raise Diverging("the d = 4 channel fails")
            validate(channel)

        monkeypatch.setattr(KrausChannel, "validate", failing)
        trials, error = draw_block(11, 0, 9, (2, 3, 4), "random_cptp", 9)
        assert [t.index for t in trials] == [0, 1]
        assert isinstance(error, Diverging) and error.trial_seed == derive_seed(11, 2)


class TestRejectionBudgets:
    def test_blocks_that_cannot_qualify_are_refused_at_once(self):
        # a trace-1 block of rank 50 has mean eigenvalue 0.02
        before = linalg.herm_eig_calls
        with pytest.raises(RejectionExhausted, match=r"rank-50 block of a d = 60 .* = 0\.02"):
            sample_equal_support_pair(60, 50, 1)
        with pytest.raises(RejectionExhausted, match="3x3 state"):
            sample_conditioned_pair(3, 1, min_eig=0.34)
        assert linalg.herm_eig_calls == before

    def test_the_equal_support_budget_ends_the_search(self, monkeypatch):
        monkeypatch.setattr(sampling, "EQUAL_SUPPORT_ATTEMPTS", 5)
        with pytest.raises(RejectionExhausted, match=r"rank-7 block of a d = 8 .* in 5 attempts"):
            sample_equal_support_pair(8, 7, 3)

    def test_the_conditioned_budget_ends_the_search(self):
        with pytest.raises(RejectionExhausted, match="in 64 attempts"):
            sample_conditioned_pair(3, 1, min_eig=0.3)

    def test_exhaustion_in_a_check_names_its_trial(self, monkeypatch):
        monkeypatch.setattr(sampling, "CONDITIONED_ATTEMPTS", 0)
        check = OrderingCheck()
        with pytest.raises(RejectionExhausted) as info:
            evaluate(11, 3, (2, 3, 4), "random_cptp", [check])
        assert info.value.trial_seed == derive_seed(11, 0)
        ok, line = CRITERIA[5].run(7, reduced=True)
        assert not ok and "RejectionExhausted on trial seed" in line


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_distinct(self):
        assert derive_seed(7, 1) != derive_seed(7, 2)


class TestSummaries:
    def test_summary_invariant(self):
        # violations empty <=> min normalized slack above -tolerance
        dpi = DpiCheck(1e-9)
        evaluate(5, 40, (2, 3), "random_cptp", [dpi])
        assert dpi.summary.ok == (dpi.summary.min_slack >= -1e-9)
        bound = BoundCheck("bs_pinching", 1e-8)
        evaluate(5, 30, (2, 3), "pinching", [bound])
        assert bound.summary.ok == (bound.summary.min_slack >= -1e-8)

    def test_row_render_stable(self):
        row = Row(1, 2, "bs", 0.5, 0.25, 0.125, True, 0.25)
        assert row.render() == "1,2,bs,0.5,0.25,0.125,true,0.25"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        with OutputFile(str(path)) as out:
            write_csv(out, [Row(1, 2, "bs", 0.5, 0.25, 0.125, False, 0.25)])
        text = path.read_text()
        assert text.splitlines()[0] == "seed,d,family,gap,rhs_k,rhs_l,precondition_ok,slack"
        assert ",false," in text

    def test_empty_summary_ok(self):
        assert CampaignSummary().ok


class TestDivergenceCommand:
    def test_identical_files(self, tmp_path, capsys):
        rho = random_density(3, 3, 200)
        path = tmp_path / "rho.json"
        save_state(str(path), rho)
        code = main(["divergence", str(path), str(path), "--family", "xlogx"])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.splitlines():
            if "=" in line and "delta" not in line:
                value = float(line.split("=")[1].split()[0])
                assert abs(value) < 1e-9

    def test_commuting_pair_values(self, tmp_path, capsys):
        import math

        save_state(str(tmp_path / "s.json"), np.diag([0.5, 0.5]).astype(complex))
        save_state(str(tmp_path / "r.json"), np.diag([0.25, 0.75]).astype(complex))
        code = main(["divergence", str(tmp_path / "s.json"), str(tmp_path / "r.json")])
        out = capsys.readouterr().out
        assert code == 0
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        first = float(out.splitlines()[0].split("=")[1].strip())
        assert first == pytest.approx(expected, abs=1e-9)

    def test_nan_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(
            {"dim": 2, "entries": [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
        ))
        assert main(["divergence", str(path), str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: DomainViolation")

    @pytest.mark.parametrize("family", ["bogus", "neg_power:abc"])
    def test_unknown_family_exits_2(self, family, state_files, capsys):
        sp, rp, _ = state_files
        assert main(["divergence", sp, rp, "--family", family]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: unknown family {family!r}\n"

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["divergence", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "ParseError" in err and "line" in err

    def test_full_rank_request_decomposes_each_matrix_once(self, state_files, capsys):
        # sigma, rho and G, shared by every value printed
        sp, rp, _ = state_files
        before = linalg.herm_eig_calls
        assert main(["divergence", sp, rp, "--family", "neg_power:0.5"]) == 0
        assert linalg.herm_eig_calls - before <= 3

    def test_rank_deficient_request_decomposes_each_matrix_once(self, tmp_path, capsys):
        # sigma, rho and G, then the compressed sigma, rho and G, which the
        # standard and maximal values share
        sigma, rho = sample_equal_support_pair(3, 2, 31)
        sp, rp = tmp_path / "s.json", tmp_path / "r.json"
        save_state(str(sp), sigma.mat)
        save_state(str(rp), rho.mat)
        before = linalg.herm_eig_calls
        assert main(["divergence", str(sp), str(rp), "--family", "neg_power:0.5"]) == 0
        assert linalg.herm_eig_calls - before == 6
        assert "(regularized)" in capsys.readouterr().out


def state_with_spectrum(eigs, seed) -> np.ndarray:
    """diag(eigs) / sum(eigs) in a random basis."""
    rng = np.random.default_rng(seed)
    d = len(eigs)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    m = (q * (np.asarray(eigs) / sum(eigs))) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def divergence_lines(tmp_path, capsys, sigma, rho) -> tuple[int, dict]:
    """Exit code and the printed values, by name, of divergence on the pair."""
    sp, rp = tmp_path / "s.json", tmp_path / "r.json"
    save_state(str(sp), sigma)
    save_state(str(rp), rho)
    code = main(["divergence", str(sp), str(rp)])
    lines = capsys.readouterr().out.splitlines()
    return code, {name.strip(): value for name, value in (line.split(" = ", 1) for line in lines)}


class TestLargeRatioOperator:
    """Pairs whose smallest eigenvalues are ~1e-7, so lambda_max(G) >~ 1e5."""

    def test_unresolved_quadrature_is_reported_not_fatal(self, tmp_path, capsys):
        sigma = state_with_spectrum([1e-7, 0.3, 0.7], 11)
        rho = state_with_spectrum([1e-7, 0.5, 0.5], 12)
        assert StatePair(sigma, rho).ratio.lam_max > 1e5
        code, values = divergence_lines(tmp_path, capsys, sigma, rho)
        assert code == 0
        assert values["bs_quadrature"].startswith(
            "unresolved (NoConvergence: quadrature levels still differ"
        )
        assert {"relative_entropy", "bs_entropy"} <= values.keys()

    def test_bs_entropy_above_kappa_1e10_is_unchanged(self, tmp_path, capsys):
        # G's smallest eigenvalue lies below RANK_TOL * lambda_max, so the
        # general route of spectral_values drops it as off the support and
        # bs_entropy is wrong here; the fix belongs to the support of G
        # (ROADMAP item 2), and this pins today's value until then
        sigma = state_with_spectrum([1e-5, 0.3, 0.7], 23)
        rho = state_with_spectrum([1e-7, 0.5, 0.5], 24)
        pair = StatePair(sigma, rho)
        lam, w = pair.ratio.eig.values, pair.ratio_weights
        assert lam[-1] / lam[0] > 1e10
        live = lam > linalg.RANK_TOL * pair.ratio.lam_max
        assert not live[0]
        expected = -float(np.where(live, np.log(np.where(live, lam, 1.0)), 0.0) @ w)
        code, values = divergence_lines(tmp_path, capsys, sigma, rho)
        assert code == 0
        assert values["bs_entropy"] == repr(expected)


class TestParser:
    def test_main_builds_one_parser_and_keeps_no_option_value(self, monkeypatch, tmp_path):
        seen = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(parser, argv=None, namespace=None):
            args = parse_args(parser, argv, namespace)
            seen.append((parser, args))
            return args

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        assert main(["bounds", "--seed", "3", "--trials", "1", "--dims", "3",
                     "--channel", "pinching", "--family", "neg_power:0.5", "--tol", "1e-7",
                     "--include-standard-dpi", "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["bounds", "--trials", "1", "--dims", "2"]) == 0
        (first, _), (second, args) = seen
        assert first is second is cli.build_parser()
        # flags left out stay None; CampaignConfig holds the defaults
        assert (args.seed, args.trials, args.dims, args.channel, args.family) == (
            None, 1, "2", None, None
        )
        assert args.tol is None and args.out is None and not args.include_standard_dpi


class TestBoundsCommand:
    def test_deterministic_csv(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["bounds", "--seed", "3", "--trials", "10", "--dims", "2,3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pinching_campaign(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            ["bounds", "--seed", "4", "--trials", "8", "--dims", "2,3",
             "--channel", "pinching", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,d,family,gap,rhs_k,rhs_l,precondition_ok,slack"
        assert len(lines) > 8

    def test_subalgebra_campaign(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            ["bounds", "--seed", "4", "--trials", "8", "--dims", "2,4,6",
             "--channel", "subalgebra", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["bs_subalgebra"] * 8 + ["xlogx"] * 8

    def test_condexp_campaign_draws_subalgebras_as_bounds_does(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["bounds", "--seed", "4", "--trials", "8", "--dims", "2,4,6",
                "--channel", "subalgebra", "--out", str(out)]
        assert main(argv) == 0
        expected = [row for row in out.read_text().splitlines()[1:] if ",bs_subalgebra," in row]
        summary, rows = campaigns.run_condexp_bound_campaign(4, 8, (2, 4, 6), kind="subalgebra")
        assert [row.render() for row in rows] == expected
        assert summary.total == 8 and summary.ok

    def test_condexp_kinds_are_those_sample_condexp_draws(self):
        for kind in sampling.CHANNEL_KINDS:
            if kind in campaigns.CONDEXP_KINDS:
                assert isinstance(sample_condexp(4, kind, 1), SubalgebraExpectation)
                continue
            with pytest.raises(ConfigError, match="unknown conditional-expectation kind"):
                sample_condexp(4, kind, 1)
            with pytest.raises(ConfigError, match="unknown conditional-expectation kind"):
                campaigns.run_condexp_bound_campaign(4, 1, (2,), kind=kind)

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "trials": 6, "dims": [2], "channel_kind": "pinching"}))
        assert main(["bounds", "--config", str(cfg)]) == 0

    def test_config_refuses_campaign_flags(self, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "dims": [2]}))
        argv = ["bounds", "--config", str(cfg)]
        assert main(argv + ["--dims", "3", "--trials", "5", "--channel", "pinching"]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "--trials, --dims, --channel" in err
        for flag, value in (("--seed", "3"), ("--family", "xlogx")):
            assert main(argv + [flag, value]) == 2
            assert flag in capsys.readouterr().err
        # --out and --tol still apply on top of a config: every bound row is
        # made to fall short by 0.5, which only a tolerance of 1 forgives
        shift_rhs_k(monkeypatch, "bs_bound_channel", 0.5)
        out = tmp_path / "rows.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert len(out.read_text().splitlines()) == 1 + 2 * 3
        assert "bs_channel slack" in capsys.readouterr().out
        assert main(argv + ["--tol", "1"]) == 0

    def test_fixture_single_trial(self, capsys):
        # trials=1 with rho=sigma style fixture: slack cannot be negative
        code = main(["bounds", "--seed", "11", "--trials", "1", "--dims", "2"])
        assert code == 0

    def test_standard_dpi_comparison_rows(self, tmp_path, capsys):
        out = tmp_path / "std.csv"
        code = main(
            ["bounds", "--seed", "6", "--trials", "5", "--dims", "2,3",
             "--channel", "pinching", "--include-standard-dpi", "--out", str(out)]
        )
        assert code == 0
        rows = [line for line in out.read_text().splitlines() if "std_relent_petz" in line]
        assert len(rows) == 5
        for line in rows:
            slack = float(line.rsplit(",", 1)[1])
            assert slack >= -1e-8

    def test_bad_dims_exit_2(self, capsys):
        assert main(["bounds", "--trials", "1", "--dims", "2,x"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_unknown_family_exit_2(self, capsys):
        assert main(["bounds", "--trials", "1", "--dims", "2", "--family", "xlogy"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_unknown_tolerance_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "dims": [2], "tolerances": {"slak_abs": 1.0}}))
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_slack_abs_reaches_maxf_rows(self, monkeypatch, tmp_path, capsys):
        # every maxf row falls short by 0.5, which only a slack_abs of 1 forgives
        shift_rhs_k(monkeypatch, "maxf_bound", 0.5)
        config = {"trials": 2, "dims": [2], "families": ["xlogx"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["bounds", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "xlogx slack" in out
        cfg.write_text(json.dumps({**config, "tolerances": {"slack_abs": 1.0}}))
        assert main(["bounds", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_that_is_not_finite_and_nonnegative_exits_2(self, tol, capsys):
        # NaN or inf would switch every check off, -1 would fail every row
        assert main(["bounds", "--trials", "1", "--dims", "2", "--tol", tol]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        assert main(["bounds", "--seed", "-1", "--trials", "1", "--dims", "2"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_unwritable_out_exits_2_and_names_it(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "rows.csv")
        before = linalg.herm_eig_calls
        assert main(["bounds", "--trials", "1", "--dims", "2", "--out", out]) == 2
        assert linalg.herm_eig_calls == before  # refused before the first trial
        err = capsys.readouterr().err
        assert err.startswith("error: InputError: ") and out in err

    def test_unwritable_output_path_exits_2_before_the_first_trial(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "rows.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "dims": [2], "output_path": out}))
        before = linalg.herm_eig_calls
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert linalg.herm_eig_calls == before
        err = capsys.readouterr().err
        assert err.startswith("error: InputError: ") and out in err

    def test_out_over_a_longer_csv_keeps_exactly_the_new_bytes(self, tmp_path, capsys):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        argv = ["bounds", "--seed", "3", "--trials", "2", "--dims", "2"]
        assert main(["bounds", "--seed", "3", "--trials", "12", "--dims", "2,3",
                     "--out", str(reused)]) == 0
        longer = reused.stat().st_size
        assert main(argv + ["--out", str(fresh)]) == 0
        assert main(argv + ["--out", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
        assert reused.stat().st_size < longer

    def test_a_run_that_raises_leaves_the_old_file_empty(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["bounds", "--trials", "3", "--dims", "2", "--out", str(out)]) == 0
        assert out.stat().st_size > 0

        def raises(*args):
            raise NoConvergence("drawn to fail")

        monkeypatch.setattr(campaigns, "evaluate", raises)
        assert main(["bounds", "--trials", "3", "--dims", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: NoConvergence: drawn to fail")
        assert out.read_bytes() == b""

    def test_out_naming_a_directory_exits_2_before_the_first_trial(self, tmp_path, capsys):
        out = str(tmp_path)
        before = linalg.herm_eig_calls
        assert main(["bounds", "--trials", "1", "--dims", "2", "--out", out]) == 2
        assert linalg.herm_eig_calls == before
        err = capsys.readouterr().err
        assert err.startswith("error: InputError: ") and out in err

    def test_out_that_is_not_a_regular_file(self, capsys):
        # a device can be written, but not cut
        assert main(["bounds", "--trials", "1", "--dims", "2", "--out", os.devnull]) == 0

    def test_partial_trace_refuses_dims(self, tmp_path, capsys):
        # the kind draws its own shapes, d = 4 and 6; a requested d is refused
        assert main(["bounds", "--channel", "partial_trace", "--dims", "8", "--trials", "3"]) == 2
        assert "ConfigError" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 3, "dims": [8], "channel_kind": "partial_trace"}))
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert "[4, 6]" in capsys.readouterr().err
        assert main(["bounds", "--channel", "partial_trace", "--trials", "3"]) == 0

    def test_standard_dpi_rows_are_refused_for_random_cptp(self, capsys):
        assert main(["bounds", "--trials", "2", "--dims", "2", "--include-standard-dpi"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "families", ["xlogx,neg_power:0.5,neg_power(0.5)", "neg_power:0.5,neg_power:0.50",
                     "xlogx,xlogx"],
    )
    def test_a_family_named_twice_is_refused(self, families, tmp_path, capsys):
        # a repeated family would write each of its rows twice and double its pass-rate
        assert main(["bounds", "--trials", "2", "--dims", "2", "--family", families]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: families ")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "dims": [2], "families": families.split(",")}))
        assert main(["bounds", "--config", str(cfg)]) == 2

    def test_each_family_tag_is_parsed_once(self, monkeypatch, capsys):
        # the config parses the tags and hands MaxfCheck the families
        parsed = []

        def counting(tag):
            parsed.append(tag)
            return family_from_tag(tag)

        monkeypatch.setattr(cli, "family_from_tag", counting)
        monkeypatch.setattr(campaigns, "family_from_tag", counting)
        assert main(["bounds", "--trials", "2", "--dims", "2",
                     "--family", "xlogx,neg_power:0.5"]) == 0
        assert parsed == ["xlogx", "neg_power:0.5"]
        assert "precondition pass-rate [neg_power(0.5)]" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["square", "neg_log", "xlogx,square"])
    def test_family_without_measure_constants_is_refused(self, family, capsys):
        assert main(["bounds", "--trials", "2", "--dims", "2", "--family", family]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "measure constants" in err

    def test_one_trial_decomposes_each_matrix_once(self, capsys):
        # sampling: sigma, rho and the Choi matrix; analysis: sigma_T, rho_T,
        # G and G_T.  Families add no decomposition.
        calls = {}
        for families in ("xlogx", "xlogx,neg_power:0.25,neg_power:0.5,neg_power:0.75"):
            before = linalg.herm_eig_calls
            assert main(["bounds", "--seed", "3", "--trials", "1", "--dims", "4",
                         "--family", families]) == 0
            calls[families] = linalg.herm_eig_calls - before
        counts = set(calls.values())
        assert len(counts) == 1, calls
        assert counts.pop() <= 15


class TestCertifyCommand:
    def test_constructed_pair_equality(self, tmp_path, capsys):
        sigma, rho, pinching = pinching_fixed_pair(4, 300)
        save_state(str(tmp_path / "s.json"), sigma)
        save_state(str(tmp_path / "r.json"), rho)
        save_channel(str(tmp_path / "c.json"), pinching.as_kraus())
        code = main(
            ["certify", str(tmp_path / "s.json"), str(tmp_path / "r.json"),
             str(tmp_path / "c.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("EQUALITY")
        assert not out.strip().endswith("NO-EQUALITY")

    def test_random_pair_no_equality(self, state_files, capsys):
        sigma, rho, chan = state_files
        code = main(["certify", sigma, rho, chan])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("NO-EQUALITY")
        payload = json.loads(out.splitlines()[0])
        assert payload["gap_bs"] > 0

    def test_support_mismatch_errors(self, tmp_path, capsys):
        save_state(str(tmp_path / "s.json"), np.diag([1.0, 0.0]).astype(complex))
        save_state(str(tmp_path / "r.json"), np.diag([0.0, 1.0]).astype(complex))
        save_channel(str(tmp_path / "c.json"), random_cptp(2, 2, 2, seed=1))
        code = main(
            ["certify", str(tmp_path / "s.json"), str(tmp_path / "r.json"),
             str(tmp_path / "c.json")]
        )
        assert code == 2
        assert "SupportMismatch" in capsys.readouterr().err

    def test_report_written(self, state_files, tmp_path, capsys):
        sigma, rho, chan = state_files
        out_path = tmp_path / "report.json"
        assert main(["certify", sigma, rho, chan, "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert "residual_eq2" in payload

    def test_out_over_a_longer_file_holds_exactly_the_report(self, state_files, tmp_path, capsys):
        sigma, rho, chan = state_files
        out_path = tmp_path / "report.json"
        out_path.write_text("x" * 10_000 + "\n")
        assert main(["certify", sigma, rho, chan, "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        assert out_path.read_text() == printed

    def test_unwritable_out_exits_2_and_names_it(self, state_files, tmp_path, capsys):
        sigma, rho, chan = state_files
        out = str(tmp_path / "missing" / "report.json")
        assert main(["certify", sigma, rho, chan, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InputError: ") and out in err


def _unreadable(tmp_path, kind: str) -> str:
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe\x00{")
    return str(path)


class TestBadInputFiles:
    """Missing, unreadable or malformed input files exit 2 with an error line."""

    @staticmethod
    def argv(command, sigma, rho, channel):
        return [command, sigma, rho] + ([channel] if command == "certify" else [])

    @pytest.mark.parametrize("command", ["divergence", "certify"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_state_file(self, command, kind, state_files, tmp_path, capsys):
        _, rp, cp = state_files
        assert main(self.argv(command, _unreadable(tmp_path, kind), rp, cp)) == 2
        assert capsys.readouterr().err.startswith("error: InputError: ")

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_channel_file(self, kind, state_files, tmp_path, capsys):
        sp, rp, _ = state_files
        assert main(["certify", sp, rp, _unreadable(tmp_path, kind)]) == 2
        assert capsys.readouterr().err.startswith("error: InputError: ")

    @pytest.mark.parametrize("command", ["divergence", "certify"])
    @pytest.mark.parametrize("dim", ["two", 2.5, 0])
    def test_non_integer_dim_in_state(self, command, dim, state_files, tmp_path, capsys):
        sp, rp, cp = state_files
        state = json.loads((tmp_path / "sigma.json").read_text())
        state["dim"] = dim
        bad = tmp_path / "bad_dim.json"
        bad.write_text(json.dumps(state))
        assert main(self.argv(command, str(bad), rp, cp)) == 2
        assert capsys.readouterr().err.startswith("error: ParseError: 'dim'")

    @pytest.mark.parametrize(
        "role, key, value",
        [
            ("chan", "d_in", "three"),
            ("chan", "kraus", 5),
            ("sigma", "entries", 5),
            ("sigma", "entries", [["a", 0.0]] * 9),
        ],
    )
    def test_malformed_field(self, role, key, value, state_files, tmp_path, capsys):
        path = tmp_path / f"{role}.json"
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        assert main(["certify", *state_files]) == 2
        assert capsys.readouterr().err.startswith("error: ParseError: ")

    @pytest.mark.parametrize("command", ["divergence", "certify"])
    @pytest.mark.parametrize("role", ["sigma", "rho"])
    @pytest.mark.parametrize("diag", [[1.0, 0.5, 0.5], [1.5, -0.5, 0.0]], ids=["trace2", "not_psd"])
    def test_state_that_is_not_a_density_matrix(
        self, command, role, diag, state_files, tmp_path, capsys
    ):
        files = dict(zip(("sigma", "rho", "channel"), state_files))
        files[role] = str(tmp_path / "bad_state.json")
        save_state(files[role], np.diag(diag).astype(complex))
        assert main(self.argv(command, *files.values())) == 2
        assert capsys.readouterr().err.startswith(
            f"error: DomainViolation: state file {files[role]!r} is not a density matrix"
        )

    @pytest.mark.parametrize("command", ["divergence", "certify"])
    @pytest.mark.parametrize("role", ["sigma", "rho"])
    @pytest.mark.parametrize(
        "state, error",
        [
            ({"dim": 2, "entries": [[0.5, 0], [0.3, 0], [0, 0], [0.5, 0]]}, "NotHermitian"),
            ({"dim": 2, "entries": [[float("nan"), 0], [0, 0], [0, 0], [0.5, 0]]},
             "DomainViolation"),
            ({"dim": "two", "entries": []}, "ParseError"),
        ],
        ids=["not_hermitian", "nan", "malformed"],
    )
    def test_refused_state_names_its_file(self, command, role, state, error, tmp_path, capsys):
        good = tmp_path / "good.json"
        save_state(str(good), np.diag([0.5, 0.5]).astype(complex))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(state))
        channel = tmp_path / "channel.json"
        save_channel(str(channel), random_cptp(2, 2, 2, seed=103))
        states = (bad, good) if role == "sigma" else (good, bad)
        assert main(self.argv(command, *map(str, states), str(channel))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert repr(str(bad)) in err
        assert str(good) not in err

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"d_in": "three"}, "ParseError"),
            # 2 * identity: sum K*K is 4 * identity
            ({"kraus": [[[2.0 if i % 4 == 0 else 0.0, 0.0] for i in range(9)]]},
             "InvalidChannel"),
            ({"kraus": [[[float("nan"), 0.0]] * 9]}, "DomainViolation"),
        ],
        ids=["malformed", "not_trace_preserving", "nan"],
    )
    def test_refused_channel_names_its_file(self, change, error, state_files, tmp_path, capsys):
        sp, rp, cp = state_files
        bad = tmp_path / "bad_channel.json"
        bad.write_text(json.dumps({**json.loads(Path(cp).read_text()), **change}))
        assert main(["certify", sp, rp, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert repr(str(bad)) in err

    @pytest.mark.parametrize("command", ["divergence", "certify"])
    @pytest.mark.parametrize(
        "entry", [["0.5", "0"], [True, False], ["0.5", 0], [0.5, None], [10**400, 0]],
        ids=["strings", "booleans", "one_string", "null", "huge_integer"],
    )
    def test_state_entry_that_is_no_number_names_its_index(
        self, command, entry, state_files, tmp_path, capsys
    ):
        sp, rp, cp = state_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "entries": [[0.5, 0], [0, 0], entry, [0.5, 0]]}))
        assert main(self.argv(command, str(bad), rp, cp)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: entry 2 ")
        assert repr(str(bad)) in err

    @pytest.mark.parametrize("entry", [[True, 0.0], ["1", 0.0]], ids=["boolean", "string"])
    def test_kraus_entry_that_is_no_number_names_its_index(
        self, entry, state_files, tmp_path, capsys
    ):
        sp, rp, cp = state_files
        obj = json.loads(Path(cp).read_text())
        obj["kraus"][0][4] = entry
        bad = tmp_path / "bad_channel.json"
        bad.write_text(json.dumps(obj))
        assert main(["certify", sp, rp, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: entry 4 ")
        assert repr(str(bad)) in err

    def test_non_finite_kraus_entry(self, state_files, tmp_path, capsys):
        path = tmp_path / "chan.json"
        obj = json.loads(path.read_text())
        obj["kraus"][0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(obj))
        assert main(["certify", *state_files]) == 2
        assert capsys.readouterr().err.startswith(
            "error: DomainViolation: Kraus operator has a NaN or infinite entry"
        )

    def test_numerics_error_in_a_trial_exits_2(self, monkeypatch, capsys):
        def diverge(self, trial, a):
            raise Diverging("regularized increments fail to shrink")

        monkeypatch.setattr(campaigns.BoundCheck, "add", diverge)
        assert main(["bounds", "--trials", "2", "--dims", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: Diverging: regularized increments fail to shrink\n"
        )

    @pytest.mark.parametrize("role", ["sigma", "channel", "config"])
    def test_deeply_nested_file(self, role, state_files, tmp_path, capsys):
        # json raises RecursionError, not JSONDecodeError, on 100,000 arrays
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        sp, rp, cp = state_files
        argv = {"sigma": ["divergence", str(deep), rp],
                "channel": ["certify", sp, rp, str(deep)],
                "config": ["bounds", "--config", str(deep)]}[role]
        assert main(argv) == 2
        err = capsys.readouterr().err
        error = "ConfigError" if role == "config" else "ParseError"
        assert err.startswith(f"error: {error}: JSON nested too deeply") and err.count("\n") == 1
        if role != "config":
            assert repr(str(deep)) in err

    @pytest.mark.parametrize(
        "command, role",
        [("divergence", "sigma"), ("divergence", "rho"),
         ("certify", "sigma"), ("certify", "rho"), ("certify", "channel")],
    )
    @pytest.mark.parametrize("value", ["NaN", "1e400", "-1e400"])
    def test_non_finite_entry_gives_one_error_line(
        self, command, role, value, state_files, tmp_path, capsys
    ):
        # json reads NaN as nan and 1e400 as inf; the refusal is one error
        # line with no RuntimeWarning, which pytest's capture would hide
        # from capsys, so warnings are raised here
        files = dict(zip(("sigma", "rho", "channel"), state_files))
        obj = json.loads(Path(files[role]).read_text())
        # a diagonal entry of a state, where inf - inf would be formed in a - a*
        entries = obj["kraus"][0] if role == "channel" else obj["entries"]
        entries[0] = ["entry", 0.0]
        bad = tmp_path / f"bad_{role}.json"
        bad.write_text(json.dumps(obj).replace('"entry"', value))
        files[role] = str(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(self.argv(command, *files.values())) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: DomainViolation: ")
        assert repr(str(bad)) in lines[0]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["bounds", "--config", str(tmp_path / "none.json")]) == 2
        assert capsys.readouterr().err.startswith("error: InputError: ")


class TestSelftestCommand:
    def test_passes_cleanly(self, capsys):
        assert main(["selftest", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8

    def test_negative_seed_exits_2(self, capsys):
        # exit 1 would read as a failed criterion
        assert main(["selftest", "--seed", "-1"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_detects_injected_corruption(self, capsys):
        assert main(["selftest", "--seed", "9", "--inject-eig-corruption"]) == 1
