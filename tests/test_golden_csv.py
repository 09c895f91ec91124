"""Drift of `bsdpi bounds` CSV output against committed golden files.

tests/golden/ holds the CSVs that `bounds --seed 7 --trials 12 --dims 2,3,4`
with four maximal-f families wrote before the spectral-once refactor, once
for random_cptp and once for pinching targets.  The identifying columns must
match exactly; every numeric column may deviate by at most DRIFT_TOL relative
to max(|golden|, DRIFT_FLOOR), and the largest deviation per column is
reported.

bounds_channel_singular.csv holds the rows of a `bs_channel` BoundCheck over
seed 7's 24 rank-deficient `random_cptp` trials at d = 2, 3, 4 from the
library that still took singular gaps from the epsilon-regularized Richardson
route.  Today's gap is the BS-entropy on the common support, so `gap` and
`slack` may move by at most SINGULAR_GAP_TOL absolute: on d = 2 rank-1 pairs
the true gap is 0, where no relative gate applies.  `rhs_k` and `rhs_l` keep
the DRIFT_TOL relative gate.

bounds_seed_2_100.csv is what `bounds --seed 2**100 --trials 3 --dims 2,3`
writes; CI compares it byte for byte, since such a seed takes the block
drawer's SeedSequence fallback.

bounds_pinching_large.csv is what `bounds --channel pinching --dims
16,24,32 --trials 6 --seed 7` with the four families writes: its pinchings
were built from projector lists that validate re-checked one by one, before
a pinching became a unitary cut into column blocks.  Tier-1 gates it by
column drift; CI also compares its bytes, which depend on the BLAS build.

bounds_random_cptp_large.csv is what `bounds --channel random_cptp --dims
8,12,16 --trials 6 --seed 7` with the four families writes: its channels
held their Kraus operators as a list and a stacked copy of the Stinespring
isometry, before a channel became one operator stack that V is a view of.
Tier-1 gates it by column drift; CI also compares its bytes.

bounds_partial_trace.csv is what `bounds --channel partial_trace --trials 12
--seed 7` with the four families writes (partial traces draw their own
dimensions and take no --dims): its expectations were applied as dense
matrices, before a conditional expectation became one subalgebra whose
outputs are decomposed block by block with their multiplicities.  The
pinching goldens above also predate that block route; all three keep the
DRIFT_TOL gate.

bounds_pinching_large_blocks.csv is what the command of
bounds_pinching_large.csv writes on the block route; CI compares its bytes.

Every golden file above was written while the maximal f-divergences were
read off the core rho^{-1/2} sigma rho^{-1/2}.  They are read off G now, by
the transpose identity, which moves the maximal-f rows within the same
DRIFT_TOL.  bounds_random_cptp_large_transpose.csv and
bounds_subalgebra_transpose.csv are what the commands of
bounds_random_cptp_large.csv and bounds_subalgebra.csv write on that route,
and CI compares their bytes; bounds_seed_2_100.csv and
bounds_pinching_large_blocks.csv, which only CI reads, were rewritten on it.

bounds_partial_trace_blocks.csv is what the command of
bounds_partial_trace.csv writes with --include-standard-dpi on the block
route, its `std_relent_petz` rows included; only CI reads it, and compares
its bytes.  selftest_seed_7.txt is not a CSV: it holds the lines of `bsdpi
selftest --seed 7` with their times cut, which CI compares byte for byte.

bounds_subalgebra.csv is what `bounds --channel subalgebra --dims 4,6,9,12
--trials 12 --seed 7 --include-standard-dpi` with the four families writes:
72 rows, the `std_relent_petz` rows included, and 7 of its 12 subalgebras
have a block of multiplicity m_k > 1.  It was written while the outputs of
a subalgebra had their own pair class and their own formula for G and the
core, before `gamma` formed G in the form each spectrum holds its matrix.
Tier-1 gates it at DRIFT_TOL; CI also compares its bytes.

The comparison also runs on its own:

    python tests/test_golden_csv.py NEW.csv GOLDEN.csv
"""

import csv
import io
import sys
from pathlib import Path

import pytest

from bsdpi.campaigns import DEFAULT_TOLERANCES, BoundCheck, evaluate, write_csv
from bsdpi.cli import main
from bsdpi.states import OutputFile

GOLDEN = Path(__file__).parent / "golden"
FAMILIES = "xlogx,neg_power:0.25,neg_power:0.5,neg_power:0.75"
EXACT = ("seed", "d", "family", "precondition_ok")
NUMERIC = ("gap", "rhs_k", "rhs_l", "slack")
DRIFT_TOL = 1e-10
DRIFT_FLOOR = 1e-9
SINGULAR_GAP_TOL = 1e-9


def column_drift(text: str, golden: str, absolute=()) -> dict:
    """Largest |x - g| / max(|g|, DRIFT_FLOOR) per numeric column, or |x - g|
    for the columns named in ``absolute``.

    Raises AssertionError when the row count or an identifying column differs.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    ref = list(csv.DictReader(io.StringIO(golden)))
    assert len(rows) == len(ref), f"{len(rows)} rows, golden has {len(ref)}"
    drift = dict.fromkeys(NUMERIC, 0.0)
    for i, (row, g) in enumerate(zip(rows, ref)):
        for col in EXACT:
            assert row[col] == g[col], f"row {i}: {col} {row[col]!r} != {g[col]!r}"
        for col in NUMERIC:
            x, y = float(row[col]), float(g[col])
            dev = abs(x - y) if col in absolute else abs(x - y) / max(abs(y), DRIFT_FLOOR)
            drift[col] = max(drift[col], dev)
    return drift


@pytest.mark.parametrize("kind, trials, dims, golden, flags", [
    pytest.param("random_cptp", "12", "2,3,4", "bounds_random_cptp.csv", (), id="random_cptp"),
    pytest.param("pinching", "12", "2,3,4", "bounds_pinching.csv", (), id="pinching"),
    pytest.param("pinching", "6", "16,24,32", "bounds_pinching_large.csv", (),
                 id="pinching_large"),
    pytest.param("random_cptp", "6", "8,12,16", "bounds_random_cptp_large.csv", (),
                 id="random_cptp_large"),
    pytest.param("partial_trace", "12", None, "bounds_partial_trace.csv", (), id="partial_trace"),
    pytest.param("subalgebra", "12", "4,6,9,12", "bounds_subalgebra.csv",
                 ("--include-standard-dpi",), id="subalgebra"),
])
def test_bounds_csv_matches_golden(kind, trials, dims, golden, flags, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argv = ["bounds", "--seed", "7", "--trials", trials, "--family", FAMILIES,
            "--channel", kind, "--out", str(out), *flags]
    if dims is not None:
        argv += ["--dims", dims]
    assert main(argv) == 0
    drift = column_drift(out.read_text(), (GOLDEN / golden).read_text())
    with capsys.disabled():
        print(f"\n{golden} drift per column: {drift}")
    assert max(drift.values()) <= DRIFT_TOL, drift


def test_singular_channel_rows_match_golden(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    check = BoundCheck("bs_channel", DEFAULT_TOLERANCES["slack_rel"])
    evaluate(7, 0, (2, 3, 4), "random_cptp", [check], n_rank_deficient=24)
    with OutputFile(str(out)) as fh:
        write_csv(fh, check.rows)
    golden = (GOLDEN / "bounds_channel_singular.csv").read_text()
    drift = column_drift(out.read_text(), golden, absolute=("gap", "slack"))
    with capsys.disabled():
        print(f"\nbs_channel_singular drift per column (gap, slack absolute): {drift}")
    assert drift["rhs_k"] <= DRIFT_TOL and drift["rhs_l"] <= DRIFT_TOL, drift
    assert drift["gap"] <= SINGULAR_GAP_TOL and drift["slack"] <= SINGULAR_GAP_TOL, drift


if __name__ == "__main__":
    new, golden = (Path(p).read_text() for p in sys.argv[1:3])
    for column, value in column_drift(new, golden).items():
        print(f"{column}: {value:.3e}")
