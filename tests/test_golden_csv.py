"""Drift of `bsdpi bounds` CSV output against committed golden files.

tests/golden/ holds the CSVs that `bounds --seed 7 --trials 12 --dims 2,3,4`
with four maximal-f families wrote before the spectral-once refactor, once
for random_cptp and once for pinching targets.  The identifying columns must
match exactly; every numeric column may deviate by at most DRIFT_TOL relative
to max(|golden|, DRIFT_FLOOR), and the largest deviation per column is
reported.

bounds_channel_singular.csv holds the rows of
`run_channel_bound_campaign(7, 0, (2, 3, 4), n_rank_deficient=24)` from the
library that still took singular gaps from the epsilon-regularized Richardson
route.  Today's gap is the BS-entropy on the common support, so `gap` and
`slack` may move by at most SINGULAR_GAP_TOL absolute: on d = 2 rank-1 pairs
the true gap is 0, where no relative gate applies.  `rhs_k` and `rhs_l` keep
the DRIFT_TOL relative gate.

The comparison also runs on its own:

    python tests/test_golden_csv.py NEW.csv GOLDEN.csv
"""

import csv
import io
import sys
from pathlib import Path

import pytest

from bsdpi.campaigns import run_channel_bound_campaign, write_csv
from bsdpi.cli import main

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


@pytest.mark.parametrize("kind", ["random_cptp", "pinching"])
def test_bounds_csv_matches_golden(kind, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argv = ["bounds", "--seed", "7", "--trials", "12", "--dims", "2,3,4",
            "--family", FAMILIES, "--channel", kind, "--out", str(out)]
    assert main(argv) == 0
    drift = column_drift(out.read_text(), (GOLDEN / f"bounds_{kind}.csv").read_text())
    with capsys.disabled():
        print(f"\n{kind} drift per column: {drift}")
    assert max(drift.values()) <= DRIFT_TOL, drift


def test_singular_channel_rows_match_golden(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    write_csv(str(out), run_channel_bound_campaign(7, 0, (2, 3, 4), n_rank_deficient=24)[1])
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
