"""Drift of the quadrature oracle against committed golden values.

tests/golden/quadrature.csv holds `bs_entropy_quadrature` at tol=1e-8 on 16
`sample_pair` pairs for each of d = 2, 3, 4, plus the explicit t_max=1e9 case
of test_divergences, as the trapezoid rule in log t computes them.  Every
value may deviate by at most DRIFT_TOL relative to max(|golden|,
DRIFT_FLOOR); the largest deviation is reported.  Every golden value must
also lie within SPECTRAL_TOL of `bs_entropy` on its pair, which ties the file
to the independent spectral path.

The comparison also runs on its own, and can rewrite the golden file:

    python tests/test_golden_quadrature.py [--write]
"""

import csv
import io
import sys
from pathlib import Path

from bsdpi import bs_entropy, bs_entropy_quadrature
from bsdpi.campaigns import sample_pair
from bsdpi.states import StatePair

GOLDEN = Path(__file__).parent / "golden" / "quadrature.csv"
TOL = 1e-8
CASES = [(d, seed, None) for d in (2, 3, 4) for seed in range(16)] + [(2, 16, 1e9)]
DRIFT_TOL = 1e-12
DRIFT_FLOOR = 1e-9
SPECTRAL_TOL = 1e-10


def compute() -> str:
    out = io.StringIO()
    out.write("d,seed,t_max,value\n")
    for d, seed, t_max in CASES:
        value = bs_entropy_quadrature(StatePair(*sample_pair(d, seed)), t_max=t_max, tol=TOL)
        out.write(f"{d},{seed},{'' if t_max is None else repr(t_max)},{value!r}\n")
    return out.getvalue()


def max_drift(text: str, golden: str) -> float:
    """Largest |x - g| / max(|g|, DRIFT_FLOOR); the case columns must match."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ref = list(csv.DictReader(io.StringIO(golden)))
    assert len(rows) == len(ref), f"{len(rows)} rows, golden has {len(ref)}"
    drift = 0.0
    for row, g in zip(rows, ref):
        for col in ("d", "seed", "t_max"):
            assert row[col] == g[col], f"{col} {row[col]!r} != {g[col]!r}"
        x, y = float(row["value"]), float(g["value"])
        drift = max(drift, abs(x - y) / max(abs(y), DRIFT_FLOOR))
    return drift


def test_quadrature_matches_golden(capsys):
    drift = max_drift(compute(), GOLDEN.read_text())
    with capsys.disabled():
        print(f"\nquadrature drift: {drift:.3e}")
    assert drift <= DRIFT_TOL


def test_golden_values_match_the_spectral_path():
    rows = list(csv.DictReader(io.StringIO(GOLDEN.read_text())))
    assert len(rows) == len(CASES)
    for row in rows:
        spectral = bs_entropy(StatePair(*sample_pair(int(row["d"]), int(row["seed"]))))
        assert abs(float(row["value"]) - spectral) <= SPECTRAL_TOL, row


if __name__ == "__main__":
    text = compute()
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(text)
    else:
        print(f"max relative drift: {max_drift(text, GOLDEN.read_text()):.3e}")
