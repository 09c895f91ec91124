"""Acceptance battery: every entry of ``bsdpi.campaigns.CRITERIA`` at its full
counts, tolerances and time budget, plus the reduced-count selftest.

Each test prints its criterion line; run with `pytest -s tests/test_acceptance.py`
to see them.  `bsdpi selftest` runs the same table at its reduced counts.
"""

import time

from bsdpi.campaigns import CRITERIA, SELFTEST_BUDGET_S
from bsdpi.cli import main

SEED = 20240801


def _criterion_test(criterion):
    def test():
        ok, line = criterion.run(SEED)
        print(line)
        assert ok, line

    return test


# one test per table entry, named after its number and label so that each
# criterion keeps a stable test id
for _criterion in CRITERIA:
    _name = f"test_criterion_{_criterion.number}_{_criterion.label.replace(' ', '_')}"
    globals()[_name] = _criterion_test(_criterion)


def test_criterion_9_selftest(capsys):
    started = time.perf_counter()
    code = main(["selftest", "--seed", "7"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    ok = code == 0 and elapsed < SELFTEST_BUDGET_S and out.count("PASS") == len(CRITERIA)
    line = f"criterion 9 selftest: {'PASS' if ok else 'FAIL'} (exit {code}, {elapsed:.1f} s)"
    with capsys.disabled():
        print(line)
    assert ok, out
