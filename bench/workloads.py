"""The benchmark's workloads: input pools, CLI requests and the golden check.

Every workload is a closed loop with one client that drives the real CLI
entry point, ``bsdpi.cli.main``, in-process: the client makes its next call
only after the last one returned.  A client step makes one or two calls for
one pool item.  An op is the unit of work users count: a CSV row on the
``bounds-*`` workloads, a divergence or certify request on ``cli-requests``.

Inputs come from a fixed pool per workload, keyed by POOL_SEED, so golden
outputs produced by the seed commit cover every input a run can draw.  The
benchmark's ``--seed`` picks the order in which a run walks the pool; a run
that outlasts the pool starts it again from the top.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from time import perf_counter

import bsdpi.cli
from bsdpi import campaigns
from bsdpi.channels import save_channel
from bsdpi.states import save_state

POOL_SEED = 2019
FAMILIES = "xlogx,neg_power:0.25,neg_power:0.5,neg_power:0.75"
CLI_DIMS = (2, 3, 4)

# Drift gate: a numeric output fails when |x - golden| / max(|golden|, FLOOR)
# exceeds DRIFT_TOL.  FLOOR keeps near-zero entries (gaps of equal pairs,
# tiny residuals) from turning rounding noise into a large relative drift.
DRIFT_TOL = 1e-6
DRIFT_FLOOR = 1e-9
# certify prints its threshold with four significant digits
DISPLAY_TOL = {"threshold": 1e-3}

BOUNDS_NUMERIC = ("gap", "rhs_k", "rhs_l", "slack")
BOUNDS_EXACT = ("seed", "d", "family", "precondition_ok")


@dataclass
class CallResult:
    """What one CLI call returned: exit code, streams, CSV, escaped exception."""

    seconds: float
    code: int | None
    stdout: str
    stderr: str
    csv: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.code == 0 and "VIOLATION" not in self.stdout


def call_cli(argv: list[str], csv_path: str | None = None) -> CallResult:
    """Run ``bsdpi.cli.main(argv)`` and time it.

    The entry point is looked up on the module at each call, so a tracer's
    wrapper is used while it is installed.  Every exception is caught and
    reported, including the SystemExit that argparse raises on bad usage.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = bsdpi.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed op, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    text = None
    if csv_path is not None and error is None and code == 0:
        with open(csv_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return CallResult(seconds, code, out.getvalue(), err.getvalue(), text, error)


class Workload:
    """A pool of inputs and the CLI calls one client step makes for an item."""

    name: str
    pool_size: int
    group: int = 1  # items shuffled as one block, so each block keeps its mix
    tail_pct: float  # fixed per workload so runs compare like with like
    trace_items: int  # items per traced pass

    def order(self, seed: int) -> list[int]:
        blocks = [
            list(range(i, i + self.group)) for i in range(0, self.pool_size, self.group)
        ]
        random.Random(seed).shuffle(blocks)
        return [item for block in blocks for item in block]

    def step_class(self, item: int):
        """Items of one class make calls of the same cost on a quiet machine."""
        return None

    def prepare(self, workdir: str) -> None:
        """Set-up: write the input files that the calls read."""

    def calls(self, item: int, workdir: str) -> list[tuple[list[str], str | None]]:
        """(argv, CSV path or None) of each call of one client step."""
        raise NotImplementedError

    def run(self, item: int, workdir: str) -> list[CallResult]:
        return [call_cli(argv, path) for argv, path in self.calls(item, workdir)]

    def output(self, result: CallResult) -> str | None:
        """The text a call is checked on, or None when the call failed."""
        raise NotImplementedError

    def check(self, text: str | None, golden: str, drift: dict) -> tuple[int, int]:
        """(ops, failed ops) of one call against its golden text.

        When the call failed every op the golden text holds counts as failed.
        ``drift`` collects the largest relative deviation per output column.
        """
        raise NotImplementedError


def _rel(x: float, g: float) -> float:
    if x == g:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(g)):
        return math.inf
    return abs(x - g) / max(abs(g), DRIFT_FLOOR)


def _record_drift(drift: dict, column: str, value: float) -> None:
    drift[column] = max(drift.get(column, 0.0), value)


class BoundsWorkload(Workload):
    """``bsdpi bounds`` calls; each pool item is one campaign seed."""

    def __init__(self, name, runs, trials, pool_size, tail_pct, trace_items):
        self.name = name
        self.runs = runs  # ((channel, dims), ...): the calls of one client step
        self.trials = trials
        self.pool_size = pool_size
        self.tail_pct = tail_pct
        self.trace_items = trace_items

    def calls(self, item, workdir):
        out = os.path.join(workdir, "bounds.csv")
        seed = str(POOL_SEED * 1000 + item)
        return [
            (
                ["bounds", "--channel", channel, "--dims", dims, "--family", FAMILIES,
                 "--seed", seed, "--trials", str(self.trials), "--out", out],
                out,
            )
            for channel, dims in self.runs
        ]

    def output(self, result):
        return result.csv if result.ok else None

    @staticmethod
    def _rows(text: str) -> list[dict]:
        return list(csv.DictReader(io.StringIO(text)))

    def check(self, text, golden, drift):
        expected = self._rows(golden)
        got = self._rows(text) if text is not None else []
        if len(got) != len(expected):
            return len(expected), len(expected)
        failed = 0
        for row, ref in zip(got, expected):
            bad = any(row.get(k) != ref[k] for k in BOUNDS_EXACT)
            for col in BOUNDS_NUMERIC:
                try:
                    rel = _rel(float(row[col]), float(ref[col]))
                except (KeyError, TypeError, ValueError):
                    rel = math.inf
                _record_drift(drift, col, rel)
                bad = bad or rel > DRIFT_TOL
            failed += bad
        return len(expected), failed


def parse_report(text: str) -> tuple[dict, dict]:
    """Numeric and exact fields of a ``divergence`` or ``certify`` report.

    ``name = value`` lines give numeric fields; a parenthesized suffix such as
    ``(direct)`` is an exact field, and derived ``|delta|`` suffixes are
    skipped.  A JSON object line contributes its numbers and, as exact
    fields, its nested objects.  Any other line, such as ``EQUALITY``, is the
    verdict.
    """
    numeric, exact = {}, {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("{"):
            for key, value in json.loads(line).items():
                if isinstance(value, (int, float)):
                    numeric[key] = float(value)
                else:
                    exact[key] = json.dumps(value, sort_keys=True)
        elif " = " in line:
            key, rest = (s.strip() for s in line.split(" = ", 1))
            token = rest.split()[0]
            try:
                numeric[key] = float(token)
            except ValueError:
                exact[key] = rest
                continue
            suffix = rest[len(token):].strip()
            if suffix.startswith("("):
                exact[f"{key} route"] = suffix
        else:
            exact["verdict"] = line
    return numeric, exact


class RequestsWorkload(Workload):
    """Single ``divergence`` and ``certify`` requests over JSON files.

    Pool item k is a triple for d = CLI_DIMS[k % 3]: a ``sample_pair`` state
    pair, except every fourth item, which is a ``sample_equal_support_pair``
    of rank d - 1, and a ``sample_channel`` channel.  One client step asks for
    the divergences of the pair and then certifies the triple.
    """

    group = 4
    COMMANDS = ("divergence", "certify")

    def __init__(self, name, pool_size, tail_pct, trace_items):
        self.name = name
        self.pool_size = pool_size
        self.tail_pct = tail_pct
        self.trace_items = trace_items

    def step_class(self, item):
        return CLI_DIMS[item % len(CLI_DIMS)], item % 4 == 3

    @staticmethod
    def _paths(item, workdir):
        return [os.path.join(workdir, f"{item}-{role}.json") for role in ("sigma", "rho", "channel")]

    def prepare(self, workdir):
        for item in range(self.pool_size):
            d = CLI_DIMS[item % len(CLI_DIMS)]
            sub = campaigns.derive_seed(POOL_SEED, item)
            if item % 4 == 3:
                sigma, rho = campaigns.sample_equal_support_pair(d, d - 1, sub)
            else:
                sigma, rho = campaigns.sample_pair(d, sub)
            sigma_path, rho_path, channel_path = self._paths(item, workdir)
            save_state(sigma_path, sigma.mat)
            save_state(rho_path, rho.mat)
            save_channel(channel_path, campaigns.sample_channel(d, sub))

    def calls(self, item, workdir):
        sigma, rho, channel = self._paths(item, workdir)
        return [
            (["divergence", sigma, rho, "--family", "neg_power:0.5"], None),
            (["certify", sigma, rho, channel], None),
        ]

    def output(self, result):
        return result.stdout if result.ok else None

    def check(self, text, golden, drift):
        if text is None:
            return 1, 1
        try:
            num, exact = parse_report(text)
        except (ValueError, IndexError):
            return 1, 1
        ref_num, ref_exact = parse_report(golden)
        bad = exact != ref_exact or set(num) != set(ref_num)
        for key, ref in ref_num.items():
            rel = _rel(num.get(key, math.nan), ref)
            if key in DISPLAY_TOL:
                bad = bad or rel > DISPLAY_TOL[key]
                continue
            _record_drift(drift, key, rel)
            bad = bad or rel > DRIFT_TOL
        return 1, int(bad)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        BoundsWorkload(
            "bounds-cptp-small", runs=(("random_cptp", "2,3,4"),), trials=6,
            pool_size=240, tail_pct=95.0, trace_items=4,
        ),
        BoundsWorkload(
            "bounds-large", runs=(("pinching", "16,24,32"), ("random_cptp", "8,12,16")),
            trials=3, pool_size=80, tail_pct=80.0, trace_items=1,
        ),
        RequestsWorkload("cli-requests", pool_size=768, tail_pct=98.0, trace_items=8),
    )
}
