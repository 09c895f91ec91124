"""Tests of the benchmark itself, at short counts.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (puts src/ on the path and fixes the BLAS threads)

run.import_program()

import bsdpi  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bsdpi.linalg import set_eig_corruption  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield path


def prepared(name, workdir, items=2):
    workload = workloads.WORKLOADS[name]
    workload.prepare(workdir)
    return workload, workload.order(1)[:items]


def check_steps(workload, done, name):
    per_step, drift = run.check_all(workload, done, run.load_golden(name))
    return sum(o for o, _ in per_step), sum(f for _, f in per_step), drift


def test_workloads_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_equal_untraced_outputs(name, workdir):
    workload, items = prepared(name, workdir)
    plain = [run.step(workload, item, workdir) for item in items]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run.step(workload, item, workdir) for item in items]
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert [texts for _, _, texts in traced] == [texts for _, _, texts in plain]
    assert None not in [t for _, _, texts in plain for t in texts]


def _bindings():
    seen = {}
    for modname in tracing.MODULES:
        for attr, value in vars(sys.modules[modname]).items():
            seen[(modname, attr)] = value
    for cls in (bsdpi.channels.KrausChannel, bsdpi.channels.Pinching):
        for attr, value in vars(cls).items():
            seen[(cls.__name__, attr)] = value
    return seen


def test_every_wrapped_binding_is_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # the defining names, the re-bound names and the methods are all wrapped
        for key in [("bsdpi.linalg", "herm_eig"), ("bsdpi.bounds", "herm_eig"),
                    ("bsdpi.campaigns", "bs_bound_channel"), ("bsdpi", "herm_eig"),
                    ("KrausChannel", "validate"), ("bsdpi.cli", "main")]:
            assert key in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", NAMES)
def test_eig_corruption_fires_the_gate(name, workdir):
    workload, items = prepared(name, workdir)
    set_eig_corruption(1e-6)
    try:
        done = [run.step(workload, item, workdir) for item in items]
    finally:
        set_eig_corruption(0.0)
    ops, failed, drift = check_steps(workload, done, name)
    assert 0 < failed <= ops
    assert max(drift.values(), default=float("inf")) > workloads.DRIFT_TOL


def test_unreadable_request_file_fails_one_request(workdir):
    workload, items = prepared("cli-requests", workdir, items=4)
    os.remove(workload._paths(items[0], workdir)[2])  # the channel file
    done = [run.step(workload, item, workdir) for item in items]
    ops, failed, _ = check_steps(workload, done, "cli-requests")
    assert ops == 8
    assert failed == 1  # certify of the first item; its divergence still passes


def test_clean_steps_have_zero_drift(workdir):
    workload, items = prepared("cli-requests", workdir)
    done = [run.step(workload, item, workdir) for item in items]
    ops, failed, drift = check_steps(workload, done, "cli-requests")
    assert failed == 0 and max(drift.values()) == 0.0


@pytest.mark.parametrize(
    "channel, dims, expected",
    [
        # ROADMAP baseline table: 13 per DPI triple, 35 per pinching instance
        ("random_cptp", "2,3,4",
         {"run_dpi_campaign": 13, "run_channel_bound_campaign": 38,
          "run_maxf_campaign": 127}),
        ("pinching", "2,3,4",
         {"run_condexp_bound_campaign": 35, "run_maxf_campaign": 134}),
    ],
)
def test_herm_eig_counts_per_trial(channel, dims, expected, workdir):
    trials = 6
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = workloads.call_cli(
            ["bounds", "--channel", channel, "--dims", dims, "--family",
             workloads.FAMILIES, "--trials", str(trials), "--out",
             os.path.join(workdir, "out.csv")],
        )
    finally:
        tracer.uninstall()
    assert result.ok
    counts = tracing.eig_calls_per_campaign_call(tracer)
    per_trial = {name.split(".", 1)[1]: [n / trials for n in v] for name, v in counts.items()}
    assert per_trial == {name: [float(n)] for name, n in expected.items()}
