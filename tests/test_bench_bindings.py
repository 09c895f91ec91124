"""The names of bsdpi that the benchmark under bench/ binds.

bench/tracing.py wraps a fixed list of functions and methods, bench/tests
reads some of their bindings, and bench/workloads.py builds its input pools
from the samplers and savers below.  A deletion or rename of any of them
fails here, without running the benchmark.  bench/run.py reports the mean
time per call of the functions in its US_PER_CALL, and its traced run fails
when a workload calls one of them no more; one traced client step of each
bounds workload checks that here.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", tracing.NAMES)
def test_every_traced_name_resolves(name):
    layer, qual = name.split(".", 1)
    *_, original = tracing._resolve(layer, qual)
    assert callable(original)


@pytest.mark.parametrize("module, attr", [
    # the bindings bench/tests checks the tracer wraps
    ("bsdpi.bounds", "herm_eig"),
    ("bsdpi.campaigns", "bs_bound_channel"),
    ("bsdpi", "herm_eig"),
    # what bench/workloads.py draws and writes its input pools with
    ("bsdpi.campaigns", "derive_seed"),
    ("bsdpi.campaigns", "sample_pair"),
    ("bsdpi.campaigns", "sample_equal_support_pair"),
    ("bsdpi.campaigns", "sample_channel"),
    ("bsdpi.states", "save_state"),
    ("bsdpi.channels", "save_channel"),
])
def test_bench_bindings_exist(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def us_per_call_names() -> tuple:
    """bench/run.py's US_PER_CALL, read without running the script, which
    fixes the BLAS threads of the process that imports it."""
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["US_PER_CALL"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no US_PER_CALL")


@pytest.mark.parametrize("name", [
    name for name, w in workloads.WORKLOADS.items() if isinstance(w, workloads.BoundsWorkload)
])
def test_a_bounds_step_calls_every_timed_function(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = workload.run(0, str(tmp_path))
    finally:
        tracer.uninstall()
    assert all(result.ok for result in results), [result.error for result in results]
    called = {tracing.NAMES[span[0]] for span in tracer.spans}
    assert [n for n in us_per_call_names() if n not in called] == []
