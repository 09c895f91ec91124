"""The names of bsdpi that the benchmark under bench/ binds.

bench/tracing.py wraps a fixed list of functions and methods, bench/tests
reads some of their bindings, and bench/workloads.py builds its input pools
from the samplers and savers below.  A deletion or rename of any of them
fails here, without running the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


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
