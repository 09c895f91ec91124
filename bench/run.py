#!/usr/bin/env python3
"""Benchmark of the bsdpi command line, run in-process from a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives ``bsdpi.cli.main`` in a closed loop for S seconds over the
workload's inputs, in the order the seed picks, and checks every output
against the golden outputs in bench/golden.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes over a fixed slice of the inputs and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record (versions,
BLAS, thread count, tail percentile, drift per column) is printed before it
and written with the metrics to bench/out/.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread ran faster and steadier on a
# 2-core machine than the default, and it keeps runs comparable.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

SETUP_REPEATS = 5
# End-to-end metrics reported in the result line; the others are printed.
END_TO_END = ("setup_s", "ops_per_ref", "peak_rss_mb")
# Per-layer metrics reported in the result line.  Mean times per call are
# reported only for functions every workload calls; the printed table and the
# record file carry every function's.
US_PER_CALL = (
    "linalg.herm_eig", "linalg.matrix_fn", "linalg.pinv", "linalg.schatten_norm",
    "states.gamma", "states.support_projector", "channels.KrausChannel.validate",
    "channels.KrausChannel.apply", "channels.KrausChannel.adjoint_apply",
    "channels.KrausChannel.stinespring", "divergences.bs_entropy",
    "divergences.maximal_f", "recovery.stinespring_residual", "cli.main",
)


def per_layer_reported() -> tuple[str, ...]:
    return (
        tuple(f"{n}.calls_per_op" for n in tracing.NAMES)
        + tuple(f"{n}.us_per_call" for n in US_PER_CALL)
        + tuple(f"{layer}.self_frac" for layer in tracing.LAYERS)
        + (
            "linalg.herm_eig.repeat_frac",
            "linalg.herm_eig.d3_per_op",
            "linalg.integrate_adaptive.evals_per_call",
            "divergences.standard_f.raise_frac",
            "trace_overhead_frac",
        )
    )


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="only import bsdpi and write the inputs to DIR (times set-up)")
    return p.parse_args(argv)


def import_program():
    """Import bsdpi from this checkout's src/, or explain why it cannot."""
    try:
        import bsdpi
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bsdpi from {SRC}: {exc}") from exc
    if os.path.dirname(os.path.dirname(os.path.abspath(bsdpi.__file__))) != SRC:
        raise SystemExit(f"error: bsdpi was imported from {bsdpi.__file__}, not {SRC}")


def load_golden(name: str) -> dict:
    path = os.path.join(GOLDEN, f"{name}.json.gz")
    if not os.path.exists(path):
        raise SystemExit(f"error: no golden outputs at {path}")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def measure_setup(args) -> float:
    """Wall time of a fresh process that imports bsdpi and writes the inputs."""
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", workdir],
            check=True, stdout=subprocess.DEVNULL,
        )
        return perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_record(args, workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    # only this checkout's own .git: git would otherwise search parent folders
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass  # no usable git; the source digest identifies the code
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bsdpi")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Latency at the fixed percentile and the number of samples beyond it."""
    value = float(np.percentile(latencies, pct))
    return value, sum(1 for x in latencies if x > value)


def step(workload, item, workdir):
    """One client step: (item, seconds of each call, checked text of each call)."""
    results = workload.run(item, workdir)
    return item, [r.seconds for r in results], [workload.output(r) for r in results]


class Reference:
    """A fixed numpy computation timed after every step, in the same process.

    On a shared machine other tenants slow this process in phases of seconds
    to minutes, CPU time included, and a whole run can sit in one.  Timing
    this kernel next to each step and dividing gives the step's cost in
    reference units, which those phases barely move.  It is benchmark code
    only: 60 Hermitian eigendecompositions at d = 2..4 and one each at d = 16
    and 32, each followed by a spectral logarithm and a trace.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = []
        for d in (2, 3, 4) * 20 + (16, 32):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = g @ g.conj().T
            self.mats.append(m / np.trace(m).real)

    def __call__(self) -> float:
        t0 = perf_counter()
        for a in self.mats:
            w, v = np.linalg.eigh(a)
            f = (v * np.log(w)) @ v.conj().T
            float(np.trace(a @ f).real)
        return perf_counter() - t0


def run_untraced(workload, order, workdir, args):
    """Steps for ``args.seconds``, the reference time after each, and set-up.

    The SETUP_REPEATS set-up measurements are spread evenly over the run, so
    their median spans the machine's phases; the clock stops while they run.
    """
    reference = Reference()
    done, refs, setups = [], [], []
    clock = 0.0
    while clock < args.seconds:
        if clock >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(measure_setup(args))
        t0 = perf_counter()
        done.append(step(workload, order[len(done) % len(order)], workdir))
        refs.append(reference())
        clock += perf_counter() - t0
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(args))
    return done, refs, statistics.median(setups)


def run_traced(workload, order, workdir, seconds, tracer):
    """Alternate untraced and traced passes over the first trace_items inputs.

    Every pass makes the same calls, so counts per op repeat exactly.
    Returns the steps, the duration of each pass by kind, and the indices of
    the traced steps.
    """
    items = order[: workload.trace_items]
    done, passes, traced_steps = [], {False: [], True: []}, []
    start = perf_counter()
    while not passes[True] or perf_counter() - start < seconds:
        for traced in (False, True):
            pass_time = 0.0
            if traced:
                tracer.install()
            try:
                for item in items:
                    if traced:
                        tracer.begin_op(len(traced_steps))
                        traced_steps.append(len(done))
                    done.append(step(workload, item, workdir))
                    pass_time += sum(done[-1][1])
            finally:
                if traced:
                    tracer.uninstall()
            passes[traced].append(pass_time)
    return done, passes, traced_steps


def check_all(workload, done, golden):
    """(ops, failed ops) of every step, and the largest drift per column."""
    drift: dict = {}
    per_step = []
    for item, _, texts in done:
        ops = failed = 0
        for text, ref in zip(texts, golden[str(item)]):
            n, bad = workload.check(text, ref, drift)
            ops += n
            failed += bad
        per_step.append((ops, failed))
    return per_step, drift


def ref_cost(workload, done, refs, call=None) -> float:
    """Median cost of a step in reference units, over the workload's mix.

    Each step's latency is divided by the reference time measured right
    after it.  The median is taken per input class (steps of one class make
    calls of the same cost) and weighted by the class's share of the pool.
    ``call`` picks one call of each step instead of the whole step.
    """
    by_class: dict = {}
    for (item, seconds, _), ref in zip(done, refs):
        value = sum(seconds) if call is None else seconds[call]
        by_class.setdefault(workload.step_class(item), []).append(value / ref)
    weights = Counter(workload.step_class(i) for i in range(workload.pool_size))
    total = sum(weights[c] for c in by_class)
    return sum(weights[c] * statistics.median(v) for c, v in by_class.items()) / total


def end_to_end(workload, done, refs, per_step, setup_s, record) -> dict:
    """Gated metrics first; the wall-clock latencies after them, for the record."""
    steps = [sum(seconds) for _, seconds, _ in done]
    ops = sum(o for o, _ in per_step)
    step_tail, beyond = tail(steps, workload.tail_pct)
    table = {
        "setup_s": (setup_s, "s"),
        "ops_per_ref": (ops / len(done) / ref_cost(workload, done, refs), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (ops / sum(steps), "1/s"),
        "reference_ms": (statistics.median(refs) * 1e3, "ms"),
        "step_p50_ms": (statistics.median(steps) * 1e3, "ms"),
        "step_tail_ms": (step_tail * 1e3, "ms"),
    }
    tails = {"step": beyond}
    for i, command in enumerate(getattr(workload, "COMMANDS", ())):
        seconds = [s[i] for _, s, _ in done]
        value, tails[command] = tail(seconds, workload.tail_pct)
        table[f"{command}_refs"] = (ref_cost(workload, done, refs, i), "ref")
        table[f"{command}_p50_ms"] = (statistics.median(seconds) * 1e3, "ms")
        table[f"{command}_tail_ms"] = (value * 1e3, "ms")
    record["tail"] = {"percentile": workload.tail_pct, "samples": len(steps),
                      "beyond": tails}
    return table


def per_layer(workload, tracer, passes, traced_steps, per_step, record) -> dict:
    ops = sum(per_step[i][0] for i in traced_steps)
    table = tracing.per_layer_metrics(tracer, ops, sum(passes[True]))
    table["trace_overhead_frac"] = (
        statistics.median(passes[True]) / statistics.median(passes[False]) - 1.0, "frac"
    )
    trials = getattr(workload, "trials", None)
    if trials:
        record["herm_eig_per_trial"] = {
            name: sorted({n / trials for n in counts})
            for name, counts in tracing.eig_calls_per_campaign_call(tracer).items()
        }
    record["traced_passes"] = len(passes[True])
    record["traced_ops"] = ops
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workload.prepare(args.setup_only)
        return 0
    golden = load_golden(workload.name)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        order = workload.order(args.seed)
        workload.prepare(workdir)
        step(workload, order[-1], workdir)  # lazy numpy and LAPACK set-up, unmeasured
        if args.trace:
            tracer = tracing.Tracer()
            done, passes, traced_steps = run_traced(
                workload, order, workdir, args.seconds, tracer
            )
        else:
            done, refs, setup_s = run_untraced(workload, order, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_step, drift = check_all(workload, done, golden)
    attempted = sum(ops for ops, _ in per_step)
    failed = sum(bad for _, bad in per_step)
    record = run_record(args, workload)
    record.update(
        steps=len(done),
        ops=attempted,
        failed_frac=failed / attempted,
        drift_rel_max=max(drift.values(), default=0.0),
        drift_per_column=drift,
        setup_runs=SETUP_REPEATS,
    )
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        table = per_layer(workload, tracer, passes, traced_steps, per_step, record)
        tracer.write_spans(os.path.join(OUT, f"spans-{tag}.csv.gz"))
        reported = per_layer_reported()
        missing = [name for name in reported if table[name][0] is None]
        if missing:
            raise SystemExit(f"error: no calls to time for {missing}")
    else:
        table = end_to_end(workload, done, refs, per_step, setup_s, record)
        reported = tuple(END_TO_END)
    table["failed_frac"] = (record["failed_frac"], "frac")
    table["drift_rel_max"] = (record["drift_rel_max"], "frac")
    for name, (value, unit) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in table.items()}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    del record["metrics"]
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
