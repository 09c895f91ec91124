"""Span tracing of bsdpi from outside the package.

A Tracer replaces, for the duration of a traced pass, every binding of the
covered functions and methods with a wrapper that records one span per call:
the function, start, end, parent span, op id and whether it raised.  The
wrappers are installed on the names as each bsdpi module binds them (for
example ``bsdpi.linalg.herm_eig`` and ``bsdpi.bounds.herm_eig``) and on the
class attributes of the covered methods; numpy is never wrapped.  Spans stay
in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import sys
from time import perf_counter

import numpy as np

# layer (a module of src/bsdpi) -> covered public functions and methods
LAYERS = {
    "linalg": ("herm_eig", "matrix_fn", "pinv", "schatten_norm", "integrate_adaptive"),
    "states": ("gamma", "support_projector", "numerical_rank", "load_state"),
    "channels": (
        "KrausChannel.validate", "KrausChannel.apply", "KrausChannel.adjoint_apply",
        "KrausChannel.stinespring", "Pinching.validate", "Pinching.apply", "load_channel",
    ),
    "divergences": (
        "bs_entropy", "maximal_f", "standard_f", "relative_entropy",
        "regularized_divergence", "bs_entropy_quadrature",
    ),
    "recovery": (
        "stinespring_residual", "condexp_equality_residuals", "equality_residuals",
        "petz_recovery",
    ),
    "bounds": ("bs_bound_channel", "bs_bound_condexp", "maxf_bound"),
    "campaigns": (
        "run_dpi_campaign", "run_channel_bound_campaign", "run_condexp_bound_campaign",
        "run_maxf_campaign", "sample_pair", "sample_channel", "sample_condexp", "write_csv",
    ),
    "cli": ("main",),
}

# every module whose namespace may hold a binding of a covered function
MODULES = ("bsdpi",) + tuple(f"bsdpi.{layer}" for layer in LAYERS)

NAMES = tuple(f"{layer}.{qual}" for layer, quals in LAYERS.items() for qual in quals)
HERM_EIG = NAMES.index("linalg.herm_eig")
INTEGRATE = NAMES.index("linalg.integrate_adaptive")
STANDARD_F = NAMES.index("divergences.standard_f")
CAMPAIGN_RUNS = tuple(
    NAMES.index(f"campaigns.{q}") for q in LAYERS["campaigns"] if q.startswith("run_")
)


def _resolve(layer: str, qual: str):
    """(owner, attribute, original) of a covered name in its defining module."""
    owner = importlib.import_module(f"bsdpi.{layer}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    # class attributes are read from __dict__ so methods stay plain functions
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Records spans of the covered bsdpi functions while installed."""

    def __init__(self):
        self.spans: list = []  # (fid, t0, t1, parent, op, raised, excluded)
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original)
        self.op = -1
        self._seen: set = set()
        self.eig_repeats = 0
        self.eig_d3 = 0
        self.integrand_evals = 0
        self.integrations = 0

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for fid, name in enumerate(NAMES):
            layer, qual = name.split(".", 1)
            owner, attr, original = _resolve(layer, qual)
            wrapper = self._wrap(fid, original)
            wrappers[id(original)] = wrapper
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for modname in MODULES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()

    def begin_op(self, op: int) -> None:
        """Start a new op; input repeats are counted within one op."""
        self.op = op
        self._seen.clear()

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fid: int, fn):
        spans = self.spans
        stack = self._stack

        if fid == HERM_EIG:
            def before(args, kwargs):
                a = np.asarray(args[0] if args else kwargs["a"], dtype=complex)
                key = hashlib.blake2b(
                    repr(a.shape).encode() + a.tobytes(), digest_size=16
                ).digest()
                if key in self._seen:
                    self.eig_repeats += 1
                self._seen.add(key)
                self.eig_d3 += a.shape[0] ** 3 if a.ndim else 0
                return args, kwargs
        elif fid == INTEGRATE:
            def before(args, kwargs):
                g = args[0]
                if not getattr(g, "_bench_counted", False):
                    self.integrations += 1

                    def counted(t, _g=g):
                        self.integrand_evals += 1
                        return _g(t)

                    counted._bench_counted = True
                    args = (counted,) + tuple(args[1:])
                return args, kwargs
        else:
            before = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = perf_counter()
            excluded = 0.0
            if before is not None:
                args, kwargs = before(args, kwargs)
                excluded = perf_counter() - t0
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[index] = (fid, t0, t1, parent, self.op, raised, excluded)

        return wrapper

    # -- results ------------------------------------------------------------
    def arrays(self) -> dict:
        """Span columns as numpy arrays, with inclusive and self durations."""
        spans = self.spans
        fid = np.array([s[0] for s in spans], dtype=np.int64)
        t0 = np.array([s[1] for s in spans])
        t1 = np.array([s[2] for s in spans])
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        raised = np.array([s[5] for s in spans], dtype=bool)
        excluded = np.array([s[6] for s in spans])
        covered = np.zeros(len(spans))
        has_parent = parent >= 0
        # a child's whole interval, tracing work included, lies inside its parent
        np.add.at(covered, parent[has_parent], (t1 - t0)[has_parent])
        inclusive = t1 - t0 - excluded
        return {
            "fid": fid, "t0": t0, "t1": t1, "parent": parent, "raised": raised,
            "inclusive": inclusive, "self": inclusive - covered,
        }

    def write_spans(self, path: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start_us,end_us,parent,op,raised\n")
            for fid, t0, t1, parent, op, raised, _ in self.spans:
                fh.write(
                    f"{NAMES[fid]},{(t0 - base) * 1e6:.3f},{(t1 - base) * 1e6:.3f},"
                    f"{parent},{op},{int(raised)}\n"
                )


def per_layer_metrics(tracer: Tracer, ops: int, wall_s: float) -> dict:
    """Every per-layer statistic of a traced run, keyed by metric name.

    ``ops`` is the number of ops (rows or requests) the traced passes ran and
    ``wall_s`` their summed wall time.  A function that was never called has
    no mean time per call; its ``us_per_call`` is None.
    """
    a = tracer.arrays()
    fid = a["fid"]
    calls = np.bincount(fid, minlength=len(NAMES))
    inclusive = np.bincount(fid, weights=a["inclusive"], minlength=len(NAMES))
    self_time = np.bincount(fid, weights=a["self"], minlength=len(NAMES))
    out: dict = {}
    layer_self: dict = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls_per_op"] = (int(calls[i]) / ops, "count")
        mean = float(inclusive[i]) / calls[i] * 1e6 if calls[i] else None
        out[f"{name}.us_per_call"] = (mean, "us")
        layer_self[name.split(".", 1)[0]] += float(self_time[i])
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_frac"] = (seconds / wall_s, "frac")
    eig_calls = int(calls[HERM_EIG])
    out["linalg.herm_eig.repeat_frac"] = (
        tracer.eig_repeats / eig_calls if eig_calls else 0.0, "frac"
    )
    out["linalg.herm_eig.d3_per_op"] = (tracer.eig_d3 / ops, "d3/op")
    out["linalg.integrate_adaptive.evals_per_call"] = (
        tracer.integrand_evals / tracer.integrations if tracer.integrations else 0.0,
        "count",
    )
    std = fid == STANDARD_F
    out["divergences.standard_f.raise_frac"] = (
        float(a["raised"][std].mean()) if std.any() else 0.0, "frac"
    )
    return out


def eig_calls_per_campaign_call(tracer: Tracer) -> dict:
    """herm_eig calls under each campaign run, keyed by campaign name.

    Each value is the list of per-invocation counts, so a caller can divide
    by the trials of that invocation.
    """
    a = tracer.arrays()
    fid, parent = a["fid"], a["parent"]
    # nearest enclosing campaign span of every span (-1 when none)
    owner = np.full(len(fid), -1, dtype=np.int64)
    for i in range(len(fid)):
        if fid[i] in CAMPAIGN_RUNS:
            owner[i] = i
        elif parent[i] >= 0:
            owner[i] = owner[parent[i]]
    counts: dict = {}
    for i in np.flatnonzero(np.isin(fid, CAMPAIGN_RUNS)):
        n = int(np.count_nonzero((owner == i) & (fid == HERM_EIG)))
        counts.setdefault(NAMES[fid[i]], []).append(n)
    return counts
