"""Outside-in per-layer tracing of the enrichci package.

The tracer replaces selected module attributes with timing wrappers, at the
place where each caller looks the name up (``enrichci.batch.cond_cdf`` and
``enrichci._kernels.cond_cdf`` are separate lookups of one function), and
puts every original back on ``restore``. Nothing under ``src/`` is edited.

Each wrapped call becomes a span (name, start, end, parent) kept in memory;
self time is a span's duration minus the time its child spans cover. Spans
nest on one stack, so traced runs must keep the engine single-threaded
(``ENRICH_CI_THREADS=1``).
"""

import math
from array import array
from time import perf_counter_ns

import numpy as np

# Span name -> (module, attribute) lookups that route to it. Names that a
# later version of the package no longer has are skipped and reported, so
# the trace keeps working across refactors of the traced code.
SPANS = {
    "normal.owens_t": [("_normal", "owens_t")],
    "normal.bvn_cdf": [("_kernels", "bvn_cdf")],
    "kernels.cond_cdf": [("_kernels", "cond_cdf"), ("batch", "cond_cdf")],
    "kernels.cond_pdf": [("_kernels", "cond_pdf"), ("batch", "cond_pdf")],
    "kernels.cond_partial_moment": [
        ("_kernels", "cond_partial_moment"), ("batch", "cond_partial_moment"),
    ],
    "kernels.cond_quantile": [
        ("_kernels", "cond_quantile"), ("batch", "cond_quantile"),
    ],
    "kernels.cond_mean": [("_kernels", "cond_mean"), ("batch", "cond_mean")],
    "kernels.deep": [
        ("_kernels", "_deep_cdf"), ("_kernels", "_deep_partial_moment"),
    ],
    "batch.umau_ci": [("batch", "batch_umau_ci")],
    "batch.umau_endpoint": [("batch", "batch_umau_endpoint")],
    "batch.solve_umpu": [("batch", "batch_solve_umpu")],
    "batch.ctost_ci": [("batch", "batch_ctost_ci")],
    "intervals.umau_ci": [("designs", "umau_ci"), ("sim", "umau_ci")],
    "intervals.ctost_ci": [("designs", "ctost_ci"), ("sim", "ctost_ci")],
    "intervals.brentq": [("intervals", "brentq")],
    "designs.decide": [
        ("sim", "apply_d1"), ("sim", "apply_d2"),
        ("sim", "apply_kimani2015"), ("sim", "apply_kimani2018"),
    ],
    "designs.confidence_intervals": [
        ("designs", "confidence_intervals"), ("cli", "confidence_intervals"),
    ],
    "sim.run_scenario": [("cli", "run_scenario"), ("sim", "run_scenario")],
    "sim.retry_scalar": [("sim", "_retry_scalar")],
    "cli.main": [("cli", "main")],
}

# ConditionalNormal entry points, counted (not timed) as ``condnorm.calls``.
CONDNORM_METHODS = (
    "__post_init__", "pdf", "logpdf", "cdf", "quantile", "mean",
    "partial_moment",
)

ROOT_SPAN = "bench.op"

# Spans reported with ns_per_elem (the numerical kernels), then the solver
# and trial layers reported with calls/elements/self time.
KERNEL_SPANS = (
    "normal.bvn_cdf", "normal.owens_t", "kernels.cond_cdf",
    "kernels.cond_pdf", "kernels.cond_partial_moment",
    "kernels.cond_quantile", "kernels.cond_mean",
)
SOLVER_SPANS = (
    "batch.umau_ci", "batch.umau_endpoint", "batch.solve_umpu",
    "batch.ctost_ci", "intervals.umau_ci", "intervals.ctost_ci",
    "designs.decide", "designs.confidence_intervals",
)


def broadcast_size(args, kwargs):
    """Broadcast size of the ndarray arguments of one call (1 if none)."""
    shapes = [a.shape for a in args if isinstance(a, np.ndarray)]
    shapes += [a.shape for a in kwargs.values() if isinstance(a, np.ndarray)]
    if not shapes:
        return 1
    first = shapes[0]
    if all(s == first for s in shapes):
        return math.prod(first)
    return math.prod(np.broadcast_shapes(*shapes))


def _fallback_rows(args, kwargs):
    # _retry_scalar(method, idx_bad, ...): one scalar solve per bad row.
    return len(args[1])


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names = [ROOT_SPAN] + list(SPANS)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        # name -> [calls, elements, self_ns]
        self.stats = {n: [0, 0, 0] for n in self.names}
        self.condnorm_calls = 0
        self.converged = [0, 0]  # ok elements, elements (batch umau/tost)
        self.missing = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack = []  # frames: [span index, child ns]
        self._patches = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        frame = [idx, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, stat, t0, t1):
        self._stack.pop()
        idx = frame[0]
        dur = t1 - t0
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        stat[0] += 1
        stat[2] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name, fn, elements=broadcast_size, on_result=None):
        name_id = self._name_id[name]
        stat = self.stats[name]

        def traced(*args, **kwargs):
            stat[1] += elements(args, kwargs)
            frame = self._open(name_id)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, stat, t0, perf_counter_ns())
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as one benchmark operation (a root span)."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def _count_converged(self, result):
        ok = np.asarray(result[2])
        self.converged[0] += int(np.count_nonzero(ok))
        self.converged[1] += ok.size

    def _counter(self, fn):
        def counted(*args, **kwargs):
            self.condnorm_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package):
        """Patch every traced lookup in ``package`` (the enrichci module)."""
        modules = {
            m: getattr(package, m)
            for m in ("_normal", "_kernels", "batch", "intervals", "designs",
                      "sim", "cli")
        }
        wrapped = {}  # original function -> wrapper, so lookups share stats
        for name, lookups in SPANS.items():
            for mod, attr in lookups:
                owner = modules[mod]
                if not hasattr(owner, attr):
                    self.missing.append(f"{mod}.{attr}")
                    continue
                fn = getattr(owner, attr)
                if fn not in wrapped:
                    kwargs = {}
                    if name == "sim.retry_scalar":
                        kwargs["elements"] = _fallback_rows
                    if name in ("batch.umau_ci", "batch.ctost_ci"):
                        kwargs["on_result"] = self._count_converged
                    wrapped[fn] = self.wrap(name, fn, **kwargs)
                self._patch(owner, attr, wrapped[fn])
        cls = modules["designs"].ConditionalNormal
        for meth in CONDNORM_METHODS:
            if meth in vars(cls):
                self._patch(cls, meth, self._counter(vars(cls)[meth]))
            else:
                self.missing.append(f"ConditionalNormal.{meth}")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def self_seconds(self):
        return {n: s[2] * 1e-9 for n, s in self.stats.items()}

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}, in PER_LAYER order."""
        stats = self.stats
        out = {}

        def span(name, fields):
            calls, elements, self_ns = stats[name]
            values = {
                "calls": (calls, "count"),
                "elements": (elements, "count"),
                "self_s": (self_ns * 1e-9, "s"),
                "ns_per_elem": (self_ns / elements if elements else 0.0, "ns"),
            }
            for f in fields:
                out[f"{name}.{f}"] = values[f]

        for name in KERNEL_SPANS:
            span(name, ("calls", "elements", "self_s", "ns_per_elem"))
        span("kernels.deep", ("elements", "self_s"))
        kernel_elems = (stats["kernels.cond_cdf"][1]
                        + stats["kernels.cond_partial_moment"][1])
        deep_elems = stats["kernels.deep"][1]
        out["kernels.deep_frac"] = (
            deep_elems / kernel_elems if kernel_elems else 0.0, "ratio")
        for name in SOLVER_SPANS:
            span(name, ("calls", "elements", "self_s"))
        ok, total = self.converged
        # No batch solve means no element failed to converge.
        out["batch.converged_frac"] = (ok / total if total else 1.0, "ratio")
        span("intervals.brentq", ("calls",))
        out["condnorm.calls"] = (self.condnorm_calls, "count")
        span("sim.run_scenario", ("self_s",))
        out["sim.scalar_fallbacks"] = (stats["sim.retry_scalar"][1], "count")
        span("cli.main", ("self_s",))
        return out

    def spans(self):
        """Recorded spans as arrays (times in ns from the first span)."""
        start = np.frombuffer(self.span_start, dtype=np.int64)
        t0 = start.min() if start.size else 0
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start_ns": start - t0,
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64) - t0,
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
        }
