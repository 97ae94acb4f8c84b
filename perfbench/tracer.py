"""Span tracing of the degenpde layers from outside the package.

The layers are the package modules.  `Tracer.install` wraps every public
function of each layer module, and every public method of the `spaces`
classes.  Modules import each other with `from .x import f`, so each
wrapper replaces the function at every module attribute that holds it
(for example `degenpde.cli.complete_structure` and
`degenpde.reduction.complete_structure` both get the chains wrapper).
The `f` callable that `instantiate` returns is wrapped too, as the span
`problems.f_sample`.

Each span records its name, start, end and parent; a span's self time is
its duration minus the durations of its direct children.  With
`memory=True` each span also records the peak traced bytes allocated
above its starting level (tracemalloc).  tracemalloc slows Python-heavy
code such as CSV formatting several times over, so times come from
passes traced without it and peak bytes from a separate pass with it.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("cli", "problems", "chains", "reduction", "solvers", "fd",
          "spaces", "expressions")
SPACES_CLASSES = ("InnerProductSpace", "FiniteOperator")
MB = float(1 << 20)


class Span:
    __slots__ = ("name", "parent", "start", "end", "base", "peak", "child_s")

    def __init__(self, name, parent, start, base):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.base = base
        self.peak = base
        self.child_s = 0.0

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    @property
    def peak_bytes(self):
        return self.peak - self.base


class Tracer:
    """Installs the wrappers, records spans and restores the originals."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.oracle_outcomes = []
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self._stack[-1]
                top.peak = max(top.peak, peak)
            tracemalloc.reset_peak()
        span = Span(name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), cur)
        self._stack.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            span.peak = max(span.peak, peak)
            if span.parent is not None:
                span.parent.peak = max(span.parent.peak, span.peak)
            tracemalloc.reset_peak()
        self.spans.append(span)

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if on_return is not None:
                on_return(result)
            return result
        return traced

    def take(self):
        """Spans finished since the last call, in finishing order."""
        spans, outcomes = list(self.spans), list(self.oracle_outcomes)
        self.spans.clear()
        self.oracle_outcomes.clear()
        return spans, outcomes

    # -- installation ------------------------------------------------------

    def install(self):
        import degenpde  # noqa: F401  (loads every layer module)

        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "degenpde" or n.startswith("degenpde."))]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"degenpde.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "problems.instantiate":
                    wrapper = self.wrap(name, fn, self._wrap_f)
                elif name == "problems.evaluate_oracle":
                    wrapper = self.wrap(name, fn, self.oracle_outcomes.append)
                else:
                    wrapper = self.wrap(name, fn)
                originals[id(fn)] = (fn, wrapper)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))
        spaces = sys.modules["degenpde.spaces"]
        for cls_name in SPACES_CLASSES:
            cls = getattr(spaces, cls_name)
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                setattr(cls, attr, self.wrap(f"spaces.{cls_name}.{attr}", fn))
                self._restore.append((cls, attr, fn))
        if self.memory:
            tracemalloc.start()

    def _wrap_f(self, spec):
        spec.f = self.wrap("problems.f_sample", spec.f)

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore = []


def total_seconds(spans, name):
    """Inclusive time of the outermost spans called `name`."""
    return sum(s.duration for s in spans if s.name == name
               and not _has_ancestor(s, name))


def _has_ancestor(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _under(span, name):
    return span.name == name or _has_ancestor(span, name)


def pass_metrics(spans, outcomes, csv_bytes):
    """Time, count and oracle metrics of one pass traced without
    tracemalloc, as {name: (value, unit)}."""
    calls = Counter(s.name for s in spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(s.self_s for s in spans
                                      if s.layer == layer), "s")
    for name in ("problems.load_problem", "problems.instantiate",
                 "problems.f_sample", "problems.evaluate_oracle",
                 "chains.complete_structure", "chains.structure_report",
                 "chains.certify_operators", "reduction.reduce",
                 "reduction.residual_check", "solvers.write_solution_csv",
                 "fd.derivative_along_axis", "spaces.FiniteOperator.null_basis",
                 "spaces.FiniteOperator.adjoint_matrix", "expressions.evaluate"):
        out[name.replace("FiniteOperator.", "") + "_s"] = (total_seconds(spans, name), "s")
    # solvers work of the solve itself: f sampling, reduction and fd
    # calls made from inside the back-end are their own layers' time
    out["solvers.solve_family_s"] = (
        sum(s.self_s for s in spans
            if s.layer == "solvers" and _under(s, "solvers.solve_family")), "s")
    for name in ("problems.f_sample", "chains.certify_operators",
                 "chains.commutability_matrix", "fd.derivative_matrix",
                 "spaces.InnerProductSpace.cholesky_factor",
                 "expressions.evaluate"):
        out[name.replace("InnerProductSpace.", "") + "_calls"] = (calls[name], "count")
    out["solvers.csv_mb"] = (csv_bytes / MB, "MB")
    # share of the tolerance the worst oracle verdict used; 0 with no oracle
    out["problems.oracle_tol_used"] = (
        max((o.deviation / o.tol for o in outcomes), default=0.0), "ratio")
    return out


def memory_metrics(spans):
    """Peak traced bytes of the memory-heavy spans of one pass traced with
    tracemalloc, as {name: (value, unit)}."""
    out = {}
    for name in ("reduction.residual_check", "fd.derivative_matrix"):
        peak = max((s.peak_bytes for s in spans if s.name == name), default=0)
        out[f"{name}_peak_mb"] = (peak / MB, "MB")
    return out


# Which end-to-end metric each per-layer metric should move, and on which
# workloads; written down before any optimisation is measured.
LAYER_MAP = {
    "cli.self_s": ("pass_s", ["corner"]),
    "problems.self_s": ("pass_s", ["spectral"]),
    "problems.load_problem_s": ("setup_s", ["all"]),
    "problems.instantiate_s": ("setup_s", ["all"]),
    "problems.f_sample_s": ("pass_s", ["spectral"]),
    "problems.f_sample_calls": ("pass_s", ["spectral", "zero on pencil"]),
    "problems.evaluate_oracle_s": ("pass_s", ["evolution"]),
    "problems.oracle_tol_used": ("none; flags a change of the numbers", ["all"]),
    "chains.self_s": ("pass_s", ["pencil"]),
    "chains.complete_structure_s": ("pass_s", ["pencil"]),
    "chains.structure_report_s": ("pass_s", ["pencil"]),
    "chains.certify_operators_s": ("pass_s", ["pencil", "evolution"]),
    "chains.certify_operators_calls": ("pass_s", ["pencil", "evolution"]),
    "chains.commutability_matrix_calls": ("pass_s", ["pencil", "evolution"]),
    "reduction.self_s": ("pass_s", ["evolution"]),
    "reduction.reduce_s": ("pass_s (small; predict no change)",
                           ["spectral", "evolution"]),
    "reduction.residual_check_s": ("pass_s", ["evolution", "spectral"]),
    "reduction.residual_check_peak_mb": ("peak_rss_mb", ["evolution", "spectral"]),
    "solvers.self_s": ("pass_s", ["evolution", "spectral", "corner"]),
    "solvers.solve_family_s": ("pass_s", ["evolution", "spectral"]),
    "solvers.write_solution_csv_s": ("pass_s", ["corner"]),
    "solvers.csv_mb": ("pass_s", ["corner"]),
    "fd.self_s": ("pass_s", ["evolution"]),
    "fd.derivative_along_axis_s": ("pass_s", ["evolution"]),
    "fd.derivative_matrix_calls": ("pass_s", ["evolution"]),
    "fd.derivative_matrix_peak_mb": ("peak_rss_mb", ["evolution"]),
    "spaces.self_s": ("pass_s", ["pencil"]),
    "spaces.cholesky_factor_calls": ("pass_s", ["pencil"]),
    "spaces.null_basis_s": ("pass_s", ["pencil"]),
    "spaces.adjoint_matrix_s": ("pass_s", ["pencil"]),
    "expressions.self_s": ("pass_s", ["corner", "spectral"]),
    "expressions.evaluate_s": ("pass_s, setup_s", ["corner", "spectral"]),
    "expressions.evaluate_calls": ("pass_s, setup_s", ["corner", "spectral"]),
    "trace.pass_s": ("none", ["all"]),
    "trace.overhead_s": ("none", ["all"]),
}
