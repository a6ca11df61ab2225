"""Per-layer tracing from outside the package.

The tracer replaces public functions at the module attributes coulombgas
looks them up through (norms.solve_r_tau, partition.log_norm_exact,
equilibrium.integrate, ...) and the evaluation methods of every potential
class with wrappers that open a span.  Each span has a layer (the module
that defines the function), a name and a parent; a span opened on a pool
thread names the span that submitted the work.  Spans are folded into
per-layer counters as they close, so memory does not grow with run length.

A span's self time is its duration minus the union of its child intervals.
Children on one thread never overlap; children on pool threads can, and the
part of their summed time that overlaps is reported as concurrency excess,
so that  sum(self) - excess == wall  for a run wrapped in one root span.
"""

import functools
import importlib
import inspect
import threading
import time

import numpy as np

LAYERS = ("potential", "droplet", "quadrature", "norms", "partition",
          "equilibrium", "oracles", "specialfn", "cli")

POTENTIAL_METHODS = ("q_derivs", "laplacian", "laplacian_dr", "laplacian_dr2",
                     "q_at_zero", "laplacian_at_zero")

# Attributes named by the per-layer metrics; one that a later version of the
# package drops is reported as absent, not as an error.
EXPECTED = (
    "norms.solve_r_tau", "norms.integrate", "equilibrium.integrate",
    "partition.log_norm_exact", "droplet.solve_r_tau", "droplet.droplet_of",
    "partition.log_z_exact", "partition.lemma_sum", "partition.convergence_study",
    "partition.expansion_terms", "oracles.ln_barnes_g", "cli.main",
)

# Inclusive durations are kept only where a metric needs their median.
KEEP_DURATIONS = {("norms", "log_norm_exact")}

# Kronrod points per panel in coulombgas.quadrature.
PANEL_POINTS = 15


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(start, end, children):
    """(self time, concurrency excess) of a span with the given child intervals."""
    covered = union_length(children)
    excess = sum(b - a for a, b in children) - covered
    return (end - start) - covered, excess


class _Frame:
    __slots__ = ("layer", "name", "parent", "t0", "children")

    def __init__(self, layer, name, parent, t0):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.children = []


class Tracer:
    """Collects spans into per-(layer, name) totals: calls, self and
    inclusive seconds, failures, plus quadrature and potential counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.totals = {}
        self.durations = {key: [] for key in KEEP_DURATIONS}
        self.excess = 0.0
        self.quad = {"calls": 0, "rounds": 0, "panels": 0.0, "final_panels": 0.0,
                     "failed": 0, "fail_s": 0.0, "integrand_s": 0.0}
        self.panels_by_caller = {}
        self.potential_points = 0
        self.absent = []

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def enter(self, layer, name):
        frame = _Frame(layer, name, self.current(), self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame, failed=False):
        """Close the innermost span; returns its inclusive duration."""
        t1 = self.clock()
        self._stack().pop()
        dur = t1 - frame.t0
        with self._lock:
            if frame.children:
                own, excess = self_time(frame.t0, t1, frame.children)
            else:
                own, excess = dur, 0.0
            row = self.totals.setdefault((frame.layer, frame.name), [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += own
            row[2] += dur
            row[3] += bool(failed)
            self.excess += excess
            if (frame.layer, frame.name) in self.durations:
                self.durations[(frame.layer, frame.name)].append(dur)
            if frame.parent is not None:
                frame.parent.children.append((frame.t0, t1))
        return dur

    def span(self, layer, name, fn, *args, **kwargs):
        frame = self.enter(layer, name)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self.exit(frame, failed=not ok)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer):
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(layer, name, fn, *args, **kwargs)

        return wrapper

    def _wrap_integrate(self, fn, caller):
        """quadrature.integrate as seen from module `caller`: the integrand it
        is handed runs as a span of the caller's layer and is counted."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            frame = tracer.enter("quadrature", "integrate")
            state = [0, 0, 0]  # rounds, points, first-round points

            def integrand(x):
                sub = tracer.enter(caller, "integrand")
                ok = False
                try:
                    y = f(x)
                    ok = True
                    return y
                finally:
                    dur = tracer.exit(sub, failed=not ok)
                    points = len(x)
                    with tracer._lock:
                        state[0] += 1
                        state[1] += points
                        if state[0] == 1:
                            state[2] = points
                        tracer.quad["integrand_s"] += dur

            ok = False
            try:
                out = fn(integrand, *args, **kwargs)
                ok = True
                return out
            finally:
                dur = tracer.exit(frame, failed=not ok)
                rounds, points, first = state
                panels = points / PANEL_POINTS
                first_panels = first / PANEL_POINTS
                with tracer._lock:
                    q = tracer.quad
                    q["calls"] += 1
                    q["rounds"] += rounds
                    q["panels"] += panels
                    # Each split evaluates two new panels and adds one net.
                    q["final_panels"] += first_panels + (panels - first_panels) / 2.0
                    if not ok:
                        q["failed"] += 1
                        q["fail_s"] += dur
                    tracer.panels_by_caller[caller] = (
                        tracer.panels_by_caller.get(caller, 0.0) + panels)

        return wrapper

    def _wrap_method(self, fn, cls_name):
        tracer = self
        name = f"{cls_name}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            points = np.size(args[0]) if args else 1
            with tracer._lock:
                tracer.potential_points += points
            return tracer.span("potential", name, fn, self_, *args, **kwargs)

        return wrapper

    def _executor(self, base):
        tracer = self

        class TracedExecutor(base):
            """Pool whose tasks open their spans under the submitting span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.base = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.base = None

                return super().submit(run, *args, **kwargs)

        return TracedExecutor

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self, package):
        """Wrap every public package function at every module attribute that
        refers to it, the potential classes' evaluation methods, and the
        thread pool the partition module uses, if it still has one."""
        modules = {"bench": package}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ImportError:
                continue
        prefix = package.__name__ + "."
        for caller, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                layer = obj.__module__[len(prefix):]
                if layer == "quadrature" and obj.__name__ == "integrate":
                    self._patch(mod, attr, self._wrap_integrate(obj, caller))
                else:
                    self._patch(mod, attr, self._wrap(obj, layer))
        pot = modules.get("potential")
        if pot is not None:
            for obj in list(vars(pot).values()):
                if inspect.isclass(obj) and issubclass(obj, pot.RadialPotential):
                    for meth in POTENTIAL_METHODS:
                        if meth in vars(obj):
                            self._patch(obj, meth, self._wrap_method(vars(obj)[meth], obj.__name__))
        part = modules.get("partition")
        if part is not None and hasattr(part, "ThreadPoolExecutor"):
            self._patch(part, "ThreadPoolExecutor", self._executor(part.ThreadPoolExecutor))
        self.absent = []
        for path in EXPECTED:
            layer, attr = path.split(".")
            if not hasattr(modules.get(layer), attr):
                self.absent.append(path)
        return self

    def uninstall(self):
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    # -- results ----------------------------------------------------------

    def layer_self(self, layer):
        return sum(row[1] for (lay, _), row in self.totals.items() if lay == layer)

    def layer_calls(self, layer):
        return sum(row[0] for (lay, _), row in self.totals.items() if lay == layer)

    def row(self, layer, name):
        return self.totals.get((layer, name), [0, 0.0, 0.0, 0])
