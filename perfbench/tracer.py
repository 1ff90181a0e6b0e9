"""Span tracer for one benchmark pass, installed from outside the package.

The tracer wraps every public function of the traced fracstep modules,
plus the two ``ModeSegment`` evaluators, and rebinds each wrapper at
every place the original is looked up: ``fracstep.solver`` imports
``ml_values`` and the quadrature rules by name, so patching only the
defining module would count nothing the solver does.  Each call becomes
a span with its parent and the phase of the pass it ran in; self time is
the span's duration minus the intervals its child spans cover, including
the tracer's own bookkeeping in the child, so self times are exact.
``uninstall`` puts every original function back.
"""

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

#: Modules whose public functions are traced.
LAYERS = ("special", "quadrature", "solver", "l1", "verify", "config")

#: Methods traced in addition to the module-level functions.
METHODS = (("solver", "ModeSegment", "value"),
           ("solver", "ModeSegment", "derivative"))


def _argument(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs[name]


class Tracer:
    """Collects spans and per-call counts in memory for one pass."""

    def __init__(self):
        self.spans = []          # (name, parent, phase, t0, t1, outer0, outer1)
        self.counts = defaultdict(float)  # (phase, counter) -> amount
        self.wrapped = set()
        self._stack = []
        self._phase = "setup"
        self._patches = []       # (owner, attribute, original)
        self._ml_points = defaultdict(list)
        self._band_edges = None

    # -- installation -------------------------------------------------
    def install(self):
        """Wrap the traced callables wherever fracstep binds them."""
        from fracstep import special

        self._band_edges = (getattr(special, "ML_SERIES_YMAX", None),
                            getattr(special, "ML_ASYM_YMIN", None))
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"fracstep.{layer}")
            for attr, value in vars(module or object).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, f"{layer}.{attr}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fracstep" or name.startswith("fracstep.")]
        wrappers = {key: self._wrap(original, name)
                    for key, (original, name) in originals.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, cls_name, method in METHODS:
            module = sys.modules.get(f"fracstep.{layer}")
            cls = getattr(module, cls_name, None)
            original = getattr(cls, method, None) if cls else None
            if original is None:
                continue
            self._patches.append((cls, method, original))
            setattr(cls, method,
                    self._wrap(original, f"{layer}.{cls_name}.{method}"))

    def uninstall(self):
        """Restore every original binding, in reverse patch order; a
        second call does nothing."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------
    def phase(self, name):
        """Attribute the following calls to phase ``name``."""
        self._phase = name

    def _wrap(self, fn, name):
        self.wrapped.add(name)
        note = _NOTES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer0 = clock()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if note is not None:
                    try:
                        note(self, args, kwargs)
                    except (TypeError, ValueError, KeyError, IndexError,
                            AttributeError):
                        # a changed signature loses the counter, not the run
                        self.count(f"{name}.unrecorded")
                spans[index] = (name, parent, self._phase, t0, t1,
                                outer0, clock())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def count(self, counter, amount=1):
        self.counts[(self._phase, counter)] += amount

    def _note_ml_values(self, args, kwargs):
        alpha = float(_argument(args, kwargs, 0, "alpha"))
        beta = float(_argument(args, kwargs, 1, "beta"))
        z = np.asarray(_argument(args, kwargs, 2, "z"), dtype=float).ravel()
        self.count("special.ml_values.points", z.size)
        self._ml_points[(alpha, beta)].append(z.copy())
        ymax, ymin = self._band_edges
        if ymax is None or ymin is None or z.size == 0:
            return
        x = -z
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.where(x > 0.0, x, 1.0) ** (1.0 / alpha)
        taylor = (x == 0.0) | (y <= ymax)
        asym = ~taylor & (y >= ymin)
        self.count("special.ml_values.points_taylor", int(taylor.sum()))
        self.count("special.ml_values.points_asym", int(asym.sum()))
        self.count("special.ml_values.points_mid",
                   z.size - int(taylor.sum()) - int(asym.sum()))

    # -- summaries ----------------------------------------------------
    def summary(self):
        """Calls and times per phase and span name, counters per phase,
        and the number of distinct Mittag-Leffler points."""
        by_phase = {}
        for (phase, name), row in self.layer_table().items():
            by_phase.setdefault(phase, {})[name] = row
        counts = {}
        for (phase, counter), amount in self.counts.items():
            counts.setdefault(phase, {})[counter] = amount
        return {"by_phase": by_phase, "counts": counts,
                "distinct_ml_points": self.distinct_ml_points(),
                "wrapped": sorted(self.wrapped)}

    def distinct_ml_points(self):
        """Distinct ``(alpha, beta, z)`` triples over all recorded calls."""
        return sum(int(np.unique(np.concatenate(chunks)).size)
                   for chunks in self._ml_points.values())

    def layer_table(self):
        """Per (phase, span name): calls, total and self seconds."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                covered[span[1]] += span[6] - span[5]
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0})
        for index, span in enumerate(self.spans):
            if span is None:   # a span still open: nothing to attribute
                continue
            name, _, phase, t0, t1 = span[:5]
            row = table[(phase, name)]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered[index]
        return table


def _note_duhamel(tracer, args, kwargs):
    nodes = _argument(args, kwargs, 2, "nodes")
    tracer.count("quadrature.duhamel_convolve.nodes", np.size(nodes))


def _note_l1(tracer, args, kwargs):
    grid = _argument(args, kwargs, 4, "grid")
    tracer.count("l1.solve_mode_l1.steps", grid.num_steps)


_NOTES = {
    "special.ml_values": Tracer._note_ml_values,
    "quadrature.duhamel_convolve": _note_duhamel,
    "l1.solve_mode_l1": _note_l1,
}
