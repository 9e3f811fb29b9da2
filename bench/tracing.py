"""Span recorder for the traced benchmark run.

Tracing is done from outside the program: the public functions of each
package module are replaced, in every module that bound them by name,
with wrappers that record spans.  Calls into ``model`` and
``PeriodicCoefficient.__call__`` are far too many to record one by one
(about 80k per ``example1`` operation), so those "leaf" calls are
aggregated on the enclosing span as counts and summed time.

A span's self time is its duration minus the part of its interval that
its child spans cover, minus the time of the leaf calls made directly
from it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("cli", "conditions", "coefficients", "model", "integrator", "orbit",
          "averaged")
LEAF_LAYERS = ("model",)
COEFFICIENT_EVALS = "coefficients.evals"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts",
                 "leaf_total", "leaf_self", "info")

    def __init__(self, name, start, parent, op, end=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent            # index into the span list, -1 for a root
        self.op = op                    # operation id
        self.counts = Counter()         # leaf calls made while this span was innermost
        self.leaf_total = defaultdict(float)  # inclusive time of outermost leaf calls
        self.leaf_self = defaultdict(float)   # leaf time net of nested leaf calls
        self.info = {}

    @property
    def leaf_s(self) -> float:
        return sum(self.leaf_total.values())

    def to_dict(self, index) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": dict(self.counts),
                "leaf_s": self.leaf_s,
                "info": {k: float(v) if isinstance(v, Fraction) else v
                         for k, v in self.info.items()}}


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._leaf: list[list] = []     # child-leaf time of each open leaf call
        self.op = -1
        self.period = 1.0               # model period of the current operation

    def begin(self, name) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent, self.op))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def span(self, name, fn, annotate=None):
        """Wrap fn so that each call is a span.  ``annotate(recorder, span,
        arguments, result, exception)`` may add to the span's info."""
        signature = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self.end(index)
                if annotate is not None:
                    annotate(self, self.spans[index],
                             signature.bind(*args, **kwargs).arguments, result, exc)
        return traced

    def leaf(self, key, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            span = self.spans[self._open[-1]]
            span.counts[key] += 1
            nested = [0.0]
            self._leaf.append(nested)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self._leaf.pop()
                span.leaf_self[key] += dt - nested[0]
                if self._leaf:
                    self._leaf[-1][0] += dt
                else:
                    span.leaf_total[key] += dt
        return traced


def _annotate_integrate(rec, span, arguments, result, exc):
    # exact, so that per-period ratios repeat to the last digit
    span.info["periods"] = (Fraction(arguments["t1"] - arguments["t0"])
                            / Fraction(rec.period))
    span.info["sampled"] = arguments.get("t_eval") is not None


def _annotate_newton(rec, span, arguments, result, exc):
    if result is not None:
        span.info["newton_iterations"] = result.newton_iterations
    elif exc is not None and hasattr(exc, "iterations"):
        span.info["newton_iterations"] = exc.iterations


def _annotate_solve(rec, span, arguments, result, exc):
    span.info["converged"] = exc is None


ANNOTATORS = {
    "integrator.integrate": _annotate_integrate,
    "orbit.find_periodic_orbit": _annotate_newton,
    "averaged.solve_averaged": _annotate_solve,
}


def install(rec: Recorder, modules: dict):
    """Wrap every public (not underscored) function of ``modules`` (layer
    name -> module) wherever it is bound by name, and
    PeriodicCoefficient.__call__ on the class.  Returns a function that
    restores the originals."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer in LAYERS:
        mod = modules[layer]
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            key = f"{layer}.{name}"
            wrapper = (rec.leaf(key, fn) if layer in LEAF_LAYERS
                       else rec.span(key, fn, ANNOTATORS.get(key)))
            for caller in modules.values():
                if caller.__dict__.get(name) is fn:
                    patch(caller, name, wrapper)
    cls = modules["coefficients"].PeriodicCoefficient
    patch(cls, "__call__", rec.leaf(COEFFICIENT_EVALS, cls.__call__))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


# --- aggregation ------------------------------------------------------------

def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of every span, in list order."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end) - s.leaf_s
            for i, s in enumerate(spans)]


# name -> (unit, better); the per-layer metrics the traced run reports
PER_LAYER = {
    "orbit.diagnose_extinction.s": ("s", "lower"),
    "orbit.extinction_periods": ("count", "lower"),
    "orbit.newton_iterations": ("count", "lower"),
    "orbit.line_search_probes": ("count", "lower"),
    "orbit.newton_useful_ratio": ("ratio", "higher"),
    "orbit.find_periodic_orbit.self_s": ("s", "lower"),
    "orbit.seed_by_transient.s": ("s", "lower"),
    "orbit.detect_steady_state.s": ("s", "lower"),
    "orbit.self_s": ("s", "lower"),
    "integrator.integrate.calls": ("count", "lower"),
    "integrator.integrate.self_s": ("s", "lower"),
    "integrator.evals_per_period.plain": ("count/period", "lower"),
    "integrator.evals_per_period.sampled": ("count/period", "lower"),
    "integrator.flow_map.calls": ("count", "lower"),
    "integrator.flow_and_monodromy.calls": ("count", "lower"),
    "integrator.write_trajectory_csv.s": ("s", "lower"),
    "integrator.self_s": ("s", "lower"),
    "model.rhs_log.calls": ("count", "lower"),
    "model.rhs_original.calls": ("count", "lower"),
    "model.jac_log.calls": ("count", "lower"),
    "model.jac_original.calls": ("count", "lower"),
    "model.s": ("s", "lower"),
    "model.self_s": ("s", "lower"),
    "coefficients.evals": ("count", "lower"),
    "coefficients.extrema.s": ("s", "lower"),
    "coefficients.self_s": ("s", "lower"),
    "conditions.compute_bounds.s": ("s", "lower"),
    "conditions.self_s": ("s", "lower"),
    "averaged.grid_scan.s": ("s", "lower"),
    "averaged.solve_averaged.s": ("s", "lower"),
    "averaged.solve_averaged.converged_ratio": ("ratio", "higher"),
    "averaged.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


def _ratio(num, den) -> float:
    # a layer that made no attempts on a workload reports 0, not 0/0
    return num / den if den else 0.0


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-operation layer metrics from the spans of n_ops operations.

    ``cli.bytes_written`` and ``trace.overhead_ratio`` are measured
    outside the spans and added by the caller.
    """
    selfs = self_times(spans)
    inclusive = Counter()
    own = Counter()
    calls = Counter()
    layer_self = Counter()
    leaf_calls = Counter()
    model_s = 0.0
    evals = {True: 0, False: 0}
    periods = {True: Fraction(0), False: Fraction(0)}
    newton = probes = extinction = solves = converged = 0
    for span, self_s in zip(spans, selfs):
        inclusive[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
        layer_self[span.name.split(".")[0]] += self_s
        leaf_calls.update(span.counts)
        for key, t in span.leaf_self.items():
            layer_self[key.split(".")[0]] += t
        model_s += sum(t for key, t in span.leaf_total.items() if key.startswith("model."))
        parent = spans[span.parent].name if span.parent >= 0 else None
        if span.name == "integrator.integrate":
            sampled = span.info["sampled"]
            evals[sampled] += span.counts["model.rhs_log"] + span.counts["model.rhs_original"]
            periods[sampled] += span.info["periods"]
            extinction += parent == "orbit.diagnose_extinction"
        elif span.name == "integrator.flow_map":
            probes += parent == "orbit.find_periodic_orbit"
        elif span.name == "orbit.find_periodic_orbit":
            newton += span.info.get("newton_iterations", 0)
        elif span.name == "averaged.solve_averaged":
            solves += 1
            converged += span.info["converged"]

    totals = {
        "orbit.diagnose_extinction.s": inclusive["orbit.diagnose_extinction"],
        "orbit.extinction_periods": extinction,
        "orbit.newton_iterations": newton,
        "orbit.line_search_probes": probes,
        "orbit.find_periodic_orbit.self_s": own["orbit.find_periodic_orbit"],
        "orbit.seed_by_transient.s": inclusive["orbit.seed_by_transient"],
        "orbit.detect_steady_state.s": inclusive["orbit.detect_steady_state"],
        "integrator.integrate.calls": calls["integrator.integrate"],
        "integrator.integrate.self_s": own["integrator.integrate"],
        "integrator.flow_map.calls": calls["integrator.flow_map"],
        "integrator.flow_and_monodromy.calls": calls["integrator.flow_and_monodromy"],
        "integrator.write_trajectory_csv.s": inclusive["integrator.write_trajectory_csv"],
        "model.rhs_log.calls": leaf_calls["model.rhs_log"],
        "model.rhs_original.calls": leaf_calls["model.rhs_original"],
        "model.jac_log.calls": leaf_calls["model.jac_log"],
        "model.jac_original.calls": leaf_calls["model.jac_original"],
        "model.s": model_s,
        "coefficients.evals": leaf_calls[COEFFICIENT_EVALS],
        "coefficients.extrema.s": inclusive["coefficients.extrema"],
        "conditions.compute_bounds.s": inclusive["conditions.compute_bounds"],
        "averaged.grid_scan.s": inclusive["averaged.grid_scan"],
        "averaged.solve_averaged.s": inclusive["averaged.solve_averaged"],
    }
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = layer_self[layer]
    out = {name: value / n_ops for name, value in totals.items()}
    out["orbit.newton_useful_ratio"] = _ratio(newton, probes)
    out["averaged.solve_averaged.converged_ratio"] = _ratio(converged, solves)
    out["integrator.evals_per_period.plain"] = float(_ratio(evals[False], periods[False]))
    out["integrator.evals_per_period.sampled"] = float(_ratio(evals[True], periods[True]))
    return out


def guard(metrics: dict, must_observe) -> dict:
    """Metric entries for the result line.

    A counter that must be non-zero on this workload but reads zero has
    gone blind (for instance a kernel that no longer calls the public
    ``rhs_log``); it is reported as not observed, never as 0, so that it
    cannot read as a 100% saving.
    """
    entries = {}
    for name, (unit, _better) in PER_LAYER.items():
        value = metrics[name]
        if name in must_observe and value == 0:
            entries[name] = {"value": None, "unit": unit, "observed": False}
        else:
            entries[name] = {"value": value, "unit": unit}
    return entries
