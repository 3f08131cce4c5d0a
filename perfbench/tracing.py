"""Spans around the calls into each phaseprop layer, recorded from outside.

The tracer rebinds public functions at the module names their callers look
up (``phaseprop.propagator.integrate_characteristics``,
``phaseprop.cli.apply_propagator``, ...) and wraps the callables of the
models a workload uses.  Nothing under ``src/`` changes.  Each span holds a
layer name, start, end, parent span, operation id and the work counts read
from argument and result shapes.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the durations of its child
spans.  The benchmark's own root span per operation keeps whatever no layer
span covers, so untraced time is reported instead of hidden.
"""
from __future__ import annotations

import dataclasses
import gzip
import json
import os
import time
from contextlib import contextmanager

import phaseprop
from phaseprop import cli, flow, models, oracles, propagator, transform, wkb

MODULES = (phaseprop, cli, flow, models, oracles, propagator, transform, wkb)

ROOT = "op"


def _analysis_counts(args, kwargs, result):
    psi = args[0] if args else kwargs["psi"]
    return {"nodes": result.values.size,
            "kernel_evals": result.values.size * psi.values.size}


def _apply_counts(args, kwargs, result):
    psi0 = args[0] if args else kwargs["Psi0"]
    return {"pairs": psi0.values.size * result.values.size}


def _position_counts(args, kwargs, result):
    return {"outputs": result.values.size}


def _csv_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _integrate_counts(args, kwargs, result):
    return {"steps": len(result.times) - 1, "orbits": 1}


# (defining module, function) -> (layer, counter of work read from shapes)
FUNCTIONS = {
    (cli, "main"): ("cli", None),
    (propagator, "apply_propagator"): ("propagator.apply", _apply_counts),
    (propagator, "position_space_solution"): ("propagator.position", _position_counts),
    (propagator, "kernel_Ksc"): ("propagator.kernel", None),
    (transform, "wave_packet_transform"): ("transform.analysis", _analysis_counts),
    (transform, "husimi_check"): ("transform.husimi", None),
    (transform, "write_field_csv"): ("transform.csv", _csv_counts),
    (flow, "integrate_characteristics"): ("flow.integrate", _integrate_counts),
    (flow, "ehrenfest_guard"): ("flow.ehrenfest", None),
    (wkb, "lift_wkb"): ("wkb.lift", None),
    (wkb, "transport_manifold"): ("wkb.transport", None),
    (wkb, "solution_on_manifold"): ("wkb.solution", None),
    **{(oracles, name): ("oracles", None) for name in oracles.__all__
       if callable(getattr(oracles, name)) and name != "OracleCase"},
}

DERIVATIVES = ("value", "gradient", "hessian")
# closed-form hooks; the flow maps among them count as orbit evaluations
CLOSED_FORMS = {"exact_flow": True, "bulk_flow": True, "inverse_flow": True,
                "bulk_action": False, "frame_at": False}
MODEL_FACTORIES = ("builtin_model", "polynomial_model")

ORBIT = {"orbits": 1}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list = []   # [layer, start, end, parent, op, counts]
        self._stack = [-1]
        self.op = -1

    def wrap(self, fn, layer, counter=None, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, clock(), 0.0, stack[-1], self.op, counts]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def trace_model(self, model):
        """Copy of ``model`` whose callables record spans."""
        hooks = {name: self.wrap(getattr(model, name), "models.derivative")
                 for name in DERIVATIVES}
        for name, is_orbit in CLOSED_FORMS.items():
            fn = getattr(model, name)
            if fn is not None:
                hooks[name] = self.wrap(fn, "models.closed_form",
                                        counts=ORBIT if is_orbit else None)
        return dataclasses.replace(model, **hooks)

    @contextmanager
    def installed(self, workload):
        """Rebind every traced function wherever a phaseprop module
        holds it, and give the workload traced copies of its models."""
        saved = []
        wrappers = {}
        for (home, name), (layer, counter) in FUNCTIONS.items():
            fn = getattr(home, name)
            wrappers[id(fn)] = (fn, self.wrap(fn, layer, counter))
        for name in MODEL_FACTORIES:
            fn = getattr(models, name)
            wrappers[id(fn)] = (fn, self._traced_factory(fn))
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        plain = workload.models
        workload.models = {k: self.trace_model(m) for k, m in plain.items()}
        try:
            yield
        finally:
            workload.models = plain
            for mod, name, obj in saved:
                setattr(mod, name, obj)

    def _traced_factory(self, factory):
        def make(*args, **kwargs):
            return self.trace_model(factory(*args, **kwargs))
        return make

    @contextmanager
    def operation(self, op_id):
        """Root span of one operation."""
        self.op = op_id
        idx = len(self.spans)
        span = [ROOT, time.perf_counter(), 0.0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
            self.op = -1

    def layer_totals(self):
        """Per layer: calls, inclusive and self seconds, summed counts,
        and the orbit evaluations made under each ``wkb.solution`` span."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, t0, t1, parent, _op, _c in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        totals: dict = {}
        for i, (layer, t0, t1, _parent, _op, counts) in enumerate(spans):
            agg = totals.setdefault(layer, {"calls": 0, "incl_s": 0.0,
                                            "self_s": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["incl_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[i]
            for key, val in (counts or {}).items():
                agg["counts"][key] = agg["counts"].get(key, 0) + val
        solution_orbits = 0
        for layer, _t0, _t1, parent, _op, counts in spans:
            if not counts or "orbits" not in counts:
                continue
            while parent >= 0 and spans[parent][0] != "wkb.solution":
                parent = spans[parent][3]
            if parent >= 0:
                solution_orbits += counts["orbits"]
        return totals, solution_orbits

    def write(self, path):
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["layer", "start", "end", "parent", "op",
                                 "counts"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(tracer, n_ops, overhead_ratio):
    """Per-operation layer metrics from the spans of ``n_ops`` traced
    operations; layers that did not run report 0."""
    totals, solution_orbits = tracer.layer_totals()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}}

    def get(layer):
        return totals.get(layer, empty)

    def per_op(x):
        return x / n_ops

    def rate(num, den):
        return num / den if den > 0 else 0.0

    apply, position = get("propagator.apply"), get("propagator.position")
    analysis = get("transform.analysis")
    # the position solver sums over its analysis grid: analysis nodes
    # made under a position span times the output nodes
    position_pairs = _position_pairs(tracer)
    integ, solution = get("flow.integrate"), get("wkb.solution")
    steps = integ["counts"].get("steps", 0)
    m = {
        "propagator.apply.self_s": (per_op(apply["self_s"]), "s/op"),
        "propagator.apply.pairs_per_s": (
            rate(apply["counts"].get("pairs", 0), apply["incl_s"]), "1/s"),
        "propagator.position.self_s": (per_op(position["self_s"]), "s/op"),
        "propagator.position.pairs_per_s": (
            rate(position_pairs, position["incl_s"]), "1/s"),
        "propagator.kernel.calls": (per_op(get("propagator.kernel")["calls"]), "count/op"),
        "propagator.kernel.self_s": (per_op(get("propagator.kernel")["self_s"]), "s/op"),
        "transform.analysis.calls": (per_op(analysis["calls"]), "count/op"),
        "transform.analysis.self_s": (per_op(analysis["self_s"]), "s/op"),
        "transform.analysis.kernel_evals": (
            per_op(analysis["counts"].get("kernel_evals", 0)), "count/op"),
        "transform.husimi.self_s": (per_op(get("transform.husimi")["self_s"]), "s/op"),
        "transform.csv.self_s": (per_op(get("transform.csv")["self_s"]), "s/op"),
        "transform.csv.bytes": (per_op(get("transform.csv")["counts"].get("bytes", 0)), "B/op"),
        "flow.integrate.calls": (per_op(integ["calls"]), "count/op"),
        "flow.integrate.steps": (per_op(steps), "count/op"),
        "flow.integrate.self_s": (per_op(integ["self_s"]), "s/op"),
        "flow.integrate.us_per_step": (1e6 * rate(integ["self_s"], steps), "us"),
        "flow.ehrenfest.self_s": (per_op(get("flow.ehrenfest")["self_s"]), "s/op"),
        "models.derivative.calls": (per_op(get("models.derivative")["calls"]), "count/op"),
        "models.derivative.self_s": (per_op(get("models.derivative")["self_s"]), "s/op"),
        "models.closed_form.calls": (per_op(get("models.closed_form")["calls"]), "count/op"),
        "wkb.solution.calls": (per_op(solution["calls"]), "count/op"),
        "wkb.solution.self_s": (per_op(solution["self_s"]), "s/op"),
        "wkb.solution.flow_calls_per_call": (rate(solution_orbits, solution["calls"]), "count"),
        "wkb.transport.self_s": (per_op(get("wkb.transport")["self_s"]), "s/op"),
        "wkb.lift.self_s": (per_op(get("wkb.lift")["self_s"]), "s/op"),
        "cli.self_s": (per_op(get("cli")["self_s"]), "s/op"),
        "oracles.self_s": (per_op(get("oracles")["self_s"]), "s/op"),
        "op.untraced_s": (per_op(get(ROOT)["self_s"]), "s/op"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


def _position_pairs(tracer):
    spans = tracer.spans
    nodes: dict = {}
    for layer, _t0, _t1, parent, _op, counts in spans:
        if layer == "transform.analysis" and parent >= 0 \
                and spans[parent][0] == "propagator.position":
            nodes[parent] = nodes.get(parent, 0) + counts["nodes"]
    return sum(n * spans[i][5]["outputs"] for i, n in nodes.items())
