"""Span tracing of the infoqm layers, installed from outside the program.

``Tracer.install`` replaces every public function and public classmethod
of the seven layer modules with a wrapper that records one span (name,
start, end, parent) per call, then rebinds the wrapper wherever the
original object was bound inside the package, so calls made through
``from .x import f`` bindings and module globals are traced too.  The
program's source is not changed; ``uninstall`` puts the originals back.

Spans live in flat arrays for one pass and are reduced to per-name
totals by ``end_pass``; a layer's self time is a span's duration minus
the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "oscillator", "numerics", "maxent", "analysis", "series", "nls")
HARNESS = "bench"

_FIT_1D = "maxent.fit_multipliers_1d"
_FIT_2D = "maxent.fit_multipliers_2d"
_FLOW = "nls.gradient_flow_ground_state"
_SELF_CONSISTENT = "nls.self_consistent_lambda"
_SERIES_EVAL = ("series.binomial_series_eval", "series.two_var_series_eval")
_FUNCTIONALS = ("maxent.information", "maxent.modified_information")


def _work_of(name: str, args, kwargs, result) -> tuple[int, int]:
    """(iterations, grid points) read from a returned solver record; for a
    series evaluation, (terms requested, 0) read from its arguments."""
    if name in (_FIT_1D, _FIT_2D):
        return result[1].iterations, 0
    if name == _FLOW:
        return result.iterations, result.psi.size
    if name in _SERIES_EVAL:
        return int(args[3] if len(args) > 3 else kwargs["n_terms"]), 0
    return 0, 0


class Tracer:
    """In-memory span recorder for one process, one thread."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset_pass()

    # -- spans -------------------------------------------------------------

    def _reset_pass(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.iters = array("q")
        self.points = array("q")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.iters.append(0)
        self.points.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness span (job or pass) around the ``with`` body."""
        idx = self.open(self._id(name))
        try:
            yield
        except BaseException:
            self.close(idx, failed=True)
            raise
        self.close(idx)

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        name_id = self._id(name)
        record_work = name in (_FIT_1D, _FIT_2D, _FLOW) or name in _SERIES_EVAL

        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if record_work:
                tracer.iters[idx], tracer.points[idx] = _work_of(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        modules = [importlib.import_module("infoqm")] + [
            importlib.import_module(f"infoqm.{layer}") for layer in LAYERS
        ]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"infoqm.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") or not isinstance(raw, (classmethod, staticmethod)):
                            continue
                        wrapped = type(raw)(self._wrap(raw.__func__, f"{layer}.{attr}.{meth}"))
                        self._patches.append((obj, meth, raw))
                        setattr(obj, meth, wrapped)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                new = replacements.get(id(obj))
                if new is not None and getattr(new, "__wrapped__", None) is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def end_pass(self) -> dict:
        """Reduce this pass's spans to per-name totals and clear them."""
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.int32, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        failed = np.frombuffer(self.failed, dtype=np.int8, count=n).astype(bool)
        iters = np.frombuffer(self.iters, dtype=np.int64, count=n).copy()
        points = np.frombuffer(self.points, dtype=np.int64, count=n).copy()
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        self._reset_pass()

        totals = {}
        for nid in np.unique(names):
            sel = names == nid
            ok = sel & ~failed
            totals[self._names[nid]] = {
                "calls": int(sel.sum()),
                "self_s": float(self_time[sel].sum()),
                "failures": int(failed[sel].sum()),
                "iters": int(iters[sel].sum()),
                "point_steps": int((iters[sel] * points[sel]).sum()),
                "ok_self_s": float(self_time[ok].sum()),
                "ok_calls": int(ok.sum()),
            }
        flow_id = self._ids.get(_FLOW)
        sc_id = self._ids.get(_SELF_CONSISTENT)
        outer = 0
        if flow_id is not None and sc_id is not None:
            outer = int(((names == flow_id) & (parent_name == sc_id)).sum())
        series_ids = [self._ids[s] for s in _SERIES_EVAL if s in self._ids]
        top_series = np.isin(names, series_ids) & ~np.isin(parent_name, series_ids)
        return {
            "totals": totals,
            "outer_evals": outer,
            "series_terms": int(iters[top_series].sum()),
        }


def layer_metrics(pass_summary: dict, wall_s: float, out_bytes: int) -> dict[str, float]:
    """Per-layer metric values for one traced pass."""
    totals = pass_summary["totals"]

    def get(name: str, field: str = "self_s"):
        return totals.get(name, {}).get(field, 0.0 if field == "self_s" else 0)

    def layer_self(layer: str) -> float:
        return sum(t["self_s"] for n, t in totals.items() if n.split(".")[0] == layer)

    fit = totals.get(_FIT_1D, {})
    fit_passes = fit.get("iters", 0) + fit.get("ok_calls", 0)
    flow_steps = get(_FLOW, "iters")
    m = {
        "cli.out_bytes": out_bytes,
        "oscillator.solve_state.calls": get("oscillator.solve_state", "calls"),
        "oscillator.solve_state.self_s": get("oscillator.solve_state"),
        "oscillator.closure_evals": get("oscillator.beta_closure_residual", "calls"),
        "numerics.find_root.calls": get("numerics.find_root", "calls"),
        "numerics.find_root.self_s": get("numerics.find_root"),
        "numerics.hermite_eval.calls": get("numerics.hermite_eval", "calls"),
        "numerics.hermite_eval.self_s": get("numerics.hermite_eval"),
        "analysis.basis.self_s": get("analysis.BasisSet.from_states")
        + get("analysis.BasisSet.from_callables"),
        "analysis.gram.self_s": get("analysis.gram_matrix"),
        "analysis.inner_products": get("analysis.inner_product", "calls"),
        "analysis.project.self_s": get("analysis.completeness_projection"),
        "maxent.fit_1d.self_s": get(_FIT_1D),
        "maxent.fit_1d.newton_iters": fit.get("iters", 0),
        "maxent.fit_1d.s_per_iter": fit.get("ok_self_s", 0.0) / max(fit_passes, 1),
        "maxent.fit_1d.failures": fit.get("failures", 0),
        "maxent.fit_2d.self_s": get(_FIT_2D),
        "maxent.fit_2d.newton_iters": get(_FIT_2D, "iters"),
        "maxent.functionals.self_s": sum(get(n) for n in _FUNCTIONALS),
        "series.eval.self_s": sum(get(n) for n in _SERIES_EVAL),
        "series.terms": pass_summary["series_terms"],
        "nls.flow.calls": get(_FLOW, "calls"),
        "nls.flow.steps": flow_steps,
        "nls.flow.point_steps": get(_FLOW, "point_steps"),
        "nls.flow.us_per_step": 1e6 * get(_FLOW, "ok_self_s") / max(flow_steps, 1),
        "nls.flow.self_s": get(_FLOW),
        "nls.flow.failures": get(_FLOW, "failures"),
        "nls.self_consistent.outer_evals": pass_summary["outer_evals"],
        "nls.self_consistent.self_s": get(_SELF_CONSISTENT),
        "nls.probe.self_s": get("nls.uniqueness_probe"),
        "bench.self_s": layer_self(HARNESS),
        "trace.wall_s": wall_s,
        "trace.layers_s": sum(layer_self(layer) for layer in LAYERS),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m
