"""Spans and counts around netcontrol's layer functions, kept in memory.

The traced pass rebinds attributes of the netcontrol modules in its own
process only: every module attribute that *is* a wrapped function is
replaced, so calls made through a name imported into another module
(``edcp`` calling ``extract_paths_cycles``, ``cli`` calling ``edcp``) are
seen too.  Nothing in the package's source changes.  A function that a later
version of the package no longer has is simply not wrapped, and its metrics
read zero.

Spans are (name, start, end, span id, parent span id, request label); the
parent is the innermost wrapped call still open, so a layer's self time is
its duration minus the time its child spans cover.  Each request of the pass
is a root span named ``request.<kind>``.
"""

from __future__ import annotations

import functools
import json
import math
import time
import weakref
from collections import defaultdict

# (name, unit) of every per-layer metric this module produces.
LAYER_METRICS = (
    ("flow.solver_init_s", "s"),
    ("flow.solver_inits", "count"),
    ("flow.advance_s", "s"),
    ("flow.units_shipped", "count"),
    ("flow.cost_levels", "count"),
    ("graph.maximum_matching_s", "s"),
    ("graph.maximum_matching_calls", "count"),
    ("pathcover.extract_s", "s"),
    ("pathcover.curve_s", "s"),
    ("pathcover.min_controllers_s", "s"),
    ("edcp.merge_cycles_s", "s"),
    ("edcp.assign_drivers_s", "s"),
    ("edcp.reduce_drivers_s", "s"),
    ("edcp.trim_to_r_s", "s"),
    ("edcp.string_cost_calls", "count"),
    ("edcp.fallback_used", "count"),
    ("edcp.exact_eval_s", "s"),
    ("edcp.energy_geomean", "energy"),
    ("lti.chain_control_cost_s", "s"),
    ("lti.chain_control_cost_misses", "count"),
    ("lti.gramian_s", "s"),
    ("lti.gramian_calls", "count"),
    ("lti.output_controllable_s", "s"),
    ("lti.output_controllable_calls", "count"),
    ("lti.control_cost_matrices_s", "s"),
    ("lti.control_cost_matrices_calls", "count"),
    ("lti.expm_calls", "count"),
    ("lti.expm_d3", "count"),
    ("lti.drive_to_origin_s", "s"),
    ("lti.simulate_s", "s"),
    ("elpgm.project_s", "s"),
    ("elpgm.project_calls", "count"),
    ("elpgm.grad_b_s", "s"),
    ("elpgm.grad_c_s", "s"),
    ("elpgm.evaluations", "count"),
    ("elpgm.support_ok_ratio", "ratio"),
    ("elpgm.energy_geomean", "energy"),
)

# Metrics that must repeat exactly between traced passes of one input.
EXACT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "count")

# span name -> (module, attribute) it wraps; the span name doubles as the
# metric prefix: "<span>_s" is the summed duration, "<span>_calls" the count.
_SPANS = {
    "graph.maximum_matching": ("graph", "maximum_matching"),
    "pathcover.extract": ("pathcover", "extract_paths_cycles"),
    "pathcover.curve": ("pathcover", "controllability_curve"),
    "pathcover.min_controllers": ("pathcover", "min_controllers_for"),
    "edcp.merge_cycles": ("edcp", "merge_cycles"),
    "edcp.assign_drivers": ("edcp", "assign_drivers"),
    "edcp.reduce_drivers": ("edcp", "reduce_drivers"),
    "edcp.trim_to_r": ("edcp", "trim_to_r"),
    "lti.chain_control_cost": ("lti", "chain_control_cost"),
    "lti.gramian": ("lti", "gramian"),
    "lti.output_controllable": ("lti", "output_controllable"),
    "lti.control_cost_matrices": ("lti", "control_cost_matrices"),
    "lti.drive_to_origin": ("lti", "drive_to_origin"),
    "lti.simulate": ("lti", "simulate"),
    "elpgm.project": ("elpgm", "project"),
    "elpgm.grad_b": ("elpgm", "grad_b"),
    "elpgm.grad_c": ("elpgm", "grad_c"),
}

_MODULES = ("graph", "flow", "pathcover", "lti", "edcp", "elpgm", "cli")


def geomean(values) -> float:
    """Geometric mean of the positive finite values; 0.0 when there are none."""
    logs = [math.log(v) for v in values if v is not None and math.isfinite(v) and v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


class Tracer:
    """Collects spans and counts for one pass; install() starts, uninstall() ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int, str | None]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.energies: dict[str, list[float]] = defaultdict(list)
        self.request: str | None = None
        self._stack: list[int] = []
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []
        self._solver_serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._solver_levels: dict[int, int] = {}
        self._chain_cost = None

    # -- span bookkeeping -------------------------------------------------
    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, name: str, start: float, sid: int, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((name, start, end, sid, parent, self.request))
        self.seconds[name] += end - start
        self.calls[name] += 1

    def timed(self, name: str, fn):
        """fn wrapped in a span called `name`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, start, sid, parent)

        return wrapper

    def run_request(self, kind: str, label: str, fn):
        """Call one request of the pass as a root span."""
        self.request = label
        try:
            return self.timed(f"request.{kind}", fn)()
        finally:
            self.request = None

    # -- installation -----------------------------------------------------
    def _rebind(self, modules: dict, original, replacement) -> None:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _set(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        import scipy.linalg

        modules = {name: importlib.import_module(f"netcontrol.{name}") for name in _MODULES}
        modules["package"] = importlib.import_module("netcontrol")
        chain_cost = getattr(modules["lti"], "chain_control_cost", None)
        self._chain_cost = chain_cost if hasattr(chain_cost, "cache_info") else None
        for span, (mod_name, attr) in _SPANS.items():
            original = getattr(modules[mod_name], attr, None)
            if original is not None:
                self._rebind(modules, original, self.timed(span, original))

        tracer = self

        def counted(key, fn, on_result=None):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.counts[key] += 1
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        # Calls made from the elpgm module count towards its own ratios.
        elpgm = modules["elpgm"]
        if hasattr(elpgm, "output_controllable"):
            def support(ok):
                tracer.counts["elpgm.support_ok"] += bool(ok)

            self._set(elpgm, "output_controllable",
                      counted("elpgm.support_checks", elpgm.output_controllable, support))
        if hasattr(elpgm, "control_cost_matrices"):
            self._set(elpgm, "control_cost_matrices",
                      counted("elpgm.evaluations", elpgm.control_cost_matrices))

        def expm_size(result):
            tracer.counts["lti.expm_d3"] += int(result.shape[0]) ** 3

        self._rebind(modules, scipy.linalg.expm, counted("lti.expm_calls", scipy.linalg.expm, expm_size))

        edcp = modules["edcp"]
        if hasattr(edcp, "string_cost"):
            self._rebind(modules, edcp.string_cost, counted("edcp.string_cost_calls", edcp.string_cost))
        if hasattr(edcp, "control_cost"):
            self._set(edcp, "control_cost", self.timed("edcp.exact_eval", edcp.control_cost))
        if hasattr(edcp, "edcp"):
            def edcp_result(res):
                tracer.counts["edcp.fallback_used"] += getattr(res, "fallback", None) is not None
                tracer.energies["edcp"].append(getattr(res, "e_exact", None))

            self._rebind(modules, edcp.edcp, counted("edcp.results", edcp.edcp, edcp_result))
        if hasattr(modules["elpgm"], "elpgm_optimize"):
            def elpgm_result(res):
                tracer.energies["elpgm"].append(res[1])

            original = modules["elpgm"].elpgm_optimize
            self._rebind(modules, original, counted("elpgm.results", original, elpgm_result))

        solver = getattr(modules["flow"], "SufficiencySolver", None)
        if solver is not None:
            self._install_solver(solver)

    def _install_solver(self, solver_cls) -> None:
        tracer = self
        timed_init = self.timed("flow.solver_init", solver_cls.__init__)
        timed_advance = self.timed("flow.advance", solver_cls.advance_to)

        @functools.wraps(solver_cls.__init__)
        def traced_init(solver, *args, **kwargs):
            timed_init(solver, *args, **kwargs)
            serial = len(tracer._solver_levels) + 1
            tracer._solver_serial[solver] = serial
            tracer._solver_levels[serial] = 0

        @functools.wraps(solver_cls.advance_to)
        def traced_advance(solver, *args, **kwargs):
            before = len(solver.unit_costs)
            try:
                return timed_advance(solver, *args, **kwargs)
            finally:
                tracer.counts["flow.units_shipped"] += len(solver.unit_costs) - before
                serial = tracer._solver_serial.get(solver)
                if serial is not None:
                    tracer._solver_levels[serial] = len(set(solver.unit_costs))

        self._set(solver_cls, "__init__", traced_init)
        self._set(solver_cls, "advance_to", traced_advance)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value for this pass."""
        out: dict[str, float] = {}
        for span in _SPANS:
            out[f"{span}_s"] = self.seconds[span]
            out[f"{span}_calls"] = self.calls[span]
        out["flow.solver_init_s"] = self.seconds["flow.solver_init"]
        out["flow.solver_inits"] = self.calls["flow.solver_init"]
        out["flow.advance_s"] = self.seconds["flow.advance"]
        out["flow.units_shipped"] = self.counts["flow.units_shipped"]
        out["flow.cost_levels"] = sum(self._solver_levels.values())
        out["edcp.exact_eval_s"] = self.seconds["edcp.exact_eval"]
        for key in ("edcp.string_cost_calls", "edcp.fallback_used", "lti.expm_calls",
                    "lti.expm_d3", "elpgm.evaluations"):
            out[key] = self.counts[key]
        out["lti.chain_control_cost_misses"] = (
            self._chain_cost.cache_info().misses if self._chain_cost is not None else 0
        )
        checks = self.counts["elpgm.support_checks"]
        out["elpgm.support_ok_ratio"] = self.counts["elpgm.support_ok"] / checks if checks else 0.0
        out["edcp.energy_geomean"] = geomean(self.energies["edcp"])
        out["elpgm.energy_geomean"] = geomean(self.energies["elpgm"])
        return {name: out[name] for name, _ in LAYER_METRICS}

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, sid, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "id": sid,
                                     "parent": parent, "request": request}) + "\n")
