"""Span tracer for the benchmark's traced run.

The tracer wraps the public ricciflat functions listed in ``TRACED`` from
outside the program: each name is rebound in every ricciflat module that
holds it (``solver.jet_mul`` and ``jets.jet_mul`` alike) and restored on
``uninstall``.  Spans (name, start, end, parent, pass id) are kept in memory
and written out when the run ends.  A name the program no longer has is
reported as absent, so renaming or deleting a function never breaks the run.

Counts marked "computed" are derived from the operands, not measured:
``jet_mul`` pair products from the nonzero degree blocks the kernel visits,
and ``jet_eval_many`` columns as points x monomials.  Their "trusted" parts
are the share that lies within the result's ``valid_degree``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import numpy as np


def _jet_mul_counts(args, kwargs, result):
    a, b = args[0], args[1]
    ctx = a.ctx
    start = ctx.deg_start
    sizes = np.diff(start)
    na = np.add.reduceat(a.coeffs != 0, start[:-1]) > 0
    nb = np.add.reduceat(b.coeffs != 0, start[:-1]) > 0
    deg = np.arange(len(sizes))
    total = deg[:, None] + deg[None, :]
    pairs = np.outer(sizes * na, sizes * nb)
    vd = min(a.valid_degree, b.valid_degree)
    return {
        "pair_products": int(pairs[total <= ctx.cap].sum()),
        "trusted_products": int(pairs[total <= vd].sum()) if vd >= 0 else 0,
    }


def _jet_eval_many_counts(args, kwargs, result):
    a = args[0]
    ctx = a.ctx
    points = len(result)
    vd = min(a.valid_degree, ctx.cap)
    trusted = int(ctx.deg_start[vd + 1]) if vd >= 0 else 0
    return {"columns": points * ctx.size, "trusted_columns": points * trusted}


def _written_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _step_order(args, kwargs):
    return args[0].m + 1


# (module, name in module, span name, counter(args, kwargs, result), tagger(args, kwargs))
TRACED = (
    ("ricciflat.cli", "main", "cli.main", None, None),
    ("ricciflat.scenario", "Scenario.initial_data", "scenario.initial_data", None, None),
    ("ricciflat.jets", "JetContext.__init__", "jets.context.build", None, None),
    ("ricciflat.jets", "jet_mul", "jets.jet_mul", _jet_mul_counts, None),
    ("ricciflat.jets", "jet_eval_many", "jets.jet_eval_many", _jet_eval_many_counts, None),
    ("ricciflat.jets", "TJet.__mul__", "jets.tjet_mul", None, None),
    ("ricciflat.geometry", "jet_det", "geometry.jet_det", None, None),
    ("ricciflat.geometry", "adjugate", "geometry.adjugate", None, None),
    ("ricciflat.geometry", "complex_mixed_hessian", "geometry.complex_mixed_hessian", None, None),
    ("ricciflat.solver", "solve", "solver.solve", None, None),
    ("ricciflat.solver", "step", "solver.step", None, _step_order),
    ("ricciflat.verify", "residual_system", "verify.residual_system", None, None),
    ("ricciflat.verify", "residual_consequence", "verify.residual_consequence", None, None),
    ("ricciflat.verify", "laplacian_moment", "verify.laplacian_moment", None, None),
    ("ricciflat.verify", "curvature_and_class", "verify.curvature_and_class", None, None),
    ("ricciflat.verify", "smoothness_check", "verify.smoothness_check", None, None),
    ("ricciflat.majorant", "estimate_params", "majorant.estimate_params", None, None),
    ("ricciflat.majorant", "nonlinearity_bounds", "majorant.nonlinearity_bounds", None, None),
    ("ricciflat.majorant", "majorant_sequence", "majorant.majorant_sequence", None, None),
    ("ricciflat.majorant", "check_domination", "majorant.check_domination", None, None),
    ("ricciflat.majorant", "cauchy_estimate_check", "majorant.cauchy_estimate_check", None, None),
    ("ricciflat.closed_form", "calibrate", "closed_form.calibrate", None, None),
    ("ricciflat.closed_form", "ricci_spectrum_of", "closed_form.ricci_spectrum_of", None, None),
    ("ricciflat.report", "write_json", "report.write", _written_bytes, None),
    ("ricciflat.report", "write_residuals_csv", "report.write", _written_bytes, None),
    ("ricciflat.report", "write_series_csv", "report.write", _written_bytes, None),
)

STEP_ORDERS = range(1, 9)

# Per-layer metric: (name, unit, better).  Values are medians over the warm
# traced passes, except jets.context.build_s (the cold first pass, where the
# context cache misses) and the trace.* entries (the run as a whole).
PER_LAYER = (
    ("jets.jet_mul.calls", "count", "lower"),
    ("jets.jet_mul.self_s", "s", "lower"),
    ("jets.jet_mul.pair_products", "count", "lower"),
    ("jets.jet_mul.trusted_ratio", "ratio", "higher"),
    ("jets.jet_eval_many.calls", "count", "lower"),
    ("jets.jet_eval_many.self_s", "s", "lower"),
    ("jets.jet_eval_many.columns", "count", "lower"),
    ("jets.jet_eval_many.trusted_ratio", "ratio", "higher"),
    ("jets.tjet_mul.calls", "count", "lower"),
    ("jets.tjet_mul.self_s", "s", "lower"),
    ("jets.context.build_s", "s", "lower"),
    ("geometry.jet_det.calls", "count", "lower"),
    ("geometry.jet_det.s", "s", "lower"),
    ("geometry.adjugate.s", "s", "lower"),
    ("geometry.complex_mixed_hessian.s", "s", "lower"),
    ("solver.solve.s", "s", "lower"),
    ("solver.step.s", "s", "lower"),
    *((f"solver.step.order_{k}_s", "s", "lower") for k in STEP_ORDERS),
    ("solver.step.jet_mul_calls", "count", "lower"),
    ("verify.residual_system.s", "s", "lower"),
    ("verify.residual_consequence.s", "s", "lower"),
    ("verify.laplacian_moment.s", "s", "lower"),
    ("verify.curvature_and_class.s", "s", "lower"),
    ("verify.smoothness_check.s", "s", "lower"),
    ("majorant.estimate_params.s", "s", "lower"),
    ("majorant.nonlinearity_bounds.s", "s", "lower"),
    ("majorant.majorant_sequence.s", "s", "lower"),
    ("majorant.check_domination.s", "s", "lower"),
    ("majorant.cauchy_estimate_check.s", "s", "lower"),
    ("closed_form.calibrate.calls", "count", "lower"),
    ("closed_form.calibrate.s", "s", "lower"),
    ("closed_form.ricci_spectrum_of.s", "s", "lower"),
    ("report.write_s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("scenario.initial_data.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.top_level_coverage", "ratio", "higher"),
    ("trace.absent_names", "count", "lower"),
)

# Span fields.
NAME, START, END, PARENT, PASS, TAG, COUNTS, EXTRA = range(8)


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self, table=TRACED):
        self.table = table
        self.spans: list[list] = []
        self.pass_id = -1
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[str, str], object] = {}

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name; names the program lacks go to ``absent``."""
        self.absent = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ricciflat" or name.startswith("ricciflat."))
        ]
        for module_name, qualname, span, counter, tagger in self.table:
            owner, attr = self._resolve(module_name, qualname)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            key = (module_name, qualname)
            wrapper = self._wrappers.get(key)
            if wrapper is None:
                wrapper = self._wrap(original, span, counter, tagger)
                self._wrappers[key] = wrapper
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._bindings.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._bindings):
            setattr(holder, name, original)
        self._bindings = []

    @staticmethod
    def _resolve(module_name: str, qualname: str):
        owner = sys.modules.get(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None) if owner is not None else None
        if owner is not None and path and not isinstance(owner, type):
            owner = None
        return owner, attr

    def _wrap(self, fn, span_name, counter, tagger):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            tag = self._call_helper(tagger, span_name, args, kwargs)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, tag, None, 0.0]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if counter is not None:
                record[COUNTS] = self._call_helper(counter, span_name, args, kwargs, result)
                # Counting is tracer work: keep it out of the parent's self time.
                record[EXTRA] = clock() - record[END]
            return result

        return traced

    def _call_helper(self, helper, span_name, *args):
        """Counters and taggers read the arguments; a changed signature costs
        the count, never the run."""
        if helper is None:
            return None
        try:
            return helper(*args)
        except Exception:
            self.counter_errors.add(span_name)
            return None

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "tag", "counts", "counting_s"],
                       "absent": self.absent, "spans": self.spans}, fh)
            fh.write("\n")


def pass_metrics(spans: list[list], own: list[int], pass_seconds: float) -> dict:
    """Per-layer figures of one traced pass; ``own`` indexes its spans."""
    dur = {i: spans[i][END] - spans[i][START] for i in own}
    child_cost = dict.fromkeys(own, 0.0)
    for i in own:
        parent = spans[i][PARENT]
        if parent >= 0:
            child_cost[parent] += dur[i] + spans[i][EXTRA]

    def ancestors(i):
        parent = spans[i][PARENT]
        while parent >= 0:
            yield spans[parent][NAME]
            parent = spans[parent][PARENT]

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    orders: dict[int, float] = {}
    step_jet_mul = 0
    top = 0.0
    for i in own:
        name = spans[i][NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child_cost[i]
        up = set(ancestors(i))
        if name not in up:  # inclusive time counts the outermost span only
            incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        if spans[i][PARENT] < 0:
            top += dur[i]
        for key, value in (spans[i][COUNTS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "solver.step" and "solver.step" not in up:
            orders[spans[i][TAG]] = orders.get(spans[i][TAG], 0.0) + dur[i]
        if name == "jets.jet_mul" and "solver.step" in up:
            step_jet_mul += 1

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out = {
        "jets.jet_mul.calls": calls.get("jets.jet_mul", 0),
        "jets.jet_mul.self_s": self_s.get("jets.jet_mul", 0.0),
        "jets.jet_mul.pair_products": counts.get("jets.jet_mul.pair_products", 0),
        "jets.jet_mul.trusted_ratio": ratio("jets.jet_mul.trusted_products", "jets.jet_mul.pair_products"),
        "jets.jet_eval_many.calls": calls.get("jets.jet_eval_many", 0),
        "jets.jet_eval_many.self_s": self_s.get("jets.jet_eval_many", 0.0),
        "jets.jet_eval_many.columns": counts.get("jets.jet_eval_many.columns", 0),
        "jets.jet_eval_many.trusted_ratio": ratio("jets.jet_eval_many.trusted_columns", "jets.jet_eval_many.columns"),
        "jets.tjet_mul.calls": calls.get("jets.tjet_mul", 0),
        "jets.tjet_mul.self_s": self_s.get("jets.tjet_mul", 0.0),
        "jets.context.build_s": incl_s.get("jets.context.build", 0.0),
        "geometry.jet_det.calls": calls.get("geometry.jet_det", 0),
        "solver.step.jet_mul_calls": step_jet_mul,
        "closed_form.calibrate.calls": calls.get("closed_form.calibrate", 0),
        "report.write_s": incl_s.get("report.write", 0.0),
        "report.bytes": counts.get("report.write.bytes", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.top_level_coverage": top / pass_seconds if pass_seconds > 0 else 0.0,
    }
    for name in ("geometry.jet_det", "geometry.adjugate", "geometry.complex_mixed_hessian",
                 "solver.solve", "solver.step", "verify.residual_system",
                 "verify.residual_consequence", "verify.laplacian_moment",
                 "verify.curvature_and_class", "verify.smoothness_check",
                 "majorant.estimate_params", "majorant.nonlinearity_bounds",
                 "majorant.majorant_sequence", "majorant.check_domination",
                 "majorant.cauchy_estimate_check", "closed_form.calibrate",
                 "closed_form.ricci_spectrum_of", "scenario.initial_data"):
        out[f"{name}.s"] = incl_s.get(name, 0.0)
    for k in STEP_ORDERS:
        out[f"solver.step.order_{k}_s"] = orders.get(k, 0.0)
    return out


def layer_report(tracer: Tracer, cold_pass: tuple[int, float], warm_passes, untraced_seconds) -> dict:
    """All per-layer metrics of a traced run.

    ``cold_pass`` is (pass id, seconds) of the first pass in the process;
    ``warm_passes`` the same for every later traced pass.
    """
    by_pass: dict[int, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        by_pass.setdefault(span[PASS], []).append(i)
    per_pass = [pass_metrics(tracer.spans, by_pass.get(pid, []), sec) for pid, sec in warm_passes]
    values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    cold = pass_metrics(tracer.spans, by_pass.get(cold_pass[0], []), cold_pass[1])
    values["jets.context.build_s"] = cold["jets.context.build_s"]
    traced = statistics.median(sec for _, sec in warm_passes)
    untraced = statistics.median(untraced_seconds)
    values["trace.traced_pass_s"] = traced
    values["trace.untraced_pass_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.absent_names"] = len(tracer.absent)
    return values
