"""Stable JSON and CSV emission for solver, verifier and majorant output.

Column names and JSON fields are part of the interface.  Coefficient tables
order monomials graded-lexicographically (the storage order of the jets) and
t ascending, and hold only the trusted coefficients of each jet (through its
``valid_degree``).  All floats are written with full ``repr`` precision so
that identical runs produce byte-identical files; the report timestamp is
the only non-reproducible field and can be suppressed.  JSON reports stay
strict JSON: non-finite floats are written as the strings "NaN", "Infinity"
and "-Infinity".
"""

from __future__ import annotations

import csv
import json
import math
import os
from datetime import datetime, timezone

from .jets import Jet, JetContext, TJet

SERIES_COLUMNS = ("series", "i", "j", "t_order", "monomial", "exponents", "re", "im", "valid_degree")
RESIDUAL_COLUMNS = ("identity", "t_order", "degree", "residual", "tolerance", "verdict")


def monomial_label(ctx: JetContext, idx: int) -> str:
    exps = ctx.exponents[idx]
    if not exps.any():
        return "1"
    parts = []
    for v, e in enumerate(exps):
        if e == 0:
            continue
        name = f"x{v // 2 + 1}" if v % 2 == 0 else f"y{v // 2 + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _jet_rows(series: str, i, j, m: int, jet: Jet, include_zero: bool = False):
    """Rows for the monomials through the jet's valid_degree; none when it
    has no trusted degree."""
    ctx = jet.ctx
    end = int(ctx.deg_start[jet.valid_degree + 1]) if jet.valid_degree >= 0 else 0
    for idx in range(end):
        val = jet.coeffs[idx]
        if not include_zero and val == 0:
            continue
        yield (
            series,
            "" if i is None else i + 1,
            "" if j is None else j + 1,
            m,
            monomial_label(ctx, idx),
            " ".join(str(e) for e in ctx.exponents[idx]),
            repr(float(val.real)),
            repr(float(val.imag)),
            jet.valid_degree,
        )


def series_rows(name: str, obj, i=None, j=None):
    if isinstance(obj, TJet):
        for m, cj in enumerate(obj.coeffs):
            yield from _jet_rows(name, i, j, m, cj)
    else:
        yield from _jet_rows(name, i, j, 0, obj)


def matrix_rows(name: str, matrix):
    for i in range(matrix.n):
        for j in range(matrix.n):
            yield from series_rows(name, matrix.entries[i][j], i, j)


def write_series_csv(path: str, blocks) -> None:
    """blocks: iterable of row iterables (from series_rows / matrix_rows)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SERIES_COLUMNS)
        for block in blocks:
            for row in block:
                w.writerow(row)


def residual_rows(report) -> list[tuple]:
    rows = []
    for r in report.rows:
        rows.append(
            (
                r.identity,
                r.t_order,
                r.valid_degree,
                repr(r.residual),
                repr(report.tolerance * r.scale),
                r.status,
            )
        )
    return rows


def write_residuals_csv(path: str, reports) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RESIDUAL_COLUMNS)
        for rep in reports:
            for row in residual_rows(rep):
                w.writerow(row)


def _strict_json(obj):
    """Copy of ``obj`` with non-finite floats replaced by their names."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def write_json(path: str, payload: dict, no_timestamp: bool = False) -> None:
    doc = _strict_json(payload)
    if not no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def solution_summary(sol) -> dict:
    return {
        "n": sol.n,
        "c": sol.config.c,
        "t_order": sol.config.t_order,
        "space_degree": sol.config.space_degree,
        "validity_per_order": list(sol.validity),
        "w_inv_crosscheck": sol.w_inv_crosscheck,
        "base_identity_margin": sol.base_identity_margin,
        "metric_name": sol.input.name,
        "warnings": list(sol.warnings),
        "perturbations": list(sol.perturbations),
    }
