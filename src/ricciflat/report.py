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

import numpy as np

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


def _jet_rows(series: str, i, j, m: int, jet: Jet, labels: dict):
    """Rows for the nonzero monomials through the jet's valid_degree; none
    when it has no trusted degree.  ``labels`` holds, per context, the
    (monomial label, exponent string) of each index formed so far."""
    ctx = jet.ctx
    end = int(ctx.deg_start[jet.valid_degree + 1]) if jet.valid_degree >= 0 else 0
    known = labels.setdefault(ctx, [])
    known.extend(
        (monomial_label(ctx, idx), " ".join(str(e) for e in ctx.exponents[idx]))
        for idx in range(len(known), end)
    )
    idx = np.flatnonzero(jet.coeffs[:end])
    vals = jet.coeffs[idx]
    i = "" if i is None else i + 1
    j = "" if j is None else j + 1
    for k, re, im in zip(idx.tolist(), vals.real.tolist(), vals.imag.tolist()):
        label, exponents = known[k]
        yield (series, i, j, m, label, exponents, repr(re), repr(im), jet.valid_degree)


def write_csv(path: str, header, rows) -> None:
    """One CSV table: the header, then ``rows``, each line ended by "\\n"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_series_csv(path: str, name: str, series) -> None:
    """One row per trusted nonzero coefficient of ``series``: a TJet, or a
    HermitianJetMatrix of TJets taken entry by entry, row-major.  The
    monomial labels are formed once per index within the call."""
    if isinstance(series, TJet):
        entries = [(None, None, series)]
    else:
        entries = [(i, j, series.entries[i][j]) for i in range(series.n) for j in range(series.n)]
    labels: dict = {}
    write_csv(
        path,
        SERIES_COLUMNS,
        (
            row
            for i, j, tjet in entries
            for m, jet in enumerate(tjet.coeffs)
            for row in _jet_rows(name, i, j, m, jet, labels)
        ),
    )


def write_residuals_csv(path: str, reports) -> None:
    rows = (
        (r.identity, r.t_order, r.valid_degree, repr(r.residual), repr(rep.tolerance * r.scale), r.status)
        for rep in reports
        for r in rep.rows
    )
    write_csv(path, RESIDUAL_COLUMNS, rows)


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
