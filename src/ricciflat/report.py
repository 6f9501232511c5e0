"""Stable JSON and CSV emission for solver, verifier and majorant output.

Column names and JSON fields are part of the interface.  Coefficient tables
order monomials graded-lexicographically (the storage order of the jets) and
t ascending, and hold only the trusted coefficients of each jet (through its
``valid_degree``).  All floats are written with full ``repr`` precision so
that identical runs produce byte-identical files; the report timestamp is
the only non-reproducible field and can be suppressed.  JSON reports stay
strict JSON: non-finite floats are written as the strings "NaN", "Infinity"
and "-Infinity".  A record's JSON block is its dataclass fields plus its
derived verdicts, written by its own ``as_dict``; the CLI adds only the
envelope, the command and the scenario block.
"""

from __future__ import annotations

import csv
import json
import math
import os
import weakref
from datetime import datetime, timezone

import numpy as np

from .jets import Jet, JetContext, TJet

SERIES_COLUMNS = ("series", "i", "j", "t_order", "monomial", "exponents", "re", "im", "valid_degree")
RESIDUAL_COLUMNS = ("identity", "t_order", "degree", "residual", "tolerance", "verdict")


# Per context, the "monomial,exponents" cell of each index formed so far; an
# entry lives as long as its context.
_CELLS = weakref.WeakKeyDictionary()


def _form_cells(ctx: JetContext, lo: int, hi: int) -> list[str]:
    """The cells of indices lo..hi-1.  A label joins, with "*", the pieces
    of the variables x1, y1, x2, ... that occur: the name at exponent 1,
    name^e above; the constant monomial is "1".  The exponents follow,
    space-separated."""
    pieces = []
    for v in range(ctx.nvars):
        name = f"{'xy'[v % 2]}{v // 2 + 1}"
        pieces.append(["", name, *(f"{name}^{e}" for e in range(2, ctx.cap + 1))])
    digits = [str(e) for e in range(ctx.cap + 1)]
    cells = []
    for row in ctx.exponents[lo:hi].tolist():
        label = "*".join(filter(None, map(list.__getitem__, pieces, row))) or "1"
        cells.append(f"{label},{' '.join(map(digits.__getitem__, row))}")
    return cells


def monomial_cells(ctx: JetContext, end: int) -> list[str]:
    """The context's cached cells, formed through at least index ``end``;
    indices past the highest one asked for are never formed."""
    cells = _CELLS.get(ctx)
    if cells is None:
        cells = _CELLS[ctx] = []
    if len(cells) < end:
        cells.extend(_form_cells(ctx, len(cells), end))
    return cells


def _jet_lines(series: str, i, j, m: int, jet: Jet) -> list[str]:
    """Lines for the nonzero monomials through the jet's valid_degree; none
    when it has no trusted degree."""
    cells = monomial_cells(jet.ctx, len(jet.prefix))
    idx = np.flatnonzero(jet.prefix)
    vals = jet.prefix[idx]
    head = f"{series},{'' if i is None else i + 1},{'' if j is None else j + 1},{m},"
    tail = f",{jet.valid_degree}\n"
    return [
        f"{head}{cells[k]},{re!r},{im!r}{tail}"
        for k, re, im in zip(idx.tolist(), vals.real.tolist(), vals.imag.tolist())
    ]


def write_csv(path: str, header, rows) -> None:
    """One CSV table: the header, then ``rows``, each line ended by "\\n"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_series_csv(path: str, name: str, series) -> None:
    """One line per trusted nonzero coefficient of ``series``: a TJet, or a
    HermitianJetMatrix of TJets taken entry by entry, row-major.  No field
    of these tables needs CSV quoting, so the lines are joined by hand and
    the file is written at once."""
    if isinstance(series, TJet):
        entries = [(None, None, series)]
    else:
        entries = [(i, j, series.entries[i][j]) for i in range(series.n) for j in range(series.n)]
    lines = [",".join(SERIES_COLUMNS) + "\n"]
    for i, j, tjet in entries:
        for m, jet in enumerate(tjet.coeffs):
            lines += _jet_lines(name, i, j, m, jet)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


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
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
