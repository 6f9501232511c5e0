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
from json.encoder import encode_basestring_ascii

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


# Per line prefix "\n" + indent, the C encoder of a dict or list that holds
# no dict, list or tuple, one item a line: json's own indent=2 layout.
_FLAT_ENCODERS: dict[str, json.JSONEncoder] = {}


def _named(value):
    """A non-finite float by its name in strict JSON, any other value as is."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


def _scalar(value) -> str:
    """A value that is no dict, list or tuple as ``json`` writes it, a
    non-finite float by its name."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{_named(value)}"'
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key as ``json`` writes it, before quoting: a str as is, a
    float, int, bool or None by its JSON text; a non-finite float and any
    other type refused."""
    if isinstance(key, str):
        return key
    if isinstance(key, float) and not math.isfinite(key):
        raise ValueError(f"Out of range float values are not JSON compliant: {key!r}")
    if isinstance(key, (int, float)) or key is None:
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(obj, newline: str, out: list) -> None:
    """Append the text of ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` for a dict, list or tuple whose closing line is
    indented by ``newline`` (a line break and the indent), non-finite
    floats named as they are met.  One that holds no dict, list or tuple
    goes to the C encoder whole, with the item separator "," + the next
    line's indent."""
    is_dict = isinstance(obj, dict)
    inner = newline + "  "
    if not any(isinstance(v, (dict, list, tuple)) for v in (obj.values() if is_dict else obj)):
        encoder = _FLAT_ENCODERS.get(inner)
        if encoder is None:
            encoder = _FLAT_ENCODERS[inner] = json.JSONEncoder(
                sort_keys=True, allow_nan=False, separators=("," + inner, ": ")
            )
        try:
            text = encoder.encode(obj)
        except ValueError:  # a non-finite float among the values
            named = {k: _named(v) for k, v in obj.items()} if is_dict else list(map(_named, obj))
            text = encoder.encode(named)
        out.append(text if len(text) == 2 else text[0] + inner + text[1:-1] + newline + text[-1])
        return
    sep = "{" if is_dict else "["
    for item in sorted(obj.items()) if is_dict else obj:
        out.append(sep + inner)
        sep = ","
        if is_dict:
            out.append(encode_basestring_ascii(_key(item[0])) + ": ")
            item = item[1]
        if isinstance(item, (dict, list, tuple)):
            _encode(item, inner, out)
        else:
            out.append(_scalar(item))
    out.append(newline + ("}" if is_dict else "]"))


def write_json(path: str, payload: dict, no_timestamp: bool = False) -> None:
    """``payload`` (and the time of writing, unless ``no_timestamp``) as
    strict JSON with sorted keys and an indent of 2, in one walk."""
    if not no_timestamp:
        payload = {**payload, "timestamp": datetime.now(timezone.utc).isoformat()}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    out = []
    _encode(payload, "\n", out)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out) + "\n")


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
