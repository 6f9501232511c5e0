"""Coefficient tables: the hand-joined writer against a csv.writer reference,
and the per-context monomial cells it reads."""

import csv
import gc
import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciflat import report
from ricciflat.geometry import HermitianJetMatrix
from ricciflat.jets import Jet, JetContext, TJet, context


def reference_label(ctx, idx):
    """The monomial label of one index, one variable at a time."""
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


def reference_series_csv(name, series) -> bytes:
    """The coefficient table as csv.writer writes it, row by row."""
    if isinstance(series, TJet):
        entries = [(None, None, series)]
    else:
        entries = [(i, j, series.entries[i][j]) for i in range(series.n) for j in range(series.n)]
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(report.SERIES_COLUMNS)
    for i, j, tjet in entries:
        for m, jet in enumerate(tjet.coeffs):
            ctx = jet.ctx
            end = int(ctx.deg_start[jet.valid_degree + 1]) if jet.valid_degree >= 0 else 0
            for k in range(end):
                val = jet.coeffs[k]
                if val == 0:
                    continue
                w.writerow((
                    name,
                    "" if i is None else i + 1,
                    "" if j is None else j + 1,
                    m,
                    reference_label(ctx, k),
                    " ".join(str(e) for e in ctx.exponents[k]),
                    repr(float(val.real)),
                    repr(float(val.imag)),
                    jet.valid_degree,
                ))
    return buf.getvalue().encode("utf-8")


def written(tmp_path, name, series) -> bytes:
    path = tmp_path / f"{name}.csv"
    report.write_series_csv(str(path), name, series)
    return path.read_bytes()


@pytest.mark.parametrize("n, cap", [(1, 8), (2, 6), (3, 5), (4, 4)])
def test_cells_need_no_quoting_and_match_the_reference_labels(n, cap):
    ctx = context(n, cap)
    cells = report.monomial_cells(ctx, ctx.size)
    assert len(cells) >= ctx.size
    for idx in range(ctx.size):
        # csv's minimal quoting quotes only a field holding one of these
        assert not any(ch in cells[idx] for ch in '"\r\n')
        label, exponents = cells[idx].split(",")
        assert label == reference_label(ctx, idx)
        assert exponents == " ".join(str(e) for e in ctx.exponents[idx])


SPECIAL = (
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e300, 0.1,
    complex(0.0, 2.5), complex(-0.0, -5e-324), complex(math.nan, math.inf),
    complex(1e300, -0.0), complex(0.0, -0.0),
)


def _jet(ctx, values, valid_degree, offset):
    coeffs = np.zeros(ctx.size, dtype=np.complex128)
    for k, val in enumerate(values):
        coeffs[(offset + 3 * k) % ctx.size] = val
    return Jet(ctx, coeffs, valid_degree)


def test_special_values_and_staggered_validities_match_csv_writer(tmp_path):
    ctx = context(2, 4)
    validities = (4, 3, 1, 0, -1, -3)
    tjet = TJet([_jet(ctx, SPECIAL, vd, m) for m, vd in enumerate(validities)])
    assert written(tmp_path, "v", tjet) == reference_series_csv("v", tjet)

    entries = [
        [TJet([_jet(ctx, SPECIAL[i + j:], vd, i + 2 * j) for vd in validities[i + j:]])
         for j in range(2)]
        for i in range(2)
    ]
    matrix = HermitianJetMatrix(entries)
    assert written(tmp_path, "g", matrix) == reference_series_csv("g", matrix)


_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, math.nan]),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(_values, _values), max_size=12),
            st.integers(min_value=-2, max_value=5),
            st.integers(min_value=0, max_value=60),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_random_coefficients_match_csv_writer(tmp_path_factory, orders):
    ctx = context(2, 5)
    tjet = TJet([
        _jet(ctx, [complex(re, im) for re, im in values], vd, offset)
        for values, vd, offset in orders
    ])
    assert written(tmp_path_factory.mktemp("csv"), "exp_u", tjet) == reference_series_csv("exp_u", tjet)


def test_cells_are_formed_once_per_context_through_the_highest_trusted_index(
    tmp_path, monkeypatch
):
    ctx = JetContext(2, 6)  # not the shared cache: no run has formed its cells
    formed = []
    form = report._form_cells

    def recording(c, lo, hi):
        formed.append((lo, hi))
        return form(c, lo, hi)

    monkeypatch.setattr(report, "_form_cells", recording)
    end3, end5 = int(ctx.deg_start[4]), int(ctx.deg_start[6])
    low = TJet([_jet(ctx, SPECIAL, 3, 0), _jet(ctx, SPECIAL, 1, 5), _jet(ctx, SPECIAL, -1, 2)])

    first = written(tmp_path, "v", low)
    assert formed == [(0, end3)]
    assert len(report.monomial_cells(ctx, 0)) == end3 < ctx.size

    assert written(tmp_path, "v", low) == first
    assert formed == [(0, end3)]

    high = TJet([_jet(ctx, SPECIAL, 5, 1)])
    assert written(tmp_path, "w_inv", high) == reference_series_csv("w_inv", high)
    assert formed == [(0, end3), (end3, end5)]
    assert len(report.monomial_cells(ctx, 0)) == end5 < ctx.size

    # the cells live as long as their context, and no longer
    alive = weakref.ref(ctx)
    del ctx, low, high
    gc.collect()
    assert alive() is None
