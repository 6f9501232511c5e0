"""Work counts: a solve expands each minor of its determinant once, a
verify run forms det g and adj g from one expansion, each H(v_m) and the
flow residual rows once, and nothing its check selection does not read,
a majorant run builds no jet context for the derivative lemma and
evaluates no jet, its nonlinearity bounds multiply no t-series, a
calibration forms the Ricci form once and evaluates no jet, the
exponential, logarithm and reciprocal of a jet form no jet product, a run
forms no untrusted jet but the shared zero jets, it caches no product or
series plan chunk above the bound, neither series operations nor the
solver's order step form a product for the Cauchy sum of an untrusted
order, and a verify run takes every partial from the derivative table in
whole gathers, with no single-partial call."""

import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import plan_sides, record_sum_products

from ricciflat import closed_form, geometry, jets, majorant, solver, verify
from ricciflat.cli import main
from ricciflat.jets import TJet
from ricciflat.scenario import ALL_CHECKS
from ricciflat.solver import SolverConfig, solve

N4 = ("perturbed_flat:4,0.1,0,2", "3", "4")


def _record(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs each call's arguments."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def _verify(tmp_path, spec, *checks):
    metric, M, D = spec
    argv = ["verify", "--metric", metric, "--M", M, "--D", D, "--no-timestamp"]
    argv += ["--out", str(tmp_path)] + [f"--{c}" for c in checks]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0


def test_full_verify_forms_det_g_once(tmp_path, monkeypatch):
    dets = _record(monkeypatch, verify, "jet_det")
    adjs = _record(monkeypatch, verify, "adjugate")
    expanded = []
    original = geometry.minor_det

    def recording(rows, R, C, memo, cap=None):
        if (R, C) not in memo:
            expanded.append((rows, R, C))
        return original(rows, R, C, memo, cap)

    monkeypatch.setattr(geometry, "minor_det", recording)
    _verify(tmp_path, N4)
    assert len(dets) == 1 and len(adjs) == 1
    g = dets[0][0]
    assert adjs[0][0] is g and isinstance(g.entries[0][0], TJet)
    # det g and adj g share one expansion: no minor of g is expanded twice
    minors = Counter((R, C) for rows, R, C in expanded if rows is g.entries)
    assert len(minors) > g.n**2 and set(minors.values()) == {1}


def test_full_verify_forms_each_hessian_once(tmp_path, monkeypatch):
    hessians = _record(monkeypatch, verify, "complex_mixed_hessian")
    _verify(tmp_path, N4)
    per_jet = Counter(id(args[0]) for args in hessians)
    assert len(per_jet) == int(N4[1])  # v_0 .. v_{M-1}
    assert set(per_jet.values()) == {1}


def test_full_verify_generates_each_flow_identity_once(tmp_path, monkeypatch):
    passes = _record(monkeypatch, verify, "_flow_residuals")
    _verify(tmp_path, N4)
    kinds = Counter(kind for _, wanted in passes for kind in wanted)
    assert kinds == {"hessian_flow": 1, "second_order_flow": 1}


def test_system_check_alone_forms_no_adjugate(tmp_path, monkeypatch):
    adjs = _record(monkeypatch, verify, "adjugate")
    passes = _record(monkeypatch, verify, "_flow_residuals")
    _verify(tmp_path, N4, "system")
    assert adjs == []
    assert [set(wanted) for _, wanted in passes] == [{"hessian_flow"}]


def test_solve_expands_each_minor_once_and_keeps_no_memo(monkeypatch):
    memos, expanded = [], []
    original = geometry.minor_det

    def recording(rows, R, C, memo, cap=None):
        if not any(m is memo for m in memos):
            memos.append(memo)
        if (R, C) not in memo:
            expanded.append((R, C))
        return original(rows, R, C, memo, cap)

    monkeypatch.setattr(geometry, "minor_det", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solve(geometry.perturbed_flat(3, 0.1, 1, 2, 8), SolverConfig(t_order=4))
    assert len(memos) == 1
    assert memos[0] == {}
    assert len(expanded) == len(set(expanded))


def test_verify_forms_no_untrusted_jet_but_the_shared_ones(tmp_path, monkeypatch):
    # N4 trusts its orders to degrees 2, 0, -2, -4
    formed = Counter()
    original_fresh, original_init = jets._fresh, jets.Jet.__init__

    def fresh(ctx, coeffs, valid_degree):
        if valid_degree < 0:
            formed[id(ctx), valid_degree] += 1
        return original_fresh(ctx, coeffs, valid_degree)

    def init(self, ctx, coeffs, valid_degree):
        original_init(self, ctx, coeffs, valid_degree)
        if self.valid_degree < 0:
            formed[id(ctx), self.valid_degree] += 1

    monkeypatch.setattr(jets, "_CTX_CACHE", {})
    monkeypatch.setattr(jets, "_fresh", fresh)
    monkeypatch.setattr(jets.Jet, "__init__", init)
    _verify(tmp_path, N4)
    assert {vd for _, vd in formed} >= {-2, -4}
    assert set(formed.values()) == {1}


def test_solver_orders_with_a_negative_cap_expand_no_minor(tmp_path, monkeypatch):
    caps = _record(monkeypatch, geometry, "minor_det")
    _verify(tmp_path, N4)
    capped = [args[4] for args in caps if len(args) > 4 and args[4] is not None]
    assert capped and min(capped) >= 0


def test_cauchy_sum_forms_each_term_through_the_sums_validity(tmp_path, monkeypatch):
    # a Cauchy sum forms its terms with the product kernel on the jets
    sums, open_sums = [], []
    original_sum, original_product = jets.cauchy_sum, jets._product

    def recording_sum(a, b, k, js, weight=None):
        open_sums.append([])
        out = original_sum(a, b, k, js, weight)
        full = [min(a[j].valid_degree, b[k - j].valid_degree) for j in js]
        sums.append((out.valid_degree, full, open_sums.pop()))
        return out

    def recording_product(ctx, a, b, vd):
        if open_sums:
            assert a.valid_degree >= vd and b.valid_degree >= vd
            open_sums[-1].append(vd)
        return original_product(ctx, a, b, vd)

    for module in (jets, solver):
        monkeypatch.setattr(module, "cauchy_sum", recording_sum)
    monkeypatch.setattr(jets, "_product", recording_product)
    _verify(tmp_path, ("perturbed_flat:2,0.1,0,2", "5", "12"))
    formed = [(vd, full, terms) for vd, full, terms in sums if vd >= 0]
    assert formed
    for vd, full, terms in formed:
        assert terms == [vd] * len(full)
    assert all(not terms for vd, _, terms in sums if vd < 0)
    # the rule bites: many terms are trusted further than their sum
    assert sum(f > vd for vd, full, _ in formed for f in full) > 100


def test_cached_product_plans_hold_at_most_the_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(jets, "_CTX_CACHE", {})
    _verify(tmp_path, ("perturbed_flat:2,0.1,0,2", "5", "12"))
    # n = 2 at D = 6 puts the exp, log and reciprocal of a jet below the bound
    _verify(tmp_path, ("perturbed_flat:2,0.1,0,2", "3", "6"))
    for kind in ("product", "series"):
        # each plan within the bound, and both sides of it taken
        sides = [plan_sides(ctx, kind, jets._PLAN_PAIRS) for ctx in jets._CTX_CACHE.values()]
        assert set().union(*sides) == {"chunk", "layout"}


@pytest.mark.parametrize("checks", [ALL_CHECKS, ("laplacian",), ("curvature", "system")])
def test_shared_view_gives_the_reports_of_bare_solutions(checks):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(geometry.perturbed_flat(2, 0.1, 0, 2, 10), SolverConfig(t_order=4))
    view = verify.SolutionView(sol, checks)
    for check in (
        verify.residual_system,
        verify.residual_consequence,
        verify.laplacian_moment,
    ):
        assert check(view).as_dict() == check(sol).as_dict()
    shared, bare = verify.curvature_and_class(view), verify.curvature_and_class(sol)
    assert shared.closedness.as_dict() == bare.closedness.as_dict()
    assert shared.realness_defect == bare.realness_defect


def test_majorant_run_builds_no_lemma_context_and_no_monomial_matrix(tmp_path, monkeypatch):
    monkeypatch.setattr(jets, "_CTX_CACHE", {})
    evaluations = _record(monkeypatch, jets, "jet_eval_many")
    argv = ["majorant", "--metric", "perturbed_flat:2,0.1,0,2", "--M", "4", "--D", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--R", "0.2", "--out", str(tmp_path), "--no-timestamp"]) == 0
    # the derivative lemma runs on plain arrays, not on jets of one variable
    assert (1, 40) not in jets._CTX_CACHE
    # every bound is a norm read off the coefficients: nothing is evaluated
    assert evaluations == []


def test_nonlinearity_bounds_form_no_series_product(monkeypatch):
    # every minor's t-coefficient comes from det_coefficient on jets; the
    # bounds read only h and g^(1) = L(v_0), so one solved order is enough
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(geometry.perturbed_flat(4, 0.1, 0, 2, 6), SolverConfig(t_order=1))
    series_products = _record(monkeypatch, jets.TJet, "__mul__")
    sums = _record(monkeypatch, jets, "cauchy_sum")
    assert majorant.nonlinearity_bounds(sol, majorant.estimate_params(sol, 0.2), 4)
    assert series_products == [] and sums == []


def test_calibrate_forms_the_ricci_form_once_and_evaluates_no_jet(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(geometry.fubini_study_chart(2, 1.0, 10), SolverConfig(t_order=4))
    forms = _record(monkeypatch, closed_form, "ricci_form")
    evaluations = _record(monkeypatch, jets, "jet_eval_many")
    spectra = _record(monkeypatch, np.linalg, "eigvals")
    assert closed_form.calibrate(sol).matched
    assert len(forms) == 1
    # constancy is read off the characteristic polynomial's jets, not sampled:
    # one eigenvalue problem, at the base point
    assert evaluations == [] and "jet_eval_many" not in vars(closed_form)
    assert len(spectra) == 1


def test_series_functions_form_no_jet_product(monkeypatch):
    # every product, direct or in a Cauchy sum, runs the product kernel
    products = _record(monkeypatch, jets, "_product")
    h = geometry.perturbed_flat(3, 0.1, 1, 2, 8).h
    a = jets.jet_scale(geometry.jet_det(h), 1.0 + 0.5j)
    products.clear()
    for f in (jets.jet_exp, jets.jet_log, jets.jet_reciprocal):
        assert f(a).valid_degree == a.valid_degree
    assert products == []
    # the recorder sees the products formed inside the module
    TJet([a]) * TJet([a])
    assert len(products) == 1


def test_series_determinant_multiplies_only_its_trusted_orders(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve(geometry.perturbed_flat(4, 0.1, 0, 2, 4), SolverConfig(t_order=3))
    assert {e.valid_degrees for row in sol.g.entries for e in row} == {(2, 0, -2, -4)}
    products = _record(monkeypatch, jets, "_product")
    sums = record_sum_products(monkeypatch)
    memo = {}
    geometry.jet_det(sol.g, memo)
    geometry.adjugate(sol.g, memo)
    # orders 2 and 3 are summed but untrusted: only orders 0 and 1 multiply
    assert {k for k, _, _ in sums} == {0, 1, 2, 3}
    assert {k for k, _, formed in sums if formed} == {0, 1}
    assert sum(formed for _, _, formed in sums) == len(products)


def test_verify_forms_no_product_for_an_untrusted_sum(tmp_path, monkeypatch):
    # Neither the series operations nor the solver's order step form a
    # product for the Cauchy sum of an untrusted order: it is the shared
    # zero jet.
    steps = []
    original_step = solver.step

    def recording_step(state, minors=None):
        out = original_step(state, minors)
        steps.append((out.v[-1].valid_degree, out.exp_neg_v[-1].valid_degree))
        return out

    sums = record_sum_products(monkeypatch, solver)
    monkeypatch.setattr(solver, "step", recording_step)
    _verify(tmp_path, N4)
    assert all(formed == 0 for _, vd, formed in sums if vd < 0)
    # the rule bites: the step reached orders it cannot trust, and both the
    # step and the series operations asked for their sums
    assert steps and min(min(vds) for vds in steps) < 0
    assert sum(vd < 0 for _, vd, _ in sums) > 3


def test_verify_makes_no_single_partial_call(tmp_path, monkeypatch):
    # the Hessians, d/dz and d/dzbar of a verify run are gathered whole from
    # the derivative table: the package calls jet_derive nowhere
    calls = _record(monkeypatch, jets, "jet_derive")
    for name, module in list(sys.modules.items()):
        if name.startswith("ricciflat.") and module is not jets and hasattr(module, "jet_derive"):
            monkeypatch.setattr(module, "jet_derive", jets.jet_derive)
    _verify(tmp_path, N4)
    assert calls == []
    # the recorder sees a call
    jets.jet_derive(jets.context(4, 4).x(0), 0)
    assert len(calls) == 1
