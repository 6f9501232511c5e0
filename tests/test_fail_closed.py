"""Non-finite values fail closed: they never pass a check quietly, never
vanish from a summary, and reports stay strict JSON."""

import json
import math
import warnings
from dataclasses import replace

import pytest

from ricciflat import geometry as geo
from ricciflat.cli import main
from ricciflat.jets import Jet, TJet
from ricciflat.majorant import _dom_row, check_domination, estimate_params
from ricciflat.report import write_json
from ricciflat.solver import SolverConfig, solve
from ricciflat.verify import ResidualReport, ResidualRow, _row, residual_system


def _strict_load(path):
    def refuse(name):
        raise ValueError(f"bare {name} in JSON")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.fixture(scope="module")
def small_solution():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(geo.perturbed_flat(1, 0.1, 7, 2, 10), SolverConfig(t_order=4, space_degree=10))


@pytest.mark.parametrize("nan_first", [True, False])
def test_max_relative_residual_does_not_depend_on_row_order(nan_first):
    rows = [
        ResidualRow("a", 0, 4, math.nan, 1.0, "fail"),
        ResidualRow("b", 1, 4, 1e-12, 1.0, "pass"),
        ResidualRow("c", 2, -1, 0.0, 1.0, "skipped"),
    ]
    if not nan_first:
        rows = rows[::-1]
    rep = ResidualReport("r", tuple(rows), 1e-9)
    assert math.isnan(rep.max_relative_residual)
    assert not rep.passed


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_residuals_and_observations_fail(value):
    assert _row("x", 0, 3, value, 1.0, 1e-9).status == "fail"
    assert _row("x", 0, 3, 0.0, value, 1e-9).status == "fail"
    assert _dom_row("value", 1, 0.1, value, math.inf).status == "fail"
    assert _dom_row("value", 1, 0.1, 0.5, 1.0).status == "pass"


def _with_nan_in_v1(sol, position):
    v1 = sol.v.coeffs[1]
    idx = 0 if position == "first" else int(v1.ctx.deg_start[v1.valid_degree + 1]) - 1
    c = v1.coeffs.copy()
    c[idx] = math.nan
    coeffs = list(sol.v.coeffs)
    coeffs[1] = Jet(v1.ctx, c, v1.valid_degree)
    return replace(sol, v=TJet(coeffs), u_reg=TJet(coeffs))


@pytest.mark.parametrize("position", ["first", "last"])
def test_nan_coefficient_fails_the_system_check(small_solution, position):
    rep = residual_system(_with_nan_in_v1(small_solution, position))
    assert not rep.passed
    assert math.isnan(rep.max_relative_residual)
    failing = [r for r in rep.rows if r.status == "fail"]
    assert failing and all(not math.isfinite(r.residual) for r in failing)
    assert all(r.status != "pass" for r in rep.rows if not math.isfinite(r.residual))


@pytest.mark.parametrize("position", ["first", "last"])
def test_nan_coefficient_fails_the_majorant(small_solution, position):
    bad = _with_nan_in_v1(small_solution, position)
    params = estimate_params(bad, 0.2)
    assert math.isnan(params.A)
    assert not check_domination(bad, params).passed


def test_write_json_encodes_non_finite_values(tmp_path):
    path = tmp_path / "r.json"
    write_json(str(path), {"a": math.nan, "b": [math.inf, -math.inf, 1.5]}, no_timestamp=True)
    assert _strict_load(path) == {"a": "NaN", "b": ["Infinity", "-Infinity", 1.5]}


def test_write_json_finite_payload_is_unchanged(tmp_path):
    payload = {"x": [0.1, 2, (3.0, None)], "y": {"z": 1e-300, "w": True}, "s": "t"}
    path = tmp_path / "r.json"
    write_json(str(path), payload, no_timestamp=True)
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_cli_verify_with_nan_perturbation_fails_with_strict_json(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["verify", "--metric", "perturbed_flat:1,0.1,7,2", "--M", "4", "--D", "10",
         "--perturb", "v:1:nan", "--no-timestamp", "--out", str(out)]
    )
    assert code == 1
    report = _strict_load(out / "report.json")
    assert report["passed"] is False
    assert report["checks"]["system"]["max_relative_residual"] == "NaN"
