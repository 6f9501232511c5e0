"""Non-finite values fail closed: they never pass a check quietly, never
vanish from a summary, and reports stay strict JSON."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import dominating_sequence
from ricciflat import geometry as geo
from ricciflat.cli import main
from ricciflat.closed_form import calibrate
from ricciflat.errors import InvalidInputError
from ricciflat.geometry import HermitianJetMatrix, InitialData
from ricciflat.jets import Jet, TJet, context
from ricciflat.majorant import _dom_row, check_domination, estimate_params
from ricciflat.report import write_json
from ricciflat.solver import SolverConfig, solve
from ricciflat.verify import (
    ResidualReport,
    ResidualRow,
    _row,
    curvature_and_class,
    perturb_solution,
    residual_system,
)


def _strict_load(path):
    def refuse(name):
        raise ValueError(f"bare {name} in JSON")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.fixture(scope="module")
def small_solution():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(geo.perturbed_flat(1, 0.1, 7, 2, 10), SolverConfig(t_order=4))


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
    return replace(sol, v=TJet(coeffs))


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
    assert not check_domination(bad, params, dominating_sequence(bad, params)).passed


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


@pytest.mark.parametrize("target, order", [("g", 1), ("g", 3), ("w", 2), ("v", 1)])
def test_calibrate_matches_no_factor_on_a_nan_series(fs_solution, target, order):
    assert calibrate(fs_solution).matched
    assert not calibrate(perturb_solution(fs_solution, target, order, math.nan)).matched


@pytest.mark.parametrize("perturb", ["g:1:nan", "g:3:nan", "w:2:nan", "v:1:nan"])
def test_cli_nan_perturbation_skips_the_class_integral(tmp_path, perturb):
    out = tmp_path / "out"
    code = main(
        ["verify", "--metric", "fubini_study_chart:1,1", "--M", "8", "--D", "12",
         "--perturb", perturb, "--no-timestamp", "--out", str(out)]
    )
    assert code == 1
    curvature = _strict_load(out / "report.json")["checks"]["curvature"]
    assert curvature["class_integral"] is None and curvature["kappa"] is None
    assert "class integral skipped: calibration found no matching convention factor" in curvature["notes"]
    # the chart has a class-integral recipe, so a skipped integral fails the check
    assert curvature["passed"] is False


def test_curvature_fails_when_the_closed_form_rejects_g1(fs_solution):
    # g^(1) off by 1e-3 leaves the form closed, but calibrate no longer matches
    rep = curvature_and_class(perturb_solution(fs_solution, "g", 1, 1e-3))
    assert rep.closedness.passed and rep.class_integral is None
    assert not rep.passed


@pytest.mark.parametrize(
    "metric, M, D, perturb, reason",
    [
        # a negative order bumped the top order through Python's indexing
        ("perturbed_flat:2,0.1,0,2", "3", "8", "v:-1:1e-3", "v has no order -1"),
        # order 3 is trusted to degree -4: no check reads it, so it passed
        ("perturbed_flat:4,0.1,0,2", "3", "4", "v:3:1e-3", "v order 3 has valid_degree -4"),
        ("perturbed_flat:4,0.1,0,2", "3", "4", "g:2:1e-3", "g order 2 has valid_degree -2"),
        # v_1 is trusted to degree 0: its x1^2 bump would lie past it, unread
        ("perturbed_flat:4,0.1,0,2", "3", "4", "v:1:1e-3", "v order 1 has valid_degree 0"),
    ],
)
def test_cli_verify_refuses_a_perturbation_no_check_can_see(
    tmp_path, monkeypatch, capsys, metric, M, D, perturb, reason
):
    ran = []
    monkeypatch.setattr("ricciflat.cli.residual_system", lambda *a: ran.append(a))
    out = tmp_path / "out"
    argv = ["verify", "--metric", metric, "--M", M, "--D", D, "--perturb", perturb]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv + ["--no-timestamp", "--out", str(out)])
    assert code == 2
    assert reason in capsys.readouterr().err
    assert ran == [] and not out.exists()


def _flat_with_nan(i, j, idx):
    ctx = context(2, 4)
    rows = [[ctx.constant(1.0 if a == b else 0.0) for b in range(2)] for a in range(2)]
    c = rows[i][j].coeffs.copy()
    c[idx] = math.nan
    rows[i][j] = Jet(ctx, c, ctx.cap)
    return HermitianJetMatrix(rows)


@pytest.mark.parametrize("i, j, idx", [(1, 0, 3), (0, 1, 3), (1, 1, 0)])
def test_initial_data_rejects_nan_entries(i, j, idx):
    h = _flat_with_nan(i, j, idx)
    assert math.isnan(h.hermitian_defect())
    with pytest.raises(InvalidInputError):
        InitialData(h=h)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_solver_config_rejects_non_finite_c(c):
    with pytest.raises(InvalidInputError):
        SolverConfig(c=c)


@pytest.mark.parametrize(
    "extra",
    [
        ("--metric", "fubini_study_chart:1,nan"),
        ("--metric", "fubini_study_chart:1,1", "--c", "nan"),
    ],
)
def test_cli_verify_rejects_non_finite_input_with_exit_two(tmp_path, extra):
    out = tmp_path / "out"
    code = main(["verify", *extra, "--M", "4", "--D", "10", "--no-timestamp", "--out", str(out)])
    assert code == 2


def test_cli_solve_refuses_a_degree_cap_below_two(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--metric", "flat:1", "--M", "2", "--D", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: invalid input: space_degree must be >= 2\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "closed-form"])
def test_cli_failed_initial_data_prints_only_its_error(tmp_path, command):
    # an infinite scale makes the jets NaN: numpy's RuntimeWarning from the
    # build must not reach stderr ahead of the one-line refusal.  A fresh
    # process, because pytest records warnings that would otherwise print.
    argv = [command, "--metric", "fubini_study_chart:1,inf", "--M", "2", "--D", "6"]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ricciflat", *argv, "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: invalid input: initial metric is not finite at the base point\n"


def test_cli_solve_refuses_an_overflowed_series_before_writing(tmp_path):
    # 10^200 x1^2 overflows the series of det h; the margins that should
    # catch it are NaN, and a NaN must not be dropped by a max
    scenario = tmp_path / "overflow.ini"
    scenario.write_text("[metric]\nn = 1\nh_1_1 = 1 + 10^200*x1^2\n[solver]\nM = 3\nD = 8\n")
    out = tmp_path / "out"
    code = main(["solve", str(scenario), "--no-timestamp", "--out", str(out)])
    assert code == 3
    assert not out.exists()
