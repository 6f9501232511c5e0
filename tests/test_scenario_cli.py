import json
import os

import pytest

from conftest import jet_eval
from ricciflat.cli import main
from ricciflat.errors import InvalidInputError
from ricciflat.jets import context
from ricciflat.scenario import (
    Scenario,
    inline_metric,
    parse_metric_spec,
    parse_polynomial,
    parse_scenario_text,
)


# -- expression grammar ---------------------------------------------------------


def test_parse_simple_polynomial():
    ctx = context(2, 4)
    jet = parse_polynomial("1 + 0.5*x1^2 - 2*y2", ctx)
    assert jet.constant_term == 1.0
    assert jet.coefficient((2, 0, 0, 0)) == 0.5
    assert jet.coefficient((0, 0, 0, 1)) == -2.0


def test_parse_parentheses_and_imaginary():
    ctx = context(1, 4)
    jet = parse_polynomial("(x1 + i*y1)^2", ctx)
    # (x + iy)^2 = x^2 - y^2 + 2i x y
    assert jet.coefficient((2, 0)) == 1.0
    assert jet.coefficient((0, 2)) == -1.0
    assert jet.coefficient((1, 1)) == 2j


def test_parse_unary_minus_and_eval():
    ctx = context(1, 6)
    jet = parse_polynomial("-x1^3 + 2*(1 - y1)*(1 + y1)", ctx)
    val = jet_eval(jet, [0.5, 0.25])
    assert val == pytest.approx(-0.125 + 2 * (1 - 0.0625))


@pytest.mark.parametrize(
    "bad",
    ["x3", "z1", "1 +* 2", "x1^(2)", "x1^2.5", "(x1", "x1 @ 2"],
)
def test_parse_rejects_garbage(bad):
    ctx = context(2, 4)
    with pytest.raises(InvalidInputError):
        parse_polynomial(bad, ctx)


# -- scenario files ---------------------------------------------------------------


SCENARIO_TEXT = """
[metric]
builtin = fubini_study_chart:1,1.0

[solver]
c = 1.0
M = 4
D = 10
R = 0.2
tol = 1e-9
seed = 3

[checks]
run = system,laplacian
"""


def test_parse_scenario_text():
    sc = parse_scenario_text(SCENARIO_TEXT)
    assert sc.metric == "fubini_study_chart:1,1.0"
    assert sc.t_order == 4 and sc.space_degree == 10
    assert sc.checks == ("system", "laplacian")
    init = sc.initial_data()
    assert init.n == 1


def test_scenario_file_seed_line_is_ignored(tmp_path):
    path = tmp_path / "fs.scn"
    path.write_text(SCENARIO_TEXT)
    out = tmp_path / "out"
    assert main(["solve", "--metric-file", str(path), "--out", str(out), "--no-timestamp"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"]["t_order"] == 4
    assert "seed" not in report["scenario"]


def test_metric_spec_parsing():
    name, params = parse_metric_spec("perturbed_flat:2,0.1,7,2")
    assert name == "perturbed_flat"
    assert params == [2, 0.1, 7, 2]


def test_product_metric_spec_parsing():
    name, factors = parse_metric_spec("product:fubini_study_chart:1,1.0|flat:1")
    assert name == "product"
    assert factors[0] == {"name": "fubini_study_chart", "params": [1, 1.0]}
    assert factors[1] == {"name": "flat", "params": [1]}
    sc = Scenario(metric="product:flat:1|flat:1", space_degree=8)
    assert sc.initial_data().n == 2


def test_inline_metric_mirrors_conjugate():
    entries = {(0, 0): "1 + x1^2", (0, 1): "0.1*x2 + i*0.2*y1", (1, 1): "1"}
    init = inline_metric(entries, 2, 6)
    assert init.h.hermitian_defect() <= 1e-12
    lower = init.h[1, 0]
    assert lower.coefficient((0, 0, 1, 0)) == pytest.approx(0.1)
    assert lower.coefficient((0, 1, 0, 0)) == pytest.approx(-0.2j)


def test_inline_metric_rejects_conjugate_mismatch():
    entries = {(0, 0): "1", (0, 1): "x2", (1, 0): "0.5*x2", (1, 1): "1"}
    with pytest.raises(InvalidInputError):
        inline_metric(entries, 2, 6)


def test_inline_metric_rejects_missing_diagonal():
    with pytest.raises(InvalidInputError):
        inline_metric({(0, 1): "x1"}, 2, 6)


def test_scenario_checks_validated():
    with pytest.raises(InvalidInputError):
        parse_scenario_text("[checks]\nrun = bogus\n")


# -- CLI ---------------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_solve_flat_writes_reports(tmp_path):
    out = tmp_path / "flat"
    code = run_cli(
        "solve", "--metric", "flat:2", "--M", "6", "--D", "14",
        "--out", str(out), "--no-timestamp",
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solution"]["w_inv_crosscheck"] == 0.0
    rows = (out / "w_inv.csv").read_text().strip().splitlines()
    assert rows[0].startswith("series,i,j,t_order")
    body = [r for r in rows[1:] if r]
    assert len(body) == 1  # single nonzero coefficient: t^1 = 1
    assert body[0].split(",")[3] == "1"
    assert body[0].split(",")[6] == "1.0"


def test_cli_verify_flat_all_checks(tmp_path):
    out = tmp_path / "verify"
    code = run_cli(
        "verify", "--metric", "flat:1", "--M", "6", "--D", "14",
        "--out", str(out), "--no-timestamp",
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {
        "system", "consequence", "laplacian", "curvature", "smoothness",
    }
    assert (out / "residuals.csv").exists()


def test_cli_verify_perturbed_fails_with_exit_one(tmp_path):
    out = tmp_path / "neg"
    code = run_cli(
        "verify", "--metric", "fubini_study_chart:1,1", "--M", "5", "--D", "14",
        "--perturb", "v:2:1e-3", "--out", str(out), "--no-timestamp",
    )
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["checks"]["system"]["max_relative_residual"] >= 1e-4


def test_cli_rejects_non_hermitian_metric_file(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "[metric]\nn = 2\nh_1_1 = 1\nh_2_2 = 1\nh_1_2 = x2\nh_2_1 = 0.5*x2\n"
    )
    code = run_cli("solve", "--metric-file", str(bad), "--out", str(tmp_path / "o"))
    assert code == 2


def test_cli_exit_codes_for_bad_input(tmp_path):
    assert run_cli("solve", "--metric", "nope:1", "--out", str(tmp_path)) == 2
    assert run_cli("solve", "--out", str(tmp_path)) == 2
    assert run_cli("solve", "missing_file.scn", "--out", str(tmp_path)) == 2


def test_cli_seed_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--metric", "flat:1", "--seed", "3", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_smoothness_verdict_includes_the_base_coefficient(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from ricciflat import cli

    original = cli.smoothness_check

    def off_base(*args, **kwargs):
        rep = original(*args, **kwargs)
        return replace(rep, a_deviation=1e-3 * max(1.0, abs(rep.a_expected)))

    monkeypatch.setattr(cli, "smoothness_check", off_base)
    out = tmp_path / "smooth"
    code = run_cli(
        "verify", "--metric", "flat:1", "--M", "4", "--D", "10", "--smoothness",
        "--out", str(out), "--no-timestamp",
    )
    assert code == 1
    assert "verify[smoothness]: FAIL" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["smoothness"]["verdict_matches_c"] is True
    assert report["passed"] is False


def test_cli_byte_identical_reports(tmp_path):
    args = [
        "verify", "--metric", "fubini_study_chart:1,1", "--M", "4", "--D", "10",
        "--no-timestamp",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("report.json", "residuals.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_batch_jobs_deterministic(tmp_path):
    sc = tmp_path / "one.scn"
    sc.write_text(
        "[metric]\nbuiltin = perturbed_flat:1,0.1,3,2\n[solver]\nM = 4\nD = 12\n"
    )
    sc2 = tmp_path / "two.scn"
    sc2.write_text(
        "[metric]\nbuiltin = perturbed_flat:1,0.1,4,2\n[solver]\nM = 4\nD = 12\n"
    )
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run_cli(
        "verify", str(sc), str(sc2), "--out", str(serial), "--no-timestamp"
    ) == 0
    assert run_cli(
        "verify", str(sc), str(sc2), "--out", str(parallel), "--no-timestamp",
        "--jobs", "2",
    ) == 0
    for sub in sorted(os.listdir(serial)):
        a = (serial / sub / "report.json").read_bytes()
        b = (parallel / sub / "report.json").read_bytes()
        assert a == b


def test_cli_compare_projective(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--metric", "fubini_study_chart:1,1", "--M", "5", "--D", "12",
        "--out", str(out), "--no-timestamp",
    )
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["calibration"]["kappa"] == 4.0
    assert rep["calibration"]["max_relative_deviation"] <= 1e-9


def test_cli_closed_form_eigenvalues(tmp_path):
    out = tmp_path / "cf"
    code = run_cli(
        "closed-form", "--eigenvalues", "0,0", "--out", str(out), "--no-timestamp"
    )
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["P"] == [1.0]
    assert rep["w_inv_series"][:3] == [0.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "source",
    [("--eigenvalues", "1,2"), ("--metric", "fubini_study_chart:1,1", "--D", "8")],
    ids=["eigenvalues", "metric"],
)
def test_cli_closed_form_takes_its_order_from_the_scenario(tmp_path, source):
    def run(*extra):
        out = tmp_path / "_".join(extra or ("default",))
        code = run_cli("closed-form", *source, *extra, "--out", str(out), "--no-timestamp")
        return code, out

    code, out = run()
    assert code == 0
    assert len(json.loads((out / "report.json").read_text())["w_inv_series"]) == 9
    code, out = run("--M", "0")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["w_inv_series"] == [0.0]
    for bad in ("-1", "-2"):
        code, out = run("--M", bad)
        assert code == 2
        assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ("--eigenvalues", "1,2", "--metric", "nope:3"),
        ("--eigenvalues", "1,2", "--metric", "flat:1"),
        ("--eigenvalues", "1,2", "--metric-file", "missing.scn"),
        ("--eigenvalues", "1,2", "missing.scn"),
        ("--eigenvalues", "1,x"),
    ],
    ids=["unknown-metric", "metric", "metric-file", "scenario", "not-a-number"],
)
def test_cli_closed_form_eigenvalues_refuses_bad_input(tmp_path, capsys, extra):
    out = tmp_path / "cf"
    assert run_cli("closed-form", *extra, "--out", str(out), "--no-timestamp") == 2
    assert capsys.readouterr().err.startswith("error: invalid input:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--metric", "perturbed_flat:1,0.1,7,2", "--D", "1"),
        ("closed-form", "--metric", "perturbed_flat:2,0.1,7,2", "--D", "2"),
        ("compare", "--metric", "perturbed_flat:1,0.1,7,2", "--M", "1", "--D", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_cli_untrusted_reads_exit_three(tmp_path, capsys, argv):
    # each run reads a constant term that the requested degree cap leaves
    # untrusted: the initial metric at D = 1, the Ricci form at D = 2 and 3
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out), "--no-timestamp") == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(
        "error: numerical degeneracy: degree-0 coefficient read on a jet with valid_degree -"
    )
    assert not (out / "report.json").exists()


def test_cli_majorant_runs(tmp_path):
    out = tmp_path / "maj"
    code = run_cli(
        "majorant", "--metric", "perturbed_flat:1,0.1,0,2", "--M", "5", "--D", "14",
        "--R", "0.2", "--out", str(out), "--no-timestamp",
    )
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["majorant"]["passed"] is True
    assert rep["majorant"]["C"][1] == rep["majorant"]["A"]


@pytest.mark.parametrize(
    "size",
    [
        ("--M", "3", "--D", "8"),
        ("--M", "4", "--D", "8", "--m-max", "3"),
        ("--M", "4", "--D", "8", "--m-max", "0"),
    ],
)
def test_cli_majorant_refuses_short_sequences_before_the_bounds(
    tmp_path, monkeypatch, capsys, size
):
    from ricciflat import majorant

    def never(*args, **kwargs):
        raise AssertionError("nonlinearity_bounds ran before the refusal")

    monkeypatch.setattr(majorant, "nonlinearity_bounds", never)
    code = run_cli(
        "majorant", "--metric", "perturbed_flat:2,0.1,1,2", *size, "--R", "0.2",
        "--out", str(tmp_path / "maj"), "--no-timestamp",
    )
    assert code == 2
    assert "radius estimate needs at least 4 coefficients" in capsys.readouterr().err
    assert not (tmp_path / "maj").exists()


def test_cli_majorant_with_clamped_A_needs_no_radius_estimate(tmp_path):
    out = tmp_path / "maj"
    code = run_cli(
        "majorant", "--metric", "flat:1", "--M", "3", "--D", "8", "--R", "0.2",
        "--out", str(out), "--no-timestamp",
    )
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["majorant"]["radius_estimate"] is None


def test_cli_list_metrics(capsys):
    assert run_cli("list-metrics") == 0
    out = capsys.readouterr().out
    assert "fubini_study_chart" in out and "perturbed_flat" in out
