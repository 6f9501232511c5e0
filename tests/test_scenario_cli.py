import itertools
import json
import os

import pytest

from conftest import jet_eval
from ricciflat import cli
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
    [
        "x3", "z1", "1 +* 2", "x1^(2)", "x1^2.5", "(x1", "x1 @ 2",
        # a sign takes one whole power: no second ^ after it
        "-x1^2^2", "+x1^2^3", "2*-x1^2^2",
    ],
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
    assert main(["solve", str(path), "--out", str(out), "--no-timestamp"]) == 0
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
    code = run_cli("solve", str(bad), "--out", str(tmp_path / "o"))
    assert code == 2


def test_cli_exit_codes_for_bad_input(tmp_path):
    assert run_cli("solve", "--metric", "nope:1", "--out", str(tmp_path)) == 2
    assert run_cli("solve", "--out", str(tmp_path)) == 2
    assert run_cli("solve", "missing_file.scn", "--out", str(tmp_path)) == 2


@pytest.mark.parametrize(
    "file_text, argv, named",
    [
        ("[solver]\nM = abc\n", (), "[solver] M = 'abc'"),
        ("[output]\nno_timestamp = maybe\n", (), "[output] no_timestamp = 'maybe'"),
        (None, ("--metric", "flat:1,2"), "flat:n takes 1 parameter(s), got 2"),
        (None, ("--metric", "fubini_study_chart:1"), "fubini_study_chart:n,scale takes 2"),
        (None, ("--metric", "fubini_study_chart:1.7,1"), "n must be an integer, got 1.7"),
        (None, ("--metric", "perturbed_flat:1,0.1,0.5,2"), "seed must be an integer, got 0.5"),
        (None, ("--metric", "perturbed_flat:1,0.1,-3,2"), "seed and degree must be nonnegative"),
        (None, ("--metric", "flat:1", "--tol", "-1"), "tolerance must be finite and positive"),
        (None, ("--metric", "flat:1", "--tol", "nan"), "tolerance must be finite and positive"),
        ("n = 2\nh_1_1 = 1 + x1^2\nh_2_2 = 1\n", (), "[metric] builtin and h_1_1, h_2_2"),
        ("n = 3\n", (), "[metric] n = 3 disagrees with flat:1, of dimension 1"),
        (None, ("--metric", "flat:1", "--jobs", "0"), "--jobs must be at least 1, got 0"),
        ("", ("--metric", "flat:1", "--jobs", "-2"), "--jobs must be at least 1, got -2"),
    ],
    ids=[
        "file-M", "file-no_timestamp", "flat-arity", "fs-arity", "fs-float-n",
        "perturbed-float-seed", "perturbed-negative-seed", "tol-negative", "tol-nan",
        "file-two-sources", "file-builtin-n", "jobs-zero", "jobs-negative-batch",
    ],
)
def test_cli_refuses_malformed_input_with_exit_two(tmp_path, capsys, file_text, argv, named):
    if file_text is not None:
        path = tmp_path / "sc.ini"
        path.write_text("[metric]\nbuiltin = flat:1\n" + file_text)
        argv = (str(path), *argv)
    out = tmp_path / "out"
    code = run_cli("verify", *argv, "--M", "3", "--D", "8", "--out", str(out), "--no-timestamp")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: invalid input:") and named in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_cli_accepts_a_builtin_metric_with_its_own_dimension(tmp_path):
    path = tmp_path / "sc.ini"
    path.write_text("[metric]\nbuiltin = perturbed_flat:2,0.1,0,2\nn = 2\n")
    out = tmp_path / "out"
    assert run_cli("solve", str(path), "--M", "3", "--D", "8", "--out", str(out), "--no-timestamp") == 0
    scenario = json.loads((out / "report.json").read_text())["scenario"]
    assert (scenario["metric"], scenario["metric_n"]) == ("perturbed_flat:2,0.1,0,2", 2)


@pytest.mark.parametrize(
    "metric, D, vd",
    [("perturbed_flat:2,0.1,0,2", "3", -1), ("perturbed_flat:2,0.1,0,2", "4", 0), ("fubini_study_chart:1,1", "3", 1)],
)
def test_majorant_refuses_first_order_data_without_second_derivatives(tmp_path, capsys, metric, D, vd):
    # A reads norms of L(v_1), two derivatives of v_1: an untrusted norm
    # reads 0 and would let the bounds pass on nothing
    out = tmp_path / "out"
    argv = ("majorant", "--metric", metric, "--M", "4", "--D", D, "--R", "0.2")
    code = run_cli(*argv, "--out", str(out), "--no-timestamp")
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err[-1].startswith("error: invalid input:") and f"valid_degree {vd}" in err[-1]
    assert not any("Traceback" in line for line in err)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, field, want",
    [(("--laplacian",), "checks", ["laplacian"]), (("--M", "3"), "t_order", 3)],
    ids=["checks", "M"],
)
def test_cli_flags_win_over_the_scenario_file(tmp_path, flags, field, want):
    path = tmp_path / "sc.ini"
    path.write_text(
        "[metric]\nbuiltin = flat:1\n[solver]\nM = 4\nD = 8\n[checks]\nrun = system\n"
    )
    out = tmp_path / "out"
    assert run_cli("verify", str(path), *flags, "--out", str(out), "--no-timestamp") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"][field] == want
    assert sorted(report["checks"]) == sorted(report["scenario"]["checks"])


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


def test_cli_jobs_pool_has_at_most_one_worker_per_scenario(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records the pool size asked for and runs each task in this
        process: no worker process is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    files = []
    for seed in range(3):
        path = tmp_path / f"s{seed}.ini"
        path.write_text(
            f"[metric]\nbuiltin = perturbed_flat:1,0.1,{seed},2\n[solver]\nM = 2\nD = 6\n"
        )
        files.append(str(path))
    for jobs in ("5000", "2", "1"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli("solve", *files, "--jobs", jobs, "--out", str(out), "--no-timestamp") == 0
        assert len(os.listdir(out)) == 3
    assert sizes == [3, 2]


def test_cli_calls_in_one_process_share_the_parser_and_nothing_else(tmp_path):
    from ricciflat import cli
    from ricciflat.scenario import ALL_CHECKS

    assert cli._build_parser() is cli._build_parser()
    metric = ("--metric", "perturbed_flat:1,0.1,7,2", "--M", "5", "--D", "12", "--no-timestamp")
    runs = itertools.count()

    def run(command, *flags):
        out = tmp_path / f"{next(runs):02d}"
        code = run_cli(command, *metric, *flags, "--out", str(out))
        return code, json.loads((out / "report.json").read_text())

    code, rep = run("verify", "--system")
    assert code == 0 and sorted(rep["checks"]) == ["system"]
    code, rep = run("verify")
    assert code == 0 and sorted(rep["checks"]) == sorted(ALL_CHECKS)

    code, rep = run("verify", "--perturb", "v:2:1e-3")
    assert code == 1 and rep["passed"] is False
    code, rep = run("verify")
    assert code == 0 and rep["passed"] is True and rep["scenario"]["perturb"] is None

    code, rep = run("majorant", "--R", "0.2", "--m-max", "6")
    assert code == 0 and len(rep["majorant"]["C"]) == 7
    code, rep = run("majorant", "--R", "0.2")
    assert code == 0 and len(rep["majorant"]["C"]) == 6  # the default: C_0..C_M


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
        ("--eigenvalues", "1,2", "--metric", "flat:1", "missing.scn"),
        ("--eigenvalues", "1,2", "missing.scn"),
        ("--eigenvalues", "1,x"),
        ("--eigenvalues", ","),
        ("--eigenvalues", "1", "--n", "0"),
        ("--eigenvalues", "1,2", "--n", "-1"),
    ],
    ids=[
        "unknown-metric", "metric", "metric-file", "scenario", "not-a-number",
        "empty", "n-zero", "n-negative",
    ],
)
def test_cli_closed_form_eigenvalues_refuses_bad_input(tmp_path, capsys, extra):
    out = tmp_path / "cf"
    assert run_cli("closed-form", *extra, "--out", str(out), "--no-timestamp") == 2
    assert capsys.readouterr().err.startswith("error: invalid input:")
    assert not out.exists()


@pytest.mark.parametrize(
    "values",
    ["nan,1", "1,inf", "2,-inf", "1e308,1e308", "1e150,1e150"],
    ids=["nan", "inf", "minus-inf", "P-overflows", "w_inv-overflows"],
)
def test_cli_closed_form_fails_closed_on_non_finite_values(tmp_path, capsys, values):
    out = tmp_path / "cf"
    argv = ("closed-form", "--eigenvalues", values, "--M", "4")
    assert run_cli(*argv, "--out", str(out), "--no-timestamp") == 2
    assert capsys.readouterr().err.startswith("error: invalid input:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--metric", "perturbed_flat:1,0.1,7,2", "--D", "1"),
        ("closed-form", "--metric", "perturbed_flat:2,0.1,7,2", "--D", "1"),
        ("compare", "--metric", "perturbed_flat:1,0.1,7,2", "--M", "1", "--D", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_cli_initial_metric_with_no_trusted_degree_exits_two(tmp_path, capsys, argv):
    # two derivatives of the degree-1 potential leave h no trusted degree at
    # D = 1: the input is refused, naming the validity, before its constant
    # term is read
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out), "--no-timestamp") == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        "error: invalid input: initial metric entry h_1_1 has valid_degree -1: "
        "the degree cap leaves it no trusted coefficient"
    )
    assert not (out / "report.json").exists()


def test_cli_untrusted_read_exits_three(tmp_path, capsys, monkeypatch):
    # a coefficient read past its jet's validity is a numerical degeneracy
    def untrusted_read(initial, config):
        return context(1, 4).zero(-1).constant_term

    monkeypatch.setattr(cli, "solve", untrusted_read)
    out = tmp_path / "out"
    argv = ("solve", "--metric", "flat:1", "--M", "2", "--D", "4")
    assert run_cli(*argv, "--out", str(out), "--no-timestamp") == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        "error: numerical degeneracy: degree-0 coefficient read on a jet with valid_degree -1"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("closed-form", "--metric", "perturbed_flat:2,0.1,7,2", "--D", "2"),
        ("closed-form", "--metric", "perturbed_flat:1,0.1,7,2", "--D", "3"),
        ("compare", "--metric", "perturbed_flat:1,0.1,7,2", "--M", "2", "--D", "3"),
    ],
    ids=lambda argv: f"{argv[0]}-D{argv[-1]}",
)
def test_cli_ricci_form_too_coarse_to_test_exits_two(tmp_path, capsys, argv):
    # two derivatives of log det h leave the Ricci form no trusted degree at
    # D = 2 (n = 2) and D = 3 (n = 1): the input is refused, naming the
    # validity, before rho is read at the base point
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out), "--no-timestamp") == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(
        "error: invalid input: the characteristic polynomial's s^0 coefficient has valid_degree "
    )
    assert err[-1].endswith(": constant Ricci curvature cannot be tested past the base point")
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


def test_cli_majorant_verdict_covers_the_derivative_lemma(tmp_path, monkeypatch, capsys):
    from ricciflat import majorant
    from ricciflat.majorant import CauchyEstimateRow

    def one_failing_row(C, R):
        return [CauchyEstimateRow(0, R / 4.0, 2.0, 1.0, "fail")]

    monkeypatch.setattr(majorant, "cauchy_estimate_check", one_failing_row)
    out = tmp_path / "maj"
    code = run_cli(
        "majorant", "--metric", "perturbed_flat:2,0.1,0,2", "--M", "4", "--D", "10",
        "--R", "0.2", "--out", str(out), "--no-timestamp",
    )
    assert code == 1
    assert capsys.readouterr().out.startswith("majorant: FAIL")
    rep = json.loads((out / "report.json").read_text())["majorant"]
    assert rep["passed"] is False
    assert all(row["status"] != "fail" for row in rep["rows"])
    assert [row["status"] for row in rep["derivative_lemma"]] == ["fail"]


def test_cli_reports_hold_every_field_of_their_records(tmp_path, capsys):
    """Each JSON block holds every field of the dataclass it writes, so a
    field added to a record reaches the report without a key list to edit;
    each verify check block carries the verdict its stdout line prints."""
    from dataclasses import fields

    from ricciflat.closed_form import CalibrationReport
    from ricciflat.majorant import CauchyEstimateRow, DominationRow
    from ricciflat.verify import CurvatureReport, ResidualReport, ResidualRow, SmoothnessReport

    def missing(block, cls, *skip):
        return {f.name for f in fields(cls)} - set(skip) - set(block)

    def report(command, *flags):
        out = tmp_path / command
        run_cli(
            command, "--metric", "fubini_study_chart:1,1", "--M", "4", "--D", "10",
            *flags, "--out", str(out), "--no-timestamp",
        )
        rep = json.loads((out / "report.json").read_text())
        assert not missing(rep["scenario"], Scenario, "out_dir", "no_timestamp")
        return rep

    checks = report("verify")["checks"]
    printed = dict(
        line.removeprefix("verify[").split("]: ")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("verify[")
    )
    assert printed.keys() == checks.keys()
    for name, block in checks.items():
        assert block["passed"] is (printed[name] == "pass"), name
    residual = [checks[name] for name in ("system", "consequence", "laplacian")]
    residual.append(checks["curvature"]["closedness"])
    for block in residual:
        assert block["rows"] and not missing(block, ResidualReport)
        assert not any(missing(row, ResidualRow) for row in block["rows"])
    assert not missing(checks["curvature"], CurvatureReport)
    assert not missing(checks["smoothness"], SmoothnessReport)

    calibration = report("compare")["calibration"]
    assert not missing(calibration, CalibrationReport)

    maj = report("majorant", "--R", "0.2")["majorant"]
    assert maj["rows"] and not any(missing(row, DominationRow) for row in maj["rows"])
    lemma = maj["derivative_lemma"]
    assert lemma and not any(missing(row, CauchyEstimateRow) for row in lemma)


def test_cli_list_metrics(capsys):
    assert run_cli("list-metrics") == 0
    out = capsys.readouterr().out
    assert "fubini_study_chart" in out and "perturbed_flat" in out


def test_compare_outputs_refuses_an_existing_work_directory(tmp_path, capsys, monkeypatch):
    import compare_outputs

    def never(*args, **kwargs):
        raise AssertionError("a scenario ran before the refusal")

    monkeypatch.setattr(compare_outputs, "run", never)
    (tmp_path / "runs").mkdir()
    assert compare_outputs.main(["src", "src", "--work", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exists" in err
    assert not any((tmp_path / "runs").iterdir())
