"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import END_TO_END
from tracer import PER_LAYER, TRACED, Tracer, pass_metrics

workloads.use_checkout_source()

import ricciflat.cli as cli  # noqa: E402
import ricciflat.jets as jets  # noqa: E402
import ricciflat.solver as solver  # noqa: E402

HERE = Path(__file__).resolve().parent
COMPUTED = {name for name, unit, _ in PER_LAYER if unit in ("count", "B")} | {
    name for name, _, _ in PER_LAYER if name.endswith(".trusted_ratio")
}


def _with_perturbation(invocations, spec):
    return tuple(
        dataclasses.replace(inv, argv=inv.argv + ("--perturb", spec))
        if inv.command == "verify"
        else inv
        for inv in invocations
    )


def test_negative_control_counts_as_failed(tmp_path):
    first = workloads.WORKLOADS["verify_n2"].first_passes(seed=3, count=1)[0]
    assert workloads.run_pass(cli, first, tmp_path / "clean").failure is None
    bad = workloads.run_pass(cli, _with_perturbation(first, "v:2:1e-3"), tmp_path / "bad")
    assert bad.failure is not None and "exit 1" in bad.failure


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_scenarios(name):
    workload = workloads.WORKLOADS[name]
    first = workload.first_passes(seed=11, count=6)
    assert first == workload.first_passes(seed=11, count=6)
    assert first != workload.first_passes(seed=12, count=6)


def test_fs_batch_scales_cover_the_stated_range():
    scales = [
        float(inv.option("--metric").split(",")[1])
        for batch in workloads.WORKLOADS["fs_batch_n1"].first_passes(seed=0, count=200)
        for inv in batch
    ]
    assert 0.25 <= min(scales) < 0.3 and 3.5 < max(scales) <= 4.0


def test_tracer_reports_absent_names_and_restores_bindings():
    table = TRACED + (
        ("ricciflat.jets", "no_such_function", "jets.gone", None, None),
        ("ricciflat.jets", "NoSuchClass.method", "jets.gone_method", None, None),
        ("ricciflat.no_such_module", "f", "gone.f", None, None),
    )
    original = jets.jet_mul
    tracer = Tracer(table)
    tracer.install()
    try:
        assert solver.jet_mul is not original and jets.jet_mul is not original
    finally:
        tracer.uninstall()
    assert solver.jet_mul is original and jets.jet_mul is original
    assert tracer.absent == [
        "ricciflat.jets.no_such_function",
        "ricciflat.jets.NoSuchClass.method",
        "ricciflat.no_such_module.f",
    ]


def _traced_counts(invocations, work):
    tracer = Tracer()
    tracer.pass_id = 1
    tracer.install()
    try:
        result = workloads.run_pass(cli, invocations, work)
    finally:
        tracer.uninstall()
    assert result.failure is None
    metrics = pass_metrics(tracer.spans, list(range(len(tracer.spans))), result.seconds)
    assert metrics["trace.top_level_coverage"] >= 0.9
    return {k: v for k, v in metrics.items() if k in COMPUTED}


def test_computed_counts_repeat_exactly(tmp_path):
    first = workloads.WORKLOADS["batch_n1"].first_passes(seed=5, count=1)[0]
    counts = _traced_counts(first, tmp_path / "a")
    assert counts == _traced_counts(first, tmp_path / "b")
    assert counts["jets.jet_mul.pair_products"] > 0
    assert 0 < counts["jets.jet_mul.trusted_ratio"] < 1


def test_per_layer_names_are_unique():
    names = [name for name, _, _ in PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)


def test_frozen_copy_stands_apart_from_the_checkout():
    code = (
        "import sys, workloads; workloads.use_frozen_source(); "
        f"import {workloads.FROZEN_PACKAGE}.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ricciflat'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_n2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""
