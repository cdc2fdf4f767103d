"""The report format, the metric names and the workload inputs."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads
from conftest import BENCH_DIR, REPO_ROOT

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_report_has_exactly_the_contract_keys():
    units = run.declared_units(REPO_ROOT / "BENCHMARK.json")
    metrics = {"wall_s": 1.5, "setup_s": 0.2, "peak_rss_mb": 80.0}
    line = run.format_report(True, 12, 3, metrics, units)
    report = json.loads(line)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert (report["attempted"], report["failed"]) == (12, 3)
    assert report["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    assert report["metrics"]["peak_rss_mb"]["unit"] == "MB"


def test_end_to_end_metrics_match_benchmark_file():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_per_layer_metrics_match_benchmark_file():
    produced = set(tracer.layer_metrics(tracer.Tracer(), steps_per_period=64))
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert produced | {"trace.overhead_s"} == declared


def test_workload_names_match_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_every_patched_attribute():
    from carrysim import cli, criteria, models, periodic, simplex

    before = (
        cli.cmd_check,
        cli.load_model_file,
        criteria.check_spectral_grid,
        models.MayOsterModel.growth,
        simplex.SimplexGrid.interpolate,
    )
    t = tracer.Tracer()
    t.install()
    assert cli.cmd_check is not before[0]
    assert "verified_axial_fixed_points" in periodic.PoincareMapModel.__dict__
    t.uninstall()
    after = (
        cli.cmd_check,
        cli.load_model_file,
        criteria.check_spectral_grid,
        models.MayOsterModel.growth,
        simplex.SimplexGrid.interpolate,
    )
    assert after == before
    assert "verified_axial_fixed_points" not in periodic.PoincareMapModel.__dict__


def test_tracer_counts_rows_and_self_time():
    from carrysim import criteria
    from carrysim.models import MayOsterModel

    model = MayOsterModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]])
    t = tracer.Tracer()
    t.install()
    try:
        model.growth(np.zeros((7, 2)))
        criteria.check_spectral_grid(model, grid_resolution=4)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t, steps_per_period=64)
    # the 7-row call plus one row per grid point (16 + 81 refined)
    assert metrics["models.growth_calls"] > 1
    assert metrics["models.growth_rows"] >= 7 + 16 + 81
    assert metrics["criteria.spectral_radius_calls"] == 16 + 81
    assert 0.0 < metrics["criteria.Eq4_self_s"] < metrics["criteria.Eq4_s"]


@pytest.mark.parametrize("seed", range(20))
def test_generated_models_stay_in_their_ranges(seed):
    rng = np.random.default_rng(seed)
    coupled = workloads.coupled_may_oster(rng)
    A = np.array(coupled["A"])
    assert np.all((0.49 <= np.array(coupled["B"])) & (np.array(coupled["B"]) <= 0.51))
    assert np.all(np.diag(A) == 1.0)
    off = A[~np.eye(3, dtype=bool)]
    assert np.all((0.19 <= off) & (off <= 0.21))
    planar = workloads.planar_leslie_gower(rng)
    a = np.array(planar["A"][0])
    assert all(row == planar["A"][0] for row in planar["A"])
    assert np.all(planar["C"][0] < 1.0 + a / a.sum())


def test_generated_models_depend_only_on_the_seed():
    first = workloads.coupled_may_oster(np.random.default_rng(5))
    again = workloads.coupled_may_oster(np.random.default_rng(5))
    other = workloads.coupled_may_oster(np.random.default_rng(6))
    assert first == again
    assert first != other


def test_run_refuses_a_directory_without_carrysim(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "results", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""
