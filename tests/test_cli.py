"""The command-line contract: exit codes, one-line usage errors, fixed-seed output."""

import json
from pathlib import Path

import numpy as np
import pytest

from carrysim.cli import MAX_BATCH_ENTRIES, MAX_SWEEP_EVALUATIONS, main
from carrysim.modelio import LoadedModel, load_model_file
from carrysim.models import MayOsterModel, ModelEvaluationError
from carrysim.periodic import MAX_STEPS_PER_INTEGRATION, PoincareMapModel

MODELS = Path(__file__).resolve().parents[1] / "models"
# the periodic model at the reduced resolution of the periodic_check benchmark
PERIODIC_FAST = ["--ode-steps", "64", "--grid", "8", "--samples", "2000"]
OVERSHOOT = {
    "type": "may_oster",
    "n": 3,
    "B": [0.5, 0.4, 0.45],
    "A": [[1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]],
}
# four species whose carrying simplex is the plane a.x = 0.1: the n >= 4 point cloud
PLANAR4_ROW = [1.0, 0.8, 0.6, 0.4]
PLANAR4 = {"type": "leslie_gower", "n": 4, "C": [1.1] * 4, "A": [PLANAR4_ROW] * 4}
MAY1 = {"type": "may_oster", "n": 1, "B": [0.5], "A": [[1.0]]}


def weak_may_oster(n: int) -> dict:
    """n weakly coupled May-Oster species: B = 0.4, A_ii = 1 and A_ij = 0.05."""
    A = (0.05 + 0.95 * np.eye(n)).tolist()
    return {"type": "may_oster", "n": n, "B": [0.4] * n, "A": A}


# model files that tests write from these descriptions
INLINE_MODELS = {
    "MAY1": MAY1, "OVERSHOOT": OVERSHOOT, "PLANAR4": PLANAR4, "MAY5": weak_may_oster(5)
}


def model(name: str) -> str:
    return str(MODELS / f"{name}.json")


@pytest.mark.parametrize(
    "name, extra, code",
    [
        ("may2", [], 0),
        ("leslie2", [], 0),
        ("neural2", [], 0),
        ("may1_b3", [], 1),  # C4, Eq4 and InvPos fail: |T'(q)| = 2
        ("periodic_lv2", PERIODIC_FAST, 2),  # no closed-form Model criterion
    ],
)
def test_check_exit_codes_on_bundled_models(name, extra, code, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", "--model", model(name), "--out", str(out), *extra]) == code
    report = json.loads(out.read_text())
    verdicts = {c["verdict"] for c in report["conditions"]}
    assert ("fail" in verdicts) == (code == 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],  # missing --model
        ["check", "--model", model("may2"), "--grid", "abc"],
        ["check", "--model", model("may2"), "--samples", "0"],
        ["check", "--model", model("may2"), "--seed", "-1"],
        ["check", "--model", model("periodic_lv2"), "--ode-steps", "10"],
        ["simplex", "--model", model("may2"), "--grid", "1"],
        ["simplex", "--model", model("may2"), "--tol", "nan"],
        ["simulate", "--model", model("may2"), "--x0", "1,nan"],
        ["simulate", "--model", model("may2"), "--x0", "1"],
        ["sweep1d", "--b-min", "0", "--b-max", "1"],
        ["sweep1d", "--b-min", "2", "--b-max", "1"],
        ["sweep1d", "--b-min", "1", "--b-max", "2", "--record", "0"],
        ["wangjiang", "--model", model("periodic_lv2"), "--t-span", "0"],
        ["frobnicate"],
        # each subcommand takes only the flags it reads
        ["check", "--model", model("may2"), "--tol", "1e-8"],
        ["simplex", "--model", model("may2"), "--format", "csv"],
        ["simulate", "--model", model("may2"), "--x0", "0.1,0.2", "--seed", "1"],
        ["sweep1d", "--b-min", "1", "--b-max", "2", "--grid", "8"],
        ["wangjiang", "--model", model("periodic_lv2"), "--samples", "10"],
        ["wangjiang", "--model", model("may2")],  # a closed form has no ODE to integrate
    ],
)
def test_usage_errors_exit_64_with_one_line(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_simulate_on_a_closed_form_writes_the_orbit_of_the_map(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    argv = ["simulate", "--model", model("may2"), "--x0", "0.1,0.2", "--steps", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"trajectory written to {out}\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "k,x_1,x_2" and len(lines) == 1 + 4
    assert lines[2] == "1,0.14333294145603401,0.23706097026407311"
    may2, x = load_model_file(model("may2")).model, np.array([0.1, 0.2])
    for k, line in enumerate(lines[1:]):
        assert line == ",".join([str(k), *(format(v, ".17g") for v in x)])
        x = may2.step(x)


def test_oversized_ode_steps_is_a_usage_error_before_any_table(tmp_path, capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a stage table was built")

    monkeypatch.setattr("carrysim.periodic._stage_table", no_table)
    argv = ["check", "--model", model("periodic_lv2"), "--ode-steps", "100000000"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert ">= 64 and <= 65536" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["wangjiang", "--model", model("periodic_lv2"), "--t-span", "1e9"],
        ["simulate", "--model", model("periodic_lv2"), "--x0", "0.1,0.2", "--steps", "100000000"],
    ],
)
def test_oversized_integration_span_is_a_usage_error_before_any_table(
    argv, tmp_path, capsys, monkeypatch
):
    def no_table(*args):
        raise AssertionError("a stage table was built")

    monkeypatch.setattr("carrysim.periodic._stage_table", no_table)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "at most 1048576 RK4 steps" in err
    assert not list(tmp_path.iterdir())


@pytest.fixture
def no_map_model(monkeypatch):
    """Building a model's map is an error: a flag checked before any array is
    built never gets that far."""

    def no_map(*args):
        raise AssertionError("a map model was built")

    monkeypatch.setattr(LoadedModel, "map_model", no_map)


@pytest.fixture
def overshoot_without_map(tmp_path, no_map_model):
    """The three-species overshoot model as a file, with building its map an error."""
    path = tmp_path / "overshoot.json"
    path.write_text(json.dumps(OVERSHOOT))
    return path


# three species: a batch of at most MAX_BATCH_ENTRIES // 9 = 7,456,540 rows
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--grid", "196"],  # 196^3 = 7,529,536 grid points
        ["check", "--grid", "5000"],
        ["check", "--samples", "7456541"],
        ["check", "--samples", "100000000000"],
        ["simplex", "--force", "--grid", "2730"],  # 2731^2 lattice rows
        ["simplex", "--force", "--grid", "100000"],
        ["simplex", "--grid", "196"],  # the criteria pre-check's grid
        ["check", "--samples", "7452341"],  # with the 16^3 grid and the 104-point probe
    ],
)
def test_oversized_grid_or_samples_is_a_usage_error_before_any_array(
    argv, overshoot_without_map, tmp_path, capsys
):
    assert MAX_BATCH_ENTRIES // 9 == 7_456_540
    path = overshoot_without_map
    out = tmp_path / "out"
    assert main([argv[0], "--model", str(path), *argv[1:], "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2]}: asks for a batch of ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--grid", "195"],  # 195^3 = 7,414,875 grid points
        ["check", "--samples", "7452340"],  # 7,456,540 - 16^3 grid points - 104 probe points
        ["simplex", "--force", "--grid", "2729"],  # 2730^2 lattice rows
    ],
)
def test_grid_and_samples_at_the_batch_bound_are_accepted(argv, overshoot_without_map):
    with pytest.raises(AssertionError, match="a map model was built"):
        main([argv[0], "--model", str(overshoot_without_map), *argv[1:]])


@pytest.mark.parametrize(
    "grid, samples, refused",
    [
        ("195", "41561", None),  # 7,414,875 + 41,561 + 104 = 7,456,540 rows
        ("195", "41562", "--grid"),
        ("150", "4081436", None),  # 3,375,000 + 4,081,436 + 104
        ("150", "4081437", "--samples"),
        ("195", "7456540", "--samples"),  # each flag alone within the bound
    ],
)
def test_grid_and_samples_share_one_batch_bound(
    grid, samples, refused, overshoot_without_map, tmp_path, capsys
):
    """C5's samples, the grid and the InvPos probe ride in one tangent pass, so
    their rows together are bounded; the error names the flag asking for more."""
    argv = ["check", "--model", str(overshoot_without_map), "--grid", grid, "--samples", samples]
    if refused is None:
        with pytest.raises(AssertionError, match="a map model was built"):
            main(argv)
        return
    assert main([*argv, "--out", str(tmp_path / "out")]) == 64
    rows = int(grid) ** 3 + int(samples) + 104
    assert capsys.readouterr().err == (
        f"error: {refused}: asks for a batch of {rows} points; at most 7456540 for 3 species\n"
    )
    assert list(tmp_path.iterdir()) == [overshoot_without_map]


def may_oster_file(directory: Path, n: int) -> Path:
    path = directory / f"may{n}.json"
    path.write_text(json.dumps(weak_may_oster(n)))
    return path


def test_six_species_take_the_default_grid_and_an_explicit_one_is_bounded(
    tmp_path, capsys, no_map_model
):
    path = may_oster_file(tmp_path, 6)
    for command in ("check", "simplex"):
        with pytest.raises(AssertionError, match="a map model was built"):
            main([command, "--model", str(path)])  # default grid 6: 6^6 = 46,656 points
    argv = ["check", "--model", str(path), "--grid", "12", "--out", str(tmp_path / "out")]
    assert main(argv) == 64
    assert capsys.readouterr().err == (
        "error: --grid: asks for a batch of 2996091 points; at most 1864135 for 6 species\n"
    )
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(AssertionError, match="a map model was built"):
        main(["check", "--model", str(path), "--grid", "11"])  # 11^6 = 1,771,561 points


def test_eq4_refinement_stays_within_the_bound_at_seven_species(tmp_path, capsys, no_map_model):
    """Eq4 refines on at most default_grid(n)^n points, 4^7 here, whatever the
    grid, so a small --grid is accepted and only a large one is refused."""
    path = may_oster_file(tmp_path, 7)
    for command in ("check", "simplex"):
        for grid in ("2", "7"):  # 7^7 = 823,543 points
            with pytest.raises(AssertionError, match="a map model was built"):
                main([command, "--model", str(path), "--grid", grid])
        argv = [command, "--model", str(path), "--grid", "8", "--out", str(tmp_path / "out")]
        assert main(argv) == 64
        assert capsys.readouterr().err == (
            "error: --grid: asks for a batch of 2107260 points; at most 1369568 for 7 species\n"
        )
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("n", range(1, 13))
def test_no_number_of_species_is_refused_at_the_defaults(n, tmp_path, no_map_model):
    path = may_oster_file(tmp_path, n)
    for command in ("check", "simplex"):
        with pytest.raises(AssertionError, match="a map model was built"):
            main([command, "--model", str(path)])


def cheap_radius(M):
    """The largest column sum of |M|, a bound on rho(M) that costs no eigensolve."""
    return float(np.abs(M).sum(axis=0).max())


@pytest.mark.parametrize(
    "name, extra, grid",
    [
        ("may2", [], 16),
        ("leslie2", [], 16),
        ("neural2", [], 16),
        ("may1_b3", [], 16),
        ("periodic_lv2", ["--ode-steps", "64"], 16),
        ("PLANAR4", [], 16),
        ("MAY5", [], 9),
    ],
)
def test_check_without_grid_writes_the_report_of_its_default_grid(
    name, extra, grid, tmp_path, monkeypatch
):
    """The grid is what is compared, so Eq4's radius is swapped for a cheap bound."""
    monkeypatch.setattr("carrysim.criteria.spectral_radius", cheap_radius)
    path = model(name)
    if name in INLINE_MODELS:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(INLINE_MODELS[name]))
    argv, reports = ["check", "--model", str(path), "--samples", "500", *extra], []
    for flags in ([], ["--grid", str(grid)]):
        out = tmp_path / f"report{len(reports)}.json"
        main([*argv, "--out", str(out), *flags])
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["grid_resolution"] == grid
    eq3a = next(c for c in report["conditions"] if c["id"] == "Eq3a")
    assert eq3a["samples"] == grid ** len(eq3a["witness"]["x"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_names_its_default_report_after_the_format(fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--model", model("may2"), "--samples", "500", "--format", fmt]) == 0
    assert capsys.readouterr().out.endswith(f"report written to criteria_report.{fmt}\n")
    assert [p.name for p in tmp_path.iterdir()] == [f"criteria_report.{fmt}"]
    text = (tmp_path / f"criteria_report.{fmt}").read_text()
    assert text.startswith("{" if fmt == "json" else "id,verdict,worst\n")


@pytest.mark.parametrize(
    "argv", [[], ["check"], ["simplex"], ["simulate"], ["sweep1d"], ["wangjiang"]]
)
def test_help_exits_0_with_a_usage_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(['carrysim', *argv])} ")


SWEEP = ["sweep1d", "--b-min", "1", "--b-max", "2"]


# one value per b and kept step: at most MAX_BATCH_ENTRIES = 67,108,864
@pytest.mark.parametrize(
    "argv",
    [
        ["--b-count", "524289"],  # times the default --record 128
        ["--b-count", "100000000000"],
        ["--b-count", "67108865", "--record", "1"],
        ["--b-count", "1000", "--record", "100000000000", "--steps", "100000000000"],
    ],
)
def test_oversized_sweep_is_a_usage_error_before_any_array(argv, tmp_path, capsys):
    assert main([*SWEEP, *argv, "--out", str(tmp_path / "sweep.csv")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: min(--record, --steps) x --b-count: asks for a batch of ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["--b-count", "524288"],
        ["--b-count", "67108864", "--record", "1"],
        ["--b-count", "67108864", "--record", "100000000000", "--steps", "1"],
    ],
)
def test_sweep_at_the_batch_bound_is_accepted(argv, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep_1d was called")

    monkeypatch.setattr("carrysim.cli.sweep_1d", no_sweep)
    with pytest.raises(AssertionError, match="sweep_1d was called"):
        main([*SWEEP, *argv])


# (the flags refused, its error line, the flags at the bound) of each time bound
SWEEP_TIME_BOUNDS = {
    "steps": (
        ["--b-count", "1", "--steps", str(MAX_STEPS_PER_INTEGRATION + 1)],
        "error: --steps: at most 1048576 map steps, got 1048577",
        ["--b-count", "1", "--steps", str(MAX_STEPS_PER_INTEGRATION)],
    ),
    # a tail of one value per b passes the batch bound at 2^26 b values
    "steps-x-b-count": (
        ["--b-count", str(MAX_BATCH_ENTRIES), "--steps", str(MAX_STEPS_PER_INTEGRATION)],
        "error: --steps x --b-count: at most 68719476736 map evaluations, got 70368744177664",
        ["--b-count", str(MAX_SWEEP_EVALUATIONS // MAX_STEPS_PER_INTEGRATION),
         "--steps", str(MAX_STEPS_PER_INTEGRATION)],
    ),
}  # fmt: skip


@pytest.mark.parametrize("bound", list(SWEEP_TIME_BOUNDS))
def test_sweep_above_a_time_bound_is_a_usage_error(bound, tmp_path, capsys, monkeypatch):
    refused, line, at_bound = SWEEP_TIME_BOUNDS[bound]

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep_1d was called")

    monkeypatch.setattr("carrysim.cli.sweep_1d", no_sweep)
    argv = [*SWEEP, "--record", "1"]
    assert main([*argv, *refused, "--out", str(tmp_path / "s.csv")]) == 64
    assert capsys.readouterr().err == line + "\n"
    assert not list(tmp_path.iterdir())
    with pytest.raises(AssertionError, match="sweep_1d was called"):
        main([*argv, *at_bound])


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["--b-min", "0.5", "--b-max", "3.5", "--b-count", "40"],
         "converges: 20\nnon-convergent: 10\nperiodic: 10\n"),
        (["--b-min", "0.5", "--b-max", "3.5", "--b-count", "40", "--record", "1"],
         "converges: 20\nnon-convergent: 20\n"),
        (["--b-min", "1", "--b-max", "900", "--b-count", "60"],
         "converges: 1\ndivergent: 13\nperiodic: 46\n"),
    ],
)  # fmt: skip
def test_sweep_prints_the_count_of_each_class_in_alphabetical_order(
    argv, summary, tmp_path, capsys
):
    out = tmp_path / "sweep.csv"
    assert main(["sweep1d", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{summary}sweep written to {out}\n"


def test_simplex_exits_1_when_the_surface_is_not_unordered(tmp_path, capsys):
    path = tmp_path / "overshoot.json"
    path.write_text(json.dumps(OVERSHOOT))
    out = tmp_path / "surface.csv"
    assert main(["simplex", "--model", str(path), "--grid", "8", "--out", str(out)]) == 1
    assert "unordered: FAIL" in capsys.readouterr().out
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["converged"] is True
    assert meta["verification"]["unordered"]["ok"] is False


def test_simplex_exit_0_when_verified(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["simplex", "--model", model("may2"), "--grid", "16", "--out", str(out)]) == 0


def test_simplex_keeps_exit_3_when_not_converged(tmp_path):
    out = tmp_path / "surface.csv"
    argv = ["simplex", "--model", model("may1_b3"), "--force", "--out", str(out)]
    assert main(argv) == 3


@pytest.mark.parametrize(
    "name, extra", [("leslie2", []), ("periodic_lv2", PERIODIC_FAST)]
)
def test_check_output_is_byte_identical_for_a_fixed_seed(name, extra, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for out in (first, second):
        main(["check", "--model", model(name), "--seed", "5", "--out", str(out), *extra])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["simplex", "--model", model("may2"), "--grid", "16"], ["out", "out.meta.json"]),
        (["simulate", "--model", model("periodic_lv2"), "--x0", "0.1,0.2", "--steps", "2",
          "--ode-steps", "64"], ["out"]),  # fmt: skip
        (["sweep1d", "--b-min", "0.5", "--b-max", "3.5", "--b-count", "40"], ["out"]),
        (["wangjiang", "--model", model("periodic_lv2"), "--pairs", "2", "--ode-steps", "64"],
         ["out"]),  # fmt: skip
        (["simplex", "--model", "PLANAR4", "--grid", "4", "--samples", "500"],
         ["out", "out.meta.json"]),  # fmt: skip
        (["simplex", "--model", "MAY1"], ["out", "out.meta.json"]),
        (["simplex", "--model", "OVERSHOOT", "--force", "--grid", "8"], ["out", "out.meta.json"]),
    ],
    ids=["simplex", "simulate", "sweep1d", "wangjiang", "point_cloud", "simplex_n1", "simplex_n3"],
)
def test_outputs_are_byte_identical_for_a_fixed_seed(argv, outputs, tmp_path, capsys):
    for name, description in INLINE_MODELS.items():
        if name in argv:
            path = tmp_path / f"{name.lower()}.json"
            path.write_text(json.dumps(description))
            argv = [str(path) if a == name else a for a in argv]
    written = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        main([*argv, "--out", str(tmp_path / run / "out")])
        streams = capsys.readouterr()
        files = [(tmp_path / run / name).read_bytes() for name in outputs]
        written.append((files, streams.out.replace(run, ""), streams.err))
    assert written[0] == written[1]


def test_simplex_writes_a_point_cloud_for_four_species(tmp_path, capsys):
    path = tmp_path / "planar4.json"
    path.write_text(json.dumps(PLANAR4))
    out = tmp_path / "cloud.csv"
    argv = ["simplex", "--model", str(path), "--grid", "4", "--samples", "500", "--out", str(out)]
    assert main(argv) == 0  # the criteria pre-check passes
    assert capsys.readouterr().out == (
        f"point cloud written to {out} (500 points)\nunordered: pass\n"
    )
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert (meta["mode"], meta["points"], meta["steps"], meta["seed"]) == (
        "point_cloud", 500, 200, 42,
    )  # fmt: skip
    assert meta["unordered"]["ok"] is True
    cloud = np.loadtxt(out, delimiter=",", skiprows=1)
    assert cloud.shape == (500, 4)
    # on the plane: a.x contracts toward 0.1 by 1/1.1 a step, 5e-9 after 200 steps
    assert np.allclose(cloud @ PLANAR4_ROW, 0.1, rtol=0.0, atol=1e-9)


def test_simplex_refuses_when_the_criteria_fail(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert main(["simplex", "--model", model("may1_b3"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "criteria failed (C3, C4, Eq3a, Eq3b, Eq4, InvPos, Model); "
        "re-run with --force to compute anyway\n"
    )
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_simplex_computes_the_period_map_q_once(tmp_path, monkeypatch):
    # the criteria pre-check and the surface share one period-map model
    calls = []
    original = PoincareMapModel.axial_fixed_points

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PoincareMapModel, "axial_fixed_points", counted)
    out = tmp_path / "surface.csv"
    argv = ["simplex", "--model", model("periodic_lv2"), *PERIODIC_FAST, "--out", str(out)]
    assert main(argv) == 1  # at m = 8 the surface is not unordered
    assert len(calls) == 1
    assert out.with_suffix(".meta.json").exists()


MAY2_NODES = 65  # the surface grid of two species at the default m = 64


@pytest.mark.parametrize(
    "fails_from, collapse, code, line",
    [
        # only batches with the check's starts fail: the surface is computed
        # without them, and the check then meets the error alone
        (MAY2_NODES + 1, False, 1, "error: a step of 100 rows failed"),
        # the node points fail too: the sweep raises what they raise alone
        (MAY2_NODES, False, 1, "error: a step of 65 rows failed"),
        # the node points map to the origin: the surface degenerates first
        (MAY2_NODES + 1, True, 3, "error: node 0 mapped to the origin; surface cannot cross 0"),
    ],
)  # fmt: skip
def test_a_failed_stacked_step_keeps_the_error_of_the_unstacked_steps(
    fails_from, collapse, code, line, tmp_path, capsys, monkeypatch
):
    rows = []
    step = MayOsterModel.step

    def failing(self, x):
        rows.append(len(x))
        if len(x) >= fails_from:
            raise ModelEvaluationError(f"a step of {len(x)} rows failed")
        return np.zeros_like(x) if collapse and len(x) == MAY2_NODES else step(self, x)

    monkeypatch.setattr(MayOsterModel, "step", failing)
    out = tmp_path / "surface.csv"
    argv = ["simplex", "--model", model("may2"), "--force", "--samples", "50", "--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")
    assert not list(tmp_path.iterdir())
    assert rows.count(MAY2_NODES + 100) == 1  # the orbits stop riding at the first failure


def test_model_file_that_is_not_utf8_exits_64(tmp_path, capsys):
    path = tmp_path / "may2.json"
    path.write_bytes(Path(model("may2")).read_bytes() + b"\xff\n")
    out = tmp_path / "report.json"
    assert main(["check", "--model", str(path), "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: model file {path} is not valid UTF-8: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--model", "absent.json"],
        ["simplex", "--model", "absent.json"],
        ["simulate", "--model", "absent.json", "--x0", "0.1,0.2"],
        ["sweep1d", "--b-min", "1", "--b-max", "2"],
        ["wangjiang", "--model", "absent.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_in_a_missing_directory_exits_64_before_reading_the_model(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([*argv, "--out", str(missing / "out")]) == 64
    assert capsys.readouterr().err == f"error: --out: {missing} is not a directory\n"
    assert not list(tmp_path.iterdir())


def test_an_unwritable_out_is_one_error_line(tmp_path, capsys):
    # the path is a directory, so opening it for writing fails
    assert main(["check", "--model", model("may2"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert err.count("\n") == 1


# negative self-competition: A1 and A2 fail and the axial-q iteration blows up
DIVERGENT_PERIODIC = {
    "type": "periodic_lv",
    "n": 2,
    "fourier": {
        "B": [{"const": 1.0}, {"const": 0.8}],
        "A": [[{"const": -1.0}, {"const": 0.3}], [{"const": 0.2}, {"const": 1.1}]],
    },
}


def test_check_reports_a_blown_up_integration_as_failures(tmp_path, capsys):
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(DIVERGENT_PERIODIC))
    out = tmp_path / "report.json"
    argv = ["check", "--model", str(path), "--ode-steps", "64", "--grid", "4",
            "--samples", "200", "--out", str(out)]  # fmt: skip
    assert main(argv) == 1
    assert capsys.readouterr().err == ""
    by_id = {c["id"]: c for c in json.loads(out.read_text())["conditions"]}
    assert by_id["A1"]["verdict"] == by_id["A2"]["verdict"] == "fail"
    assert by_id["C4"]["verdict"] == "fail"
    assert by_id["C4"]["note"] == "no axial fixed point"
    assert by_id["C4"]["witness"] == "integration lost finiteness at t = 0.718750"
    for cond_id in ("C1", "C2", "C3", "C5", "Eq3a", "Eq3b", "Eq4", "InvPos"):
        assert by_id[cond_id]["verdict"] == "inconclusive"


# one species with mean gain 720: h b = 11 at 64 RK4 steps, where the RK4 map
# is unstable and its Newton q is a spurious fixed point far from q_exact = 721;
# so C4 iterates its axis, and G(0) = e^720 overflows inside the integration
FAST_GAIN = {
    "type": "periodic_lv",
    "n": 1,
    "fourier": {"B": [{"const": 720.0, "cos": [1.0]}], "A": [[{"const": 1.0}]]},
}


def test_check_reports_a_failed_axis_iteration_as_a_c4_fail(tmp_path, capsys):
    path = tmp_path / "fast_gain.json"
    path.write_text(json.dumps(FAST_GAIN))
    out = tmp_path / "report.json"
    argv = ["check", "--model", str(path), "--ode-steps", "64", "--grid", "4",
            "--samples", "200", "--out", str(out)]  # fmt: skip
    assert main(argv) == 1
    assert capsys.readouterr().err == ""
    by_id = {c["id"]: c for c in json.loads(out.read_text())["conditions"]}
    assert by_id["C4"]["verdict"] == "fail"
    # the spurious RK4 q is 1.553 against q_exact = 721: C4 names the step
    assert by_id["C4"]["note"] == (
        "axis iteration failed; vertex error max |q - q_exact| = 719 is not below "
        "1e-08 max(1, q_exact) on every axis: the RK4 step may be too coarse "
        "(raise --ode-steps)"
    )
    assert by_id["C4"]["witness"] == "integration lost finiteness at t = 1.000000"
    assert by_id["C0"]["verdict"] == "inconclusive"
    assert by_id["C0"]["note"] == "integration lost finiteness at t = 1.000000"


def test_simplex_reports_a_blown_up_integration_on_one_line(tmp_path, capsys):
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(DIVERGENT_PERIODIC))
    out = tmp_path / "surface.csv"
    argv = ["simplex", "--model", str(path), "--force", "--ode-steps", "64", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: integration lost finiteness at t = 0.718750\n"
    assert not out.exists()


# well-formed models whose species 1 has no axial fixed point: check reports
# it as a C4 fail, and simplex --force, which needs q, exits 1 on one line
NO_AXIAL_FIXED_POINT = {
    "leslie_gower2": (
        {"type": "leslie_gower", "n": 2, "C": [0.9, 1.5], "A": [[1, 0.2], [0.3, 1]]},
        "C[1] = 0.9 <= 1 sends all axis trajectories to 0",
    ),
    "leslie_gower4_cloud": (
        {**PLANAR4, "C": [0.9, 1.1, 1.1, 1.1]},
        "C[1] = 0.9 <= 1 sends all axis trajectories to 0",
    ),
    "periodic1": (
        {"type": "periodic_lv", "n": 1,
         "fourier": {"B": [{"const": -0.5, "cos": [0.1]}], "A": [[1.0]]}},  # fmt: skip
        "axis iteration did not converge to a positive value",
    ),
}


@pytest.mark.parametrize("name", list(NO_AXIAL_FIXED_POINT))
def test_simplex_force_without_an_axial_fixed_point_exits_1(name, tmp_path, capsys):
    description, why = NO_AXIAL_FIXED_POINT[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(description))
    out = tmp_path / "surface.csv"
    assert main(["simplex", "--model", str(path), "--force", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: no axial fixed point for species 1: {why}\n"
    assert not out.exists()


def test_check_rejects_a_non_finite_fourier_coefficient(tmp_path, capsys):
    description = json.loads(Path(model("periodic_lv2")).read_text())
    description["fourier"]["B"][1]["cos"] = [float("nan")]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(description))  # written as the JSON literal NaN
    out = tmp_path / "report.json"
    assert main(["check", "--model", str(path), "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err == "error: fourier.B[2].cos[1] must be finite, got nan\n"
    assert not out.exists()


def test_wangjiang_refuses_a_species_without_self_competition(tmp_path, capsys):
    # A1 and A4 pass, A2 fails: the starts B_i / A_ii would divide by zero
    description = {
        "type": "periodic_lv",
        "n": 2,
        "fourier": {"B": [1.0, 0.8], "A": [[0.0, 0.3], [0.2, 1.0]]},
    }
    path = tmp_path / "no_self.json"
    path.write_text(json.dumps(description))
    out = tmp_path / "wangjiang.json"
    assert main(["wangjiang", "--model", str(path), "--pairs", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refusing: system is not competitive; witness ")
    assert err.count("\n") == 1
    witness = json.loads(err.split("witness ", 1)[1])
    assert witness["id"] == "A2" and witness["verdict"] == "fail"
    assert witness["witness"]["i"] == 1
    assert not out.exists()
