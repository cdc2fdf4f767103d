"""The command-line contract: exit codes, one-line usage errors, fixed-seed output."""

import json
from pathlib import Path

import pytest

from carrysim.cli import main
from carrysim.periodic import PoincareMapModel

MODELS = Path(__file__).resolve().parents[1] / "models"
# the periodic model at the reduced resolution of the periodic_check benchmark
PERIODIC_FAST = ["--ode-steps", "64", "--grid", "8", "--samples", "2000"]
OVERSHOOT = {
    "type": "may_oster",
    "n": 3,
    "B": [0.5, 0.4, 0.45],
    "A": [[1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]],
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
        ["sweep1d", "--b-min", "1", "--b-max", "2", "--steps", "10", "--burn-in", "10"],
        ["wangjiang", "--model", model("periodic_lv2"), "--t-span", "0"],
        ["frobnicate"],
        # each subcommand takes only the flags it reads
        ["check", "--model", model("may2"), "--tol", "1e-8"],
        ["simplex", "--model", model("may2"), "--format", "csv"],
        ["simulate", "--model", model("may2"), "--x0", "0.1,0.2", "--seed", "1"],
        ["sweep1d", "--b-min", "1", "--b-max", "2", "--grid", "8"],
        ["wangjiang", "--model", model("periodic_lv2"), "--samples", "10"],
    ],
)
def test_usage_errors_exit_64_with_one_line(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


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
    ],
    ids=["simplex", "simulate", "sweep1d", "wangjiang"],
)
def test_outputs_are_byte_identical_for_a_fixed_seed(argv, outputs, tmp_path, capsys):
    written = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        main([*argv, "--out", str(tmp_path / run / "out")])
        streams = capsys.readouterr()
        files = [(tmp_path / run / name).read_bytes() for name in outputs]
        written.append((files, streams.out.replace(run, ""), streams.err))
    assert written[0] == written[1]


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
    assert "lost finiteness" in by_id["C4"]["witness"]
    for cond_id in ("C1", "C2", "C3", "C5", "Eq3a", "Eq3b", "Eq4", "InvPos"):
        assert by_id[cond_id]["verdict"] == "inconclusive"


def test_simplex_reports_a_blown_up_integration_on_one_line(tmp_path, capsys):
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(DIVERGENT_PERIODIC))
    out = tmp_path / "surface.csv"
    argv = ["simplex", "--model", str(path), "--force", "--ode-steps", "64", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: integration lost finiteness at t = ")
    assert err.count("\n") == 1
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
