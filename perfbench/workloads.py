"""The benchmark's workloads: the CLI calls of one round and how each is judged.

A workload is a fixed list of operations.  An operation is one call of
``carrysim.cli.main`` with the arguments below, plus a check of the files it
wrote.  The check returns the problems it found (the output is wrong) and,
separately, whether the operation failed: a surface that is not unordered
lacks a defining property of a carrying simplex, so its operation counts as
failed rather than as wrong, whatever exit code the CLI gave.

Every tolerance below is set from the agreement measured between carrysim and
the references in :mod:`oracles`, with a margin of one to two orders of
magnitude; the README lists them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

PERIODIC_MODEL = Path("models/periodic_lv2.json")
ODE_STEPS = 64  # RK4 steps per period in both periodic workloads
# periodic_check only; the CLI defaults (grid 16, 10000 samples) double the
# round time, see the README
PERIODIC_GRID = 8
PERIODIC_SAMPLES = 2_000
CLOSED_FORM_GRID = 24

# May-Oster model whose n = 3 surface overshoots q_3 near the vertex e_3 at
# m = 8 and m = 16, so the surface is not unordered (kept as a known failure).
OVERSHOOT_MODEL = {
    "type": "may_oster",
    "n": 3,
    "B": [0.5, 0.4, 0.45],
    "A": [[1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]],
}
OVERSHOOT_GRID = 16

CHECK_IDS = ["C0", "C1", "C2", "C3", "C4", "C5", "Eq3a", "Eq3b", "Eq4", "InvPos", "Model"]
PERIODIC_IDS = ["A1", "A2", "A3", "A4"] + CHECK_IDS

EXIT_OK, EXIT_FAIL, EXIT_INCONCLUSIVE = 0, 1, 2

Q_TOL = 1e-8  # axial radii and q of the period map (RK4 at 64 steps: 7.7e-10)
PERIODIC_M_TOL = 1e-8  # Eq3/Eq4 values of the period map (measured 1.4e-10)
CLOSED_FORM_TOL = 1e-12  # Eq3/Eq4 values of closed-form maps (measured 4e-16)
PLANE_TOL = 1e-8  # planar Leslie-Gower radii (measured 3.3e-10 at m = 32)
POINT_TOL = 1e-12  # x = r d in a surface file, relative


@dataclass
class Outcome:
    failed: str | None = None  # why the operation failed, if it did
    problems: list[str] = field(default_factory=list)  # why the output is wrong


@dataclass
class Operation:
    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[int], Outcome]


@dataclass
class Workload:
    name: str
    model_files: list[Path]
    operations: list[Operation]


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def coupled_may_oster(rng: np.random.Generator) -> dict:
    """n = 3 May-Oster map, every species coupled to every other.

    B_i in [0.49, 0.51], A_ii = 1, A_ij in [0.19, 0.21].  The ranges are
    narrow so that every seed needs about the same number of sweeps: the
    seed changes the inputs, not the amount of work.
    """
    B = 0.49 + 0.02 * rng.random(3)
    A = 0.19 + 0.02 * rng.random((3, 3))
    np.fill_diagonal(A, 1.0)
    return {"type": "may_oster", "n": 3, "B": B.tolist(), "A": A.tolist()}


def planar_leslie_gower(rng: np.random.Generator) -> dict:
    """n = 3 Leslie-Gower map with equal rows: every row of A is a, C_i = c.

    G_i(x) = c / (1 + a.x) for all i, so the plane a.x = c - 1 is invariant
    and is the carrying simplex.  Every ray is mapped into itself and s = a.x
    follows s -> c s / (1 + s), which contracts by 1/c at the plane, so a fixed
    c = 1.2 fixes the number of sweeps.  a is (1, 0.8, 0.6) scaled by 1 +- 5 %
    per entry, which keeps c below the family bound 1 + a_i / sum(a) (at
    least 1.23) for every i.
    """
    a = np.array([1.0, 0.8, 0.6]) * (0.95 + 0.1 * rng.random(3))
    c = 1.2
    return {
        "type": "leslie_gower",
        "n": 3,
        "C": [float(c)] * 3,
        "A": [a.tolist()] * 3,
    }


# ---------------------------------------------------------------------------
# output readers and shared checks
# ---------------------------------------------------------------------------


def read_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    report["by_id"] = {c["id"]: c for c in report["conditions"]}
    return report


def read_surface(path: Path, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(directions, radii, points) of a surface CSV written by the CLI."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = [f"d_{i + 1}" for i in range(n)] + ["r"] + [f"x_{i + 1}" for i in range(n)]
    if rows[0] != header:
        raise ValueError(f"unexpected header {rows[0]}")
    data = np.array(rows[1:], dtype=float)
    return data[:, :n], data[:, n], data[:, n + 1 :]


def _close(value: float, reference: float, tol: float) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def check_verdicts(report: dict, expected_ids: list[str], problems: list[str]) -> None:
    ids = [c["id"] for c in report["conditions"]]
    if ids != expected_ids:
        problems.append(f"condition ids {ids}, expected {expected_ids}")
    for cond_id in ("Eq3a", "Eq3b", "Eq4"):
        cond = report["by_id"].get(cond_id)
        if cond is None or cond["worst"] is None:
            problems.append(f"{cond_id} has no worst value")
            continue
        if (cond["verdict"] == "pass_sampled") != (cond["worst"] < 1.0):
            problems.append(f"{cond_id} verdict {cond['verdict']} with worst {cond['worst']}")


def check_competition_values(
    report: dict, matrix_at: Callable[[list], np.ndarray], tol: float, problems: list[str]
) -> None:
    """Recompute Eq3a, Eq3b and Eq4 at the reported witnesses."""
    for cond_id, axis in (("Eq3a", 0), ("Eq3b", 1)):
        cond = report["by_id"][cond_id]
        M = matrix_at(cond["witness"]["x"])
        value = float(M.sum(axis=axis)[cond["witness"]["index"] - 1])
        if not _close(cond["worst"], value, tol):
            problems.append(f"{cond_id} worst {cond['worst']!r}, reference {value!r}")
    eq4 = report["by_id"]["Eq4"]
    rho = oracles.spectral_radius(matrix_at(eq4["witness"]))
    if not _close(eq4["worst"], rho, tol):
        problems.append(f"Eq4 worst {eq4['worst']!r}, reference rho {rho!r}")


def check_surface(
    path: Path, n: int, q: np.ndarray, exit_code: int
) -> tuple[Outcome, np.ndarray, np.ndarray]:
    """Shared surface checks; returns the outcome and (directions, radii)."""
    outcome = Outcome()
    problems = outcome.problems
    d, r, x = read_surface(path, n)
    if not np.allclose(x, r[:, None] * d, rtol=POINT_TOL, atol=0.0):
        problems.append("surface points differ from radius times direction")
    if np.any(np.abs(d.sum(axis=1) - 1.0) > 1e-12) or np.any(d < 0.0):
        problems.append("directions do not lie on the unit simplex")
    for i in range(n):
        rows = np.flatnonzero(d[:, i] == 1.0)
        if rows.size != 1:
            problems.append(f"no single vertex node for axis {i + 1}")
        elif not _close(r[rows[0]], q[i], Q_TOL):
            problems.append(f"axial radius {i + 1} is {r[rows[0]]!r}, q_{i + 1} = {q[i]!r}")
    margin, (a, b) = oracles.worst_order_margin(x)
    if margin >= 0.0:
        outcome.failed = f"surface not unordered: node {a} >= node {b} (margin {margin:.3e})"
        if exit_code not in (EXIT_OK, EXIT_FAIL):
            problems.append(f"exit code {exit_code}")
    elif exit_code != EXIT_OK:
        problems.append(f"exit code {exit_code} for an unordered surface")
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    if not meta["converged"]:
        problems.append("surface did not converge")
    return outcome, d, r


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _periodic_description() -> dict:
    return json.loads(PERIODIC_MODEL.read_text())


def periodic_check(seed: int, out: Path) -> Workload:
    """``check`` on the bundled periodic model: narrow period-map calls."""
    report_path = out / "periodic_check.json"
    argv = [
        "check", "--model", str(PERIODIC_MODEL), "--ode-steps", str(ODE_STEPS),
        "--grid", str(PERIODIC_GRID), "--samples", str(PERIODIC_SAMPLES),
        "--seed", str(seed), "--out", str(report_path),
    ]  # fmt: skip
    description = _periodic_description()

    def check(exit_code: int) -> Outcome:
        q = oracles.periodic_axial_q(description)
        problems: list[str] = []
        # no closed-form Model criterion for the period map: inconclusive
        if exit_code != EXIT_INCONCLUSIVE:
            problems.append(f"exit code {exit_code}, expected {EXIT_INCONCLUSIVE}")
        report = read_report(report_path)
        if report["seed"] != seed or report["grid_resolution"] != PERIODIC_GRID:
            problems.append("report does not echo the seed and grid")
        check_verdicts(report, PERIODIC_IDS, problems)
        for cond in report["conditions"]:
            expected = ("inconclusive",) if cond["id"] == "Model" else ("pass", "pass_sampled")
            if cond["verdict"] not in expected:
                problems.append(f"{cond['id']} verdict {cond['verdict']}")
        q_report = np.asarray(report["by_id"]["C4"]["witness"]["q"])
        if np.max(np.abs(q_report - q)) > Q_TOL:
            problems.append(f"C4 q {q_report.tolist()}, reference {q.tolist()}")
        check_competition_values(
            report,
            lambda x: oracles.periodic_competition_matrix(description, x),
            PERIODIC_M_TOL,
            problems,
        )
        return Outcome(problems=problems)

    op = Operation("check periodic_lv2", argv, [report_path], check)
    return Workload("periodic_check", [PERIODIC_MODEL], [op])


def periodic_surface(seed: int, out: Path) -> Workload:
    """``simplex --force`` on the bundled periodic model: wide batches."""
    surface_path = out / "periodic_surface.csv"
    argv = [
        "simplex", "--model", str(PERIODIC_MODEL), "--force",
        "--ode-steps", str(ODE_STEPS), "--seed", str(seed), "--out", str(surface_path),
    ]  # fmt: skip

    def check(exit_code: int) -> Outcome:
        q = oracles.periodic_axial_q(_periodic_description())
        outcome, _, _ = check_surface(surface_path, 2, q, exit_code)
        return outcome

    op = Operation(
        "simplex periodic_lv2",
        argv,
        [surface_path, surface_path.with_suffix(".meta.json")],
        check,
    )
    return Workload("periodic_surface", [PERIODIC_MODEL], [op])


def closed_form(seed: int, out: Path) -> Workload:
    """``check`` and ``simplex`` on generated n = 3 closed-form models."""
    rng = np.random.default_rng(seed)
    coupled = coupled_may_oster(rng)
    planar = planar_leslie_gower(rng)
    models = {"coupled": coupled, "planar": planar, "overshoot": OVERSHOOT_MODEL}
    paths = {}
    for label, description in models.items():
        paths[label] = out / f"{label}.json"
        paths[label].write_text(json.dumps(description, indent=2) + "\n")

    def check_op(label: str, reference) -> Operation:
        report_path = out / f"{label}_check.json"
        argv = ["check", "--model", str(paths[label]), "--seed", str(seed),
                "--out", str(report_path)]  # fmt: skip

        def check(exit_code: int) -> Outcome:
            problems: list[str] = []
            if exit_code != EXIT_OK:
                problems.append(f"exit code {exit_code}, expected {EXIT_OK}")
            report = read_report(report_path)
            check_verdicts(report, CHECK_IDS, problems)
            for cond in report["conditions"]:
                if cond["verdict"] not in ("pass", "pass_sampled"):
                    problems.append(f"{cond['id']} verdict {cond['verdict']}")
            reference(report, problems)
            return Outcome(problems=problems)

        return Operation(f"check {label}", argv, [report_path], check)

    def may_oster_reference(report: dict, problems: list[str]) -> None:
        for cond_id, value in oracles.may_oster_bounds(coupled).items():
            worst = report["by_id"][cond_id]["worst"]
            if not _close(worst, value, CLOSED_FORM_TOL):
                problems.append(f"{cond_id} worst {worst!r}, reference {value!r}")

    def leslie_gower_reference(report: dict, problems: list[str]) -> None:
        check_competition_values(
            report,
            lambda x: oracles.closed_form_competition_matrix(planar, x),
            CLOSED_FORM_TOL,
            problems,
        )

    def simplex_op(label: str, description: dict, m: int, extra=None) -> Operation:
        surface_path = out / f"{label}_surface.csv"
        argv = ["simplex", "--model", str(paths[label]), "--force", "--grid", str(m),
                "--seed", str(seed), "--out", str(surface_path)]  # fmt: skip
        q = oracles.closed_form_axial_q(description)

        def check(exit_code: int) -> Outcome:
            outcome, d, r = check_surface(surface_path, 3, q, exit_code)
            if extra is not None:
                extra(d, r, outcome.problems)
            return outcome

        outputs = [surface_path, surface_path.with_suffix(".meta.json")]
        return Operation(f"simplex {label}", argv, outputs, check)

    def on_plane(d: np.ndarray, r: np.ndarray, problems: list[str]) -> None:
        exact = oracles.planar_radii(planar["C"][0], planar["A"][0], d)
        err = float(np.max(np.abs(r - exact)))
        if err > PLANE_TOL:
            problems.append(f"planar radii off the plane a.x = c - 1 by {err:.3e}")

    operations = [
        check_op("coupled", may_oster_reference),
        simplex_op("coupled", coupled, CLOSED_FORM_GRID),
        check_op("planar", leslie_gower_reference),
        simplex_op("planar", planar, CLOSED_FORM_GRID, on_plane),
        simplex_op("overshoot", OVERSHOOT_MODEL, OVERSHOOT_GRID),
    ]
    return Workload("closed_form", list(paths.values()), operations)


WORKLOADS = {
    "periodic_check": periodic_check,
    "periodic_surface": periodic_surface,
    "closed_form": closed_form,
}
