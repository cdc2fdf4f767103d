"""Command-line interface: check, simplex, simulate, sweep1d, wangjiang.

All randomness flows through one seed (default 42) echoed into every output;
identical flags and seed produce byte-identical files.  Exit codes, 0 where
no rule below applies:

- ``check``: 1 when any condition fails, else 2 when any is inconclusive.
- ``simplex``: 1 when the criteria pre-check has a fail (``--force`` skips
  it); then 3 when the surface did not converge or degenerated; then 1 when
  it is not unordered or fails the asymptotic or the axial check.  For
  n >= 4 the point cloud exits 1 when it is not unordered.
- ``wangjiang``: 1 when the system is not competitive or a pair fails.
- Every command: 64 for a usage error or a malformed model file, with one
  ``error:`` line (an ``--out`` outside an existing directory is refused
  before the model is read); 1 with one ``error:`` line when a model
  evaluation or an output write fails.

Once the model's n is known, and before any array is built, a usage error
also refuses a flag whose largest batch, at n x n floats per row, would hold
more than ``MAX_BATCH_ENTRIES`` floats: the criteria's grid of m^n points for
``--grid m`` (``check`` and the ``simplex`` pre-check), a surface lattice of
(m + 1)^(n - 1) rows for ``simplex --grid m``, one row per sample for
``--samples``, and for ``sweep1d`` the min(record, steps) x b-count orbit
values it keeps (n = 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .criteria import run_criteria
from .modelio import LoadedModel, ModelFileError, load_model_file
from .models import ModelEvaluationError, ModelParameterError
from .periodic import (
    IntegrationConfig,
    check_a_conditions,
    integrate,
    wang_jiang_check,
)
from .simplex import (
    CLOUD_STEPS,
    SurfaceDegeneracyError,
    compute_attractor_cloud,
    compute_carrying_simplex,
    sweep_1d,
    unordered_check,
    verify_surface,
    write_cloud_csv,
    write_csv,
    write_surface_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64
CRITERIA_GRID = 16  # the criteria's grid resolution when --grid is not given
# rows * n * n of the largest Jacobian batch a --grid or --samples value may
# ask for (512 MiB of floats); the period map's tangent pass holds several
MAX_BATCH_ENTRIES = 1 << 26


class UsageError(Exception):
    """Malformed command-line input, reported on one line with exit code 64."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print usage and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= minimum:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
        if np.isfinite(value) and value > 0.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")


def _ode_steps(text: str) -> IntegrationConfig:
    try:
        return IntegrationConfig(steps_per_period=_int_at_least(1)(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_span(config: IntegrationConfig, periods: float, flag: str) -> None:
    """Refuse, before any table is built, a span one integration cannot take."""
    try:
        config.steps_over((0.0, periods))
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _check_batch(flag: str, rows: int, n: int, default: int | None = None) -> None:
    """Refuse, before any array is built, a flag value that asks for a batch
    of ``rows`` states whose Jacobians exceed ``MAX_BATCH_ENTRIES`` floats;
    ``default`` is the value taken for a flag that was not given."""
    if rows * n * n > MAX_BATCH_ENTRIES:
        given = "" if default is None else f"not given, so the default {default} "
        raise UsageError(
            f"{flag}: {given}asks for a batch of {rows} points; at most "
            f"{MAX_BATCH_ENTRIES // (n * n)} for {n} species"
            + ("" if default is None else f"; a smaller {flag} is accepted")
        )


def _check_criteria_batches(args, n: int) -> None:
    """The criteria evaluate M on a grid of m^n points, and C5's Jacobian at
    one point per sample."""
    default = None if args.grid else CRITERIA_GRID
    _check_batch("--grid", (args.grid or CRITERIA_GRID) ** n, n, default)
    _check_batch("--samples", args.samples, n)


def _write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Give ``sub`` the shared flags it reads, in the order named."""
    flags = {
        "--model": dict(required=True, help="model description JSON"),
        "--out": dict(default=None, help="output path"),
        "--seed": dict(type=_int_at_least(0), default=42),
        "--tol": dict(type=_positive_float, default=1e-10),
        "--grid": dict(type=_int_at_least(1), default=None, help="grid resolution m"),
        "--samples": dict(type=_int_at_least(1), default=10_000),
        "--max-iter": dict(type=_int_at_least(1), default=5_000),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--ode-steps": dict(
            type=_ode_steps, default=IntegrationConfig(), dest="integration",
            metavar="ODE_STEPS", help="RK4 steps per period",
        ),
    }
    for name in names:
        sub.add_argument(name, **flags[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="carrysim",
        description="Carrying-simplex criteria, computation and simulation "
        "for competitive population maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run every criterion and write a report")
    _add_flags(
        p_check, "--model", "--out", "--seed", "--grid", "--samples", "--format", "--ode-steps"
    )
    p_check.set_defaults(func=cmd_check)

    p_simplex = sub.add_parser("simplex", help="compute and verify the carrying simplex")
    _add_flags(
        p_simplex, "--model", "--out", "--seed", "--tol", "--grid", "--samples",
        "--max-iter", "--ode-steps",
    )  # fmt: skip
    p_simplex.add_argument(
        "--force", action="store_true", help="compute even if criteria fail"
    )
    p_simplex.set_defaults(func=cmd_simplex)

    p_sim = sub.add_parser("simulate", help="iterate the map or integrate the flow")
    _add_flags(p_sim, "--model", "--out", "--ode-steps")
    p_sim.add_argument("--x0", required=True, help="comma-separated initial state")
    p_sim.add_argument("--steps", type=_int_at_least(1), default=100)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep1d", help="classify the scalar map over a b range")
    _add_flags(p_sweep, "--out")
    p_sweep.add_argument("--a", type=_positive_float, default=1.0)
    p_sweep.add_argument("--b-min", type=_positive_float, required=True)
    p_sweep.add_argument("--b-max", type=_positive_float, required=True)
    p_sweep.add_argument("--b-count", type=_int_at_least(1), default=100)
    p_sweep.add_argument("--steps", type=_int_at_least(1), default=1_000)
    p_sweep.add_argument("--record", type=_int_at_least(1), default=128)
    p_sweep.set_defaults(func=cmd_sweep1d)

    p_wj = sub.add_parser(
        "wangjiang", help="ratio monotonicity of ordered solution pairs"
    )
    _add_flags(p_wj, "--model", "--out", "--seed", "--ode-steps")
    p_wj.add_argument("--pairs", type=_int_at_least(1), default=20)
    p_wj.add_argument("--t-span", type=_positive_float, default=3.0)
    p_wj.set_defaults(func=cmd_wangjiang)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out is not None and not Path(args.out).parent.is_dir():
            raise UsageError(f"--out: {Path(args.out).parent} is not a directory")
        return args.func(args)
    except (UsageError, ModelFileError, ModelParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SurfaceDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ModelEvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _collect_conditions(loaded: LoadedModel, model, args) -> list:
    """A1-A4 of a periodic system, then every criterion on the map ``model``."""
    conditions = [] if loaded.system is None else check_a_conditions(loaded.system)
    return conditions + run_criteria(
        model, grid_resolution=args.grid or CRITERIA_GRID, samples=args.samples, seed=args.seed
    )


def _verdict_code(conditions) -> int:
    """Any fail: 1; else any inconclusive: 2; else 0."""
    verdicts = {c.verdict for c in conditions}
    if "fail" in verdicts:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if "inconclusive" in verdicts else EXIT_OK


def cmd_check(args) -> int:
    loaded = load_model_file(args.model)
    _check_criteria_batches(args, loaded.n)
    conditions = _collect_conditions(loaded, loaded.map_model(args.integration), args)

    payload = {
        "model": str(args.model),
        "type": loaded.family,
        "seed": args.seed,
        "grid_resolution": args.grid or CRITERIA_GRID,
        "samples": args.samples,
        "conditions": [c.to_record() for c in conditions],
    }
    out = args.out or "criteria_report.json"
    if args.format == "json":
        _write_json(payload, out)
    else:
        rows = ([c.id, c.verdict, "" if c.worst is None else c.worst] for c in conditions)
        write_csv(out, ["id", "verdict", "worst"], rows)

    for c in conditions:
        extra = "" if c.worst is None else f"  (worst {c.worst:.6g})"
        print(f"{c.id}: {c.verdict}{extra}")
    print(f"report written to {out}")
    return _verdict_code(conditions)


def cmd_simplex(args) -> int:
    loaded = load_model_file(args.model)
    n = loaded.n
    if n > 1 and args.grid is not None and args.grid < 2:
        raise UsageError(f"--grid must be >= 2 for a surface of {n} species")
    if not args.force:
        _check_criteria_batches(args, n)
    if n > 3:
        _check_batch("--samples", args.samples, n)
    elif args.grid is not None:
        _check_batch("--grid", (args.grid + 1) ** (n - 1), n)
    model = loaded.map_model(args.integration)

    if not args.force:
        conditions = _collect_conditions(loaded, model, args)
        if _verdict_code(conditions) == EXIT_FAIL:
            failing = [c.id for c in conditions if c.verdict == "fail"]
            print(
                f"criteria failed ({', '.join(failing)}); re-run with --force "
                "to compute anyway",
                file=sys.stderr,
            )
            return EXIT_FAIL

    out = Path(args.out or "surface.csv")
    meta_path = out.with_suffix(".meta.json")

    if model.n <= 3:
        surface = compute_carrying_simplex(
            model, m=args.grid, tol=args.tol, max_iter=args.max_iter
        )
        verification = verify_surface(
            surface, model, samples=min(args.samples, 2_000), seed=args.seed
        )
        write_surface_csv(surface, out)
        meta = surface.metadata()
        meta["seed"] = args.seed
        meta["verification"] = verification.to_dict()
        _write_json(meta, meta_path)
        print(
            f"surface: {len(surface.grid)} nodes, {surface.iterations} iterations, "
            f"final delta {surface.final_delta:.3e}"
        )
        print(f"axial radii: {[float(r) for r in surface.axis_radii()]}")
        print(f"invariance residual: {verification.invariance:.3e}")
        print(f"unordered: {'pass' if verification.unordered.ok else 'FAIL'}")
        print(f"asymptotic: {'pass' if verification.asymptotic.passed else 'FAIL'}")
        print(f"surface written to {out}, metadata to {meta_path}")
        if not surface.converged:
            print("surface did NOT converge; results are best-effort", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        return EXIT_OK if verification.all_ok else EXIT_FAIL

    cloud = compute_attractor_cloud(model, n_points=args.samples, seed=args.seed)
    unordered = unordered_check(cloud)
    write_cloud_csv(cloud, out)
    meta = {
        "mode": "point_cloud",
        "points": int(cloud.shape[0]),
        "steps": CLOUD_STEPS,
        "seed": args.seed,
        "unordered": unordered.to_dict(),
    }
    _write_json(meta, meta_path)
    print(f"point cloud written to {out} ({cloud.shape[0]} points)")
    print(f"unordered: {'pass' if unordered.ok else 'FAIL'}")
    return EXIT_OK if unordered.ok else EXIT_FAIL


def _parse_x0(text: str, n: int) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"cannot parse --x0 {text!r}: {exc}") from exc
    if values.size != n:
        raise UsageError(f"--x0 must have {n} coordinates, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise UsageError("--x0 coordinates must be finite")
    if np.any(values < 0):
        raise UsageError("--x0 coordinates must be nonnegative")
    return values


def cmd_simulate(args) -> int:
    loaded = load_model_file(args.model)
    x0 = _parse_x0(args.x0, loaded.n)
    out = args.out or "trajectory.csv"
    n = loaded.n

    if loaded.system is not None:
        _check_span(args.integration, float(args.steps), "--steps")
        traj = integrate(loaded.system, x0, (0.0, float(args.steps)), args.integration)
        header = ["t"] + [f"u_{i + 1}" for i in range(n)]
        write_csv(out, header, np.column_stack([traj.times, traj.states]))
    else:
        header = ["k"] + [f"x_{i + 1}" for i in range(n)]
        write_csv(out, header, _orbit(loaded.model, x0, args.steps))
    print(f"trajectory written to {out}")
    return EXIT_OK


def _orbit(model, x: np.ndarray, steps: int):
    """Rows k, x_k for k = 0..steps, each state computed as its row is read."""
    yield ["0", *x]
    for k in range(1, steps + 1):
        x = model.step(x)
        yield [str(k), *x]


def cmd_sweep1d(args) -> int:
    if args.b_max < args.b_min:
        raise UsageError("--b-max must be >= --b-min")
    keep = min(args.record, args.steps)  # the orbit tail kept per b
    _check_batch("min(--record, --steps) x --b-count", keep * args.b_count, 1)
    results = sweep_1d(
        args.a,
        args.b_min,
        args.b_max,
        steps=args.steps,
        record=args.record,
        b_count=args.b_count,
    )
    out = args.out or "sweep.csv"
    write_sweep_csv(results, out)
    classes = [res.classification for res in results]
    for name in sorted(set(classes)):
        print(f"{name}: {classes.count(name)}")
    print(f"sweep written to {out}")
    return EXIT_OK


def cmd_wangjiang(args) -> int:
    loaded = load_model_file(args.model)
    if loaded.system is None:
        raise UsageError("wangjiang requires a periodic_lv model")
    _check_span(args.integration, args.t_span, "--t-span")
    system = loaded.system
    # Wang & Jiang's ratio argument needs A1 (A_ij >= 0), A2 (A_ii > 0) and
    # A4 (B_i > 0); the starts below are scaled by B_i / A_ii.
    a1, a2, _, a4 = check_a_conditions(system)
    failed = [c for c in (a1, a2, a4) if not c.ok]
    if failed:
        print(
            "refusing: system is not competitive; witness "
            f"{json.dumps(failed[0].to_record())}",
            file=sys.stderr,
        )
        return EXIT_FAIL

    rng = np.random.default_rng(args.seed)
    base = np.array(
        [b.const for b in system.B]
    ) / np.array([system.A[i][i].const for i in range(system.n)])
    records = []
    all_passed = True
    min_slope = np.inf
    for _ in range(args.pairs):
        u0 = base * (0.05 + 0.25 * rng.random(system.n))
        v0 = u0 * (1.3 + 0.7 * rng.random(system.n))
        result = wang_jiang_check(system, u0, v0, (0.0, args.t_span), args.integration)
        rec = result.to_dict()
        rec["u0"] = u0.tolist()
        rec["v0"] = v0.tolist()
        records.append(rec)
        all_passed &= result.passed
        min_slope = min(min_slope, result.min_slope)

    payload = {
        "model": str(args.model),
        "seed": args.seed,
        "pairs": args.pairs,
        "t_span": args.t_span,
        "all_passed": bool(all_passed),
        "min_slope": float(min_slope),
        "results": records,
    }
    out = args.out or "wangjiang.json"
    _write_json(payload, out)
    print(f"{'pass' if all_passed else 'FAIL'}: min ratio slope {min_slope:.3e}")
    print(f"report written to {out}")
    return EXIT_OK if all_passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
