"""Per-layer tracing of carrysim from outside: wraps its public functions.

Nothing in ``src/`` changes.  :meth:`Tracer.install` replaces each traced
function or method with a timing wrapper, in its defining module and in every
carrysim module that imported it by name; :meth:`Tracer.uninstall` puts the
originals back.  Each wrapper adds its call, its inclusive time and (for model
evaluations) its batch rows to a named record.

A layer's self time is its time minus the model evaluations made inside it.
Model evaluations are the ``growth`` and ``growth_jacobian`` methods; only the
outermost one of a nest counts toward that subtraction, so the growth calls a
finite-difference Jacobian makes are not subtracted twice.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Record:
    calls: int = 0
    seconds: float = 0.0
    model_seconds: float = 0.0  # outermost model evaluations inside the span
    rows: int = 0
    values: list = field(default_factory=list)  # read-outs kept from results

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.model_seconds


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Collects records for one traced round; install, run, uninstall, read."""

    def __init__(self):
        self.records: dict[str, Record] = {}
        self._model_seconds = 0.0
        self._model_depth = 0
        self._undo: list[tuple[object, str, object, bool]] = []

    def record(self, name: str) -> Record:
        return self.records.setdefault(name, Record())

    def _wrap(self, fn, name: str, model=False, rows=None, keep=None):
        """``rows`` is the position of the batch argument, counted with self."""
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.record(name)
            outermost = model and tracer._model_depth == 0
            if model:
                tracer._model_depth += 1
            model_before = tracer._model_seconds
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if model:
                    tracer._model_depth -= 1
                if outermost:
                    tracer._model_seconds += elapsed
                rec.calls += 1
                rec.seconds += elapsed
                rec.model_seconds += tracer._model_seconds - model_before
                if rows is not None:
                    rec.rows += _rows(args[rows])
            if keep is not None:
                rec.values.append(keep(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, module, attr: str, name: str, keep=None) -> None:
        """Wrap ``module.attr`` wherever a carrysim module holds that object."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, keep=keep)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "carrysim" or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original, True))
                setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, model=False, rows=None) -> None:
        had_own = attr in cls.__dict__
        original = getattr(cls, attr)
        self._undo.append((cls, attr, original, had_own))
        setattr(cls, attr, self._wrap(original, name, model=model, rows=rows))

    def install(self) -> None:
        from carrysim import cli, criteria, modelio, models, periodic, simplex

        self._patch_function(cli, "cmd_check", "cli.check")
        self._patch_function(cli, "cmd_simplex", "cli.simplex")
        self._patch_function(modelio, "load_model_file", "modelio.load")

        for cls in (models.MayOsterModel, models.LeslieGowerModel, models.NeuralNetModel):
            self._patch_method(cls, "growth", "models.growth", model=True, rows=1)
            self._patch_method(
                cls, "growth_jacobian", "models.growth_jacobian", model=True, rows=1
            )
        poincare = periodic.PoincareMapModel
        self._patch_method(poincare, "growth", "periodic.growth", model=True, rows=1)
        self._patch_method(
            poincare, "growth_jacobian", "periodic.growth_jacobian", model=True, rows=1
        )
        self._patch_method(poincare, "verified_axial_fixed_points", "periodic.axial_q")
        self._patch_function(periodic, "check_a_conditions", "periodic.check_a")

        self._patch_function(criteria, "run_criteria", "criteria.run")
        for attr, cond in (
            ("check_attractor_bound", "C1"),
            ("check_sublinearity", "C2"),
            ("check_retrotone", "C3"),
            ("check_axial", "C4"),
            ("check_c5", "C5"),
            ("check_gershgorin_grid", "Eq3"),
            ("check_spectral_grid", "Eq4"),
            ("check_inverse_positivity", "InvPos"),
            ("family_criterion", "Model"),
        ):
            self._patch_function(criteria, attr, f"criteria.{cond}")
        self._patch_function(criteria, "spectral_radius", "criteria.spectral_radius")

        self._patch_function(
            simplex,
            "compute_carrying_simplex",
            "simplex.surface",
            keep=lambda s: (s.iterations, s.descent_violations),
        )
        self._patch_function(simplex, "verify_surface", "simplex.verify")
        self._patch_function(
            simplex, "invariance_residual", "simplex.invariance", keep=float
        )
        self._patch_function(simplex, "unordered_check", "simplex.unordered")
        self._patch_function(simplex, "asymptotic_check", "simplex.asymptotic")
        self._patch_function(simplex, "discretization_floor", "simplex.floor", keep=float)
        self._patch_method(
            simplex.SimplexGrid, "interpolate", "simplex.interpolate", rows=2
        )
        self._patch_function(simplex, "write_surface_csv", "simplex.write")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_metrics(tracer: Tracer, steps_per_period: int) -> dict[str, float]:
    """The per-layer figures of one traced round, by metric name."""
    rec = tracer.records.get
    empty = Record()

    def r(name: str) -> Record:
        return rec(name, empty)

    out: dict[str, float] = {
        "cli.check_s": r("cli.check").seconds,
        "cli.simplex_s": r("cli.simplex").seconds,
        "modelio.load_s": r("modelio.load").seconds,
        "models.growth_calls": r("models.growth").calls,
        "models.growth_rows": r("models.growth").rows,
        "models.growth_s": r("models.growth").seconds,
        "models.growth_jacobian_s": r("models.growth_jacobian").seconds,
    }
    pg = r("periodic.growth")
    out.update(
        {
            "periodic.growth_calls": pg.calls,
            "periodic.rows_per_call": pg.rows / pg.calls if pg.calls else 0.0,
            "periodic.growth_rows": pg.rows,
            "periodic.growth_s": pg.seconds,
            "periodic.rk4_row_step_us": 1e6 * pg.seconds / (pg.rows * steps_per_period)
            if pg.rows
            else 0.0,
            "periodic.growth_jacobian_calls": r("periodic.growth_jacobian").calls,
            "periodic.growth_jacobian_s": r("periodic.growth_jacobian").seconds,
            "periodic.axial_q_calls": r("periodic.axial_q").calls,
            "periodic.axial_q_s": r("periodic.axial_q").seconds,
            "periodic.check_a_s": r("periodic.check_a").seconds,
            "criteria.run_s": r("criteria.run").seconds,
        }
    )
    for cond in ("C1", "C2", "C3", "C4", "C5", "Eq3", "Eq4", "InvPos", "Model"):
        out[f"criteria.{cond}_s"] = r(f"criteria.{cond}").seconds
    out["criteria.Eq4_self_s"] = r("criteria.Eq4").self_seconds
    out["criteria.spectral_radius_calls"] = r("criteria.spectral_radius").calls
    out.update(
        {
            "simplex.surface_s": r("simplex.surface").seconds,
            "simplex.surface_self_s": r("simplex.surface").self_seconds,
            "simplex.verify_s": r("simplex.verify").seconds,
            "simplex.invariance_s": r("simplex.invariance").seconds,
            "simplex.unordered_s": r("simplex.unordered").seconds,
            "simplex.asymptotic_s": r("simplex.asymptotic").seconds,
            "simplex.interpolate_rows": r("simplex.interpolate").rows,
            "simplex.interpolate_s": r("simplex.interpolate").seconds,
            "simplex.write_s": r("simplex.write").seconds,
        }
    )
    # accuracy read-outs: the worst surface of the round
    surfaces = r("simplex.surface").values
    out["simplex.sweeps"] = sum(it for it, _ in surfaces)
    out["simplex.descent_violations"] = max((dv for _, dv in surfaces), default=0)
    out["simplex.invariance_residual"] = max(r("simplex.invariance").values, default=0.0)
    out["simplex.discretization_floor"] = max(r("simplex.floor").values, default=0.0)
    return out
