"""Numerical checks of the carrying-simplex existence/uniqueness hypotheses.

Each checker returns a :class:`ConditionResult` whose ``id`` matches the
report contract (C0..C5 core hypotheses, Eq3a/Eq3b column/row-sum bounds,
Eq4 the spectral-radius bound on the box (0, q], InvPos inverse positivity,
Model the family-specific closed-form criterion).  Continuum conditions are
sampled and honestly labeled ``pass_sampled``; a fail always carries a
witness that reproduces the violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import OrderInterval, as_state
from .models import (
    CompetitionModel,
    LeslieGowerModel,
    MayOsterModel,
    ModelEvaluationError,
    ModelParameterError,
    NeuralNetModel,
)

STRICT_TIE_MARGIN = 1e-12  # strict inequalities fail at 0; ties below this are reported
RETROTONE_MIN_PAIRS = 100  # C3 is inconclusive on fewer accepted pairs
AXIAL_STEPS = 1_000  # C4 iterates each axis start this often ...
AXIAL_TOL = 1e-8  # ... to come within this of q_i
INVPOS_POINTS = 100  # random InvPos probe points in (0, q], besides q and q_i e_i


@dataclass
class ConditionResult:
    id: str
    verdict: str  # "pass" | "pass_sampled" | "fail" | "inconclusive"
    worst: float | None = None
    witness: object = None
    samples: int = 0
    seed: int | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "pass_sampled")

    def to_record(self) -> dict:
        record = {
            "id": self.id,
            "verdict": self.verdict,
            "worst": _jsonable(self.worst),
            "witness": _jsonable(self.witness),
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.note:
            record["note"] = self.note
        return record


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# competition matrix and spectral radius
# ---------------------------------------------------------------------------


def competition_matrix(model: CompetitionModel, x) -> np.ndarray:
    """M(x) with entries -(x_i / G_i(x)) * dG_i/dx_j; broadcasts over batches.

    Defined only where every growth factor is positive; then
    T'(x) = diag(G(x)) (I - M(x)).
    """
    x = np.asarray(x, dtype=float)
    g = model.growth(x)
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("competition matrix undefined (nonpositive growth factor)")
    gp = model.growth_jacobian(x)
    return -(x / g)[..., :, None] * gp


def spectral_radius(M: np.ndarray) -> float:
    """Spectral radius rho(M), the largest eigenvalue modulus, by one dense eigensolve.

    Raises ``ValueError`` for a matrix that is not square or has non-finite
    entries.
    """
    return float(np.max(np.abs(np.linalg.eigvals(_check_square(M)))))


def _check_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def default_region(q: np.ndarray, factor: float = 1.5) -> OrderInterval:
    """The standing enclosure [0, 1.5 q] of the global attractor."""
    return OrderInterval(np.zeros_like(q), factor * np.asarray(q, dtype=float))


def _region_samples(
    region: OrderInterval,
    samples: int,
    rng: np.random.Generator,
    include_origin: bool = False,
) -> np.ndarray:
    """Box samples plus points on every axis segment (and optionally 0)."""
    n = region.n
    n_axis = max(1, samples // (5 * n)) if n > 1 else max(1, samples // 5)
    n_box = max(0, samples - n * n_axis - (1 if include_origin else 0))
    parts = [region.sample(rng, n_box)]
    for i in range(n):
        t = rng.random(n_axis)
        axis_pts = np.zeros((n_axis, n))
        axis_pts[:, i] = region.lower[i] + (0.01 + 0.99 * t) * (
            region.upper[i] - region.lower[i]
        )
        parts.append(axis_pts)
    if include_origin:
        parts.append(np.zeros((1, n)))
    return np.vstack(parts)


def _grid_points(q: np.ndarray, resolution: int) -> np.ndarray:
    """Regular grid over (0, q]: k * q / m per axis, k = 1..m."""
    axes = [q_i * np.arange(1, resolution + 1) / resolution for q_i in q]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _support_groups(pts: np.ndarray):
    """Yield (support, rows) for every distinct nonempty support among the rows.

    ``support`` holds the nonzero coordinates, ``rows`` the row indices that
    share them, so principal submatrices can be taken one stack per pattern.
    """
    patterns, inverse = np.unique(pts != 0.0, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    for k, pattern in enumerate(patterns):
        support = np.flatnonzero(pattern)
        if support.size:
            yield support, np.flatnonzero(inverse == k)


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------


def check_c0(model: CompetitionModel) -> ConditionResult:
    """Origin repulsion: every growth factor at 0 exceeds 1.

    The map Jacobian at the origin is diag(G(0)), so these values are also
    its eigenvalues; all > 1 is the repellor evidence reported.
    """
    g0 = model.growth(np.zeros(model.n))
    worst = float(np.min(g0))
    witness = {"growth_at_origin": g0, "origin_jacobian_eigenvalues": g0}
    if worst > 1.0:
        return ConditionResult("C0", "pass", worst=worst, witness=witness)
    i = int(np.argmin(g0))
    witness["i"] = i + 1
    return ConditionResult(
        "C0",
        "fail",
        worst=worst,
        witness=witness,
        note=f"G_{i + 1}(0) = {worst} is not > 1",
    )


def check_attractor_bound(
    model: CompetitionModel, q: np.ndarray, steps: int = 200
) -> ConditionResult:
    """Empirical boundedness: the orbit of 2q enters [0, 1.1 q].

    This stands in for the global-attractor hypothesis, which is implied by
    the retrotone and axial conditions but is not directly certifiable by
    sampling.
    """
    x = 2.0 * q
    bound = 1.1 * q
    escape = 10.0 * np.max(q)
    for k in range(1, steps + 1):
        x = model.step(x)
        if np.any(x > escape):
            return ConditionResult(
                "C1",
                "fail",
                worst=float(np.max(x)),
                witness={"step": k, "x": x},
                samples=k,
                note="orbit escaped the evaluation box",
            )
        if np.all(x <= bound):
            return ConditionResult(
                "C1",
                "pass_sampled",
                worst=float(np.max(x / np.where(q > 0, q, 1.0))),
                witness={"entered_at_step": k, "x": x},
                samples=k,
            )
    return ConditionResult(
        "C1",
        "fail",
        worst=float(np.max(x / np.where(q > 0, q, 1.0))),
        witness={"step": steps, "x": x},
        samples=steps,
        note=f"orbit from 2q did not enter [0, 1.1q] within {steps} steps",
    )


def check_sublinearity(
    model: CompetitionModel,
    region: OrderInterval | None = None,
    samples: int = 10_000,
    seed: int = 42,
) -> ConditionResult:
    """Decreasing returns to scale: lambda T(x) strictly below T(lambda x).

    Strict inequality is required on the support of x (off-support
    coordinates are identically zero on both sides); equality counts as a
    failure, margins below 1e-12 are counted as near-ties.
    """
    rng = np.random.default_rng(seed)
    if region is None:
        region = default_region(model.verified_axial_fixed_points())
    pts = _region_samples(region, samples, rng)
    keep = pts.sum(axis=1) > 0.0
    pts = pts[keep]
    lam = np.clip(rng.random(pts.shape[0]) * (1.0 - 1e-6), 1e-9, None)

    lhs = lam[:, None] * model.step(pts)
    rhs = model.step(lam[:, None] * pts)
    diff = rhs - lhs
    on_support = pts > 0.0
    margins = np.where(on_support, diff, np.inf).min(axis=1)

    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    near_ties = int(np.count_nonzero((margins > 0.0) & (margins < STRICT_TIE_MARGIN)))
    note = f"near-ties (< {STRICT_TIE_MARGIN:g}): {near_ties}" if near_ties else ""
    if worst <= 0.0:
        return ConditionResult(
            "C2",
            "fail",
            worst=worst,
            witness={"x": pts[worst_idx], "lambda": float(lam[worst_idx])},
            samples=int(pts.shape[0]),
            seed=seed,
            note=note,
        )
    return ConditionResult(
        "C2",
        "pass_sampled",
        worst=worst,
        witness={"x": pts[worst_idx], "lambda": float(lam[worst_idx])},
        samples=int(pts.shape[0]),
        seed=seed,
        note=note,
    )


def check_retrotone(
    model: CompetitionModel,
    region: OrderInterval | None = None,
    samples: int = 10_000,
    seed: int = 42,
) -> ConditionResult:
    """Backward monotonicity: T(x) majorizing T(y) forces x to strictly majorize y.

    Pairs are rejection-sampled from a common facet closure until T(x) > T(y)
    in the cone order; the accepted pairs are then checked.
    """
    rng = np.random.default_rng(seed)
    if region is None:
        region = default_region(model.verified_axial_fixed_points())
    n = region.n

    xs = region.sample(rng, samples)
    ys = region.sample(rng, samples)
    # push a share of the pairs onto common proper facets
    facet_share = rng.random(samples) < 0.3
    if n > 1:
        masks = rng.random((samples, n)) < 0.5
        masks[~facet_share] = True
        empty = ~masks.any(axis=1)
        masks[empty] = True
        xs = np.where(masks, xs, 0.0)
        ys = np.where(masks, ys, 0.0)

    tx = model.step(xs)
    ty = model.step(ys)
    accepted = np.all(tx >= ty, axis=1) & np.any(tx > ty, axis=1)
    xs, ys = xs[accepted], ys[accepted]
    n_acc = int(xs.shape[0])
    if n_acc < RETROTONE_MIN_PAIRS:
        return ConditionResult(
            "C3",
            "inconclusive",
            samples=n_acc,
            seed=seed,
            note=f"only {n_acc} pairs satisfied the majorization filter "
            f"(need {RETROTONE_MIN_PAIRS})",
        )

    diffs = xs - ys
    strict_margin = np.where(xs > 0.0, diffs, np.inf).min(axis=1)
    dominated = np.all(diffs >= 0.0, axis=1)
    violated = (strict_margin <= 0.0) | ~dominated
    order_margin = diffs.min(axis=1)
    margins = np.minimum(strict_margin, np.where(dominated, np.inf, order_margin))

    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    witness = {"x": xs[worst_idx], "y": ys[worst_idx]}
    near_ties = int(
        np.count_nonzero((strict_margin > 0.0) & (strict_margin < STRICT_TIE_MARGIN))
    )
    note = f"near-ties (< {STRICT_TIE_MARGIN:g}): {near_ties}" if near_ties else ""
    if np.any(violated):
        return ConditionResult(
            "C3", "fail", worst=worst, witness=witness, samples=n_acc, seed=seed, note=note
        )
    return ConditionResult(
        "C3",
        "pass_sampled",
        worst=worst,
        witness=witness,
        samples=n_acc,
        seed=seed,
        note=note,
    )


def check_axial(model: CompetitionModel) -> ConditionResult:
    """Axial fixed points exist, satisfy T(q_i e_i) = q_i e_i, and attract
    on their axis (checked from 0.1 q_i and 2 q_i).

    All 2n axis starts iterate as one batch for ``AXIAL_STEPS``; a row stops
    updating once it is within ``AXIAL_TOL`` of q_i.  A fail reports the
    first failing (i, start) pair in the order i = 1..n, 0.1 q_i before 2 q_i.
    """
    try:
        q = model.verified_axial_fixed_points()
    except (ModelParameterError, ModelEvaluationError) as exc:
        return ConditionResult("C4", "fail", witness=str(exc), note="no axial fixed point")

    axis = np.repeat(np.arange(model.n), 2)
    starts = np.column_stack([0.1 * q, 2.0 * q]).ravel()
    x = starts.copy()
    active = np.ones(x.size, dtype=bool)
    for _ in range(AXIAL_STEPS):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        x[rows] = model.axis_step(axis[rows], x[rows])
        active[rows] = ~(np.abs(x[rows] - q[axis[rows]]) < AXIAL_TOL)

    gaps = np.abs(x - q[axis])
    failing = np.flatnonzero(gaps >= AXIAL_TOL)
    if failing.size:
        k = int(failing[0])
        i = int(axis[k])
        return ConditionResult(
            "C4",
            "fail",
            worst=float(gaps[k]),
            witness={
                "i": i + 1,
                "start": float(starts[k]),
                "final": float(x[k]),
                "q_i": float(q[i]),
            },
            samples=AXIAL_STEPS,
            note="axis trajectory did not converge to the axial fixed point",
        )
    return ConditionResult(
        "C4",
        "pass_sampled",
        worst=float(np.fmax.reduce(gaps, initial=0.0)),
        witness={"q": q},
        samples=2 * model.n * AXIAL_STEPS,
    )


def check_c5(
    model: CompetitionModel,
    region: OrderInterval | None = None,
    samples: int = 10_000,
    seed: int = 42,
) -> ConditionResult:
    """Strictly negative growth Jacobian on the support of every sampled point.

    The Jacobian is evaluated once on the whole sample; the largest entry of
    each support block is taken one stack per support pattern.  Points with
    an empty support are vacuous.
    """
    rng = np.random.default_rng(seed)
    if region is None:
        region = default_region(model.verified_axial_fixed_points())
    pts = _region_samples(region, samples, rng, include_origin=True)
    jac = model.growth_jacobian(pts)

    entries = np.full(pts.shape[0], -np.inf)
    for support, rows in _support_groups(pts):
        entries[rows] = jac[np.ix_(rows, support, support)].max(axis=(1, 2))
    # the first largest entry is the worst; a NaN entry never is
    k = int(np.argmax(np.where(np.isnan(entries), -np.inf, entries)))
    worst = -np.inf
    worst_witness = None
    if entries[k] > worst:
        worst = float(entries[k])
        support = np.flatnonzero(pts[k] != 0.0)
        sub = jac[k][np.ix_(support, support)]
        i_loc, j_loc = np.unravel_index(int(np.argmax(sub)), sub.shape)
        worst_witness = {
            "x": pts[k],
            "i": int(support[i_loc]) + 1,
            "j": int(support[j_loc]) + 1,
            "value": worst,
        }
    near_ties = int(np.count_nonzero((-STRICT_TIE_MARGIN < entries) & (entries < 0.0)))
    note = f"near-ties (> -{STRICT_TIE_MARGIN:g}): {near_ties}" if near_ties else ""
    verdict = "pass_sampled" if worst < 0.0 else "fail"
    return ConditionResult(
        "C5",
        verdict,
        worst=worst,
        witness=worst_witness,
        samples=int(pts.shape[0]),
        seed=seed,
        note=note,
    )


def check_inverse_positivity(model: CompetitionModel, points) -> ConditionResult:
    """[T'(x)] restricted to the support of x has an entrywise-positive inverse.

    T' is evaluated once on all points with a nonempty support, and the
    principal submatrices are inverted one stack per support pattern.  A
    submatrix with zero determinant counts as singular.  The result is that
    of a scan in input order: it stops at the first failing point, and
    ``samples`` counts the points with a nonempty support up to it.
    """
    pts = np.array([as_state(x, model.n) for x in points], dtype=float).reshape(-1, model.n)
    pts = pts[np.any(pts != 0.0, axis=1)]
    jac = model.step_jacobian(pts)

    entries = np.full(pts.shape[0], np.nan)
    singular = np.zeros(pts.shape[0], dtype=bool)
    for support, rows in _support_groups(pts):
        sub = jac[np.ix_(rows, support, support)]
        zero_det = np.linalg.det(sub) == 0.0
        singular[rows[zero_det]] = True
        entries[rows[~zero_det]] = np.linalg.inv(sub[~zero_det]).min(axis=(1, 2))

    failing = np.flatnonzero(singular | (entries <= 0.0))
    if failing.size:
        k = int(failing[0])
        if singular[k]:
            return ConditionResult(
                "InvPos",
                "fail",
                witness={"x": pts[k], "reason": "singular principal submatrix"},
                samples=k + 1,
            )
        entry = float(entries[k])
        return ConditionResult(
            "InvPos",
            "fail",
            worst=entry,
            witness={"x": pts[k], "min_inverse_entry": entry},
            samples=k + 1,
        )
    worst = np.inf
    worst_witness = None
    if pts.shape[0]:
        # the first smallest entry is the worst; a NaN entry never is
        k = int(np.argmin(np.where(np.isnan(entries), np.inf, entries)))
        if entries[k] < worst:
            worst = float(entries[k])
            worst_witness = {"x": pts[k], "min_inverse_entry": worst}
    return ConditionResult(
        "InvPos", "pass_sampled", worst=worst, witness=worst_witness, samples=pts.shape[0]
    )


def check_spectral_grid(model: CompetitionModel, grid_resolution: int = 16) -> ConditionResult:
    """Spectral radius of the competition matrix stays below 1 on (0, q].

    Evaluates rho(M(x)) on a regular grid (origin excluded by one grid
    step), refines at 4x density around the argmax, and labels the verdict
    as sampled.  M is evaluated in one batch per grid; the spectral radius
    is taken matrix by matrix.
    """
    q = model.verified_axial_fixed_points()
    pts = _grid_points(q, grid_resolution)
    rhos = np.array([spectral_radius(M) for M in competition_matrix(model, pts)])
    worst_idx = int(np.argmax(rhos))
    worst = float(rhos[worst_idx])
    witness = pts[worst_idx]
    total = int(pts.shape[0])

    step = q / grid_resolution
    offsets = np.linspace(-1.0, 1.0, 9)
    axes = [
        np.clip(witness[i] + offsets * step[i], step[i] / 4.0, q[i]) for i in range(model.n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    refined = np.stack([m.ravel() for m in mesh], axis=-1)
    rhos_ref = np.array([spectral_radius(M) for M in competition_matrix(model, refined)])
    total += int(refined.shape[0])
    k = int(np.argmax(rhos_ref))
    if rhos_ref[k] > worst:
        worst = float(rhos_ref[k])
        witness = refined[k]

    verdict = "pass_sampled" if worst < 1.0 else "fail"
    return ConditionResult("Eq4", verdict, worst=worst, witness=witness, samples=total)


def check_gershgorin_grid(
    model: CompetitionModel, grid_resolution: int = 16
) -> tuple[ConditionResult, ConditionResult]:
    """Column-sum (Eq3a) and row-sum (Eq3b) bounds of M(x) over the (0, q] grid."""
    q = model.verified_axial_fixed_points()
    pts = _grid_points(q, grid_resolution)
    M = competition_matrix(model, pts)
    col_sums = M.sum(axis=1)  # (N, n): column j sums per point
    row_sums = M.sum(axis=2)

    results = []
    for cond_id, sums in (("Eq3a", col_sums), ("Eq3b", row_sums)):
        flat = int(np.argmax(sums))
        point_idx, line_idx = np.unravel_index(flat, sums.shape)
        worst = float(sums[point_idx, line_idx])
        verdict = "pass_sampled" if worst < 1.0 else "fail"
        results.append(
            ConditionResult(
                cond_id,
                verdict,
                worst=worst,
                witness={"x": pts[point_idx], "index": int(line_idx) + 1},
                samples=int(pts.shape[0]),
            )
        )
    return results[0], results[1]


def family_criterion(model: CompetitionModel) -> ConditionResult:
    """Closed-form sufficient criterion for the three explicit families.

    May-Oster additionally gets the axis-based non-existence test, giving a
    three-way exists / not-exists / indeterminate verdict.
    """
    if isinstance(model, MayOsterModel):
        q = model.axial_fixed_points()
        row_values = q * model.A.sum(axis=1)
        col_values = q @ model.A
        witness = {"row_values": row_values, "col_values": col_values}
        worst = float(min(row_values.max(), col_values.max()))
        if row_values.max() < 1.0 or col_values.max() < 1.0:
            return ConditionResult(
                "Model", "pass", worst=worst, witness=witness,
                note="unique carrying simplex guaranteed",
            )
        if row_values.max() > 2.0 or col_values.max() > 2.0:
            return ConditionResult(
                "Model", "fail", worst=worst, witness=witness,
                note="no carrying simplex (axis criterion exceeded)",
            )
        return ConditionResult(
            "Model", "inconclusive", worst=worst, witness=witness,
            note="between the existence and non-existence thresholds",
        )
    if isinstance(model, LeslieGowerModel):
        if np.any(model.C <= 1.0):
            i = int(np.argwhere(model.C <= 1.0)[0][0])
            return ConditionResult(
                "Model", "fail", worst=float(model.C[i]),
                witness={"i": i + 1, "C_i": float(model.C[i])},
                note="axis collapses to the origin (C_i <= 1)",
            )
        upper = 1.0 + np.diag(model.A) / model.A.sum(axis=1)
        witness = {"C": model.C, "upper_bounds": upper}
        margin = float((upper - model.C).min())
        if np.all(model.C < upper):
            return ConditionResult(
                "Model", "pass", worst=margin, witness=witness,
                note="unique carrying simplex guaranteed",
            )
        return ConditionResult(
            "Model", "fail", worst=margin, witness=witness,
            note="sufficient criterion not met; existence undetermined",
        )
    if isinstance(model, NeuralNetModel):
        q = model.axial_fixed_points()
        bound = float(1.0 / np.max(q * model.A.sum(axis=1)))
        witness = {"gain": model.gamma, "gain_bound": bound}
        if model.gamma < bound:
            return ConditionResult(
                "Model", "pass", worst=bound, witness=witness,
                note="unique carrying simplex guaranteed",
            )
        return ConditionResult(
            "Model", "fail", worst=bound, witness=witness,
            note="gain exceeds the sufficient bound; existence undetermined",
        )
    return ConditionResult(
        "Model", "inconclusive", note="no closed-form criterion for this family"
    )


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def run_criteria(
    model: CompetitionModel,
    grid_resolution: int = 16,
    samples: int = 10_000,
    seed: int = 42,
) -> list[ConditionResult]:
    """Run every condition checker; one record per id, C0 to Model in report order.

    A checker that needs q (C1-C3, C5, Eq3a/Eq3b, Eq4, InvPos) is
    inconclusive when q cannot be verified, and so is one whose model
    evaluation fails; C4 reports a missing q as its own failure.  The
    verdict of the run is the caller's: any fail fails, then any
    inconclusive is inconclusive.
    """
    conditions = [check_c0(model)]
    try:
        q = model.verified_axial_fixed_points()
    except (ModelParameterError, ModelEvaluationError):
        q = None
    region = None if q is None else default_region(q)

    def guarded(ids, checker) -> list[ConditionResult]:
        """The checker's records, or an inconclusive one per id saying why not."""
        if q is None:
            why = "requires axial fixed points"
        else:
            try:
                return list(checker())
            except (ModelEvaluationError, ValueError) as exc:
                why = str(exc)
        return [ConditionResult(i, "inconclusive", note=why) for i in ids]

    def probe():
        rng = np.random.default_rng(seed)
        return np.vstack([rng.random((INVPOS_POINTS, model.n)) * q, q, np.diag(q)])

    conditions += guarded(["C1"], lambda: [check_attractor_bound(model, q)])
    conditions += guarded(["C2"], lambda: [check_sublinearity(model, region, samples, seed)])
    conditions += guarded(["C3"], lambda: [check_retrotone(model, region, samples, seed)])
    conditions.append(check_axial(model))
    conditions += guarded(["C5"], lambda: [check_c5(model, region, samples, seed)])
    conditions += guarded(["Eq3a", "Eq3b"], lambda: check_gershgorin_grid(model, grid_resolution))
    conditions += guarded(["Eq4"], lambda: [check_spectral_grid(model, grid_resolution)])
    conditions += guarded(["InvPos"], lambda: [check_inverse_positivity(model, probe())])
    if q is not None:
        conditions[-1].seed = seed  # the probe's seed, also on an inconclusive record
    conditions.append(family_criterion(model))
    return conditions
