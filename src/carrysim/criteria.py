"""Numerical checks of the carrying-simplex existence/uniqueness hypotheses.

Each checker returns a :class:`ConditionResult` whose ``id`` matches the
report contract (C0..C5 core hypotheses, Eq3a/Eq3b column/row-sum bounds,
Eq4 the spectral-radius bound on the box (0, q], InvPos inverse positivity,
Model the family-specific closed-form criterion).  Continuum conditions are
sampled and honestly labeled ``pass_sampled``, unless a theorem proves them,
which the ``pass`` record's note names; a fail always carries a witness that
reproduces the violation.

Conditions that hold on the support of a point (the face of the cone where
the absent species are zero) restrict to it by a mask of the nonzero
coordinates: C2, C3 and C5 mask the entries off the support, and InvPos
takes its support patterns, and each point's pattern, from one ``np.unique``
of that mask.

Each checker evaluates its own points.  Each model evaluation is an RK4
pass with a large fixed cost for the period map, so C2 and C3 each step
their two point sets in one ``model.step`` call, and ``run_criteria`` hands
C5, Eq3a/Eq3b, Eq4 and InvPos a proxy of the model that makes one tangent
pass on C5's samples, the (0, q] grid and the InvPos probe, and answers
each of them from its rows.  The passes of a run are listed in
:func:`run_criteria`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    CompetitionModel,
    LeslieGowerModel,
    MayOsterModel,
    ModelEvaluationError,
    ModelParameterError,
    NeuralNetModel,
    _reduce_columns,
    as_state,
)

STRICT_TIE_MARGIN = 1e-12  # strict inequalities fail at 0; ties below this are reported
ATTRACTOR_STEPS = 200  # C1 iterates 2q at most this often to enter [0, 1.1 q]
RETROTONE_MIN_PAIRS = 100  # C3 is inconclusive on fewer accepted pairs
AXIAL_STEPS = 1_000  # C4 iterates each axis start this often ...
AXIAL_TOL = 1e-8  # ... to come within this of q_i
INVPOS_POINTS = 100  # random InvPos probe points in (0, q], besides q and q_i e_i
EQ4_REFINE_POINTS = 9  # Eq4 refines on at most this many points per axis
GRID_POINTS = 16**4  # the default (0, q] grid has at most this many points


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
    g, gp = model.growth_and_jacobian(x)
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("competition matrix undefined (nonpositive growth factor)")
    return -(x / g)[..., :, None] * gp


def spectral_radius(M: np.ndarray) -> float:
    """Spectral radius rho(M), the largest eigenvalue modulus, by one dense eigensolve.

    Raises ``ValueError`` for a matrix that is not square or has non-finite
    entries.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    try:  # eigvals scans for non-finite entries itself
        return float(np.abs(np.linalg.eigvals(M)).max())
    except np.linalg.LinAlgError:
        if not np.isfinite(M).all():
            raise ValueError("matrix has non-finite entries") from None
        raise


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _sampling_box(model: CompetitionModel) -> np.ndarray:
    """Upper corner of [0, 1.5 q], the enclosure of the global attractor that
    C2, C3 and C5 sample."""
    return 1.5 * model.verified_axial_fixed_points()


def _region_samples(
    model: CompetitionModel,
    samples: int,
    rng: np.random.Generator,
    include_origin: bool = False,
) -> np.ndarray:
    """Samples of [0, 1.5 q]: box samples plus points on every axis segment
    (and optionally 0)."""
    upper = _sampling_box(model)
    n = upper.size
    n_axis = max(1, samples // (5 * n))
    n_box = max(0, samples - n * n_axis - (1 if include_origin else 0))
    parts = [rng.random((n_box, n)) * upper]
    for i in range(n):
        t = rng.random(n_axis)
        axis_pts = np.zeros((n_axis, n))
        axis_pts[:, i] = (0.01 + 0.99 * t) * upper[i]
        parts.append(axis_pts)
    if include_origin:
        parts.append(np.zeros((1, n)))
    return np.vstack(parts)


def default_grid(n: int) -> int:
    """The default grid resolution: the largest m <= 16 with m^n <= ``GRID_POINTS``."""
    return max(m for m in range(1, 17) if m**n <= GRID_POINTS)


def _grid_points(q: np.ndarray, resolution: int) -> np.ndarray:
    """Regular grid over (0, q]: k * q / m per axis, k = 1..m."""
    return _mesh_points([q_i * np.arange(1, resolution + 1) / resolution for q_i in q])


def _mesh_points(axes) -> np.ndarray:
    """Every combination of the per-axis values, one point per row."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


class _SharedPass:
    """``model``, whose ``growth_and_jacobian`` of any of ``point_sets`` returns
    that set's rows of one call on them all.

    ``growth_jacobian`` and ``step_jacobian`` are the base class's, bound to
    the proxy, so they too take the held rows; every other attribute is the
    model's.  A row of a batch of two or more gets the same bits whatever
    else is in the batch, so each reader gets the bits it would evaluate.
    A set's rows are returned as they are held, not copied: only C5 writes
    to its rows (it masks its Jacobians in place), and it alone reads them;
    Eq3a/Eq3b and Eq4 both read the grid's.  If the joint call raises,
    nothing is held: each reader evaluates its own points and meets its own
    error.
    """

    growth_jacobian = CompetitionModel.growth_jacobian
    step_jacobian = CompetitionModel.step_jacobian

    def __init__(self, model: CompetitionModel, point_sets):
        self.model = model
        self.held = []  # (points, G, G') per set, views of the joint call's arrays
        try:
            g, gp = model.growth_and_jacobian(np.vstack(point_sets))
        except (ModelEvaluationError, ValueError):
            return
        splits = np.cumsum([len(pts) for pts in point_sets[:-1]])
        self.held = list(zip(point_sets, np.split(g, splits), np.split(gp, splits)))

    def __getattr__(self, name):
        return getattr(self.model, name)

    def growth_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        for pts, g, gp in self.held:
            if np.array_equal(x, pts):
                return g, gp
        return self.model.growth_and_jacobian(x)


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


def check_attractor_bound(model: CompetitionModel) -> ConditionResult:
    """Empirical boundedness: the orbit of 2q enters [0, 1.1 q] within
    ``ATTRACTOR_STEPS`` steps.

    This stands in for the global-attractor hypothesis, which is implied by
    the retrotone and axial conditions but is not directly certifiable by
    sampling.
    """
    q = model.verified_axial_fixed_points()
    x = 2.0 * q
    bound = 1.1 * q
    escape = 10.0 * np.max(q)
    for k in range(1, ATTRACTOR_STEPS + 1):
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
        witness={"step": ATTRACTOR_STEPS, "x": x},
        samples=ATTRACTOR_STEPS,
        note=f"orbit from 2q did not enter [0, 1.1q] within {ATTRACTOR_STEPS} steps",
    )


def check_sublinearity(
    model: CompetitionModel, samples: int = 10_000, seed: int = 42
) -> ConditionResult:
    """Decreasing returns to scale: lambda T(x) strictly below T(lambda x).

    Strict inequality is required on the support of x (off-support
    coordinates are identically zero on both sides); equality counts as a
    failure, margins below 1e-12 are counted as near-ties.  x and lambda x
    are stepped in one call.
    """
    rng = np.random.default_rng(seed)
    pts = _region_samples(model, samples, rng)
    keep = pts.sum(axis=1) > 0.0
    pts = pts[keep]
    lam = np.clip(rng.random(pts.shape[0]) * (1.0 - 1e-6), 1e-9, None)

    tx, tlx = np.split(model.step(np.vstack([pts, lam[:, None] * pts])), [len(pts)])
    diff = tlx - lam[:, None] * tx
    on_support = pts > 0.0
    margins = _reduce_columns(np.minimum, np.where(on_support, diff, np.inf))

    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    near_ties = int(np.count_nonzero((margins > 0.0) & (margins < STRICT_TIE_MARGIN)))
    note = f"near-ties (< {STRICT_TIE_MARGIN:g}): {near_ties}" if near_ties else ""
    return ConditionResult(
        "C2",
        "fail" if worst <= 0.0 else "pass_sampled",
        worst=worst,
        witness={"x": pts[worst_idx], "lambda": float(lam[worst_idx])},
        samples=int(pts.shape[0]),
        seed=seed,
        note=note,
    )


def check_retrotone(
    model: CompetitionModel, samples: int = 10_000, seed: int = 42
) -> ConditionResult:
    """Backward monotonicity: T(x) majorizing T(y) forces x to strictly majorize y.

    Pairs are rejection-sampled from a common facet closure until T(x) > T(y)
    in the cone order; the accepted pairs are then checked.  xs and ys are
    drawn as one block and stepped in one call.
    """
    rng = np.random.default_rng(seed)
    upper = _sampling_box(model)
    n = upper.size

    pairs = rng.random((2, samples, n)) * upper  # xs, then ys
    # push a share of the pairs onto common proper facets
    facet_share = rng.random(samples) < 0.3
    if n > 1:
        masks = rng.random((samples, n)) < 0.5
        masks[~facet_share] = True
        empty = ~masks.any(axis=1)
        masks[empty] = True
        pairs[:, ~masks] = 0.0

    xs, ys = pairs
    tx, ty = model.step(pairs.reshape(-1, n)).reshape(pairs.shape)
    accepted = _reduce_columns(np.logical_and, tx >= ty) & _reduce_columns(np.logical_or, tx > ty)
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
    strict_margin = _reduce_columns(np.minimum, np.where(xs > 0.0, diffs, np.inf))
    dominated = _reduce_columns(np.logical_and, diffs >= 0.0)
    order_margin = _reduce_columns(np.minimum, diffs)
    margins = np.minimum(strict_margin, np.where(dominated, np.inf, order_margin))

    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    witness = {"x": xs[worst_idx], "y": ys[worst_idx]}
    near_ties = int(
        np.count_nonzero((strict_margin > 0.0) & (strict_margin < STRICT_TIE_MARGIN))
    )
    note = f"near-ties (< {STRICT_TIE_MARGIN:g}): {near_ties}" if near_ties else ""
    return ConditionResult(
        "C3",
        "fail" if worst <= 0.0 else "pass_sampled",
        worst=worst,
        witness=witness,
        samples=n_acc,
        seed=seed,
        note=note,
    )


def check_axial(model: CompetitionModel) -> ConditionResult:
    """Axial fixed points exist, satisfy T(q_i e_i) = q_i e_i, and attract
    on their axis.

    Where ``model.exact_axial_fixed_points`` proves that the exact map's
    q_exact attracts its whole axis, and q is within ``AXIAL_TOL`` *
    max(1, q_exact) of it on every axis, C4 is a ``pass`` whose ``worst`` is
    the vertex error max |q - q_exact|.  Otherwise it is sampled from 0.1 q_i
    and 2 q_i: all 2n axis starts iterate as one batch for ``AXIAL_STEPS``,
    and a row stops updating once it is within ``AXIAL_TOL`` of q_i.  A fail
    reports the first failing (i, start) pair in the order i = 1..n, 0.1 q_i
    before 2 q_i, or the evaluation error that stopped the iteration.  Where
    q_exact exists but q is not within that tolerance of it, the note of the
    sampled verdict gives the vertex error and names the RK4 step as
    possibly too coarse: q is then a fixed point of the discretized map far
    from the exact one.
    """
    try:
        q = model.verified_axial_fixed_points()
    except (ModelParameterError, ModelEvaluationError) as exc:
        return ConditionResult("C4", "fail", witness=str(exc), note="no axial fixed point")

    coarse = ""  # why a period map with q_exact is sampled, if it is
    q_exact = model.exact_axial_fixed_points()
    if q_exact is not None:
        error = np.abs(q - q_exact)
        if np.all(error < AXIAL_TOL * np.maximum(1.0, q_exact)):
            worst = float(error.max())
            return ConditionResult(
                "C4",
                "pass",
                worst=worst,
                witness={"q": q},
                note="proved for the exact period map: on each axis it is Beverton-Holt "
                "x -> C x / (1 + a x) with C > 1 and a > 0, which attracts every x > 0 "
                f"to q_exact; vertex error max |q - q_exact| = {worst:.3g}",
            )
        coarse = (
            f"vertex error max |q - q_exact| = {float(error.max()):.3g} is not below "
            f"{AXIAL_TOL:g} max(1, q_exact) on every axis: the RK4 step may be too "
            "coarse (raise --ode-steps)"
        )

    def noted(why: str) -> str:
        return "; ".join(filter(None, [why, coarse]))

    axis = np.repeat(np.arange(model.n), 2)
    starts = np.column_stack([0.1 * q, 2.0 * q]).ravel()
    x = starts.copy()
    active = np.ones(x.size, dtype=bool)
    for _ in range(AXIAL_STEPS):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        try:
            x[rows] = model.axis_step(axis[rows], x[rows])
        except ModelEvaluationError as exc:
            return ConditionResult(
                "C4", "fail", witness=str(exc), note=noted("axis iteration failed")
            )
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
            note=noted("axis trajectory did not converge to the axial fixed point"),
        )
    return ConditionResult(
        "C4",
        "pass_sampled",
        worst=float(np.fmax.reduce(gaps, initial=0.0)),
        witness={"q": q},
        samples=2 * model.n * AXIAL_STEPS,
        note=noted(""),
    )


def check_c5(model: CompetitionModel, samples: int = 10_000, seed: int = 42) -> ConditionResult:
    """Strictly negative growth Jacobian on the support of every sampled point.

    The Jacobian is evaluated once on the whole sample, and the largest
    entry of each support block is one maximum over the stack with the
    entries off the support masked to -inf in place; the witness (i, j) is
    read off the worst point's masked matrix.  Points with an empty support
    are vacuous.
    """
    rng = np.random.default_rng(seed)
    pts = _region_samples(model, samples, rng, include_origin=True)
    jac = model.growth_jacobian(pts)

    on = pts != 0.0
    jac[~(on[:, :, None] & on[:, None, :])] = -np.inf
    entries = jac.max(axis=(1, 2))
    # the first largest entry is the worst; a NaN entry never is.  Every axis
    # segment is sampled away from 0, so some row has a support block
    k = int(np.argmax(np.where(np.isnan(entries), -np.inf, entries)))
    worst = float(entries[k])
    # support indices ascend, so row k's first largest masked entry in
    # row-major order is its support block's first largest
    i, j = np.unravel_index(int(np.argmax(jac[k])), jac[k].shape)
    worst_witness = {"x": pts[k], "i": int(i) + 1, "j": int(j) + 1, "value": worst}
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

    T' is evaluated once on all points with a nonempty support.  The support
    patterns, and each point's pattern, come from one ``np.unique`` of the
    nonzero mask, and the principal submatrices are inverted one stack per
    pattern.  A submatrix with zero determinant counts as singular.  The
    result is that of a scan in input order: it stops at the first failing
    point, and ``samples`` counts the points with a nonempty support up to
    it.
    """
    pts = np.array([as_state(x, model.n) for x in points], dtype=float).reshape(-1, model.n)
    pts = pts[np.any(pts != 0.0, axis=1)]
    jac = model.step_jacobian(pts)

    entries = np.full(pts.shape[0], np.nan)
    singular = np.zeros(pts.shape[0], dtype=bool)
    patterns, pattern_of = np.unique(pts != 0.0, axis=0, return_inverse=True)
    pattern_of = pattern_of.ravel()  # its shape differs between numpy versions
    for k, pattern in enumerate(patterns):
        support, rows = np.flatnonzero(pattern), np.flatnonzero(pattern_of == k)
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


def check_spectral_grid(model: CompetitionModel, grid_resolution: int) -> ConditionResult:
    """Spectral radius of the competition matrix stays below 1 on (0, q].

    Evaluates rho(M(x)) on a regular grid (origin excluded by one grid step),
    refines on k^n points within a step of the argmax, and labels the verdict
    as sampled.  k is the largest odd number up to ``EQ4_REFINE_POINTS`` and
    ``default_grid(n)``, so that the argmax is a refined point: 9 for n <= 5
    (4x density), 5 for n = 6 and 3 for n = 7-10; from n = 11 it is 1 and
    there is no refinement.  M is evaluated in one batch per grid; the
    spectral radius is taken matrix by matrix.
    """
    q = model.verified_axial_fixed_points()
    pts = _grid_points(q, grid_resolution)
    rhos = np.array([spectral_radius(M) for M in competition_matrix(model, pts)])
    worst_idx = int(np.argmax(rhos))
    worst = float(rhos[worst_idx])
    witness = pts[worst_idx]
    total = int(pts.shape[0])

    per_axis = min(EQ4_REFINE_POINTS, default_grid(model.n))
    per_axis -= 1 - per_axis % 2
    if per_axis > 1:
        step = q / grid_resolution
        offsets = np.linspace(-1.0, 1.0, per_axis)
        refined = _mesh_points(
            [np.clip(witness[i] + offsets * step[i], step[i] / 4.0, q[i]) for i in range(model.n)]
        )
        rhos_ref = np.array([spectral_radius(M) for M in competition_matrix(model, refined)])
        total += int(refined.shape[0])
        k = int(np.argmax(rhos_ref))
        if rhos_ref[k] > worst:
            worst = float(rhos_ref[k])
            witness = refined[k]

    verdict = "pass_sampled" if worst < 1.0 else "fail"
    return ConditionResult("Eq4", verdict, worst=worst, witness=witness, samples=total)


def check_gershgorin_grid(
    model: CompetitionModel, grid_resolution: int
) -> tuple[ConditionResult, ConditionResult]:
    """Column-sum (Eq3a) and row-sum (Eq3b) bounds of M(x) over the (0, q] grid,
    M evaluated in one batch."""
    pts = _grid_points(model.verified_axial_fixed_points(), grid_resolution)
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
    grid_resolution: int | None = None,
    samples: int = 10_000,
    seed: int = 42,
) -> list[ConditionResult]:
    """Run every condition checker; one record per id, C0 to Model in report order.

    Eq3a/Eq3b and Eq4 take the grid at ``grid_resolution``, by default
    ``default_grid(n)``, whose m^n points stay within ``GRID_POINTS``.

    The model evaluations of a run, each one pass of the period map:

    - q: the axis Newton solve's tangent passes and q's verification, made
      once and shared by every checker that needs q;
    - C0: G(0); C1: one per step of the orbit of 2q;
    - C2: one step of x and lambda x, stacked; C3: one of xs and ys; if
      that one call raises, its error is the checker's inconclusive note;
    - C5's turn: one tangent pass on C5's samples, the grid and the InvPos
      probe, held by a proxy of the model that C5, Eq3a/Eq3b, Eq4 and InvPos
      are handed: C5 takes G' from it, Eq3a/Eq3b and Eq4 each form M on the
      grid from its G and G', and InvPos forms T' from them;
    - Eq4's refinement, around the grid's argmax, one tangent pass.

    On the bundled periodic model that is 10 passes, 14 if each checker
    evaluated on its own.  The records are those of the checkers called one
    by one, bit for bit, as a row of a batch of two or more gets the same
    bits whatever else is in the batch; where a checker alone evaluates one
    row (``samples`` or ``grid_resolution`` 1) its float may differ.  If the
    tangent pass raises, each checker evaluates on its own and meets its
    own error.  C0-C4 and the family criterion take the model itself.

    A checker that needs q (C1-C3, C5, Eq3a/Eq3b, Eq4, InvPos) is
    inconclusive when q cannot be verified, and so is any checker whose model
    evaluation fails, C0 included; C4 reports a missing q, or an evaluation
    error in its axis iteration, as its own failure.  The verdict of the run
    is the caller's: any fail fails, then any inconclusive is inconclusive.
    """
    try:
        conditions = [check_c0(model)]
    except ModelEvaluationError as exc:
        conditions = [ConditionResult("C0", "inconclusive", note=str(exc))]
    try:
        q = model.verified_axial_fixed_points()
    except (ModelParameterError, ModelEvaluationError):
        q = None
    grid_resolution = grid_resolution or default_grid(model.n)

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

    conditions += guarded(["C1"], lambda: [check_attractor_bound(model)])
    conditions += guarded(["C2"], lambda: [check_sublinearity(model, samples, seed)])
    conditions += guarded(["C3"], lambda: [check_retrotone(model, samples, seed)])
    conditions.append(check_axial(model))
    shared = model  # C5, Eq3a/Eq3b, Eq4 and InvPos: one tangent pass on their points
    if q is not None:
        rng = np.random.default_rng(seed)
        probe = np.vstack([rng.random((INVPOS_POINTS, model.n)) * q, q, np.diag(q)])
        shared = _SharedPass(
            model,
            [
                _region_samples(model, samples, np.random.default_rng(seed), include_origin=True),
                _grid_points(q, grid_resolution),
                probe[np.any(probe != 0.0, axis=1)],
            ],
        )
    conditions += guarded(["C5"], lambda: [check_c5(shared, samples, seed)])
    conditions += guarded(["Eq3a", "Eq3b"], lambda: check_gershgorin_grid(shared, grid_resolution))
    conditions += guarded(["Eq4"], lambda: [check_spectral_grid(shared, grid_resolution)])
    conditions += guarded(["InvPos"], lambda: [check_inverse_positivity(shared, probe)])
    if q is not None:
        conditions[-1].seed = seed  # the probe's seed, also on an inconclusive record
    conditions.append(family_criterion(model))
    return conditions
