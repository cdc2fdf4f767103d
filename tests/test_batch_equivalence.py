"""The batched checkers against the point-by-point loops they replaced.

Each ``reference_*`` function below is the earlier per-point implementation,
kept here as the oracle.  Closed-form models and C4's axis iterations use
the same arithmetic in both forms and must agree exactly.  The period map's
Jacobian is the exact derivative of its RK4 step: it must equal that of a
plain reference tangent loop bit for bit, and it is compared with a
per-coordinate central difference, and the criteria built on it with their
per-point loops, to 1e-9 relative, the error of a 1e-6 difference step.  The
Newton solve for q is compared with the axis iteration to 1e-12 relative.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from carrysim.criteria import (
    ConditionResult,
    _grid_points,
    check_axial,
    check_c5,
    check_inverse_positivity,
    check_retrotone,
    check_spectral_grid,
    check_sublinearity,
    competition_matrix,
    spectral_radius,
)
from carrysim import simplex
from carrysim.modelio import load_model_file
from carrysim.models import LeslieGowerModel, MayOsterModel, ModelParameterError, as_state
from carrysim.periodic import (
    FourierSeries,
    IntegrationConfig,
    IntegrationError,
    PeriodicLVSystem,
    PoincareMapModel,
    integrate,
)
from carrysim.simplex import SimplexGrid, SurfaceDegeneracyError, compute_carrying_simplex

MODELS = Path(__file__).resolve().parents[1] / "models"
FD_REL = 1e-9


@pytest.fixture(scope="module")
def periodic64():
    return load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(64))


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def reference_inverse_positivity(model, points):
    worst = np.inf
    worst_witness = None
    count = 0
    for x in points:
        x = as_state(x, model.n)
        idx = np.flatnonzero(x != 0.0)
        if idx.size == 0:
            continue
        count += 1
        sub = model.step_jacobian(x)[np.ix_(idx, idx)]
        try:
            inv = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            return ConditionResult(
                "InvPos",
                "fail",
                witness={"x": x, "reason": "singular principal submatrix"},
                samples=count,
            )
        entry = float(inv.min())
        if entry < worst:
            worst = entry
            worst_witness = {"x": x, "min_inverse_entry": entry}
        if entry <= 0.0:
            return ConditionResult(
                "InvPos", "fail", worst=entry, witness=worst_witness, samples=count
            )
    return ConditionResult(
        "InvPos", "pass_sampled", worst=worst, witness=worst_witness, samples=count
    )


def reference_axial(model, steps=1_000, tol=1e-8):
    q = model.verified_axial_fixed_points()
    worst_gap = 0.0
    for i in range(model.n):
        for start in (0.1 * q[i], 2.0 * q[i]):
            x = start
            point = np.zeros(model.n)
            for _ in range(steps):
                point[i] = x
                x = float(model.step(point)[i])
                if abs(x - q[i]) < tol:
                    break
            gap = abs(x - q[i])
            worst_gap = max(worst_gap, gap)
            if gap >= tol:
                return ConditionResult(
                    "C4",
                    "fail",
                    worst=gap,
                    witness={"i": i + 1, "start": float(start), "final": x, "q_i": float(q[i])},
                    samples=steps,
                    note="axis trajectory did not converge to the axial fixed point",
                )
    return ConditionResult(
        "C4", "pass_sampled", worst=worst_gap, witness={"q": q}, samples=2 * model.n * steps
    )


def reference_box_samples(lower, upper, rng, size):
    """Uniform samples of the box [lower, upper], by the order-interval formula."""
    u = rng.random((size, lower.size))
    return lower + u * (upper - lower)


def reference_region_samples(model, samples, rng, include_origin=False):
    """Samples of [0, 1.5 q] as an order interval with an explicit lower corner."""
    upper = 1.5 * np.asarray(model.verified_axial_fixed_points(), dtype=float)
    lower = np.zeros_like(upper)
    n = upper.size
    n_axis = max(1, samples // (5 * n)) if n > 1 else max(1, samples // 5)
    n_box = max(0, samples - n * n_axis - (1 if include_origin else 0))
    parts = [reference_box_samples(lower, upper, rng, n_box)]
    for i in range(n):
        t = rng.random(n_axis)
        axis_pts = np.zeros((n_axis, n))
        axis_pts[:, i] = lower[i] + (0.01 + 0.99 * t) * (upper[i] - lower[i])
        parts.append(axis_pts)
    if include_origin:
        parts.append(np.zeros((1, n)))
    return np.vstack(parts)


def reference_c5(model, samples=10_000, seed=42):
    rng = np.random.default_rng(seed)
    pts = reference_region_samples(model, samples, rng, include_origin=True)
    jac = model.growth_jacobian(pts)
    worst = -np.inf
    worst_witness = None
    near_ties = 0
    for k in range(pts.shape[0]):
        idx = np.flatnonzero(pts[k] != 0.0)
        if idx.size == 0:
            continue
        sub = jac[k][np.ix_(idx, idx)]
        entry = float(sub.max())
        if entry > worst:
            worst = entry
            i_loc, j_loc = np.unravel_index(int(np.argmax(sub)), sub.shape)
            worst_witness = {
                "x": pts[k],
                "i": int(idx[i_loc]) + 1,
                "j": int(idx[j_loc]) + 1,
                "value": entry,
            }
        if -1e-12 < entry < 0.0:
            near_ties += 1
    return worst, worst_witness, near_ties


def reference_spectral_grid(model, grid_resolution=16, refine=True):
    q = model.verified_axial_fixed_points()
    pts = _grid_points(q, grid_resolution)
    rhos = np.array([spectral_radius(competition_matrix(model, x)) for x in pts])
    worst_idx = int(np.argmax(rhos))
    worst = float(rhos[worst_idx])
    witness = pts[worst_idx]
    total = int(pts.shape[0])
    if refine:
        step = q / grid_resolution
        offsets = np.linspace(-1.0, 1.0, 9)
        axes = [
            np.clip(witness[i] + offsets * step[i], step[i] / 4.0, q[i])
            for i in range(model.n)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        refined = np.stack([m.ravel() for m in mesh], axis=-1)
        rhos_ref = np.array([spectral_radius(competition_matrix(model, x)) for x in refined])
        total += int(refined.shape[0])
        k = int(np.argmax(rhos_ref))
        if rhos_ref[k] > worst:
            worst = float(rhos_ref[k])
            witness = refined[k]
    verdict = "pass_sampled" if worst < 1.0 else "fail"
    return ConditionResult("Eq4", verdict, worst=worst, witness=witness, samples=total)


def reference_periodic_axial_q(model, tol=1e-13, max_iter=10_000):
    q = np.empty(model.n)
    for i in range(model.n):
        b0 = model.system.B[i].const
        a0 = model.system.A[i][i].const
        r = b0 / a0 if (b0 > 0 and a0 > 0) else 1.0
        point = np.zeros(model.n)
        converged = False
        for _ in range(max_iter):
            point[i] = r
            r_new = float(model.step(point)[i])
            if not np.isfinite(r_new) or r_new > 1e12:
                break
            if abs(r_new - r) < tol * max(1.0, r_new):
                r = r_new
                converged = True
                break
            r = r_new
        if not converged or r < 1e-12:
            raise ModelParameterError(f"no axial fixed point for species {i + 1}")
        q[i] = r
    return q


def reference_fd_jacobian(model, x):
    pts = np.atleast_2d(x)
    n = model.n
    jac = np.empty((pts.shape[0], n, n))
    for j in range(n):
        h = 1e-6 * (1.0 + np.abs(pts[:, j]))
        up = pts.copy()
        dn = pts.copy()
        up[:, j] += h
        dn[:, j] -= h
        jac[:, :, j] = (model.growth(up) - model.growth(dn)) / (2.0 * h)[:, None]
    return jac


# ---------------------------------------------------------------------------
# InvPos
# ---------------------------------------------------------------------------


STRONG = MayOsterModel([3.0, 0.5], [[1.0, 0.2], [0.3, 1.0]])
MIXED_PROBE = [
    [0.0, 0.0],  # empty support: skipped
    [0.5, 0.0],
    [0.0, 0.3],
    [0.2, 0.1],
    [0.0, 0.0],
    [0.4, 0.2],
    [2.0, 0.0],  # T'_11 = G_1 (1 - 2) < 0: the first failure
    [0.1, 0.1],
    [2.5, 0.1],  # fails too, but later
    [0.0, 0.45],
]


def test_inverse_positivity_mixed_support_fails_at_the_first_failing_point():
    batched = check_inverse_positivity(STRONG, MIXED_PROBE)
    reference = reference_inverse_positivity(STRONG, MIXED_PROBE)
    assert batched.verdict == "fail"
    assert batched.samples == 5
    assert batched.to_record() == reference.to_record()


def test_inverse_positivity_mixed_support_pass():
    probe = [p for p in MIXED_PROBE if max(p) < 1.0]
    batched = check_inverse_positivity(STRONG, probe)
    assert batched.verdict == "pass_sampled"
    assert batched.to_record() == reference_inverse_positivity(STRONG, probe).to_record()


@pytest.mark.parametrize(
    "model, probe",
    [
        # T'(1) = e^0 (1 - 1) = 0: a singular 1x1 matrix after a passing point
        (MayOsterModel([1.0], [[1.0]]), [[0.5], [1.0], [3.0]]),
        # the same singular block as the support {1} of a 2-species point
        (
            MayOsterModel([1.0, 0.5], [[1.0, 0.2], [0.3, 1.0]]),
            [[0.2, 0.1], [0.0, 0.2], [1.0, 0.0], [0.3, 0.3]],
        ),
    ],
)
def test_inverse_positivity_singular_submatrix(model, probe):
    batched = check_inverse_positivity(model, probe)
    assert batched.witness["reason"] == "singular principal submatrix"
    assert batched.to_record() == reference_inverse_positivity(model, probe).to_record()


def test_inverse_positivity_without_support_is_vacuous():
    batched = check_inverse_positivity(STRONG, [[0.0, 0.0]])
    assert batched.to_record() == reference_inverse_positivity(STRONG, [[0.0, 0.0]]).to_record()
    assert batched.samples == 0


def test_inverse_positivity_on_period_map(periodic64):
    q = periodic64.verified_axial_fixed_points()
    probe = np.vstack([np.random.default_rng(5).random((12, 2)) * q, q, np.diag(q)])
    batched = check_inverse_positivity(periodic64, probe).to_record()
    reference = reference_inverse_positivity(periodic64, probe).to_record()
    assert batched["verdict"] == reference["verdict"] == "pass_sampled"
    assert batched["samples"] == reference["samples"]
    assert batched["witness"]["x"] == reference["witness"]["x"]
    assert batched["worst"] == pytest.approx(reference["worst"], rel=FD_REL)


# ---------------------------------------------------------------------------
# C4, C5 and q
# ---------------------------------------------------------------------------


def test_axial_fail_witness_matches_reference(may1_b3):
    batched = check_axial(may1_b3)
    assert batched.verdict == "fail"
    assert batched.to_record() == reference_axial(may1_b3).to_record()


def test_axial_first_failing_pair_in_order():
    # species 1 attracts, species 2 oscillates (b = 3): the first failure is
    # (i = 2, start = 0.1 q_2) even though both starts of species 2 fail
    model = MayOsterModel([0.5, 3.0], [[1.0, 0.0], [0.0, 1.0]])
    batched = check_axial(model)
    assert (batched.witness["i"], batched.witness["start"]) == (2, pytest.approx(0.3))
    assert batched.to_record() == reference_axial(model).to_record()


@pytest.mark.parametrize("name", ["may2", "lg2", "neural2"])
def test_axial_pass_matches_reference(name, request):
    model = request.getfixturevalue(name)
    assert check_axial(model).to_record() == reference_axial(model).to_record()


def test_axial_pass_on_period_map_matches_reference(periodic64):
    # axis rows have one nonzero coordinate, so batching leaves them exact
    assert check_axial(periodic64).to_record() == reference_axial(periodic64).to_record()


def axis_residuals(model, q):
    return np.abs(model.axis_step(np.arange(model.n), q) - q)


def test_periodic_axial_q_matches_reference(periodic64):
    # Newton on l_i(1; r e_i) = 0 lands on the fixed point of the axis iteration
    fresh = load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(64))
    q, reference = fresh.axial_fixed_points(), reference_periodic_axial_q(periodic64)
    assert np.allclose(q, reference, rtol=1e-12, atol=0.0)
    assert np.all(axis_residuals(fresh, q) <= axis_residuals(fresh, reference))


# B = 10 - 8 cos, A = 1 + 0.8 cos: q = 3.50, far below the start B_mean / A_mean = 10
FORCED = PeriodicLVSystem([FourierSeries(10.0, cos=(-8.0,))], [[FourierSeries(1.0, cos=(0.8,))]])


def test_axial_q_safeguard_on_a_strongly_forced_axis():
    model = PoincareMapModel(FORCED, IntegrationConfig(64))
    r0 = np.array([10.0])  # the start B_mean / A_mean
    g, gp = model.growth_and_jacobian(r0)
    newton = r0 - np.log(g) * g / gp[0]  # a bare step on l = log G, l' = G' / G
    assert newton[0] < 0.0
    q, reference = model.axial_fixed_points(), reference_periodic_axial_q(model)
    assert np.allclose(q, reference, rtol=1e-12, atol=0.0)
    assert np.all(axis_residuals(model, q) <= axis_residuals(model, reference))


@pytest.mark.parametrize(
    "model",
    [
        MayOsterModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]]),
        MayOsterModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]),  # ties at 0
        MayOsterModel([0.5, 0.4, 0.45], [[1, 0.2, 0.1], [0.3, 1, 0.2], [0.1, 0.2, 1]]),
    ],
)
def test_c5_matches_reference(model):
    batched = check_c5(model, samples=2000, seed=7)
    worst, witness, near_ties = reference_c5(model, samples=2000, seed=7)
    record = batched.to_record()
    assert record["worst"] == worst
    assert record["witness"] == ConditionResult("C5", "", witness=witness).to_record()["witness"]
    assert batched.note == (f"near-ties (> -1e-12): {near_ties}" if near_ties else "")


SAMPLED_MODELS = [
    MayOsterModel([0.7], [[1.3]]),
    MayOsterModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]]),
    LeslieGowerModel([1.3, 1.2, 1.25], [[1, 0.2, 0.1], [0.3, 1, 0.2], [0.1, 0.2, 1]]),
]


def recorded_inputs(monkeypatch, model, method):
    """The arrays passed to ``model.<method>``, in call order."""
    calls = []
    original = getattr(model, method)
    monkeypatch.setattr(model, method, lambda x: calls.append(np.array(x)) or original(x))
    return calls


@pytest.mark.parametrize("seed", [3, 2026])
@pytest.mark.parametrize("model", SAMPLED_MODELS, ids=["n1", "n2", "n3"])
def test_sampled_checkers_draw_the_reference_stream(model, seed, monkeypatch):
    upper = 1.5 * model.verified_axial_fixed_points()  # cached: q costs no map call below
    # C2 without the origin row: the first map call holds the nonzero samples
    steps = recorded_inputs(monkeypatch, model, "step")
    check_sublinearity(model, samples=997, seed=seed)
    pts = reference_region_samples(model, 997, np.random.default_rng(seed))
    assert np.array_equal(steps[0], pts[pts.sum(axis=1) > 0.0])

    # C3: two box draws, then the facet masks from the same stream
    steps.clear()
    check_retrotone(model, samples=997, seed=seed)
    rng = np.random.default_rng(seed)
    xs = reference_box_samples(np.zeros(model.n), upper, rng, 997)
    ys = reference_box_samples(np.zeros(model.n), upper, rng, 997)
    facet_share = rng.random(997) < 0.3
    if model.n > 1:
        masks = rng.random((997, model.n)) < 0.5
        masks[~facet_share] = True
        masks[~masks.any(axis=1)] = True
        xs, ys = np.where(masks, xs, 0.0), np.where(masks, ys, 0.0)
    assert np.array_equal(steps[0], xs) and np.array_equal(steps[1], ys)

    # C5 with the origin row: one Jacobian call on the whole sample
    jacobians = recorded_inputs(monkeypatch, model, "growth_jacobian")
    check_c5(model, samples=997, seed=seed)
    reference = reference_region_samples(
        model, 997, np.random.default_rng(seed), include_origin=True
    )
    assert len(jacobians) == 1 and np.array_equal(jacobians[0], reference)


def test_verified_q_is_checked_once_and_shared(monkeypatch):
    model = MayOsterModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]])
    calls = []
    step = model.step
    monkeypatch.setattr(model, "step", lambda x: calls.append(np.shape(x)) or step(x))
    first = model.verified_axial_fixed_points()
    again = model.verified_axial_fixed_points()
    assert again is first
    assert calls == [(2, 2)]
    assert not first.flags.writeable
    assert np.array_equal(first, model.axial_fixed_points())


# ---------------------------------------------------------------------------
# Eq4 and the period map's Jacobian
# ---------------------------------------------------------------------------


def test_spectral_grid_on_period_map_matches_reference(periodic64):
    batched = check_spectral_grid(periodic64, grid_resolution=8)
    reference = reference_spectral_grid(periodic64, grid_resolution=8)
    assert batched.verdict == reference.verdict
    assert batched.samples == reference.samples
    assert np.array_equal(batched.witness, reference.witness)
    assert batched.worst == pytest.approx(reference.worst, rel=FD_REL)


@pytest.mark.parametrize("name", ["may2", "lg2", "neural2", "may1_b3"])
def test_spectral_grid_on_closed_forms_matches_reference(name, request):
    model = request.getfixturevalue(name)
    batched = check_spectral_grid(model, grid_resolution=8)
    reference = reference_spectral_grid(model, grid_resolution=8)
    assert batched.verdict == reference.verdict
    assert batched.samples == reference.samples
    assert np.array_equal(batched.witness, reference.witness)
    assert batched.worst == pytest.approx(reference.worst, rel=1e-14)


def test_fd_jacobian_matches_per_coordinate_reference(periodic64):
    # the exact Jacobian against a per-coordinate central difference
    q = periodic64.verified_axial_fixed_points()
    pts = np.vstack([np.random.default_rng(9).random((6, 2)) * q, np.zeros(2), np.diag(q)])
    batched = periodic64.growth_jacobian(pts)
    reference = reference_fd_jacobian(periodic64, pts)
    assert batched.shape == (pts.shape[0], 2, 2)
    assert np.allclose(batched, reference, rtol=FD_REL, atol=FD_REL * np.abs(reference).max())
    assert np.allclose(periodic64.growth_jacobian(pts[3]), batched[3], rtol=FD_REL)


# ---------------------------------------------------------------------------
# n = 3 surface: bucketed triangle search and lattice interpolation
# ---------------------------------------------------------------------------

COUPLED = MayOsterModel(
    [0.5, 0.49, 0.505], [[1.0, 0.2, 0.21], [0.19, 1.0, 0.2], [0.2, 0.205, 1.0]]
)
OVERSHOOT = MayOsterModel(
    [0.5, 0.4, 0.45], [[1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]
)
PLANAR = LeslieGowerModel([1.2] * 3, [[1.0, 0.8, 0.6]] * 3)


def reference_lattice_index(grid):
    return {tuple(int(v) for v in row): k for k, row in enumerate(grid.lattice)}


def reference_triangles(grid):
    idx = reference_lattice_index(grid)
    tris = []
    m = grid.m
    for i in range(m):
        for j in range(m - i):
            a = idx[(i, j, m - i - j)]
            b = idx[(i + 1, j, m - i - j - 1)]
            c = idx[(i, j + 1, m - i - j - 1)]
            tris.append((a, b, c))
            if i + j <= m - 2:
                d = idx[(i + 1, j + 1, m - i - j - 2)]
                tris.append((b, d, c))
    return np.array(tris, dtype=int)


def reference_rebuild_2d(grid, dirs, rho):
    m = grid.m
    idx = reference_lattice_index(grid)
    new_radii = np.empty(len(grid))
    for k in grid.axis_node_indices():
        new_radii[k] = rho[k]
    edges = [
        ([idx[(i, 0, m - i)] for i in range(m + 1)], 0),
        ([idx[(0, j, m - j)] for j in range(m + 1)], 1),
        ([idx[(i, m - i, 0)] for i in range(m + 1)], 0),
    ]
    for node_ids, param_axis in edges:
        node_ids = np.array(node_ids)
        targets = grid.nodes[node_ids, param_axis]
        s_img = dirs[node_ids, param_axis]
        new_radii[node_ids] = simplex._rebuild_1d(targets, s_img, rho[node_ids], m)

    interior = np.flatnonzero((grid.lattice > 0).all(axis=1))
    if interior.size == 0:
        return new_radii
    tris = reference_triangles(grid)
    img_xy = dirs[:, :2]
    a = img_xy[tris[:, 0]]
    b = img_xy[tris[:, 1]]
    c = img_xy[tris[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    if np.any(det <= 0.0):
        raise SurfaceDegeneracyError(
            f"direction map not injective at resolution {m}; refine grid"
        )

    targets = grid.nodes[interior][:, :2]
    best_min = np.full(interior.size, -np.inf)
    best_val = np.zeros(interior.size)
    for t in range(tris.shape[0]):
        pa, pb, pc = a[t], b[t], c[t]
        rel = targets - pa
        wb = (rel[:, 0] * (pc[1] - pa[1]) - rel[:, 1] * (pc[0] - pa[0])) / det[t]
        wc = ((pb[0] - pa[0]) * rel[:, 1] - (pb[1] - pa[1]) * rel[:, 0]) / det[t]
        wa = 1.0 - wb - wc
        w_min = np.minimum(wa, np.minimum(wb, wc))
        better = w_min > best_min
        if np.any(better):
            vals = wa * rho[tris[t, 0]] + wb * rho[tris[t, 1]] + wc * rho[tris[t, 2]]
            best_val[better] = vals[better]
            best_min[better] = w_min[better]

    if np.any(best_min < -1e-9):
        raise SurfaceDegeneracyError(
            f"image triangulation does not cover the grid at resolution {m}; "
            "refine grid"
        )
    new_radii[interior] = best_val
    return new_radii


def reference_interp3(grid, values, d):
    idx = reference_lattice_index(grid)
    m = grid.m
    u = d[0] * m
    v = d[1] * m
    i0 = min(int(np.floor(u)), m - 1)
    j0 = min(int(np.floor(v)), m - 1)
    i0 = max(i0, 0)
    j0 = max(j0, 0)
    if i0 + j0 >= m:
        if i0 > 0:
            i0 -= 1
        else:
            j0 -= 1
    fu = u - i0
    fv = v - j0
    if fu + fv <= 1.0 or i0 + j0 == m - 1:
        w = np.array([max(1.0 - fu - fv, 0.0), fu, fv])
        w /= w.sum()
        verts = [
            idx[(i0, j0, m - i0 - j0)],
            idx[(i0 + 1, j0, m - i0 - j0 - 1)],
            idx[(i0, j0 + 1, m - i0 - j0 - 1)],
        ]
    else:
        w = np.array([1.0 - fv, 1.0 - fu, fu + fv - 1.0])
        verts = [
            idx[(i0 + 1, j0, m - i0 - j0 - 1)],
            idx[(i0, j0 + 1, m - i0 - j0 - 1)],
            idx[(i0 + 1, j0 + 1, m - i0 - j0 - 2)],
        ]
    return float(sum(w[k] * values[verts[k]] for k in range(3)))


def _rebuild_outcome(fn, grid, dirs, rho):
    try:
        return fn(grid, dirs, rho)
    except SurfaceDegeneracyError as exc:
        return str(exc)


def _surface_with(rebuild, model, m, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_rebuild", rebuild)
        return compute_carrying_simplex(model, m=m)


@pytest.mark.parametrize("m", [2, 3, 8, 13, 24])
def test_lattice_index_and_triangles_match_reference(m):
    grid = SimplexGrid.build(3, m)
    idx = reference_lattice_index(grid)
    assert [simplex._lattice_index(m, i, j) for i, j, _ in idx] == list(idx.values())
    assert np.array_equal(grid.triangles, reference_triangles(grid))
    for (node_ids, axis), nodes in zip(
        grid.chains, ([(i, 0, m - i) for i in range(m + 1)],
                      [(0, j, m - j) for j in range(m + 1)],
                      [(i, m - i, 0) for i in range(m + 1)])  # fmt: skip
    ):
        assert node_ids.tolist() == [idx[key] for key in nodes]
        assert np.all(np.diff(grid.nodes[node_ids, axis]) > 0)


@pytest.mark.parametrize(
    "model, m",
    [(OVERSHOOT, 8), (OVERSHOOT, 16), (COUPLED, 24), (PLANAR, 24)],
    ids=["overshoot-8", "overshoot-16", "coupled-24", "planar-24"],
)
def test_surface_matches_the_triangle_loop(model, m, monkeypatch):
    outside = []
    best_in_cells = simplex._best_in_cells

    def recording(*args):
        best, best_min = best_in_cells(*args)
        outside.append(int(np.count_nonzero(best_min < 0.0)))
        return best, best_min

    monkeypatch.setattr(simplex, "_best_in_cells", recording)
    fast = compute_carrying_simplex(model, m=m)
    reference = _surface_with(reference_rebuild_2d, model, m, monkeypatch)
    assert fast.iterations == reference.iterations
    assert fast.descent_violations == reference.descent_violations
    assert np.array_equal(fast.radii, reference.radii)
    if model is PLANAR:
        # the direction map is the identity: rounding puts some nodes just
        # outside every triangle of their cell, and the all-triangle loop
        # must still pick the same one
        assert sum(outside) > 0


@pytest.mark.parametrize("m", [6, 16, 31])
@pytest.mark.parametrize("scale", [0.02, 0.2, 0.3])
def test_rebuild_matches_the_triangle_loop_on_perturbed_maps(m, scale):
    rng = np.random.default_rng(1000 * m + int(100 * scale))
    grid = SimplexGrid.build(3, m)
    for _ in range(5):
        dirs = grid.nodes + (scale / m) * rng.standard_normal(grid.nodes.shape)
        dirs[grid.lattice == 0] = 0.0  # facets stay invariant
        dirs = np.abs(dirs) / np.abs(dirs).sum(axis=1, keepdims=True)
        rho = 1.0 + 0.1 * rng.random(len(grid))
        fast = _rebuild_outcome(simplex._rebuild, grid, dirs, rho)
        reference = _rebuild_outcome(reference_rebuild_2d, grid, dirs, rho)
        if isinstance(reference, str):
            assert fast == reference
        else:
            assert np.array_equal(fast, reference)


def test_rebuild_errors_match_the_triangle_loop():
    grid = SimplexGrid.build(3, 8)
    rho = np.ones(len(grid))
    folded = grid.nodes.copy()
    idx = reference_lattice_index(grid)
    a, b = idx[(3, 2, 3)], idx[(2, 3, 3)]
    folded[[a, b]] = folded[[b, a]]
    centre = np.full(3, 1.0 / 3.0)
    shrunk = centre + 0.5 * (grid.nodes - centre)  # the image misses the border
    for dirs, message in ((folded, "not injective"), (shrunk, "does not cover")):
        fast = _rebuild_outcome(simplex._rebuild, grid, dirs, rho)
        assert fast == _rebuild_outcome(reference_rebuild_2d, grid, dirs, rho)
        assert message in fast


def _random_triangles(rng, count, snap):
    """``count`` positively oriented triangles in the unit simplex, (x, y) of
    each corner: general ones, wide ones with corners near the simplex's, and
    thin ones.  About half the corners are moved down onto the 1/snap
    lattice, and half of those then up by less than tau.  Triangles whose
    doubled area det is below 1e-5 are dropped."""
    general = rng.dirichlet(np.ones(3), size=(count, 3))
    wide = rng.dirichlet(np.full(3, 0.2), size=(count, 3))
    a, b, d = rng.dirichlet(np.ones(3), size=(3, count))
    s = rng.random((count, 1))
    thin = np.stack([a, b, (1.0 - s - 1e-3) * a + s * b + 1e-3 * d], axis=1)
    corners = np.concatenate([general, wide, thin])[..., :2]
    moved = rng.random(corners.shape[:2]) < 0.5
    lift = simplex._TAU * rng.random(corners.shape) * (rng.random(corners.shape) < 0.5)
    corners[moved] = np.floor(corners[moved] * snap) / snap + lift[moved]
    a, b, c = corners.transpose(1, 0, 2)
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    corners[det < 0.0] = corners[det < 0.0][:, [0, 2, 1]]
    det = np.abs(det)
    return corners[det > 1e-5], det[det > 1e-5]


@pytest.mark.parametrize("k", [4, 12, 48])
def test_cell_search_holds_every_triangle_the_full_search_accepts(k):
    """The lemma of simplex._rebuild, on triangles that need not tile: where
    the largest smallest weight over all triangles is >= -tau, the list of
    the point's 1/k cell holds the first triangle that reaches it."""
    rng = np.random.default_rng(k)
    outside = widths = 0.0
    for _ in range(40):
        corners, det = _random_triangles(rng, 3, snap=12)
        a, b, c = corners.transpose(1, 0, 2)
        # the corners, points on the edges, each also nudged by up to about
        # 1e-8, points beyond a corner with weights (1 + 2 s, -s, -s) for s
        # up to tau, the lemma's extreme case, and random points
        s = rng.random((corners.shape[0], 3, 1))
        near = np.concatenate([corners, s * corners + (1 - s) * np.roll(corners, 1, axis=1)])
        near = near.reshape(-1, 2)
        scale = 10.0 ** rng.uniform(-13, -8, (near.shape[0], 1))
        nudged = near + scale * rng.standard_normal(near.shape)
        s = simplex._TAU * (0.9 + 0.1 * s)
        beyond = (1 + 2 * s) * corners - s * (np.roll(corners, 1, 1) + np.roll(corners, 2, 1))
        random = rng.dirichlet(np.ones(3), size=20)[:, :2]
        points = np.concatenate([near, nudged, beyond.reshape(-1, 2), random])

        p, t = np.indices((points.shape[0], det.size)).reshape(2, -1)
        w = simplex._barycentric(points[p], a[t], b[t], c[t], det[t])
        w_min = np.minimum(w[0], np.minimum(w[1], w[2])).reshape(points.shape[0], det.size)
        winner = np.argmax(w_min, axis=1)  # the first on ties
        top = w_min[np.arange(points.shape[0]), winner]
        accepted = top >= -simplex._TAU
        best, best_min = simplex._best_in_cells(points, a, b, c, det, k)
        assert np.array_equal(best[accepted], winner[accepted])
        assert np.array_equal(best_min[accepted], top[accepted])
        outside += np.count_nonzero(accepted & (top < 0.0))
        widths = max(widths, np.ptp(corners, axis=1).max())
    assert outside > 100 and widths > 0.5


@pytest.mark.parametrize("m", [2, 5, 24])
def test_interpolation_matches_the_row_loop(m):
    rng = np.random.default_rng(m)
    grid = SimplexGrid.build(3, m)
    values = rng.random(len(grid))
    s = np.linspace(0.0, 1.0, 4 * m + 1)
    far_edge = np.stack([s, 1.0 - s, np.zeros_like(s)], axis=1)
    tris = grid.triangles
    midpoints = [0.5 * (grid.nodes[tris[:, k]] + grid.nodes[tris[:, k - 1]]) for k in range(3)]
    # random points on one edge of every triangle, among them every cell diagonal
    s = rng.random((tris.shape[0], 1))
    diagonal = s * grid.nodes[tris[:, 1]] + (1.0 - s) * grid.nodes[tris[:, 2]]
    random = rng.dirichlet(np.ones(3), size=500)
    dirs = np.vstack([random, grid.nodes, *midpoints, diagonal, np.eye(3), far_edge])
    fast = grid.interpolate(values, dirs)
    reference = np.array([reference_interp3(grid, values, row) for row in dirs])
    assert np.array_equal(fast, reference)
    assert grid.interpolate(values, dirs[7]) == reference[7]


# ---------------------------------------------------------------------------
# the period map: tabulated coefficients and species-major (n, N) states
# against per-stage evaluation on row-major (N, n) states
# ---------------------------------------------------------------------------

# negative self-competition of species 1: its axis blows up within one period
DIVERGENT = PeriodicLVSystem([1.0, 0.8], [[-1.0, 0.3], [0.2, 1.1]])


@np.errstate(over="ignore", invalid="ignore")
def reference_log_gain(system, x0, t_span, config, record=False):
    """RK4 on row-major states, (n,) or (N, n), that evaluates B(t) and A(t)
    afresh at every stage and checks finiteness after every step."""

    def per_capita(t, u):
        b, a = system.coefficients_at(t)
        return b - u @ a.T

    t0, t1 = float(t_span[0]), float(t_span[1])
    steps = max(1, int(round((t1 - t0) * config.steps_per_period)))
    h = (t1 - t0) / steps
    ell = np.zeros_like(x0)
    path = [ell.copy()]
    for k in range(steps):
        t = t0 + k * h
        k1 = per_capita(t, x0 * np.exp(ell))
        k2 = per_capita(t + 0.5 * h, x0 * np.exp(ell + 0.5 * h * k1))
        k3 = per_capita(t + 0.5 * h, x0 * np.exp(ell + 0.5 * h * k2))
        k4 = per_capita(t + h, x0 * np.exp(ell + h * k3))
        ell = ell + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(ell)):
            raise IntegrationError(
                f"integration lost finiteness at t = {t + h:.6f}", time=t + h
            )
        path.append(ell.copy())
    if record:
        return ell, t0 + h * np.arange(steps + 1), np.array(path)
    return ell


def _batch_with_facets(rng, rows, n):
    """Random states in [0, 1.2)^n; every third row lies on a facet, and the
    last row of a batch of more than one is the origin."""
    x = rng.random((rows, n)) * 1.2
    facet = np.arange(0, rows, 3)
    x[facet, facet % n] = 0.0
    if rows > 1:
        x[-1] = 0.0
    return x


def random_fourier_system(rng, n, K):
    def series(base):
        return FourierSeries(base, cos=0.2 * base * rng.random(K), sin=0.2 * base * rng.random(K))

    B = [series(0.5 + rng.random()) for _ in range(n)]
    A = [[series((0.8 if i == j else 0.1) + 0.4 * rng.random()) for j in range(n)] for i in range(n)]
    return PeriodicLVSystem(B, A)


# 100 steps: h = 0.01 is inexact, so t + h and t0 + (k + 1) h differ for some k
@pytest.mark.parametrize("steps", [64, 100, 256])
def test_period_map_growth_matches_per_stage_rk4(steps):
    config = IntegrationConfig(steps)
    rng = np.random.default_rng(steps)
    for n, K in itertools.product(range(1, 7), (0, 1, 3)):
        system = random_fourier_system(np.random.default_rng(10 * n + K), n, K)
        assert system._K == K
        model = PoincareMapModel(system, config)
        for rows in (1, 3, 100, 5_000):
            x = _batch_with_facets(rng, rows, n)
            reference = np.exp(reference_log_gain(system, x, (0.0, 1.0), config))
            assert np.array_equal(model.growth(x), reference), (n, K, rows)
        # a single state may differ in the last bit from the same row inside a
        # batch, in the reference and the model alike (BLAS rounds a
        # matrix-vector product apart from a matrix product), so it is
        # compared only with the reference run on the single state
        for row in _batch_with_facets(rng, 3, n):
            reference = np.exp(reference_log_gain(system, row, (0.0, 1.0), config))
            assert np.array_equal(model.growth(row), reference), (n, K, row)


@np.errstate(over="ignore", invalid="ignore")
def reference_tangent(table, x0):
    """l and D = dl/dx0 of the RK4 map over a stage table, by the plain
    species-major loop that forms every stage afresh: its argument, its exp,
    the increment and the tangent stage A (exp(l) (x0 D_j + e_j)) of every
    column j, all columns as one stacked product."""
    t0, h, b, a = table
    half, sixth = 0.5 * h, h / 6.0
    x0_cols = np.atleast_2d(x0).T.copy()
    n, N = x0_cols.shape
    ell, d_ell, eye = np.zeros((n, N)), np.zeros((n, n, N)), np.eye(n)[:, :, None]

    def stage(b_t, a_t, ell_t, d_t):
        e = np.exp(ell_t)
        return b_t - a_t @ (x0_cols * e), a_t @ ((x0_cols * d_t + eye) * e)

    for b1, b2, b4, a1, a2, a4 in zip(*b, *a):
        k1, p1 = stage(b1, a1, ell, d_ell)
        k2, p2 = stage(b2, a2, ell + half * k1, d_ell - half * p1)
        k3, p3 = stage(b2, a2, ell + half * k2, d_ell - half * p2)
        k4, p4 = stage(b4, a4, ell + h * k3, d_ell - h * p3)
        ell = ell + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d_ell = d_ell - sixth * (p1 + p4 + 2.0 * (p2 + p3))
    return ell.T.reshape(x0.shape), d_ell.transpose(2, 1, 0).reshape(x0.shape + (n,))


# the grid of the per-stage test above: n = 1..6, K = 0, 1, 3, 1 to 5,000 rows;
# G' of the tangent pass is also pinned bit for bit to the reference loop
@pytest.mark.parametrize("steps", [64, 100])
def test_tangent_pass_growth_matches_growth(steps):
    config = IntegrationConfig(steps)
    rng = np.random.default_rng(steps)
    for n, K in itertools.product(range(1, 7), (0, 1, 3)):
        system = random_fourier_system(np.random.default_rng(10 * n + K), n, K)
        model = PoincareMapModel(system, config)
        batches = [_batch_with_facets(rng, rows, n) for rows in (1, 3, 100, 5_000)]
        for x in batches + list(_batch_with_facets(rng, 3, n)):
            g, gp = model.growth_and_jacobian(x)
            assert np.array_equal(g, model.growth(x)), (n, K, x.shape)
            assert gp.shape == x.shape + (n,) and np.all(np.isfinite(gp))
            ell, d_ell = reference_tangent(model._table, x)
            assert np.array_equal(gp, np.exp(ell)[..., :, None] * d_ell), (n, K, x.shape)


def test_integrate_matches_per_stage_rk4_off_the_period_grid():
    loaded = load_model_file(MODELS / "periodic_lv2.json")
    # both spans end in a partial period (80 of 100 and 45 of 64 steps), so
    # the table's last block is shorter than the others
    for span, steps in (((0.3, 2.1), 100), ((0.3, 20.0), 64)):
        config = IntegrationConfig(steps)
        for x0 in (np.array([0.2, 0.3]), np.array([0.0, 0.4])):
            traj = integrate(loaded.system, x0, span, config)
            _, times, path = reference_log_gain(loaded.system, x0, span, config, record=True)
            states = x0 * np.exp(path)
            states[:, x0 == 0.0] = 0.0
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)


def test_blow_up_is_raised_at_the_per_stage_time():
    config = IntegrationConfig(64)
    x = np.array([[0.3, 0.2], [1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(IntegrationError) as expected:
        reference_log_gain(DIVERGENT, x, (0.0, 1.0), config)
    with pytest.raises(IntegrationError) as tabulated:
        PoincareMapModel(DIVERGENT, config).growth(x)
    assert str(tabulated.value) == str(expected.value)
    assert tabulated.value.time == expected.value.time
    with pytest.raises(IntegrationError) as expected:
        reference_log_gain(DIVERGENT, x[1], (0.3, 2.1), config, record=True)
    with pytest.raises(IntegrationError) as tabulated:
        integrate(DIVERGENT, x[1], (0.3, 2.1), config)
    assert str(tabulated.value) == str(expected.value)
    assert tabulated.value.time == expected.value.time


# ---------------------------------------------------------------------------
# asymptotic check: the early stop against the fixed-length loop
# ---------------------------------------------------------------------------


def reference_asymptotic_check(surface, model, initial_points):
    """Every start iterated ``ASYMPTOTIC_STEPS`` times, with no early stop.

    Also returns the first k at which step k returns its input bit for bit,
    or ``ASYMPTOTIC_STEPS`` when no step does.
    """
    X = np.atleast_2d(np.asarray(initial_points, dtype=float))
    box = 10.0 * surface.q
    escaped = np.zeros(X.shape[0], dtype=bool)
    repeat = None
    for k in range(1, simplex.ASYMPTOTIC_STEPS + 1):
        Y = model.step(X)
        if repeat is None and Y.tobytes() == X.tobytes():
            repeat = k
        X = Y
        escaped |= np.any(X > box, axis=1)
        if k == simplex.ASYMPTOTIC_STEPS // 2:
            gaps_half = simplex._radial_gaps(surface, X)
    gaps_end = simplex._radial_gaps(surface, X)
    tol = simplex.discretization_floor(surface)
    ok = (
        not escaped.any()
        and bool(np.all(gaps_end < 10.0 * tol))
        and bool(np.all(gaps_end <= np.maximum(gaps_half, tol) + 1e-15))
    )
    stats = simplex.AsymptoticStats(
        passed=ok,
        gaps_half=gaps_half,
        gaps_end=gaps_end,
        escaped=int(escaped.sum()),
        steps=simplex.ASYMPTOTIC_STEPS,
        tol=tol,
    )
    return stats, repeat or simplex.ASYMPTOTIC_STEPS


def verify_starts(q, seed=42):
    """The starts ``verify_surface`` draws at this seed."""
    rng = np.random.default_rng(seed)
    return 0.05 * q + rng.random((simplex.ASYMPTOTIC_STARTS, q.size)) * (1.45 * q)


def _asymptotic_case(name, request):
    """(surface, model, starts) of each case."""
    if name == "periodic64":
        model = request.getfixturevalue("periodic64")
    elif name == "escaping":
        # the surface's q is a tenth of may2's, so the box 10 q is may2's q,
        # which the first step from a start above q crosses
        may2 = request.getfixturevalue("may2")
        surface = compute_carrying_simplex(MayOsterModel([0.5, 0.4], [[10.0, 2.0], [3.0, 10.0]]))
        return surface, may2, verify_starts(may2.verified_axial_fixed_points())
    else:
        model = {
            "neural2": request.getfixturevalue("neural2"),
            "ricker_2cycle": MayOsterModel([2.2], [[1.0]]),
            "ricker_chaotic": MayOsterModel([3.0], [[1.0]]),
        }[name]
    # the Ricker surfaces do not converge; only the loops are compared here
    surface = compute_carrying_simplex(model, max_iter=50)
    return surface, model, verify_starts(surface.q)


@pytest.mark.parametrize(
    "name", ["periodic64", "neural2", "ricker_2cycle", "ricker_chaotic", "escaping"]
)
def test_asymptotic_check_matches_the_fixed_length_loop(name, request, monkeypatch):
    surface, model, starts = _asymptotic_case(name, request)
    reference, repeat = reference_asymptotic_check(surface, model, starts)
    half = simplex.ASYMPTOTIC_STEPS // 2
    if name == "periodic64":
        assert repeat < half  # the stop comes before the half-time gaps are taken
    elif name == "neural2":
        assert half < repeat < simplex.ASYMPTOTIC_STEPS  # ... after them
    elif name.startswith("ricker"):
        assert repeat == simplex.ASYMPTOTIC_STEPS  # a 2-cycle and chaos: no step repeats
    steps = recorded_inputs(monkeypatch, model, "step")
    stats = simplex.asymptotic_check(surface, model, starts)
    assert len(steps) == repeat
    assert (stats.passed, stats.escaped, stats.steps, stats.tol) == (
        reference.passed, reference.escaped, reference.steps, reference.tol,
    )  # fmt: skip
    assert np.array_equal(stats.gaps_half, reference.gaps_half)
    assert np.array_equal(stats.gaps_end, reference.gaps_end)
    assert (stats.escaped > 0) == (name == "escaping")
