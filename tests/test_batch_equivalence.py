"""The batched checkers against the point-by-point loops they replaced.

Each ``reference_*`` function below is the earlier per-point implementation,
kept here as the oracle.  Closed-form models and C4's axis iterations use
the same arithmetic in both forms and must agree exactly (a period map whose
C4 is proved does not iterate, so its case has a self-competition that dips
below 0).  The period map's Jacobian is the exact derivative of its RK4
step: it must equal that of a plain reference tangent loop bit for bit, and
it is compared with a per-coordinate central difference, and the criteria
built on it with their per-point loops, to 1e-9 relative, the error of a
1e-6 difference step.  The Newton solve for q is compared with the axis
iteration to 1e-12 relative.
"""

import dataclasses
import itertools
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from carrysim import criteria
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
from carrysim import periodic, simplex
from carrysim.modelio import load_model_file
from carrysim.models import (
    LeslieGowerModel,
    MayOsterModel,
    ModelParameterError,
    NeuralNetModel,
    _reduce_columns,
    as_state,
)
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


def reference_c5(model, samples=10_000, seed=42, pts=None):
    """The C5 loop on the sample, or on ``pts`` where given."""
    if pts is None:
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
    model = MayOsterModel([0.5] * 9, np.eye(9))
    batched = check_inverse_positivity(model, np.zeros((5, 9)))
    assert batched.to_record() == reference_inverse_positivity(model, np.zeros((5, 9))).to_record()
    assert batched.samples == 0


@pytest.mark.parametrize(
    "probe",
    [[[1e-320, 0.0]], [[0.0, 0.0], [1e-320, 0.3], [0.0, 0.3]], [[0.2, 0.1], [0.0, 1e-320]]],
    ids=["alone", "beside-a-facet", "after-a-point"],
)
def test_inverse_positivity_counts_a_subnormal_coordinate_in_the_support(probe):
    batched = check_inverse_positivity(STRONG, probe)
    assert batched.verdict == "pass_sampled"
    assert batched.to_record() == reference_inverse_positivity(STRONG, probe).to_record()


def support_pattern_probe(q, scale, seed, per=3):
    """``per`` points in (0, scale q] on every support pattern, the empty one
    included, in a shuffled order."""
    rng = np.random.default_rng(seed)
    masks = np.array(list(itertools.product([False, True], repeat=q.size)))
    pts = np.repeat(masks, per, axis=0) * rng.random((per * len(masks), q.size)) * scale * q
    return pts[rng.permutation(len(pts))]


# scale 1 passes on every family; at scale 3 May-Oster fails, and the record
# is that of its first failing point in input order
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "family, scale", [("may", 1.0), ("may", 3.0), ("lg", 3.0), ("neural", 3.0)]
)
def test_inverse_positivity_on_every_support_pattern(family, scale, n):
    model = _stacking_model(family, n)
    probe = support_pattern_probe(model.verified_axial_fixed_points(), scale, seed=n)
    batched = check_inverse_positivity(model, probe)
    assert batched.verdict == ("fail" if family == "may" and scale > 1.0 else "pass_sampled")
    assert batched.to_record() == reference_inverse_positivity(model, probe).to_record()


@pytest.mark.blas_threads
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_positivity_on_every_support_pattern_of_a_period_map(n, monkeypatch):
    """The rows of one batched T' differ from T' of each point by ulps, so
    the reference reads the checker's batch, row by row."""
    model = _stacking_model("period64", n)
    probe = support_pattern_probe(model.verified_axial_fixed_points(), 3.0, seed=n)
    batched = check_inverse_positivity(model, probe)
    rows = probe[probe.any(axis=1)]
    jac = dict(zip(map(bytes, rows), model.step_jacobian(rows)))
    monkeypatch.setattr(model, "step_jacobian", lambda x: jac[x.tobytes()])
    assert batched.verdict == "pass_sampled"
    assert batched.to_record() == reference_inverse_positivity(model, probe).to_record()


@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
def test_axial_pass_on_period_map_matches_reference():
    # periodic_lv2 with A_22 = 0.05 + 0.1 cos, which dips below 0: C4 is not
    # proved, and the period map's axes are iterated.  Axis rows have one
    # nonzero coordinate, so batching leaves them exact
    system = PeriodicLVSystem(
        [FourierSeries(1.0, cos=(0.2,)), FourierSeries(0.8, sin=(0.1,))],
        [
            [FourierSeries(1.0), FourierSeries(0.3)],
            [FourierSeries(0.2), FourierSeries(0.05, cos=(0.1,))],
        ],
    )
    model = PoincareMapModel(system, IntegrationConfig(64))
    assert model.exact_axial_fixed_points() is None
    batched = check_axial(model).to_record()
    assert batched["verdict"] == "pass_sampled"
    assert batched == reference_axial(model).to_record()


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


def _axial_q_and_tangent_passes(model, monkeypatch):
    """The Newton q of ``model`` and the number of tangent passes it took."""
    passes = []
    log_gain = periodic._log_gain

    def counted(table, x0, **kwargs):
        passes.append(kwargs.get("tangent", False))
        return log_gain(table, x0, **kwargs)

    monkeypatch.setattr(periodic, "_log_gain", counted)
    q = model.axial_fixed_points()
    monkeypatch.setattr(periodic, "_log_gain", log_gain)
    return q, sum(passes)


@pytest.mark.blas_threads
@pytest.mark.parametrize("steps", [64, 256, 1024])
def test_axial_newton_from_q_exact_matches_the_unseeded_solve(steps, monkeypatch):
    def fresh():
        return load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(steps))

    seeded = fresh()
    assert seeded.exact_axial_fixed_points() is not None
    q, passes = _axial_q_and_tangent_passes(seeded, monkeypatch)
    unseeded = fresh()
    monkeypatch.setattr(unseeded, "exact_axial_fixed_points", lambda: None)
    reference, reference_passes = _axial_q_and_tangent_passes(unseeded, monkeypatch)
    assert q.tobytes() == reference.tobytes()
    assert 1 <= passes <= reference_passes // 2


@pytest.mark.parametrize(
    "model",
    [
        MayOsterModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]]),
        MayOsterModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]),  # ties at 0
        MayOsterModel([0.5, 0.4, 0.45], [[1, 0.2, 0.1], [0.3, 1, 0.2], [0.1, 0.2, 1]]),
        pytest.param(MayOsterModel([0.5] * 4, np.eye(4)), id="ties4"),
        *[
            pytest.param((family, n), id=f"{family}{n}")
            for family in ("may", "lg", "neural")
            for n in range(1, 5)
        ],
        *[
            pytest.param(("period64", n), id=f"period64-{n}", marks=pytest.mark.blas_threads)
            for n in range(1, 5)
        ],
    ],
)
def test_c5_matches_reference(model, monkeypatch):
    """On the sample, then on points of every support pattern in [0, 1.5 q]."""
    if isinstance(model, tuple):  # (family, n), built where _stacking_model is defined
        model = _stacking_model(*model)
    cases = [(check_c5(model, samples=2000, seed=7), reference_c5(model, samples=2000, seed=7))]
    probe = support_pattern_probe(model.verified_axial_fixed_points(), 1.5, seed=model.n)
    monkeypatch.setattr(criteria, "_region_samples", lambda *args, **kwargs: probe)
    cases.append((check_c5(model, samples=2000, seed=7), reference_c5(model, pts=probe)))
    for batched, (worst, witness, near_ties) in cases:
        record = batched.to_record()
        expected = ConditionResult("C5", "", witness=witness).to_record()
        assert record["worst"] == worst
        assert record["witness"] == expected["witness"]
        assert batched.note == (f"near-ties (> -1e-12): {near_ties}" if near_ties else "")


def reference_growth_jacobian(model, x):
    """G' as each closed form computed it apart from G, with G evaluated again."""
    if isinstance(model, MayOsterModel):
        return -model.A * model.growth(x)[..., :, None]
    if isinstance(model, LeslieGowerModel):
        g = model.growth(x)
        denom = 1.0 + x @ model.A.T
        return -model.A * (g / denom)[..., :, None]
    s = model.signal(x)
    g = np.exp(model.transfer.value(s))
    d = model.transfer.deriv(s)
    return -model.A * (d * g)[..., :, None]


@pytest.mark.parametrize(
    "model",
    [
        MayOsterModel([0.5, 0.4, 0.45], [[1, 0.2, 0.1], [0.3, 1, 0.2], [0.1, 0.2, 1]]),
        LeslieGowerModel([1.3, 1.2, 1.25], [[1, 0.2, 0.1], [0.3, 1, 0.2], [0.1, 0.2, 1]]),
        NeuralNetModel([0.5, 0.4, 0.45], [[1, 0.2, 0.1], [0.3, 1, 0.2], [0.1, 0.2, 1]], 1.7),
        MayOsterModel([0.7], [[1.3]]),
    ],
    ids=["may3", "lg3", "neural3", "may1"],
)
def test_growth_and_jacobian_match_the_separate_evaluations(model):
    """One evaluation of G gives the same bits as G and G' evaluated apart."""
    rng = np.random.default_rng(19)
    batch = _batch_with_facets(rng, 40, model.n)
    for x in (batch, *batch[[0, 1, -1]]):
        g, gp = model.growth_and_jacobian(x)
        assert np.array_equal(g, model.growth(x))
        assert np.array_equal(gp, reference_growth_jacobian(model, x))
        assert np.array_equal(model.growth_jacobian(x), gp)


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
    # C2 without the origin row: one map call holds the nonzero samples x,
    # then lambda x, with lambda drawn after x from the same stream
    steps = recorded_inputs(monkeypatch, model, "step")
    check_sublinearity(model, samples=997, seed=seed)
    rng = np.random.default_rng(seed)
    pts = reference_region_samples(model, 997, rng)
    pts = pts[pts.sum(axis=1) > 0.0]
    lam = np.clip(rng.random(len(pts)) * (1.0 - 1e-6), 1e-9, None)
    assert len(steps) == 1 and np.array_equal(steps[0], np.vstack([pts, lam[:, None] * pts]))

    # C3: two box draws, then the facet masks from the same stream; one map
    # call holds xs, then ys
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
    assert len(steps) == 1 and np.array_equal(steps[0], np.vstack([xs, ys]))

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


@pytest.mark.blas_threads
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


@pytest.mark.parametrize("model", ["COUPLED", "PLANAR"])
def test_spectral_radius_is_the_plain_eigensolve_bit_for_bit(model, monkeypatch):
    """Every radius Eq4 takes on the 16^3 grid and its 9^3 refinement is
    max |eigvals(M)| as the unguarded expression computes it."""
    matrices = []
    radius = criteria.spectral_radius
    monkeypatch.setattr(criteria, "spectral_radius", lambda M: matrices.append(M) or radius(M))
    check_spectral_grid(globals()[model], grid_resolution=16)
    assert len(matrices) == 16**3 + 9**3
    for M in matrices:
        assert radius(M) == float(np.max(np.abs(np.linalg.eigvals(M))))


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


def fresh_rebuild(grid, dirs, rho):
    """simplex._rebuild with an empty memo: every cell list built anew."""
    return simplex._rebuild(grid, dirs, rho, {})


def _rebuild_outcome(fn, grid, dirs, rho):
    try:
        return fn(grid, dirs, rho)
    except SurfaceDegeneracyError as exc:
        return str(exc)


def _surface_with(rebuild, model, m, monkeypatch):
    """The surface of ``model`` at m with ``rebuild(grid, dirs, rho)`` in
    place of simplex._rebuild, whose memo it ignores."""
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_rebuild", lambda grid, dirs, rho, memo: rebuild(grid, dirs, rho))
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
        fast = _rebuild_outcome(fresh_rebuild, grid, dirs, rho)
        reference = _rebuild_outcome(reference_rebuild_2d, grid, dirs, rho)
        if isinstance(reference, str):
            assert fast == reference
        else:
            assert np.array_equal(fast, reference)


def test_rebuild_with_a_memo_matches_one_without():
    """A memo kept over a run of direction maps gives the radii, or the
    error, of a fresh search at every step.  The maps move every corner by
    1e-13, which keeps the cells, by 0.2/m, which moves them, and by -5e-9 in
    x, which changes upper cells (hi) only; some of them fold or shrink."""
    m = 12
    grid = SimplexGrid.build(3, m)
    rng = np.random.default_rng(18)
    interior = (grid.lattice > 0).all(axis=1)
    left = grid.nodes.copy()
    left[interior] += [-5e-9, 0.0, 5e-9]  # a corner's lo cell stays, its hi cell drops
    idx = reference_lattice_index(grid)
    folded = grid.nodes.copy()
    folded[[idx[(3, 2, 7)], idx[(2, 3, 7)]]] = folded[[idx[(2, 3, 7)], idx[(3, 2, 7)]]]
    centre = np.full(3, 1.0 / 3.0)

    def perturbed(base, scale):
        dirs = base + scale * rng.standard_normal(base.shape)
        dirs[grid.lattice == 0] = 0.0
        return np.abs(dirs) / np.abs(dirs).sum(axis=1, keepdims=True)

    maps = [grid.nodes, left, grid.nodes, left, left]
    base = perturbed(grid.nodes, 0.2 / m)
    for _ in range(6):
        maps += [base, perturbed(base, 1e-13), perturbed(base, 1e-13)]
        base = perturbed(grid.nodes, 0.2 / m)
    maps[8:8] = [folded, centre + 0.5 * (grid.nodes - centre), maps[7]]
    memo = {}
    reused = []
    for dirs in maps:
        rho = 1.0 + 0.1 * rng.random(len(grid))
        pairs = memo.get("pairs")
        kept = _rebuild_outcome(partial(simplex._rebuild, memo=memo), grid, dirs, rho)
        reused.append(memo.get("pairs") is pairs)
        fresh = _rebuild_outcome(fresh_rebuild, grid, dirs, rho)
        if isinstance(fresh, str):
            assert kept == fresh
        else:
            assert np.array_equal(kept, fresh)
    outcomes = [_rebuild_outcome(fresh_rebuild, grid, d, np.ones(len(grid))) for d in maps]
    assert sum(isinstance(o, str) for o in outcomes) >= 2
    assert 10 <= sum(reused) <= len(maps) - 10


def test_planar_surface_reuses_the_cell_lists(monkeypatch):
    """The identity direction map keeps every triangle's cells from sweep to
    sweep, mixed radii or not, so every sweep reuses the lists of the first."""
    reused = []
    best_in_cells = simplex._best_in_cells

    def recording(*args):
        memo = args[-1]
        pairs = memo.get("pairs")
        result = best_in_cells(*args)
        reused.append(memo["pairs"] is pairs)
        return result

    monkeypatch.setattr(simplex, "_best_in_cells", recording)
    surface = compute_carrying_simplex(PLANAR, m=24)
    assert len(reused) == surface.iterations == 16
    assert sum(reused) == 15, reused


def reference_plain_surface(model, m=None, tol=1e-10, max_iter=5_000):
    """The surface iteration without mixing: each sweep's input is the last
    sweep's image.  Returns the radii, iterations, final delta, whether it
    converged and the descent violations of every sweep from the second on."""
    grid = SimplexGrid.build(model.n, simplex._DEFAULT_M[model.n] if m is None else m)
    q = model.verified_axial_fixed_points()
    with np.errstate(divide="ignore"):
        ratios = np.where(grid.nodes > 0.0, q / np.where(grid.nodes > 0, grid.nodes, 1.0), np.inf)
    radii = 1.5 * ratios.min(axis=1)
    descent_violations = 0
    memo = {}
    for iteration in range(1, max_iter + 1):
        new_radii = simplex._sweep(model, grid, radii, memo)
        delta = float(np.max(np.abs(new_radii - radii)))
        if iteration >= 2:
            descent_violations += int(np.count_nonzero(new_radii > radii + 1e-12))
        radii = new_radii
        if delta < tol:
            return radii, iteration, delta, True, descent_violations
    return radii, max_iter, delta, False, descent_violations


class _CountingSteps:
    """``model``, counting its ``step`` calls."""

    def __init__(self, model):
        self.model = model
        self.steps = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def step(self, x):
        self.steps += 1
        return self.model.step(x)


MIXED_CASES = [(name, None) for name in ("may2", "leslie2", "neural2", "may1_b3", "periodic_lv2")]
MIXED_CASES += [("overshoot", 8), ("overshoot", 16), ("coupled", 24), ("planar", 24)]


@pytest.mark.blas_threads
@pytest.mark.parametrize(
    "name, m", MIXED_CASES, ids=[name if m is None else f"{name}-{m}" for name, m in MIXED_CASES]
)
def test_mixed_surface_matches_the_plain_iteration(name, m, monkeypatch):
    """The Anderson-mixed iteration against the plain one: radii within
    10 tol (of the exact plane a.x = c - 1 for the planar map, from which the
    plain radii are 4.7e-10 off), the same convergence in no more sweeps, and
    one map call per sweep.  The radii and the final delta are the last
    sweep's image and movement.  Where the plain second sweep rises, nothing
    is mixed and every result has the plain bits."""
    tol = 1e-10
    model = {"overshoot": OVERSHOOT, "coupled": COUPLED, "planar": PLANAR}.get(name)
    if model is None:
        model = load_model_file(MODELS / f"{name}.json").map_model(periodic.IntegrationConfig(64))
    counting = _CountingSteps(model)
    sweeps = []
    sweep = simplex._sweep

    def recording(model, grid, x, memo):
        sweeps.append((x, sweep(model, grid, x, memo)))
        return sweeps[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_sweep", recording)
        surface = compute_carrying_simplex(counting, m=m, tol=tol)
    radii, iterations, delta, converged, violations = reference_plain_surface(model, m, tol)

    assert counting.steps == len(sweeps) == surface.iterations <= iterations
    assert surface.radii is sweeps[-1][1]
    assert surface.final_delta == np.max(np.abs(sweeps[-1][1] - sweeps[-1][0]))
    assert surface.converged == converged
    if name == "planar":
        a = np.array([1.0, 0.8, 0.6])
        assert np.max(np.abs(surface.points() @ a - 0.2) / (surface.grid.nodes @ a)) < 10 * tol
    else:
        assert np.max(np.abs(surface.radii - radii)) < 10 * tol
    if violations:
        assert name == "may1_b3"
        assert np.array_equal(surface.radii, radii)
        assert (surface.iterations, surface.final_delta) == (iterations, delta)
        assert surface.descent_violations == violations
    else:
        assert surface.descent_violations == 0
        assert surface.iterations < iterations


@pytest.mark.blas_threads
@pytest.mark.parametrize("gamma", [1e300, -1e300, np.nan])
@pytest.mark.parametrize("model, m", [(COUPLED, 8), (PLANAR, 8)], ids=["coupled-8", "planar-8"])
def test_mixed_inputs_outside_the_start_box_are_not_taken(model, m, gamma, monkeypatch):
    """Coefficients that send every mixed input above 1.5 x the start radii,
    below 0 or to NaN leave the plain iteration, bit for bit."""
    monkeypatch.setattr(simplex, "_least_squares", lambda columns, f: [gamma] * len(columns))
    surface = compute_carrying_simplex(model, m=m)
    radii, iterations, delta, converged, violations = reference_plain_surface(model, m)
    assert np.array_equal(surface.radii, radii)
    assert (surface.iterations, surface.final_delta) == (iterations, delta)
    assert surface.converged == converged
    assert surface.descent_violations == violations == 0


@pytest.mark.blas_threads
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_least_squares_matches_lstsq(k):
    """The Gram-matrix solve against LAPACK's: the coefficients on full-rank
    columns, the residual where a column repeats an earlier one or is 0."""
    rng = np.random.default_rng(k)
    columns = list(rng.standard_normal((k, 325)) * np.logspace(0, -3, k)[:, None])
    f = rng.standard_normal(325)
    A = np.column_stack(columns)
    gamma = simplex._least_squares(columns, f)
    assert np.allclose(gamma, np.linalg.lstsq(A, f, rcond=None)[0], rtol=1e-6, atol=0.0)
    degenerate = [np.zeros(325), *columns, columns[0]]
    gamma = simplex._least_squares(degenerate, f)
    assert gamma[0] == gamma[-1] == 0.0
    best = f - A @ np.linalg.lstsq(A, f, rcond=None)[0]
    ours = f - np.column_stack(degenerate) @ gamma
    assert abs(np.linalg.norm(ours) - np.linalg.norm(best)) < 1e-9 * np.linalg.norm(f)


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
        fast = _rebuild_outcome(fresh_rebuild, grid, dirs, rho)
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
        w = simplex._barycentric(points[p], a[t], (b - a)[t], (c - a)[t], det[t])
        w_min = np.minimum(w[0], np.minimum(w[1], w[2])).reshape(points.shape[0], det.size)
        winner = np.argmax(w_min, axis=1)  # the first on ties
        top = w_min[np.arange(points.shape[0]), winner]
        accepted = top >= -simplex._TAU
        best, best_min = simplex._best_in_cells(points, a, b, c, det, k, {})
        assert np.array_equal(best[accepted], winner[accepted])
        assert np.array_equal(best_min[accepted], top[accepted])
        outside += np.count_nonzero(accepted & (top < 0.0))
        widths = max(widths, np.ptp(corners, axis=1).max())
    assert outside > 100 and widths > 0.5


def test_cell_lists_are_reused_only_while_lo_and_hi_repeat():
    """With a memo, the search equals a fresh one when the triangles keep
    their cells, grow about the lower corner of their boxes, which keeps
    every lo and moves some hi, and shrink back."""
    rng = np.random.default_rng(18)
    points = rng.dirichlet(np.ones(3), size=400)[:, :2]
    memo = {}
    reused = []
    for _ in range(5):
        corners, _ = _random_triangles(rng, 3, snap=12)
        low = corners.min(axis=1, keepdims=True)
        for tri in (corners, corners, low + 1.5 * (corners - low)) * 2:
            a, b, c = tri.transpose(1, 0, 2)
            ab, ac = b - a, c - a
            det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
            pairs = memo.get("pairs")
            kept = simplex._best_in_cells(points, a, b, c, det, 12, memo)
            fresh = simplex._best_in_cells(points, a, b, c, det, 12, {})
            assert np.array_equal(kept[0], fresh[0]) and np.array_equal(kept[1], fresh[1])
            reused.append(memo["pairs"] is pairs)
    assert reused == [False, True, False, False, True, False] * 5


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
@pytest.mark.blas_threads
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
@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
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


WEAK4 = MayOsterModel(
    [0.4, 0.35, 0.3, 0.25], np.eye(4) + 0.05 * (np.ones((4, 4)) - np.eye(4))
)  # its cloud collapses onto the interior equilibrium
PLANAR4 = LeslieGowerModel([1.1] * 4, [[1.0, 0.8, 0.6, 0.4]] * 4)  # the CLI's planar cloud


@pytest.mark.parametrize("model", [WEAK4, PLANAR4], ids=["weak4", "planar4"])
def test_attractor_cloud_stops_at_a_repeat_with_the_full_loops_points(model, monkeypatch):
    rng = np.random.default_rng(42)
    X = (0.05 + 1.45 * rng.random((500, 4))) * model.verified_axial_fixed_points()
    for _ in range(simplex.CLOUD_STEPS):
        X = model.step(X)
    steps = recorded_inputs(monkeypatch, model, "step")
    cloud = simplex.compute_attractor_cloud(model, n_points=500, seed=42)
    assert cloud.tobytes() == X.tobytes()
    if model is WEAK4:
        assert len(steps) < simplex.CLOUD_STEPS  # stopped at its repeat
    else:
        assert len(steps) == simplex.CLOUD_STEPS  # still contracting onto the plane


# ---------------------------------------------------------------------------
# the asymptotic check's orbits ride in the surface sweeps
# ---------------------------------------------------------------------------


def _stacking_model(family, n):
    """A map of n species from the family: a closed form with coupled
    species, or a period map with forced coefficients at 64 or 256 steps."""
    rng = np.random.default_rng(n)
    B = 0.3 + 0.3 * rng.random(n)
    A = 0.1 + 0.2 * rng.random((n, n))
    np.fill_diagonal(A, 1.0)
    if family == "may":
        return MayOsterModel(B, A)
    if family == "lg":
        return LeslieGowerModel(1.0 + B, A)
    if family == "neural":
        return NeuralNetModel(B, A, gamma=1.0)
    steps = int(family.removeprefix("period"))
    return PoincareMapModel(random_fourier_system(rng, n, 2), IntegrationConfig(steps))


# the resolutions whose node rows the CLI stacks: the default m, the
# benchmark's m = 24 and 16 for three species, and the narrowest grids
STACKED_M = {1: [1], 2: [2, 3, 4, 8, 64], 3: [2, 3, 4, 8, 16, 24]}


@pytest.mark.blas_threads
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", ["may", "lg", "neural", "period64", "period256"])
def test_stacked_step_matches_each_part(family, n):
    model = _stacking_model(family, n)
    q = model.verified_axial_fixed_points()
    rng = np.random.default_rng(7)
    parts = [simplex._asymptotic_starts(q, 42)]  # the check's 100 starts
    for m in STACKED_M[n]:
        nodes = SimplexGrid.build(n, m).nodes
        # node points between half and twice the radius at which the ray leaves [0, q]
        exit_radius = np.min(np.where(nodes > 0, q / np.where(nodes > 0, nodes, 1.0), np.inf), 1)
        parts.append(nodes * (exit_radius * rng.uniform(0.5, 2.0, len(nodes)))[:, None])
    for points in parts[1:]:
        stacked = model.step(np.vstack([points, parts[0]]))
        assert np.array_equal(stacked[: len(points)], model.step(points)), (family, n, len(points))
        assert np.array_equal(stacked[len(points) :], model.step(parts[0])), (family, n)


# (model or fixture name, compute_carrying_simplex keywords, steps the
# starts are advanced by before the surface) of each case
RIDING_CASES = {
    "periodic64": ("periodic64", {}, 0),
    "may2": ("may2", {}, 0),
    "neural2": ("neural2", {}, 0),
    "may1_b3": ("may1_b3", {}, 0),
    "planar-24": (PLANAR, {"m": 24}, 0),
    "overshoot-16": (OVERSHOOT, {"m": 16}, 0),
    # they repeat within 12 steps, before the 25th sweep
    "finish-first": ("may2", {}, 130),
    # no start repeats within 400 steps, and the surface sweeps 300 times:
    # no residual is below tol = 0, though the mixed sweeps reach an exact
    # fixed point
    "half-in-sweeps": ("lg2", {"tol": 0.0, "max_iter": 300}, 0),
}


@pytest.mark.blas_threads
@pytest.mark.parametrize("name", list(RIDING_CASES))
def test_ridden_orbits_match_the_unridden_check(name, request):
    model, kwargs, advance = RIDING_CASES[name]
    model = request.getfixturevalue(model) if isinstance(model, str) else model
    starts = simplex._asymptotic_starts(model.verified_axial_fixed_points(), 42)
    for _ in range(advance):
        starts = model.step(starts)
    riding = simplex._RidingOrbits(model, starts)
    ridden = compute_carrying_simplex(riding, **kwargs)
    riding.riding = False
    rode = len(riding.path) - 1
    stats = simplex.asymptotic_check(ridden, riding, starts)
    surface = compute_carrying_simplex(model, **kwargs)
    reference = simplex.asymptotic_check(surface, model, starts)

    assert np.array_equal(ridden.radii, surface.radii)
    assert ridden.metadata() == surface.metadata()
    for field in dataclasses.fields(simplex.AsymptoticStats):
        ours, theirs = getattr(stats, field.name), getattr(reference, field.name)
        assert np.array_equal(ours, theirs), field.name
    # every sweep until the orbits were done carried them, and the check
    # read every step they took there
    assert 0 < rode == riding.read
    repeated = riding.path[-1].tobytes() == riding.path[-2].tobytes()
    assert rode == ridden.iterations or rode == simplex.ASYMPTOTIC_STEPS or repeated
    if name == "finish-first":
        assert rode < ridden.iterations and ridden.converged and repeated
    if name == "half-in-sweeps":
        assert rode == 300 > simplex.ASYMPTOTIC_STEPS // 2 and not repeated


@pytest.mark.blas_threads
@pytest.mark.parametrize("name", ["periodic64", "may2", "may1_b3"])
def test_compute_and_verify_surface_matches_the_two_calls(name, request):
    model = request.getfixturevalue(name)
    surface, verification = simplex.compute_and_verify_surface(model, samples=200, seed=3)
    reference = compute_carrying_simplex(model)
    assert np.array_equal(surface.radii, reference.radii)
    assert surface.metadata() == reference.metadata()
    expected = simplex.verify_surface(reference, model, samples=200, seed=3)
    assert verification.to_dict() == expected.to_dict()


# ---------------------------------------------------------------------------
# reductions over species: the column chain against numpy's last-axis reduction
# ---------------------------------------------------------------------------


def reference_unordered_bruteforce(X):
    """The worst margin and its pair, each chunk's margins by ``min(axis=2)``
    of the (chunk, N, n) differences."""
    N = X.shape[0]
    chunk = max(1, int(2_000_000 // max(1, N)))
    worst, points = -np.inf, None
    for start in range(0, N, chunk):
        blk = X[start : start + chunk]
        margins = (blk[:, None, :] - X[None, :, :]).min(axis=2)
        rows = np.arange(start, start + blk.shape[0])
        margins[rows - start, rows] = -np.inf
        i_loc, j = np.unravel_index(int(np.argmax(margins)), margins.shape)
        if margins[i_loc, j] > worst:
            worst = float(margins[i_loc, j])
            points = (blk[i_loc], X[j])
    return worst, points


def _unordered_cloud(kind, n, N, rng):
    if kind == "random":
        return rng.random((N, n))
    if kind == "duplicates":  # a repeated row is ordered against itself at margin 0
        X = rng.random((N, n))
        X[rng.integers(0, N, N // 10)] = X[rng.integers(0, N, N // 10)]
        return X
    if kind == "ties":  # every pair (y + 2, y) has the worst margin, 2, exactly
        k = rng.integers(0, 2**20, (N - N // 2, n))
        k[:, -1] = n * 2**20 - k[:, :-1].sum(axis=1)  # one sum: the rows y are unordered
        y = k / 2**20
        X = np.empty((N, n))
        X[0::2], X[1::2] = y, (y + 2.0)[: N // 2]
        return X
    # an unordered cloud on the plane sum x = 1, its worst margin < 0
    X = rng.random((N, n)) + 1e-3
    return X / X.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("N", [7, 325, 2500])  # 2,500 rows take three chunks
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ["random", "duplicates", "ties", "plane"])
def test_unordered_bruteforce_matches_the_3d_reduction(kind, n, N):
    X = _unordered_cloud(kind, n, N, np.random.default_rng(N * 10 + n))
    result = simplex._unordered_bruteforce(X)
    worst, points = reference_unordered_bruteforce(X)
    assert np.float64(result.worst_margin).tobytes() == np.float64(worst).tobytes()
    assert result.ok == (worst < 0.0)
    assert all(p.tobytes() == r.tobytes() for p, r in zip(result.points, points))


@pytest.mark.parametrize("n", range(1, 17))
def test_reduce_columns_matches_the_last_axis_reduction(n):
    rng = np.random.default_rng(n)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0, 0.5, 2.0])
    values = [special, np.append(special, -0.0)]  # without and with -0.0
    for with_negative_zero, pool in enumerate(values):
        x = rng.choice(pool, size=(4_000, n))
        if not with_negative_zero or n <= 8:  # from n = 9 numpy may pick the other zero
            assert _reduce_columns(np.minimum, x).tobytes() == x.min(axis=1).tobytes()
        b = x > 0.5
        assert np.array_equal(_reduce_columns(np.logical_and, b), b.all(axis=1))
        assert np.array_equal(_reduce_columns(np.logical_or, b), b.any(axis=1))


# ---------------------------------------------------------------------------
# the scalar sweep: the columns against the per-b classifier
# ---------------------------------------------------------------------------


def reference_detect_period(orbit):
    for p in range(2, min(simplex.SWEEP_MAX_PERIOD, orbit.size - 1) + 1):
        if abs(orbit[-1] - orbit[-1 - p]) < simplex.SWEEP_TOL:
            lag = orbit.size - p
            if np.max(np.abs(orbit[p:] - orbit[:-p])[-min(lag, p):]) < simplex.SWEEP_TOL:
                return p
    return 0


def reference_sweep_rows(a, b_min, b_max, steps=1_000, record=128, b_count=100):
    """The CSV rows of the sweep that classified one b at a time."""
    keep = min(record, steps)
    bs = np.linspace(b_min, b_max, b_count) if b_count > 1 else np.array([b_min])
    x = 0.1 * bs / a
    tail = np.empty((keep, bs.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = x * np.exp(bs - a * x)
            if k >= steps - keep:
                tail[k - (steps - keep)] = x
    rows = []
    for col, b in enumerate(bs):
        orbit = tail[:, col]
        q = b / a
        if not np.all(np.isfinite(orbit)):
            rows.append([float(b), "divergent"])
        elif b <= 2.0 or abs(orbit[-1] - q) < simplex.SWEEP_TOL:  # b <= 2: Cull 1981
            rows.append([float(b), "converges", q])
        else:
            period = reference_detect_period(orbit)
            if period:
                rows.append([float(b), "periodic", *orbit[-period:]])
            else:
                rows.append([float(b), "non-convergent", *orbit])
    return rows


@pytest.mark.parametrize(
    "a, b_min, b_max, kwargs, classes, longest",
    [
        (1.0, 0.5, 3.5, dict(b_count=2_000), 3, 32),
        (1.0, 1.0, 900.0, dict(b_count=3_000), 4, 2),  # 635 of them divergent
        (1.0, 1.5, 4.5, dict(steps=2_000, b_count=5_000), 3, 64),
        (0.3, 2.0, 3.9, dict(record=300, steps=3_000, b_count=2_000), 3, 60),  # b = 2 converges
        (1.0, 0.5, 3.5, dict(record=1, b_count=2_000), 2, 0),
        (1.0, 0.5, 3.5, dict(record=2, b_count=2_000), 2, 0),
        (1.0, 0.5, 3.5, dict(record=3, b_count=2_000), 3, 2),
        (1.0, 2.5, 2.5, dict(b_count=1), 1, 2),
    ],
    ids=["ricker", "divergent", "period64", "a0.3_keep300", "keep1", "keep2", "keep3", "one_b"],
)
def test_sweep_csv_matches_the_per_b_classifier(
    a, b_min, b_max, kwargs, classes, longest, tmp_path
):
    sweep = simplex.sweep_1d(a, b_min, b_max, **kwargs)
    assert np.unique(sweep.code).size == classes  # the classes the range reaches ...
    assert sweep.period.max() == longest  # ... and its longest period
    columns, reference = tmp_path / "columns.csv", tmp_path / "reference.csv"
    simplex.write_sweep_csv(sweep, columns)
    rows = reference_sweep_rows(a, b_min, b_max, **kwargs)
    simplex.write_csv(reference, ["b", "class", "attractor_points"], rows)
    assert columns.read_bytes() == reference.read_bytes()
