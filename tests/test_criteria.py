from pathlib import Path

import numpy as np
import pytest

from carrysim import criteria, periodic
from carrysim.cli import main
from carrysim.criteria import (
    RETROTONE_MIN_PAIRS,
    ConditionResult,
    check_attractor_bound,
    check_axial,
    check_c0,
    check_c5,
    check_gershgorin_grid,
    check_inverse_positivity,
    check_retrotone,
    check_spectral_grid,
    check_sublinearity,
    competition_matrix,
    default_grid,
    family_criterion,
    run_criteria,
    spectral_radius,
)
from carrysim.modelio import load_model_file
from carrysim.models import (
    CompetitionModel,
    LeslieGowerModel,
    MayOsterModel,
    ModelEvaluationError,
    NeuralNetModel,
)
from carrysim.periodic import IntegrationConfig, check_a_conditions

MODELS = Path(__file__).resolve().parents[1] / "models"


class Squaring(CompetitionModel):
    """G(x) = x / q, so T(x) = x^2 / q: each q_i e_i is fixed, and the orbit
    of 2q escapes."""

    n = 2
    q = np.array([0.5, 0.8])

    def growth(self, x):
        return np.asarray(x, dtype=float) / self.q

    def axial_fixed_points(self):
        return self.q


class Identity(Squaring):
    """G = 1: every point is fixed, so the orbit of 2q stays at 2q."""

    def growth(self, x):
        return np.ones(np.shape(x))


def eig_radius(M):
    """Independent oracle: dense eigensolve."""
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def two_by_two_radius(M):
    """Independent oracle: quadratic formula from trace and determinant."""
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        r = np.sqrt(disc)
        return max(abs((tr + r) / 2.0), abs((tr - r) / 2.0))
    return float(np.sqrt(det))


class TestCompetitionMatrix:
    def test_zero_at_origin(self, may2):
        assert np.array_equal(competition_matrix(may2, np.zeros(2)), np.zeros((2, 2)))

    def test_may_closed_form(self, may2):
        M = competition_matrix(may2, np.array([0.5, 0.4]))
        assert np.allclose(M, [[0.5, 0.1], [0.12, 0.4]], rtol=1e-14)

    def test_may_matches_diag_times_A(self, may2):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.random(2)
            M = competition_matrix(may2, x)
            assert np.allclose(M, np.diag(x) @ may2.A, rtol=1e-12)

    def test_leslie_gower_below_may_form(self, lg2):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.random(2) * 0.5 + 0.01
            M = competition_matrix(lg2, x)
            assert np.all(M < np.diag(x) @ lg2.A + 1e-15)
            assert np.all(M > 0)

    def test_undefined_when_growth_nonpositive(self):
        class Weird(MayOsterModel):
            def growth(self, x):
                return np.zeros_like(np.atleast_1d(x))

        model = Weird([0.5], [[1.0]])
        with pytest.raises(ValueError, match="nonpositive growth factor"):
            competition_matrix(model, np.array([0.5]))

    def test_factorization_identity(self, may2, lg2, neural2):
        # T'(x) = diag(G(x)) (I - M(x)) at random interior points
        rng = np.random.default_rng(42)
        for model in (may2, lg2, neural2):
            q = model.axial_fixed_points()
            pts = rng.random((100, 2)) * 1.5 * q + 1e-6
            for x in pts[::9]:
                tp = model.step_jacobian(x)
                g = model.growth(x)
                M = competition_matrix(model, x)
                resid = np.abs(tp - np.diag(g) @ (np.eye(2) - M)).max()
                assert resid < 1e-10 * (1.0 + np.abs(tp).max())


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, 0.7])) == pytest.approx(0.7, abs=1e-12)

    def test_two_by_two_closed_form(self):
        M = np.array([[0.5, 0.1], [0.2, 0.4]])
        assert spectral_radius(M) == pytest.approx(0.6, abs=1e-12)
        assert two_by_two_radius(M) == pytest.approx(0.6, abs=1e-14)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_rejects_non_square_and_non_finite(self):
        for M in (np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2))):
            with pytest.raises(ValueError, match="square matrix"):
                spectral_radius(M)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                spectral_radius(np.array([[0.5, bad], [0.1, 0.2]]))

    def test_six_by_six_matches_eigensolve(self):
        rng = np.random.default_rng(21)
        M = rng.random((6, 6)) + 0.01
        assert spectral_radius(M) == pytest.approx(eig_radius(M), abs=1e-9)

    def test_gershgorin_soundness(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = rng.integers(2, 7)
            M = rng.random((n, n)) * rng.random() + 0.01
            rho = spectral_radius(M)
            assert rho <= M.sum(axis=1).max() + 1e-9
            assert rho <= M.sum(axis=0).max() + 1e-9
            assert rho == pytest.approx(eig_radius(M), abs=1e-8)

    def test_neumann_series(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            M = rng.random((3, 3)) + 0.05
            M *= 0.7 / spectral_radius(M)
            rho = spectral_radius(M)
            K = int(np.ceil(np.log(1e-10) / np.log(rho)))
            total = np.zeros_like(M)
            power = np.eye(3)
            for _ in range(K + 1):
                total += power
                power = power @ M
            resid = np.abs((np.eye(3) - M) @ total - np.eye(3)).max()
            assert resid < 1e-8


class TestGershgorinChecks:
    def test_row_sums_at_q(self, may2):
        M = competition_matrix(may2, np.array([0.5, 0.4]))
        assert np.allclose(M.sum(axis=1), [0.6, 0.52], rtol=1e-14)
        assert np.allclose(M.sum(axis=0), [0.62, 0.5], rtol=1e-14)

    def test_true_at_origin(self, may2):
        assert np.all(competition_matrix(may2, np.zeros(2)).sum(axis=1) < 1.0)

    def test_false_when_sums_exceed_one(self, may1_b3):
        assert competition_matrix(may1_b3, np.array([3.0])).sum(axis=1)[0] >= 1.0

    def test_row_check_implies_contraction(self):
        # whenever the row-sum test passes, the spectral radius is below 1
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            model = MayOsterModel(
                0.2 + rng.random(n), 0.5 * rng.random((n, n)) + 0.1 + np.eye(n)
            )
            x = rng.random(n) * 1.5 * model.axial_fixed_points()
            M = competition_matrix(model, x)
            if np.all(M.sum(axis=1) < 1.0):
                assert spectral_radius(M) < 1.0 + 1e-12


class TestSpectralGrid:
    def test_may_instance_passes(self, may2):
        res = check_spectral_grid(may2, grid_resolution=16)
        assert res.verdict == "pass_sampled"
        assert res.worst <= 0.6 + 1e-9
        assert np.allclose(res.witness, [0.5, 0.4], atol=1e-12)  # argmax at q
        # oracle: exhaustive evaluation of the same grid with a dense eigensolve
        q = may2.axial_fixed_points()
        grid_max = max(
            eig_radius(competition_matrix(may2, np.array([qi, qj])))
            for qi in q[0] * np.arange(1, 17) / 16
            for qj in q[1] * np.arange(1, 17) / 16
        )
        assert res.worst >= grid_max - 1e-10

    def test_scalar_supercritical_fails(self, may1_b3):
        res = check_spectral_grid(may1_b3, grid_resolution=16)
        assert res.verdict == "fail"
        assert res.worst == pytest.approx(3.0, abs=1e-12)
        assert res.witness[0] == pytest.approx(3.0, abs=1e-12)

    def test_leslie_gower_passes(self, lg2):
        res = check_spectral_grid(lg2, grid_resolution=16)
        assert res.verdict == "pass_sampled"
        assert res.worst < 0.45

    def test_default_grid_is_the_largest_m_within_the_budget(self):
        grids = [criteria.default_grid(n) for n in range(1, 21)]
        assert grids == [16] * 4 + [9, 6, 4, 4, 3, 3] + [2] * 6 + [1] * 4
        for n, m in enumerate(grids, start=1):
            assert m**n <= criteria.GRID_POINTS
            assert m == 16 or (m + 1) ** n > criteria.GRID_POINTS

    @pytest.mark.parametrize("n, refined", [(3, 9**3), (7, 3**7), (11, 0), (17, 0)])
    def test_eq4_refines_on_at_most_the_default_grid(self, n, refined):
        model = MayOsterModel([0.4] * n, 0.05 + 0.95 * np.eye(n))
        assert check_spectral_grid(model, grid_resolution=1).samples == 1 + refined

    @pytest.mark.parametrize("n", range(1, 13))
    def test_eq4_refinement_holds_the_grid_argmax(self, n, monkeypatch):
        """M(x) is stubbed as x itself and rho peaks at a grid point, so no
        eigensolve is taken; the refined points must include that point."""
        model = MayOsterModel([0.4] * n, 0.05 + 0.95 * np.eye(n))
        m = default_grid(n)
        grid = criteria._grid_points(model.verified_axial_fixed_points(), m)
        peak = grid[len(grid) // 2]
        evaluated = []
        monkeypatch.setattr(
            criteria, "competition_matrix", lambda model, x: evaluated.append(x) or x[:, None, :]
        )
        monkeypatch.setattr(criteria, "spectral_radius", lambda M: -np.abs(M[0] - peak).sum())
        result = check_spectral_grid(model, grid_resolution=m)
        assert np.array_equal(evaluated[0], grid) and np.array_equal(result.witness, peak)
        k = {1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 5, 7: 3, 8: 3, 9: 3, 10: 3}.get(n, 1)
        if k == 1:  # the one refined point would be the argmax itself
            assert len(evaluated) == 1 and result.samples == m**n
        else:
            refined = evaluated[1]
            assert len(evaluated) == 2 and len(refined) == k**n
            assert np.all(refined == peak, axis=1).any()
            assert result.samples == m**n + k**n

    def test_eq4_refinement_can_raise_the_worst(self):
        model = NeuralNetModel([2.8, 2.5], [[1.0, 1.0], [0.05, 1.0]], gamma=1.0)
        res = check_spectral_grid(model, grid_resolution=8)
        q = model.verified_axial_fixed_points()
        grid = criteria._grid_points(q, 8)
        rhos = [spectral_radius(M) for M in competition_matrix(model, grid)]
        assert max(rhos) == pytest.approx(1.26847, abs=1e-5)
        assert (res.verdict, res.samples) == ("fail", 64 + 81)
        assert res.worst == pytest.approx(1.39498, abs=1e-5)
        # the witness is a refined point off the grid, within a step of its argmax
        assert not np.all(grid == res.witness, axis=1).any()
        assert np.all(np.abs(res.witness - grid[int(np.argmax(rhos))]) <= q / 8)
        assert spectral_radius(competition_matrix(model, res.witness)) == pytest.approx(
            res.worst, rel=1e-12
        )

    def test_gershgorin_grid(self, may2):
        eq3a, eq3b = check_gershgorin_grid(may2, grid_resolution=16)
        assert eq3a.id == "Eq3a" and eq3b.id == "Eq3b"
        assert eq3b.worst == pytest.approx(0.6, rel=1e-12)
        assert eq3a.worst == pytest.approx(0.62, rel=1e-12)
        assert eq3a.ok and eq3b.ok


class TestConditionCheckers:
    def test_c0_families(self, may2, lg2, neural2):
        for model in (may2, lg2, neural2):
            res = check_c0(model)
            assert res.verdict == "pass"
            assert res.worst > 1.0

    def test_c0_fails_for_subcritical(self):
        res = check_c0(LeslieGowerModel([0.9, 1.2], [[1.0, 0.1], [0.1, 1.0]]))
        assert res.verdict == "fail"
        assert res.witness["i"] == 1

    def test_attractor_bound(self, may2):
        res = check_attractor_bound(may2)
        assert res.verdict == "pass_sampled"

    @pytest.mark.parametrize(
        "model, step, x, worst",
        [
            pytest.param(Squaring(), 2, [8.0, 12.8], 12.8, id="escapes"),
            pytest.param(Identity(), criteria.ATTRACTOR_STEPS, [1.0, 1.6], 2.0, id="never-enters"),
        ],
    )
    def test_attractor_bound_fails_with_a_witness_that_reproduces_it(self, model, step, x, worst):
        res = check_attractor_bound(model)
        assert (res.verdict, res.samples, res.worst) == ("fail", step, worst)
        assert res.witness["step"] == step and np.array_equal(res.witness["x"], x)
        orbit = 2.0 * model.verified_axial_fixed_points()
        for _ in range(res.witness["step"]):
            orbit = model.step(orbit)
        assert np.array_equal(orbit, res.witness["x"])

    def test_sublinearity_passes(self, may2):
        res = check_sublinearity(may2, samples=3000, seed=42)
        assert res.verdict == "pass_sampled"
        assert res.worst > 0

    def test_sublinearity_scalar_margin(self):
        # on the axis the comparison is 0.5 e^{b-a} vs 0.5 e^{b-a/2}
        model = MayOsterModel([0.5], [[1.0]])
        lhs = 0.5 * model.step(np.array([1.0]))
        rhs = model.step(np.array([0.5]))
        assert rhs[0] - lhs[0] == pytest.approx(
            0.5 * (np.exp(0.5 - 0.5) - np.exp(0.5 - 1.0)), rel=1e-12
        )
        assert rhs[0] > lhs[0]

    def test_retrotone_passes_for_contracting_scalar(self, may1):
        res = check_retrotone(may1, samples=4000, seed=42)
        assert res.verdict == "pass_sampled"

    def test_retrotone_fails_across_the_hump(self, may1_b3):
        res = check_retrotone(may1_b3, samples=4000, seed=42)
        assert res.verdict == "fail"
        x, y = res.witness["x"][0], res.witness["y"][0]
        assert x < 1.0 < y  # the violating pair straddles the critical point 1/a

    def test_retrotone_inconclusive_without_pairs(self, may2):
        # 50 sampled pairs cannot reach the 100 accepted pairs C3 needs
        res = check_retrotone(may2, samples=50, seed=1)
        assert res.verdict == "inconclusive"
        assert res.samples < RETROTONE_MIN_PAIRS
        assert res.note.endswith(f"(need {RETROTONE_MIN_PAIRS})")

    def test_axial_check(self, may2, may1_b3):
        assert check_axial(may2).verdict == "pass_sampled"
        res = check_axial(may1_b3)  # |T'(q)| = 2: axis fixed point repels
        assert res.verdict == "fail"

    def test_c5_passes_on_families(self, may2, lg2, neural2):
        for model in (may2, lg2, neural2):
            res = check_c5(model, samples=2000, seed=42)
            assert res.verdict == "pass_sampled"
            assert res.worst < 0

    def test_c5_fails_for_uncoupled(self):
        model = MayOsterModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        res = check_c5(model, samples=2000, seed=42)
        assert res.verdict == "fail"
        assert res.worst == pytest.approx(0.0, abs=0)

    def test_inverse_positivity(self, may2):
        res = check_inverse_positivity(
            may2, [np.array([0.5, 0.4]), np.array([0.5, 0.0]), np.array([0.25, 0.2])]
        )
        assert res.ok

    def test_inverse_positivity_scalar(self):
        model = MayOsterModel([0.5], [[1.0]])
        res = check_inverse_positivity(model, [np.array([0.5])])
        assert res.ok
        assert res.worst == pytest.approx(2.0, rel=1e-12)  # 1 / T'(q) with T'(q) = 0.5

    def test_inverse_positivity_detects_negative(self, may1_b3):
        res = check_inverse_positivity(may1_b3, [np.array([3.0])])
        assert res.verdict == "fail"  # T'(q) = 1 - b = -2 < 0


class TestFamilyCriteria:
    def test_may_exists(self, may2):
        res = family_criterion(may2)
        assert res.verdict == "pass"
        assert np.allclose(res.witness["row_values"], [0.6, 0.52], rtol=1e-12)
        assert np.allclose(res.witness["col_values"], [0.62, 0.5], rtol=1e-12)

    def test_may_not_exists(self, may1_b3):
        res = family_criterion(may1_b3)
        assert res.verdict == "fail"
        assert res.worst == pytest.approx(3.0, abs=1e-12)
        assert "no carrying simplex" in res.note

    def test_may_indeterminate(self):
        res = family_criterion(MayOsterModel([1.5], [[1.0]]))
        assert res.verdict == "inconclusive"

    def test_leslie_gower_bounds(self, lg2):
        res = family_criterion(lg2)
        assert res.verdict == "pass"
        assert np.allclose(res.witness["upper_bounds"], [1 + 1 / 1.5, 1 + 1 / 1.4])

    def test_leslie_gower_subcritical(self):
        res = family_criterion(LeslieGowerModel([0.9], [[1.0]]))
        assert res.verdict == "fail"

    def test_neural_gain_bound(self, neural2):
        res = family_criterion(neural2)
        assert res.verdict == "pass"
        assert res.witness["gain_bound"] == pytest.approx(1.0 / 0.6, abs=1e-12)

    def test_neural_gain_too_large(self):
        model = NeuralNetModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]], gamma=2.0)
        res = family_criterion(model)
        assert res.verdict == "fail"


def by_id(conditions):
    return {c.id: c for c in conditions}


class TestFullReport:
    def test_all_pass_for_good_instance(self, may2):
        conditions = run_criteria(may2, samples=2000, seed=42)
        assert all(c.ok for c in conditions)
        assert not any(c.verdict == "fail" for c in conditions)
        ids = [c.id for c in conditions]
        assert ids == [
            "C0", "C1", "C2", "C3", "C4", "C5", "Eq3a", "Eq3b", "Eq4", "InvPos", "Model",
        ]

    def test_fail_for_supercritical(self, may1_b3):
        conditions = by_id(run_criteria(may1_b3, samples=2000, seed=42))
        assert any(c.verdict == "fail" for c in conditions.values())
        assert conditions["Eq4"].verdict == "fail"
        assert conditions["Model"].verdict == "fail"

    def test_subcritical_leslie_gower_reports_missing_q(self):
        model = LeslieGowerModel([0.9, 1.2], [[1.0, 0.1], [0.1, 1.0]])
        conditions = by_id(run_criteria(model, samples=500, seed=42))
        assert conditions["C0"].verdict == "fail"
        assert conditions["Eq4"].verdict == "inconclusive"
        assert conditions["Eq4"].note == "requires axial fixed points"
        assert conditions["InvPos"].seed is None
        assert conditions["C4"].verdict == "fail"

    def test_report_serialization_roundtrip(self, may2):
        import json

        conditions = run_criteria(may2, samples=500, seed=7)
        back = json.loads(json.dumps([c.to_record() for c in conditions]))
        seeded = {c["id"]: c["seed"] for c in back if c["seed"] is not None}
        assert seeded == {"C2": 7, "C3": 7, "C5": 7, "InvPos": 7}
        eq4 = [c for c in back if c["id"] == "Eq4"][0]
        assert eq4["verdict"] == "pass_sampled"
        assert isinstance(eq4["worst"], float)
        assert isinstance(eq4["witness"], list)

    def test_report_is_deterministic(self, may2):
        r1 = [c.to_record() for c in run_criteria(may2, samples=1000, seed=42)]
        r2 = [c.to_record() for c in run_criteria(may2, samples=1000, seed=42)]
        assert r1 == r2

    def test_sampled_verdicts_never_claim_proof(self, may2):
        conditions = run_criteria(may2, samples=500, seed=42)
        sampled = {"C1", "C2", "C3", "C4", "C5", "Eq3a", "Eq3b", "Eq4", "InvPos"}
        for cond in conditions:
            if cond.id in sampled and cond.ok:
                assert cond.verdict == "pass_sampled"

    def test_failed_evaluation_is_inconclusive_with_the_invpos_seed(self, may2, monkeypatch):
        # a model evaluation error inside a checker makes its ids inconclusive;
        # the InvPos record keeps the seed its probe was drawn from
        def broken(*args):
            raise ValueError("competition matrix undefined (nonpositive growth factor)")

        monkeypatch.setattr(criteria, "competition_matrix", broken)
        monkeypatch.setattr(criteria, "check_inverse_positivity", broken)
        conditions = by_id(run_criteria(may2, samples=500, seed=7))
        for cond_id in ("Eq3a", "Eq3b", "Eq4", "InvPos"):
            assert conditions[cond_id].verdict == "inconclusive"
            assert conditions[cond_id].note.startswith("competition matrix undefined")
        assert conditions["InvPos"].seed == 7
        assert conditions["Eq4"].seed is None


BUNDLED = ["leslie2", "may1_b3", "may2", "neural2", "periodic_lv2"]
PROVED_BY = {"C4": "Beverton-Holt", "A1": "Fourier bound", "A2": "Fourier bound",
             "A3": "Fourier bound", "A4": "Fourier bound"}  # fmt: skip


def bundled_records(name):
    """The A1-A4 records of a periodic model, then every criterion, as ``check`` runs them."""
    loaded = load_model_file(MODELS / f"{name}.json")
    a_conditions = [] if loaded.system is None else check_a_conditions(loaded.system)
    model = loaded.map_model(IntegrationConfig(64))
    return a_conditions + run_criteria(model, grid_resolution=4, samples=300, seed=3)


@pytest.mark.parametrize("name", BUNDLED)
def test_every_proved_pass_names_its_proof(name):
    # C0 evaluates G(0) exactly and Model is a closed-form criterion; every
    # other bare pass is a theorem or a bound, named in its note
    proved = [
        r for r in bundled_records(name) if r.verdict == "pass" and r.id not in ("C0", "Model")
    ]
    for record in proved:
        assert PROVED_BY[record.id] in record.note, record.id
    if name == "periodic_lv2":
        assert sorted(r.id for r in proved) == sorted(PROVED_BY)


@pytest.mark.parametrize("name", ["leslie2", "may1_b3", "may2", "neural2"])
def test_closed_forms_prove_nothing_from_c1_to_invpos(name):
    sampled = {"C1", "C2", "C3", "C4", "C5", "Eq3a", "Eq3b", "Eq4", "InvPos"}
    assert not [r.id for r in bundled_records(name) if r.id in sampled and r.verdict == "pass"]


def holds_rows(x, rows) -> bool:
    """Whether the batch ``x`` holds ``rows`` as consecutive rows."""
    return any(np.array_equal(x[k : k + len(rows)], rows) for k in range(len(x) - len(rows) + 1))


def test_eq3_and_eq4_share_one_evaluation_of_the_grid(monkeypatch):
    # for the period map each evaluation of M on the grid is a tangent pass;
    # the grid's rows ride in the one tangent pass that holds C5's samples
    model = load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(64))
    seen = []
    joint = model.growth_and_jacobian
    monkeypatch.setattr(model, "growth_and_jacobian", lambda x: seen.append(x) or joint(x))
    conditions = by_id(run_criteria(model, grid_resolution=8, samples=200, seed=1))
    grid = criteria._grid_points(model.verified_axial_fixed_points(), 8)
    c5 = criteria._region_samples(model, 200, np.random.default_rng(1), include_origin=True)
    holding = [x for x in seen if holds_rows(x, grid)]
    assert len(holding) == 1 and holds_rows(holding[0], c5)
    assert conditions["Eq4"].samples == 64 + 81
    assert conditions["Eq3a"].samples == conditions["Eq3b"].samples == 64


def checkers_alone(model, grid_resolution, samples, seed):
    """The records of ``run_criteria``, from each public checker called alone
    and guarded as ``run_criteria`` guards it, with every model evaluation of
    its own."""
    q = model.verified_axial_fixed_points()
    rng = np.random.default_rng(seed)
    probe = np.vstack([rng.random((criteria.INVPOS_POINTS, model.n)) * q, q, np.diag(q)])

    def guarded(ids, checker):
        try:
            return list(checker())
        except (ModelEvaluationError, ValueError) as exc:
            return [ConditionResult(i, "inconclusive", note=str(exc)) for i in ids]

    records = [check_c0(model)]
    records += guarded(["C1"], lambda: [check_attractor_bound(model)])
    records += guarded(["C2"], lambda: [check_sublinearity(model, samples, seed)])
    records += guarded(["C3"], lambda: [check_retrotone(model, samples, seed)])
    records.append(check_axial(model))
    records += guarded(["C5"], lambda: [check_c5(model, samples, seed)])
    records += guarded(["Eq3a", "Eq3b"], lambda: check_gershgorin_grid(model, grid_resolution))
    records += guarded(["Eq4"], lambda: [check_spectral_grid(model, grid_resolution)])
    records += guarded(["InvPos"], lambda: [check_inverse_positivity(model, probe)])
    records[-1].seed = seed
    records.append(family_criterion(model))
    return [r.to_record() for r in records]


def fresh_model(name):
    return load_model_file(MODELS / f"{name}.json").map_model(IntegrationConfig(64))


@pytest.mark.blas_threads
@pytest.mark.parametrize("seed", [5, 2026])
@pytest.mark.parametrize("name", ["periodic_lv2", "may2", "leslie2", "neural2"])
def test_run_criteria_records_equal_the_checkers_called_alone(name, seed):
    model = fresh_model(name)
    grid = default_grid(model.n)
    records = [r.to_record() for r in run_criteria(model, seed=seed)]
    assert records == checkers_alone(fresh_model(name), grid, 10_000, seed)


@pytest.mark.parametrize("name", ["may2", "periodic_lv2"])
def test_run_criteria_leaves_nothing_held_on_the_model(name):
    """The shared tangent pass lives only inside ``run_criteria``: the model
    keeps its verified q and nothing else, and a checker called on it later
    evaluates its own points."""
    model = fresh_model(name)
    before = set(vars(model))
    run_criteria(model, grid_resolution=4, samples=300, seed=3)
    assert set(vars(model)) == before | {"_verified_q"}

    sizes = []
    joint = model.growth_and_jacobian
    model.growth_and_jacobian = lambda x: sizes.append(len(x)) or joint(x)
    q = model.verified_axial_fixed_points()
    rng = np.random.default_rng(3)
    probe = np.vstack([rng.random((criteria.INVPOS_POINTS, 2)) * q, q, np.diag(q)])
    check_c5(model, 300, 3)
    check_gershgorin_grid(model, 4)
    check_spectral_grid(model, 4)
    check_inverse_positivity(model, probe)
    assert sizes == [300, 16, 16, 81, 103]  # Eq4's second call is its refinement


def test_a_periodic_check_makes_ten_period_map_passes(tmp_path, monkeypatch):
    """At the benchmark's arguments: the axis Newton solve's two tangent
    passes, q's verification, C0, two C1 steps, C2, C3, the tangent pass at
    C5's turn and Eq4's refinement."""
    passes = []
    log_gain = periodic._log_gain

    def counted(table, x0, **kwargs):
        passes.append(kwargs.get("tangent", False))
        return log_gain(table, x0, **kwargs)

    monkeypatch.setattr(periodic, "_log_gain", counted)
    argv = ["check", "--model", str(MODELS / "periodic_lv2.json"), "--ode-steps", "64",
            "--grid", "8", "--samples", "2000", "--seed", "1",
            "--out", str(tmp_path / "report.json")]  # fmt: skip
    assert main(argv) == 2  # inconclusive: no closed-form criterion for the period map
    assert len(passes) == 10 and sum(passes) == 4


class FaultyMayOster(MayOsterModel):
    """May-Oster whose ``method``, ``step`` or ``growth_and_jacobian``, fails on
    any batch that holds the row ``bad``: it raises an error that names the
    batch's size, or with ``zero_growth`` the latter returns G = 0 there."""

    method = "growth_and_jacobian"
    bad = None
    zero_growth = False

    def hit(self, x, method):
        return method == self.method and np.all(np.atleast_2d(x) == self.bad, axis=-1)

    def step(self, x):
        if np.any(self.hit(x, "step")):
            raise ModelEvaluationError(f"T is not finite in a batch of {len(x)}")
        return super().step(x)

    def growth_and_jacobian(self, x):
        g, gp = super().growth_and_jacobian(x)
        hit = self.hit(x, "growth_and_jacobian")
        if not np.any(hit):
            return g, gp
        if not self.zero_growth:
            raise ModelEvaluationError(f"G' is not finite in a batch of {len(x)}")
        return np.where(hit[:, None], 0.0, g), gp


def second_set_row(checker):
    """The first row of the second point set that ``checker`` steps on may2
    at seed 7: lambda x for C2, y for C3."""
    model = MayOsterModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]])
    calls = []
    step = model.step
    model.step = lambda x: calls.append(x) or step(x)
    checker(model, 2000, 7)
    return calls[-1][len(calls[-1]) // 2]  # the last call: q's verification steps first


def faulty_may2(where):
    model = FaultyMayOster([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]])
    q = model.verified_axial_fixed_points()
    model.method = "step" if where in ("C2", "C3") else "growth_and_jacobian"
    model.zero_growth = where == "grid-zero-growth"
    model.bad = {
        "C2": lambda: second_set_row(check_sublinearity),
        "C3": lambda: second_set_row(check_retrotone),
        "C5": lambda: np.zeros(2),  # only C5's samples hold the origin
        "grid": lambda: q / 16.0,
        "grid-zero-growth": lambda: q / 16.0,
        "InvPos": lambda: np.random.default_rng(7).random(2) * q,  # the probe's first point
    }[where]()
    return model


@pytest.mark.parametrize(
    "where, faulted",
    [
        ("C2", {"C2"}),
        ("C3", {"C3"}),
        ("C5", {"C5"}),
        ("grid", {"Eq3a", "Eq3b", "Eq4"}),
        ("grid-zero-growth", {"Eq3a", "Eq3b", "Eq4"}),
        ("InvPos", {"InvPos"}),
    ],
)
def test_an_error_at_one_checkers_rows_stays_with_that_checker(where, faulted):
    """The error's message names the batch's size, so a checker that met it
    in a shared evaluation would not report what it reports alone."""
    records = [r.to_record() for r in run_criteria(faulty_may2(where), samples=2000, seed=7)]
    assert records == checkers_alone(faulty_may2(where), 16, 2000, 7)
    assert {r["id"] for r in records if r["verdict"] == "inconclusive"} == faulted


@pytest.mark.parametrize("where", ["C2", "C3"])
def test_an_error_in_c2_or_c3s_one_step_names_both_point_sets(where):
    """x and lambda x, or xs and ys, are stepped in one call, so the note is
    that call's error and the batch it names holds both sets' rows."""
    conditions = by_id(run_criteria(faulty_may2(where), samples=2000, seed=7))
    assert conditions[where].verdict == "inconclusive"
    assert conditions[where].note == "T is not finite in a batch of 4000"
