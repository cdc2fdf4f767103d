import numpy as np
import pytest

from carrysim import criteria
from carrysim.criteria import (
    RETROTONE_MIN_PAIRS,
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
    family_criterion,
    run_criteria,
    spectral_radius,
)
from carrysim.models import LeslieGowerModel, MayOsterModel, NeuralNetModel


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
        res = check_attractor_bound(may2, may2.axial_fixed_points())
        assert res.verdict == "pass_sampled"

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
