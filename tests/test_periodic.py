import numpy as np
import pytest

from carrysim.criteria import run_criteria
from carrysim.models import ModelParameterError
from carrysim.periodic import (
    FourierSeries,
    IntegrationConfig,
    PeriodicLVSystem,
    PoincareMapModel,
    check_a_conditions,
    integrate,
    wang_jiang_check,
)

from conftest import random_competitive_system


def logistic_exact(t, r, sigma, u0):
    return sigma / (1.0 + (sigma / u0 - 1.0) * np.exp(-r * sigma * t))


class TestFourier:
    def test_value(self):
        s = FourierSeries(1.0, cos=(0.5,), sin=(0.25,))
        system = PeriodicLVSystem([s], [[FourierSeries(2.0, sin=(0.0, 0.5))]])
        t = 0.3
        expected = 1.0 + 0.5 * np.cos(2 * np.pi * t) + 0.25 * np.sin(2 * np.pi * t)
        b, a = system.coefficients_at(t)
        assert b[0] == pytest.approx(expected, rel=1e-15)
        assert a[0, 0] == pytest.approx(2.0 + 0.5 * np.sin(4 * np.pi * t), rel=1e-15)

    def test_period_one(self, vlper2):
        for t in np.linspace(0.0, 1.0, 37):
            b, a = vlper2.coefficients_at(t)
            b1, a1 = vlper2.coefficients_at(t + 1.0)
            assert np.all(np.abs(b - b1) < 1e-12) and np.all(np.abs(a - a1) < 1e-12)
        _, b0, a0 = vlper2.coefficient_grid(1024)
        assert np.all(b0 > 0) and np.all(a0 > 0)

    def test_grid_matches_pointwise(self, vlper2):
        t, b, a = vlper2.coefficient_grid(64)
        for k in (0, 17, 40):
            bk, ak = vlper2.coefficients_at(float(t[k]))
            assert np.allclose(b[k], bk, atol=1e-14)
            assert np.allclose(a[k], ak, atol=1e-14)


class TestIntegration:
    def test_logistic_closed_form(self):
        system = PeriodicLVSystem([1.0], [[1.0]])
        traj = integrate(system, [0.5], (0.0, 1.0), IntegrationConfig(256))
        exact = logistic_exact(1.0, 1.0, 1.0, 0.5)
        assert exact == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)
        assert abs(traj.states[-1, 0] - exact) < 1e-8

    def test_constant_solution_at_capacity(self):
        # u' = u(r sigma - r u) started at sigma stays put
        system = PeriodicLVSystem([2.0 * 1.3], [[2.0]])
        traj = integrate(system, [1.3], (0.0, 3.0), IntegrationConfig(128))
        assert np.all(np.abs(traj.states - 1.3) < 1e-12)

    def test_origin_stays_zero(self, vlper2):
        traj = integrate(vlper2, [0.0, 0.0], (0.0, 2.0))
        assert np.all(traj.states == 0.0)

    def test_fourth_order_convergence(self):
        system = PeriodicLVSystem([2.0], [[1.6]])
        exact = logistic_exact(1.0, 1.6, 1.25, 0.2)
        errs = []
        for steps in (64, 128):
            traj = integrate(system, [0.2], (0.0, 1.0), IntegrationConfig(steps))
            errs.append(abs(traj.states[-1, 0] - exact))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_min_steps_enforced(self):
        with pytest.raises(ValueError, match=">= 64"):
            IntegrationConfig(32)


class TestPoincareMap:
    def test_scalar_fixed_point_is_capacity(self):
        system = PeriodicLVSystem([1.0], [[1.0]])
        pm = PoincareMapModel(system, IntegrationConfig(256))
        assert pm.axial_fixed_points()[0] == pytest.approx(1.0, abs=1e-10)

    def test_autonomous_reduces_to_time_one_flow(self):
        system = PeriodicLVSystem([1.0, 0.8], [[1.0, 0.3], [0.2, 1.1]])
        pm = PoincareMapModel(system, IntegrationConfig(128))
        x0 = np.array([0.2, 0.3])
        traj = integrate(system, x0, (0.0, 1.0), IntegrationConfig(128))
        assert np.allclose(pm.step(x0), traj.states[-1], atol=1e-14)

    def test_facet_preservation_exact(self, vlper2):
        pm = PoincareMapModel(vlper2, IntegrationConfig(128))
        image = pm.step(np.array([0.3, 0.0]))
        assert image[1] == 0.0
        assert image[0] > 0

    def test_double_step_equals_two_period_integration(self, vlper2):
        pm = PoincareMapModel(vlper2, IntegrationConfig(256))
        x0 = np.array([0.15, 0.2])
        twice = pm.step(pm.step(x0))
        traj = integrate(vlper2, x0, (0.0, 2.0), IntegrationConfig(256))
        assert np.all(np.abs(twice - traj.states[-1]) < 1e-9)

    def test_growth_defined_on_facets(self, vlper2):
        g = PoincareMapModel(vlper2, IntegrationConfig(128)).growth(np.array([0.0, 0.0]))
        # with the species absent the gain integrates just B_i(t), whose
        # oscillating parts vanish over one period
        assert np.allclose(g, np.exp([1.0, 0.8]), rtol=1e-6)

    def test_criteria_report_runs_on_poincare_map(self, vlper2):
        pm = PoincareMapModel(vlper2, IntegrationConfig(64))
        conditions = {c.id: c for c in run_criteria(pm, grid_resolution=6, samples=300, seed=42)}
        assert conditions["C0"].verdict == "pass"
        assert not any(c.verdict == "fail" for c in conditions.values())
        assert conditions["Model"].verdict == "inconclusive"

    def test_axial_failure_when_growth_cannot_balance(self):
        # negative mean gain drives the axis to extinction: no fixed point
        system = PeriodicLVSystem([FourierSeries(-0.5, cos=(0.1,))], [[1.0]])
        pm = PoincareMapModel(system, IntegrationConfig(64))
        with pytest.raises(ModelParameterError, match="no axial fixed point"):
            pm.axial_fixed_points()


class TestAConditions:
    def test_competitive_instance_passes(self, vlper2):
        records = check_a_conditions(vlper2)
        assert [r.id for r in records] == ["A1", "A2", "A3", "A4"]
        assert all(r.verdict == "pass_sampled" for r in records)

    def test_negative_interaction_caught(self):
        system = PeriodicLVSystem(
            [FourierSeries(1.0), FourierSeries(1.0)],
            [
                [FourierSeries(1.0), FourierSeries(0.1, cos=(0.3,))],
                [FourierSeries(0.2), FourierSeries(1.0)],
            ],
        )
        records = check_a_conditions(system)
        a1 = records[0]
        assert a1.verdict == "fail"
        assert a1.witness["i"] == 1 and a1.witness["j"] == 2
        # 0.1 + 0.3 cos(2 pi t) bottoms out at t = 1/2
        assert abs(a1.witness["t"] - 0.5) < 0.01

    def test_gain_dipping_negative_fails_a4(self):
        system = PeriodicLVSystem([FourierSeries(0.5, cos=(0.6,))], [[1.0]])
        records = check_a_conditions(system)
        a4 = records[3]
        assert a4.verdict == "fail"
        assert abs(a4.witness["t"] - 0.5) < 0.01
        assert a4.worst == pytest.approx(-0.1, abs=1e-6)

    def test_a3_reports_thresholds(self, vlper2):
        a3 = check_a_conditions(vlper2)[2]
        assert a3.verdict == "pass_sampled"
        thresholds = np.array(a3.witness["thresholds"])
        assert thresholds.shape == (2,)
        # beyond the threshold the per-capita growth is negative at all times
        _, b, a = vlper2.coefficient_grid(256)
        for i in range(2):
            x = np.zeros(2)
            x[i] = thresholds[i] * 1.01
            rates = b[:, i] - a[:, i, :] @ x
            assert np.all(rates < 0)


class TestWangJiang:
    def test_ordered_pair_passes(self, vlper2):
        res = wang_jiang_check(vlper2, [0.1, 0.1], [0.2, 0.2], (0.0, 3.0))
        assert res.passed
        assert res.min_slope > 0
        assert res.window_steps > 0

    def test_identical_starts_rejected(self, vlper2):
        with pytest.raises(ValueError, match="strictly below"):
            wang_jiang_check(vlper2, [0.1, 0.1], [0.1, 0.1])

    def test_partial_order_rejected(self, vlper2):
        with pytest.raises(ValueError, match="strictly below"):
            wang_jiang_check(vlper2, [0.1, 0.3], [0.2, 0.2])

    def test_zero_start_rejected(self, vlper2):
        with pytest.raises(ValueError, match="nonzero"):
            wang_jiang_check(vlper2, [0.0, 0.0], [0.2, 0.2])

    def test_many_random_competitive_systems(self):
        rng = np.random.default_rng(42)
        worst = np.inf
        for _ in range(50):
            n = int(rng.integers(2, 4))
            system = random_competitive_system(rng, n)
            u0 = 0.05 + 0.15 * rng.random(n)
            v0 = u0 * (1.5 + 0.5 * rng.random(n))
            res = wang_jiang_check(system, u0, v0, (0.0, 3.0))
            assert res.passed
            worst = min(worst, res.min_slope)
        assert worst > -1e-12
