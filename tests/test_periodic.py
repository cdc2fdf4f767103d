import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from carrysim.criteria import AXIAL_TOL, check_axial, run_criteria
from carrysim.modelio import load_model_file
from carrysim.models import MayOsterModel, ModelParameterError
from carrysim.periodic import (
    FourierSeries,
    IntegrationConfig,
    PeriodicLVSystem,
    PoincareMapModel,
    _gauss_legendre,
    _sampled_a_conditions,
    check_a_conditions,
    integrate,
    wang_jiang_check,
)

from conftest import random_competitive_system, richardson_growth_jacobian

MODELS = Path(__file__).resolve().parents[1] / "models"


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
        b0, a0 = vlper2.coefficients_at(np.arange(1024) / 1024)
        assert np.all(b0 > 0) and np.all(a0 > 0)

    def test_grid_matches_pointwise(self, vlper2):
        t = np.arange(64).reshape(8, 8) / 64
        b, a = vlper2.coefficients_at(t)
        assert b.shape == (8, 8, 2) and a.shape == (8, 8, 2, 2)
        for k in np.ndindex(t.shape):
            bk, ak = vlper2.coefficients_at(float(t[k]))
            assert np.array_equal(b[k], bk)
            assert np.array_equal(a[k], ak)


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

    def test_max_steps_enforced(self):
        assert IntegrationConfig(65_536).steps_per_period == 65_536
        with pytest.raises(ValueError, match="<= 65536"):
            IntegrationConfig(65_537)


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

    def test_coefficient_table_is_built_once_per_model(self, vlper2, monkeypatch):
        times = []
        evaluate = PeriodicLVSystem.coefficients_at
        monkeypatch.setattr(
            PeriodicLVSystem,
            "coefficients_at",
            lambda self, t: times.extend(np.ravel(t)) or evaluate(self, t),
        )
        pm = PoincareMapModel(vlper2, IntegrationConfig(64))
        pm.growth(np.array([0.2, 0.3]))
        pm.growth(np.full((5, 2), 0.1))
        pm.verified_axial_fixed_points()
        # one table: the stage times t, t + h/2 and t + h of each of 64 steps;
        # and the quadrature nodes of q_exact, the start of the axis Newton solve
        t = np.arange(64) / 64
        stages = np.concatenate([t, t + 0.5 / 64, t + 1 / 64, _gauss_legendre()[0]])
        assert np.array_equal(np.sort(times), np.sort(stages))

    def test_integration_memory_per_step_stays_small(self, vlper2):
        # the coefficient table takes 144 bytes a step for n = 2; the bound is
        # 1.1x the 193 bytes a step that per-stage evaluation peaked at over
        # 200 periods of 256 steps (the table peaks at 201 there)
        tracemalloc.start()
        try:
            integrate(vlper2, [0.2, 0.3], (0.0, 20.0), IntegrationConfig(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 193 * 20 * 64

    def test_growth_jacobian_of_the_logistic_matches_the_time_one_map(self):
        # u' = u (b - a u) maps x to x e^b / (1 + c x), c = a (e^b - 1) / b, so
        # G'(x) = -c e^b / (1 + c x)^2; RK4's error falls 16x per halved step
        b, a = 1.0, 1.0
        x = np.linspace(0.0, 3.0, 13)[:, None]
        c = a * np.expm1(b) / b
        exact = -c * np.exp(b) / (1.0 + c * x[:, 0]) ** 2
        errors = []
        for steps in (64, 128):
            pm = PoincareMapModel(PeriodicLVSystem([b], [[a]]), IntegrationConfig(steps))
            errors.append(np.abs(pm.growth_jacobian(x)[:, 0, 0] - exact).max())
        assert errors[0] < 1e-9
        assert errors[0] > 12.0 * errors[1]

    def test_growth_jacobian_matches_richardson_differences(self):
        pm = load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(64))
        q = pm.verified_axial_fixed_points()
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.random((20, 2)) * 1.5 * q, np.zeros(2), np.diag(q)])
        jac = pm.growth_jacobian(pts)
        assert np.allclose(jac, richardson_growth_jacobian(pm, pts), rtol=0.0, atol=1e-10)
        g, gp = pm.growth_and_jacobian(pts)
        assert np.array_equal(g, pm.growth(pts)) and np.array_equal(gp, jac)

    def test_axial_failure_when_growth_cannot_balance(self):
        # negative mean gain drives the axis to extinction: no fixed point
        system = PeriodicLVSystem([FourierSeries(-0.5, cos=(0.1,))], [[1.0]])
        pm = PoincareMapModel(system, IntegrationConfig(64))
        with pytest.raises(ModelParameterError, match="no axial fixed point"):
            pm.axial_fixed_points()


def periodic_lv2_with(a22: FourierSeries) -> PeriodicLVSystem:
    """The bundled periodic_lv2 system with A_22 replaced."""
    return PeriodicLVSystem(
        [FourierSeries(1.0, cos=(0.2,)), FourierSeries(0.8, sin=(0.1,))],
        [[FourierSeries(1.0), FourierSeries(0.3)], [FourierSeries(0.2), a22]],
    )


class TestExactAxisMap:
    def test_rk4_q_approaches_it_at_the_fourth_order_rate(self):
        gaps = []
        for steps in (64, 256, 1024):
            pm = load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(steps))
            gaps.append(np.abs(pm.axial_fixed_points() - pm.exact_axial_fixed_points()).max())
        assert gaps[0] <= 1e-8 and gaps[2] <= 1e-12
        assert 128.0 <= gaps[0] / gaps[1] <= 512.0  # 4^4 = 256 per quartered step

    @pytest.mark.parametrize(
        "system",
        [
            periodic_lv2_with(FourierSeries(1.1, cos=(0.05,))),
            PeriodicLVSystem(
                [FourierSeries(0.9, cos=(0.3, 0.1), sin=(0.2, -0.15)), FourierSeries(2.5)],
                [
                    [FourierSeries(1.2, cos=(-0.4,), sin=(0.0, 0.3)), FourierSeries(0.1)],
                    [FourierSeries(0.1), FourierSeries(0.7, sin=(0.2,))],
                ],
            ),
        ],
        ids=["periodic_lv2", "two_harmonics"],
    )
    def test_matches_quadrature(self, system):
        # q_i = (e^{int B_i} - 1) / int_0^1 A_ii(s) e^{int_0^s B_i} ds, by
        # adaptive quadrature, the inner integral too
        quad = pytest.importorskip("scipy.integrate").quad

        def coefficient(t, i):
            b, a = system.coefficients_at(t)
            return b[i], a[i, i]

        exact = PoincareMapModel(system, IntegrationConfig(64)).exact_axial_fixed_points()
        for i in range(system.n):
            int_b = lambda s: quad(lambda u: coefficient(u, i)[0], 0.0, s, epsabs=1e-14)[0]
            denom = quad(
                lambda s: coefficient(s, i)[1] * np.exp(int_b(s)), 0.0, 1.0, epsabs=1e-14
            )[0]
            assert exact[i] == pytest.approx(np.expm1(system.b_const[i]) / denom, rel=1e-13)

    def test_a_large_mean_gain_does_not_overflow(self):
        # C = e^720 is not a float; (C - 1) / a is formed with both divided by C
        system = PeriodicLVSystem([FourierSeries(720.0, cos=(1.0,))], [[1.0]])
        q_exact = PoincareMapModel(system, IntegrationConfig(64)).exact_axial_fixed_points()
        assert q_exact[0] == pytest.approx(721.0, rel=1e-5)

    def test_is_none_where_the_theorem_does_not_apply(self):
        mean_loss = PeriodicLVSystem([FourierSeries(-0.5, cos=(0.1,))], [[1.0]])
        no_gain = PeriodicLVSystem([FourierSeries(0.0, cos=(0.1,))], [[1.0]])
        dipping = periodic_lv2_with(FourierSeries(0.05, cos=(0.1,)))
        for system in (mean_loss, no_gain, dipping):
            model = PoincareMapModel(system, IntegrationConfig(64))
            assert model.exact_axial_fixed_points() is None
        assert MayOsterModel([0.5], [[1.0]]).exact_axial_fixed_points() is None

    @pytest.mark.parametrize("steps", [64, 256])
    def test_proves_c4_with_the_vertex_error_as_worst(self, steps):
        pm = load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(steps))
        q, q_exact = pm.verified_axial_fixed_points(), pm.exact_axial_fixed_points()
        c4 = check_axial(pm)
        assert (c4.verdict, c4.samples) == ("pass", 0)
        assert c4.worst == np.abs(q - q_exact).max() < 1e-8
        assert c4.witness["q"] is q
        assert "Beverton-Holt" in c4.note and f"{c4.worst:.3g}" in c4.note

    @pytest.mark.parametrize("b_const", [-0.5, 0.0])
    def test_c4_without_a_positive_mean_gain_still_fails(self, b_const):
        system = PeriodicLVSystem([FourierSeries(b_const, cos=(0.1,))], [[1.0]])
        c4 = check_axial(PoincareMapModel(system, IntegrationConfig(64)))
        assert (c4.verdict, c4.note) == ("fail", "no axial fixed point")
        assert c4.witness.startswith("no axial fixed point for species 1")

    def test_c4_is_sampled_where_the_self_competition_dips(self):
        system = periodic_lv2_with(FourierSeries(0.05, cos=(0.1,)))
        c4 = check_axial(PoincareMapModel(system, IntegrationConfig(64)))
        assert (c4.verdict, c4.samples, c4.note) == ("pass_sampled", 4000, "")

    def test_c4_is_sampled_when_the_vertex_error_reaches_the_tolerance(self, monkeypatch):
        pm = load_model_file(MODELS / "periodic_lv2.json").map_model(IntegrationConfig(64))
        q = pm.verified_axial_fixed_points()
        monkeypatch.setattr(pm, "exact_axial_fixed_points", lambda: None)
        sampled = check_axial(pm).to_record()
        assert sampled["verdict"] == "pass_sampled"
        offset = np.array([0.0, AXIAL_TOL])  # q_2 < 1: the tolerance is AXIAL_TOL itself
        monkeypatch.setattr(pm, "exact_axial_fixed_points", lambda: q + 1.5 * offset)
        coarse = check_axial(pm).to_record()
        # the same sampled verdict, whose note gives the vertex error
        assert coarse.pop("note") == (
            "vertex error max |q - q_exact| = 1.5e-08 is not below 1e-08 max(1, q_exact) "
            "on every axis: the RK4 step may be too coarse (raise --ode-steps)"
        )
        assert coarse == {key: v for key, v in sampled.items() if key != "note"}
        monkeypatch.setattr(pm, "exact_axial_fixed_points", lambda: q + 0.5 * offset)
        assert check_axial(pm).verdict == "pass"


class TestAConditions:
    def test_competitive_instance_passes(self, vlper2):
        records = check_a_conditions(vlper2)
        assert [r.id for r in records] == ["A1", "A2", "A3", "A4"]
        assert all((r.verdict, r.samples) == ("pass", 0) for r in records)
        assert all("Fourier bound" in r.note for r in records)
        # constant coefficients are their own bounds: A_21 = 0.2 and A_11 = 1
        assert (records[0].worst, records[1].worst) == (0.2, 1.0)
        # B_2 = 0.8 + 0.1 sin: the bound sits just below 0.7 after rounding
        assert 0.7 - 1e-15 < records[3].worst < 0.7

    def test_bounds_hold_at_every_time(self):
        rng = np.random.default_rng(11)
        t = np.arange(4096) / 4096
        for _ in range(20):
            system = random_competitive_system(rng, 3)
            (b_lower, b_upper), (a_lower, a_upper) = system.coefficient_bounds()
            b, a = system.coefficients_at(t)
            assert np.all(b_lower <= b.min(axis=0)) and np.all(b.max(axis=0) <= b_upper)
            assert np.all(a_lower <= a.min(axis=0)) and np.all(a.max(axis=0) <= a_upper)
            # one harmonic each: the bounds are attained, up to the time grid
            assert np.allclose(b_lower, b.min(axis=0), rtol=0.0, atol=1e-5)
            assert np.allclose(a_upper, a.max(axis=0), rtol=0.0, atol=1e-5)

    def test_a_zero_interaction_is_proved_nonnegative(self):
        system = PeriodicLVSystem(
            [FourierSeries(1.0, cos=(0.5,)), FourierSeries(1.0)], [[1.0, 0.0], [0.0, 1.0]]
        )
        a1 = check_a_conditions(system)[0]
        assert (a1.verdict, a1.worst) == ("pass", 0.0)

    def test_conditions_the_bound_cannot_prove_are_sampled(self):
        # A_22 = 0.3 + 0.2 cos + 0.2 cos 2: the bound is -0.1, the minimum 0.075
        system = periodic_lv2_with(FourierSeries(0.3, cos=(0.2, 0.2)))
        records = check_a_conditions(system)
        sampled = _sampled_a_conditions(system)
        assert [r.verdict for r in records] == ["pass_sampled"] * 3 + ["pass"]
        assert [r.to_record() for r in records[:3]] == [r.to_record() for r in sampled[:3]]
        assert records[0].worst == pytest.approx(0.075, abs=1e-6)

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
        assert a3.verdict == "pass"
        thresholds = np.array(a3.witness["thresholds"])
        assert thresholds.shape == (2,)
        # beyond the threshold the per-capita growth is negative at all times
        b, a = vlper2.coefficients_at(np.arange(256) / 256)
        for i in range(2):
            x = np.zeros(2)
            x[i] = thresholds[i] * 1.01
            rates = b[:, i] - a[:, i, :] @ x
            assert np.all(rates < 0)

    def test_a3_fail_names_the_sampled_self_competition_that_a2_names(self):
        # A_22 = 0.3 + 0.5 cos(2 pi t) bottoms out at -0.2 at t = 1/2
        system = PeriodicLVSystem(
            [FourierSeries(1.0), FourierSeries(1.0)],
            [
                [FourierSeries(1.0), FourierSeries(0.1)],
                [FourierSeries(0.2), FourierSeries(0.3, cos=(0.5,))],
            ],
        )
        _, a2, a3, _ = check_a_conditions(system)
        assert (a2.verdict, a3.verdict) == ("fail", "fail")
        assert a3.witness == a2.witness == {"t": 0.5, "i": 2}
        assert a3.worst == a2.worst == pytest.approx(-0.2, abs=1e-12)
        # the witness reproduces the fail: A_ii(t) is not positive there
        _, a = system.coefficients_at(a3.witness["t"])
        i = a3.witness["i"] - 1
        assert a[i, i] == a3.worst <= 0.0


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
