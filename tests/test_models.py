import numpy as np
import pytest

from carrysim.models import (
    Q_RESIDUAL_TOL,
    LeslieGowerModel,
    MayOsterModel,
    ModelEvaluationError,
    ModelParameterError,
    NeuralNetModel,
    ShiftedSoftplus,
    finite_difference_growth_jacobian,
)


def all_families(may2, lg2, neural2):
    return [may2, lg2, neural2]


class TestMayOster:
    def test_scalar_map_value(self):
        model = MayOsterModel([0.5], [[1.0]])
        assert model.step(np.array([0.25]))[0] == pytest.approx(
            0.25 * np.exp(0.25), rel=1e-15
        )

    def test_positive_fixed_point(self):
        model = MayOsterModel([0.5], [[1.0]])
        assert model.step(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_origin_is_fixed(self, may2):
        assert np.array_equal(may2.step(np.zeros(2)), np.zeros(2))

    def test_growth_at_origin(self, may2):
        assert np.allclose(may2.growth(np.zeros(2)), np.exp([0.5, 0.4]), rtol=1e-15)

    def test_axial_fixed_points(self, may2):
        assert np.allclose(may2.axial_fixed_points(), [0.5, 0.4], atol=0)

    def test_scalar_derivative_at_fixed_point(self):
        model = MayOsterModel([0.5], [[1.0]])
        assert model.step_jacobian(np.array([0.5]))[0, 0] == pytest.approx(
            0.5, abs=1e-14
        )

    def test_growth_jacobian_row(self, may2):
        jac = may2.growth_jacobian(np.zeros(2))
        assert np.allclose(jac[0], [-np.exp(0.5), -0.2 * np.exp(0.5)], rtol=1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelParameterError, match=r"B\[1\]"):
            MayOsterModel([-0.5], [[1.0]])
        with pytest.raises(ModelParameterError, match=r"A\[1\]\[2\]"):
            MayOsterModel([0.5, 0.4], [[1.0, -0.1], [0.3, 1.0]])
        with pytest.raises(ModelParameterError, match="self-interaction"):
            MayOsterModel([0.5, 0.4], [[0.0, 0.1], [0.3, 1.0]])


class TestLeslieGower:
    def test_growth_at_origin(self, lg2):
        assert np.allclose(lg2.growth(np.zeros(2)), [1.3, 1.2], atol=0)

    def test_axial_fixed_points(self, lg2):
        assert np.allclose(lg2.axial_fixed_points(), [0.3, 0.2], rtol=1e-15)

    def test_no_axial_fixed_point_below_one(self):
        model = LeslieGowerModel([0.9], [[1.0]])
        with pytest.raises(ModelParameterError, match="no axial fixed point for species 1"):
            model.axial_fixed_points()

    def test_subcritical_axis_collapses(self):
        model = LeslieGowerModel([0.9], [[1.0]])
        x = np.array([0.5])
        for _ in range(200):
            x = model.step(x)
        assert x[0] < 1e-6

    def test_growth_jacobian_formula(self, lg2):
        x = np.array([0.2, 0.1])
        g = lg2.growth(x)
        denom = 1.0 + x @ lg2.A.T
        expected = -lg2.A * (g / denom)[:, None]
        assert np.allclose(lg2.growth_jacobian(x), expected, rtol=1e-15)


class TestNeuralNet:
    def test_default_transfer_constraints(self):
        sigma = ShiftedSoftplus(1.0)
        assert sigma.value(0.0) == pytest.approx(0.0, abs=1e-15)
        s = np.linspace(-30, 30, 201)
        d = sigma.deriv(s)
        assert np.all(d > 0)
        assert np.all(d < 1.0 + 1e-12)
        assert d.max() > 0.999  # sup sigma' approached at large s
        # derivative consistent with finite differences of the value
        h = 1e-6
        fd = (sigma.value(s + h) - sigma.value(s - h)) / (2 * h)
        assert np.allclose(fd, d, atol=1e-9)

    def test_growth_at_origin(self, neural2):
        sigma = neural2.transfer
        expected = np.exp([sigma.value(0.5), sigma.value(0.4)])
        assert np.allclose(neural2.growth(np.zeros(2)), expected, rtol=1e-15)
        assert np.all(neural2.growth(np.zeros(2)) > 1.0)

    def test_default_transfer_closed_form(self, neural2):
        # gamma * (log(1 + e^s) - log 2) at gamma = 1
        assert neural2.transfer.value(0.5) == pytest.approx(
            np.log((1 + np.exp(0.5)) / 2.0), rel=1e-14
        )

    def test_axial_fixed_points(self, neural2):
        q = neural2.axial_fixed_points()
        assert np.allclose(q, [0.5, 0.4], atol=0)
        for i in range(2):
            e = np.zeros(2)
            e[i] = q[i]
            assert abs(neural2.step(e)[i] - q[i]) < 1e-10

    def test_rejects_bad_gamma(self):
        with pytest.raises(ModelParameterError, match="gamma"):
            NeuralNetModel([0.5], [[1.0]], gamma=0.0)


class TestSharedBehavior:
    @pytest.fixture(params=["may", "lg", "neural"])
    def model(self, request, may2, lg2, neural2):
        return {"may": may2, "lg": lg2, "neural": neural2}[request.param]

    def test_facet_invariance_exact(self, model):
        rng = np.random.default_rng(7)
        pts = rng.random((200, 2)) * 2.0
        kill = rng.random((200, 2)) < 0.4
        pts[kill] = 0.0
        images = model.step(pts)
        assert np.all(images[kill] == 0.0)

    def test_jacobian_matches_finite_differences(self, model):
        rng = np.random.default_rng(11)
        q = model.axial_fixed_points()
        pts = rng.random((100, 2)) * 2.0 * q
        analytic = model.growth_jacobian(pts)
        for k in range(0, 100, 7):
            fd = finite_difference_growth_jacobian(model, pts[k])
            scale = np.maximum(np.abs(analytic[k]), 1e-8)
            assert np.all(np.abs(analytic[k] - fd) / scale < 1e-5)

    def test_map_jacobian_matches_finite_differences(self, model):
        q = model.axial_fixed_points()
        x = 0.8 * q
        h = 1e-6 * (1.0 + np.abs(x))
        fd = np.empty((2, 2))
        for j in range(2):
            up, dn = x.copy(), x.copy()
            up[j] += h[j]
            dn[j] -= h[j]
            fd[:, j] = (model.step(up) - model.step(dn)) / (2 * h[j])
        analytic = model.step_jacobian(x)
        assert np.all(np.abs(analytic - fd) < 1e-5 * (1.0 + np.abs(analytic)))

    def test_map_jacobian_at_origin_is_diagonal(self, model):
        jac = model.step_jacobian(np.zeros(2))
        g0 = model.growth(np.zeros(2))
        assert np.allclose(jac, np.diag(g0), atol=1e-15)

    def test_axial_points_are_fixed(self, model):
        q = model.verified_axial_fixed_points()
        assert np.all(q > 0)
        residual = np.abs(model.axis_step(np.arange(2), q) - q)
        assert np.all(residual <= Q_RESIDUAL_TOL * np.maximum(1.0, q))

    def test_growth_decreases_along_the_order(self, model):
        rng = np.random.default_rng(13)
        q = model.axial_fixed_points()
        x = rng.random((500, 2)) * 2.0 * q
        y = x + rng.random((500, 2)) * 0.5 * q  # y >= x, y != x
        gx = model.growth(x)
        gy = model.growth(y)
        assert np.all(gy <= gx)

    def test_nonfinite_growth_reports_index(self, may2):
        # batch evaluation skips the cone check; an overflowing exponent in
        # the first coordinate must be reported as species 1
        with np.errstate(over="ignore"):
            with pytest.raises(ModelEvaluationError) as err:
                may2.step(np.array([[-1000.0, 0.0]]))
        assert err.value.index == 1


def test_batched_and_single_evaluations_agree(may2):
    rng = np.random.default_rng(3)
    pts = rng.random((20, 2))
    batch = may2.growth(pts)
    for k in range(20):
        assert np.allclose(batch[k], may2.growth(pts[k]), atol=0)
    jb = may2.growth_jacobian(pts)
    assert jb.shape == (20, 2, 2)
    assert np.allclose(jb[3], may2.growth_jacobian(pts[3]), atol=0)
