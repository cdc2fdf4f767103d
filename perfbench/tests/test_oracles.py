"""The reference computations on tiny inputs with known answers."""

import numpy as np
import pytest

import oracles


def logistic(b, a, b_cos=()):
    """One-species periodic model description u' = u (b(t) - a u)."""
    return {
        "type": "periodic_lv",
        "n": 1,
        "fourier": {"B": [{"const": b, "cos": list(b_cos)}], "A": [[a]]},
    }


def test_axial_q_constant_coefficients_is_b_over_a():
    assert oracles.periodic_axial_q(logistic(1.0, 2.0)) == pytest.approx(0.5, rel=1e-13)


def test_axial_q_is_a_fixed_point_of_the_reference_flow():
    description = logistic(1.0, 1.3, b_cos=(0.4,))
    q = oracles.periodic_axial_q(description)
    phi, _ = oracles.periodic_flow_and_derivative(description, q)
    assert phi == pytest.approx(q, rel=1e-11)


def test_flow_and_derivative_match_the_logistic_closed_form():
    b, a, x = 0.7, 1.5, np.array([0.2])
    e = np.exp(b)
    denom = 1.0 + a * x * (e - 1.0) / b
    phi, dphi = oracles.periodic_flow_and_derivative(logistic(b, a), x)
    assert phi == pytest.approx(x * e / denom, rel=1e-12)
    assert dphi[0, 0] == pytest.approx((e / denom**2)[0], rel=1e-11)


def test_uncoupled_period_map_has_diagonal_competition_matrix():
    description = {
        "type": "periodic_lv",
        "n": 2,
        "fourier": {"B": [1.0, 0.5], "A": [[2.0, 0.0], [0.0, 1.0]]},
    }
    M = oracles.periodic_competition_matrix(description, [0.3, 0.2])
    assert M[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert M[1, 0] == pytest.approx(0.0, abs=1e-14)
    # one species: M = 1 - x phi'(x) / phi(x) = 1 - 1 / denom
    b, a, x = 1.0, 2.0, 0.3
    denom = 1.0 + a * x * (np.exp(b) - 1.0) / b
    assert M[0, 0] == pytest.approx(1.0 - 1.0 / denom, rel=1e-11)


def test_may_oster_bounds_of_uncoupled_model_are_q():
    description = {"type": "may_oster", "n": 2, "B": [0.5, 0.4], "A": [[1.0, 0.0], [0.0, 2.0]]}
    assert oracles.may_oster_bounds(description) == pytest.approx(
        {"Eq3a": 0.5, "Eq3b": 0.5, "Eq4": 0.5}, abs=1e-15
    )


def test_may_oster_bounds_of_coupled_model():
    description = {"type": "may_oster", "n": 2, "B": [1.0, 1.0], "A": [[1.0, 0.5], [0.25, 1.0]]}
    # q = (1, 1), M(q) = A: column sums 1.25 and 1.5, row sums 1.5 and 1.25
    bounds = oracles.may_oster_bounds(description)
    assert bounds["Eq3a"] == pytest.approx(1.5)
    assert bounds["Eq3b"] == pytest.approx(1.5)
    assert bounds["Eq4"] == pytest.approx(1.0 + np.sqrt(0.5 * 0.25))


def test_leslie_gower_competition_matrix_and_q():
    description = {"type": "leslie_gower", "n": 2, "C": [2.0, 3.0], "A": [[1.0, 1.0], [0.0, 2.0]]}
    np.testing.assert_allclose(oracles.closed_form_axial_q(description), [1.0, 1.0])
    M = oracles.closed_form_competition_matrix(description, [1.0, 1.0])
    # x_i / (1 + (Ax)_i) = 1/3 and 1/3
    np.testing.assert_allclose(M, [[1 / 3, 1 / 3], [0.0, 2 / 3]])


def test_planar_radii():
    d = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]])
    np.testing.assert_allclose(oracles.planar_radii(1.6, [1.0, 2.0, 3.0], d), [0.6, 0.24, 0.6 / 2.25])


def test_worst_order_margin():
    margin, _ = oracles.worst_order_margin([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert margin == pytest.approx(-0.5)
    margin, pair = oracles.worst_order_margin([[0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    assert margin == pytest.approx(0.5)
    assert pair == (1, 2)
    # a point on a shared facet that reaches past a vertex is ordered (margin 0)
    margin, pair = oracles.worst_order_margin([[0.0, 0.0, 0.45], [0.1, 0.0, 0.45001]])
    assert margin == 0.0
    assert pair == (1, 0)
