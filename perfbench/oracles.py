"""Reference computations for the benchmark, made with numpy and scipy only.

Nothing here imports carrysim, and scipy is imported only when a periodic
reference is computed, after the timed rounds.  Model descriptions are read as the plain
JSON dictionaries the CLI is given, so every value below is computed apart
from the code under test:

* the axial fixed points q of a periodic Lotka-Volterra system, from the
  closed form of the periodic logistic equation (quadrature);
* the competition matrix M(x) = I - diag(x / Phi(x)) DPhi(x) of its period
  map, from a ``solve_ivp`` integration of the flow and its variational
  equation;
* the competition matrices of the closed-form May-Oster and Leslie-Gower
  maps, and their axial fixed points;
* the pairwise unordered property of a set of surface points.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# periodic Lotka-Volterra systems given as Fourier sums
# ---------------------------------------------------------------------------


def _series(entry) -> tuple[float, np.ndarray, np.ndarray]:
    if isinstance(entry, (int, float)):
        return float(entry), np.zeros(0), np.zeros(0)
    return (
        float(entry["const"]),
        np.asarray(entry.get("cos", []), dtype=float),
        np.asarray(entry.get("sin", []), dtype=float),
    )


def _series_value(entry, t: float) -> float:
    const, cos, sin = _series(entry)
    k_c = 2.0 * np.pi * np.arange(1, cos.size + 1) * t
    k_s = 2.0 * np.pi * np.arange(1, sin.size + 1) * t
    return const + float(cos @ np.cos(k_c)) + float(sin @ np.sin(k_s))


def _series_integral(entry, s: float) -> float:
    """Integral of the series from 0 to s, in closed form."""
    const, cos, sin = _series(entry)
    w_c = 2.0 * np.pi * np.arange(1, cos.size + 1)
    w_s = 2.0 * np.pi * np.arange(1, sin.size + 1)
    return (
        const * s
        + float(cos @ (np.sin(w_c * s) / w_c))
        + float(sin @ ((1.0 - np.cos(w_s * s)) / w_s))
    )


def periodic_coefficients(description: dict, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(B(t), A(t)) of a ``periodic_lv`` model description."""
    block = description["fourier"]
    b = np.array([_series_value(e, t) for e in block["B"]])
    a = np.array([[_series_value(e, t) for e in row] for row in block["A"]])
    return b, a


def periodic_axial_q(description: dict) -> np.ndarray:
    """Positive periodic solution of each single-species equation at t = 0.

    On axis i the system is the periodic logistic equation
    u' = u (B_i(t) - A_ii(t) u).  With w = 1/u it becomes linear, and the
    period-1 fixed point of the time-one map is

        q_i = (e^{int_0^1 B_i} - 1) / int_0^1 A_ii(s) e^{int_0^s B_i} ds.
    """
    from scipy.integrate import quad

    block = description["fourier"]
    n = len(block["B"])
    q = np.empty(n)
    for i in range(n):
        b_entry = block["B"][i]
        a_entry = block["A"][i][i]
        denom, _ = quad(
            lambda s: _series_value(a_entry, s) * np.exp(_series_integral(b_entry, s)),
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=200,
        )
        q[i] = np.expm1(_series_integral(b_entry, 1.0)) / denom
    return q


def periodic_flow_and_derivative(
    description: dict, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Phi(1, x) and its derivative DPhi, by an adaptive high-order integrator.

    The state is u together with V = du/dx0, integrated from V(0) = I along
    u' = u (B - A u), V' = [diag(B - A u) - diag(u) A] V.
    """
    from scipy.integrate import solve_ivp

    x = np.asarray(x, dtype=float)
    n = x.size

    def rhs(t, y):
        u = y[:n]
        V = y[n:].reshape(n, n)
        b, a = periodic_coefficients(description, t)
        rate = b - a @ u
        jac = np.diag(rate) - u[:, None] * a
        return np.concatenate([u * rate, (jac @ V).ravel()])

    y0 = np.concatenate([x, np.eye(n).ravel()])
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y1 = sol.y[:, -1]
    return y1[:n], y1[n:].reshape(n, n)


def periodic_competition_matrix(description: dict, x) -> np.ndarray:
    """M(x) = I - diag(x / Phi(x)) DPhi(x) for the period map, x > 0."""
    x = np.asarray(x, dtype=float)
    phi, dphi = periodic_flow_and_derivative(description, x)
    return np.eye(x.size) - (x / phi)[:, None] * dphi


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


def closed_form_axial_q(description: dict) -> np.ndarray:
    diag = np.diag(np.asarray(description["A"], dtype=float))
    if description["type"] == "may_oster":
        return np.asarray(description["B"], dtype=float) / diag
    if description["type"] == "leslie_gower":
        return (np.asarray(description["C"], dtype=float) - 1.0) / diag
    raise ValueError(f"no closed-form q for {description['type']!r}")


def closed_form_competition_matrix(description: dict, x) -> np.ndarray:
    """M(x) = -(x_i / G_i) dG_i/dx_j for May-Oster and Leslie-Gower maps.

    May-Oster G_i = exp(B_i - (Ax)_i) gives M = diag(x) A; Leslie-Gower
    G_i = C_i / (1 + (Ax)_i) gives M = diag(x / (1 + Ax)) A.
    """
    A = np.asarray(description["A"], dtype=float)
    x = np.asarray(x, dtype=float)
    if description["type"] == "may_oster":
        return x[:, None] * A
    if description["type"] == "leslie_gower":
        return (x / (1.0 + A @ x))[:, None] * A
    raise ValueError(f"no closed-form M for {description['type']!r}")


def may_oster_bounds(description: dict) -> dict:
    """Worst Eq3a, Eq3b and Eq4 values over the box (0, q] of a May-Oster map.

    M(x) = diag(x) A is entrywise nondecreasing in x, so column sums, row
    sums and (Perron-Frobenius) the spectral radius all peak at x = q.
    """
    q = closed_form_axial_q(description)
    M = closed_form_competition_matrix(description, q)
    return {
        "Eq3a": float(M.sum(axis=0).max()),
        "Eq3b": float(M.sum(axis=1).max()),
        "Eq4": spectral_radius(M),
    }


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def planar_radii(c: float, a, directions) -> np.ndarray:
    """Radii of the plane a.x = c - 1 along unit-simplex directions d."""
    return (c - 1.0) / (np.asarray(directions, dtype=float) @ np.asarray(a, dtype=float))


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def worst_order_margin(points) -> tuple[float, tuple[int, int]]:
    """Largest min_k (x_k - y_k) over ordered pairs x != y of the points.

    The set is unordered (no point lies above another in every coordinate)
    exactly when this margin is negative.
    """
    X = np.asarray(points, dtype=float)
    margins = (X[:, None, :] - X[None, :, :]).min(axis=2)
    np.fill_diagonal(margins, -np.inf)
    flat = int(np.argmax(margins))
    i, j = np.unravel_index(flat, margins.shape)
    return float(margins[i, j]), (int(i), int(j))
