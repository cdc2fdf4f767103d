"""Periodic competitive Lotka-Volterra flows and their Poincare maps.

Systems have the per-capita form du_i/dt = u_i (B_i(t) - sum_j A_ij(t) u_j)
with period-1 coefficients given as finite Fourier sums.  Integration is
fixed-step RK4 on the log-gain variables l_i with u(t) = u(0) * exp(l(t)),
which keeps zero coordinates exactly zero and makes the per-capita growth
of the time-one map well defined even on the boundary facets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import as_state
from .criteria import ConditionResult
from .models import CompetitionModel, ModelEvaluationError, ModelParameterError


class IntegrationError(ModelEvaluationError):
    """Integration produced a non-finite state; carries the time stamp."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class FourierSeries:
    """Period-1 trigonometric polynomial c + sum_k (a_k cos + b_k sin)(2 pi k t)."""

    const: float
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos", tuple(float(v) for v in self.cos))
        object.__setattr__(self, "sin", tuple(float(v) for v in self.sin))
        object.__setattr__(self, "const", float(self.const))

    @property
    def order(self) -> int:
        return max(len(self.cos), len(self.sin))


@dataclass(frozen=True)
class IntegrationConfig:
    """Classical RK4 with a fixed number of steps per unit time (one period)."""

    steps_per_period: int = 256

    def __post_init__(self):
        if self.steps_per_period < 64:
            raise ValueError("steps_per_period must be >= 64")


class PeriodicLVSystem:
    """Periodic competitive Lotka-Volterra system with Fourier coefficients.

    Positivity of the coefficient functions is not enforced here: the
    A-condition checkers must be able to exhibit violations on purpose.
    """

    def __init__(self, B, A):
        self.B = [b if isinstance(b, FourierSeries) else FourierSeries(b) for b in B]
        self.n = len(self.B)
        if len(A) != self.n or any(len(row) != self.n for row in A):
            raise ModelParameterError(f"A must be {self.n}x{self.n}")
        self.A = [
            [a if isinstance(a, FourierSeries) else FourierSeries(a) for a in row]
            for row in A
        ]
        self._stack()

    def _stack(self):
        orders = [s.order for s in self.B] + [a.order for row in self.A for a in row]
        K = max(orders) if orders else 0
        self._K = K

        def pad(vals):
            return tuple(vals) + (0.0,) * (K - len(vals))

        self._b_const = np.array([s.const for s in self.B])
        self._b_cos = np.array([pad(s.cos) for s in self.B]).reshape(self.n, K)
        self._b_sin = np.array([pad(s.sin) for s in self.B]).reshape(self.n, K)
        self._a_const = np.array([[a.const for a in row] for row in self.A])
        self._a_cos = np.array(
            [[pad(a.cos) for a in row] for row in self.A]
        ).reshape(self.n, self.n, K)
        self._a_sin = np.array(
            [[pad(a.sin) for a in row] for row in self.A]
        ).reshape(self.n, self.n, K)

    def _trig(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if self._K == 0:
            return np.empty(0), np.empty(0)
        k = 2.0 * np.pi * np.arange(1, self._K + 1) * t
        return np.cos(k), np.sin(k)

    def coefficients_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(B(t), A(t)) as arrays of shape (n,) and (n, n)."""
        c, s = self._trig(t)
        b = self._b_const + self._b_cos @ c + self._b_sin @ s
        a = self._a_const + self._a_cos @ c + self._a_sin @ s
        return b, a

    def per_capita(self, t: float, u: np.ndarray) -> np.ndarray:
        """Growth rates B(t) - A(t) u, broadcasting over batches of u."""
        b, a = self.coefficients_at(t)
        return b - u @ a.T

    def coefficient_grid(self, samples: int = 1024) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, B, A) sampled on a uniform period grid; shapes (T,), (T,n), (T,n,n)."""
        t = np.arange(samples) / samples
        if self._K == 0:
            b = np.broadcast_to(self._b_const, (samples, self.n)).copy()
            a = np.broadcast_to(self._a_const, (samples, self.n, self.n)).copy()
            return t, b, a
        angles = 2.0 * np.pi * np.outer(t, np.arange(1, self._K + 1))
        c = np.cos(angles)
        s = np.sin(angles)
        b = self._b_const + c @ self._b_cos.T + s @ self._b_sin.T
        a = (
            self._a_const
            + np.einsum("tk,ijk->tij", c, self._a_cos)
            + np.einsum("tk,ijk->tij", s, self._a_sin)
        )
        return t, b, a


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


# an overflow shows up as a non-finite l, which is raised as IntegrationError
@np.errstate(over="ignore", invalid="ignore")
def _log_gain(
    system: PeriodicLVSystem,
    x0: np.ndarray,
    t_span: tuple[float, float],
    config: IntegrationConfig,
    record: bool = False,
):
    """RK4 on dl/dt = per_capita(t, x0 * exp(l)); returns l(t1) (and the path)."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    steps = max(1, int(round((t1 - t0) * config.steps_per_period)))
    h = (t1 - t0) / steps
    ell = np.zeros_like(x0)
    path = [ell.copy()] if record else None
    for k in range(steps):
        t = t0 + k * h
        k1 = system.per_capita(t, x0 * np.exp(ell))
        k2 = system.per_capita(t + 0.5 * h, x0 * np.exp(ell + 0.5 * h * k1))
        k3 = system.per_capita(t + 0.5 * h, x0 * np.exp(ell + 0.5 * h * k2))
        k4 = system.per_capita(t + h, x0 * np.exp(ell + h * k3))
        ell = ell + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(ell)):
            raise IntegrationError(
                f"integration lost finiteness at t = {t + h:.6f}", time=t + h
            )
        if record:
            path.append(ell.copy())
    if record:
        times = t0 + h * np.arange(steps + 1)
        return ell, times, np.array(path)
    return ell


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), n)


def integrate(
    system: PeriodicLVSystem,
    x0,
    t_span: tuple[float, float] = (0.0, 1.0),
    config: IntegrationConfig | None = None,
) -> Trajectory:
    """Integrate one trajectory, reporting states at every step boundary."""
    config = config or IntegrationConfig()
    x0 = as_state(x0, system.n)
    _, times, path = _log_gain(system, x0, t_span, config, record=True)
    states = x0 * np.exp(path)
    states[:, x0 == 0.0] = 0.0
    return Trajectory(times=times, states=states)


AXIAL_Q_TOL = 1e-13  # relative step at which the axis iteration for q stops
AXIAL_Q_MAX_ITER = 10_000


class PoincareMapModel(CompetitionModel):
    """The period-1 flow map of a periodic system, as a competition model.

    Growth factors are G(x) = exp(l(1)) with l the integrated per-capita
    rates, so T_i(x) = x_i G_i(x) holds exactly and G extends continuously
    to the facets.  The growth Jacobian falls back to finite differences.
    """

    def __init__(self, system: PeriodicLVSystem, config: IntegrationConfig | None = None):
        self.system = system
        self.config = config or IntegrationConfig()
        self.n = system.n

    def growth(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(_log_gain(self.system, x, (0.0, 1.0), self.config))

    def axial_fixed_points(self) -> np.ndarray:
        """Iterate the map on every axis, all n species as one batch.

        A row stops updating once it has converged or left (0, 1e12].  Each
        call iterates afresh; ``verified_axial_fixed_points`` keeps the result.
        """
        n = self.n
        r = np.ones(n)
        for i in range(n):
            b0 = self.system.B[i].const
            a0 = self.system.A[i][i].const
            if b0 > 0 and a0 > 0:
                r[i] = b0 / a0
        active = np.ones(n, dtype=bool)
        converged = np.zeros(n, dtype=bool)
        for _ in range(AXIAL_Q_MAX_ITER):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            r_new = self.axis_step(rows, r[rows])
            escaped = ~np.isfinite(r_new) | (r_new > 1e12)
            settled = ~escaped & (np.abs(r_new - r[rows]) < AXIAL_Q_TOL * np.maximum(1.0, r_new))
            r[rows[~escaped]] = r_new[~escaped]
            converged[rows[settled]] = True
            active[rows[escaped | settled]] = False
        failed = np.flatnonzero(~converged | (r < 1e-12))
        if failed.size:
            raise ModelParameterError(
                f"no axial fixed point for species {failed[0] + 1}: axis iteration "
                f"did not converge to a positive value"
            )
        return r


# ---------------------------------------------------------------------------
# structural condition checks
# ---------------------------------------------------------------------------


A_TIME_SAMPLES = 1024  # uniform times per period at which A1-A4 are checked


def check_a_conditions(system: PeriodicLVSystem) -> list[ConditionResult]:
    """Competitive-structure conditions of the periodic LV form on a time grid.

    A1 total competition (A_ij >= 0), A2 strong self-competition (diagonal
    sums over any support stay positive; singleton supports are the binding
    case, so the diagonal itself must be positive), A3 decrease of large
    populations with the explicit per-species threshold, A4 increase of
    small populations (B_i > 0).
    """
    t, b, a = system.coefficient_grid(A_TIME_SAMPLES)
    diag = np.diagonal(a, axis1=1, axis2=2)  # (T, n)

    def sign_check(cond_id: str, values: np.ndarray, strict: bool, note: str):
        """Every sampled value >= 0 (> 0 if ``strict``); a fail names the time
        and the 1-based indices of the first smallest value."""
        worst = float(values.min())
        if worst > 0.0 or (worst == 0.0 and not strict):
            return ConditionResult(cond_id, "pass_sampled", worst=worst, samples=A_TIME_SAMPLES)
        k, *idx = np.unravel_index(int(np.argmin(values)), values.shape)
        witness = {"t": float(t[k]), **{name: int(v) + 1 for name, v in zip("ij", idx)}}
        return ConditionResult(
            cond_id, "fail", worst=worst, witness=witness, samples=A_TIME_SAMPLES, note=note
        )

    min_diag = float(diag.min())
    if min_diag > 0.0:
        thresholds = np.maximum(b.max(axis=0), 0.0) / diag.min(axis=0)
        a3 = ConditionResult(
            "A3",
            "pass_sampled",
            worst=float(thresholds.max()),
            witness={"thresholds": thresholds.tolist()},
            samples=A_TIME_SAMPLES,
            note="G_i(t, x) < 0 once x_i exceeds the reported threshold",
        )
    else:
        a3 = ConditionResult(
            "A3",
            "fail",
            worst=min_diag,
            samples=A_TIME_SAMPLES,
            note="no finite threshold: self-competition is not positive",
        )
    return [
        sign_check("A1", a, False, "an interaction coefficient goes negative"),
        sign_check("A2", diag, True, "self-competition vanishes for a singleton support"),
        a3,
        sign_check("A4", b, True, "a per-capita gain dips to zero or below"),
    ]


# ---------------------------------------------------------------------------
# ratio monotonicity of ordered solutions
# ---------------------------------------------------------------------------


WANG_JIANG_SLOPE_TOL = 1e-12  # a ratio slope above -this counts as increasing


@dataclass
class WangJiangResult:
    passed: bool
    min_slope: float
    window_steps: int
    total_steps: int
    ordered_throughout: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_slope": self.min_slope,
            "window_steps": self.window_steps,
            "total_steps": self.total_steps,
            "ordered_throughout": self.ordered_throughout,
            "slope_tolerance": WANG_JIANG_SLOPE_TOL,
        }


def wang_jiang_check(
    system: PeriodicLVSystem,
    u0,
    v0,
    t_span: tuple[float, float] = (0.0, 3.0),
    config: IntegrationConfig | None = None,
) -> WangJiangResult:
    """Ratios u_i/v_i of strictly ordered solutions must keep increasing.

    Checks finite-difference slopes of every ratio on the maximal initial
    window where u(t) stays strictly below v(t) in each coordinate.
    """
    config = config or IntegrationConfig()
    u0 = as_state(u0, system.n)
    v0 = as_state(v0, system.n)
    if u0.sum() == 0.0:
        raise ValueError("u0 must be nonzero")
    if not np.all(u0 < v0):
        raise ValueError("wang-jiang check requires u0 strictly below v0 in every coordinate")

    traj_u = integrate(system, u0, t_span, config)
    traj_v = integrate(system, v0, t_span, config)
    U, V = traj_u.states, traj_v.states
    h = float(traj_u.times[1] - traj_u.times[0])

    ordered = np.all(U < V, axis=1)
    if not ordered[0]:
        raise ValueError("initial states are not strictly ordered")
    breaks = np.flatnonzero(~ordered)
    window_end = int(breaks[0]) if breaks.size else U.shape[0]
    ordered_throughout = breaks.size == 0

    ratios = U[:window_end] / V[:window_end]
    if ratios.shape[0] < 2:
        return WangJiangResult(
            passed=False,
            min_slope=np.nan,
            window_steps=0,
            total_steps=U.shape[0] - 1,
            ordered_throughout=ordered_throughout,
        )
    slopes = np.diff(ratios, axis=0) / h
    min_slope = float(slopes.min())
    return WangJiangResult(
        passed=min_slope > -WANG_JIANG_SLOPE_TOL,
        min_slope=min_slope,
        window_steps=ratios.shape[0] - 1,
        total_steps=U.shape[0] - 1,
        ordered_throughout=ordered_throughout,
    )
