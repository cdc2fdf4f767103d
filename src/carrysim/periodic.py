"""Periodic competitive Lotka-Volterra flows and their Poincare maps.

Systems have the per-capita form du_i/dt = u_i (B_i(t) - sum_j A_ij(t) u_j)
with period-1 coefficients given as finite Fourier sums.  Integration is
fixed-step RK4 on the log-gain variables l_i with u(t) = u(0) * exp(l(t)),
which keeps zero coordinates exactly zero and makes the per-capita growth
of the time-one map well defined even on the boundary facets.  B and A are
read from a table of the RK4 stage times, built once per ``PoincareMapModel``
and once per ``integrate`` call and filled a period at a time by the one
Fourier evaluator, ``PeriodicLVSystem.coefficients_at``.  A batch of N
states is integrated species-major, as (n, N) arrays, so that each RK4 stage
is one product A(t) @ u of the tabulated matrix with all N states, written
with the rest of the stage into buffers allocated once per call.  The same
loop can carry the tangent dl/dx0 of the discrete map, which gives the exact
growth Jacobian of the Poincare map and the Newton slope for its axial fixed
points; its stages reuse the exp(l) of the l stages.  Each elementwise stage
operation takes operands of one shape, which costs less than a broadcast on
narrow batches: B(t) is copied over the batch once per step, and the tangent
tiles x0 and the identity over it once per call; the ufuncs are bound to
locals and take their outputs positionally.  A pass peaks at a fixed multiple
of its batch, 9 n N floats, or 8 n^2 N + 12 n N with the tangent.  On an axis
the system is a logistic equation with a closed-form period map, whose fixed
point ``PoincareMapModel.exact_axial_fixed_points`` gives by quadrature.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .criteria import ConditionResult
from .models import CompetitionModel, ModelEvaluationError, ModelParameterError, as_state


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


FOURIER_BOUND = "c -/+ sum_k sqrt(a_k^2 + b_k^2)"  # of a series c + sum_k (a_k cos + b_k sin)
MAX_STEPS_PER_PERIOD = 65_536  # bounds a period's stage table at 3 * 65,536 * (n + 1) n floats
# bounds one integration's stage table at 3 * 2**20 * (n + 1) n floats
MAX_STEPS_PER_INTEGRATION = 1 << 20


@dataclass(frozen=True)
class IntegrationConfig:
    """Classical RK4 with a fixed number of steps per unit time (one period)."""

    steps_per_period: int = 256

    def __post_init__(self):
        if not 64 <= self.steps_per_period <= MAX_STEPS_PER_PERIOD:
            raise ValueError(
                f"steps_per_period must be >= 64 and <= {MAX_STEPS_PER_PERIOD}, "
                f"got {self.steps_per_period}"
            )

    def steps_over(self, t_span) -> int:
        """The RK4 steps over ``t_span``: at least 1, at most ``MAX_STEPS_PER_INTEGRATION``."""
        t0, t1 = float(t_span[0]), float(t_span[1])
        steps = (t1 - t0) * self.steps_per_period
        if not 0.0 < steps < MAX_STEPS_PER_INTEGRATION + 0.5:
            raise ValueError(
                f"t_span must be increasing and take at most {MAX_STEPS_PER_INTEGRATION} RK4 "
                f"steps, got {t1 - t0:g} periods of {self.steps_per_period}"
            )
        return max(1, int(round(steps)))


class PeriodicLVSystem:
    """Periodic competitive Lotka-Volterra system with Fourier coefficients.

    Positivity of the coefficient functions is not enforced here: the
    A-condition checkers must be able to exhibit violations on purpose.
    ``b_const`` (n,) and ``a_const`` (n, n) are the constant terms of B and A.
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

        self.b_const = np.array([s.const for s in self.B])
        self._b_cos = np.array([pad(s.cos) for s in self.B]).reshape(self.n, K)
        self._b_sin = np.array([pad(s.sin) for s in self.B]).reshape(self.n, K)
        self.a_const = np.array([[a.const for a in row] for row in self.A])
        self._a_cos = np.array(
            [[pad(a.cos) for a in row] for row in self.A]
        ).reshape(self.n, self.n, K)
        self._a_sin = np.array(
            [[pad(a.sin) for a in row] for row in self.A]
        ).reshape(self.n, self.n, K)

    def coefficient_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of B_i(t) and A_ij(t) over all t, shapes (2, n) and (2, n, n):
        lower then upper, c -/+ sum_k sqrt(a_k^2 + b_k^2) for each series.

        A series with harmonics has its amplitude sum widened by its rounding
        (hypot within an ulp, K terms summed) and c -/+ it moved one ulp out,
        so the bounds hold for the series as given; a constant is its own bound.
        """

        widen = 1.0 + 2.0 * (self._K + 2) * np.finfo(float).eps

        def bounds(const, cos, sin):
            amp = np.hypot(cos, sin).sum(axis=-1) * widen
            lower = np.where(amp > 0.0, np.nextafter(const - amp, -np.inf), const)
            upper = np.where(amp > 0.0, np.nextafter(const + amp, np.inf), const)
            return np.stack([lower, upper])

        return bounds(self.b_const, self._b_cos, self._b_sin), bounds(
            self.a_const, self._a_cos, self._a_sin
        )

    def coefficients_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(B(t), A(t)) at a time or an array of times, shapes t.shape + (n,)
        and t.shape + (n, n).  The Fourier sums are matvecs stacked over the
        times, so a time gets the same bits whatever else is in the call."""
        t = np.asarray(t, dtype=float)[..., None]
        angles = 2.0 * np.pi * np.arange(1, self._K + 1) * t
        c, s = np.cos(angles)[..., None], np.sin(angles)[..., None]
        b = self.b_const + (self._b_cos @ c)[..., 0] + (self._b_sin @ s)[..., 0]
        c, s = c[..., None, :, :], s[..., None, :, :]
        a = self.a_const + (self._a_cos @ c)[..., 0] + (self._a_sin @ s)[..., 0]
        return b, a


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _stage_table(system: PeriodicLVSystem, t_span, config: IntegrationConfig):
    """(t0, h, B, A) at the RK4 stage times t, t + h/2, t + h of every step,
    shapes (3, steps, n, 1) and (3, steps, n, n).  The times are the loop's
    own float sums, so entries are bit-identical to scalar ``coefficients_at``
    calls; the table is filled a period of steps at a time, which bounds the
    evaluator's temporaries.  B(t) is stored as a column and A(t) C-contiguous,
    the operands of the species-major stage ``B(t) - A(t) @ u``."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    steps = config.steps_over(t_span)
    h = (t1 - t0) / steps
    t = t0 + np.arange(steps) * h
    b = np.empty((3, steps, system.n))
    a = np.empty((3, steps, system.n, system.n))
    for lo in range(0, steps, config.steps_per_period):
        rows = slice(lo, lo + config.steps_per_period)
        for s, ts in enumerate((t[rows], t[rows] + 0.5 * h, t[rows] + h)):
            b[s, rows], a[s, rows] = system.coefficients_at(ts)
    return t0, h, b[..., None], a


# an overflow shows up as a non-finite l, which is raised as ModelEvaluationError
@np.errstate(over="ignore", invalid="ignore")
def _log_gain(table, x0: np.ndarray, record=False, check_each_step=False, tangent=False):
    """RK4 on dl/dt = B(t) - A(t) (x0 * exp(l)) over a ``_stage_table``; returns
    l(t1), or with ``record`` the step-boundary times and l at each of them.

    ``x0`` is one state (n,) or a batch (N, n); the loop carries x0 and l
    species-major, as (n, N) arrays, so that every stage is one (n, n) @ (n, N)
    product, and l comes back in the shape of ``x0``.  A step is a fixed
    sequence of numpy calls, each writing into buffers allocated once per
    call: a stage's argument l + c k, its exp, x0 times that, and the stage
    increment; k1 + 2 k2 + 2 k3 + k4 is summed in that order in one more
    buffer, with 2 k taken as k + k.  Every float is that of the plain
    expression ``l + h/6 (k1 + 2 k2 + 2 k3 + k4)``.

    Each elementwise call takes operands of one shape, which is cheaper than
    a broadcast on the narrow batches most calls carry: B(t) at a step's
    three stage times is copied over the N columns, into one (3, n, N)
    buffer, by one slice assignment per step.  The ufuncs are bound to locals and
    take their output positionally, the cheapest way to call them.

    With ``tangent`` it also carries D = dl/dx0 of the discrete map, column j
    with the stage tangent -A (u * D_j + e_j exp(l)), all n columns as one
    (n, n, N) stack through A(t), and returns (l, D) with D[..., i, j] =
    dl_i/dx0_j.  x0 and the identity are tiled to (n, n, N) once per call, so
    that only the product with exp(l_s) broadcasts.  The tangent stages read
    exp(l_s) from the l stages, which keep the four in buffers of their own
    only then; l goes through the same operations with or without the tangent.

    Memory is a fixed multiple of the batch: a ``growth`` call peaks at 9 n N
    floats, and a ``growth_and_jacobian`` call at 8 n^2 N + 12 n N, counting
    what each returns; without ``record`` none of it grows with the steps."""
    t0, h, b, a = table
    add, subtract, multiply, exp, matmul = np.add, np.subtract, np.multiply, np.exp, np.matmul
    # 0-d arrays: a ufunc takes them with less overhead than Python floats
    half, full, sixth = np.array(0.5 * h), np.array(h), np.array(h / 6.0)
    x0_cols = np.atleast_2d(x0).T.copy()
    n, N = x0_cols.shape
    ell = np.zeros_like(x0_cols)
    k_sum, k, w = np.empty((3, n, N))
    b_t = np.empty((3, n, N))
    b1, b2, b4 = b_t
    e1, e2, e3, e4 = np.empty((4, n, N)) if tangent else (w,) * 4
    if tangent:
        d_ell = np.zeros((n, n, N))
        x0_tile = np.broadcast_to(x0_cols, (n, n, N)).copy()
        eye = np.broadcast_to(np.eye(n)[:, :, None], (n, n, N)).copy()
        p1, p23, p, du = np.empty((4, n, n, N))
    path = np.zeros((b.shape[1] + 1,) + ell.shape) if record else None

    def tangent_stage(a_t, e_t, out, p_prev=None, c=None):
        """out = A(t) @ (exp(l_s) (x0 D_s + e_j)) for every column j, where
        D_s = D - c p_prev, or D itself without ``p_prev``."""
        if p_prev is None:
            multiply(x0_tile, d_ell, du)
        else:
            multiply(p_prev, c, du)
            subtract(d_ell, du, du)
            multiply(x0_tile, du, du)
        add(du, eye, du)
        multiply(du, e_t, du)
        matmul(a_t, du, out)

    # ndarray.dot is the cheapest call of the (n, n) @ (n, N) product, with
    # the bits of @; the tangent's stacked (n, n) @ (n, n, N) takes matmul
    for step, (b_s, a1, a2, a4) in enumerate(zip(b.swapaxes(0, 1), *a)):
        b_t[...] = b_s
        # k1, into the sum
        exp(ell, e1)
        multiply(x0_cols, e1, w)
        a1.dot(w, k_sum)
        subtract(b1, k_sum, k_sum)
        # k2
        multiply(k_sum, half, w)
        add(ell, w, w)
        exp(w, e2)
        multiply(x0_cols, e2, w)
        a2.dot(w, k)
        subtract(b2, k, k)
        # k3, once 2 k2 is in the sum
        multiply(k, half, w)
        add(ell, w, w)
        add(k, k, k)
        add(k_sum, k, k_sum)
        exp(w, e3)
        multiply(x0_cols, e3, w)
        a2.dot(w, k)
        subtract(b2, k, k)
        # k4, once 2 k3 is in the sum
        multiply(k, full, w)
        add(ell, w, w)
        add(k, k, k)
        add(k_sum, k, k_sum)
        exp(w, e4)
        multiply(x0_cols, e4, w)
        a4.dot(w, k)
        subtract(b4, k, k)
        add(k_sum, k, k_sum)
        if tangent:
            # p1 + p4 is summed in p1 and p2 + p3 in p23
            tangent_stage(a1, e1, p1)
            tangent_stage(a2, e2, p23, p1, half)
            tangent_stage(a2, e3, p, p23, half)
            add(p23, p, p23)
            tangent_stage(a4, e4, p, p, full)
            add(p1, p, p1)
            add(p23, p23, p23)
            add(p1, p23, p1)
            multiply(p1, sixth, p1)
            subtract(d_ell, p1, d_ell)
        multiply(k_sum, sixth, k_sum)
        add(ell, k_sum, ell)
        if check_each_step and not np.all(np.isfinite(ell)):
            t = t0 + step * h + h
            raise ModelEvaluationError(f"integration lost finiteness at t = {t:.6f}")
        if record:
            path[step + 1] = ell
    # l only ever has an increment added, and a sum with a non-finite term is
    # never finite, so a coordinate that lost finiteness in some step is still
    # non-finite here; the re-run checks every step and raises at the first
    if not (check_each_step or np.all(np.isfinite(ell))):
        _log_gain(table, x0, check_each_step=True)
    if record:
        rows = path.transpose(0, 2, 1).reshape((-1,) + x0.shape)
        return t0 + h * np.arange(len(path)), np.ascontiguousarray(rows)
    ell = np.ascontiguousarray(ell.T.reshape(x0.shape))
    if tangent:
        return ell, np.ascontiguousarray(d_ell.transpose(2, 1, 0).reshape(x0.shape + (n,)))
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
    times, path = _log_gain(_stage_table(system, t_span, config), x0, record=True)
    states = x0 * np.exp(path)
    states[:, x0 == 0.0] = 0.0
    return Trajectory(times=times, states=states)


GAUSS_POINTS = 64  # Gauss-Legendre nodes of the exact axis map's integral


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``GAUSS_POINTS``-point Gauss-Legendre rule on
    [0, 1].  The nodes on [-1, 1] are the roots of the Legendre polynomial
    P, by Newton's method from cos(pi (k - 1/4) / (P + 1/2)) with P and P'
    from the three-term recurrence, and the weights are 2 / ((1 - x^2) P'^2).
    Four steps reach the rounding floor at 64 points; six are taken.  The
    rule is made of ufunc calls, so no LAPACK routine is paged in; it is
    built once per process, read-only."""
    p = GAUSS_POINTS
    x = np.cos(np.pi * (np.arange(1, p + 1) - 0.25) / (p + 0.5))
    for _ in range(6):
        prev, legendre = np.ones_like(x), x
        for k in range(2, p + 1):
            prev, legendre = legendre, ((2 * k - 1) * x * legendre - (k - 1) * prev) / k
        slope = p * (x * legendre - prev) / (x * x - 1.0)
        x = x - legendre / slope
    t, w = 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * slope * slope)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


AXIAL_Q_TOL = 1e-13  # relative Newton step at which the axis solve for q stops
AXIAL_Q_MAX_ITER = 10_000


class PoincareMapModel(CompetitionModel):
    """The period-1 flow map of a periodic system, as a competition model.

    Growth factors are G(x) = exp(l(1)) with l the integrated per-capita
    rates, so T_i(x) = x_i G_i(x) holds exactly and G extends continuously
    to the facets.  The growth Jacobian G_i dl_i/dx_j is the exact derivative
    of the RK4 map, from the tangent the same loop carries next to l.  One
    coefficient table per model, filled here a period at a time by
    ``coefficients_at``, serves every evaluation; a call on N rows runs one
    species-major RK4 loop over (n, N) arrays and returns (N, n).
    """

    def __init__(self, system: PeriodicLVSystem, config: IntegrationConfig | None = None):
        self.system = system
        self.config = config or IntegrationConfig()
        self.n = system.n
        self._table = _stage_table(system, (0.0, 1.0), self.config)

    def growth(self, x) -> np.ndarray:
        return np.exp(_log_gain(self._table, np.asarray(x, dtype=float)))

    def growth_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        ell, d_ell = _log_gain(self._table, np.asarray(x, dtype=float), tangent=True)
        g = np.exp(ell)
        return g, g[..., :, None] * d_ell

    def exact_axial_fixed_points(self) -> np.ndarray | None:
        """q of the exact period map, where it attracts its whole axis; else None.

        On axis i the system is the logistic equation x' = x (B_i(t) - A_ii(t) x),
        linear in 1/x, so its period map is Beverton-Holt, x -> C x / (1 + a x),
        with C = exp(int_0^1 B_i) and a = int_0^1 A_ii(s) exp(int_0^s B_i) ds.
        The theorem applies when C > 1 (``b_const`` > 0) and the Fourier lower
        bound of every A_ii is > 0: then a > 0, 1/x stays positive, and
        q_i = (C - 1) / a attracts every x > 0.  int_0^s B_i is the series'
        antiderivative and the outer integral takes ``_gauss_legendre``, which
        cannot resolve the boundary layer of exp(int_0^s B_i) at s = 1 for a
        large ``b_const`` (hundreds); ``check_axial`` then finds q_exact far
        from the RK4 map's q and samples C4 instead.
        """
        system = self.system
        _, (a_lower, _) = system.coefficient_bounds()
        if not (np.all(system.b_const > 0.0) and np.all(np.diagonal(a_lower) > 0.0)):
            return None
        t, w = _gauss_legendre()
        freq = 2.0 * np.pi * np.arange(1, system._K + 1)
        angles = freq * t[:, None]
        int_b = (
            system.b_const * t[:, None]
            + (np.sin(angles) / freq) @ system._b_cos.T
            + ((1.0 - np.cos(angles)) / freq) @ system._b_sin.T
        )
        _, a = system.coefficients_at(t)
        # (C - 1) / a, both divided by C so that neither overflows
        scaled_a = w @ (np.diagonal(a, axis1=1, axis2=2) * np.exp(int_b - system.b_const))
        return -np.expm1(-system.b_const) / scaled_a

    @np.errstate(divide="ignore", invalid="ignore")
    def axial_fixed_points(self) -> np.ndarray:
        """Newton on l_i(1; r e_i) = 0, r > 0, all n axes as one batch of tangent passes.

        A row keeps the bracket lo < q < hi shown by the signs of l (l > 0
        below q); a step that leaves it, yet is not below ``AXIAL_Q_TOL``
        relative, becomes the bracket's midpoint, or 2 r while hi is unknown.
        A row stops on such a small step or once r leaves [1e-12, 1e12].  The
        solve starts from ``exact_axial_fixed_points``, whose q is within the
        RK4 vertex error of the root, where it gives one, else from b0 / a0.
        Each call solves afresh; ``verified_axial_fixed_points`` keeps the result.
        """
        n = self.n
        r = self.exact_axial_fixed_points()
        if r is None:
            b0, a0 = self.system.b_const, np.diagonal(self.system.a_const)
            r = np.where((b0 > 0) & (a0 > 0), b0 / a0, 1.0)
        lo, hi = np.zeros(n), np.full(n, np.inf)
        active, converged = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        for _ in range(AXIAL_Q_MAX_ITER):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            k = np.arange(rows.size)
            ell, d_ell = _log_gain(self._table, np.eye(n)[rows] * r[rows, None], tangent=True)
            ell, slope, x = ell[k, rows], d_ell[k, rows, rows], r[rows]
            lo[rows] = np.where(ell > 0.0, x, lo[rows])
            hi[rows] = np.where(ell < 0.0, x, hi[rows])
            newton = x - ell / slope
            small = np.abs(newton - x) < AXIAL_Q_TOL * np.maximum(1.0, newton)
            inside = (lo[rows] < newton) & (newton < hi[rows])
            bisect = np.where(np.isinf(hi[rows]), 2.0 * x, 0.5 * (lo[rows] + hi[rows]))
            r[rows] = r_new = np.where(inside | small, newton, bisect)
            escaped = (r_new > 1e12) | (r_new < 1e-12)
            converged[rows[small & ~escaped]] = True
            active[rows[small | escaped]] = False
        failed = np.flatnonzero(~converged)
        if failed.size:
            raise ModelParameterError(
                f"no axial fixed point for species {failed[0] + 1}: axis iteration "
                f"did not converge to a positive value"
            )
        return r


# ---------------------------------------------------------------------------
# structural condition checks
# ---------------------------------------------------------------------------


A_TIME_SAMPLES = 1024  # uniform times per period at which A1-A4 are sampled


def check_a_conditions(system: PeriodicLVSystem) -> list[ConditionResult]:
    """Competitive-structure conditions of the periodic LV form for all t.

    A1 total competition (A_ij >= 0), A2 strong self-competition (diagonal
    sums over any support stay positive; singleton supports are the binding
    case, so the diagonal itself must be positive), A3 decrease of large
    populations with the explicit per-species threshold, A4 increase of
    small populations (B_i > 0).

    One rule per condition: ``pass`` when ``coefficient_bounds`` proves it
    for all t, a lower bound >= 0 (A1) or > 0 (A2, A4) with the bound as
    ``worst``, and for A3 a lower A_ii > 0 with the threshold max(upper B_i,
    0) / lower A_ii; else ``pass_sampled`` when the same test holds at
    ``A_TIME_SAMPLES`` uniform times; else ``fail``, witnessed by the time
    and the 1-based indices of the first smallest sampled value.  The
    coefficients are sampled at most once, and only when some bound fails.
    """
    (b_lower, b_upper), (a_lower, _) = system.coefficient_bounds()
    t = np.arange(A_TIME_SAMPLES) / A_TIME_SAMPLES
    diag_lower = np.diagonal(a_lower)
    # per verdict, the values of B, A and A_ii that the conditions test, and
    # A3's upper B_i and lower A_ii per species; the samples are taken on need
    sources = {"pass": (b_lower, a_lower, diag_lower, b_upper, diag_lower)}
    records = []
    for cond_id, strict, pick, claim, failure in (  # pick: (B, A, A_ii) -> values
        ("A1", False, lambda b, a, d: a, "A_ij(t) >= 0",
         "an interaction coefficient goes negative"),
        ("A2", True, lambda b, a, d: d, "A_ii(t) > 0",
         "self-competition vanishes for a singleton support"),
        ("A3", True, lambda b, a, d: d, None,
         "no finite threshold: self-competition is not positive"),
        ("A4", True, lambda b, a, d: b, "B_i(t) > 0",
         "a per-capita gain dips to zero or below"),
    ):  # fmt: skip
        for verdict in ("pass", "pass_sampled"):
            if verdict not in sources:
                b, a = system.coefficients_at(t)
                diag = np.diagonal(a, axis1=1, axis2=2)
                sources[verdict] = b, a, diag, b.max(axis=0), diag.min(axis=0)
            b, a, diag, b_upper_i, diag_lower_i = sources[verdict]
            values = pick(b, a, diag)
            worst = float(values.min())
            if worst > 0.0 or (worst == 0.0 and not strict):
                break
        else:
            k, *idx = np.unravel_index(int(np.argmin(values)), values.shape)
            witness = {"t": float(t[k]), **{name: int(v) + 1 for name, v in zip("ij", idx)}}
            records.append(
                ConditionResult(cond_id, "fail", worst, witness, A_TIME_SAMPLES, note=failure)
            )
            continue
        proved = verdict == "pass"
        record = ConditionResult(cond_id, verdict, worst, samples=0 if proved else A_TIME_SAMPLES)
        if cond_id == "A3":
            thresholds = np.maximum(b_upper_i, 0.0) / diag_lower_i
            record.worst = float(thresholds.max())
            record.witness = {"thresholds": thresholds.tolist()}
            record.note = (
                "G_i(t, x) < 0 for all t once x_i exceeds the reported threshold, "
                f"max(upper B_i, 0) / lower A_ii by the Fourier bound {FOURIER_BOUND}"
                if proved
                else "G_i(t, x) < 0 once x_i exceeds the reported threshold"
            )
        elif proved:
            record.note = (
                f"{claim} for all t by the Fourier bound {FOURIER_BOUND}: lowest {worst:.6g}"
            )
        records.append(record)
    return records


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
        return {**asdict(self), "slope_tolerance": WANG_JIANG_SLOPE_TOL}


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

    ordered = np.all(U < V, axis=1)  # ordered[0]: U[0] is u0 and V[0] v0, exactly
    breaks = np.flatnonzero(~ordered)
    window_end = int(breaks[0]) if breaks.size else U.shape[0]
    ordered_throughout = breaks.size == 0

    ratios = U[:window_end] / V[:window_end]
    # a window of one state has no slope, and a NaN slope does not pass
    min_slope = float((np.diff(ratios, axis=0) / h).min()) if len(ratios) > 1 else np.nan
    return WangJiangResult(
        passed=min_slope > -WANG_JIANG_SLOPE_TOL,
        min_slope=min_slope,
        window_steps=ratios.shape[0] - 1,
        total_steps=U.shape[0] - 1,
        ordered_throughout=ordered_throughout,
    )
