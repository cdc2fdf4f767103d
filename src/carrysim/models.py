"""Competition models T_i(x) = x_i * G_i(x) on the nonnegative cone.

A model supplies the per-capita growth factors G, their Jacobian, and the
axial fixed points q (the single-species equilibria).  Three closed-form
families are implemented here; the Poincare map of a periodic ODE lives in
:mod:`carrysim.periodic` and plugs into the same interface.

All evaluators broadcast over a leading batch axis: ``x`` may be shaped
``(n,)`` or ``(N, n)``.
"""

from __future__ import annotations

import numpy as np

from .cone import as_state


Q_RESIDUAL_TOL = 1e-10  # relative residual of T(q_i e_i) = q_i e_i that q must meet


class ModelParameterError(ValueError):
    """Rejected model parameters (hypotheses here are strict inequalities)."""


class ModelEvaluationError(RuntimeError):
    """Growth evaluation produced NaN/inf; carries the offending 1-based index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def _check_batch(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return as_state(arr, n)
    if arr.ndim == 2 and arr.shape[1] == n:
        return arr
    raise ValueError(f"expected shape ({n},) or (N, {n}), got {arr.shape}")


class CompetitionModel:
    """Base class: one map step is T(x) = x * growth(x)."""

    n: int

    def growth(self, x) -> np.ndarray:
        """Per-capita growth factors G(x), shape like x."""
        raise NotImplementedError

    def growth_jacobian(self, x) -> np.ndarray:
        """dG_i/dx_j, shape (..., n, n).

        Default is a central finite difference of :meth:`growth` with step
        1e-6 * (1 + |x_j|) per coordinate; closed-form families override.
        """
        return finite_difference_growth_jacobian(self, x)

    def axial_fixed_points(self) -> np.ndarray:
        """The vector q with q_i the positive fixed point of T on axis i."""
        raise NotImplementedError

    def step(self, x) -> np.ndarray:
        """Apply the map once.  Coordinate i is exactly 0 whenever x_i = 0."""
        x = _check_batch(x, self.n)
        g = self.growth(x)
        bad = ~np.isfinite(g)
        if np.any(bad):
            idx = int(np.argwhere(bad)[0][-1])
            raise ModelEvaluationError(
                f"growth factor G_{idx + 1} is not finite", index=idx + 1
            )
        return x * g

    def axis_step(self, axis, values) -> np.ndarray:
        """Coordinate axis[k] of T(values[k] e_axis[k]) for every k, in one batch."""
        rows = np.arange(len(axis))
        points = np.zeros((rows.size, self.n))
        points[rows, axis] = values
        return self.step(points)[rows, axis]

    def step_jacobian(self, x) -> np.ndarray:
        """T'(x) = diag(G(x)) + diag(x) G'(x), shape (..., n, n)."""
        x = _check_batch(x, self.n)
        g = self.growth(x)
        gp = self.growth_jacobian(x)
        return _diag_embed(g) + x[..., :, None] * gp

    def verified_axial_fixed_points(self) -> np.ndarray:
        """q, with T(q_i e_i) = q_i e_i re-checked on every axis in one n-row step,
        to a residual of ``Q_RESIDUAL_TOL * max(1, q_i)``.

        The verified q is cached on the instance, so every checker that needs
        q shares one computation and one verification.  The returned array is
        read-only because all those callers share it.
        """
        cached = getattr(self, "_verified_q", None)
        if cached is not None:
            return cached
        q = as_state(self.axial_fixed_points(), self.n).copy()
        residual = np.abs(self.axis_step(np.arange(self.n), q) - q)
        bad = np.flatnonzero(residual > Q_RESIDUAL_TOL * np.maximum(1.0, q))
        if bad.size:
            i = int(bad[0])
            raise ModelEvaluationError(
                f"axial fixed point q_{i + 1} fails T(q e_i) = q e_i "
                f"(residual {residual[i]:.3e})",
                index=i + 1,
            )
        q.setflags(write=False)
        self._verified_q = q
        return q


def _diag_embed(g: np.ndarray) -> np.ndarray:
    """diag(g) with a broadcast batch axis: (..., n) -> (..., n, n)."""
    return np.eye(g.shape[-1]) * g[..., None, :]


def finite_difference_growth_jacobian(model: CompetitionModel, x) -> np.ndarray:
    """Central finite differences of G, step 1e-6 * (1 + |x_j|).

    The 2n perturbed copies of the whole batch go to ``growth`` in one call.
    """
    x = _check_batch(x, model.n)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    N, n = pts.shape
    h = 1e-6 * (1.0 + np.abs(pts))
    offsets = np.eye(n)[:, None, :] * h  # copy j moves coordinate j by h_j
    shifted = np.concatenate([pts + offsets, pts - offsets]).reshape(2 * n * N, n)
    up, dn = model.growth(shifted).reshape(2, n, N, n)
    jac = np.moveaxis((up - dn) / (2.0 * h.T)[:, :, None], 0, -1)
    return jac[0] if squeeze else jac


def _validate_interaction_matrix(a, n: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (n, n):
        raise ModelParameterError(f"A must be {n}x{n}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ModelParameterError("A has non-finite entries")
    if np.any(a < 0.0):
        i, j = np.argwhere(a < 0.0)[0]
        raise ModelParameterError(
            f"A[{i + 1}][{j + 1}] = {a[i, j]} is negative; interactions must be >= 0"
        )
    if np.any(np.diag(a) <= 0.0):
        i = int(np.argwhere(np.diag(a) <= 0.0)[0][0])
        raise ModelParameterError(
            f"A[{i + 1}][{i + 1}] = {a[i, i]}; self-interaction must be > 0"
        )
    return a


def _validate_positive_vector(b, n: int, name: str) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ModelParameterError(f"{name} must have length {n}, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ModelParameterError(f"{name} has non-finite entries")
    if np.any(b <= 0.0):
        i = int(np.argwhere(b <= 0.0)[0][0])
        raise ModelParameterError(f"{name}[{i + 1}] = {b[i]} must be > 0")
    return b


class MayOsterModel(CompetitionModel):
    """Ricker-type competition map: G_i(x) = exp(B_i - sum_j A_ij x_j).

    B_i > 0 and A_ii > 0 are required; off-diagonal A_ij >= 0 (zero entries
    give uncoupled species, useful as exact test instances).
    """

    def __init__(self, B, A):
        b = np.asarray(B, dtype=float)
        if b.ndim != 1:
            raise ModelParameterError("B must be a vector")
        self.n = b.size
        self.B = _validate_positive_vector(b, self.n, "B")
        self.A = _validate_interaction_matrix(A, self.n)

    def growth(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        return np.exp(self.B - x @ self.A.T)

    def growth_jacobian(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        g = self.growth(x)
        return -self.A * g[..., :, None]

    def axial_fixed_points(self) -> np.ndarray:
        return self.B / np.diag(self.A)


class LeslieGowerModel(CompetitionModel):
    """Rational competition map: G_i(x) = C_i / (1 + sum_j A_ij x_j)."""

    def __init__(self, C, A):
        c = np.asarray(C, dtype=float)
        if c.ndim != 1:
            raise ModelParameterError("C must be a vector")
        self.n = c.size
        self.C = _validate_positive_vector(c, self.n, "C")
        self.A = _validate_interaction_matrix(A, self.n)

    def growth(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        return self.C / (1.0 + x @ self.A.T)

    def growth_jacobian(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        g = self.growth(x)
        denom = 1.0 + x @ self.A.T
        return -self.A * (g / denom)[..., :, None]

    def axial_fixed_points(self) -> np.ndarray:
        if np.any(self.C <= 1.0):
            i = int(np.argwhere(self.C <= 1.0)[0][0])
            raise ModelParameterError(
                f"no axial fixed point for species {i + 1}: C[{i + 1}] = "
                f"{self.C[i]} <= 1 sends all axis trajectories to 0"
            )
        return (self.C - 1.0) / np.diag(self.A)


class ShiftedSoftplus:
    """Transfer sigma(s) = gamma * (log(1 + e^s) - log 2).

    Satisfies sigma(0) = 0, sigma'(s) = gamma * e^s / (1 + e^s) in (0, gamma),
    and sup sigma' = gamma; defined on all of R.
    """

    def __init__(self, gamma: float):
        self.gamma = float(gamma)

    def value(self, s):
        return self.gamma * (np.logaddexp(0.0, s) - np.log(2.0))

    def deriv(self, s):
        # logistic sigmoid via tanh, stable for any magnitude of s
        s = np.asarray(s, dtype=float)
        return self.gamma * 0.5 * (1.0 + np.tanh(0.5 * s))


class NeuralNetModel(CompetitionModel):
    """Recurrent competitive network: G_i(x) = exp(sigma(B_i - sum_j A_ij x_j)).

    The transfer sigma is :class:`ShiftedSoftplus` with gain ``gamma``, kept
    as ``transfer``: sigma(0) = 0 and 0 < sigma' < gamma.
    """

    def __init__(self, B, A, gamma: float):
        b = np.asarray(B, dtype=float)
        if b.ndim != 1:
            raise ModelParameterError("B must be a vector")
        self.n = b.size
        self.B = _validate_positive_vector(b, self.n, "B")
        self.A = _validate_interaction_matrix(A, self.n)
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ModelParameterError(f"gamma = {gamma} must be > 0")
        self.gamma = float(gamma)
        self.transfer = ShiftedSoftplus(gamma)

    def signal(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        return self.B - x @ self.A.T

    def growth(self, x) -> np.ndarray:
        return np.exp(self.transfer.value(self.signal(x)))

    def growth_jacobian(self, x) -> np.ndarray:
        s = self.signal(x)
        g = np.exp(self.transfer.value(s))
        d = self.transfer.deriv(s)
        return -self.A * (d * g)[..., :, None]

    def axial_fixed_points(self) -> np.ndarray:
        # sigma(0) = 0 makes B_i / A_ii an exact axis fixed point.
        return self.B / np.diag(self.A)
