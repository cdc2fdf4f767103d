"""Competition models T_i(x) = x_i * G_i(x) on the nonnegative cone.

A model supplies the per-capita growth factors G, their Jacobian, and the
axial fixed points q (the single-species equilibria).  Three closed-form
families are implemented here; the Poincare map of a periodic ODE lives in
:mod:`carrysim.periodic` and plugs into the same interface.

All evaluators broadcast over a leading batch axis: ``x`` may be shaped
``(n,)`` or ``(N, n)``.

Index convention: internally 0-based; reports and file formats use 1-based
species indices.
"""

from __future__ import annotations

import numpy as np

Q_RESIDUAL_TOL = 1e-10  # relative residual of T(q_i e_i) = q_i e_i that q must meet


class ModelParameterError(ValueError):
    """Rejected model parameters (hypotheses here are strict inequalities)."""


class ModelEvaluationError(RuntimeError):
    """A model evaluation failed: a non-finite growth factor or state, or an
    axial fixed point that fails verification."""


def as_state(x, n: int) -> np.ndarray:
    """Coerce ``x`` to a valid state vector of n species: 1-D, finite, nonnegative."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"state vector must be 1-D, got shape {arr.shape}")
    if arr.size != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state vector has non-finite coordinates")
    if np.any(arr < 0.0):
        raise ValueError("state vector has negative coordinates")
    return arr


def _reduce_columns(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=1)`` of an (N, n) array, as one running ``ufunc``
    over its n columns: ``np.minimum``, ``np.logical_and`` or ``np.logical_or``.

    numpy runs a reduction along a short last axis many times slower than
    this.  The result has the bits of ``x.min(axis=1)``, ``x.all(axis=1)`` or
    ``x.any(axis=1)``, NaN and inf included, with one limit: from n = 9 on,
    where a row's minimum is a zero and the row holds both -0.0 and 0.0,
    numpy's reduction may return the other zero (measured with numpy 2.4.6,
    whose SIMD loop picks differently).
    """
    out = x[:, 0].copy()
    for k in range(1, x.shape[1]):
        ufunc(out, x[:, k], out=out)
    return out


def _check_batch(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return as_state(arr, n)
    if arr.ndim == 2 and arr.shape[1] == n:
        return arr
    raise ValueError(f"expected shape ({n},) or (N, {n}), got {arr.shape}")


class CompetitionModel:
    """Base class: one map step is T(x) = x * growth(x).  A family implements
    ``growth``, ``growth_and_jacobian`` and ``axial_fixed_points``, and may
    override ``exact_axial_fixed_points``; the base derives
    ``growth_jacobian``, ``step``, ``axis_step``, ``step_jacobian`` and
    ``verified_axial_fixed_points`` from them."""

    n: int

    def growth(self, x) -> np.ndarray:
        """Per-capita growth factors G(x), shape like x."""
        raise NotImplementedError

    def growth_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """G(x), and G'(x) of shape (..., n, n) formed from that same G."""
        raise NotImplementedError

    def growth_jacobian(self, x) -> np.ndarray:
        """dG_i/dx_j, shape (..., n, n)."""
        return self.growth_and_jacobian(x)[1]

    def axial_fixed_points(self) -> np.ndarray:
        """The vector q with q_i the positive fixed point of T on axis i."""
        raise NotImplementedError

    def exact_axial_fixed_points(self) -> np.ndarray | None:
        """q of the exact map that this model discretizes, where a theorem shows
        that each q_i attracts every positive start on its axis; else None.  A
        closed form is its own exact map, and none has such a proof here."""
        return None

    def step(self, x) -> np.ndarray:
        """Apply the map once.  Coordinate i is exactly 0 whenever x_i = 0."""
        x = _check_batch(x, self.n)
        g = self.growth(x)
        bad = ~np.isfinite(g)
        if np.any(bad):
            idx = int(np.argwhere(bad)[0][-1])
            raise ModelEvaluationError(f"growth factor G_{idx + 1} is not finite")
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
        g, gp = self.growth_and_jacobian(x)
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
                f"(residual {residual[i]:.3e})"
            )
        q.setflags(write=False)
        self._verified_q = q
        return q


def _diag_embed(g: np.ndarray) -> np.ndarray:
    """diag(g) with a broadcast batch axis: (..., n) -> (..., n, n)."""
    return np.eye(g.shape[-1]) * g[..., None, :]


def _closed_form_parameters(rates, a, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The positive rate vector ``name`` (B or C) and the interaction matrix A
    of a closed-form family, checked and as float arrays."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1:
        raise ModelParameterError(f"{name} must be a vector")
    if not np.all(np.isfinite(rates)):
        raise ModelParameterError(f"{name} has non-finite entries")
    if np.any(rates <= 0.0):
        i = int(np.argwhere(rates <= 0.0)[0][0])
        raise ModelParameterError(f"{name}[{i + 1}] = {rates[i]} must be > 0")
    n = rates.size
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
    return rates, a


class MayOsterModel(CompetitionModel):
    """Ricker-type competition map: G_i(x) = exp(B_i - sum_j A_ij x_j).

    B_i > 0 and A_ii > 0 are required; off-diagonal A_ij >= 0 (zero entries
    give uncoupled species, useful as exact test instances).
    """

    def __init__(self, B, A):
        self.B, self.A = _closed_form_parameters(B, A, "B")
        self.n = self.B.size

    def growth(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        return np.exp(self.B - x @ self.A.T)

    def growth_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        g = self.growth(x)
        return g, -self.A * g[..., :, None]

    def axial_fixed_points(self) -> np.ndarray:
        return self.B / np.diag(self.A)


class LeslieGowerModel(CompetitionModel):
    """Rational competition map: G_i(x) = C_i / (1 + sum_j A_ij x_j)."""

    def __init__(self, C, A):
        self.C, self.A = _closed_form_parameters(C, A, "C")
        self.n = self.C.size

    def growth(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        return self.C / (1.0 + x @ self.A.T)

    def growth_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = _check_batch(x, self.n)
        g = self.growth(x)
        return g, -self.A * (g / (1.0 + x @ self.A.T))[..., :, None]

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
        self.B, self.A = _closed_form_parameters(B, A, "B")
        self.n = self.B.size
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ModelParameterError(f"gamma = {gamma} must be > 0")
        self.gamma = float(gamma)
        self.transfer = ShiftedSoftplus(gamma)

    def signal(self, x) -> np.ndarray:
        x = _check_batch(x, self.n)
        return self.B - x @ self.A.T

    def growth(self, x) -> np.ndarray:
        return np.exp(self.transfer.value(self.signal(x)))

    def growth_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        g = self.growth(x)
        return g, -self.A * (self.transfer.deriv(self.signal(x)) * g)[..., :, None]

    def axial_fixed_points(self) -> np.ndarray:
        # sigma(0) = 0 makes B_i / A_ii an exact axis fixed point.
        return self.B / np.diag(self.A)
