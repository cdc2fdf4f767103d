import numpy as np
import pytest

from carrysim import LeslieGowerModel, MayOsterModel, NeuralNetModel
from carrysim.periodic import FourierSeries, PeriodicLVSystem


@pytest.fixture
def may2():
    return MayOsterModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]])


@pytest.fixture
def lg2():
    return LeslieGowerModel([1.3, 1.2], [[1.0, 0.5], [0.4, 1.0]])


@pytest.fixture
def neural2():
    return NeuralNetModel([0.5, 0.4], [[1.0, 0.2], [0.3, 1.0]], gamma=1.0)


@pytest.fixture
def may1():
    return MayOsterModel([0.5], [[1.0]])


@pytest.fixture
def may1_b3():
    return MayOsterModel([3.0], [[1.0]])


@pytest.fixture
def vlper2():
    return PeriodicLVSystem(
        [FourierSeries(1.0, cos=(0.2,)), FourierSeries(0.8, sin=(0.1,))],
        [
            [FourierSeries(1.0), FourierSeries(0.3)],
            [FourierSeries(0.2), FourierSeries(1.1, cos=(0.05,))],
        ],
    )


def random_competitive_system(rng: np.random.Generator, n: int) -> PeriodicLVSystem:
    """Random periodic LV system with coefficients positive for all t."""

    def series(base):
        amp_c = base * 0.3 * rng.random()
        amp_s = base * 0.3 * rng.random()
        return FourierSeries(base, cos=(amp_c,), sin=(amp_s,))

    B = [series(0.5 + rng.random()) for _ in range(n)]
    A = []
    for i in range(n):
        row = []
        for j in range(n):
            base = 0.8 + 0.4 * rng.random() if i == j else 0.1 + 0.4 * rng.random()
            row.append(series(base))
        A.append(row)
    return PeriodicLVSystem(B, A)


def finite_difference_growth_jacobian(model, x, rel_step=1e-6) -> np.ndarray:
    """Central finite differences of G, step rel_step * (1 + |x_j|): the
    reference for the analytic Jacobians.

    The 2n perturbed copies of the whole batch go to ``growth`` in one call.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    N, n = pts.shape
    h = rel_step * (1.0 + np.abs(pts))
    offsets = np.eye(n)[:, None, :] * h  # copy j moves coordinate j by h_j
    shifted = np.concatenate([pts + offsets, pts - offsets]).reshape(2 * n * N, n)
    up, dn = model.growth(shifted).reshape(2, n, N, n)
    jac = np.moveaxis((up - dn) / (2.0 * h.T)[:, :, None], 0, -1)
    return jac[0] if squeeze else jac


def richardson_growth_jacobian(model, x, rel_step=1e-3) -> np.ndarray:
    """Richardson extrapolation of two central differences, steps h and h/2:
    the h^2 error term cancels, which leaves O(h^4) and the rounding error."""
    coarse = finite_difference_growth_jacobian(model, x, rel_step)
    fine = finite_difference_growth_jacobian(model, x, 0.5 * rel_step)
    return (4.0 * fine - coarse) / 3.0
