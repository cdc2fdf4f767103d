import numpy as np
import pytest

from carrysim.cone import OrderInterval, as_state
from carrysim.criteria import _support_groups


def supports(points):
    """The nonempty supports among the points, each with its row indices."""
    pts = np.array(points, dtype=float)
    return {tuple(support.tolist()): rows.tolist() for support, rows in _support_groups(pts)}


def test_support_examples():
    assert supports([[0.0, 2.5, 0.0]]) == {(1,): [0]}
    assert supports([[0.0, 0.0, 0.0]]) == {}  # the origin has no support
    assert supports([[1.0, 0.5], [0.0, 3.0], [2.0, 1.0]]) == {(0, 1): [0, 2], (1,): [1]}


def test_support_is_exact():
    assert supports([[1e-320, 0.0]]) == {(0,): [0]}


def test_as_state_rejections():
    with pytest.raises(ValueError, match="must be 1-D"):
        as_state([[0.1, 0.2]])
    with pytest.raises(ValueError, match="dimension mismatch: expected 3, got 2"):
        as_state([0.1, 0.2], n=3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            as_state([0.1, bad], n=2)
    with pytest.raises(ValueError, match="negative"):
        as_state([0.1, -1e-300], n=2)


def test_order_interval():
    box = OrderInterval(np.zeros(2), np.array([1.0, 2.0]))
    assert box.n == 2
    with pytest.raises(ValueError):
        OrderInterval(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pts = box.sample(np.random.default_rng(0), 50)
    assert pts.shape == (50, 2)
    assert np.all(pts >= 0) and np.all(pts <= [1.0, 2.0])
