"""Geometry of the nonnegative cone K = [0, inf)^n.

State-vector validation and the order intervals that the criteria sample
from.  State vectors are plain 1-D numpy arrays.

Index convention: internally 0-based; reports and file formats use 1-based
species indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_state(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a valid state vector: 1-D, finite, nonnegative."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"state vector must be 1-D, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state vector has non-finite coordinates")
    if np.any(arr < 0.0):
        raise ValueError("state vector has negative coordinates")
    return arr


@dataclass(frozen=True)
class OrderInterval:
    """Closed order interval [lower, upper] in the cone."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_state(self.lower)
        hi = as_state(self.upper, lo.size)
        if not np.all(lo <= hi):
            raise ValueError("order interval requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.lower.size

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform samples from the box, shape (size, n)."""
        u = rng.random((size, self.n))
        return self.lower + u * (self.upper - self.lower)
