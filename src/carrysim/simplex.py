"""Carrying-simplex computation as a radial graph over the unit simplex.

The surface is a radius per direction node of a simplicial grid on the unit
simplex.  Starting from a surface that dominates the attractor box along
every ray, each sweep pushes the node points through the map, reprojects
them radially, and rebuilds the radii on the fixed grid by piecewise-linear
barycentric interpolation.  Global attraction of the target surface makes
the node radii settle; the defining properties (invariance, unordered,
asymptotic attraction) are then verified a posteriori rather than assumed.

Surface mode supports n in {1, 2, 3}, and ``SimplexGrid.build`` is the one
place that knows which: the rebuild, the interpolation and the
discretization floor run the same code for every n over what it builds.
Higher dimensions fall back to a point cloud without surface reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .models import CompetitionModel

ASYMPTOTIC_STARTS = 100  # random starts of the asymptotic check in verify_surface ...
ASYMPTOTIC_STEPS = 400  # ... each iterated this often
CLOUD_STEPS = 200  # map steps from each random seed of the n >= 4 point cloud


class SurfaceDegeneracyError(RuntimeError):
    """The pushed-forward direction map folded or left gaps on the grid."""


# ---------------------------------------------------------------------------
# simplicial grid over the unit simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexGrid:
    """Barycentric nodes at integer multiples of 1/m on the unit simplex.

    :meth:`build` is the one place that knows the dimension.  Everything
    else reads what it builds: the lattice, the boundary ``chains`` that the
    rebuild and the discretization floor run along, and the ``triangles`` of
    the interior.
    """

    n: int
    m: int
    nodes: np.ndarray  # (N, n) directions
    lattice: np.ndarray  # (N, n) integer coordinates summing to m
    # node ids along each boundary edge, with the direction coordinate that
    # increases along it: the one vertex for n = 1, the whole grid for
    # n = 2, the three edges for n = 3
    chains: list[tuple[np.ndarray, int]]
    # node-index triples of the standard triangulation, (0, 3) for n < 3
    triangles: np.ndarray

    @classmethod
    def build(cls, n: int, m: int) -> "SimplexGrid":
        if n not in (1, 2, 3):
            raise ValueError("simplicial grids are built only for n in {1, 2, 3}")
        if m < min(n, 2):
            raise ValueError(f"grid resolution m must be >= {min(n, 2)} for n = {n}")
        k = np.arange(m + 1)
        triangles = np.empty((0, 3), dtype=int)
        if n == 1:
            lattice = np.array([[m]])
            chains = [(np.array([0]), 0)]
        elif n == 2:
            lattice = np.stack([k, m - k], axis=1)
            chains = [(k, 0)]
        else:
            i, c = np.triu_indices(m + 1)  # rows (i, j) by i, then j = c - i
            lattice = np.stack([i, c - i, m - c], axis=1)
            ix = partial(_lattice_index, m)
            chains = [(ix(k, 0), 0), (ix(0, k), 1), (ix(k, m - k), 0)]
            # per lattice cell (i, j), by i and then j: the upward triangle,
            # then the downward one where it exists, both positively oriented
            i, j = lattice[lattice[:, 2] > 0, :2].T
            up = np.stack([ix(i, j), ix(i + 1, j), ix(i, j + 1)], axis=1)
            down = np.stack([ix(i + 1, j), ix(i + 1, j + 1), ix(i, j + 1)], axis=1)
            has_down = np.stack([np.ones_like(i, dtype=bool), i + j <= m - 2], axis=1)
            triangles = np.stack([up, down], axis=1)[has_down]
        return cls(n, m, lattice / m, lattice, chains, triangles)

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def axis_node_indices(self) -> list[int]:
        """Node index of each unit direction e_i."""
        return np.argmax(self.lattice == self.m, axis=0).tolist()

    def interpolate(self, values: np.ndarray, directions) -> np.ndarray:
        """Piecewise-linear interpolation of node values at given directions."""
        d = np.asarray(directions, dtype=float)
        single = d.ndim == 1
        d = np.atleast_2d(d)
        if d.shape[1] != self.n:
            raise ValueError(f"directions must have {self.n} coordinates")
        if self.n < 3:  # one node for n = 1: np.interp returns its value
            out = np.interp(d[:, 0], self.nodes[:, 0], values)
        else:
            out = self._interp3(np.asarray(values), d)
        return out[0] if single else out

    def _interp3(self, values: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Barycentric interpolation in the lattice triangle holding each row."""
        m = self.m
        u = d[:, 0] * m
        v = d[:, 1] * m
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("directions must be finite")
        i0 = np.clip(np.floor(u), 0, m - 1).astype(int)
        j0 = np.clip(np.floor(v), 0, m - 1).astype(int)
        i0 -= (i0 + j0 >= m)  # a lattice point on the far edge: the cell before it
        if np.any(i0 + j0 >= m):
            raise ValueError("directions must lie on the unit simplex")
        fu = u - i0
        fv = v - j0
        lower = (fu + fv <= 1.0) | (i0 + j0 == m - 1)
        w0 = np.maximum(1.0 - fu - fv, 0.0)
        w = np.where(
            lower,
            np.stack([w0, fu, fv]) / ((w0 + fu) + fv),  # the sum is >= 1 up to rounding
            np.stack([1.0 - fv, 1.0 - fu, fu + fv - 1.0]),
        )
        ix = partial(_lattice_index, m)
        a, b, c = ix(i0, j0), ix(i0 + 1, j0), ix(i0, j0 + 1)
        v0, v1, v2 = values[np.where(lower, [a, b, c], [b, c, ix(i0 + 1, j0 + 1)])]
        return (w[0] * v0 + w[1] * v1) + w[2] * v2


def _lattice_index(m: int, i, j):
    """Row of the lattice point (i, j, m - i - j) in an n = 3 grid of
    resolution m; takes arrays too."""
    return i * (m + 1) - i * (i - 1) // 2 + j


# ---------------------------------------------------------------------------
# radial surface
# ---------------------------------------------------------------------------


@dataclass
class RadialSurface:
    """Radii over a direction grid, plus how the iteration went."""

    grid: SimplexGrid
    radii: np.ndarray
    q: np.ndarray
    tol: float
    iterations: int
    final_delta: float
    converged: bool
    max_iter: int
    descent_violations: int = 0

    @property
    def n(self) -> int:
        return self.grid.n

    def points(self) -> np.ndarray:
        return self.radii[:, None] * self.grid.nodes

    def radius_at(self, directions) -> np.ndarray:
        return self.grid.interpolate(self.radii, directions)

    def axis_radii(self) -> np.ndarray:
        return self.radii[self.grid.axis_node_indices()]

    def metadata(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_delta": self.final_delta,
            "m": self.grid.m,
            "tol": self.tol,
            "n": self.n,
            "converged": self.converged,
            "max_iter": self.max_iter,
            "descent_violations": self.descent_violations,
        }


# ---------------------------------------------------------------------------
# surface iteration
# ---------------------------------------------------------------------------

_DEFAULT_M = {1: 1, 2: 64, 3: 24}


def compute_carrying_simplex(
    model: CompetitionModel,
    m: int | None = None,
    tol: float = 1e-10,
    max_iter: int = 5_000,
) -> RadialSurface:
    """Iterate a dominating radial graph under the map until it settles.

    Per sweep: push every node point through the map, reproject radially,
    and rebuild the radii on the fixed grid (each boundary chain by
    one-dimensional interpolation, the interior by barycentric
    interpolation in the image triangulation).  Stops when the largest node
    movement drops below ``tol``.  A non-converged surface is returned with
    ``converged=False`` rather than raised.
    """
    n = model.n
    if n not in _DEFAULT_M:
        raise ValueError("surface mode supports n <= 3; use compute_attractor_cloud")
    grid = SimplexGrid.build(n, _DEFAULT_M[n] if m is None else m)
    q = model.verified_axial_fixed_points()

    # Start above the attractor along every ray: 1.5x the radius at which
    # each ray exits the box [0, q].  (The exit radius is the min over the
    # support; anything larger already dominates the box along that ray,
    # and this choice keeps the initial radii bounded near the facets.)
    with np.errstate(divide="ignore"):
        ratios = np.where(grid.nodes > 0.0, q / np.where(grid.nodes > 0, grid.nodes, 1.0), np.inf)
    radii = 1.5 * ratios.min(axis=1)

    descent_violations = 0
    delta = np.inf
    iterations = 0
    converged = False
    for iteration in range(1, max_iter + 1):
        new_radii = _sweep(model, grid, radii)
        delta = float(np.max(np.abs(new_radii - radii)))
        if iteration >= 2:
            descent_violations += int(np.count_nonzero(new_radii > radii + 1e-12))
        radii = new_radii
        iterations = iteration
        if delta < tol:
            converged = True
            break

    return RadialSurface(
        grid=grid,
        radii=radii,
        q=q,
        tol=tol,
        iterations=iterations,
        final_delta=delta,
        converged=converged,
        max_iter=max_iter,
        descent_violations=descent_violations,
    )


def _sweep(model: CompetitionModel, grid: SimplexGrid, radii: np.ndarray) -> np.ndarray:
    """One graph-transform sweep: push forward, reproject, rebuild."""
    points = radii[:, None] * grid.nodes
    images = model.step(points)
    rho = images.sum(axis=1)
    if np.any(rho <= 0.0):
        bad = int(np.argmax(rho <= 0.0))
        raise SurfaceDegeneracyError(
            f"node {bad} mapped to the origin; surface cannot cross 0"
        )
    return _rebuild(grid, images / rho[:, None], rho)


def _rebuild_1d(
    targets: np.ndarray, s_img: np.ndarray, rho: np.ndarray, m: int
) -> np.ndarray:
    """Invert the direction map along one edge and interpolate the radii."""
    if np.any(np.diff(s_img) <= 0.0):
        raise SurfaceDegeneracyError(
            f"direction map not injective at resolution {m}; refine grid"
        )
    return np.interp(targets, s_img, rho)


# tau: the smallest barycentric weight that covers a node.  By the lemma in
# _rebuild a triangle's box grows by 2 tau, twice that for rounding.
_TAU = 1e-9
_BOX_EPS = 4 * _TAU


def _rebuild(grid: SimplexGrid, dirs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rebuild the radii on the fixed grid from the pushed-forward nodes.

    Each boundary chain is a one-dimensional subproblem on its own nodes.
    A node on no chain (an interior node of an n = 3 grid) interpolates
    ``rho`` in the image triangle whose smallest barycentric weight at the
    node is largest, the lowest index winning a tie; below -tau the node is
    not covered.  It is searched in its own 1/m cell, which lists every
    image triangle whose bounding box, grown by 4 tau, meets the cell.

    Lemma: if a triangle's smallest weight at p is >= -tau, then in each
    coordinate p lies within 2 tau w of its box, w <= 1 being the box's
    width, since at most two weights are negative.  So p's cell lists the
    winner of a search over all triangles, and picks it, ties included.  This
    assumes the weights :func:`_barycentric` rounds are within tau of the
    exact ones (the error is about 1e-15 / det, det = 1/m^2 on the grid), so
    that one rounded to >= -tau is >= -2 tau, hence the margin of 4 tau.
    """
    m = grid.m
    new_radii = np.empty(len(grid))
    on_chain = np.zeros(len(grid), dtype=bool)
    for node_ids, axis in grid.chains:
        new_radii[node_ids] = _rebuild_1d(
            grid.nodes[node_ids, axis], dirs[node_ids, axis], rho[node_ids], m
        )
        on_chain[node_ids] = True

    interior = np.flatnonzero(~on_chain)
    if interior.size == 0:
        return new_radii
    tris = grid.triangles
    a, b, c = dirs[tris, :2].transpose(1, 0, 2)
    ab, ac = b - a, c - a
    det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    if np.any(det <= 0.0):
        raise SurfaceDegeneracyError(
            f"direction map not injective at resolution {m}; refine grid"
        )

    targets = grid.nodes[interior][:, :2]
    best, best_min = _best_in_cells(targets, a, b, c, det, m)
    if np.any(best_min < -_TAU):
        raise SurfaceDegeneracyError(
            f"image triangulation does not cover the grid at resolution {m}; "
            "refine grid"
        )
    wa, wb, wc = _barycentric(targets, a[best], b[best], c[best], det[best])
    t = tris[best]
    new_radii[interior] = wa * rho[t[:, 0]] + wb * rho[t[:, 1]] + wc * rho[t[:, 2]]
    return new_radii


def _barycentric(p, a, b, c, det):
    """Weights of the points ``p`` in the triangles (a, b, c) of doubled
    signed area ``det``."""
    rx = p[:, 0] - a[:, 0]
    ry = p[:, 1] - a[:, 1]
    wb = (rx * (c[:, 1] - a[:, 1]) - ry * (c[:, 0] - a[:, 0])) / det
    wc = ((b[:, 0] - a[:, 0]) * ry - (b[:, 1] - a[:, 1]) * rx) / det
    return 1.0 - wb - wc, wb, wc


def _cells(xy: np.ndarray, k: int) -> np.ndarray:
    """Flat index of the 1/k cell holding each point, clipped to [0, 1)^2."""
    ij = np.clip(np.floor(xy * k), 0, k - 1).astype(int)
    return ij[:, 0] * k + ij[:, 1]


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of each item when owner i has counts[i] items."""
    owner = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


def _best_in_cells(targets, a, b, c, det, k: int):
    """Per target, among the triangles listed in its 1/k cell, the one with the
    largest smallest weight (lowest index on ties) and that weight; -1 and
    -inf where the cell lists none."""
    lo = _cells(np.minimum(a, np.minimum(b, c)) - _BOX_EPS, k)
    hi = _cells(np.maximum(a, np.maximum(b, c)) + _BOX_EPS, k)
    span_y = hi % k - lo % k + 1
    tri, r = _ragged((hi // k - lo // k + 1) * span_y)
    cell = lo[tri] + (r // span_y[tri]) * k + r % span_y[tri]
    by_cell = tri[np.argsort(cell, kind="stable")]  # ascending within a cell
    per_cell = np.bincount(cell, minlength=k * k)
    target_cell = _cells(targets, k)
    p, r = _ragged(per_cell[target_cell])
    t = by_cell[(np.cumsum(per_cell) - per_cell)[target_cell][p] + r]
    wa, wb, wc = _barycentric(targets[p], a[t], b[t], c[t], det[t])
    w_min = np.minimum(wa, np.minimum(wb, wc))
    # per target, the first of its pairs that reaches its largest w_min
    group_max = np.maximum.reduceat(w_min, np.flatnonzero(r == 0))
    top = np.flatnonzero(w_min == group_max[np.cumsum(r == 0) - 1])
    first = top[np.diff(p[top], prepend=-1) > 0]
    best = np.full(targets.shape[0], -1)
    best_min = np.full(targets.shape[0], -np.inf)
    best[p[first]] = t[first]
    best_min[p[first]] = w_min[first]
    return best, best_min


# ---------------------------------------------------------------------------
# verification of the defining properties
# ---------------------------------------------------------------------------


def invariance_residual(
    surface: RadialSurface,
    model: CompetitionModel,
    samples: int = 1_000,
    seed: int = 42,
) -> float:
    """Worst radial gap between the surface and the image of surface points.

    Random interior directions are lifted onto the surface, pushed through
    the map, and compared against the surface radius at the image direction.
    Normalized by the total axial radius |q|_1.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.dirichlet(np.ones(surface.n), size=samples)
    radii = surface.radius_at(dirs)
    gaps = _radial_gaps(surface, model.step(radii[:, None] * dirs))
    return float(gaps.max() / surface.q.sum())


@dataclass
class UnorderedResult:
    ok: bool
    worst_margin: float
    points: tuple[np.ndarray, np.ndarray] | None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "worst_margin": self.worst_margin if np.isfinite(self.worst_margin) else None,
            "pair": None
            if self.points is None
            else [self.points[0].tolist(), self.points[1].tolist()],
        }


def unordered_check(X: np.ndarray) -> UnorderedResult:
    """Exact pairwise comparison of points (a surface's nodes or a cloud): no
    two may be ordered."""
    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    if N < 2:
        return UnorderedResult(True, -np.inf, None)
    if X.shape[1] == 2:
        return _unordered_sorted_2d(X)
    return _unordered_bruteforce(X)


def _unordered_sorted_2d(X: np.ndarray) -> UnorderedResult:
    # after sorting by the first coordinate, the set is unordered iff the
    # first coordinate is strictly increasing and the second strictly
    # decreasing; adjacent pairs realize the worst margin
    order = np.argsort(X[:, 0], kind="stable")
    xs = X[order]
    d0 = np.diff(xs[:, 0])
    d1 = np.diff(xs[:, 1])
    # margin of the better-ordered orientation of each adjacent pair; ties in
    # the first coordinate make the pair comparable in one direction or the other
    margins = np.maximum(np.minimum(d0, d1), np.minimum(-d0, -d1))
    worst_idx = int(np.argmax(margins))
    worst = float(margins[worst_idx])
    a, b = int(order[worst_idx]), int(order[worst_idx + 1])
    ok = worst < 0.0
    return UnorderedResult(ok, worst, (X[a], X[b]))


def _unordered_bruteforce(X: np.ndarray) -> UnorderedResult:
    N = X.shape[0]
    chunk = max(1, int(2_000_000 // max(1, N)))
    worst = -np.inf
    points = None
    for start in range(0, N, chunk):
        blk = X[start : start + chunk]
        margins = (blk[:, None, :] - X[None, :, :]).min(axis=2)
        rows = np.arange(start, start + blk.shape[0])
        margins[rows - start, rows] = -np.inf  # exclude self-comparison
        k = int(np.argmax(margins))
        i_loc, j = np.unravel_index(k, margins.shape)
        if margins[i_loc, j] > worst:
            worst = float(margins[i_loc, j])
            points = (blk[i_loc], X[j])
    ok = worst < 0.0
    return UnorderedResult(ok, worst, points)


@dataclass
class AsymptoticStats:
    passed: bool
    gaps_half: np.ndarray
    gaps_end: np.ndarray
    escaped: int
    steps: int
    tol: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "worst_gap": float(self.gaps_end.max()) if self.gaps_end.size else 0.0,
            "median_gap": float(np.median(self.gaps_end)) if self.gaps_end.size else 0.0,
            "escaped": self.escaped,
            "steps": self.steps,
            "tol": self.tol,
            "points": int(self.gaps_end.size),
        }


def asymptotic_check(
    surface: RadialSurface, model: CompetitionModel, initial_points
) -> AsymptoticStats:
    """Trajectories of nonzero starts close onto the surface.

    Iterates every start ``ASYMPTOTIC_STEPS`` times and records the radial
    gap |r(dir(x_k)) - |x_k|_1| at half time and at the end.  The gap
    threshold ``tol`` is the grid's :func:`discretization_floor`, the larger
    of the iteration tolerance and the interpolation error: a coarse grid
    cannot witness tighter gaps.  A point passes when its final gap is
    below 10*tol and has not grown since half time, above tol: while
    crossing the surface a trajectory can dip below the interpolation error
    before settling at it.  A start leaving the box [0, 10 q] fails at the
    end.  The loop stops once a step returns its input bit for bit: the
    step is deterministic, so every later state, the half-time one if still
    ahead, is that array, and ``steps`` stays ASYMPTOTIC_STEPS.
    """
    X = np.atleast_2d(np.asarray(initial_points, dtype=float))
    if np.any(X.sum(axis=1) == 0.0):
        raise ValueError("asymptotic check requires nonzero initial points")
    box = 10.0 * surface.q
    escaped = np.zeros(X.shape[0], dtype=bool)
    gaps_half = None
    for k in range(1, ASYMPTOTIC_STEPS + 1):
        Y = model.step(X)
        escaped |= np.any(Y > box, axis=1)
        if Y.tobytes() == X.tobytes():
            break
        X = Y
        if k == ASYMPTOTIC_STEPS // 2:
            gaps_half = _radial_gaps(surface, X)
    gaps_end = _radial_gaps(surface, X)
    gaps_half = gaps_end if gaps_half is None else gaps_half
    tol = discretization_floor(surface)
    ok = (
        not escaped.any()
        and bool(np.all(gaps_end < 10.0 * tol))
        and bool(np.all(gaps_end <= np.maximum(gaps_half, tol) + 1e-15))
    )
    return AsymptoticStats(
        passed=ok,
        gaps_half=gaps_half,
        gaps_end=gaps_end,
        escaped=int(escaped.sum()),
        steps=ASYMPTOTIC_STEPS,
        tol=tol,
    )


def _radial_gaps(surface: RadialSurface, X: np.ndarray) -> np.ndarray:
    """|r(dir(x)) - |x|_1| for every row x of ``X``, none of them 0."""
    rho = X.sum(axis=1)
    if np.any(rho <= 0.0):
        raise ValueError("a surface point or trajectory reached the origin")
    dirs = X / rho[:, None]
    return np.abs(surface.radius_at(dirs) - rho)


@dataclass
class SurfaceVerification:
    invariance: float
    unordered: UnorderedResult
    asymptotic: AsymptoticStats
    axial_errors: np.ndarray
    seed: int

    @property
    def all_ok(self) -> bool:
        """The surface has its defining properties at this resolution: it is
        unordered, the asymptotic check passed, and every axial radius is
        within 10x the asymptotic gap threshold of q_i."""
        return (
            self.unordered.ok
            and self.asymptotic.passed
            and bool(np.all(self.axial_errors < 10.0 * self.asymptotic.tol))
        )

    def to_dict(self) -> dict:
        return {
            "invariance_residual": self.invariance,
            "unordered": self.unordered.to_dict(),
            "asymptotic": self.asymptotic.to_dict(),
            "axial_errors": self.axial_errors.tolist(),
            "seed": self.seed,
        }


def discretization_floor(surface: RadialSurface) -> float:
    """Radial accuracy limit of the piecewise-linear grid representation.

    Chord-vs-curve deviation of a PL graph is bounded by the largest second
    difference of the node radii over 8, taken along the grid's boundary
    chains; gaps below this level are not resolvable at the grid's
    resolution.
    """
    worst = 0.0
    for chain, _ in surface.grid.chains:
        r = surface.radii[chain]
        if r.size >= 3:
            worst = max(worst, float(np.max(np.abs(np.diff(r, n=2)))))
    return max(surface.tol, worst / 8.0)


def verify_surface(
    surface: RadialSurface,
    model: CompetitionModel,
    samples: int = 1_000,
    seed: int = 42,
) -> SurfaceVerification:
    """Run the full defining-property suite against a computed surface; the
    asymptotic check starts from ``ASYMPTOTIC_STARTS`` points in [0.05 q, 1.5 q]."""
    rng = np.random.default_rng(seed)
    residual = invariance_residual(surface, model, samples=samples, seed=seed)
    unordered = unordered_check(surface.points())
    lows = 0.05 * surface.q
    starts = lows + rng.random((ASYMPTOTIC_STARTS, surface.n)) * (1.45 * surface.q)
    asym = asymptotic_check(surface, model, starts)
    axial_errors = np.abs(surface.axis_radii() - surface.q)
    return SurfaceVerification(
        invariance=residual,
        unordered=unordered,
        asymptotic=asym,
        axial_errors=axial_errors,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# point-cloud fallback for n >= 4
# ---------------------------------------------------------------------------


def compute_attractor_cloud(
    model: CompetitionModel, n_points: int = 10_000, seed: int = 42
) -> np.ndarray:
    """Iterate random seeds in [0.05 q, 1.5 q] ``CLOUD_STEPS`` times.

    The cloud samples the global attractor, not the carrying simplex: no
    surface is reconstructed, and where the attractor is smaller than the
    simplex (an attracting interior equilibrium, say) the points collapse
    onto it instead of spreading over the simplex.
    """
    rng = np.random.default_rng(seed)
    q = model.verified_axial_fixed_points()
    X = (0.05 + 1.45 * rng.random((n_points, model.n))) * q
    for _ in range(CLOUD_STEPS):
        X = model.step(X)
    return X


# ---------------------------------------------------------------------------
# one-dimensional parameter sweep
# ---------------------------------------------------------------------------


SWEEP_TOL = 1e-8  # fixed-point and period-match tolerance of the scalar sweep
SWEEP_MAX_PERIOD = 64


@dataclass
class SweepPoint:
    b: float
    classification: str  # converges | periodic | non-convergent | divergent
    points: np.ndarray = field(default_factory=lambda: np.empty(0))


def sweep_1d(
    a: float,
    b_min: float,
    b_max: float,
    steps: int = 1_000,
    record: int = 128,
    b_count: int = 100,
) -> list[SweepPoint]:
    """Classify the scalar map x -> x exp(b - a x) across a range of b.

    Each b iterates from x0 = 0.1 b/a for ``steps`` total iterations and
    keeps the last ``record`` values: "converges" when the final iterate is
    within ``SWEEP_TOL`` of b/a, "periodic" when the tail revisits itself to
    that tolerance with period <= ``SWEEP_MAX_PERIOD``, otherwise
    "non-convergent" (no carrying-simplex claim is made for parameters
    between the known thresholds).
    """
    if a <= 0.0:
        raise ValueError("a must be > 0")
    if not (0.0 < b_min <= b_max):
        raise ValueError("need 0 < b_min <= b_max")
    keep = min(record, steps)

    bs = np.linspace(b_min, b_max, b_count) if b_count > 1 else np.array([b_min])
    x = 0.1 * bs / a
    tail = np.empty((keep, bs.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = x * np.exp(bs - a * x)
            if k >= steps - keep:
                tail[k - (steps - keep)] = x

    out = []
    for col, b in enumerate(bs):
        orbit = tail[:, col]
        q = b / a
        if not np.all(np.isfinite(orbit)):
            out.append(SweepPoint(float(b), "divergent"))
            continue
        if abs(orbit[-1] - q) < SWEEP_TOL:
            out.append(SweepPoint(float(b), "converges", np.array([q])))
            continue
        period = _detect_period(orbit)
        if period:
            out.append(SweepPoint(float(b), "periodic", orbit[-period:].copy()))
        else:
            out.append(SweepPoint(float(b), "non-convergent", orbit.copy()))
    return out


def _detect_period(orbit: np.ndarray) -> int:
    for p in range(2, min(SWEEP_MAX_PERIOD, orbit.size - 1) + 1):
        if abs(orbit[-1] - orbit[-1 - p]) < SWEEP_TOL:
            lag = orbit.size - p
            if np.max(np.abs(orbit[p:] - orbit[:-p])[-min(lag, p):]) < SWEEP_TOL:
                return p
    return 0


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then each row of ``rows``: strings as they are,
    numbers in ``.17g``, which reads back to the same float."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n")


def write_surface_csv(surface: RadialSurface, path) -> None:
    n = surface.n
    header = [f"d_{i + 1}" for i in range(n)] + ["r"] + [f"x_{i + 1}" for i in range(n)]
    write_csv(path, header, np.column_stack([surface.grid.nodes, surface.radii, surface.points()]))


def write_cloud_csv(points: np.ndarray, path) -> None:
    write_csv(path, [f"x_{i + 1}" for i in range(points.shape[1])], points)


def write_sweep_csv(results: list[SweepPoint], path) -> None:
    write_csv(
        path,
        ["b", "class", "attractor_points"],
        ([res.b, res.classification, *np.atleast_1d(res.points)] for res in results),
    )
