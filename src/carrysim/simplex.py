"""Carrying-simplex computation as a radial graph over the unit simplex.

The surface is a radius per direction node of a simplicial grid on the unit
simplex.  Starting from a surface that dominates the attractor box along
every ray, each sweep pushes the node points through the map, reprojects
them radially, and rebuilds the radii on the fixed grid by piecewise-linear
barycentric interpolation.  Global attraction of the target surface makes
the node radii settle; the defining properties (invariance, unordered,
asymptotic attraction) are then verified a posteriori rather than assumed.

Surface mode supports n in {1, 2, 3}; higher dimensions fall back to a
point cloud without surface reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import CompetitionModel


class SurfaceDegeneracyError(RuntimeError):
    """The pushed-forward direction map folded or left gaps on the grid."""


# ---------------------------------------------------------------------------
# simplicial grid over the unit simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexGrid:
    """Barycentric nodes at integer multiples of 1/m on the unit simplex."""

    n: int
    m: int
    nodes: np.ndarray  # (N, n) directions
    lattice: np.ndarray  # (N, n) integer coordinates summing to m

    @classmethod
    def build(cls, n: int, m: int) -> "SimplexGrid":
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if n == 1:
            lattice = np.array([[m]], dtype=int)
        elif n == 2:
            k = np.arange(m + 1)
            lattice = np.stack([k, m - k], axis=1)
        elif n == 3:
            i, c = np.triu_indices(m + 1)  # rows (i, j) by i, then j = c - i
            lattice = np.stack([i, c - i, m - c], axis=1)
        else:
            raise ValueError("simplicial grids are built only for n <= 3")
        nodes = lattice / float(m) if m > 0 else lattice.astype(float)
        if n == 1:
            nodes = np.array([[1.0]])
        return cls(n=n, m=m, nodes=nodes, lattice=lattice)

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def node_index(self, lattice_point) -> int:
        """Row of ``lattice`` that holds the given integer point."""
        lat = tuple(int(v) for v in lattice_point)
        if len(lat) != self.n or sum(lat) != self.m or min(lat) < 0:
            raise KeyError(lat)
        if self.n == 3:
            return int(self._lattice_index(lat[0], lat[1]))
        return lat[0] if self.n == 2 else 0

    def _lattice_index(self, i, j):
        """Row of the n = 3 lattice point (i, j, m - i - j); takes arrays too."""
        return i * (self.m + 1) - i * (i - 1) // 2 + j

    def axis_node_indices(self) -> list[int]:
        """Node index of each unit direction e_i."""
        return [self.node_index(self.m * e) for e in np.eye(self.n, dtype=int)]

    def edge_chains(self) -> list[tuple[np.ndarray, int]]:
        """Node ids along the three boundary edges of an n = 3 grid, each with
        the direction coordinate that increases along it."""
        k = np.arange(self.m + 1)
        ix = self._lattice_index
        return [(ix(k, 0), 0), (ix(0, k), 1), (ix(k, self.m - k), 0)]

    def triangles(self) -> np.ndarray:
        """Node-index triples of the standard triangulation (n = 3 only).

        Per lattice cell (i, j), by i and then j: the upward triangle, then
        the downward one where it exists, both positively oriented.
        """
        if self.n != 3:
            raise ValueError("triangles are defined for n = 3 grids")
        cache = getattr(self, "_tri_cache", None)
        if cache is not None:
            return cache
        i, j = self.lattice[self.lattice[:, 2] > 0, :2].T
        ix = self._lattice_index
        up = np.stack([ix(i, j), ix(i + 1, j), ix(i, j + 1)], axis=1)
        down = np.stack([ix(i + 1, j), ix(i + 1, j + 1), ix(i, j + 1)], axis=1)
        has_down = np.stack([np.ones_like(i, dtype=bool), i + j <= self.m - 2], axis=1)
        cache = np.stack([up, down], axis=1)[has_down]
        object.__setattr__(self, "_tri_cache", cache)
        return cache

    def interpolate(self, values: np.ndarray, directions) -> np.ndarray:
        """Piecewise-linear interpolation of node values at given directions."""
        d = np.asarray(directions, dtype=float)
        single = d.ndim == 1
        d = np.atleast_2d(d)
        if d.shape[1] != self.n:
            raise ValueError(f"directions must have {self.n} coordinates")
        if self.n == 1:
            out = np.full(d.shape[0], float(values[0]))
        elif self.n == 2:
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
        ix = self._lattice_index
        a, b, c = ix(i0, j0), ix(i0 + 1, j0), ix(i0, j0 + 1)
        v0, v1, v2 = values[np.where(lower, [a, b, c], [b, c, ix(i0 + 1, j0 + 1)])]
        return (w[0] * v0 + w[1] * v1) + w[2] * v2


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
    and rebuild the radii on the fixed grid (vertices directly, boundary
    facets as lower-dimensional interpolations, the interior by barycentric
    interpolation in the image triangulation).  Stops when the largest node
    movement drops below ``tol``.  A non-converged surface is returned with
    ``converged=False`` rather than raised.
    """
    n = model.n
    if n not in _DEFAULT_M:
        raise ValueError("surface mode supports n <= 3; use compute_attractor_cloud")
    if m is None:
        m = _DEFAULT_M[n]
    if n > 1 and m < 2:
        raise ValueError("grid resolution m must be >= 2")
    q = model.verified_axial_fixed_points()
    grid = SimplexGrid.build(n, m)

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
    dirs = images / rho[:, None]

    if grid.n == 1:
        return rho.copy()
    if grid.n == 2:
        return _rebuild_1d(grid.nodes[:, 0], dirs[:, 0], rho, grid.m)
    return _rebuild_2d(grid, dirs, rho)


def _rebuild_1d(
    targets: np.ndarray, s_img: np.ndarray, rho: np.ndarray, m: int
) -> np.ndarray:
    """Invert the direction map along one edge and interpolate the radii."""
    if np.any(np.diff(s_img) <= 0.0):
        raise SurfaceDegeneracyError(
            f"direction map not injective at resolution {m}; refine grid"
        )
    return np.interp(targets, s_img, rho)


# Each image triangle is listed in every cell that its bounding box, grown by
# this much, meets: enough for a triangle whose weights round to >= 0 at a
# node to be listed in the node's cell.
_BOX_EPS = 1e-9
_PAIR_CHUNK = 1 << 14  # (node, triangle) pairs per block of the full search


def _rebuild_2d(grid: SimplexGrid, dirs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rebuild the n = 3 radii on the fixed grid from the pushed-forward nodes.

    Boundary edges are one-dimensional subproblems on their own nodes.  An
    interior node interpolates ``rho`` in the image triangle whose smallest
    barycentric weight at the node is largest, the lowest index winning a
    tie.  The search is by cells: each image triangle is listed in the 1/m
    cells its grown bounding box meets, and a node is tested against the
    list of its own cell.  Every triangle that holds the node is on that
    list, so when one of them has all weights >= 0 the pick is the one a
    search over all triangles makes.  A node with no such candidate (one on
    an edge shared by two images, which rounding puts just outside both, as
    under the identity direction map of a planar model) is searched against
    all triangles, in blocks of nodes.
    """
    m = grid.m
    new_radii = np.empty(len(grid))
    for node_ids, axis in grid.edge_chains():
        new_radii[node_ids] = _rebuild_1d(
            grid.nodes[node_ids, axis], dirs[node_ids, axis], rho[node_ids], m
        )

    # interior nodes: barycentric containment in the image triangulation
    interior = np.flatnonzero((grid.lattice > 0).all(axis=1))
    if interior.size == 0:
        return new_radii
    tris = grid.triangles()
    a, b, c = dirs[tris, :2].transpose(1, 0, 2)
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    if np.any(det <= 0.0):
        raise SurfaceDegeneracyError(
            f"direction map not injective at resolution {m}; refine grid"
        )

    targets = grid.nodes[interior][:, :2]
    best, best_min = _best_in_cells(targets, a, b, c, det, m)
    missed = np.flatnonzero(best_min < 0.0)
    step = max(1, _PAIR_CHUNK // det.size)
    for s in range(0, missed.size, step):
        block = missed[s : s + step]
        # with one cell, every triangle is a candidate
        best[block], best_min[block] = _best_in_cells(targets[block], a, b, c, det, 1)
    if np.any(best_min < -1e-9):
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
    pts = radii[:, None] * dirs
    images = model.step(pts)
    rho = images.sum(axis=1)
    if np.any(rho <= 0.0):
        raise ValueError("a surface point mapped to the origin")
    img_dirs = images / rho[:, None]
    gaps = np.abs(surface.radius_at(img_dirs) - rho)
    return float(gaps.max() / surface.q.sum())


@dataclass
class UnorderedResult:
    ok: bool
    worst_margin: float
    pair: tuple[int, int] | None
    points: tuple[np.ndarray, np.ndarray] | None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "worst_margin": self.worst_margin if np.isfinite(self.worst_margin) else None,
            "pair": None
            if self.points is None
            else [self.points[0].tolist(), self.points[1].tolist()],
        }


def unordered_check(surface: RadialSurface) -> UnorderedResult:
    """Exact pairwise comparison of node points: no two may be ordered."""
    return unordered_check_points(surface.points())


def unordered_check_points(X: np.ndarray) -> UnorderedResult:
    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    if N < 2:
        return UnorderedResult(True, -np.inf, None, None)
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
    return UnorderedResult(ok, worst, (a, b), (X[a], X[b]))


def _unordered_bruteforce(X: np.ndarray) -> UnorderedResult:
    N = X.shape[0]
    chunk = max(1, int(2_000_000 // max(1, N)))
    worst = -np.inf
    pair = None
    for start in range(0, N, chunk):
        blk = X[start : start + chunk]
        margins = (blk[:, None, :] - X[None, :, :]).min(axis=2)
        rows = np.arange(start, start + blk.shape[0])
        margins[rows - start, rows] = -np.inf  # exclude self-comparison
        k = int(np.argmax(margins))
        i_loc, j = np.unravel_index(k, margins.shape)
        if margins[i_loc, j] > worst:
            worst = float(margins[i_loc, j])
            pair = (int(start + i_loc), int(j))
    ok = worst < 0.0
    points = None if pair is None else (X[pair[0]], X[pair[1]])
    return UnorderedResult(ok, worst, pair, points)


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
    surface: RadialSurface,
    model: CompetitionModel,
    initial_points,
    steps: int = 400,
    tol: float | None = None,
) -> AsymptoticStats:
    """Trajectories of nonzero starts close onto the surface.

    Records the radial gap |r(dir(x_k)) - |x_k|_1| at half time and at the
    end; a point passes when the final gap is below 10*tol and has not grown
    since half time.  The growth comparison is applied above the grid's
    representation floor: while crossing the surface a trajectory can dip
    below the piecewise-linear interpolation error before settling at it,
    and gaps under that floor are indistinguishable from it.  Escaping the
    box [0, 10 q] fails immediately.
    """
    if tol is None:
        tol = surface.tol
    X = np.atleast_2d(np.asarray(initial_points, dtype=float))
    if np.any(X.sum(axis=1) == 0.0):
        raise ValueError("asymptotic check requires nonzero initial points")
    box = 10.0 * surface.q
    escaped = np.zeros(X.shape[0], dtype=bool)
    gaps_half = np.zeros(X.shape[0])
    half = max(1, steps // 2)
    for k in range(1, steps + 1):
        X = model.step(X)
        escaped |= np.any(X > box, axis=1)
        if k == half:
            gaps_half = _radial_gaps(surface, X)
    gaps_end = _radial_gaps(surface, X)
    floor = discretization_floor(surface)
    ok = (
        not escaped.any()
        and bool(np.all(gaps_end < 10.0 * tol))
        and bool(np.all(gaps_end <= np.maximum(gaps_half, floor) + 1e-15))
    )
    return AsymptoticStats(
        passed=ok,
        gaps_half=gaps_half,
        gaps_end=gaps_end,
        escaped=int(escaped.sum()),
        steps=steps,
        tol=tol,
    )


def _radial_gaps(surface: RadialSurface, X: np.ndarray) -> np.ndarray:
    rho = X.sum(axis=1)
    if np.any(rho == 0.0):
        raise ValueError("a trajectory reached the origin")
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
    difference of the node radii over 8; gaps below this level are not
    resolvable at the grid's resolution.
    """
    if surface.n == 1 or len(surface.grid) < 3:
        return surface.tol
    if surface.n == 2:
        chains = [np.arange(len(surface.grid))]
    else:
        chains = [chain for chain, _ in surface.grid.edge_chains()]
    worst = 0.0
    for chain in chains:
        r = surface.radii[chain]
        if r.size >= 3:
            worst = max(worst, float(np.max(np.abs(np.diff(r, n=2)))))
    return max(surface.tol, worst / 8.0)


def verify_surface(
    surface: RadialSurface,
    model: CompetitionModel,
    samples: int = 1_000,
    starts: int = 100,
    steps: int = 400,
    seed: int = 42,
) -> SurfaceVerification:
    """Run the full defining-property suite against a computed surface.

    The asymptotic gap threshold is the larger of the iteration tolerance
    and the grid's discretization floor: a coarse grid cannot witness gaps
    tighter than its own interpolation error.
    """
    rng = np.random.default_rng(seed)
    asymptotic_tol = discretization_floor(surface)
    residual = invariance_residual(surface, model, samples=samples, seed=seed)
    unordered = unordered_check(surface)
    lows = 0.05 * surface.q
    starts_arr = lows + rng.random((starts, surface.n)) * (1.45 * surface.q)
    asym = asymptotic_check(surface, model, starts_arr, steps=steps, tol=asymptotic_tol)
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
    model: CompetitionModel,
    n_points: int = 10_000,
    steps: int = 200,
    seed: int = 42,
) -> np.ndarray:
    """Iterate random seeds toward the attractor; no surface reconstruction."""
    rng = np.random.default_rng(seed)
    q = model.verified_axial_fixed_points()
    X = (0.05 + 1.45 * rng.random((n_points, model.n))) * q
    for _ in range(steps):
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
    burn_in: int | None = None,
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
    if burn_in is None:
        burn_in = max(0, steps - record)
    keep = min(record, steps - burn_in) if steps > burn_in else 0

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


def write_surface_csv(surface: RadialSurface, path) -> None:
    n = surface.n
    header = (
        [f"d_{i + 1}" for i in range(n)] + ["r"] + [f"x_{i + 1}" for i in range(n)]
    )
    pts = surface.points()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(surface.grid)):
            row = (
                list(surface.grid.nodes[k])
                + [surface.radii[k]]
                + list(pts[k])
            )
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_cloud_csv(points: np.ndarray, path) -> None:
    n = points.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"x_{i + 1}" for i in range(n)) + "\n")
        for row in points:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_sweep_csv(results: list[SweepPoint], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("b,class,attractor_points\n")
        for res in results:
            cells = [format(res.b, ".17g"), res.classification]
            cells += [format(v, ".17g") for v in np.atleast_1d(res.points)]
            fh.write(",".join(cells) + "\n")
