import dataclasses

import numpy as np
import pytest

from carrysim.models import LeslieGowerModel, MayOsterModel
from carrysim.simplex import (
    AsymptoticStats,
    RadialSurface,
    SurfaceVerification,
    UnorderedResult,
    SimplexGrid,
    asymptotic_check,
    compute_attractor_cloud,
    compute_carrying_simplex,
    discretization_floor,
    invariance_residual,
    sweep_1d,
    unordered_check,
    unordered_check_points,
    verify_surface,
    write_surface_csv,
    write_sweep_csv,
)


class TestSimplexGrid:
    def test_build_2d(self):
        g = SimplexGrid.build(2, 4)
        assert len(g) == 5
        assert np.allclose(g.nodes.sum(axis=1), 1.0)
        assert g.axis_node_indices() == [4, 0]

    def test_build_3d(self):
        g = SimplexGrid.build(3, 6)
        assert len(g) == 7 * 8 // 2
        assert np.all(g.lattice.sum(axis=1) == 6)
        tris = g.triangles()
        assert tris.shape == (36, 3)  # m^2 triangles

    def test_interpolation_exact_on_linear(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            g = SimplexGrid.build(n, 12)
            coeff = rng.random(n)
            vals = g.nodes @ coeff
            dirs = rng.dirichlet(np.ones(n), 500)
            assert np.allclose(g.interpolate(vals, dirs), dirs @ coeff, atol=1e-13)

    def test_interpolation_at_nodes(self):
        g = SimplexGrid.build(3, 8)
        vals = np.arange(len(g), dtype=float)
        for k in (0, 5, len(g) - 1):
            assert g.interpolate(vals, g.nodes[k]) == pytest.approx(vals[k], abs=1e-11)


class TestComputeSurface:
    def test_scalar_carrying_point(self, may1):
        s = compute_carrying_simplex(may1, tol=1e-10)
        assert s.converged
        assert s.radii[0] == pytest.approx(0.5, abs=1e-9)

    def test_may_2d_endpoints(self, may2):
        s = compute_carrying_simplex(may2, m=64, tol=1e-10)
        assert s.converged
        assert np.all(np.abs(s.axis_radii() - [0.5, 0.4]) < 1e-8)
        assert unordered_check(s).ok

    def test_uncoupled_product_fixed_point(self):
        model = MayOsterModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        s = compute_carrying_simplex(model, m=64, tol=1e-12)
        mid = s.grid.node_index((32, 32))
        # the symmetric ray passes through the product fixed point (0.5, 0.5)
        assert s.radii[mid] == pytest.approx(1.0, abs=1e-10)

    def test_monotone_descent_after_first_sweep(self, may2):
        s = compute_carrying_simplex(may2, m=64, tol=1e-10)
        assert s.descent_violations == 0

    def test_facet_consistency_with_scalar_models(self, may2):
        s2 = compute_carrying_simplex(may2, m=32, tol=1e-10)
        for i in range(2):
            axis_model = MayOsterModel([may2.B[i]], [[may2.A[i, i]]])
            s1 = compute_carrying_simplex(axis_model, tol=1e-10)
            assert abs(s2.axis_radii()[i] - s1.radii[0]) < 10 * s2.tol

    def test_flat_simplex_is_exact(self):
        # identical rows make every point of {sum x = b/a} a fixed point, so
        # the radial graph is constant and the grid represents it exactly
        model = MayOsterModel([0.5, 0.5, 0.5], np.ones((3, 3)))
        s = compute_carrying_simplex(model, m=8, tol=1e-12)
        assert s.converged
        assert np.all(np.abs(s.radii - 0.5) < 1e-10)

    def test_3d_converges_and_verifies(self):
        model = MayOsterModel(
            [0.4, 0.35, 0.3], [[1, 0.25, 0.25], [0.25, 1, 0.25], [0.25, 0.25, 1]]
        )
        s = compute_carrying_simplex(model, m=16, tol=1e-9)
        assert s.converged
        assert np.all(np.abs(s.axis_radii() - s.q) < 1e-7)
        assert unordered_check(s).ok
        assert invariance_residual(s, model, samples=400, seed=3) < 0.05

    def test_3d_weak_coupling_needs_resolution(self):
        # near an axial vertex the carrying surface leaves with a slope of
        # order the cross-coupling; the grid must resolve that margin before
        # the exact unordered comparison can see it
        model = MayOsterModel(
            [0.4, 0.35, 0.3], [[1, 0.1, 0.1], [0.1, 1, 0.1], [0.1, 0.1, 1]]
        )
        s = compute_carrying_simplex(model, m=32, tol=1e-9)
        assert unordered_check(s).ok

    def test_refinement_stability_flat(self):
        # identical rows: the carrying simplex is the exactly-representable
        # plane sum(x) = 0.5, so refinement changes nothing beyond tol
        model = MayOsterModel([0.5, 0.5], np.ones((2, 2)))
        tol = 1e-10
        s1 = compute_carrying_simplex(model, m=16, tol=tol)
        s2 = compute_carrying_simplex(model, m=32, tol=tol)
        common = s1.grid.nodes
        assert np.max(np.abs(s2.radius_at(common) - s1.radii)) < 5 * tol

    def test_refinement_stability_tracks_floor(self, may2):
        # for curved surfaces the change under refinement is bounded by the
        # coarser grid's interpolation floor, not by the iteration tolerance
        s1 = compute_carrying_simplex(may2, m=256, tol=1e-10)
        s2 = compute_carrying_simplex(may2, m=512, tol=1e-10)
        change = np.max(np.abs(s2.radius_at(s1.grid.nodes) - s1.radii))
        assert change < 10 * discretization_floor(s1)

    def test_rejects_high_dimension(self):
        model = MayOsterModel([0.3] * 4, np.eye(4) + 0.01)
        with pytest.raises(ValueError, match="n <= 3"):
            compute_carrying_simplex(model)


class TestInvariance:
    def test_scalar_residual_zero(self, may1):
        s = compute_carrying_simplex(may1, tol=1e-12)
        assert invariance_residual(s, may1, samples=50, seed=1) < 1e-11

    def test_residual_shrinks_with_resolution(self, may2):
        coarse = compute_carrying_simplex(may2, m=64, tol=1e-10)
        fine = compute_carrying_simplex(may2, m=1024, tol=1e-10)
        r_coarse = invariance_residual(coarse, may2, samples=500, seed=2)
        r_fine = invariance_residual(fine, may2, samples=500, seed=2)
        assert r_fine < r_coarse / 50

    def test_perturbation_is_detected(self, may2):
        s = compute_carrying_simplex(may2, m=64, tol=1e-10)
        bumped = RadialSurface(
            grid=s.grid,
            radii=s.radii.copy(),
            q=s.q,
            tol=s.tol,
            iterations=s.iterations,
            final_delta=s.final_delta,
            converged=s.converged,
            max_iter=s.max_iter,
        )
        bumped.radii[32] += 0.1
        assert invariance_residual(bumped, may2, samples=500, seed=2) > 0.01


class TestUnordered:
    def test_constant_radius_simplex_is_unordered(self):
        g = SimplexGrid.build(2, 16)
        s = RadialSurface(
            grid=g, radii=np.full(len(g), 0.7), q=np.array([0.7, 0.7]),
            tol=1e-10, iterations=1, final_delta=0.0, converged=True, max_iter=1,
        )
        assert unordered_check(s).ok

    def test_explicit_ordered_pair_fails(self):
        res = unordered_check_points(
            np.array([[0.6, 0.1], [0.5, 0.05], [0.1, 0.9]])
        )
        assert not res.ok
        assert {tuple(res.points[0]), tuple(res.points[1])} == {
            (0.6, 0.1),
            (0.5, 0.05),
        }

    def test_tied_coordinate_is_ordered(self):
        res = unordered_check_points(np.array([[0.5, 0.1], [0.5, 0.3]]))
        assert not res.ok

    def test_bruteforce_matches_sorted_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pts = rng.random((40, 2))
            fast = unordered_check_points(pts)
            slow = unordered_check_points(np.c_[pts, np.zeros(40)][:, [0, 1, 2]])
            # embedding in 3-d with a zero coordinate preserves orderedness
            assert fast.ok == slow.ok

    def test_3d_brute_force(self):
        pts = np.array([[0.5, 0.1, 0.2], [0.4, 0.05, 0.1], [0.1, 0.8, 0.05]])
        res = unordered_check_points(pts)
        assert not res.ok


class TestAsymptotic:
    def test_scalar_convergence(self, may1):
        s = compute_carrying_simplex(may1, tol=1e-12)
        stats = asymptotic_check(s, may1, np.array([[2.0]]), steps=200)
        assert stats.passed
        assert stats.gaps_end.max() < 1e-11

    def test_point_on_surface_stays(self, may2):
        s = compute_carrying_simplex(may2, m=2048, tol=1e-10)
        start = s.points()[1024][None, :]
        stats = asymptotic_check(s, may2, start, steps=100, tol=1e-6)
        assert stats.passed

    def test_random_starts_close_onto_surface(self, may2):
        s = compute_carrying_simplex(may2, m=4096, tol=1e-10)
        rng = np.random.default_rng(12)
        starts = 0.05 * s.q + rng.random((50, 2)) * 1.45 * s.q
        stats = asymptotic_check(s, may2, starts, steps=300, tol=2e-7)
        assert stats.passed
        assert stats.escaped == 0

    def test_rejects_zero_start(self, may2):
        s = compute_carrying_simplex(may2, m=16, tol=1e-8)
        with pytest.raises(ValueError, match="nonzero"):
            asymptotic_check(s, may2, np.zeros((1, 2)), steps=10)

    def test_verify_surface_bundle(self, lg2):
        s = compute_carrying_simplex(lg2, m=512, tol=1e-10)
        report = verify_surface(s, lg2, samples=300, starts=30, steps=200, seed=5)
        assert report.unordered.ok
        assert report.asymptotic.passed
        assert report.all_ok
        d = report.to_dict()
        assert set(d) == {
            "invariance_residual", "unordered", "asymptotic", "axial_errors", "seed",
        }


    def test_axial_error_beyond_ten_tol_is_not_all_ok(self):
        asymptotic = AsymptoticStats(
            passed=True, gaps_half=np.zeros(3), gaps_end=np.zeros(3), escaped=0, steps=10,
            tol=1e-6,
        )  # fmt: skip
        verified = SurfaceVerification(
            invariance=0.0,
            unordered=UnorderedResult(True, -0.1, None, None),
            asymptotic=asymptotic,
            axial_errors=np.array([0.0, 9e-6]),
            seed=1,
        )
        assert verified.all_ok
        assert not dataclasses.replace(verified, axial_errors=np.array([0.0, 1.1e-5])).all_ok


class TestPointCloud:
    def test_cloud_lands_near_attractor(self):
        model = MayOsterModel(
            [0.4, 0.35, 0.3, 0.25],
            np.eye(4) + 0.05 * (np.ones((4, 4)) - np.eye(4)),
        )
        cloud = compute_attractor_cloud(model, n_points=400, steps=150, seed=0)
        assert cloud.shape == (400, 4)
        q = model.axial_fixed_points()
        assert np.all(cloud <= 1.1 * q)
        assert np.all(cloud.sum(axis=1) > 0)


class TestSweep:
    def test_subcritical_converges(self):
        (res,) = sweep_1d(1.0, 0.5, 0.5, b_count=1, steps=1000)
        assert res.classification == "converges"
        assert res.points[0] == pytest.approx(0.5, abs=1e-12)

    def test_locally_attracting_midrange(self):
        (res,) = sweep_1d(1.0, 1.5, 1.5, b_count=1, steps=1000)
        assert res.classification == "converges"

    def test_supercritical_two_cycle(self):
        (res,) = sweep_1d(1.0, 2.5, 2.5, b_count=1, steps=1000)
        assert res.classification == "periodic"
        assert len(res.points) == 2
        # the 2-cycle of x e^{2.5 - x} maps onto itself
        a, b = sorted(res.points)
        assert a * np.exp(2.5 - a) == pytest.approx(b, rel=1e-6)

    def test_chaotic_range_does_not_converge(self):
        (res,) = sweep_1d(1.0, 3.2, 3.2, b_count=1, steps=2000)
        assert res.classification in ("periodic", "non-convergent")
        assert res.classification != "converges"

    def test_scaling_in_a(self):
        (res,) = sweep_1d(2.0, 0.8, 0.8, b_count=1, steps=1000)
        assert res.classification == "converges"
        assert res.points[0] == pytest.approx(0.4, abs=1e-12)

    def test_grid_spacing(self):
        results = sweep_1d(1.0, 0.5, 1.0, b_count=6, steps=400)
        assert [round(r.b, 10) for r in results] == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sweep_1d(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            sweep_1d(1.0, -0.5, 1.0)


class TestOutputFiles:
    def test_surface_csv_roundtrip(self, may2, tmp_path):
        s = compute_carrying_simplex(may2, m=16, tol=1e-9)
        path = tmp_path / "surface.csv"
        write_surface_csv(s, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape[0] == len(s.grid)
        assert np.allclose(data["r"], s.radii, atol=0)  # 17 digits round-trip
        assert np.allclose(data["x_1"], s.points()[:, 0], atol=0)

    def test_sweep_csv(self, tmp_path):
        results = sweep_1d(1.0, 0.5, 2.5, b_count=3, steps=600)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(results, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "b,class,attractor_points"
        assert len(lines) == 4
        assert lines[1].startswith("0.5,converges,")
