import cmath
import math

import numpy as np
import pytest

from hkforge.lattice import Spectrum, charge
from hkforge.models import pentagon_wall_point
from hkforge.semiflat import ModelPoint, xsf
from hkforge.solver import (GridSpec, NonConvergenceError, RayProximityError,
                            RSmallError, build_grids, check_wall_continuity,
                            correction_decay, evaluate, iterate,
                            midsector_zetas, on_ray_value, radial_limit,
                            ray_jump_defect, side_limit, solve, upsilon)

G1, G2 = charge(1, 0), charge(0, 1)

EMPTY_SPECTRUM = Spectrum(lambda g, u: 0, lambda u: ())


class TestGrids:
    def test_tail_bound(self, ov, ov_point):
        spec = GridSpec()
        for grid in build_grids(ov, ov_point, spec):
            tail = math.exp(-2 * math.pi * ov_point.R * grid.ray.min_abs_z()
                            * math.cosh(grid.s_max))
            assert tail < spec.eps_quad

    def test_s_max_near_stated_formula(self, ov, ov_point):
        # s_max solves the tail inequality; the safety margin only widens it
        base = math.acosh(-math.log(1e-12) / (2 * math.pi * 0.5))
        grid = build_grids(ov, ov_point)[0]
        assert base < grid.s_max < base + 0.5

    def test_node_layout(self, ov, ov_point):
        grid = build_grids(ov, ov_point)[0]
        assert grid.node_count == 256
        assert np.all(grid.weights > 0)
        assert np.allclose(grid.s_nodes, -grid.s_nodes[::-1])

    def test_no_active_charges(self, ov, ov_point):
        assert build_grids(ov.with_spectrum(EMPTY_SPECTRUM), ov_point) == []

    def test_r_too_small(self, pentagon):
        with pytest.raises(RSmallError):
            build_grids(pentagon, ModelPoint(0.0, 0.01, (0.3, 1.1)))


class TestIteration:
    def test_ov_single_step(self, ov, ov_solution):
        assert ov_solution.iterations == 1
        assert ov_solution.residual == 0.0
        for ups in ov_solution.upsilon:
            for vals in ups.values():
                assert np.all(vals == 0.0)

    def test_ov_electric_equals_semiflat(self, ov, ov_point, ov_solution):
        zeta = 0.9 * cmath.exp(1.3j)
        got = evaluate(ov, ov_solution, G2, zeta)
        want = xsf(ov, ov_point, G2, zeta)
        assert upsilon(ov, ov_solution, G2, zeta) == 0.0
        assert got.value == pytest.approx(want.value, rel=1e-14)

    def test_pentagon_convergence(self, pentagon):
        point = ModelPoint(0.0, 2.0, (0.37, 1.29))
        sol = solve(pentagon, point)
        assert sol.iterations <= 20
        assert sol.residual < 1e-10
        min_z = min(g.ray.min_abs_z() for g in sol.grids)
        scale = math.exp(-2 * math.pi * point.R * min_z)
        assert 0.01 * scale < sol.max_correction() < 10 * scale

    def test_fixed_point_recheck(self, pentagon_solution):
        assert pentagon_solution.recheck_residual \
            < 10 * pentagon_solution.tol_iter

    def test_zero_spectrum_identity(self, ov, ov_point):
        mdl = ov.with_spectrum(EMPTY_SPECTRUM)
        sol = solve(mdl, ov_point)
        zeta = 0.8 * cmath.exp(0.4j)
        assert evaluate(mdl, sol, G1, zeta).value \
            == pytest.approx(xsf(mdl, ov_point, G1, zeta).value, rel=1e-14)

    def test_non_convergence_error(self, pentagon):
        with pytest.raises(NonConvergenceError):
            iterate(pentagon, ModelPoint(1.7, 0.5, (0.37, 1.29)),
                    max_iter=1)

    def test_warm_start(self, pentagon, pentagon_point, pentagon_solution):
        sol = solve(pentagon, pentagon_point, tol_iter=1e-12,
                    warm=pentagon_solution)
        assert sol.iterations <= 2


class TestEvaluation:
    def test_far_correction_bound(self, pentagon, pentagon_point,
                                  pentagon_solution):
        min_z = min(g.ray.min_abs_z() for g in pentagon_solution.grids)
        bound = 10 * math.exp(-2 * math.pi * pentagon_point.R * min_z)
        for zeta in midsector_zetas(pentagon_solution, 6):
            for gamma in (G1, G2):
                ups = upsilon(pentagon, pentagon_solution, gamma, zeta)
                assert abs(ups) < bound

    def test_reality(self, pentagon, pentagon_solution):
        rng = np.random.default_rng(3)
        for _ in range(6):
            zeta = (0.5 + rng.random()) * cmath.exp(1j * rng.uniform(0.3, 1.0))
            for gamma in (G1, G2, G1 + G2):
                lhs = evaluate(pentagon, pentagon_solution, gamma,
                               -1 / np.conj(zeta)).value
                rhs = np.conj(evaluate(pentagon, pentagon_solution, -gamma,
                                       zeta).value)
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_radial_limit_real(self, pentagon, pentagon_solution):
        angles = [g.ray.angle for g in pentagon_solution.grids]
        direction = cmath.exp(1j * (angles[0] + 0.5 * (angles[1] - angles[0])))
        for gamma in (G1, G2):
            lim = radial_limit(pentagon, pentagon_solution, gamma, direction)
            assert abs(lim.imag) < 1e-8
            assert abs(lim) > 0.5

    def test_ray_proximity_raises(self, pentagon, pentagon_solution):
        # a charge pairing with the ray charge jumps there, so the
        # undirected evaluation must refuse; the ray's own charge is
        # continuous across it and evaluates fine
        grid = pentagon_solution.grids[0]
        zeta = grid.ray.direction * cmath.exp(1e-5j)
        jumping = G2 if pentagon.lattice.pair(G2, grid.ray.charges[0]) \
            else G1
        with pytest.raises(RayProximityError):
            evaluate(pentagon, pentagon_solution, jumping, zeta)
        evaluate(pentagon, pentagon_solution, grid.ray.charges[0], zeta)

    def test_quadrature_self_convergence(self, ov, ov_point):
        zeta = 0.75 * cmath.exp(0.8j)
        vals = []
        for nodes in (16, 32):
            spec = GridSpec(nodes_per_panel=nodes)
            sol = solve(ov, ov_point, spec=spec)
            vals.append(upsilon(ov, sol, G1, zeta))
        assert abs(vals[1] - vals[0]) < 10 * GridSpec().eps_quad


class TestFrozenContours:
    @pytest.mark.parametrize("u, R", [(0.45 + 0.25j, 3.0), (1.5 + 0.2j, 2.0),
                                      (0.6 + 0.3j, 1.0)])
    def test_displaced_point_on_center_grids(self, pentagon, u, R):
        # rotating a ray contour onto the centre's ray is a Cauchy
        # deformation: a displaced point solved on the centre's grids
        # matches its own solve to quadrature precision
        center = solve(pentagon, ModelPoint(u, R, (0.37, 1.29)))
        zetas = midsector_zetas(center, 8)
        for du in (1e-4, 1e-3j, 1e-2):
            point = ModelPoint(u + du, R, (0.37, 1.29))
            frozen = iterate(pentagon, point, grids=center.grids)
            own = solve(pentagon, point)
            for zeta in zetas:
                for gamma in (G1, G2):
                    assert abs(upsilon(pentagon, frozen, gamma, zeta)
                               - upsilon(pentagon, own, gamma, zeta)) <= 1e-14


class TestJumps:
    def test_jumps_match_transformation(self, pentagon, pentagon_solution):
        for i in range(len(pentagon_solution.grids)):
            assert ray_jump_defect(pentagon, pentagon_solution, i) < 1e-7
            assert ray_jump_defect(pentagon, pentagon_solution, i,
                                   use_richardson=False) < 1e-12

    def test_ov_magnetic_jump_factor(self, ov, ov_solution):
        # across the electric ray the magnetic coordinate jumps by
        # (1 - X_e)^(<e, m> Omega); the electric one does not jump at all
        for i in range(2):
            assert ray_jump_defect(ov, ov_solution, i) < 1e-7

    def test_own_charge_continuous(self, pentagon, pentagon_solution):
        grid = pentagon_solution.grids[0]
        gamma = grid.ray.charges[0]
        a = on_ray_value(pentagon, pentagon_solution, gamma,
                         grid.ray.direction, +1)
        b = on_ray_value(pentagon, pentagon_solution, gamma,
                         grid.ray.direction, -1)
        assert abs(a.value - b.value) <= 1e-13 * abs(a.value)

    def test_side_limit_matches_exact(self, ov, ov_solution):
        zeta0 = ov_solution.grids[0].ray.direction
        for side in (+1, -1):
            rich = side_limit(ov, ov_solution, G1, zeta0, side)
            exact = on_ray_value(ov, ov_solution, G1, zeta0, side)
            assert abs(rich.value - exact.value) < 1e-8 * abs(exact.value)

    @pytest.mark.parametrize("phi", [0.9, -0.8])
    def test_jumps_with_near_aligned_rays(self, pentagon, phi):
        # past the wall the bound-state ray lies within NEAR_ANGLE of a ray
        # it pairs with; the continuation to one ray's pole then sits on
        # the other ray and must take the side facing the integration ray
        point = ModelPoint(1.2 * pentagon_wall_point(pentagon, phi), 1.0,
                           (0.37, 1.29))
        sol = solve(pentagon, point)
        angles = sorted(g.ray.angle for g in sol.grids)
        assert min(b - a for a, b in zip(angles, angles[1:])) < 0.2
        for i in range(len(sol.grids)):
            assert ray_jump_defect(pentagon, sol, i) < 1e-7
            assert ray_jump_defect(pentagon, sol, i,
                                   use_richardson=False) < 1e-12

    def test_upsilon_reality_on_rays(self, pentagon, pentagon_solution):
        # the converged node data of opposite rays are complex conjugates
        # under s -> -s, which is the reality condition on the solution
        sols = pentagon_solution
        by_charge = {}
        for grid, ups in zip(sols.grids, sols.upsilon):
            for gamma, vals in ups.items():
                by_charge[gamma] = vals
        for gamma, vals in by_charge.items():
            mirrored = np.conj(by_charge[-gamma][::-1])
            assert np.max(np.abs(vals - mirrored)) < 1e-12


class TestDecay:
    def test_slope_against_min_z(self, pentagon):
        report = correction_decay(pentagon, 1.2, (0.37, 1.29),
                                  [1.0, 2.0, 3.0], n_angles=8)
        assert report.relative_error < 0.02


class TestWallContinuity:
    def test_linear_scaling_and_control(self, pentagon):
        w = pentagon_wall_point(pentagon, 0.9)
        u_in, u_out = 0.98 * w, 1.02 * w
        probe = solve(pentagon, ModelPoint(u_in, 0.35, (0.37, 1.29)))
        zetas = midsector_zetas(probe, 3)
        report = check_wall_continuity(pentagon, u_in, u_out, 0.35,
                                       (0.37, 1.29), zetas, halvings=2)
        assert report.min_order() > 0.9
        support_in = pentagon.spectrum.support(u_in)
        frozen = Spectrum(lambda g, u: 1 if g in support_in else 0,
                          lambda u: support_in)
        control = check_wall_continuity(pentagon, u_in, u_out, 0.35,
                                        (0.37, 1.29), zetas, halvings=2,
                                        spectrum_override=frozen)
        assert control.min_order() < 0.9
        assert control.discrepancies[-1] > 0.2 * control.discrepancies[0]

    def test_same_chamber_control_pair(self, pentagon):
        # smoothness inside one chamber gives the same linear scaling
        w = pentagon_wall_point(pentagon, 0.9)
        u_a, u_b = 0.90 * w, 0.94 * w
        probe = solve(pentagon, ModelPoint(u_a, 0.35, (0.37, 1.29)))
        zetas = midsector_zetas(probe, 3)
        report = check_wall_continuity(pentagon, u_a, u_b, 0.35,
                                       (0.37, 1.29), zetas, halvings=2)
        assert report.min_order() > 0.9
