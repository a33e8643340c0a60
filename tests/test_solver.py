import cmath
import dataclasses
import math
import re
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge import solver
from hkforge.lattice import Lattice, Spectrum, charge
from hkforge.models import ov_oracle, pentagon_wall_point
from hkforge.semiflat import ModelPoint, xsf, xsf_laurent_rows, xsf_log
from hkforge.solver import (GridSpec, NonConvergenceError,
                            QuadratureGrid, RayProximityError, RSmallError,
                            _apply, _coefficients, _gl_panels, _prepare,
                            _upsilon_value,
                            build_grids, check_wall_continuity,
                            correction_decay, evaluate, iterate,
                            legendre_tail, log_one_minus,
                            midsector_zetas, radial_limit, ray_integrals,
                            ray_jump_defect, solve, solve_tangents,
                            unknowns, upsilon, zeta_zero_moments)
from reference import (cauchy_integral, kernel_rows, pairing_coefficients,
                       richardson_side_limit, unfolded_ray_integrals)

G1, G2 = charge(1, 0), charge(0, 1)

EMPTY_SPECTRUM = Spectrum(lambda g, u: 0, lambda u: ())


def _fixed_grids(model, point, panels):
    """The point's rays and s_max with ``panels`` equal panels forced: a
    reference layout that ``build_grids`` would not choose by itself."""
    out = []
    for grid in build_grids(model, point):
        s_nodes, weights = _gl_panels(grid.s_max, panels,
                                      grid.nodes_per_panel)
        out.append(QuadratureGrid(ray=grid.ray, s_nodes=s_nodes,
                                  weights=weights, s_max=grid.s_max,
                                  nodes_per_panel=grid.nodes_per_panel))
    return out


def _wall_point(pentagon, factor, phi, R):
    return ModelPoint(factor * pentagon_wall_point(pentagon, phi), R,
                      (0.37, 1.29))


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
        # equal panels of the spec's rule, at most spec.panels of them, on
        # which the semiflat density's Legendre tail is below eps_quad / 10
        spec = GridSpec()
        n = spec.nodes_per_panel
        for grid in build_grids(ov, ov_point, spec):
            p = grid.panels
            assert grid.node_count == p * n and p <= spec.panels
            edges = np.linspace(-grid.s_max, grid.s_max, p + 1)
            nodes = grid.s_nodes.reshape(p, n)
            assert np.all((nodes > edges[:-1, None])
                          & (nodes < edges[1:, None]))
            assert np.allclose(grid.weights.reshape(p, n).sum(axis=1),
                               2 * grid.s_max / p)
            assert np.all(grid.weights > 0)
            assert np.allclose(grid.s_nodes, -grid.s_nodes[::-1])
            for g in grid.ray.charges:
                density = np.log(1 - np.exp(xsf_log(ov, ov_point, g,
                                                    grid.zeta_nodes)))
                assert legendre_tail(density, n) <= spec.eps_quad / 10

    def test_panels_is_a_bound(self, pentagon, pentagon_point):
        # one layout per solve, never above GridSpec.panels; a larger bound
        # does not force more panels than the tail needs
        for bound in (1, 3, 16, 64):
            grids = build_grids(pentagon, pentagon_point,
                                GridSpec(panels=bound))
            counts = {g.panels for g in grids}
            assert len(counts) == 1 and counts.pop() <= min(bound, 16)

    def test_no_active_charges(self, ov, ov_point):
        assert build_grids(ov.with_spectrum(EMPTY_SPECTRUM), ov_point) == []

    def test_r_too_small(self, pentagon):
        with pytest.raises(RSmallError):
            build_grids(pentagon, ModelPoint(0.0, 0.01, (0.3, 1.1)))


class TestIteration:
    def test_ov_single_step(self, ov, ov_solution):
        assert ov_solution.iterations == 1
        assert ov_solution.residual == 0.0
        assert np.all(ov_solution.upsilon == 0.0)

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
            solve(pentagon, ModelPoint(1.7, 0.5, (0.37, 1.29)), max_iter=1)

    def test_sweep_refuses_data_off_the_log_domain(self, pentagon,
                                                   pentagon_point):
        # |X| = 1.5 at one node lies outside the domain of log(1 - X),
        # where the principal branch would return finite values: the sweep
        # refuses, and the semiflat data themselves sweep
        grids = build_grids(pentagon, pentagon_point)
        ws = _prepare(pentagon, pentagon_point, grids)
        log_xsf = solver.semiflat_nodes(pentagon, pentagon_point, grids)
        ups = np.zeros_like(log_xsf)
        assert np.all(np.isfinite(solver._sweep(ws, log_xsf, ups)))
        ups[0, 7] = math.log(1.5) - log_xsf[0, 7].real
        with pytest.raises(RSmallError, match="left the log"):
            solver._sweep(ws, log_xsf, ups)


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

    @settings(max_examples=30, derandomize=True, deadline=None,
              database=None)
    @given(data=st.data())
    def test_reality_property(self, pentagon, pentagon_solution, ov,
                              ov_solution, data):
        # X_gamma(-1/conj zeta) = conj X_{-gamma}(zeta), criterion 4b's
        # tolerance, anywhere the undirected evaluation is allowed
        model, sol = data.draw(st.sampled_from(
            [(pentagon, pentagon_solution), (ov, ov_solution)]))
        zetas, _ = data.draw(_zeta_batch(sol.grids, directed=False))
        gamma = data.draw(st.sampled_from([G1, G2, G1 + G2]))
        for zeta in zetas:
            lhs = evaluate(model, sol, gamma, -1 / np.conj(zeta)).value
            rhs = np.conj(evaluate(model, sol, -gamma, zeta).value)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

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


@pytest.fixture(scope="module")
def densities(pentagon, pentagon_point, ov, ov_point, pentagon_solution,
              ov_solution):
    """(model, grids, density) for log(1 - X) and tangent densities."""
    out = []
    for model, point, sol in [(pentagon, pentagon_point, pentagon_solution),
                              (ov, ov_point, ov_solution)]:
        center, tangents = solve_tangents(model, point)
        out += [(model, sol.grids, sol.log_one_minus_x),
                (model, center.grids, tangents)]
    return out


@st.composite
def _zeta_batch(draw, grids, directed=None):
    """1-16 zetas at moduli 0.3-3: off-ray ones at least 1e-3 rad from
    every ray, log-uniform in their offset so that both the near zones and
    the mid-sectors are hit, and possibly (unless ``directed`` is False)
    directed on-ray ones."""
    angles = sorted(g.ray.angle for g in grids)
    gaps = np.diff(angles + [angles[0] + 2 * math.pi])
    if directed is None:
        directed = draw(st.booleans())
    zetas = []
    for _ in range(draw(st.integers(1, 16))):
        k = draw(st.integers(0, len(angles) - 1))
        modulus = draw(st.floats(0.3, 3.0))
        if directed and draw(st.booleans()):
            zetas.append(modulus * cmath.exp(1j * angles[k]))
            continue
        offset = math.exp(draw(st.floats(math.log(1.01e-3),
                                         math.log(0.5 * gaps[k]))))
        sign = draw(st.sampled_from([+1, -1]))
        base = angles[k] if sign > 0 else angles[k] + gaps[k]
        zetas.append(modulus * cmath.exp(1j * (base + sign * offset)))
    side = draw(st.sampled_from([+1, -1])) if directed else None
    return np.array(zetas), side


class TestBatchedEvaluation:
    @settings(max_examples=40, derandomize=True, deadline=None,
              database=None)
    @given(data=st.data())
    def test_batched_equals_one_zeta(self, densities, data):
        model, grids, density = data.draw(st.sampled_from(densities))
        zetas, side = data.draw(_zeta_batch(grids))
        kw = dict(side=side) if side else {}
        charges = model.lattice.basis()
        batched = _upsilon_value(model, grids, density, charges, zetas, **kw)
        alone = np.stack([_upsilon_value(model, grids, density, charges,
                                         complex(z), **kw) for z in zetas],
                         axis=-2)
        leading = density.shape[:-2]
        assert batched.shape == alone.shape == leading + (len(zetas), 2)
        assert np.all(np.abs(batched - alone)
                      <= 1e-15 * (1.0 + np.abs(alone)))

    def test_shape_without_contributing_ray(self, densities):
        # the OV electric charge pairs to zero with the only ray charges
        for model, grids, density in densities[2:]:
            leading = density.shape[:-2]
            zetas = np.array(midsector_zetas(grids, 3))
            for zeta, shape in [(zetas, (3, 1)), (zetas[0], (1,))]:
                got = _upsilon_value(model, grids, density, [G2], zeta)
                assert got.shape == leading + shape
                assert not got.any()

    def test_error_names_the_zeta_on_a_ray(self, pentagon_solution,
                                           pentagon):
        grids = pentagon_solution.grids
        on_ray = 2.0 * grids[1].ray.direction
        zetas = np.array([midsector_zetas(grids, 1)[0], on_ray])
        with pytest.raises(RayProximityError, match=re.escape(str(on_ray))):
            _upsilon_value(pentagon, grids, pentagon_solution.log_one_minus_x,
                           [G1, G2], zetas)


def _near_and_far_zetas(grids):
    """Zetas off every ray at moduli 0.7 and 1.6: each sector's midpoint
    and, on both sides of each ray, offsets of 0.9, 0.3 and 0.05 near
    angles, each at most half the gap to the neighbouring ray and at least
    1.5e-3 rad."""
    angles = sorted(g.ray.angle for g in grids)
    gaps = np.diff(angles + [angles[0] + 2 * math.pi])
    near = grids[0].near_angle
    turns = [a + 0.5 * gap for a, gap in zip(angles, gaps)]
    for k, a in enumerate(angles):
        for sign, gap in ((+1, gaps[k]), (-1, gaps[k - 1])):
            turns += [a + sign * off for off in {
                min(frac * near, 0.5 * gap) for frac in (0.9, 0.3, 0.05)}
                if off >= 1.5e-3]
    return np.array([m * cmath.exp(1j * t) for t in turns
                     for m in (0.7, 1.6)])


class TestFoldedEvaluation:
    @pytest.mark.parametrize("case", ["conftest", "1.02x0.9", "ov"])
    def test_matches_unfolded_reference(self, pentagon, pentagon_point, ov,
                                        ov_point, case):
        # one folded row array per call against per-ray kernels and gathers:
        # far and near poles, directed on-ray ones (two of them over nodes),
        # log(1 - X) and the (4, U, N) tangents, many zetas per call; leaving
        # out one ray's gather must show
        model, point = {"conftest": (pentagon, pentagon_point),
                        "1.02x0.9": (pentagon,
                                     _wall_point(pentagon, 1.02, 0.9, 0.35)),
                        "ov": (ov, ov_point)}[case]
        sol, tangents = solve_tangents(model, point)
        grids = sol.grids
        rays = [r for r, _ in unknowns(grids)]
        coefs = pairing_coefficients(model, grids, model.lattice.basis())
        off = _near_and_far_zetas(grids)
        on = np.array([grid.ray.direction * m for grid in grids
                       for m in (0.8, 1.3, math.exp(grid.s_nodes[5]),
                                 math.exp(grid.s_nodes[-9]))])
        w = np.array([np.log(off / g.ray.direction) for g in grids])
        near_angles = np.array([g.near_angle for g in grids])[:, None]
        near = np.abs(w.imag) < near_angles
        assert near.any() and not near.all()
        # the rows of all rays at once are bitwise those of one ray
        for zetas in (off, on):
            poles = np.array([np.log(zetas / g.ray.direction) for g in grids])
            poles[np.abs(poles.imag) < solver.ON_RAY_ANGLE] += 1e-300j
            assert np.array_equal(solver._kernels(grids, poles), np.stack(
                [kernel_rows(g, row) for g, row in zip(grids, poles)]))
        for density in (sol.log_one_minus_x, tangents):
            for zetas, side in ((off, None), (on, +1), (on, -1)):
                got = ray_integrals(grids, rays, density, coefs, zetas, side)
                want, big = unfolded_ray_integrals(grids, rays, density,
                                                   coefs, zetas, side)
                assert got.shape == want.shape
                assert float(np.max(np.abs(got - want))) <= 1e-14 * big
            got = ray_integrals(grids, rays, density, coefs, off)
            for r in np.flatnonzero(near.any(axis=1))[:2]:
                skipped, big = unfolded_ray_integrals(
                    grids, rays, density, coefs, off, skip=r)
                assert float(np.max(np.abs(got - skipped))) > 1e-14 * big


def _stub_grids(*rays):
    """Grids that carry only ``ray.charges`` and ``ray.omegas``."""
    return [SimpleNamespace(ray=SimpleNamespace(charges=charges,
                                                omegas=omegas))
            for charges, omegas in rays]


class TestCoefficients:
    def test_pure_su2_pairings(self):
        # pairing 2 and Omega(W) = -2 give entries -Omega <gamma, gamma'>
        # of +-2, 4, 8 and 12, where p and p^3 differ
        model = SimpleNamespace(lattice=Lattice(((0, 2), (-2, 0))))
        w = G1 + G2
        grids = _stub_grids(((G1,), (1,)), ((w, 2 * w), (-2, 1)),
                            ((G2,), (1,)), ((-w,), (-2,)),
                            ((2 * G1 + G2,), (1,)))
        charges = [G1, G2, w, 2 * G1 - G2]
        got = _coefficients(model, grids, charges)
        assert got.shape == (6, 4)
        assert np.array_equal(got, pairing_coefficients(model, grids,
                                                        charges))
        assert {2, 4, 8, 12} <= set(np.rint(np.abs(got) * 4 * math.pi).flat)

    def test_pentagon_pairings(self, pentagon, pentagon_solution):
        for charges in ([G1], [G1, G2, G1 + G2], [-G2, 2 * G1 - G2]):
            got = _coefficients(pentagon, pentagon_solution.grids, charges)
            assert np.array_equal(got, pairing_coefficients(
                pentagon, pentagon_solution.grids, charges))


def _sweep_gap(model, sol):
    """Largest gap between the node data and off-grid evaluation at the
    nodes: the sweep's transposed and near-ray blocks against the fresh
    ones of ``cauchy_integral``."""
    worst = 0.0
    for (r, gamma), ups in zip(unknowns(sol.grids), sol.upsilon):
        at_nodes = _upsilon_value(model, sol.grids, sol.log_one_minus_x,
                                  [gamma], sol.grids[r].zeta_nodes,
                                  side=+1)[:, 0]
        worst = max(worst, float(np.max(np.abs(at_nodes - ups))))
    return worst


class TestNearRayAccuracy:
    @pytest.mark.parametrize("case", ["mid", "wall-1.2", "wall-1.02",
                                      "wall-0.8-1.02", "ov"])
    def test_sweep_agrees_with_evaluation(self, pentagon, ov, ov_point,
                                          monkeypatch, case):
        # the converged node data are what evaluation reads at the nodes;
        # the control prepares the sweep with a zero near-ray continuation
        # and must fail
        model, point = {
            "mid": (pentagon, ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29))),
            "wall-1.2": (pentagon, _wall_point(pentagon, 1.2, 0.9, 1.0)),
            "wall-1.02": (pentagon, _wall_point(pentagon, 1.02, 0.9, 0.35)),
            "wall-0.8-1.02": (pentagon,
                              _wall_point(pentagon, 1.02, -0.8, 0.35)),
            "ov": (ov, ov_point)}[case]
        grids = build_grids(model, point)
        ws = _prepare(model, point, grids)
        sol = iterate(model, point, grids, tol_iter=1e-13, workspace=ws)
        shape = (len(unknowns(grids)), grids[0].node_count)
        assert sol.upsilon.shape == sol.log_xsf.shape \
            == sol.log_one_minus_x.shape == shape
        assert _sweep_gap(model, sol) <= 1e-14
        near = ws.near_pairs > 0
        assert near == case.startswith("wall")
        if near:
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_near_term", lambda grid, rows, w: (
                    np.zeros((len(w), grid.nodes_per_panel), dtype=int),
                    np.zeros((len(w), grid.nodes_per_panel), dtype=complex)))
                plain = _prepare(model, point, grids)
            control = iterate(model, point, grids, tol_iter=1e-13,
                              workspace=plain)
            assert _sweep_gap(model, control) > 1e-14

    def test_cauchy_integral_against_mpmath(self, pentagon):
        # near the wall at R 0.35, a semiflat-like density on the widest
        # grid; the poles approach the ray down to 1e-5, one of them over a
        # node, and the reference is an independent high-precision
        # quadrature of the same truncated integral
        point = ModelPoint(1.02 * pentagon_wall_point(pentagon, 0.9), 0.35,
                           (0.37, 1.29))
        grid = max(build_grids(pentagon, point), key=lambda g: g.s_max)
        a = 2 * math.pi * point.R * grid.ray.min_abs_z()
        f = np.log(1 - np.exp(-a * np.cosh(grid.s_nodes) + 0.7j))
        reals = np.array([0.0, 0.731, -1.9, grid.s_nodes[100]])
        worst = 0.0
        with mpmath.workdps(18):
            for offset in (0.15, 0.05, 0.01, 1e-3, 1e-5):
                got = cauchy_integral(grid, f, reals + 1j * offset)
                for w, value in zip(reals + 1j * offset, got):
                    pole = mpmath.mpc(w.real, w.imag)
                    want = mpmath.quad(
                        lambda s: mpmath.coth((s - pole) / 2) * mpmath.log(
                            1 - mpmath.exp(-a * mpmath.cosh(s) + 0.7j)),
                        [-grid.s_max, w.real, grid.s_max])
                    worst = max(worst, abs(value - complex(want)))
        assert worst <= 1e-14

    def test_mixed_offsets_match_per_pole(self, pentagon):
        # poles outside and inside the near zone in one call: each near
        # pole takes its continuation whatever the offset of the first
        # (a first pole outside the zone gave every later pole the plain
        # kernel, off by up to 3e-4 here)
        sol = solve(pentagon, ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29)))
        rays = np.array([r for r, _ in unknowns(sol.grids)])
        for r, grid in enumerate(sol.grids):
            f = sol.log_one_minus_x[rays == r]
            poles = np.array([0.3, -0.7, 1.1]) \
                + 1j * grid.near_angle * np.array([1.5, 0.05, 0.3])
            for w in (poles, poles[::-1]):
                batched = cauchy_integral(grid, f, w)
                for j in range(len(w)):
                    alone = cauchy_integral(grid, f, w[j:j + 1])[..., 0]
                    assert np.max(np.abs(batched[..., j] - alone)) <= 1e-15

    @pytest.mark.parametrize("phi", [0.9, -0.8])
    def test_panel_convergence_near_the_wall(self, pentagon, phi):
        # the chosen panels against 64 at the sector midpoints, down to the
        # 0.008 rad sectors, and 0.002 rad off every ray
        point = _wall_point(pentagon, 1.02, phi, 0.35)
        coarse = solve(pentagon, point, tol_iter=1e-13)
        fine = iterate(pentagon, point, _fixed_grids(pentagon, point, 64),
                       tol_iter=1e-13)
        angles = sorted(g.ray.angle for g in coarse.grids)
        gaps = np.diff(angles + [angles[0] + 2 * math.pi])
        assert min(gaps) < 0.01
        zetas = [cmath.exp(1j * (a + e)) for a, gap in zip(angles, gaps)
                 for e in (0.5 * gap, 0.002, -0.002)]
        worst = max(abs(upsilon(pentagon, coarse, g, z)
                        - upsilon(pentagon, fine, g, z))
                    for z in zetas for g in (G1, G2))
        assert worst <= 1e-12

    def test_fine_panels_past_the_wall(self, pentagon):
        # at 64 panels the near zone narrows with the panels, and the
        # continuation weights of the near-aligned rays stay finite
        point = _wall_point(pentagon, 1.2, 0.9, 1.0)
        sol = iterate(pentagon, point, _fixed_grids(pentagon, point, 64))
        assert sol.residual < sol.tol_iter
        assert np.isfinite(sol.max_correction())

    def test_fine_panels_keep_the_continuation_local(self, pentagon):
        # with the near-ray switch at a fixed 0.2 rad, 128 panels continued
        # node data over many panel widths and missed 32 panels by 5.4e-8;
        # the switch now scales with the panel half-width
        point = ModelPoint(-0.065876 - 1.136864j, 2.368724,
                           (4.540500, 2.120146))
        sols = [iterate(pentagon, point, _fixed_grids(pentagon, point, p),
                        tol_iter=1e-13) for p in (32, 128)]
        worst = 0.0
        for grid in sols[0].grids:
            for offset in (0.01, 0.03, 0.1, 0.2, 0.3, 0.45):
                for side in (+1, -1):
                    z = grid.ray.direction * cmath.exp(1j * side * offset)
                    a, b = (_upsilon_value(pentagon, sol.grids,
                                           sol.log_one_minus_x, [G1, G2], z)
                            for sol in sols)
                    worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-14


# the conftest point, then 0.98 and 1.02 x both wall points at R 0.35
WALLS = [None, (0.98, 0.9), (1.02, 0.9), (0.98, -0.8), (1.02, -0.8)]
WALL_IDS = ["conftest", "0.98x0.9", "1.02x0.9", "0.98x-0.8", "1.02x-0.8"]


def _prepare_builds(monkeypatch, model, point, grids=None):
    """The ``_kernels`` and ``_near_term`` calls of one ``_prepare``, on
    ``grids`` or on the point's own."""
    grids = build_grids(model, point) if grids is None else grids
    counts = dict.fromkeys(("_kernels", "_near_term"), 0)
    for name in counts:
        def counted(*args, real=getattr(solver, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(solver, name, counted)
    ws = _prepare(model, point, grids)
    return counts, grids, ws


class TestKernelSharing:
    @pytest.mark.parametrize("wall, kernels, near", [
        (None, 2, 0), ((1.02, 0.9), 6, 6)], ids=["conftest", "1.02x0.9"])
    def test_one_kernel_per_antipodal_class(self, pentagon, pentagon_point,
                                            monkeypatch, wall, kernels, near):
        # (a, b) and (-a, -b) share a kernel and its near terms: 4 rays
        # pair in 4 ray pairs, 2 classes; 6 rays near the wall in 12, 6
        point = pentagon_point if wall is None \
            else _wall_point(pentagon, *wall, 0.35)
        counts, _, _ = _prepare_builds(monkeypatch, pentagon, point)
        assert counts == {"_kernels": kernels, "_near_term": near}

    @pytest.mark.parametrize("wall", WALLS, ids=WALL_IDS)
    def test_antipodal_grids_share_nodes(self, pentagon, pentagon_point,
                                         wall):
        point = pentagon_point if wall is None \
            else _wall_point(pentagon, *wall, 0.35)
        grids = build_grids(pentagon, point)
        by_charge = {g: grid for grid in grids for g in grid.ray.charges}
        for grid in grids:
            partner = by_charge[-grid.ray.charges[0]]
            assert np.array_equal(partner.s_nodes, grid.s_nodes)
            assert np.array_equal(partner.weights, grid.weights)

    @pytest.mark.parametrize("wall, kernels", [(None, 2), ((1.02, 0.9), 6)],
                             ids=["conftest", "1.02x0.9"])
    def test_ray_without_partner_keeps_its_kernels(self, pentagon,
                                                   pentagon_point,
                                                   monkeypatch, wall,
                                                   kernels):
        # with -gamma_1 dropped, the pairs of the ray of gamma_1 have no
        # antipodal pair and keep a kernel each (2 of 2 at 4 rays, 4 of 6
        # near the wall); sharing theirs with another pair breaks the
        # sweep, which evaluation at the nodes sees
        point = pentagon_point if wall is None \
            else _wall_point(pentagon, *wall, 0.35)
        support = tuple(g for g in pentagon.spectrum.support(point.u)
                        if g != -G1)
        model = pentagon.with_spectrum(Spectrum(
            lambda g, u: 1 if g in support else 0, lambda u: support))
        counts, grids, ws = _prepare_builds(monkeypatch, model, point)
        assert len(grids) == len(support)
        assert counts["_kernels"] == kernels
        sol = iterate(model, point, grids, tol_iter=1e-13, workspace=ws)
        assert _sweep_gap(model, sol) <= 1e-14

    def test_unequal_grids_keep_their_kernels(self, pentagon, pentagon_point,
                                              monkeypatch):
        # with the grid of -gamma_1 stretched by 1e-6, no pair of its ray
        # shares a kernel with a pair of gamma_1's: 4 kernels for the 8
        # blocks at 4 rays, where 2 are shared on the solve's own grids
        grids = build_grids(pentagon, pentagon_point)
        r = next(r for r, grid in enumerate(grids) if -G1 in grid.ray.charges)
        s_max = grids[r].s_max * (1.0 + 1e-6)
        s_nodes, weights = _gl_panels(s_max, grids[r].panels,
                                      grids[r].nodes_per_panel)
        grids[r] = dataclasses.replace(grids[r], s_max=s_max,
                                       s_nodes=s_nodes, weights=weights)
        counts, _, ws = _prepare_builds(monkeypatch, pentagon,
                                        pentagon_point, grids)
        assert counts["_kernels"] == 4
        # nor are its nodes the mirrors of gamma_1's: every row iterates
        assert not len(ws.image)
        g = _smooth_densities(grids, np.random.default_rng(7))
        want, _, _ = _unfolded_apply(pentagon, grids, g)
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(_apply(ws, g) - want))) <= 1e-14 * scale


def _minus_g1_omega(model, om):
    """``model`` with Omega(-gamma_1) set to ``om``: 0 drops the charge, and
    2 against Omega(gamma_1) = 1 leaves the spectrum unclosed under
    gamma -> -gamma with equal Omega."""
    spectrum = model.spectrum
    return model.with_spectrum(Spectrum(
        lambda g, u: om if g == -G1 else spectrum.omega(g, u),
        spectrum.support))


def _full_map_solve(model, point, grids, ws):
    """The iteration and the tangent solve with every row computed, as
    before the reality pairing: the ``_contract`` of the full ``_sweep``,
    then of ``_apply`` on the full tangent densities.  Returns the node
    data, the iteration count and the (4, U, N) tangent densities."""
    log_xsf = solver.semiflat_nodes(model, point, grids)
    ups, history = solver._contract(
        lambda u: solver._sweep(ws, log_xsf, u), np.zeros_like(log_xsf),
        solver.TOL_ITER, solver.MAX_ITER)
    neg_d = -np.expm1(-log_one_minus(np.exp(log_xsf + ups)))
    zeta = np.array([grids[r].zeta_nodes for r, _ in unknowns(grids)])
    pole, const, lin = (np.moveaxis(r, -1, 0)[..., None] for r in
                        xsf_laurent_rows(model, point, [
                            g for _, g in unknowns(grids)]))
    d_log_xsf = pole / zeta + const + zeta * lin

    def tangent(du):
        return neg_d * (d_log_xsf + du)

    du, _ = solver._contract(lambda d: _apply(ws, tangent(d)),
                             np.zeros_like(d_log_xsf), solver.TOL_ITER,
                             solver.MAX_ITER)
    return ups, len(history), tangent(du)


def _reality_gap(grids, data):
    """Largest gap between the node data of a charge and the conjugate of
    its negative's with the nodes reversed."""
    by_charge = {g: row for (_, g), row in zip(unknowns(grids), data)}
    return max((float(np.max(np.abs(row - np.conj(by_charge[-g][::-1]))))
                for g, row in by_charge.items() if -g in by_charge),
               default=0.0)


class TestRealityPairing:
    @pytest.mark.parametrize("case", [
        "conftest", "1.02x0.9", "1.02x0.9-pairing2-omega-2", "ov",
        "no-minus-gamma1", "omega-2-at-minus-gamma1"])
    def test_iterate_matches_full_map(self, pentagon, pentagon_point, ov,
                                      ov_point, pairing_two, case):
        # iterating one ray of each antipodal pair against iterating every
        # row: equal counts, and node data and tangents equal to rounding.
        # The full map's own rows of +-gamma are mirrors only to its
        # rounding (up to 2e-15 of max|U| near the wall), and the image
        # rows may differ from it by that much more.  Without closure under
        # gamma -> -gamma with equal Omega no row is an image, and the two
        # solves run the same products
        wall = _wall_point(pentagon, 1.02, 0.9, 0.35)
        model, point, images = {
            "conftest": (pentagon, pentagon_point, 2),
            "1.02x0.9": (pentagon, wall, 3),
            "1.02x0.9-pairing2-omega-2": (pairing_two[-2], wall, 3),
            "ov": (ov, ov_point, 1),
            "no-minus-gamma1": (_minus_g1_omega(pentagon, 0),
                                pentagon_point, 0),
            "omega-2-at-minus-gamma1": (_minus_g1_omega(pentagon, 2),
                                        pentagon_point, 0)}[case]
        grids = build_grids(model, point)
        ws = _prepare(model, point, grids)
        assert len(ws.image) == images
        assert ws.near_pairs == (12 if case.startswith("1.02") else 0)
        want, count, want_tangents = _full_map_solve(model, point, grids, ws)
        sol = iterate(model, point, grids, workspace=ws)
        assert sol.iterations == count
        scale = float(np.max(np.abs(want), initial=0.0))
        gap = np.abs(sol.upsilon - want)
        assert float(np.max(gap[ws.rows], initial=0.0)) <= 1e-15 * scale
        own = _reality_gap(grids, want) if images else 0.0
        assert float(np.max(gap, initial=0.0)) <= 1e-15 * scale + own
        _, tangents = solve_tangents(model, point)
        assert float(np.max(np.abs(tangents - want_tangents))) \
            <= 5e-15 * float(np.max(np.abs(want_tangents)))

    def test_unequal_omega_keeps_every_row(self, pentagon, pentagon_point):
        # with Omega(gamma_1) = 1 and Omega(-gamma_1) = 2 the solution is
        # not real, so no row is an image and evaluation at the nodes
        # agrees with the node data; mirroring the rows as the closed
        # spectrum does breaks that
        model = _minus_g1_omega(pentagon, 2)
        grids = build_grids(model, pentagon_point)
        ws = _prepare(model, pentagon_point, grids)
        assert np.array_equal(ws.rows, np.arange(len(unknowns(grids))))
        assert not len(ws.image) and ws.half == ws.blocks
        sol = iterate(model, pentagon_point, grids, tol_iter=1e-13,
                      workspace=ws)
        assert _sweep_gap(model, sol) <= 1e-14
        closed = _prepare(pentagon, pentagon_point,
                          build_grids(pentagon, pentagon_point))
        forced = dataclasses.replace(
            ws, rows=closed.rows, image=closed.image, source=closed.source,
            half={pair: ws.blocks[pair] for pair in closed.half})
        control = iterate(model, pentagon_point, grids, tol_iter=1e-13,
                          workspace=forced)
        assert _sweep_gap(model, control) > 1e-14


def _smooth_densities(grids, rng):
    """Random (4, U, N) densities shaped like log(1 - X^sf) on each
    unknown's ray."""
    shape = (4, len(unknowns(grids)), 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cosh = np.cosh([grids[r].s_nodes for r, _ in unknowns(grids)])
    return c * np.exp(-(1.0 + 0.3j * rng.standard_normal(shape)) * cosh)


def _unfolded_apply(model, grids, g, drop=None):
    """The sweep's map term by term from fresh kernels: coef * (kernel_rows
    @ (weights * g) + the ``_near_term`` gather), with the gather of the
    ordered ray pair ``drop`` left out; also the ordered ray pairs with a
    gather and the largest term."""
    rows_of = unknowns(grids)
    omegas = [om for grid in grids for om in grid.ray.omegas]
    out, near, big = np.zeros_like(g), set(), 0.0
    for t, (rt, gt) in enumerate(rows_of):
        for s, (rs, gs) in enumerate(rows_of):
            p = model.lattice.pair(gt, gs)
            if rt == rs or p == 0:
                continue
            src = grids[rs]
            dphi = cmath.phase(grids[rt].ray.direction
                               * src.ray.direction.conjugate())
            w = grids[rt].s_nodes + 1j * dphi
            rows = kernel_rows(src, w)
            acc = (src.weights * g[..., s, :]) @ rows.T
            if abs(dphi) < src.near_angle:
                near.add((rt, rs))
                if (rt, rs) != drop:
                    idx, op = solver._near_term(src, rows, w)
                    acc += np.sum(op * g[..., s, idx], axis=-1)
            term = -omegas[s] * p / (4j * math.pi) * acc
            out[..., t, :] += term
            big = max(big, float(np.max(np.abs(term))))
    return out, near, big


class TestFoldedOperator:
    @pytest.mark.parametrize("wall, near_pairs, rough, omega", [
        (None, 0, True, None), ((1.02, 0.9), 12, True, None),
        ((0.95, -3.0), 2, True, None), ((1.05, -3.0), 8, False, None),
        (None, 0, True, 1), ((1.02, 0.9), 12, True, -2)],
        ids=["conftest", "1.02x0.9", "0.95x-3.0", "1.05x-3.0",
             "conftest-pairing2", "1.02x0.9-pairing2-omega-2"])
    def test_apply_matches_unfolded_sum(self, pentagon, pentagon_point,
                                        pairing_two, wall, near_pairs, rough,
                                        omega):
        # the continuation folded into the kernel blocks, and the reverse
        # blocks read transposed, against fresh kernels and gathers per
        # term: at 1.02 x the wall all 6 classes are near both ways, at
        # -3.0 some classes only one way, forward (0.95 x) or reverse
        # (1.05 x); dropping one gather must show.  On the pairing-2 stubs
        # the blocks' coefficients, from ``_coefficients``, meet the
        # ``Lattice.pair`` loop where p and p^3 (and Omega and Omega^2)
        # differ
        model = pentagon if omega is None else pairing_two[omega]
        point = pentagon_point if wall is None \
            else _wall_point(pentagon, *wall, 0.35)
        grids = build_grids(model, point)
        ws = _prepare(model, point, grids)
        rng = np.random.default_rng(7)
        g = _smooth_densities(grids, rng)
        want, near, _ = _unfolded_apply(model, grids, g)
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(_apply(ws, g) - want))) <= 1e-14 * scale
        assert ws.near_pairs == len(near) == near_pairs
        for pair in sorted(near)[:2]:
            dropped, *_ = _unfolded_apply(model, grids, g, drop=pair)
            assert float(np.max(np.abs(_apply(ws, g) - dropped))) \
                > 1e-14 * scale
        # unit random densities: continued a panel off the ray, rough data
        # amplify any gap between the angles of the antipodal pairs that
        # share a block (5e-9 at 0.95 x when they differed in the last
        # bit), so this holds only if the sharing is exact; they also lift
        # plain rounding to 2e-14 of the largest term at 1.02 x.  The
        # reverse-only classes at 1.05 x sit at the edge of the near zone,
        # where the continuation lifts the rounding gap between a
        # transposed and a fresh kernel to 1e-8 on such data: not held there
        if rough:
            g = np.exp(2j * math.pi * rng.random(g.shape))
            want, _, big = _unfolded_apply(model, grids, g)
            assert float(np.max(np.abs(_apply(ws, g) - want))) <= 1e-13 * big

    def test_assembly_matches_masked_argmin_form(self, pentagon):
        # the nearest node by search and the one close entry per pole give
        # bitwise the nodes and rows of an argmin over all nodes and a mask
        # over all entries, for poles on nodes, at node midpoints (a
        # tie goes to the lower node), off the ray and past +-s_max
        point = _wall_point(pentagon, 1.02, 0.9, 0.35)
        grid = build_grids(pentagon, point)[0]
        s = grid.s_nodes
        reals = np.concatenate([s, 0.5 * (s[1:] + s[:-1]),
                                np.linspace(-1.2, 1.2, 7) * grid.s_max])
        for offset in (0.0, 1e-300, 1e-6, 0.008, 0.5):
            w = reals + 1j * offset
            close = np.abs(s[None, :] - w[:, None]) \
                < np.min(np.diff(s)) / 16.0
            es, ew = np.exp(s)[None, :], np.exp(w)[:, None]
            want = (es + ew) / np.where(close, 1.0, es - ew)
            want[close] = 0.0
            assert np.array_equal(kernel_rows(grid, w), want)
            assert np.array_equal(solver._nearest_node(s, w.real), np.argmin(
                np.abs(w.real[:, None] - s), axis=1))


class TestLogOneMinus:
    def test_against_mpmath(self):
        # both parts within 4 ulp relative from |x| 1e-300 to 1 - 1e-9 at
        # all phases; rounding 1 - x first misses below |x| 1e-17
        moduli = np.concatenate([10.0 ** np.linspace(-300, -1, 47),
                                 [0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-6,
                                  1 - 1e-9]])
        phases = np.linspace(-math.pi, math.pi, 24, endpoint=False)
        x = (moduli[:, None] * np.exp(1j * phases)).ravel()
        with mpmath.workdps(340):
            want = np.array([complex(mpmath.log(1 - mpmath.mpc(z.real,
                                                               z.imag)))
                             for z in x])

        def ulps(got):
            return np.maximum(*(np.abs(f(got) - f(want))
                                / np.maximum(np.abs(f(want)), 1e-320)
                                for f in (np.real, np.imag))) \
                / np.finfo(float).eps

        assert float(np.max(ulps(log_one_minus(x)))) <= 4.0
        naive = ulps(np.log(1.0 - x))
        assert np.all(naive[np.abs(x) < 1e-17] > 4.0)

    def test_empty_node_data(self):
        # the (0, 0) node data of a zero spectrum stay a complex array
        out = log_one_minus(np.exp(np.zeros((0, 0))))
        assert out.shape == (0, 0) and out.dtype == complex


# metric-grid, certify and wall-approach inputs of the benchmark (seed 1)
BENCH_POINTS = [ModelPoint(u, R, theta) for u, R, theta in [
    (-0.437132 + 0.290930j, 2.015265, (0.982050, 5.051880)),
    (-0.559176 + 0.225332j, 1.421690, (1.846083, 0.181026)),
    (-1.286085 + 0.728953j, 2.729350, (6.149162, 2.819502)),
    (0.544360 - 0.951652j, 1.974418, (2.944617, 5.821762)),
    (-0.350640 + 1.051954j, 1.685237, (2.841010, 2.073488)),
    (-0.065876 - 1.136864j, 2.368724, (4.540500, 2.120146)),
    (0.584513 - 1.086646j, 2.005672, (3.101326, 1.133253)),
    (-0.554276 + 0.666316j, 2.785407, (4.636838, 5.938221)),
    (0.782757 + 0.004302j, 2.444238, (3.882391, 4.406095)),
    (-1.265547 + 0.173707j, 2.697116, (4.611467, 0.965361)),
    (-0.703575 + 1.159196j, 0.543644, (0.603560, 3.158269)),
    (0.973685 + 0.698487j, 0.764377, (1.385548, 4.985781)),
    (0.993872 - 0.781017j, 0.745527, (2.939655, 3.545327)),
]]
WALL_CASES = [(f, phi, 0.35 if f < 1.1 else 1.0)
              for phi in (0.9, -0.8) for f in (0.98, 0.99, 1.01, 1.02, 1.2)]


class TestPanelChoice:
    @pytest.mark.parametrize("case", range(len(BENCH_POINTS)
                                           + len(WALL_CASES)))
    def test_chosen_panels_against_64(self, pentagon, case):
        # the chosen layout against 64 forced panels, at the mid-sector
        # zetas and at 0.002 to 0.3 rad either side of every ray
        point = BENCH_POINTS[case] if case < len(BENCH_POINTS) \
            else _wall_point(pentagon, *WALL_CASES[case - len(BENCH_POINTS)])
        chosen = solve(pentagon, point, tol_iter=1e-13)
        fine = iterate(pentagon, point, _fixed_grids(pentagon, point, 64),
                       tol_iter=1e-13)
        assert chosen.panels < 64
        angles = [g.ray.angle for g in chosen.grids]
        zetas = midsector_zetas(chosen, len(angles)) + [
            cmath.exp(1j * (a + side * offset)) for a in angles
            for offset in (0.002, 0.011, 0.05, 0.1, 0.2, 0.3)
            for side in (+1, -1)]
        worst = 0.0
        for z in zetas:
            if min(abs(cmath.phase(z * cmath.exp(-1j * a)))
                   for a in angles) < 1e-3:
                continue   # another ray's directed limit, not a value
            a, b = (_upsilon_value(pentagon, sol.grids, sol.log_one_minus_x,
                                   [G1, G2], z) for sol in (chosen, fine))
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("case", [None, (0.98, 0.9), (1.02, 0.9),
                                      (0.98, -0.8), (1.02, -0.8)])
    def test_a_posteriori_tail(self, pentagon, ov_solution,
                               pentagon_solution, case):
        # the Legendre tail of the converged log(1 - X) meets eps_quad
        if case is None:
            sols = [ov_solution, pentagon_solution]
        else:
            sols = [solve(pentagon, _wall_point(pentagon, *case, 0.35))]
        for sol in sols:
            assert 0 < sol.panels <= sol.spec.panels
            assert sol.tail <= sol.spec.eps_quad


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
            frozen = iterate(pentagon, point, center.grids)
            own = solve(pentagon, point)
            for zeta in zetas:
                for gamma in (G1, G2):
                    assert abs(upsilon(pentagon, frozen, gamma, zeta)
                               - upsilon(pentagon, own, gamma, zeta)) <= 1e-14

    @pytest.mark.parametrize("wall, R", [(None, 1.0), ((1.2, 0.9), 1.0),
                                         ((1.02, -0.8), 0.5)])
    def test_tangents_against_finite_differences(self, pentagon, wall, R):
        # central differences of frozen-contour solves converge to the
        # tangent-linear derivative at order 2, also with near-ray pairs;
        # at 1.02 x the wall the order stalls if the tangent sweep drops
        # their continuation
        u = 1.5 + 0.2j if wall is None \
            else wall[0] * pentagon_wall_point(pentagon, wall[1])
        point = ModelPoint(u, R, (0.37, 1.29))
        center, tangents = solve_tangents(pentagon, point, tol_iter=1e-13)
        assert tangents.shape == (4,) + center.upsilon.shape
        grids = center.grids
        ws = _prepare(pentagon, point, grids)
        assert (ws.near_pairs > 0) == (wall is not None)
        zetas = midsector_zetas(grids, 4)
        exact = np.array([_upsilon_value(pentagon, grids, tangents, [G1, G2],
                                         z) for z in zetas])
        gaps = []
        for h in (2e-4, 1e-4):
            steps = h * np.array([[1, 0, 0], [1j, 0, 0], [0, 1, 0],
                                  [0, 0, 1]])
            diff = np.zeros_like(exact)
            for mu, (du, dt1, dt2) in enumerate(steps):
                for sign in (+1, -1):
                    moved = point.shifted(du=sign * du, dtheta=(
                        sign * dt1.real, sign * dt2.real))
                    sol = iterate(pentagon, moved, grids, tol_iter=1e-13,
                                  workspace=ws)
                    diff[:, mu] += sign / (2 * h) * np.array([
                        _upsilon_value(pentagon, grids, sol.log_one_minus_x,
                                       [G1, G2], z) for z in zetas])
            gaps.append(float(np.max(np.abs(diff - exact))))
        assert math.log2(gaps[0] / gaps[1]) == pytest.approx(2.0, abs=0.35)
        assert gaps[1] <= 1e-7


def _exact_jump_defect(model, sol, ray_index):
    """``ray_jump_defect`` from scalar ``evaluate`` calls, one per charge
    and side: the reference that its one call per ray is held to."""
    ray = sol.grids[ray_index].ray
    lat = model.lattice
    on_ray = [evaluate(model, sol, g, ray.direction, +1).value
              for g in ray.charges]
    worst = 0.0
    for gamma in lat.basis():
        ccw, cw = (evaluate(model, sol, gamma, ray.direction, side).value
                   for side in (+1, -1))
        predicted = ccw
        for g, om, x in zip(ray.charges, ray.omegas, on_ray):
            predicted *= (1.0 - x) ** (om * lat.pair(gamma, g))
        worst = max(worst, abs(cw - predicted) / max(abs(cw), abs(predicted)))
    return worst


def _side_points(pentagon):
    """(1.5+0.2i) at R 2 and R 1, 1.2 x both wall points at R 1 and 1.02 x
    both at R 0.35."""
    return [ModelPoint(1.5 + 0.2j, 2.0, (0.37, 1.29)),
            ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29))] + [
        _wall_point(pentagon, factor, phi, R)
        for factor, R in ((1.2, 1.0), (1.02, 0.35)) for phi in (0.9, -0.8)]


def _directed_values(model, sol):
    """The Richardson limits of ``reference.richardson_side_limit`` and the
    exact ``evaluate(..., side)`` values, on every ray, of each basis charge
    that pairs with a charge on it, on both sides."""
    lat = model.lattice
    pairs = [(grid.ray.direction, gamma, side) for grid in sol.grids
             for gamma in lat.basis()
             if any(lat.pair(gamma, g) for g in grid.ray.charges)
             for side in (+1, -1)]
    return np.array([[richardson_side_limit(model, sol, gamma, zeta0, side)
                      for zeta0, gamma, side in pairs],
                     [evaluate(model, sol, gamma, zeta0, side).value
                      for zeta0, gamma, side in pairs]])


def _directed_gap(model, sol):
    """Largest relative gap of ``_directed_values``."""
    rich, exact = _directed_values(model, sol)
    return float(np.max(np.abs(rich - exact) / np.abs(exact)))


class TestJumps:
    def test_jumps_match_transformation(self, pentagon, pentagon_solution):
        for i in range(len(pentagon_solution.grids)):
            assert ray_jump_defect(pentagon, pentagon_solution, i) < 1e-12

    def test_one_evaluation_per_ray(self, pentagon, pentagon_solution,
                                    monkeypatch):
        # both boundary values of every charge in one pass: zeta0 twice,
        # with side +1 and -1
        sol, calls, real = pentagon_solution, [], solver._upsilon_value

        def counted(*args, **kwargs):
            calls.append((args[4], kwargs["side"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_upsilon_value", counted)
        for i, grid in enumerate(sol.grids):
            ray_jump_defect(pentagon, sol, i)
            assert len(calls) == i + 1
            zetas, sides = calls[-1]
            assert np.array_equal(zetas, [grid.ray.direction] * 2)
            assert np.array_equal(sides, [+1, -1])

    def test_batched_directed_values_match_one_zeta(self, pentagon, ov,
                                                    pentagon_solution,
                                                    ov_solution):
        # the jump defect's one call per ray against its reference from
        # scalar ``evaluate`` calls, at the conftest point, at OV and at
        # the ``WALLS`` points, 1.02 x either wall among them
        sols = [(pentagon, pentagon_solution), (ov, ov_solution)] + [
            (pentagon, solve(pentagon, _wall_point(pentagon, *wall, 0.35)))
            for wall in WALLS[1:]]
        for model, sol in sols:
            for i in range(len(sol.grids)):
                assert abs(ray_jump_defect(model, sol, i)
                           - _exact_jump_defect(model, sol, i)) <= 1e-15
        sol = pentagon_solution
        # the radial limit is exp(u_0) of the moments, and the linear
        # extrapolation from three radii along a mid-sector arg tends to it
        direction = midsector_zetas(sol, 1)[0]
        for g in (G1, G2):
            u0, _ = zeta_zero_moments(pentagon, sol.grids,
                                      sol.log_one_minus_x, [g])
            got = radial_limit(pentagon, sol, g, direction)
            assert got == complex(np.exp(u0[0]))
            vals = [cmath.exp(upsilon(pentagon, sol, g, direction * r))
                    for r in (1e-2, 1e-3, 1e-4)]
            three = vals[2] + (vals[2] - vals[1]) * 1e-4 / (1e-3 - 1e-4)
            assert abs(got - three) <= 1e-7

    def test_ov_magnetic_jump_factor(self, ov, ov_solution):
        # across the electric ray the magnetic coordinate jumps by
        # (1 - X_e)^(<e, m> Omega); the electric one does not jump at all
        for i in range(2):
            assert ray_jump_defect(ov, ov_solution, i) < 1e-12

    def test_ov_directed_values_against_oracle(self, ov):
        # each side's boundary value on its own, which the jump defect
        # cannot check when both sides share an error: the oracle's
        # Richardson limit 2 X(eps/2) - X(eps) along exp(i side eps)
        point, eps = ModelPoint(0.5 * cmath.exp(0.4j), 1.0, (0.3, 1.1)), 1e-4
        sol = solve(ov, point)
        worst, swapped = 0.0, math.inf
        for grid in sol.grids:
            for r in (0.6, 1.0, 1.7):
                zeta0 = r * grid.ray.direction
                for side in (+1, -1):
                    far, near = (ov_oracle(ov, point, G1, zeta0 * cmath.exp(
                        1j * side * e)).value for e in (eps, eps / 2))
                    want = 2 * near - far
                    got, other = (evaluate(ov, sol, G1, zeta0, s).value
                                  for s in (side, -side))
                    worst = max(worst, abs(got - want) / abs(want))
                    swapped = min(swapped, abs(other - want) / abs(want))
        assert worst <= 1e-8
        assert swapped > 1e-8  # control: the other side's value fails

    def test_own_charge_continuous(self, pentagon, pentagon_solution):
        grid = pentagon_solution.grids[0]
        gamma = grid.ray.charges[0]
        a = evaluate(pentagon, pentagon_solution, gamma,
                     grid.ray.direction, +1)
        b = evaluate(pentagon, pentagon_solution, gamma,
                     grid.ray.direction, -1)
        assert abs(a.value - b.value) <= 1e-13 * abs(a.value)

    def test_directed_value_at_a_node(self, pentagon):
        # a zeta on a ray node must agree with one 1e-9 further along the
        # ray: the subtracted integrand keeps its limit 2 f'(s_k) there
        sol = solve(pentagon, ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29)))
        worst = 0.0
        for grid in sol.grids:
            for s in grid.s_nodes[::3]:
                on, off = grid.ray.direction * np.exp([s, s + 1e-9])
                for gamma in (G1, G2):
                    worst = max(worst, abs(
                        upsilon(pentagon, sol, gamma, on, side=+1)
                        - upsilon(pentagon, sol, gamma, off, side=+1)))
        assert worst <= 1e-7

    def test_side_acts_only_on_a_ray(self, pentagon):
        # 5e-4 rad off a ray, past ON_RAY_ANGLE, both sides must give the
        # value where zeta lies, not a boundary value of the ray
        sol = solve(pentagon, ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29)),
                    tol_iter=1e-13)
        for grid in sol.grids:
            gamma = next(g for g in (G1, G2)
                         if pentagon.lattice.pair(g, grid.ray.charges[0]))
            for turn in (5e-4, -5e-4):
                zeta = grid.ray.direction * cmath.exp(1j * turn)
                ccw, cw = (upsilon(pentagon, sol, gamma, zeta, side=side)
                           for side in (+1, -1))
                assert abs(ccw - cw) <= 1e-15 * abs(ccw)

    def test_side_limit_matches_exact(self, ov, ov_solution, pentagon):
        # the Richardson limits from off the ray against the exact directed
        # values on it, each on its own: every ray, each basis charge that
        # pairs with it and both sides (1.45e-9 at most, at 1.02 x the
        # -0.8 wall)
        assert _directed_gap(ov, ov_solution) < 1e-8
        for point in _side_points(pentagon):
            assert _directed_gap(pentagon, solve(pentagon, point)) < 1e-8

    def test_side_limit_sees_a_shared_on_ray_error(self, pentagon,
                                                   monkeypatch):
        # control: one constant more in the closed-form kernel integral of
        # every on-ray pole moves both directed values alike, by 1e-6 at
        # most.  Their ratio, all ``ray_jump_defect`` reads, keeps its
        # value; the comparison with the limits from off the ray must fail
        shift = [0.0]
        closed_form = solver._kernel_C
        monkeypatch.setattr(solver, "_kernel_C", lambda w, s_max: (
            closed_form(w, s_max)
            + shift[0] * (np.abs(w.imag) < solver.ON_RAY_ANGLE)))
        for point in _side_points(pentagon):
            shift[0] = 0.0
            sol = solve(pentagon, point)
            _, exact = _directed_values(pentagon, sol)
            shift[0] = 1.0
            _, moved = _directed_values(pentagon, sol)
            shift[0] = 1e-6 / float(np.max(np.abs(np.log(moved / exact))))
            assert _directed_gap(pentagon, sol) > 1e-8
            for i in range(len(sol.grids)):
                assert ray_jump_defect(pentagon, sol, i) < 1e-12

    def test_null_answer_fails_the_defect_gate(self, pentagon):
        # control: the semiflat answer, Upsilon = 0 on the solve's grids,
        # has a jump defect of second order at R 1 (1.28e-8 and 2.38e-8),
        # under a fixed 1e-7 but over the recheck's bound 10 x TOL_ITER
        # that ``jump-check`` gates the defect at.  The genuine solves stay
        # under it, at low R too, where the defect follows the iteration
        # tolerance (1.05e-11 and 1.48e-11 at R 0.05 and 0.0201)
        gate = 10 * solver.TOL_ITER

        def worst(sol):
            return max(ray_jump_defect(pentagon, sol, i)
                       for i in range(len(sol.grids)))

        for u in (1.5 + 0.2j, 0.6 + 0.3j):
            sol = solve(pentagon, ModelPoint(u, 1.0, (0.37, 1.29)))
            assert worst(sol) <= gate
            null = dataclasses.replace(sol,
                                       upsilon=np.zeros_like(sol.upsilon))
            assert gate < worst(null) < 1e-7
        for R in (0.05, 0.0201):
            assert worst(solve(pentagon, ModelPoint(0.6 + 0.3j, R,
                                                    (0.37, 1.29)))) <= gate

    @pytest.mark.parametrize("phi", [0.9, -0.8])
    def test_jumps_with_near_aligned_rays(self, pentagon, phi):
        # past the wall the bound-state ray lies within 0.2 rad of a ray
        # it pairs with; the continuation to one ray's pole then sits on
        # the other ray and must take the side facing the integration ray
        point = ModelPoint(1.2 * pentagon_wall_point(pentagon, phi), 1.0,
                           (0.37, 1.29))
        sol = solve(pentagon, point)
        angles = sorted(g.ray.angle for g in sol.grids)
        assert min(b - a for a, b in zip(angles, angles[1:])) < 0.2
        for i in range(len(sol.grids)):
            assert ray_jump_defect(pentagon, sol, i) < 1e-12

    @pytest.mark.parametrize("wall", WALLS, ids=WALL_IDS)
    def test_upsilon_reality_on_rays(self, pentagon, pentagon_point, wall):
        # the iteration takes the rows of one ray of each antipodal pair as
        # the reality images of the other's, conjugated under s -> -s, so
        # the full sweep of the recheck is where the reality condition is
        # still checked: its blocks into the image rows, which the
        # iteration never reads, must give those rows back.  Scaling the
        # mix of one such block by 1 + 1e-6 leaves the iterated data
        # bitwise as they were, and both the stored and a fresh recheck
        # must see it
        point = pentagon_point if wall is None \
            else _wall_point(pentagon, *wall, 0.35)
        grids = build_grids(pentagon, point)
        ws = _prepare(pentagon, point, grids)
        sol = iterate(pentagon, point, grids, tol_iter=1e-12, workspace=ws)
        bound = 10 * sol.tol_iter
        assert 2 * len(ws.image) == len(unknowns(grids))
        assert solver.recheck(pentagon, point, grids, sol.log_xsf,
                              sol.upsilon, ws) <= bound
        pair = next(pair for pair in ws.blocks if pair not in ws.half)
        sign, matrix, mix = ws.blocks[pair]
        bent = dataclasses.replace(ws, blocks={
            **ws.blocks, pair: (sign, matrix, mix * (1.0 + 1e-6))})
        control = iterate(pentagon, point, grids, tol_iter=1e-12,
                          workspace=bent)
        assert np.array_equal(control.upsilon, sol.upsilon)
        assert control.recheck_residual > bound
        assert solver.recheck(pentagon, point, grids, control.log_xsf,
                              control.upsilon, bent) > bound


class TestDecay:
    def test_slope_against_min_z(self, pentagon):
        report = correction_decay(pentagon, 1.2, (0.37, 1.29),
                                  [1.0, 2.0, 3.0])
        assert report.relative_error < 0.02

    def test_one_evaluation_matches_per_ray_calls(self, pentagon):
        # each maximum, from one call over every ray direction with both
        # sides, against one call per ray and side
        r_values = [1.0, 2.0]
        report = correction_decay(pentagon, 1.2, (0.37, 1.29), r_values)
        for R, got in zip(r_values, report.max_corrections):
            sol = solve(pentagon, ModelPoint(1.2, R, (0.37, 1.29)))
            want = max(float(np.max(np.abs(_upsilon_value(
                pentagon, sol.grids, sol.log_one_minus_x,
                pentagon.lattice.basis(), grid.ray.direction, side=side))))
                for grid in sol.grids for side in (+1, -1))
            assert abs(got - want) <= 1e-15 * want


class TestWallContinuity:
    def test_linear_scaling_and_control(self, pentagon):
        w = pentagon_wall_point(pentagon, 0.9)
        u_in, u_out = 0.98 * w, 1.02 * w
        probe = solve(pentagon, ModelPoint(u_in, 0.35, (0.37, 1.29)))
        zetas = midsector_zetas(probe, 3)
        report = check_wall_continuity(pentagon, u_in, u_out, 0.35,
                                       (0.37, 1.29), zetas, halvings=2)
        assert report.min_order() > 0.9
        # one evaluation per solution against the one-zeta path
        mid = 0.5 * (u_in + u_out)
        for k, disc in enumerate(report.discrepancies):
            sols = [solve(pentagon, ModelPoint(mid + (u - mid) / 2 ** k, 0.35,
                                               (0.37, 1.29)), tol_iter=1e-11)
                    for u in (u_in, u_out)]
            want = max(abs(cmath.exp(upsilon(pentagon, sols[0], g, z))
                           - cmath.exp(upsilon(pentagon, sols[1], g, z)))
                       for z in zetas for g in (G1, G2))
            assert abs(disc - want) <= 1e-13 * want
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
