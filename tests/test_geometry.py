import cmath
import math

import numpy as np
import pytest

from hkforge import geometry, solver
from hkforge.geometry import (VarpiSampler, fit_point, metric_from_triple,
                              triple_wedge_check, wedge4)
from hkforge.models import pentagon_wall_point
from hkforge.semiflat import (ModelPoint, dlog_xsf_matrix, omega3_sf,
                              omega_plus_sf, xsf_log)
from hkforge.solver import RSmallError, _upsilon_value, midsector_zetas
from reference import (laurent_fit, ov_gibbons_hawking, spread_zetas,
                       varpi_sf)


@pytest.fixture(scope="module")
def sf_fit(pentagon, pentagon_point, pentagon_solution):
    zetas = midsector_zetas(pentagon_solution, 12)
    samples = [varpi_sf(pentagon, pentagon_point, z) for z in zetas]
    return zetas, samples, laurent_fit(zetas, samples)


class TestVarpiPipeline:
    def test_antisymmetry_exact(self, sf_fit):
        _, samples, _ = sf_fit
        for m in samples:
            assert np.array_equal(m, -m.T)

    def test_continuity_across_rays(self, pentagon, pentagon_point,
                                    pentagon_solution):
        sampler = VarpiSampler(pentagon, pentagon_point, tol_iter=1e-12)
        for grid in pentagon_solution.grids[:2]:
            z0 = grid.ray.direction
            plus = sampler.varpi(z0, side=+1)
            minus = sampler.varpi(z0, side=-1)
            assert np.max(np.abs(plus - minus)) < 1e-7

    def test_derivative_step_halving_order_two(self, pentagon,
                                               pentagon_point):
        # finite differences of log X^sf against the analytic derivative:
        # halving the step must cut the defect by about four
        zeta = cmath.exp(0.41j)
        truth = dlog_xsf_matrix(pentagon, pentagon_point, zeta)
        basis = pentagon.lattice.basis()
        defects = []
        for h in (2e-4, 1e-4):
            a = np.zeros((2, 4), dtype=complex)
            for mu, disp in enumerate((h, 1j * h)):
                for i, g in enumerate(basis):
                    lp = xsf_log(pentagon, pentagon_point.shifted(du=disp),
                                 g, zeta)
                    lm = xsf_log(pentagon, pentagon_point.shifted(du=-disp),
                                 g, zeta)
                    a[i, mu] = (lp - lm) / (2 * h)
            defects.append(np.max(np.abs(a[:, :2] - truth[:, :2])))
        order = math.log2(defects[0] / defects[1])
        assert order == pytest.approx(2.0, abs=0.35)


class TestFamilySolve:
    def test_one_discretization_per_point(self, pentagon, pentagon_point,
                                          monkeypatch):
        # one solve, and one evaluation for all the zetas of the fit
        calls = {}
        for module, name in [(solver, "build_grids"), (solver, "_prepare"),
                             (solver, "iterate"), (geometry, "_upsilon_value"),
                             (geometry, "dlog_xsf_matrix")]:
            original = getattr(module, name)
            calls[name] = 0

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        fit_point(pentagon, pentagon_point)
        assert calls == {"build_grids": 1, "_prepare": 1, "iterate": 1,
                         "_upsilon_value": 1, "dlog_xsf_matrix": 1}

    @staticmethod
    def _moment_points(pentagon, ov):
        # metric-grid style points: 4 rays at least 0.4 rad apart, R in
        # [1, 3]; then points on both sides of both wall arcs, where 6 rays
        # take near-ray terms, a sector 0.30 rad wide, and OV points
        rng = np.random.default_rng(5)
        points = []
        while len(points) < 20:
            u = complex(*rng.uniform(-1.3, 1.3, 2))
            R, theta = rng.uniform(1.0, 3.0), tuple(rng.uniform(0, 6.28, 2))
            if abs(u) < 0.05 or pentagon.chamber(u) != "in":
                continue
            d = abs(cmath.phase(np.divide(*pentagon.Z.basis_values(u))))
            if min(d, math.pi - d) >= 0.4:
                points.append((pentagon, ModelPoint(u, R, theta)))
        for phi in (0.9, -0.8):
            w = pentagon_wall_point(pentagon, phi)
            points += [(pentagon, ModelPoint(f * w, 0.35, (0.37, 1.29)))
                       for f in (0.98, 1.02, 1.2)]
        points += [(pentagon, ModelPoint(0.912714 - 1.172892j, 1.6779,
                                         (1.592338, 4.799999))),
                   (ov, ModelPoint(0.5, 1.0, (0.3, 1.1))),
                   (ov, ModelPoint(0.2 * cmath.exp(2.0j), 0.4, (5.0, 0.2)))]
        return points

    @staticmethod
    def _reference(model, point):
        sampler = VarpiSampler(model, point)
        zetas = spread_zetas(sampler.center.grids)
        return laurent_fit(zetas, [sampler.varpi(z) for z in zetas])

    def test_moments_match_reference_fit(self, pentagon, ov):
        # the split from the tangent moments against a least-squares fit of
        # per-zeta varpi samples spread over every sector
        for model, point in self._moment_points(pentagon, ov):
            fit, metric, _ = fit_point(model, point)
            ref = self._reference(model, point)
            for got, want in [(fit.omega_plus, ref.omega_plus),
                              (fit.omega_3, ref.omega_3),
                              (metric.g, metric_from_triple(
                                  ref.omega_plus, ref.omega_3).g)]:
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))

    def test_moments_need_first_moment(self, pentagon, monkeypatch):
        # control: without the e^{-s} moment dU_1, omega_3 misses the
        # reference by far more than the bound, while the sampled check
        # at this point still passes
        moments = geometry.zeta_zero_moments

        def without_first(*args):
            u0, u1 = moments(*args)
            return u0, np.zeros_like(u1)
        monkeypatch.setattr(geometry, "zeta_zero_moments", without_first)
        point = ModelPoint(0.45 + 0.25j, 3.0, (0.37, 1.29))
        fit, _, _ = fit_point(pentagon, point)
        want = self._reference(pentagon, point).omega_3
        assert np.max(np.abs(fit.omega_3 - want)) \
            > 1e-11 * np.max(np.abs(want))

    def test_batched_evaluation_matches_per_direction(self, pentagon,
                                                      pentagon_point):
        sampler = VarpiSampler(pentagon, pentagon_point)
        grids, tangents = sampler.center.grids, sampler.tangents
        basis = pentagon.lattice.basis()[:2]

        def agree(zeta, **kw):
            stacked = _upsilon_value(pentagon, grids, tangents, basis, zeta,
                                     **kw)
            assert stacked.shape == (4, 2)
            for mu in range(4):
                alone = _upsilon_value(pentagon, grids, tangents[mu], basis,
                                       zeta, **kw)
                assert np.max(np.abs(stacked[mu] - alone)) <= 1e-15

        agree(midsector_zetas(grids, 1)[0])
        # within the near angle one continuation serves every stacked density
        agree(grids[0].ray.direction * cmath.exp(0.5j * grids[0].near_angle))
        for grid in grids:
            for side in (+1, -1):
                agree(grid.ray.direction, side=side)


class TestLaurentFit:
    def test_recovers_closed_forms(self, pentagon, pentagon_point, sf_fit):
        _, _, fit = sf_fit
        assert np.max(np.abs(fit.omega_plus
                             - omega_plus_sf(pentagon, pentagon_point))) < 1e-7
        assert np.max(np.abs(fit.omega_3
                             - omega3_sf(pentagon, pentagon_point))) < 1e-7

    def test_reality_defects(self, sf_fit):
        _, _, fit = sf_fit
        assert fit.omega3_imag < 1e-8
        assert fit.conj_defect < 1e-8
        assert fit.residual < 1e-8

    def test_rejects_double_pole(self, pentagon, pentagon_point,
                                 monkeypatch):
        bump = np.zeros((4, 4))
        bump[0, 1], bump[1, 0] = 1e-4, -1e-4
        varpi = VarpiSampler.varpi
        monkeypatch.setattr(VarpiSampler, "varpi", lambda self, z, **kw: (
            varpi(self, z, **kw) + bump / np.asarray(z)[..., None, None] ** 2))
        with pytest.raises(ValueError, match="higher Laurent"):
            fit_point(pentagon, pentagon_point)


class TestMetric:
    def test_two_routes_agree_on_semiflat(self, pentagon, pentagon_point,
                                          sf_fit):
        _, _, fit = sf_fit
        via_fit = metric_from_triple(fit.omega_plus, fit.omega_3)
        via_closed = metric_from_triple(
            omega_plus_sf(pentagon, pentagon_point),
            omega3_sf(pentagon, pentagon_point))
        assert np.max(np.abs(via_fit.g - via_closed.g)) < 1e-6
        assert via_fit.positive_definite

    def test_complex_structure_squares_to_minus_one(self, sf_fit):
        _, _, fit = sf_fit
        ms = metric_from_triple(fit.omega_plus, fit.omega_3)
        assert ms.j_squared_defect < 1e-8
        assert np.max(np.abs(ms.J.T @ ms.g @ ms.J - ms.g)) < 1e-8

    def test_triple_wedge_algebra(self, sf_fit):
        _, _, fit = sf_fit
        check = triple_wedge_check(fit.omega_plus, fit.omega_3)
        assert check.equal_squares_defect < 1e-8
        assert check.mixed_defect < 1e-8
        assert check.volume != 0.0

    def test_wedge4_is_symmetric_pairing(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        a = a - a.T
        b = rng.normal(size=(4, 4))
        b = b - b.T
        assert wedge4(a, b) == pytest.approx(wedge4(b, a))

    def test_corrected_ov_decay(self, ov):
        # corrections to the metric fall like exp(-2 pi R |u|)
        diffs = []
        for R in (1.5, 2.5):
            pt = ModelPoint(0.55, R, (0.9, 2.1))
            _, corrected, _ = fit_point(ov, pt)
            flat = metric_from_triple(omega_plus_sf(ov, pt), omega3_sf(ov, pt))
            assert corrected.positive_definite
            diffs.append(np.max(np.abs(corrected.g - flat.g)))
        ratio = diffs[1] / diffs[0]
        want = math.exp(-2 * math.pi * 0.55)
        assert math.log(ratio) == pytest.approx(math.log(want), rel=0.25)

    def test_narrow_sector_point(self, pentagon):
        # two rays 0.3014 rad apart: sampled at the sector midpoints, not
        # at midpoints turned by 0.15 rad, which come within 1e-3 of a ray
        pt = ModelPoint(0.912714 - 1.172892j, 1.6779, (1.592338, 4.799999))
        fit, metric, _ = fit_point(pentagon, pt)
        assert fit.residual < 1e-13
        assert metric.positive_definite

    @pytest.mark.parametrize("phi", [0.9, -0.3, -0.8])
    def test_residual_samples_clear_of_rays(self, pentagon, phi,
                                            monkeypatch):
        # at 1.0025 x a wall (R 0.35) two sectors are about 1e-3 rad wide
        # and their midpoints lie within RAY_AVOIDANCE_ANGLE of their rays:
        # the residual reads only midpoints SAMPLE_RAY_GAP or more from
        # every ray
        pt = ModelPoint(1.0025 * pentagon_wall_point(pentagon, phi), 0.35,
                        (0.37, 1.29))
        seen, varpi = [], VarpiSampler.varpi

        def recorded(self, zeta, **kwargs):
            seen.append((self.center.grids, np.atleast_1d(zeta)))
            return varpi(self, zeta, **kwargs)

        monkeypatch.setattr(VarpiSampler, "varpi", recorded)
        _, metric, _ = fit_point(pentagon, pt)
        assert metric.positive_definite
        (grids, zetas), = seen
        rays = np.exp(1j * np.array([grid.ray.angle for grid in grids]))
        mids = np.exp(1j * np.array(solver.sector_midpoints(grids)))
        assert np.abs(np.angle(mids[:, None] / rays)).min() \
            < solver.RAY_AVOIDANCE_ANGLE
        gaps = np.abs(np.angle(zetas[:, None] / rays))
        assert len(zetas) and gaps.min() >= geometry.SAMPLE_RAY_GAP

    def test_no_residual_sample_raises(self, pentagon, pentagon_point,
                                       monkeypatch):
        # no midpoint lies pi from every ray: the residual would have no
        # sample, and the point is refused rather than given a residual 0
        monkeypatch.setattr(geometry, "SAMPLE_RAY_GAP", math.pi)
        with pytest.raises(ValueError, match="no sector midpoint"):
            fit_point(pentagon, pentagon_point)
        # control: at R 40 no charge is active, and zeta = 1, clear of
        # every ray, is still sampled
        seen, varpi = [], VarpiSampler.varpi
        monkeypatch.setattr(VarpiSampler, "varpi", lambda self, zeta: (
            seen.append(zeta) or varpi(self, zeta)))
        fit_point(pentagon, ModelPoint(1.5 + 0.2j, 40.0, (0.37, 1.29)))
        assert len(seen) == 1 and np.array_equal(seen[0], [1.0])

    def test_ov_against_gibbons_hawking(self, ov):
        # fit_point's g against the closed-form OV metric over the disc;
        # the control keeps only the n = 1 Bessel terms
        rng = np.random.default_rng(8)
        worst, worst_control, ran = 0.0, 0.0, 0
        for _ in range(40):
            u = rng.uniform(0.01, 0.9) * cmath.exp(1j * rng.uniform(-3, 3))
            pt = ModelPoint(u, rng.uniform(0.1, 3.2),
                            tuple(rng.uniform(0, 2 * math.pi, 2)))
            try:
                _, metric, _ = fit_point(ov, pt)
            except RSmallError:
                continue
            ran += 1
            size = np.max(np.abs(metric.g))
            worst = max(worst, np.max(np.abs(
                metric.g - ov_gibbons_hawking(ov, pt))) / size)
            worst_control = max(worst_control, np.max(np.abs(
                metric.g - ov_gibbons_hawking(ov, pt, terms=1))) / size)
        assert ran >= 30
        assert worst <= 1e-12
        assert worst_control > 1e-3

    def test_corrected_pentagon_point(self, pentagon):
        pt = ModelPoint(1.5 + 0.2j, 2.0, (0.37, 1.29))
        fit, metric, algebra = fit_point(pentagon, pt)
        assert fit.residual < 1e-7
        # conj_defect ties the zeta and 1/zeta coefficients together, which
        # is the reality of the corrected two-form family
        assert fit.conj_defect < 1e-8
        assert fit.omega3_imag < 1e-8
        assert metric.positive_definite
        assert algebra.equal_squares_defect < 1e-6
        assert algebra.mixed_defect < 1e-6
