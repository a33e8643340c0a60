import cmath
import math

import numpy as np
import pytest

from hkforge import geometry, solver
from hkforge.geometry import (VarpiSampler, fit_point, laurent_fit,
                              metric_from_triple, triple_wedge_check, wedge4)
from hkforge.semiflat import (ModelPoint, dlog_xsf_matrix, omega3_sf,
                              omega_plus_sf, varpi_sf, xsf_log)
from hkforge.solver import _upsilon_value, midsector_zetas


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

    def test_batched_fit_matches_one_zeta_path(self, pentagon):
        # metric-grid style points: 4 rays at least 0.4 rad apart, R in
        # [1, 3]; the fit of one batched varpi call against per-zeta calls
        rng = np.random.default_rng(5)
        points = []
        while len(points) < 20:
            u = complex(*rng.uniform(-1.3, 1.3, 2))
            R, theta = rng.uniform(1.0, 3.0), tuple(rng.uniform(0, 6.28, 2))
            if abs(u) < 0.05 or pentagon.chamber(u) != "in":
                continue
            d = abs(cmath.phase(np.divide(*pentagon.Z.basis_values(u))))
            if min(d, math.pi - d) >= 0.4:
                points.append(ModelPoint(u, R, theta))
        for point in points:
            fit, metric, _ = fit_point(pentagon, point)
            sampler = VarpiSampler(pentagon, point)
            zetas = midsector_zetas(sampler.center.grids, 12)
            one = laurent_fit(zetas, [sampler.varpi(z) for z in zetas])
            for got, want in [(fit.omega_plus, one.omega_plus),
                              (fit.omega_3, one.omega_3),
                              (metric.g, metric_from_triple(
                                  one.omega_plus, one.omega_3).g)]:
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))

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

    def test_rejects_double_pole(self, sf_fit):
        zetas, samples, _ = sf_fit
        bump = np.zeros((4, 4))
        bump[0, 1], bump[1, 0] = 1e-4, -1e-4
        spiked = [m + bump / z ** 2 for m, z in zip(samples, zetas)]
        with pytest.raises(ValueError, match="higher Laurent"):
            laurent_fit(zetas, spiked)

    def test_needs_five_samples(self, sf_fit):
        zetas, samples, _ = sf_fit
        with pytest.raises(ValueError):
            laurent_fit(zetas[:4], samples[:4])


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
