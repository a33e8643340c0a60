import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge.lattice import charge
from hkforge.semiflat import (ModelPoint, dlog_xsf_matrix, omega3_sf,
                              omega_plus_sf, pairing_two_form, theta_eval,
                              varpi_expected, varpi_sf, xsf, xsf_log)

G1, G2 = charge(1, 0), charge(0, 1)
TWO_PI = 2.0 * math.pi


def wrap(a):
    return a % TWO_PI


class TestModelPoint:
    def test_non_finite_u_refused(self):
        for u in (complex(math.nan, 0.0), complex(0.0, math.inf)):
            with pytest.raises(ValueError):
                ModelPoint(u, 1.0, (0.3, 1.1))

    @settings(max_examples=200, derandomize=True, database=None)
    @given(theta=st.lists(st.floats(), min_size=1, max_size=3),
           R=st.floats())
    def test_normalisation(self, theta, R):
        # theta is reduced into [0, 2 pi) and keeps its class mod 2 pi;
        # R must be positive and theta finite, so NaN is refused as well
        if not (R > 0 and all(map(math.isfinite, theta))):
            with pytest.raises(ValueError):
                ModelPoint(0.3, R, theta)
            return
        pt = ModelPoint(0.3, R, theta)
        assert pt.u == 0.3 + 0j and pt.R == R
        assert len(pt.theta) == len(theta)
        for t, t0 in zip(pt.theta, theta):
            assert 0.0 <= t < TWO_PI
            assert abs(math.remainder(t - t0, TWO_PI)) \
                <= 4 * math.ulp(max(abs(t0), TWO_PI))


class TestTwistedCharacter:
    def test_basis_evaluation(self, pentagon):
        pt = ModelPoint(0.4, 2.0, (0.7, 2.9))
        assert theta_eval(pentagon.lattice, pt, G1) == pytest.approx(0.7)
        assert theta_eval(pentagon.lattice, pt, G2) == pytest.approx(2.9)

    def test_opposite_charges_cancel(self, pentagon):
        pt = ModelPoint(0.4, 2.0, (0.7, 2.9))
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = charge(*rng.integers(-5, 6, size=2))
            s = theta_eval(pentagon.lattice, pt, g) \
                + theta_eval(pentagon.lattice, pt, -g)
            assert min(wrap(s), TWO_PI - wrap(s)) < 1e-12

    def test_pentagon_shift(self, pentagon):
        pt = ModelPoint(0.4, 2.0, (0.7, 2.9))
        t1 = theta_eval(pentagon.lattice, pt, G1)
        t2 = theta_eval(pentagon.lattice, pt, G2)
        t12 = theta_eval(pentagon.lattice, pt, G1 + G2)
        assert wrap(t1 + t2 - t12 - math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_twisted_character_identity_random(self, pentagon):
        pt = ModelPoint(0.4, 2.0, (0.7, 2.9))
        lat = pentagon.lattice
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = charge(*rng.integers(-4, 5, size=2))
            b = charge(*rng.integers(-4, 5, size=2))
            lhs = theta_eval(lat, pt, a) + theta_eval(lat, pt, b)
            rhs = theta_eval(lat, pt, a + b) + math.pi * lat.pair(a, b)
            assert min(wrap(lhs - rhs), TWO_PI - wrap(lhs - rhs)) < 1e-9


class TestSemiflatCoordinates:
    def test_value_matches_log(self, ov, ov_point):
        cv = xsf(ov, ov_point, G1, 0.7 + 0.2j)
        assert cv.value == pytest.approx(cmath.exp(cv.log_value))

    def test_overflow_refused_with_log_value(self, ov):
        # log |X| = 1870 here, past exp's float range; 0.01 zeta is not
        point = ModelPoint(-0.1656 - 0.1046j, 7.29, (1.4, 2.3))
        with pytest.raises(ValueError, match=r"log X = 1869\.7"):
            xsf(ov, point, G1, 635.7 - 401.7j)
        cv = xsf(ov, point, G1, 0.01 * (635.7 - 401.7j))
        assert cv.value == cmath.exp(cv.log_value)

    def test_modulus_on_own_ray(self, ov, ov_point):
        z = ov.Z.of(G2, ov_point.u)
        d = -z / abs(z)
        cv = xsf(ov, ov_point, G2, d)
        assert abs(cv.value) == pytest.approx(
            math.exp(-2 * math.pi * ov_point.R * abs(z)))
        # unit-circle modulus law
        zeta = cmath.exp(0.9j)
        cv2 = xsf(ov, ov_point, G2, zeta)
        want = math.exp(2 * math.pi * ov_point.R * (z / zeta).real)
        assert abs(cv2.value) == pytest.approx(want)

    def test_inverse_pair(self, ov, ov_point):
        zeta = 0.8 * cmath.exp(0.3j)
        prod = xsf(ov, ov_point, G2, zeta).value \
            * xsf(ov, ov_point, -G2, zeta).value
        assert prod == pytest.approx(1.0)

    def test_reality(self, pentagon, pentagon_point):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = charge(*rng.integers(-3, 4, size=2))
            zeta = (0.3 + rng.random()) * cmath.exp(2j * math.pi * rng.random())
            lhs = xsf(pentagon, pentagon_point, g, -1 / np.conj(zeta)).value
            rhs = np.conj(xsf(pentagon, pentagon_point, -g, zeta).value)
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_twisted_multiplicativity(self, pentagon, pentagon_point):
        rng = np.random.default_rng(6)
        zeta = 1.1 * cmath.exp(0.77j)
        for _ in range(20):
            a = charge(*rng.integers(-3, 4, size=2))
            b = charge(*rng.integers(-3, 4, size=2))
            lhs = xsf(pentagon, pentagon_point, a, zeta).value \
                * xsf(pentagon, pentagon_point, b, zeta).value
            rhs = (-1) ** pentagon.lattice.pair(a, b) \
                * xsf(pentagon, pentagon_point, a + b, zeta).value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_zero_zeta_rejected(self, ov, ov_point):
        with pytest.raises(ValueError):
            xsf_log(ov, ov_point, G1, 0.0)


class TestSemiflatForms:
    def test_omega_plus_no_theta_theta_block(self, pentagon, pentagon_point):
        wp = omega_plus_sf(pentagon, pentagon_point)
        assert wp[2, 3] == 0.0 and wp[3, 2] == 0.0

    def test_omega_plus_ov_closed_form(self, ov, ov_point):
        wp = omega_plus_sf(ov, ov_point)
        dzm, dze = ov.Z.basis_derivatives(ov_point.u)
        # -(1/2 pi)(dZ_1 ^ dtheta_2 - dZ_2 ^ dtheta_1) on (x, theta_2)
        assert wp[0, 3] == pytest.approx(-(1 / (2 * math.pi)) * dzm)
        assert wp[0, 2] == pytest.approx(+(1 / (2 * math.pi)) * dze)
        assert wp[1, 3] == pytest.approx(-(1 / (2 * math.pi)) * 1j * dzm)

    def test_omega3_structure(self, pentagon, pentagon_point):
        w3 = omega3_sf(pentagon, pentagon_point)
        # no mixed (dZ, dtheta) terms
        assert np.allclose(w3[:2, 2:], 0.0)
        # theta-theta block: -(1/8 pi^2 R) <dtheta ^ dtheta> with the pinned
        # dual pairing gives -dtheta_1 ^ dtheta_2 / (4 pi^2 R)
        assert w3[2, 3] == pytest.approx(
            -1.0 / (4 * math.pi ** 2 * pentagon_point.R))

    def test_omega3_r_scaling(self, pentagon):
        p1 = ModelPoint(0.5 + 0.3j, 2.0, (0.1, 0.4))
        p2 = ModelPoint(0.5 + 0.3j, 4.0, (0.1, 0.4))
        w1, w2 = omega3_sf(pentagon, p1), omega3_sf(pentagon, p2)
        assert np.allclose(w2[:2, :2], 2.0 * w1[:2, :2])
        assert np.allclose(w2[2:, 2:], 0.5 * w1[2:, 2:])

    def test_twistor_identity_on_circle(self, pentagon):
        rng = np.random.default_rng(12)
        pt = ModelPoint(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)),
                        3.0, (rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
        wp, w3 = omega_plus_sf(pentagon, pt), omega3_sf(pentagon, pt)
        for k in range(12):
            zeta = cmath.exp(1j * (0.23 + TWO_PI * k / 12))
            lhs = varpi_sf(pentagon, pt, zeta)
            rhs = varpi_expected(wp, w3, zeta)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_no_double_pole(self, pentagon, pentagon_point):
        # zeta^2 varpi(zeta) -> 0 linearly in zeta; a 1/zeta^2 term would
        # freeze its magnitude as zeta -> 0
        n = {z: np.max(np.abs(varpi_sf(pentagon, pentagon_point, z))) * z * z
             for z in (5e-4, 1e-3)}
        ratio = n[5e-4] / n[1e-3]
        assert ratio == pytest.approx(0.5, rel=1e-3)

    def test_varpi_reality(self, pentagon, pentagon_point):
        for zeta in (0.9 * cmath.exp(0.4j), 1.3 * cmath.exp(-2.1j)):
            lhs = varpi_sf(pentagon, pentagon_point, -1 / np.conj(zeta))
            rhs = np.conj(varpi_sf(pentagon, pentagon_point, zeta))
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_antisymmetry_exact(self, pentagon, pentagon_point):
        m = varpi_sf(pentagon, pentagon_point, cmath.exp(0.31j))
        assert np.array_equal(m, -m.T)

    def test_pairing_two_form_rank(self, pentagon, pentagon_point):
        a = dlog_xsf_matrix(pentagon, pentagon_point, cmath.exp(0.5j))
        m = pairing_two_form(pentagon.lattice, a)
        assert m.shape == (4, 4)

    def test_batched_rows_and_forms(self, pentagon, pentagon_point):
        # an array of zetas stacks the one-zeta matrices and forms, and
        # the periods' derivatives are read once per call
        zetas = 1.3 * np.exp(1j * np.linspace(0.1, 6.0, 7))
        calls = []

        def counted(u):
            calls.append(u)
            return pentagon.Z.basis_derivatives(u)

        model = dataclasses.replace(pentagon, Z=dataclasses.replace(
            pentagon.Z, basis_derivatives=counted))
        rows = dlog_xsf_matrix(model, pentagon_point, zetas)
        assert len(calls) == 1 and rows.shape == (7, 2, 4)
        forms = pairing_two_form(pentagon.lattice, rows)
        for z, r, m in zip(zetas, rows, forms):
            alone = dlog_xsf_matrix(pentagon, pentagon_point, z)
            assert np.max(np.abs(r - alone)) <= 1e-15 * np.max(np.abs(alone))
            form = pairing_two_form(pentagon.lattice, alone)
            assert np.max(np.abs(m - form)) <= 1e-15 * np.max(np.abs(form))
