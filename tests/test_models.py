import cmath
import math

import mpmath
import numpy as np
import pytest

from hkforge.lattice import DegeneratePointError, bps_rays, charge
from hkforge.models import (load_model, model_from_config, model_info,
                            ov_continued_z, ov_oracle, pentagon_model,
                            pentagon_wall_point, save_model)
from hkforge.semiflat import ModelPoint, theta_eval, xsf, xsf_log
from hkforge.solver import evaluate, solve

G1, G2 = charge(1, 0), charge(0, 1)


class TestOvModel:
    def test_spectrum_values(self, ov):
        for u in (0.4, 0.2 + 0.3j):
            assert ov.spectrum.omega(G2, u) == 1
            assert ov.spectrum.omega(-G2, u) == 1
            assert ov.spectrum.omega(G1, u) == 0
            assert ov.spectrum.omega(G1 + G2, u) == 0

    def test_no_walls(self, ov):
        # every active pair is proportional, so the ray scan never collides
        rng = np.random.default_rng(1)
        for _ in range(25):
            u = (0.15 + 0.7 * rng.random()) \
                * cmath.exp(1j * rng.uniform(-2.6, 2.6))
            rays = bps_rays(ov.spectrum, ov.Z, u, R=1.0)
            assert len(rays) == 2

    def test_monodromy_consistency(self, ov):
        # continuing once around u = 0 sends the magnetic period to
        # magnetic + electric, the monodromy model_info prints
        u = 0.3 + 0.1j
        z_m, z_e = ov.Z.basis_values(u)
        z_m_cont, z_e_cont = ov_continued_z(ov, u, loops=1)
        mono = np.array(((1, 1), (0, 1)))
        want = mono @ np.array([z_m, z_e])
        assert abs(z_m_cont - want[0]) < 1e-14
        assert abs(z_e_cont - want[1]) < 1e-14

    def test_domain_guard(self, ov):
        with pytest.raises(ValueError):
            ov.Z.basis_values(1.2)
        with pytest.raises(DegeneratePointError):
            ov.Z.basis_values(1e-12)


class TestPentagonModel:
    def test_z_additivity(self, pentagon):
        u = 0.7 + 0.4j
        z1 = pentagon.Z.of(G1, u)
        z2 = pentagon.Z.of(G2, u)
        z12 = pentagon.Z.of(G1 + G2, u)
        assert abs(z12 - z1 - z2) < 1e-13

    def test_vanishing_cycles(self, pentagon):
        # e2 collapses at +2 Lambda^3 and e1 at -2 Lambda^3
        z2_sizes = [abs(pentagon.Z.of(G2, u)) for u in (1.8, 1.95, 1.99)]
        assert z2_sizes == sorted(z2_sizes, reverse=True)
        assert z2_sizes[-1] < 0.01
        z1_sizes = [abs(pentagon.Z.of(G1, u)) for u in (-1.8, -1.95, -1.99)]
        assert z1_sizes == sorted(z1_sizes, reverse=True)
        assert z1_sizes[-1] < 0.01

    def test_wall_is_aligned_ratio_locus(self, pentagon):
        # upper arc: Z_{e1} / Z_{e2} real positive; on the lower arc the
        # frame jump turns the aligned pair into (e1, -e2)
        for phi in (0.4, 0.9, 1.6, 2.3):
            w = pentagon_wall_point(pentagon, phi)
            eta = pentagon.Z.of(G1, w) / pentagon.Z.of(G2, w)
            assert abs(eta.imag) < 1e-7
            assert eta.real > 0
        for phi in (-0.8, -1.7):
            w = pentagon_wall_point(pentagon, phi)
            eta = pentagon.Z.of(G1, w) / pentagon.Z.of(G2, w)
            assert abs(eta.imag) < 1e-7
            assert eta.real < 0

    def test_wall_conjugation_symmetry(self, pentagon):
        w = pentagon_wall_point(pentagon, 0.9)
        wc = pentagon_wall_point(pentagon, -0.9)
        assert abs(wc - np.conj(w)) < 1e-7

    def test_chamber_map_against_wall_radius(self, pentagon):
        rng = np.random.default_rng(4)
        for _ in range(24):
            phi = rng.uniform(0.25, math.pi - 0.25) * rng.choice([-1, 1])
            w = pentagon_wall_point(pentagon, phi)
            inner = 0.8 * w
            outer = 1.2 * w
            assert pentagon.chamber(inner) == "in"
            assert pentagon.chamber(outer) == "out"

    def test_condition4_at_weak_coupling(self, pentagon):
        d1, d2 = pentagon.Z.basis_derivatives(3.0)
        assert (d1 * np.conj(d2)).imag > 0

    def test_discriminant_guard(self, pentagon):
        with pytest.raises(DegeneratePointError):
            pentagon.Z.basis_values(-2.0)

    def test_lambda_scaling(self):
        lam = 1.3 * cmath.exp(0.4j)
        scaled = pentagon_model(lam)
        unit = pentagon_model()
        u = 0.5 + 0.2j
        want = lam ** 2.5 * np.array(unit.Z.basis_values(u))
        got = np.array(scaled.Z.basis_values(u * lam ** 3))
        assert np.allclose(got, want, rtol=1e-12)


def _mp_oracle_log(ov, point, zeta, signs=(1, -1)):
    """mpmath reference for log X_{e1} at 20 digits, one tanh-sinh quadrature.

    On the ray of g = sign * e2, zeta' = d e^s with d = -Z_g/|Z_g|, so
    X_g = exp(i theta_g - 2 pi R |Z| cosh s) and the kernel is
    (e^s + zeta/d) / (e^s - zeta/d).  The window s in [-25, 25] is fixed and
    split at log|zeta|, where the kernel peaks when zeta nears a ray.
    """
    def f(s):
        es = mpmath.exp(s)
        x = mpmath.exp(-a * (es + 1 / es) / 2)
        if x < 1e-26:  # under 1e-19 even with the kernel's 2e6 at 1e-6 rad
            return 0
        return sum(p * (es + q) / (es - q) * mpmath.log(1 - x * phase)
                   for p, q, phase in rays)

    with mpmath.workdps(20):
        rays = []
        for sign in signs:
            g = sign * G2
            z = mpmath.mpc(ov.Z.of(g, point.u))
            rays.append((ov.lattice.pair(G1, g), zeta * -abs(z) / z,
                         mpmath.expj(theta_eval(ov.lattice, point, g))))
        a = 2 * mpmath.pi * point.R * abs(z)
        total = mpmath.quad(f, [-25, math.log(abs(zeta)), 25]) \
            / (-4j * mpmath.pi)
    return xsf_log(ov, point, G1, zeta) + complex(total)


class TestOvOracle:
    def test_matches_solver(self, ov, ov_point, ov_solution):
        rng = np.random.default_rng(17)
        for _ in range(5):
            zeta = (0.4 + rng.random()) * cmath.exp(1j * rng.uniform(0.2, 2.9))
            got = evaluate(ov, ov_solution, G1, zeta)
            want = ov_oracle(ov, ov_point, G1, zeta)
            assert abs(got.value - want.value) <= 1e-10 * abs(want.value)

    def test_electric_ratio_is_one(self, ov, ov_point):
        zeta = 0.7 * cmath.exp(0.9j)
        got = ov_oracle(ov, ov_point, G2, zeta)
        ref = xsf(ov, ov_point, G2, zeta)
        assert got.value == pytest.approx(ref.value)

    def test_reality_condition(self, ov, ov_point):
        zeta = 0.8 * cmath.exp(0.7j)
        lhs = ov_oracle(ov, ov_point, G1, -1 / np.conj(zeta)).value
        rhs = np.conj(ov_oracle(ov, ov_point, -G1, zeta).value)
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_matches_mpmath(self, ov):
        # generic points, zeta 1e-4 and 1e-6 rad from a ray, and R |Z| of
        # 5e-6, where |X| is still 0.08 at |s| = 12; with theta 0 there X
        # comes within 3e-5 of 1, where 1 - X must not cancel
        u = 0.5 * cmath.exp(0.4j)
        near = ModelPoint(u, 1.0, (0.3, 1.1))
        d = -u / abs(u)  # the ray of +e2
        cases = [(near, 0.7 * cmath.exp(0.9j)),
                 (ModelPoint(0.35 - 0.2j, 0.5, (1.0, 2.0)),
                  1.4 * cmath.exp(-2.0j)),
                 (ModelPoint(0.6j, 2.0, (5.0, 0.2)), 0.45 * cmath.exp(2.5j)),
                 (near, 0.8 * d * cmath.exp(1e-4j)),
                 (near, -1.3 * d * cmath.exp(-1e-6j)),
                 (ModelPoint(u, 1e-5, (0.3, 1.1)), 0.9 * cmath.exp(1.5j))]
        for point, zeta in cases:
            got = ov_oracle(ov, point, G1, zeta).log_value
            assert abs(got - _mp_oracle_log(ov, point, zeta)) <= 1e-13
        point, zeta = ModelPoint(u, 1e-5, (0.0, 0.0)), 0.9 * cmath.exp(1.5j)
        got = ov_oracle(ov, point, G1, zeta).log_value
        assert abs(got - _mp_oracle_log(ov, point, zeta)) <= 1e-14
        # control: a reference without the ray of -e2 is far off
        point, zeta = cases[0]
        got = ov_oracle(ov, point, G1, zeta).log_value
        assert abs(got - _mp_oracle_log(ov, point, zeta, signs=(1,))) > 1e-3

    def test_ray_proximity_rejected(self, ov, ov_point):
        d = -ov_point.u / abs(ov_point.u)
        with pytest.raises(ValueError):
            ov_oracle(ov, ov_point, G1, d)


class TestConfigRoundTrip:
    def test_save_load(self, tmp_path, pentagon):
        path = tmp_path / "pentagon.json"
        save_model(pentagon, str(path))
        again = load_model(str(path))
        assert again.name == "pentagon"
        assert again.Lambda == pentagon.Lambda
        u = 0.4 + 0.3j
        assert np.allclose(again.Z.basis_values(u),
                           pentagon.Z.basis_values(u))

    def test_builtin_names(self):
        assert load_model("ov").name == "ov"
        assert load_model("pentagon").name == "pentagon"

    def test_mismatched_pairing_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"model": "ov", "Lambda": [1.0, 0.0],
                               "pairing": [[0, 2], [-2, 0]]})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"model": "hitchin"})

    def test_info_text(self, ov, pentagon):
        assert "monodromy" in model_info(ov)
        assert "vanishing cycles" in model_info(pentagon)
