import cmath
import math

import numpy as np
import pytest

from hkforge.lattice import DegeneratePointError, bps_rays, charge
from hkforge.models import (load_model, model_from_config, model_info,
                            ov_continued_z, ov_oracle, pentagon_model,
                            pentagon_wall_point, save_model)
from hkforge.semiflat import xsf
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
