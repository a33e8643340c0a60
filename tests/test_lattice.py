import cmath
import math

import numpy as np
import pytest

from hkforge import lattice
from hkforge.lattice import (Charge, DegeneratePointError, Lattice,
                             LatticeError, WallProximityError, bps_rays,
                             charge, complex_derivative,
                             validate_conditions)
from hkforge.models import pentagon_wall_point

RANK2 = Lattice(((0, 1), (-1, 0)))
G1, G2 = charge(1, 0), charge(0, 1)


class TestPairing:
    def test_self_pairing_vanishes(self):
        assert RANK2.pair(G1, G1) == 0
        assert RANK2.pair(2 * G1 + 3 * G2, 2 * G1 + 3 * G2) == 0

    def test_pentagon_basis_pairing(self):
        assert RANK2.pair(G1, G2) == 1

    def test_bilinearity_example(self):
        assert RANK2.pair(2 * G1 + G2, G1) == -1

    def test_randomized_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (charge(*rng.integers(-9, 10, size=2)) for _ in range(3))
            m, n = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
            assert RANK2.pair(a, b) == -RANK2.pair(b, a)
            assert RANK2.pair(m * a + n * b, c) \
                == m * RANK2.pair(a, c) + n * RANK2.pair(b, c)

    def test_dimension_mismatch(self):
        with pytest.raises(LatticeError):
            RANK2.pair(charge(1, 0, 0), G1)


class TestLatticeValidation:
    def test_flavor_radical(self):
        lat = Lattice(((0, 1, 0), (-1, 0, 0), (0, 0, 0)), flavor_rank=1)
        gf = charge(0, 0, 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = charge(*rng.integers(-5, 6, size=3))
            assert lat.pair(gf, g) == 0

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(LatticeError):
            Lattice(((0, 1), (1, 0)))

    def test_rejects_wrong_radical_rank(self):
        with pytest.raises(LatticeError):
            Lattice(((0, 1), (-1, 0)), flavor_rank=1)

    def test_dual_pairing_inverts_gauge_block(self):
        dual = RANK2.dual_pairing()
        eps = RANK2.matrix().astype(float)
        assert np.allclose(dual @ eps, -np.eye(2))


class TestCentralCharge:
    def test_ov_electric_value(self, ov):
        assert ov.Z.of(charge(0, 1), 0.5) == pytest.approx(0.5)

    def test_ov_magnetic_value(self, ov):
        u = 0.5
        want = (u * cmath.log(u) - u) / (2j * math.pi)
        got = ov.Z.of(charge(1, 0), u)
        assert got == pytest.approx(want)

    def test_additivity_random(self, ov, pentagon):
        rng = np.random.default_rng(11)
        for model, u in ((ov, 0.4 + 0.2j), (pentagon, 0.8 + 0.5j)):
            for _ in range(25):
                a = charge(*rng.integers(-6, 7, size=2))
                b = charge(*rng.integers(-6, 7, size=2))
                lhs = model.Z.of(a + b, u)
                rhs = model.Z.of(a, u) + model.Z.of(b, u)
                assert abs(lhs - rhs) < 1e-13 * (1.0 + abs(lhs))

    def test_degenerate_point_raises(self, ov, pentagon):
        with pytest.raises(DegeneratePointError):
            ov.Z.basis_values(0.0)
        with pytest.raises(DegeneratePointError):
            pentagon.Z.basis_values(2.0)


class TestBpsRays:
    def test_ov_two_rays(self, ov):
        rays = bps_rays(ov.spectrum, ov.Z, 0.5, R=1.0)
        assert len(rays) == 2
        dirs = sorted(r.direction.real for r in rays)
        assert dirs == pytest.approx([-1.0, 1.0])
        charges = {r.charges[0] for r in rays}
        assert charges == {charge(0, 1), charge(0, -1)}

    def test_pentagon_chamber_counts(self, pentagon):
        assert len(bps_rays(pentagon.spectrum, pentagon.Z, 0.3 + 0.1j, R=2.0)) == 4
        u_out = 1.06 * pentagon_wall_point(pentagon, 0.9)
        assert len(bps_rays(pentagon.spectrum, pentagon.Z, u_out, R=1.0)) == 6

    def test_rays_sorted_and_opposite(self, pentagon):
        rays = bps_rays(pentagon.spectrum, pentagon.Z, 0.3 + 0.1j, R=2.0)
        angles = [r.angle for r in rays]
        assert angles == sorted(angles)
        by_charge = {r.charges[0]: r.direction for r in rays}
        for g, d in by_charge.items():
            assert by_charge[-g] == pytest.approx(-d)

    def test_wall_proximity_error(self, pentagon):
        w = pentagon_wall_point(pentagon, 0.9)
        with pytest.raises(WallProximityError):
            bps_rays(pentagon.spectrum, pentagon.Z, w, R=2.0)

    def test_spectral_cutoff_drops_far_charges(self, pentagon, monkeypatch):
        # the sum charge at weak coupling decays fastest; a loose cutoff or a
        # large R removes its rays while the primitive ones survive
        u_out = 1.06 * pentagon_wall_point(pentagon, 0.9)
        assert lattice.SPECTRAL_CUTOFF == 1e-16
        assert len(bps_rays(pentagon.spectrum, pentagon.Z, u_out,
                            R=1.0)) == 6
        assert len(bps_rays(pentagon.spectrum, pentagon.Z, 3.0j, R=2.0)) == 4
        monkeypatch.setattr(lattice, "SPECTRAL_CUTOFF", 2e-7)
        assert len(bps_rays(pentagon.spectrum, pentagon.Z, u_out,
                            R=1.0)) == 4


class TestValidateConditions:
    def test_ov_grid(self, ov):
        report = validate_conditions(ov, n_grid=12)
        assert report.ok, report.table()
        assert report.residuals["condition2_dZdZ"] == 0.0

    def test_pentagon_grid(self, pentagon):
        report = validate_conditions(pentagon, n_grid=10)
        assert report.ok, report.table()
        assert report.residuals["condition2_dZdZ"] == 0.0

    def test_pentagon_weak_coupling_point(self, pentagon):
        report = validate_conditions(pentagon, grid=[3.0 + 0.0j, 3.0j])
        assert report.residuals["condition4_positivity"] == 0.0

    def test_parity_invariant(self, ov, pentagon):
        for model, u in ((ov, 0.4), (pentagon, 0.5 + 0.2j), (pentagon, 3.0j)):
            for g in model.spectrum.support(u):
                assert model.spectrum.omega(g, u) == model.spectrum.omega(-g, u)


def test_complex_derivative_richardson():
    def f(u):
        return np.array([cmath.exp(u) * u ** 2])

    du, dubar = complex_derivative(f, 0.7 + 0.4j)
    u = 0.7 + 0.4j
    want = cmath.exp(u) * (u ** 2 + 2 * u)
    assert abs(du[0] - want) < 1e-10
    assert abs(dubar[0]) < 1e-10
