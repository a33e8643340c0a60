import cmath
import math

import mpmath
import numpy as np
import pytest

from hkforge import models
from hkforge.lattice import DegeneratePointError, Spectrum, bps_rays, charge
from hkforge.models import (G7_WEIGHTS, GK15_NODES, GK15_WEIGHTS,
                            PentagonPeriods, load_model, model_from_config,
                            model_info, ov_continued_z, ov_oracle,
                            pentagon_model, pentagon_wall_point, save_model)
from hkforge.semiflat import ModelPoint, theta_eval, xsf, xsf_log
from hkforge.solver import evaluate, solve
from reference import quadpack_ov_log, stepwise_periods_state

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


def _mp_periods(roots):
    """mpmath reference for (Z1, dZ1, Z2, dZ2) at the roots (A, B, C).

    Z = (2 / pi) int y dz and dZ/du = (1 / pi) int dz / y over the segment
    from one root to the next, gamma_1 on [B, C] and gamma_2 on [A, B], at
    20 digits.  With z = m - w cos t the factors sqrt(z - z_a) and
    sqrt(z - z_b) are sqrt(2w) sin(t/2) and sqrt(-2w) cos(t/2), and the
    cut of sqrt(z - z_c) is turned away from the segment, so y is
    continuous on it and both integrands are smooth in t.
    """
    def pair(za, zb, zc):
        m, w = (za + zb) / 2, (zb - za) / 2
        mid = (za - zc) / abs(za - zc) + (zb - zc) / abs(zb - zc)
        rot = mid / abs(mid)
        k = mpmath.sqrt(2 * w) * mpmath.sqrt(-2 * w)

        def rest(t):
            return mpmath.sqrt(rot) * mpmath.sqrt(
                (m - w * mpmath.cos(t) - zc) / rot)

        z = mpmath.quad(lambda t: k * w * mpmath.sin(t) ** 2 / 2 * rest(t),
                        [0, mpmath.pi])
        dz = mpmath.quad(lambda t: 2 * w / (k * rest(t)), [0, mpmath.pi])
        return [complex(2 * z / mpmath.pi), complex(dz / mpmath.pi)]

    with mpmath.workdps(20):
        a, b, c = (mpmath.mpc(r) for r in roots)
        return pair(b, c, a) + pair(a, b, c)


class TestPentagonPeriods:
    def test_batched_matches_stepwise(self, pentagon):
        # the one-pass continuation against the step-by-step one, at random
        # u, 0.97 to 1.03 x the wall, within 1e-3 of +-2, on both sides of
        # the cut and inside the discriminant guard: bitwise roots and
        # periods, equal crossings and equal refusals
        rng = np.random.default_rng(20)
        pts = [complex(*rng.uniform(-3.5, 3.5, 2)) for _ in range(650)]
        for phi in np.linspace(-3.0, 3.0, 20):
            w = pentagon_wall_point(pentagon, phi)
            pts += [f * w for f in np.linspace(0.97, 1.03, 7)]
        for d in (2.0, -2.0):
            pts += [d + 1e-3 * rng.random() * cmath.exp(1j * a)
                    for a in rng.uniform(-math.pi, math.pi, 100)]
            pts += [1.3 * d + 0j, complex(1.3 * d, -0.0), 1.3 * d + 1e-300j,
                    d, d + 5e-7j, d + 2e-6]
        pts += [0j, 1e-16 + 0j, 1.0, -1.0, 1j, -1j]
        periods, refused = PentagonPeriods(), 0
        for u in pts:
            try:
                want = stepwise_periods_state(periods, u)
            except DegeneratePointError:
                with pytest.raises(DegeneratePointError):
                    periods.state(u)
                refused += 1
                continue
            got = periods.state(u)
            assert np.array_equal(got[0], want[0]), u
            assert got[1:] == want[1:], u
        assert len(pts) >= 1000 and refused == 4

    def test_against_mpmath(self, pentagon):
        # seeded u in both chambers and half-planes, just off the cut
        # beyond +-2 and near both discriminant points; each cycle matches
        # up to one global sign, shared by Z and dZ/du, which the
        # positivity and chamber tests pin
        rng = np.random.default_rng(21)
        periods = PentagonPeriods()
        pts = [r * cmath.exp(1j * side * rng.uniform(0.1, math.pi - 0.1))
               for lo, hi in ((0.2, 1.0), (2.6, 4.0)) for side in (1, -1)
               for r in rng.uniform(lo, hi, 2)]
        pts += [2.6 + 1e-9j, 2.6 - 1e-9j, -2.6 + 1e-9j, -2.6 - 1e-9j,
                2.001 + 0.001j, -1.999 - 0.0005j]
        assert {periods.chamber(u) for u in pts[:8]} == {"in", "out"}
        for u in pts:
            roots, *got = periods.state(u)[:5]
            want = _mp_periods(roots)
            for k in (0, 2):
                sign = 1 if abs(got[k] - want[k]) < abs(got[k] + want[k]) \
                    else -1
                for j in (k, k + 1):
                    assert abs(got[j] - sign * want[j]) <= 1e-13 * abs(want[j])
        # control: with A and C swapped gamma_1 is read on [B, A]
        roots, z1 = periods.state(pts[0])[:2]
        wrong = _mp_periods(roots[::-1])[0]
        assert min(abs(z1 - wrong), abs(z1 + wrong)) > 1e-3 * abs(z1)


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


# 1.3e-7 rad from the ray of +e2 at |zeta| 4.66 QUADPACK lost digits
NEAR_RAY_POINT = ModelPoint(-0.1262939485029246 - 0.19987922020950072j,
                            0.24424648916252484,
                            (0.42506509791020874, 4.729827528418785))


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

    def test_failed_quadrature_refused(self, ov, ov_point, monkeypatch):
        # 1.3e-7 rad from a ray at R 0.24, where QUADPACK called its real
        # pass divergent (estimate 6e-2) and missed mpmath by 0.09: the
        # oracle refuses or holds mpmath
        point, zeta = NEAR_RAY_POINT, 2.490426774049134 + 3.941474860969964j
        try:
            got = ov_oracle(ov, point, G1, zeta).log_value
        except ValueError as err:
            assert "error estimate" in str(err)
        else:
            assert abs(got - _mp_oracle_log(ov, point, zeta)) <= 1e-13
        # control: an ordinary value passes until its estimate is large
        zeta, rule = 0.7 * cmath.exp(0.9j), models.gauss_kronrod
        ov_oracle(ov, ov_point, G1, zeta)
        monkeypatch.setattr(models, "gauss_kronrod", lambda *a, **k: (
            rule(*a, **k)[0], 1e-6))
        with pytest.raises(ValueError, match="error estimate"):
            ov_oracle(ov, ov_point, G1, zeta)

    @pytest.mark.parametrize("side", [1, -1])
    def test_near_ray_matches_mpmath(self, ov, side):
        # zeta 1.3e-7 rad from the ray of +e2, where the kernel peaks at
        # t = 0 and its pole factor is formed exactly
        d = -NEAR_RAY_POINT.u / abs(NEAR_RAY_POINT.u)
        zeta = 4.66 * d * cmath.exp(side * 1.3e-7j)
        want = _mp_oracle_log(ov, NEAR_RAY_POINT, zeta)
        try:
            got = ov_oracle(ov, NEAR_RAY_POINT, G1, zeta).log_value
        except ValueError as err:
            assert "error estimate" in str(err)
        else:
            assert abs(got - want) <= 1e-13
        # control: QUADPACK on s with no break point misses by 2e-11 to
        # 3e-11 with an estimate under the 1e-9 refusal bound
        old, estimate = quadpack_ov_log(ov, NEAR_RAY_POINT, G1, zeta)
        assert abs(old - want) > 1e-11 and estimate < 1e-9

    def test_omega_from_spectrum(self, ov, ov_point):
        e2 = (G2, -G2)
        double = ov.with_spectrum(Spectrum(
            lambda g, u: 2 if g in e2 else 0, lambda u: e2))
        sol = solve(double, ov_point)
        for zeta in (0.7 * cmath.exp(0.9j), 1.3 * cmath.exp(-2.2j)):
            got = evaluate(double, sol, G1, zeta).value
            want = ov_oracle(double, ov_point, G1, zeta).value
            assert abs(got - want) <= 1e-12 * abs(want)
            # control: the oracle of Omega 1 misses the Omega 2 solution
            unit = ov_oracle(ov, ov_point, G1, zeta).value
            assert abs(got - unit) > 1e-3 * abs(unit)

    def test_rule_table(self):
        # on [-1, 1] the Kronrod rule is exact through degree 23 (the odd
        # degrees by symmetry) and the embedded Gauss rule through 13
        x = GK15_NODES
        for k in range(24):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(GK15_WEIGHTS @ x ** k - exact) <= 1e-15
            if k <= 13:
                assert abs(G7_WEIGHTS @ x ** k - exact) <= 1e-15
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.allclose(x[1::2], nodes, rtol=0, atol=1e-15)
        assert np.allclose(G7_WEIGHTS[1::2], weights, rtol=0, atol=1e-15)
        # controls: Gauss fails at degree 14 and Kronrod at 24
        assert abs(G7_WEIGHTS @ x ** 14 - 2.0 / 15) > 1e-4
        assert abs(GK15_WEIGHTS @ x ** 24 - 2.0 / 25) > 1e-9

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
