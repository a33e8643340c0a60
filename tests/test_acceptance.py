"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line so the whole gate can be read off a
plain ``pytest -s tests/test_acceptance.py`` run.
"""

import cmath
import math
import time

import numpy as np
import pytest

from hkforge.geometry import VarpiSampler, fit_point
from hkforge.ks import ConeGrading, check_wcf, ks_transform, ordered_product
from hkforge.lattice import Spectrum, charge, validate_conditions
from hkforge.models import ov_oracle, pentagon_wall_point
from hkforge.semiflat import (ModelPoint, omega3_sf, omega_plus_sf,
                              varpi_expected)
from hkforge.solver import (check_wall_continuity, correction_decay,
                            evaluate, midsector_zetas, radial_limit,
                            ray_jump_defect, solve, upsilon)
from hkforge.trees import TreeIntegrator, layer_gate, series_solution
from reference import laurent_fit, varpi_sf

G1, G2 = charge(1, 0), charge(0, 1)
TWO_PI = 2.0 * math.pi


def report(name, detail):
    print(f"\nacceptance {name}: PASS ({detail})")


def test_criterion_1_pentagon_wall_crossing_identity(pentagon):
    start = time.perf_counter()
    grading = ConeGrading(pentagon.lattice, (G1, G2))
    for order in range(2, 9):
        lhs = ordered_product([ks_transform(grading, G1, 1, order),
                               ks_transform(grading, G2, 1, order)])
        rhs = ordered_product([ks_transform(grading, G2, 1, order),
                               ks_transform(grading, G1 + G2, 1, order),
                               ks_transform(grading, G1, 1, order)])
        equal, first = check_wcf(lhs, rhs)
        assert equal, f"pentagon identity fails at order {order} (degree {first})"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("1 wall-crossing identity",
           f"orders 2..8 exact, {elapsed:.2f}s")


def test_criterion_2_semiflat_twistor_identity(pentagon):
    rng = np.random.default_rng(20260809)
    worst_identity = 0.0
    worst_residual = 0.0
    for _ in range(5):
        u = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        point = ModelPoint(u, 3.0,
                           (rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
        wp = omega_plus_sf(pentagon, point)
        w3 = omega3_sf(pentagon, point)
        zetas = [cmath.exp(1j * (0.19 + TWO_PI * k / 12)) for k in range(12)]
        samples = []
        for z in zetas:
            lhs = varpi_sf(pentagon, point, z)
            samples.append(lhs)
            defect = np.max(np.abs(lhs - varpi_expected(wp, w3, z)))
            worst_identity = max(worst_identity, float(defect))
        fit = laurent_fit(zetas, samples)
        worst_residual = max(worst_residual, fit.residual)
    assert worst_identity < 1e-7
    assert worst_residual < 1e-7
    report("2 semiflat twistor identity",
           f"identity defect {worst_identity:.1e}, "
           f"Laurent residual {worst_residual:.1e}")


def test_criterion_3_ov_one_step(ov):
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for k in range(20):
        R = (0.5, 1.0, 2.0)[k % 3]
        u = (0.3 + 0.5 * rng.random()) * cmath.exp(1j * rng.uniform(-2.6, 2.6))
        theta = (rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        point = ModelPoint(u, R, theta)
        sol = solve(ov, point)
        assert sol.iterations == 1
        zeta = (0.4 + 1.3 * rng.random()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        while min(abs(cmath.phase(zeta / g.ray.direction))
                  for g in sol.grids) < 0.05:
            zeta *= cmath.exp(0.31j)
        # electric coordinate keeps its semiflat value exactly
        assert upsilon(ov, sol, G2, zeta) == 0.0
        got = evaluate(ov, sol, G1, zeta)
        want = ov_oracle(ov, point, G1, zeta)
        worst = max(worst, abs(got.value - want.value) / abs(want.value))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0
    report("3 OV one-step solution",
           f"20 samples, worst oracle mismatch {worst:.1e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def rh_point(pentagon):
    point = ModelPoint(1.5 + 0.2j, 2.0, (0.37, 1.29))
    assert pentagon.chamber(point.u) == "in"
    return point, solve(pentagon, point, tol_iter=1e-12)


def test_criterion_4a_ray_jumps(pentagon, rh_point):
    point, sol = rh_point
    worst = max(ray_jump_defect(pentagon, sol, i)
                for i in range(len(sol.grids)))
    assert worst < 1e-7
    report("4a ray jumps", f"4 rays, worst defect {worst:.1e}")


def test_criterion_4b_reality(pentagon, rh_point):
    point, sol = rh_point
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(8):
        zeta = (0.5 + rng.random()) * cmath.exp(1j * rng.uniform(0.3, 1.0))
        for gamma in (G1, G2, G1 + G2):
            lhs = evaluate(pentagon, sol, gamma, -1 / np.conj(zeta)).value
            rhs = np.conj(evaluate(pentagon, sol, -gamma, zeta).value)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-10
    report("4b reality condition", f"worst defect {worst:.1e}")


def test_criterion_4c_radial_limit(pentagon, rh_point):
    point, sol = rh_point
    angles = sorted(g.ray.angle for g in sol.grids)
    direction = cmath.exp(1j * (angles[0] + 0.5 * (angles[1] - angles[0])))
    worst = 0.0
    for gamma in (G1, G2):
        lim = radial_limit(pentagon, sol, gamma, direction)
        assert abs(lim) > 0.1  # finite, nonzero
        worst = max(worst, abs(lim.imag))
    assert worst < 1e-6
    report("4c radial limit real", f"imaginary part {worst:.1e}")


def test_criterion_5_decay_law(pentagon):
    rep = correction_decay(pentagon, 1.2, (0.37, 1.29),
                           [1.0, 1.5, 2.0, 2.5, 3.0, 4.0], n_angles=8)
    assert rep.relative_error < 0.02
    report("5 decay law",
           f"slope {rep.slope:+.4f} vs -2 pi min|Z| = {rep.target:+.4f}, "
           f"error {rep.relative_error:.2%}")


def test_criterion_6_tree_sum(pentagon, ov):
    # pentagon strong coupling at R = 3
    point = ModelPoint(0.6 + 0.3j, 3.0, (0.37, 1.29))
    sol = solve(pentagon, point, tol_iter=1e-13)
    integ = TreeIntegrator(pentagon, point, sol.grids)
    min_z = min(g.ray.min_abs_z() for g in sol.grids)
    bound = max(math.exp(-TWO_PI * point.R * 5 * min_z),
                10 * sol.spec.eps_quad)
    rng = np.random.default_rng(5)
    zetas = midsector_zetas(sol, 10)
    worst = 0.0
    for z in zetas:
        for gamma in (G1, G2):
            tree_val = series_solution(pentagon, point, gamma, z, 4,
                                       integrator=integ)
            ref = evaluate(pentagon, sol, gamma, z)
            worst = max(worst, abs(tree_val.log_value - ref.log_value))
    assert worst < bound

    # OV reduces to the same single integrals at every cutoff
    ov_pt = ModelPoint(0.5, 1.0, (0.3, 1.1))
    ov_sol = solve(ov, ov_pt, tol_iter=1e-13)
    worst_ov = 0.0
    for cutoff in (1, 2, 3, 4):
        got = series_solution(ov, ov_pt, G1, 0.8 * cmath.exp(1.1j), cutoff,
                              integrator=TreeIntegrator(ov, ov_pt,
                                                        ov_sol.grids))
        ref = evaluate(ov, ov_sol, G1, 0.8 * cmath.exp(1.1j))
        worst_ov = max(worst_ov, abs(got.log_value - ref.log_value))
    assert worst_ov < 1e-11
    report("6 tree-sum cross-check",
           f"pentagon worst {worst:.1e} < bound {bound:.1e}, "
           f"OV worst {worst_ov:.1e}")


def test_criterion_6_layer_gate(pentagon):
    # the cutoff-4 sum passes the gate set by its next layer |S_5 - S_4|,
    # and a sum one degree short, judged as cutoff 4, does not
    point = ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29))
    sol = solve(pentagon, point, tol_iter=1e-13)
    integ = TreeIntegrator(pentagon, point, sol.grids)
    min_z = min(g.ray.min_abs_z() for g in sol.grids)
    q_floor = math.exp(-TWO_PI * point.R * min_z)
    margin = math.inf
    for z in midsector_zetas(sol, 4):
        for gamma in (G1, G2):
            ref = evaluate(pentagon, sol, gamma, z).log_value
            s3, s4, s5 = (series_solution(pentagon, point, gamma, z, c,
                                          integrator=integ).log_value
                          for c in (3, 4, 5))
            gate = layer_gate(abs(s5 - s4), abs(s4 - s3), q_floor,
                              sol.spec.eps_quad)
            assert abs(s4 - ref) <= gate
            assert abs(s3 - ref) > gate
            margin = min(margin, gate / abs(s4 - ref),
                         abs(s3 - ref) / gate)
    report("6 tree-sum layer gate",
           f"cutoff 4 passes and cutoff 3 fails by a factor >= {margin:.1f}")


def test_criterion_7_varpi_continuity_and_metric(pentagon):
    # side limits of the two-form across every ray at a visible-correction
    # point, then triple algebra and positivity over random points
    point = ModelPoint(1.5 + 0.2j, 3.0, (0.37, 1.29))
    sol = solve(pentagon, point)
    sampler = VarpiSampler(pentagon, point, tol_iter=1e-12)
    worst_jump = 0.0
    for grid in sol.grids:
        z0 = grid.ray.direction
        d = np.max(np.abs(sampler.varpi(z0, side=+1)
                          - sampler.varpi(z0, side=-1)))
        worst_jump = max(worst_jump, float(d))
    assert worst_jump < 1e-7

    rng = np.random.default_rng(424242)
    worst_eq, worst_mixed = 0.0, 0.0
    count = 0
    while count < 20:
        u = complex(rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
        if pentagon.chamber(u) != "in" or abs(u) < 0.05:
            continue
        count += 1
        pt = ModelPoint(u, 3.0,
                        (rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
        fit, metric, algebra = fit_point(pentagon, pt)
        assert metric.positive_definite, f"not positive definite at u={u}"
        worst_eq = max(worst_eq, algebra.equal_squares_defect)
        worst_mixed = max(worst_mixed, algebra.mixed_defect)
    assert worst_eq < 1e-6
    assert worst_mixed < 1e-6
    report("7 two-form continuity and metric",
           f"varpi jump {worst_jump:.1e}; 20 points positive definite, "
           f"triple defects {worst_eq:.1e}/{worst_mixed:.1e}")


def test_criterion_8_wall_continuity(pentagon):
    w = pentagon_wall_point(pentagon, 0.9)
    u_in, u_out = 0.98 * w, 1.02 * w
    R, theta = 0.35, (0.37, 1.29)
    probe = solve(pentagon, ModelPoint(u_in, R, theta))
    zetas = midsector_zetas(probe, 4)
    genuine = check_wall_continuity(pentagon, u_in, u_out, R, theta, zetas,
                                    halvings=4)
    assert genuine.min_order() >= 0.9

    support_in = pentagon.spectrum.support(u_in)
    frozen = Spectrum(lambda g, u: 1 if g in support_in else 0,
                      lambda u: support_in)
    control = check_wall_continuity(pentagon, u_in, u_out, R, theta, zetas,
                                    halvings=4, spectrum_override=frozen)
    # the control must visibly stall: scaling order collapses and the last
    # discrepancy stays above the genuine run's
    assert control.min_order() < 0.5
    assert control.discrepancies[-1] > 3 * genuine.discrepancies[-1]
    report("8 wall continuity",
           f"orders {['%.2f' % o for o in genuine.orders]}, control stalls "
           f"at {control.discrepancies[-1]:.1e}")


def test_criterion_9_condition_validators(ov, pentagon):
    rep_ov = validate_conditions(ov, n_grid=16)
    rep_pent = validate_conditions(pentagon, n_grid=16)
    for rep in (rep_ov, rep_pent):
        assert rep.ok, rep.table()
        assert rep.residuals["condition2_dZdZ"] == 0.0
    worst = max(max(rep_ov.residuals.values()),
                max(rep_pent.residuals.values()))
    report("9 condition validators",
           f"both models, worst residual {worst:.1e}, dZ^dZ exactly 0")
