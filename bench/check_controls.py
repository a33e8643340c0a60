"""Negative controls for the benchmark's own checks.

Each control feeds a check a genuine result, which must pass, and a
deliberately wrong one, which must be rejected, so that a check that
cannot fail is caught.  Run from the root of a checkout with

    python3 bench/check_controls.py
    python3 -m pytest -q bench/check_controls.py     (the same, under pytest)

It takes about ten seconds.
"""

from __future__ import annotations

import cmath
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from hkforge import ks, models, solver, trees  # noqa: E402
from hkforge.geometry import fit_point  # noqa: E402
from hkforge.lattice import Spectrum, charge  # noqa: E402
from hkforge.semiflat import ModelPoint, omega3_sf, omega_plus_sf  # noqa: E402

G1, G2 = charge(1, 0), charge(0, 1)
PENTAGON = models.pentagon_model()
OV = models.ov_model()


def _all_ok(found):
    return all(c.ok for c in found)


def _failed(found):
    return {c.name for c in found if not c.ok}


def test_metric_checks_reject_perturbed_metric():
    pt = ModelPoint(0.45 + 0.25j, 1.5, (0.37, 1.29))
    fit, metric, _ = fit_point(PENTAGON, pt)
    z1, z2 = PENTAGON.Z.basis_values(pt.u)
    args = dict(R=pt.R, min_z=min(abs(z1), abs(z2)),
                fit_residual=fit.residual, omega_plus=fit.omega_plus,
                omega_3=fit.omega_3, g=metric.g,
                omega_plus_sf=omega_plus_sf(PENTAGON, pt),
                omega3_sf=omega3_sf(PENTAGON, pt))
    assert _all_ok(checks.metric_checks(**args))

    g = metric.g.copy()
    g[0, 1] += 1e-3 * abs(g).max()
    g[1, 0] = g[0, 1]
    assert {"metric_from_triple", "semiflat_bound"} <= _failed(
        checks.metric_checks(**dict(args, g=g)))

    bent = fit.omega_plus.real + 1.01j * fit.omega_plus.imag
    assert "j_squared" in _failed(
        checks.metric_checks(**dict(args, omega_plus=bent)))

    flipped = -metric.g
    assert "positive_definite" in _failed(
        checks.metric_checks(**dict(args, g=flipped)))


def test_wall_checks_reject_swapped_sequences():
    genuine = [1e-3 / 2 ** k for k in range(5)]
    stalled = [1e-3, 7e-4, 6e-4, 5.6e-4, 5.5e-4]
    assert _all_ok(checks.wall_checks(genuine, stalled))
    assert {"continuity_order", "control_stalls"} <= _failed(
        checks.wall_checks(stalled, genuine))
    # a genuine sequence at order 0.92 passes the floor but costs digits
    slow = [1e-3 / 2 ** (0.92 * k) for k in range(5)]
    found = checks.wall_checks(slow, stalled)
    assert _all_ok(found)
    assert checks.accuracy_digits([found]) < 0.2
    assert "near_wall_jump" in _failed(
        checks.near_wall_jump_checks(1e-3))


def _k(grading, gamma, order, power=1):
    return ks.ks_transform(grading, gamma, power, order)


def test_identity_checks_reject_dropped_factor():
    grading = ks.ConeGrading(PENTAGON.lattice, (G1, G2))
    o = 6
    lhs = ks.ordered_product([_k(grading, G1, o), _k(grading, G2, o)])
    rhs = ks.ordered_product([_k(grading, G2, o), _k(grading, G1 + G2, o),
                              _k(grading, G1, o)])
    ctrl = ks.ordered_product([_k(grading, G2, o), _k(grading, G1, o)])
    assert _all_ok(checks.identity_checks(lhs, rhs, lhs, ctrl))
    # the K-factor of the bound state dropped
    assert "pentagon_identity" in _failed(
        checks.identity_checks(lhs, ctrl, lhs, ctrl))
    # a control that commutes cannot show the degree-2 difference
    assert "commutator_control" in _failed(
        checks.identity_checks(lhs, rhs, lhs, lhs))


def test_chamber_checks_reject_frozen_spectrum():
    w = models.pentagon_wall_point(PENTAGON, 0.9)
    u_in, u_out = 0.97 * w, 1.03 * w
    z = PENTAGON.Z.basis_values(u_in)
    mid = z[0] / abs(z[0]) + z[1] / abs(z[1])
    mid /= abs(mid)
    cone = (mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j))
    a_in = ks.spectrum_generator(PENTAGON, u_in, cone, 6)
    a_out = ks.spectrum_generator(PENTAGON, u_out, cone, 6)
    ident = ks.TorusAutomorphism.identity(a_in.grading, 6)
    assert _all_ok(checks.chamber_checks(a_in, a_out, ident))
    support_in = PENTAGON.spectrum.support(u_in)
    frozen = PENTAGON.with_spectrum(Spectrum(
        lambda g, u: 1 if g in support_in else 0, lambda u: support_in))
    strong_only = ks.spectrum_generator(frozen, u_out, cone, 6)
    assert "chamber_generators" in _failed(
        checks.chamber_checks(a_in, strong_only, ident))
    assert "chamber_nontrivial" in _failed(
        checks.chamber_checks(ident, ident, ident))


def test_automorphism_checks_reject_wrong_charge():
    grading = ks.ConeGrading(PENTAGON.lattice, (G1, G2))
    o = 6
    auto = ks.ordered_product([_k(grading, G1, o), _k(grading, G2, o),
                               _k(grading, G1 + G2, o, power=-2)])
    a, b = charge(2, -1), charge(-1, 2)
    lhs = auto.image_cofactor(a) * auto.image_cofactor(b)
    assert _all_ok(checks.automorphism_checks(lhs, auto.image_cofactor(a + b)))
    assert not _all_ok(checks.automorphism_checks(
        lhs, auto.image_cofactor(a + b + G1)))


def _tree_gap(pt, sol, cutoff, turn=0.0):
    """Tree sum at cutoff against the solver, optionally at turned zetas."""
    integ = trees.TreeIntegrator(PENTAGON, pt, sol.grids)
    gap = 0.0
    for zeta in solver.midsector_zetas(sol, 2):
        for gamma in (G1, G2):
            tv = trees.series_solution(PENTAGON, pt, gamma, zeta, cutoff,
                                       integrator=integ)
            ref = solver.evaluate(PENTAGON, sol, gamma,
                                  zeta * cmath.exp(1j * turn))
            gap = max(gap, abs(tv.log_value - ref.log_value))
    return gap


def test_tree_checks_reject_displaced_zeta():
    pt = ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29))
    sol = solver.solve(PENTAGON, pt, tol_iter=1e-13)
    min_z = min(g.ray.min_abs_z() for g in sol.grids)
    eps = sol.spec.eps_quad
    assert _all_ok(checks.tree_checks(_tree_gap(pt, sol, 4), pt.R, 4,
                                      min_z, eps))
    assert not _all_ok(checks.tree_checks(_tree_gap(pt, sol, 4, turn=1e-3),
                                          pt.R, 4, min_z, eps))
    # The bound max(exp(-2 pi R (c+1) min|Z|), 10 eps_quad) is loose: a sum
    # truncated one degree short still passes it (see CHANGES.md).
    assert _all_ok(checks.tree_checks(_tree_gap(pt, sol, 3), pt.R, 4,
                                      min_z, eps))


def test_ov_checks_reject_shifted_theta():
    pt = ModelPoint(0.5 * cmath.exp(0.4j), 1.0, (0.3, 1.1))
    zeta = 0.8 * cmath.exp(1.1j)
    sol = solver.solve(OV, pt)
    got = solver.evaluate(OV, sol, G1, zeta).value
    want = models.ov_oracle(OV, pt, G1, zeta).value
    electric = solver.upsilon(OV, sol, G2, zeta)
    assert _all_ok(checks.ov_checks(abs(got - want) / abs(want), electric))
    shifted = models.ov_oracle(OV, pt.shifted(dtheta=(0.0, 1e-3)), G1,
                               zeta).value
    assert "ov_oracle" in _failed(
        checks.ov_checks(abs(got - shifted) / abs(shifted), electric))
    assert "ov_electric_semiflat" in _failed(
        checks.ov_checks(abs(got - want) / abs(want), 1e-12))


def test_ray_checks_reject_missing_jump_and_conjugation():
    pt = ModelPoint(1.5 + 0.2j, 2.0, (0.37, 1.29))
    sol = solver.solve(PENTAGON, pt, tol_iter=1e-12)
    jump = max(solver.ray_jump_defect(PENTAGON, sol, i)
               for i in range(len(sol.grids)))
    zeta = 0.9 * cmath.exp(0.6j)
    lhs = solver.evaluate(PENTAGON, sol, G1, -1.0 / zeta.conjugate()).value
    rhs = solver.evaluate(PENTAGON, sol, -G1, zeta).value.conjugate()
    reality = abs(lhs - rhs) / abs(lhs)
    angles = sorted(g.ray.angle for g in sol.grids)
    direction = cmath.exp(0.5j * (angles[0] + angles[1]))
    radial = [solver.radial_limit(PENTAGON, sol, g, direction)
              for g in (G1, G2)]
    assert _all_ok(checks.ray_checks(jump, reality, radial))

    # the jump without its K-factor: clockwise against counterclockwise,
    # on the ray whose coordinate (and so whose jump) is largest
    ray = min((g.ray for g in sol.grids), key=lambda r: r.min_abs_z())
    z0 = ray.direction
    gamma = next(g for g in (G1, G2)
                 if PENTAGON.lattice.pair(g, ray.charges[0]))
    cw = solver.side_limit(PENTAGON, sol, gamma, z0, -1).value
    ccw = solver.side_limit(PENTAGON, sol, gamma, z0, +1).value
    no_jump = abs(cw - ccw) / abs(cw)
    assert "ray_jump" in _failed(checks.ray_checks(no_jump, reality, radial))
    # reality against the unconjugated coordinate
    bad = abs(lhs - rhs.conjugate()) / abs(lhs)
    assert "reality" in _failed(checks.ray_checks(jump, bad, radial))
    tilted = [v * cmath.exp(1e-3j) for v in radial]
    assert "radial_limit_imag" in _failed(
        checks.ray_checks(jump, reality, tilted))


def test_accuracy_digits_is_min_of_medians():
    a = [checks.Check("x", True, 1e-9, 1e-6, True),
         checks.Check("y", True, 1e-8, 1e-6, True),
         checks.Check("z", True, 1.0, 0.0)]
    b = [checks.Check("x", True, 1e-7, 1e-6, True),
         checks.Check("y", True, 1e-8, 1e-6, True)]
    c = [checks.Check("x", True, 1e-10, 1e-6, True),
         checks.Check("y", True, 1e-8, 1e-6, True)]
    assert math.isclose(checks.accuracy_digits([a, b, c]), 2.0)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} negative controls passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
