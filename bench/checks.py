"""Correctness checks of the benchmark, kept apart from the workloads.

Every check compares a result of hkforge with an independent computation
or with a property the method must have; none compares with stored output
of the program.  Each returns a list of ``Check`` records.  An accuracy
check carries a measured defect and its tolerance and enters the
``accuracy_digits`` metric; a pass/fail check (exact identities, bounds,
continuity and stall orders) does not.  ``check_controls.py`` feeds every
check a deliberately wrong result and requires it to be rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    defect: float
    tol: float
    accuracy: bool = False

    def digits(self) -> float:
        """log10(tolerance / defect); large when the defect is zero."""
        return math.log10(self.tol / max(self.defect, 1e-300))


def _passfail(name: str, ok: bool, defect: float = 0.0,
              tol: float = 0.0) -> Check:
    return Check(name, bool(ok), float(defect), float(tol), accuracy=False)


def _accuracy(name: str, defect: float, tol: float) -> Check:
    defect = float(defect)
    return Check(name, defect <= tol, defect, float(tol), accuracy=True)


# ---------------------------------------------------------------------------
# metric-grid

SEMIFLAT_FLOOR = 1e-9


def triple_metric(omega_plus: np.ndarray, omega_3: np.ndarray):
    """(J, g) from the form triple: J = -w1^{-1} w2, g = sym(w3 J)."""
    w1, w2 = omega_plus.real, omega_plus.imag
    j = -np.linalg.solve(w1, w2)
    g = omega_3 @ j
    return j, 0.5 * (g + g.T)


def _wedge(a: np.ndarray, b: np.ndarray) -> float:
    """Volume coefficient of a ^ b for 4x4 antisymmetric matrices."""
    return float(a[0, 1] * b[2, 3] - a[0, 2] * b[1, 3] + a[0, 3] * b[1, 2]
                 + a[2, 3] * b[0, 1] - a[1, 3] * b[0, 2] + a[1, 2] * b[0, 3])


def metric_checks(R: float, min_z: float, fit_residual: float,
                  omega_plus: np.ndarray, omega_3: np.ndarray,
                  g: np.ndarray, omega_plus_sf: np.ndarray,
                  omega3_sf: np.ndarray) -> list[Check]:
    """Checks of one ``fit_point`` result.

    The almost complex structure, the metric and the triple algebra are
    recomputed here from the fitted forms; the semiflat metric comes from
    the closed-form semiflat forms.  The corrections are of size
    exp(-2 pi R min|Z|), which bounds the distance to the semiflat metric
    down to SEMIFLAT_FLOOR, the relative accuracy of a metric built from
    central-difference two-forms (step 1e-4; observed noise <= 6e-11).
    """
    j, g_expected = triple_metric(omega_plus, omega_3)
    j_defect = float(np.max(np.abs(j @ j + np.eye(4))))
    forms = [omega_plus.real, omega_plus.imag, omega_3]
    squares = [_wedge(w, w) for w in forms]
    scale = max(abs(s) for s in squares)
    eq = max(abs(squares[i] - squares[0]) for i in (1, 2)) / scale
    mixed = max(abs(_wedge(forms[i], forms[k]))
                for i in range(3) for k in range(3) if i != k) / scale
    match = float(np.max(np.abs(g - g_expected))
                  / np.max(np.abs(g_expected)))
    eig = np.linalg.eigvalsh(0.5 * (g + g.T))
    _, g_sf = triple_metric(omega_plus_sf, omega3_sf)
    rel_sf = float(np.linalg.norm(g - g_sf) / np.linalg.norm(g_sf))
    bound = max(math.exp(-2.0 * math.pi * R * min_z), SEMIFLAT_FLOOR)
    return [
        _accuracy("laurent_residual", fit_residual, 1e-6),
        _accuracy("j_squared", j_defect, 1e-6),
        _accuracy("triple_equal_squares", eq, 1e-6),
        _accuracy("triple_mixed", mixed, 1e-6),
        _passfail("metric_from_triple", match <= 1e-9, match, 1e-9),
        _passfail("positive_definite", bool(np.all(eig > 0)),
                  float(-min(eig.min(), 0.0)), 0.0),
        _passfail("semiflat_bound", rel_sf <= bound, rel_sf, bound),
    ]


# ---------------------------------------------------------------------------
# wall-approach

MIN_ORDER = 0.9        # the floor of `hkforge wall-check`
CONTROL_ORDER = 0.5    # the frozen spectrum must stall below this


def orders(discrepancies: list[float]) -> list[float]:
    """Observed scaling orders log2(d_k / d_{k+1}) of a halving sequence."""
    return [math.log2(a / b) if b > 0 else math.inf
            for a, b in zip(discrepancies[:-1], discrepancies[1:])]


def wall_checks(genuine: list[float], control: list[float]) -> list[Check]:
    """Linear continuity across the wall, with a stalling frozen control.

    The accuracy anchor is the largest |order - 1| of the genuine sequence
    against the 0.1 that the 0.9 floor allows.
    """
    g_orders = orders(genuine)
    c_orders = orders(control)
    spread = max(abs(o - 1.0) for o in g_orders)
    return [
        _passfail("continuity_order", min(g_orders) >= MIN_ORDER,
                  min(g_orders), MIN_ORDER),
        _passfail("control_stalls", min(c_orders) < CONTROL_ORDER,
                  min(c_orders), CONTROL_ORDER),
        _accuracy("continuity_order_error", spread, 1.0 - MIN_ORDER),
    ]


def near_wall_jump_checks(defect: float) -> list[Check]:
    """Ray jumps of a near-wall solve: pass/fail only."""
    return [_passfail("near_wall_jump", defect < 1e-7, defect, 1e-7)]


# ---------------------------------------------------------------------------
# certify


def _series_equal(a, b) -> bool:
    return a.order == b.order and a.terms == b.terms


def automorphisms_equal(a, b) -> bool:
    """Exact equality of every generator-image cofactor."""
    return len(a.cofactors) == len(b.cofactors) and all(
        _series_equal(x, y) for x, y in zip(a.cofactors, b.cofactors))


def first_difference_degree(a, b) -> int | None:
    """Lowest total degree (sum of charge coefficients) at which a != b."""
    first = None
    for x, y in zip(a.cofactors, b.cofactors):
        for gamma in set(x.terms) | set(y.terms):
            if x.terms.get(gamma, 0) != y.terms.get(gamma, 0):
                d = sum(gamma.coeffs)
                first = d if first is None else min(first, d)
    return first


def identity_checks(lhs, rhs, control_lhs, control_rhs) -> list[Check]:
    """Pentagon identity exact; K1 K2 against K2 K1 differs at degree 2."""
    first = first_difference_degree(control_lhs, control_rhs)
    return [
        _passfail("pentagon_identity", automorphisms_equal(lhs, rhs)),
        _passfail("commutator_control", first == 2,
                  -1.0 if first is None else float(first), 2.0),
    ]


def chamber_checks(a_in, a_out, identity) -> list[Check]:
    """Spectrum generators on both sides of the wall agree exactly."""
    return [
        _passfail("chamber_generators", automorphisms_equal(a_in, a_out)),
        _passfail("chamber_nontrivial",
                  not automorphisms_equal(a_in, identity)),
    ]


def automorphism_checks(lhs, rhs) -> list[Check]:
    """image(X_a) image(X_b) == image(X_{a+b}) exactly."""
    return [_passfail("automorphism_property", _series_equal(lhs, rhs))]


def tree_checks(gap: float, R: float, cutoff: int, min_z: float,
                eps_quad: float) -> list[Check]:
    """Tree sum against the solver within the first omitted degree."""
    bound = max(math.exp(-2.0 * math.pi * R * (cutoff + 1) * min_z),
                10.0 * eps_quad)
    return [_passfail("tree_gap", gap < bound, gap, bound)]


def ov_checks(rel_err: float, electric_upsilon: complex) -> list[Check]:
    """OV solver against the adaptive-quadrature oracle."""
    return [
        _accuracy("ov_oracle", rel_err, 1e-9),
        _passfail("ov_electric_semiflat", electric_upsilon == 0.0,
                  abs(electric_upsilon), 0.0),
    ]


def ray_checks(jump: float, reality: float, radial: list[complex]
               ) -> list[Check]:
    """Ray jumps, the reality condition and a real, finite radial limit."""
    radial_imag = max(abs(v.imag) for v in radial)
    return [
        _accuracy("ray_jump", jump, 1e-7),
        _accuracy("reality", reality, 1e-10),
        _accuracy("radial_limit_imag", radial_imag, 1e-6),
        _passfail("radial_limit_finite", min(abs(v) for v in radial) > 0.1,
                  min(abs(v) for v in radial), 0.1),
    ]


def digits_by_check(per_item: list[list[Check]]) -> dict[str, float]:
    """Median digits over items of every accuracy check."""
    by_name: dict[str, list[float]] = {}
    for checks in per_item:
        for c in checks:
            if c.accuracy:
                by_name.setdefault(c.name, []).append(c.digits())
    return {k: float(np.median(v)) for k, v in by_name.items()}


def accuracy_digits(per_item: list[list[Check]]) -> float:
    """Minimum over accuracy checks of the median digits over items."""
    by_name = digits_by_check(per_item)
    if not by_name:
        raise ValueError("no accuracy checks recorded")
    return min(by_name.values())
