"""Fixed-point solver for the ray-jump integral equation.

The corrected coordinates satisfy

    X_gamma(z) = X^sf_gamma(z) * exp[ -(1/4 pi i) sum_g' Omega(g')<gamma,g'>
                  int_{ray(g')} (dz'/z') (z'+z)/(z'-z) log(1 - X_{g'}(z')) ]

and the only data the right side needs are the coordinates of the active
charges on their own rays.  Substituting z' = direction * e^s turns each ray
integral into a line integral whose integrand decays like exp(-2 pi R |Z|
cosh s), so truncated Gauss-Legendre panels resolve it to quadrature
precision.  The iteration starts from the semiflat values; its contraction
rate is set by the largest exp(-2 pi R |Z|) among active charges.

The log-corrections Upsilon = log(X / X^sf) are the stored unknowns: they
stay O(exp(-2 pi R |Z|)), which avoids the huge semiflat exponentials and
makes the smallness of the quantum corrections explicit.

Every ray integral applies one kernel, coth((s - w)/2) with the target at
direction * e^w, built by ``kernel_rows`` from a source grid and target
poles.  The solve builds it once per unordered ray pair whose charges pair
to nonzero (the reverse direction is minus its transpose, coth being odd),
so a sweep is a list of matvecs; off-grid evaluation and the tree sum call
the same builder.  When the target lies within NEAR_ANGLE of the source
ray the integrand is continued to the pole and subtracted, and the
subtracted part is integrated in closed form: the sweep stores that
remainder once per ordered near pair.  On a ray the two directed boundary
values of the closed form differ by the residue term +-2 pi i, which is how
the expected coordinate jumps emerge from one integral representation.

A family of nearby points (the two-form family's displaced solves) shares
one set of contours: ``solve_family`` builds the grids and the kernel once
at the centre and iterates every point on them, which a Cauchy deformation
of the ray contours permits.  Off-grid evaluation takes such a family at
once: each ray's kernel row (and near-ray remainder) is built once and
applied to the stacked log(1 - X) data of every solution.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .lattice import Charge, Ray, _wrap_angle, bps_rays
from .semiflat import CoordinateValue, ModelPoint, theta_eval

FOUR_PI_I = 4j * math.pi
NEAR_ANGLE = 0.2          # switch to the subtracted kernel below this offset
DEFAULT_MIN_ANGLE = 1e-3  # undirected evaluation forbidden below this offset


class RSmallError(ValueError):
    """Semiflat coordinates reach |X| >= 1 on a ray: R too small."""


class NonConvergenceError(RuntimeError):
    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


class RayProximityError(ValueError):
    """zeta within the directed-limit tolerance of a BPS ray."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters shared by all rays of one solve."""

    eps_quad: float = 1e-12
    panels: int = 16
    nodes_per_panel: int = 16
    eps_spec: float = 1e-16
    r_small_threshold: float = 0.9
    tail_margin: float = 4.0


@dataclass
class QuadratureGrid:
    """Gauss-Legendre panels on s in [-s_max, s_max] along one BPS ray."""

    ray: Ray
    s_nodes: np.ndarray
    weights: np.ndarray
    s_max: float

    @property
    def zeta_nodes(self) -> np.ndarray:
        return self.ray.direction * np.exp(self.s_nodes)

    @property
    def node_count(self) -> int:
        return len(self.s_nodes)


@dataclass
class RaySolution:
    """Converged log-corrections on every ray node, plus diagnostics.

    ``log_one_minus_x`` is computed from ``log_xsf`` and ``upsilon`` at
    construction, so those must not be edited afterwards: build a new
    solution with ``dataclasses.replace`` to change them.
    """

    point: ModelPoint
    grids: list[QuadratureGrid]
    log_xsf: list[dict[Charge, np.ndarray]]
    upsilon: list[dict[Charge, np.ndarray]]
    iterations: int
    residual: float
    residual_history: list[float]
    recheck_residual: float
    tol_iter: float
    spec: GridSpec
    # log(1 - X) on the ray nodes, the density every ray integral reads
    log_one_minus_x: list[dict[Charge, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self.log_one_minus_x = [
            {g: np.log(1.0 - np.exp(lsf[g] + ups[g])) for g in ups}
            for lsf, ups in zip(self.log_xsf, self.upsilon)]

    def max_correction(self) -> float:
        vals = [float(np.max(np.abs(u))) for ups in self.upsilon
                for u in ups.values()]
        return max(vals, default=0.0)


@functools.lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], read-only and shared."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_panels(s_max: float, panels: int, per_panel: int):
    base_x, base_w = _gl_rule(per_panel)
    edges = np.linspace(-s_max, s_max, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * base_x)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def build_grids(model, point: ModelPoint, spec: GridSpec = GridSpec()
                ) -> list[QuadratureGrid]:
    """One truncated quadrature grid per BPS ray at the given point.

    The truncation solves exp(-2 pi R |Z| cosh s_max) < eps_quad with a
    safety margin; if the semiflat modulus on some ray already exceeds the
    threshold at s = 0 the iteration could leave the log(1 - X) domain, and
    the point is rejected as "R too small".
    """
    rays = bps_rays(model.spectrum, model.Z, point.u, R=point.R,
                    eps_spec=spec.eps_spec)
    grids = []
    for ray in rays:
        min_z = ray.min_abs_z()
        peak = math.exp(-2.0 * math.pi * point.R * min_z)
        if peak >= spec.r_small_threshold:
            raise RSmallError(
                f"R too small: |X^sf| reaches {peak:.3f} on the ray of "
                f"{ray.charges[0]} (needs < {spec.r_small_threshold})")
        arg = (-math.log(spec.eps_quad) + spec.tail_margin) \
            / (2.0 * math.pi * point.R * min_z)
        s_max = math.acosh(max(arg, 1.5))
        s_nodes, weights = _gl_panels(s_max, spec.panels, spec.nodes_per_panel)
        grids.append(QuadratureGrid(ray=ray, s_nodes=s_nodes,
                                    weights=weights, s_max=s_max))
    return grids


def _log_xsf_on_nodes(model, point: ModelPoint, gamma: Charge,
                      zetas: np.ndarray) -> np.ndarray:
    z = model.Z.of(gamma, point.u)
    th = theta_eval(model.lattice, point, gamma)
    piR = math.pi * point.R
    return piR * z / zetas + 1j * th + piR * zetas * np.conj(z)


def _kernel_C(w, s_max: float):
    """Closed form of int_{-S}^{S} coth((s-w)/2) ds, principal branch.

    Continuous for 0 < |Im w| < pi; the signed-zero limits Im w = +-0.0
    reproduce the one-sided boundary values (residue term -+ ... +-2 pi i).
    """
    return (2.0 * s_max
            + 2.0 * (np.log(1.0 - np.exp(-(s_max - w)))
                     - np.log(1.0 - np.exp(s_max + w))))


def kernel_rows(grid: QuadratureGrid, w) -> np.ndarray:
    """Cauchy kernel coth((s - w)/2) at poles w (rows) and nodes s (columns).

    A pole w stands for zeta = direction * e^w, so the kernel is the
    rational (z' + zeta)/(z' - zeta) of the integral equation.  Where a pole
    lies within 1e-6 of a node the entry falls back to the leading Laurent
    term 2/(s - w), and to 0 within 1e-12, where the subtracted integrand
    vanishes.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    es = np.exp(grid.s_nodes)[None, :]
    ew = np.exp(w)[:, None]
    if np.min(np.abs(w.imag)) >= 1e-6:
        return (es + ew) / (es - ew)
    x = grid.s_nodes[None, :] - w[:, None]
    close = np.abs(x) < 1e-6
    rows = (es + ew) / np.where(close, 1.0, es - ew)
    rows[close] = 2.0 / np.where(np.abs(x) < 1e-12, np.inf, x)[close]
    return rows


def _remainder(grid: QuadratureGrid, rows: np.ndarray, w) -> np.ndarray:
    """Closed-form integral of the kernel rows minus their quadrature."""
    return _kernel_C(w, grid.s_max) - rows @ grid.weights


def _continued(spline: CubicSpline, w: np.ndarray, s_max: float
               ) -> np.ndarray:
    """Second-order Taylor continuation of a node spline to the poles w.

    Zero for poles past the truncated grid, where the data vanish.
    """
    sigma = np.clip(w.real, -s_max, s_max)
    dw = w - w.real
    vals = (spline(sigma) + dw * spline(sigma, 1)
            + 0.5 * dw * dw * spline(sigma, 2))
    return np.where(np.abs(w.real) <= s_max, vals, 0.0)


def cauchy_integral(grid: QuadratureGrid, f: np.ndarray, w,
                    f_pole=None) -> np.ndarray:
    """int_{-S}^{S} coth((s - w)/2) f(s) ds at poles w at one ray offset.

    ``f`` holds node values on its last axis; stacked densities share the
    kernel rows, and the result keeps their leading axes with the poles
    last.  Poles within NEAR_ANGLE of the ray subtract f continued to the
    pole (``f_pole``, by default the Taylor continuation of f's spline) and
    add it back against the closed-form kernel integral, so the fixed nodes
    resolve the integrand at any offset.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    rows = kernel_rows(grid, w)
    out = (rows @ (grid.weights * f).T).T
    if abs(w[0].imag) < NEAR_ANGLE:
        if f_pole is None:
            f_pole = _continued(CubicSpline(grid.s_nodes, f, axis=-1), w,
                                grid.s_max)
        out = out + f_pole * _remainder(grid, rows, w)
    return out


@dataclass
class _Workspace:
    """One sweep of the integral equation on fixed grids, as matvecs.

    ``unknowns`` lists (ray, charge) ray-major.  A term (t, s, coef, rows,
    near) adds coef * rows @ (weights * g_s) to unknown t, where g_s is
    log(1 - X) of unknown s on its nodes; for rays within NEAR_ANGLE,
    ``near`` = (poles, remainder) adds coef * remainder * g_s continued to
    the poles.  Each unordered ray pair has one kernel; the reverse
    direction reads it transposed with the opposite sign.
    """

    unknowns: list[tuple[int, Charge]]
    terms: list[tuple[int, int, complex, np.ndarray, tuple | None]]


def _prepare(model, point: ModelPoint, grids: list[QuadratureGrid]) -> _Workspace:
    lat = model.lattice
    unknowns = [(r, g) for r, grid in enumerate(grids)
                for g in grid.ray.charges]
    omegas = [om for grid in grids for om in grid.ray.omegas]
    blocks = {}

    def block(rt: int, rs: int):
        a, b = min(rt, rs), max(rt, rs)
        if (a, b) not in blocks:
            dphi = _wrap_angle(grids[a].ray.angle - grids[b].ray.angle)
            w_ab = grids[a].s_nodes + 1j * dphi
            rows = kernel_rows(grids[b], w_ab)
            near_ab = near_ba = None
            if abs(dphi) < NEAR_ANGLE:
                w_ba = grids[b].s_nodes - 1j * dphi
                near_ab = (w_ab, _remainder(grids[b], rows, w_ab))
                # the reverse term carries the sign of its kernel
                near_ba = (w_ba, -_remainder(grids[a], -rows.T, w_ba))
            blocks[(a, b)] = ((1.0, rows, near_ab), (-1.0, rows.T, near_ba))
        return blocks[(a, b)][rt > rs]

    terms = []
    for t, (rt, gt) in enumerate(unknowns):
        for s, (rs, gs) in enumerate(unknowns):
            p = lat.pair(gt, gs)
            if rs == rt or p == 0:
                continue
            sign, rows, near = block(rt, rs)
            terms.append((t, s, -sign * omegas[s] * p / FOUR_PI_I, rows,
                          near))
    return _Workspace(unknowns=unknowns, terms=terms)


def iterate(model, point: ModelPoint, grids: list[QuadratureGrid] | None = None,
            tol_iter: float = 1e-10, max_iter: int = 50,
            spec: GridSpec = GridSpec(),
            warm: RaySolution | None = None,
            workspace: _Workspace | None = None) -> RaySolution:
    """Solve the integral equation by iteration from the semiflat seed.

    Distinct rays never coincide off the walls, and charges sharing a ray
    pair to zero, so no principal values arise: every integral a node needs
    is over some other ray.  Iterations stop when the largest node update
    drops below ``tol_iter``; the converged data are re-checked by one more
    application of the map.  ``workspace`` is the sweep ``_prepare`` built
    on these same grids, shared by the points of one family.
    """
    if grids is None:
        grids = build_grids(model, point, spec)
    ws = workspace if workspace is not None else _prepare(model, point, grids)
    nr = len(grids)
    src_ray = [r for r, _ in ws.unknowns]
    log_xsf = [_log_xsf_on_nodes(model, point, g, grids[r].zeta_nodes)
               for r, g in ws.unknowns]
    ups = [np.zeros(grids[r].node_count, dtype=complex) for r in src_ray]
    if warm is not None and len(warm.grids) == nr and all(
            warm.grids[r].node_count == grids[r].node_count
            and set(warm.upsilon[r]) == set(grids[r].ray.charges)
            for r in range(nr)):
        ups = [warm.upsilon[r][g].copy() for r, g in ws.unknowns]
    near_sources = {s for _, s, _, _, near in ws.terms if near is not None}

    def apply_once(current):
        gw, splines = [], {}
        for s, (r, lsf, u) in enumerate(zip(src_ray, log_xsf, current)):
            x = np.exp(lsf + u)
            if float(np.max(np.abs(x))) >= 1.0 - 1e-9:
                raise RSmallError(
                    "iteration left the log(1 - X) domain: R too small")
            g = np.log(1.0 - x)
            gw.append(grids[r].weights * g)
            if s in near_sources:
                splines[s] = CubicSpline(grids[r].s_nodes, g)
        new = [np.zeros_like(u) for u in current]
        for t, s, coef, rows, near in ws.terms:
            acc = rows @ gw[s]
            if near is not None:
                poles, rem = near
                acc += _continued(splines[s], poles,
                                  grids[src_ray[s]].s_max) * rem
            new[t] += coef * acc
        return new

    def change(a, b):
        return max((float(np.max(np.abs(x - y))) for x, y in zip(a, b)),
                   default=0.0)

    history: list[float] = []
    for _ in range(max_iter):
        new = apply_once(ups)
        history.append(change(new, ups))
        ups = new
        if history[-1] < tol_iter:
            break
    else:
        raise NonConvergenceError(
            f"no convergence within {max_iter} iterations "
            f"(last residual {history[-1]:.3e})", history)
    recheck_residual = change(apply_once(ups), ups)

    log_xsf_by_ray = [{} for _ in range(nr)]
    ups_by_ray = [{} for _ in range(nr)]
    for (r, g), lsf, u in zip(ws.unknowns, log_xsf, ups):
        log_xsf_by_ray[r][g] = lsf
        ups_by_ray[r][g] = u
    return RaySolution(point=point, grids=grids, log_xsf=log_xsf_by_ray,
                       upsilon=ups_by_ray, iterations=len(history),
                       residual=history[-1], residual_history=history,
                       recheck_residual=recheck_residual,
                       tol_iter=tol_iter, spec=spec)


def solve(model, point: ModelPoint, spec: GridSpec = GridSpec(),
          tol_iter: float = 1e-10, max_iter: int = 50,
          warm: RaySolution | None = None) -> RaySolution:
    return iterate(model, point, build_grids(model, point, spec),
                   tol_iter=tol_iter, max_iter=max_iter, spec=spec, warm=warm)


def solve_family(model, center: ModelPoint, points: list[ModelPoint],
                 spec: GridSpec = GridSpec(), tol_iter: float = 1e-10
                 ) -> tuple[RaySolution, list[RaySolution]]:
    """Solve a centre and nearby points on the centre's contours.

    The grids and the kernel are built once, at the centre; every point is
    iterated on them, warm-started from the centre.  Moving a point rotates
    its rays only slightly, and deforming the contours back onto the
    centre's rays leaves each ray integral unchanged, so the solutions
    agree with ordinary solves to quadrature precision.  Only the centre is
    checked for R too small; the iteration still guards |X| < 1.
    """
    grids = build_grids(model, center, spec)
    ws = _prepare(model, center, grids)
    solution = iterate(model, center, grids, tol_iter=tol_iter, spec=spec,
                       workspace=ws)
    return solution, [iterate(model, p, grids, tol_iter=tol_iter, spec=spec,
                              warm=solution, workspace=ws)
                      for p in points]


# ---------------------------------------------------------------------------
# Evaluation off the grid


def _g_exact_at(model, solution: RaySolution, r: int, gamma_s: Charge,
                w: complex) -> complex:
    """Analytic continuation of log(1 - X) off the charge's own ray.

    X_{gamma_s} is continuous across its own ray (proportional charges pair
    to zero), so the continuation to d e^w is just the coordinate there.
    The correction needs only integrals over *other* rays, evaluated with
    spline-interpolated densities; this keeps the recursion depth at one.
    """
    zeta_w = solution.grids[r].ray.direction * cmath.exp(complex(w))
    # zeta_w may lie on another ray: take the side that faces ray r
    ups = _upsilon_value(model, [solution], [gamma_s], zeta_w,
                         side=-1 if w.imag > 0 else +1, min_angle=1e-9,
                         exact_sigma=False, skip_ray=r)[0, 0]
    pt = solution.point
    log_sf = _log_xsf_on_nodes(model, pt, gamma_s,
                               np.array([zeta_w]))[0]
    return complex(np.log(1.0 - np.exp(log_sf + ups)))


def _upsilon_value(model, solutions: list[RaySolution],
                   charges: list[Charge], zeta: complex,
                   side: int | None = None,
                   min_angle: float = DEFAULT_MIN_ANGLE,
                   exact_sigma: bool = True,
                   skip_ray: int | None = None) -> np.ndarray:
    """log(X / X^sf) at zeta for each solution (rows) and charge (columns).

    The solutions must share their grids, as the points of a family solve
    do.  Each ray's kernel row, and within NEAR_ANGLE its closed-form
    remainder, is built once and applied to the stacked log(1 - X) of every
    solution and source charge.  With ``exact_sigma`` the density continued
    to a near pole is the coordinate itself, computed per solution since it
    is nonlinear in the data; otherwise it is the spline continuation.
    """
    lat = model.lattice
    total = np.zeros((len(solutions), len(charges)), dtype=complex)
    for r, grid in enumerate(solutions[0].grids):
        if r == skip_ray:
            continue
        sources = []
        for gamma_s, om_s in zip(grid.ray.charges, grid.ray.omegas):
            coefs = np.array([-om_s * lat.pair(gamma, gamma_s) / FOUR_PI_I
                              for gamma in charges])
            if om_s != 0 and np.any(coefs != 0):
                sources.append((gamma_s, coefs))
        if not sources:
            continue
        w = cmath.log(zeta / grid.ray.direction)
        if abs(w.imag) < min_angle:
            if side is None:
                raise RayProximityError(
                    f"zeta={zeta} within {min_angle} rad of the ray of "
                    f"{sources[0][0]}; request a directed limit")
            # A truly infinitesimal offset keeps the branch of the
            # closed-form kernel on the requested side (signed zeros do not
            # survive the subtraction inside the logarithms).
            w = complex(w.real, side * 1e-300)
        g = np.stack([sol.log_one_minus_x[r][gamma_s]
                      for gamma_s, _ in sources for sol in solutions])
        g_pole = None
        if exact_sigma and abs(w.imag) < NEAR_ANGLE:
            g_pole = 0.0
            if abs(w.real) <= grid.s_max:
                g_pole = np.array([[_g_exact_at(model, sol, r, gamma_s, w)]
                                   for gamma_s, _ in sources
                                   for sol in solutions])
        vals = cauchy_integral(grid, g, w, g_pole)[:, 0]
        for (_, coefs), part in zip(sources,
                                    vals.reshape(len(sources), -1)):
            total += part[:, None] * coefs
    return total


def upsilon(model, solution: RaySolution, gamma: Charge, zeta: complex,
            side: int | None = None,
            min_angle: float = DEFAULT_MIN_ANGLE) -> complex:
    """Converged log-correction log(X_gamma / X^sf_gamma) at zeta."""
    return complex(_upsilon_value(model, [solution], [gamma], complex(zeta),
                                  side, min_angle)[0, 0])


def evaluate(model, solution: RaySolution, gamma: Charge, zeta: complex,
             side: int | None = None,
             min_angle: float = DEFAULT_MIN_ANGLE) -> CoordinateValue:
    """Corrected coordinate X_gamma(zeta) from the converged ray data.

    ``side=+1/-1`` selects the counterclockwise/clockwise boundary value
    when zeta lies within ``min_angle`` of a BPS ray; without it such a
    zeta raises, since the coordinate jumps there.
    """
    zeta = complex(zeta)
    if zeta == 0:
        raise ValueError("zeta must be nonzero")
    ups = upsilon(model, solution, gamma, zeta, side=side,
                  min_angle=min_angle)
    log_sf = _log_xsf_on_nodes(model, solution.point, gamma,
                               np.array([zeta]))[0]
    lv = log_sf + ups
    return CoordinateValue(gamma=gamma, zeta=zeta, value=cmath.exp(lv),
                           log_value=lv)


def side_limit(model, solution: RaySolution, gamma: Charge, zeta0: complex,
               side: int, delta: float = 2e-4,
               extrap_tol: float = 1e-3) -> CoordinateValue:
    """Directed boundary value on a ray by two-point Richardson in delta.

    Evaluates at angular offsets delta and delta/2 on the requested side and
    extrapolates the log-corrections linearly to the ray.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 (counterclockwise) or -1")
    zeta0 = complex(zeta0)
    # both sample points must be genuine off-ray evaluations
    gate = min(DEFAULT_MIN_ANGLE, delta / 8.0)
    u1 = upsilon(model, solution, gamma,
                 zeta0 * cmath.exp(1j * side * delta), min_angle=gate)
    u2 = upsilon(model, solution, gamma,
                 zeta0 * cmath.exp(1j * side * delta / 2.0), min_angle=gate)
    extrapolated = 2.0 * u2 - u1
    if abs(u2 - u1) > extrap_tol * (1.0 + abs(extrapolated)):
        raise RayProximityError(
            f"side-limit extrapolation residual {abs(u2 - u1):.3e} "
            f"exceeds tolerance")
    log_sf = _log_xsf_on_nodes(model, solution.point, gamma,
                               np.array([zeta0]))[0]
    lv = log_sf + extrapolated
    return CoordinateValue(gamma=gamma, zeta=zeta0, value=cmath.exp(lv),
                           log_value=lv)


def on_ray_value(model, solution: RaySolution, gamma: Charge, zeta0: complex,
                 side: int) -> CoordinateValue:
    """Exact directed boundary value (the +-i0 closed-form kernel).

    zeta0 must sit on a ray to machine precision; other rays keep their
    genuine angular offsets.
    """
    zeta0 = complex(zeta0)
    ups = upsilon(model, solution, gamma, zeta0, side=side, min_angle=1e-9)
    log_sf = _log_xsf_on_nodes(model, solution.point, gamma,
                               np.array([zeta0]))[0]
    lv = log_sf + ups
    return CoordinateValue(gamma=gamma, zeta=zeta0, value=cmath.exp(lv),
                           log_value=lv)


def ray_jump_defect(model, solution: RaySolution, ray_index: int,
                    test_charges: list[Charge] | None = None,
                    use_richardson: bool = True) -> float:
    """Largest mismatch between directed limits and the expected ray jump.

    The clockwise value must equal the counterclockwise one multiplied by
    prod (1 - X_{g'}(zeta0))^(Omega <gamma, g'>) over the charges g' on the
    ray, with X_{g'} continuous there.
    """
    grid = solution.grids[ray_index]
    lat = model.lattice
    zeta0 = grid.ray.direction
    if test_charges is None:
        test_charges = lat.basis()
    factors = []
    for g_ray, om, _ in zip(grid.ray.charges, grid.ray.omegas, grid.ray.zs):
        x_on = on_ray_value(model, solution, g_ray, zeta0, side=+1)
        factors.append((g_ray, om, x_on.value))
    worst = 0.0
    for gamma in test_charges:
        if use_richardson:
            ccw = side_limit(model, solution, gamma, zeta0, +1)
            cw = side_limit(model, solution, gamma, zeta0, -1)
        else:
            ccw = on_ray_value(model, solution, gamma, zeta0, +1)
            cw = on_ray_value(model, solution, gamma, zeta0, -1)
        jump = 1.0 + 0.0j
        for g_ray, om, x_on in factors:
            jump *= (1.0 - x_on) ** (om * lat.pair(gamma, g_ray))
        predicted = ccw.value * jump
        scale = max(abs(cw.value), abs(predicted), 1e-300)
        worst = max(worst, abs(cw.value - predicted) / scale)
    return worst


def radial_limit(model, solution: RaySolution, gamma: Charge,
                 direction: complex,
                 radii: tuple[float, ...] = (1e-2, 1e-3, 1e-4)) -> complex:
    """Extrapolated zeta -> 0 limit of X/X^sf along a fixed mid-sector arg."""
    d = direction / abs(direction)
    vals = [cmath.exp(upsilon(model, solution, gamma, d * r)) for r in radii]
    # linear-in-radius extrapolation from the two smallest radii
    r1, r2 = radii[-2], radii[-1]
    return vals[-1] + (vals[-1] - vals[-2]) * r2 / (r1 - r2)


def midsector_zetas(solution: RaySolution | list[QuadratureGrid], n: int = 8,
                    modulus: float = 1.0) -> list[complex]:
    """Unit-scale zetas at angular midpoints between adjacent rays.

    Only the ray layout is read, so the grids of a solve will do as well.
    """
    grids = getattr(solution, "grids", solution)
    angles = sorted(g.ray.angle for g in grids)
    if not angles:
        return [modulus * cmath.exp(2j * math.pi * (k + 0.5) / n)
                for k in range(n)]
    mids = []
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)] + (2 * math.pi if i + 1 == len(angles) else 0)
        mids.append(0.5 * (a + b))
    out = []
    k = 0
    while len(out) < n:
        base = mids[k % len(mids)]
        jitter = 0.15 * ((k // len(mids)) % 3 - 1)
        out.append(modulus * cmath.exp(1j * (base + jitter)))
        k += 1
    return out


@dataclass
class WallReport:
    separations: list[float]
    discrepancies: list[float]
    orders: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.orders = [math.log2(a / b) if b > 0 else math.inf
                       for a, b in zip(self.discrepancies[:-1],
                                       self.discrepancies[1:])]

    def min_order(self) -> float:
        return min(self.orders) if self.orders else math.nan


def check_wall_continuity(model, u_in: complex, u_out: complex, R: float,
                          theta: tuple[float, ...],
                          zeta_list: list[complex],
                          halvings: int = 4,
                          spectrum_override=None,
                          tol_iter: float = 1e-11,
                          spec: GridSpec = GridSpec()) -> WallReport:
    """Coordinate mismatch across a wall for a halving sequence of pairs.

    Both sides are solved with their own chamber spectra (or a forced
    spectrum, for negative controls) and compared at the supplied zetas.
    The comparison is between the corrections X / X^sf: the semiflat factor
    is identical smooth data on both sides, and only the correction part
    carries the chamber spectrum whose consistency is under test.
    Continuity shows up as discrepancies scaling linearly to zero; a wrong
    spectrum on one side leaves a floor at the scale of the missing ray.
    """
    mdl = model if spectrum_override is None else \
        model.with_spectrum(spectrum_override)
    mid = 0.5 * (u_in + u_out)
    basis = model.lattice.basis()
    seps, discs = [], []
    for k in range(halvings + 1):
        ua = mid + (u_in - mid) / 2 ** k
        ub = mid + (u_out - mid) / 2 ** k
        sol_a = solve(mdl, ModelPoint(ua, R, theta), spec=spec,
                      tol_iter=tol_iter)
        sol_b = solve(mdl, ModelPoint(ub, R, theta), spec=spec,
                      tol_iter=tol_iter)
        worst = 0.0
        for z in zeta_list:
            for gamma in basis:
                va = cmath.exp(upsilon(mdl, sol_a, gamma, z))
                vb = cmath.exp(upsilon(mdl, sol_b, gamma, z))
                worst = max(worst, abs(va - vb))
        seps.append(abs(ua - ub))
        discs.append(worst)
    return WallReport(separations=seps, discrepancies=discs)


@dataclass
class DecayReport:
    r_values: list[float]
    max_corrections: list[float]
    slope: float
    target: float

    @property
    def relative_error(self) -> float:
        return abs(self.slope - self.target) / abs(self.target)


def correction_decay(model, u: complex, theta: tuple[float, ...],
                     r_values: list[float], n_angles: int = 12,
                     spec: GridSpec = GridSpec()) -> DecayReport:
    """Fit log(max correction over the unit circle) against R.

    The maximum is scanned over mid-sector points and directed on-ray
    values, where the boundary term makes the correction largest; its decay
    rate is -2 pi min|Z| over the active charges.
    """
    basis = model.lattice.basis()
    maxima = []
    min_z = None
    for R in r_values:
        point = ModelPoint(u, R, theta)
        sol = solve(model, point, spec=spec)
        if min_z is None:
            min_z = min(g.ray.min_abs_z() for g in sol.grids)
        peak = 0.0
        zetas = midsector_zetas(sol, n=n_angles)
        for z in zetas:
            for gamma in basis:
                peak = max(peak, abs(upsilon(model, sol, gamma, z)))
        for grid in sol.grids:
            for side in (+1, -1):
                vals = _upsilon_value(model, [sol], basis, grid.ray.direction,
                                      side=side, min_angle=1e-9)
                peak = max(peak, float(np.max(np.abs(vals))))
        maxima.append(peak)
    slope = float(np.polyfit(np.asarray(r_values, dtype=float),
                             np.log(np.asarray(maxima)), 1)[0])
    return DecayReport(r_values=list(r_values), max_corrections=maxima,
                       slope=slope, target=-2.0 * math.pi * float(min_z))
