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
ray the density is continued to the pole, subtracted, and added back
against the closed-form kernel integral.  The continuation is one linear
operator, ``_near_term``: per pole, the nodes of one panel and their
interpolation weights, which the sweep stores once per ordered near pair
and evaluation rebuilds per pole.  On a ray the two directed boundary
values of the closed form differ by the residue term +-2 pi i, which is how
the expected coordinate jumps emerge from one integral representation.

There is one solve path: ``build_grids`` lays out the contours, ``_prepare``
builds the sweep on them, and ``iterate`` applies ``_sweep`` until the node
data stop changing.  ``solve`` runs it for one point; a family of nearby
points (the two-form family's displaced solves) shares one set of contours:
``solve_family`` builds the grids and the kernel once at the centre and
iterates every point on them, which a Cauchy deformation of the ray
contours permits.

There is one evaluation path, ``_upsilon_value``; ``upsilon``, ``evaluate``
and the checks call it.  It takes a family of solutions at once: each ray's
Cauchy integral is applied to the stacked log(1 - X) data of every
solution.  On a ray, ``side`` picks the directed boundary value.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Charge, Ray, _wrap_angle, bps_rays
from .semiflat import CoordinateValue, ModelPoint, xsf_log

FOUR_PI_I = 4j * math.pi
NEAR_ANGLE = 0.2          # switch to the subtracted kernel below this offset
DEFAULT_MIN_ANGLE = 1e-3  # undirected evaluation forbidden below this offset
ON_RAY_ANGLE = 1e-9       # a directed on-ray value needs zeta this close
R_SMALL_THRESHOLD = 0.9   # reject a point whose |X^sf| reaches this on a ray
TAIL_MARGIN = 4.0         # safety margin added to -log(eps_quad) for s_max


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


@dataclass
class QuadratureGrid:
    """Equal Gauss-Legendre panels of ``nodes_per_panel`` nodes on s in
    [-s_max, s_max] along one BPS ray."""

    ray: Ray
    s_nodes: np.ndarray
    weights: np.ndarray
    s_max: float
    nodes_per_panel: int

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
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] and its barycentric
    weights 1 / prod_{m != j} (x_j - x_m), read-only and shared."""
    x, w = np.polynomial.legendre.leggauss(n)
    lam = 1.0 / np.prod(x[:, None] - x + np.eye(n), axis=1)
    x.flags.writeable = w.flags.writeable = lam.flags.writeable = False
    return x, w, lam


def _gl_panels(s_max: float, panels: int, per_panel: int):
    base_x, base_w, _ = _gl_rule(per_panel)
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
    rays = bps_rays(model.spectrum, model.Z, point.u, R=point.R)
    grids = []
    for ray in rays:
        min_z = ray.min_abs_z()
        peak = math.exp(-2.0 * math.pi * point.R * min_z)
        if peak >= R_SMALL_THRESHOLD:
            raise RSmallError(
                f"R too small: |X^sf| reaches {peak:.3f} on the ray of "
                f"{ray.charges[0]} (needs < {R_SMALL_THRESHOLD})")
        arg = (-math.log(spec.eps_quad) + TAIL_MARGIN) \
            / (2.0 * math.pi * point.R * min_z)
        s_max = math.acosh(max(arg, 1.5))
        s_nodes, weights = _gl_panels(s_max, spec.panels, spec.nodes_per_panel)
        grids.append(QuadratureGrid(ray=ray, s_nodes=s_nodes,
                                    weights=weights, s_max=s_max,
                                    nodes_per_panel=spec.nodes_per_panel))
    return grids


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
    rational (z' + zeta)/(z' - zeta) of the integral equation.  Entries
    within 1/16 of the grid's smallest node spacing of a near pole are 0,
    and ``_near_term`` supplies their term.  The grids of one solve share
    their panel layout and differ in s_max by far less than 8x, so even
    read transposed a pole has at most one such node: its nearest.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    es = np.exp(grid.s_nodes)[None, :]
    ew = np.exp(w)[:, None]
    if np.min(np.abs(w.imag)) >= NEAR_ANGLE:
        return (es + ew) / (es - ew)
    radius = np.min(np.diff(grid.s_nodes)) / 16.0
    close = np.abs(grid.s_nodes[None, :] - w[:, None]) < radius
    rows = (es + ew) / np.where(close, 1.0, es - ew)
    rows[close] = 0.0
    return rows


def _near_term(grid: QuadratureGrid, rows: np.ndarray, w: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The subtracted near-ray part of a Cauchy integral, as a gather.

    Returns node indices ``idx`` and weights ``op``, one panel's nodes per
    pole, such that the integral of the kernel ``rows`` against f is
    rows @ (weights * f) + sum(op * f[idx], -1): f continued to the pole w
    times the closed-form kernel integral minus its quadrature.  The
    continuation is the interpolant of the panel of the pole's nearest node
    s_k, as f_k plus (w - s_k) times the divided differences
    (f_k - f(w)) / (s_k - w) in Lagrange product form, which never divides
    by a pole-node distance.  Where the rows are 0 at s_k, the same
    divided differences give that node's term coth((s_k - w)/2)
    (f_k - f(w)), which is 2 f'(s_k) on the node.  Past +-s_max, where the
    data vanish, the row is 0.
    """
    n = grid.nodes_per_panel
    half = grid.s_max * n / grid.node_count
    _, gl_w, lam = _gl_rule(n)
    nearest = np.argmin(np.abs(w.real[:, None] - grid.s_nodes), axis=1)
    k = nearest % n
    idx = (nearest - k)[:, None] + np.arange(n)
    at_k = idx == nearest[:, None]
    t = w - grid.s_nodes[nearest]
    # X - x_m in panel units, with the nearest node's factor left out
    d = np.where(at_k, 1.0, (w[:, None] - grid.s_nodes[idx]) / half)
    dd = np.where(at_k, 0.0, np.prod(d, axis=1, keepdims=True) * lam / d)
    dd -= at_k * dd.sum(axis=1, keepdims=True)
    cont = (t / half)[:, None] * dd + at_k
    op = (_kernel_C(w, grid.s_max) - rows @ grid.weights)[:, None] * cont
    taken = rows[np.arange(len(w)), nearest] == 0.0
    if taken.any():
        # t coth(t/2), the node's kernel entry times its distance; 2 on it
        q = np.where(t == 0, 2.0, t / np.tanh(0.5 * np.where(t == 0, 1.0, t)))
        op += (taken * gl_w[k] * q)[:, None] * dd
    op[np.abs(w.real) > grid.s_max] = 0.0
    return idx, op


def cauchy_integral(grid: QuadratureGrid, f: np.ndarray, w) -> np.ndarray:
    """int_{-S}^{S} coth((s - w)/2) f(s) ds at poles w at one ray offset.

    ``f`` holds node values on its last axis; stacked densities share the
    kernel rows, and the result keeps their leading axes with the poles
    last.  Poles within NEAR_ANGLE of the ray subtract f continued to the
    pole and add it back against the closed-form kernel integral
    (``_near_term``), so the fixed nodes resolve the integrand at any offset.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    rows = kernel_rows(grid, w)
    out = (rows @ (grid.weights * f).T).T
    if abs(w[0].imag) < NEAR_ANGLE:
        idx, op = _near_term(grid, rows, w)
        out = out + np.sum(op * f[..., idx], axis=-1)
    return out


@dataclass
class _Workspace:
    """One sweep of the integral equation on fixed grids, as matvecs.

    ``unknowns`` lists (ray, charge) ray-major.  A term (t, s, coef, rows,
    near) adds coef * rows @ (weights * g_s) to unknown t, where g_s is
    log(1 - X) of unknown s on its nodes; for rays within NEAR_ANGLE,
    ``near`` = (idx, op) from ``_near_term`` adds coef * sum(op * g_s[idx])
    per pole, the subtracted part with g_s continued to the poles.  Each
    unordered ray pair has one kernel; the reverse direction reads it
    transposed with the opposite sign.
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
                near_ab = _near_term(grids[b], rows, w_ab)
                # the reverse term carries the sign of its kernel
                idx, op = _near_term(grids[a], -rows.T, w_ba)
                near_ba = (idx, -op)
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


def _sweep(ws: _Workspace, grids: list[QuadratureGrid],
           log_xsf: list[dict[Charge, np.ndarray]],
           ups: list[dict[Charge, np.ndarray]]
           ) -> list[dict[Charge, np.ndarray]]:
    """One application of the integral-equation map to the node data ``ups``.

    ``log_xsf`` and ``ups`` hold, per ray, each charge's semiflat log and
    log-correction on that ray's nodes; the result has the same layout.
    """
    g, gw = [], []
    for r, gamma in ws.unknowns:
        x = np.exp(log_xsf[r][gamma] + ups[r][gamma])
        if float(np.max(np.abs(x))) >= 1.0 - 1e-9:
            raise RSmallError(
                "iteration left the log(1 - X) domain: R too small")
        g.append(np.log(1.0 - x))
        gw.append(grids[r].weights * g[-1])
    new = [{gamma: np.zeros(grid.node_count, dtype=complex)
            for gamma in grid.ray.charges} for grid in grids]
    for t, s, coef, rows, near in ws.terms:
        acc = rows @ gw[s]
        if near is not None:
            idx, op = near
            acc += np.sum(op * g[s][idx], axis=1)
        r, gamma = ws.unknowns[t]
        new[r][gamma] += coef * acc
    return new


def _change(a: list[dict[Charge, np.ndarray]],
            b: list[dict[Charge, np.ndarray]]) -> float:
    """Largest node difference between two sets of node data."""
    return max((float(np.max(np.abs(x[g] - y[g])))
                for x, y in zip(a, b) for g in x), default=0.0)


def iterate(model, point: ModelPoint, grids: list[QuadratureGrid],
            tol_iter: float = 1e-10, max_iter: int = 50,
            spec: GridSpec = GridSpec(),
            warm: RaySolution | None = None,
            workspace: _Workspace | None = None) -> RaySolution:
    """Solve the integral equation on ``grids`` by iterating ``_sweep``.

    Distinct rays never coincide off the walls, and charges sharing a ray
    pair to zero, so no principal values arise: every integral a node needs
    is over some other ray.  The iteration starts from the semiflat seed, or
    from ``warm``, a solution on these same grids; it stops when the largest
    node update drops below ``tol_iter``, and the converged data are
    re-checked by one more sweep.  ``workspace`` is the sweep ``_prepare``
    built on these grids, shared by the points of one family.
    """
    ws = workspace if workspace is not None else _prepare(model, point, grids)
    log_xsf = [{g: xsf_log(model, point, g, grid.zeta_nodes)
                for g in grid.ray.charges} for grid in grids]
    ups = warm.upsilon if warm is not None else [
        {g: np.zeros(grid.node_count, dtype=complex)
         for g in grid.ray.charges} for grid in grids]
    history: list[float] = []
    for _ in range(max_iter):
        new = _sweep(ws, grids, log_xsf, ups)
        history.append(_change(new, ups))
        ups = new
        if history[-1] < tol_iter:
            break
    else:
        raise NonConvergenceError(
            f"no convergence within {max_iter} iterations "
            f"(last residual {history[-1]:.3e})", history)
    return RaySolution(point=point, grids=grids, log_xsf=log_xsf,
                       upsilon=ups, iterations=len(history),
                       residual=history[-1], residual_history=history,
                       recheck_residual=_change(
                           _sweep(ws, grids, log_xsf, ups), ups),
                       tol_iter=tol_iter, spec=spec)


def solve(model, point: ModelPoint, spec: GridSpec = GridSpec(),
          tol_iter: float = 1e-10, max_iter: int = 50) -> RaySolution:
    return iterate(model, point, build_grids(model, point, spec),
                   tol_iter=tol_iter, max_iter=max_iter, spec=spec)


def solve_family(model, center: ModelPoint, points: list[ModelPoint],
                 tol_iter: float = 1e-10
                 ) -> tuple[RaySolution, list[RaySolution]]:
    """Solve a centre and nearby points on the centre's contours.

    The grids and the kernel are built once, at the centre; every point is
    iterated on them, warm-started from the centre.  Moving a point rotates
    its rays only slightly, and deforming the contours back onto the
    centre's rays leaves each ray integral unchanged, so the solutions
    agree with ordinary solves to quadrature precision.  Only the centre is
    checked for R too small; the sweep still guards |X| < 1.
    """
    grids = build_grids(model, center)
    ws = _prepare(model, center, grids)
    solution = iterate(model, center, grids, tol_iter=tol_iter, workspace=ws)
    return solution, [iterate(model, p, grids, tol_iter=tol_iter,
                              warm=solution, workspace=ws)
                      for p in points]


# ---------------------------------------------------------------------------
# Evaluation off the grid


def _upsilon_value(model, solutions: list[RaySolution],
                   charges: list[Charge], zeta: complex,
                   side: int | None = None,
                   min_angle: float = DEFAULT_MIN_ANGLE) -> np.ndarray:
    """log(X / X^sf) at zeta for each solution (rows) and charge (columns).

    The solutions must share their grids, as the points of a family solve
    do.  Each ray's Cauchy integral is taken once, by ``cauchy_integral``,
    over the stacked log(1 - X) of every solution and source charge; near a
    ray it continues those densities to the pole with the same per-panel
    operator as the sweep.
    """
    lat = model.lattice
    total = np.zeros((len(solutions), len(charges)), dtype=complex)
    for r, grid in enumerate(solutions[0].grids):
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
        vals = cauchy_integral(grid, g, w)[:, 0]
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
    zeta raises, since the coordinate jumps there.  With ``min_angle`` at
    ON_RAY_ANGLE and zeta on a ray, this is the exact directed boundary
    value (the +-i0 closed-form kernel); other rays keep their genuine
    angular offsets.
    """
    lv = xsf_log(model, solution.point, gamma, zeta) + upsilon(
        model, solution, gamma, zeta, side=side, min_angle=min_angle)
    return CoordinateValue(gamma=gamma, zeta=complex(zeta),
                           value=cmath.exp(lv), log_value=lv)


def side_limit(model, solution: RaySolution, gamma: Charge, zeta0: complex,
               side: int) -> CoordinateValue:
    """Directed boundary value on a ray by two-point Richardson in delta.

    Evaluates at angular offsets delta and delta/2 on the requested side and
    extrapolates the log-corrections linearly to the ray.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 (counterclockwise) or -1")
    zeta0 = complex(zeta0)
    delta = 2e-4
    # both sample points must be genuine off-ray evaluations
    gate = delta / 8.0
    u1 = upsilon(model, solution, gamma,
                 zeta0 * cmath.exp(1j * side * delta), min_angle=gate)
    u2 = upsilon(model, solution, gamma,
                 zeta0 * cmath.exp(1j * side * delta / 2.0), min_angle=gate)
    extrapolated = 2.0 * u2 - u1
    if abs(u2 - u1) > 1e-3 * (1.0 + abs(extrapolated)):
        raise RayProximityError(
            f"side-limit extrapolation residual {abs(u2 - u1):.3e} "
            f"exceeds tolerance")
    lv = xsf_log(model, solution.point, gamma, zeta0) + extrapolated
    return CoordinateValue(gamma=gamma, zeta=zeta0, value=cmath.exp(lv),
                           log_value=lv)


def ray_jump_defect(model, solution: RaySolution, ray_index: int,
                    use_richardson: bool = True) -> float:
    """Largest mismatch between directed limits and the expected ray jump.

    The clockwise value of each basis charge must equal the
    counterclockwise one multiplied by prod (1 - X_{g'}(zeta0))^(Omega
    <gamma, g'>) over the charges g' on the ray, with X_{g'} continuous
    there.
    """
    grid = solution.grids[ray_index]
    lat = model.lattice
    zeta0 = grid.ray.direction

    def on_ray(gamma, side):
        return evaluate(model, solution, gamma, zeta0, side=side,
                        min_angle=ON_RAY_ANGLE)

    factors = [(g_ray, om, on_ray(g_ray, +1).value)
               for g_ray, om in zip(grid.ray.charges, grid.ray.omegas)]
    worst = 0.0
    for gamma in lat.basis():
        if use_richardson:
            ccw = side_limit(model, solution, gamma, zeta0, +1)
            cw = side_limit(model, solution, gamma, zeta0, -1)
        else:
            ccw, cw = on_ray(gamma, +1), on_ray(gamma, -1)
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
                          tol_iter: float = 1e-11) -> WallReport:
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
        sol_a = solve(mdl, ModelPoint(ua, R, theta), tol_iter=tol_iter)
        sol_b = solve(mdl, ModelPoint(ub, R, theta), tol_iter=tol_iter)
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
                     r_values: list[float], n_angles: int = 12
                     ) -> DecayReport:
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
        sol = solve(model, point)
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
                                      side=side, min_angle=ON_RAY_ANGLE)
                peak = max(peak, float(np.max(np.abs(vals))))
        maxima.append(peak)
    slope = float(np.polyfit(np.asarray(r_values, dtype=float),
                             np.log(np.asarray(maxima)), 1)[0])
    return DecayReport(r_values=list(r_values), max_corrections=maxima,
                       slope=slope, target=-2.0 * math.pi * float(min_z))
