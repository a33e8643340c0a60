"""Fixed-point solver for the ray-jump integral equation.

The corrected coordinates satisfy

    X_gamma(z) = X^sf_gamma(z) * exp[ -(1/4 pi i) sum_g' Omega(g')<gamma,g'>
                  int_{ray(g')} (dz'/z') (z'+z)/(z'-z) log(1 - X_{g'}(z')) ]

and the only data the right side needs are the coordinates of the active
charges on their own rays.  Substituting z' = direction * e^s turns each ray
integral into a line integral whose integrand decays like exp(-2 pi R |Z|
cosh s), so truncated Gauss-Legendre panels resolve it to quadrature
precision.  Every ray of a solve shares one node set: ``build_grids``
truncates at the largest s_max any ray needs and takes the fewest equal
panels, on a short ladder up to ``GridSpec.panels``, on which the Legendre
tail of the semiflat density log(1 - X^sf) stays below eps_quad / 10.  The
iteration starts from the semiflat values; its contraction rate is set by
the largest exp(-2 pi R |Z|) among active charges.

The log-corrections Upsilon = log(X / X^sf) are the stored unknowns: they
stay O(exp(-2 pi R |Z|)), which avoids the huge semiflat exponentials and
makes the smallness of the quantum corrections explicit.

Every ray integral applies one kernel, coth((s - w)/2) with the target at
direction * e^w, built by ``_kernels`` from the nodes and target poles.
On the one node set, a kernel is fixed by the angle between the rays, and
the solve builds it once per angle among the ray pairs whose charges pair
to nonzero: the antipodal pair (-a, -b) of (a, b) has the same angle, and
the reverse direction, at minus the angle, takes the conjugate kernel,
since the nodes are real and its poles the conjugates.  The grids mirror
about s = 0 bitwise, so a kernel of one angle obeys the reality mirror
K[N-1-k, N-1-j] = -conj K[k, j]: the solve builds and folds its first half
of rows and mirrors them into the rest.
Off-grid evaluation calls the same builder.  When the target lies within
NEAR_HALF_WIDTHS panel half-widths of the source ray (``near_angle``, so
the zone narrows as the panels refine) the density is continued to the
pole, subtracted, and added back against the closed-form kernel integral.
The continuation is one linear operator, ``_near_term``: per pole, the
nodes of one panel and their interpolation weights.  ``_fold_near`` folds
it into the kernel rows of every near pole, the sweep's blocks and
evaluation's rows alike, so every ray integral is one product with its
rows.  On a ray the two directed boundary values of the closed form differ
by the residue term +-2 pi i, which is how the expected coordinate jumps
emerge from one integral representation.

Every node quantity of a solve is one array of shape (..., U, N): row k is
unknown k of ``unknowns(grids)``, the (ray, charge) pairs ray-major, on the
N nodes all rays share; leading axes stack densities, as tangents do.

There is one solve path: ``build_grids`` lays out the contours, ``_prepare``
builds the sweep on them, and ``iterate`` applies ``_sweep`` until the node
data stop changing; one more sweep (``recheck``) tells how far solved or
stored data are from a fixed point.  The sweep is U -> A log(1 - exp(L + U))
with a linear map A that ``_prepare`` precomputes as one block map
(``_Workspace.blocks``): per ordered ray pair its kernel block and the
matching block of ``_coefficients``, the weights -Omega <gamma, gamma'> /
4 pi i that evaluation, the moments and the metric read, so the sweep has
no coefficient formula of its own.  The tree sum reads the same kernels.
``solve_tangents`` differentiates a solution along the point's four real
coordinates by one linear solve on the same grids, (I + A D) dU = -A D dL
with D = X / (1 - X), by the same contraction.

``solve`` keeps its last SOLVE_MEMO_SIZE solutions, keyed on all that a
solve reads: the lattice, the rays at the point with their charges, Omegas
and central charges, the point, the grid spec and the iteration limits.
Equal inputs get the stored solution, whose node arrays are read-only.  On
the in side of a wall the frozen-spectrum control is the genuine spectrum,
so a wall check solves those points once.  ``iterate``, ``solve_tangents``
and the tree sum keep nothing.

When the active charges are closed under gamma -> -gamma with equal Omega,
the solution obeys the reality condition X_{-gamma}(zeta) =
conj X_gamma(-1/conj zeta), and node k of the ray of gamma and node N-1-k
of the ray of -gamma are such a pair of points.  The iteration and the
tangent solve then compute only the rows of one ray of each antipodal pair,
through the blocks into those rows, and take the other rows as conjugates
with the nodes reversed (``_mirrored``); otherwise every row is iterated.
The stored recheck is one full sweep, so reality stays an independent
check on every solution.

There is one evaluation path off the grid, ``ray_integrals``.  The kernel
rows of every ray it reads at every zeta of a call are one (R, Z, N)
array, each pole within its ray's near zone with the continuation folded
in as the sweep folds its blocks; the density rows are summed with their
coefficients per ray, and one product with the row array gives every
integral.  ``_upsilon_value``, behind ``upsilon``, ``evaluate``, the checks
and the two-form sampler, and the tree sum all call it, so one near-ray
rule holds: without ``side`` a zeta within RAY_AVOIDANCE_ANGLE of a
contributing ray raises, and with it a zeta within ON_RAY_ANGLE of a ray
takes the directed boundary value.  That closed-form +-i0 boundary value
is the only route to a directed value: ``side`` is +-1, or one +-1 per
zeta, so ``ray_jump_defect`` reads both sides of a ray, and
``correction_decay`` both sides of every ray, in one call.  Its first
terms at zeta -> 0 and infinity are moments on the nodes
(``zeta_zero_moments``).
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .lattice import Charge, Ray, bps_rays
from .semiflat import (CoordinateValue, ModelPoint, theta_eval,
                       xsf_laurent_rows, xsf_log, xsf_log_of)

FOUR_PI_I = 4j * math.pi
NEAR_HALF_WIDTHS = 1.5    # subtracted kernel below this offset, in half-widths
PANEL_LADDER = (2, 3, 4, 6, 8, 10, 12)  # counts tried below GridSpec.panels
TAIL_SHARE = 0.1          # semiflat Legendre tail allowed, per eps_quad
RAY_AVOIDANCE_ANGLE = 1e-3  # undirected evaluation refused below this offset
ON_RAY_ANGLE = 1e-9       # a directed value is the boundary value this close
R_SMALL_THRESHOLD = 0.9   # reject a point whose |X^sf| reaches this on a ray
TAIL_MARGIN = 4.0         # safety margin added to -log(eps_quad) for s_max
MAX_ITER = 50             # sweeps (or tangent sweeps) before giving up
TOL_ITER = 1e-10          # default iteration tolerance of a solve
WALL_TOL_ITER = 1e-11     # iteration tolerance of the wall-continuity solves
SOLVE_MEMO_SIZE = 16      # solves kept, room for a wall check's 2 x (4 + 1)


class RSmallError(ValueError):
    """Semiflat coordinates reach |X| >= 1 on a ray: R too small."""


class NonConvergenceError(RuntimeError):
    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


class RayProximityError(ValueError):
    """zeta too close to a BPS ray for the value asked for."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters shared by all rays of one solve: the
    quadrature target, the most panels per ray, and the Gauss-Legendre rule
    of a panel."""

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

    @property
    def panels(self) -> int:
        return self.node_count // self.nodes_per_panel

    @property
    def half_width(self) -> float:
        return self.s_max / self.panels

    @functools.cached_property
    def near_angle(self) -> float:
        """Ray offset below which integrals take the subtracted kernel."""
        return NEAR_HALF_WIDTHS * self.half_width

    @functools.cached_property
    def close_radius(self) -> float:
        """Pole-node distance below which ``_kernels`` leaves the entry
        to ``_near_term``: 1/16 of the smallest node spacing."""
        return np.min(np.diff(self.s_nodes)) / 16.0


@dataclass
class RaySolution:
    """Converged log-corrections on every ray node, plus diagnostics.

    ``log_one_minus_x`` is computed from ``log_xsf`` and ``upsilon`` at
    construction, so those must not be edited afterwards: build a new
    solution with ``dataclasses.replace`` to change them.
    """

    point: ModelPoint
    grids: list[QuadratureGrid]
    log_xsf: np.ndarray
    upsilon: np.ndarray
    iterations: int
    residual: float
    residual_history: list[float]
    recheck_residual: float
    tol_iter: float
    spec: GridSpec
    # log(1 - X) on the ray nodes, the density every ray integral reads
    log_one_minus_x: np.ndarray = field(init=False, repr=False,
                                        compare=False)
    # a-posteriori quadrature estimate: ``legendre_tail`` of log(1 - X)
    tail: float = field(init=False, compare=False)

    def __post_init__(self):
        self.log_one_minus_x = log_one_minus(np.exp(self.log_xsf
                                                    + self.upsilon))
        self.tail = legendre_tail(self.log_one_minus_x,
                                  self.grids[0].nodes_per_panel) \
            if self.grids else 0.0

    @property
    def panels(self) -> int:
        """Panels per ray that ``build_grids`` chose (0 without rays)."""
        return self.grids[0].panels if self.grids else 0

    def max_correction(self) -> float:
        return float(np.max(np.abs(self.upsilon), initial=0.0))


def log_one_minus(x: np.ndarray) -> np.ndarray:
    """log(1 - x), principal branch, for |x| < 1, as a complex array.

    It is built from real parts, to a few ulp of each: log|1 - x| =
    0.5 log1p(a) with a = |x|^2 - 2 Re x, which keeps relative precision
    however small x is, where rounding 1 - x first loses it.  Where the
    two terms of a cancel they are summed exactly, and where a < -1/2 the
    modulus is 0.5 log((1 - Re x)^2 + (Im x)^2), whose terms do not
    cancel.  arg(1 - x) = atan2(-Im x, 1 - Re x).  numpy's complex log
    would also take a slow path at |1 - x| near 1.
    """
    x = np.asarray(x)
    re, im = x.real, x.imag
    sq = im * im
    p = re * (re - 2.0)
    a = p + sq                   # |1 - x|^2 - 1
    cancel = 2.0 * np.abs(a) < sq - p
    if cancel.any():
        # (Re x, Im x) interleaved; Dekker's split gives each square's
        # rounding error, and Knuth's two-sum that of their sum
        cancel = np.flatnonzero(cancel)
        v = np.ascontiguousarray(x.ravel()[cancel], dtype=complex).view(float)
        v2 = v * v
        c = 134217729.0 * v      # 2^27 + 1
        hi = c - (c - v)
        lo = v - hi
        err = (((hi * hi - v2) + 2.0 * hi * lo) + lo * lo).reshape(-1, 2)
        r2, i2 = v2[0::2], v2[1::2]
        s = r2 + i2
        i2_part = s - r2
        t = (r2 - (s - i2_part)) + (i2 - i2_part)
        a.flat[cancel] = (s - 2.0 * v[0::2]) + (t + err.sum(axis=1))
    out = np.empty(x.shape, dtype=complex)
    out.real = 0.5 * np.log1p(np.maximum(a, -0.5))
    close = a < -0.5
    if close.any():
        out.real[close] = 0.5 * np.log((1.0 - re[close]) ** 2
                                       + im[close] ** 2)
    out.imag = np.arctan2(-im, 1.0 - re)
    return out


@functools.lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] and its barycentric
    weights 1 / prod_{m != j} (x_j - x_m), read-only and shared."""
    x, w = np.polynomial.legendre.leggauss(n)
    lam = 1.0 / np.prod(x[:, None] - x + np.eye(n), axis=1)
    x.flags.writeable = w.flags.writeable = lam.flags.writeable = False
    return x, w, lam


@functools.lru_cache(maxsize=None)
def _tail_rows(n: int) -> np.ndarray:
    """(n, 2): a panel's node values times this are its last two Legendre
    coefficients, c_k = (k + 1/2) sum_j w_j P_k(x_j) f_j."""
    x, w, _ = _gl_rule(n)
    k = np.arange(max(n - 2, 0), n)
    rows = np.polynomial.legendre.legvander(x, n - 1)[:, k] * w[:, None]
    rows *= k + 0.5
    rows.flags.writeable = False
    return rows


def _panel_tails(f: np.ndarray, nodes_per_panel: int) -> np.ndarray:
    """|c_{n-2}| + |c_{n-1}| of each panel of node data ``f`` (last axis)."""
    c = f.reshape(*f.shape[:-1], -1, nodes_per_panel) \
        @ _tail_rows(nodes_per_panel)
    return np.abs(c).sum(axis=-1)


def legendre_tail(f: np.ndarray, nodes_per_panel: int) -> float:
    """Largest |c_{n-2}| + |c_{n-1}| over the panels of node data ``f``.

    The Legendre coefficients of a panel's interpolant decay geometrically
    for data analytic around the panel, so the last two bound what the
    panel leaves unresolved.  Panels run along the last axis of ``f``.
    """
    return float(np.max(_panel_tails(f, nodes_per_panel), initial=0.0))


def _gl_panels(s_max: float, panels: int, per_panel: int):
    """Nodes and weights of ``panels`` equal Gauss-Legendre panels on
    [-s_max, s_max], node N-1-k laid as the mirror of node k, bitwise."""
    base_x, base_w, _ = _gl_rule(per_panel)
    edges = np.linspace(-s_max, s_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    s, w = (mid + half * base_x).ravel(), (half * base_w).ravel()
    n, k = len(s), len(s) // 2
    s[k:n - k] = 0.0      # the middle node of an odd count
    s[n - k:], w[n - k:] = -s[:k][::-1], w[:k][::-1]
    return s, w


@functools.lru_cache(maxsize=None)
def _half_unit_nodes(panels: int, per_panel: int) -> np.ndarray:
    """Nodes of the panels of [-1, 1] that do not lie left of 0."""
    nodes = _gl_panels(1.0, panels, per_panel)[0][panels // 2 * per_panel:]
    nodes.flags.writeable = False
    return nodes


def _panel_count(model, point: ModelPoint, rays: list[Ray], s_max: float,
                 spec: GridSpec) -> int:
    """Fewest panels on PANEL_LADDER, at most ``spec.panels``, on which the
    semiflat density log(1 - X^sf) of every ray charge has a Legendre tail
    of at most TAIL_SHARE * eps_quad.

    The density is read from the rays' central charges, so no period is
    evaluated again.  On its own ray log X^sf = -2 pi R |Z| cosh s +
    i theta_gamma is even in s, and the ray of -gamma carries its conjugate,
    so the panels right of 0 of one of gamma, -gamma carry every tail.  The
    density is taken at the nodes of every count in one evaluation; a
    charge whose tail has passed is not read at the larger counts.
    """
    rows, seen = [], set()
    for ray in rays:
        for g, z in zip(ray.charges, ray.zs):
            if -g not in seen:
                seen.add(g)
                rows.append((ray.direction, z,
                             theta_eval(model.lattice, point, g)))
    direction, z, theta = (np.array(col)[:, None] for col in zip(*rows))
    n = spec.nodes_per_panel
    ladder = [q for q in PANEL_LADDER if q < spec.panels]
    if not ladder:
        return spec.panels
    nodes = [_half_unit_nodes(p, n) for p in ladder]
    zetas = direction * np.exp(s_max * np.concatenate(nodes))
    density = log_one_minus(np.exp(xsf_log_of(z, theta, point.R, zetas)))
    live, stop = np.arange(len(rows)), 0
    for p, u in zip(ladder, nodes):
        stop += len(u)
        tails = _panel_tails(density[live, stop - len(u):stop], n)
        live = live[tails.max(axis=-1) > TAIL_SHARE * spec.eps_quad]
        if not len(live):
            return p
    return spec.panels


def build_grids(model, point: ModelPoint, spec: GridSpec = GridSpec(),
                rays: list[Ray] | None = None) -> list[QuadratureGrid]:
    """One truncated quadrature grid per BPS ray at the given point.

    Each ray's truncation solves exp(-2 pi R |Z| cosh s_max) < eps_quad with
    a safety margin, and every ray takes the largest s_max; if the semiflat
    modulus on some ray already exceeds the threshold at s = 0 the iteration
    could leave the log(1 - X) domain, and the point is rejected as "R too
    small".  Every grid holds the same nodes and weights, on the panels of
    ``_panel_count``, so the layout depends only on (model, point, spec).
    ``rays`` are the point's ``bps_rays`` when the caller holds them.
    """
    if rays is None:
        rays = bps_rays(model.spectrum, model.Z, point.u, R=point.R)
    s_max = 0.0
    for ray in rays:
        min_z = ray.min_abs_z()
        peak = math.exp(-2.0 * math.pi * point.R * min_z)
        if peak >= R_SMALL_THRESHOLD:
            raise RSmallError(
                f"R too small: |X^sf| reaches {peak:.3f} on the ray of "
                f"{ray.charges[0]} (needs < {R_SMALL_THRESHOLD})")
        arg = (-math.log(spec.eps_quad) + TAIL_MARGIN) \
            / (2.0 * math.pi * point.R * min_z)
        s_max = max(s_max, math.acosh(max(arg, 1.5)))
    if not rays:
        return []
    panels = _panel_count(model, point, rays, s_max, spec)
    s_nodes, weights = _gl_panels(s_max, panels, spec.nodes_per_panel)
    return [QuadratureGrid(ray=ray, s_nodes=s_nodes, weights=weights,
                           s_max=s_max, nodes_per_panel=spec.nodes_per_panel)
            for ray in rays]


def _kernel_C(w, s_max: float):
    """Closed form of int_{-S}^{S} coth((s-w)/2) ds, principal branch.

    Continuous for 0 < |Im w| < pi.  Each 1 - e^z is taken as -expm1(z),
    which keeps its digits where e^z is near 1 and the sign of Im w however
    small: on-ray poles offset by +-1e-300j take the one-sided boundary
    values (residue term -+ ... +-2 pi i).
    """
    return (2.0 * s_max
            + 2.0 * (np.log(-np.expm1(w - s_max))
                     - np.log(-np.expm1(w + s_max))))


def _nearest_node(s_nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the node of the sorted ``s_nodes`` nearest to each real x,
    the lower one on a tie, as argmin of the distances picks it."""
    i = np.searchsorted(s_nodes[1:-1], x) + 1    # in [1, len - 1]
    # s[i - 1] < x <= s[i] but past the end nodes, where the signs tell
    return i - (x - s_nodes[i - 1] <= s_nodes[i] - x)


def _kernels(grid: QuadratureGrid, w: np.ndarray, out=None, den=None
             ) -> np.ndarray:
    """Cauchy kernel coth((s - w)/2) on the nodes s of ``grid``, which every
    grid of its solve shares: poles w of any shape give rows of that shape
    plus (N,), the nodes as columns.  ``out`` takes the rows and ``den``, of
    their shape, the denominators, when given.

    A pole w stands for zeta = direction * e^w, so the kernel is the
    rational (z' + zeta)/(z' - zeta) of the integral equation.  Entries
    within ``grid.close_radius`` of a pole are 0, and ``_near_term``
    supplies their term.  The radius is 1/16 of the smallest node spacing,
    so a pole has at most one such node: its nearest.
    """
    radius = grid.close_radius
    es = np.exp(grid.s_nodes)
    ew = np.exp(w)[..., None]
    den = np.subtract(es, ew, out=den)
    # a pole within the radius of a node is within it of the ray too
    near = np.nonzero(np.abs(w.imag) < radius)
    if len(near[0]):
        hit, node = np.nonzero(np.abs(grid.s_nodes - w[near][:, None])
                               < radius)
        close = (*(axis[hit] for axis in near), node)
        den[close] = 1.0
    rows = np.add(es, ew, out=out)
    rows /= den
    if len(near[0]):
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
    half = grid.half_width
    _, gl_w, lam = _gl_rule(n)
    pole = np.arange(len(w))
    nearest = _nearest_node(grid.s_nodes, w.real)
    k = nearest % n
    idx = (nearest - k)[:, None] + np.arange(n)
    t = w - grid.s_nodes[nearest]
    # X - x_m in panel units, with the nearest node's factor left out
    d = (w[:, None] - grid.s_nodes[idx]) / half
    d[pole, k] = 1.0
    dd = np.prod(d, axis=1, keepdims=True) * lam / d
    dd[pole, k] = 0.0
    dd[pole, k] = -dd.sum(axis=1)
    cont = (t / half)[:, None] * dd
    cont[pole, k] += 1.0
    op = (_kernel_C(w, grid.s_max) - rows @ grid.weights)[:, None] * cont
    taken = rows[pole, nearest] == 0.0
    if taken.any():
        # t coth(t/2), the node's kernel entry times its distance; 2 on it
        q = np.where(t == 0, 2.0, t / np.tanh(0.5 * np.where(t == 0, 1.0, t)))
        op += (taken * gl_w[k] * q)[:, None] * dd
    op[np.abs(w.real) > grid.s_max] = 0.0
    return idx, op


def unknowns(grids: list[QuadratureGrid]) -> list[tuple[int, Charge]]:
    """The (ray index, charge) of each row of the node data, ray-major."""
    return [(r, g) for r, grid in enumerate(grids) for g in grid.ray.charges]


def _node_data(grids, value) -> np.ndarray:
    """``value(grid, charge)``, node data of every unknown, stacked as (U, N)."""
    rows = [value(grids[r], g) for r, g in unknowns(grids)]
    return np.stack(rows) if rows else np.zeros((0, 0))


def semiflat_nodes(model, point: ModelPoint, grids: list[QuadratureGrid]
                   ) -> np.ndarray:
    """log X^sf of every unknown on its own ray's nodes, (U, N)."""
    return _node_data(grids, lambda grid, g: xsf_log(model, point, g,
                                                     grid.zeta_nodes))


@dataclass
class _Workspace:
    """One sweep of the integral equation on fixed grids, as block products.

    ``blocks`` maps each ordered ray pair (target, source) whose charges
    pair to nonzero to (matrix, mix).  matrix @ (weights * f), with the
    source ray's weights, is the Cauchy integral of node data f on the
    source ray at the target ray's nodes.  mix is the (target, source)
    block of ``_coefficients`` of the unknowns' own charges, so the sweep
    adds mix @ (weights * g[source]) @ matrix.T to the target ray's rows,
    and the tree sum reads the matrix with its own pairings.  ``spans`` are
    the rows of each ray in ``unknowns``, and ``weights`` (N,) the
    quadrature weights all rays share.  Ray pairs of one angle share a
    kernel (``_prepare``), and the reverse direction takes its conjugate;
    ``near_pairs`` counts the ordered ray pairs whose matrix holds the
    near-ray continuation.  Every matrix is a view of one store, and a
    kernel has its first ceil(N / 2) rows computed, the rest their mirror.

    ``rows`` are the rows the iteration computes and ``image`` the rows it
    takes as reality images (``_mirrored``): when the active charges are
    closed under gamma -> -gamma with equal Omega, the row of each charge
    on the later ray of an antipodal pair is the image of the row of its
    negative, ``source``; otherwise ``image`` is empty and ``rows`` is every
    row.  ``half`` holds the blocks whose target ray is iterated.  The
    blocks into image rows serve ``_apply`` and ``recheck``, where the
    reality of the solution is still checked.
    """

    blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    spans: list[slice]
    weights: np.ndarray
    near_pairs: int
    rows: np.ndarray
    image: np.ndarray
    source: np.ndarray
    half: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]


def _fold_near(grid: QuadratureGrid, rows: np.ndarray, w: np.ndarray) -> None:
    """Fold the continuation of the poles ``w`` within ``grid.near_angle``
    into their kernel ``rows`` on ``grid``, in place, so that rows @
    (weights * f) is the Cauchy integral of node data f: ``_near_term``
    reads the rows where they lie, and each near pole's term is added to
    its panel's slab."""
    near = np.flatnonzero(np.abs(w.imag) < grid.near_angle)
    if len(near):
        idx, op = _near_term(grid, rows, w)
        n = grid.nodes_per_panel
        panel = idx[near, 0] // n
        rows.reshape(len(w), -1, n, copy=False)[near, panel] += \
            op[near] / grid.weights.reshape(-1, n)[panel]


def _mirror(slot: np.ndarray) -> None:
    """Fill the block ``slot[:N]`` below its first ceil(N / 2) rows by the
    mirror K[N-1-k, N-1-j] = -conj K[k, j].  Only whole rows: smooth data
    cancel a folded row's rounding as one pattern, not as two halves."""
    n = slot.shape[1]
    lower, image = slot[(n + 1) // 2:n], slot[:n // 2][::-1, ::-1]
    np.negative(image.real, out=lower.real)
    np.copyto(lower.imag, image.imag)


def _prepare(model, point: ModelPoint, grids: list[QuadratureGrid]) -> _Workspace:
    """The sweep on ``grids``, one kernel per angle between the rays.  The
    grids of one solve share their nodes, weights and near zone, so pairs of
    one angle have one kernel and near terms, and a pair is near both ways
    or neither.  The antipodal pair (-a, -b) of (a, b) reads the kernel,
    and the reverse direction, under -angle, its conjugate: the nodes t_k
    are real, so its poles t_k - i angle, and every term built on them, are
    the conjugates.  The angles are planned first, one of each pair +-angle,
    for one store of two (N, N) slots per angle, the kernel and its
    conjugate.  Of a kernel only the poles t_k + i angle, k < h =
    ceil(N / 2), are built and folded, the lower half their scratch and
    then their ``_mirror``.  The blocks' coefficients are
    ``_coefficients`` of the unknowns' own charges, and the rows it iterates
    are those ``_Workspace`` describes."""
    rows_of = unknowns(grids)
    coefs = _coefficients(model, grids, [g for _, g in rows_of])
    spans, start = [], 0
    for grid in grids:
        spans.append(slice(start, start + len(grid.ray.charges)))
        start = spans[-1].stop
    pairs, plan, near_pairs = [], set(), 0
    for rt, target in enumerate(grids):
        for rs, source in enumerate(grids):
            mix = coefs[spans[rs], spans[rt]].T
            if rs == rt or not mix.any():
                continue
            angle = cmath.phase(target.ray.direction
                                * source.ray.direction.conjugate())
            if -angle not in plan:
                plan.add(angle)
            # near as ``_fold_near`` finds it: every pole of the pair lies
            # |angle| off its source ray
            near_pairs += abs(angle) < source.near_angle
            pairs.append((rt, rs, angle, mix))
    n = grids[0].node_count if grids else 0
    h = (n + 1) // 2
    store = np.empty((len(plan), 2, 2 * h, n), dtype=complex)
    kernels = {}
    for angle, (rows, reverse) in zip(plan, store):
        grid = grids[0]
        w = grid.s_nodes[:h] + 1j * angle
        _kernels(grid, w, out=rows[:h], den=rows[h:])
        _fold_near(grid, rows[:h], w)
        _mirror(rows)
        kernels[angle] = rows[:n]
        # the poles of -angle are the conjugates of these, on real nodes
        kernels[-angle] = np.conj(rows[:n], out=reverse[:n])
    blocks = {(rt, rs): (kernels[angle], mix) for rt, rs, angle, mix in pairs}
    # the reality pairing, by charge: the row of -g for the row of each g;
    # when every row has one, of its Omega, the rows of the later ray of
    # each antipodal pair are images
    index = {g: k for k, (_, g) in enumerate(rows_of)}
    partner = [index.get(-g) for _, g in rows_of]
    ray = [r for r, _ in rows_of]
    omegas = [om for grid in grids for om in grid.ray.omegas]
    closed = all(j is not None and omegas[j] == omegas[k]
                 for k, j in enumerate(partner))
    image = [k for k, j in enumerate(partner) if closed and ray[j] < ray[k]]
    own = [k for k in range(len(rows_of)) if k not in image]
    iterated = {ray[k] for k in own}
    return _Workspace(
        blocks=blocks, spans=spans,
        weights=grids[0].weights if grids else np.zeros(0),
        near_pairs=near_pairs,
        rows=np.array(own, dtype=int), image=np.array(image, dtype=int),
        source=np.array([partner[k] for k in image], dtype=int),
        half={pair: block for pair, block in blocks.items()
              if pair[0] in iterated})


def _mirrored(ws: _Workspace, rows: np.ndarray) -> np.ndarray:
    """Node data (..., U, N) from their rows ``ws.rows`` (..., I, N): each
    image row is the conjugate of its source row with the nodes reversed.
    Node k of the ray of gamma, at zeta, and node N-1-k of the ray of
    -gamma, at -1/conj(zeta), are one point of the reality condition
    X_{-gamma}(-1/conj zeta) = conj X_gamma(zeta)."""
    full = np.empty(rows.shape[:-2] + (len(ws.rows) + len(ws.image),
                                       rows.shape[-1]), dtype=complex)
    full[..., ws.rows, :] = rows
    full[..., ws.image, :] = np.conj(full[..., ws.source, ::-1])
    return full


def _apply(ws: _Workspace, g: np.ndarray, blocks=None) -> np.ndarray:
    """The sweep's linear map A on node densities ``g``, (..., U, N): one
    product per block of the workspace, or of ``blocks``, a part of it that
    leaves the other target rows 0."""
    gw = ws.weights * g
    out = np.zeros_like(g)
    for (rt, rs), (matrix, mix) in (ws.blocks if blocks is None
                                    else blocks).items():
        out[..., ws.spans[rt], :] += mix @ (gw[..., ws.spans[rs], :]
                                            @ matrix.T)
    return out


def _density(log_xsf: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """log(1 - X) of the node data X = exp(log_xsf + ups), which must lie in
    the domain |X| < 1."""
    x = np.exp(log_xsf + ups)
    if float(np.max(np.abs(x), initial=0.0)) >= 1.0 - 1e-9:
        raise RSmallError("iteration left the log(1 - X) domain: R too small")
    return log_one_minus(x)


def _sweep(ws: _Workspace, log_xsf: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """One application of the integral-equation map U -> A log(1 - X)."""
    return _apply(ws, _density(log_xsf, ups))


def _half_step(ws: _Workspace, density: np.ndarray) -> np.ndarray:
    """A on the rows ``ws.rows`` from the density on those rows: the image
    rows of the density are their mirrors, and only the ``half`` blocks
    run."""
    return _apply(ws, _mirrored(ws, density), ws.half)[..., ws.rows, :]


def _change(a: np.ndarray, b: np.ndarray) -> float:
    """Largest node difference between two sets of node data."""
    return float(np.max(np.abs(a - b), initial=0.0))


def _contract(step, start, tol_iter: float, max_iter: int):
    """Apply ``step`` from ``start`` until the largest node update drops
    below ``tol_iter``; returns the node data and the update history."""
    data, history = start, []
    for _ in range(max_iter):
        new = step(data)
        history.append(_change(new, data))
        data = new
        if history[-1] < tol_iter:
            return data, history
    raise NonConvergenceError(
        f"no convergence within {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history)


def recheck(model, point: ModelPoint, grids: list[QuadratureGrid], log_xsf,
            ups, workspace: _Workspace | None = None) -> float:
    """Largest node update of one more sweep: how far ``ups`` is from a
    fixed point.  ``workspace`` is the sweep ``_prepare`` built on grids."""
    ws = workspace if workspace is not None else _prepare(model, point, grids)
    return _change(_sweep(ws, log_xsf, ups), ups)


def iterate(model, point: ModelPoint, grids: list[QuadratureGrid],
            tol_iter: float = TOL_ITER, max_iter: int = MAX_ITER,
            spec: GridSpec = GridSpec(),
            workspace: _Workspace | None = None) -> RaySolution:
    """Solve the integral equation on ``grids`` by iterating ``_sweep``.

    Distinct rays never coincide off the walls, and charges sharing a ray
    pair to zero, so no principal values arise: every integral a node needs
    is over some other ray.  The iteration starts from the semiflat seed; it
    stops when the largest node update drops below ``tol_iter``, and the
    converged data are re-checked by one more sweep.  ``workspace`` is the
    sweep ``_prepare`` built on these grids.

    Only the rows ``ws.rows`` are iterated, the others taken as their
    reality images (``_mirrored``); an image row changes by what its source
    row does, so the history is that of the full sweep.  The recheck is one
    full ``_sweep``, which computes the image rows from their own blocks.
    """
    ws = workspace if workspace is not None else _prepare(model, point, grids)
    log_xsf = semiflat_nodes(model, point, grids)
    own = log_xsf[ws.rows]
    ups, history = _contract(lambda u: _half_step(ws, _density(own, u)),
                             np.zeros_like(own), tol_iter, max_iter)
    ups = _mirrored(ws, ups)
    return RaySolution(point=point, grids=grids, log_xsf=log_xsf,
                       upsilon=ups, iterations=len(history),
                       residual=history[-1], residual_history=history,
                       recheck_residual=recheck(model, point, grids, log_xsf,
                                                ups, ws),
                       tol_iter=tol_iter, spec=spec)


# ``solve``'s stored solutions by their inputs, least recently used first
_SOLVED: OrderedDict[tuple, RaySolution] = OrderedDict()


def solve(model, point: ModelPoint, spec: GridSpec = GridSpec(),
          tol_iter: float = TOL_ITER, max_iter: int = MAX_ITER) -> RaySolution:
    """``iterate`` on ``build_grids``, or the stored solution of the same
    inputs.

    A solve reads the model only through its lattice, its rays at the
    point and the central charges of the rays' charges there, which are the
    rays' ``zs``; so (lattice, rays, point, spec, tol_iter, max_iter) fix
    it.  The last SOLVE_MEMO_SIZE solves are kept under that key, least
    recently used first out.  A stored solution's node arrays are
    read-only, and a solve that raises is not stored.
    """
    rays = bps_rays(model.spectrum, model.Z, point.u, R=point.R)
    key = (model.lattice, tuple(rays), point, spec, tol_iter, max_iter)
    sol = _SOLVED.get(key)
    if sol is not None:
        _SOLVED.move_to_end(key)
        return sol
    sol = iterate(model, point, build_grids(model, point, spec, rays),
                  tol_iter=tol_iter, max_iter=max_iter, spec=spec)
    for array in (sol.log_xsf, sol.upsilon, sol.log_one_minus_x):
        array.flags.writeable = False
    _SOLVED[key] = sol
    if len(_SOLVED) > SOLVE_MEMO_SIZE:
        _SOLVED.popitem(last=False)
    return sol


def solve_tangents(model, point: ModelPoint, tol_iter: float = TOL_ITER
                   ) -> tuple[RaySolution, np.ndarray]:
    """The solution at ``point`` and its tangent densities.

    Moving the point moves only its semiflat data L on the fixed contours, a
    Cauchy deformation of the rays, so the derivative solves the linearized
    sweep with the directions (Re u, Im u, theta_1, theta_2) stacked on a
    leading axis.  The tangent densities d log(1 - X) = -D (dL + dU) have
    shape (4, U, N).
    """
    grids = build_grids(model, point)
    ws = _prepare(model, point, grids)
    sol = iterate(model, point, grids, tol_iter=tol_iter, workspace=ws)
    neg_d = -np.expm1(-sol.log_one_minus_x[ws.rows])
    zeta = _node_data(grids, lambda grid, _: grid.zeta_nodes)[ws.rows]
    rows_of = unknowns(grids)
    pole, const, lin = (np.moveaxis(r, -1, 0)[..., None] for r in
                        xsf_laurent_rows(model, point, [
                            rows_of[k][1] for k in ws.rows]))
    d_log_xsf = pole / zeta + const + zeta * lin

    # the directions are real, so the tangents keep the reality pairing and
    # iterate on ``ws.rows`` as the solve does
    def tangent(du):
        return neg_d * (d_log_xsf + du)

    du, _ = _contract(lambda d: _half_step(ws, tangent(d)),
                      np.zeros_like(d_log_xsf), tol_iter, MAX_ITER)
    return sol, _mirrored(ws, tangent(du))


# ---------------------------------------------------------------------------
# Evaluation off the grid


def ray_integrals(grids: list[QuadratureGrid], rays, density: np.ndarray,
                  coefs, zeta, side=None) -> np.ndarray:
    """sum_k coefs[k] times the Cauchy integral of density row k, on ray
    ``rays[k]``, at zeta: (..., K, N) node data and (K, C) coefficients give
    leading + (C,) at a number zeta, leading + (zetas, C) at a 1-d array.

    A ray with no row of nonzero coefficient is not read.  Without ``side``
    a zeta within RAY_AVOIDANCE_ANGLE of a ray that is read raises, since
    the integral jumps there; with it, a zeta within ON_RAY_ANGLE of a ray
    takes the counterclockwise (+1) or clockwise (-1) boundary value of the
    closed-form kernel.  ``side`` is +-1 for every zeta, or an array of
    +-1 broadcast against the zetas, one side per zeta, so one call reads
    both boundary values of a ray.  Every other zeta is evaluated where it
    lies.

    The read rays' poles w = log(zeta / direction) give one (R, Z, N) array
    of ``_kernels`` on the nodes all rays share, and one ``_fold_near``
    folds every near pole; the density rows are summed with their
    coefficients per ray and weighted, and one product with the rows,
    summed over the rays, gives the integrals.
    """
    scalar = np.ndim(zeta) == 0
    zetas = np.atleast_1d(np.asarray(zeta, dtype=complex))
    coefs = np.asarray(coefs)
    rays = np.asarray(rays, dtype=int)
    read = np.flatnonzero(np.bincount(rays[coefs.any(axis=1)],
                                      minlength=len(grids)))
    if not len(read):
        total = np.zeros(density.shape[:-2] + zetas.shape + coefs.shape[1:],
                         dtype=complex)
        return total[..., 0, :] if scalar else total
    grids = [grids[r] for r in read]
    w = np.log(zetas / np.array([g.ray.direction for g in grids])[:, None])
    if side is None:
        close = np.abs(w.imag) < RAY_AVOIDANCE_ANGLE
        if close.any():
            r = np.flatnonzero(close.any(axis=1))[0]
            raise RayProximityError(
                f"zeta={zetas[close[r]][0]} within {RAY_AVOIDANCE_ANGLE} "
                f"rad of the ray of {grids[r].ray.charges[0]}; request a "
                f"directed limit")
    else:
        # A truly infinitesimal offset puts an on-ray pole on the requested
        # side: -expm1 in the closed-form kernel keeps its sign, which
        # picks the logarithms' branch (a signed zero would not survive
        # the shift w -+ s_max).
        on = np.abs(w.imag) < ON_RAY_ANGLE
        w[on] = w.real[on] + 1e-300j * np.broadcast_to(side, w.shape)[on]
    # (..., R, N, C): per read ray, its rows' coefficient sum, weighted
    mix = (rays == read[:, None])[..., None] * coefs
    g = (np.swapaxes(density, -1, -2)[..., None, :, :] @ mix) \
        * grids[0].weights[:, None]
    rows = _kernels(grids[0], w)
    _fold_near(grids[0], rows.reshape(-1, rows.shape[-1]), w.ravel())
    total = (rows @ g).sum(axis=-3)
    return total[..., 0, :] if scalar else total


def _coefficients(model, grids: list[QuadratureGrid], charges: list[Charge]
                  ) -> np.ndarray:
    """(U, C): -Omega <gamma, gamma'> / 4 pi i, rows the unknowns gamma',
    from one integer product of the charges' coefficient rows."""
    lat = model.lattice
    pairs = lat.rows([g for _, g in unknowns(grids)]) @ lat.matrix().T \
        @ lat.rows(charges).T
    omegas = np.array([om for grid in grids for om in grid.ray.omegas],
                      dtype=np.int64)
    # -1 / i = i, and the real quotient rounds as the complex one would
    return 1j * (omegas[:, None] * pairs / (4.0 * math.pi))


def _upsilon_value(model, grids: list[QuadratureGrid], density: np.ndarray,
                   charges: list[Charge], zeta, side=None) -> np.ndarray:
    """Ray integrals of one density set at zeta, per charge (last axis).

    ``density`` holds node data on ``grids``, (..., U, N): a solution's
    log(1 - X), which gives log(X / X^sf), or ``solve_tangents``' densities,
    which give its derivatives.  It is ``ray_integrals`` on the rows of
    ``unknowns(grids)`` with the ``_coefficients``, and ``side`` is
    passed through.
    """
    return ray_integrals(grids, [r for r, _ in unknowns(grids)], density,
                         _coefficients(model, grids, charges), zeta, side)


def zeta_zero_moments(model, grids: list[QuadratureGrid], density: np.ndarray,
                      charges: list[Charge]) -> tuple[np.ndarray, np.ndarray]:
    """``_upsilon_value`` as zeta -> 0 is u_0 + zeta u_1 + O(zeta^2), per
    charge (last axis); as zeta -> infinity it tends to -u_0.

    On a ray zeta' = d e^s the kernel is 1 + 2 zeta / zeta' + O(zeta^2), so
    u_0 and u_1 are moments of the density on the solve's own nodes.
    """
    coefs = _coefficients(model, grids, charges)
    weights = grids[0].weights if grids else np.zeros(0)
    inverse = _node_data(grids, lambda grid, _: 2.0 / grid.zeta_nodes)
    return (np.sum(weights * density, axis=-1) @ coefs,
            np.sum(weights * inverse * density, axis=-1) @ coefs)


def upsilon(model, solution: RaySolution, gamma: Charge, zeta: complex,
            side: int | None = None) -> complex:
    """Converged log-correction log(X_gamma / X^sf_gamma) at zeta."""
    return complex(_upsilon_value(model, solution.grids,
                                  solution.log_one_minus_x, [gamma],
                                  complex(zeta), side)[0])


def evaluate(model, solution: RaySolution, gamma: Charge, zeta: complex,
             side: int | None = None) -> CoordinateValue:
    """Corrected coordinate X_gamma(zeta) from the converged ray data.

    Without ``side`` a zeta within RAY_AVOIDANCE_ANGLE of a ray where
    gamma jumps raises.  ``side=+1/-1`` selects the counterclockwise/
    clockwise boundary value, the +-i0 closed-form kernel, when zeta lies
    within ON_RAY_ANGLE of a ray; any other zeta is evaluated where it lies.
    """
    return CoordinateValue.from_log(
        gamma, zeta, xsf_log(model, solution.point, gamma, zeta)
        + upsilon(model, solution, gamma, zeta, side=side))


def side_limit(model, solution: RaySolution, gamma: Charge, zeta0: complex,
               side: int) -> CoordinateValue:
    """The directed boundary value on a ray: ``evaluate`` with ``side``.

    A name only, for ``bench/check_controls.py`` and ``bench/spans.py``,
    which still read it; ROADMAP.md item 1 switches them to ``evaluate``.
    """
    return evaluate(model, solution, gamma, zeta0, side)


def ray_jump_defect(model, solution: RaySolution, ray_index: int) -> float:
    """Largest mismatch between directed values and the expected ray jump.

    The clockwise value of each basis charge must equal the
    counterclockwise one multiplied by prod (1 - X_{g'}(zeta0))^(Omega
    <gamma, g'>) over the charges g' on the ray, with X_{g'} continuous
    there.  One evaluation reads every value, the closed-form boundary
    values at zeta0 twice with side +1 and -1: the counterclockwise row
    gives the ray's charges and the basis, the clockwise row the basis.  A
    NaN mismatch makes the result NaN.
    """
    ray = solution.grids[ray_index].ray
    lat = model.lattice
    zeta0 = ray.direction
    basis = lat.basis()
    charges = list(ray.charges) + basis
    n = len(ray.charges)
    log_xsf = np.array([xsf_log(model, solution.point, g, zeta0)
                        for g in charges])

    def values(charges, logs):
        return [CoordinateValue.from_log(g, zeta0, v).value
                for g, v in zip(charges, logs.tolist())]

    ups = _upsilon_value(model, solution.grids, solution.log_one_minus_x,
                         charges, np.array([zeta0, zeta0]),
                         side=np.array([+1, -1]))
    factors = list(zip(ray.charges, ray.omegas, values(
        ray.charges, log_xsf[:n] + ups[0, :n])))
    ccw, cw = (values(basis, log_xsf[n:] + u) for u in ups[:, n:])
    defects = []
    for gamma, predicted, x_cw in zip(basis, ccw, cw):
        for g_ray, om, x_on in factors:
            predicted *= (1.0 - x_on) ** (om * lat.pair(gamma, g_ray))
        scale = max(abs(x_cw), abs(predicted), 1e-300)
        defects.append(abs(x_cw - predicted) / scale)
    return float(np.max(defects, initial=0.0))


def radial_limit(model, solution: RaySolution, gamma: Charge,
                 direction: complex) -> complex:
    """The zeta -> 0 limit of X/X^sf, exp(u_0) of ``zeta_zero_moments``.

    The limit is the same along every direction, so ``direction`` does
    not enter the value."""
    u0, _ = zeta_zero_moments(model, solution.grids,
                              solution.log_one_minus_x, [gamma])
    return complex(np.exp(u0[0]))


def sector_midpoints(grids: list[QuadratureGrid]) -> list[float]:
    """Angles halfway between adjacent rays, one per sector."""
    angles = sorted(g.ray.angle for g in grids)
    return [0.5 * (a + b) for a, b in zip(
        angles, angles[1:] + [angle + 2 * math.pi for angle in angles[:1]])]


def midsector_zetas(solution: RaySolution | list[QuadratureGrid], n: int = 8
                    ) -> list[complex]:
    """Unit zetas cycling through ``sector_midpoints``, turned by -0.15, 0
    and +0.15 rad on successive passes whatever the sector width, so in a
    sector narrower than 0.3 rad the turned ones can fall on or past a ray.
    Grids will do in place of a solution.

    The wall probes need the turn: a wall's narrow sectors hold the other
    side's bound-state ray, 0.01 rad from their midpoints at R 0.35 and
    phi 0.9, where ``wall-check`` reads a genuine order near 0, not 1."""
    mids = sector_midpoints(getattr(solution, "grids", solution))
    if not mids:
        return [cmath.exp(2j * math.pi * (k + 0.5) / n) for k in range(n)]
    out = []
    k = 0
    while len(out) < n:
        base = mids[k % len(mids)]
        jitter = 0.15 * ((k // len(mids)) % 3 - 1)
        out.append(cmath.exp(1j * (base + jitter)))
        k += 1
    return out


@dataclass
class WallReport:
    separations: list[float]
    discrepancies: list[float]
    orders: list[float] = field(init=False)

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
                          spectrum_override=None) -> WallReport:
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
    zetas = np.asarray(zeta_list, dtype=complex)
    seps, discs = [], []
    for k in range(halvings + 1):
        ua = mid + (u_in - mid) / 2 ** k
        ub = mid + (u_out - mid) / 2 ** k
        sol_a = solve(mdl, ModelPoint(ua, R, theta), tol_iter=WALL_TOL_ITER)
        sol_b = solve(mdl, ModelPoint(ub, R, theta), tol_iter=WALL_TOL_ITER)
        va, vb = (np.exp(_upsilon_value(mdl, sol.grids, sol.log_one_minus_x,
                                        basis, zetas))
                  for sol in (sol_a, sol_b))
        seps.append(abs(ua - ub))
        discs.append(float(np.max(np.abs(va - vb), initial=0.0)))
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
                     r_values: list[float]) -> DecayReport:
    """Fit log(max correction over the unit circle) against R.

    The maximum is taken over the directed on-ray values, where the
    boundary term makes the correction largest; its decay rate is
    -2 pi min|Z| over the active charges.  One evaluation per R reads
    them: every ray direction twice, counterclockwise then clockwise.
    """
    basis = model.lattice.basis()
    maxima = []
    min_z = None
    for R in r_values:
        point = ModelPoint(u, R, theta)
        sol = solve(model, point)
        if not sol.grids:
            raise ValueError(f"no active charge at R={R}: every "
                             "exp(-2 pi R |Z|) is below SPECTRAL_CUTOFF")
        if min_z is None:
            min_z = min(g.ray.min_abs_z() for g in sol.grids)
        directions = [grid.ray.direction for grid in sol.grids]
        maxima.append(float(np.max(np.abs(_upsilon_value(
            model, sol.grids, sol.log_one_minus_x, basis,
            np.array(directions * 2),
            side=np.repeat([+1, -1], len(directions)))))))
    slope = float(np.polyfit(np.asarray(r_values, dtype=float),
                             np.log(np.asarray(maxima)), 1)[0])
    return DecayReport(r_values=list(r_values), max_corrections=maxima,
                       slope=slope, target=-2.0 * math.pi * float(min_z))
