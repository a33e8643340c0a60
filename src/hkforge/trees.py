"""Series solution of the ray integral equation as a sum over rooted trees.

Expanding the exponential and the logarithms of the integral equation
organizes the iteration into decorated rooted trees: each node carries a
charge, each node contributes one Cauchy-type integral of the semiflat
coordinate over that charge's ray, and children are evaluated at the
quadrature nodes of their parent's ray.  A tree weighs

    c(T) = (1/|Aut T|) * prod_nodes c(gamma_i) * prod_edges <g_parent, g_child>

with c(gamma) the rational multicover combination of the integer
degeneracies.  Trees with a vanishing edge pairing drop out; that pruning
is the whole reason the one-electric-charge model closes after a single
integral.  Whether the full sum converges is open; here it is used at
finite cutoff as an independent cross-check of the fixed-point solver.

Summed by root charge and degree, the trees need not be listed.  A tree's
root integrand is X^sf of its root times its children's integrals
I = (1/4 pi i) int K at the root's nodes.  |Aut T| is prod_i m_i! over the
multiplicities of equal child subtrees times the children's own |Aut|, so
summed over the trees with root delta, c(T) times the root integrand runs
over multisets of children weighted 1/prod_i m_i!: an exponential,

    H_delta = c(delta) X^sf_delta exp(sum_delta' <delta, delta'> I[H_delta'])

at delta's nodes.  By degree, H_delta^(k) = c(delta) X^sf_delta e_{k-|delta|}
with e_0 = 1, e_m = (1/m) sum_{j<=m} j E_j e_{m-j} and E_j = sum_delta'
<delta, delta'> I[H_delta'^(j)]: the trees of degree k term for term, with a
vanishing pairing dropping its term as it dropped the edge.

The decorations are the multiples n gamma of the charges on the given
rays, each on gamma's ray, so the sum sees the spectrum the solve saw.
They are listed once per point, towers included; a cutoff only bounds the
degrees that are summed.
Their integrals read the solver's one block map (``_Workspace.blocks``
of ``_prepare``, near-ray continuation folded in), one product per block
and degree.  The sweep weighs those blocks with ``_coefficients``; the tree
sum takes only their kernels, and the pairings, multicover invariants and
graded exponentials are its own.  A coordinate takes one Cauchy integral
per root ray through the solver's ``ray_integrals``.  The tests keep a
tree-by-tree reference (``tests/reference.py``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .lattice import Charge
from .semiflat import CoordinateValue, ModelPoint, xsf_log
from .solver import (FOUR_PI_I, QuadratureGrid, _prepare, build_grids,
                     ray_integrals)

EPS_TAIL = 1e-16       # scale exp(-2 pi R n |Z|) down to which towers run


def multicover(omega: dict[Charge, int], gamma: Charge) -> Fraction:
    """Rational invariant c(gamma) = sum_{n | gamma} Omega(gamma/n) / n^2,
    with Omega by charge (a charge ``omega`` lacks has Omega 0)."""
    if gamma.is_zero():
        raise ValueError("multicover invariant undefined for the zero charge")
    total = Fraction(0)
    content = gamma.content()
    for beta, om in omega.items():
        n = content // beta.content()
        if om and tuple(n * c for c in beta.coeffs) == gamma.coeffs:
            total += Fraction(om, n * n)
    return total


class TreeIntegrator:
    """Graded root densities at one point on shared grids.

    The decorations are listed once per point: the multiples n beta of
    each ray's charges with a nonzero c(delta), sorted by degree then
    coefficients, each with its ray, c(delta) X^sf at the ray's nodes and
    whether it lies in a multicover tower (n 2 pi R |Z_beta| below
    -log EPS_TAIL).  The list holds the towers and every degree up to the
    largest cutoff asked so far, and grows only when a larger one arrives;
    a cutoff just bounds the degrees summed.  Reads Omega once, over the
    spectrum's support at the point.  Keeps H_delta^(k) per (decoration,
    degree), the integrals of degree j at the nodes of each ray that reads
    them, and the summed density per decoration per cutoff, all 1-D
    arrays.  The integrals read the kernels of the sweep's block map on
    the grids (``_prepare``), whose own coefficients, ``_coefficients``,
    they leave aside; it is built at the first integral and lives as long
    as the integrator.
    """

    def __init__(self, model, point: ModelPoint,
                 grids: list[QuadratureGrid] | None = None):
        self.model = model
        self.point = point
        self.grids = grids if grids is not None else build_grids(model, point)
        u = point.u
        self._omega = {g: model.spectrum.omega(g, u)
                       for g in model.spectrum.support(u)}
        # (charge, degree, ray, c(delta) X^sf, in a tower) up to the reach,
        # and per decoration of degree <= reach the (i, <delta, delta_i>)
        # that are not 0; every charge looked at is seen
        self._decorations: list[tuple] = []
        self._pairs: list[list[tuple[int, int]]] = []
        self._reach: int | None = None
        self._seen: set[Charge] = set()
        self._graded: dict[tuple[Charge, int], np.ndarray] = {}
        self._at_nodes: dict[int, dict[tuple[Charge, int], np.ndarray]] = {}
        self._densities: dict[int, dict[Charge, tuple[int, np.ndarray]]] = {}

    def _extend(self, degree_cutoff: int) -> None:
        """List the multiples of degree up to the cutoff, and the towers at
        the first call, that the list lacks; then pair its graded part."""
        if self._reach is not None and degree_cutoff <= self._reach:
            return
        model, point = self.model, self.point
        tail = -math.log(EPS_TAIL)
        for r, grid in enumerate(self.grids):
            for base, z in zip(grid.ray.charges, grid.ray.zs):
                degree = base.l1_degree()
                scale = 2.0 * math.pi * point.R * abs(z)
                towers = 0
                while (towers + 1) * scale < tail:
                    towers += 1
                listed = (0 if self._reach is None
                          else max(towers, self._reach // degree))
                multiples = range(listed + 1,
                                  max(towers, degree_cutoff // degree) + 1)
                if not multiples:
                    continue
                # log X^sf of n beta is n log X^sf_beta mod 2 pi i: Z and
                # theta are linear, and q(n beta) = n^2 q(beta) = n q(beta)
                # mod 2; only the charges on beta's line enter c(n beta)
                log_base = xsf_log(model, point, base, grid.zeta_nodes)
                line = {g: om for g, om in self._omega.items()
                        if base.proportional(g)}
                for n in multiples:
                    g = n * base
                    if g in self._seen:
                        continue
                    self._seen.add(g)
                    weight = multicover(line, g)
                    if weight:
                        self._decorations.append((
                            g, n * degree, r,
                            float(weight) * np.exp(n * log_base),
                            n <= towers))
        self._decorations.sort(key=lambda d: (d[1], d[0].coeffs))
        self._reach = degree_cutoff
        coeffs = model.lattice.rows([g for g, d, _, _, _ in self._decorations
                                     if d <= degree_cutoff])
        pairing = (coeffs @ model.lattice.matrix() @ coeffs.T).tolist()
        self._pairs = [[(i, p) for i, p in enumerate(row) if p]
                       for row in pairing]

    @functools.cached_property
    def _workspace(self):
        return _prepare(self.model, self.point, self.grids)

    def _integrals(self, j: int) -> dict[tuple[Charge, int], np.ndarray]:
        """(1/4 pi i) int K H_delta'^(j) at the nodes of every ray that
        reads delta''s ray, by (delta', target ray): one product per block
        of the workspace, over the decorations of degree <= j on its source
        ray."""
        if j not in self._at_nodes:
            at_nodes = {}
            for (rt, rs), (sign, matrix, _) in \
                    self._workspace.blocks.items():
                src = [g for g, d, r, _, _ in self._decorations
                       if r == rs and d <= j]
                if not src:
                    continue
                rows = sign * ((self.grids[rs].weights * np.array(
                    [self._graded[g, j] for g in src])) @ matrix.T) \
                    / FOUR_PI_I
                for g, row in zip(src, rows):
                    at_nodes[g, rt] = row.copy()
            self._at_nodes[j] = at_nodes
        return self._at_nodes[j]

    def _layer(self, t: int, j: int):
        """E_j(delta) = sum_delta' <delta, delta'> I[H_delta'^(j)] at the
        nodes of delta's ray, delta the t-th decoration."""
        decos = self._decorations
        at_nodes, r = self._integrals(j), decos[t][2]
        return sum(p * at_nodes[decos[i][0], r]
                   for i, p in self._pairs[t] if decos[i][1] <= j)

    def densities(self, degree_cutoff: int
                  ) -> dict[Charge, tuple[int, np.ndarray]]:
        """(root ray, sum of c(T) times root integrand) per root decoration.

        A decoration of degree <= the cutoff sums its degrees up to it,
        sum_k H^(k), each degree built from the cached lower ones; a tower
        decoration past the cutoff keeps its single node c(delta) X^sf.
        """
        if degree_cutoff not in self._densities:
            self._extend(degree_cutoff)
            graded = self._graded
            for k in range(1, degree_cutoff + 1):
                for t, (g, d, _, xsf, _) in enumerate(self._decorations):
                    if d > k:
                        break
                    if (g, k) not in graded:
                        graded[g, k] = xsf * _graded_exp(
                            [self._layer(t, j) for j in range(1, k - d + 1)])
            self._densities[degree_cutoff] = {
                g: (r, sum((graded[g, k]
                            for k in range(d + 1, degree_cutoff + 1)),
                           graded[g, d]) if d <= degree_cutoff else xsf)
                for g, d, r, xsf, tower in self._decorations
                if d <= degree_cutoff or tower}
        return self._densities[degree_cutoff]

    def exponent(self, gamma: Charge, zeta: complex, degree_cutoff: int
                 ) -> complex:
        """sum_T <gamma, g_T> c(T) G_T(zeta): one Cauchy integral per ray,
        with every <gamma, delta> from one integer product of the
        decorations' coefficient rows."""
        lat = self.model.lattice
        dens = self.densities(degree_cutoff)
        pairs = (np.array(gamma.coeffs) @ lat.matrix()
                 @ lat.rows(list(dens)).T).tolist()
        coefs = np.array([p / FOUR_PI_I for p in pairs])
        return complex(ray_integrals(
            self.grids, [r for r, _ in dens.values()],
            np.array([f for _, f in dens.values()]), coefs[:, None], zeta)[0])


def _graded_exp(layers: list[np.ndarray]):
    """e_m, the degree-m part of exp(sum_j E_j t^j), from E_1..E_m:
    e_0 = 1 and e_m = (1/m) sum_{j<=m} j E_j e_{m-j}."""
    e = [1.0]
    for m in range(1, len(layers) + 1):
        e.append(sum(j * layers[j - 1] * e[m - j]
                     for j in range(1, m + 1)) / m)
    return e[-1]


def layer_gate(layer: float, prev_layer: float, q_floor: float,
               eps_quad: float) -> float:
    """Largest gap to the solver a cutoff-c sum may have.

    ``layer`` is |S_{c+1} - S_c|, the first omitted degree, and
    ``prev_layer`` is |S_c - S_{c-1}|.  Layers that shrink by a ratio q
    leave a truncation error of about layer / (1 - q).  q is the measured
    ratio layer / prev_layer, but at least ``q_floor`` = exp(-2 pi R
    min|Z|), the suppression per degree, because at low R the layers
    shrink unevenly and one ratio can undershoot the tail; the factor 3 is
    the margin over the estimate.  ``eps_quad`` is the quadrature floor
    both routes share.  Layers that do not shrink give no estimate, and the
    gate is then infinite.
    """
    if prev_layer:
        q = max(q_floor, layer / prev_layer)
    else:
        q = math.inf if layer else q_floor
    if q >= 1.0:
        return math.inf
    return 3.0 * layer / (1.0 - q) + eps_quad


def series_solution(model, point: ModelPoint, gamma: Charge, zeta: complex,
                    degree_cutoff: int = 4,
                    integrator: TreeIntegrator | None = None
                    ) -> CoordinateValue:
    """Tree-sum coordinate X_gamma = X^sf exp[sum_T <gamma,g_T> c(T) G_T].

    The structural cutoff bounds the tree degree; the single-node multicover
    towers n * beta are resummed past it until their exp(-2 pi R n |Z|)
    scale drops below EPS_TAIL — the towers are what the logarithms of
    the integral equation expand into, so without them even the
    one-electric-charge model would disagree at the cutoff scale.
    """
    if integrator is None:
        integrator = TreeIntegrator(model, point)
    return CoordinateValue.from_log(
        gamma, zeta, xsf_log(model, point, gamma, zeta)
        + integrator.exponent(gamma, zeta, degree_cutoff))
