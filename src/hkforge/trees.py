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
Their integrals read the kernel blocks of the solver's sweep operator
(``_prepare``, near-ray continuation folded in), one product per block and
degree; the pairings, multicover invariants and graded exponentials are
the tree sum's own.  A coordinate takes one Cauchy integral per root ray
through the solver's ``ray_integrals``.  The tests keep a tree-by-tree
reference (``tests/reference.py``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import Charge
from .semiflat import CoordinateValue, ModelPoint, xsf_log
from .solver import (FOUR_PI_I, QuadratureGrid, _prepare, build_grids,
                     ray_integrals)

EPS_TAIL = 1e-16       # scale exp(-2 pi R n |Z|) down to which towers run


def multicover(spectrum, gamma: Charge, u: complex) -> Fraction:
    """Rational invariant c(gamma) = sum_{n | gamma} Omega(gamma/n) / n^2."""
    if gamma.is_zero():
        raise ValueError("multicover invariant undefined for the zero charge")
    total = Fraction(0)
    content = gamma.content()
    for n in range(1, content + 1):
        if content % n == 0:
            part = Charge(tuple(c // n for c in gamma.coeffs))
            om = spectrum.omega(part, u)
            if om:
                total += Fraction(om, n * n)
    return total


class _Decorations(NamedTuple):
    """The decorations of one cutoff by degree, then coefficients: charge,
    L1 degree, ray and c(delta) X^sf at the ray's nodes.  The first
    ``graded`` lie within the cutoff, the rest are the towers past it;
    ``pairs[t]`` lists the (i < graded, <delta_t, delta_i>) that are not 0.
    """

    charges: tuple[Charge, ...]
    degrees: tuple[int, ...]
    rays: tuple[int, ...]
    xsf: tuple[np.ndarray, ...]
    graded: int
    pairs: tuple[tuple[tuple[int, int], ...], ...]


class TreeIntegrator:
    """Graded root densities at one point on shared grids.

    The decorations are the multiples of each ray's charges, on that ray,
    up to the cutoff and along the multicover towers past it down to
    EPS_TAIL: one table per cutoff.  Keeps H_delta^(k) per (decoration,
    degree), the integrals of degree j at the nodes of each ray that reads
    them, and the summed density per decoration per cutoff, all 1-D
    arrays.  The integrals read the kernel blocks of one sweep workspace
    on the grids (``_prepare``), built at the first integral, which lives
    as long as the integrator.  EPS_TAIL is a constant, so the cutoff alone
    keys the sums.
    """

    def __init__(self, model, point: ModelPoint,
                 grids: list[QuadratureGrid] | None = None):
        self.model = model
        self.point = point
        self.grids = grids if grids is not None else build_grids(model, point)
        self._tables: dict[int, _Decorations] = {}
        self._graded: dict[tuple[Charge, int], np.ndarray] = {}
        self._at_nodes: dict[int, dict[tuple[Charge, int], np.ndarray]] = {}
        self._densities: dict[int, dict[Charge, tuple[int, np.ndarray]]] = {}

    def _table(self, degree_cutoff: int) -> _Decorations:
        """The decorations of the cutoff with a nonzero c(delta); the X^sf
        rows of the charges an earlier table holds are that table's."""
        if degree_cutoff not in self._tables:
            model, point = self.model, self.point
            known = {g: row for table in self._tables.values()
                     for g, row in zip(table.charges, table.xsf)}
            ray_of = {}
            for r, grid in enumerate(self.grids):
                for base, z in zip(grid.ray.charges, grid.ray.zs):
                    scale = 2.0 * math.pi * point.R * abs(z)
                    n = 1
                    while (n * base.l1_degree() <= degree_cutoff
                           or n * scale < -math.log(EPS_TAIL)):
                        ray_of[n * base] = r
                        n += 1
            weights = {g: multicover(model.spectrum, g, point.u)
                       for g in sorted(ray_of, key=lambda g: (
                           g.l1_degree(), g.coeffs))}
            charges = tuple(g for g, c in weights.items() if c)
            degrees = tuple(g.l1_degree() for g in charges)
            graded = sum(d <= degree_cutoff for d in degrees)
            coeffs = np.array([g.coeffs for g in charges[:graded]],
                              dtype=np.int64).reshape(
                                  graded, model.lattice.rank_total)
            pairing = (coeffs @ model.lattice.matrix() @ coeffs.T).tolist()
            self._tables[degree_cutoff] = _Decorations(
                charges, degrees, tuple(ray_of[g] for g in charges),
                tuple(known[g] if g in known else float(weights[g]) * np.exp(
                    xsf_log(model, point, g, self.grids[ray_of[g]].zeta_nodes))
                    for g in charges),
                graded, tuple(tuple((i, p) for i, p in enumerate(row) if p)
                              for row in pairing))
        return self._tables[degree_cutoff]

    @functools.cached_property
    def _workspace(self):
        return _prepare(self.model, self.point, self.grids)

    def _integrals(self, table: _Decorations, j: int
                   ) -> dict[tuple[Charge, int], np.ndarray]:
        """(1/4 pi i) int K H_delta'^(j) at the nodes of every ray that
        reads delta''s ray, by (delta', target ray): one product per block
        of the workspace, over the decorations of degree <= j on its source
        ray.  ``table`` is that of a cutoff >= j, so it lists them all."""
        if j not in self._at_nodes:
            at_nodes = {}
            for (rt, rs), (sign, matrix) in self._workspace.blocks.items():
                src = [g for g, d, r in zip(table.charges, table.degrees,
                                            table.rays) if r == rs and d <= j]
                if not src:
                    continue
                rows = sign * ((self.grids[rs].weights * np.array(
                    [self._graded[g, j] for g in src])) @ matrix.T) \
                    / FOUR_PI_I
                for g, row in zip(src, rows):
                    at_nodes[g, rt] = row.copy()
            self._at_nodes[j] = at_nodes
        return self._at_nodes[j]

    def _layer(self, table: _Decorations, t: int, j: int):
        """E_j(delta) = sum_delta' <delta, delta'> I[H_delta'^(j)] at the
        nodes of delta's ray, delta the t-th decoration of ``table``."""
        at_nodes, r = self._integrals(table, j), table.rays[t]
        return sum(p * at_nodes[table.charges[i], r]
                   for i, p in table.pairs[t] if table.degrees[i] <= j)

    def densities(self, degree_cutoff: int
                  ) -> dict[Charge, tuple[int, np.ndarray]]:
        """(root ray, sum of c(T) times root integrand) per root decoration.

        The sum runs over the degrees up to the cutoff, sum_k H^(k), each
        degree built from the cached lower ones, and the single-node
        multicover towers n * beta past it, while their exp(-2 pi R n |Z|)
        scale stays above EPS_TAIL.
        """
        if degree_cutoff not in self._densities:
            table = self._table(degree_cutoff)
            sums: dict[int, np.ndarray] = {}
            for k in range(1, degree_cutoff + 1):
                for t in range(table.graded):
                    m = k - table.degrees[t]
                    if m < 0:
                        break
                    key = (table.charges[t], k)
                    if key not in self._graded:
                        self._graded[key] = table.xsf[t] * _graded_exp(
                            [self._layer(table, t, j)
                             for j in range(1, m + 1)])
                    h = self._graded[key]
                    sums[t] = sums[t] + h if t in sums else h
            sums.update((t, table.xsf[t])
                        for t in range(table.graded, len(table.charges)))
            self._densities[degree_cutoff] = {
                table.charges[t]: (table.rays[t], f) for t, f in sums.items()}
        return self._densities[degree_cutoff]

    def exponent(self, gamma: Charge, zeta: complex, degree_cutoff: int
                 ) -> complex:
        """sum_T <gamma, g_T> c(T) G_T(zeta): one Cauchy integral per ray."""
        lat = self.model.lattice
        dens = self.densities(degree_cutoff)
        coefs = np.array([lat.pair(gamma, delta) / FOUR_PI_I
                          for delta in dens])
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
