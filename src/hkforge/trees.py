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
vanishing pairing dropping its term as it dropped the edge.  The integrals
at a ray's nodes read the kernel blocks of the solver's sweep operator
(``_prepare``): one kernel per class of ray pairs, with the near-ray
continuation folded in, built once per point and read by every degree and
(source ray, target ray) without its coefficient.  The pairings, the
multicover invariants and the graded exponentials stay the tree sum's own.
A coordinate takes one Cauchy integral per root ray through the solver's
``ray_integrals`` and its near-ray rule.  The multicover towers run down to
the EPS_TAIL scale.  ``enumerate_trees``, ``tree_weight`` and
``TreeIntegrator.g_integral`` keep the tree-by-tree sum as the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import Charge
from .semiflat import CoordinateValue, ModelPoint, xsf_log
from .solver import (FOUR_PI_I, QuadratureGrid, _prepare, build_grids,
                     ray_integrals)

TREE_BUDGET = 200_000  # most trees the reference enumeration lists
EPS_TAIL = 1e-16       # scale exp(-2 pi R n |Z|) down to which towers run


class TreeBudgetError(RuntimeError):
    """Enumeration would exceed TREE_BUDGET trees."""


def multicover(spectrum, gamma: Charge, u: complex) -> Fraction:
    """Rational invariant c(gamma) = sum_{n | gamma} Omega(gamma/n) / n^2."""
    if gamma.is_zero():
        raise ValueError("multicover invariant undefined for the zero charge")
    total = Fraction(0)
    for n in range(1, gamma.content() + 1):
        if all(c % n == 0 for c in gamma.coeffs):
            part = Charge(tuple(c // n for c in gamma.coeffs))
            om = spectrum.omega(part, u)
            if om:
                total += Fraction(om, n * n)
    return total


@dataclass(frozen=True)
class DecoratedTree:
    """Rooted tree with charge decorations; children kept in canonical order."""

    decoration: Charge
    children: tuple["DecoratedTree", ...] = ()

    def canonical_key(self):
        return (self.decoration.coeffs,
                tuple(c.canonical_key() for c in self.children))

    def degree(self) -> int:
        return self.decoration.l1_degree() + sum(c.degree() for c in self.children)

    def height(self) -> int:
        return 1 + max((c.height() for c in self.children), default=-1)

    def aut_order(self) -> int:
        order = 1
        for child in self.children:
            order *= child.aut_order()
        run = 1
        for prev, cur in zip(self.children, self.children[1:]):
            if prev.canonical_key() == cur.canonical_key():
                run += 1
            else:
                order *= math.factorial(run)
                run = 1
        order *= math.factorial(run)
        return order


def tree_weight(model, tree: DecoratedTree, u: complex) -> Fraction:
    """c(T): automorphism factor, node multicovers, edge pairings."""
    w = Fraction(1, tree.aut_order())
    stack = [tree]
    while stack:
        node = stack.pop()
        w *= multicover(model.spectrum, node.decoration, u)
        if not w:
            return Fraction(0)
        for child in node.children:
            p = model.lattice.pair(node.decoration, child.decoration)
            if p == 0:
                return Fraction(0)
            w *= p
            stack.append(child)
    return w


def _decorations(model, u: complex, cutoff: int) -> dict[Charge, Fraction]:
    """c(gamma) of the charges with nonzero c and degree within the cutoff,
    by degree."""
    charges = {n * base for base in model.spectrum.support(u)
               for n in range(1, cutoff // base.l1_degree() + 1)}
    weights = {g: multicover(model.spectrum, g, u) for g in sorted(
        charges, key=lambda g: (g.l1_degree(), g.coeffs))}
    return {g: c for g, c in weights.items() if c}


def enumerate_trees(model, u: complex, degree_cutoff: int
                    ) -> list[tuple[DecoratedTree, Fraction]]:
    """All isomorphism classes of nonzero-weight trees up to the cutoff.

    Tree degree is the summed L1 degree of the decorations, matching the
    exp(-2 pi R sum|Z|) suppression of the corresponding integrals.  Trees
    with a vanishing parent-child pairing are pruned while building, so
    every returned tree has a nonzero weight.  More than TREE_BUDGET trees
    raise ``TreeBudgetError``.
    """
    lat = model.lattice
    decorations = _decorations(model, u, degree_cutoff)
    # pool: trees of degree < cutoff in a stable order (by degree, then
    # canonical key), usable as children of anything built later
    pool: list[DecoratedTree] = []
    pool_degree: list[int] = []
    levels: dict[int, list[DecoratedTree]] = {}
    count = 0

    def multisets(total: int, start: int):
        """Child multisets with degree sum exactly ``total``, from pool[start:]."""
        if total == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            d = pool_degree[i]
            if d > total:
                break  # pool degrees are nondecreasing
            for rest in multisets(total - d, i):
                yield (pool[i],) + rest

    for k in range(1, degree_cutoff + 1):
        level = []
        for gamma in decorations:
            d = gamma.l1_degree()
            if d > k:
                continue
            for kids in multisets(k - d, 0):
                if any(lat.pair(gamma, kid.decoration) == 0 for kid in kids):
                    continue
                level.append(DecoratedTree(gamma, kids))
                count += 1
                if count > TREE_BUDGET:
                    raise TreeBudgetError(
                        f"more than {TREE_BUDGET} trees below degree "
                        f"{degree_cutoff}")
        levels[k] = level
        if k < degree_cutoff:
            for tree in sorted(level, key=lambda t: t.canonical_key()):
                pool.append(tree)
                pool_degree.append(k)

    out = []
    for k in range(1, degree_cutoff + 1):
        for tree in levels[k]:
            w = tree_weight(model, tree, u)
            if w:
                out.append((tree, w))
    return out


class TreeIntegrator:
    """Graded root densities at one point on shared grids.

    Keeps H_delta^(k) on delta's ray nodes per (decoration, degree), its
    integral at the nodes of each ray that reads it, and the summed density
    per root decoration per cutoff, all 1-D arrays.  The integrals read the
    kernel blocks of one sweep workspace on the grids (``_prepare``), built
    at the first integral; they live as long as the integrator and no
    longer.  EPS_TAIL is a constant, so the cutoff alone keys the sums.
    """

    def __init__(self, model, point: ModelPoint,
                 grids: list[QuadratureGrid] | None = None):
        self.model = model
        self.point = point
        self.grids = grids if grids is not None else build_grids(model, point)
        self._rays: dict[Charge, int] = {}
        self._xsf_cache: dict[Charge, np.ndarray] = {}
        self._graded: dict[tuple[Charge, int], np.ndarray] = {}
        self._at_nodes: dict[tuple[Charge, int, int], np.ndarray] = {}
        self._densities: dict[int, dict[Charge, tuple[int, np.ndarray]]] = {}

    def _ray_index(self, gamma: Charge) -> int:
        if gamma not in self._rays:
            z = self.model.Z.of(gamma, self.point.u)
            d = -z / abs(z)
            for i, grid in enumerate(self.grids):
                if abs(grid.ray.direction - d) < 1e-9:
                    self._rays[gamma] = i
                    break
            else:
                raise ValueError(
                    f"no quadrature ray matches the charge {gamma}")
        return self._rays[gamma]

    def _xsf_nodes(self, gamma: Charge) -> np.ndarray:
        """X^sf of gamma at the nodes of gamma's own ray."""
        if gamma not in self._xsf_cache:
            grid = self.grids[self._ray_index(gamma)]
            self._xsf_cache[gamma] = np.exp(xsf_log(
                self.model, self.point, gamma, grid.zeta_nodes))
        return self._xsf_cache[gamma]

    @functools.cached_property
    def _workspace(self):
        return _prepare(self.model, self.point, self.grids)

    def _integrals(self, source: int, target: int, f: np.ndarray
                   ) -> np.ndarray:
        """(1/4 pi i) int K f over ray ``source`` at the nodes of ``target``:
        the workspace's block of the ray pair."""
        sign, matrix = self._workspace.blocks[target, source]
        return sign * ((self.grids[source].weights * f) @ matrix.T) \
            / FOUR_PI_I

    def _layer(self, delta: Charge, j: int) -> np.ndarray:
        """E_j(delta) = sum_delta' <delta, delta'> I[H_delta'^(j)] at the
        nodes of delta's ray.  The integrals missing there are taken in one
        stacked block product per source ray and kept per delta'."""
        lat = self.model.lattice
        r = self._ray_index(delta)
        paired = [(s, lat.pair(delta, s)) for s, k in self._graded
                  if k == j and lat.pair(delta, s)]
        missing = [s for s, _ in paired if (s, j, r) not in self._at_nodes]
        for rs in sorted({self._ray_index(s) for s in missing}):
            src = [s for s in missing if self._ray_index(s) == rs]
            rows = self._integrals(rs, r, np.array([self._graded[s, j]
                                                    for s in src]))
            for s, row in zip(src, rows):
                self._at_nodes[s, j, r] = row.copy()
        return sum(p * self._at_nodes[s, j, r] for s, p in paired)

    def densities(self, degree_cutoff: int
                  ) -> dict[Charge, tuple[int, np.ndarray]]:
        """(root ray, sum of c(T) times root integrand) per root decoration.

        The sum runs over the degrees up to the cutoff, sum_k H^(k), each
        degree built from the cached lower ones, and the single-node
        multicover towers n * beta past it, while their exp(-2 pi R n |Z|)
        scale stays above EPS_TAIL.
        """
        if degree_cutoff not in self._densities:
            sums: dict[Charge, np.ndarray] = {}
            decorations = _decorations(self.model, self.point.u,
                                       degree_cutoff)
            for k in range(1, degree_cutoff + 1):
                for delta, c in decorations.items():
                    m = k - delta.l1_degree()
                    if m < 0:
                        continue
                    if (delta, k) not in self._graded:
                        self._graded[delta, k] = float(c) * self._xsf_nodes(
                            delta) * _graded_exp([self._layer(delta, j)
                                                  for j in range(1, m + 1)])
                    h = self._graded[delta, k]
                    sums[delta] = sums[delta] + h if delta in sums else h
            for tree, c in _tower_tails(self.model, self.point,
                                        degree_cutoff):
                sums[tree.decoration] = float(c) * self._xsf_nodes(
                    tree.decoration)
            self._densities[degree_cutoff] = {d: (self._ray_index(d), f)
                                              for d, f in sums.items()}
        return self._densities[degree_cutoff]

    def _root_integrand(self, tree: DecoratedTree) -> np.ndarray:
        """X^sf of the root times its children's integrals at its nodes."""
        r = self._ray_index(tree.decoration)
        vals = self._xsf_nodes(tree.decoration)
        for child in tree.children:
            vals = vals * self._integrals(self._ray_index(child.decoration),
                                          r, self._root_integrand(child))
        return vals

    def g_integral(self, tree: DecoratedTree, zeta):
        """G_T at an off-ray zeta (a number or a 1-d array), tree by tree."""
        r = self._ray_index(tree.decoration)
        return ray_integrals(self.grids, [r], self._root_integrand(tree)[None],
                             [[1.0 / FOUR_PI_I]], zeta)[..., 0]

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


def _tower_tails(model, point: ModelPoint, degree_cutoff: int
                 ) -> list[tuple[DecoratedTree, Fraction]]:
    """Single nodes n * beta past the cutoff down to the EPS_TAIL scale."""
    tails = []
    for base in model.spectrum.support(point.u):
        scale = 2.0 * math.pi * point.R * abs(model.Z.of(base, point.u))
        n = degree_cutoff // base.l1_degree() + 1
        while n * scale < -math.log(EPS_TAIL):
            delta = n * base
            c = multicover(model.spectrum, delta, point.u)
            if c:
                tails.append((DecoratedTree(delta), c))
            n += 1
    return tails


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
