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

The quadrature is shared wherever the trees allow.  Root integrands (X^sf
of the root times its children's integrals at the root's nodes) are built
for all distinct subtrees level by level, leaves first; at each height the
child integrals are grouped by (child ray, parent ray), so one stacked
Cauchy integral and one kernel block serve every edge of a group.  G_T is
linear in its root integrand, so the integrands are summed per root
decoration with weight c(T), the multicover tower tails included, and a
coordinate takes one Cauchy integral per root ray of the densities paired
with its charge, not one per tree, through the solver's ``ray_integrals``
and its near-ray rule.  Enumeration stops past TREE_BUDGET trees, and the
multicover towers run down to the EPS_TAIL scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import Charge
from .semiflat import CoordinateValue, ModelPoint, xsf_log
from .solver import (FOUR_PI_I, QuadratureGrid, build_grids, cauchy_integral,
                     ray_integrals)

TREE_BUDGET = 200_000  # most trees enumerated up to one cutoff
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


def _decorations(model, u: complex, cutoff: int) -> list[Charge]:
    """Charges with nonzero multicover invariant and degree within cutoff."""
    seen = {}
    for base in model.spectrum.support(u):
        step = base.l1_degree()
        n = 1
        while n * step <= cutoff:
            gamma = n * base
            if gamma not in seen and multicover(model.spectrum, gamma, u):
                seen[gamma] = True
            n += 1
    return sorted(seen, key=lambda g: (g.l1_degree(), g.coeffs))


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
    """Tree integrals at one point on shared grids, cached as node arrays.

    Keeps the enumeration per cutoff, each distinct subtree's root integrand
    on its root ray by canonical key, and the summed density per root
    decoration per cutoff: 1-D arrays only, so no kernel block outlives the
    call that built it.  TREE_BUDGET and EPS_TAIL are constants, so the
    cutoff alone keys the caches.
    """

    def __init__(self, model, point: ModelPoint,
                 grids: list[QuadratureGrid] | None = None):
        self.model = model
        self.point = point
        self.grids = grids if grids is not None else build_grids(model, point)
        self._rays: dict[Charge, int] = {}
        self._xsf_cache: dict[Charge, np.ndarray] = {}
        self._trees: dict[int, list] = {}
        self._integrands: dict[tuple, tuple[int, np.ndarray]] = {}
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

    def trees(self, degree_cutoff: int) -> list[tuple[DecoratedTree, Fraction]]:
        """The nonzero-weight trees up to the cutoff, enumerated once."""
        if degree_cutoff not in self._trees:
            self._trees[degree_cutoff] = enumerate_trees(
                self.model, self.point.u, degree_cutoff)
        return self._trees[degree_cutoff]

    def integrands(self, trees: list[DecoratedTree]
                   ) -> list[tuple[int, np.ndarray]]:
        """(root ray, X^sf of the root times all child integrals) per tree.

        Builds the missing integrands of the trees and their subtrees
        leaves first.  The parents at each height read their children's
        integrals at their own nodes; those are grouped by (child ray,
        parent ray), so each group takes one stacked Cauchy integral with
        one kernel block.
        """
        cache = self._integrands
        levels: list[dict[tuple, DecoratedTree]] = []
        stack = list(trees)
        while stack:
            tree = stack.pop()
            key = tree.canonical_key()
            if key in cache:
                continue
            h = tree.height()
            levels.extend({} for _ in range(h + 1 - len(levels)))
            if key not in levels[h]:
                levels[h][key] = tree
                stack.extend(tree.children)
        # (child key, parent ray) -> child integral at the parent ray's nodes
        at_nodes: dict[tuple[tuple, int], np.ndarray] = {}
        for level in levels:
            # child keys per (child ray, parent ray), a dict as an ordered set
            groups: dict[tuple[int, int], dict[tuple, None]] = {}
            for tree in level.values():
                rp = self._ray_index(tree.decoration)
                for child in tree.children:
                    ckey = child.canonical_key()
                    if (ckey, rp) not in at_nodes:
                        group = groups.setdefault((cache[ckey][0], rp), {})
                        group[ckey] = None
            for (rc, rp), ckeys in groups.items():
                grid = self.grids[rc]
                w = np.log(self.grids[rp].zeta_nodes / grid.ray.direction)
                stacked = np.array([cache[k][1] for k in ckeys])
                rows = cauchy_integral(grid, stacked, w) / FOUR_PI_I
                for ckey, row in zip(ckeys, rows):
                    at_nodes[ckey, rp] = row
            for key, tree in level.items():
                rp = self._ray_index(tree.decoration)
                vals = self._xsf_nodes(tree.decoration)
                for child in tree.children:
                    vals = vals * at_nodes[child.canonical_key(), rp]
                cache[key] = (rp, vals)
        return [cache[t.canonical_key()] for t in trees]

    def densities(self, degree_cutoff: int
                  ) -> dict[Charge, tuple[int, np.ndarray]]:
        """(root ray, sum of c(T) times root integrand) per root decoration.

        The sum runs over the trees up to the cutoff and the single-node
        multicover towers n * beta past it, while their exp(-2 pi R n |Z|)
        scale stays above EPS_TAIL.
        """
        if degree_cutoff not in self._densities:
            weighted = self.trees(degree_cutoff) + _tower_tails(
                self.model, self.point, degree_cutoff)
            rooted = self.integrands([t for t, _ in weighted])
            sums: dict[Charge, np.ndarray] = {}
            for (tree, weight), (_, vals) in zip(weighted, rooted):
                term = float(weight) * vals
                if tree.decoration in sums:
                    sums[tree.decoration] += term
                else:
                    sums[tree.decoration] = term
            self._densities[degree_cutoff] = {d: (self._ray_index(d), f)
                                              for d, f in sums.items()}
        return self._densities[degree_cutoff]

    def g_integral(self, tree: DecoratedTree, zeta: complex) -> complex:
        """G_T at an off-ray zeta: one more Cauchy integral over the root ray."""
        [(r, vals)] = self.integrands([tree])
        return complex(ray_integrals(self.grids, [r], vals[None],
                                     [[1.0 / FOUR_PI_I]], zeta)[0])

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
                    grids: list[QuadratureGrid] | None = None,
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
        integrator = TreeIntegrator(model, point, grids)
    exponent = integrator.exponent(gamma, zeta, degree_cutoff)
    lv = xsf_log(model, point, gamma, zeta) + exponent
    return CoordinateValue(gamma=gamma, zeta=complex(zeta),
                           value=cmath.exp(lv), log_value=lv)
