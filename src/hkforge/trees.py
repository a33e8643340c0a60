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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import Charge
from .semiflat import CoordinateValue, ModelPoint
from .solver import (FOUR_PI_I, GridSpec, QuadratureGrid, _log_xsf_on_nodes,
                     build_grids, cauchy_integral)


class TreeBudgetError(RuntimeError):
    """Enumeration would exceed the configured tree budget."""


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

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)

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


def enumerate_trees(model, u: complex, degree_cutoff: int,
                    budget: int = 200_000) -> list[tuple[DecoratedTree, Fraction]]:
    """All isomorphism classes of nonzero-weight trees up to the cutoff.

    Tree degree is the summed L1 degree of the decorations, matching the
    exp(-2 pi R sum|Z|) suppression of the corresponding integrals.  Trees
    with a vanishing parent-child pairing are pruned while building, so
    every returned tree has a nonzero weight.
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
                if count > budget:
                    raise TreeBudgetError(
                        f"more than {budget} trees below degree {degree_cutoff}")
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
    """Evaluates the per-tree iterated ray integrals on shared grids."""

    def __init__(self, model, point: ModelPoint,
                 grids: list[QuadratureGrid] | None = None,
                 spec: GridSpec = GridSpec()):
        self.model = model
        self.point = point
        self.grids = grids if grids is not None else build_grids(model, point, spec)
        self._xsf_cache: dict[tuple[int, Charge], np.ndarray] = {}
        self._node_cache: dict[tuple, np.ndarray] = {}

    def _ray_index(self, gamma: Charge) -> int:
        z = self.model.Z.of(gamma, self.point.u)
        d = -z / abs(z)
        for i, grid in enumerate(self.grids):
            if abs(grid.ray.direction - d) < 1e-9:
                return i
        raise ValueError(f"no quadrature ray matches the charge {gamma}")

    def _xsf_nodes(self, r: int, gamma: Charge) -> np.ndarray:
        key = (r, gamma)
        if key not in self._xsf_cache:
            self._xsf_cache[key] = np.exp(_log_xsf_on_nodes(
                self.model, self.point, gamma, self.grids[r].zeta_nodes))
        return self._xsf_cache[key]

    def _integrand_on_own_ray(self, tree: DecoratedTree
                              ) -> tuple[int, np.ndarray]:
        """X^sf of the root times all child integrals, at the root's nodes."""
        key = tree.canonical_key()
        if key not in self._node_cache:
            r = self._ray_index(tree.decoration)
            vals = self._xsf_nodes(r, tree.decoration).copy()
            for child in tree.children:
                vals = vals * self._integral(
                    child, self.grids[r].zeta_nodes)
            self._node_cache[key] = (r, vals)
        return self._node_cache[key]

    def _integral(self, tree: DecoratedTree, zeta_targets: np.ndarray
                  ) -> np.ndarray:
        """(1/4 pi i) times the Cauchy integral of a tree's root integrand."""
        r, vals = self._integrand_on_own_ray(tree)
        grid = self.grids[r]
        w = np.log(zeta_targets / grid.ray.direction)
        return cauchy_integral(grid, vals, w) / FOUR_PI_I

    def g_integral(self, tree: DecoratedTree, zeta: complex) -> complex:
        """G_T at an off-ray zeta: one more Cauchy integral over the root ray."""
        zeta = complex(zeta)
        r, _ = self._integrand_on_own_ray(tree)
        if abs(cmath.log(zeta / self.grids[r].ray.direction).imag) < 1e-6:
            raise ValueError(f"zeta={zeta} on the root ray of {tree.decoration}")
        return complex(self._integral(tree, np.array([zeta]))[0])


def series_solution(model, point: ModelPoint, gamma: Charge, zeta: complex,
                    degree_cutoff: int = 4,
                    grids: list[QuadratureGrid] | None = None,
                    budget: int = 200_000,
                    integrator: TreeIntegrator | None = None,
                    eps_tail: float = 1e-16) -> CoordinateValue:
    """Tree-sum coordinate X_gamma = X^sf exp[sum_T <gamma,g_T> c(T) G_T].

    The structural cutoff bounds the tree degree; the single-node multicover
    towers n * beta are resummed past it until their exp(-2 pi R n |Z|)
    scale drops below ``eps_tail`` — the towers are what the logarithms of
    the integral equation expand into, so without them even the
    one-electric-charge model would disagree at the cutoff scale.
    """
    if integrator is None:
        integrator = TreeIntegrator(model, point, grids)
    lat = model.lattice
    exponent = 0.0 + 0.0j
    for tree, weight in enumerate_trees(model, point.u, degree_cutoff,
                                        budget=budget):
        p = lat.pair(gamma, tree.decoration)
        if p == 0:
            continue
        exponent += p * float(weight) * integrator.g_integral(tree, zeta)
    # single-node tower tails past the structural cutoff
    for base in model.spectrum.support(point.u):
        p1 = lat.pair(gamma, base)
        if p1 == 0:
            continue
        scale = 2.0 * math.pi * point.R * abs(model.Z.of(base, point.u))
        n = degree_cutoff // base.l1_degree() + 1
        while n * scale < -math.log(eps_tail):
            delta = n * base
            c = multicover(model.spectrum, delta, point.u)
            if c:
                tail = DecoratedTree(delta)
                exponent += (n * p1) * float(c) \
                    * integrator.g_integral(tail, zeta)
            n += 1
    log_sf = _log_xsf_on_nodes(model, point, gamma,
                               np.array([complex(zeta)]))[0]
    lv = log_sf + exponent
    return CoordinateValue(gamma=gamma, zeta=complex(zeta),
                           value=cmath.exp(lv), log_value=lv)
