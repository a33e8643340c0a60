import cmath
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hkforge import solver, trees
from hkforge.lattice import Spectrum, charge
from hkforge.semiflat import ModelPoint, xsf
from hkforge.solver import (RayProximityError, evaluate, midsector_zetas,
                            solve)
from hkforge.trees import (DecoratedTree, TreeBudgetError, TreeIntegrator,
                           _tower_tails, enumerate_trees, multicover,
                           series_solution, tree_weight)

G1, G2 = charge(1, 0), charge(0, 1)


class TestMulticover:
    def test_primitive_equals_omega(self, pentagon):
        assert multicover(pentagon.spectrum, G1, 0.3) == Fraction(1)

    def test_pure_multiple(self):
        g0 = charge(0, 1)
        spectrum = Spectrum(lambda g, u: 1 if g in (g0, -g0) else 0,
                            lambda u: (g0, -g0))
        assert multicover(spectrum, 2 * g0, 0.0) == Fraction(1, 4)
        assert multicover(spectrum, 3 * g0, 0.0) == Fraction(1, 9)

    def test_parity(self, pentagon):
        for g in (G1, 2 * G2, G1 + G2):
            assert multicover(pentagon.spectrum, g, 0.2) \
                == multicover(pentagon.spectrum, -g, 0.2)

    def test_zero_charge_rejected(self, pentagon):
        with pytest.raises(ValueError):
            multicover(pentagon.spectrum, charge(0, 0), 0.2)


class TestEnumeration:
    def test_cutoff_one_single_nodes(self, pentagon):
        trees = enumerate_trees(pentagon, 0.3, 1)
        assert {t.decoration for t, _ in trees} == {G1, -G1, G2, -G2}
        assert all(not t.children for t, _ in trees)

    def test_ov_prunes_to_single_nodes(self, ov):
        for cutoff in (2, 4):
            trees = enumerate_trees(ov, 0.5, cutoff)
            assert all(not t.children for t, _ in trees)
            assert all(t.decoration.coeffs[0] == 0 for t, _ in trees)

    def test_pentagon_degree_two_edges(self, pentagon):
        trees = enumerate_trees(pentagon, 0.3, 2)
        weights = {}
        for t, w in trees:
            if t.children:
                key = (t.decoration, t.children[0].decoration)
                weights[key] = w
        assert weights[(G1, G2)] == Fraction(1)
        assert weights[(G2, G1)] == Fraction(-1)

    def test_budget_guard(self, pentagon, monkeypatch):
        monkeypatch.setattr(trees, "TREE_BUDGET", 50)
        with pytest.raises(TreeBudgetError):
            enumerate_trees(pentagon, 3.0j, 9)


class TestAutomorphisms:
    def test_equal_children_halve(self, pentagon):
        twin = DecoratedTree(G1, (DecoratedTree(G2), DecoratedTree(G2)))
        assert twin.aut_order() == 2
        mixed = DecoratedTree(G1, (DecoratedTree(G2), DecoratedTree(-G2)))
        assert mixed.aut_order() == 1

    def test_weight_includes_aut(self, pentagon):
        twin = DecoratedTree(G1, (DecoratedTree(G2), DecoratedTree(G2)))
        w = tree_weight(pentagon, twin, 0.3)
        assert w == Fraction(1, 2)

    def test_nested_aut(self, pentagon):
        leaf = DecoratedTree(G2)
        branch = DecoratedTree(G1, (leaf, leaf))
        tall = DecoratedTree(G2, (branch, branch))
        assert tall.aut_order() == 8  # 2 per branch and 2 for the swap


class TestIntegrals:
    def test_single_node_equals_first_iteration(self, ov, ov_point,
                                                ov_solution):
        # the single-node integral is the one-step OV integral of X^sf
        zeta = 0.8 * cmath.exp(1.1j)
        tree = DecoratedTree(G2)
        val = TreeIntegrator(ov, ov_point, ov_solution.grids).g_integral(
            tree, zeta)
        # compare against the n = 1 piece: (1/4 pi i) int K X^sf
        grid = ov_solution.grids[0]
        assert grid.ray.charges[0] == charge(0, -1)
        grid = ov_solution.grids[1] \
            if ov_solution.grids[1].ray.charges[0] == G2 else grid
        kern = (grid.zeta_nodes + zeta) / (grid.zeta_nodes - zeta)
        vals = np.exp([complex(v) for v in
                       (xsf(ov, ov_point, G2, z).log_value
                        for z in grid.zeta_nodes)])
        want = np.sum(grid.weights * kern * vals) / (4j * math.pi)
        assert abs(val - want) < 1e-14

    def test_decay_with_r(self, pentagon):
        tree = DecoratedTree(G2, (DecoratedTree(G1),))
        vals = []
        for R in (1.0, 2.0):
            pt = ModelPoint(0.3, R, (0.37, 1.29))
            integ = TreeIntegrator(pentagon, pt)
            vals.append(abs(integ.g_integral(tree, 1.1j * cmath.exp(0.4j))))
        z1 = abs(pentagon.Z.of(G1, 0.3))
        z2 = abs(pentagon.Z.of(G2, 0.3))
        expected_ratio = math.exp(-2 * math.pi * (z1 + z2))
        assert vals[1] / vals[0] == pytest.approx(expected_ratio, rel=0.5)


class TestSeries:
    def test_ov_exact_at_every_cutoff(self, ov, ov_point, ov_solution):
        zeta = 0.8 * cmath.exp(1.1j)
        ref = evaluate(ov, ov_solution, G1, zeta)
        for cutoff in (1, 2, 3, 4):
            got = series_solution(ov, ov_point, G1, zeta, cutoff,
                                  grids=ov_solution.grids)
            assert abs(got.log_value - ref.log_value) < 1e-12

    def test_near_ray_zeta(self, pentagon):
        # zeta 0.011 rad from a ray: the root integral needs the subtracted
        # kernel, or the plain one leaves a 4e-9 quadrature gap
        point = ModelPoint(0.026930 - 1.344881j, 1.00516, (6.005278, 2.239118))
        sol = solve(pentagon, point, tol_iter=1e-13)
        integ = TreeIntegrator(pentagon, point, sol.grids)
        for grid in sol.grids:
            zeta = grid.ray.direction * cmath.exp(0.011j)
            for g in (G1, G2):
                got = series_solution(pentagon, point, g, zeta, 4,
                                      integrator=integ)
                ref = evaluate(pentagon, sol, g, zeta)
                assert abs(got.log_value - ref.log_value) < 1e-11

    def test_pentagon_agreement_improves(self, pentagon):
        point = ModelPoint(0.6 + 0.3j, 1.0, (0.37, 1.29))
        sol = solve(pentagon, point, tol_iter=1e-14)
        integ = TreeIntegrator(pentagon, point, sol.grids)
        zetas = midsector_zetas(sol, 4)
        errs = []
        for cutoff in (1, 2, 3, 4):
            worst = max(abs(series_solution(pentagon, point, g, z, cutoff,
                                            integrator=integ).log_value
                            - evaluate(pentagon, sol, g, z).log_value)
                        for z in zetas for g in (G1, G2))
            errs.append(worst)
        assert errs[0] > errs[1] > errs[2]
        assert errs[3] < 1e-13

    def test_zero_spectrum_reduces_to_semiflat(self, ov, ov_point):
        mdl = ov.with_spectrum(Spectrum(lambda g, u: 0, lambda u: ()))
        zeta = 0.8 * cmath.exp(1.1j)
        got = series_solution(mdl, ov_point, G1, zeta, 3, grids=[])
        assert got.value == xsf(mdl, ov_point, G1, zeta).value


@pytest.fixture(scope="module")
def strong(pentagon):
    point = ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29))
    return point, solve(pentagon, point, tol_iter=1e-13)


def _zetas(sol):
    """One mid-sector zeta and one 0.011 rad off a ray."""
    return [midsector_zetas(sol, 4)[0],
            sol.grids[0].ray.direction * cmath.exp(0.011j)]


class TestSharedKernels:
    def test_enumerated_once(self, pentagon, strong, monkeypatch):
        point, sol = strong
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_trees(*args, **kwargs)

        monkeypatch.setattr(trees, "enumerate_trees", counted)
        integ = TreeIntegrator(pentagon, point, sol.grids)
        for z in midsector_zetas(sol, 4):
            for g in (G1, G2):
                series_solution(pentagon, point, g, z, 3, integrator=integ)
        assert len(calls) == 1

    def test_kernels_per_ray_pair_and_height(self, pentagon, strong,
                                             monkeypatch):
        point, sol = strong
        built = []
        kernel_rows = solver.kernel_rows

        def counted(grid, w):
            built.append(grid)
            return kernel_rows(grid, w)

        monkeypatch.setattr(solver, "kernel_rows", counted)
        integ = TreeIntegrator(pentagon, point, sol.grids)
        enumerated = [t for t, _ in integ.trees(4)]
        integ.integrands(enumerated)
        rays = len(sol.grids)
        height = max(t.height() for t in enumerated)
        assert height == 3
        assert 0 < len(built) <= rays * (rays - 1) * height
        # summed densities: one root integral per ray and zeta
        built.clear()
        series_solution(pentagon, point, G1, _zetas(sol)[0], 4,
                        integrator=integ)
        assert len(built) <= rays

    def test_grouped_sum_equals_per_tree_sum(self, pentagon, strong):
        point, sol = strong
        integ = TreeIntegrator(pentagon, point, sol.grids)
        weighted = integ.trees(4) + _tower_tails(pentagon, point, 4)
        lat = pentagon.lattice
        for z in _zetas(sol):
            for g in (G1, G2):
                paired = [(t, w) for t, w in weighted
                          if lat.pair(g, t.decoration)]
                terms = [lat.pair(g, t.decoration) * float(w)
                         * integ.g_integral(t, z) for t, w in paired]
                # rounding of the two summation orders: a few ulp of the
                # sum of |terms|, not of the sum, which cancels
                bound = 8 * np.finfo(float).eps * sum(map(abs, terms))
                got = integ.exponent(g, z, 4)
                assert abs(got - sum(terms)) <= bound
                # control: the bound still sees one tree with two levels
                # of nested integrals dropped (about 1e-9 of the sum)
                dropped = max((i for i, (t, _) in enumerate(paired)
                               if t.height() == 2),
                              key=lambda i: abs(terms[i]))
                assert abs(got - sum(terms) + terms[dropped]) > bound

    def test_on_root_ray_rejected(self, pentagon, strong):
        point, sol = strong
        integ = TreeIntegrator(pentagon, point, sol.grids)
        ray = sol.grids[0].ray
        # the ray's charges pair to zero with their own multiples only
        gamma = next(g for g in (G1, G2)
                     if pentagon.lattice.pair(g, ray.charges[0]))
        # the solver's near-ray rule: 1e-4 rad off is as close as on
        for zeta in (ray.direction, ray.direction * cmath.exp(1e-4j)):
            with pytest.raises(RayProximityError):
                series_solution(pentagon, point, gamma, zeta, 2,
                                integrator=integ)
        series_solution(pentagon, point, ray.charges[0], ray.direction, 2,
                        integrator=integ)

    def test_no_kernel_kept_and_no_cycle(self, pentagon, strong):
        point, sol = strong
        integ = TreeIntegrator(pentagon, point, sol.grids)
        series_solution(pentagon, point, G2, _zetas(sol)[1], 4,
                        integrator=integ)
        arrays, stack = [], [v for k, v in vars(integ).items()
                             if k.startswith("_")]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, (list, tuple)):
                stack.extend(item)
            elif isinstance(item, np.ndarray):
                arrays.append(item)
        assert arrays
        assert all(a.ndim == 1 and (a.base is None or a.base.ndim == 1)
                   for a in arrays)
        ref = weakref.ref(integ)
        gc.disable()
        try:
            del integ
            assert ref() is None
        finally:
            gc.enable()
