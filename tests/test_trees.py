import cmath
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import reference
from hkforge import solver, trees
from hkforge.lattice import Spectrum, charge
from hkforge.models import pentagon_wall_point
from hkforge.semiflat import ModelPoint, xsf, xsf_log
from hkforge.solver import (RayProximityError, build_grids, evaluate,
                            midsector_zetas, solve)
from hkforge.trees import TreeIntegrator, multicover, series_solution
from reference import (DecoratedTree, TreeBudgetError, TreeReference,
                       enumerate_trees, tower_tails, tree_weight)

G1, G2 = charge(1, 0), charge(0, 1)


def omega_at(spectrum, u):
    return {g: spectrum.omega(g, u) for g in spectrum.support(u)}


class TestMulticover:
    def test_primitive_equals_omega(self, pentagon):
        assert multicover(omega_at(pentagon.spectrum, 0.3), G1) == Fraction(1)

    def test_pure_multiple(self):
        g0 = charge(0, 1)
        omega = {g0: 1, -g0: 1}
        assert multicover(omega, 2 * g0) == Fraction(1, 4)
        assert multicover(omega, 3 * g0) == Fraction(1, 9)
        assert multicover(omega, 2 * g0 + charge(1, 0)) == 0

    def test_parity(self, pentagon):
        omega = omega_at(pentagon.spectrum, 0.2)
        for g in (G1, 2 * G2, G1 + G2):
            assert multicover(omega, g) == multicover(omega, -g)

    def test_zero_charge_rejected(self, pentagon):
        with pytest.raises(ValueError):
            multicover(omega_at(pentagon.spectrum, 0.2), charge(0, 0))


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
        monkeypatch.setattr(reference, "TREE_BUDGET", 50)
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
        # at cutoff 1 the OV sum is its single nodes n (+-e2), weighted
        # 1/n^2: the one-step integral of -log(1 - X^sf) over both rays
        zeta = 0.8 * cmath.exp(1.1j)
        got = TreeIntegrator(ov, ov_point, ov_solution.grids).exponent(
            G1, zeta, 1)
        want = 0.0
        for grid in ov_solution.grids:
            gamma = grid.ray.charges[0]
            assert gamma in (G2, -G2)
            kern = (grid.zeta_nodes + zeta) / (grid.zeta_nodes - zeta)
            vals = np.exp([complex(xsf(ov, ov_point, gamma, z).log_value)
                           for z in grid.zeta_nodes])
            want += ov.lattice.pair(G1, gamma) * np.sum(
                grid.weights * kern * -np.log1p(-vals)) / (4j * math.pi)
        assert abs(got - want) < 1e-14

    def test_decay_with_r(self, pentagon):
        tree = DecoratedTree(G2, (DecoratedTree(G1),))
        vals = []
        for R in (1.0, 2.0):
            pt = ModelPoint(0.3, R, (0.37, 1.29))
            ref = TreeReference(pentagon, pt, build_grids(pentagon, pt))
            vals.append(abs(ref.g_integral(tree, 1.1j * cmath.exp(0.4j))))
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
                                  integrator=TreeIntegrator(
                                      ov, ov_point, ov_solution.grids))
            assert abs(got.log_value - ref.log_value) < 1e-12

    def test_near_ray_zeta(self, pentagon):
        # zeta 0.011 rad from a ray: the root integral needs the subtracted
        # kernel, or the plain one leaves a 4e-9 quadrature gap
        _check_near_ray_zeta(pentagon)

    def test_pentagon_agreement_improves(self, pentagon):
        _check_agreement_improves(pentagon)

    @pytest.mark.parametrize("omega", [1, -2], ids=["omega1", "omega-2"])
    def test_pairing_two(self, pairing_two, omega):
        # the two tests above, with their bounds, on the pentagon's rays
        # where charges pair to 2: the solver weighs its integrals with
        # ``_coefficients``, the tree sum with its own pairings and
        # multicover invariants, so p^3 or Omega^2 in either route shows
        _check_near_ray_zeta(pairing_two[omega])
        _check_agreement_improves(pairing_two[omega])

    def test_charges_below_spectral_cutoff(self, pentagon):
        # e1's exp(-2 pi R |Z|) is about 4e-18 here, so the solve has no ray
        # for +-e1; the tree sum takes its decorations from the solve's rays
        point = ModelPoint(1.2, 3.2, (0.37, 1.29))
        sol = solve(pentagon, point, tol_iter=1e-13)
        assert G1 in pentagon.spectrum.support(point.u)
        assert all(G1 not in g.ray.charges and -G1 not in g.ray.charges
                   for g in sol.grids)
        integ = TreeIntegrator(pentagon, point, sol.grids)
        zeta = 0.3 + 0.95j
        for cutoff in (1, 2, 3, 4):
            for g in (G1, G2):
                got = series_solution(pentagon, point, g, zeta, cutoff,
                                      integrator=integ)
                ref = evaluate(pentagon, sol, g, zeta)
                assert abs(got.log_value - ref.log_value) < 1e-14

    def test_zero_spectrum_reduces_to_semiflat(self, ov, ov_point):
        mdl = ov.with_spectrum(Spectrum(lambda g, u: 0, lambda u: ()))
        zeta = 0.8 * cmath.exp(1.1j)
        got = series_solution(mdl, ov_point, G1, zeta, 3,
                              integrator=TreeIntegrator(mdl, ov_point, []))
        assert got.value == xsf(mdl, ov_point, G1, zeta).value


def _check_near_ray_zeta(model):
    """Tree sum and solver within 1e-11 at cutoff 4, 0.011 rad off each ray."""
    point = ModelPoint(0.026930 - 1.344881j, 1.00516, (6.005278, 2.239118))
    sol = solve(model, point, tol_iter=1e-13)
    integ = TreeIntegrator(model, point, sol.grids)
    for grid in sol.grids:
        zeta = grid.ray.direction * cmath.exp(0.011j)
        for g in (G1, G2):
            got = series_solution(model, point, g, zeta, 4, integrator=integ)
            ref = evaluate(model, sol, g, zeta)
            assert abs(got.log_value - ref.log_value) < 1e-11


def _check_agreement_improves(model):
    """The tree sum's gap to the solver falls over cutoffs 1 to 3 and is
    below 1e-13 at cutoff 4, at mid-sector zetas."""
    point = ModelPoint(0.6 + 0.3j, 1.0, (0.37, 1.29))
    sol = solve(model, point, tol_iter=1e-14)
    integ = TreeIntegrator(model, point, sol.grids)
    zetas = midsector_zetas(sol, 4)
    errs = []
    for cutoff in (1, 2, 3, 4):
        worst = max(abs(series_solution(model, point, g, z, cutoff,
                                        integrator=integ).log_value
                        - evaluate(model, sol, g, z).log_value)
                    for z in zetas for g in (G1, G2))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]
    assert errs[3] < 1e-13


@pytest.fixture(scope="module")
def strong(pentagon):
    point = ModelPoint(1.5 + 0.2j, 1.0, (0.37, 1.29))
    return point, solve(pentagon, point, tol_iter=1e-13)


def _zetas(sol):
    """One mid-sector zeta and one 0.011 rad off a ray."""
    return [midsector_zetas(sol, 4)[0],
            sol.grids[0].ray.direction * cmath.exp(0.011j)]


def _tree_point(name, pentagon, ov):
    """The grouped-sum points: 4 rays, 6 rays past either wall, and OV;
    and a low-R point whose towers run to 181 and 343 multiples."""
    if name == "ov":
        return ov, ModelPoint(0.5, 1.0, (0.3, 1.1))
    if name == "low R":
        return pentagon, ModelPoint(0.6 + 0.3j, 0.0201, (0.37, 1.29))
    u = {"strong": 1.5 + 0.2j,
         "wall 0.9": 1.2 * pentagon_wall_point(pentagon, 0.9),
         "wall -0.8": 1.2 * pentagon_wall_point(pentagon, -0.8)}[name]
    return pentagon, ModelPoint(u, 1.0, (0.37, 1.29))


def _fsum(terms):
    """The complex sum of ``terms``, each part correctly rounded."""
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def _per_tree_terms(model, point, sol, cutoff):
    """(zeta, gamma, [(tree, <gamma, g_T> c(T) G_T(zeta))]) over the trees
    with a nonzero pairing, from the tree-by-tree reference; at cutoffs up
    to 3 its dense operators are held to its tree-by-tree integrals."""
    ref = TreeReference(model, point, sol.grids)
    weighted = (enumerate_trees(model, point.u, cutoff)
                + tower_tails(model, point, cutoff))
    zetas = _zetas(sol)
    per_tree = ref.integrals([t for t, _ in weighted], zetas)
    if cutoff <= 3:
        for (tree, _), vals in zip(weighted, per_tree):
            assert np.abs(ref.g_integral(tree, np.array(zetas))
                          - vals).max() <= 1e-14 * np.abs(vals).max()
    lat = model.lattice
    return [(z, g, [(t, lat.pair(g, t.decoration) * float(w) * vals[i])
                    for (t, w), vals in zip(weighted, per_tree)
                    if lat.pair(g, t.decoration)])
            for i, z in enumerate(zetas) for g in (G1, G2)]


@pytest.fixture(scope="module")
def tree_case(pentagon, ov):
    """(model, point, solve, per-tree terms) at a named point and cutoff;
    each solve and each cutoff's terms are taken once for the module."""
    solved, per_tree = {}, {}

    def case(name, cutoff):
        if name not in solved:
            model, point = _tree_point(name, pentagon, ov)
            solved[name] = model, point, solve(model, point, tol_iter=1e-13)
        if (name, cutoff) not in per_tree:
            per_tree[name, cutoff] = _per_tree_terms(*solved[name], cutoff)
        return solved[name] + (per_tree[name, cutoff],)
    return case


def _bound(paired):
    """Rounding of the resummed exponent: a few ulp of the sum of |terms|,
    not of the sum, which cancels; the reference sum is correctly rounded,
    so adds almost none of its own."""
    return 8 * np.finfo(float).eps * sum(abs(term) for _, term in paired)


class TestSharedKernels:
    def test_kernels_per_ray_pair_and_height(self, pentagon, strong,
                                             monkeypatch):
        point, sol = strong
        built = []
        kernels = solver._kernels

        def counted(grid, w, **kw):
            built.append(np.shape(w))
            return kernels(grid, w, **kw)

        monkeypatch.setattr(solver, "_kernels", counted)
        solver._prepare(pentagon, point, sol.grids)
        prepared = len(built)
        assert prepared == 2  # the sweep's antipodal classes at 4 rays
        # every degree and ray pair reads the one kernel per class
        built.clear()
        integ = TreeIntegrator(pentagon, point, sol.grids)
        cutoff = 4
        integ.densities(cutoff)
        assert len(built) == prepared
        integ.densities(cutoff + 1)
        assert len(built) == prepared
        # summed densities: the root integrals take one kernel array, with
        # one row block per ray read
        built.clear()
        series_solution(pentagon, point, G1, _zetas(sol)[0], cutoff,
                        integrator=integ)
        assert len(built) == 1 and built[0][0] <= len(sol.grids)

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["strong", "wall 0.9", "wall -0.8",
                                      "ov"])
    def test_grouped_sum_equals_per_tree_sum(self, tree_case, name, cutoff):
        model, point, sol, per_tree = tree_case(name, cutoff)
        integ = TreeIntegrator(model, point, sol.grids)
        for z, g, paired in per_tree:
            terms = [term for _, term in paired]
            bound = _bound(paired)
            got = integ.exponent(g, z, cutoff)
            assert abs(got - _fsum(terms)) <= bound
            if not terms:
                continue
            # control: the bound still sees one tree dropped, the largest
            # of those with two levels of nested integrals (about 1e-9 of
            # the sum), or of the tallest below that
            height = min(2, max(t.height() for t, _ in paired))
            dropped = max((term for t, term in paired
                           if t.height() == height), key=abs)
            assert abs(got - _fsum(terms + [-dropped])) > bound

    @pytest.mark.parametrize("name", ["strong", "wall 0.9", "wall -0.8",
                                      "ov"])
    def test_shared_integrator_equals_per_tree_sum(self, tree_case, name):
        # one integrator across the cutoffs, its list grown at each
        model, point, sol, _ = tree_case(name, 1)
        integ = TreeIntegrator(model, point, sol.grids)
        for cutoff in (1, 2, 3, 4, 5):
            for z, g, paired in tree_case(name, cutoff)[3]:
                got = integ.exponent(g, z, cutoff)
                assert abs(got - _fsum([t for _, t in paired])) \
                    <= _bound(paired)

    @pytest.mark.parametrize("name", ["strong", "wall 0.9", "wall -0.8",
                                      "ov", "low R"])
    def test_cutoffs_in_any_order(self, pentagon, ov, name):
        # one integrator asked for cutoffs out of order gives each the
        # exponents of a fresh integrator bitwise: a smaller cutoff than
        # the list's reach sums the same degrees and towers
        model, point = _tree_point(name, pentagon, ov)
        sol = solve(model, point, tol_iter=1e-13)
        shared = TreeIntegrator(model, point, sol.grids)
        for cutoff in (5, 1, 4, 2, 3):
            fresh = TreeIntegrator(model, point, sol.grids)
            for z in _zetas(sol):
                for g in (G1, G2):
                    assert shared.exponent(g, z, cutoff) \
                        == fresh.exponent(g, z, cutoff)

    def test_reference_has_its_own_xsf(self, pentagon, strong, monkeypatch):
        # control: the reference takes X^sf and the rays on its own, so a
        # tree sum whose log X^sf is off by 1e-10 misses it past the bound
        point, sol = strong
        monkeypatch.setattr(trees, "xsf_log",
                            lambda *args: xsf_log(*args) + 1e-10)
        integ = TreeIntegrator(pentagon, point, sol.grids)
        for z, g, paired in _per_tree_terms(pentagon, point, sol, 2):
            got = integ.exponent(g, z, 2)
            assert abs(got - _fsum([t for _, t in paired])) > _bound(paired)

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
        # the integrator's own caches hold node data only; its kernels are
        # the blocks of its workspace, which go with it
        point, sol = strong
        integ = TreeIntegrator(pentagon, point, sol.grids)
        series_solution(pentagon, point, G2, _zetas(sol)[1], 4,
                        integrator=integ)
        workspace = weakref.ref(integ._workspace)
        arrays, stack = [], [v for k, v in vars(integ).items()
                             if k.startswith("_") and k != "_workspace"]
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
            assert workspace() is None
        finally:
            gc.enable()
