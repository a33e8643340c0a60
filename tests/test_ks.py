import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge.ks import (ConeGrading, GradingError, TorusAutomorphism,
                        TwistedSeries, check_wcf, compose, ks_transform,
                        ordered_product, spectrum_generator)
from hkforge.lattice import Lattice, charge
from hkforge.models import pentagon_wall_point
from reference import SubstitutedAutomorphism, series_inverse

LAT = Lattice(((0, 1), (-1, 0)))
G1, G2 = charge(1, 0), charge(0, 1)
G12 = G1 + G2


@pytest.fixture(scope="module")
def grading():
    return ConeGrading(LAT, (G1, G2))


def K(grading, gamma, power=1, order=8):
    return ks_transform(grading, gamma, power, order)


class TestSeriesAlgebra:
    def test_twist_sign_on_basis(self, grading):
        xa = TwistedSeries.monomial(grading, 8, G1)
        xb = TwistedSeries.monomial(grading, 8, G2)
        prod = xa * xb
        assert prod.terms == {G12: Fraction(-1)}

    def test_twist_sign_random(self, grading):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = charge(*rng.integers(0, 4, size=2))
            b = charge(*rng.integers(0, 4, size=2))
            xa = TwistedSeries.monomial(grading, 12, a)
            xb = TwistedSeries.monomial(grading, 12, b)
            prod = xa * xb
            if grading.degree(a) + grading.degree(b) > 12:
                assert prod.terms == {}
                continue
            sign = (-1) ** LAT.pair(a, b)
            assert prod.terms == {a + b: Fraction(sign)}
            assert (xa * xb).terms == (xb * xa).terms

    def test_inverse(self, grading):
        s = TwistedSeries.constant(grading, 8) \
            + TwistedSeries.monomial(grading, 8, G1, Fraction(3, 2)) \
            + TwistedSeries.monomial(grading, 8, G12, Fraction(-2, 7))
        prod = s * series_inverse(s)
        assert prod == TwistedSeries.constant(grading, 8)

    def test_degree_truncation(self, grading):
        s = TwistedSeries.monomial(grading, 3, 2 * G1)
        assert (s * s).terms == {}

    def test_cone_membership(self, grading):
        with pytest.raises(GradingError):
            grading.degree(charge(-1, 0))
        assert grading.degree(charge(2, 3)) == 5

    @pytest.mark.parametrize("n", [10**6, 2**53 + 1, 10**17 + 1])
    def test_coordinates_exact_for_large_charges(self, n):
        # a float solve rounds n and misses the cone from n = 2^53 + 1 on
        g1, g2 = charge(1, 0), charge(n, 1)
        cone = ConeGrading(LAT, (g1, g2))
        assert cone.coordinates(3 * g1 + 2 * g2) == (3, 2)
        assert cone.charge((3, 2)) == 3 * g1 + 2 * g2
        for outside in (g1 - g2, charge(n, 2), charge(1, 1)):
            with pytest.raises(GradingError, match="outside the cone"):
                cone.coordinates(outside)

    def test_coordinates_of_a_non_unimodular_cone(self):
        cone = ConeGrading(LAT, (charge(1, 0), charge(1, 2)))
        assert cone.coordinates(charge(3, 4)) == (1, 2)
        with pytest.raises(GradingError, match="outside the cone"):
            cone.coordinates(charge(0, 1))

    def test_degenerate_generators_rejected(self):
        with pytest.raises(GradingError, match="linearly dependent"):
            ConeGrading(LAT, (G1, 2 * G1)).coordinates(G1)
        flavored = Lattice(((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
                           flavor_rank=1)
        with pytest.raises(GradingError, match="square"):
            ConeGrading(flavored, (charge(1, 0, 0), charge(0, 1, 0))
                        ).coordinates(charge(1, 1, 0))

    def test_zero_coefficients_not_stored(self, grading):
        empty = TwistedSeries(grading, 8, {})
        assert TwistedSeries.monomial(grading, 8, G1, 0) == empty
        assert TwistedSeries.constant(grading, 8, 0) == empty
        assert TwistedSeries(grading, 8, {(1, 0): 0}) == empty
        z = TwistedSeries.monomial(grading, 8, G2, 3)
        assert TwistedSeries.monomial(grading, 8, G1, 0) + z == z
        assert z.scaled(0) == empty
        assert (z - z).terms == {}


class TestKsTransform:
    def test_fixes_own_coordinate(self, grading):
        k1 = K(grading, G1)
        assert k1.image_cofactor(G1) == TwistedSeries.constant(grading, 8)

    def test_binomial_expansion(self, grading):
        k2 = K(grading, G2)
        cof = k2.image_cofactor(G1)  # (1 - X_{g2})^{-1}
        want = {n * G2: Fraction(1) for n in range(0, 9)}
        assert cof.terms == want

    def test_inverse_composition(self, grading):
        k = K(grading, G1)
        kinv = K(grading, G1, power=-1)
        ident = TorusAutomorphism.identity(grading, 8)
        assert check_wcf(compose(k, kinv), ident) == (True, None)

    def test_power_matches_composition(self, grading):
        k = K(grading, G1)
        assert check_wcf(compose(k, k), K(grading, G1, power=2)) == (True, None)

    def test_compose_applies_a_first(self, grading):
        # (a o b)^* X = b^*(a^* X), the written product b a
        k1, k2 = K(grading, G1), K(grading, G2)
        assert compose(k1, k2) == ordered_product([k2, k1])
        assert compose(k1, k2) != ordered_product([k1, k2])

    def test_degree_zero_rejected(self, grading):
        with pytest.raises(GradingError):
            ks_transform(grading, charge(0, 0), 1, 8)

    def test_unipotent_leading_term(self, grading):
        for gamma in (G1, G2, G12, 2 * G1 + G2):
            auto = K(grading, gamma)
            for cof in auto.cofactors:
                assert cof.terms.get(charge(0, 0)) == Fraction(1)

    def test_automorphism_property(self, grading):
        rng = np.random.default_rng(9)
        auto = ordered_product([K(grading, G1), K(grading, G2),
                                K(grading, G12, power=-2)])
        for _ in range(15):
            a = charge(*rng.integers(-3, 4, size=2))
            b = charge(*rng.integers(-3, 4, size=2))
            lhs = auto.image_cofactor(a) * auto.image_cofactor(b)
            rhs = auto.image_cofactor(a + b)
            assert lhs == rhs

    def test_commute_iff_pairing_zero(self, grading):
        k1, k2 = K(grading, G1), K(grading, G2)
        k1_twice = K(grading, 2 * G1)
        assert check_wcf(compose(k1, k1_twice), compose(k1_twice, k1))[0]
        equal, first = check_wcf(compose(k1, k2), compose(k2, k1))
        assert not equal and first == 2


class TestWallCrossing:
    @pytest.mark.parametrize("order", range(2, 11))
    def test_pentagon_identity(self, grading, order):
        lhs = ordered_product([K(grading, G1, order=order),
                               K(grading, G2, order=order)])
        rhs = ordered_product([K(grading, G2, order=order),
                               K(grading, G12, order=order),
                               K(grading, G1, order=order)])
        assert check_wcf(lhs, rhs) == (True, None)

    def test_equal_inputs(self, grading):
        a = K(grading, G1)
        assert check_wcf(a, a) == (True, None)

    def test_first_discrepancy_degree(self, grading):
        lhs = ordered_product([K(grading, G1), K(grading, G2)])
        rhs = ordered_product([K(grading, G2), K(grading, G1)])
        equal, first = check_wcf(lhs, rhs)
        assert (equal, first) == (False, 2)

    def test_dump_lines_sorted(self, grading):
        cof = K(grading, G2).image_cofactor(G1)
        lines = cof.dump_lines()
        assert lines[0] == "(0, 0) : 1/1"
        assert lines[1] == "(0, 1) : 1/1"


class TestSpectrumGenerator:
    def test_pentagon_chambers(self, pentagon):
        w = pentagon_wall_point(pentagon, 0.9)
        u_in, u_out = 0.97 * w, 1.03 * w
        z = pentagon.Z.basis_values(u_in)
        mid = sum(v / abs(v) for v in z)
        mid /= abs(mid)
        cone = (mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j))
        grading = ConeGrading(pentagon.lattice, (G1, G2))
        a_in = spectrum_generator(pentagon, u_in, cone, 8)
        a_out = spectrum_generator(pentagon, u_out, cone, 8)
        assert check_wcf(a_in, a_out) == (True, None)
        assert check_wcf(a_in, ordered_product(
            [K(grading, G1), K(grading, G2)]))[0]
        assert check_wcf(a_out, ordered_product(
            [K(grading, G2), K(grading, G12), K(grading, G1)]))[0]

    def test_lower_arc_chambers(self, pentagon):
        # below the real axis the bound state reads e1 - e2 in the fixed
        # frame; the crossing identity holds there just as well
        w = pentagon_wall_point(pentagon, -0.8)
        u_in, u_out = 0.97 * w, 1.03 * w
        z = pentagon.Z.basis_values(u_in)
        mid = z[0] / abs(z[0]) - z[1] / abs(z[1])
        mid /= abs(mid)
        cone = (mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j))
        a_in = spectrum_generator(pentagon, u_in, cone, 8)
        a_out = spectrum_generator(pentagon, u_out, cone, 8)
        assert check_wcf(a_in, a_out) == (True, None)

    def test_empty_cone_is_identity(self, pentagon):
        u = 0.3 + 0.1j
        z1 = pentagon.Z.basis_values(u)[0]
        # narrow cone rotated away from every central charge
        v = (z1 / abs(z1)) * cmath.exp(0.5j)
        auto = spectrum_generator(pentagon, u, (v, v * cmath.exp(0.02j)), 6)
        assert check_wcf(auto,
                         TorusAutomorphism.identity(auto.grading, 6))[0]

    def test_cone_splitting_invariance(self, pentagon):
        w = pentagon_wall_point(pentagon, 0.9)
        u = 1.05 * w  # weak coupling: three rays inside the cone
        z = pentagon.Z.basis_values(u)
        mid = sum(v / abs(v) for v in z)
        mid /= abs(mid)
        lo, hi = mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j)
        grading = ConeGrading(pentagon.lattice, (G1, G2))
        whole = spectrum_generator(pentagon, u, (lo, hi), 8, grading=grading)
        # split strictly between the middle ray and its neighbours
        args = sorted(cmath.phase(v / lo) for v in
                      (z[0], z[1], z[0] + z[1]))
        cut = lo * cmath.exp(1j * 0.5 * (args[0] + args[1]))
        first = spectrum_generator(pentagon, u, (lo, cut), 8, grading=grading)
        second = spectrum_generator(pentagon, u, (cut, hi), 8, grading=grading)
        assert check_wcf(whole, ordered_product([first, second]))[0]

    def test_proportional_charges_merge_into_ray_factor(self):
        # two active charges on one ray commute and merge into one factor
        from types import SimpleNamespace
        from hkforge.lattice import CentralCharge, Spectrum
        g2, g4 = charge(0, 1), charge(0, 2)
        support = (g2, g4, -g2, -g4)
        model = SimpleNamespace(
            lattice=LAT,
            spectrum=Spectrum(lambda g, u: 1 if g in support else 0,
                              lambda u: support),
            Z=CentralCharge(lambda u: (1.0 + 0.0j, u)),
        )
        u = cmath.exp(0.8j)
        auto = spectrum_generator(model, u, (cmath.exp(0.3j),
                                             cmath.exp(1.3j)), 8)
        grading = ConeGrading(LAT, (g2,))
        want = compose(ks_transform(grading, g4, 1, 8),
                       ks_transform(grading, g2, 1, 8))
        assert check_wcf(auto, want) == (True, None)

    def test_on_wall_rejected(self, pentagon):
        w = pentagon_wall_point(pentagon, 0.9, tol=1e-13)
        z = pentagon.Z.basis_values(0.97 * w)
        mid = sum(v / abs(v) for v in z)
        mid /= abs(mid)
        cone = (mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j))
        with pytest.raises(GradingError):
            spectrum_generator(pentagon, w, cone, 6)


def assert_matches_substitution(auto, charges=()):
    ref = SubstitutedAutomorphism(auto.grading, auto.order, auto.factors)
    assert [c.coords for c in auto.cofactors] \
        == [c.coords for c in ref.cofactors]
    for gamma in charges:
        assert auto.image_cofactor(gamma).coords \
            == ref.image_cofactor(gamma).coords, gamma


# words of KS factors, negative and higher powers included
WORDS = [
    [(G1, 1), (G2, 1)],
    [(G2, 1), (G12, 1), (G1, 1)],
    [(G1, 1), (G2, 1), (G12, -2)],
    [(G1, 2), (2 * G1 + G2, -1), (G2, 3), (G1 + 2 * G2, 1)],
    [(G12, -3), (G2, -1), (G1, 2)],
]
SMALL_CHARGES = [charge(a, b) for a in range(-3, 4) for b in range(-3, 4)]


class TestAgainstSubstitution:
    """The closed-form action against series substitution, dict for dict."""

    @pytest.mark.parametrize("order", [2, 6, 8, 12])
    @pytest.mark.parametrize("factors", WORDS)
    def test_word_cofactors(self, grading, factors, order):
        assert_matches_substitution(
            TorusAutomorphism(grading, order, tuple(factors)))

    @pytest.mark.parametrize("order", [4, 6, 8])
    @pytest.mark.parametrize("factors", WORDS[2:])
    def test_image_cofactors(self, grading, factors, order):
        assert_matches_substitution(
            TorusAutomorphism(grading, order, tuple(factors)),
            SMALL_CHARGES)

    @pytest.mark.parametrize("order", range(2, 13))
    def test_pentagon_sides(self, grading, order):
        for side in ([G1, G2], [G2, G12, G1]):
            assert_matches_substitution(ordered_product(
                [K(grading, g, order=order) for g in side]))

    def test_certify_word(self, grading):
        # the automorphism samples of the benchmark's certify items
        auto = ordered_product([K(grading, G1, order=6),
                                K(grading, G2, order=6),
                                K(grading, G12, power=-2, order=6)])
        degree3 = [g for g in SMALL_CHARGES if sum(map(abs, g.coeffs)) == 3]
        assert_matches_substitution(
            auto, degree3 + [a + b for a in degree3 for b in degree3])

    @pytest.mark.parametrize("phi", [0.9, 2.0, -0.8, -2.5])
    def test_spectrum_generators(self, pentagon, phi):
        # the certify workload's cone: opening 1.4 around both basis rays
        w = pentagon_wall_point(pentagon, phi)
        z = pentagon.Z.basis_values(0.97 * w)
        mid = z[0] / abs(z[0]) + (1 if phi > 0 else -1) * z[1] / abs(z[1])
        mid /= abs(mid)
        cone = (mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j))
        for f in (0.97, 1.03):
            auto = spectrum_generator(pentagon, f * w, cone, 8)
            assert auto.factors
            assert_matches_substitution(auto, [G1, G2, charge(2, -3)])

    def test_flipped_power_differs(self, grading):
        factors = WORDS[3]
        auto = TorusAutomorphism(grading, 8, tuple(factors))
        for i, (gamma, power) in enumerate(factors):
            flipped = factors[:i] + [(gamma, -power)] + factors[i + 1:]
            ref = SubstitutedAutomorphism(grading, 8, flipped)
            assert [c.coords for c in auto.cofactors] \
                != [c.coords for c in ref.cofactors]


class TestPureSU2:
    """The pure SU(2) wall crossing (GMN, arXiv:0807.4723): pairing 2,
    the W boson at g1 + g2 with Omega -2 between the dyon towers."""

    ORDER = 9

    def crossing(self, pairing=2, omega_w=-2):
        lat = Lattice(((0, pairing), (-pairing, 0)))
        grading = ConeGrading(lat, (G1, G2))

        def k(gamma, power=1):
            return ks_transform(grading, gamma, power, self.ORDER)

        n = self.ORDER // 2 + 1
        lhs = ordered_product([k(G1), k(G2)])
        rhs = ordered_product(
            [k(j * G1 + (j + 1) * G2) for j in range(n)]
            + [k(G12, omega_w)]
            + [k((j + 1) * G1 + j * G2) for j in reversed(range(n))])
        return check_wcf(lhs, rhs)

    def test_identity(self):
        assert self.crossing() == (True, None)

    @pytest.mark.parametrize("pairing, omega_w", [(2, 2), (2, -1), (-2, -2)])
    def test_controls_fail_at_degree_2(self, pairing, omega_w):
        assert self.crossing(pairing, omega_w) == (False, 2)


# -- properties at random orders, against a reference written here ----------

# cones of the pentagon lattice: the basis, a skew unimodular one and one of
# index 2, whose generators pair evenly so that the twist sign is trivial
CONES = [(G1, G2), (G1, G1 + G2), (charge(1, 0), charge(1, 2))]


def reference_product(f, g, degree, order):
    """Twisted product over charge keys, from Lattice.pair and Fractions."""
    out = {}
    for ga, ca in f.items():
        for gb, cb in g.items():
            if degree[ga] + degree[gb] > order:
                continue
            sign = Fraction(-1) ** LAT.pair(ga, gb)
            out[ga + gb] = out.get(ga + gb, Fraction(0)) \
                + sign * Fraction(ca) * Fraction(cb)
    return {gamma: c for gamma, c in out.items() if c}


def cone_series(order):
    """Up to 12 terms of degree <= order, integer or rational coefficients."""
    coords = st.integers(0, order).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, order - a)))
    coeffs = st.one_of(st.integers(-5, 5),
                       st.fractions(-5, 5, max_denominator=6))
    return st.dictionaries(coords, coeffs, max_size=12)


@st.composite
def cone_charge(draw, cone, max_coord=3):
    a, b = draw(st.tuples(st.integers(0, max_coord),
                          st.integers(0, max_coord)).filter(any))
    return a * cone[0] + b * cone[1]


PROPERTY = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None)


class TestProperties:
    @PROPERTY
    @given(data=st.data())
    def test_product_against_reference(self, data):
        cone = data.draw(st.sampled_from(CONES))
        order = data.draw(st.integers(1, 12))
        grading = ConeGrading(LAT, cone)
        f, g = (TwistedSeries(grading, order,
                              data.draw(cone_series(order)))
                for _ in range(2))
        degree = {grading.charge(k): sum(k)
                  for k in list(f.coords) + list(g.coords)}
        want = reference_product(f.terms, g.terms, degree, order)
        assert (f * g).terms == want
        assert (g * f).terms == want

    @PROPERTY
    @given(data=st.data())
    def test_powers_of_one_factor_add(self, data):
        cone = data.draw(st.sampled_from(CONES))
        order = data.draw(st.integers(1, 12))
        gamma = data.draw(cone_charge(cone))
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        grading = ConeGrading(LAT, cone)
        got = compose(ks_transform(grading, gamma, a, order),
                      ks_transform(grading, gamma, b, order))
        assert check_wcf(got, ks_transform(grading, gamma, a + b, order)) \
            == (True, None)

    @PROPERTY
    @given(data=st.data())
    def test_factors_commute_iff_pairing_zero(self, data):
        cone = data.draw(st.sampled_from(CONES))
        order = data.draw(st.integers(1, 12))
        ga, gb = data.draw(cone_charge(cone)), data.draw(cone_charge(cone))
        grading = ConeGrading(LAT, cone)
        ka = ks_transform(grading, ga, 1, order)
        kb = ks_transform(grading, gb, 1, order)
        seen = grading.degree(ga) + grading.degree(gb)
        want = ((True, None) if LAT.pair(ga, gb) == 0 or seen > order
                else (False, seen))
        assert check_wcf(compose(ka, kb), compose(kb, ka)) == want

    @PROPERTY
    @given(order=st.integers(1, 12), t=st.integers(-3, 3),
           s=st.integers(-3, 3))
    def test_pentagon_identity_in_any_basis(self, order, t, s):
        # (g1, g2) = M (e1, e2) with M = [[1, t], [0, 1]] [[1, 0], [s, 1]]
        # in SL(2, Z), so <g1, g2> = <e1, e2> = 1
        g1 = charge(1 + t * s, s)
        g2 = charge(t, 1)
        grading = ConeGrading(LAT, (g1, g2))

        def k(gamma):
            return ks_transform(grading, gamma, 1, order)

        lhs = ordered_product([k(g1), k(g2)])
        rhs = ordered_product([k(g2), k(g1 + g2), k(g1)])
        assert check_wcf(lhs, rhs) == (True, None)

    @PROPERTY
    @given(data=st.data())
    def test_automorphism_property_random(self, data):
        order = data.draw(st.integers(1, 8))
        grading = ConeGrading(LAT, (G1, G2))
        factors = [ks_transform(grading, data.draw(cone_charge((G1, G2), 2)),
                                data.draw(st.integers(-2, 2)), order)
                   for _ in range(data.draw(st.integers(1, 3)))]
        auto = ordered_product(factors)
        small = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        a, b = charge(*data.draw(small)), charge(*data.draw(small))
        assert auto.image_cofactor(a) * auto.image_cofactor(b) \
            == auto.image_cofactor(a + b)

    def test_coefficients_are_ints(self, grading, pentagon):
        def ints(series):
            return all(type(c) is int for c in series.coords.values())

        k12 = K(grading, G12, power=-2)
        assert all(ints(s) for s in k12.cofactors)
        autos = [ordered_product([K(grading, G1), K(grading, G2), k12])]
        w = pentagon_wall_point(pentagon, 0.9)
        z = pentagon.Z.basis_values(0.97 * w)
        mid = sum(v / abs(v) for v in z)
        mid /= abs(mid)
        cone = (mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j))
        autos += [spectrum_generator(pentagon, f * w, cone, 8)
                  for f in (0.97, 1.03)]
        for auto in autos:
            assert all(ints(s) for s in auto.cofactors)
            s = auto.image_cofactor(charge(2, -3))
            assert ints(s) and ints(s * s) and ints(series_inverse(s))
