"""Exact twisted torus algebra and the wall-crossing transformations.

Series live in the monoid algebra of a strictly convex cone, graded by the
sum of generator coefficients and truncated at a fixed order.  Products
carry the twisting sign (-1)^<a,b>.  A torus automorphism is stored by the
cofactor series S_i of its generator images, image(X_{e_i}) = X_{e_i} S_i;
images of arbitrary charges then follow from multiplicativity, so the
automorphism property holds by construction and is checked by tests rather
than stored.

All coefficients are exact rationals: the wall-crossing identities this
module certifies are exact statements and float drift would mask failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .lattice import Charge, Lattice, charge


class GradingError(ValueError):
    """Charge outside the cone, or incompatible gradings."""


@dataclass(frozen=True)
class ConeGrading:
    """Degree function from a strictly convex cone of generator charges."""

    lattice: Lattice
    generators: tuple[Charge, ...]
    # coordinates of every charge met so far; the series products ask for
    # the same few charges over and over
    _coords: dict[Charge, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise GradingError("cone needs at least one generator")
        d = self.generators[0].dim
        if any(g.dim != d for g in self.generators):
            raise GradingError("generator dimensions differ")

    def coordinates(self, gamma: Charge) -> tuple[int, ...]:
        """Non-negative integer coordinates of gamma in the generator basis."""
        if gamma not in self._coords:
            self._coords[gamma] = self._solve_coordinates(gamma)
        return self._coords[gamma]

    def _solve_coordinates(self, gamma: Charge) -> tuple[int, ...]:
        gens = self.generators
        if len(gens) == 1:
            g = gens[0].coeffs
            ratio = None
            for a, b in zip(gamma.coeffs, g):
                if b == 0:
                    if a != 0:
                        raise GradingError(f"{gamma} outside the cone")
                    continue
                q, r = divmod(a, b)
                if r != 0 or (ratio is not None and q != ratio):
                    raise GradingError(f"{gamma} outside the cone")
                ratio = q
            ratio = 0 if ratio is None else ratio
            if ratio < 0:
                raise GradingError(f"{gamma} outside the cone")
            return (ratio,)
        mat = np.array([g.coeffs for g in gens], dtype=float)
        if mat.shape[0] != mat.shape[1]:
            raise GradingError("generators must form a square unimodular basis")
        sol = np.linalg.solve(mat.T, np.array(gamma.coeffs, dtype=float))
        coords = tuple(int(round(x)) for x in sol)
        rebuilt = [0] * gamma.dim
        for c, g in zip(coords, gens):
            for k, gk in enumerate(g.coeffs):
                rebuilt[k] += c * gk
        if tuple(rebuilt) != gamma.coeffs or any(c < 0 for c in coords):
            raise GradingError(f"{gamma} outside the cone")
        return coords

    def degree(self, gamma: Charge) -> int:
        return sum(self.coordinates(gamma))

    def compatible(self, other: "ConeGrading") -> bool:
        return self.generators == other.generators


ZERO_F = Fraction(0)
ONE_F = Fraction(1)


@dataclass
class TwistedSeries:
    """Finite exact-rational series over cone charges, truncated by degree."""

    grading: ConeGrading
    order: int
    terms: dict[Charge, Fraction]

    @classmethod
    def constant(cls, grading: ConeGrading, order: int,
                 value: Fraction | int = 1) -> "TwistedSeries":
        zero = Charge((0,) * grading.generators[0].dim)
        val = Fraction(value)
        return cls(grading, order, {zero: val} if val else {})

    @classmethod
    def monomial(cls, grading: ConeGrading, order: int, gamma: Charge,
                 coeff: Fraction | int = 1) -> "TwistedSeries":
        if grading.degree(gamma) > order:
            return cls(grading, order, {})
        return cls(grading, order, {gamma: Fraction(coeff)})

    def _check(self, other: "TwistedSeries") -> None:
        if not self.grading.compatible(other.grading) or self.order != other.order:
            raise GradingError("grading or truncation order mismatch")

    def copy(self) -> "TwistedSeries":
        return TwistedSeries(self.grading, self.order, dict(self.terms))

    def __add__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._check(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            v = out.get(g, ZERO_F) + c
            if v:
                out[g] = v
            else:
                out.pop(g, None)
        return TwistedSeries(self.grading, self.order, out)

    def __sub__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self + other.scaled(-1)

    def scaled(self, factor: Fraction | int) -> "TwistedSeries":
        f = Fraction(factor)
        if not f:
            return TwistedSeries(self.grading, self.order, {})
        return TwistedSeries(self.grading, self.order,
                             {g: c * f for g, c in self.terms.items()})

    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._check(other)
        pair = self.grading.lattice.pair
        deg = self.grading.degree
        out: dict[Charge, Fraction] = {}
        for ga, ca in self.terms.items():
            da = deg(ga)
            for gb, cb in other.terms.items():
                if da + deg(gb) > self.order:
                    continue
                g = ga + gb
                sign = -1 if pair(ga, gb) % 2 else 1
                v = out.get(g, ZERO_F) + sign * ca * cb
                if v:
                    out[g] = v
                else:
                    out.pop(g, None)
        return TwistedSeries(self.grading, self.order, out)

    def power(self, n: int) -> "TwistedSeries":
        if n < 0:
            return self.inverse().power(-n)
        result = TwistedSeries.constant(self.grading, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "TwistedSeries":
        zero = Charge((0,) * self.grading.generators[0].dim)
        c0 = self.terms.get(zero, ZERO_F)
        if not c0:
            raise GradingError("series with vanishing constant term has no inverse")
        rest = self.copy()
        rest.terms.pop(zero, None)
        rest = rest.scaled(1 / c0)
        # geometric series in the positive-degree part
        out = TwistedSeries.constant(self.grading, self.order)
        term = TwistedSeries.constant(self.grading, self.order)
        sign = 1
        for _ in range(self.order):
            term = term * rest
            sign = -sign
            if not term.terms:
                break
            out = out + term.scaled(sign)
        return out.scaled(1 / c0)

    def coefficient(self, gamma: Charge) -> Fraction:
        return self.terms.get(gamma, ZERO_F)

    def items_sorted(self):
        deg = self.grading.degree
        return sorted(self.terms.items(), key=lambda kv: (deg(kv[0]), kv[0].coeffs))

    def dump_lines(self) -> list[str]:
        return [f"{g.coeffs} : {c.numerator}/{c.denominator}"
                for g, c in self.items_sorted()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistedSeries):
            return NotImplemented
        return (self.grading.compatible(other.grading)
                and self.order == other.order and self.terms == other.terms)


def poisson_bracket(f: TwistedSeries, g: TwistedSeries) -> TwistedSeries:
    """{X_a, X_b} = <a, b> X_{a+b}, extended bilinearly and truncated."""
    f._check(g)
    pair = f.grading.lattice.pair
    deg = f.grading.degree
    out: dict[Charge, Fraction] = {}
    for ga, ca in f.terms.items():
        da = deg(ga)
        for gb, cb in g.terms.items():
            if da + deg(gb) > f.order:
                continue
            p = pair(ga, gb)
            if p == 0:
                continue
            gg = ga + gb
            v = out.get(gg, ZERO_F) + p * ca * cb
            if v:
                out[gg] = v
            else:
                out.pop(gg, None)
    return TwistedSeries(f.grading, f.order, out)


@dataclass
class TorusAutomorphism:
    """Unipotent automorphism stored by generator-image cofactors."""

    grading: ConeGrading
    order: int
    cofactors: tuple[TwistedSeries, ...]  # image(X_{e_i}) = X_{e_i} * cofactors[i]

    @classmethod
    def identity(cls, grading: ConeGrading, order: int) -> "TorusAutomorphism":
        n = grading.generators[0].dim
        return cls(grading, order,
                   tuple(TwistedSeries.constant(grading, order) for _ in range(n)))

    def _check(self, other: "TorusAutomorphism") -> None:
        if not self.grading.compatible(other.grading) or self.order != other.order:
            raise GradingError("grading or truncation order mismatch")

    def image_cofactor(self, gamma: Charge) -> TwistedSeries:
        """Series S with image(X_gamma) = X_gamma * S, by multiplicativity."""
        out = TwistedSeries.constant(self.grading, self.order)
        for i, c in enumerate(gamma.coeffs):
            if c:
                out = out * self.cofactors[i].power(c)
        return out

    def substitute(self, series: TwistedSeries) -> TwistedSeries:
        """Apply the automorphism to every monomial of a cone series."""
        out = TwistedSeries(self.grading, self.order, {})
        for g, c in series.terms.items():
            mono = TwistedSeries.monomial(self.grading, self.order, g, c)
            out = out + mono * self.image_cofactor(g)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusAutomorphism):
            return NotImplemented
        return self.cofactors == other.cofactors


def ks_transform(grading: ConeGrading, gamma: Charge, power: int,
                 order: int) -> TorusAutomorphism:
    """K_gamma^power: X_{e_i} -> X_{e_i} (1 - X_gamma)^{power <gamma, e_i>}."""
    if grading.degree(gamma) < 1:
        raise GradingError("transformation charge must have positive cone degree")
    lat = grading.lattice
    n = gamma.dim

    def binom_series(exponent: int) -> TwistedSeries:
        terms: dict[Charge, Fraction] = {}
        max_k = order // grading.degree(gamma)
        for k in range(0, max_k + 1):
            coeff = Fraction(_signed_binomial(exponent, k)) * (-1) ** k
            if coeff:
                terms[k * gamma] = coeff
        return TwistedSeries(grading, order, terms)

    cofactors = []
    for i in range(n):
        e_i = Charge(tuple(1 if j == i else 0 for j in range(n)))
        cofactors.append(binom_series(power * lat.pair(gamma, e_i)))
    return TorusAutomorphism(grading, order, tuple(cofactors))


def _signed_binomial(m: int, k: int) -> int:
    """binom(m, k) for integer m of either sign."""
    if k < 0:
        return 0
    if m >= 0:
        return comb(m, k) if k <= m else 0
    # binom(-n, k) = (-1)^k binom(n + k - 1, k)
    return (-1) ** k * comb(-m + k - 1, k)


def compose(a: TorusAutomorphism, b: TorusAutomorphism) -> TorusAutomorphism:
    """(a o b)^* X = b-substitution applied to a^* X."""
    a._check(b)
    out = []
    for i, s_a in enumerate(a.cofactors):
        out.append(b.cofactors[i] * b.substitute(s_a))
    return TorusAutomorphism(a.grading, a.order, tuple(out))


def ordered_product(factors: list[TorusAutomorphism]) -> TorusAutomorphism:
    """Product in the written order: (F1 F2 ... Fk)^* X = F1^*(F2^*(... X))."""
    if not factors:
        raise GradingError("empty product")
    acc = factors[0]
    for f in factors[1:]:
        acc = compose(f, acc)
    return acc


def check_wcf(lhs: TorusAutomorphism, rhs: TorusAutomorphism
              ) -> tuple[bool, int | None]:
    """Exact equality of generator images; also the first degree that differs."""
    lhs._check(rhs)
    first = None
    for sa, sb in zip(lhs.cofactors, rhs.cofactors):
        diff = sa - sb
        if diff.terms:
            d = min(sa.grading.degree(g) for g in diff.terms)
            first = d if first is None else min(first, d)
    return (first is None), first


def spectrum_generator(model, u: complex, cone: tuple[complex, complex],
                       order: int,
                       grading: ConeGrading | None = None) -> TorusAutomorphism:
    """Phase-ordered product of K-factors over charges with Z inside the cone.

    ``cone`` is a pair of boundary directions (counterclockwise from the
    first to the second, opening below pi).  Factors are ordered by
    increasing arg Z, proportional charges merged into a single ray factor.
    """
    v_lo, v_hi = complex(cone[0]), complex(cone[1])
    opening = _cross(v_lo, v_hi)
    if opening <= 0:
        raise GradingError("cone boundary directions must open counterclockwise")
    entries = []
    for gamma in model.spectrum.support(u):
        om = model.spectrum.omega(gamma, u)
        if om == 0:
            continue
        z = model.Z.of(gamma, u)
        if _cross(v_lo, z) <= 0 or _cross(z, v_hi) <= 0:
            continue
        key = np.angle(z / v_lo)
        entries.append((key, gamma, om))
    entries.sort(key=lambda e: e[0])
    if grading is None:
        grading = _cluster_grading(model.lattice, entries)

    factors: list[TorusAutomorphism] = []
    i = 0
    while i < len(entries):
        j = i + 1
        while j < len(entries) and abs(entries[j][0] - entries[i][0]) < 1e-12:
            if not entries[i][1].proportional(entries[j][1]):
                raise GradingError(f"u={u} lies on a wall: "
                                   f"{entries[i][1]} and {entries[j][1]} align")
            j += 1
        ray_factor = TorusAutomorphism.identity(grading, order)
        for _, gamma, om in entries[i:j]:
            ray_factor = compose(ks_transform(grading, gamma, om, order),
                                 ray_factor)
        factors.append(ray_factor)
        i = j
    if not factors:
        return TorusAutomorphism.identity(grading, order)
    return ordered_product(factors)


def _cross(a: complex, b: complex) -> float:
    return (np.conj(a) * b).imag


def _primitive(gamma: Charge) -> Charge:
    n = gamma.content()
    return Charge(tuple(c // n for c in gamma.coeffs)) if n > 1 else gamma


def _cluster_grading(lattice: Lattice, entries) -> ConeGrading:
    """Cone spanned by the phase-extremal primitive charges of a cluster."""
    if not entries:
        return ConeGrading(lattice, tuple(lattice.basis()))
    lo = _primitive(entries[0][1])
    hi = _primitive(entries[-1][1])
    if lo.proportional(hi):
        return ConeGrading(lattice, (lo,))
    # canonical generator order, so both sides of a wall grade identically
    return ConeGrading(lattice, tuple(sorted((lo, hi), key=lambda g: g.coeffs,
                                             reverse=True)))
