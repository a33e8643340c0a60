"""Exact twisted torus algebra and the wall-crossing transformations.

Series live in the monoid algebra of a strictly convex cone, graded by the
sum of generator coefficients and truncated at a fixed order.  Products
carry the twisting sign (-1)^<a,b>.  A torus automorphism is stored by the
cofactor series S_i of its generator images, image(X_{e_i}) = X_{e_i} S_i;
images of arbitrary charges then follow from multiplicativity, so the
automorphism property holds by construction and is checked by tests rather
than stored.

A series is a dict from cone coordinates (the non-negative integer
coefficients of a charge in the generator basis) to integer coefficients:
every coefficient the KS factors and their products build is an integer,
and the wall-crossing identities this module certifies are exact
statements that float drift would mask.  Rational coefficients given by a
caller stay exact through Python's numeric tower.  Charges appear only at
the edge: ``monomial``, ``terms``, ``image_cofactor`` and ``ks_transform``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import add, mul

import numpy as np

from .lattice import Charge, Lattice


class GradingError(ValueError):
    """Charge outside the cone, or incompatible gradings."""


@dataclass(frozen=True)
class ConeGrading:
    """Degree function from a strictly convex cone of generator charges."""

    lattice: Lattice
    generators: tuple[Charge, ...]
    # <g_i, g_j> of the generators: the pairing in cone coordinates
    pairing: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise GradingError("cone needs at least one generator")
        d = self.generators[0].dim
        if any(g.dim != d for g in self.generators):
            raise GradingError("generator dimensions differ")
        pair = self.lattice.pair
        object.__setattr__(self, "pairing", tuple(
            tuple(pair(a, b) for b in self.generators)
            for a in self.generators))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.generators)

    def coordinates(self, gamma: Charge) -> tuple[int, ...]:
        """Non-negative integer coordinates of gamma in the generator basis."""
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
        if len(gens) != gamma.dim:
            raise GradingError("generators must form a square unimodular basis")
        # Cramer's rule (adjugate over determinant) in exact integers:
        # coordinate i is det(A_i) / det(A), where the columns of A are the
        # generators and A_i has column i replaced by gamma
        cols = [g.coeffs for g in gens]
        det = _det(cols)
        if det == 0:
            raise GradingError("generators are linearly dependent")
        coords = []
        for i in range(len(cols)):
            q, r = divmod(_det(cols[:i] + [gamma.coeffs] + cols[i + 1:]), det)
            if r or q < 0:
                raise GradingError(f"{gamma} outside the cone")
            coords.append(q)
        return tuple(coords)

    def charge(self, coords: tuple[int, ...]) -> Charge:
        """The charge with the given cone coordinates."""
        rows = zip(*(g.coeffs for g in self.generators))
        return Charge(tuple(sum(map(mul, coords, row)) for row in rows))

    def degree(self, gamma: Charge) -> int:
        return sum(self.coordinates(gamma))

    def compatible(self, other: "ConeGrading") -> bool:
        return self.generators == other.generators


def _det(cols: list[tuple[int, ...]]) -> int:
    """Exact integer determinant by cofactor expansion (small ranks)."""
    if len(cols) == 1:
        return cols[0][0]
    rest = [c[1:] for c in cols]
    return sum((-1) ** i * c[0] * _det(rest[:i] + rest[i + 1:])
               for i, c in enumerate(cols) if c[0])


@dataclass
class TwistedSeries:
    """Finite exact series over cone coordinates, truncated by degree.

    ``coords`` maps cone coordinates to non-zero coefficients; zeros given
    to any constructor are dropped, so equal series have equal dicts.
    """

    grading: ConeGrading
    order: int
    coords: dict[tuple[int, ...], int]

    def __post_init__(self):
        self.coords = {k: c for k, c in self.coords.items() if c}

    @classmethod
    def constant(cls, grading: ConeGrading, order: int,
                 value: Fraction | int = 1) -> "TwistedSeries":
        return cls(grading, order, {grading.zero: value})

    @classmethod
    def monomial(cls, grading: ConeGrading, order: int, gamma: Charge,
                 coeff: Fraction | int = 1) -> "TwistedSeries":
        k = grading.coordinates(gamma)
        return cls(grading, order, {k: coeff} if sum(k) <= order else {})

    @property
    def terms(self) -> dict[Charge, int]:
        """The coefficients keyed by charge."""
        to_charge = self.grading.charge
        return {to_charge(k): c for k, c in self.coords.items()}

    def _check(self, other: "TwistedSeries") -> None:
        if not self.grading.compatible(other.grading) or self.order != other.order:
            raise GradingError("grading or truncation order mismatch")

    def __add__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._check(other)
        out = dict(self.coords)
        for k, c in other.coords.items():
            out[k] = out.get(k, 0) + c
        return TwistedSeries(self.grading, self.order, out)

    def __sub__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self + other.scaled(-1)

    def scaled(self, factor: Fraction | int) -> "TwistedSeries":
        return TwistedSeries(self.grading, self.order,
                             {k: c * factor for k, c in self.coords.items()})

    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._check(other)
        pairing = self.grading.pairing
        # the right factor by degree, so each row stops at the order
        right = sorted((sum(k), k, c) for k, c in other.coords.items())
        out: dict[tuple[int, ...], int] = {}
        for ka, ca in self.coords.items():
            room = self.order - sum(ka)
            # <a, b> = sum_j row_j b_j
            row = [sum(map(mul, ka, col)) for col in zip(*pairing)]
            for db, kb, cb in right:
                if db > room:
                    break
                k = tuple(map(add, ka, kb))
                v = ca * cb
                out[k] = out.get(k, 0) + (-v if sum(map(mul, row, kb)) & 1
                                          else v)
        return TwistedSeries(self.grading, self.order, out)

    def power(self, n: int) -> "TwistedSeries":
        if n < 0:
            return self.inverse().power(-n)
        result = TwistedSeries.constant(self.grading, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "TwistedSeries":
        zero = self.grading.zero
        c0 = self.coords.get(zero, 0)
        if not c0:
            raise GradingError("series with vanishing constant term has no inverse")
        # 1 / c0; the unit constant term of every KS cofactor stays an int
        inv0 = c0 if abs(c0) == 1 else Fraction(1, c0)
        # geometric series in the positive-degree part
        step = TwistedSeries(self.grading, self.order,
                             {k: -c * inv0 for k, c in self.coords.items()
                              if k != zero})
        out = TwistedSeries.constant(self.grading, self.order)
        term = out
        for _ in range(self.order):
            term = term * step
            if not term.coords:
                break
            out = out + term
        return out.scaled(inv0)

    def dump_lines(self) -> list[str]:
        to_charge = self.grading.charge
        lines = sorted((sum(k), to_charge(k).coeffs, c)
                       for k, c in self.coords.items())
        return [f"{g} : {c.numerator}/{c.denominator}" for _, g, c in lines]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistedSeries):
            return NotImplemented
        return (self.grading.compatible(other.grading)
                and self.order == other.order and self.coords == other.coords)


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
        for k, c in series.coords.items():
            mono = TwistedSeries(self.grading, self.order, {k: c})
            out = out + mono * self.image_cofactor(self.grading.charge(k))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusAutomorphism):
            return NotImplemented
        return self.cofactors == other.cofactors


def ks_transform(grading: ConeGrading, gamma: Charge, power: int,
                 order: int) -> TorusAutomorphism:
    """K_gamma^power: X_{e_i} -> X_{e_i} (1 - X_gamma)^{power <gamma, e_i>}."""
    step = grading.coordinates(gamma)
    if sum(step) < 1:
        raise GradingError("transformation charge must have positive cone degree")

    def binom_series(exponent: int) -> TwistedSeries:
        return TwistedSeries(grading, order, {
            tuple(k * s for s in step): (-1) ** k * _signed_binomial(exponent, k)
            for k in range(order // sum(step) + 1)})

    return TorusAutomorphism(grading, order, tuple(
        binom_series(power * grading.lattice.pair(gamma, e_i))
        for e_i in grading.lattice.basis()))


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
        if diff.coords:
            d = min(sum(k) for k in diff.coords)
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
