"""Exact twisted torus algebra and the wall-crossing transformations.

Series live in the monoid algebra of a strictly convex cone, graded by the
sum of generator coefficients and truncated at a fixed order.  Products
carry the twisting sign (-1)^<a,b>.  A torus automorphism is its word of
KS factors K_gamma^Omega (the Kontsevich-Soibelman product, arXiv:0811.2435).
Each factor acts on a monomial by one binomial series,
X_k -> X_k (1 - X_gamma)^{Omega <gamma, k>}, so the image of any charge
follows from that closed form, factor by factor, with no series
substitution, powers or inverses.  That images multiply,
image(a) image(b) = image(a + b), is a property the tests check.

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


@dataclass(frozen=True, eq=False)
class TorusAutomorphism:
    """Unipotent automorphism kept as its word of KS factors.

    ``factors`` lists the (gamma, power) of each K_gamma^power in written
    order, (F_1 ... F_k)^* X = F_1^*(... F_k^*(X)), every gamma in the
    cone.  ``cofactors`` are the images of the basis charges,
    image(X_{e_i}) = X_{e_i} * cofactors[i], computed once.  Every image
    comes from the closed-form action of the factors, so that images
    multiply is a property the tests check, not one built in.
    """

    grading: ConeGrading
    order: int
    factors: tuple[tuple[Charge, int], ...] = ()
    cofactors: tuple[TwistedSeries, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cofactors", tuple(
            self.image_cofactor(e) for e in self.grading.lattice.basis()))

    @classmethod
    def identity(cls, grading: ConeGrading, order: int) -> "TorusAutomorphism":
        return cls(grading, order)

    def _check(self, other: "TorusAutomorphism") -> None:
        if not self.grading.compatible(other.grading) or self.order != other.order:
            raise GradingError("grading or truncation order mismatch")

    def image_cofactor(self, gamma: Charge) -> TwistedSeries:
        """Series S with image(X_gamma) = X_gamma * S.

        The factors act from last to first.  K_delta^p sends X_gamma X_k,
        k a monomial of the running S, to X_gamma X_k (1 - X_delta)^{p
        <delta, gamma + k>}, and X_k X_{j delta} = (-1)^{j <delta, k>}
        X_{k + j delta}: the binomial series of one factor, with no series
        products.
        """
        grading, order = self.grading, self.order
        series = {grading.zero: 1}
        for delta, power in reversed(self.factors):
            step = grading.coordinates(delta)
            width = sum(step)
            # <delta, k> = sum_j row_j k_j in cone coordinates
            row = [sum(map(mul, step, col)) for col in zip(*grading.pairing)]
            base = grading.lattice.pair(delta, gamma)
            out: dict[tuple[int, ...], int] = {}
            for k, c in series.items():
                pair = sum(map(mul, row, k))
                exponent = power * (base + pair)
                # (-1)^j binom(exponent, j) times the twist (-1)^{j pair}
                sign = 1 if pair & 1 else -1
                term = c
                for j in range((order - sum(k)) // width + 1):
                    if j:
                        term = term * (exponent - j + 1) // j * sign
                        if not term:
                            break
                    key = tuple(a + j * s for a, s in zip(k, step))
                    out[key] = out.get(key, 0) + term
            series = {k: c for k, c in out.items() if c}
        return TwistedSeries(grading, order, series)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusAutomorphism):
            return NotImplemented
        return self.cofactors == other.cofactors


def ks_transform(grading: ConeGrading, gamma: Charge, power: int,
                 order: int) -> TorusAutomorphism:
    """K_gamma^power: X_{e_i} -> X_{e_i} (1 - X_gamma)^{power <gamma, e_i>}."""
    if grading.degree(gamma) < 1:
        raise GradingError("transformation charge must have positive cone degree")
    return TorusAutomorphism(grading, order, ((gamma, power),))


def compose(a: TorusAutomorphism, b: TorusAutomorphism) -> TorusAutomorphism:
    """(a o b)^* X = b^*(a^* X): the word of b, then that of a."""
    a._check(b)
    return TorusAutomorphism(a.grading, a.order, b.factors + a.factors)


def ordered_product(factors: list[TorusAutomorphism]) -> TorusAutomorphism:
    """Product in the written order: (F1 F2 ... Fk)^* X = F1^*(F2^*(... X))."""
    if not factors:
        raise GradingError("empty product")
    first = factors[0]
    for f in factors[1:]:
        first._check(f)
    return TorusAutomorphism(first.grading, first.order,
                             tuple(p for f in factors for p in f.factors))


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
    """Phase-ordered word of K-factors over charges with Z inside the cone.

    ``cone`` is a pair of boundary directions (counterclockwise from the
    first to the second, opening below pi).  Factors are ordered by
    increasing arg Z; charges of one phase must be proportional, and so
    commute, or u lies on a wall.
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

    for (key_a, a, _), (key_b, b, _) in zip(entries, entries[1:]):
        if abs(key_b - key_a) < 1e-12 and not a.proportional(b):
            raise GradingError(f"u={u} lies on a wall: {a} and {b} align")
    return TorusAutomorphism(grading, order,
                             tuple((gamma, om) for _, gamma, om in entries))


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
