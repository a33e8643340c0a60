"""Charge lattice, central charges, BPS spectra and rays.

The lattice is a rank-(2r+f) free abelian group with an integer antisymmetric
pairing whose radical is the flavor sublattice; by convention the flavor
directions are the last ``flavor_rank`` coordinates of the chosen basis.  A
central charge assigns to each lattice vector a holomorphic function of the
base coordinate u.  Charges the spectrum activates emit rays in the twistor
plane along -Z/|Z|; those rays carry the jump data of the Riemann-Hilbert
problem solved in :mod:`hkforge.solver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SPECTRAL_CUTOFF = 1e-16   # active charges have exp(-2 pi R |Z|) above this
WALL_ANGLE = 1e-6         # rad; non-proportional rays this close mean a wall
DERIVATIVE_STEP = 1e-5    # central-difference step, relative to max(|u|, 1)


class LatticeError(ValueError):
    """Malformed lattice data or mismatched charge dimensions."""


class DegeneratePointError(ValueError):
    """The base point sits on (or too close to) the discriminant locus."""


class WallProximityError(ValueError):
    """Two non-proportional active charges have (nearly) aligned rays."""


@dataclass(frozen=True)
class Charge:
    """Integer vector of coordinates in the fixed lattice basis."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "Charge") -> "Charge":
        self._check(other)
        return Charge(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Charge") -> "Charge":
        self._check(other)
        return Charge(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Charge":
        return Charge(tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "Charge":
        if not isinstance(n, int):
            return NotImplemented
        return Charge(tuple(n * a for a in self.coeffs))

    def __iter__(self):
        return iter(self.coeffs)

    def __repr__(self) -> str:
        return f"Charge{self.coeffs}"

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def content(self) -> int:
        """gcd of the coordinates (0 for the zero charge)."""
        return math.gcd(*(abs(a) for a in self.coeffs)) if self.coeffs else 0

    def l1_degree(self) -> int:
        return sum(abs(a) for a in self.coeffs)

    def proportional(self, other: "Charge") -> bool:
        """True when the two charges span a rank <= 1 sublattice."""
        self._check(other)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.coeffs[i] * other.coeffs[j] != self.coeffs[j] * other.coeffs[i]:
                    return False
        return True

    def _check(self, other: "Charge") -> None:
        if self.dim != other.dim:
            raise LatticeError(
                f"charge dimension mismatch: {self.dim} vs {other.dim}")


def charge(*coeffs: int) -> Charge:
    """Convenience constructor: ``charge(1, 0)`` instead of ``Charge((1, 0))``."""
    return Charge(tuple(coeffs))


@dataclass(frozen=True)
class Lattice:
    """Charge lattice with antisymmetric integer pairing.

    The radical of the pairing must have rank exactly ``flavor_rank`` and be
    spanned by the last ``flavor_rank`` basis vectors; the pairing induced on
    the quotient by the radical is then nondegenerate.
    """

    pairing: tuple[tuple[int, ...], ...]
    flavor_rank: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "pairing",
            tuple(tuple(int(x) for x in row) for row in self.pairing))
        m = self.matrix()
        n = m.shape[0]
        if m.shape != (n, n):
            raise LatticeError("pairing matrix must be square")
        if not np.array_equal(m, -m.T):
            raise LatticeError("pairing matrix must be antisymmetric")
        if not (0 <= self.flavor_rank <= n):
            raise LatticeError("flavor_rank out of range")
        gauge = n - self.flavor_rank
        if np.linalg.matrix_rank(m) != gauge:
            raise LatticeError(
                "radical of the pairing does not have rank flavor_rank")
        if self.flavor_rank and np.any(m[:, gauge:] != 0):
            raise LatticeError(
                "flavor directions (last flavor_rank coordinates) must pair to zero")
        if gauge and abs(np.linalg.det(m[:gauge, :gauge].astype(float))) < 0.5:
            raise LatticeError("pairing degenerate on the gauge block")

    def matrix(self) -> np.ndarray:
        return np.array(self.pairing, dtype=int)

    @property
    def rank_total(self) -> int:
        return len(self.pairing)

    @property
    def gauge_rank(self) -> int:
        return self.rank_total - self.flavor_rank

    def basis(self) -> list[Charge]:
        n = self.rank_total
        return [Charge(tuple(1 if j == i else 0 for j in range(n)))
                for i in range(n)]

    def pair(self, a: Charge, b: Charge) -> int:
        """Antisymmetric integer pairing <a, b>."""
        if a.dim != self.rank_total or b.dim != self.rank_total:
            raise LatticeError("charge dimension does not match lattice rank")
        total = 0
        for i, ai in enumerate(a.coeffs):
            if ai == 0:
                continue
            row = self.pairing[i]
            total += ai * sum(row[j] * bj for j, bj in enumerate(b.coeffs) if bj)
        return total

    def dual_pairing(self) -> np.ndarray:
        """Induced pairing on the dual of the gauge lattice.

        The literal inverse of an antisymmetric matrix is fixed only up to
        sign by the data; the overall sign here is pinned so that the bundled
        models satisfy the positivity condition <dZ ^ dZbar> > 0 (and the
        semiflat metric comes out positive definite).
        """
        g = self.gauge_rank
        eps = self.matrix()[:g, :g].astype(float)
        return -np.linalg.inv(eps)


@dataclass(frozen=True)
class CentralCharge:
    """Holomorphic homomorphism from the lattice to C, varying over the base.

    ``basis_values(u)`` returns the tuple (Z_{e_1}(u), ..., Z_{e_n}(u)) for
    the lattice basis; additivity in the charge is then automatic.
    ``basis_derivatives``, when present, returns closed-form dZ_{e_i}/du.
    """

    basis_values: Callable[[complex], tuple[complex, ...]]
    basis_derivatives: Callable[[complex], tuple[complex, ...]] | None = None

    def of(self, gamma: Charge, u: complex) -> complex:
        vals = self.basis_values(u)
        if len(vals) != gamma.dim:
            raise LatticeError("charge dimension does not match central charge")
        return sum(c * z for c, z in zip(gamma.coeffs, vals))


@dataclass(frozen=True)
class Spectrum:
    """BPS degeneracies: an integer for each charge, constant per chamber.

    ``support_of(u)`` lists the finitely many charges with possibly nonzero
    degeneracy in the chamber of u.
    """

    omega_of: Callable[[Charge, complex], int]
    support_of: Callable[[complex], tuple[Charge, ...]]

    def omega(self, gamma: Charge, u: complex) -> int:
        return int(self.omega_of(gamma, u))

    def support(self, u: complex) -> tuple[Charge, ...]:
        return tuple(self.support_of(u))


@dataclass(frozen=True)
class Ray:
    """One BPS ray in the twistor plane with the charges riding it."""

    direction: complex          # unit modulus, -Z_gamma/|Z_gamma|
    charges: tuple[Charge, ...]
    omegas: tuple[int, ...]
    zs: tuple[complex, ...]     # central charges of the listed charges

    @property
    def angle(self) -> float:
        return math.atan2(self.direction.imag, self.direction.real)

    def min_abs_z(self) -> float:
        return min(abs(z) for z in self.zs)


def bps_rays(spectrum: Spectrum, Z: CentralCharge, u: complex,
             R: float) -> list[Ray]:
    """Active BPS rays at u, sorted by angle.

    A charge is active when its degeneracy is nonzero and exp(-2 pi R |Z|)
    clears SPECTRAL_CUTOFF.  Distinct charges land on one ray only when
    proportional; non-proportional rays within WALL_ANGLE signal a wall.
    """
    active: list[tuple[Charge, int, complex]] = []
    for gamma in spectrum.support(u):
        om = spectrum.omega(gamma, u)
        if om == 0:
            continue
        z = Z.of(gamma, u)
        if abs(z) == 0.0:
            raise DegeneratePointError(
                f"Z vanishes for active charge {gamma} at u={u}")
        if math.exp(-2.0 * math.pi * R * abs(z)) < SPECTRAL_CUTOFF:
            continue
        active.append((gamma, om, z))

    entries = []
    for gamma, om, z in active:
        d = -z / abs(z)
        entries.append((math.atan2(d.imag, d.real), d, gamma, om, z))
    entries.sort(key=lambda e: e[0])

    rays: list[Ray] = []
    group_tol = 1e-9
    i = 0
    while i < len(entries):
        j = i + 1
        while j < len(entries) and entries[j][0] - entries[i][0] < group_tol:
            j += 1
        block = entries[i:j]
        base = block[0][2]
        for _, _, g, _, _ in block[1:]:
            if not base.proportional(g):
                raise WallProximityError(
                    f"non-proportional charges {base} and {g} on one ray at u={u}")
        rays.append(Ray(direction=block[0][1],
                        charges=tuple(e[2] for e in block),
                        omegas=tuple(e[3] for e in block),
                        zs=tuple(e[4] for e in block)))
        i = j

    for a in range(len(rays)):
        b = (a + 1) % len(rays)
        if len(rays) < 2 or a == b:
            break
        diff = abs(_wrap_angle(rays[b].angle - rays[a].angle))
        if diff < WALL_ANGLE and not rays[a].charges[0].proportional(rays[b].charges[0]):
            raise WallProximityError(
                f"rays of {rays[a].charges[0]} and {rays[b].charges[0]} "
                f"separated by {diff:.2e} rad at u={u}")
    return rays


def _wrap_angle(a: float) -> float:
    while a <= -math.pi:
        a += 2.0 * math.pi
    while a > math.pi:
        a -= 2.0 * math.pi
    return a


def complex_derivative(f: Callable[[complex], np.ndarray], u: complex):
    """Central-difference d/du and d/dubar with one Richardson halving.

    Returns (df_du, df_dubar) as arrays matching the output of f.
    """
    h = DERIVATIVE_STEP * max(abs(u), 1.0)

    def diff(step):
        fx = (np.asarray(f(u + step)) - np.asarray(f(u - step))) / (2.0 * step)
        fy = (np.asarray(f(u + 1j * step)) - np.asarray(f(u - 1j * step))) / (2.0 * step)
        du = 0.5 * (fx - 1j * fy)
        dubar = 0.5 * (fx + 1j * fy)
        return du, dubar

    du_h, dubar_h = diff(h)
    du_h2, dubar_h2 = diff(h / 2.0)
    # One Richardson step on the O(h^2) central differences.
    du = (4.0 * du_h2 - du_h) / 3.0
    dubar = (4.0 * dubar_h2 - dubar_h) / 3.0
    return du, dubar


@dataclass
class ConditionReport:
    """Per-condition maximal residuals over a validation grid."""

    model_name: str
    n_points: int
    residuals: dict[str, float]
    threshold: float = 1e-8

    @property
    def ok(self) -> bool:
        return all(r < self.threshold for r in self.residuals.values())

    def table(self) -> str:
        width = max(len(k) for k in self.residuals)
        lines = [f"model {self.model_name}: conditions on {self.n_points} grid points"]
        for name, res in self.residuals.items():
            verdict = "pass" if res < self.threshold else "FAIL"
            lines.append(f"  {name:<{width}}  {res:14.6e}  {verdict}")
        return "\n".join(lines)


def validate_conditions(model, grid: Sequence[complex] | None = None,
                        n_grid: int = 16) -> ConditionReport:
    """Numerically check the defining conditions on a grid of base points.

    Checks, per sample u: flavor central charges constant, the (2,0) part of
    <dZ ^ dZ> (identically zero on a one-dimensional base), the dZ span of
    the cotangent space, positivity of <dZ ^ dZbar>, and degeneracy parity.
    Holomorphy of Z (Cauchy-Riemann defect) is reported alongside.
    """
    lat: Lattice = model.lattice
    if lat.gauge_rank != 2:
        raise LatticeError("condition validator implemented for rank-1 bases "
                           "(gauge rank 2)")
    if grid is None:
        grid = model.sample_grid(n_grid)
    dual = lat.dual_pairing()
    basis = lat.basis()
    gauge = basis[:lat.gauge_rank]
    flavor = basis[lat.gauge_rank:]

    res = {name: 0.0 for name in
           ("condition1_flavor_constant", "condition2_dZdZ",
            "condition3_span", "condition4_positivity",
            "condition5_parity", "holomorphy_CR")}

    def zvec(u):
        return np.array(model.Z.basis_values(u), dtype=complex)

    for u in grid:
        du, dubar = complex_derivative(zvec, u)
        a = du[:lat.gauge_rank]
        b = dubar[:lat.gauge_rank]
        scale = 1.0 + float(np.max(np.abs(a)))

        if flavor:
            fl = max(abs(du[lat.gauge_rank + k]) + abs(dubar[lat.gauge_rank + k])
                     for k in range(len(flavor)))
            res["condition1_flavor_constant"] = max(
                res["condition1_flavor_constant"], fl / scale)

        # (2,0) coefficient of <dZ ^ dZ>: antisymmetric pairing against the
        # symmetric tensor a_i a_j, identically zero for a 1-dim base.
        c2 = abs(sum(dual[i, j] * a[i] * a[j]
                     for i in range(2) for j in range(2)))
        res["condition2_dZdZ"] = max(res["condition2_dZdZ"], c2 / scale**2)

        span_ok = float(np.max(np.abs(a))) > 1e-8
        res["condition3_span"] = max(res["condition3_span"],
                                     0.0 if span_ok else 1.0)

        # <dZ ^ dZbar> on dx ^ dy; positive is the Kahler-base condition.
        v = sum(dual[i, j] * a[i] * np.conj(a[j])
                for i in range(2) for j in range(2))
        wcoef = (v * (-2j)).real
        res["condition4_positivity"] = max(res["condition4_positivity"],
                                           max(0.0, -wcoef) / scale**2)

        parity = max((abs(model.spectrum.omega(g, u) - model.spectrum.omega(-g, u))
                      for g in model.spectrum.support(u)), default=0)
        res["condition5_parity"] = max(res["condition5_parity"], float(parity))

        res["holomorphy_CR"] = max(res["holomorphy_CR"],
                                   float(np.max(np.abs(b))) / scale)

    return ConditionReport(model_name=model.name, n_points=len(list(grid)),
                           residuals=res)
