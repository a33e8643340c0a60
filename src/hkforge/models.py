"""Bundled integrable-system models: Ooguri-Vafa disc and the pentagon curve.

Both models have a rank-2 charge lattice with <e1, e2> = 1 and trivial flavor
part.  The Ooguri-Vafa data live on a punctured disc with a single electric
charge active, so the Riemann-Hilbert problem closes after one integration;
the pentagon data come from the family of curves y^2 = z^3 - 3 L^2 z + u,
whose two chambers realize the minimal nontrivial wall-crossing identity.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .lattice import (Charge, CentralCharge, DegeneratePointError, Lattice,
                      Spectrum, charge)

RANK2_PAIRING = ((0, 1), (-1, 0))
WALL_BRACKET = (0.5, 4.0)  # radii / |Lambda|^3 that straddle the pentagon wall
OV_ORACLE_SPAN = 12.0      # the oracle integrates s over [-span, span]


@dataclass
class ModelDefinition:
    """A complete set of integrable-system data plus sampling helpers."""

    name: str
    lattice: Lattice
    Z: CentralCharge
    spectrum: Spectrum
    Lambda: complex
    chamber: Callable[[complex], str]
    sample_grid: Callable[[int], list[complex]]
    config: dict

    def with_spectrum(self, spectrum: Spectrum) -> "ModelDefinition":
        return replace(self, spectrum=spectrum)


# ---------------------------------------------------------------------------
# Ooguri-Vafa


def ov_model(Lambda: complex = 1.0) -> ModelDefinition:
    """Punctured-disc model with one electric charge active.

    Basis (e1, e2) = (magnetic, electric), <e1, e2> = 1.  Z_{e2} = u and
    Z_{e1} = (u log(u/L) - u) / (2 pi i) on the principal branch, so the
    chamber is the disc cut along the ray where u/L is negative real.
    Monodromy around u = 0 sends the magnetic charge to magnetic + electric.
    """
    Lam = complex(Lambda)
    if Lam == 0:
        raise ValueError("Lambda must be nonzero")
    lat = Lattice(RANK2_PAIRING, flavor_rank=0)
    gamma_e = charge(0, 1)

    def basis_values(u: complex) -> tuple[complex, complex]:
        u = complex(u)
        if abs(u) < 1e-10:
            raise DegeneratePointError("u = 0 is the OV discriminant point")
        if abs(u) >= abs(Lam):
            raise ValueError(f"u={u} outside the OV disc |u| < |Lambda|")
        zm = (u * cmath.log(u / Lam) - u) / (2j * math.pi)
        return (zm, u)

    def basis_derivatives(u: complex) -> tuple[complex, complex]:
        u = complex(u)
        if abs(u) < 1e-10:
            raise DegeneratePointError("u = 0 is the OV discriminant point")
        return (cmath.log(u / Lam) / (2j * math.pi), 1.0 + 0.0j)

    def omega_of(gamma: Charge, u: complex) -> int:
        return 1 if gamma in (gamma_e, -gamma_e) else 0

    def support_of(u: complex):
        return (gamma_e, -gamma_e)

    def sample_grid(n: int) -> list[complex]:
        # Polar grid staying inside the disc and away from the log cut.
        pts = []
        n_r = max(2, int(round(math.sqrt(n))))
        n_a = max(2, (n + n_r - 1) // n_r)
        for i in range(n_r):
            r = 0.15 + 0.7 * (i + 0.5) / n_r
            for k in range(n_a):
                a = -math.pi + 0.35 + (2 * math.pi - 0.7) * (k + 0.5) / n_a
                pts.append(abs(Lam) * r * cmath.exp(1j * (a + cmath.phase(Lam))))
        return pts[:max(n, 4)]

    return ModelDefinition(
        name="ov",
        lattice=lat,
        Z=CentralCharge(basis_values, basis_derivatives),
        spectrum=Spectrum(omega_of, support_of),
        Lambda=Lam,
        chamber=lambda u: "disc",
        sample_grid=sample_grid,
        config={"model": "ov", "Lambda": [Lam.real, Lam.imag],
                "pairing": [list(r) for r in RANK2_PAIRING], "flavor_rank": 0},
    )


def ov_continued_z(model: ModelDefinition, u: complex, loops: int = 1
                   ) -> tuple[complex, complex]:
    """Basis central charges after analytic continuation around u = 0.

    Each counterclockwise loop adds 2 pi i to the logarithm, which is how the
    magnetic period picks up one electric period.
    """
    Lam = model.Lambda
    zm = (u * (cmath.log(u / Lam) + 2j * math.pi * loops) - u) / (2j * math.pi)
    return (zm, u)


# ---------------------------------------------------------------------------
# Pentagon periods

_SQRT3 = math.sqrt(3.0)


class PentagonPeriods:
    """Periods of y^2 = z^3 - 3 z + u by branch-tracked segment quadrature.

    Basis cycles: gamma_1 collapses at u = +2 and gamma_2 at u = -2 (in the
    scaled coordinate u/Lambda^3).  Each period is an integral of y dz over
    a straight segment between two tracked roots of the cubic; pulling out
    the square-root vanishing at the endpoints leaves Chebyshev weights, so
    Gauss-Chebyshev nodes integrate it spectrally.  Values are continued
    along a straight path from the base point u = 0, with detours around the
    discriminant points on the +i side; the remaining global sign per cycle
    is pinned at the base point (Im Z_1(0) < 0, Re Z_2(0) > 0), which makes
    the positivity condition and the chamber orderings come out right.
    """

    D_POINTS = (2.0, -2.0)
    D_TOL = 1e-6
    N_NODES = 96      # Gauss-Chebyshev nodes per period integral
    MAX_STEP = 0.3    # longest continuation step in u
    DETOUR = 0.35     # offset of the waypoints around the discriminant

    def __init__(self):
        n = self.N_NODES
        k2 = np.arange(1, n + 1)
        self._t2 = np.cos(k2 * math.pi / (n + 1))
        self._w2 = (math.pi / (n + 1)) * np.sin(k2 * math.pi / (n + 1)) ** 2
        j1 = np.arange(1, n + 1)
        self._t1 = np.cos((2 * j1 - 1) * math.pi / (2 * n))
        self._cache: dict[complex, tuple] = {}
        self._base_roots = np.array([-_SQRT3, 0.0, _SQRT3], dtype=complex)
        self._base_state = self._pin_base()

    # -- elementary quadrature ---------------------------------------------

    @staticmethod
    def _tracked_sqrt(vals: np.ndarray) -> np.ndarray:
        s = np.sqrt(vals.astype(complex))
        if len(s) > 1:
            dots = np.real(s[1:] * np.conj(s[:-1]))
            flips = np.where(dots < 0.0, -1.0, 1.0)
            s[1:] *= np.cumprod(flips)
        return s

    def _raw_pair(self, za: complex, zb: complex, zc: complex
                  ) -> tuple[complex, complex]:
        """(Z, dZ/du) over the cycle around [za, zb], up to one global sign."""
        m = 0.5 * (za + zb)
        w = 0.5 * (zb - za)
        ts = np.concatenate([self._t2, self._t1])
        order = np.argsort(-ts)
        zs = m + w * ts[order] - zc
        g = np.empty_like(zs)
        g[order] = self._tracked_sqrt(zs)
        g2 = g[: self.N_NODES]
        g1 = g[self.N_NODES:]
        z_val = (2j * w * w / math.pi) * np.sum(self._w2 * g2)
        dz_val = (-1j / math.pi) * (math.pi / self.N_NODES) * np.sum(1.0 / g1)
        return complex(z_val), complex(dz_val)

    def _roots_step(self, prev: np.ndarray, u: complex) -> np.ndarray:
        r = np.roots([1.0, 0.0, -3.0, complex(u)])
        best, best_cost = None, None
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            cost = sum(abs(r[p] - prev[k]) for k, p in enumerate(perm))
            if best_cost is None or cost < best_cost:
                best, best_cost = perm, cost
        return np.array([r[p] for p in best], dtype=complex)

    def _periods_at(self, roots: np.ndarray) -> tuple:
        ra, rb, rc = roots  # labels: A -> -sqrt3, B -> 0, C -> +sqrt3 at u=0
        z1, dz1 = self._raw_pair(rb, rc, ra)   # gamma_1 cycle, vanishes at u=+2
        z2, dz2 = self._raw_pair(ra, rb, rc)   # gamma_2 cycle, vanishes at u=-2
        return z1, dz1, z2, dz2

    def _pin_base(self) -> tuple:
        z1, dz1, z2, dz2 = self._periods_at(self._base_roots)
        s1 = -1.0 if z1.imag > 0 else 1.0
        s2 = 1.0 if z2.real > 0 else -1.0
        return (s1 * z1, s1 * dz1, s2 * z2, s2 * dz2)

    # -- continuation --------------------------------------------------------

    def _path_to(self, u: complex) -> list[complex]:
        """Waypoints from 0 to u, detouring around the discriminant points.

        The detour side follows the sign of Im u (targets on the real axis
        count as upper), so the trivialization over each half-plane is the
        straight-path one and the Picard-Lefschetz frame jump sits exactly
        on the real axis beyond the discriminant points.
        """
        u = complex(u)
        side = 1.0 if u.imag >= 0 else -1.0
        waypoints = [0.0 + 0.0j]
        for dpt in self.D_POINTS:
            d = self._segment_distance(0.0, u, dpt)
            if d < 0.6 * self.DETOUR and abs(u - dpt) > 1e-12:
                waypoints.append(dpt + self.DETOUR * 1j * side)
        waypoints.sort(key=lambda p: abs(p))
        waypoints.append(u)
        return waypoints

    @staticmethod
    def _segment_distance(a: complex, b: complex, p: complex) -> float:
        a = complex(a)
        ab = b - a
        if abs(ab) < 1e-300:
            return abs(p - a)
        t = max(0.0, min(1.0, ((p - a) * np.conj(ab)).real / abs(ab) ** 2))
        return abs(a + t * ab - p)

    def _d_distance(self, u: complex) -> float:
        return min(abs(u - d) for d in self.D_POINTS)

    def state(self, u: complex):
        """(roots, Z1, dZ1, Z2, dZ2, wall_crossings) continued from u = 0."""
        u = complex(u)
        if self._d_distance(u) < self.D_TOL:
            raise DegeneratePointError(f"u={u} on the pentagon discriminant")
        key = u
        hit = self._cache.get(key)
        if hit is not None:
            return hit

        roots = self._base_roots.copy()
        z1, dz1, z2, dz2 = self._base_state
        crossings = 0
        eta_prev = (z1 / z2).imag
        pos = 0.0 + 0.0j
        for target in self._path_to(u)[1:]:
            leg = target - pos
            length = abs(leg)
            if length < 1e-15:
                continue
            done = 0.0
            while done < length - 1e-15:
                here = pos + leg * (done / length)
                step = min(self.MAX_STEP, length - done,
                           0.45 * max(self._d_distance(here), 2.0 * self.D_TOL))
                done = min(length, done + step)
                nxt = pos + leg * (done / length)
                roots = self._roots_step(roots, nxt)
                raw = self._periods_at(roots)
                z1_new, dz1_new = self._match_sign(raw[0], raw[1], z1)
                z2_new, dz2_new = self._match_sign(raw[2], raw[3], z2)
                z1, dz1, z2, dz2 = z1_new, dz1_new, z2_new, dz2_new
                eta = (z1 / z2).imag
                if eta == 0.0 or eta_prev * eta < 0.0:
                    crossings += 1
                eta_prev = eta
            pos = target

        out = (roots, z1, dz1, z2, dz2, crossings)
        if len(self._cache) > 4096:
            self._cache.clear()
        self._cache[key] = out
        return out

    @staticmethod
    def _match_sign(z: complex, dz: complex, z_prev: complex):
        if abs(z - z_prev) <= abs(-z - z_prev):
            return z, dz
        return -z, -dz

    def values(self, u: complex) -> tuple[complex, complex]:
        st = self.state(u)
        return st[1], st[3]

    def derivatives(self, u: complex) -> tuple[complex, complex]:
        st = self.state(u)
        return st[2], st[4]

    def chamber(self, u: complex) -> str:
        return "in" if self.state(u)[5] % 2 == 0 else "out"


def pentagon_model(Lambda: complex = 1.0) -> ModelDefinition:
    """Two-chamber model from the curve family y^2 = z^3 - 3 L^2 z + u.

    Central charges are period integrals of y dz / pi; the strong-coupling
    chamber carries charges {+-e1, +-e2} and the weak-coupling chamber adds
    +-(e1 + e2).  The basis cycle e1 collapses at u = -2 L^3 and e2 at
    u = +2 L^3; with <e1, e2> = 1 this is the unique labeling (up to a
    global flip) for which the central charges of e1 and e2 align with
    *positive* ratio on the wall, so that crossing it creates the charge
    e1 + e2 rather than e1 - e2.  General Lambda is reduced to the unit
    case by the scaling z -> L z, which multiplies periods by L^(5/2) and
    moves u to u / L^3.
    """
    Lam = complex(Lambda)
    if Lam == 0:
        raise ValueError("Lambda must be nonzero")
    lat = Lattice(RANK2_PAIRING, flavor_rank=0)
    periods = PentagonPeriods()
    scale_z = Lam ** 2.5
    scale_dz = Lam ** (-0.5)
    g1, g2 = charge(1, 0), charge(0, 1)
    support_in = (g1, -g1, g2, -g2)
    # The weak-coupling chamber is not simply connected, so its spectrum in
    # the fixed straight-path frame reads differently per half-plane: the
    # bound state is e1 + e2 above the real axis and e1 - e2 below, the two
    # labelings being glued by the Picard-Lefschetz jump across the real
    # axis beyond the discriminant points.  As sets of local-system charges
    # both are the same monodromy-invariant six-element support.
    support_out_upper = support_in + (g1 + g2, -g1 - g2)
    support_out_lower = support_in + (g1 - g2, g2 - g1)

    def reduce_u(u: complex) -> complex:
        return complex(u) / Lam ** 3

    def basis_values(u: complex) -> tuple[complex, complex]:
        zc1, zc2 = periods.values(reduce_u(u))
        return (-scale_z * zc2, scale_z * zc1)

    def basis_derivatives(u: complex) -> tuple[complex, complex]:
        dc1, dc2 = periods.derivatives(reduce_u(u))
        return (-scale_dz * dc2, scale_dz * dc1)

    def chamber(u: complex) -> str:
        return periods.chamber(reduce_u(u))

    def support_of(u: complex):
        if chamber(u) == "in":
            return support_in
        return support_out_upper if reduce_u(u).imag >= 0 \
            else support_out_lower

    def omega_of(gamma: Charge, u: complex) -> int:
        return 1 if gamma in support_of(u) else 0

    def sample_grid(n: int) -> list[complex]:
        half = max(2, n // 2)
        pts = []
        for k in range(half):  # strong-coupling points
            r = 1.2 * (k + 0.5) / half
            a = 2.0 * math.pi * (k * 0.618 + 0.13)
            pts.append(abs(Lam) ** 3 * r * cmath.exp(1j * a))
        # weak-coupling ring; stay off the real axis beyond the
        # discriminant, where the straight-path frame has its cut
        outer = n - half
        per_arc = (outer + 1) // 2
        for k in range(outer):
            arc, j = divmod(k, per_arc)
            a = (0.3 + (math.pi - 0.6) * (j + 0.5) / per_arc
                 + arc * math.pi)
            pts.append(abs(Lam) ** 3 * 3.1 * cmath.exp(1j * a))
        return pts

    return ModelDefinition(
        name="pentagon",
        lattice=lat,
        Z=CentralCharge(basis_values, basis_derivatives),
        spectrum=Spectrum(omega_of, support_of),
        Lambda=Lam,
        chamber=chamber,
        sample_grid=sample_grid,
        config={"model": "pentagon", "Lambda": [Lam.real, Lam.imag],
                "pairing": [list(r) for r in RANK2_PAIRING], "flavor_rank": 0},
    )


def pentagon_wall_point(model: ModelDefinition, phi: float,
                        tol: float = 1e-10) -> complex:
    """Radial bisection for the wall along exp(i phi) within WALL_BRACKET."""
    Lam3 = abs(model.Lambda) ** 3

    def side(r: float) -> int:
        return 0 if model.chamber(Lam3 * r * cmath.exp(1j * phi)) == "in" else 1

    lo, hi = WALL_BRACKET
    if side(lo) == side(hi):
        raise ValueError("bracket does not straddle the wall")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if side(mid) == side(lo):
            lo = mid
        else:
            hi = mid
    return Lam3 * 0.5 * (lo + hi) * cmath.exp(1j * phi)


# ---------------------------------------------------------------------------
# Ooguri-Vafa one-step oracle


def ov_oracle(model: ModelDefinition, point, gamma: Charge, zeta: complex):
    """Independent quadrature for the closed-form OV coordinates.

    The electric coordinate equals its semiflat value; the magnetic one picks
    up one Cauchy-type integral over each electric ray.  Uses adaptive
    Gauss-Kronrod quadrature, a different node family from the ray solver.
    """
    from .semiflat import xsf, xsf_log  # local import avoids a cycle

    if model.name != "ov":
        raise ValueError("oracle defined for the OV model")
    lat = model.lattice
    gamma_e = charge(0, 1)
    zeta = complex(zeta)
    u, R = point.u, point.R

    log_sf = xsf_log(model, point, gamma, zeta)
    upsilon = 0.0 + 0.0j
    for sign in (1, -1):
        gp = sign * gamma_e
        pairing = lat.pair(gamma, gp)
        if pairing == 0:
            continue
        z = model.Z.of(gp, u)
        d = -z / abs(z)
        if abs(cmath.phase(zeta / d)) < 1e-8:
            raise ValueError("zeta on an OV ray; oracle needs an off-ray point")

        def integrand(s: float, part: int) -> float:
            zp = d * cmath.exp(s)
            kern = (zp + zeta) / (zp - zeta)
            x = cmath.exp(xsf_log(model, point, gp, zp))
            val = kern * cmath.log(1.0 - x)
            return val.real if part == 0 else val.imag

        re, _ = quad(integrand, -OV_ORACLE_SPAN, OV_ORACLE_SPAN, args=(0,),
                     epsabs=1e-13, epsrel=1e-12, limit=400)
        im, _ = quad(integrand, -OV_ORACLE_SPAN, OV_ORACLE_SPAN, args=(1,),
                     epsabs=1e-13, epsrel=1e-12, limit=400)
        upsilon += -(1.0 / (4j * math.pi)) * pairing * (re + 1j * im)

    value = cmath.exp(log_sf + upsilon)
    ref = xsf(model, point, gamma, zeta)
    return replace(ref, value=value, log_value=log_sf + upsilon)


# ---------------------------------------------------------------------------
# Config round-trip

_BUILTIN = {"ov": ov_model, "pentagon": pentagon_model}


def load_model(spec: str) -> ModelDefinition:
    """Build a model from a builtin name or a JSON config file."""
    if spec in _BUILTIN:
        return _BUILTIN[spec]()
    with open(spec, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return model_from_config(cfg)


def model_from_config(cfg: dict) -> ModelDefinition:
    name = cfg.get("model")
    if name not in _BUILTIN:
        raise ValueError(f"unknown model {name!r}")
    lam = cfg.get("Lambda", [1.0, 0.0])
    model = _BUILTIN[name](complex(lam[0], lam[1]))
    pairing = cfg.get("pairing")
    if pairing is not None and [list(r) for r in model.lattice.pairing] != pairing:
        raise ValueError("config pairing does not match the builtin lattice")
    if int(cfg.get("flavor_rank", 0)) != model.lattice.flavor_rank:
        raise ValueError("config flavor rank does not match the builtin lattice")
    return model


def save_model(model: ModelDefinition, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def model_info(model: ModelDefinition) -> str:
    lines = [f"model: {model.name}",
             f"Lambda: {model.Lambda.real:g},{model.Lambda.imag:g}",
             f"lattice rank: {model.lattice.rank_total} "
             f"(flavor {model.lattice.flavor_rank})",
             "pairing: " + "; ".join(str(list(r)) for r in model.lattice.pairing)]
    if model.name == "ov":
        lines.append("chambers: cut disc |u| < |Lambda|")
        lines.append("spectrum: Omega(+-e2) = 1, else 0; wall set empty")
        lines.append("monodromy around u=0: e1 -> e1 + e2")
    else:
        lines.append("chambers: 'in' (strong coupling) / 'out' (weak coupling)")
        lines.append("spectrum in:  Omega(+-e1) = Omega(+-e2) = 1")
        lines.append("spectrum out: adds the bound state, labeled +-(e1+e2)")
        lines.append("  above the real axis and +-(e1-e2) below (frame jump)")
        lines.append("wall: locus where the active central charges align")
        lines.append("vanishing cycles: e1 at u = -2 Lambda^3, e2 at +2 Lambda^3")
    return "\n".join(lines)
