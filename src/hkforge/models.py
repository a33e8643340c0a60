"""Bundled integrable-system models: Ooguri-Vafa disc and the pentagon curve.

Both models have a rank-2 charge lattice with <e1, e2> = 1 and trivial flavor
part.  The Ooguri-Vafa data live on a punctured disc with a single electric
charge active, so the Riemann-Hilbert problem closes after one integration;
the pentagon data come from the family of curves y^2 = z^3 - 3 L^2 z + u,
whose two chambers realize the minimal nontrivial wall-crossing identity.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .lattice import (Charge, CentralCharge, DegeneratePointError, Lattice,
                      Spectrum, charge)

RANK2_PAIRING = ((0, 1), (-1, 0))
WALL_BRACKET = (0.5, 4.0)  # radii / |Lambda|^3 that straddle the pentagon wall


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


# ---------------------------------------------------------------------------
# Pentagon periods

_SQRT3 = math.sqrt(3.0)
_PERMUTATIONS = tuple(itertools.permutations(range(3)))


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
        k = np.arange(1, n + 1)
        self._w2 = (math.pi / (n + 1)) * np.sin(k * math.pi / (n + 1)) ** 2
        # second-kind nodes for Z, then first-kind nodes for dZ/du, walked in
        # one descending sweep so the square root is tracked along the cut
        ts = np.concatenate([np.cos(k * math.pi / (n + 1)),
                             np.cos((2 * k - 1) * math.pi / (2 * n))])
        self._order = np.argsort(-ts)
        self._ts = ts[self._order]
        self._cache: dict[complex, tuple] = {}
        self._base_roots = (-_SQRT3 + 0j, 0j, _SQRT3 + 0j)
        z1, dz1, z2, dz2 = self._periods([self._base_roots])[0]
        s1 = -1.0 if z1.imag > 0 else 1.0
        s2 = 1.0 if z2.real > 0 else -1.0
        self._base_state = (s1 * z1, s1 * dz1, s2 * z2, s2 * dz2)

    def _periods(self, roots: list[tuple]) -> list[tuple]:
        """(Z1, dZ1, Z2, dZ2) at each root triple, each cycle up to a sign.

        Roots are labeled A, B, C (at u = 0: -sqrt3, 0, +sqrt3); gamma_1 is
        the cycle around [B, C], which vanishes at u = +2, and gamma_2 the
        one around [A, B], which vanishes at u = -2.  All cycles of all
        triples are summed in one (2 x triples, 2 N_NODES) array pass.
        """
        r = np.array(roots, dtype=complex)
        za, zb, zc = r[:, [1, 0]], r[:, [2, 1]], r[:, [0, 2]]
        m = 0.5 * (za + zb)
        w = 0.5 * (zb - za)
        s = np.sqrt(m[..., None] + w[..., None] * self._ts - zc[..., None])
        dots = np.real(s[..., 1:] * np.conj(s[..., :-1]))
        s[..., 1:] *= np.cumprod(np.where(dots < 0.0, -1.0, 1.0), axis=-1)
        g = np.empty_like(s)
        g[..., self._order] = s
        n = self.N_NODES
        sums = np.sum(self._w2 * g[..., :n], axis=-1)
        dz = (-1j / math.pi) * (math.pi / n) * np.sum(1.0 / g[..., n:], axis=-1)
        # Z's prefactor on scalars: numpy's vectorized complex product may
        # fuse a multiply-add and round differently from the scalar one
        z = [complex((2j * a * a / math.pi) * b)
             for a, b in zip(w.flat, sums.flat)]
        dz = dz.ravel().tolist()
        return list(zip(z[0::2], dz[0::2], z[1::2], dz[1::2]))

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

    def _steps_to(self, u: complex) -> list[complex]:
        """Step points along ``_path_to(u)``: each step is at most MAX_STEP
        and 0.45 of its start's distance to the discriminant."""
        steps, pos = [], 0.0 + 0.0j
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
                steps.append(pos + leg * (done / length))
            pos = target
        return steps

    def state(self, u: complex):
        """(roots, Z1, dZ1, Z2, dZ2, wall_crossings) continued from u = 0.

        The whole path is one batched pass: the cubic's roots at every step
        point come from one eigenvalue call on companion matrices built as
        ``np.roots`` builds them, each step keeps the labeling closest to
        the previous one, ``_periods`` sums all steps at once, and each
        cycle's sign then follows its previous value.  A wall crossing is a
        sign change of Im(Z1 / Z2) between steps.
        """
        u = complex(u)
        if self._d_distance(u) < self.D_TOL:
            raise DegeneratePointError(f"u={u} on the pentagon discriminant")
        hit = self._cache.get(u)
        if hit is not None:
            return hit

        steps = self._steps_to(u)
        roots, raw = [self._base_roots], []
        if steps:
            poly = np.array([(1.0, 0.0, -3.0, s) for s in steps], dtype=complex)
            comp = np.zeros((len(steps), 3, 3), dtype=complex)
            comp[:, 1, 0] = comp[:, 2, 1] = 1.0
            comp[:, 0, :] = -poly[:, 1:] / poly[:, :1]
            for r in np.linalg.eigvals(comp).tolist():
                d = [[abs(x - y) for y in roots[-1]] for x in r]
                i, j, k = min(_PERMUTATIONS, key=lambda p: d[p[0]][0]
                              + d[p[1]][1] + d[p[2]][2])
                roots.append((r[i], r[j], r[k]))
            raw = self._periods(roots[1:])
        z1, dz1, z2, dz2 = self._base_state
        crossings, eta_prev = 0, (z1 / z2).imag
        for rz1, rdz1, rz2, rdz2 in raw:
            z1, dz1 = self._match_sign(rz1, rdz1, z1)
            z2, dz2 = self._match_sign(rz2, rdz2, z2)
            eta = (z1 / z2).imag
            if eta == 0.0 or eta_prev * eta < 0.0:
                crossings += 1
            eta_prev = eta

        out = (np.array(roots[-1]), z1, dz1, z2, dz2, crossings)
        if len(self._cache) > 4096:
            self._cache.clear()
        self._cache[u] = out
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

# The (7, 15) Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk15): the nodes
# in [0, 1] from 1 down to 0, their Kronrod weights and the Gauss weights of
# every second node, mirrored about 0 into 15 nodes.
_GK15_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_GK15_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_G7_W = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327])
GK15_NODES = np.concatenate([-_GK15_X, _GK15_X[-2::-1]])
GK15_WEIGHTS = np.concatenate([_GK15_WK, _GK15_WK[-2::-1]])
G7_WEIGHTS = np.concatenate([_G7_W, _G7_W[-2::-1]])
# one product gives the Kronrod sum K and K - G
_GK15_RULES = np.column_stack([GK15_WEIGHTS, GK15_WEIGHTS - G7_WEIGHTS])


def gauss_kronrod(f, breaks, epsabs: float, epsrel: float, limit: int
                  ) -> tuple[complex, float]:
    """Adaptive (7, 15) Gauss-Kronrod quadrature of a vectorized function.

    ``f`` maps an (m, 15) array of abscissae to its complex values.  The
    partition starts at the intervals between consecutive ``breaks``.  Each
    round evaluates every new subinterval in one call of ``f``, then bisects
    the subintervals of largest |K - G| (Kronrod minus Gauss sum) until the
    others' |K - G| sum to at most max(epsabs, epsrel |I|), keeping at most
    ``limit`` subintervals.  Returns the Kronrod sum and the summed |K - G|,
    which estimates the Gauss sum's error and so bounds, loosely, the
    Kronrod sum's.
    """
    breaks = np.asarray(breaks, dtype=float)
    new_c, new_h = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * np.diff(breaks)
    centre, half = np.empty(0), np.empty(0)
    kron, err = np.empty(0, dtype=complex), np.empty(0)
    while True:
        sums = new_h[:, None] * (
            f(new_c[:, None] + new_h[:, None] * GK15_NODES) @ _GK15_RULES)
        centre, half = np.concatenate([centre, new_c]), np.concatenate(
            [half, new_h])
        kron = np.concatenate([kron, sums[:, 0]])
        err = np.concatenate([err, np.abs(sums[:, 1])])
        value = complex(kron.sum())
        order = np.argsort(err)
        running = np.cumsum(err[order])
        stay = max(int(np.searchsorted(
            running, max(epsabs, epsrel * abs(value)), "right")),
            2 * len(err) - limit)
        if stay >= len(err):
            return value, float(running[-1])
        worst, keep = order[stay:], order[:stay]
        quarter = 0.5 * half[worst]
        new_c = np.concatenate([centre[worst] - quarter,
                                centre[worst] + quarter])
        new_h = np.concatenate([quarter, quarter])
        centre, half, kron, err = (centre[keep], half[keep], kron[keep],
                                   err[keep])


def ov_oracle(model: ModelDefinition, point, gamma: Charge, zeta: complex):
    """Independent quadrature for the closed-form OV coordinates.

    The electric coordinate equals its semiflat value; the magnetic one picks
    up one Cauchy-type integral over each electric ray, weighted by the
    ray's pairing with gamma times its Omega from ``model.spectrum``.  On
    the ray zeta' = d e^s, X = exp(i theta - 2 pi R |Z| cosh s) and the
    kernel (zeta' + zeta) / (zeta' - zeta) is at most 2 / sin(angle from
    zeta to the nearer ray), so the span in s is where that bound on the
    integrand falls below the absolute tolerance 1e-13: it grows like
    log(1 / R|Z|) as R|Z| shrinks.  Both rays are summed into one complex
    integrand and integrated once by ``gauss_kronrod``, the adaptive (7, 15)
    Gauss-Kronrod rule in numpy (QUADPACK's pair, without QUADPACK or
    SciPy), a different node family from the ray solver.  The
    variable is t = s - log|zeta|, with a break point at t = 0, where the
    kernel of each ray peaks (|d| = 1).  With phi the angle from the ray to
    zeta, the kernel is (e^t + e^{i phi}) / (e^t - e^{i phi}) with
    e^t - e^{i phi} = expm1(t) - expm1(i phi), exact near the ray; 1 - X is
    formed from expm1(-2 pi R |Z| cosh s) and 1 - e^{i theta}, which does not
    cancel near X = 1.  A ValueError refuses zeta within 1e-8 rad of a ray,
    and a value whose error estimate (summed |K - G|) exceeds 1e-9.
    """
    # local import avoids a cycle
    from .semiflat import CoordinateValue, theta_eval, xsf

    if model.name != "ov":
        raise ValueError("oracle defined for the OV model")
    zeta, rays = complex(zeta), []
    for sign in (1, -1):
        gp = sign * charge(0, 1)
        weight = (model.lattice.pair(gamma, gp)
                  * model.spectrum.omega(gp, point.u))
        if weight == 0:
            continue
        z = model.Z.of(gp, point.u)
        phi = cmath.phase(zeta / (-z / abs(z)))
        if abs(phi) < 1e-8:
            raise ValueError("zeta on an OV ray; oracle needs an off-ray point")
        rays.append((weight, phi, theta_eval(model.lattice, point, gp)))
    ref = xsf(model, point, gamma, zeta)
    if not rays:
        return ref
    # |Z_{-e}| = |Z_e|, so both rays decay alike
    a, shift = 2.0 * math.pi * point.R * abs(z), math.log(abs(zeta))
    weight, phi, theta = (np.array(v)[:, None, None] for v in zip(*rays))
    ep = -2.0 * np.sin(0.5 * phi) ** 2 + 1j * np.sin(phi)  # expm1(i phi)
    kappa = 2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)

    def integrand(t: np.ndarray) -> np.ndarray:
        em, em_x = np.expm1(t), np.expm1(-a * np.cosh(t + shift))
        log_1mx = np.log(kappa * (em_x + 1.0) - em_x)
        return (weight * (2.0 + em + ep) / (em - ep) * log_1mx).sum(axis=0)

    eps = 1e-13
    bound = 2.0 * sum(abs(w) for w, *_ in rays) / math.sin(
        min(abs(p) for _, p, _ in rays))
    span = math.acosh(max(1.0, math.log(bound / eps) / a))
    ends = [-span - shift] + [0.0] * (abs(shift) < span) + [span - shift]
    # pieces at most 0.5 long, the scale on which X and the kernel away
    # from its peak vary, so most converge in the first round
    pieces = [np.linspace(lo, hi, max(2, math.ceil(2 * (hi - lo)) + 1))[:-1]
              for lo, hi in zip(ends, ends[1:])]
    breaks = np.concatenate(pieces + [ends[-1:]])
    total, error = gauss_kronrod(integrand, breaks, eps, 1e-12, limit=400)
    if error > 1e-9:
        raise ValueError(f"OV oracle quadrature failed: error estimate "
                         f"{error:.1e} above 1e-9")
    return CoordinateValue.from_log(
        gamma, zeta, ref.log_value - (1.0 / (4j * math.pi)) * total)


# ---------------------------------------------------------------------------
# Config round-trip

_BUILTIN = {"ov": ov_model, "pentagon": pentagon_model}


def load_model(spec: str) -> ModelDefinition:
    """Build a model from a builtin name or a JSON config file.  A spec that
    is neither, or a config that ``model_from_config`` refuses, raises one
    ValueError that names the spec."""
    if spec in _BUILTIN:
        return _BUILTIN[spec]()
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"model {spec!r} is neither a builtin "
                         f"({', '.join(_BUILTIN)}) nor a readable config "
                         f"file: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"model config {spec}: not JSON: {exc}") from None
    try:
        return model_from_config(cfg)
    except ValueError as exc:
        raise ValueError(f"model config {spec}: {exc}") from None


def model_from_config(cfg) -> ModelDefinition:
    """The builtin model a config object names, at its Lambda [re, im],
    checked against the config's pairing and flavor rank.  Each malformed
    field raises a ValueError that names it."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a JSON {type(cfg).__name__}, not an object")
    name = cfg.get("model")
    if not isinstance(name, str) or name not in _BUILTIN:
        raise ValueError(f"unknown model {name!r}; the builtins are "
                         f"{', '.join(_BUILTIN)}")
    lam = cfg.get("Lambda", [1.0, 0.0])
    if not (isinstance(lam, list) and len(lam) == 2 and all(
            isinstance(x, (int, float)) and math.isfinite(x) for x in lam)):
        raise ValueError(f"Lambda must be [re, im], two finite numbers, "
                         f"not {lam!r}")
    model = _BUILTIN[name](complex(lam[0], lam[1]))
    pairing = cfg.get("pairing")
    if pairing is not None and [list(r) for r in model.lattice.pairing] != pairing:
        raise ValueError("pairing does not match the builtin lattice")
    if cfg.get("flavor_rank", 0) != model.lattice.flavor_rank:
        raise ValueError("flavor rank does not match the builtin lattice")
    return model


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
