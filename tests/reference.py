"""Test-only references: the least-squares Laurent fit of sampled two-forms,
the closed-form Gibbons-Hawking metric of the OV model, and the pentagon
periods continued one step at a time.

None shares code with the pipeline it checks: the fit takes varpi only
through its samples, the OV metric is a Bessel sum (GMN, arXiv:0807.4723)
with no ray integral at all, and the step-by-step continuation calls
``np.roots`` and sums each cycle on its own, where
``PentagonPeriods.state`` batches the whole path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import k0, k1

from hkforge.geometry import LaurentFit, metric_from_triple
from hkforge.lattice import DegeneratePointError
from hkforge.semiflat import omega3_sf, omega_plus_sf


def laurent_fit(zetas, samples) -> LaurentFit:
    """Split varpi samples into simple-pole, constant and linear parts.

    Least squares of every matrix entry against [1/zeta, 1, zeta]; the
    reality of the family ties the linear coefficient to the conjugate of
    the pole coefficient, and both identifications are reported as defects.
    """
    zs = np.asarray(zetas, dtype=complex)
    basis = np.stack([1.0 / zs, np.ones_like(zs), zs], axis=1)
    stacked = np.reshape(samples, (len(zs), 16))
    coeffs, *_ = np.linalg.lstsq(basis, stacked, rcond=None)
    residual = float(np.max(np.abs(basis @ coeffs - stacked)))
    a, b, c = (coeffs[k].reshape(4, 4) for k in range(3))
    return LaurentFit(omega_plus=2j * a, omega_3=b.real.copy(),
                      residual=residual,
                      omega3_imag=float(np.max(np.abs(b.imag))),
                      conj_defect=float(np.max(np.abs(c + np.conj(a)))))


def spread_zetas(grids, per_sector: int = 3) -> list[complex]:
    """Unit zetas at the quarter, half and three-quarter points (for
    ``per_sector`` 3) of every sector between adjacent rays."""
    angles = sorted(g.ray.angle for g in grids)
    ends = angles[1:] + [angles[0] + 2 * math.pi]
    return [complex(np.exp(1j * (a + (b - a) * (k + 1) / (per_sector + 1))))
            for a, b in zip(angles, ends) for k in range(per_sector)]


def ov_gibbons_hawking(model, point, terms: int | None = None) -> np.ndarray:
    """The OV metric in (Re u, Im u, theta_1, theta_2), Lambda 1.

    With theta_1 magnetic and theta_2 electric,
        g = (dtheta_1 + A)^2 / (2 pi R V) + V h,
    V = -log|u| + sum_n 2 cos(n theta_2) K_0(2 pi R n |u|) and
    h = diag(R / 2 pi, R / 2 pi, 1 / (8 pi^3 R)) on (x, y, theta_2).  The
    connection A is the semiflat one plus R |u| sum_n 2 sin(n theta_2)
    K_1(2 pi R n |u|) dphi, with phi = arg u; the semiflat metric is the
    same form with the sums dropped, and it supplies A's semiflat part.
    ``terms`` keeps only n <= terms (a control); by default the sums run
    until their terms fall below 1e-18.
    """
    r, R, theta_e = abs(point.u), point.R, point.theta[1]
    x = 2.0 * math.pi * R * r
    n = np.arange(1, (math.ceil(42.0 / x) if terms is None else terms) + 1)
    v = -math.log(r) + float(np.sum(2.0 * np.cos(n * theta_e) * k0(n * x)))
    twist = R * r * float(np.sum(2.0 * np.sin(n * theta_e) * k1(n * x)))
    g_sf = metric_from_triple(omega_plus_sf(model, point),
                              omega3_sf(model, point)).g
    conn = g_sf[2] / g_sf[2, 2]
    conn[:2] += twist * np.array([-point.u.imag, point.u.real]) / r ** 2
    g = np.outer(conn, conn) / (2.0 * math.pi * R * v)
    g[[0, 1, 3], [0, 1, 3]] += v * np.array(
        [R / (2 * math.pi), R / (2 * math.pi), 1.0 / (8 * math.pi ** 3 * R)])
    return g


def stepwise_periods_state(periods, u: complex):
    """``PentagonPeriods.state`` continued one step at a time.

    At each step point, ``np.roots`` of the cubic, the permutation of the
    roots closest to the previous step's, and each cycle's Gauss-Chebyshev
    sums on their own; the step rule, base-point signs and crossing count
    are those of ``state``.  Uses only ``periods``' constants and its
    ``_path_to`` and ``_d_distance``.
    """
    n = periods.N_NODES
    k = np.arange(1, n + 1)
    t2 = np.cos(k * math.pi / (n + 1))
    w2 = (math.pi / (n + 1)) * np.sin(k * math.pi / (n + 1)) ** 2
    t1 = np.cos((2 * k - 1) * math.pi / (2 * n))

    def tracked_sqrt(vals):
        s = np.sqrt(vals.astype(complex))
        dots = np.real(s[1:] * np.conj(s[:-1]))
        s[1:] *= np.cumprod(np.where(dots < 0.0, -1.0, 1.0))
        return s

    def raw_pair(za, zb, zc):
        m, w = 0.5 * (za + zb), 0.5 * (zb - za)
        ts = np.concatenate([t2, t1])
        order = np.argsort(-ts)
        g = np.empty(2 * n, dtype=complex)
        g[order] = tracked_sqrt(m + w * ts[order] - zc)
        z_val = (2j * w * w / math.pi) * np.sum(w2 * g[:n])
        dz_val = (-1j / math.pi) * (math.pi / n) * np.sum(1.0 / g[n:])
        return complex(z_val), complex(dz_val)

    def periods_at(roots):
        ra, rb, rc = roots
        return raw_pair(rb, rc, ra) + raw_pair(ra, rb, rc)

    def roots_step(prev, u):
        r = np.roots([1.0, 0.0, -3.0, complex(u)])
        best, best_cost = None, None
        for perm in itertools.permutations(range(3)):
            cost = sum(abs(r[p] - prev[k]) for k, p in enumerate(perm))
            if best_cost is None or cost < best_cost:
                best, best_cost = perm, cost
        return np.array([r[p] for p in best], dtype=complex)

    def match_sign(z, dz, z_prev):
        return (z, dz) if abs(z - z_prev) <= abs(-z - z_prev) else (-z, -dz)

    u = complex(u)
    if periods._d_distance(u) < periods.D_TOL:
        raise DegeneratePointError(f"u={u} on the pentagon discriminant")
    roots = np.array([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], dtype=complex)
    z1, dz1, z2, dz2 = periods_at(roots)
    s1 = -1.0 if z1.imag > 0 else 1.0
    s2 = 1.0 if z2.real > 0 else -1.0
    z1, dz1, z2, dz2 = s1 * z1, s1 * dz1, s2 * z2, s2 * dz2
    crossings, eta_prev, pos = 0, (z1 / z2).imag, 0.0 + 0.0j
    for target in periods._path_to(u)[1:]:
        leg = target - pos
        length = abs(leg)
        if length < 1e-15:
            continue
        done = 0.0
        while done < length - 1e-15:
            here = pos + leg * (done / length)
            step = min(periods.MAX_STEP, length - done,
                       0.45 * max(periods._d_distance(here),
                                  2.0 * periods.D_TOL))
            done = min(length, done + step)
            roots = roots_step(roots, pos + leg * (done / length))
            raw = periods_at(roots)
            z1, dz1 = match_sign(raw[0], raw[1], z1)
            z2, dz2 = match_sign(raw[2], raw[3], z2)
            eta = (z1 / z2).imag
            if eta == 0.0 or eta_prev * eta < 0.0:
                crossings += 1
            eta_prev = eta
        pos = target
    return roots, z1, dz1, z2, dz2, crossings
