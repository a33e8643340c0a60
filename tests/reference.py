"""Test-only references: the least-squares Laurent fit of sampled two-forms
and the closed-form Gibbons-Hawking metric of the OV model.

Neither shares code with the pipeline it checks: the fit takes varpi only
through its samples, and the OV metric is a Bessel sum (GMN,
arXiv:0807.4723) with no ray integral at all.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0, k1

from hkforge.geometry import LaurentFit, metric_from_triple
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
