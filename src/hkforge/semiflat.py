"""Semiflat Darboux coordinates and the zeroth-order two-forms.

The semiflat coordinate of a charge at twistor parameter zeta is

    X_gamma(zeta) = exp[ pi R Z_gamma / zeta + i theta_gamma
                         + pi R zeta conj(Z_gamma) ],

where theta_gamma is a twisted character of the lattice: angles add up to
the twisting shift pi <gamma, gamma'>.  Pairing the log-derivatives of these
coordinates reproduces the one-parameter family of holomorphic symplectic
forms, whose Laurent coefficients in zeta are the holomorphic symplectic
form and the Kahler form of the semiflat metric.  Everything here is in
closed form, which makes this module the oracle for the corrected pipeline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Charge, Lattice

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelPoint:
    """Evaluation site: base point, coupling R, torus angles."""

    u: complex
    R: float
    theta: tuple[float, ...]

    def __post_init__(self):
        if not self.R > 0:  # NaN too
            raise ValueError("R must be positive")
        u, theta = complex(self.u), [float(t) for t in self.theta]
        if not (cmath.isfinite(u) and all(map(math.isfinite, theta))):
            raise ValueError("u and theta must be finite")
        object.__setattr__(self, "u", u)
        # a tiny negative angle reduces to 2 pi in rounding, which is angle 0
        theta = (t % TWO_PI for t in theta)
        object.__setattr__(self, "theta",
                           tuple(t if t < TWO_PI else 0.0 for t in theta))

    def shifted(self, du: complex = 0.0, dtheta: tuple[float, ...] | None = None
                ) -> "ModelPoint":
        theta = self.theta if dtheta is None else tuple(
            t + d for t, d in zip(self.theta, dtheta))
        return ModelPoint(self.u + du, self.R, theta)


@dataclass(frozen=True)
class CoordinateValue:
    """Value of one coordinate function at fixed (point, zeta)."""

    gamma: Charge
    zeta: complex
    value: complex
    log_value: complex

    @classmethod
    def from_log(cls, gamma: Charge, zeta, log_value: complex
                 ) -> "CoordinateValue":
        """The value exp(log_value); a value past the float range raises
        ``ValueError`` naming the log value."""
        try:
            value = cmath.exp(log_value)
        except OverflowError:
            raise ValueError(
                f"X_{gamma} overflows at zeta={complex(zeta)}: log X = "
                f"{log_value:.6g}") from None
        return cls(gamma=gamma, zeta=complex(zeta), value=value,
                   log_value=log_value)


def twist_parity(lattice: Lattice, gamma: Charge) -> int:
    """Quadratic refinement q(gamma) mod 2 entering the twisted character.

    q(gamma) = sum_{i<j} gamma^i gamma^j <e_i, e_j> satisfies
    q(a) + q(b) - q(a+b) = <a, b> mod 2, which is exactly the twisting rule.
    """
    q = 0
    cs = gamma.coeffs
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            q += cs[i] * cs[j] * lattice.pairing[i][j]
    return q % 2


def theta_eval(lattice: Lattice, point: ModelPoint, gamma: Charge) -> float:
    """Twisted-character angle theta_gamma, reduced to [0, 2 pi)."""
    if len(point.theta) != gamma.dim:
        raise ValueError("theta vector does not match charge dimension")
    base = sum(c * t for c, t in zip(gamma.coeffs, point.theta))
    return (base + math.pi * twist_parity(lattice, gamma)) % TWO_PI


def xsf_log(model, point: ModelPoint, gamma: Charge, zeta):
    """Logarithm of the semiflat coordinate (the chosen branch).

    ``zeta`` is a number or an array of them (the nodes of a ray).  A number
    stays in Python complex arithmetic, which is much cheaper than numpy
    for the scalar calls of the oracles and the off-grid evaluation.
    """
    if isinstance(zeta, np.ndarray):
        if np.any(zeta == 0):
            raise ValueError("zeta must be nonzero")
    else:
        zeta = complex(zeta)
        if zeta == 0:
            raise ValueError("zeta must be nonzero")
    return xsf_log_of(model.Z.of(gamma, point.u),
                      theta_eval(model.lattice, point, gamma), point.R, zeta)


def xsf_log_of(z, theta, R: float, zeta):
    """``xsf_log`` from a charge's central charge ``z`` and angle ``theta``.

    Numbers or arrays that broadcast against ``zeta``; callers that already
    hold the central charges (a ray's ``zs``) skip the period evaluation.
    """
    piR = math.pi * R
    return piR * z / zeta + 1j * theta + piR * zeta * z.conjugate()


def xsf(model, point: ModelPoint, gamma: Charge, zeta: complex) -> CoordinateValue:
    return CoordinateValue.from_log(gamma, zeta,
                                    xsf_log(model, point, gamma, zeta))


# ---------------------------------------------------------------------------
# Two-forms in the real coordinates (Re u, Im u, theta_1, theta_2); the
# closed-form expressions below are restricted to a one-dimensional base.


def pairing_two_form(lattice: Lattice, rows: np.ndarray, scale: float = 1.0
                     ) -> np.ndarray:
    """Assemble scale * <rows ^ rows> as a 4x4 antisymmetric matrix.

    ``rows[..., i, mu]`` holds the mu-component of the i-th basis covector;
    the contraction uses the dual pairing on the gauge lattice, and leading
    axes stack independent sets of rows.
    """
    dual = lattice.dual_pairing().astype(complex)
    m = np.swapaxes(rows, -1, -2) @ dual @ rows
    return scale * (m - np.swapaxes(m, -1, -2))


def xsf_laurent_rows(model, point: ModelPoint, charges) -> np.ndarray:
    """(3, C, 4): pi R dZ, i dtheta and pi R dZbar of each charge, the
    coefficients of 1/zeta, 1 and zeta in d log X^sf along (Re u, Im u,
    theta_1, theta_2).  The periods' derivatives are read once."""
    if model.lattice.rank_total != 2 or model.lattice.flavor_rank != 0:
        raise ValueError("two-form assembly implemented for rank-2 "
                         "flavorless lattices (one-dimensional base)")
    derivs = model.Z.basis_derivatives(point.u)
    piR = math.pi * point.R
    rows = np.zeros((3, len(charges), 4), dtype=complex)
    for i, gamma in enumerate(charges):
        dz = sum(c * d for c, d in zip(gamma.coeffs, derivs))
        rows[0, i, :2] = piR * dz, 1j * piR * dz
        rows[1, i, 2:] = [1j * c for c in gamma.coeffs]
        rows[2, i, :2] = piR * dz.conjugate(), -1j * piR * dz.conjugate()
    return rows


def dlog_xsf_matrix(model, point: ModelPoint, zeta) -> np.ndarray:
    """d log X^sf of the basis charges; rows (2,) x cols (x,y,t1,t2).

    ``zeta`` is a number, giving (2, 4), or an array of them, giving its
    shape + (2, 4).  The periods' derivatives are read once per call.
    """
    pole, const, lin = xsf_laurent_rows(model, point, model.lattice.basis())
    zeta = np.asarray(zeta, dtype=complex)[..., None, None]
    return pole / zeta + const + zeta * lin


def laurent_forms(model, point: ModelPoint, du0=0.0, du1=0.0
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (a, b, c) of varpi(zeta) = a / zeta + b + c zeta.

    d log X of the basis charges is d log X^sf + du0 + zeta du1 + O(zeta^2)
    at zeta -> 0 and d log X^sf - du0 + O(1/zeta) at infinity, (2, 4) like
    the rows; both 0 give the semiflat family.  a and b follow from zeta ->
    0, c from infinity, so c = -conj(a) tests reality.
    """
    pole, const, lin = xsf_laurent_rows(model, point, model.lattice.basis())
    dual = model.lattice.dual_pairing().astype(complex)
    scale = 1.0 / (8.0 * math.pi ** 2 * point.R)

    def pair(x, y):
        m = x.T @ dual @ y
        return m - m.T

    a = 2.0 * scale * pair(pole, const + du0)
    b = scale * (pair(const + du0, const + du0) + 2.0 * pair(pole, lin + du1))
    c = 2.0 * scale * pair(lin, const - du0)
    return a, b, c


def omega_plus_sf(model, point: ModelPoint) -> np.ndarray:
    """Holomorphic symplectic form -(1/2 pi) <dZ ^ dtheta> as a 4x4 matrix."""
    return 2j * laurent_forms(model, point)[0]


def omega3_sf(model, point: ModelPoint) -> np.ndarray:
    """Semiflat Kahler form (R/4)<dZ ^ dZbar> - (1/8 pi^2 R)<dtheta ^ dtheta>."""
    form = laurent_forms(model, point)[1]
    if np.max(np.abs(form.imag)) > 1e-12 * (1.0 + np.max(np.abs(form.real))):
        raise ValueError("semiflat Kahler form has a spurious imaginary part")
    return form.real


def varpi_sf(model, point: ModelPoint, zeta: complex) -> np.ndarray:
    """Semiflat two-form family from the analytic coordinate derivatives."""
    a = dlog_xsf_matrix(model, point, zeta)
    return pairing_two_form(model.lattice, a,
                            scale=1.0 / (8.0 * math.pi ** 2 * point.R))


def varpi_expected(omega_plus: np.ndarray, omega_3: np.ndarray,
                   zeta: complex) -> np.ndarray:
    """Laurent assembly -(i/2 zeta) w_+ + w_3 - (i/2) zeta conj(w_+);
    (4, 4) at a number, (Z, 4, 4) at Z zetas."""
    zeta = np.asarray(zeta, dtype=complex)[..., None, None]
    return (-0.5j / zeta) * omega_plus + omega_3 \
        - 0.5j * zeta * np.conj(omega_plus)
