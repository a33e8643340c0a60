"""Two-form family of the corrected coordinates, Laurent split, metric.

Pulling back the torus symplectic structure along the corrected coordinates
gives, at each twistor parameter, an antisymmetric matrix over the real
coordinates (Re u, Im u, theta_1, theta_2):

    varpi(zeta) = (1/8 pi^2 R) < d log X(zeta) ^ d log X(zeta) >.

The coordinate jumps across BPS rays act by Poisson morphisms, so this
family is continuous in zeta even though X is not.  Fitting its unit-circle
samples to a/zeta + b + c zeta splits off the holomorphic symplectic form
(the residue) and the Kahler form (the constant term); an appreciable fit
residual signals spurious higher Laurent terms and fails the run.  The
metric follows from the triple algebra: with w1, w2 the real and imaginary
parts of the residue form, J = -w1^{-1} w2 is an almost complex structure
and g = w3 J its metric, positive definite in the large-R regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .semiflat import ModelPoint, dlog_xsf_matrix, pairing_two_form
from .solver import _upsilon_value, midsector_zetas, solve_tangents

MIN_ZETAS = 5   # samples that overdetermine the three-term Laurent fit
FIT_ZETAS = 12  # samples ``fit_point`` takes


@dataclass
class VarpiSampler:
    """d log X of the basis charges at one point, from tangent densities.

    ``solve_tangents`` solves the point and its four real directions on one
    set of grids.  ``varpi`` and ``dlog_matrix`` take a number or a 1-d
    array of zetas: all of them share one evaluation of the stacked tangent
    densities, one Cauchy integral per ray, added to the closed-form
    ``dlog_xsf_matrix``.
    """

    model: object
    point: ModelPoint
    tol_iter: float = 1e-11

    def __post_init__(self):
        self._basis = self.model.lattice.basis()[:2]
        self.center, self.tangents = solve_tangents(
            self.model, self.point, tol_iter=self.tol_iter)

    def dlog_matrix(self, zeta, side: int | None = None) -> np.ndarray:
        """Rows: basis charges; columns: the four real coordinate derivatives.

        (2, 4) at a number, (Z, 2, 4) at Z zetas.
        """
        return dlog_xsf_matrix(self.model, self.point, zeta) + np.moveaxis(
            _upsilon_value(self.model, self.center.grids, self.tangents,
                           self._basis, zeta, side=side), 0, -1)

    def varpi(self, zeta, side: int | None = None) -> np.ndarray:
        """The two-form, (4, 4) at a number, (Z, 4, 4) at Z zetas."""
        a = self.dlog_matrix(zeta, side=side)
        return pairing_two_form(self.model.lattice, a,
                                scale=1.0 / (8.0 * math.pi ** 2 * self.point.R))


@dataclass
class LaurentFit:
    omega_plus: np.ndarray
    omega_3: np.ndarray
    residual: float
    omega3_imag: float
    conj_defect: float


def laurent_fit(zetas: list[complex], samples: np.ndarray | list[np.ndarray]
                ) -> LaurentFit:
    """Split varpi samples into simple-pole, constant and linear parts.

    Least squares of every matrix entry against [1/zeta, 1, zeta]; the
    reality of the family ties the linear coefficient to the conjugate of
    the pole coefficient, and both identifications are reported as defects.
    A residual above 1e-6 means higher Laurent terms are present, which
    the twistor family of a genuine solution cannot have.
    """
    if len(zetas) < MIN_ZETAS:
        raise ValueError(f"need at least {MIN_ZETAS} zeta samples")
    zs = np.asarray(zetas, dtype=complex)
    basis = np.stack([1.0 / zs, np.ones_like(zs), zs], axis=1)
    stacked = np.reshape(samples, (len(zs), 16))
    coeffs, *_ = np.linalg.lstsq(basis, stacked, rcond=None)
    fitted = basis @ coeffs
    residual = float(np.max(np.abs(fitted - stacked)))
    if residual > 1e-6:
        raise ValueError(
            f"higher Laurent terms present: fit residual {residual:.3e}")
    a = coeffs[0].reshape(4, 4)
    b = coeffs[1].reshape(4, 4)
    c = coeffs[2].reshape(4, 4)
    omega_plus = 2j * a
    omega3_imag = float(np.max(np.abs(b.imag)))
    conj_defect = float(np.max(np.abs(c + np.conj(a))))
    return LaurentFit(omega_plus=omega_plus, omega_3=b.real.copy(),
                      residual=residual, omega3_imag=omega3_imag,
                      conj_defect=conj_defect)


@dataclass
class MetricSample:
    g: np.ndarray
    J: np.ndarray
    j_squared_defect: float
    eigenvalues: np.ndarray

    @property
    def positive_definite(self) -> bool:
        return bool(np.all(self.eigenvalues > 0))


def metric_from_triple(omega_plus: np.ndarray, omega_3: np.ndarray
                       ) -> MetricSample:
    """Metric from the triple: J = -w1^{-1} w2 and g = w3 J, symmetrized."""
    w1 = omega_plus.real
    w2 = omega_plus.imag
    j = -np.linalg.solve(w1, w2)
    defect = float(np.max(np.abs(j @ j + np.eye(4))))
    if defect > 1e-6:
        raise ValueError(
            f"triple not hyperkahler at this point: |J^2 + 1| = {defect:.3e}")
    g = omega_3 @ j
    g = 0.5 * (g + g.T)
    return MetricSample(g=g, J=j, j_squared_defect=defect,
                        eigenvalues=np.linalg.eigvalsh(g))


def wedge4(a: np.ndarray, b: np.ndarray) -> complex:
    """Coefficient of the volume form dx^dy^dt1^dt2 in a ^ b."""
    return (a[0, 1] * b[2, 3] - a[0, 2] * b[1, 3] + a[0, 3] * b[1, 2]
            + a[2, 3] * b[0, 1] - a[1, 3] * b[0, 2] + a[1, 2] * b[0, 3])


@dataclass
class TripleCheck:
    equal_squares_defect: float
    mixed_defect: float
    volume: float


def triple_wedge_check(omega_plus: np.ndarray, omega_3: np.ndarray
                       ) -> TripleCheck:
    """Equal squares and vanishing mixed products of the form triple."""
    forms = [omega_plus.real, omega_plus.imag, omega_3]
    squares = [wedge4(w, w).real for w in forms]
    scale = max(abs(s) for s in squares)
    if scale == 0.0:
        raise ValueError("degenerate triple: vanishing top wedge")
    eq = max(abs(squares[i] - squares[0]) for i in (1, 2)) / scale
    mixed = max(abs(wedge4(forms[i], forms[j]))
                for i in range(3) for j in range(3) if i != j) / scale
    return TripleCheck(equal_squares_defect=eq, mixed_defect=mixed,
                       volume=squares[0])


def fit_point(model, point: ModelPoint
              ) -> tuple[LaurentFit, MetricSample, TripleCheck]:
    """Full pipeline at one point: samples, Laurent split, metric, algebra."""
    sampler = VarpiSampler(model, point)
    zetas = midsector_zetas(sampler.center.grids, n=FIT_ZETAS)
    fit = laurent_fit(zetas, sampler.varpi(zetas))
    metric = metric_from_triple(fit.omega_plus, fit.omega_3)
    algebra = triple_wedge_check(fit.omega_plus, fit.omega_3)
    return fit, metric, algebra
