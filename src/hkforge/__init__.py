"""Quantum-corrected hyperkahler metrics from integrable-system data.

Builds the holomorphic Darboux coordinates of a complex integrable system
by solving a ray-jump Riemann-Hilbert problem, cross-checks them against a
tree-sum series and a formal wall-crossing algebra, and assembles the
corrected metric from the twistor family of symplectic forms.
"""

from .lattice import (Charge, CentralCharge, Lattice, Ray, Spectrum,
                      bps_rays, charge, validate_conditions)
from .semiflat import CoordinateValue, ModelPoint, theta_eval, xsf

__version__ = "0.1.0"

__all__ = [
    "Charge", "CentralCharge", "Lattice", "Ray", "Spectrum",
    "bps_rays", "charge", "validate_conditions",
    "CoordinateValue", "ModelPoint", "theta_eval", "xsf",
    "__version__",
]
