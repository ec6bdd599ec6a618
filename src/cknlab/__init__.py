"""Numerical laboratory for the stability of the weighted Sobolev inequality
of Caffarelli-Kohn-Nirenberg type.

Evaluates the closed-form objects of the theory (parameter curves, extremal
bubbles, linearization spectra, gap constants, energy-expansion coefficients),
cross-checks each against independent numerical oracles, and minimizes the
stability quotient on the cylinder to probe the optimal constant against its
proved upper bounds.
"""

from .params import (
    CknParams,
    DegenerateBoundary,
    InvalidParameters,
    ParameterError,
    RegionClass,
    classify,
    curve_constants,
    felli_schneider,
    make_params,
)
from .extremals import GridSpec, bubble_w, generator_v, optimal_constant, psi, psi_norms, psi_prime
from .spectrum import eigenvalue_closed, rho_02, rho_10, spectral_gap
from .eig_oracle import generalized_eigenvalues, rayleigh_gap_check
from .cylinder import CylinderFunction, CylinderModel, model_for
from .energy import (
    a0_coefficient,
    appendix_report,
    bounds_report,
    fbar,
    gap_perturbation_quotient,
    third_order_coefficient,
    two_bubble_quotient,
    zhat,
)
from .minimizer import dip_start, estimate_cbe, minimize_quotient, quotient, random_start

__version__ = "0.1.0"

__all__ = [
    "CknParams",
    "CylinderFunction",
    "CylinderModel",
    "DegenerateBoundary",
    "GridSpec",
    "InvalidParameters",
    "ParameterError",
    "RegionClass",
    "a0_coefficient",
    "appendix_report",
    "bounds_report",
    "bubble_w",
    "classify",
    "curve_constants",
    "dip_start",
    "eigenvalue_closed",
    "estimate_cbe",
    "fbar",
    "felli_schneider",
    "gap_perturbation_quotient",
    "generalized_eigenvalues",
    "generator_v",
    "make_params",
    "minimize_quotient",
    "model_for",
    "optimal_constant",
    "psi",
    "psi_norms",
    "psi_prime",
    "quotient",
    "random_start",
    "rayleigh_gap_check",
    "rho_02",
    "rho_10",
    "spectral_gap",
    "third_order_coefficient",
    "two_bubble_quotient",
    "zhat",
]
