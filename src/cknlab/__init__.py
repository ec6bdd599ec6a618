"""Numerical laboratory for the stability of the weighted Sobolev inequality
of Caffarelli-Kohn-Nirenberg type.

Evaluates the closed-form objects of the theory (parameter curves, extremal
bubbles, linearization spectra, gap constants, energy-expansion coefficients),
cross-checks each against independent numerical oracles, and minimizes the
stability quotient on the cylinder to probe the optimal constant against its
proved upper bounds.

Each exported name loads its module on first use (PEP 562), so the closed
forms run without importing numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each exported name
_HOMES = {
    name: module
    for module, names in (
        ("params", "CknParams DegenerateBoundary InvalidParameters ParameterError RegionClass "
                   "classify curve_constants felli_schneider make_params"),
        ("extremals", "GridSpec bubble_w generator_v optimal_constant psi psi_norms psi_prime"),
        ("spectrum", "eigenvalue_closed rho_02 rho_10 spectral_gap"),
        ("eig_oracle", "generalized_eigenvalues rayleigh_gap_check"),
        ("cylinder", "CylinderFunction CylinderModel model_for"),
        ("energy", "a0_coefficient appendix_report bounds_report fbar gap_perturbation_quotient "
                   "third_order_coefficient two_bubble_quotient zhat"),
        ("minimizer", "degree_one_start dip_start estimate_cbe minimize_quotient quotient"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
