"""Closed-form spectrum of the linearized operator on the cylinder.

Separating in spherical harmonics of degree i reduces the linearization to a
Schrodinger problem with a sech^2 well on the axis,

    -phi'' + tau_i phi = lambda beta sech^2(gamma t) phi,
    tau_i = (a_c-a)^2 + i(N-2+i),

whose bound-state energies are classical.  Matching the level-j energy to
tau_i yields the eigenvalue family

    lambda_{i,j} = gamma^2/(4 beta) ((2j+1 + 2 sqrt(tau_i)/gamma)^2 - 1),

with lambda_{0,0} = 1/p and lambda_{0,1} = 1 exactly.  The spectral gap
constant is 1 - 1/lambda for the smallest eigenvalue above 1; which candidate
wins -- the second radial level (0,2) or the first degree-one level (1,0) --
is exactly the region split of the params module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .params import CknParams, RegionClass, classify
from .specfun import jacobi_polynomial, log_cosh

__all__ = [
    "GapReport",
    "SpectralPoint",
    "eigenfunction",
    "eigenvalue_closed",
    "harmonic_multiplicity",
    "rho_02",
    "rho_10",
    "rho_10_profile",
    "spectral_gap",
]


def harmonic_multiplicity(n_dim: int, i: int) -> int:
    """Number of independent spherical harmonics of degree i on S^(N-1)."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if i == 0:
        return 1

    def _comb(n: int, k: int) -> int:
        return math.comb(n, k) if 0 <= k <= n else 0

    return _comb(n_dim - 1 + i, i) - _comb(n_dim - 3 + i, i - 2)


@dataclass(frozen=True)
class SpectralPoint:
    """One eigenvalue lambda_{i,j} with its mode data."""

    i: int
    j: int
    tau: float
    lam: float
    multiplicity: int


def eigenvalue_closed(params: CknParams, i: int, j: int) -> SpectralPoint:
    """Closed-form eigenvalue lambda_{i,j}, the positive root of the
    level-matching condition."""
    if i < 0 or j < 0:
        raise ValueError("mode indices must be nonnegative")
    tau = params.tau(i)
    g, b = params.gamma, params.beta
    f = 2.0 * j + 1.0 + 2.0 * math.sqrt(tau) / g
    lam = g * g / (4.0 * b) * (f * f - 1.0)
    return SpectralPoint(
        i=i, j=j, tau=tau, lam=lam, multiplicity=harmonic_multiplicity(params.N, i)
    )


@dataclass(frozen=True)
class GapReport:
    """Spectral gap constant and the eigenvalue comparison behind it.

    ``lambda_star_variant`` is an alternative published closed form of the
    degree-one branch that does not vanish on the degenerate curve; it is
    reported alongside for comparison, never used.
    """

    region: RegionClass
    lambda_star: float
    winner: tuple[int, int]
    winner_multiplicity: int
    lambda_02: float
    lambda_10: float
    lambda_11: float
    lambda_star_variant: float
    boundary_note: str | None


def _lambda_star_variant(params: CknParams) -> float:
    q = params.q
    p = params.p
    root = math.sqrt(1.0 + q)
    return (2.0 * q - (p - 2.0) * (p + 1.0) + (p - 1.0) * root) / (
        2.0 + 2.0 * q + (p - 1.0) * root
    )


@lru_cache(maxsize=32)
def spectral_gap(params: CknParams) -> GapReport:
    """Gap constant lambda* = 1 - 1/min(lambda above 1), from the raw
    eigenvalue formula.

    In CaseI/CaseII the winner is (0,2) and lambda* simplifies to
    2(p-1)/(3p-1); in the Remaining region the winner is (1,0).  On the
    boundary b = b_FS*(a) both coincide.
    """
    report = classify(params)
    lam02 = eigenvalue_closed(params, 0, 2).lam
    lam10 = eigenvalue_closed(params, 1, 0).lam
    lam11 = eigenvalue_closed(params, 1, 1).lam
    if lam02 <= lam10:
        winner = (0, 2)
        lam_min = lam02
    else:
        winner = (1, 0)
        lam_min = lam10
    lam_star = 1.0 - 1.0 / lam_min
    return GapReport(
        region=report.region,
        lambda_star=lam_star,
        winner=winner,
        winner_multiplicity=harmonic_multiplicity(params.N, winner[0]),
        lambda_02=lam02,
        lambda_10=lam10,
        lambda_11=lam11,
        lambda_star_variant=_lambda_star_variant(params),
        boundary_note=report.boundary_note,
    )


def _eigenfunction_raw(params: CknParams, i: int, j: int, t):
    import numpy as np

    k = math.sqrt(params.tau(i)) / params.gamma
    y = np.tanh(params.gamma * np.asarray(t, dtype=float))
    return jacobi_polynomial(j, k, y) * np.exp(-k * log_cosh(params.gamma * np.asarray(t)))


def _eigenfunction_norm(params: CknParams, i: int, j: int) -> float:
    # testing the mode equation against phi gives |phi|_H1^2 =
    # lambda beta int sech^2(gamma t) phi^2 dt = lambda beta h_j(k) / gamma,
    # with h_j(k) the Jacobi norm int_{-1}^{1} P_j^(k,k)(y)^2 (1-y^2)^k dy;
    # log-Gamma because Gamma(j+2k+1) overflows for k > 85
    k = math.sqrt(params.tau(i)) / params.gamma
    log_h = (
        (2.0 * k + 1.0) * math.log(2.0)
        + 2.0 * math.lgamma(j + k + 1.0)
        - math.log(2.0 * j + 2.0 * k + 1.0)
        - math.lgamma(j + 1.0)
        - math.lgamma(j + 2.0 * k + 1.0)
    )
    lam = eigenvalue_closed(params, i, j).lam
    return math.sqrt(lam * params.beta / params.gamma) * math.exp(log_h / 2.0)


def eigenfunction(params: CknParams, i: int, j: int, t):
    """Axis profile P_j^(k,k)(tanh gamma t) cosh(gamma t)^(-k), k = sqrt(tau_i)/gamma,
    of the (i, j) eigenfunction, divided by its H1 norm in closed form.

    The profile multiplies an L2(S^(N-1))-orthonormal harmonic of degree i;
    the H1 normalization is per harmonic.
    """
    return _eigenfunction_raw(params, i, j, t) / _eigenfunction_norm(params, i, j)


def rho_02(params: CknParams, t):
    """Second radial eigenfunction in its explicit normalization:

    rho(t) = p cosh(gamma t)^(-2/(p-1)) / (4(p-1)^2)
             * (4(p+1) - (6p+2) sech^2(gamma t)).
    """
    import numpy as np

    p, g = params.p, params.gamma
    t = np.asarray(t, dtype=float)
    sech_sq = 1.0 / np.cosh(g * t) ** 2
    envelope = np.exp(-(2.0 / (p - 1.0)) * log_cosh(g * t))  # Psi over its amplitude
    return p * envelope / (4.0 * (p - 1.0) ** 2) * (4.0 * (p + 1.0) - (6.0 * p + 2.0) * sech_sq)


def rho_10_profile(params: CknParams, t):
    """Axis profile cosh(gamma t)^(-sqrt(tau_1)/gamma) of the degree-one
    ground state; multiplies a raw coordinate function theta_l."""
    import numpy as np

    k = math.sqrt(params.tau(1)) / params.gamma
    return np.exp(-k * log_cosh(params.gamma * np.asarray(t, dtype=float)))


def rho_10(params: CknParams, t, polar_angle):
    """Degree-one eigenfunction rho_{1,0,N}(t, theta) with the zonal
    coordinate harmonic theta_N = cos(polar angle)."""
    import numpy as np

    return rho_10_profile(params, t) * np.cos(np.asarray(polar_angle, dtype=float))
