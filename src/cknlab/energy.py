"""Expansion coefficients and upper bounds for the stability quotient.

Two families of test functions pin the quotient from above:

* a widely separated two-bubble superposition, giving Q below 2 - 2^(2/(p+1))
  with an exponentially small deficit whose rate constant involves the tail
  overlap coefficient A0;
* a small perturbation of the bubble along the gap eigenfunction, giving Q
  below the gap constant with a linear-in-epsilon deficit driven by the cubic
  moment <Psi^(p-2), rho_02^3>.

In the region where the degree-one eigenfunction attains the gap, the cubic
moment vanishes by parity and the quartic coefficient decides; it is negative
throughout, which is the numerical evidence that the perturbation cannot push
the quotient below the gap constant there.

Two published display conventions are intentionally reported side by side
rather than silently merged: the two-bubble bound exponent (2/(p+1) is used;
the 1/(p+1) variant is reported), and the quartic coefficient evaluated with
the surface-area-free closed form of the optimal constant (the ``zhat``
display value) versus with the variational constant (``zhat_variational``,
the one that drives the actual quotient expansion).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .params import CknParams, InvalidParameters, RegionClass, classify, curve_constants
from .specfun import beta, sphere_moments
from .spectrum import eigenvalue_closed, spectral_gap

__all__ = [
    "AppendixReport",
    "BoundsReport",
    "GapPerturbationReport",
    "TwoBubbleReport",
    "ZhatReport",
    "a0_coefficient",
    "appendix_report",
    "bounds_report",
    "fbar",
    "gap_perturbation_quotient",
    "rho02_h1_norm_sq",
    "rho02_weighted_moment",
    "third_order_coefficient",
    "two_bubble_quotient",
    "zhat",
]

# predicted two-bubble deficits under this many eps * bound are rounding noise
DEFICIT_NOISE = 1e3
_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)


def _log_amplitude(params: CknParams) -> float:
    """log of the bubble amplitude ((p+1)(a_c-a)^2/2)^(1/(p-1)), which itself
    leaves the double range near p -> 1."""
    return math.log((params.p + 1.0) * params.ac_minus_a**2 / 2.0) / (params.p - 1.0)


def _exp(log_value: float) -> float:
    """exp(log_value), or NaN where it overflows the double range; below the
    range it flushes to zero, as a product of doubles does."""
    return math.exp(log_value) if log_value < _LOG_MAX else math.nan


def _scaled(x: float, log_scale: float) -> float:
    """x exp(log_scale) through logarithms, with ``_exp``'s range rule."""
    return math.copysign(_exp(math.log(abs(x)) + log_scale), x) if x else x


def _ratio(x: float, y: float) -> float:
    """x / y, or NaN where y is not positive or the ratio overflows, as near
    p -> 1 it can."""
    ratio = x / y if 0.0 < y < math.inf else math.nan
    return ratio if math.isfinite(ratio) else math.nan


@dataclass(frozen=True)
class BoundsReport:
    """Upper bounds on the stability quotient at one parameter point.

    ``bound_two_bubble_variant`` is the alternative published exponent
    1/(p+1); it is reported for comparison and never used downstream.
    """

    region: RegionClass
    bound_two_bubble: float
    bound_two_bubble_variant: float
    bound_gap: float
    effective_bound: float


def bounds_report(params: CknParams) -> BoundsReport:
    p = params.p
    gap = spectral_gap(params)
    two_bubble = 2.0 - 2.0 ** (2.0 / (p + 1.0))
    return BoundsReport(
        region=gap.region,
        bound_two_bubble=two_bubble,
        bound_two_bubble_variant=2.0 - 2.0 ** (1.0 / (p + 1.0)),
        bound_gap=gap.lambda_star,
        effective_bound=min(two_bubble, gap.lambda_star),
    )


def _log_third_order(params: CknParams) -> float:
    p, g = params.p, params.gamma
    m = (p + 1.0) / (p - 1.0)
    constant = 2.0 * (p + 1.0) * p**3 * (p + 3.0) / (g * (7.0 * p - 3.0) * (5.0 * p - 1.0))
    return (
        math.log(constant * sphere_moments(params.N).area)
        + (p - 2.0) * _log_amplitude(params)
        + math.lgamma(m) + math.lgamma(0.5) - math.lgamma(m + 0.5)
        - 3.0 * math.log(p - 1.0)
    )


def third_order_coefficient(params: CknParams) -> float:
    """Cubic moment <Psi^(p-2), rho_02^3> over the cylinder, in closed form.

    Expanding rho_02^3 in sech powers and reducing with the Beta recursion
    collapses the moment to a single Beta value:

        2 (p+1) p^3 / (gamma (7p-3)(5p-1)(p-1)^6)
        * amplitude^(p-2) * |S^(N-1)| * B((p+1)/(p-1), 1/2)
        * (p-1)^3 (p+3),

    strictly positive for p > 1.  It goes through its logarithm, since as
    p -> 1 the amplitude leaves the double range while the moment need not;
    NaN where the moment itself overflows.
    """
    return _exp(_log_third_order(params))


def rho02_weighted_moment(params: CknParams) -> float:
    """<Psi^(p-1), rho_02^2> in closed form."""
    p, g = params.p, params.gamma
    return (
        p**2
        * (p + 1.0)
        / (g * (p - 1.0) ** 2 * (5.0 * p - 1.0))
        * (p + 1.0) * params.ac_minus_a**2 / 2.0  # amplitude^(p-1), exactly
        * sphere_moments(params.N).area
        * beta((p + 1.0) / (p - 1.0), 0.5)
    )


def rho02_h1_norm_sq(params: CknParams) -> float:
    """|rho_02|_H1^2 via the eigen-identity |rho|^2 = lambda_02 p <Psi^(p-1), rho^2>."""
    lam = eigenvalue_closed(params, 0, 2).lam
    return lam * params.p * rho02_weighted_moment(params)


def _log_a0(params: CknParams) -> float:
    p, g = params.p, params.gamma
    return (
        (p + 1.0) * _log_amplitude(params)
        + math.log(sphere_moments(params.N).area)
        + (p + 3.0) / (p - 1.0) * _LN2
        + math.log((p - 1.0) / (g * (p + 1.0)))
    )


def a0_coefficient(params: CknParams) -> float:
    """Tail overlap coefficient A0 = lim e^(2 gamma s/(p-1)) <Psi^p, Psi_s>.

    A Beta-function value in closed form: the tail-weighted bubble power gives

        A0 = amplitude^(p+1) |S^(N-1)| 2^(2/(p-1))
             * int cosh(gamma t)^(-2p/(p-1)) e^(2 gamma t/(p-1)) dt
           = amplitude^(p+1) |S^(N-1)| 2^((p+3)/(p-1)) (p-1) / (gamma (p+1));

    the 2^(2/(p-1)) factor is the bubble tail amplitude and the surface area
    closes the cylinder integral, so that the two-bubble norm expansion
    |Psi + Psi_s|_H1^2 = 2 |Psi|_H1^2 + 2 A0 e^(-2 gamma s/(p-1)) + ...
    holds numerically with coefficient exactly A0.  Evaluated through its
    logarithm; NaN where A0 overflows the double range, as it can near p -> 1.
    """
    return _exp(_log_a0(params))


@dataclass(frozen=True)
class TwoBubbleReport:
    """Quotient at a two-bubble test function with its predicted expansion."""

    s: float
    value: float
    distance_sq: float
    shift: float
    numerator: float
    bounds: BoundsReport
    a0: float
    deficit: float
    deficit_rate: float
    predicted_deficit_rate: float
    predicted_deficit_rate_display: float
    predicted_value: float
    dist_ratio: float


def two_bubble_quotient(params: CknParams, s: float) -> TwoBubbleReport:
    """Q(Psi + Psi_s) together with the predicted exponential deficit.

    ``predicted_deficit_rate`` is the rate constant implied by the norm and
    distance expansions, 2 (2^(2/(p+1)) - 1) A0 / |Psi|_H1^2; the published
    display variant 2 A0 C^(2/(p-1)) is reported alongside for comparison.
    ``deficit_rate`` is NaN where the predicted deficit, that rate times the
    decay exp(-2 gamma s/(p-1)), is rounding noise, as it is near p -> 1.
    Both rates go through logarithms, and a value that overflows the double
    range is NaN; so is ``value`` where ``CylinderModel.quotient`` leaves Q
    undefined, at a squared distance of at most ON_MANIFOLD_TOL |v|_H1^2.
    """
    from .cylinder import model_for

    model = model_for(params)
    if not 0.0 < s < model.grid.half_width / 2.0:
        raise InvalidParameters("two-bubble separation must lie in (0, half the search window)")
    p = params.p
    v = model.two_bubble(s)
    value, numerator, projection = model.quotient(v)
    dist_sq = projection.distance_sq
    bounds = bounds_report(params)
    log_a0 = _log_a0(params)
    # A0/|Psi|_H1^2 = 2^((p+3)/(p-1)) (p-1)/((p+1) B((p+1)/(p-1), 1/2)): no amplitude
    log_a0_over_energy = (p + 3.0) / (p - 1.0) * _LN2 + math.log(
        (p - 1.0) / ((p + 1.0) * beta((p + 1.0) / (p - 1.0), 0.5))
    )
    log_rate = math.log(2.0 * (2.0 ** (2.0 / (p + 1.0)) - 1.0)) + log_a0_over_energy
    # C^(2/(p-1)) = |Psi|_H1^(-4/(p+1))
    log_rate_display = _LN2 + log_a0 - 2.0 / (p + 1.0) * (log_a0 - log_a0_over_energy)
    log_decay = -2.0 * params.gamma * s / (p - 1.0)
    predicted_deficit = _exp(log_rate + log_decay)
    deficit = bounds.bound_two_bubble - value
    noise = DEFICIT_NOISE * sys.float_info.epsilon * bounds.bound_two_bubble
    measured_rate = _ratio(deficit, math.exp(log_decay)) if predicted_deficit >= noise else math.nan
    return TwoBubbleReport(
        s=s,
        value=value,
        distance_sq=dist_sq,
        shift=projection.shift,
        numerator=numerator,
        bounds=bounds,
        a0=_exp(log_a0),
        deficit=deficit,
        deficit_rate=measured_rate,
        predicted_deficit_rate=_exp(log_rate),
        predicted_deficit_rate_display=_exp(log_rate_display),
        predicted_value=bounds.bound_two_bubble - predicted_deficit,
        dist_ratio=_ratio(dist_sq, model.energy_psi),
    )


@dataclass(frozen=True)
class GapPerturbationReport:
    """Quotient at Psi + eps rho_02 with the linear deficit prediction."""

    eps: float
    value: float
    distance_sq: float
    numerator: float
    bounds: BoundsReport
    limit: float
    slope: float
    predicted_value: float


def gap_perturbation_quotient(params: CknParams, eps: float) -> GapPerturbationReport:
    """Q(Psi + eps rho_02) and the expansion limit - slope * eps.

    The epsilon -> 0 limit is the radial gap value (lambda_02 - 1)/lambda_02,
    which equals the gap constant in CaseI/CaseII; the slope is
    p(p-1)/3 * <Psi^(p-2), rho_02^3> / |rho_02|_H1^2.  ``value`` is NaN
    where ``CylinderModel.quotient`` leaves Q undefined, at a squared distance
    of at most ON_MANIFOLD_TOL |v|_H1^2, and the slope where it overflows the
    double range.
    """
    from .cylinder import combine, model_for

    if not 0.0 < eps <= 0.2:
        raise InvalidParameters("eps must lie in (0, 0.2]")
    model = model_for(params)
    p = params.p
    v = combine([1.0, eps], [model.psi_function(), model.rho02_function()])
    value, numerator, projection = model.quotient(v)
    dist_sq = projection.distance_sq
    lam02 = eigenvalue_closed(params, 0, 2).lam
    limit = (lam02 - 1.0) / lam02
    slope = _scaled(p * (p - 1.0) / 3.0 / rho02_h1_norm_sq(params), _log_third_order(params))
    return GapPerturbationReport(
        eps=eps,
        value=value,
        distance_sq=dist_sq,
        numerator=numerator,
        bounds=bounds_report(params),
        limit=limit,
        slope=slope,
        predicted_value=limit - slope * eps,
    )


@dataclass(frozen=True)
class ZhatReport:
    """Quartic coefficient of the degree-one perturbation expansion.

    ``value`` follows the published display (surface-area-free optimal
    constant in the quartic recombination); ``value_variational`` uses the
    variational constant and is the coefficient that actually appears in the
    quotient expansion Q = lambda* - value_variational/|rho|^2 eps^2 + ...
    """

    value: float
    value_variational: float
    prefactor: float
    bracket: float
    moment4: float
    moment2: float
    q_star: float
    d_n: float
    pole_flag: bool


def zhat(params: CknParams) -> ZhatReport:
    p, g, d = params.p, params.gamma, params.ac_minus_a
    n_dim = params.N
    moments = sphere_moments(n_dim)
    area, d_n = moments.area, moments.d_n
    k1 = math.sqrt(params.tau(1)) / g

    b1 = beta((p - 3.0) / (p - 1.0) + 2.0 * k1, 0.5)
    b2 = beta(1.0 + k1, 0.5)
    b3 = beta((p + 1.0) / (p - 1.0), 0.5)

    # amp^(p-1) = (p+1) d^2/2 exactly, and |Psi|_H1^2 = amp^(p+1) |S| b3/gamma, so
    # moment2^2/|Psi|_H1^2 = amp^(p-3) second^2 b2^2/(gamma |S| b3) with no amp^(p+1);
    # amp^(p-3), which leaves the double range near p -> 1, goes as its logarithm
    log_scale = (p - 3.0) * _log_amplitude(params)
    value_var = _scaled(
        p * (p - 1.0) * (p - 2.0) / 12.0 * moments.fourth / g * b1
        - (p - 1.0) * p**2 / 4.0 * moments.second**2 * b2 * b2 / (g * area * b3),
        log_scale,
    )
    # display convention: the quartic recombined with the surface-area-free
    # closed form of the optimal constant, whose prefactor is
    # d^((p-5)/(p-1)) ((p+1)/2)^((p-3)/(p-1)) p |S|/(2N(N+2)) = amp^(p-3) p |S|/(2N(N+2) d);
    # (p-2) is kept inside the bracket so the product stays finite across p = 2
    log_prefactor = log_scale + math.log(p * area / (2.0 * n_dim * (n_dim + 2.0)) / d)
    pole = abs(p - 2.0) < 1e-9
    bracket = math.nan if pole else b1 - p * d_n * b2 * b2 / ((p - 2.0) * b3)
    return ZhatReport(
        value=_scaled((p - 2.0) * b1 - p * d_n * b2 * b2 / b3, log_prefactor),
        value_variational=value_var,
        prefactor=_scaled(p - 2.0, log_prefactor),
        bracket=bracket,
        moment4=_scaled(moments.fourth / g * b1, log_scale),
        moment2=(p + 1.0) * d * d / 2.0 * moments.second / g * b2,
        q_star=params.q_star,
        d_n=d_n,
        pole_flag=pole,
    )


def fbar(params: CknParams, p: float) -> float:
    """Sign-analysis quartic in the exponent, negative throughout the region
    where the quartic coefficient matters."""
    d_n = sphere_moments(params.N).d_n
    qs = params.q_star
    return (
        -2.0 * d_n * p**4
        - 2.0 * (4.0 * d_n - 5.0) * (2.0 * qs - 1.0) * p**3
        - (17.0 * (2.0 * qs - 1.0) + 2.0 * d_n * (8.0 * qs - 5.0)) * p**2
        - 7.0 * (2.0 * qs - 1.0) * p
        + 2.0 * (2.0 * qs - 1.0)
    )


@dataclass(frozen=True)
class AppendixReport:
    """Sub-thresholds, the quartic coefficient, and its sign conclusion."""

    region: RegionClass
    p: float
    q_star: float
    b_fs_double_star: float
    a_c_double_star: float
    a_c_triple_star: float
    p_above_2: bool
    zhat: ZhatReport
    fbar_at_p: float
    sign_negative: bool


def appendix_report(params: CknParams) -> AppendixReport:
    curves = curve_constants(params.N)
    z = zhat(params)
    return AppendixReport(
        region=classify(params).region,
        p=params.p,
        q_star=params.q_star,
        b_fs_double_star=curves.b_fs_double_star(params.a),
        a_c_double_star=curves.a_c_double_star,
        a_c_triple_star=curves.a_c_triple_star,
        p_above_2=params.p > 2.0,
        zhat=z,
        fbar_at_p=fbar(params, params.p),
        # the sign of the scale-free bracket, (p-2) bracket away from the pole
        sign_negative=bool(z.pole_flag or (params.p - 2.0) * z.bracket < 0.0),
    )
