"""H1-metric L-BFGS descent on the stability quotient over discretized cylinder functions.

The quotient

    Q(v) = (|v|_H1^2 - C^-1 |v|_{p+1}^2) / dist^2(v, manifold)

is homogeneous of degree zero, so the gradient is automatically tangent to the
normalization constraint |v|_{p+1} = 1 that each iterate is rescaled to.  The
distance term is differentiated through the envelope property: at the optimal
shift the derivative with respect to the shift vanishes, so only the explicit
dependence on the samples survives.  Iterates that sink below the manifold
guard are rejected and the step halved, since the quotient is undefined on the
manifold itself.

The steps are limited-memory BFGS (Liu & Nocedal 1989) in the H1 metric: the
two-loop recursion runs on the sample gradients, and its initial inverse
Hessian is a multiple of the H1 Riesz map, the gradient divided by the Fourier
multiplier omega^2 + tau_d of the H1 form (Neuberger's Sobolev gradient),
which removes the omega^2 growth that stalls plain sample-gradient steps.  A
start that is even in t keeps only the even part of each gradient.  For an
even v the overlap <v, Psi_s^p> has two tied maxima at mirror-image shifts, so
Q is the larger of two smooth branches, but their gradients are mirror images
with one even part: along even functions Q is differentiable (Danskin), and
the descent can stop on stationarity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .cylinder import (
    CylinderFunction,
    CylinderModel,
    ManifoldProjection,
    combine,
    model_for,
    scale,
)
from .energy import BoundsReport, bounds_report
from .extremals import psi
from .params import CknParams, InvalidParameters, NoDescent, NumericalFailure, OnManifold

__all__ = [
    "NoDescent",
    "NumericalFailure",
    "OnManifold",
    "QuotientReport",
    "dip_start",
    "estimate_cbe",
    "minimize_quotient",
    "quotient",
    "random_start",
]

# an accepted step keeps dist^2 above this share of |v|_H1^2, well clear of the
# manifold, where the roundoff of Q grows like eps_mach / dist^2
MANIFOLD_GUARD = 1e-8
# a descent that reaches dist^2 below this share of |v|_H1^2 stops: there the
# roundoff of Q (about 2e-8) exceeds Q - gap bound, which it approaches
NEAR_MANIFOLD = 100.0 * MANIFOLD_GUARD
# descent recipe: L-BFGS memory, Armijo constant, least relative decrease of
# an accepted step (the rounding floor of Q), relative tolerance on the H1
# norm of the gradient, the relative odd part below which a start counts as
# even in t, and the H1 size of a random start's perturbation relative to the
# bubble's
MEMORY = 8
ARMIJO = 1e-4
DECREASE_TOL = 1e-12
GRADIENT_TOL = 1e-6
EVEN_TOL = 1e-12
RANDOM_AMPLITUDE = 0.05
# two-bubble dip search in s * gamma: the coarse scan, the half-width of the
# bracket refined around its best, and the width that refinement stops at
DIP_SCAN = np.arange(1, 13) / 2.0
DIP_BRACKET = 0.5
DIP_WIDTH = 0.02
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# a later start replaces the best only if its Q is lower by more than
# TIE_TOL max(1, |Q|): like the gradient test, a stop resolves Q to an absolute
# level, and descents that reach one minimum stop up to 4.4e-12 apart
TIE_TOL = 1e-11


@dataclass(frozen=True)
class QuotientReport:
    """Quotient evaluation or minimization outcome.

    ``gradient_norm`` is the H1 norm of the last gradient computed, and
    ``stop`` says why the descent ended: ``"gradient"`` (that norm reached the
    tolerance), ``"cap"`` (the iteration cap), ``"stall"`` (the line search
    found no descent) or ``"manifold"`` (the iterate came within NEAR_MANIFOLD
    of the manifold, where Q - gap bound is below Q's roundoff); ``"limit"``
    marks the gap limit of ``estimate_cbe``, which no descent reached.
    """

    value: float
    distance_sq: float
    shift: float
    bounds: BoundsReport
    iterations: int
    gradient_norm: float
    trace: tuple[tuple[int, float], ...]
    start: str = "evaluation"
    stop: str = "evaluation"


@dataclass(frozen=True)
class _Iterate:
    """An L^{p+1}-normalized function with its quotient and the pieces of its
    gradient.

    Normalization makes int |v|^{p+1} = 1, which the gradient's numerator term
    assumes.  Row k of ``lp1_grads`` belongs to ``v.degrees[k]``.
    """

    v: CylinderFunction
    lp1_grads: np.ndarray
    projection: ManifoldProjection
    value: float


def _require_off_manifold(value: float) -> None:
    # CylinderModel.quotient leaves Q NaN where the distance is numerically zero
    if math.isnan(value):
        raise OnManifold("distance to the bubble manifold is numerically zero")


class _Objective:
    """Quotient, gradient, and bookkeeping on a fixed model."""

    def __init__(self, model: CylinderModel):
        self.model = model
        self.p = model.params.p

    def normalized(self, v: CylinderFunction) -> _Iterate:
        """Rescale ``v`` to unit L^{p+1} norm, from one pass over its samples."""
        m = self.model
        lp1_pow, lp1_grads = m.lp1_pow(v, with_gradient=True)
        c = 1.0 / lp1_pow ** (1.0 / (self.p + 1.0))
        v = scale(v, c)
        # int |c v|^{p+1} = 1 by homogeneity, and its gradient scales by c^p
        value, _, projection = m.quotient(v, 1.0)
        return _Iterate(v=v, lp1_grads=c**self.p * lp1_grads, projection=projection, value=value)

    def gradient(self, it: _Iterate) -> np.ndarray:
        """dQ/d(samples), row k for ``it.v.degrees[k]``, analytic through the
        envelope property."""
        m = self.model
        projection = it.projection
        h1_grads = m.h1_gradient(it.v)
        # d/df of C^-1 (int |v|^{p+1})^{2/(p+1)} at int |v|^{p+1} = 1
        num_grads = h1_grads - m.c_inv * 2.0 / (self.p + 1.0) * it.lp1_grads
        # overlap gradient at the optimal shift, in the radial row only; the
        # shift's own derivative drops out by the envelope property
        dist_grads = h1_grads.copy()
        if 0 in it.v.degrees:
            grad_overlap0 = m.overlap_gradient(projection.shift)
            dist_grads[0] -= 2.0 * m.kappa * projection.overlap * grad_overlap0
        return (num_grads - it.value * dist_grads) / projection.distance_sq


def dip_start(model: CylinderModel) -> tuple[str, CylinderFunction]:
    """The centred two-bubble function Psi_{-s/2} + Psi_{s/2} of least Q found
    by a bracketed search in s * gamma, with its start label.

    The coarse scan DIP_SCAN (0.5, 1.0, ..., 6.0) brackets the dip; golden
    sections refine the DIP_BRACKET neighbourhood of its best, inside the
    scan's range, down to DIP_WIDTH.  The start is the best function
    evaluated in either stage.
    """
    params = model.params
    evaluated = []

    def q_at(x: float) -> float:
        s = x / params.gamma
        pair = psi(params, model.t + 0.5 * s) + psi(params, model.t - 0.5 * s)
        v = model.function({0: model.sqrt_area * pair})
        q, _, _ = model.quotient(v)
        # a separation that lands on the manifold has no quotient
        q = math.inf if math.isnan(q) else q
        evaluated.append((q, s, v))
        return q

    scan = [q_at(x) for x in DIP_SCAN]
    centre = DIP_SCAN[scan.index(min(scan))]
    lo = max(centre - DIP_BRACKET, DIP_SCAN[0])
    hi = min(centre + DIP_BRACKET, DIP_SCAN[-1])
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    q1, q2 = q_at(x1), q_at(x2)
    while hi - lo > DIP_WIDTH:
        if q1 <= q2:
            hi, x2, q2 = x2, x1, q1
            x1 = hi - GOLDEN * (hi - lo)
            q1 = q_at(x1)
        else:
            lo, x1, q1 = x1, x2, q2
            x2 = lo + GOLDEN * (hi - lo)
            q2 = q_at(x2)
    _, s, v = min(evaluated, key=lambda entry: entry[0])
    return f"two-bubble dip s={s:.4g}", v


def random_start(model: CylinderModel, seed: int) -> tuple[str, CylinderFunction]:
    """Psi plus a seeded smooth perturbation orthogonal to the soft modes, of
    H1 size RANDOM_AMPLITUDE |Psi|_H1, with its start label."""
    noise = model.random_mperp(seed, RANDOM_AMPLITUDE * math.sqrt(model.energy_psi))
    return f"random seed={seed}", combine([1.0, 1.0], [model.psi_function(), noise])


def quotient(v: CylinderFunction) -> QuotientReport:
    """Evaluate the quotient at one function.

    Raises OnManifold when the distance is numerically zero relative to the
    function's energy.
    """
    value, _, projection = model_for(v.params).quotient(v)
    _require_off_manifold(value)
    return QuotientReport(
        value=value,
        distance_sq=projection.distance_sq,
        shift=projection.shift,
        bounds=bounds_report(v.params),
        iterations=0,
        gradient_norm=math.nan,
        trace=((0, value),),
    )


def _is_even(v: CylinderFunction) -> bool:
    """Whether every profile of ``v`` is even in t to EVEN_TOL relative; the
    grid is symmetric about t = 0 only to about one ulp."""
    odd = np.max(np.abs(v.values - v.values[:, ::-1]))
    return bool(odd <= EVEN_TOL * np.max(np.abs(v.values)))


def _lbfgs_direction(
    model: CylinderModel, degrees: tuple[int, ...], grads: np.ndarray, pairs: deque
) -> np.ndarray:
    """-H grads by the L-BFGS two-loop recursion over ``pairs`` of (s, y, <s, y>),
    oldest first, with H0 = gamma riesz and gamma = <s, y> / <y, riesz(y)> of
    the newest pair."""
    q = grads.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = float(np.sum(s * q)) / sy
        q -= alpha * y
        alphas.append(alpha)
    _, y, sy = pairs[-1]
    r = sy / float(np.sum(y * model.riesz(degrees, y))) * model.riesz(degrees, q)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - float(np.sum(y * r)) / sy) * s
    return -r


def minimize_quotient(start: CylinderFunction, max_iterations: int) -> QuotientReport:
    """H1-metric L-BFGS descent on Q with the L^{p+1} normalization, from
    ``start`` on the model of its parameter point.

    A start that is even in t descends along the even part of each gradient.
    Each step backtracks from alpha = 1 along the L-BFGS direction (the Riesz
    gradient where that is no descent direction) until Q falls by the Armijo
    share ARMIJO of the slope and by DECREASE_TOL |Q|; steps that collapse
    onto the manifold guard are halved alike.  The search stops when the H1
    norm of the gradient reaches GRADIENT_TOL max(1, |Q|), after
    ``max_iterations`` steps, when the line search finds no descent, or when
    an iterate comes within NEAR_MANIFOLD of the manifold; the report,
    labelled ``start="explicit"``, says which in ``stop``.
    """
    model = model_for(start.params)
    objective = _Objective(model)
    it = objective.normalized(start)
    _require_off_manifold(it.value)
    even = _is_even(it.v)
    degrees = it.v.degrees
    trace = [(0, it.value)]
    pairs: deque = deque(maxlen=MEMORY)
    previous = None
    grad_norm = math.nan
    iterations = 0
    while True:
        if it.projection.distance_sq < NEAR_MANIFOLD * it.projection.h1_sq:
            stop = "manifold"
            break
        grads = objective.gradient(it)
        if even:
            grads = 0.5 * (grads + grads[:, ::-1])
        riesz = model.riesz(degrees, grads)
        q = it.value
        # <G, (h (D^T D + tau))^-1 G> = 2 <G, R> is the squared H1 norm of the gradient
        grad_sq = float(np.sum(grads * riesz))
        grad_norm = math.sqrt(2.0 * grad_sq)
        if grad_norm <= GRADIENT_TOL * max(1.0, abs(q)):
            stop = "gradient"
            break
        if iterations == max_iterations:
            stop = "cap"
            break
        if previous is not None:
            s, y = it.v.values - previous[0], grads - previous[1]
            sy = float(np.sum(s * y))
            # a pair without positive curvature would make H indefinite
            if sy > 0.0:
                pairs.append((s, y, sy))
        direction = _lbfgs_direction(model, degrees, grads, pairs) if pairs else -riesz
        slope = float(np.sum(grads * direction))
        if not slope < 0.0:
            direction, slope = -riesz, -grad_sq
        alpha = 1.0
        for _ in range(30):
            trial = model.from_rows(degrees, it.v.values + alpha * direction)
            candidate = objective.normalized(trial)
            # a step inside the manifold guard is halved like one that does not descend
            off = candidate.projection.distance_sq >= MANIFOLD_GUARD * candidate.projection.h1_sq
            ceiling = min(q + ARMIJO * alpha * slope, q - DECREASE_TOL * abs(q))
            if off and candidate.value <= ceiling:
                break
            alpha *= 0.5
        else:
            if iterations == 0:
                raise NoDescent("line search failed at the first iterate")
            stop = "stall"
            break
        # the accepted candidate carries its pieces into the next gradient; an
        # accepted step always lowers Q, so the last iterate is the best
        previous = (it.v.values, grads)
        it = candidate
        iterations += 1
        trace.append((iterations, it.value))
    projection = it.projection
    return QuotientReport(
        value=it.value,
        distance_sq=projection.distance_sq,
        shift=projection.shift,
        bounds=bounds_report(start.params),
        iterations=iterations,
        gradient_norm=grad_norm,
        trace=tuple(trace),
        start="explicit",
        stop=stop,
    )


def estimate_cbe(
    params: CknParams,
    starts: int = 2,
    seed: int = 0,
    max_iterations: int = 60,
) -> QuotientReport:
    """Multi-start quotient minimization; returns the best report, labelled
    with its start, or the gap bound where every descent ends above it.

    The start menu is a list of (label, function) pairs: the two-bubble dip
    (``dip_start``) and ``starts`` seeded random perturbations of Psi, each
    descended by ``minimize_quotient``; a start that raises NoDescent or
    OnManifold is dropped.  A later start replaces the best only if its value
    is lower by more than TIE_TOL max(1, |Q|), so that starts reaching one
    minimum keep the first label.  Q(Psi + eps rho*) tends to the gap bound as
    eps -> 0, so c_BE <= gap bound.  Where the best descent ends above it, or
    every descent stops near the manifold (``stop="manifold"``, where
    Q - gap bound is below Q's roundoff and counts as an approach to that
    bound), the report is that limit, labelled ``"gap limit"`` with
    ``stop="limit"``, no step, and NaN distance, shift and gradient norm,
    since no function attains it.  The coefficient c* of Q - gap bound ~
    c* eps^2, which could put c_BE below the bound, is not computed.  The exit
    value must respect 0 < Q <= min(gap bound, two-bubble bound) + 1e-3 or a
    NumericalFailure is raised.  One is also raised, before any start is
    built, where Psi leaves the double range on the grid (near p -> 1): the
    model's constants are then NaN, and no start can be normalized.
    """
    if starts < 0:
        raise InvalidParameters(f"starts >= 0 violated: {starts}")
    model = model_for(params)
    if math.isnan(model.kappa):
        edge = "underflows" if model.energy_psi == 0.0 else "overflows"
        raise NumericalFailure(
            f"Psi {edge} on the grid at p = {params.p:.6g}: no start can be normalized"
        )
    menu = [dip_start(model)] + [random_start(model, seed + k) for k in range(starts)]
    best = None
    near_limit = False
    for label, start in menu:
        try:
            report = minimize_quotient(start, max_iterations)
        except (NoDescent, OnManifold):
            continue
        if report.stop == "manifold":
            near_limit = True
        elif best is None or report.value < best.value - TIE_TOL * max(1.0, abs(best.value)):
            best = replace(report, start=label)
    if best is None and not near_limit:
        raise NumericalFailure("no start produced a usable minimization")
    bounds = bounds_report(params)
    if best is None or best.value > bounds.bound_gap:
        best = QuotientReport(
            value=bounds.bound_gap,
            distance_sq=math.nan,
            shift=math.nan,
            bounds=bounds,
            iterations=0,
            gradient_norm=math.nan,
            trace=(),
            start="gap limit",
            stop="limit",
        )
    ceiling = min(bounds.bound_gap, bounds.bound_two_bubble) + 1e-3
    if not 0.0 < best.value <= ceiling:
        raise NumericalFailure(f"best quotient {best.value} escaped its bound {ceiling}")
    return best
