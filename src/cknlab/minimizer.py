"""Sobolev-gradient descent on the stability quotient over discretized cylinder functions.

The quotient

    Q(v) = (|v|_H1^2 - C^-1 |v|_{p+1}^2) / dist^2(v, manifold)

is homogeneous of degree zero, so the gradient is automatically tangent to the
normalization constraint |v|_{p+1} = 1 that each iterate is rescaled to.  The
distance term is differentiated through the envelope property: at the optimal
shift the derivative with respect to the shift vanishes, so only the explicit
dependence on the samples survives.  Iterates that sink below the manifold
guard are rejected and the step halved, since the quotient is undefined on the
manifold itself.

Each step goes along the H1 Riesz representative of the sample gradient, the
gradient divided by the Fourier multiplier omega^2 + tau_d of the H1 form
(Neuberger's Sobolev gradient), which removes the omega^2 growth that stalls
plain sample-gradient steps.  A start that is even in t keeps only the even
part of each gradient.  For an even v the overlap <v, Psi_s^p> has two tied
maxima at mirror-image shifts, so Q is the larger of two smooth branches, but
their gradients are mirror images with one even part: along even functions Q
is differentiable (Danskin), and the descent can stop on stationarity.
"""

from __future__ import annotations

import math
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
from .params import CknParams, InvalidParameters

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

MANIFOLD_GUARD = 1e-8
ON_MANIFOLD_TOL = 1e-10
# descent recipe: first trial step and cap of the backtracking step along the
# H1 gradient, relative tolerance on its H1 norm, the relative odd part below
# which a start counts as even in t, and the H1 size of a random start's
# perturbation relative to the bubble's
INITIAL_STEP = 1.0
MAX_STEP = 4.0
GRADIENT_TOL = 1e-6
EVEN_TOL = 1e-12
RANDOM_AMPLITUDE = 0.05
# separations s * gamma of the two-bubble dip scan
DIP_SEPARATIONS = np.arange(5, 61) / 10.0


class OnManifold(RuntimeError):
    """The function is (numerically) a scaled shifted bubble; Q is undefined."""


class NoDescent(RuntimeError):
    """Line search failed on the very first iterate."""


class NumericalFailure(RuntimeError):
    """A result violated its guaranteed bound."""


@dataclass(frozen=True)
class QuotientReport:
    """Quotient evaluation or minimization outcome.

    ``gradient_norm`` is the H1 norm of the last gradient computed, and
    ``stop`` says why the descent ended: ``"gradient"`` (that norm reached the
    tolerance), ``"cap"`` (the iteration cap) or ``"stall"`` (the line search
    found no descent); ``"limit"`` marks the gap limit of ``estimate_cbe``,
    which no descent reached.
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
    """An L^{p+1}-normalized function with the pieces of its quotient and gradient.

    Normalization makes int |v|^{p+1} = 1, so the numerator is |v|_H1^2 - C^-1.
    Row k of ``lp1_grads`` belongs to ``v.degrees[k]``.
    """

    v: CylinderFunction
    lp1_grads: np.ndarray
    projection: ManifoldProjection
    numerator: float

    @property
    def value(self) -> float:
        return self.numerator / self.projection.distance_sq


def _require_off_manifold(projection: ManifoldProjection) -> None:
    if projection.distance_sq <= ON_MANIFOLD_TOL * projection.h1_sq:
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
        numerator, projection = m.quotient_parts(v, 1.0)
        return _Iterate(
            v=v, lp1_grads=c**self.p * lp1_grads, projection=projection, numerator=numerator
        )

    def _numerator_grads(
        self, h1_grads: np.ndarray, lp1_pow: float, lp1_grads: np.ndarray
    ) -> np.ndarray:
        # d/df of C^-1 (int |v|^{p+1})^{2/(p+1)} through the L^{p+1} gradient
        p = self.p
        factor = self.model.c_inv * 2.0 / (p + 1.0) * lp1_pow ** (2.0 / (p + 1.0) - 1.0)
        return h1_grads - factor * lp1_grads

    def gradient(self, it: _Iterate) -> np.ndarray:
        """dQ/d(samples), row k for ``it.v.degrees[k]``, analytic through the
        envelope property."""
        m = self.model
        projection = it.projection
        h1_grads = m.h1_gradient(it.v)
        num_grads = self._numerator_grads(h1_grads, 1.0, it.lp1_grads)
        # overlap gradient at the optimal shift, in the radial row only; the
        # shift's own derivative drops out by the envelope property
        dist_grads = h1_grads.copy()
        if 0 in it.v.degrees:
            grad_overlap0 = m.overlap_gradient(projection.shift)
            dist_grads[0] -= 2.0 * m.kappa * projection.overlap * grad_overlap0
        return (num_grads - it.value * dist_grads) / projection.distance_sq

    def numerator_gradient(self, v: CylinderFunction) -> np.ndarray:
        """Gradient of the numerator alone, row k for ``v.degrees[k]`` (used by
        the correctness checks)."""
        lp1_pow, lp1_grads = self.model.lp1_pow(v, with_gradient=True)
        return self._numerator_grads(self.model.h1_gradient(v), lp1_pow, lp1_grads)


def dip_start(model: CylinderModel) -> tuple[str, CylinderFunction]:
    """The centred two-bubble function Psi_{-s/2} + Psi_{s/2} at the separation
    of least Q among s * gamma in DIP_SEPARATIONS, with its start label."""
    params = model.params
    best = None
    for s in DIP_SEPARATIONS / params.gamma:
        pair = psi(params, model.t + 0.5 * s) + psi(params, model.t - 0.5 * s)
        v = model.function({0: model.sqrt_area * pair})
        numerator, projection = model.quotient_parts(v)
        # a separation that lands on the manifold has no quotient
        off = projection.distance_sq > ON_MANIFOLD_TOL * projection.h1_sq
        q = numerator / projection.distance_sq if off else math.inf
        if best is None or q < best[0]:
            best = (q, s, v)
    _, s, v = best
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
    numerator, projection = model_for(v.params).quotient_parts(v)
    _require_off_manifold(projection)
    value = numerator / projection.distance_sq
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


def minimize_quotient(start: CylinderFunction, max_iterations: int) -> QuotientReport:
    """Backtracking H1-gradient descent on Q with the L^{p+1} normalization,
    from ``start`` on the model of its parameter point.

    A start that is even in t descends along the even part of each gradient.
    Steps that collapse onto the manifold guard are rejected with the step
    halved.  The search stops when the H1 norm of the gradient reaches
    GRADIENT_TOL max(1, |Q|), after ``max_iterations`` steps, or when the line
    search finds no descent; the report, labelled ``start="explicit"``, says
    which in ``stop``.
    """
    model = model_for(start.params)
    objective = _Objective(model)
    it = objective.normalized(start)
    _require_off_manifold(it.projection)
    even = _is_even(it.v)
    trace = [(0, it.value)]
    step = INITIAL_STEP
    grad_norm = math.nan
    iterations = 0
    stop = "cap"
    for iteration in range(1, max_iterations + 1):
        grads = objective.gradient(it)
        if even:
            grads = 0.5 * (grads + grads[:, ::-1])
        riesz = model.riesz(it.v.degrees, grads)
        q = it.value
        # <G, (h (D^T D + tau))^-1 G> = 2 <G, R> is the squared H1 norm of the gradient
        grad_norm = math.sqrt(2.0 * float(np.sum(grads * riesz)))
        if grad_norm <= GRADIENT_TOL * max(1.0, abs(q)):
            stop = "gradient"
            break
        direction = model.from_rows(it.v.degrees, -riesz)
        alpha = step
        for _ in range(30):
            candidate = objective.normalized(combine([1.0, alpha], [it.v, direction]))
            # a step inside the manifold guard is halved like one that does not descend
            off = candidate.projection.distance_sq >= MANIFOLD_GUARD * candidate.projection.h1_sq
            if off and candidate.value <= q - 1e-12 * abs(q):
                break
            alpha *= 0.5
        else:
            if iteration == 1:
                raise NoDescent("line search failed at the first iterate")
            stop = "stall"
            break
        # the accepted candidate carries its pieces into the next gradient; an
        # accepted step always lowers Q, so the last iterate is the best
        it = candidate
        step = min(MAX_STEP, 2.0 * alpha)
        iterations = iteration
        trace.append((iteration, it.value))
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
    OnManifold is dropped.  Q(Psi + eps rho*) tends to the gap bound as
    eps -> 0, so c_BE <= gap bound.  Where the best descent ends above it, the
    report is that limit, labelled ``"gap limit"`` with ``stop="limit"``, no
    step, and NaN distance, shift and gradient norm, since no function attains
    it.  The coefficient c* of Q - gap bound ~ c* eps^2, which could put c_BE
    below the bound, is not computed.  The exit value must respect
    0 < Q <= min(gap bound, two-bubble bound) + 1e-3 or a NumericalFailure is raised.
    """
    if starts < 0:
        raise InvalidParameters(f"starts >= 0 violated: {starts}")
    model = model_for(params)
    menu = [dip_start(model)] + [random_start(model, seed + k) for k in range(starts)]
    best = None
    for label, start in menu:
        try:
            report = minimize_quotient(start, max_iterations)
        except (NoDescent, OnManifold):
            continue
        if best is None or report.value < best.value:
            best = replace(report, start=label)
    if best is None:
        raise NumericalFailure("no start produced a usable minimization")
    bounds = best.bounds
    if best.value > bounds.bound_gap:
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
