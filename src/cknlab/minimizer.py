"""Gradient descent on the stability quotient over discretized cylinder functions.

The quotient

    Q(v) = (|v|_H1^2 - C^-1 |v|_{p+1}^2) / dist^2(v, manifold)

is homogeneous of degree zero, so the gradient is automatically tangent to the
normalization constraint |v|_{p+1} = 1 that each iterate is rescaled to.  The
distance term is differentiated through the envelope property: at the optimal
shift the derivative with respect to the shift vanishes, so only the explicit
dependence on the samples survives.  Iterates that sink below the manifold
guard are rejected and the step halved, since the quotient is undefined on the
manifold itself.
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
from .params import CknParams, RegionClass, classify

__all__ = [
    "NoDescent",
    "NumericalFailure",
    "OnManifold",
    "QuotientReport",
    "estimate_cbe",
    "gap_start",
    "minimize_quotient",
    "quotient",
    "random_start",
]

MANIFOLD_GUARD = 1e-8
ON_MANIFOLD_TOL = 1e-10
# descent recipe: first trial step, relative gradient tolerance, and the H1
# size of a random start's perturbation relative to the bubble's
INITIAL_STEP = 0.5
GRADIENT_TOL = 1e-6
RANDOM_AMPLITUDE = 0.05


class OnManifold(RuntimeError):
    """The function is (numerically) a scaled shifted bubble; Q is undefined."""


class NoDescent(RuntimeError):
    """Line search failed on the very first iterate."""


class NumericalFailure(RuntimeError):
    """A result violated its guaranteed bound."""


@dataclass(frozen=True)
class QuotientReport:
    """Quotient evaluation or minimization outcome."""

    value: float
    distance_sq: float
    shift: float
    bounds: BoundsReport
    iterations: int
    gradient_norm: float
    trace: tuple[tuple[int, float], ...]
    start: str = "evaluation"


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

    def _h1_grads(self, v: CylinderFunction) -> np.ndarray:
        m = self.model
        tau = np.array([m.params.tau(d) for d in v.degrees])[:, None]
        return 2.0 * m.h * (m.spectral_neg_laplacian(v.values) + tau * v.values)

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
        h1_grads = self._h1_grads(it.v)
        num_grads = self._numerator_grads(h1_grads, 1.0, it.lp1_grads)
        # overlap gradient at the optimal shift, in the radial row only; the
        # shift's own derivative drops out by the envelope property
        dist_grads = h1_grads.copy()
        if 0 in it.v.degrees:
            psi_pow_shift = psi(m.params, m.t - projection.shift) ** self.p
            grad_overlap0 = m.sqrt_area * m.h * psi_pow_shift
            dist_grads[0] -= 2.0 * m.kappa * projection.overlap * grad_overlap0
        return (num_grads - it.value * dist_grads) / projection.distance_sq

    def numerator_gradient(self, v: CylinderFunction) -> np.ndarray:
        """Gradient of the numerator alone, row k for ``v.degrees[k]`` (used by
        the correctness checks)."""
        lp1_pow, lp1_grads = self.model.lp1_pow(v, with_gradient=True)
        return self._numerator_grads(self._h1_grads(v), lp1_pow, lp1_grads)


def gap_start(model: CylinderModel, eps: float) -> tuple[str, CylinderFunction]:
    """Psi plus the gap eigenfunction (rho10 in the Remaining region, rho02
    elsewhere) scaled to eps |Psi|_H1, with its start label."""
    if classify(model.params).region == RegionClass.REMAINING:
        name, bump = "rho10", model.rho10_function()
    else:
        name, bump = "rho02", model.rho02_function()
    norm = math.sqrt(model.h1_inner(bump, bump))
    v = combine([1.0, eps * math.sqrt(model.energy_psi) / norm], [model.psi_function(), bump])
    return f"gap-perturbation {name} eps={eps}", v


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


def minimize_quotient(start: CylinderFunction, max_iterations: int) -> QuotientReport:
    """Backtracking gradient descent on Q with the L^{p+1} normalization,
    from ``start`` on the model of its parameter point.

    Steps that collapse onto the manifold guard are rejected with the step
    halved; the search terminates at the gradient tolerance or after
    ``max_iterations`` steps and returns the best quotient seen, labelled
    ``start="explicit"``.
    """
    model = model_for(start.params)
    objective = _Objective(model)
    it = objective.normalized(start)
    _require_off_manifold(it.projection)
    best = it
    trace = [(0, it.value)]
    step = INITIAL_STEP
    grad_norm = math.nan
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        grads = objective.gradient(it)
        q = it.value
        grad_norm = math.sqrt(sum(model.h * float(np.dot(g, g)) for g in grads))
        if grad_norm <= GRADIENT_TOL * max(1.0, abs(q)):
            break
        direction = model.from_rows(it.v.degrees, -grads)
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
            break
        # the accepted candidate carries its pieces into the next gradient
        it = candidate
        step = min(INITIAL_STEP, 2.0 * alpha)
        iterations = iteration
        trace.append((iteration, it.value))
        if it.value < best.value:
            best = it
    projection = best.projection
    return QuotientReport(
        value=best.value,
        distance_sq=projection.distance_sq,
        shift=projection.shift,
        bounds=bounds_report(start.params),
        iterations=iterations,
        gradient_norm=grad_norm,
        trace=tuple(trace),
        start="explicit",
    )


def estimate_cbe(
    params: CknParams,
    starts: int = 2,
    seed: int = 0,
    max_iterations: int = 60,
) -> QuotientReport:
    """Multi-start quotient minimization; returns the best report, labelled
    with its start.

    The start menu is a list of (label, function) pairs: three gap-perturbation
    sizes, two bubble separations and ``starts`` seeded random perturbations,
    each descended by ``minimize_quotient``; a start that raises NoDescent or
    OnManifold is dropped.  The exit value must respect
    0 < Q <= min(gap bound, two-bubble bound) + 1e-3 or a NumericalFailure is raised.
    """
    model = model_for(params)
    menu = [gap_start(model, eps) for eps in (0.02, 0.05, 0.1)]
    separations = (8.0 / params.gamma, 10.0 / params.gamma)
    menu += [(f"two-bubble s={s:.4g}", model.two_bubble(s)) for s in separations]
    menu += [random_start(model, seed + k) for k in range(starts)]
    best: QuotientReport | None = None
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
    ceiling = min(bounds.bound_gap, bounds.bound_two_bubble) + 1e-3
    if not 0.0 < best.value <= ceiling:
        raise NumericalFailure(f"best quotient {best.value} escaped its bound {ceiling}")
    return best
