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
from dataclasses import dataclass

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
    "MinimizeConfig",
    "NoDescent",
    "NumericalFailure",
    "OnManifold",
    "QuotientReport",
    "estimate_cbe",
    "minimize_quotient",
    "quotient",
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
class MinimizeConfig:
    """Start recipe and iteration cap.

    ``start`` is one of ("gap", eps), ("two_bubble", s), ("random", seed).
    """

    start: tuple = ("gap", 0.05)
    max_iterations: int = 80

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.start[0] == "gap" and not 0.0 < self.start[1] <= 0.2:
            raise ValueError("gap-perturbation eps must lie in (0, 0.2]")


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

    def value(self, v: CylinderFunction):
        numerator, projection = self.model.quotient_parts(v)
        _require_off_manifold(projection)
        return numerator / projection.distance_sq, projection

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


def _build_start(model: CylinderModel, config: MinimizeConfig) -> tuple[CylinderFunction, str]:
    kind = config.start[0]
    params = model.params
    if kind == "gap":
        eps = float(config.start[1])
        region = classify(params).region
        if region == RegionClass.REMAINING:
            bump = model.rho10_function()
            label = f"gap-perturbation rho10 eps={eps}"
        else:
            bump = model.rho02_function()
            label = f"gap-perturbation rho02 eps={eps}"
        norm = math.sqrt(model.h1_inner(bump, bump))
        v = combine([1.0, eps * math.sqrt(model.energy_psi) / norm], [model.psi_function(), bump])
        return v, label
    if kind == "two_bubble":
        s = float(config.start[1])
        return model.two_bubble(s), f"two-bubble s={s:.4g}"
    if kind == "random":
        seed = int(config.start[1])
        noise = model.random_mperp(seed, RANDOM_AMPLITUDE * math.sqrt(model.energy_psi))
        return combine([1.0, 1.0], [model.psi_function(), noise]), f"random seed={seed}"
    raise ValueError(f"unknown start recipe {kind!r}")


def quotient(v: CylinderFunction) -> QuotientReport:
    """Evaluate the quotient at one function.

    Raises OnManifold when the distance is numerically zero relative to the
    function's energy.
    """
    model = model_for(v.params)
    objective = _Objective(model)
    value, projection = objective.value(v)
    return QuotientReport(
        value=value,
        distance_sq=projection.distance_sq,
        shift=projection.shift,
        bounds=bounds_report(v.params),
        iterations=0,
        gradient_norm=math.nan,
        trace=((0, value),),
    )


def minimize_quotient(
    config: MinimizeConfig,
    params: CknParams,
    start_function: CylinderFunction | None = None,
) -> QuotientReport:
    """Backtracking gradient descent on Q with the L^{p+1} normalization.

    Steps that collapse onto the manifold guard are rejected with the step
    halved; the search terminates at the gradient tolerance or the iteration
    cap and returns the best quotient seen.  ``start_function`` overrides the
    configured start recipe with an explicit iterate.
    """
    model = model_for(params)
    objective = _Objective(model)
    if start_function is not None:
        v, label = start_function, "explicit"
    else:
        v, label = _build_start(model, config)
    it = objective.normalized(v)
    _require_off_manifold(it.projection)
    best_q = it.value
    trace = [(0, best_q)]
    best_report = (best_q, it.projection)
    step = INITIAL_STEP
    grad_norm = math.nan
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        grads = objective.gradient(it)
        q = it.value
        grad_norm = math.sqrt(sum(model.h * float(np.dot(g, g)) for g in grads))
        if grad_norm <= GRADIENT_TOL * max(1.0, abs(q)):
            break
        direction = model.from_rows(it.v.degrees, -grads)
        accepted = False
        alpha = step
        for _ in range(30):
            candidate = objective.normalized(combine([1.0, alpha], [it.v, direction]))
            if candidate.projection.distance_sq < MANIFOLD_GUARD * candidate.projection.h1_sq:
                alpha *= 0.5  # re-project away from the manifold
                continue
            q_cand = candidate.value
            if q_cand <= q - 1e-12 * abs(q):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if iteration == 1:
                raise NoDescent("line search failed at the first iterate")
            break
        # the accepted candidate carries its pieces into the next gradient
        it = candidate
        step = min(INITIAL_STEP, 2.0 * alpha)
        iterations = iteration
        trace.append((iteration, q_cand))
        if q_cand < best_report[0]:
            best_report = (q_cand, candidate.projection)
    value, projection = best_report
    return QuotientReport(
        value=value,
        distance_sq=projection.distance_sq,
        shift=projection.shift,
        bounds=bounds_report(params),
        iterations=iterations,
        gradient_norm=grad_norm,
        trace=tuple(trace),
        start=label,
    )


def estimate_cbe(
    params: CknParams,
    starts: int = 2,
    seed: int = 0,
    max_iterations: int = 60,
) -> QuotientReport:
    """Multi-start quotient minimization; returns the best report.

    The recipe set follows the start menu: three gap-perturbation sizes, two
    bubble separations, and ``starts`` seeded random perturbations.  The exit
    value must respect 0 < Q <= min(gap bound, two-bubble bound) + 1e-3 or a
    NumericalFailure is raised.
    """
    gamma = params.gamma
    recipes: list[tuple] = [
        ("gap", 0.02),
        ("gap", 0.05),
        ("gap", 0.1),
        ("two_bubble", 8.0 / gamma),
        ("two_bubble", 10.0 / gamma),
    ]
    recipes += [("random", seed + k) for k in range(starts)]
    best: QuotientReport | None = None
    for recipe in recipes:
        config = MinimizeConfig(start=recipe, max_iterations=max_iterations)
        try:
            report = minimize_quotient(config, params)
        except (NoDescent, OnManifold):
            continue
        if best is None or report.value < best.value:
            best = report
    if best is None:
        raise NumericalFailure("no start produced a usable minimization")
    bounds = best.bounds
    ceiling = min(bounds.bound_gap, bounds.bound_two_bubble) + 1e-3
    if not 0.0 < best.value <= ceiling:
        raise NumericalFailure(
            f"best quotient {best.value} escaped its bound {ceiling}"
        )
    return best
