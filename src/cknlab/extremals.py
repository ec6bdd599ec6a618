"""The extremal bubble, its cylinder profile, and the optimal constant.

On the Euclidean side the radial extremal is

    W(r) = (2(p+1)(a_c-a)^2)^(1/(p-1)) (1 + r^((a_c-a)(p-1)))^(-2/(p-1)),

and the logarithmic change of variables t = -ln r, v = r^(a_c-a) u maps it to
the even cylinder profile

    Psi(t) = ((p+1)(a_c-a)^2 / 2)^(1/(p-1)) cosh(gamma t)^(-2/(p-1)),

which solves -Psi'' + (a_c-a)^2 Psi = Psi^p.  Testing that equation against
Psi itself gives the norm identity |Psi|_H1^2 = |Psi|_{p+1}^{p+1}, which is how
the optimal constant is evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import CknParams
from .specfun import beta, log_cosh, sphere_area

__all__ = [
    "ExtremalProfile",
    "GridSpec",
    "OptimalConstant",
    "PsiNorms",
    "bubble_w",
    "bubble_w_prime",
    "default_grid",
    "generator_v",
    "optimal_constant",
    "profile",
    "psi",
    "psi_norms",
    "psi_prime",
]


@dataclass(frozen=True)
class ExtremalProfile:
    """Amplitude and decay rate of the cylinder bubble."""

    params: CknParams
    amplitude: float
    decay_rate: float


def profile(params: CknParams) -> ExtremalProfile:
    p, d = params.p, params.ac_minus_a
    return ExtremalProfile(
        params=params,
        amplitude=((p + 1.0) * d * d / 2.0) ** (1.0 / (p - 1.0)),
        decay_rate=params.gamma,
    )


# default_grid: powers of two from GRID_MIN_NODES up to GRID_MAX_NODES, with
# spacing h gamma <= GRID_H_TAIL and h gamma <= GRID_H_CORE sqrt((p-1)/2)
GRID_MIN_NODES, GRID_MAX_NODES = 1024, 4096
GRID_H_TAIL, GRID_H_CORE = 0.12, 0.25


@dataclass(frozen=True)
class GridSpec:
    """Uniform axis grid on [-T, T] with Dirichlet ends and at least GRID_MIN_NODES nodes."""

    half_width: float
    nodes: int

    def __post_init__(self) -> None:
        if self.half_width <= 0.0:
            raise ValueError("grid half-width must be positive")
        if self.nodes < GRID_MIN_NODES:
            raise ValueError(f"grid needs at least {GRID_MIN_NODES} nodes")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.nodes - 1)

    def t(self):
        import numpy as np

        return np.linspace(-self.half_width, self.half_width, self.nodes)


def default_grid(params: CknParams) -> GridSpec:
    """Cylinder grid wide enough for both the sech^2 well and the bubble tails,
    with as many nodes as the bubble's narrowest scale needs.

    The bubble decays like e^(-(a_c-a)|t|), so the width scales with whichever
    of 60/gamma and 30/(a_c-a) is larger.  It varies on 1/gamma, and as p -> 1
    its core narrows to about sqrt((p-1)/2)/gamma, so the node count is the
    least power of two meeting GRID_H_TAIL and GRID_H_CORE, up to GRID_MAX_NODES.
    """
    half = max(60.0 / params.gamma, 30.0 / params.ac_minus_a)
    h_gamma = min(GRID_H_TAIL, GRID_H_CORE * math.sqrt((params.p - 1.0) / 2.0))
    nodes = GRID_MIN_NODES
    while nodes < GRID_MAX_NODES and 2.0 * half * params.gamma / (nodes - 1) > h_gamma:
        nodes *= 2
    return GridSpec(half_width=half, nodes=nodes)


def psi(params: CknParams, t):
    """Cylinder bubble Psi(t); vectorized and overflow-safe."""
    import numpy as np

    amp = profile(params).amplitude
    return amp * np.exp(-(2.0 / (params.p - 1.0)) * log_cosh(params.gamma * t))


def psi_prime(params: CknParams, t):
    """d/dt Psi(t) = -(a_c-a) tanh(gamma t) Psi(t)."""
    import numpy as np

    return -params.ac_minus_a * np.tanh(params.gamma * t) * psi(params, t)


def bubble_w(params: CknParams, x_radius):
    """Euclidean radial extremal W(|x|) for |x| >= 0."""
    import numpy as np

    r = np.asarray(x_radius, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    p, d = params.p, params.ac_minus_a
    amp = (2.0 * (p + 1.0) * d * d) ** (1.0 / (p - 1.0))
    return amp * (1.0 + r ** (d * (p - 1.0))) ** (-2.0 / (p - 1.0))


def bubble_w_prime(params: CknParams, x_radius):
    """Radial derivative W'(|x|)."""
    import numpy as np

    r = np.asarray(x_radius, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    p, d = params.p, params.ac_minus_a
    e = d * (p - 1.0)
    amp = (2.0 * (p + 1.0) * d * d) ** (1.0 / (p - 1.0))
    return amp * (-2.0 / (p - 1.0)) * (1.0 + r**e) ** (-2.0 / (p - 1.0) - 1.0) * e * r ** (e - 1.0)


def generator_v(params: CknParams, x_radius):
    """Dilation generator V = r W'(r) + (a_c-a) W(r).

    Spans the kernel of the linearized equation; its cylinder image is -Psi'.
    """
    import numpy as np

    r = np.asarray(x_radius, dtype=float)
    return r * bubble_w_prime(params, r) + params.ac_minus_a * bubble_w(params, r)


@dataclass(frozen=True)
class PsiNorms:
    """Norms of the cylinder bubble; h1_sq equals lp1 to the power p+1."""

    h1_sq: float
    lp1: float
    lp1_pow: float


def psi_norms(params: CknParams) -> PsiNorms:
    """Closed-form |Psi|_H1^2 and |Psi|_{p+1} via the Beta identity."""
    p = params.p
    amp = profile(params).amplitude
    lp1_pow = (
        amp ** (p + 1.0)
        * sphere_area(params.N)
        / params.gamma
        * beta((p + 1.0) / (p - 1.0), 0.5)
    )
    return PsiNorms(h1_sq=lp1_pow, lp1=lp1_pow ** (1.0 / (p + 1.0)), lp1_pow=lp1_pow)


@dataclass(frozen=True)
class OptimalConstant:
    """Inverse optimal constant, its published closed form, and their ratio.

    ``c_inv`` is the variational value |Psi|_{p+1}^(p-1) implied by the norm
    identity; ``c_inv_closed_form`` is the closed-form expression quoted in the
    literature, which carries no surface-area factor.  The two differ by
    exactly |S^(N-1)|^((p-1)/(p+1)); both are reported rather than conflated.
    """

    c_inv: float
    c_inv_closed_form: float
    ratio: float


def optimal_constant(params: CknParams) -> OptimalConstant:
    p, d = params.p, params.ac_minus_a
    norms = psi_norms(params)
    c_inv = norms.lp1_pow ** ((p - 1.0) / (p + 1.0))
    closed = (
        (p + 1.0)
        / 2.0
        * d ** ((p + 3.0) / (p + 1.0))
        * (
            2.0
            * math.sqrt(math.pi)
            * math.gamma((p + 1.0) / (p - 1.0))
            / ((p - 1.0) * math.gamma((3.0 * p + 1.0) / (2.0 * (p - 1.0))))
        )
        ** ((p - 1.0) / (p + 1.0))
    )
    return OptimalConstant(c_inv=c_inv, c_inv_closed_form=closed, ratio=c_inv / closed)
