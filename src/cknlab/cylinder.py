"""Discretized functions on the cylinder and the distance to the bubble manifold.

Functions are stored mode-wise: a zonal function v(t, theta) is a finite sum
of axis profiles multiplying L2-orthonormal zonal spherical harmonics.  With
that convention the H1 form decouples,

    |v|_H1^2 = sum_i  int (f_i')^2 + tau_i f_i^2 dt.

The profiles form one (degrees x nodes) array, row k for the k-th degree in
increasing order, and every gradient with respect to the samples has the same
layout, so linear algebra on functions and gradients is array arithmetic.

Functions carry samples only: the model owns the H1 form as one Fourier
multiplier omega^2 + tau_d per degree (spectral derivatives on the periodic
extension; every profile in scope decays far below roundoff at the walls),
which the form, its sample gradient and its Riesz map all apply.  The L^{p+1}
norm needs a genuine 2D quadrature (uniform rule along the axis,
Gauss-Gegenbauer in the polar angle, built by Golub-Welsch).

The squared distance to the manifold of scaled, translated bubbles is

    dist^2(v) = |v|_H1^2 - kappa * sup_s <v, Psi_s^p>_L2^2,

with the constant kappa fixed so that the distance of the bubble itself is
exactly zero.  All constants used by the distance and quotient evaluations
are calibrated on the same grid (the discrete model is a legitimate
variational problem in its own right), which keeps the near-manifold
cancellations clean to machine precision instead of discretization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .extremals import GridSpec, default_grid, psi
from .params import CknParams, SearchFailure
from .spectrum import rho_02
from .specfun import sphere_area

__all__ = [
    "CylinderFunction",
    "CylinderModel",
    "GridMismatch",
    "ManifoldProjection",
    "SearchFailure",
    "combine",
    "model_for",
    "scale",
]

# Gauss-Gegenbauer nodes in the polar angle
ANGLE_NODES = 64
# rows per block of samples in lp1_pow: 128 to 512 time alike on 2048 and 4096
# nodes, but 512 is slower on 1024 and its temporaries reach half the core on 2048
LP1_BLOCK_ROWS = 128
# Newton refinement of the maximizing shift: step tolerance and iteration cap
SHIFT_TOL = 1e-12
SHIFT_ITERATIONS = 100
# Q is undefined on the bubble manifold: a squared distance at or below this
# share of |v|_H1^2 counts as on it, since dist^2 there is mostly cancellation
ON_MANIFOLD_TOL = 1e-10


class GridMismatch(ValueError):
    """Operands live on different grids or parameter points."""


@dataclass(frozen=True, eq=False)
class CylinderFunction:
    """Mode-truncated zonal function: profiles against orthonormal harmonics.

    Row k of ``values`` samples the axis profile of degree ``degrees[k]``;
    derivatives are the model's business (``CylinderModel.h1_multiplier``).
    ``degrees`` is a sorted tuple of unique degrees, and ``values`` is
    read-only and shaped ``(len(degrees), grid.nodes)``.  Functions compare
    and hash by identity.
    """

    params: CknParams
    grid: GridSpec
    degrees: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.degrees, tuple) or list(self.degrees) != sorted(set(self.degrees)):
            raise ValueError("degrees must be a tuple of sorted unique degrees")
        shape = (len(self.degrees), self.grid.nodes)
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}")
        self.values.setflags(write=False)

    def mode(self, degree: int) -> np.ndarray:
        if degree in self.degrees:
            return self.values[self.degrees.index(degree)]
        return np.zeros(self.grid.nodes)


def scale(v: CylinderFunction, c: float) -> CylinderFunction:
    return replace(v, values=c * v.values)


def combine(coeffs, funcs) -> CylinderFunction:
    """Linear combination sum_k coeffs[k] * funcs[k]."""
    first = funcs[0]
    for f in funcs[1:]:
        if f.grid != first.grid or f.params != first.params:
            raise GridMismatch("cannot combine functions from different models")
    degrees = tuple(sorted({d for f in funcs for d in f.degrees}))
    values = np.zeros((len(degrees), first.grid.nodes))
    for c, f in zip(coeffs, funcs):
        values[np.searchsorted(degrees, f.degrees)] += c * f.values
    return CylinderFunction(first.params, first.grid, degrees, values)


@dataclass(frozen=True)
class ManifoldProjection:
    """Projection of a function onto the bubble manifold, with the |v|_H1^2
    that its distance is measured against."""

    shift: float
    overlap: float
    distance_sq: float
    edge_attained: bool
    h1_sq: float


@lru_cache(maxsize=32)
def _recurrence(n_dim: int) -> np.ndarray:
    # b_0 = 0, b_1, ..., b_(ANGLE_NODES-1): the orthonormal polynomials of the
    # weight (1-x^2)^alpha, alpha = (N-3)/2, satisfy x p_k = b_(k+1) p_(k+1) + b_k p_(k-1)
    # with b_k^2 = k(k+2 alpha)/(4(k+alpha)^2-1); b_1^2 = 1/(2 alpha+3) cancels
    # the factor 1+2 alpha, which makes that ratio 0/0 at N = 2
    alpha = (n_dim - 3) / 2.0
    k = np.arange(2.0, ANGLE_NODES)
    b_sq = k * (k + 2.0 * alpha) / (4.0 * (k + alpha) ** 2 - 1.0)
    return np.sqrt(np.concatenate(([0.0, 1.0 / (2.0 * alpha + 3.0)], b_sq)))


@lru_cache(maxsize=32)
def _angle_rule(n_dim: int):
    # integral over S^(N-1) of a zonal function g(cos phi):
    # |S^(N-2)| * sum w_m g(x_m) with weight (1-x^2)^((N-3)/2); Golub-Welsch:
    # the nodes are the eigenvalues of the Jacobi matrix, the weights mu_0 v_0^2
    alpha = (n_dim - 3) / 2.0
    off = _recurrence(n_dim)[1:]
    x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.exp(math.lgamma(0.5) + math.lgamma(alpha + 1.0) - math.lgamma(alpha + 1.5))
    prefactor = sphere_area(n_dim - 1) if n_dim >= 3 else 2.0
    return x, mu0 * vectors[0] ** 2, prefactor


class CylinderModel:
    """Grid, quadrature rules, and calibrated constants for one parameter point."""

    def __init__(self, params: CknParams):
        self.params = params
        self.grid = default_grid(params)
        self.t = self.grid.t()
        self.h = self.grid.spacing
        self.area = sphere_area(params.N)
        self.sqrt_area = math.sqrt(self.area)
        self.angle_x, self.angle_w, self.angle_prefactor = _angle_rule(params.N)
        self._harmonics: dict[int, np.ndarray] = {}
        self._h1_multipliers: dict[tuple[int, ...], np.ndarray] = {}

        # spectral differentiation wavenumbers (Nyquist zeroed keeps D real
        # and antisymmetric, hence D^T D = -D^2)
        n = self.grid.nodes
        self.omega = 2.0 * math.pi * np.fft.rfftfreq(n, d=self.h)
        if n % 2 == 0:
            self.omega[-1] = 0.0

        self.psi_values = psi(params, self.t)
        self.psi_pow_values = self.psi_values**params.p
        # spectrum of the reversed Psi^p, zero-padded to 2n: one product with
        # rfft(v) is the full linear correlation that the shift scan needs
        self.psi_pow_spectrum = np.fft.rfft(self.psi_pow_values[::-1], 2 * n)
        p = params.p
        # calibrated constants: the grid problem reproduces the variational
        # identities exactly, so the bubble itself is at distance zero
        lp1 = self.area * self.h * float(np.sum(self.psi_values ** (p + 1.0)))
        # near p -> 1 the amplitude can leave the double range so far that the
        # integral of Psi^(p+1) underflows to zero or overflows; it is then NaN,
        # and so is every constant and quotient
        self.lp1_pow_psi = lp1 if 0.0 < lp1 < math.inf else math.nan
        self.energy_psi = self.h1_inner(self.psi_function(), self.psi_function())
        self.c_inv = self.energy_psi / self.lp1_pow_psi ** (2.0 / (p + 1.0))
        # divided twice: lp1_pow_psi squared leaves the double range near p -> 1
        self.kappa = self.energy_psi / self.lp1_pow_psi / self.lp1_pow_psi

    def h1_multiplier(self, degrees: tuple[int, ...]) -> np.ndarray:
        """omega^2 + tau_d, row k for ``degrees[k]``: the Fourier multiplier of
        D^T D + tau_d, the operator of the degree-d part of the H1 form."""
        if degrees not in self._h1_multipliers:
            taus = np.array([self.params.tau(d) for d in degrees])
            self._h1_multipliers[degrees] = self.omega**2 + taus[:, None]
        return self._h1_multipliers[degrees]

    def h1_gradient(self, v: CylinderFunction) -> np.ndarray:
        """Gradient of h1_inner(v, v) with respect to the samples, row k for
        ``v.degrees[k]``: 2h (D^T D + tau_d) applied to each profile."""
        self._check(v)
        spectrum = self.h1_multiplier(v.degrees) * np.fft.rfft(v.values)
        return 2.0 * self.h * np.fft.irfft(spectrum, n=self.grid.nodes)

    def riesz(self, degrees: tuple[int, ...], grads: np.ndarray) -> np.ndarray:
        """H1 Riesz map of sample gradients, row k for ``degrees[k]``: the
        inverse of ``h1_gradient``'s kernel 2h (D^T D + tau_d)."""
        spectrum = np.fft.rfft(grads) / self.h1_multiplier(degrees)
        return np.fft.irfft(spectrum, n=self.grid.nodes) / (2.0 * self.h)

    # ------------------------------------------------------------------
    # harmonics
    def harmonic_values(self, degree: int) -> np.ndarray:
        """Orthonormal zonal harmonic of the given degree at the angle nodes."""
        if degree not in self._harmonics:
            x, b = self.angle_x, _recurrence(self.params.N)
            previous, raw = np.zeros_like(x), np.ones_like(x)
            for k in range(degree):
                previous, raw = raw, (x * raw - b[k] * previous) / b[k + 1]
            norm_sq = self.angle_prefactor * float(np.dot(self.angle_w, raw * raw))
            self._harmonics[degree] = raw / math.sqrt(norm_sq)
        return self._harmonics[degree]

    # ------------------------------------------------------------------
    # builders
    def _check(self, v: CylinderFunction) -> None:
        if v.grid != self.grid or v.params != self.params:
            raise GridMismatch("function does not belong to this model")

    def function(self, modes: dict[int, np.ndarray]) -> CylinderFunction:
        degrees = tuple(sorted(modes))
        return self.from_rows(degrees, np.array([modes[d] for d in degrees], dtype=float))

    def from_rows(self, degrees: tuple[int, ...], values: np.ndarray) -> CylinderFunction:
        """The function whose degree-``degrees[k]`` profile is ``values[k]``."""
        return CylinderFunction(self.params, self.grid, degrees, values)

    def psi_function(self) -> CylinderFunction:
        return self.function({0: self.sqrt_area * self.psi_values})

    def rho02_function(self) -> CylinderFunction:
        return self.function({0: self.sqrt_area * rho_02(self.params, self.t)})

    def two_bubble(self, s: float) -> CylinderFunction:
        """The centred pair Psi_{-s/2} + Psi_{s/2}, even in t."""
        if s >= self.grid.half_width:
            raise ValueError("bubble centres +-s/2 must lie inside the search window")
        pair = psi(self.params, self.t + 0.5 * s) + psi(self.params, self.t - 0.5 * s)
        return self.function({0: self.sqrt_area * pair})

    # ------------------------------------------------------------------
    # norms and inner products
    def h1_inner(self, u: CylinderFunction, v: CylinderFunction) -> float:
        """Discrete H1 inner product, half the pairing of ``h1_gradient(u)`` with v."""
        self._check(v)
        grads = self.h1_gradient(u)
        return 0.5 * sum(float(np.dot(grads[k], v.mode(d))) for k, d in enumerate(u.degrees))

    def lp1_pow(self, v: CylinderFunction, with_gradient: bool = False):
        """int |v|^(p+1) over the cylinder.

        With ``with_gradient`` the result is ``(value, grads)``, where row k of
        ``grads`` is the gradient with respect to the samples of ``v.values[k]``;
        both come from one pass over the core |v|^(p-1) v.
        """
        self._check(v)
        p = self.params.p
        profiles = v.values.T
        if v.degrees == (0,):
            per_degree = np.abs(profiles) ** (p - 1.0) * profiles
            weight = self.area ** (1.0 - (p + 1.0) / 2.0) * self.h
        else:
            harmonics = np.stack([self.harmonic_values(d) for d in v.degrees])
            # the samples v(t_k, phi_m) go in cache-sized row blocks, so that the
            # core |v|^(p-1) v is the one full-size array (a fresh one costs more
            # in page faults than its arithmetic); a sample is a dot over the
            # degrees and rounds alike in any block
            core = np.empty((len(profiles), len(self.angle_w)))
            for start in range(0, len(core), LP1_BLOCK_ROWS):
                block = core[start : start + LP1_BLOCK_ROWS]
                values = profiles[start : start + LP1_BLOCK_ROWS] @ harmonics
                np.abs(values, out=block)
                np.power(block, p - 1.0, out=block)
                block *= values
            # chain rule through v(t_k, phi_m) = sum_d f_d(t_k) Y_d(phi_m), over
            # all rows at once: blocked, the 64-node sums would round otherwise
            per_degree = core @ (self.angle_w[:, None] * harmonics.T)
            weight = self.angle_prefactor * self.h
        value = weight * float(np.sum(profiles * per_degree))
        if not with_gradient:
            return value
        per_degree *= weight * (p + 1.0)
        return value, np.ascontiguousarray(per_degree.T)

    def quotient(
        self, v: CylinderFunction, lp1_pow: float | None = None
    ) -> tuple[float, float, ManifoldProjection]:
        """Q(v), its numerator |v|_H1^2 - C^-1 |v|_{p+1}^2 and the manifold
        projection; ``lp1_pow`` is int |v|^(p+1) when already known.  Q is NaN
        unless dist^2 > ON_MANIFOLD_TOL |v|_H1^2."""
        projection = self.distance_to_manifold(v)
        if lp1_pow is None:
            lp1_pow = self.lp1_pow(v)
        p = self.params.p
        numerator = projection.h1_sq - self.c_inv * lp1_pow ** (2.0 / (p + 1.0))
        off = projection.distance_sq > ON_MANIFOLD_TOL * projection.h1_sq
        value = numerator / projection.distance_sq if off else math.nan
        return value, numerator, projection

    # ------------------------------------------------------------------
    # manifold machinery
    def overlap(self, v: CylinderFunction, s: float) -> float:
        """<v, Psi_s^p> over the cylinder; only the radial mode contributes."""
        self._check(v)
        return float(np.dot(v.mode(0), self.overlap_gradient(s)))

    def overlap_gradient(self, s: float) -> np.ndarray:
        """Gradient of ``overlap(v, s)`` with respect to the radial samples of v."""
        return self.sqrt_area * self.h * psi(self.params, self.t - s) ** self.params.p

    def _overlap_derivatives(self, f0: np.ndarray, s: float) -> tuple[float, float, float]:
        """<v, Psi_s^p> and its first two shift derivatives, from the radial profile.

        With x = gamma (t - s) and d = a_c - a,
        d/ds Psi_s^p = p d tanh(x) Psi_s^p and
        d^2/ds^2 Psi_s^p = p d (p d tanh^2(x) - gamma sech^2(x)) Psi_s^p.
        """
        params = self.params
        pd = params.p * params.ac_minus_a
        th = np.tanh(params.gamma * (self.t - s))
        weighted = f0 * self.overlap_gradient(s)
        return (
            float(np.sum(weighted)),
            pd * float(np.dot(weighted, th)),
            pd * float(np.dot(weighted, pd * th * th - params.gamma * (1.0 - th * th))),
        )

    def _overlap_scan(self, v: CylinderFunction) -> tuple[np.ndarray, np.ndarray]:
        """Overlap at every grid shift inside the search window |s| <= T/2."""
        n = self.grid.nodes
        corr = np.fft.irfft(np.fft.rfft(v.mode(0), 2 * n) * self.psi_pow_spectrum, 2 * n)
        j_max = (n - 1) // 4
        j = np.arange(-j_max, j_max + 1)
        shifts = j * self.h
        values = self.sqrt_area * self.h * corr[n - 1 + j]
        return shifts, values

    def _refine_shift(self, f0: np.ndarray, shifts: np.ndarray, best: int) -> float:
        """Safeguarded Newton iteration for the maximizer of the squared overlap."""
        lo, hi = shifts[max(best - 1, 0)], shifts[min(best + 1, len(shifts) - 1)]
        s_star = shifts[best]
        last_step = hi - lo
        for _ in range(SHIFT_ITERATIONS):
            ov, d1, d2 = self._overlap_derivatives(f0, s_star)
            # each factor, not their product, which may overflow while they are finite
            if not (math.isfinite(ov) and math.isfinite(d1) and math.isfinite(d2)):
                raise SearchFailure("shift refinement met a non-finite overlap")
            # keep the maximum of ov^2 bracketed: it rises to the right when ov * d1 > 0;
            # the sign of ov stands in for ov, since near p -> 1 ov * d1 can underflow
            sign = (ov > 0.0) - (ov < 0.0)
            if sign * d1 > 0.0:
                lo = s_star
            else:
                hi = s_star
            step = -d1 / d2 if sign * d2 < 0.0 else math.inf
            if not (lo <= s_star + step <= hi and abs(step) <= 0.5 * abs(last_step)):
                step = 0.5 * (lo + hi) - s_star
            s_star += step
            last_step = step
            if abs(step) <= SHIFT_TOL:
                return s_star
        raise SearchFailure("shift refinement did not converge")

    def distance_to_manifold(self, v: CylinderFunction) -> ManifoldProjection:
        """Squared distance to the manifold of scaled, shifted bubbles.

        A full correlation scan over grid shifts locates the global maximum of
        the squared overlap.  A safeguarded Newton iteration on the shift
        derivative of the overlap, started at the grid maximum and kept inside
        the neighbouring grid cells, then resolves the maximizing shift to
        roundoff; a step that would leave the bracket, move the wrong way or
        fail to halve falls back to bisection.
        """
        self._check(v)
        shifts, values = self._overlap_scan(v)
        # |overlap|, not its square, which overflows where |overlap| > ~1e154
        best = int(np.argmax(np.abs(values)))
        # an all-zero scan (Psi_s^p underflows at every shift) has no maximizer
        s_star = math.nan if values[best] == 0.0 else self._refine_shift(v.mode(0), shifts, best)
        ov = self.overlap(v, s_star)
        h1_sq = self.h1_inner(v, v)
        return ManifoldProjection(
            shift=s_star,
            overlap=ov,
            distance_sq=h1_sq - self.kappa * ov * ov,
            edge_attained=best <= 1 or best >= len(shifts) - 2,
            h1_sq=h1_sq,
        )


@lru_cache(maxsize=8)
def model_for(params: CknParams) -> CylinderModel:
    """Shared model cache keyed by parameter point."""
    return CylinderModel(params)
