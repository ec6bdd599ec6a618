"""Independent numerical eigensolver for the mode-reduced problem.

Discretizes -phi'' + tau_i phi = lambda beta sech^2(gamma t) phi by sinc
collocation on a uniform grid (Stenger, Numerical Methods Based on Sinc and
Analytic Functions, 1993; Trefethen, Spectral Methods in MATLAB, 2000,
ch. 2-4).  With the sinc second-derivative matrix D2, the pencil
A x = lambda W x has A = -D2 + tau_i I symmetric positive definite and
W = beta sech^2(gamma t) diagonal.  The eigenvalues are lambda = 1/mu for the
eigenvalues mu of the dense symmetric S = W^{1/2} A^{-1} W^{1/2}, so W is
never inverted and its vanishing tail weights do no harm.  The eigenfunctions
are analytic in a strip and decay like a power of sech, where the sinc error
falls exponentially in 1/h; one numpy eigensolve therefore returns the whole
discrete spectrum, in order and accurate to roundoff, with nothing left to
certify or extrapolate.

Everything here is deliberately independent of the closed-form spectrum
module: the two are cross-checked against each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremals import default_grid, psi, psi_prime
from .params import CknParams

__all__ = [
    "ConvergenceFailure",
    "GapCheckReport",
    "default_grid",
    "generalized_eigenvalues",
    "inertia_count",
    "mode_eigenpairs",
    "rayleigh_gap_check",
    "solver_grid",
]

# solver_grid: at least MIN_NODES nodes, with spacing h gamma <= H_GAMMA
MIN_NODES, H_GAMMA = 200, 0.15


class ConvergenceFailure(RuntimeError):
    """The requested eigenvalues are not all below lambda = 1e3, the window
    in which the collocation grid resolves them."""


def solver_grid(params: CknParams, i: int = 0) -> np.ndarray:
    """The collocation nodes t_k = (k - (n-1)/2) h, h = 2L/n, of mode i.

    Every mode-i eigenfunction is a polynomial in tanh(gamma t) times
    cosh(gamma t)^(-k), k = sqrt(tau_i)/gamma, so its square falls to e^-40
    at the half-width L where cosh(gamma L)^(2k) = e^40:

        L = arccosh(e^x)/gamma,  x = 20 gamma/sqrt(tau_i),

    evaluated as (x + ln(1 + sqrt(1 - e^(-2x))))/gamma, which cannot
    overflow.  The window follows the eigenfunction's width, which shrinks
    with tau_i; near p -> 1 it is a Gaussian about L/6 wide.  The weight's
    poles at gamma t = +-i pi/2 bound the strip of analyticity, so the sinc
    error falls like exp(-pi^2/(2 h gamma)); n = max(200, 2 ceil(L gamma/0.15))
    keeps h gamma <= 0.15, where that is about 5e-15, and the floor of 200
    nodes resolves the Gaussian.
    """
    g = params.gamma
    x = 20.0 * g / math.sqrt(params.tau(i))
    half = (x + math.log1p(math.sqrt(-math.expm1(-2.0 * x)))) / g
    n = max(MIN_NODES, 2 * math.ceil(half * g / H_GAMMA))
    return 2.0 * half / n * (np.arange(n) - 0.5 * (n - 1))


def _collocate(params: CknParams, i: int, t: np.ndarray):
    """S = W^{1/2} A^{-1} W^{1/2}, the diagonal of W^{1/2}, and A^{-1} W^{1/2}
    for the mode-i pencil on the uniform nodes t."""
    h = t[1] - t[0]
    m = np.arange(t.size)
    # -D2 is the symmetric Toeplitz matrix with first column
    # pi^2/(3 h^2), 2 (-1)^m/(h^2 m^2)
    col = 2.0 * (-1.0) ** m / np.maximum(m, 1) ** 2
    col[0] = math.pi**2 / 3.0 + params.tau(i) * h * h
    a = col[np.abs(m[:, None] - m)] / (h * h)
    root = math.sqrt(params.beta) / np.cosh(params.gamma * t)
    a_inv_root = np.linalg.solve(a, np.diag(root))
    s = root[:, None] * a_inv_root
    return 0.5 * (s + s.T), root, a_inv_root


def _lowest(params: CknParams, i: int, count: int, t: np.ndarray):
    """The ``count`` smallest eigenvalues, ascending, with the pencil
    eigenvectors x = A^{-1} W^{1/2} y and A x = W^{1/2} y as columns, for
    orthonormal eigenvectors y of S; so the x are A-orthogonal with
    x_k^T A x_k = y_k^T S y_k = 1/lambda_k."""
    s, root, a_inv_root = _collocate(params, i, t)
    mu, y = np.linalg.eigh(s)
    lams, y = 1.0 / mu[: -count - 1 : -1], y[:, : -count - 1 : -1]
    if not lams[-1] < 1e3:
        raise ConvergenceFailure(f"fewer than {count} eigenvalues of mode {i} below lambda = 1e3")
    return lams, a_inv_root @ y, root[:, None] * y


def generalized_eigenvalues(params: CknParams, i: int, count: int) -> list[float]:
    """The ``count`` smallest eigenvalues of the collocated mode-i problem on
    ``solver_grid(params, i)``."""
    if count > 6:
        raise ValueError("at most 6 eigenvalues per mode are supported")
    return _lowest(params, i, count, solver_grid(params, i))[0].tolist()


def inertia_count(params: CknParams, i: int, lam: float, t: np.ndarray) -> int:
    """Number of eigenvalues of the collocated mode-i pencil on the nodes t below lam."""
    mu = np.linalg.eigvalsh(_collocate(params, i, t)[0])
    # every lambda = 1/mu is positive, so lambda < lam iff mu lam > 1
    return int(np.count_nonzero(mu * lam > 1.0))


def mode_eigenpairs(
    params: CknParams, i: int, count: int, t: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """Eigenvalues with eigenvectors on the nodes t, of unit Euclidean norm,
    each with its largest-magnitude entry positive."""
    lams, vecs, _ = _lowest(params, i, count, t)
    vecs /= np.linalg.norm(vecs, axis=0)
    vecs *= np.sign(vecs[np.abs(vecs).argmax(axis=0), np.arange(count)])
    return lams.tolist(), vecs


@dataclass(frozen=True)
class GapCheckReport:
    """Outcome of the discretized Rayleigh minimization over the constrained
    complement of the soft modes; ``minimizer`` is sampled on the nodes ``t``
    of the winning mode."""

    value: float
    mode0_value: float
    mode1_value: float
    winner_mode: int
    minimizer: np.ndarray
    t: np.ndarray


def rayleigh_gap_check(params: CknParams) -> GapCheckReport:
    """Minimize the discretized gap quotient 1 - x^T W x / x^T A x on the
    collocated pencil over the complement of the bubble and its translation
    mode: over the span of the lowest six mode-0 eigenvectors, A-orthogonal
    to the sampled bubble and its derivative, and over unconstrained mode-1
    functions.  The smaller value is the discrete gap constant.
    """
    t0 = solver_grid(params, 0)
    lams, vecs, a_vecs = _lowest(params, 0, 6, t0)
    # scaled to x_k^T A x_j = delta_kj, where the quotient is 1 - x^T W x
    scale = np.sqrt(lams)
    vecs, a_vecs = vecs * scale, a_vecs * scale
    constraints = a_vecs.T @ np.column_stack([psi(params, t0), psi_prime(params, t0)])
    _, _, vt = np.linalg.svd(constraints.T, full_matrices=True)
    null_basis = vt[2:].T  # 6 x 4, kernel of the constraint rows
    weight = params.beta / np.cosh(params.gamma * t0) ** 2
    mu, coeff = np.linalg.eigh(null_basis.T @ (vecs.T @ (weight[:, None] * vecs)) @ null_basis)
    minimizer0 = vecs @ (null_basis @ coeff[:, -1])
    mode0_value = 1.0 - float(mu[-1])

    # mode 1: unconstrained, so the ground state minimizes, and the Rayleigh
    # quotient of a pencil eigenvector is 1/lambda
    t1 = solver_grid(params, 1)
    lams1, vecs1 = mode_eigenpairs(params, 1, 1, t1)
    mode1_value = 1.0 - 1.0 / lams1[0]

    mode = 0 if mode0_value <= mode1_value else 1
    return GapCheckReport(
        value=min(mode0_value, mode1_value),
        mode0_value=mode0_value,
        mode1_value=mode1_value,
        winner_mode=mode,
        minimizer=vecs1[:, 0] if mode else minimizer0,
        t=t1 if mode else t0,
    )
