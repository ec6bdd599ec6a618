"""Independent numerical eigensolver for the mode-reduced problem.

Discretizes -phi'' + tau_i phi = lambda beta sech^2(gamma t) phi with second
differences and Dirichlet walls at +-T, giving the tridiagonal pencil
A x = lambda W x with A symmetric positive definite and W = beta sech^2(gamma t)
diagonal.  The smallest eigenvalues come from shift-invert Lanczos (Ericsson
and Ruhe, Math. Comp. 35, 1980): A is factored once as L D L^T by LAPACK's
tridiagonal dpttrf, and ARPACK finds the largest eigenvalues mu = 1/lambda of
the symmetric operator W^{1/2} A^{-1} W^{1/2}, so W is never inverted and the
vanishing wall weights do no harm.  One Sturm count of A - lambda W just above
the largest returned value certifies that exactly the requested smallest
eigenvalues were found.  The raw second-difference eigenvalues carry an O(h^2)
bias, so each returned value is Richardson-extrapolated across quarter-, half-,
and full-resolution solves (eliminating the h^2 and h^4 terms);
self-convergence under grid doubling is then at the 1e-8 level.

Everything here is deliberately independent of the closed-form spectrum
module: the two are cross-checked against each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremals import GridSpec, bubble_half_width, default_grid, psi, psi_prime
from .params import CknParams

__all__ = [
    "ConvergenceFailure",
    "GapCheckReport",
    "GridSpec",
    "default_grid",
    "generalized_eigenvalues",
    "inertia_count",
    "mode_eigenpairs",
    "rayleigh_gap_check",
    "solver_grid",
]


class ConvergenceFailure(RuntimeError):
    """The Lanczos solve did not converge, the requested eigenvalues are not
    all below lambda = 1e3, or the Sturm count does not certify that exactly
    the smallest ones were found."""


def solver_grid(params: CknParams) -> GridSpec:
    """8000-node grid for eigenvalue solves over the bubble window
    (``extremals.bubble_half_width``); modes i >= 1 decay faster than mode 0."""
    return GridSpec(half_width=bubble_half_width(params), nodes=8000)


def _negative_count(diag: np.ndarray, weight: np.ndarray, off_sq: float, lam: float) -> int:
    # Sturm sequence: negative pivots in LDL^T of (A - lam W).  numpy forms the
    # shifted diagonal; the pivot loop runs over Python floats, not array items
    count = 0
    d = math.inf  # the first row has no coupling above it
    for a in (diag - lam * weight).tolist():
        d = a - off_sq / d
        if d <= 0.0:  # one test on the common path of positive pivots
            if d < 0.0:
                count += 1
            else:
                d = 1e-300
    return count


def _assemble(params: CknParams, i: int, grid: GridSpec):
    t = grid.t()[1:-1]
    h = grid.spacing
    tau = params.tau(i)
    diag = np.full(t.size, 2.0 / h**2 + tau)
    weight = params.beta / np.cosh(params.gamma * t) ** 2
    off = -1.0 / h**2
    return diag, weight, off


def inertia_count(params: CknParams, i: int, lam: float, grid: GridSpec) -> int:
    """Number of generalized eigenvalues of the discretized pencil below lam."""
    diag, weight, off = _assemble(params, i, grid)
    return _negative_count(diag, weight, off * off, lam)


def _lanczos(
    params: CknParams, i: int, count: int, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenvalues, ascending, with unnormalized
    pencil eigenvectors x = A^{-1} W^{1/2} y as columns."""
    # scipy loads on the first solve, so importing the package (as every CLI
    # command does) does not pay for it
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    diag, weight, off = _assemble(params, i, grid)
    m = diag.size
    # A is tridiagonal with a positive diagonal shift tau_i, hence SPD
    pivots, lower, info = dpttrf(diag, np.full(m - 1, off))
    if info != 0:
        raise ConvergenceFailure(f"L D L^T factorization of A failed for mode {i}")
    root = np.sqrt(weight)
    operator = LinearOperator(
        (m, m), matvec=lambda y: root * dpttrs(pivots, lower, root * y.ravel())[0], dtype=float
    )
    # fixed start vector, since ARPACK's default one is random; the tilt gives
    # it an odd part, which W^{1/2} alone lacks (the translation mode is odd)
    start = root * np.linspace(0.5, 1.5, m)
    try:
        mu, y = eigsh(operator, k=count, which="LA", tol=0, v0=start / np.linalg.norm(start))
    except ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"Lanczos did not converge for mode {i}") from exc
    order = np.argsort(mu)[::-1]
    lams = 1.0 / mu[order]
    if not lams[-1] < 1e3:
        raise ConvergenceFailure(
            f"fewer than {count} eigenvalues of mode {i} below lambda = 1e3"
        )
    if _negative_count(diag, weight, off * off, lams[-1] * (1.0 + 1e-9)) != count:
        raise ConvergenceFailure(
            f"Sturm count does not certify the {count} smallest eigenvalues of mode {i}"
        )
    return lams, dpttrs(pivots, lower, root[:, None] * y[:, order])[0]


def generalized_eigenvalues(
    params: CknParams,
    i: int,
    count: int,
    grid: GridSpec | None = None,
) -> list[float]:
    """The ``count`` smallest eigenvalues of the mode-i discretized problem.

    The second-difference bias is removed by Richardson extrapolation across
    grids of N, N/2, and N/4 nodes, which cancels the h^2 and h^4 error terms.
    Falls back to single-level (h^2 only) or raw values when the grid is too
    coarse to split.
    """
    if count > 6:
        raise ValueError("at most 6 eigenvalues per mode are supported")
    if grid is None:
        grid = solver_grid(params)
    grids = [grid]
    if grid.nodes >= 4000:
        grids.append(GridSpec(grid.half_width, grid.nodes // 2))
    if grid.nodes >= 8000:
        grids.append(GridSpec(grid.half_width, grid.nodes // 4))
    solves = [_lanczos(params, i, count, g)[0].tolist() for g in grids]
    if len(grids) == 1:
        return solves[0]
    # fit lam(h) = lam + c2 h^2 (+ c4 h^4) through the actual spacings; the
    # node counts do not give exact h ratios, so the classical Richardson
    # weights would leave an O(h^2/M) residual
    spacings = np.array([g.spacing for g in grids])
    vandermonde = np.vander(spacings**2, len(grids), increasing=True)
    out = []
    for k in range(count):
        rhs = np.array([solve[k] for solve in solves])
        out.append(float(np.linalg.solve(vandermonde, rhs)[0]))
    return out


def mode_eigenpairs(
    params: CknParams, i: int, count: int, grid: GridSpec
) -> tuple[list[float], np.ndarray]:
    """Eigenvalues (un-extrapolated, grid-consistent) with eigenvectors of
    unit Euclidean norm, each with its largest-magnitude entry positive."""
    lams, vecs = _lanczos(params, i, count, grid)
    vecs /= np.linalg.norm(vecs, axis=0)
    vecs *= np.sign(vecs[np.abs(vecs).argmax(axis=0), np.arange(count)])
    return lams.tolist(), vecs


@dataclass(frozen=True)
class GapCheckReport:
    """Outcome of the discretized Rayleigh minimization over the constrained
    complement of the soft modes."""

    value: float
    mode0_value: float
    mode1_value: float
    winner_mode: int
    minimizer: np.ndarray
    grid: GridSpec


def _tridiagonal_product(diag: np.ndarray, off: float, x: np.ndarray) -> np.ndarray:
    """A @ x for the symmetric tridiagonal A of ``_assemble``, x with columns."""
    out = diag[:, None] * x
    out[1:] += off * x[:-1]
    out[:-1] += off * x[1:]
    return out


def rayleigh_gap_check(params: CknParams) -> GapCheckReport:
    """Minimize the discretized gap quotient 1 - x^T W x / x^T A x on the
    pencil of ``_assemble`` over the complement of the bubble and its
    translation mode: over the span of the lowest six mode-0 eigenvectors,
    A-orthogonal to the sampled bubble and its derivative, and over
    unconstrained mode-1 functions.  The smaller value is the discrete gap
    constant; the grid factor h cancels from every ratio.
    """
    from scipy.linalg import eigh

    grid = solver_grid(params)
    t = grid.t()[1:-1]
    diag, weight, off = _assemble(params, 0, grid)
    _, vecs = mode_eigenpairs(params, 0, 6, grid)
    a_vecs = _tridiagonal_product(diag, off, vecs)
    constraints = a_vecs.T @ np.column_stack([psi(params, t), psi_prime(params, t)])
    _, _, vt = np.linalg.svd(constraints.T, full_matrices=True)
    null_basis = vt[2:].T  # 6 x 4, kernel of the constraint rows
    mat_b = null_basis.T @ (vecs.T @ (weight[:, None] * vecs)) @ null_basis
    mat_a = null_basis.T @ (vecs.T @ a_vecs) @ null_basis
    mu, coeff = eigh(mat_b, mat_a)
    minimizer0 = vecs @ (null_basis @ coeff[:, -1])
    mode0_value = 1.0 - float(mu[-1])

    # mode 1: unconstrained, so the ground state minimizes, and the Rayleigh
    # quotient of a pencil eigenvector is 1/lambda
    lams1, vecs1 = mode_eigenpairs(params, 1, 1, grid)
    mode1_value = 1.0 - 1.0 / lams1[0]

    mode = 0 if mode0_value <= mode1_value else 1
    return GapCheckReport(
        value=min(mode0_value, mode1_value),
        mode0_value=mode0_value,
        mode1_value=mode1_value,
        winner_mode=mode,
        minimizer=np.pad(vecs1[:, 0] if mode else minimizer0, 1),
        grid=grid,
    )
