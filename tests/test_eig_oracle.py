import ast
from pathlib import Path

import numpy as np
import pytest

import cknlab.cylinder
import cknlab.eig_oracle
import cknlab.energy
import cknlab.minimizer
from cknlab.eig_oracle import (
    ConvergenceFailure,
    GridSpec,
    generalized_eigenvalues,
    inertia_count,
    mode_eigenpairs,
    rayleigh_gap_check,
    solver_grid,
)
from cknlab.extremals import psi, psi_prime
from cknlab.params import felli_schneider, make_params
from cknlab.spectrum import eigenvalue_closed, rho_02, rho_10_profile, spectral_gap
from tests.conftest import sample_valid_params
from tests.oracles import dense_pencil_eigenvalues


def test_mode_zero_reference_point(params_case2):
    p = params_case2.p
    exact = [1.0 / p, 1.0, (3.0 * p - 1.0) / (p + 1.0)]
    # reference resolution and a finer default-style grid
    for nodes in (6000, 8000):
        lams = generalized_eigenvalues(params_case2, 0, 3, GridSpec(120.0, nodes))
        for lam, ref in zip(lams, exact):
            assert lam == pytest.approx(ref, rel=1e-6)


def test_mode_one_near_degenerate_curve():
    b_fs = felli_schneider(3, -1.0)
    params = make_params(3, -1.0, b_fs + 1e-6)
    lam = generalized_eigenvalues(params, 1, 1)[0]
    assert lam == pytest.approx(1.0, abs=1e-4)


def test_grid_refinement_stability(params_case2):
    base = generalized_eigenvalues(params_case2, 0, 3, GridSpec(120.0, 8000))
    fine = generalized_eigenvalues(params_case2, 0, 3, GridSpec(120.0, 16000))
    for a, b in zip(base, fine):
        assert abs(a - b) < 1e-8


def test_closed_form_agreement_random_points(rng):
    for _ in range(5):
        params = sample_valid_params(rng, p_cap=6.0)
        for i in range(2):
            lams = generalized_eigenvalues(params, i, 2)
            for j, lam in enumerate(lams):
                assert lam == pytest.approx(eigenvalue_closed(params, i, j).lam, rel=1e-6)


def test_inertia_brackets_closed_form(params_case2):
    grid = solver_grid(params_case2)
    for i in range(2):
        for j in range(2):
            lam = eigenvalue_closed(params_case2, i, j).lam
            below = inertia_count(params_case2, i, lam - 1e-4, grid)
            above = inertia_count(params_case2, i, lam + 1e-4, grid)
            assert above - below == 1


# criterion 10's three points and one CaseII point with a < 0
EIGENPAIR_POINTS = [(4, 0.5, 0.6), (4, 0.0, 0.5), (4, 0.0, 0.3), (3, -0.4, 0.2)]


@pytest.mark.parametrize("point", EIGENPAIR_POINTS, ids=str)
def test_sturm_count_brackets_each_raw_eigenvalue(point):
    params = make_params(*point)
    grid = solver_grid(params)
    for i in range(3):
        lams, _ = mode_eigenpairs(params, i, 3, grid)
        for k, lam in enumerate(lams):
            assert inertia_count(params, i, lam * (1.0 - 1e-10), grid) == k
            assert inertia_count(params, i, lam * (1.0 + 1e-10), grid) == k + 1


@pytest.mark.parametrize("point", EIGENPAIR_POINTS, ids=str)
def test_eigenpairs_solve_the_pencil(point):
    params = make_params(*point)
    grid = solver_grid(params)
    h = grid.spacing
    weight = params.beta / np.cosh(params.gamma * grid.t()[1:-1]) ** 2
    for i in range(3):
        lams, vecs = mode_eigenpairs(params, i, 3, grid)
        for lam, x in zip(lams, vecs.T):
            padded = np.pad(x, 1)  # Dirichlet walls
            ax = -(padded[2:] - 2.0 * x + padded[:-2]) / h**2 + params.tau(i) * x
            assert np.linalg.norm(ax - lam * weight * x) <= 1e-10 * np.linalg.norm(ax)
        gram = vecs.T @ (weight[:, None] * vecs)
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12


@pytest.mark.parametrize("point", [(4, 0.0, 0.5), (3, -0.4, 0.2)], ids=str)
def test_lanczos_matches_dense_pencil(point):
    # the raw (un-extrapolated) pencil on a 1024-node grid, where a dense
    # eigensolve of W^{1/2} A^{-1} W^{1/2} is cheap
    params = make_params(*point)
    grid = GridSpec(solver_grid(params).half_width, 1024)
    for i in range(3):
        reference = dense_pencil_eigenvalues(params, i, 4, grid)
        lams, _ = mode_eigenpairs(params, i, 3, grid)
        np.testing.assert_allclose(lams, reference[:3], rtol=1e-12, atol=0.0)
        for k in range(1, 4):
            midpoint = 0.5 * (reference[k - 1] + reference[k])
            assert inertia_count(params, i, midpoint, grid) == k


# p -> 1, where a width of 40/gamma left the eigenfunctions a few nodes wide:
# five points that oracle_check draws (seeds 2, 5 and 9) and two more
NEAR_P_ONE_POINTS = [
    (5, 1.2513879312382445, 2.2051963028964434),
    (4, 0.41838792695969806, 1.3975969974221665),
    (7, 2.084553999716048, 3.0216720158458523),
    (7, 2.1436156798550936, 3.111846796873887),
    (5, 1.2296231780781426, 2.2040348849070197),
    (3, 0.36788, 1.34732),
    (3, -1.284, -0.2886),
]


@pytest.mark.parametrize("point", NEAR_P_ONE_POINTS, ids=str)
def test_closed_form_agreement_near_p_one(point):
    params = make_params(*point)
    for i in range(3):
        for j, lam in enumerate(generalized_eigenvalues(params, i, 3)):
            assert lam == pytest.approx(eigenvalue_closed(params, i, j).lam, rel=1e-6)


@pytest.mark.parametrize("point", EIGENPAIR_POINTS, ids=str)
def test_eigenvalues_are_deterministic(point):
    params = make_params(*point)
    assert generalized_eigenvalues(params, 1, 3) == generalized_eigenvalues(params, 1, 3)


def test_bracket_failure_is_reported(params_case2):
    with pytest.raises(ConvergenceFailure):
        generalized_eigenvalues(params_case2, 60, 6, GridSpec(60.0, 2000))


def _imported_modules(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return {part for name in imported for part in name.split(".")}


def test_oracle_module_independence():
    modules = _imported_modules(cknlab.eig_oracle)
    assert not modules & {"spectrum", "energy", "cylinder", "minimizer"}
    # nor does the cylinder side import the oracle (and scipy.linalg with it)
    for module in (cknlab.cylinder, cknlab.energy, cknlab.minimizer):
        assert "eig_oracle" not in _imported_modules(module), module.__name__


@pytest.mark.parametrize("point", [(4, 0.0, 0.5), (3, -0.4, 0.2)], ids=str)
def test_rayleigh_gap_minimizer_meets_constraints(point):
    params = make_params(*point)
    report = rayleigh_gap_check(params)
    assert report.winner_mode == 0
    grid = report.grid
    t = grid.t()[1:-1]
    v = report.minimizer  # zero at both walls
    x = v[1:-1]
    ax = -(v[2:] - 2.0 * x + v[:-2]) / grid.spacing**2 + params.tau(0) * x
    for f in (psi(params, t), psi_prime(params, t)):
        assert abs(np.dot(ax, f)) <= 1e-10 * np.linalg.norm(ax) * np.linalg.norm(f)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    return abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))


def test_rayleigh_gap_radial_region(params_case2):
    report = rayleigh_gap_check(params_case2)
    gap = spectral_gap(params_case2)
    assert report.value >= gap.lambda_star - 1e-3
    assert report.value == pytest.approx(gap.lambda_star, abs=1e-3)
    assert report.winner_mode == 0
    t = report.grid.t()
    reference = rho_02(params_case2, t)
    assert _cosine(report.minimizer, reference) > 0.999


def test_rayleigh_gap_degree_one_region(params_remaining):
    report = rayleigh_gap_check(params_remaining)
    gap = spectral_gap(params_remaining)
    assert report.value >= gap.lambda_star - 1e-3
    assert report.value == pytest.approx(gap.lambda_star, abs=1e-3)
    assert report.winner_mode == 1
    t = report.grid.t()
    reference = rho_10_profile(params_remaining, t)
    assert _cosine(report.minimizer, reference) > 0.999
