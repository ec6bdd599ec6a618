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
from tests.oracles import dense_pencil_eigenvalues, sinc_pencil


def test_mode_zero_reference_point(params_case2):
    p = params_case2.p
    exact = [1.0 / p, 1.0, (3.0 * p - 1.0) / (p + 1.0)]
    lams = generalized_eigenvalues(params_case2, 0, 3)
    for lam, ref in zip(lams, exact):
        assert lam == pytest.approx(ref, rel=1e-12)


def test_mode_one_near_degenerate_curve():
    b_fs = felli_schneider(3, -1.0)
    params = make_params(3, -1.0, b_fs + 1e-6)
    lam = generalized_eigenvalues(params, 1, 1)[0]
    assert lam == pytest.approx(1.0, abs=1e-4)


def test_grid_refinement_stability(params_case2):
    # the solver grid against 1.25 times its nodes over the same window
    for i in range(3):
        t = solver_grid(params_case2, i)
        fine = np.linspace(t[0], t[-1], round(1.25 * t.size))
        base, _ = mode_eigenpairs(params_case2, i, 3, t)
        refined, _ = mode_eigenpairs(params_case2, i, 3, fine)
        np.testing.assert_allclose(base, refined, rtol=1e-12, atol=0.0)


def test_closed_form_agreement_random_points():
    # criterion 3's domain: p <= 6 and lambda_22 inside the solver's window
    rng = np.random.default_rng(33)
    accepted = 0
    while accepted < 100:
        params = sample_valid_params(rng, p_cap=6.0)
        if eigenvalue_closed(params, 2, 2).lam > 900.0:
            continue
        accepted += 1
        for i in range(3):
            for j, lam in enumerate(generalized_eigenvalues(params, i, 3)):
                assert lam == pytest.approx(eigenvalue_closed(params, i, j).lam, rel=1e-12)
        assert rayleigh_gap_check(params).value == pytest.approx(
            spectral_gap(params).lambda_star, abs=1e-12
        )


def test_inertia_brackets_closed_form(params_case2):
    for i in range(2):
        t = solver_grid(params_case2, i)
        for j in range(2):
            lam = eigenvalue_closed(params_case2, i, j).lam
            assert inertia_count(params_case2, i, lam - 1e-4, t) == j
            assert inertia_count(params_case2, i, lam + 1e-4, t) == j + 1


# criterion 10's three points and one CaseII point with a < 0
EIGENPAIR_POINTS = [(4, 0.5, 0.6), (4, 0.0, 0.5), (4, 0.0, 0.3), (3, -0.4, 0.2)]


@pytest.mark.parametrize("point", EIGENPAIR_POINTS, ids=str)
def test_sturm_count_brackets_each_raw_eigenvalue(point):
    # inertia_count, the count that a Sturm sequence gives, now read off the
    # dense spectrum: it must agree with the eigenvalues mode_eigenpairs returns
    params = make_params(*point)
    for i in range(3):
        t = solver_grid(params, i)
        lams, _ = mode_eigenpairs(params, i, 3, t)
        for k, lam in enumerate(lams):
            assert inertia_count(params, i, lam * (1.0 - 1e-10), t) == k
            assert inertia_count(params, i, lam * (1.0 + 1e-10), t) == k + 1


@pytest.mark.parametrize("point", EIGENPAIR_POINTS, ids=str)
def test_eigenpairs_solve_the_pencil(point):
    params = make_params(*point)
    for i in range(3):
        t = solver_grid(params, i)
        a_mat, weight = sinc_pencil(params, i, t)
        lams, vecs = mode_eigenpairs(params, i, 3, t)
        for lam, x in zip(lams, vecs.T):
            ax = a_mat @ x
            assert np.linalg.norm(ax - lam * weight * x) <= 1e-12 * np.linalg.norm(ax)
        # A-orthogonal, relative to the A-norms
        gram = vecs.T @ a_mat @ vecs
        norms = np.sqrt(np.diag(gram))
        assert np.abs(gram / np.outer(norms, norms) - np.eye(3)).max() <= 1e-12


@pytest.mark.parametrize("point", [(4, 0.0, 0.5), (3, -0.4, 0.2)], ids=str)
def test_sinc_matches_second_difference_pencil(point):
    # the second-difference pencil on 2x and 4x the solver's nodes over the
    # same window converges to the collocated eigenvalues at its own O(h^2)
    # rate: its error on the finer grid is at most 0.35 of the change between
    # the two grids (exactly 1/3 for a pure h^2 error; the rest allows for
    # the h^4 term)
    params = make_params(*point)
    for i in range(3):
        t = solver_grid(params, i)
        lams = np.array(generalized_eigenvalues(params, i, 3))
        coarse, fine = (
            dense_pencil_eigenvalues(params, i, 4, np.linspace(t[0], t[-1], k * t.size))
            for k in (2, 4)
        )
        assert np.all(np.abs(fine[:3] - lams) <= 0.35 * np.abs(coarse[:3] - fine[:3]))
        for k in range(1, 4):
            midpoint = 0.5 * (fine[k - 1] + fine[k])
            assert inertia_count(params, i, midpoint, t) == k


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
            assert lam == pytest.approx(eigenvalue_closed(params, i, j).lam, rel=1e-12)
    assert rayleigh_gap_check(params).value == pytest.approx(
        spectral_gap(params).lambda_star, abs=1e-12
    )


@pytest.mark.parametrize("point", EIGENPAIR_POINTS, ids=str)
def test_eigenvalues_are_deterministic(point):
    params = make_params(*point)
    assert generalized_eigenvalues(params, 1, 3) == generalized_eigenvalues(params, 1, 3)


def test_bracket_failure_is_reported(params_case2):
    with pytest.raises(ConvergenceFailure):
        generalized_eigenvalues(params_case2, 60, 6)


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
    assert not modules & {"spectrum", "energy", "cylinder", "minimizer", "scipy"}
    # nor does the cylinder side import the oracle
    for module in (cknlab.cylinder, cknlab.energy, cknlab.minimizer):
        assert "eig_oracle" not in _imported_modules(module), module.__name__


@pytest.mark.parametrize("point", [(4, 0.0, 0.5), (3, -0.4, 0.2)], ids=str)
def test_rayleigh_gap_minimizer_meets_constraints(point):
    params = make_params(*point)
    report = rayleigh_gap_check(params)
    assert report.winner_mode == 0
    a_mat, _ = sinc_pencil(params, 0, report.t)
    ax = a_mat @ report.minimizer
    for f in (psi(params, report.t), psi_prime(params, report.t)):
        assert abs(np.dot(ax, f)) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(f)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    return abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))


def test_rayleigh_gap_radial_region(params_case2):
    report = rayleigh_gap_check(params_case2)
    gap = spectral_gap(params_case2)
    assert report.value >= gap.lambda_star - 1e-3
    assert report.value == pytest.approx(gap.lambda_star, abs=1e-3)
    assert report.winner_mode == 0
    t = report.t
    reference = rho_02(params_case2, t)
    assert _cosine(report.minimizer, reference) > 0.999


def test_rayleigh_gap_degree_one_region(params_remaining):
    report = rayleigh_gap_check(params_remaining)
    gap = spectral_gap(params_remaining)
    assert report.value >= gap.lambda_star - 1e-3
    assert report.value == pytest.approx(gap.lambda_star, abs=1e-3)
    assert report.winner_mode == 1
    t = report.t
    reference = rho_10_profile(params_remaining, t)
    assert _cosine(report.minimizer, reference) > 0.999
