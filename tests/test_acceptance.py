"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting its stated tolerance and budget.

Criterion 7's deficit-rate clause is implemented twice: once literally as
stated (which fails: the stated rate constant is inconsistent with the
two-bubble expansion it is derived from, off by the factor
(2^(2/(p+1)) - 1) * C), and once with the rate constant the expansion
actually produces, which the numerics confirm to well within the stated 10%.
See the decisions ledger accompanying the build for the analysis; the
discrepancy is surfaced in every two-bubble report rather than silently
patched.
"""

import io
import json
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_jacobi

from cknlab.cli import run_command
from cknlab.cylinder import combine, model_for
from cknlab.energy import (
    a0_coefficient,
    gap_perturbation_quotient,
    rho02_h1_norm_sq,
    third_order_coefficient,
    two_bubble_quotient,
    zhat,
)
from cknlab.eig_oracle import generalized_eigenvalues, rayleigh_gap_check
from cknlab.extremals import optimal_constant, psi, psi_norms
from cknlab.minimizer import estimate_cbe
from cknlab.params import RegionClass, classify, felli_schneider, make_params
from cknlab.specfun import cosh_power_integral, sphere_area
from cknlab.spectrum import eigenvalue_closed, rho_02, rho_10_profile, spectral_gap
from tests.conftest import sample_valid_params
from tests.oracles import neg_laplacian, numerator_gradient, random_mperp, rho10_function
from tests.test_specfun import quad_cosh_power


def _directional_derivative(functional, v, direction, eps: float = 3e-5) -> float:
    """Fourth-order central difference.  The wide stencil keeps the roundoff
    of the O(100)-sized energies far below the derivative; the moderate step
    keeps the truncation from the limited smoothness of |v|^(p+1) at sign
    changes near 1e-8 of the part magnitudes."""

    def at(c):
        return functional(combine([1.0, c], [v, direction]))

    return (-at(2 * eps) + 8.0 * at(eps) - 8.0 * at(-eps) + at(-2 * eps)) / (12.0 * eps)


def _gradient_scale(model, v, direction) -> float:
    """Sum of the magnitudes of the two parts of the numerator derivative."""
    params = model.params
    h1_part = sum(
        abs(
            float(
                np.dot(
                    2.0
                    * model.h
                    * (neg_laplacian(model, v.mode(d)) + params.tau(d) * v.mode(d)),
                    direction.mode(d),
                )
            )
        )
        for d in v.degrees
    )
    full = numerator_gradient(model, v)
    full_part = sum(
        abs(float(np.dot(full[d], direction.mode(d)))) for d in v.degrees
    )
    return h1_part + full_part


@contextmanager
def criterion(label: str, budget: float, description: str):
    start = time.monotonic()
    try:
        yield
    except Exception:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {label}: FAIL - {description} ({elapsed:.2f} s)", flush=True)
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"ACCEPTANCE {label}: {status} - {description} ({elapsed:.2f} s)", flush=True)
    assert elapsed < budget, f"criterion {label} exceeded its {budget}s runtime budget"


def test_criterion_01_exact_eigenvalue_identities():
    rng = np.random.default_rng(101)
    with criterion("1", 1.0, "lambda_01 = 1 and lambda_00 = 1/p on 50 random points"):
        for _ in range(50):
            params = sample_valid_params(rng, p_cap=40.0)
            assert eigenvalue_closed(params, 0, 1).lam == pytest.approx(1.0, rel=1e-12)
            assert eigenvalue_closed(params, 0, 0).lam == pytest.approx(
                1.0 / params.p, rel=1e-12
            )


def test_criterion_02_gap_constants():
    rng = np.random.default_rng(102)
    with criterion("2", 1.0, "gap constants from the raw eigenvalue formula"):
        for _ in range(50):
            region = "CaseI" if rng.random() < 0.5 else "CaseII"
            params = sample_valid_params(rng, region=region, p_cap=40.0)
            gap = spectral_gap(params)
            p = params.p
            assert gap.lambda_star == pytest.approx(
                2.0 * (p - 1.0) / (3.0 * p - 1.0), rel=1e-12
            )
        b_fs = felli_schneider(4, -1.0)
        values = []
        for offset in (1e-2, 1e-4, 1e-6):
            params = make_params(4, -1.0, b_fs + offset)
            assert classify(params).region == RegionClass.REMAINING
            values.append(spectral_gap(params).lambda_star)
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] < 1e-4


def test_criterion_03_oracle_agreement():
    rng = np.random.default_rng(103)
    with criterion("3", 60.0, "sinc-collocation eigenvalues vs closed forms, 20 points"):
        accepted = 0
        while accepted < 20:
            params = sample_valid_params(rng, p_cap=6.0)
            # stay inside the solver's documented bracket window lambda < 1e3
            if eigenvalue_closed(params, 2, 2).lam > 900.0:
                continue
            accepted += 1
            for i in range(3):
                numeric = generalized_eigenvalues(params, i, 3)
                for j, lam in enumerate(numeric):
                    closed = eigenvalue_closed(params, i, j).lam
                    assert lam == pytest.approx(closed, rel=1e-6)


def test_criterion_04_spectral_gap_inequality():
    with criterion("4", 120.0, "discretized Rayleigh minimization over the constrained complement"):
        radial = make_params(4, 0.0, 0.5)
        report = rayleigh_gap_check(radial)
        gap = spectral_gap(radial).lambda_star
        assert report.value >= gap - 1e-3
        assert report.value == pytest.approx(gap, abs=1e-3)
        assert report.winner_mode == 0
        t = report.t
        ref = rho_02(radial, t)
        cos = abs(np.dot(report.minimizer, ref)) / (
            np.linalg.norm(report.minimizer) * np.linalg.norm(ref)
        )
        assert cos > 0.999

        degree_one = make_params(4, 0.0, 0.3)
        report1 = rayleigh_gap_check(degree_one)
        gap1 = spectral_gap(degree_one).lambda_star
        assert report1.value >= gap1 - 1e-3
        assert report1.value == pytest.approx(gap1, abs=1e-3)
        assert report1.winner_mode == 1
        t1 = report1.t
        ref1 = rho_10_profile(degree_one, t1)
        cos1 = abs(np.dot(report1.minimizer, ref1)) / (
            np.linalg.norm(report1.minimizer) * np.linalg.norm(ref1)
        )
        assert cos1 > 0.999


def test_criterion_05_beta_identity():
    rng = np.random.default_rng(105)
    with criterion("5", 5.0, "sech-power integral vs adaptive quadrature, 100 points"):
        for _ in range(100):
            beta_exp = float(rng.uniform(-0.45, 2.5))
            alpha = float(rng.uniform(2.0 * beta_exp + 0.5, 2.0 * beta_exp + 12.0))
            closed = cosh_power_integral(alpha, beta_exp)
            assert closed == pytest.approx(
                quad_cosh_power(alpha, beta_exp), rel=1e-10, abs=1e-10
            )


def test_criterion_06_third_order_coefficient():
    rng = np.random.default_rng(106)
    with criterion("6", 30.0, "cubic moment closed form vs quadrature, and positivity"):
        for _ in range(10):
            region = "CaseI" if rng.random() < 0.5 else "CaseII"
            params = sample_valid_params(rng, region=region, p_cap=5.0)
            d = params.ac_minus_a
            quad, _ = integrate.quad(
                lambda t: psi(params, t) ** (params.p - 2.0) * rho_02(params, t) ** 3,
                -200.0 / d,
                200.0 / d,
                epsabs=1e-13,
                epsrel=1e-12,
                limit=800,
            )
            assert third_order_coefficient(params) == pytest.approx(
                quad * sphere_area(params.N), rel=1e-8
            )
        for _ in range(1000):
            region = "CaseI" if rng.random() < 0.5 else "CaseII"
            params = sample_valid_params(rng, region=region, p_cap=30.0)
            assert third_order_coefficient(params) > 0.0


# two-bubble criterion: the test point has critical exponent 3, where the
# deficits at the stated separations are far above roundoff
_TB_POINT = (4, 0.5, 0.5)


def test_criterion_07a_two_bubble_bound():
    with criterion("7a", 60.0, "two-bubble quotient below 2 - 2^(2/(p+1))"):
        params = make_params(*_TB_POINT)
        bound = 2.0 - 2.0 ** (2.0 / (params.p + 1.0))
        for s_units in (8.0, 10.0, 12.0):
            report = two_bubble_quotient(params, s_units / params.gamma)
            assert report.value < bound


def test_criterion_07b_deficit_rate_as_stated():
    # literal clause: deficit * e^{2 gamma s/(p-1)} = 2 A0 C^(2/(p-1)) to 10%.
    # The stated constant does not match the expansion the bound comes from;
    # the honest numerics fail this clause by roughly a factor of nine at the
    # test point (see the derived-rate criterion below and the ledger).
    with criterion("7b-literal", 60.0, "deficit rate vs the stated constant 2 A0 C^(2/(p-1))"):
        params = make_params(*_TB_POINT)
        a0 = a0_coefficient(params)
        c_inv = optimal_constant(params).c_inv
        stated = 2.0 * a0 * c_inv ** (-2.0 / (params.p - 1.0))
        for s_units in (8.0, 10.0, 12.0):
            report = two_bubble_quotient(params, s_units / params.gamma)
            assert report.deficit_rate == pytest.approx(stated, rel=0.10), (
                f"measured rate {report.deficit_rate:.6g} vs stated {stated:.6g} "
                f"(expansion-derived value {report.predicted_deficit_rate:.6g})"
            )


def test_criterion_07b_deficit_rate_derived():
    with criterion(
        "7b-derived", 60.0, "deficit rate vs the expansion constant 2(2^(2/(p+1))-1) A0 / E"
    ):
        params = make_params(*_TB_POINT)
        for s_units in (8.0, 10.0, 12.0):
            report = two_bubble_quotient(params, s_units / params.gamma)
            assert report.deficit_rate == pytest.approx(
                report.predicted_deficit_rate, rel=0.10
            )


def test_criterion_08_gap_perturbation_bound():
    with criterion("8", 60.0, "gap-perturbation quotient below 2(p-1)/(3p-1), slope to 10%"):
        params = make_params(4, 0.0, 0.5)
        p = params.p
        report = gap_perturbation_quotient(params, 0.01)
        assert report.value < 2.0 * (p - 1.0) / (3.0 * p - 1.0)
        eps_values = np.array([0.02, 0.01, 0.005])
        qs = np.array(
            [gap_perturbation_quotient(params, float(e)).value for e in eps_values]
        )
        design = np.vstack([np.ones_like(eps_values), -eps_values]).T
        (_, slope_fit), *_ = np.linalg.lstsq(design, qs, rcond=None)
        predicted = (
            p * (p - 1.0) / 3.0 * third_order_coefficient(params) / rho02_h1_norm_sq(params)
        )
        assert slope_fit == pytest.approx(predicted, rel=0.10)


def _zhat_quadrature_recombination(params):
    """Reconstruct the quartic coefficient from genuinely 2D quadratures."""
    p, g = params.p, params.gamma
    n_dim = params.N
    d = params.ac_minus_a
    half = min(300.0 / d, 600.0 / math.sqrt(params.tau(1)))
    t = np.linspace(-half, half, 20001)
    w_t = np.full(t.size, t[1] - t[0])
    w_t[0] = w_t[-1] = 0.5 * (t[1] - t[0])
    x, w_ang = roots_jacobi(64, (n_dim - 3) / 2.0, (n_dim - 3) / 2.0)
    ring = sphere_area(n_dim - 1) if n_dim >= 3 else 2.0
    psi_t = psi(params, t)
    prof = rho_10_profile(params, t)
    axis4 = np.dot(w_t, psi_t ** (p - 3.0) * prof**4)
    axis2 = np.dot(w_t, psi_t ** (p - 1.0) * prof**2)
    moment4 = ring * float(np.dot(w_ang, x**4)) * axis4
    moment2 = ring * float(np.dot(w_ang, x**2)) * axis2
    # recombined with the surface-area-free closed form of the optimal
    # constant, matching the display convention
    c_pow = sphere_area(n_dim) / psi_norms(params).h1_sq
    return (
        p * (p - 1.0) * (p - 2.0) / 12.0 * moment4
        - c_pow * (p - 1.0) * p**2 / 4.0 * moment2**2
    )


def test_criterion_09_quartic_sign_and_reconstruction():
    rng = np.random.default_rng(109)
    with criterion("9", 120.0, "quartic coefficient negative; matches 2D-quadrature moments"):
        for n_dim in (2, 3, 4, 5):
            for _ in range(20):
                params = sample_valid_params(
                    rng, n_choices=(n_dim,), region="Remaining", p_cap=30.0
                )
                assert zhat(params).value < 0.0
            for _ in range(3):
                params = sample_valid_params(
                    rng, n_choices=(n_dim,), region="Remaining", p_cap=8.0,
                    avoid_p_near_2=True,
                )
                report = zhat(params)
                recombined = _zhat_quadrature_recombination(params)
                assert report.value == pytest.approx(recombined, rel=1e-6)


def test_criterion_10_minimizer_sanity():
    with criterion("10", 600.0, "two-start minimization within bounds, deterministic"):
        for point in ((4, 0.5, 0.6), (4, 0.0, 0.5), (4, 0.0, 0.3)):
            params = make_params(*point)
            report = estimate_cbe(params)
            ceiling = min(report.bounds.bound_gap, report.bounds.bound_two_bubble) + 1e-3
            assert 1e-4 < report.value <= ceiling

        # gradient correctness at the reference point
        params = make_params(4, 0.0, 0.5)
        model = model_for(params)
        rng = np.random.default_rng(110)
        envelope = np.exp(-((model.t / 40.0) ** 2))
        iterates = [
            combine([1.0, 0.05], [model.psi_function(), model.rho02_function()]),
            combine([1.0, 0.1, 0.05], [model.psi_function(), model.rho02_function(), rho10_function(model)]),
            combine([1.0, 1.0], [model.psi_function(), random_mperp(model, 1, 0.2)]),
            combine([1.0, 1.0], [model.psi_function(), random_mperp(model, 2, 0.4)]),
            combine([1.0, 0.2], [model.psi_function(), rho10_function(model)]),
        ]

        def numerator(v):
            return model.h1_inner(v, v) - model.c_inv * model.lp1_pow(v) ** (
                2.0 / (params.p + 1.0)
            )

        for v in iterates:
            grads = numerator_gradient(model, v)
            for _ in range(2):
                direction = model.function(
                    {
                        0: rng.standard_normal(model.grid.nodes) * envelope,
                        1: rng.standard_normal(model.grid.nodes) * envelope,
                    }
                )
                fd = _directional_derivative(numerator, v, direction)
                analytic = sum(
                    float(np.dot(grads[d], direction.mode(d))) for d in v.degrees
                )
                # the derivative is a difference of an H1 and an L^{p+1} part;
                # 1e-6 relative is measured against their magnitudes, which is
                # what survives when a random direction makes them cancel
                scale = _gradient_scale(model, v, direction)
                assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-6 * scale)

        first = estimate_cbe(params, max_iterations=15)
        second = estimate_cbe(params, max_iterations=15)
        assert first.trace == second.trace


def test_criterion_11_distance_formula():
    with criterion("11", 10.0, "manifold distance identities"):
        params = make_params(4, 0.0, 0.5)
        model = model_for(params)
        psif = model.psi_function()
        assert model.distance_to_manifold(psif).distance_sq < 1e-8 * model.energy_psi
        eps = 1e-3
        v = combine([1.0, eps], [psif, model.rho02_function()])
        dist_sq = model.distance_to_manifold(v).distance_sq
        assert dist_sq == pytest.approx(eps * eps * rho02_h1_norm_sq(params), rel=1e-2)


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run_command(argv)
    return code, json.loads(buffer.getvalue())


def test_criterion_12_discrepancies_surfaced():
    with criterion("12", 10.0, "documented discrepancies appear in reports with both values"):
        code, gap_doc = _run_cli(["gap", "4", "0", "0.3"])
        assert code == 0
        assert gap_doc["lambda_star"] == pytest.approx(53.0 / 143.0, rel=1e-12)
        assert gap_doc["lambda_star_variant"] == pytest.approx(1338.0 / 1716.0, rel=1e-12)
        assert abs(gap_doc["lambda_star_variant"] - gap_doc["lambda_star"]) > 0.3

        code, bounds_doc = _run_cli(["bounds", "4", "0", "0.5"])
        assert code == 0
        p = make_params(4, 0.0, 0.5).p
        bounds = bounds_doc["bounds"]
        assert bounds["bound_two_bubble"] == pytest.approx(
            2.0 - 2.0 ** (2.0 / (p + 1.0)), rel=1e-12
        )
        assert bounds["bound_two_bubble_variant"] == pytest.approx(
            2.0 - 2.0 ** (1.0 / (p + 1.0)), rel=1e-12
        )

        # the two-bubble report carries both deficit-rate conventions
        report = two_bubble_quotient(make_params(*_TB_POINT), 10.0 / make_params(*_TB_POINT).gamma)
        assert report.predicted_deficit_rate_display > 0.0
        assert report.predicted_deficit_rate > 0.0
