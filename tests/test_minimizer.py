import math
from dataclasses import replace

import numpy as np
import pytest

from cknlab import minimizer
from cknlab.cylinder import combine, model_for, scale
from cknlab.energy import bounds_report, zhat
from cknlab.extremals import psi
from cknlab.minimizer import (
    EVEN_TOL,
    NumericalFailure,
    OnManifold,
    _is_even,
    _Objective,
    dip_start,
    estimate_cbe,
    minimize_quotient,
    quotient,
    random_start,
)
from cknlab.params import make_params
from cknlab.spectrum import spectral_gap
from tests.conftest import sample_valid_params
from tests.oracles import neg_laplacian, numerator_gradient, rho10_function


def psi_plus(model, bump, eps):
    """Psi plus ``bump`` scaled to eps |Psi|_H1."""
    norm = math.sqrt(model.h1_inner(bump, bump))
    return combine([1.0, eps * math.sqrt(model.energy_psi) / norm], [model.psi_function(), bump])


def test_quotient_near_gap_eigenfunction(params_case2):
    model = model_for(params_case2)
    v = combine([1.0, 0.01], [model.psi_function(), model.rho02_function()])
    report = quotient(v)
    gap = spectral_gap(params_case2).lambda_star
    assert gap - 0.01 <= report.value <= gap


def test_quotient_scale_invariance(params_case2):
    model = model_for(params_case2)
    v = combine([1.0, 0.01], [model.psi_function(), model.rho02_function()])
    doubled = scale(v, 2.0)
    assert quotient(doubled).value == pytest.approx(quotient(v).value, abs=1e-10)


def test_quotient_reuses_the_cached_model(params_case2):
    model_for.cache_clear()
    model = model_for(params_case2)
    quotient(combine([1.0, 0.01], [model.psi_function(), model.rho02_function()]))
    assert model_for.cache_info().currsize == 1


def test_quotient_undefined_on_manifold(params_case2):
    model = model_for(params_case2)
    with pytest.raises(OnManifold):
        quotient(model.psi_function())


def test_numerator_gradient_matches_finite_differences(params_case2, rng):
    model = model_for(params_case2)
    envelope = np.exp(-((model.t / 40.0) ** 2))

    def numerator(v):
        return model.h1_inner(v, v) - model.c_inv * model.lp1_pow(v) ** (
            2.0 / (params_case2.p + 1.0)
        )

    # five iterates: the start plus descent snapshots
    iterates = [combine([1.0, 0.05, 0.02], [model.psi_function(), model.rho02_function(), rho10_function(model)])]
    iterates.append(combine([1.0, 0.1], [model.psi_function(), model.rho02_function()]))
    iterates.append(combine([1.0, 0.2, -0.05], [model.psi_function(), model.rho02_function(), rho10_function(model)]))
    iterates.append(combine([1.0, 1.0], [model.psi_function(), model.random_mperp(1, 0.3)]))
    iterates.append(combine([1.0, 1.0], [model.psi_function(), model.random_mperp(2, 0.5)]))
    for v in iterates:
        grads = numerator_gradient(model, v)
        for _ in range(2):
            direction = model.function(
                {
                    0: rng.standard_normal(model.grid.nodes) * envelope,
                    1: rng.standard_normal(model.grid.nodes) * envelope,
                }
            )
            # fourth-order stencil: a plain eps=1e-6 central difference of the
            # O(100)-sized energies is roundoff-limited above 1e-6 relative
            eps = 3e-5

            def at(c, _v=v, _d=direction):
                return numerator(combine([1.0, c], [_v, _d]))

            fd = (-at(2 * eps) + 8.0 * at(eps) - 8.0 * at(-eps) + at(-2 * eps)) / (12.0 * eps)
            analytic = sum(
                float(np.dot(grads[d], direction.mode(d))) for d in v.degrees
            )
            h1_part = sum(
                abs(
                    float(
                        np.dot(
                            2.0
                            * model.h
                            * (
                                neg_laplacian(model, v.mode(d))
                                + params_case2.tau(d) * v.mode(d)
                            ),
                            direction.mode(d),
                        )
                    )
                )
                for d in v.degrees
            )
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-6 * (h1_part + abs(analytic)))


@pytest.mark.parametrize("layout", ["rho10 alone", "degrees 0 and 2"])
def test_numerator_gradient_rows_follow_degrees(params_case2, rng, layout):
    # row k of the gradient belongs to v.degrees[k]; in these layouts row
    # index and degree differ
    model = model_for(params_case2)
    envelope = np.exp(-((model.t / 40.0) ** 2))
    if layout == "rho10 alone":
        v = rho10_function(model)
    else:
        radial = model.psi_function().mode(0)
        v = model.function({0: radial, 2: 0.3 * model.rho02_function().mode(0)})
    assert v.degrees == ((1,) if layout == "rho10 alone" else (0, 2))

    def numerator(u):
        return model.h1_inner(u, u) - model.c_inv * model.lp1_pow(u) ** (
            2.0 / (params_case2.p + 1.0)
        )

    grads = numerator_gradient(model, v)
    assert grads.shape == (len(v.degrees), model.grid.nodes)
    for _ in range(2):
        direction = model.function(
            {d: rng.standard_normal(model.grid.nodes) * envelope for d in v.degrees}
        )
        eps = 3e-5

        def at(c, _d=direction):
            return numerator(combine([1.0, c], [v, _d]))

        fd = (-at(2 * eps) + 8.0 * at(eps) - 8.0 * at(-eps) + at(-2 * eps)) / (12.0 * eps)
        analytic = sum(
            float(np.dot(grads[k], direction.mode(d))) for k, d in enumerate(v.degrees)
        )
        h1_part = sum(
            abs(
                float(
                    np.dot(
                        2.0
                        * model.h
                        * (
                            neg_laplacian(model, v.mode(d))
                            + params_case2.tau(d) * v.mode(d)
                        ),
                        direction.mode(d),
                    )
                )
            )
            for d in v.degrees
        )
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-6 * (h1_part + abs(analytic)))


def test_quotient_gradient_matches_finite_differences(params_case2):
    # the descent's dQ/d(samples) at an L^{p+1}-normalized iterate, against a
    # fourth-order difference of CylinderModel.quotient.  The second bubble
    # makes the maximizing shift unique, so Q is differentiable; each
    # direction is white noise times the radial profile, so that no sample
    # changes sign along the stencil, where |v|^(p+1) is not smooth enough.
    model = model_for(params_case2)
    objective = _Objective(model)
    rng = np.random.default_rng(5)
    shifted = model.psi_function(shift=2.0 / params_case2.gamma)
    v = combine([1.0, 0.5, 0.1], [model.psi_function(), shifted, rho10_function(model)])
    it = objective.normalized(v)
    grads = objective.gradient(it)
    for _ in range(3):
        direction = model.function(
            {d: it.v.mode(0) * rng.standard_normal(model.grid.nodes) for d in v.degrees}
        )
        eps = 3e-5

        def at(c, _d=direction):
            return model.quotient(combine([1.0, c], [it.v, _d]))[0]

        fd = (-at(2 * eps) + 8.0 * at(eps) - 8.0 * at(-eps) + at(-2 * eps)) / (12.0 * eps)
        analytic = sum(float(np.dot(grads[k], direction.mode(d))) for k, d in enumerate(v.degrees))
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_descent_trace_is_monotone(params_case2):
    model = model_for(params_case2)
    report = minimize_quotient(psi_plus(model, model.rho02_function(), 0.05), 30)
    values = [q for _, q in report.trace]
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
    assert report.value <= values[0]


def test_minimize_scaling_invariance(params_case2):
    # the objective is exactly degree-zero homogeneous, so a scaled start must
    # descend identically; the comparison horizon stops before line-search
    # branch points can amplify last-ulp normalization differences, and a
    # loose full-horizon bound guards against genuine scale leakage
    model = model_for(params_case2)
    v = combine([1.0, 0.05], [model.psi_function(), model.rho02_function()])
    first = minimize_quotient(v, 3)
    second = minimize_quotient(scale(v, 5.0), 3)
    assert first.value == pytest.approx(second.value, abs=1e-8)
    first_long = minimize_quotient(v, 30)
    second_long = minimize_quotient(scale(v, 5.0), 30)
    assert first_long.value == pytest.approx(second_long.value, abs=1e-4)


def test_minimize_deterministic_under_seed(params_case2):
    model = model_for(params_case2)
    first = minimize_quotient(random_start(model, 11)[1], 8)
    second = minimize_quotient(random_start(model, 11)[1], 8)
    assert first.trace == second.trace
    assert first.value == second.value


def test_minimize_case2_gap_start(params_case2):
    model = model_for(params_case2)
    report = minimize_quotient(psi_plus(model, model.rho02_function(), 0.05), 60)
    gap = spectral_gap(params_case2).lambda_star
    assert 0.0 < report.value <= gap + 1e-3


def test_minimize_two_bubble_start(params_case2):
    report = minimize_quotient(model_for(params_case2).two_bubble(10.0 / params_case2.gamma), 40)
    bound = 2.0 - 2.0 ** (2.0 / (params_case2.p + 1.0))
    assert report.value <= bound


def test_minimize_remaining_region_stays_above_gap(params_remaining):
    model = model_for(params_remaining)
    report = minimize_quotient(psi_plus(model, rho10_function(model), 0.05), 60)
    gap = spectral_gap(params_remaining).lambda_star
    values = [q for _, q in report.trace]
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
    assert report.value >= gap - 1e-3  # no descent below the gap constant


def test_estimate_cbe_bounds_per_region(params_case1, params_case2, params_remaining):
    for params in (params_case1, params_case2, params_remaining):
        report = estimate_cbe(params, starts=1, seed=3)
        ceiling = min(report.bounds.bound_gap, report.bounds.bound_two_bubble) + 1e-3
        assert 1e-4 < report.value <= ceiling


@pytest.mark.parametrize(
    "point", [(5, 0.0, 0.125), (2, -1.0019, -0.2218), (4, -0.4001, 0.0039), (6, 0.2117, 0.3795)]
)
def test_estimate_cbe_within_bounds_where_the_dip_ends_above_the_gap(point):
    # Remaining points where the dip descent ends above the gap bound + 1e-3;
    # the rho10 perturbation of Psi brings the best result under the ceiling
    report = estimate_cbe(make_params(*point), starts=1, seed=7)
    ceiling = min(report.bounds.bound_gap, report.bounds.bound_two_bubble) + 1e-3
    assert 0.0 < report.value <= ceiling


# Remaining points where the best descent ends above the gap bound, one where
# the dip descent ends 0.0073 below it, and the first draws of a fixed sample
_RNG = np.random.default_rng(2026)
_LIMIT_POINTS = [
    (5, 0.0, 0.125),
    (2, -1.0019, -0.2218),
    (4, -0.4001, 0.0039),
    (6, 0.2117, 0.3795),
    (4, 0.0, 0.24),
    (4, 0.0, 0.26),
] + [(q.N, q.a, q.b) for q in (sample_valid_params(_RNG, region="Remaining") for _ in range(3))]


@pytest.mark.parametrize("point", _LIMIT_POINTS)
def test_estimate_cbe_never_reports_above_the_gap_bound(point):
    # Q(Psi + eps rho*) -> gap bound as eps -> 0, so c_BE <= gap bound
    params = make_params(*point)
    report = estimate_cbe(params, starts=1, seed=7)
    assert report.value <= report.bounds.bound_gap
    if report.stop == "limit":
        assert report.value == report.bounds.bound_gap
        assert (report.start, report.iterations, report.trace) == ("gap limit", 0, ())
        assert math.isnan(report.distance_sq) and math.isnan(report.shift)
        assert math.isnan(report.gradient_norm)
        # Q approaches the bound from above along Psi + eps rho10
        assert zhat(params).value_variational < 0.0


def test_estimate_cbe_deterministic(params_case2):
    first = estimate_cbe(params_case2, starts=1, seed=5, max_iterations=15)
    second = estimate_cbe(params_case2, starts=1, seed=5, max_iterations=15)
    assert first.trace == second.trace
    assert first.value == second.value
    assert first.start == second.start


# best quotients at the acceptance minimizer points (starts=1, seed=7): the
# two-bubble dip descended in H1 along even functions, stopped on the gradient;
# the random start reaches the same minimum to about 1e-12 and must not take
# the label from the dip
REFERENCE_VALUES = {
    (4, 0.5, 0.6): 0.37602230543720194,
    (4, 0.0, 0.5): 0.2385193368718684,
    (4, 0.0, 0.3): 0.3121130873359297,
}


# old_pin: the value that the 60-iteration L2 descent stalled at
@pytest.mark.parametrize(
    "point, old_pin",
    [
        ((4, 0.5, 0.6), 0.4566802970259557),
        ((4, 0.0, 0.5), 0.31658942577884347),
        ((4, 0.0, 0.3), 0.3706591520548443),
    ],
)
def test_estimate_cbe_matches_reference_values(point, old_pin):
    report = estimate_cbe(make_params(*point), starts=1, seed=7)
    assert report.value == pytest.approx(REFERENCE_VALUES[point], rel=1e-8)
    assert report.value <= old_pin
    assert report.stop == "gradient"
    assert report.start.startswith("two-bubble dip s=")


def test_dip_descent_stops_on_the_gradient(params_remaining):
    label, start = dip_start(model_for(params_remaining))
    assert label.startswith("two-bubble dip s=")
    report = minimize_quotient(start, 60)
    assert report.stop == "gradient"
    assert report.gradient_norm <= 1e-6
    assert report.value <= 0.3122


def test_dip_start_is_even_on_a_grid_symmetric_to_one_ulp(params_case1, params_remaining):
    for params in (params_case1, params_remaining):
        model = model_for(params)
        # the nodes mirror each other only to rounding, so evenness is judged
        # to EVEN_TOL, once per start
        assert not np.array_equal(model.t, -model.t[::-1])
        assert np.max(np.abs(model.t + model.t[::-1])) <= EVEN_TOL * model.grid.half_width
        assert _is_even(dip_start(model)[1])
        assert not _is_even(model.two_bubble(8.0 / params.gamma))


def test_radial_minimum_depends_on_p_alone():
    # on the cylinder t -> (a_c - a) t maps each point onto one with the same
    # p, and Q is scale-free, so the dip descent reaches one minimum
    values = []
    for point in ((3, 0.0, 0.475), (4, 0.0, 0.3), (5, 0.0, 0.125)):
        params = make_params(*point)
        assert params.p == pytest.approx(2.0769230769230769, rel=1e-14)
        values.append(minimize_quotient(dip_start(model_for(params))[1], 100).value)
    assert max(values) - min(values) <= 1e-10


# stationary values of the dip descent under H1 L-BFGS (ROADMAP item 16); near
# p -> 1 it needs the most steps, 41 at (4, 0, 0.98)
LBFGS_VALUES = {
    (4, 0.5, 0.6): 0.376022305436,
    (4, 0.0, 0.5): 0.238519336871,
    (5, 0.0, 0.35): 0.246362843615,
    (7, 0.5774161577308949, 0.6336261551016267): 0.253828504233,
    (4, 0.0, 0.9): 0.054967232662,
    (4, 0.0, 0.98): 0.011318112688,
}


@pytest.mark.parametrize("point", list(LBFGS_VALUES))
def test_dip_descent_reaches_the_stationary_value(point):
    report = minimize_quotient(dip_start(model_for(make_params(*point)))[1], 60)
    assert report.value == pytest.approx(LBFGS_VALUES[point], rel=1e-9)
    assert report.stop == "gradient"
    assert report.iterations <= 45


@pytest.mark.parametrize("point", [*REFERENCE_VALUES, (5, 0.0, 0.35)])
def test_dip_start_is_no_worse_than_the_separation_grid(point):
    # the bracketed search against a scan of s * gamma = 0.5, 0.6, ..., 6
    params = make_params(*point)
    model = model_for(params)
    grid = []
    for s in np.arange(5, 61) / 10.0 / params.gamma:
        pair = psi(params, model.t + 0.5 * s) + psi(params, model.t - 0.5 * s)
        grid.append(model.quotient(model.function({0: model.sqrt_area * pair}))[0])
    _, start = dip_start(model)
    assert model.quotient(start)[0] <= min(grid)


def test_descent_near_the_manifold_never_undercuts_the_gap_bound():
    # along Psi + eps rho10 Q tends to the gap bound from above, and within
    # NEAR_MANIFOLD its roundoff exceeds Q - gap bound
    params = make_params(5, 0.0, 0.125)
    model = model_for(params)
    report = minimize_quotient(psi_plus(model, rho10_function(model), 1e-3), 60)
    gap = report.bounds.bound_gap
    assert report.stop == "manifold" or report.value >= gap - 1e-3
    assert estimate_cbe(params, starts=1, seed=7).value <= gap


def test_estimate_cbe_counts_manifold_stops_as_the_gap_limit(monkeypatch):
    # a run that stops near the manifold below the gap bound, by roundoff
    params = make_params(4, 0.5, 0.6)
    gap = bounds_report(params).bound_gap
    real = minimizer.minimize_quotient

    def near_manifold(start, max_iterations):
        return replace(real(start, 1), value=gap - 1e-8, stop="manifold")

    monkeypatch.setattr(minimizer, "minimize_quotient", near_manifold)
    report = estimate_cbe(params, starts=2, seed=7)
    assert (report.value, report.start, report.stop) == (gap, "gap limit", "limit")
