import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, roots_jacobi

from cknlab import cylinder
from cknlab.cylinder import (
    ANGLE_NODES,
    CylinderFunction,
    CylinderModel,
    GridMismatch,
    _angle_rule,
    combine,
    model_for,
    scale,
)
from cknlab.energy import rho02_h1_norm_sq
from cknlab.extremals import GridSpec, default_grid, psi, psi_norms
from cknlab.params import felli_schneider, make_params
from tests.conftest import sample_valid_params
from tests.oracles import derivative_dot_h1_inner, lp1_norm, rho10_function, tensor_lp1_pow


@pytest.mark.parametrize("n_dim", range(2, 9))
def test_angle_rule_matches_gauss_jacobi(n_dim):
    alpha = (n_dim - 3) / 2.0
    x_ref, w_ref = roots_jacobi(ANGLE_NODES, alpha, alpha)
    x, w, _ = _angle_rule(n_dim)
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("n_dim", range(2, 9))
def test_harmonics_match_gegenbauer(n_dim):
    model = model_for(make_params(n_dim, -0.5, (felli_schneider(n_dim, -0.5) + 0.5) / 2.0))
    x = model.angle_x
    for degree in range(7):
        if n_dim == 2:
            raw = np.cos(degree * np.arccos(np.clip(x, -1.0, 1.0)))
        else:
            raw = eval_gegenbauer(degree, (n_dim - 2) / 2.0, x)
        reference = raw / math.sqrt(model.angle_prefactor * float(np.dot(model.angle_w, raw * raw)))
        np.testing.assert_allclose(model.harmonic_values(degree), reference, rtol=0.0, atol=1e-13)


def test_lp1_norm_matches_closed_form(params_case2):
    model = model_for(params_case2)
    closed = psi_norms(params_case2)
    assert model.lp1_pow(model.psi_function()) == pytest.approx(closed.lp1_pow, rel=1e-8)
    assert lp1_norm(model, model.psi_function()) == pytest.approx(closed.lp1, rel=1e-8)


def _bubble_plus_noise(model, degrees, seed):
    """Psi in degree 0, where present, plus a smooth random wave in every degree."""
    rng = np.random.default_rng(seed)
    envelope = np.exp(-((model.t / (model.grid.half_width / 3.0)) ** 2))
    amplitudes = rng.standard_normal((len(degrees), 1)) * model.sqrt_area * model.psi_values.max()
    waves = np.cos(rng.uniform(1.0, 8.0, (len(degrees), 1)) * model.t / model.grid.half_width)
    rows = amplitudes * envelope * waves
    if 0 in degrees:
        rows[0] += model.sqrt_area * model.psi_values
    return model.from_rows(degrees, rows)


@pytest.mark.parametrize("point", [(2, -0.5, 0.3), (3, -0.4, 0.2), (4, 0.0, 0.5), (7, 0.0, 0.5)])
def test_lp1_pow_matches_the_tensor_grid_formula(point):
    # 1e-13 rather than bit equality: the rounding of the angle contraction
    # depends on the BLAS build; gradients are compared to their largest entry
    model = model_for(make_params(*point))
    for seed, degrees in enumerate([(0, 1), (0, 1, 2), (1,), (0, 3)]):
        v = _bubble_plus_noise(model, degrees, seed)
        value, grads = model.lp1_pow(v, with_gradient=True)
        ref_value, ref_grads = tensor_lp1_pow(model, v)
        assert value == pytest.approx(ref_value, rel=1e-13, abs=0.0)
        assert model.lp1_pow(v) == value
        largest = np.max(np.abs(ref_grads))
        np.testing.assert_allclose(grads, ref_grads, rtol=0.0, atol=1e-13 * largest)


def test_lp1_pow_keeps_one_full_size_array(params_remaining):
    # the samples are blocked, so a 2D call holds one (nodes x angle nodes)
    # array plus small temporaries; forming all samples at once needs two
    model = model_for(params_remaining)
    v = _bubble_plus_noise(model, (0, 1), 0)
    model.lp1_pow(v, with_gradient=True)  # harmonics cached outside the trace
    full = model.grid.nodes * ANGLE_NODES * 8
    tracemalloc.start()
    try:
        model.lp1_pow(v, with_gradient=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * full


def _grid_rule_functions(model):
    """The two-bubble pair at s gamma = 1.9, Psi + 0.2 rho10 and
    Psi + 0.3 rho02 + 0.1 rho10, each bump that fraction of |Psi|_H1."""
    params, t = model.params, model.t
    half_s = 0.95 / params.gamma
    pair = psi(params, t + half_s) + psi(params, t - half_s)
    pair = model.function({0: model.sqrt_area * pair})
    psi_f = model.psi_function()
    r10, r02 = (
        scale(b, math.sqrt(model.energy_psi / model.h1_inner(b, b)))
        for b in (rho10_function(model), model.rho02_function())
    )
    return [pair, combine([1.0, 0.2], [psi_f, r10]), combine([1.0, 0.3, 0.1], [psi_f, r02, r10])]


# criterion 10's points (p = 1.67 to 2.64), p = 1.73 and 5 at N = 3, the
# 2048-node points p = 1.35 and 1.22, and p = 12.3, where h gamma sets the count
@pytest.mark.parametrize(
    "point",
    [
        (4, 0.5, 0.6),
        (4, 0.0, 0.5),
        (4, 0.0, 0.3),
        (3, -0.4, 0.2),
        (4, 0.0, 0.7),
        (4, 0.0, 0.8),
        (3, 0.3, 0.3),
        (2, -0.1, 0.05),
    ],
)
def test_default_grid_resolves_the_quotient(point, monkeypatch):
    # the same window on 16384 nodes is the reference
    params = make_params(*point)
    model = CylinderModel(params)
    monkeypatch.setattr(
        cylinder, "default_grid", lambda prm: GridSpec(default_grid(prm).half_width, 16384)
    )
    fine = CylinderModel(params)
    assert fine.grid.nodes == 16384 and fine.grid.half_width == model.grid.half_width
    for v, w in zip(_grid_rule_functions(model), _grid_rule_functions(fine)):
        reference = fine.quotient(w)[0]
        assert model.quotient(v)[0] == pytest.approx(reference, rel=0.0, abs=1e-12)


def test_default_grid_node_counts():
    rng = np.random.default_rng(24)
    near_one = 0
    for _ in range(500):
        params = sample_valid_params(rng, p_cap=30.0)
        grid = default_grid(params)
        assert grid.nodes in (1024, 2048, 4096)
        # below the cap the spacing meets both bounds, and half the nodes would not
        h_gamma = min(0.12, 0.25 * math.sqrt((params.p - 1.0) / 2.0))
        if grid.nodes < 4096:
            assert grid.spacing * params.gamma <= h_gamma
        if grid.nodes > 1024:
            assert 2.0 * grid.half_width / (grid.nodes // 2 - 1) * params.gamma > h_gamma
        if params.p <= 1.05:
            near_one += 1
            assert grid.nodes == 4096
    assert near_one > 0
    with pytest.raises(ValueError, match="at least 1024 nodes"):
        GridSpec(10.0, 1023)


def test_h1_orthogonality_of_soft_modes(params_case2):
    model = model_for(params_case2)
    psif = model.psi_function()
    psip = model.psi_prime_function()
    bound = 1e-10 * math.sqrt(model.h1_inner(psif, psif) * model.h1_inner(psip, psip))
    assert abs(model.h1_inner(psif, psip)) < bound


def test_cylinder_function_validates_its_layout(params_case2):
    model = model_for(params_case2)
    n = model.grid.nodes

    def build(degrees, shape=(2, n)):
        return CylinderFunction(params_case2, model.grid, degrees, np.zeros(shape))

    build((0, 1))
    for degrees in ((1, 0), (0, 0), [0, 1]):
        with pytest.raises(ValueError, match="degrees"):
            build(degrees)
    for shape in ((2, n - 1), (3, n), (n,)):
        with pytest.raises(ValueError, match="shape"):
            build((0, 1), shape)
    v = model.function({0: model.psi_values, 2: model.psi_values})
    assert v.degrees == (0, 2)
    for u in (v, scale(v, 2.0), combine([1.0, 1.0], [v, rho10_function(model)])):
        assert u.values.shape == (len(u.degrees), n)
        with pytest.raises(ValueError, match="read-only"):
            u.values[0, 0] = 1.0


def test_cylinder_functions_compare_by_identity(params_case2):
    # array fields have no single truth value, so equality is identity
    model = model_for(params_case2)
    v, w = model.psi_function(), model.psi_function()
    assert (v == v) is True
    assert (v == w) is False
    assert len({v, w, v}) == 2


def test_array_layout_matches_the_per_degree_loop(params_case2, rng):
    # row updates do the per-degree arithmetic unchanged, so the per-degree
    # loop is an exact reference
    model = model_for(params_case2)
    n = model.grid.nodes
    envelope = np.exp(-((model.t / 40.0) ** 2))
    u = model.function({d: rng.standard_normal(n) * envelope for d in (0, 1)})
    w = model.function({d: rng.standard_normal(n) * envelope for d in (0, 2)})
    mixed = combine([0.3, -1.7], [u, w])
    assert mixed.degrees == (0, 1, 2)
    for k, d in enumerate(mixed.degrees):
        reference = np.zeros(n) + 0.3 * u.mode(d) + -1.7 * w.mode(d)
        assert np.array_equal(mixed.values[k], reference)


def test_h1_inner_matches_the_derivative_dot_reference(params_case2, rng):
    # the multiplier form against explicit spectral derivatives, for equal and
    # unequal arguments, shared and unshared degrees
    model = model_for(params_case2)
    n = model.grid.nodes
    envelope = np.exp(-((model.t / 40.0) ** 2))
    u = model.function({d: rng.standard_normal(n) * envelope for d in (0, 1)})
    w = model.function({d: rng.standard_normal(n) * envelope for d in (0, 2)})
    pairs = ((u, u), (u, w), (w, u), (u, rho10_function(model)), (model.psi_function(), w))
    for f, g in pairs:
        assert model.h1_inner(f, g) == pytest.approx(derivative_dot_h1_inner(model, f, g), rel=1e-13)
    disjoint = model.function({3: rng.standard_normal(n) * envelope})
    assert model.h1_inner(u, disjoint) == derivative_dot_h1_inner(model, u, disjoint) == 0.0


def test_h1_gradient_and_riesz_map_follow_the_form(params_case2, rng):
    # <h1_gradient(v), w> = 2 h1_inner(w, v) (the form is symmetric), and the
    # Riesz map inverts the gradient
    model = model_for(params_case2)
    n = model.grid.nodes
    envelope = np.exp(-((model.t / 40.0) ** 2))
    v = model.function({d: rng.standard_normal(n) * envelope for d in (0, 2)})
    w = model.function({d: rng.standard_normal(n) * envelope for d in (0, 2)})
    grads = model.h1_gradient(v)
    assert grads.shape == v.values.shape
    pairing = float(np.sum(grads * w.values))
    assert pairing == pytest.approx(2.0 * model.h1_inner(v, w), rel=1e-12)
    assert pairing == pytest.approx(2.0 * model.h1_inner(w, v), rel=1e-12)
    scale_v = np.max(np.abs(v.values))
    np.testing.assert_allclose(model.riesz(v.degrees, grads), v.values, rtol=0.0, atol=1e-12 * scale_v)


def test_mode_one_norm_reflection_invariance(params_remaining):
    model = model_for(params_remaining)
    v = rho10_function(model)
    reflected = scale(v, -1.0)  # polar-angle reflection negates the degree-one harmonic
    assert model.lp1_pow(reflected) == pytest.approx(model.lp1_pow(v), rel=1e-14)
    mixed = combine([1.0, 0.3], [model.psi_function(), v])
    mixed_reflected = combine([1.0, -0.3], [model.psi_function(), v])
    assert model.lp1_pow(mixed_reflected) == pytest.approx(model.lp1_pow(mixed), rel=1e-12)


def test_h1_norm_of_rho02_matches_closed_form(params_case2):
    model = model_for(params_case2)
    rho = model.rho02_function()
    assert model.h1_inner(rho, rho) == pytest.approx(rho02_h1_norm_sq(params_case2), rel=1e-10)


def test_distance_of_bubble_is_zero(params_case2):
    model = model_for(params_case2)
    projection = model.distance_to_manifold(model.psi_function())
    assert projection.distance_sq < 1e-8 * model.energy_psi
    assert abs(projection.shift) < 1e-6
    assert projection.scalar == pytest.approx(1.0, rel=1e-10)


def test_distance_of_scaled_shifted_bubble(params_case2):
    model = model_for(params_case2)
    # off-grid shifts: the refinement, not the grid scan, has to resolve them
    for s0 in (2.0, 2.0 + 0.37 * model.h, -1.3 + 0.81 * model.h):
        v = model.psi_function(shift=s0, scalar=3.0)
        projection = model.distance_to_manifold(v)
        assert projection.distance_sq < 1e-8 * model.h1_inner(v, v)
        assert abs(projection.shift - s0) <= 1e-10
        assert projection.scalar == pytest.approx(3.0, rel=1e-9)
        assert not projection.edge_attained


def test_distance_of_gap_perturbation(params_case2):
    model = model_for(params_case2)
    rho = model.rho02_function()
    norm_sq = model.h1_inner(rho, rho)
    eps = 1e-3
    v = combine([1.0, eps], [model.psi_function(), rho])
    projection = model.distance_to_manifold(v)
    assert projection.distance_sq == pytest.approx(eps * eps * norm_sq, rel=1e-2)


def test_distance_shift_invariance(params_case2):
    model = model_for(params_case2)
    rho = model.rho02_function()
    v = combine([1.0, 0.05], [model.psi_function(), rho])
    base = model.distance_to_manifold(v).distance_sq
    k = 40  # integer grid shifts keep the profile exactly representable
    shifted = model.function({0: np.roll(v.mode(0), k)})
    moved = model.distance_to_manifold(shifted)
    assert moved.distance_sq == pytest.approx(base, rel=1e-9)
    assert moved.shift == pytest.approx(k * model.h, abs=1e-6)


def test_overlap_function_peak_and_parity(params_case2):
    model = model_for(params_case2)
    psif = model.psi_function()
    center = model.overlap(psif, 0.0)
    assert center == pytest.approx(model.lp1_pow_psi, rel=1e-12)
    for s in (0.5, 1.5, 4.0):
        assert model.overlap(psif, s) == pytest.approx(model.overlap(psif, -s), rel=1e-12)
        assert model.overlap(psif, s) < center


def test_two_bubble_overlap_maximizer_tracks_bubble(params_p3):
    model = model_for(params_p3)
    g = params_p3.gamma
    s0 = 8.0 / g
    v = model.two_bubble(s0)
    projection = model.distance_to_manifold(v)
    bound = 10.0 * math.exp(-g * s0 / (params_p3.p - 1.0))
    assert min(abs(projection.shift), abs(projection.shift - s0)) < bound
    assert not projection.edge_attained


def test_projection_of_psi_where_the_squared_overlap_overflows():
    # p = 1.0117: the overlap of Psi with itself is about 2e170, so its square
    # is inf, and the Newton guard's product ov * d1 * d2 overflows as well
    params = make_params(7, -0.577761673720659, 0.401837716790225)
    model = model_for(params)
    projection = model.distance_to_manifold(model.psi_function())
    assert abs(projection.shift) <= model.h
    assert projection.distance_sq <= 1e-8 * model.energy_psi


def test_cauchy_schwarz(params_case2, rng):
    model = model_for(params_case2)
    for _ in range(10):
        u = model.random_mperp(int(rng.integers(1 << 31)), 1.0)
        v = model.random_mperp(int(rng.integers(1 << 31)), 2.0)
        lhs = model.h1_inner(u, v) ** 2
        rhs = model.h1_inner(u, u) * model.h1_inner(v, v)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_mperp_projection(params_case2):
    model = model_for(params_case2)
    psif = model.psi_function()
    projected = model.project_mperp(psif)
    assert model.h1_inner(projected, projected) < 1e-20 * model.energy_psi

    rho = model.rho02_function()
    kept = model.project_mperp(rho)
    diff = combine([1.0, -1.0], [kept, rho])
    assert model.h1_inner(diff, diff) < 1e-16 * model.h1_inner(rho, rho)

    noise = model.random_mperp(5, 1.0)
    once = model.project_mperp(noise)
    twice = model.project_mperp(once)
    diff2 = combine([1.0, -1.0], [once, twice])
    assert model.h1_inner(diff2, diff2) < 1e-24 * model.h1_inner(once, once)
    for reference in (psif, model.psi_prime_function()):
        bound = 1e-10 * math.sqrt(
            model.h1_inner(once, once) * model.h1_inner(reference, reference)
        )
        assert abs(model.h1_inner(once, reference)) < bound


def test_grid_mismatch_rejected(params_case2, params_remaining):
    model2 = model_for(params_case2)
    model3 = model_for(params_remaining)
    with pytest.raises(GridMismatch):
        model2.h1_inner(model2.psi_function(), model3.psi_function())
    with pytest.raises(GridMismatch):
        combine([1.0, 1.0], [model2.psi_function(), model3.psi_function()])


def test_supremum_attained_interior(params_case2, rng):
    model = model_for(params_case2)
    for _ in range(5):
        noise = model.random_mperp(int(rng.integers(1 << 31)), 0.3)
        v = combine([1.0, 1.0], [model.psi_function(), noise])
        projection = model.distance_to_manifold(v)
        assert not projection.edge_attained
        assert projection.distance_sq >= 0.0
