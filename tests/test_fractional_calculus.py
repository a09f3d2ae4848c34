"""Fractional operator and kernel-family tests."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander
from oracles import (
    clamp_nonnegative,
    eigen_modes,
    eigenvalues,
    einsum_contract,
    green_direct,
    kernel_pairs_one_at_a_time,
    np_sin_sine_table,
    rescaled_green,
)
from scipy import integrate

import fraclane as fl
from fraclane import fractional_calculus as fc
from fraclane import lane_emden as le
from fraclane import spectral_domain as sd
from fraclane.fractional_calculus import (
    _gauss_legendre,
    _multipliers,
    _polar_box_integral,
)
from fraclane.spectral_domain import (
    SpectralField,
    _half_pair,
    _points_per_block,
    synthesize,
    synthesize_at,
)


def setup_square(K=16, m=32, s=0.5):
    dom = fl.BoxDomain((1.0, 1.0), s)
    return dom, fl.build_basis(dom, (K, K)), fl.build_grid(dom, (m, m))


def mode_field(basis, grid, k, amplitude=1.0):
    coeff = np.zeros(basis.cutoff)
    coeff[tuple(v - 1 for v in k)] = amplitude
    return fl.synthesize(fl.SpectralField(basis, coeff), grid)


def band_limited(basis, grid, seed):
    rng = np.random.default_rng(seed)
    return fl.synthesize(fl.SpectralField(basis, rng.standard_normal(basis.cutoff)), grid)


def test_free_kernel_constants():
    # g_{2,1/2} = Gamma(1/2)/(pi 2 Gamma(1/2)) = 1/(2 pi)
    assert fl.gns(2, 0.5) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
    # g_{3,1/2} = Gamma(1)/(pi^{3/2} 2 Gamma(1/2)) = 1/(2 pi^2)
    assert fl.gns(3, 0.5) == pytest.approx(1.0 / (2 * math.pi**2), rel=1e-14)
    const = fl.gns(2, 0.5)
    assert const > 0 and math.isfinite(const)
    with pytest.raises(ValueError):
        fl.gns(1, 0.6)


def test_free_kernel_values_and_scaling():
    assert fl.free_kernel((0.0, 0.0), (0.5, 0.0), 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    r1 = fl.free_kernel((0.0, 0.0, 0.0), (0.3, 0.0, 0.0), 0.5)
    r2 = fl.free_kernel((0.0, 0.0, 0.0), (0.6, 0.0, 0.0), 0.5)
    assert r2 == pytest.approx(2.0 ** (2 * 0.5 - 3) * r1, rel=1e-13)
    with pytest.raises(ValueError):
        fl.free_kernel((0.1, 0.1), (0.1, 0.1), 0.5)


def test_fraclap_single_mode_multiplier():
    dom, basis, grid = setup_square()
    phi = mode_field(basis, grid, (1, 1))
    out = fl.apply_fraclap(phi, 0.5, basis)
    lam = 2 * math.pi**2
    assert np.max(np.abs(out.values - math.sqrt(lam) * phi.values)) < 1e-10
    inv = fl.apply_inverse(phi, basis)
    assert np.max(np.abs(inv.values - phi.values / math.sqrt(lam))) < 1e-12


def test_fraclap_s_equals_one_is_minus_laplacian():
    dom, basis, grid = setup_square()
    f = band_limited(basis, grid, 5)
    out = fl.apply_fraclap(f, 1.0, basis)
    coeff = fl.analyze(f, basis).coefficients
    expect = fl.synthesize(fl.SpectralField(basis, coeff * basis.eigenvalue_grid), grid)
    assert np.max(np.abs(out.values - expect.values)) < 1e-9


def test_linearity():
    dom, basis, grid = setup_square()
    f = band_limited(basis, grid, 1)
    g = band_limited(basis, grid, 2)
    combo = fl.GridFunction(grid, 2.0 * f.values - 3.0 * g.values)
    lhs = fl.apply_fraclap(combo, 0.5, basis).values
    rhs = 2.0 * fl.apply_fraclap(f, 0.5, basis).values - 3.0 * fl.apply_fraclap(g, 0.5, basis).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_multiplier_inverse_identity_and_semigroup():
    dom, basis, grid = setup_square()
    for seed in range(3):
        f = band_limited(basis, grid, seed)
        back = fl.apply_fraclap(fl.apply_inverse(f, basis), 0.5, basis)
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * max(1.0, np.max(np.abs(f.values)))
        two_step = fl.apply_fraclap(fl.apply_fraclap(f, 0.3, basis), 0.45, basis)
        one_step = fl.apply_fraclap(f, 0.75, basis)
        scale = np.max(np.abs(one_step.values))
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12 * scale


def test_inverse_positivity_up_to_clamp():
    dom, basis, grid = setup_square(K=16, m=48)
    rng = np.random.default_rng(8)
    f = fl.GridFunction(grid, rng.random(grid.shape))
    inv = fl.apply_inverse(f, basis)
    clamped, fraction = clamp_nonnegative(inv)
    assert fraction < 1e-8
    assert clamped.min() >= 0.0
    # the solver's in-place clamp removes the same mass from the same nodes
    values = inv.values.copy()
    assert le._clamp_in_place(values, 1.0, "") == pytest.approx(fraction, rel=1e-12, abs=0)
    assert np.array_equal(values, clamped.values)


def test_apply_fraclap_rejects_bad_s():
    dom, basis, grid = setup_square(K=4, m=8)
    f = mode_field(basis, grid, (1, 1))
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            fl.apply_fraclap(f, bad, basis)


@pytest.mark.parametrize("lengths,margin,count,seed", [
    ((1.0, 1.0), 0.2, 4000, 7),
    ((1.0, 1.0, 1.0), 0.05, 300, 11),
    ((1.0, 2.5), 0.3, 1, 3),
    ((1.0,), 0.3, 500, 5),
], ids=["square_4000", "cube_300", "stretched_1", "interval_500"])
def test_kernel_pairs_match_one_pair_at_a_time(lengths, margin, count, seed):
    # block draws take the generator's doubles in the one-pair loop's order,
    # so every seeded table is the same
    xs, ys = fc.KernelSampler(lengths, margin).pairs(count, seed)
    ref_xs, ref_ys = kernel_pairs_one_at_a_time(seed, len(lengths), margin,
                                                np.asarray(lengths) - 2 * margin, count,
                                                fc._KERNEL_MIN_SEP)
    assert np.array_equal(xs, ref_xs) and np.array_equal(ys, ref_ys)


def test_green_symmetry_exact_and_bound_example():
    dom, basis, grid = setup_square(K=32, m=64)
    x, y = (0.5, 0.5), (0.25, 0.5)
    gxy = fl.green(x, y, basis)
    gyx = fl.green(y, x, basis)
    assert gxy.value == gyx.value  # summand symmetric, bitwise
    free = fl.free_kernel(x, y, 0.5)
    assert free == pytest.approx(2.0 / math.pi, rel=1e-13)
    assert 0.0 < gxy.value < free + gxy.truncation_bound


def test_multipliers_cached_and_read_only():
    dom, basis, grid = setup_square(K=24, m=48)
    mults = _multipliers(basis, -0.5)
    assert _multipliers(basis, -0.5) is mults
    assert mults.tobytes() == (basis.eigenvalue_grid**-0.5).tobytes()
    assert not mults.flags.writeable
    with pytest.raises(ValueError):
        mults[0, 0] = 0.0


def random_pairs(rng, count, lengths, min_sep):
    lo, span = 0.1 * np.asarray(lengths), 0.8 * np.asarray(lengths)
    xs, ys = lo + span * rng.random((count, len(lengths))), lo + span * rng.random((count, len(lengths)))
    far = np.linalg.norm(xs - ys, axis=1) >= min_sep
    return xs[far], ys[far]


@pytest.mark.parametrize("lengths, cutoff", [
    ((1.0,), (40,)), ((1.0, 1.0), (24, 24)), ((1.0, 2.0), (48, 24)),
    ((1.0, 0.7), (20, 13)), ((1.0, 1.0, 1.0), (12, 12, 12)), ((1.0, 1.3, 0.8), (9, 11, 7)),
])
def test_batched_green_matches_per_pair_direct_sum(lengths, cutoff):
    # values and shell-sum tails of one batch against the term-by-term sum of
    # each pair, for P = 1, one block and one block + 1
    dom = fl.BoxDomain(lengths, 0.3 if len(lengths) == 1 else 0.5)
    basis = fl.build_basis(dom, cutoff)
    rng = np.random.default_rng(len(cutoff) + sum(cutoff))
    block = _points_per_block(cutoff)
    xs, ys = random_pairs(rng, 2 * block + 50, lengths, 2 * fl.resolvability_threshold(basis))
    picks = rng.choice(len(xs), size=40, replace=False)
    for count in (1, block, block + 1):
        batch = fl.green(xs[:count], ys[:count], basis)
        assert batch.value.shape == batch.truncation_bound.shape == (count,)
        swapped = fl.green(ys[:count], xs[:count], basis)
        assert batch.value.tobytes() == swapped.value.tobytes()
        assert batch.truncation_bound.tobytes() == swapped.truncation_bound.tobytes()
        for i in picks[picks < count].tolist() + [count - 1]:
            value, tail = green_direct(basis, dom.s, xs[i], ys[i])
            scale = float(np.sum(np.abs(eigenvalues(basis) ** -dom.s
                                        * eigen_modes(basis, xs[i]) * eigen_modes(basis, ys[i]))))
            assert abs(batch.value[i] - value) <= 1e-13 * scale
            assert abs(batch.truncation_bound[i] - tail) <= 1e-13 * scale


def test_green_single_pair_and_batch_agree_and_refuse_alike():
    dom, basis, grid = setup_square(K=16, m=32)
    thr = fl.resolvability_threshold(basis)
    x0 = np.array([0.5, 0.5])
    pts = np.array([[0.2, 0.3], [0.8, 0.6], [0.35, 0.75]])
    batch = fl.green(pts, x0, basis)  # (P, n) against (n,) broadcasts
    for i, pt in enumerate(pts):
        single = fl.green(pt, x0, basis)
        assert isinstance(single.value, float) and isinstance(single.truncation_bound, float)
        assert single.value == pytest.approx(batch.value[i], rel=1e-13)
    h = fl.regular_part(pts, x0, basis)
    np.testing.assert_allclose(h.value, fl.free_kernel(pts, x0, 0.5) - batch.value, rtol=1e-14)
    with pytest.raises(fl.UnresolvedSingularityError, match="below resolvable spacing"):
        fl.green(np.vstack([pts, x0 + (0.25 * thr, 0.0)]), x0, basis)
    with pytest.raises(ValueError, match="is not interior"):
        fl.green(np.vstack([pts, [1.2, 0.5]]), x0, basis)


def test_polar_box_integral_closed_form_1d():
    # gamma = 1/2 makes r = (u/2)^2 a polynomial in the radial variable, so the
    # rule integrates (1 + z) |z - c|^{-1/2} exactly
    c, lo, hi = 0.3, 0.05, 0.9
    closed = sum((1.0 + c) * 2.0 * a**0.5 + sign * (2.0 / 3.0) * a**1.5
                 for a, sign in ((c - lo, -1.0), (hi - c, 1.0)))
    got = _polar_box_integral([c], [lo], [hi], 0.5, lambda z: 1.0 + z[:, 0], 4, 8)
    assert got == pytest.approx(closed, rel=1e-14)


def box_integral_reference(smooth, center, lo, hi, gamma):
    """int_box smooth(z) |z - center|^{-gamma} dz by adaptive cubature over the
    2^n sub-boxes that have the singular point as a corner."""
    def integrand(z):
        return smooth(z) * np.linalg.norm(z - center, axis=-1) ** -gamma

    total = 0.0
    for corner in itertools.product(*zip(lo, hi, strict=True)):
        a, b = np.minimum(corner, center), np.maximum(corner, center)
        total += integrate.cubature(integrand, a, b, rtol=1e-7, atol=1e-10).estimate
    return total


@pytest.mark.parametrize("n, n_ang, tol", [(2, 256, 2e-4), (3, 128, 5e-4)])
def test_polar_box_integral_against_cubature(n, n_ang, tol):
    # the exit distance kinks the angular integrand at the box corners, so the
    # angular rule converges algebraically; the tolerance is for that rule
    center = np.array([0.3, 0.45, 0.5])[:n]
    lo, hi = np.array([0.1, 0.2, 0.25])[:n], np.array([0.8, 0.6, 0.7])[:n]

    def smooth(z):
        return np.exp(z[:, 0]) * np.cos(z[:, 1]) * (1.0 + z[:, 2] if n == 3 else 1.0)

    ref = box_integral_reference(smooth, center, lo, hi, 1.0)
    got = _polar_box_integral(center, lo, hi, 1.0, smooth, 8, n_ang)
    assert got == pytest.approx(ref, rel=tol)


def test_green_refuses_unresolved_separation():
    dom, basis, grid = setup_square(K=8, m=16)
    thr = fl.resolvability_threshold(basis)
    with pytest.raises(fl.UnresolvedSingularityError):
        fl.green((0.5, 0.5), (0.5 + 0.25 * thr, 0.5), basis)
    with pytest.raises(ValueError):
        fl.green((0.5, 0.5), (1.2, 0.5), basis)


def test_green_cutoff_convergence_within_bound():
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    b64 = fl.build_basis(dom, (64, 64))
    b48 = fl.build_basis(dom, (48, 48))
    rng = np.random.default_rng(21)
    for _ in range(25):
        while True:
            x = 0.2 + rng.random(2) * 0.6
            y = 0.2 + rng.random(2) * 0.6
            if np.linalg.norm(x - y) >= 0.1:
                break
        g64 = fl.green(x, y, b64)
        g48 = fl.green(x, y, b48)
        assert abs(g64.value - g48.value) <= g48.truncation_bound


def test_regular_part_properties():
    # positivity of the truncated H needs separations where the eigen-sum tail
    # sits below the true H level; sample accordingly
    dom, basis, grid = setup_square(K=64, m=128)
    rng = np.random.default_rng(4)
    interior_h = []
    for _ in range(25):
        while True:
            x = 0.25 + rng.random(2) * 0.5
            y = 0.25 + rng.random(2) * 0.5
            if np.linalg.norm(x - y) >= 0.25:
                break
        h = fl.regular_part(x, y, basis)
        h_swap = fl.regular_part(y, x, basis)
        assert abs(h.value - h_swap.value) < 1e-12
        interior_h.append(h.value)
    assert all(v > 0 for v in interior_h)
    # H stays bounded where green blows up toward the resolvable diagonal
    x = np.array([0.5, 0.5])
    seps = [0.3, 0.2, 0.12]
    greens = [fl.green(x, x + np.array([d, 0.0]), basis).value for d in seps]
    hs = [fl.regular_part(x, x + np.array([d, 0.0]), basis).value for d in seps]
    assert greens[-1] > 3.0 * greens[0]
    assert max(map(abs, hs)) < 2.0


def test_representation_consistency_against_dense_quadrature():
    # apply_inverse(f)(x) vs kernel quadrature int G(x, y) f(y) dy on an
    # independent dense grid (the kernel sampled from a richer basis).
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, (8, 8))
    grid = fl.build_grid(dom, (16, 16))
    f = band_limited(basis, grid, 13)
    inv = fl.apply_inverse(f, basis)
    coeffs = fl.analyze(f, basis)

    dense = fl.build_grid(dom, (128, 128))
    f_dense = fl.synthesize(coeffs, dense)
    rich = fl.build_basis(dom, (64, 64))
    for node in [(4, 7), (8, 8), (12, 3)]:
        x = np.array([grid.coords[0][node[0]], grid.coords[1][node[1]]])
        kernel_row = synthesize(
            SpectralField(rich, eigenvalues(rich) ** -0.5 * eigen_modes(rich, x)), dense
        ).values
        oracle = float(np.sum(kernel_row * f_dense.values)) * dense.cell_volume
        assert inv.values[node] == pytest.approx(oracle, abs=5e-3)


def test_rescaled_green_identity_and_errors():
    dom, basis, grid = setup_square(K=24, m=48)
    x, y = np.array([0.4, 0.55]), np.array([0.7, 0.3])
    direct = fl.green(x, y, basis).value
    assert rescaled_green(x, y, 1.0, (0.0, 0.0), basis) == pytest.approx(direct, rel=1e-14)
    lam, c = 4.0, np.array([0.45, 0.5])
    val = rescaled_green(lam * (x - c), lam * (y - c), lam, c, basis)
    assert val == pytest.approx(lam ** -(2 - 2 * 0.5) * direct, rel=1e-13)
    with pytest.raises(ValueError):
        rescaled_green((10.0, 0.0), (0.1, 0.1), 2.0, (0.5, 0.5), basis)


def test_free_kernel_homogeneity_matches_rescaling():
    # lam^{-(n-2s)} free(x/lam, y/lam) = free(x, y)
    n, s = 2, 0.5
    x, y = np.array([0.3, 0.4]), np.array([0.6, 0.1])
    lam = 3.7
    lhs = lam ** -(n - 2 * s) * fl.free_kernel(x / lam, y / lam, s)
    assert lhs == pytest.approx(fl.free_kernel(x, y, s), rel=1e-13)


def test_g_tilde_regime_guard():
    dom, basis, grid = setup_square(K=8, m=16)
    with pytest.raises(fl.RegimeError):
        fl.g_tilde((0.3, 0.3), (0.7, 0.7), 2.0, basis)  # p >= n/(n-2s) = 2
    with pytest.raises(fl.RegimeError):
        fl.g_tilde((0.3, 0.3), (0.7, 0.7), 0.8, basis)  # p < 1
    with pytest.raises(fl.UnresolvedSingularityError):
        fl.g_tilde((0.5, 0.5), (0.52, 0.5), 1.5, basis)


def test_regime_boundary_is_decided_once():
    # a p within THRESHOLD_TOL of the Serrin exponent is on it for every
    # caller: no iterated kernel there, and the log integral is defined
    dom, basis, grid = setup_square(K=8, m=16)
    on = fl.serrin_exponent(2, 0.5) - 1e-13
    assert fl.classify_regime(on, 2, 0.5) == "serrin"
    with pytest.raises(fl.RegimeError):
        fl.g_tilde((0.3, 0.3), (0.7, 0.7), on, basis)
    v = fl.FreeField.centered(4.0, np.ones((8, 8)))
    assert fl.serrin_log_integral(v, on, 10.0, 1.0, 0.5).value > 0
    assert fl.classify_regime(fl.serrin_exponent(2, 0.5) - 1e-9, 2, 0.5) == "sub"


def test_g_tilde_default_grid_shares_transform_matrices():
    # the default grid is built per call, and its sine matrices are cached on
    # each axis' (L, K, m): both axes of the square share one pair, built by
    # the first call at most and found by every later one
    dom, basis, grid = setup_square(K=8, m=16)
    misses = _half_pair.cache_info().misses
    values = [fl.g_tilde((0.3, 0.3), (0.7, 0.6), 1.0, basis).value for _ in range(3)]
    assert _half_pair.cache_info().misses - misses <= 1
    assert values[0] == values[1] == values[2]


EPS = np.finfo(float).eps


def test_gauss_legendre_nodes_match_numpy():
    # leggauss polishes its eigenvalues with one Newton step, so both rules
    # land within an ulp or two of the true nodes; 2 eps absolute covers that
    # for nodes in [-1, 1]. The weights are not compared: at the endpoints they
    # are conditioned like order^2 eps, and leggauss's own are off by 2e-12
    # against a 40-digit computation at order 100 (1e-8 at order 2000).
    # every order to 64, then a spread to 800 (leggauss is O(order^3))
    for order in [*range(1, 65), *range(97, 800, 61), 800]:
        nodes, _ = fc._legendre_rule(order)
        assert np.max(np.abs(nodes - leggauss(order)[0])) <= 2 * EPS, order


@pytest.mark.parametrize("order", [1, 2, 3, 12, 16, 101, 800, 801, 2000])
def test_gauss_legendre_rule_exact_on_legendre_polynomials(order):
    # sum_i w_i P_j(x_i) = 2 delta_j0 for j < 2 order. |P_j| <= 1 on [-1, 1] and
    # the weights sum to 2, so rounding the order terms of a sum costs at most
    # 2 order eps; the bound allows as much again for the weights' own error
    # (measured: 3.6e-15 at order 2000, against a bound of 1.8e-12)
    nodes, weights = fc._legendre_rule(order)
    moments = sum(weights[i:i + 256] @ legvander(nodes[i:i + 256], 2 * order - 1)
                  for i in range(0, order, 256))
    moments[0] -= 2.0
    assert np.max(np.abs(moments)) <= 4 * order * EPS
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)


@pytest.mark.parametrize("order", [1, 2, 7, 16, 2000])
def test_gauss_legendre_rule_symmetric(order):
    nodes, weights = fc._legendre_rule(order)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])


def test_gauss_legendre_rule_refuses(monkeypatch):
    for order in (0, -3):
        with pytest.raises(ValueError, match="order >= 1"):
            fc._legendre_rule(order)
    # order 16 needs 4 Newton steps from Tricomi's start
    monkeypatch.setattr(fc, "_NEWTON_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="did not converge"):
        fc._legendre_rule(16)


def test_gauss_legendre_rule_cached_and_read_only():
    for order in (1, 12, 16, 2000):
        nodes, weights = _gauss_legendre(order)
        again = _gauss_legendre(order)
        assert again[0] is nodes and again[1] is weights
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0


def test_g_tilde_symmetry_at_p1():
    dom, basis, grid = setup_square(K=16, m=32)
    a = fl.g_tilde((0.3, 0.3), (0.7, 0.6), 1.0, basis)
    b = fl.g_tilde((0.7, 0.6), (0.3, 0.3), 1.0, basis)
    tol = a.truncation_bound + b.truncation_bound
    assert abs(a.value - b.value) <= tol


def test_g_tilde_solves_iterated_equation_p1():
    # at p = 1 the iterated kernel is exactly sum lam_k^{-2s} phi_k phi_k,
    # an independent closed form for the quadrature path
    dom, basis, grid = setup_square(K=64, m=128)
    y = np.array([0.5, 0.5])
    coeff = SpectralField(basis, eigenvalues(basis) ** -1.0 * eigen_modes(basis, y))
    pts = np.array([[0.5 + 0.3 * math.cos(t), 0.5 + 0.3 * math.sin(t)]
                    for t in np.linspace(0.4, 5.9, 6)])
    spectral = synthesize_at(coeff, pts)
    for pt, ref in zip(pts, spectral, strict=True):
        sample = fl.g_tilde(pt, y, 1.0, basis)
        assert sample.value == pytest.approx(ref, rel=0.02)
        assert sample.value > 0


def test_green_3d_error_bars_bracket():
    # at n=3, s=1/2 the pointwise eigen-sum is marginally non-convergent for
    # generic pairs (outer-shell content does not decay), so the contract is
    # the error bar, not the value: nested cutoffs must agree within the
    # reported bounds, symmetry stays exact, and the bound interval must
    # reach the positive kernel range
    cube = fl.BoxDomain((1.0, 1.0, 1.0), 0.5)
    b12 = fl.build_basis(cube, (12, 12, 12))
    b24 = fl.build_basis(cube, (24, 24, 24))
    rng = np.random.default_rng(6)
    for _ in range(10):
        while True:
            x = 0.25 + rng.random(3) * 0.5
            y = 0.25 + rng.random(3) * 0.5
            if 0.2 <= np.linalg.norm(x - y) <= 0.5:
                break
        g12 = fl.green(x, y, b12)
        assert g12.value == fl.green(y, x, b12).value
        g24 = fl.green(x, y, b24)
        assert abs(g12.value - g24.value) <= g12.truncation_bound + g24.truncation_bound
        assert g12.value + g12.truncation_bound > 0.0
        assert g12.value - g12.truncation_bound < fl.free_kernel(x, y, 0.5)


def test_green_bound_on_rectangle():
    dom = fl.BoxDomain((1.0, 2.0), 0.5)
    basis = fl.build_basis(dom, (48, 24))
    rng = np.random.default_rng(17)
    for _ in range(20):
        while True:
            x = np.array([0.2, 0.4]) + rng.random(2) * np.array([0.6, 1.2])
            y = np.array([0.2, 0.4]) + rng.random(2) * np.array([0.6, 1.2])
            if np.linalg.norm(x - y) >= 0.15:
                break
        g = fl.green(x, y, basis)
        assert g.value == fl.green(y, x, basis).value
        assert 0.0 < g.value < fl.free_kernel(x, y, 0.5) + g.truncation_bound


def test_g_tilde_3d_positive_and_symmetric_p1():
    cube = fl.BoxDomain((1.0, 1.0, 1.0), 0.5)
    basis = fl.build_basis(cube, (10, 10, 10))
    a = fl.g_tilde((0.3, 0.4, 0.5), (0.7, 0.55, 0.5), 1.0, basis)
    b = fl.g_tilde((0.7, 0.55, 0.5), (0.3, 0.4, 0.5), 1.0, basis)
    assert a.value > 0
    assert abs(a.value - b.value) <= a.truncation_bound + b.truncation_bound


def ring_batch(lengths, count=6, radius=0.3):
    center = np.asarray(lengths) / 2.0
    xs = np.tile(center, (count, 1))
    angles = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    xs[:, 0] += radius * np.cos(angles)
    xs[:, 1] += radius * np.sin(angles)
    return xs, center + 0.013 * np.arange(1, len(lengths) + 1)


@pytest.mark.parametrize("lengths,cutoff,p", [
    ((1.0, 1.3), (16, 20), 1.0),
    ((1.0, 1.3), (16, 20), 1.5),
    ((1.0, 1.0, 1.0), (12, 12, 12), 1.0),
], ids=["2d_p1", "2d_p1.5", "3d_p1"])
def test_g_tilde_batch_is_the_per_point_loop(lengths, cutoff, p):
    # the batch shares the y side; every value and bound stays bitwise that
    # of the point's own call
    basis = fl.build_basis(fl.BoxDomain(lengths, 0.5), cutoff)
    xs, y = ring_batch(lengths)
    batch = fl.g_tilde(xs, y, p, basis)
    singles = [fl.g_tilde(x, y, p, basis) for x in xs]
    assert isinstance(singles[0].value, float)
    assert np.array_equal(batch.value, [g.value for g in singles])
    assert np.array_equal(batch.truncation_bound, [g.truncation_bound for g in singles])
    one = fl.g_tilde(xs[:1], y, p, basis)  # a batch of one
    assert one.value.shape == one.truncation_bound.shape == (1,)
    assert one.value[0] == singles[0].value
    assert one.truncation_bound[0] == singles[0].truncation_bound


@pytest.mark.parametrize("lengths,cutoff,p", [
    ((1.0, 1.0, 1.0), (8, 8, 8), 1.0),
    ((1.0, 1.3), (16, 20), 1.5),
], ids=["3d_p1", "2d_p1.5"])
def test_g_tilde_matches_the_per_point_einsum_path(monkeypatch, lengths, cutoff, p):
    # the whole kernel again on np.sin sines, per-point factors and einsum
    # contractions; the reference builds its half sine matrices past their
    # cache, so no cached sine matrix crosses over
    dom = fl.BoxDomain(lengths, 0.5)
    xs, y = ring_batch(lengths, count=2)
    got = fl.g_tilde(xs, y, p, fl.build_basis(dom, cutoff))
    with monkeypatch.context() as patch:
        patch.setattr(sd, "sine_table", np_sin_sine_table)
        patch.setattr(sd, "_half_pair", sd._half_pair.__wrapped__)
        patch.setattr(fc, "_contract", einsum_contract)
        patch.setattr(sd, "_contract", einsum_contract)
        ref = fl.g_tilde(xs, y, p, fl.build_basis(dom, cutoff))
    np.testing.assert_allclose(got.value, ref.value, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.truncation_bound, ref.truncation_bound,
                               rtol=0, atol=1e-13 * np.max(ref.value))


def test_g_tilde_takes_every_ring_estimate_from_one_green_call(monkeypatch):
    lengths = (1.0, 1.3)
    basis = fl.build_basis(fl.BoxDomain(lengths, 0.5), (16, 20))
    xs, y = ring_batch(lengths)
    sizes = []
    original = fc.green

    def counting(x, y, basis):
        sizes.append(len(np.atleast_2d(x)))
        return original(x, y, basis)

    monkeypatch.setattr(fc, "green", counting)
    fl.g_tilde(xs, y, 1.0, basis)
    assert len(sizes) == 1
    assert sizes[0] == 8 * (len(xs) + 1)  # every ring point of y and the xs lies inside


def test_ring_regular_parts_average_each_center_over_its_own_ring():
    # radius 0.6 leaves no ring point of the middle inside the unit square,
    # so that center keeps 0; the other two average H over their own
    # interior ring points
    basis = fl.build_basis(fl.BoxDomain((1.0, 1.0), 0.5), (24, 24))
    centers = np.array([[0.5, 0.5], [0.1, 0.15], [0.3, 0.2]])
    means = fc._ring_regular_parts(centers, basis, 0.6)
    assert means[0] == 0.0
    dirs, _ = fc._unit_directions(2, 8)
    for c, mean in zip(centers[1:], means[1:]):
        ring = c + 0.6 * dirs
        ring = ring[fc._interior(basis.domain, ring)]
        assert 0 < len(ring) < len(dirs)
        assert mean == pytest.approx(float(np.mean(fl.regular_part(ring, c, basis).value)), rel=1e-13)


def test_g_tilde_batch_refuses_before_any_work():
    dom, basis, grid = setup_square(K=8, m=16)
    xs, y = ring_batch((1.0, 1.0))
    xs[-1] = y + (0.02, 0.0)
    with pytest.raises(fl.UnresolvedSingularityError, match="below resolvable spacing"):
        fl.g_tilde(xs, y, 1.5, basis)
    with pytest.raises(ValueError, match="one point y"):
        fl.g_tilde(xs[0], xs[1:], 1.5, basis)


def test_g_tilde_refinement_monotone():
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, (32, 32))
    x, y = np.array([0.3, 0.45]), np.array([0.65, 0.55])
    vals = [fl.g_tilde(x, y, 1.5, basis, grid=fl.build_grid(dom, (m, m))).value
            for m in (64, 96, 128, 192)]
    diffs = np.abs(np.diff(vals))
    assert np.all(np.diff(diffs) < 0)  # monotone cutoff convergence
    assert fl.g_tilde(x, y, 1.5, basis).truncation_bound > 0
