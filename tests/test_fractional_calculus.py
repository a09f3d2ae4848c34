"""Fractional operator and kernel-family tests."""

import math

import numpy as np
import pytest

import fraclane as fl
from fraclane.fractional_calculus import _KernelEvaluator, _kernel_evaluator
from fraclane.spectral_domain import SpectralField, synthesize, synthesize_at


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
    const = fl.FreeKernelConstant.for_order(2, 0.5)
    assert const.value > 0 and math.isfinite(const.value)
    with pytest.raises(ValueError):
        fl.FreeKernelConstant.for_order(1, 0.6)


def test_free_kernel_values_and_scaling():
    assert fl.free_kernel((0.0, 0.0), (0.5, 0.0), 2, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    r1 = fl.free_kernel((0.0, 0.0, 0.0), (0.3, 0.0, 0.0), 3, 0.5)
    r2 = fl.free_kernel((0.0, 0.0, 0.0), (0.6, 0.0, 0.0), 3, 0.5)
    assert r2 == pytest.approx(2.0 ** (2 * 0.5 - 3) * r1, rel=1e-13)
    with pytest.raises(ValueError):
        fl.free_kernel((0.1, 0.1), (0.1, 0.1), 2, 0.5)


def test_fraclap_single_mode_multiplier():
    dom, basis, grid = setup_square()
    phi = mode_field(basis, grid, (1, 1))
    out = fl.apply_fraclap(phi, 0.5, basis)
    lam = 2 * math.pi**2
    assert np.max(np.abs(out.values - math.sqrt(lam) * phi.values)) < 1e-10
    inv = fl.apply_inverse(phi, 0.5, basis)
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
        back = fl.apply_fraclap(fl.apply_inverse(f, 0.5, basis), 0.5, basis)
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * max(1.0, np.max(np.abs(f.values)))
        two_step = fl.apply_fraclap(fl.apply_fraclap(f, 0.3, basis), 0.45, basis)
        one_step = fl.apply_fraclap(f, 0.75, basis)
        scale = np.max(np.abs(one_step.values))
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12 * scale


def test_inverse_positivity_up_to_clamp():
    dom, basis, grid = setup_square(K=16, m=48)
    rng = np.random.default_rng(8)
    f = fl.GridFunction(grid, rng.random(grid.shape))
    inv = fl.apply_inverse(f, 0.5, basis)
    clamped, fraction = fl.clamp_nonnegative(inv)
    assert fraction < 1e-8
    assert clamped.min() >= 0.0


def test_apply_fraclap_rejects_bad_s():
    dom, basis, grid = setup_square(K=4, m=8)
    f = mode_field(basis, grid, (1, 1))
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            fl.apply_fraclap(f, bad, basis)


def test_green_symmetry_exact_and_bound_example():
    dom, basis, grid = setup_square(K=32, m=64)
    x, y = (0.5, 0.5), (0.25, 0.5)
    gxy = fl.green(x, y, basis)
    gyx = fl.green(y, x, basis)
    assert gxy.value == gyx.value  # summand symmetric, bitwise
    free = fl.free_kernel(x, y, 2, 0.5)
    assert free == pytest.approx(2.0 / math.pi, rel=1e-13)
    assert 0.0 < gxy.value < free + gxy.truncation_bound


def test_green_reuses_one_read_only_evaluator(monkeypatch):
    dom, basis, grid = setup_square(K=24, m=48)
    seen = []
    original = _KernelEvaluator.sum_with_tail

    def recording(self, x, y):
        seen.append(self)
        return original(self, x, y)

    monkeypatch.setattr(_KernelEvaluator, "sum_with_tail", recording)
    rng = np.random.default_rng(3)
    for _ in range(4):
        x, y = 0.2 + 0.6 * rng.random(2), 0.2 + 0.6 * rng.random(2)
        assert fl.green(x, y, basis).value == fl.green(y, x, basis).value
    ev = seen[0]
    assert all(other is ev for other in seen)
    assert ev is _kernel_evaluator(basis, 0.5)
    assert not ev.mults.flags.writeable and not ev.shell_id.flags.writeable
    with pytest.raises(ValueError):
        ev.mults[0] = 0.0


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
    inv = fl.apply_inverse(f, 0.5, basis)
    coeffs = fl.analyze(f, basis)

    dense = fl.build_grid(dom, (128, 128))
    f_dense = fl.synthesize(coeffs, dense)
    rich = fl.build_basis(dom, (64, 64))
    ev = _KernelEvaluator(rich, 0.5)
    for node in [(4, 7), (8, 8), (12, 3)]:
        x = np.array([grid.coords[0][node[0]], grid.coords[1][node[1]]])
        kernel_row = synthesize(
            SpectralField(rich, (ev.mults * ev.mode_values(x)).reshape(rich.cutoff)),
            dense,
        ).values
        oracle = float(np.sum(kernel_row * f_dense.values)) * dense.cell_volume
        assert inv.values[node] == pytest.approx(oracle, abs=5e-3)


def test_rescaled_green_identity_and_errors():
    dom, basis, grid = setup_square(K=24, m=48)
    x, y = np.array([0.4, 0.55]), np.array([0.7, 0.3])
    direct = fl.green(x, y, basis).value
    assert fl.rescaled_green(x, y, 1.0, (0.0, 0.0), basis) == pytest.approx(direct, rel=1e-14)
    lam, c = 4.0, np.array([0.45, 0.5])
    val = fl.rescaled_green(lam * (x - c), lam * (y - c), lam, c, basis)
    assert val == pytest.approx(lam ** -(2 - 2 * 0.5) * direct, rel=1e-13)
    with pytest.raises(ValueError):
        fl.rescaled_green((10.0, 0.0), (0.1, 0.1), 2.0, (0.5, 0.5), basis)


def test_free_kernel_homogeneity_matches_rescaling():
    # lam^{-(n-2s)} free(x/lam, y/lam) = free(x, y)
    n, s = 2, 0.5
    x, y = np.array([0.3, 0.4]), np.array([0.6, 0.1])
    lam = 3.7
    lhs = lam ** -(n - 2 * s) * fl.free_kernel(x / lam, y / lam, n, s)
    assert lhs == pytest.approx(fl.free_kernel(x, y, n, s), rel=1e-13)


def test_g_tilde_regime_guard():
    dom, basis, grid = setup_square(K=8, m=16)
    with pytest.raises(fl.RegimeError):
        fl.g_tilde((0.3, 0.3), (0.7, 0.7), 2.0, basis)  # p >= n/(n-2s) = 2
    with pytest.raises(fl.RegimeError):
        fl.g_tilde((0.3, 0.3), (0.7, 0.7), 0.8, basis)  # p < 1
    with pytest.raises(fl.UnresolvedSingularityError):
        fl.g_tilde((0.5, 0.5), (0.52, 0.5), 1.5, basis)


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
    ev = _KernelEvaluator(basis, 0.5)
    coeff = SpectralField(basis, (ev.mults**2 * ev.mode_values(y)).reshape(basis.cutoff))
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
        assert g12.value - g12.truncation_bound < fl.free_kernel(x, y, 3, 0.5)


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
        assert 0.0 < g.value < fl.free_kernel(x, y, 2, 0.5) + g.truncation_bound


def test_g_tilde_3d_positive_and_symmetric_p1():
    cube = fl.BoxDomain((1.0, 1.0, 1.0), 0.5)
    basis = fl.build_basis(cube, (10, 10, 10))
    a = fl.g_tilde((0.3, 0.4, 0.5), (0.7, 0.55, 0.5), 1.0, basis)
    b = fl.g_tilde((0.7, 0.55, 0.5), (0.3, 0.4, 0.5), 1.0, basis)
    assert a.value > 0
    assert abs(a.value - b.value) <= a.truncation_bound + b.truncation_bound


def test_g_tilde_refinement_monotone():
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, (32, 32))
    x, y = np.array([0.3, 0.45]), np.array([0.65, 0.55])
    vals = [fl.g_tilde(x, y, 1.5, basis, grid=fl.build_grid(dom, (m, m))).value
            for m in (64, 96, 128, 192)]
    diffs = np.abs(np.diff(vals))
    assert np.all(np.diff(diffs) < 0)  # monotone cutoff convergence
    assert fl.g_tilde(x, y, 1.5, basis).truncation_bound > 0
