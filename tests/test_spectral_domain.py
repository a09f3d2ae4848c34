"""Domain, eigenbasis, grid and transform tests."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import fraclane as fl
from fraclane.spectral_domain import _points_per_block


def unit_square(s=0.5):
    return fl.BoxDomain((1.0, 1.0), s)


def mode_field(basis, grid, k, amplitude=1.0):
    coeff = np.zeros(basis.cutoff)
    coeff[tuple(v - 1 for v in k)] = amplitude
    return fl.synthesize(fl.SpectralField(basis, coeff), grid)


def test_domain_validation():
    with pytest.raises(ValueError):
        fl.BoxDomain((1.0, -1.0), 0.5)
    with pytest.raises(ValueError):
        fl.BoxDomain((1.0,), 0.6)  # n > 2s fails
    with pytest.raises(ValueError):
        fl.BoxDomain((1.0, 1.0), 1.2)
    dom = fl.BoxDomain((2.0, 3.0), 0.5)
    assert dom.volume() == pytest.approx(6.0, abs=0.0)


def test_eigenindex_validation():
    with pytest.raises(ValueError):
        fl.EigenIndex((0, 1))
    assert fl.EigenIndex((2, 3)).k == (2, 3)


def test_eigenvalues_closed_form():
    dom = unit_square()
    basis = fl.build_basis(dom, (8, 8))
    assert basis.eigenvalue_of((1, 1)) == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert basis.eigenvalue_of((2, 3)) == pytest.approx(13 * math.pi**2, rel=1e-15)
    cube = fl.BoxDomain((1.0, 1.0, 1.0), 0.5)
    basis3 = fl.build_basis(cube, (3, 3, 3))
    assert basis3.eigenvalue_of((1, 1, 1)) == pytest.approx(3 * math.pi**2, rel=1e-15)


def test_build_basis_rejects_zero_cutoff():
    with pytest.raises(ValueError):
        fl.build_basis(unit_square(), (0, 4))


def test_eigenvalues_sorted_and_positive():
    basis = fl.build_basis(fl.BoxDomain((1.0, 2.0), 0.5), (6, 9))
    lam = basis.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert lam[0] == pytest.approx(math.pi**2 * (1 + 0.25), rel=1e-15)
    # monotone in each index direction
    for axis in range(2):
        k = [2, 2]
        prev = basis.eigenvalue_of(k)
        for v in range(3, 7):
            k[axis] = v
            cur = basis.eigenvalue_of(k)
            assert cur > prev
            prev = cur


def test_quadrature_weight_sum_is_volume():
    for lengths, shape in [((1.0, 1.0), (16, 16)), ((2.0, 0.5), (10, 14)),
                           ((1.0, 1.0, 1.0), (6, 7, 8))]:
        dom = fl.BoxDomain(lengths, 0.4 if len(lengths) > 1 else 0.3)
        grid = fl.build_grid(dom, shape)
        assert grid.total_weight() == pytest.approx(dom.volume(), rel=1e-13)


def test_orthonormality_under_quadrature():
    dom = unit_square()
    basis = fl.build_basis(dom, (6, 6))
    grid = fl.build_grid(dom, (16, 16))
    for k in [(1, 1), (2, 5), (6, 6)]:
        f = mode_field(basis, grid, k)
        coeffs = fl.analyze(f, basis).coefficients
        expect = np.zeros(basis.cutoff)
        expect[tuple(v - 1 for v in k)] = 1.0
        assert np.max(np.abs(coeffs - expect)) < 1e-12


def test_analyze_linearity_example():
    dom = unit_square()
    basis = fl.build_basis(dom, (4, 4))
    grid = fl.build_grid(dom, (12, 12))
    f = mode_field(basis, grid, (1, 1), 3.0).values - mode_field(basis, grid, (2, 2), 2.0).values
    coeffs = fl.analyze(fl.GridFunction(grid, f), basis).coefficients
    assert coeffs[0, 0] == pytest.approx(3.0, abs=1e-12)
    assert coeffs[1, 1] == pytest.approx(-2.0, abs=1e-12)


def test_analyze_constant_sine_series_1d():
    # constant 1 on the unit interval: a_k = 2 sqrt(2)/(k pi) for odd k, 0 even.
    # Oracle: dense quadrature of 1 * sqrt(2) sin(k pi x).
    dom = fl.BoxDomain((1.0,), 0.3)
    basis = fl.build_basis(dom, (8,))
    grid = fl.build_grid(dom, (512,))
    coeffs = fl.analyze(fl.GridFunction(grid, np.ones(512)), basis).coefficients
    for k in range(1, 9):
        oracle, err = quad(lambda x, k=k: math.sqrt(2.0) * math.sin(k * math.pi * x), 0.0, 1.0)
        analytic = 2.0 * math.sqrt(2.0) / (k * math.pi) if k % 2 == 1 else 0.0
        assert oracle == pytest.approx(analytic, abs=1e-12)
        # midpoint projection of a non-band-limited field carries O(h^2) error
        assert coeffs[k - 1] == pytest.approx(analytic, abs=5e-5)


def test_analyze_resolution_guard():
    dom = unit_square()
    basis = fl.build_basis(dom, (8, 8))
    grid = fl.build_grid(dom, (15, 16))
    with pytest.raises(fl.ResolutionError):
        fl.analyze(fl.GridFunction(grid, np.zeros((15, 16))), basis)


def test_round_trip_band_limited():
    dom = unit_square()
    basis = fl.build_basis(dom, (10, 10))
    grid = fl.build_grid(dom, (24, 24))
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(basis.cutoff)
    f = fl.synthesize(fl.SpectralField(basis, coeff), grid)
    back = fl.analyze(f, basis)
    again = fl.synthesize(back, grid)
    assert np.max(np.abs(back.coefficients - coeff)) < 1e-12
    assert np.max(np.abs(again.values - f.values)) < 1e-12


def test_synthesize_zero_and_peak():
    dom = unit_square()
    basis = fl.build_basis(dom, (4, 4))
    grid = fl.build_grid(dom, (64, 64))
    zero = fl.synthesize(fl.SpectralField(basis, np.zeros(basis.cutoff)), grid)
    assert np.all(zero.values == 0.0)
    phi = mode_field(basis, grid, (1, 1))
    # max of 2 sin(pi x) sin(pi y) at the center; nearest cell center sits h/2 off
    assert phi.max() == pytest.approx(2.0, abs=2.5e-3)
    assert fl.synthesize_at(fl.analyze(phi, basis), [(0.5, 0.5)])[0] == pytest.approx(2.0, rel=1e-13)


def synthesize_at_oracle(c, points):
    """Direct sum over every mode of a_k times the product of its 1-d sine factors."""
    rows = [c.basis.sine_samples(axis, points[:, axis]) for axis in range(points.shape[1])]
    total = np.zeros(len(points))
    for k in np.ndindex(c.basis.cutoff):
        term = np.full(len(points), c.coefficients[k])
        for row, ki in zip(rows, k, strict=True):
            term = term * row[:, ki]
        total += term
    return total


@pytest.mark.parametrize("cutoff", [(9,), (7, 5), (5, 4, 3), (3, 2, 4, 2)])
def test_synthesize_at_matches_direct_sum(cutoff):
    n = len(cutoff)
    dom = fl.BoxDomain((1.0, 0.7, 1.3, 0.9)[:n], 0.3)
    basis = fl.build_basis(dom, cutoff)
    rng = np.random.default_rng(n)
    field = fl.SpectralField(basis, rng.standard_normal(cutoff))
    block = _points_per_block(cutoff)
    for count in (0, 1, block, block + 1):
        points = rng.random((count, n)) * np.asarray(dom.lengths)
        got = fl.synthesize_at(field, points)
        ref = synthesize_at_oracle(field, points)
        assert got.shape == (count,)
        scale = float(np.max(np.abs(ref))) if count else 1.0
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)


def test_parseval():
    dom = unit_square()
    basis = fl.build_basis(dom, (8, 8))
    grid = fl.build_grid(dom, (20, 20))
    rng = np.random.default_rng(11)
    coeff = rng.standard_normal(basis.cutoff)
    f = fl.synthesize(fl.SpectralField(basis, coeff), grid)
    assert fl.lp_norm(f, 2.0) ** 2 == pytest.approx(float(np.sum(coeff**2)), rel=1e-10)


def test_lp_norm_examples():
    dom = unit_square()
    basis = fl.build_basis(dom, (4, 4))
    grid = fl.build_grid(dom, (128, 128))
    ones = fl.GridFunction(grid, np.ones(grid.shape))
    assert fl.lp_norm(ones, 2.0) == pytest.approx(1.0, rel=1e-13)
    phi = mode_field(basis, grid, (1, 1))
    assert fl.lp_norm(phi, 2.0) == pytest.approx(1.0, abs=1e-12)
    # ||phi_(1,1)||_4 = (int 16 sin^4 sin^4)^{1/4} = (16 (3/8)^2)^{1/4} = (9/4)^{1/4}.
    # Oracle: dense 1-d quadrature of sin^4 (the spec text also floats
    # (9/16)^{1/4}, which drops the normalization squared; the quadrature
    # settles it).
    sin4, _ = quad(lambda x: math.sin(math.pi * x) ** 4, 0.0, 1.0)
    assert sin4 == pytest.approx(3.0 / 8.0, abs=1e-12)
    oracle = (16.0 * sin4 * sin4) ** 0.25
    assert oracle == pytest.approx((9.0 / 4.0) ** 0.25, rel=1e-12)
    assert fl.lp_norm(phi, 4.0) == pytest.approx(oracle, rel=1e-6)


def test_lp_norm_rejects_r_below_one():
    grid = fl.build_grid(unit_square(), (4, 4))
    f = fl.GridFunction(grid, np.ones((4, 4)))
    with pytest.raises(ValueError):
        fl.lp_norm(f, 0.5)


def test_integrate_examples():
    dom = unit_square()
    basis = fl.build_basis(dom, (4, 4))
    grid = fl.build_grid(dom, (100, 100))
    c = fl.GridFunction(grid, np.full(grid.shape, 2.5))
    assert fl.integrate(c) == pytest.approx(2.5, rel=1e-13)
    phi = mode_field(basis, grid, (1, 1))
    # int 2 sin sin = 2 (2/pi)^2 = 8/pi^2; midpoint error is O(h^2) for a bare
    # sine (only sine *products* are integrated exactly), so verify by refinement
    target = 8.0 / math.pi**2
    assert fl.integrate(phi) == pytest.approx(target, rel=2e-4)
    fine = fl.build_grid(dom, (200, 200))
    phi_fine = mode_field(basis, fine, (1, 1))
    err_c = abs(fl.integrate(phi) - target)
    err_f = abs(fl.integrate(phi_fine) - target)
    assert err_f == pytest.approx(err_c / 4.0, rel=0.05)

    x = grid.coords[0]
    odd = fl.GridFunction(grid, np.subtract.outer(x, x))  # f(x,y) = x - y, odd under swap+reflect
    mirrored = odd.values + odd.values[::-1, ::-1]
    assert np.max(np.abs(mirrored)) < 1e-12
    assert abs(fl.integrate(odd)) < 1e-13


def test_grid_function_rejects_nonfinite():
    grid = fl.build_grid(unit_square(), (4, 4))
    values = np.ones((4, 4))
    values[2, 2] = np.nan
    with pytest.raises(ValueError):
        fl.GridFunction(grid, values)


def test_spectral_field_shape_guard():
    basis = fl.build_basis(unit_square(), (4, 4))
    with pytest.raises(ValueError):
        fl.SpectralField(basis, np.zeros((3, 4)))
