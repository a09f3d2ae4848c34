"""Domain, eigenbasis, grid and transform tests."""

import math

import numpy as np
import pytest
from oracles import (
    einsum_contract,
    einsum_synthesize_at,
    exact_sine_samples,
    np_sin_sine_samples,
    traced_peak,
)
from scipy.integrate import quad

import fraclane as fl
from fraclane.fractional_calculus import _polar_nodes
from fraclane.spectral_domain import _contract, _half_matrices, _points_per_block, _sine_factors


def unit_square(s=0.5):
    return fl.BoxDomain((1.0, 1.0), s)


def mode_field(basis, grid, k, amplitude=1.0):
    coeff = np.zeros(basis.cutoff)
    coeff[tuple(v - 1 for v in k)] = amplitude
    return fl.synthesize(fl.SpectralField(basis, coeff), grid)


def test_domain_validation():
    with pytest.raises(ValueError):
        fl.BoxDomain((1.0, -1.0), 0.5)
    for side in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            fl.BoxDomain((side, 1.0), 0.5)
    with pytest.raises(ValueError):
        fl.BoxDomain((1.0,), 0.6)  # n > 2s fails
    with pytest.raises(ValueError):
        fl.BoxDomain((1.0, 1.0), 1.2)
    dom = fl.BoxDomain((2.0, 3.0), 0.5)
    assert dom.volume() == pytest.approx(6.0, abs=0.0)


def test_eigenvalues_closed_form():
    dom = unit_square()
    basis = fl.build_basis(dom, (8, 8))
    # eigenvalue_grid[k - 1] holds lambda_k for the multi-index k >= 1
    assert basis.eigenvalue_grid[0, 0] == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert basis.eigenvalue_grid[1, 2] == pytest.approx(13 * math.pi**2, rel=1e-15)
    cube = fl.BoxDomain((1.0, 1.0, 1.0), 0.5)
    basis3 = fl.build_basis(cube, (3, 3, 3))
    assert basis3.eigenvalue_grid[0, 0, 0] == pytest.approx(3 * math.pi**2, rel=1e-15)


def test_build_basis_rejects_zero_cutoff():
    with pytest.raises(ValueError):
        fl.build_basis(unit_square(), (0, 4))


def test_eigenvalues_sorted_and_positive():
    basis = fl.build_basis(fl.BoxDomain((1.0, 2.0), 0.5), (6, 9))
    lam = basis.eigenvalue_grid
    assert lam.shape == (6, 9) and np.all(lam > 0)
    assert lam[0, 0] == pytest.approx(math.pi**2 * (1 + 0.25), rel=1e-15)
    assert lam[-1, -1] == pytest.approx(math.pi**2 * (36 + 81 / 4), rel=1e-15)
    # monotone in each index direction, so the first entry is the least and
    # the last the largest
    for axis in range(2):
        assert np.all(np.diff(lam, axis=axis) > 0)
    assert lam[0, 0] == lam.min() and lam[-1, -1] == lam.max()


def test_quadrature_weight_sum_is_volume():
    for lengths, shape in [((1.0, 1.0), (16, 16)), ((2.0, 0.5), (10, 14)),
                           ((1.0, 1.0, 1.0), (6, 7, 8))]:
        dom = fl.BoxDomain(lengths, 0.4 if len(lengths) > 1 else 0.3)
        grid = fl.build_grid(dom, shape)
        total_weight = grid.cell_volume * math.prod(grid.shape)
        assert total_weight == pytest.approx(dom.volume(), rel=1e-13)


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


def test_sine_factors_are_the_sine_samples():
    # one table row per distinct coordinate, every point's row bitwise the
    # samples of its own coordinate, and synthesize_at gives the same values
    # with the factors passed in
    dom = fl.BoxDomain((1.0, 0.7, 1.3), 0.3)
    basis = fl.build_basis(dom, (5, 4, 3))
    rng = np.random.default_rng(3)
    coords = rng.random((7, 3)) * np.asarray(dom.lengths)
    count = 2 * _points_per_block(basis.cutoff) + 5
    points = coords[rng.integers(0, 7, size=(count, 3)), [0, 1, 2]]
    factors = _sine_factors(basis, points)
    for axis, (table, rows) in enumerate(factors):
        assert len(table) == len(np.unique(points[:, axis]))
        assert np.array_equal(table[rows], basis.sine_samples(axis, points[:, axis]))
    field = fl.SpectralField(basis, rng.standard_normal(basis.cutoff))
    assert np.array_equal(fl.synthesize_at(field, points, factors), fl.synthesize_at(field, points))


@pytest.mark.parametrize("cutoff", [(40,), (24, 20), (12, 10, 14)])
def test_synthesize_at_matches_the_per_point_einsum_path(cutoff):
    # on polar nodes, which share most coordinates, and on random points,
    # which share none; a shuffled copy of the points gives the same values
    n = len(cutoff)
    lengths = np.asarray((1.0, 0.7, 1.3)[:n])
    basis = fl.build_basis(fl.BoxDomain(tuple(lengths), 0.3), cutoff)
    rng = np.random.default_rng(sum(cutoff))
    field = fl.SpectralField(basis, rng.standard_normal(cutoff))
    center = 0.4 * lengths
    polar, _ = _polar_nodes(center, center - 0.1, center + 0.1, n - 0.6, 8, 32)
    if n > 1:
        assert len(np.unique(polar[:, -1])) <= len(polar) // 2
    randoms = rng.random((2 * _points_per_block(cutoff) + 7, n)) * lengths
    for points in (polar, randoms):
        got = fl.synthesize_at(field, points)
        scale = float(np.max(np.abs(got)))
        np.testing.assert_allclose(got, einsum_synthesize_at(field, points), rtol=0, atol=1e-13 * scale)
        order = rng.permutation(len(points))
        np.testing.assert_allclose(fl.synthesize_at(field, points[order]), got[order],
                                   rtol=0, atol=1e-14 * scale)


def test_synthesize_at_builds_its_sine_tables_block_by_block():
    # scattered points share no coordinate: tables for all of them at once
    # would take 20,000 x 64 floats per axis, and about twice that while the
    # complex powers are built
    basis = fl.build_basis(unit_square(), (64, 64))
    field = fl.SpectralField(basis, np.random.default_rng(0).standard_normal(basis.cutoff))
    points = np.random.default_rng(1).random((20000, 2))
    _, peak = traced_peak(fl.synthesize_at, field, points)
    assert peak < 4e6


@pytest.mark.parametrize("L", [1.0, 2.5])
@pytest.mark.parametrize("K", [1, 2, 3, 24, 64, 256])
def test_sine_samples_match_the_exact_sines(K, L):
    # against 40-digit sines of the float coordinates, on midpoint nodes and
    # seeded interior points: within 1e-13, and no further off than np.sin of
    # the rounded angles k pi x / L
    basis = fl.build_basis(fl.BoxDomain((L,), 0.3), K)
    nodes = fl.build_grid(basis.domain, max(2 * K, 64)).coords[0]
    inner = np.random.default_rng(K).uniform(0.0, L, 64)
    for coords in (nodes, inner):
        exact = exact_sine_samples(L, K, coords)
        err = float(np.max(np.abs(basis.sine_samples(0, coords) - exact)))
        assert err <= 1e-13
        assert err <= float(np.max(np.abs(np_sin_sine_samples(basis, 0, coords) - exact)))


@pytest.mark.parametrize("L", [1.0, 2.5])
@pytest.mark.parametrize("K", [1, 3, 24, 64, 256])
def test_sine_rows_do_not_depend_on_the_batch(K, L):
    # a coordinate's row is bitwise the same alone, at every position of a
    # batch, and in the x half or the y half of a concatenated x/y call
    basis = fl.build_basis(fl.BoxDomain((L,), 0.3), K)
    rng = np.random.default_rng(K)
    xs, ys = rng.uniform(0.0, L, 23), rng.uniform(0.0, L, 23)
    batch = basis.sine_samples(0, xs)
    assert batch.shape == (23, K) and batch.flags.c_contiguous
    assert np.array_equal(basis.sine_samples(0, np.concatenate([xs, ys]))[:23], batch)
    assert np.array_equal(basis.sine_samples(0, np.concatenate([ys, xs]))[23:], batch)
    for j, x in enumerate(xs):
        alone = basis.sine_samples(0, [x])
        assert alone.shape == (1, K)
        assert np.array_equal(alone[0], batch[j])
        assert np.array_equal(basis.sine_samples(0, np.roll(xs, 5 - j))[5], batch[j])
        assert np.array_equal(basis.sine_samples(0, xs[: j + 1])[j], batch[j])


def test_contract_reads_consecutive_rows_without_a_gather():
    # green's identity index skips the gather copy; repeated rows, which
    # need it, give bitwise the same values from the same GEMM, also when
    # they span as many table rows as there are points
    basis = fl.build_basis(fl.BoxDomain((1.0, 0.7, 1.3), 0.3), (5, 4, 6))
    rng = np.random.default_rng(8)
    coefficients = rng.standard_normal(basis.cutoff)
    count = 40
    assert 2 * count <= _points_per_block(basis.cutoff)
    tables = [rng.standard_normal((count, K)) for K in basis.cutoff]
    own = np.arange(count)
    got = _contract(coefficients, [(table, own) for table in tables])
    np.testing.assert_allclose(got, einsum_contract(coefficients, [(t, own) for t in tables]),
                               rtol=1e-13, atol=1e-13 * float(np.max(np.abs(got))))
    twice = np.concatenate([own, own])
    repeated = _contract(coefficients, [(table, twice) for table in tables])
    assert np.array_equal(repeated, np.concatenate([got, got]))
    holed = own.copy()
    holed[1] = 0  # as many rows as the range they span, but not distinct
    assert np.array_equal(_contract(coefficients, [(table, holed) for table in tables]),
                          got[holed])


@pytest.mark.parametrize("lengths, shape, cutoff", [
    ((1.0,), (512,), (256,)),
    ((1.0, 2.5), (61, 91), (30, 45)),
])
def test_sine_tables_are_orthonormal_on_the_midpoint_grid(lengths, shape, cutoff):
    # h S^T S = I, the midpoint rule's (2/m) sum_j sin(k pi x_j / L) sin(l pi x_j / L) = delta_kl
    basis = fl.build_basis(fl.BoxDomain(lengths, 0.3), cutoff)
    grid = fl.build_grid(basis.domain, shape)
    for axis, h in enumerate(grid.spacing):
        sines = basis.sine_samples(axis, grid.coords[axis])
        np.testing.assert_allclose(h * sines.T @ sines, np.eye(cutoff[axis]), rtol=0, atol=2e-14)


def dense_transform_oracle(values, basis, grid, inverse=False):
    """Full sine matrix per axis, contracted with np.tensordot."""
    for axis in range(grid.domain.dim):
        mat = basis.sine_samples(axis, grid.coords[axis])
        values = np.tensordot(values, mat, axes=([0], [1 if inverse else 0]))
    return values if inverse else values * grid.cell_volume


@pytest.mark.parametrize("cutoff, shape", [
    ((5,), (10,)), ((4,), (9,)),                       # n = 1: K = m/2; odd m
    ((8, 8), (16, 16)), ((6, 5), (15, 12)), ((1, 3), (2, 7)),
    ((3, 4, 2), (6, 9, 5)), ((4, 3, 5), (8, 7, 10)),  # n = 3, non-square
    ((7,), (5,)), ((6, 5), (7, 4)), ((5, 4, 3), (3, 6, 1)),  # m_i < 2 K_i
])
def test_folded_transforms_match_dense(cutoff, shape):
    n = len(cutoff)
    dom = fl.BoxDomain((1.0, 0.7, 1.3)[:n], 0.3)
    basis = fl.build_basis(dom, cutoff)
    grid = fl.build_grid(dom, shape)
    rng = np.random.default_rng(sum(shape))
    coeff = rng.standard_normal(cutoff)
    # synthesis is pointwise evaluation, so it holds below the anti-aliasing rule too
    got = fl.synthesize(fl.SpectralField(basis, coeff), grid).values
    ref = dense_transform_oracle(coeff, basis, grid, inverse=True)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
    if all(m >= 2 * K for m, K in zip(shape, cutoff, strict=True)):
        values = rng.standard_normal(shape)
        got = fl.analyze(fl.GridFunction(grid, values), basis).coefficients
        ref = dense_transform_oracle(values, basis, grid)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_half_matrices_are_shared_by_side_cutoff_and_node_count():
    # a fresh basis and grid on an equal box find the pairs of the first ones,
    # and the axes of another box with equal (L, K, m) share them too (s plays
    # no part); each pair holds the folded halves of the grid's sine table,
    # read-only
    dom = fl.BoxDomain((1.0, 0.7), 0.3)
    basis, grid = fl.build_basis(dom, (8, 6)), fl.build_grid(dom, (17, 12))
    first = _half_matrices(basis, grid)
    again = _half_matrices(fl.build_basis(fl.BoxDomain((1.0, 0.7), 0.3), (8, 6)),
                           fl.build_grid(dom, (17, 12)))
    other = fl.BoxDomain((1.3, 1.0, 0.7), 0.5)
    shared = _half_matrices(fl.build_basis(other, (5, 8, 6)), fl.build_grid(other, (10, 17, 12)))
    for pair, pair_again, pair_shared in zip(first, again, shared[1:], strict=True):
        assert all(a is b is c for a, b, c in zip(pair, pair_again, pair_shared, strict=True))
    for axis, (odd, even) in enumerate(first):
        m = grid.shape[axis]
        sines = basis.sine_samples(axis, grid.coords[axis])
        assert np.array_equal(odd, sines[: (m + 1) // 2, 0::2])
        assert np.array_equal(even, sines[: m // 2, 1::2])
        assert not odd.flags.writeable and not even.flags.writeable


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
