"""Exponent algebra, quotient, and ground-state solver tests."""

import ast
import inspect
import itertools
import math
import re

import numpy as np
import pytest

import fraclane as fl
from fraclane import fractional_calculus as fc
from fraclane import lane_emden as le
from fraclane import spectral_domain as sd
from oracles import (clamp_nonnegative, eigenvalues, full_grid_post_solve, mirrored,
                     multistart_theta, plain_fixed_point, recording_iterate, theta_quotient,
                     traced_peak)


def small_setup(K=16, m=32):
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    return dom, fl.build_basis(dom, (K, K)), fl.build_grid(dom, (m, m))


@pytest.fixture(scope="module")
def solved():
    dom, basis, grid = small_setup()
    q = fl.solve_q_epsilon(2.5, 2, 0.5, 0.05)
    exps = fl.ExponentPair(p=2.5, q=q, n=2, s=0.5)
    pair, report = fl.solve_ground_state(exps, basis, grid)
    return dom, basis, grid, exps, pair, report


def test_q_epsilon_examples():
    assert fl.solve_q_epsilon(2.5, 2, 0.5, 0.0) == pytest.approx(11.0 / 3.0, rel=1e-14)
    assert fl.solve_q_epsilon(2.5, 2, 0.5, 0.05) == pytest.approx(103.0 / 37.0, rel=1e-14)
    with pytest.raises(ValueError, match="q >= p"):
        fl.solve_q_epsilon(2.5, 2, 0.5, 0.1)  # eps_max = 1/14
    # boundary itself is admissible (q = p)
    assert fl.solve_q_epsilon(2.5, 2, 0.5, 1.0 / 14.0) == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValueError):
        fl.solve_q_epsilon(2.5, 2, 0.5, -0.01)


def test_alpha_beta_examples():
    a, b = fl.alpha_beta(2.5, 103.0 / 37.0, 0.5)
    assert a == pytest.approx(37.0 / 63.0, rel=1e-13)
    assert b == pytest.approx(40.0 / 63.0, rel=1e-13)
    # at eps=0: alpha0 = n - 2s - n/(p+1), beta0 = n/(p+1)
    a0, b0 = fl.alpha_beta(2.5, 11.0 / 3.0, 0.5)
    assert a0 == pytest.approx(3.0 / 7.0, rel=1e-13)
    assert b0 == pytest.approx(2.0 / 3.5, rel=1e-13)
    assert a0 + b0 == pytest.approx(2 * 0.5 * (2.5 + 11.0 / 3.0 + 2) / (2.5 * 11.0 / 3.0 - 1), rel=1e-13)
    with pytest.raises(ValueError):
        fl.alpha_beta(0.5, 1.0, 0.5)


def test_exponent_pair_validation():
    with pytest.raises(ValueError, match="q >= p"):
        fl.ExponentPair(p=2.5, q=2.0, n=2, s=0.5)
    with pytest.raises(ValueError, match="2s"):
        fl.ExponentPair(p=0.9, q=2.0, n=2, s=0.5)
    with pytest.raises(ValueError, match="supercritical"):
        fl.ExponentPair(p=3.0, q=4.0, n=2, s=0.5)
    crit = fl.ExponentPair(p=2.5, q=11.0 / 3.0, n=2, s=0.5)
    assert crit.critical and not crit.subcritical
    sub = fl.ExponentPair(p=2.5, q=3.0, n=2, s=0.5)
    assert sub.subcritical and sub.epsilon > 0


def test_exponent_pair_decides_q_ge_p_up_to_rounding():
    # the diagonal critical pair (p, critical_q(p)), p = (n+2s)/(n-2s), over
    # n = 1..3 and s = k/100 < n/2: rounding puts q0 an ulp below p on some,
    # which a rule q >= p without THRESHOLD_TOL refused; a q further below p
    # is still refused, as is a NaN exponent
    refused = []
    for n, k in itertools.product((1, 2, 3), range(1, 100)):
        s = k / 100
        if not n > 2 * s:
            continue
        p = le.diagonal_exponent(n, s)
        try:
            fl.ExponentPair(p, fl.critical_q(p, n, s), n, s)
        except ValueError:
            refused.append((n, s))
        with pytest.raises(ValueError, match="q >= p"):
            fl.ExponentPair(p, p * (1 - 1e-9), n, s)
    assert refused == []
    with pytest.raises(ValueError, match="q >= p"):
        fl.ExponentPair(2.5, math.nan, 2, 0.5)
    with pytest.raises(ValueError, match=r"p > 2s/\(n-2s\)"):
        fl.ExponentPair(math.nan, 3.0, 2, 0.5)


def test_theta_quotient_scale_invariance_and_phi1():
    dom, basis, grid = small_setup(K=8, m=16)
    exps = fl.ExponentPair(p=2.5, q=3.0, n=2, s=0.5)
    rng = np.random.default_rng(2)
    w = fl.GridFunction(grid, rng.random(grid.shape) + 0.2)
    base = theta_quotient(w, exps, basis)
    for c in (0.003, 7.0, 1234.5):
        scaled = theta_quotient(w.with_values(c * w.values), exps, basis)
        assert scaled == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError):
        theta_quotient(w.with_values(np.zeros(grid.shape)), exps, basis)

    coeff = np.zeros(basis.cutoff)
    coeff[0, 0] = 1.0
    phi1 = fl.synthesize(fl.SpectralField(basis, coeff), grid)
    lam1 = eigenvalues(basis)[0, 0]
    expect = lam1 ** -exps.s * fl.lp_norm(phi1, exps.p + 1) / fl.lp_norm(phi1, (exps.q + 1) / exps.q)
    assert theta_quotient(phi1, exps, basis) == pytest.approx(expect, rel=1e-12)


def test_solver_refuses_critical_pair():
    dom, basis, grid = small_setup(K=4, m=8)
    crit = fl.ExponentPair(p=2.5, q=11.0 / 3.0, n=2, s=0.5)
    with pytest.raises(fl.CriticalPairError):
        fl.solve_ground_state(crit, basis, grid)


def test_solver_rejects_bad_init():
    dom, basis, grid = small_setup(K=4, m=8)
    exps = fl.ExponentPair(p=2.5, q=3.0, n=2, s=0.5)
    with pytest.raises(ValueError):
        fl.solve_ground_state(exps, basis, grid,
                              init=fl.GridFunction(grid, -np.ones(grid.shape)))


def refuse_to_iterate(*args, **kwargs):
    raise AssertionError("the solver iterated")


def test_solver_refuses_another_problems_exponents(monkeypatch):
    # 3-d exponents, or exponents of another order s, on a 2-d s = 1/2 box
    # converged to a Theta of a problem nobody posed; they are refused before
    # the first iteration
    dom, basis, grid = small_setup(K=4, m=8)
    monkeypatch.setattr(le, "_iterate", refuse_to_iterate)
    three_d = fl.ExponentPair(p=1.5, q=fl.solve_q_epsilon(1.5, 3, 0.5, 0.05), n=3, s=0.5)
    other_s = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.6, 0.05), n=2, s=0.6)
    for exps in (three_d, other_s):
        with pytest.raises(ValueError, match=r"do not belong to the basis's box, \(n, s\) = \(2, 0.5\)"):
            fl.solve_ground_state(exps, basis, grid)


def test_solver_refuses_an_init_on_another_grid(monkeypatch):
    # a 20x20 init on a 16x16 grid died inside the cell solve with a reshape
    # error, and a 16x16 init from a 1x2 box ran silently on the unit square
    dom, basis, grid = small_setup(K=8, m=16)
    exps = fl.ExponentPair(p=2.5, q=3.0, n=2, s=0.5)
    monkeypatch.setattr(le, "_iterate", refuse_to_iterate)
    finer = fl.build_grid(dom, (20, 20))
    tall = fl.build_grid(fl.BoxDomain((1.0, 2.0), 0.5), (16, 16))
    for other, named in ((finer, r"\(20, 20\) grid of the box \(1.0, 1.0\)"),
                         (tall, r"\(16, 16\) grid of the box \(1.0, 2.0\)")):
        init = fl.GridFunction(other, np.ones(other.shape))
        with pytest.raises(ValueError, match=named + r", not on the solver's \(16, 16\) grid "
                                                     r"of the box \(1.0, 1.0\)"):
            fl.solve_ground_state(exps, basis, grid, init=init)
    # the same nodes on an equal box (another object, another s) are the solver's grid
    same = fl.build_grid(fl.BoxDomain((1.0, 1.0), 0.4), (16, 16))
    with pytest.raises(AssertionError, match="the solver iterated"):
        fl.solve_ground_state(exps, basis, grid, init=fl.GridFunction(same, np.ones((16, 16))))


@pytest.mark.parametrize("rule, match", [
    ({"max_iter": 0}, r"max_iter must be >= 1, got 0"),
    ({"theta_tol": -1.0}, r"theta_tol must be > 0, got -1.0"),
    ({"theta_tol": math.nan}, r"theta_tol must be > 0, got nan"),
    ({"residual_tol": 0.0}, r"residual_tol must be > 0, got 0.0"),
])
def test_solver_refuses_a_stopping_rule_it_cannot_meet(rule, match, monkeypatch):
    # max_iter = 0 used to end in "no convergence in 0 iterations", and a
    # tolerance <= 0 iterated to max_iter; both are refused before iterating
    dom, basis, grid = small_setup(K=4, m=8)
    exps = fl.ExponentPair(p=2.5, q=3.0, n=2, s=0.5)
    monkeypatch.setattr(le, "_iterate", refuse_to_iterate)
    with pytest.raises(ValueError, match=match):
        fl.solve_ground_state(exps, basis, grid, **rule)
    with pytest.raises(ValueError, match=match):
        le.check_stopping_rule(**{"theta_tol": 1e-9, "residual_tol": 1e-7, "max_iter": 5, **rule})
    le.check_stopping_rule(theta_tol=1e-9, residual_tol=1e-7, max_iter=1)


def test_converged_solution_properties(solved):
    dom, basis, grid, exps, pair, report = solved
    assert report.converged and report.iterations >= 1
    assert report.node_set == "cell"  # the first eigenfunction is mirror-symmetric
    assert report.residual_el < 1e-7
    assert report.residual_w < 1e-6
    # Theta ascent with 1e-12 slack, logged every iteration
    dth = np.diff(report.theta_history)
    assert np.all(dth >= -1e-12 * max(1.0, report.theta))
    # positivity after clamp
    assert pair.u.min() >= 0 and pair.v.min() >= 0
    assert report.clamped_fraction_max < 1e-8
    # symmetric box, symmetric init: peak at the center, dihedral symmetry
    idx = np.unravel_index(np.argmax(pair.u.values), pair.u.values.shape)
    center = np.array([grid.coords[0][idx[0]], grid.coords[1][idx[1]]])
    assert np.max(np.abs(center - 0.5)) <= max(grid.spacing)
    assert all(le.symmetry_classes(pair.u).values())


def test_identity_suite_at_convergence(solved):
    dom, basis, grid, exps, pair, report = solved
    gaps = fl.identity_report(pair, basis, report.energy)
    for name, gap in gaps.items():
        assert gap < 1e-6, (name, gap)
    # S_Omega = 1/Theta at the maximizer (eq-a-74 algebra)
    assert report.sobolev_quotient == pytest.approx(1.0 / report.theta, rel=1e-9)
    assert report.mu == pytest.approx(report.theta ** (exps.p + 1), rel=1e-12)


def test_scaling_law_eq_w1_residual(solved):
    # direct substitution: w solves w^{1/q} = inv((inv w)^p) after the
    # t = Theta^{-q(p+1)/(pq-1)} rescale
    dom, basis, grid, exps, pair, report = solved
    inner = fl.apply_inverse(pair.w, basis)
    inner, _ = clamp_nonnegative(inner)
    outer = fl.apply_inverse(inner.with_values(inner.values**exps.p), basis)
    lhs = outer.values
    rhs = pair.w.values ** (1.0 / exps.q)
    assert np.max(np.abs(lhs - rhs)) / np.max(rhs) < 1e-6


def test_energy_positive_and_consistent(solved):
    dom, basis, grid, exps, pair, report = solved
    assert report.energy > 0
    assert fl.energy_reduced(pair) == pytest.approx(report.energy, rel=1e-7)


def test_sobolev_quotient_identity(solved):
    dom, basis, grid, exps, pair, report = solved
    p, q = exps.p, exps.q
    lhs = fl.lp_norm(pair.v.with_values(pair.v.values**p), (p + 1) / p)
    rhs = fl.integrate(pair.v.with_values(pair.v.values ** (p + 1))) ** (p / (p + 1))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_maximality_spot_check(solved):
    dom, basis, grid, exps, pair, report = solved
    rng = np.random.default_rng(9)
    for _ in range(8):
        trial = fl.GridFunction(grid, rng.random(grid.shape) + 0.05)
        assert theta_quotient(trial, exps, basis) <= report.theta * (1 + 1e-9)


def test_p_equals_q_self_consistency():
    # symmetric system: u = inv((inv u^q)^q) must close on itself
    dom, basis, grid = small_setup(K=12, m=24)
    exps = fl.ExponentPair(p=2.5, q=2.5, n=2, s=0.5)
    pair, report = fl.solve_ground_state(exps, basis, grid)
    uq = pair.u.with_values(pair.u.values**exps.q)
    v = fl.apply_inverse(uq, basis)
    v, _ = clamp_nonnegative(v)
    assert np.max(np.abs(v.values - pair.v.values)) / pair.v.max() < 1e-7
    back = fl.apply_inverse(v.with_values(v.values**exps.p), basis)
    assert np.max(np.abs(back.values - pair.u.values)) / pair.u.max() < 1e-6


def test_warm_start_converges_to_same_point():
    dom, basis, grid = small_setup(K=12, m=24)
    e1 = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.06), n=2, s=0.5)
    e2 = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.05), n=2, s=0.5)
    pair1, _ = fl.solve_ground_state(e1, basis, grid)
    cold, rc = fl.solve_ground_state(e2, basis, grid)
    warm, rw = fl.solve_ground_state(e2, basis, grid, init=pair1.w)
    assert rw.theta == pytest.approx(rc.theta, rel=1e-8)
    assert rw.iterations <= rc.iterations


def test_coarse_grid_direct_maximization_oracle():
    # independent projected-gradient maximization of the quotient on a coarse
    # 24x24 grid agrees with the fixed-point solver to 1e-3 relative
    # (eps = 0.05; the spec example's eps = 0.1 violates q >= p for p = 2.5)
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, (12, 12))
    grid = fl.build_grid(dom, (24, 24))
    q = fl.solve_q_epsilon(2.5, 2, 0.5, 0.05)
    exps = fl.ExponentPair(p=2.5, q=q, n=2, s=0.5)
    _, report = fl.solve_ground_state(exps, basis, grid)
    best, _ = multistart_theta(exps, basis, grid, n_restarts=5, seed=99, max_iter=6000)
    assert report.theta == pytest.approx(best, rel=1e-3)


def test_small_instance_oracle_quick():
    # fast version of the acceptance oracle: best-basin agreement on 8x8/K=4
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, (4, 4))
    grid = fl.build_grid(dom, (8, 8))
    q = fl.solve_q_epsilon(2.5, 2, 0.5, 0.05)
    exps = fl.ExponentPair(p=2.5, q=q, n=2, s=0.5)
    best_pga, w_pga = multistart_theta(exps, basis, grid, n_restarts=4, seed=123,
                                       max_iter=4000)
    best_solver = -np.inf
    rng = np.random.default_rng(123)
    inits = [None] + [fl.GridFunction(grid, rng.random(grid.shape) + 0.1) for _ in range(3)]
    inits.append(fl.GridFunction(grid, np.maximum(w_pga, 1e-12)))
    for init in inits:
        _, rep = fl.solve_ground_state(exps, basis, grid, init=init)
        best_solver = max(best_solver, rep.theta)
    # smoke-level settings; the acceptance suite runs the full-strength oracle
    # at the criterion tolerance 1e-4
    assert best_solver == pytest.approx(best_pga, rel=5e-4)


def test_solver_matches_plain_iteration(solved):
    # the solver reuses each fractional power across its norms; the plain
    # iteration takes every one afresh, so both walk the same path up to rounding
    dom, basis, grid, exps, pair, report = solved
    u, v, history, iterations = plain_fixed_point(exps, basis, grid)
    assert report.iterations == iterations
    np.testing.assert_allclose(report.theta_history, history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pair.u.values, u, rtol=0, atol=1e-12 * np.max(u))
    np.testing.assert_allclose(pair.v.values, v, rtol=0, atol=1e-12 * np.max(v))


def test_nonconvergence_raises():
    dom, basis, grid = small_setup(K=8, m=16)
    exps = fl.ExponentPair(p=2.5, q=3.0, n=2, s=0.5)
    with pytest.raises(fl.ConvergenceError):
        fl.solve_ground_state(exps, basis, grid, max_iter=2)


def test_solver_on_rectangle():
    # nothing square-specific: identities and center concentration on a 1 x 1.6 box
    dom = fl.BoxDomain((1.0, 1.6), 0.5)
    basis = fl.build_basis(dom, (12, 18))
    grid = fl.build_grid(dom, (24, 36))
    q = fl.solve_q_epsilon(2.5, 2, 0.5, 0.05)
    exps = fl.ExponentPair(p=2.5, q=q, n=2, s=0.5)
    pair, report = fl.solve_ground_state(exps, basis, grid)
    gaps = fl.identity_report(pair, basis, report.energy)
    assert all(g < 1e-6 for g in gaps.values()), gaps
    idx = np.unravel_index(np.argmax(pair.u.values), pair.u.values.shape)
    center = np.array([grid.coords[0][idx[0]], grid.coords[1][idx[1]]])
    assert np.max(np.abs(center - np.array([0.5, 0.8]))) <= max(grid.spacing)
    symmetry = le.symmetry_classes(pair.u)
    assert symmetry["flip_0"] and symmetry["flip_1"]
    assert "swap_01" not in symmetry  # unequal sides: no swap class


def test_solver_at_other_fractional_order():
    # s = 0.4: hypothesis band shifts (p > 2s/(n-2s) = 2/3) but the identity
    # suite is order-independent
    dom = fl.BoxDomain((1.0, 1.0), 0.4)
    basis = fl.build_basis(dom, (12, 12))
    grid = fl.build_grid(dom, (24, 24))
    q = fl.solve_q_epsilon(2.0, 2, 0.4, 0.05)
    exps = fl.ExponentPair(p=2.0, q=q, n=2, s=0.4)
    pair, report = fl.solve_ground_state(exps, basis, grid)
    gaps = fl.identity_report(pair, basis, report.energy)
    assert all(g < 1e-6 for g in gaps.values()), gaps
    assert report.sobolev_quotient == pytest.approx(1.0 / report.theta, rel=1e-8)


# The solver runs its loop on the fundamental cell when the normalized start
# is mirror-symmetric, and on the full grid otherwise. These tests count the
# cell operators it builds through a stand-in, and force the full path by
# hiding the symmetry from it.

@pytest.fixture
def cell_solves(monkeypatch):
    built = []

    class CountingCellInverse(le._CellInverse):
        def __init__(self, basis, grid):
            super().__init__(basis, grid)
            built.append(grid.shape)

    monkeypatch.setattr(le, "_CellInverse", CountingCellInverse)
    return built


def full_path_solve(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patched:
        patched.setattr(le._CellInverse, "cell_of", staticmethod(lambda values: None))
        return fl.solve_ground_state(*args, **kwargs)


def mirror_symmetric(grid, seed):
    values = np.random.default_rng(seed).random(grid.shape)
    for axis in range(values.ndim):
        values = values + np.flip(values, axis)
    return values


REDUCED_CASES = {
    # lengths, s, p, eps, cutoff, grid
    "1d-odd": ((1.0,), 0.25, 2.0, 0.15, (20,), (41,)),
    "1d-even": ((1.0,), 0.25, 2.0, 0.1, (32,), (64,)),
    "2d-square-even": ((1.0, 1.0), 0.5, 2.5, 0.05, (16, 16), (32, 32)),
    "2d-rectangle-odd": ((1.0, 1.6), 0.5, 2.5, 0.04, (12, 18), (25, 37)),
    "2d-rectangle-mixed": ((1.6, 1.0), 0.4, 2.0, 0.05, (18, 11), (36, 23)),
    "3d-cube-even": ((1.0, 1.0, 1.0), 0.5, 1.0, 0.1, (8, 8, 8), (16, 16, 16)),
    "3d-box-odd": ((1.0, 1.3, 0.8), 0.5, 1.0, 0.1, (12, 14, 10), (25, 29, 21)),
}


@pytest.mark.parametrize("case", REDUCED_CASES)
def test_reduced_solve_matches_full_solve(case, cell_solves, monkeypatch):
    lengths, s, p, eps, cutoff, shape = REDUCED_CASES[case]
    dom = fl.BoxDomain(lengths, s)
    basis, grid = fl.build_basis(dom, cutoff), fl.build_grid(dom, shape)
    exps = fl.ExponentPair(p=p, q=fl.solve_q_epsilon(p, dom.dim, s, eps), n=dom.dim, s=s)
    pair, report = fl.solve_ground_state(exps, basis, grid)
    assert cell_solves == [shape]
    full_pair, full_report = full_path_solve(monkeypatch, exps, basis, grid)
    assert cell_solves == [shape]
    assert report.iterations == full_report.iterations
    np.testing.assert_allclose(report.theta_history, full_report.theta_history,
                               rtol=1e-13, atol=0)
    for name in ("u", "v", "w"):
        full = getattr(full_pair, name).values
        np.testing.assert_allclose(getattr(pair, name).values, full,
                                   rtol=0, atol=1e-13 * np.max(full), err_msg=name)


NODE_SET_SHAPES = [  # lengths, cutoff, grid
    ((1.0,), (20,), (41,)),
    ((1.0, 1.6), (12, 18), (25, 37)),
    ((1.0, 1.0), (64, 64), (128, 128)),
    ((1.0, 1.3, 0.8), (8, 10, 6), (17, 21, 13)),
    ((1.0, 1.0, 1.0), (12, 12, 12), (24, 24, 24)),
    ((1.0, 1.0), (16, 16), (32, 33)),
    ((1.0, 1.0, 1.0), (24, 24, 24), (48, 48, 48)),
]


@pytest.mark.parametrize("lengths, cutoff, shape", NODE_SET_SHAPES)
def test_cell_inverse_is_bitwise_the_cell_of_apply_inverse(lengths, cutoff, shape):
    dom = fl.BoxDomain(lengths, 0.4)
    basis, grid = fl.build_basis(dom, cutoff), fl.build_grid(dom, shape)
    values = mirror_symmetric(grid, seed=len(shape))
    cell = fc._CellInverse.cell_of(values)
    assert cell.shape == tuple((m + 1) // 2 for m in shape)
    out = np.empty_like(cell)
    inverse = fc._CellInverse(basis, grid)
    assert inverse(cell, out) is out
    full = fl.apply_inverse(fl.GridFunction(grid, values), basis).values
    assert np.array_equal(out, full[tuple(slice(c) for c in cell.shape)])
    assert np.array_equal(inverse.extend(out), full)
    analyzed = fl.analyze(fl.GridFunction(grid, values), basis).coefficients
    assert np.array_equal(inverse.coefficients(cell).coefficients, analyzed)
    # node multiplicities sum to the full grid's node count; they are the
    # scalar 2^n exactly when every m_i is even
    assert np.sum(np.broadcast_to(inverse.weights, cell.shape)) == math.prod(grid.shape)
    all_even = all(m % 2 == 0 for m in shape)
    assert (np.ndim(inverse.weights) == 0) == all_even
    if all_even:
        assert inverse.weights == 2.0**len(shape)


@pytest.mark.parametrize("lengths, cutoff, shape", NODE_SET_SHAPES)
def test_grid_inverse_is_bitwise_apply_inverse(lengths, cutoff, shape):
    # the full-grid node set keeps the cell's contract on any field: a call
    # is apply_inverse, extend gives the field back, coefficients is analyze
    dom = fl.BoxDomain(lengths, 0.4)
    basis, grid = fl.build_basis(dom, cutoff), fl.build_grid(dom, shape)
    values = np.random.default_rng(len(shape)).random(shape)
    nodes = fc._GridInverse(basis, grid)
    full = fl.apply_inverse(fl.GridFunction(grid, values), basis).values
    assert np.array_equal(nodes(values, np.empty_like(values)), full)
    assert np.array_equal(nodes.extend(full), full)
    analyzed = fl.analyze(fl.GridFunction(grid, values), basis).coefficients
    assert np.array_equal(nodes.coefficients(values).coefficients, analyzed)
    assert np.sum(np.broadcast_to(nodes.weights, values.shape)) == math.prod(grid.shape)


def test_cell_inverse_shares_one_matrix_per_distinct_axis():
    # equal axes of an all-even grid: every product reads the one cached odd
    # matrix, and the node multiplicity 2 lives in the scale, not in a copy
    for shape in [(64, 64), (16, 16, 16)]:
        dom = fl.BoxDomain((1.0,) * len(shape), 0.5)
        grid = fl.build_grid(dom, shape)
        basis = fl.build_basis(dom, tuple(m // 2 for m in shape))
        inverse = fc._CellInverse(basis, grid)
        odd = sd._half_matrices(basis, grid)[0][0]
        assert all(matrix is odd for matrix in inverse._odd + inverse._analysis), shape
        assert inverse._scale == grid.cell_volume * 2.0**len(shape)
    # sides 1 and 1 on 32 x 33 nodes: the odd axis samples other nodes and
    # weights its middle row once, so the two axes share no matrix
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis, grid = fl.build_basis(dom, (16, 16)), fl.build_grid(dom, (32, 33))
    inverse = fc._CellInverse(basis, grid)
    even_axis, odd_axis = inverse._odd
    assert even_axis is not odd_axis
    assert inverse._analysis[0] is even_axis
    assert np.array_equal(inverse._analysis[1][:-1], 2.0 * odd_axis[:-1])
    assert np.array_equal(inverse._analysis[1][-1], odd_axis[-1])
    assert inverse._scale == grid.cell_volume * 2.0


def test_mirror_cell_rejects_an_asymmetric_field():
    values = np.ones((5, 6))
    assert fc._CellInverse.cell_of(values) is not None
    values[0, 2] = 1.0 + 2.0**-52
    assert fc._CellInverse.cell_of(values) is None


def test_cell_solve_has_one_home():
    # _CellInverse alone cuts out, solves on, weights and mirrors back the
    # fundamental cell: the transforms module knows nothing of it, and the
    # solver imports that one name
    assert [name for name in vars(sd)
            if name.startswith("_mirror") or name == "_CellTransforms"] == []
    imported = {alias.name for node in ast.walk(ast.parse(inspect.getsource(le)))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in imported
            if "cell" in name.lower() or "mirror" in name.lower()] == ["_CellInverse"]
    assert le._CellInverse is fc._CellInverse


def test_reduced_clamp_reports_full_grid_fraction(cell_solves, monkeypatch):
    # odd m on both axes: the middle planes count once, every other node twice
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis, grid = fl.build_basis(dom, (8, 8)), fl.build_grid(dom, (17, 17))
    exps = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.04), n=2, s=0.5)
    with pytest.warns(UserWarning, match="clamped"):
        _, report = fl.solve_ground_state(exps, basis, grid)
    assert cell_solves == [grid.shape]
    with pytest.warns(UserWarning, match="clamped"):
        _, full_report = full_path_solve(monkeypatch, exps, basis, grid)
    assert 1e-8 < full_report.clamped_fraction_max < 1e-4
    assert report.clamped_fraction_max == pytest.approx(full_report.clamped_fraction_max,
                                                        rel=1e-12)
    assert report.iterations == full_report.iterations


@pytest.mark.filterwarnings("ignore:clamped")
def test_asymmetric_init_takes_full_path(cell_solves):
    # a random start, as in the small-instance oracle's restarts
    dom, basis, grid = small_setup(K=8, m=16)
    exps = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.05), n=2, s=0.5)
    init = np.random.default_rng(777).random(grid.shape) + 0.1
    pair, report = fl.solve_ground_state(exps, basis, grid, init=fl.GridFunction(grid, init))
    assert cell_solves == [] and report.node_set == "full"
    u, v, history, iterations = plain_fixed_point(exps, basis, grid, init=init)
    assert report.iterations == iterations
    np.testing.assert_allclose(report.theta_history, history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pair.u.values, u, rtol=0, atol=1e-12 * np.max(u))
    np.testing.assert_allclose(pair.v.values, v, rtol=0, atol=1e-12 * np.max(v))


POST_SOLVE_CASES = ["2d-square-even", "2d-rectangle-odd", "3d-cube-even", "3d-box-odd"]


@pytest.mark.parametrize("case", POST_SOLVE_CASES)
def test_post_solve_is_bitwise_the_full_grid_post_solve(case, monkeypatch):
    # the scaling, final v and residual check run on the loop's cell, and the
    # energy reads the analyses it shares with the caller; each output is bit
    # for bit what the same steps give on the full grid
    lengths, s, p, eps, cutoff, shape = REDUCED_CASES[case]
    dom = fl.BoxDomain(lengths, s)
    basis, grid = fl.build_basis(dom, cutoff), fl.build_grid(dom, shape)
    exps = fl.ExponentPair(p=p, q=fl.solve_q_epsilon(p, dom.dim, s, eps), n=dom.dim, s=s)
    loops = []
    monkeypatch.setattr(le, "_iterate", recording_iterate(loops))
    pair, report = fl.solve_ground_state(exps, basis, grid)
    (cell, theta), = loops
    assert cell.shape == tuple((m + 1) // 2 for m in shape)
    want = full_grid_post_solve(mirrored(cell, shape), theta, exps, basis, grid)
    for name in ("u", "v", "w"):
        assert np.array_equal(getattr(pair, name).values, want[name]), name
    for name in ("residual_w", "energy", "sobolev_quotient"):
        assert getattr(report, name) == want[name], name
    a, b = report.coefficients
    assert np.array_equal(a.coefficients, fl.analyze(pair.u, basis).coefficients)
    assert np.array_equal(b.coefficients, fl.analyze(pair.v, basis).coefficients)


@pytest.mark.filterwarnings("ignore:clamped")
def test_full_path_post_solve_is_the_full_grid_post_solve(monkeypatch):
    dom, basis, grid = small_setup(K=8, m=16)
    exps = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.05), n=2, s=0.5)
    init = np.random.default_rng(777).random(grid.shape) + 0.1
    loops = []
    monkeypatch.setattr(le, "_iterate", recording_iterate(loops))
    pair, report = fl.solve_ground_state(exps, basis, grid, init=fl.GridFunction(grid, init))
    (w, theta), = loops
    assert w.shape == grid.shape
    want = full_grid_post_solve(w, theta, exps, basis, grid)
    for name in ("u", "v", "w"):
        assert np.array_equal(getattr(pair, name).values, want[name]), name
    for name in ("residual_w", "energy", "sobolev_quotient"):
        assert getattr(report, name) == want[name], name


@pytest.mark.filterwarnings("ignore:clamped")
@pytest.mark.parametrize("case", [*POST_SOLVE_CASES, "full"])
def test_solution_fields_rebuild_u_and_v_bitwise_from_w(case):
    # from w alone, on the node set its solve ran on; "full" starts asymmetric
    if case == "full":
        dom, basis, grid = small_setup(K=8, m=16)
        p, eps = 2.5, 0.05
        init = fl.GridFunction(grid, np.random.default_rng(777).random(grid.shape) + 0.1)
    else:
        lengths, s, p, eps, cutoff, shape = REDUCED_CASES[case]
        dom = fl.BoxDomain(lengths, s)
        basis, grid, init = fl.build_basis(dom, cutoff), fl.build_grid(dom, shape), None
    exps = fl.ExponentPair(p=p, q=fl.solve_q_epsilon(p, dom.dim, dom.s, eps), n=dom.dim, s=dom.s)
    pair, report = fl.solve_ground_state(exps, basis, grid, init=init)
    assert report.node_set == ("full" if case == "full" else "cell")
    u, v = le.solution_fields(pair.w, exps, basis)
    assert np.array_equal(u.values, pair.u.values) and np.array_equal(v.values, pair.v.values)


def test_post_solve_sums_take_one_full_grid_temporary(solved):
    # each power goes into one work array, in place; the allowance covers
    # the finiteness mask of a power (an eighth of a field) and the
    # coefficient-sized products of the bilinear term
    _, basis, grid, exps, pair, report = solved
    field = pair.u.values.nbytes
    energy, peak = traced_peak(fl.energy, pair, basis, report.coefficients)
    assert energy == report.energy and peak <= field + field // 8 + 2 * 16 * 16 * 8 + 4096
    quotient, peak = traced_peak(fl.sobolev_quotient, pair)
    assert quotient == report.sobolev_quotient and peak <= field + field // 8 + 4096


@pytest.mark.filterwarnings("ignore:clamped")
def test_symmetric_solve_makes_no_full_grid_inverse(monkeypatch):
    # the loop and the post-processing both run on the cell
    calls = []
    full_inverse = fc.apply_inverse

    def counting(f, basis):
        calls.append(f.grid.shape)
        return full_inverse(f, basis)

    monkeypatch.setattr(le, "apply_inverse", counting)
    monkeypatch.setattr(fc, "apply_inverse", counting)
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis, grid = fl.build_basis(dom, (8, 8)), fl.build_grid(dom, (17, 17))
    exps = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.04), n=2, s=0.5)
    fl.solve_ground_state(exps, basis, grid)
    assert calls == []
    # an asymmetric start takes the full path, every inverse on the full grid
    dom, basis, grid = small_setup(K=8, m=16)
    exps = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.05), n=2, s=0.5)
    init = np.random.default_rng(777).random(grid.shape) + 0.1
    fl.solve_ground_state(exps, basis, grid, init=fl.GridFunction(grid, init))
    assert calls and set(calls) == {grid.shape}


@pytest.mark.parametrize("lengths, cutoff, shape", [
    ((1.0, 1.0), (64, 64), (128, 128)),
    ((1.0, 1.6), (30, 45), (61, 91)),
    ((1.0, 1.3, 0.8), (12, 14, 10), (25, 29, 21)),
])
def test_cell_inverse_allocates_no_cell_sized_array(lengths, cutoff, shape):
    dom = fl.BoxDomain(lengths, 0.5)
    basis, grid = fl.build_basis(dom, cutoff), fl.build_grid(dom, shape)
    cell = fc._CellInverse.cell_of(mirror_symmetric(grid, seed=1))
    inverse = fc._CellInverse(basis, grid)
    out = np.empty_like(cell)
    inverse(cell, out)
    _, peak = traced_peak(inverse, cell, out)
    # every work array is the operator's own; a call allocates views only
    assert peak < cell.nbytes // 8, (peak, cell.nbytes)


@pytest.mark.parametrize("shape", [(41,), (128, 128), (25, 36), (17, 21, 13), (16, 16, 16)])
def test_extend_allocates_one_full_grid_array(shape):
    dom = fl.BoxDomain((1.0,) * len(shape), 0.25)
    grid = fl.build_grid(dom, shape)
    basis = fl.build_basis(dom, tuple(m // 2 for m in shape))
    values = mirror_symmetric(grid, seed=2)
    inverse = fc._CellInverse(basis, grid)
    cell = fc._CellInverse.cell_of(values)
    full, peak = traced_peak(inverse.extend, cell)
    assert np.array_equal(full, values)
    assert values.nbytes <= peak <= values.nbytes + 4096, (peak, values.nbytes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weighted_sum_with_scalar_power_of_two_is_bitwise(n):
    # an all-even grid's cell weights its nodes by the scalar 2^n, not an
    # array; scaling the sum by it is exact, so both give the same bits
    shape = (37, 23, 11)[:n]
    rng = np.random.default_rng(n)
    a, b = rng.random(shape), rng.random(shape) ** 3
    work = np.empty(shape)
    weight = 2.0**n
    scalar = le._weighted_sum(a, b, weight, work)
    assert scalar == le._weighted_sum(a, b, np.full(shape, weight), work)
    # any summation order of nonnegative terms lies within size * 2^-52 of
    # the correctly rounded sum
    exact = math.fsum((a * b * weight).ravel())
    assert abs(scalar - exact) <= a.size * 2.0**-52 * exact


def solver_case(shape):
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, tuple(m // 2 for m in shape))
    exps = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.5, 0.05), n=2, s=0.5)
    return exps, basis, fl.build_grid(dom, shape)


def poisoned(inverse, poison_call, bad, returned):
    """`inverse`, a node set's call, with `bad` written at one node of the
    result of its call number `poison_call`; `returned` counts the calls
    that returned."""
    def call(*args):
        result = inverse(*args)
        returned.append(None)
        if len(returned) == poison_call:
            result.flat[result.size // 2] = bad
        return result

    return call


@pytest.mark.filterwarnings("ignore:clamped")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("poison_call", [1, 2, 5, 6])  # inner, outer of iterations 1 and 3
@pytest.mark.parametrize("path", ["cell-even", "cell-odd", "full"])
def test_loop_refuses_non_finite_values(path, poison_call, bad, monkeypatch):
    exps, basis, grid = solver_case((17, 17) if path == "cell-odd" else (16, 16))
    returned = []
    init = None
    if path == "full":
        init = fl.GridFunction(grid, np.random.default_rng(777).random(grid.shape) + 0.1)
        monkeypatch.setattr(le._GridInverse, "__call__",
                            poisoned(le._GridInverse.__call__, poison_call, bad, returned))
    else:
        monkeypatch.setattr(le._CellInverse, "__call__",
                            poisoned(le._CellInverse.__call__, poison_call, bad, returned))
    with pytest.raises(ValueError, match="non-finite"):
        fl.solve_ground_state(exps, basis, grid, init=init)
    # the loop stops in the iteration it was poisoned in: a bad inner inverse
    # reaches at most the outer one, a bad outer inverse nothing more
    assert poison_call <= len(returned) <= poison_call + poison_call % 2


@pytest.mark.parametrize("max_iter", [1, 2])
def test_non_convergence_message_gives_the_last_residual(max_iter):
    # the residual is formed lazily; the last allowed iteration forms it anyway
    exps, basis, grid = solver_case((16, 16))
    with pytest.raises(fl.ConvergenceError, match=f"no convergence in {max_iter} iter") as info:
        fl.solve_ground_state(exps, basis, grid, max_iter=max_iter)
    residual = float(re.search(r"last residual ([^)]+)\)", str(info.value)).group(1))
    assert math.isfinite(residual) and residual > 0
    assert len(info.value.diagnostics["theta_history"]) == max_iter


@pytest.mark.filterwarnings("ignore:clamped")
def test_clamp_budget_message_names_the_resolution():
    # a cold sub-Serrin solve rings beyond the clamp budget at 64^2 and fits
    # inside it at 128^2; the refusal names the grid and cutoff it ran on
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    exps = fl.ExponentPair(p=1.5, q=fl.solve_q_epsilon(1.5, 2, 0.5, 0.04), n=2, s=0.5)
    with pytest.raises(fl.ConvergenceError,
                       match=r"^positivity lost beyond clamp budget 1\.0e-04: 1\.566e-04 of L1 "
                             r"mass clamped on the \(64, 64\) grid with cutoff \(32, 32\); "
                             r"a finer grid resolves under-resolution ringing$"):
        fl.solve_ground_state(exps, fl.build_basis(dom, (32, 32)), fl.build_grid(dom, (64, 64)))
    _, report = fl.solve_ground_state(exps, fl.build_basis(dom, (64, 64)),
                                      fl.build_grid(dom, (128, 128)))
    assert 0 < report.clamped_fraction_max < 1e-4


def test_fixed_point_loop_allocates_nothing_per_iteration():
    exps, basis, grid = solver_case((64, 64))
    page = 4096

    def stopped_solve(max_iter):
        # residual_tol = 1e-300 is a stopping rule the loop cannot meet
        with pytest.raises(fl.ConvergenceError):
            fl.solve_ground_state(exps, basis, grid, residual_tol=1e-300, max_iter=max_iter)

    stopped_solve(3)  # fills the basis's caches before any peak is read
    _, short = traced_peak(stopped_solve, 3)
    _, long = traced_peak(stopped_solve, 30)
    assert abs(long - short) <= page, (short, long)

    # the loop alone holds w^{1/q} and its four work arrays beside its start,
    # and nothing else cell-sized, not even for the length of one iteration
    w = le._first_eigenfunction(basis, grid)
    cell = fc._CellInverse.cell_of(w.values / fl.lp_norm(w, (exps.q + 1.0) / exps.q))
    inverse = fc._CellInverse(basis, grid)

    def stopped_loop(max_iter):
        start = cell.copy()
        with pytest.raises(fl.ConvergenceError):
            le._iterate(start, inverse, exps, grid.cell_volume, 1e-9, 1e-300, max_iter)

    for max_iter in (3, 30):
        _, peak = traced_peak(stopped_loop, max_iter)
        assert peak <= 6 * cell.nbytes + page, (max_iter, peak, cell.nbytes)
