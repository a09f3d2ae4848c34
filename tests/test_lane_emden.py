"""Exponent algebra, quotient, and ground-state solver tests."""

import ast
import inspect
import math

import numpy as np
import pytest

import fraclane as fl
from fraclane import fractional_calculus as fc
from fraclane import lane_emden as le
from fraclane import spectral_domain as sd
from oracles import eigenvalues, multistart_theta, plain_fixed_point


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


def test_theta_quotient_scale_invariance_and_phi1():
    dom, basis, grid = small_setup(K=8, m=16)
    exps = fl.ExponentPair(p=2.5, q=3.0, n=2, s=0.5)
    rng = np.random.default_rng(2)
    w = fl.GridFunction(grid, rng.random(grid.shape) + 0.2)
    base = fl.theta_quotient(w, exps, basis)
    for c in (0.003, 7.0, 1234.5):
        scaled = fl.theta_quotient(w.with_values(c * w.values), exps, basis)
        assert scaled == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError):
        fl.theta_quotient(w.with_values(np.zeros(grid.shape)), exps, basis)

    coeff = np.zeros(basis.cutoff)
    coeff[0, 0] = 1.0
    phi1 = fl.synthesize(fl.SpectralField(basis, coeff), grid)
    lam1 = eigenvalues(basis)[0, 0]
    expect = lam1 ** -exps.s * fl.lp_norm(phi1, exps.p + 1) / fl.lp_norm(phi1, (exps.q + 1) / exps.q)
    assert fl.theta_quotient(phi1, exps, basis) == pytest.approx(expect, rel=1e-12)


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
    monkeypatch.setattr(le, "_fixed_point", refuse_to_iterate)
    three_d = fl.ExponentPair(p=1.5, q=fl.solve_q_epsilon(1.5, 3, 0.5, 0.05), n=3, s=0.5)
    other_s = fl.ExponentPair(p=2.5, q=fl.solve_q_epsilon(2.5, 2, 0.6, 0.05), n=2, s=0.6)
    for exps in (three_d, other_s):
        with pytest.raises(ValueError, match=r"do not belong to the basis's box, \(n, s\) = \(2, 0.5\)"):
            fl.solve_ground_state(exps, basis, grid)


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
    monkeypatch.setattr(le, "_fixed_point", refuse_to_iterate)
    with pytest.raises(ValueError, match=match):
        fl.solve_ground_state(exps, basis, grid, **rule)
    with pytest.raises(ValueError, match=match):
        le.check_stopping_rule(**{"theta_tol": 1e-9, "residual_tol": 1e-7, "max_iter": 5, **rule})
    le.check_stopping_rule(theta_tol=1e-9, residual_tol=1e-7, max_iter=1)


def test_converged_solution_properties(solved):
    dom, basis, grid, exps, pair, report = solved
    assert report.converged and report.iterations >= 1
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
    gaps = fl.identity_report(pair, basis)
    for name, gap in gaps.items():
        assert gap < 1e-6, (name, gap)
    # S_Omega = 1/Theta at the maximizer (eq-a-74 algebra)
    assert report.sobolev_quotient == pytest.approx(1.0 / report.theta, rel=1e-9)
    assert report.mu == pytest.approx(report.theta ** (exps.p + 1), rel=1e-12)


def test_scaling_law_eq_w1_residual(solved):
    # direct substitution: w solves w^{1/q} = inv((inv w)^p) after the
    # t = Theta^{-q(p+1)/(pq-1)} rescale
    dom, basis, grid, exps, pair, report = solved
    inner = fl.apply_inverse(pair.w, exps.s, basis)
    inner, _ = fl.clamp_nonnegative(inner)
    outer = fl.apply_inverse(inner.with_values(inner.values**exps.p), exps.s, basis)
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
        assert fl.theta_quotient(trial, exps, basis) <= report.theta * (1 + 1e-9)


def test_p_equals_q_self_consistency():
    # symmetric system: u = inv((inv u^q)^q) must close on itself
    dom, basis, grid = small_setup(K=12, m=24)
    exps = fl.ExponentPair(p=2.5, q=2.5, n=2, s=0.5)
    pair, report = fl.solve_ground_state(exps, basis, grid)
    uq = pair.u.with_values(pair.u.values**exps.q)
    v = fl.apply_inverse(uq, exps.s, basis)
    v, _ = fl.clamp_nonnegative(v)
    assert np.max(np.abs(v.values - pair.v.values)) / pair.v.max() < 1e-7
    back = fl.apply_inverse(v.with_values(v.values**exps.p), exps.s, basis)
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
    gaps = fl.identity_report(pair, basis)
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
    gaps = fl.identity_report(pair, basis)
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
        def __init__(self, basis, grid, s):
            super().__init__(basis, grid, s)
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


@pytest.mark.parametrize("lengths, cutoff, shape", [
    ((1.0,), (20,), (41,)),
    ((1.0, 1.6), (12, 18), (25, 37)),
    ((1.0, 1.0), (64, 64), (128, 128)),
    ((1.0, 1.3, 0.8), (8, 10, 6), (17, 21, 13)),
    ((1.0, 1.0, 1.0), (12, 12, 12), (24, 24, 24)),
])
def test_cell_inverse_is_bitwise_the_cell_of_apply_inverse(lengths, cutoff, shape):
    dom = fl.BoxDomain(lengths, 0.4)
    basis, grid = fl.build_basis(dom, cutoff), fl.build_grid(dom, shape)
    values = mirror_symmetric(grid, seed=len(shape))
    cell = fc._CellInverse.cell_of(values)
    assert cell.shape == tuple((m + 1) // 2 for m in shape)
    out = np.empty_like(cell)
    inverse = fc._CellInverse(basis, grid, dom.s)
    assert inverse(cell, out) is out
    full = fl.apply_inverse(fl.GridFunction(grid, values), dom.s, basis).values
    assert np.array_equal(out, full[tuple(slice(c) for c in cell.shape)])
    assert np.array_equal(inverse.extend(out), full)
    # node multiplicities sum to the full grid's node count
    assert np.sum(inverse.weights) == math.prod(grid.shape)


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
    assert cell_solves == []
    u, v, history, iterations = plain_fixed_point(exps, basis, grid, init=init)
    assert report.iterations == iterations
    np.testing.assert_allclose(report.theta_history, history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pair.u.values, u, rtol=0, atol=1e-12 * np.max(u))
    np.testing.assert_allclose(pair.v.values, v, rtol=0, atol=1e-12 * np.max(v))
