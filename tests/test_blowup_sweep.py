"""Blow-up sweep machinery: peak refinement, rescaling, extrapolation,
boundary collar, and the rescaled-equation identity."""

import warnings

import numpy as np
import pytest
from oracles import eigen_modes, eigenvalues

import fraclane as fl
from fraclane import blowup_sweep as bs


def unit_square():
    return fl.BoxDomain((1.0, 1.0), 0.5)


@pytest.fixture(scope="module")
def mini_sweep():
    cfg = bs.SweepConfig(domain=unit_square(), p=2.5,
                         eps_schedule=(0.06, 0.05, 0.04),
                         cutoff=(24, 24), grid_shape=(48, 48))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return bs.run_sweep(cfg, keep_pairs=True)


def test_regime_classification():
    assert bs.serrin_exponent(2, 0.5) == pytest.approx(2.0)
    assert bs.classify_regime(2.5, 2, 0.5) == "super"
    assert bs.classify_regime(2.0, 2, 0.5) == "serrin"
    assert bs.classify_regime(1.5, 2, 0.5) == "sub"
    assert bs.classify_regime(1.0, 3, 0.5) == "sub"


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.04, 0.06),
                       cutoff=(8, 8), grid_shape=(16, 16))
    with pytest.raises(ValueError, match="q >= p"):
        bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.1,),
                       cutoff=(8, 8), grid_shape=(16, 16))
    # sub-Serrin comparisons need p >= 1 (s = 0.4 puts p = 0.9 inside the
    # hypothesis band but below 1)
    with pytest.raises(fl.RegimeError):
        bs.SweepConfig(domain=fl.BoxDomain((1.0, 1.0), 0.4), p=0.9,
                       eps_schedule=(0.05,), cutoff=(8, 8), grid_shape=(16, 16))


def test_sweep_config_checks_what_run_sweep_needs():
    # each of these passed the constructor and failed only inside run_sweep
    with pytest.raises(fl.ResolutionError, match="anti-aliasing"):
        bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.05,),
                       cutoff=(8, 8), grid_shape=(16, 12))
    with pytest.raises(ValueError, match="half the min side length"):
        bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.05,),
                       cutoff=(8, 8), grid_shape=(16, 16), collar_delta=0.5)
    # s = 0.7 puts p = 2 below 2s/(n-2s) = 7/3 with an admissible q_eps >= p
    with pytest.raises(ValueError, match=r"p > 2s/\(n-2s\)"):
        bs.SweepConfig(domain=fl.BoxDomain((1.0, 1.0), 0.7), p=2.0,
                       eps_schedule=(0.1, 0.08), cutoff=(8, 8), grid_shape=(16, 16))


def test_find_max_phi11_example():
    dom = unit_square()
    basis = fl.build_basis(dom, (4, 4))
    grid = fl.build_grid(dom, (64, 64))
    coeff = np.zeros(basis.cutoff)
    coeff[0, 0] = 1.0
    phi = fl.synthesize(fl.SpectralField(basis, coeff), grid)
    lam, x_c = bs.find_max(phi, 0.5)
    assert np.allclose(x_c, (0.5, 0.5), atol=1e-6)
    # known max 2: lam = 2^{1/alpha} = 4 (quadratic fit recovers the sub-grid peak)
    assert lam == pytest.approx(4.0, rel=2e-5)
    lam1, _ = bs.find_max(phi, 1.0)
    assert lam1 == pytest.approx(2.0, rel=1e-5)


def test_find_max_paraboloid_subgrid_accuracy():
    dom = unit_square()
    grid = fl.build_grid(dom, (32, 32))
    h = grid.spacing[0]
    x0, y0 = 0.5 + 0.31 * h, 0.5 - 0.17 * h
    mesh = grid.meshgrid()
    vals = 3.0 - 4.0 * (mesh[0] - x0) ** 2 - 2.5 * (mesh[1] - y0) ** 2
    lam, x_c = bs.find_max(fl.GridFunction(grid, vals), 1.0)
    assert abs(x_c[0] - x0) < 1e-3 * h and abs(x_c[1] - y0) < 1e-3 * h
    assert lam == pytest.approx(3.0, abs=1e-12)


def test_find_max_boundary_warning():
    dom = unit_square()
    grid = fl.build_grid(dom, (16, 16))
    mesh = grid.meshgrid()
    vals = mesh[0] + 0.1 * mesh[1]
    with pytest.warns(UserWarning, match="outermost"):
        bs.find_max(fl.GridFunction(grid, vals), 1.0)


def test_rescale_identity_translation():
    cfg_dom = unit_square()
    basis = fl.build_basis(cfg_dom, (8, 8))
    grid = fl.build_grid(cfg_dom, (16, 16))
    q = fl.solve_q_epsilon(2.5, 2, 0.5, 0.05)
    exps = fl.ExponentPair(p=2.5, q=q, n=2, s=0.5)
    pair, _ = fl.solve_ground_state(exps, basis, grid)
    res = bs.rescale_solution(pair, 1.0, np.array([0.5, 0.5]))
    # lam = 1, center: pure translation, values unchanged
    assert np.max(np.abs(res.u.values - pair.u.values)) < 1e-14
    assert res.u.lo == (-0.5, -0.5) and res.u.hi == (0.5, 0.5)


def test_rescale_peak_and_wtilde(mini_sweep):
    res = mini_sweep
    rs = res.rescaled
    assert rs.peak_u == pytest.approx(1.0, abs=1e-6)
    assert np.max(rs.u.values) <= 1.0 + 1e-12
    assert np.max(np.abs(rs.w.values - rs.u.values**rs.q)) < 1e-12
    # rescaled L^{p+1} norm of v stays below the original-field bound
    # (uniform-boundedness relation of the rescaling)
    p = res.config.p
    lhs = rs.v.lp_norm(p + 1.0)
    rhs = fl.lp_norm(res.final_pair.v, p + 1.0)
    assert lhs <= rhs + 1e-12


def test_sweep_monotonicity(mini_sweep):
    res = mini_sweep
    assert all(r.failed is None for r in res.rows)
    lams = [r.lam for r in res.rows]
    assert all(b > a for a, b in zip(lams[:-1], lams[1:], strict=True))
    assert res.diagnostics["lam_dist_increasing"]
    # symmetric domain: x_eps at the center, dist = 1/2, lam_dist = lam/2
    for r in res.rows:
        assert np.allclose(r.x_c, (0.5, 0.5), atol=1e-9)
        assert r.lam_dist == pytest.approx(r.lam / 2.0, rel=1e-12)
    assert all(r.clamped_fraction < 1e-4 for r in res.rows)


def test_sweep_constants_and_devs(mini_sweep):
    res = mini_sweep
    for r in res.rows:
        assert r.constants.c1 > 0 and r.constants.c2 > 0
        assert r.constants.c4 == pytest.approx(r.constants.c1 ** res.config.p, rel=1e-12)
        assert r.max_green_dev is not None and r.max_green_dev < 0.5
        for pd in r.green_devs:
            assert pd.dev_u is None or pd.dev_u >= 0


def test_extrapolation_linear_model_exact():
    eps = [0.06, 0.04, 0.02]
    s0, c = 1.9, 3.7
    s_vals = [s0 + c * e for e in eps]
    theta = [1.0 / v for v in s_vals]
    ex = bs.extrapolate_S(eps, s_vals, theta, energy_min=0.5 * s0**2 * 1.0,
                          p=2.5, n=2, s=0.5, volume=1.0)
    assert ex.s_hat == pytest.approx(s0, rel=1e-12)
    assert ex.slope == pytest.approx(c, rel=1e-12)
    assert ex.bound_ok
    with pytest.raises(ValueError):
        bs.extrapolate_S(eps[:2], s_vals[:2], theta[:2], 1.0, 2.5, 2, 0.5, 1.0)


def test_collar_bound(mini_sweep):
    res = mini_sweep
    pair = res.final_pair
    col = bs.boundary_bound_check(pair, 0.1)
    total = pair.u.values + pair.v.values
    assert col.value <= float(np.max(total))
    assert col.hypothesis_ok and col.eta_margin > 0
    wider = bs.boundary_bound_check(pair, 0.2)
    assert wider.value >= col.value  # collar sup monotone in delta
    with pytest.raises(ValueError):
        bs.boundary_bound_check(pair, 0.6)


def test_collar_bounded_across_schedule(mini_sweep):
    res = mini_sweep
    sups = [r.boundary_sup for r in res.rows]
    # no growth with lam (the qualitative uniform-boundedness claim): consecutive
    # variation < 2x and no systematic increase, while the peak grows
    for a, b in zip(sups[:-1], sups[1:], strict=True):
        assert max(a / b, b / a) < 2.0
    assert sups[-1] <= sups[0] * 1.05
    lams = [r.lam for r in res.rows]
    assert lams[-1] > lams[0]


def test_sweep_result_carries_decay_report(mini_sweep):
    res = mini_sweep
    rs = res.rescaled
    win = bs.decay_window(rs.lam, res.config.domain, res.config.grid_shape)
    assert res.decay["window"] == list(win)
    assert res.decay["v_slope"]["value"] == fl.decay_fit(rs.v, win).slope
    # super regime: a power-law u fit and no Serrin log integral
    assert res.decay["u_slope"] == {"value": fl.decay_fit(rs.u, win).slope, "kind": "power"}
    assert "serrin_log_integral" not in res.decay


def test_comparison_points_geometry():
    cfg = bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.05,),
                         cutoff=(8, 8), grid_shape=(16, 16))
    pts = cfg.comparison_points()
    assert pts.shape == (8, 2)
    radii = np.linalg.norm(pts - 0.5, axis=1)
    assert np.allclose(radii, 0.3, atol=1e-12)
    for pt in pts:
        assert cfg.domain.contains(pt, margin=0.1)


def test_rescaled_equation_identity(mini_sweep):
    # w-tilde^{1/q} = inv_eps((inv_eps w-tilde)^p) with the rescaled kernel,
    # checked by dense quadrature on a coarse oracle grid; the kernel matrix is
    # spot-verified against the rescaled_green operation
    res = mini_sweep
    pair = res.final_pair
    row = res.rows[-1]
    lam, x_c = row.lam, np.asarray(row.x_c)
    exps = pair.exponents
    dom = pair.u.grid.domain
    basis = fl.build_basis(dom, (24, 24))

    coarse = fl.build_grid(dom, (48, 48))
    nodes = coarse.points()
    xi = lam * (nodes - x_c)  # rescaled nodes
    w_t = (lam ** -res.rescaled.alpha * pair.u.values.reshape(-1)) ** exps.q
    cell_eps = coarse.cell_volume * lam**2

    # kernel matrix on original nodes gives G_eps via the exact rescaling law
    phi = np.stack([eigen_modes(basis, pt).ravel() for pt in nodes], axis=0)
    G = (phi * eigenvalues(basis).ravel() ** -exps.s) @ phi.T
    G_eps = lam ** -(2 - 2 * exps.s) * G

    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(60):
        i, j = rng.integers(0, len(nodes), size=2)
        if np.linalg.norm(nodes[i] - nodes[j]) < 3 * fl.resolvability_threshold(basis):
            continue
        val = fl.rescaled_green(xi[i], xi[j], lam, x_c, basis)
        assert val == pytest.approx(G_eps[i, j], rel=1e-10)
        checked += 1
    assert checked > 20

    inner = np.maximum(G_eps @ w_t * cell_eps, 0.0)
    outer = G_eps @ inner**exps.p * cell_eps
    lhs = w_t ** (1.0 / exps.q)
    rel = np.max(np.abs(outer - lhs)) / np.max(lhs)
    assert rel < 5e-4  # interpolation + solver tolerance at this coarse scale


def test_identity_suite_inherited_per_row(mini_sweep):
    # every row's converged pair satisfies the algebraic identity suite
    res = mini_sweep
    dom = unit_square()
    basis = fl.build_basis(dom, (24, 24))
    for pair in res.pairs:
        gaps = fl.identity_report(pair, basis)
        assert all(g < 1e-6 for g in gaps.values()), gaps


def test_limit_system_residual_decreases_along_sweep(mini_sweep):
    # rescaled (u-tilde, v-tilde) plugged into the whole-space limit system:
    # sup residuals decrease as eps decreases
    from fraclane import hls_limit as hl

    res = mini_sweep
    q0 = fl.critical_q(res.config.p, 2, 0.5)
    resid_u, resid_v = [], []
    for row, pair in zip(res.rows, res.pairs, strict=True):
        rs = bs.rescale_solution(pair, row.lam, np.asarray(row.x_c))
        out = hl.limit_system_residual(rs.u, rs.v, res.config.p, q0, 2, 0.5)
        resid_u.append(out.residual_u)
        resid_v.append(out.residual_v)
    assert all(b < a for a, b in zip(resid_u[:-1], resid_u[1:], strict=True))
    assert all(b < a for a, b in zip(resid_v[:-1], resid_v[1:], strict=True))


def test_decay_table_predictions():
    # the decay-table regime lines as formulas: u-tilde hints carried by the
    # rescaled fields match -(n-2s), -(p(n-2s)-2s) by regime; v-tilde always
    # -(n-2s); the n=3, s=1/2, p=1 sub-Serrin line is -1
    n, s = 3, 0.5
    assert -(1.0 * (n - 2 * s) - 2 * s) == pytest.approx(-1.0)
    cube = fl.BoxDomain((1.0, 1.0, 1.0), s)
    basis = fl.build_basis(cube, (6, 6, 6))
    grid = fl.build_grid(cube, (12, 12, 12))
    q = fl.solve_q_epsilon(1.0, 3, 0.5, 0.15)
    exps = fl.ExponentPair(p=1.0, q=q, n=3, s=0.5)
    pair, _ = fl.solve_ground_state(exps, basis, grid)
    rs = bs.rescale_solution(pair, 2.0, np.full(3, 0.5))
    assert rs.u.decay_exponent_hint == pytest.approx(-1.0)
    assert rs.v.decay_exponent_hint == pytest.approx(-2.0)

    dom2 = unit_square()
    basis2 = fl.build_basis(dom2, (6, 6))
    grid2 = fl.build_grid(dom2, (12, 12))
    q2 = fl.solve_q_epsilon(2.5, 2, 0.5, 0.05)
    pair2, _ = fl.solve_ground_state(
        fl.ExponentPair(p=2.5, q=q2, n=2, s=0.5), basis2, grid2)
    rs2 = bs.rescale_solution(pair2, 2.0, np.full(2, 0.5))
    assert rs2.u.decay_exponent_hint == pytest.approx(-1.0)  # super regime


def test_green_limit_check_skips_unresolved_points(mini_sweep):
    # points inside the exclusion ball or below kernel resolvability are
    # skipped with a notice instead of producing bogus ratios
    res = mini_sweep
    row = res.rows[-1]
    pair = res.pairs[-1]
    basis = fl.build_basis(unit_square(), (24, 24))
    x0 = np.asarray(res.x0)
    pts = np.array([x0 + (0.01, 0.0), x0 + (0.3, 0.0)])
    kernels = bs.limit_kernels(x0, basis, pts, res.config.p, exclusion_radius=0.15)
    devs = bs.green_limit_check(pair, row.lam, basis, kernels, row.constants,
                                res.config.regime)
    assert devs[0].dev_u is None and "exclusion" in devs[0].note
    assert devs[1].dev_u is not None
    kernels = bs.limit_kernels(x0, basis, np.array([x0 + (0.02, 0.0)]), res.config.p)
    close = bs.green_limit_check(pair, row.lam, basis, kernels, row.constants,
                                 res.config.regime)
    assert close[0].dev_u is None and "kernel skipped" in close[0].note


def test_sub_regime_sweep_evaluates_each_kernel_once(monkeypatch):
    # x0 and the comparison points are fixed for the whole sweep, so each
    # compared point costs one g_tilde call however many rows the sweep has
    calls = []
    original = bs.g_tilde

    def counting(*args, **kwargs):
        calls.append(tuple(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(bs, "g_tilde", counting)
    cfg = bs.SweepConfig(domain=unit_square(), p=1.5, eps_schedule=(0.1, 0.08),
                         cutoff=(16, 16), grid_shape=(32, 32))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bs.run_sweep(cfg)
    compared = [pd.point for pd in res.rows[-1].green_devs if pd.dev_u is not None]
    assert len(res.rows) == 2 and compared
    assert sorted(calls) == sorted(compared)
    assert [pd.note for pd in res.rows[0].green_devs] == [pd.note for pd in res.rows[1].green_devs]


def test_measure_constants_change_of_variables(mini_sweep):
    # C1 via the limit normalization equals the rescaled-field integral up to
    # lam^{O(eps)}
    res = mini_sweep
    row = res.rows[-1]
    rs = res.rescaled
    # int over Omega_eps of u-tilde^q
    direct = rs.u.integral(values=rs.u.values**row.q)
    q0 = fl.critical_q(res.config.p, 2, 0.5)
    drift = row.lam ** (2 / (q0 + 1) - (2 - row.alpha * row.q))
    assert row.constants.c1 == pytest.approx(direct * drift, rel=1e-10)
    # the row's constants are measure_constants of its pair and scale alone
    assert bs.measure_constants(res.pairs[-1], row.lam) == row.constants
