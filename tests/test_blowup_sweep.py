"""Blow-up sweep machinery: peak refinement, rescaling, extrapolation,
boundary collar, and the rescaled-equation identity."""

import gc
import json
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (collar_sup_full_grid, eigen_modes, eigenvalues, full_grid_post_solve,
                     grid_meshgrid, grid_points, limit_system_residuals, mirrored, read_table,
                     recording_iterate, recording_solve, rescaled_green, traced_peak)

import fraclane as fl
from fraclane import blowup_sweep as bs
from fraclane import cli_io
from fraclane import hls_limit as hl
from fraclane import lane_emden as le


def unit_square():
    return fl.BoxDomain((1.0, 1.0), 0.5)


@pytest.fixture(scope="module")
def mini_run():
    # the sweep and the pair of each of its rows, recorded as each solve returns
    cfg = bs.SweepConfig(domain=unit_square(), p=2.5,
                         eps_schedule=(0.06, 0.05, 0.04),
                         cutoff=(24, 24), grid_shape=(48, 48))
    pairs = []
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(bs, "solve_ground_state", recording_solve(pairs))
        warnings.simplefilter("ignore")
        return bs.run_sweep(cfg), pairs


@pytest.fixture(scope="module")
def mini_sweep(mini_run):
    return mini_run[0]


@pytest.fixture(scope="module")
def mini_pairs(mini_run):
    return mini_run[1]


def test_regime_classification():
    assert fl.serrin_exponent(2, 0.5) == pytest.approx(2.0)
    assert fl.classify_regime(2.5, 2, 0.5) == "super"
    assert fl.classify_regime(2.0, 2, 0.5) == "serrin"
    assert fl.classify_regime(1.5, 2, 0.5) == "sub"
    assert fl.classify_regime(1.0, 3, 0.5) == "sub"


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
    # s = 0.7 puts p = 2 below 2s/(n-2s) = 7/3 with an admissible q_eps >= p
    with pytest.raises(ValueError, match=r"p > 2s/\(n-2s\)"):
        bs.SweepConfig(domain=fl.BoxDomain((1.0, 1.0), 0.7), p=2.0,
                       eps_schedule=(0.1, 0.08), cutoff=(8, 8), grid_shape=(16, 16))


def test_sweep_config_accepts_a_thin_box():
    # the collar is 0.1 of the shortest side, so it fits any box
    cfg = bs.SweepConfig(domain=fl.BoxDomain((1.0, 0.15), 0.5), p=2.5, eps_schedule=(0.05,),
                         cutoff=(8, 8), grid_shape=(16, 16))
    assert cfg.comparison_points().shape == (bs.N_COMPARISON, 2)


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
    mesh = grid_meshgrid(grid)
    vals = 3.0 - 4.0 * (mesh[0] - x0) ** 2 - 2.5 * (mesh[1] - y0) ** 2
    lam, x_c = bs.find_max(fl.GridFunction(grid, vals), 1.0)
    assert abs(x_c[0] - x0) < 1e-3 * h and abs(x_c[1] - y0) < 1e-3 * h
    assert lam == pytest.approx(3.0, abs=1e-12)


def test_find_max_boundary_warning():
    dom = unit_square()
    grid = fl.build_grid(dom, (16, 16))
    mesh = grid_meshgrid(grid)
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
    res = bs.rescale_solution(pair.u, pair.v, exps, 1.0, np.array([0.5, 0.5]))
    # lam = 1, center: pure translation, values unchanged
    assert np.max(np.abs(res.u.values - pair.u.values)) < 1e-14
    assert res.u.lo == (-0.5, -0.5) and res.u.hi == (0.5, 0.5)


def test_rescale_peak_and_wtilde(mini_sweep, mini_pairs):
    res = mini_sweep
    rs = res.rescaled
    # the quadratic peak fit on the rescaled nodes
    u = rs.u.values
    idx = np.unravel_index(int(np.argmax(u)), u.shape)
    peak, _ = bs._quadratic_peak(u, idx, [rs.u.coords(axis) for axis in range(rs.u.dim)])
    assert peak == pytest.approx(1.0, abs=1e-6)
    assert np.max(rs.u.values) <= 1.0 + 1e-12
    q = mini_pairs[-1].exponents.q
    assert np.max(np.abs(rs.w.values - rs.u.values**q)) < 1e-12
    # rescaled L^{p+1} norm of v stays below the original-field bound
    # (uniform-boundedness relation of the rescaling)
    p = res.config.p
    lhs = rs.v.lp_norm(p + 1.0)
    rhs = fl.lp_norm(mini_pairs[-1].v, p + 1.0)
    assert lhs <= rhs + 1e-12


def test_sweep_monotonicity(mini_sweep):
    res = mini_sweep
    assert res.failed is None
    lams = [r.lam for r in res.rows]
    assert all(b > a for a, b in zip(lams[:-1], lams[1:], strict=True))
    checks = {c.name: c for c in bs.sweep_checks(res)}
    assert checks["lambda_increasing"].passed and checks["lambda_dist_increasing"].passed
    # symmetric domain: x_eps at the center, dist = 1/2, lam_dist = lam/2
    for r in res.rows:
        assert np.allclose(r.x_c, (0.5, 0.5), atol=1e-9)
        assert r.lam_dist == pytest.approx(r.lam / 2.0, rel=1e-12)


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
                          p=2.5, domain=unit_square())
    assert ex.s_hat == pytest.approx(s0, rel=1e-12)
    assert min(ex.bound_margins) >= -bs.QUOTIENT_BOUND_SLACK
    with pytest.raises(ValueError):
        bs.extrapolate_S(eps[:2], s_vals[:2], theta[:2], 1.0, 2.5, unit_square())


def test_collar_bound(mini_pairs):
    pair = mini_pairs[-1]
    col = bs.boundary_bound_check(pair)
    total = pair.u.values + pair.v.values
    assert col <= float(np.max(total))
    # the collar is the nodes within COLLAR_FRAC of the shortest side (0.1 on
    # the unit square) of the boundary
    pts = grid_points(pair.u.grid)
    dist = np.minimum(pts, 1.0 - pts).min(axis=1)
    assert col == float(np.max(total.ravel()[dist < bs.COLLAR_FRAC]))


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
    # super regime: a power-law u fit, and no Serrin log integral among the
    # bands; the v band reports the slope's distance from -(n-2s) = -1
    v_slope = fl.decay_fit(rs.v, win).slope
    assert res.decay == {"window": list(win), "v_slope": v_slope,
                         "u_slope": {"value": fl.decay_fit(rs.u, win).slope, "kind": "power"}}
    slope, sandwich = res.decay_checks
    assert (slope.name, slope.value, slope.rule, slope.budget) == (
        "v_decay_slope", abs(v_slope + 1.0), "<=", 0.1)
    assert slope.passed == (abs(v_slope + 1.0) <= 0.1)
    band = fl.sharp_decay_check(rs.v, res.rows[-1].constants.c1, 0.25, win, 0.5)
    assert (sandwich.name, sandwich.value, sandwich.rule, sandwich.budget, sandwich.passed) == (
        "sharp_decay_sandwich", band.fraction_violating, "<=", 0.0, band.fraction_violating == 0.0)
    assert not slope.gating and not sandwich.gating
    assert bs.sweep_checks(res)[-2:] == res.decay_checks


def test_decay_report_without_a_fit_has_no_bands(mini_sweep, monkeypatch):
    res = mini_sweep

    def refuse(*args):
        raise ValueError("empty annulus for the sharp-decay check")

    monkeypatch.setattr(bs, "sharp_decay_check", refuse)
    assert bs.decay_report(res.rescaled, res.profiles, res.rows[-1].constants.c1, res.config) == (
        {"error": "empty annulus for the sharp-decay check"}, [])


def test_decay_report_at_the_serrin_exponent(mini_sweep):
    # the mini sweep's fields read at p = 2 = n/(n-2s): a log-corrected u fit
    # and the log integral as a third band, within 20% of C3
    res = mini_sweep
    cfg = bs.SweepConfig(domain=unit_square(), p=2.0, eps_schedule=(0.05,),
                         cutoff=res.config.cutoff, grid_shape=res.config.grid_shape)
    c1 = res.rows[-1].constants.c1
    decay, checks = bs.decay_report(res.rescaled, res.profiles, c1, cfg)
    assert decay["u_slope"]["kind"] == "log_coefficient"
    assert [c.name for c in checks] == ["v_decay_slope", "sharp_decay_sandwich",
                                        "serrin_log_integral"]
    si = fl.serrin_log_integral(res.rescaled.v, 2.0, res.rescaled.lam, c1, 0.5)
    log_integral = checks[-1]
    gap = abs(si.value - si.target) / si.target
    assert decay["log_integral"] == si.value
    assert (log_integral.value, log_integral.rule, log_integral.budget) == (gap, "<", 0.2)
    assert log_integral.passed == (gap < 0.2)
    assert si.target == hl.serrin_constant(c1, 2, 0.5)


def test_comparison_points_geometry():
    cfg = bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.05,),
                         cutoff=(8, 8), grid_shape=(16, 16))
    pts = cfg.comparison_points()
    assert pts.shape == (8, 2)
    radii = np.linalg.norm(pts - 0.5, axis=1)
    assert np.allclose(radii, 0.3, atol=1e-12)
    for pt in pts:
        assert cfg.domain.contains(pt, margin=0.1)


def test_rescaled_equation_identity(mini_sweep, mini_pairs):
    # w-tilde^{1/q} = inv_eps((inv_eps w-tilde)^p) with the rescaled kernel,
    # checked by dense quadrature on a coarse oracle grid; the kernel matrix is
    # spot-verified against the rescaled_green operation
    res = mini_sweep
    pair = mini_pairs[-1]
    row = res.rows[-1]
    lam, x_c = row.lam, np.asarray(row.x_c)
    exps = pair.exponents
    dom = pair.u.grid.domain
    basis = fl.build_basis(dom, (24, 24))

    coarse = fl.build_grid(dom, (48, 48))
    nodes = grid_points(coarse)
    xi = lam * (nodes - x_c)  # rescaled nodes
    alpha, _ = fl.alpha_beta(exps.p, exps.q, exps.s)
    w_t = (lam ** -alpha * pair.u.values.reshape(-1)) ** exps.q
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
        val = rescaled_green(xi[i], xi[j], lam, x_c, basis)
        assert val == pytest.approx(G_eps[i, j], rel=1e-10)
        checked += 1
    assert checked > 20

    inner = np.maximum(G_eps @ w_t * cell_eps, 0.0)
    outer = G_eps @ inner**exps.p * cell_eps
    lhs = w_t ** (1.0 / exps.q)
    rel = np.max(np.abs(outer - lhs)) / np.max(lhs)
    assert rel < 5e-4  # interpolation + solver tolerance at this coarse scale


def test_identity_suite_inherited_per_row(mini_sweep, mini_pairs):
    # every row's converged pair satisfies the algebraic identity suite
    dom = unit_square()
    basis = fl.build_basis(dom, (24, 24))
    assert len(mini_pairs) == len(mini_sweep.rows)
    for pair, row in zip(mini_pairs, mini_sweep.rows, strict=True):
        gaps = fl.identity_report(pair, basis, row.energy)
        assert all(g < 1e-6 for g in gaps.values()), gaps


def test_limit_system_residual_decreases_along_sweep(mini_sweep, mini_pairs):
    # rescaled (u-tilde, v-tilde) plugged into the whole-space limit system:
    # sup residuals decrease as eps decreases
    res = mini_sweep
    q0 = fl.critical_q(res.config.p, 2, 0.5)
    resid_u, resid_v = [], []
    for row, pair in zip(res.rows, mini_pairs, strict=True):
        rs = bs.rescale_solution(pair.u, pair.v, pair.exponents, row.lam, row.x_c)
        out = limit_system_residuals(rs.u, rs.v, res.config.p, q0, 0.5)
        resid_u.append(out[0])
        resid_v.append(out[1])
    assert all(b < a for a, b in zip(resid_u[:-1], resid_u[1:], strict=True))
    assert all(b < a for a, b in zip(resid_v[:-1], resid_v[1:], strict=True))


def test_green_limit_check_skips_unresolved_points(mini_sweep, mini_pairs):
    # points inside the exclusion ball or below kernel resolvability are
    # skipped with a notice instead of producing bogus ratios
    res = mini_sweep
    row = res.rows[-1]
    pair = mini_pairs[-1]
    basis = fl.build_basis(unit_square(), (24, 24))
    x0 = np.asarray(res.x0)
    pts = np.array([x0 + (0.01, 0.0), x0 + (0.3, 0.0)])
    def samples(pts):
        return [fl.synthesize_at(fl.analyze(f, basis), pts) for f in (pair.u, pair.v)]

    kernels = bs.limit_kernels(x0, basis, pts, res.config.p)
    devs = bs.green_limit_check(*samples(pts), row.lam, kernels, row.constants, res.config)
    assert devs[0].dev_u is None and "exclusion" in devs[0].note
    assert devs[1].dev_u is not None
    pts = np.array([x0 + (0.5, 0.0)])  # outside the ball, on the boundary
    kernels = bs.limit_kernels(x0, basis, pts, res.config.p)
    edge = bs.green_limit_check(*samples(pts), row.lam, kernels, row.constants, res.config)
    assert edge[0].dev_u is None and "kernel skipped" in edge[0].note


def test_limit_kernels_notes_each_refusal(monkeypatch):
    # a skipped point's note is the refusal of g_tilde on that point alone;
    # the compared points take one g_tilde call. Every refused point lies
    # outside the exclusion ball of radius 0.15 of the unit side.
    dom = unit_square()
    basis = fl.build_basis(dom, (8, 8))
    coords = fl.build_grid(dom, (16, 16)).coords[0]  # g_tilde's grid: h = 1/16
    h = 1.0 / 16.0
    x0 = np.full(2, coords[7] - 0.49 * h)
    pts = np.array([
        x0 + 0.05,  # 0.071 away: inside the exclusion ball
        x0 + (0.16, 0.0),  # below the resolvable spacing sqrt(2)/8 = 0.177
        x0 + (0.2, 0.0),  # resolvable, but closer than 4 cells (0.25)
        np.full(2, coords[9] + 0.49 * h),  # 0.263 away, nearest nodes 2 apart
        x0 + (0.3, 0.0),
        x0 + (0.0, -0.3),
    ])
    calls = []
    original = bs.g_tilde

    def counting(*args, **kwargs):
        calls.append(np.array(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(bs, "g_tilde", counting)
    kernels = bs.limit_kernels(x0, basis, pts, 1.5)
    assert kernels.notes[0] == "inside exclusion ball"
    for i, phrase in ((1, "below resolvable spacing"), (2, "g_tilde needs separation"),
                      (3, "singular patches of x and y overlap")):
        with pytest.raises(fl.UnresolvedSingularityError, match=phrase) as refusal:
            original(pts[i], x0, 1.5, basis)
        assert kernels.notes[i] == f"kernel skipped: {refusal.value}"
    assert kernels.notes[4:] == ["", ""]
    assert len(calls) == 1 and np.array_equal(calls[0], pts[4:])
    for i in (4, 5):
        assert kernels.target[i] == original(pts[i], x0, 1.5, basis).value
    assert np.array_equal(kernels.green[4:], fl.green(pts[4:], x0, basis).value)
    assert np.all(np.isnan(kernels.target[:4])) and np.all(np.isnan(kernels.green[:4]))


def test_sub_regime_sweep_evaluates_each_kernel_once(monkeypatch):
    # x0 and the comparison points are fixed for the whole sweep, so one
    # g_tilde call takes every compared point, however many rows the sweep has
    calls = []
    original = bs.g_tilde

    def counting(*args, **kwargs):
        calls.append([tuple(pt) for pt in args[0]])
        return original(*args, **kwargs)

    monkeypatch.setattr(bs, "g_tilde", counting)
    cfg = bs.SweepConfig(domain=unit_square(), p=1.5, eps_schedule=(0.1, 0.08),
                         cutoff=(16, 16), grid_shape=(32, 32))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bs.run_sweep(cfg)
    compared = [pd.point for pd in res.rows[-1].green_devs if pd.dev_u is not None]
    assert len(res.rows) == 2 and compared
    assert calls == [compared]
    assert [pd.note for pd in res.rows[0].green_devs] == [pd.note for pd in res.rows[1].green_devs]


def test_measure_constants_change_of_variables(mini_sweep, mini_pairs):
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
    assert bs.measure_constants(mini_pairs[-1], row.lam) == row.constants


def failing_solve(monkeypatch, row, message):
    """Make the sweep's solve of the given row (1-based) raise ConvergenceError."""
    original = bs.solve_ground_state
    calls = []

    def solve(*args, **kwargs):
        calls.append(None)
        if len(calls) == row:
            raise fl.ConvergenceError(message)
        return original(*args, **kwargs)

    monkeypatch.setattr(bs, "solve_ground_state", solve)


def small_sweep_config(eps_schedule=(0.06, 0.05, 0.04)):
    return bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=eps_schedule,
                          cutoff=(16, 16), grid_shape=(32, 32))


def test_sweep_warns_each_final_v_clamp_once(monkeypatch):
    # the last row's v clamps above the warn level; the sweep rebuilds that
    # row's u and v from w with bitwise the solve's clamp, which warns nothing
    # more: every "final v" warning comes from inside a solve
    original = bs.solve_ground_state
    solves = []

    def solve(*args, **kwargs):
        start = len(caught)
        result = original(*args, **kwargs)
        solves.append(range(start, len(caught)))
        return result

    monkeypatch.setattr(bs, "solve_ground_state", solve)
    cfg = bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.06, 0.04),
                         cutoff=(12, 12), grid_shape=(24, 24))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bs.run_sweep(cfg)
    final_v = [i for i, w in enumerate(caught) if "(final v)" in str(w.message)]
    assert final_v and final_v[-1] in solves[-1]
    assert all(any(i in span for span in solves) for i in final_v)


def test_sweep_failure_ends_the_sweep_and_is_recorded_once(monkeypatch):
    failing_solve(monkeypatch, 3, "no convergence at the third row")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bs.run_sweep(small_sweep_config())
    assert [r.eps for r in res.rows] == [0.06, 0.05]
    assert res.failed == "no convergence at the third row"
    assert res.extrapolation is None
    # the rows before the failure are complete, and x0 is the last of them
    assert all(r.max_green_dev is not None for r in res.rows)
    assert res.x0 == res.rows[-1].x_c and res.rescaled.lam == res.rows[-1].lam


def test_cli_sweep_records_a_failed_row_once(tmp_path, monkeypatch):
    failing_solve(monkeypatch, 3, "no convergence at the third row")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("command = sweep\neps_schedule = 0.06,0.05,0.04\ncutoff = 16,16\ngrid = 32,32\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_io.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_table(out / "sweep.csv")
    assert [r[0] for r in rows] == [0.06, 0.05]
    report = json.loads((out / "sweep_report.json").read_text())
    assert report["rows_failed"] == ["no convergence at the third row"]
    assert report["s_hat"] is None


def test_sweep_fault_in_a_solve_propagates(monkeypatch):
    # only a failed solve ends the sweep with a message; a fault is raised
    def broken(*args, **kwargs):
        raise TypeError("not a convergence failure")

    monkeypatch.setattr(bs, "solve_ground_state", broken)
    with pytest.raises(TypeError, match="not a convergence failure"):
        bs.run_sweep(small_sweep_config())


def test_sweep_failure_at_the_first_row_raises(monkeypatch):
    failing_solve(monkeypatch, 1, "no convergence at the first row")
    with pytest.raises(RuntimeError, match="sweep failed at the first row: no convergence"):
        bs.run_sweep(small_sweep_config())


@pytest.mark.parametrize("fail_at", [None, 3])
def test_sweep_holds_one_row_of_fields(fail_at, monkeypatch):
    # between solves a sweep holds one row's fields: when row k's solve starts,
    # row k - 1's w alone, and through the Green comparison the last row's w
    # alone, whether the schedule finished or a solve failed. The u and v it
    # rescales are rebuilt from that w, which goes first, so at the rescale
    # no pair's field is alive
    original = bs.solve_ground_state
    rows = []  # per solved row: weak references to its u, v and w

    def alive(k):
        return [name for name, ref in zip("uvw", rows[k], strict=True) if ref() is not None]

    def tracking(*args, **kwargs):
        gc.collect()
        for k in range(len(rows)):
            held = ["w"] if k == len(rows) - 1 else []
            assert alive(k) == held, f"row {k} holds {alive(k)} at the solve of row {len(rows)}"
        if len(rows) + 1 == fail_at:
            raise fl.ConvergenceError("no convergence at the third row")
        pair, report = original(*args, **kwargs)
        rows.append([weakref.ref(f) for f in (pair.u, pair.v, pair.w)])
        return pair, report

    original_kernels = bs.limit_kernels

    def comparing(*args, **kwargs):
        gc.collect()
        for k in range(len(rows)):
            held = ["w"] if k == len(rows) - 1 else []
            assert alive(k) == held, f"row {k} holds {alive(k)} at the limit kernels"
        return original_kernels(*args, **kwargs)

    original_rescale = bs.rescale_solution

    def rescaling(*args, **kwargs):
        gc.collect()
        for k in range(len(rows)):
            assert alive(k) == [], f"row {k} holds {alive(k)} at the rescale"
        return original_rescale(*args, **kwargs)

    monkeypatch.setattr(bs, "solve_ground_state", tracking)
    monkeypatch.setattr(bs, "limit_kernels", comparing)
    monkeypatch.setattr(bs, "rescale_solution", rescaling)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bs.run_sweep(small_sweep_config((0.06, 0.055, 0.05, 0.045)))
    assert res.failed == (None if fail_at is None else "no convergence at the third row")
    assert len(rows) == len(res.rows) == (4 if fail_at is None else 2)
    # and the result holds none of them: not even the last row's fields outlive the sweep
    gc.collect()
    assert all(ref() is None for refs in rows for ref in refs)


def test_failed_sweep_rescales_the_last_good_row_bit_for_bit(monkeypatch):
    # the u and v rebuilt from the last good row's w are that row's own, as
    # they are for the last row of a finished sweep
    for fail_at, solved in ((3, 2), (None, 3)):
        pairs = []
        with monkeypatch.context() as mp, warnings.catch_warnings():
            mp.setattr(bs, "solve_ground_state", recording_solve(pairs))
            if fail_at is not None:
                failing_solve(mp, fail_at, "no convergence at the third row")
            warnings.simplefilter("ignore")
            res = bs.run_sweep(small_sweep_config())
        assert len(pairs) == len(res.rows) == solved
        pair, row = pairs[-1], res.rows[-1]
        want = bs.rescale_solution(pair.u, pair.v, pair.exponents, row.lam, row.x_c)
        for name in ("u", "v", "w"):
            assert np.array_equal(getattr(res.rescaled, name).values,
                                  getattr(want, name).values), (fail_at, name)


def test_warm_sweep_peaks_at_one_row_of_fields():
    # a warm sweep's traced peak, in full-grid fields: one row's u, v and w,
    # the warm start, one temporary of the post-solve sums and the solver's
    # tables; holding two rows' fields, as an earlier sweep did, reads 10.1
    cfg = bs.SweepConfig(domain=unit_square(), p=2.5, eps_schedule=(0.06, 0.05, 0.04),
                         cutoff=(64, 64), grid_shape=(128, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bs.run_sweep(cfg)  # builds the cached sine tables
        _, peak = traced_peak(bs.run_sweep, cfg)
    assert peak <= 6.5 * 128 * 128 * 8


@pytest.mark.parametrize("lengths, shape", [
    ((1.0, 1.0), (48, 48)), ((1.0, 1.2), (25, 29)), ((0.2, 1.0), (5, 40)),
    ((1.0, 1.1, 0.9), (17, 19, 15)), ((1.0,), (9,)), ((1.0, 3.0), (3, 60)),
])
def test_collar_sup_is_bitwise_the_full_grid_collar(lengths, shape):
    # the sup over the boundary slabs is the sup over the full-grid distance map's collar
    grid = fl.build_grid(fl.BoxDomain(lengths, 0.25), shape)
    rng = np.random.default_rng(sum(shape))
    pair = SimpleNamespace(u=fl.GridFunction(grid, rng.random(shape)),
                           v=fl.GridFunction(grid, rng.random(shape) ** 3))
    assert bs.boundary_bound_check(pair) == collar_sup_full_grid(pair)


def test_collar_without_nodes_is_refused():
    grid = fl.build_grid(unit_square(), (1, 1))
    pair = SimpleNamespace(u=fl.GridFunction(grid, [[1.0]]), v=fl.GridFunction(grid, [[1.0]]))
    assert collar_sup_full_grid(pair) is None
    with pytest.raises(ValueError, match="collar contains no grid nodes"):
        bs.boundary_bound_check(pair)


def test_sweep_reads_one_profile_per_rescaled_field(mini_sweep, tmp_path, monkeypatch):
    # the profiles are the rescaled fields' own; a CLI sweep takes two, and the
    # decay fits and the profile tables read them
    res = mini_sweep
    for name in ("u", "v"):
        want = hl.radial_shells(getattr(res.rescaled, name))
        assert all(np.array_equal(a, b) for a, b in zip(res.profiles[name], want, strict=True))
    calls = []
    original = hl.radial_shells

    def counting(field):
        calls.append(field)
        return original(field)

    monkeypatch.setattr(hl, "radial_shells", counting)
    monkeypatch.setattr(bs, "radial_shells", counting)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("command = sweep\neps_schedule = 0.06,0.05,0.04\ncutoff = 24,24\ngrid = 48,48\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_io.main(["sweep", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert len(calls) == 2
    for name in ("u", "v"):
        _, rows = read_table(out / f"profile_{name}.csv")
        assert np.array_equal(np.array(rows)[:, 1], res.profiles[name][1]), name


@pytest.mark.parametrize("lengths, p, eps_schedule, cutoff, shape", [
    ((1.0, 1.0), 2.5, (0.06, 0.05), (16, 16), (32, 32)),
    ((1.0, 1.2), 2.5, (0.06, 0.05), (12, 14), (25, 29)),
    ((1.0, 1.0, 1.0), 1.8, (0.04, 0.035), (8, 8, 8), (16, 16, 16)),
    ((1.0, 1.1, 0.9), 1.8, (0.04, 0.035), (8, 9, 7), (17, 19, 15)),
])
def test_row_measures_are_bitwise_the_full_grid_post_solve(lengths, p, eps_schedule, cutoff,
                                                           shape, monkeypatch):
    # each row analyzes u and v once: its energy and its ring values share the
    # analyses, and are bit for bit the full-grid post-solve of the row's loop
    loops = []
    monkeypatch.setattr(le, "_iterate", recording_iterate(loops))
    cfg = bs.SweepConfig(domain=fl.BoxDomain(lengths, 0.5), p=p, eps_schedule=eps_schedule,
                         cutoff=cutoff, grid_shape=shape)
    assert cfg.regime == "super"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bs.run_sweep(cfg)
    assert res.failed is None, res.failed
    basis, grid = fl.build_basis(cfg.domain, cutoff), fl.build_grid(cfg.domain, shape)
    points = cfg.comparison_points()
    assert len(loops) == len(res.rows) == len(eps_schedule)
    for row, (cell, theta) in zip(res.rows, loops):
        exps = fl.ExponentPair(p=p, q=row.q, n=cfg.domain.dim, s=0.5)
        want = full_grid_post_solve(mirrored(cell, shape), theta, exps, basis, grid, points)
        assert np.array_equal(row.u_ring, want["u_ring"])
        assert np.array_equal(row.v_ring, want["v_ring"])
        assert row.energy == want["energy"]
        assert row.s_omega == want["sobolev_quotient"]
