"""Acceptance criteria, each at its stated tolerance.

One pass/fail line is printed per criterion sub-check (run with -s to see
them; a summary table prints at the end). Criteria whose stated tolerances
are unattainable at the pinned desk-scale configuration are asserted
faithfully and fail red; the blocking analysis lives in the decisions
ledger and in the assertion messages. Run `pytest tests/test_acceptance.py`
from the repository root.
"""

import time

import numpy as np
import pytest

import fraclane as fl
from fraclane import blowup_sweep as bs
from fraclane import cli_io
from fraclane import hls_limit as hl
from oracles import multistart_theta

RESULTS = []
FIXTURE_TIMES = {}


def record(criterion, name, passed, detail=""):
    line = f"criterion {criterion:>2} [{name}]: {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    RESULTS.append((criterion, name, passed, detail))
    return passed


@pytest.fixture(scope="module")
def square():
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, (64, 64))
    grid = fl.build_grid(dom, (128, 128))
    return dom, basis, grid


def timed_sweep(key, **kwargs):
    t0 = time.perf_counter()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = bs.run_sweep(bs.SweepConfig(**kwargs))
    FIXTURE_TIMES[key] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def sweep_p25(square):
    dom, _, _ = square
    return timed_sweep("p25", domain=dom, p=2.5,
                       eps_schedule=(0.06, 0.04, 0.025, 0.015),
                       cutoff=(64, 64), grid_shape=(128, 128))


@pytest.fixture(scope="module")
def sweep_p20(square):
    dom, _, _ = square
    return timed_sweep("p20", domain=dom, p=2.0,
                       eps_schedule=(0.06, 0.04, 0.025, 0.015),
                       cutoff=(64, 64), grid_shape=(128, 128))


@pytest.fixture(scope="module")
def sweep_p15(square):
    dom, _, _ = square
    # eps = 0.015 exceeds the positivity budget at this resolution for the
    # spiky sub-Serrin w = u^q (q ~ 8); the schedule stays within resolvability
    return timed_sweep("p15", domain=dom, p=1.5,
                       eps_schedule=(0.06, 0.04, 0.025),
                       cutoff=(64, 64), grid_shape=(128, 128))


@pytest.fixture(scope="module")
def sweep_3d():
    cube = fl.BoxDomain((1.0, 1.0, 1.0), 0.5)
    return timed_sweep("3d", domain=cube, p=1.0, eps_schedule=(0.10, 0.06),
                       cutoff=(24, 24, 24), grid_shape=(48, 48, 48))


def max_devs(result):
    return [r.max_green_dev for r in result.rows]


def dev_decreasing_with_jitter(devs, jitter=0.05):
    return all(b <= a + jitter for a, b in zip(devs[:-1], devs[1:], strict=True))


# ---------------------------------------------------------------------------

def test_criterion_01_operator_algebra(square):
    dom, basis, grid = square
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True
    worst_inv, worst_semi = 0.0, 0.0
    for seed in range(3):
        coeff = rng.standard_normal(basis.cutoff)
        f = fl.synthesize(fl.SpectralField(basis, coeff), grid)
        scale = float(np.max(np.abs(f.values)))
        back = fl.apply_fraclap(fl.apply_inverse(f, 0.5, basis), 0.5, basis)
        worst_inv = max(worst_inv, float(np.max(np.abs(back.values - f.values))) / scale)
        two = fl.apply_fraclap(fl.apply_fraclap(f, 0.35, basis), 0.4, basis)
        one = fl.apply_fraclap(f, 0.75, basis)
        worst_semi = max(
            worst_semi,
            float(np.max(np.abs(two.values - one.values)))
            / float(np.max(np.abs(one.values))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_inv < 1e-12 and worst_semi < 1e-12 and elapsed < 1.0
    record(1, "operator algebra",
           ok, f"inverse={worst_inv:.2e} semigroup={worst_semi:.2e} t={elapsed:.2f}s")
    assert worst_inv < 1e-12
    assert worst_semi < 1e-12
    assert elapsed < 1.0


def test_criterion_02_kernel_bound(square):
    dom, basis, grid = square
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    # interior pairs: compact interior margin 0.2, where the truncated sum's
    # tail sits below the true kernel level (see ledger)
    violations = 0
    asym = 0
    for _ in range(200):
        while True:
            x = 0.2 + rng.random(2) * 0.6
            y = 0.2 + rng.random(2) * 0.6
            if np.linalg.norm(x - y) >= 0.1:
                break
        gxy = fl.green(x, y, basis)
        if gxy.value != fl.green(y, x, basis).value:
            asym += 1
        if not 0.0 < gxy.value < fl.free_kernel(x, y, 0.5) + gxy.truncation_bound:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and asym == 0 and elapsed < 10.0
    record(2, "kernel bound", ok,
           f"violations={violations}/200 asymmetry={asym} t={elapsed:.1f}s")
    assert violations == 0 and asym == 0
    assert elapsed < 10.0


def test_criterion_03_solver_identities(square):
    dom, basis, grid = square
    t0 = time.perf_counter()
    q = fl.solve_q_epsilon(2.5, 2, 0.5, 0.04)
    exps = fl.ExponentPair(p=2.5, q=q, n=2, s=0.5)
    pair, report = fl.solve_ground_state(exps, basis, grid)
    gaps = fl.identity_report(pair, basis, report.energy)
    dth = np.diff(report.theta_history)
    monotone = bool(np.all(dth >= -1e-12 * max(1.0, report.theta)))
    elapsed = time.perf_counter() - t0
    ok = all(g < 1e-6 for g in gaps.values()) and monotone and elapsed < 60.0
    record(3, "solver identities", ok,
           f"a75={gaps['a75']:.1e} a74={gaps['a74']:.1e} a7={gaps['a7']:.1e} "
           f"monotone={monotone} t={elapsed:.1f}s")
    for name in ("a75", "a74", "a7"):
        assert gaps[name] < 1e-6, (name, gaps[name])
    assert monotone
    assert elapsed < 60.0


def test_criterion_04_small_instance_oracle():
    t0 = time.perf_counter()
    dom = fl.BoxDomain((1.0, 1.0), 0.5)
    basis = fl.build_basis(dom, (4, 4))
    grid = fl.build_grid(dom, (8, 8))
    q = fl.solve_q_epsilon(2.5, 2, 0.5, 0.05)
    exps = fl.ExponentPair(p=2.5, q=q, n=2, s=0.5)
    # multi-restart projected gradient ascent (independent optimizer) vs the
    # fixed-point solver started over the same basins: on this 8x8 instance
    # the discrete maximizer pins off-center, so both sides are multi-started
    best_pga, _ = multistart_theta(exps, basis, grid, n_restarts=8, seed=777)
    rng = np.random.default_rng(777)
    best_solver = -np.inf
    for restart in range(8):
        init = None if restart == 0 else fl.GridFunction(grid, rng.random(grid.shape) + 0.1)
        _, rep = fl.solve_ground_state(exps, basis, grid, init=init)
        best_solver = max(best_solver, rep.theta)
    rel = abs(best_solver - best_pga) / best_pga
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-4 and elapsed < 30.0
    record(4, "small-instance oracle", ok,
           f"solver={best_solver:.8f} pga={best_pga:.8f} rel={rel:.2e} t={elapsed:.1f}s")
    assert rel < 1e-4
    assert elapsed < 30.0


def test_criterion_05_blowup_monotonicity(sweep_p25):
    res = sweep_p25
    lams = [r.lam for r in res.rows]
    lam_dist = [r.lam_dist for r in res.rows]
    lpe = [r.lam_pow_eps for r in res.rows]
    lam_up = all(b > a for a, b in zip(lams[:-1], lams[1:], strict=True))
    dist_up = all(b > a for a, b in zip(lam_dist[:-1], lam_dist[1:], strict=True))
    tail_dec = abs(lpe[-1] - 1.0) < abs(lpe[-2] - 1.0)
    elapsed = FIXTURE_TIMES["p25"]
    ok = lam_up and dist_up and tail_dec and elapsed < 300.0
    record(5, "lambda monotonicity", ok,
           f"lam={['%.1f' % v for v in lams]} lam*dist up={dist_up} "
           f"|lam^eps-1| tail decreasing={tail_dec} t={elapsed:.1f}s")
    assert lam_up and dist_up and tail_dec
    assert elapsed < 300.0


def test_criterion_05_lambda_eps_band(sweep_p25):
    # measured lam^eps = {1.20, 1.15, 1.10, 1.07}: eps log lam ~ 0.1-0.2 at
    # this schedule (lam ~ 1/eps), so the (0.9, 1.1) band is unattainable on
    # the early rows at the pinned configuration; see the decisions ledger
    lpe = [r.lam_pow_eps for r in sweep_p25.rows]
    in_band = all(0.9 < v < 1.1 for v in lpe)
    record(5, "lambda^eps band (0.9, 1.1)", in_band,
           f"values={['%.4f' % v for v in lpe]}")
    assert in_band, (
        f"lam^eps = {lpe}: the blow-up scale obeys lam ~ 1/eps here, so "
        f"lam^eps = exp(eps log lam) sits at 1.10-1.20 on the early rows; "
        f"resolution-converged (ledger: acceptance analysis)"
    )


def test_criterion_06_quotient_bound(sweep_p25):
    ex = sweep_p25.extrapolation
    ok = ex.bound_ok
    record(6, "quotient bound", ok,
           f"S_hat={ex.s_hat:.5f} min margin={min(ex.bound_margins):.4f}")
    assert ok


def test_criterion_06_energy_limit(sweep_p25):
    # measured gap 0.14: E(eps) - (2s/n) S^{n/2s} decays ~ 20 eps at this
    # schedule, so < 0.1 needs eps_min ~ 0.01 whose core is below the grid's
    # resolvability; faithful assert, see ledger
    ex = sweep_p25.extrapolation
    e_min = sweep_p25.rows[-1].energy
    ok = ex.e_rel_gap < 0.1
    record(6, "energy limit gap", ok,
           f"E(eps_min)={e_min:.5f} limit={ex.e_limit:.5f} rel={ex.e_rel_gap:.4f}")
    assert ok, (
        f"|E - (2s/n) S_hat^2|/E = {ex.e_rel_gap:.4f} >= 0.1 at the pinned "
        f"schedule (resolution-converged; ledger: acceptance analysis)"
    )


@pytest.mark.parametrize("which,expect_green", [("p25", True), ("p15", True), ("p20", False)])
def test_criterion_07_green_limit_regimes(which, expect_green, sweep_p25, sweep_p20, sweep_p15):
    res = {"p25": sweep_p25, "p20": sweep_p20, "p15": sweep_p15}[which]
    devs = max_devs(res)
    decreasing = dev_decreasing_with_jitter(devs)
    final_ok = devs[-1] < 0.15
    total_t = FIXTURE_TIMES["p25"] + FIXTURE_TIMES["p20"] + FIXTURE_TIMES["p15"]
    ok = decreasing and final_ok and total_t < 1200.0
    note = "" if expect_green else "(log-normalized C3 target: O(1)/log lam offset; ledger)"
    record(7, f"green limit {res.config.regime} p={res.config.p}", ok,
           f"devs={['%.4f' % d for d in devs]} final<0.15={final_ok} {note}")
    assert decreasing, f"deviations not decreasing: {devs}"
    assert total_t < 1200.0
    assert final_ok, (
        f"max deviation at eps_min = {devs[-1]:.4f} (p={res.config.p}); "
        + ("" if expect_green else
           "the p=2 comparison against the formula constant C3 carries an "
           "O(1)/log(lam) normalization error ~ 0.23 at attainable lam; ledger")
    )


def test_criterion_08_theorem_14_configuration(sweep_3d):
    res = sweep_3d
    assert res.failed is None
    devs_u = []
    for r in res.rows:
        devs_u.append(max(d.dev_u for d in r.green_devs if d.dev_u is not None))
    decreasing = all(b < a for a, b in zip(devs_u[:-1], devs_u[1:], strict=True))
    elapsed = FIXTURE_TIMES["3d"]
    ok = decreasing and elapsed < 600.0
    record(8, "3d p=1 tracks C5*Gt", ok,
           f"dev_u={['%.4f' % d for d in devs_u]} t={elapsed:.1f}s")
    assert decreasing
    assert elapsed < 600.0


def _window_and_fits(result, serrin=False):
    rs = result.rescaled
    lam = rs.lam
    win = bs.decay_window(lam, result.config.domain, result.config.grid_shape)
    fit_v = hl.decay_fit(rs.v, win)
    if serrin:
        centers, means, *_ = hl.radial_shells(rs.u)
        mask = (centers >= win[0]) & (centers <= win[1]) & (means > 0)
        x = np.log(centers[mask])
        y = np.log(means[mask]) - np.log(np.log(centers[mask]))
        coeffs, *_ = np.linalg.lstsq(np.vstack([np.ones_like(x), x]).T, y, rcond=None)
        fit_u_slope = float(coeffs[1])
    else:
        fit_u_slope = hl.decay_fit(rs.u, win).slope
    return win, lam, fit_v.slope, fit_u_slope


def test_criterion_09_vtilde_slope(sweep_p25, sweep_p20, sweep_p15):
    # measured ~ -1.14 on every defensible window: the boundary image (regular
    # part H) bends the power law right after the core at attainable lam, so
    # -(n-2s) +- 0.1 is out of reach at the pinned resolution (ledger)
    slopes = {}
    for result in (sweep_p25, sweep_p20, sweep_p15):
        win, lam, v_slope, _ = _window_and_fits(result, serrin=result.config.regime == "serrin")
        slopes[result.config.p] = v_slope
    ok = all(abs(sl + 1.0) <= 0.1 for sl in slopes.values())
    record(9, "v-tilde slope -(n-2s) +- 0.1", ok,
           " ".join(f"p={p}: {sl:+.4f}" for p, sl in slopes.items()))
    assert ok, (
        f"fitted v-tilde slopes {slopes} vs -1 +- 0.1: boundary-image bending "
        f"at desk scale; ledger: acceptance analysis"
    )


def test_criterion_09_utilde_slope_super(sweep_p25):
    win, lam, _, u_slope = _window_and_fits(sweep_p25)
    ok = abs(u_slope + 1.0) <= 0.15
    record(9, "u-tilde slope super", ok, f"slope={u_slope:+.4f} target -1 +- 0.15")
    assert ok, f"slope {u_slope}"


def test_criterion_09_utilde_slope_serrin(sweep_p20):
    win, lam, _, u_slope = _window_and_fits(sweep_p20, serrin=True)
    ok = abs(u_slope + 1.0) <= 0.15
    record(9, "u-tilde slope serrin (log-corrected)", ok,
           f"slope={u_slope:+.4f} target -1 +- 0.15")
    assert ok, (
        f"log-corrected slope {u_slope:+.4f}: the log factor has not developed "
        f"over the one-octave window attainable at lam ~ 75 (ledger)"
    )


def test_criterion_09_utilde_slope_sub(sweep_p15):
    win, lam, _, u_slope = _window_and_fits(sweep_p15)
    ok = abs(u_slope + 0.5) <= 0.15
    record(9, "u-tilde slope sub", ok, f"slope={u_slope:+.4f} target -0.5 +- 0.15")
    assert ok, (
        f"slope {u_slope:+.4f} vs -0.5 +- 0.15: the xi^{{-1/2}} far field "
        f"emerges only for xi >> core while corrections decay like xi^{{-1/2}} "
        f"(ledger)"
    )


def test_criterion_09_serrin_log_positive(sweep_p20):
    # the qualitative Serrin signature: u-tilde * r^{n-2s} grows in log r
    rs = sweep_p20.rescaled
    win = bs.decay_window(rs.lam, sweep_p20.config.domain, sweep_p20.config.grid_shape)
    fit = hl.decay_fit(rs.u, win, serrin_power=1.0)
    ok = fit.slope > 0
    record(9, "serrin log-divergence sign", ok, f"log coefficient={fit.slope:+.4f}")
    assert ok


def test_criterion_09_sharp_decay_sandwich(sweep_p20):
    # Appendix-B sandwich on the fitted annulus of the serrin sweep
    rs = sweep_p20.rescaled
    row = sweep_p20.rows[-1]
    win = bs.decay_window(rs.lam, sweep_p20.config.domain, sweep_p20.config.grid_shape)
    rep = hl.sharp_decay_check(rs.v, row.constants.c1, 0.25, win, 0.5)
    record(9, "sharp-decay sandwich d=0.25", rep.passed,
           f"violating={rep.fraction_violating:.3f} of {rep.n_points} pts "
           f"annulus=({win[0]:.1f},{win[1]:.1f})")
    assert rep.passed


def test_criterion_09_serrin_log_integral(sweep_p20):
    rs = sweep_p20.rescaled
    row = sweep_p20.rows[-1]
    si = hl.serrin_log_integral(rs.v, 2.0, rs.lam, row.constants.c1, 0.5)
    rel = abs(si.value - si.target) / si.target
    ok = rel < 0.2
    record(9, "serrin log integral", ok,
           f"value={si.value:.4f} target={si.target:.4f} rel={rel:.3f}")
    assert ok, (
        f"(1/log lam) int v^p = {si.value:.4f} vs {si.target:.4f} "
        f"(rel {rel:.3f} >= 0.2): the O(1) window constant needs log lam >> 1; "
        f"lam is capped by core resolvability (ledger)"
    )


def test_criterion_10_hls_consistency(sweep_p25):
    t0 = time.perf_counter()
    res = sweep_p25
    s_hat = res.extrapolation.s_hat
    q0 = fl.critical_q(2.5, 2, 0.5)
    w = res.rescaled.w
    norm = w.lp_norm((q0 + 1.0) / q0)
    quotient = hl.hls_quotient(w.with_values(w.values / norm), 2.5, q0, 0.5)
    rel = abs(quotient - s_hat) / s_hat

    sharp = hl.sharp_diagonal_quotient(2, 0.5)
    ladder = []
    for radius, m in [(8.0, 64), (13.0, 104), (18.0, 160)]:
        ax = (np.arange(m) + 0.5) * (2 * radius / m) - radius
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        bub = hl.FreeField.centered(radius, hl.bubble(np.hypot(X, Y), 2, 0.5) ** 3.0)
        ladder.append(hl.hls_quotient(bub, 3.0, 3.0, 0.5))
    monotone = all(b < a for a, b in zip(ladder[:-1], ladder[1:], strict=True))
    within = ladder[-1] / sharp - 1.0 < 0.01
    elapsed = time.perf_counter() - t0
    ok = rel < 0.05 and monotone and within and elapsed < 300.0
    record(10, "hls consistency", ok,
           f"quotient={quotient:.5f} S_hat={s_hat:.5f} rel={rel:.4f}; "
           f"bubble ladder excess={(ladder[-1] / sharp - 1) * 100:.2f}% t={elapsed:.1f}s")
    assert rel < 0.05
    assert monotone and within
    assert elapsed < 300.0


def test_criterion_11_determinism(tmp_path):
    cfg_text = (
        "command = solve\nn = 2\nlengths = 1,1\ns = 0.5\np = 2.5\neps = 0.05\n"
        "cutoff = 16,16\ngrid = 32,32\n"
    )
    cfg = tmp_path / "c.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_io.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    identical = True
    for name in ["solve.csv", "solve_report.json", "field_u.bin", "field_v.bin", "field_w.bin"]:
        identical &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    kcfg = tmp_path / "k.cfg"
    kcfg.write_text(
        "command = kernels\nn = 2\nlengths = 1,1\ns = 0.5\ncutoff = 48,48\n"
        "grid = 96,96\nkernel_pairs = 30\nkernel_margin = 0.2\n"
    )
    kouts = []
    for tag in ("ka", "kb"):
        out = tmp_path / tag
        assert cli_io.main(["kernels", "--config", str(kcfg), "--out", str(out)]) == 0
        kouts.append(out)
    identical &= (kouts[0] / "kernels.csv").read_bytes() == (kouts[1] / "kernels.csv").read_bytes()
    record(11, "byte determinism", identical, "solve + kernels reruns identical")
    assert identical


def test_zz_summary(capsys):
    by_criterion = {}
    for crit, name, passed, _ in RESULTS:
        by_criterion.setdefault(crit, []).append(passed)
    with capsys.disabled():
        print("\n================== acceptance summary ==================")
        for crit, name, passed, detail in RESULTS:
            print(f"criterion {crit:>2} [{name}]: {'PASS' if passed else 'FAIL'} {detail}")
        print("---------------------------------------------------------")
        for crit in sorted(by_criterion):
            flags = by_criterion[crit]
            status = "PASS" if all(flags) else f"FAIL ({flags.count(False)}/{len(flags)} sub-checks)"
            print(f"criterion {crit:>2}: {status}")
        print("=========================================================")
