"""Blow-up sweeps: solve along a decreasing-epsilon schedule, locate and
rescale the concentration, compare against the Green-function limits per
regime, extrapolate the Sobolev-quotient limit, and run the boundary and
decay diagnostics.

Regimes are split by the Serrin exponent n/(n-2s), as
`fractional_calculus.classify_regime` decides: above it the normalized u
tracks C2 G, at it (C3 log-normalized) G, below it C4 Gt with the iterated
kernel. The v-component tracks C1 G in every regime. All normalizations use
the critical exponents n/(p+1) and n/(q0+1); the C-constants are measured
from the rescaled fields row by row.

The geometry of the comparison is fixed per box, not per run: the ring of
comparison points, the exclusion ball around x0 and the boundary collar are
constant fractions of the shortest side. Each row's solve starts from the
previous row's w, and each row is measured as soon as its solve returns (its
constants and its u, v on the ring), so between solves a sweep holds one
row's fields: that row's w, the last row's included. Only the comparison
against the kernels at x0, known after the last row, waits for the end of
the schedule; then the last row's u and v are rebuilt from its w
(`lane_emden.solution_fields`) and rescaled. The post-solve passes take at
most one full-grid temporary at a time: the collar's sup is read slab by
slab, and the powers, rescaled fields, radii and shell index are written in
place. `sweep_checks` holds the sweep command's rules and bands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fractional_calculus import (
    THRESHOLD_TOL,
    Check,
    _check_iterated_kernel,
    _check_iterated_pair,
    _check_pairs,
    classify_regime,
    g_tilde,
    green,
)
from .hls_limit import (FreeField, decay_fit, radial_shells, serrin_constant, serrin_log_integral,
                        sharp_decay_check)
from .lane_emden import (
    MAX_ITER,
    RESIDUAL_TOL,
    THETA_TOL,
    ConvergenceError,
    ExponentPair,
    SolutionPair,
    alpha_beta,
    check_stopping_rule,
    critical_q,
    solution_fields,
    solve_ground_state,
    solve_q_epsilon,
)
from .spectral_domain import (
    BoxDomain,
    GridFunction,
    SpectralBasis,
    build_basis,
    build_grid,
    check_resolution,
    integrate,
    synthesize_at,
)

MIN_CORE_CELLS = 8.0  # narrower blow-up cores are at the grid's resolvability limit
QUOTIENT_BOUND_SLACK = 1e-12  # the quotient bound's allowance for rounding in S_hat

# The fixed geometry of every sweep, in units of the shortest side: the ring of
# N_COMPARISON Green-limit points around the center, the ball around x0 where
# no point is compared, and the boundary collar whose sup of u + v is reported.
RING_RADIUS_FRAC = 0.3
EXCLUSION_RADIUS_FRAC = 0.15
COLLAR_FRAC = 0.1
N_COMPARISON = 8


@dataclass
class SweepConfig:
    """A blow-up sweep; checks every rule the sweep relies on, before any solve."""

    domain: BoxDomain
    p: float
    eps_schedule: tuple[float, ...]
    cutoff: tuple[int, ...]
    grid_shape: tuple[int, ...]
    theta_tol: float = THETA_TOL
    residual_tol: float = RESIDUAL_TOL
    max_iter: int = MAX_ITER

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_schedule)
        if len(eps) < 1 or any(b >= a for a, b in zip(eps[:-1], eps[1:], strict=True)):
            raise ValueError("epsilon schedule must be strictly decreasing")
        n, s = self.domain.dim, self.domain.s
        for e in eps:
            solve_q_epsilon(self.p, n, s, e)
        self.eps_schedule = eps
        if self.regime == "sub":
            _check_iterated_kernel(self.p, n, s)
        check_resolution(self.cutoff, self.grid_shape)
        check_stopping_rule(self.theta_tol, self.residual_tol, self.max_iter)

    @property
    def regime(self) -> str:
        return classify_regime(self.p, self.domain.dim, self.domain.s)

    def comparison_points(self) -> np.ndarray:
        """Ring of points around the domain center, radius RING_RADIUS_FRAC * min side."""
        n = self.domain.dim
        center = np.asarray(self.domain.lengths) / 2.0
        radius = RING_RADIUS_FRAC * min(self.domain.lengths)
        angles = 2.0 * math.pi * (np.arange(N_COMPARISON) + 0.5) / N_COMPARISON
        pts = np.tile(center, (N_COMPARISON, 1))
        pts[:, 0] += radius * np.cos(angles)
        pts[:, 1 if n > 1 else 0] += radius * np.sin(angles)
        return pts


@dataclass
class PointDeviation:
    point: tuple[float, ...]
    dev_v: float | None
    dev_u: float | None
    note: str = ""


@dataclass
class ConstantEstimates:
    """Measured Green-limit constants.

    C1 and C2 are measured in the normalization of the limit statements,
    lam^{n/(q0+1)} int u^{q_eps} -> int U^{q0} and lam^{n/(p+1)} int v^p ->
    int V^p (equal to the rescaled-field integrals up to lam^{O(eps)});
    C3 = `serrin_constant`(C1), C4 = C1^p, and C5 is C4 at p = 1.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float | None

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")


@dataclass
class SweepRow:
    """One solved row's measures; `green_devs` is filled once x0 is known."""

    eps: float
    q: float
    alpha: float
    beta: float
    lam: float
    x_c: tuple[float, ...]
    theta: float
    s_omega: float
    energy: float
    lam_dist: float
    lam_pow_eps: float
    boundary_sup: float
    core_cells: float
    constants: ConstantEstimates
    u_ring: np.ndarray  # u and v at `SweepConfig.comparison_points`
    v_ring: np.ndarray
    green_devs: list[PointDeviation] = field(default_factory=list)

    @property
    def max_green_dev(self) -> float | None:
        """The largest compared u or v deviation of `green_devs`; None when no
        point was compared."""
        return max((d for pd in self.green_devs for d in (pd.dev_u, pd.dev_v) if d is not None),
                   default=None)


@dataclass
class RescaledSolution:
    """Zoomed fields on Omega_eps = lam (Omega - x_c), nodes relabeled exactly."""

    u: FreeField
    v: FreeField
    w: FreeField
    lam: float


@dataclass
class SExtrapolation:
    s_hat: float
    bound_margins: list[float]
    e_limit: float
    e_rel_gap: float


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list[SweepRow]
    x0: tuple[float, ...]
    extrapolation: SExtrapolation | None
    rescaled: RescaledSolution
    # `radial_shells` of the rescaled u and v, keyed "u" and "v": what the
    # decay fits read and the CLI's profile tables hold
    profiles: dict[str, tuple[np.ndarray, ...]]
    decay: dict  # `decay_report`'s window and raw slopes and log integral, or its error
    decay_checks: list[Check]  # `decay_report`'s bands; none with an error
    failed: str | None  # the message of the solve that ended the sweep early


def _quadratic_peak(values: np.ndarray, idx: tuple[int, ...], coords) -> tuple[float, np.ndarray]:
    """Per-axis 3-point parabola refinement of a peak node (exact on paraboloids)."""
    peak = float(values[idx])
    location = []
    gain = 0.0
    for axis in range(values.ndim):
        j = idx[axis]
        x0 = coords[axis][j]
        if j == 0 or j == values.shape[axis] - 1:
            location.append(x0)
            continue
        lo = list(idx)
        hi = list(idx)
        lo[axis] -= 1
        hi[axis] += 1
        fm, f0, fp = float(values[tuple(lo)]), peak, float(values[tuple(hi)])
        denom = fm - 2.0 * f0 + fp
        h = coords[axis][j + 1] - coords[axis][j]
        if denom >= 0.0:
            location.append(x0)
            continue
        offset = 0.5 * h * (fm - fp) / denom
        offset = min(max(offset, -0.5 * h), 0.5 * h)
        location.append(x0 + offset)
        gain += -((fm - fp) ** 2) / (8.0 * denom)
    return peak + gain, np.asarray(location)


def find_max(u: GridFunction, alpha: float) -> tuple[float, np.ndarray]:
    """Blow-up scale lam = (max u)^{1/alpha} with sub-grid quadratic refinement.

    Warns when the argmax sits on the outermost node layer (possible boundary
    concentration; the refinement is then one-sided and skipped).
    """
    if u.max() <= 0.0:
        raise ValueError("find_max needs a positive maximum")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    values = u.values
    idx = np.unravel_index(int(np.argmax(values)), values.shape)
    on_edge = any(j == 0 or j == m - 1 for j, m in zip(idx, values.shape, strict=True))
    if on_edge:
        warnings.warn("argmax on the outermost node layer (boundary proximity)", stacklevel=2)
    peak, location = _quadratic_peak(values, idx, u.grid.coords)
    return peak ** (1.0 / alpha), location


def rescale_solution(u: GridFunction, v: GridFunction, exponents: ExponentPair, lam: float,
                     x_c) -> RescaledSolution:
    """Zoom a solution's u and v of `exponents` to (u-tilde, v-tilde, w-tilde)
    on Omega_eps = lam (Omega - x_c).

    The rescaled grid is the exact image of the original nodes, so no
    resampling occurs (and the null extension outside Omega_eps is vacuous).
    Each rescaled field is written in place into its own new array.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    alpha, beta = alpha_beta(exponents.p, exponents.q, exponents.s)
    x_c = np.asarray(x_c, dtype=float)
    dom = u.grid.domain
    lo = tuple(lam * (0.0 - c) for c in x_c)
    hi = tuple(lam * (L - c) for L, c in zip(dom.lengths, x_c, strict=True))

    u_vals = np.multiply(u.values, lam**-alpha)
    np.maximum(u_vals, 0.0, out=u_vals)
    v_vals = np.multiply(v.values, lam**-beta)
    np.maximum(v_vals, 0.0, out=v_vals)
    return RescaledSolution(
        u=FreeField(lo, hi, u_vals),
        v=FreeField(lo, hi, v_vals),
        w=FreeField(lo, hi, u_vals**exponents.q),
        lam=lam,
    )


def measure_constants(pair: SolutionPair, lam: float) -> ConstantEstimates:
    """C-constants measured in the normalization of the limit statements:
    C1 = lam^{n/(q0+1)} int u^{q_eps}, C2 = lam^{n/(p+1)} int v^p (both equal
    the rescaled-field integrals up to lam^{O(eps)} and converge to
    int U^{q0}, int V^p)."""
    exps = pair.exponents
    n, s = exps.n, exps.s
    q0 = critical_q(exps.p, n, s)
    c1 = lam ** (n / (q0 + 1.0)) * integrate(
        pair.u.with_values(pair.u.values**exps.q)
    )
    c2 = lam ** (n / (exps.p + 1.0)) * integrate(
        pair.v.with_values(pair.v.values**exps.p)
    )
    c3 = serrin_constant(c1, n, s)
    c4 = c1**exps.p
    c5 = c4 if abs(exps.p - 1.0) <= THRESHOLD_TOL else None
    return ConstantEstimates(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)


@dataclass
class LimitKernels:
    """G(., x0) and the u target (G, or Gt in the sub regime) at the comparison
    points; a point with a note is skipped, and the note says why."""

    points: np.ndarray
    green: np.ndarray
    target: np.ndarray
    notes: list[str]


def limit_kernels(x0, basis: SpectralBasis, points: np.ndarray, p: float) -> LimitKernels:
    """The comparison kernels against x0, once for a whole sweep: G(., x0) and,
    in the sub regime, Gt(., x0), each in one batch over the points kept.
    Points inside the exclusion ball around x0 (radius EXCLUSION_RADIUS_FRAC
    of the shortest side), or that a kernel refuses (`_check_pairs`, and
    `_check_iterated_pair` for Gt), are skipped with a note."""
    x0 = np.asarray(x0, dtype=float)
    dom = basis.domain
    sub = classify_regime(p, dom.dim, dom.s) == "sub"
    g, target = np.full(len(points), np.nan), np.full(len(points), np.nan)
    ball = EXCLUSION_RADIUS_FRAC * min(dom.lengths)
    notes = ["inside exclusion ball" if np.linalg.norm(pt - x0) < ball else "" for pt in points]
    for i in [i for i, note in enumerate(notes) if not note]:
        try:
            if sub:
                _check_iterated_pair(basis, points[i], x0, p)
            else:
                _check_pairs(basis, points[i], x0)
        except ValueError as exc:
            notes[i] = f"kernel skipped: {exc}"
    kept = [i for i, note in enumerate(notes) if not note]
    if kept:
        g[kept] = green(points[kept], x0, basis).value
        if sub:
            target[kept] = g_tilde(points[kept], x0, p, basis).value
    return LimitKernels(points, g, target if sub else g, notes)


def green_limit_check(u_at: np.ndarray, v_at: np.ndarray, lam: float, kernels: LimitKernels,
                      constants: ConstantEstimates, config: SweepConfig) -> list[PointDeviation]:
    """Per-point ratios of one row's normalized solution to its predicted
    kernel multiple: v against C1 G(., x0) and u against the regime target.
    u_at and v_at are the row's u and v at `kernels.points`, the kernels
    those of `limit_kernels`; a skipped point keeps its note."""
    n, s, p = config.domain.dim, config.domain.s, config.p
    q0 = critical_q(p, n, s)
    nv = n / (q0 + 1.0)
    nu = n / (p + 1.0)
    scale_u, c_u = {
        "super": (lam**nu, constants.c2),
        "serrin": (lam**nu / math.log(lam), constants.c3),
        "sub": (lam ** (p * nv), constants.c4),
    }[config.regime]

    out: list[PointDeviation] = []
    for i, pt in enumerate(kernels.points):
        if kernels.notes[i]:
            out.append(PointDeviation(tuple(pt), None, None, kernels.notes[i]))
            continue
        dev_v = abs(lam**nv * v_at[i] / (constants.c1 * kernels.green[i]) - 1.0)
        dev_u = abs(scale_u * u_at[i] / (c_u * kernels.target[i]) - 1.0)
        out.append(PointDeviation(tuple(pt), float(dev_v), float(dev_u)))
    return out


def boundary_bound_check(pair: SolutionPair) -> float:
    """Sup of u + v over the collar {dist(x, boundary) < COLLAR_FRAC min(L)} of
    the pair's box. A node is in the collar iff one of its coordinates is
    within the collar's width of that axis's faces, so the collar is the union
    of two slabs per axis, a run of leading and a run of trailing node
    layers; the sup is taken slab by slab, on views of u and v."""
    grid = pair.u.grid
    width = COLLAR_FRAC * min(grid.domain.lengths)
    sups = []
    for axis, (g, L) in enumerate(zip(grid.coords, grid.domain.lengths, strict=True)):
        m = len(g)
        lead, trail = int(np.count_nonzero(g < width)), int(np.count_nonzero(L - g < width))
        for layers in (slice(0, lead), slice(m - trail, m)):
            if layers.start < layers.stop:
                slab = (slice(None),) * axis + (layers,)
                sups.append(float(np.max(pair.u.values[slab] + pair.v.values[slab])))
    if not sups:
        raise ValueError("collar contains no grid nodes")
    return max(sups)


def extrapolate_S(
    eps_values, s_values, theta_values, energy_min: float, p: float, domain: BoxDomain
) -> SExtrapolation:
    """Linear-in-eps extrapolation of S_Omega(eps) to eps = 0 (heuristic: the
    convergence rate is not available), plus the per-row quotient bound
    Theta(eps) <= S_hat^{-1} |Omega|^{1/(q_eps+1) - 1/(q0+1)} and the energy
    limit comparison at the smallest eps; n, s and |Omega| are the domain's."""
    n, s, volume = domain.dim, domain.s, domain.volume()
    eps_values = np.asarray(eps_values, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    theta_values = np.asarray(theta_values, dtype=float)
    if len(eps_values) < 3:
        raise ValueError("extrapolation needs at least 3 rows")
    A = np.vstack([np.ones_like(eps_values), eps_values]).T
    coef, *_ = np.linalg.lstsq(A, s_values, rcond=None)
    s_hat = float(coef[0])
    q0 = critical_q(p, n, s)
    margins = []
    for e, th in zip(eps_values, theta_values, strict=True):
        qe = solve_q_epsilon(p, n, s, float(e))
        expo = 1.0 / (qe + 1.0) - 1.0 / (q0 + 1.0)
        margins.append(float(volume**expo / s_hat - th))
    e_limit = (2.0 * s / n) * s_hat ** (n / (2.0 * s))
    e_rel_gap = abs(energy_min - e_limit) / abs(energy_min)
    return SExtrapolation(
        s_hat=s_hat,
        bound_margins=margins,
        e_limit=e_limit,
        e_rel_gap=e_rel_gap,
    )


def run_sweep(config: SweepConfig) -> SweepResult:
    """Solve the schedule, each row warm-started from the previous row's w,
    and measure each row as its solve returns: peak, collar, constants and
    u, v on the comparison ring, synthesized from the analyses of u and v
    that the solve made for its energy (`SolveReport.coefficients`). Once
    x0 = x_eps at the smallest eps is known, compare every row with the
    Green-function limits at x0, and run the decay diagnostics of the last
    row's rescaled fields.

    A failed solve (`ConvergenceError`, or a `ValueError` the solver raises)
    ends the sweep (later rows depend on the warm start); its message is
    `SweepResult.failed`, and the rows before it stand. Any other exception
    is a fault and propagates.

    The sweep holds one row's fields between solves, and never writes to a
    pair: a row's w, the next solve's warm start, which goes once that solve
    has returned. The last row's w, whether the schedule finished or a solve
    failed, is held through the Green comparison; then the last row's u and
    v are rebuilt from it (`solution_fields`), bit for bit the solve's own,
    and w goes before they are rescaled. The decay fits and the CLI's
    profile tables read one `radial_shells` profile per rescaled field,
    `SweepResult.profiles`."""
    dom = config.domain
    n, s = dom.dim, dom.s
    basis = build_basis(dom, config.cutoff)
    grid = build_grid(dom, config.grid_shape)
    points = config.comparison_points()

    rows: list[SweepRow] = []
    w = exponents = failed = None
    for eps in config.eps_schedule:
        q = solve_q_epsilon(config.p, n, s, eps)
        alpha, beta = alpha_beta(config.p, q, s)
        try:
            pair, report = solve_ground_state(
                ExponentPair(p=config.p, q=q, n=n, s=s), basis, grid, init=w,
                theta_tol=config.theta_tol, residual_tol=config.residual_tol,
                max_iter=config.max_iter,
            )
        except (ConvergenceError, ValueError) as exc:
            failed = str(exc)
            break
        w = None  # the warm start, once its solve has returned
        lam, x_c = find_max(pair.u, alpha)
        core_cells = (2.0 / lam) / max(grid.spacing)
        if core_cells < MIN_CORE_CELLS:
            warnings.warn(
                f"blow-up core spans {core_cells:.2f} cells (< {MIN_CORE_CELLS}); "
                f"eps = {eps} is at the resolvability limit of this grid",
                stacklevel=2,
            )
        rows.append(
            SweepRow(
                eps=eps,
                q=q,
                alpha=alpha,
                beta=beta,
                lam=lam,
                x_c=tuple(float(c) for c in x_c),
                theta=report.theta,
                s_omega=report.sobolev_quotient,
                energy=report.energy,
                lam_dist=lam * dom.boundary_distance(x_c),
                lam_pow_eps=lam**eps,
                boundary_sup=boundary_bound_check(pair),
                core_cells=core_cells,
                constants=measure_constants(pair, lam),
                u_ring=synthesize_at(report.coefficients[0], points),
                v_ring=synthesize_at(report.coefficients[1], points),
            )
        )
        exponents, w = pair.exponents, pair.w
        del pair, report  # the report's coefficients are this row's, not the next solve's

    if not rows:
        raise RuntimeError(f"sweep failed at the first row: {failed}")

    last = rows[-1]
    x0 = np.asarray(last.x_c)
    kernels = limit_kernels(x0, basis, points, config.p)
    for row in rows:
        row.green_devs = green_limit_check(
            row.u_ring, row.v_ring, row.lam, kernels, row.constants, config
        )

    u, v = solution_fields(w, exponents, basis)
    del w
    rescaled = rescale_solution(u, v, exponents, last.lam, x0)
    del u, v
    profiles = {name: radial_shells(getattr(rescaled, name)) for name in ("u", "v")}

    extrapolation = None
    if len(rows) >= 3:
        extrapolation = extrapolate_S(
            [r.eps for r in rows],
            [r.s_omega for r in rows],
            [r.theta for r in rows],
            last.energy,
            config.p,
            dom,
        )

    decay, decay_checks = decay_report(rescaled, profiles, last.constants.c1, config)
    return SweepResult(
        config=config,
        rows=rows,
        x0=tuple(float(c) for c in x0),
        extrapolation=extrapolation,
        rescaled=rescaled,
        profiles=profiles,
        decay=decay,
        decay_checks=decay_checks,
        failed=failed,
    )


def decay_window(lam: float, domain: BoxDomain, grid_shape) -> tuple[float, float]:
    """Radial window for decay fits: outside the blow-up core, inside the
    onset of the boundary image (H bends the pure power law at radii
    comparable to a fixed fraction of lam)."""
    shell = 2.0 * lam * max(
        L / m for L, m in zip(domain.lengths, grid_shape, strict=True)
    )
    r_lo = max(3.0, 1.5 * shell)
    r_hi = max(0.085 * lam, r_lo + 3.0 * shell)
    r_hi = min(r_hi, 0.45 * lam * min(domain.lengths))
    return (r_lo, r_hi)


def decay_report(rescaled: RescaledSolution, profiles: dict[str, tuple[np.ndarray, ...]],
                 c1: float, config: SweepConfig) -> tuple[dict, list[Check]]:
    """Decay of the rescaled fields over `decay_window`, fitted on their
    `profiles` (`SweepResult.profiles`): the window, the u slope with the
    kind of its fit, the v slope and, at the Serrin exponent, the log
    integral (1/log lam) int v^p; and the bands, as checks that never gate:
    the v slope's distance from -(n-2s) (budget 0.1), the sharp-decay
    sandwich (delta 0.25) and the log integral's relative gap to its target
    C3 (below 0.2). ({"error": reason}, []) when the window admits no fit."""
    n, s = config.domain.dim, config.domain.s
    lam = rescaled.lam
    win = decay_window(lam, config.domain, config.grid_shape)
    serrin = config.regime == "serrin"
    target, tol, delta, rel = -(n - 2 * s), 0.1, 0.25, 0.2
    try:
        fit_v = decay_fit(rescaled.v, win, shells=profiles["v"])
        fit_u = decay_fit(rescaled.u, win, serrin_power=n - 2 * s if serrin else None,
                          shells=profiles["u"])
        sandwich = sharp_decay_check(rescaled.v, c1, delta, win, s)
        decay = {"window": list(win), "v_slope": fit_v.slope,
                 "u_slope": {"value": fit_u.slope,
                             "kind": "log_coefficient" if serrin else "power"}}
        checks = [Check.bound("v_decay_slope", abs(fit_v.slope - target), tol, gating=False,
                              note="|v slope + (n-2s)|"),
                  Check.bound("sharp_decay_sandwich", sandwich.fraction_violating, 0.0,
                              gating=False, note=f"fraction of window nodes outside "
                                                 f"(1 +- {delta:g}) g_(n,s) C1 |x|^-(n-2s)")]
        if serrin:
            si = serrin_log_integral(rescaled.v, config.p, lam, c1, s)
            decay["log_integral"] = si.value
            checks.append(Check.bound("serrin_log_integral", abs(si.value - si.target) / si.target,
                                      rel, strict=True, gating=False,
                                      note="|log integral - C3| / C3, C3 of the last row"))
    except ValueError as exc:
        return {"error": str(exc)}, []
    return decay, checks


_GREEN_DEV_JITTER = 0.05  # what a row's deviation at a point may add over the row before


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values[:-1], values[1:], strict=True))


def sweep_checks(result: SweepResult) -> list[Check]:
    """The checks of a sweep, each computed once from its rows. The
    monotonicity rules gate, and so does the quotient bound of an
    extrapolation; its bands (lam^eps, the energy gap, the last deviation),
    the lam^eps gap at the tail, the settling of C1 and `decay_report`'s
    bands never gate."""
    rows, ex = result.rows, result.extrapolation
    compared = all(r.max_green_dev is not None for r in rows)
    gaps = [abs(r.lam_pow_eps - 1.0) for r in rows]
    checks = [Check("lambda_increasing", _increasing([r.lam for r in rows])),
              Check("lambda_dist_increasing", _increasing([r.lam_dist for r in rows])),
              Check("s_omega_decreasing", _increasing([r.s_omega for r in rows][::-1]))]
    if len(rows) >= 2 and compared:
        # nonincreasing per comparison point beyond the first row; the
        # jitter allowance is additive on the deviation scale (once the
        # leading error cancels, |deviation| crosses zero and cannot be
        # multiplicatively monotone)
        per_point = [[max(pd.dev_u, pd.dev_v) for pd in devs if pd.dev_u is not None]
                     for devs in zip(*(r.green_devs for r in rows), strict=True)]
        checks.append(Check("green_dev_nonincreasing", not any(
            b > a + _GREEN_DEV_JITTER
            for seq in per_point for a, b in zip(seq[1:-1], seq[2:], strict=True)),
            note=f"per comparison point, additive jitter {_GREEN_DEV_JITTER:g}"))
    if ex is not None:
        band, gap, dev = 0.1, 0.1, 0.15  # of |lam^eps - 1|, the energy gap, the last deviation
        checks += [Check.bound("quotient_bound", -min(ex.bound_margins), QUOTIENT_BOUND_SLACK,
                               note="the least margin of Theta(eps) <= "
                                    "S_hat^{-1} |Omega|^{1/(q+1)-1/(q0+1)}, negated"),
                   Check.bound("lam_pow_eps_band", max(gaps), band, strict=True, gating=False),
                   Check.bound("energy_limit_gap", ex.e_rel_gap, gap, strict=True, gating=False)]
        if compared:
            checks.append(Check.bound("green_dev_final", rows[-1].max_green_dev, dev, strict=True,
                                      gating=False))
    if len(rows) >= 2:
        checks.append(Check("lam_pow_eps_gap_decreasing_tail", gaps[-1] < gaps[-2], gating=False,
                            note="|lam^eps - 1| of the last row below the row before"))
    if len(rows) >= 3:
        c1 = [r.constants.c1 for r in rows]
        steps = [abs(b - a) / a for a, b in zip(c1[:-1], c1[1:], strict=True)]
        checks.append(Check("c1_stabilizing", _increasing(steps[::-1]), gating=False,
                            note="relative steps of C1 decreasing"))
    return checks + result.decay_checks
