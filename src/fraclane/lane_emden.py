"""Minimal-energy ground states of the box Lane-Emden system via the
quotient-maximizing fixed point.

The solver works on the integral form w^{1/q} = (-Delta)^{-s}((-Delta)^{-s} w)^p
and iterates

    w  <-  normalize_{L^{(q+1)/q}}( [ (-Delta)^{-s} ((-Delta)^{-s} w)^p ]^q ),

whose fixed points are exactly the Euler-Lagrange points of the quotient

    Theta(w) = ||(-Delta)^{-s} w||_{p+1} / ||w||_{(q+1)/q}.

Ascent of Theta along the iteration is verified per run (logged), not
assumed; a decrease beyond slack aborts with diagnostics. The converged
normalized maximizer w1 satisfies (-Delta)^{-s}((-Delta)^{-s} w1)^p =
mu w1^{1/q} with mu = Theta^{p+1}; scaling by t = Theta^{-q(p+1)/(pq-1)}
turns it into a true solution of the integral equation, from which
u = w^{1/q} and v = (-Delta)^{-s} w are read off.

A box is symmetric about each mid-plane, and (-Delta)^{-s} and the pointwise
powers keep that symmetry bit for bit. So when the normalized start is
bitwise mirror-symmetric, as the first eigenfunction and every warm start
from an earlier solution are, the loop runs on the fundamental cell (the
first ceil(m_i/2) nodes per axis) through `_CellInverse`, which holds the
odd-k half of the transforms and weights each cell node by the number of
grid nodes it stands for; the full w is mirrored back once, after the loop.
Every inverse, power and clamp is then bitwise the full loop's; only the
summation order of the norms differs, so Theta, the residual and the
clamped fraction agree to rounding and the iteration path is the same. Any
other start runs the same loop on the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractional_calculus import (
    THRESHOLD_TOL,
    _CellInverse,
    _clamp_in_place,
    apply_inverse,
    clamp_nonnegative,
)
from .spectral_domain import (
    Grid,
    GridFunction,
    SpectralBasis,
    SpectralField,
    analyze,
    integrate,
    lp_norm,
    synthesize,
)


class CriticalPairError(ValueError):
    """Critical pairs (epsilon = 0) are rejected by the solver: compactness fails."""


def hyperbola_gap(p: float, q: float, n: int, s: float) -> float:
    """1/(p+1) + 1/(q+1) - (n-2s)/n: zero on the critical hyperbola, > 0 below it."""
    return 1.0 / (p + 1.0) + 1.0 / (q + 1.0) - (n - 2.0 * s) / n


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class ExponentPair:
    """Exponents (p, q) with the standing hypothesis q >= p > 2s/(n-2s).

    epsilon = `hyperbola_gap`(p, q, n, s) measures the distance to the
    critical hyperbola; epsilon > 0 is the subcritical (solvable) regime.
    """

    p: float
    q: float
    n: int
    s: float

    def __post_init__(self):
        if not self.n > 2 * self.s:
            raise ValueError(f"hypothesis n > 2s violated: n={self.n}, s={self.s}")
        lower = 2 * self.s / (self.n - 2 * self.s)
        if not self.p > lower:
            raise ValueError(
                f"hypothesis p > 2s/(n-2s) violated: p={self.p} <= {lower:.6g}"
            )
        if not self.q >= self.p:
            raise ValueError(f"hypothesis q >= p violated: q={self.q} < p={self.p}")
        if self.epsilon < -THRESHOLD_TOL:
            raise ValueError(
                f"pair (p, q)=({self.p}, {self.q}) is supercritical "
                f"(epsilon={self.epsilon:.3e} < 0)"
            )

    @property
    def epsilon(self) -> float:
        return hyperbola_gap(self.p, self.q, self.n, self.s)

    @property
    def subcritical(self) -> bool:
        return self.epsilon > THRESHOLD_TOL

    @property
    def critical(self) -> bool:
        return not self.subcritical


def solve_q_epsilon(p: float, n: int, s: float, epsilon: float) -> float:
    """q on the epsilon-shifted hyperbola: 1/(q+1) = (n-2s)/n + eps - 1/(p+1).

    Errors when the resulting q would violate the q >= p hypothesis
    (epsilon above 2/(p+1) - (n-2s)/n), when no q exists (then
    p <= 2s/(n-2s)) or when epsilon < 0.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    eps_max = hyperbola_gap(p, p, n, s)
    inv = (n - 2.0 * s) / n + epsilon - 1.0 / (p + 1.0)
    if inv <= 0:
        raise ValueError(f"hypothesis p > 2s/(n-2s) violated: p={p} leaves the hyperbola "
                         f"family at epsilon={epsilon} (1/(q+1) <= 0)")
    q = 1.0 / inv - 1.0
    if q < p - THRESHOLD_TOL:
        raise ValueError(
            f"hypothesis q >= p violated at epsilon={epsilon}: q_eps={q:.6g} < p={p} "
            f"(admissible epsilon <= {eps_max:.6g})"
        )
    return q


def critical_q(p: float, n: int, s: float) -> float:
    return solve_q_epsilon(p, n, s, 0.0)


def diagonal_exponent(n: int, s: float) -> float:
    """(n+2s)/(n-2s), where the critical hyperbola meets the diagonal p = q."""
    return (n + 2.0 * s) / (n - 2.0 * s)


def alpha_beta(p: float, q: float, s: float) -> tuple[float, float]:
    """Blow-up exponents alpha = 2s(p+1)/(pq-1), beta = 2s(q+1)/(pq-1)."""
    if p * q <= 1.0:
        raise ValueError(f"alpha/beta need pq > 1, got pq = {p * q}")
    denom = p * q - 1.0
    return 2.0 * s * (p + 1.0) / denom, 2.0 * s * (q + 1.0) / denom


@dataclass
class SolutionPair:
    """Converged (u, v, w) with w = u^q, v = (-Delta)^{-s} w, u = w^{1/q}."""

    u: GridFunction
    v: GridFunction
    w: GridFunction
    exponents: ExponentPair


@dataclass
class SolveReport:
    theta: float
    mu: float
    energy: float
    sobolev_quotient: float
    iterations: int
    residual_el: float
    residual_w: float
    theta_history: np.ndarray
    clamped_fraction_max: float
    converged: bool = True

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.iterations < 1:
            raise ValueError("report needs at least one iteration")


def theta_quotient(w: GridFunction, exponents: ExponentPair, basis: SpectralBasis) -> float:
    """Theta(w) = ||(-Delta)^{-s} w||_{p+1} / ||w||_{(q+1)/q}; zero input rejected.

    Invariant under positive rescaling of w (both norms are 1-homogeneous).
    """
    denom = lp_norm(w, (exponents.q + 1.0) / exponents.q)
    if denom == 0.0:
        raise ValueError("theta quotient of the zero function")
    num = lp_norm(apply_inverse(w, exponents.s, basis), exponents.p + 1.0)
    return num / denom


def _first_eigenfunction(basis: SpectralBasis, grid: Grid) -> GridFunction:
    coeff = np.zeros(basis.cutoff)
    coeff[(0,) * basis.domain.dim] = 1.0
    return synthesize(SpectralField(basis, coeff), grid)


_SYMMETRY_TOL = 1e-10  # sup difference, relative to sup |f|, that still counts as symmetric


def symmetry_classes(f: GridFunction) -> dict:
    """Dihedral symmetries of f on its box: per-axis flips and equal-axis swaps."""
    vals = f.values
    scale = float(np.max(np.abs(vals))) or 1.0
    out = {}
    for axis in range(vals.ndim):
        out[f"flip_{axis}"] = bool(
            np.max(np.abs(vals - np.flip(vals, axis=axis))) <= _SYMMETRY_TOL * scale
        )
    lengths = f.grid.domain.lengths
    for i in range(vals.ndim):
        for j in range(i + 1, vals.ndim):
            if lengths[i] == lengths[j] and vals.shape[i] == vals.shape[j]:
                out[f"swap_{i}{j}"] = bool(
                    np.max(np.abs(vals - np.swapaxes(vals, i, j))) <= _SYMMETRY_TOL * scale
                )
    return out


# The Theta decrease a step may show before the solver aborts, in units of
# max(1, Theta), and the largest L1 mass fraction the clamps may remove.
_ASCENT_SLACK = 1e-12
_POSITIVITY_BUDGET = 1e-4

# The stopping rule of `solve_ground_state` and its iteration cap; `SweepConfig`
# and the CLI default to the same three, and check theirs by `check_stopping_rule`.
THETA_TOL = 1e-9
RESIDUAL_TOL = 1e-7
MAX_ITER = 2000


def check_stopping_rule(theta_tol: float, residual_tol: float, max_iter: int) -> None:
    """Refuse a stopping rule that `solve_ground_state` could never meet:
    it needs max_iter >= 1, theta_tol > 0 and residual_tol > 0."""
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for name, tol in (("theta_tol", theta_tol), ("residual_tol", residual_tol)):
        if not tol > 0:
            raise ValueError(f"{name} must be > 0, got {tol}")


def ascent_budget(theta_prev):
    """The Theta decrease a solver step from `theta_prev` (floats) may show before it aborts."""
    return _ASCENT_SLACK * np.maximum(1.0, theta_prev)


def _check_finite(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`values`, after the check every `GridFunction` makes; `mask` is a
    boolean array of the same shape."""
    if not np.isfinite(values, out=mask).all():
        raise ValueError("grid function carries non-finite values")
    return values


def _weighted_sum(a: np.ndarray, b: np.ndarray, weights, work: np.ndarray) -> float:
    """sum(a * b * weights), through `work`."""
    np.multiply(a, b, out=work)
    work *= weights
    return float(np.sum(work))


def _iterate(
    w: np.ndarray,
    inverse,
    weights,
    exponents: ExponentPair,
    cell: float,
    theta_tol: float,
    residual_tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, list[float], int, float, float]:
    """The fixed-point loop of `solve_ground_state` from a normalized w.

    `w` holds the nodes the loop runs on, `inverse(values, out)` returns
    (-Delta)^{-s} of such values, written into `out` or into a new array, and
    `weights` counts the grid nodes each node stands for, so every norm and
    clamp fraction is the full grid's. On the full grid that is
    `apply_inverse` and 1. On a fundamental cell it is a `_CellInverse` and
    its `weights`: every inverse, power and clamp is bitwise the full loop's,
    and only the summation order of the norms differs.

    Returns (w, theta, theta_history, iterations, residual, clamp_max). The
    loop writes into `w`; its other work arrays are allocated once, and the
    powers, clamps and cell inverses write into them with `out=`. w^{1/q} is
    carried from one iteration to the next, and every field is nonnegative,
    so each norm reuses a power already taken: one v^p and one t^q per
    iteration.
    """
    p, q = exponents.p, exponents.q
    qnorm = (q + 1.0) / q
    finite = np.empty(w.shape, dtype=bool)
    w_root = _check_finite(w, finite) ** (1.0 / q)
    v, v_pow, t, work = (np.empty_like(w) for _ in range(4))

    theta_history = []
    clamp_max = 0.0
    theta_prev = None
    residual = math.inf
    for it in range(1, max_iter + 1):
        v = inverse(w, v)
        c1 = _clamp_in_place(_check_finite(v, finite), weights, "inner inverse")
        np.power(v, p, out=v_pow)
        t = inverse(_check_finite(v_pow, finite), t)
        c2 = _clamp_in_place(_check_finite(t, finite), weights, "outer inverse")
        clamp_max = max(clamp_max, c1, c2)

        v_norm = (cell * _weighted_sum(v, v_pow, weights, work)) ** (1.0 / (p + 1.0))
        w_norm = (cell * _weighted_sum(w, w_root, weights, work)) ** (1.0 / qnorm)
        theta = v_norm / w_norm
        theta_history.append(theta)
        if theta_prev is not None and theta < theta_prev - ascent_budget(theta_prev):
            raise ConvergenceError(
                f"Theta decreased at iteration {it}: {theta_prev!r} -> {theta!r}",
                diagnostics={
                    "iteration": it,
                    "theta_history": np.asarray(theta_history),
                },
            )

        mu = theta ** (p + 1.0)
        np.multiply(w_root, mu, out=work)
        np.subtract(t, work, out=work)
        residual = float(np.max(np.abs(work, out=work))) / max(
            mu * float(np.max(w_root)), 1e-300
        )
        rel_change = (
            math.inf if theta_prev is None else abs(theta - theta_prev) / theta
        )
        theta_prev = theta
        if rel_change < theta_tol and residual < residual_tol:
            return w, theta, theta_history, it, residual, clamp_max

        np.power(t, q, out=w)
        norm = (cell * _weighted_sum(t, w, weights, work)) ** (1.0 / qnorm)
        if norm == 0.0:
            raise ConvergenceError("iteration collapsed to zero")
        w /= norm
        _check_finite(w, finite)
        np.divide(t, norm ** (1.0 / q), out=w_root)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        diagnostics={"theta_history": np.asarray(theta_history)},
    )


def _fixed_point(
    w: np.ndarray,
    exponents: ExponentPair,
    basis: SpectralBasis,
    grid: Grid,
    theta_tol: float,
    residual_tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, list[float], int, float, float]:
    """`_iterate` from the normalized w on the full grid: on its fundamental
    cell if w is bitwise mirror-symmetric, else on every node. Returns what
    `_iterate` does, with w on the full grid; the loop's operator and work
    arrays die with this frame, before the caller builds the solution."""
    s = exponents.s
    cell = _CellInverse.cell_of(w)
    if cell is None:
        def inverse(values, out):
            return apply_inverse(GridFunction(grid, values), s, basis).values

        return _iterate(w, inverse, 1.0, exponents, grid.cell_volume,
                        theta_tol, residual_tol, max_iter)
    inverse = _CellInverse(basis, grid, s)
    cell, *rest = _iterate(cell, inverse, inverse.weights, exponents, grid.cell_volume,
                           theta_tol, residual_tol, max_iter)
    return (inverse.extend(cell), *rest)


def solve_ground_state(
    exponents: ExponentPair,
    basis: SpectralBasis,
    grid: Grid,
    init: GridFunction | None = None,
    theta_tol: float = THETA_TOL,
    residual_tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> tuple[SolutionPair, SolveReport]:
    """Normalized fixed-point iteration for the Theta-maximizing ground state.

    Stops when the relative Theta change drops below `theta_tol` AND the
    relative sup residual of (-Delta)^{-s}((-Delta)^{-s} w)^p = mu w^{1/q}
    drops below `residual_tol`. Raises on non-convergence, on loss of
    positivity beyond 1e-4 of L1 mass (sub-budget truncation ringing is
    clamped and reported; clamps above 1e-8 of L1 mass warn), and on any
    Theta decrease beyond 1e-12 max(1, Theta) (ascent is an observed property,
    checked every step). Refuses, before iterating, a critical pair, exponents
    of another (n, s) than the basis's box, and a stopping rule it cannot meet.
    """
    if exponents.critical:
        raise CriticalPairError(
            "critical pair (epsilon = 0): the embedding is not compact and the "
            "maximizer may not exist; solve_ground_state requires epsilon > 0"
        )
    if (exponents.n, exponents.s) != (basis.domain.dim, basis.domain.s):
        raise ValueError(f"exponents of (n, s) = {exponents.n, exponents.s} do not belong to the "
                         f"basis's box, (n, s) = {basis.domain.dim, basis.domain.s}")
    check_stopping_rule(theta_tol, residual_tol, max_iter)
    p, q, s = exponents.p, exponents.q, exponents.s
    qnorm = (q + 1.0) / q

    if init is None:
        w = _first_eigenfunction(basis, grid)
    else:
        if init.min() < 0 or init.max() <= 0:
            raise ValueError("init must be nonnegative and nontrivial")
        w = init
    w, theta, theta_history, it, residual, clamp_max = _fixed_point(
        w.values / lp_norm(w, qnorm), exponents, basis, grid, theta_tol, residual_tol, max_iter
    )
    w = GridFunction(grid, w)
    if clamp_max > _POSITIVITY_BUDGET:
        raise ConvergenceError(
            f"positivity lost beyond clamp budget {_POSITIVITY_BUDGET:.1e}: "
            f"{clamp_max:.3e} of L1 mass clamped"
        )

    # scale the normalized maximizer into a solution of the integral equation
    t_scale = theta ** (-q * (p + 1.0) / (p * q - 1.0))
    w_final = w.with_values(t_scale * w.values)
    v_final, _ = clamp_nonnegative(apply_inverse(w_final, s, basis), context="final v")
    u_final = w_final.with_values(w_final.values ** (1.0 / q))
    pair = SolutionPair(u=u_final, v=v_final, w=w_final, exponents=exponents)

    lhs, _ = clamp_nonnegative(
        apply_inverse(v_final.with_values(v_final.values**p), s, basis),
        context="residual check",
    )
    residual_w = float(np.max(np.abs(lhs.values - u_final.values))) / max(
        u_final.max(), 1e-300
    )

    report = SolveReport(
        theta=theta,
        mu=theta ** (p + 1.0),
        energy=energy(pair, basis),
        sobolev_quotient=sobolev_quotient(pair),
        iterations=it,
        residual_el=residual,
        residual_w=residual_w,
        theta_history=np.asarray(theta_history),
        clamped_fraction_max=clamp_max,
    )
    return pair, report


def energy(pair: SolutionPair, basis: SpectralBasis) -> float:
    """Direct energy: the s/2-bilinear term spectrally minus the potential terms.

    The bilinear term is sum_k lambda_k^s a_k b_k for the coefficients of u, v.
    """
    p, q = pair.exponents.p, pair.exponents.q
    a = analyze(pair.u, basis).coefficients
    b = analyze(pair.v, basis).coefficients
    s = pair.exponents.s
    bilinear = float(np.sum(basis.eigenvalue_grid**s * a * b))
    int_v = integrate(pair.v.with_values(pair.v.values ** (p + 1.0)))
    int_u = integrate(pair.u.with_values(pair.u.values ** (q + 1.0)))
    return bilinear - int_v / (p + 1.0) - int_u / (q + 1.0)


def energy_reduced(pair: SolutionPair) -> float:
    """Shortcut form (1 - 1/(p+1) - 1/(q+1)) int w^{(q+1)/q}, valid at solutions."""
    p, q = pair.exponents.p, pair.exponents.q
    factor = 1.0 - 1.0 / (p + 1.0) - 1.0 / (q + 1.0)
    return factor * integrate(pair.w.with_values(pair.w.values ** ((q + 1.0) / q)))


def energy_from_quotient(pair: SolutionPair, basis: SpectralBasis) -> float:
    """Energy from the quotient alone: factor * [||w||/||(-Delta)^{-s}w||]^((p+1)(q+1)/(pq-1))."""
    p, q, s = pair.exponents.p, pair.exponents.q, pair.exponents.s
    factor = 1.0 - 1.0 / (p + 1.0) - 1.0 / (q + 1.0)
    ratio = lp_norm(pair.w, (q + 1.0) / q) / lp_norm(
        apply_inverse(pair.w, s, basis), p + 1.0
    )
    return factor * ratio ** ((p + 1.0) * (q + 1.0) / (p * q - 1.0))


def sobolev_quotient(pair: SolutionPair) -> float:
    """S(Omega) = ||(-Delta)^s u||_{(p+1)/p} / ||u||_{q+1} using (-Delta)^s u = v^p."""
    p, q = pair.exponents.p, pair.exponents.q
    num = lp_norm(pair.v.with_values(pair.v.values**p), (p + 1.0) / p)
    den = lp_norm(pair.u, q + 1.0)
    return num / den


def identity_report(pair: SolutionPair, basis: SpectralBasis) -> dict:
    """Relative gaps of the algebraic identities that hold at exact solutions.

    Keys: a75 (int v^{p+1} = int u^{q+1}), a74 (||(-Delta)^{-s}w||_{p+1}^{p+1}
    = ||w||^{(q+1)/q}), a80 (reduced energy vs direct), a7 (quotient form vs
    direct).
    """
    p, q, s = pair.exponents.p, pair.exponents.q, pair.exponents.s
    int_v = integrate(pair.v.with_values(pair.v.values ** (p + 1.0)))
    int_u = integrate(pair.u.with_values(pair.u.values ** (q + 1.0)))
    a75 = abs(int_v - int_u) / abs(int_u)

    lhs = lp_norm(apply_inverse(pair.w, s, basis), p + 1.0) ** (p + 1.0)
    rhs = lp_norm(pair.w, (q + 1.0) / q) ** ((q + 1.0) / q)
    a74 = abs(lhs - rhs) / abs(rhs)

    e_direct = energy(pair, basis)
    a80 = abs(energy_reduced(pair) - e_direct) / abs(e_direct)
    a7 = abs(energy_from_quotient(pair, basis) - e_direct) / abs(e_direct)
    return {"a75": a75, "a74": a74, "a80": a80, "a7": a7}
