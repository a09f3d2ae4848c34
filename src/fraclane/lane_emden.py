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
grid nodes it stands for. Every inverse, power and clamp is then bitwise the
full loop's; only the summation order of the norms differs, so Theta, the
residual and the clamped fraction agree to rounding and the iteration path
is the same. The rescaling, the final v, the residual check and the
eigen-coefficients of u and v come from the same cell, and u, v, w are
mirrored back once, at the end. Any other start runs the same loop and the
same post-processing on every node, through `_GridInverse`. The two are
node sets with one interface (see `fractional_calculus`), and `_iterate` and
`_solution` read nothing else of them; `_CellInverse` decides its own
weights. `solution_fields` rebuilds u and v from w alone by `_solution`'s
own steps, on the node set `_node_set` picks for it, so a caller that keeps
only w gets the pair's u and v back bit for bit: every sweep keeps its last
row's w alone and takes that row's u and v from it. Its clamp of v is the
solve's, bit for bit, so it does not warn again.

After the loop, the energy and the Sobolev quotient are full-grid sums. Each
power they take goes into one work array, in place (`_power`, and `lp_norm`
with that array as `out`), so they hold at most one full-grid temporary
beside u, v and w.

Each iteration reads each array as few times as it can. Every norm is one
sum of the products of two fields the loop already holds, taken in its work
array (`_weighted_sum`). No pass
scans for non-finite values: the minimum each clamp takes and each norm sum
are checked instead, and a NaN or infinite node, an overflowing power
included, makes one of them non-finite. The sup residual is formed only once
Theta has settled, and on the last allowed iteration. The clamp policy lives
here: `_clamp_in_place`, its warn level `_CLAMP_WARN_FRACTION`, the hard
budget `_POSITIVITY_BUDGET` and `_check_finite`. A solve that clamps more
than the budget is refused with its grid and cutoff named, since a finer grid
resolves under-resolution ringing. `solve_checks` holds the solve command's
checks, the solver's own budgets among them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fractional_calculus import (
    THRESHOLD_TOL,
    Check,
    _CellInverse,
    _GridInverse,
    apply_inverse,
)
from .spectral_domain import (
    Grid,
    GridFunction,
    SpectralBasis,
    SpectralField,
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
    """Exponents (p, q) with the standing hypotheses n > 2s and
    q >= p > 2s/(n-2s), on or below the critical hyperbola (epsilon >= 0).

    This is the one place these hypotheses are checked: `solve_q_epsilon`
    builds the pair of every q it returns, so `critical_q`, `SweepConfig`,
    `hls_quotient` and the CLI check them through it. q >= p and
    epsilon >= 0 hold within `THRESHOLD_TOL`, so a pair on either threshold,
    the diagonal critical pair p = q0 among them, is accepted whichever way
    its rounding falls; a NaN exponent fails every comparison and is refused.

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
        if not self.q >= self.p - THRESHOLD_TOL:
            eps_max = hyperbola_gap(self.p, self.p, self.n, self.s)
            raise ValueError(f"hypothesis q >= p violated: q={self.q} < p={self.p} "
                             f"(admissible epsilon <= {eps_max:.6g})")
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

    Errors when epsilon < 0 or no q exists (1/(q+1) <= 0, then
    p <= 2s/(n-2s)); the pair (p, q) is then checked by building its
    `ExponentPair`, which refuses q < p (epsilon above 2/(p+1) - (n-2s)/n)
    and every other broken hypothesis.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    inv = (n - 2.0 * s) / n + epsilon - 1.0 / (p + 1.0)
    if inv <= 0:
        raise ValueError(f"hypothesis p > 2s/(n-2s) violated: p={p} leaves the hyperbola "
                         f"family at epsilon={epsilon} (1/(q+1) <= 0)")
    q = 1.0 / inv - 1.0
    ExponentPair(p, q, n, s)
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
    # the eigen-coefficients of u and v that `energy` read; a caller that
    # evaluates u or v off the grid synthesizes from them
    coefficients: tuple[SpectralField, SpectralField] = field(repr=False)
    node_set: str  # "cell" (`_CellInverse`) or "full" (`_GridInverse`): where the loop ran
    converged: bool = True

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.iterations < 1:
            raise ValueError("report needs at least one iteration")


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
# max(1, Theta), the clamped L1 mass fraction above which a clamp warns, and
# the largest one the clamps may remove.
_ASCENT_SLACK = 1e-12
_CLAMP_WARN_FRACTION = 1e-8
_POSITIVITY_BUDGET = 1e-4
_POSITIVITY_NOTE = (f"warn level {_CLAMP_WARN_FRACTION:.0e}; "
                    f"hard budget {_POSITIVITY_BUDGET:.0e}").replace("e-0", "e-")
_IDENTITY_BUDGET = 1e-6  # the relative gap an `identity_report` identity may show

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


def _check_finite(total: float) -> float:
    """`total`, a minimum or a sum of nonnegative products over node values,
    refused as a `GridFunction` refuses non-finite values unless it is
    finite: a NaN node makes either NaN, a -inf node the minimum -inf, and a
    +inf node or an overflow the sum +inf."""
    if not math.isfinite(total):
        raise ValueError("grid function carries non-finite values")
    return total


def _clamp_in_place(values: np.ndarray, weights, context: str | None) -> float:
    """Zero out the negative ringing of `values` in place, each node's mass
    counted `weights` times (a node set's `weights`), and return the removed
    L1 mass fraction. Warns, for the caller's caller, when that fraction
    exceeds `_CLAMP_WARN_FRACTION`: the exact inverse is
    positivity-preserving, so larger clamps indicate an under-resolved field.
    A `context` of None clamps without a warning: a rebuild of a clamp that
    was already warned about. The minimum it takes is checked by
    `_check_finite`, so a NaN or -inf node raises."""
    if not _check_finite(float(values.min())) < 0.0:
        return 0.0
    neg = values < 0.0
    mass = np.abs(values) * weights
    total = float(np.sum(mass))
    fraction = float(np.sum(mass[neg])) / total if total > 0 else 0.0
    if context is not None and fraction > _CLAMP_WARN_FRACTION:
        warnings.warn(
            f"clamped {fraction:.3e} of L1 mass to restore positivity"
            + (f" ({context})" if context else ""),
            stacklevel=3,
        )
    values[neg] = 0.0
    return fraction


def _weighted_sum(a: np.ndarray, b: np.ndarray, weights, work: np.ndarray) -> float:
    """sum(a * b * weights), checked finite: the products go into `work`
    and NumPy's pairwise sum adds them, with no BLAS call, so the order of
    the sum does not depend on the BLAS thread count. Scalar weights scale
    the sum, not each product: for a power of two that is bitwise the same.
    An array of weights multiplies the products in `work`."""
    np.multiply(a, b, out=work)
    if np.ndim(weights) != 0:
        return _check_finite(float(np.multiply(work, weights, out=work).sum()))
    return _check_finite(float(work.sum()) * weights)


def _iterate(
    w: np.ndarray,
    nodes: _CellInverse | _GridInverse,
    exponents: ExponentPair,
    cell: float,
    theta_tol: float,
    residual_tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, list[float], int, float, float]:
    """The fixed-point loop of `solve_ground_state` from a normalized w.

    `w` holds the values on `nodes`, a node set: `nodes(values, out)` returns
    (-Delta)^{-s} of such values, written into `out` or into a new array, and
    `nodes.weights` counts the grid nodes each node stands for, so every norm
    and clamp fraction is the full grid's, with `cell` the volume of one grid
    cell. On a fundamental cell every inverse, power and clamp is bitwise the
    full loop's, and only the summation order of the norms differs.

    Returns (w, theta, theta_history, iterations, residual, clamp_max). The
    loop writes into `w`; its other work arrays are allocated once, and the
    powers, clamps and cell inverses write into them with `out=`. w^{1/q} is
    carried from one iteration to the next, and every field is nonnegative,
    so each norm reuses a power already taken: one v^p and one t^q per
    iteration, and each norm is one sum of products (`_weighted_sum`).

    No pass scans for non-finite values. Each inverse is clamped, and the
    minimum the clamp takes is NaN or -inf if a node is; each norm sum is a
    sum of nonnegative products, so it is NaN or +inf if a node of v, v^p, w,
    w^{1/q}, t or t^q is, overflow of a power included. Both are checked
    (`_check_finite`), so a non-finite value raises in the iteration that
    made it, and no field leaves the loop unchecked. The relative sup
    residual of (-Delta)^{-s} v^p = mu w^{1/q} is formed only when Theta has
    settled (its relative change below `theta_tol`) and on the last allowed
    iteration, whose residual the non-convergence message gives.
    """
    p, q = exponents.p, exponents.q
    qnorm = (q + 1.0) / q
    weights = nodes.weights
    w_root = w ** (1.0 / q)
    v, v_pow, t, work = (np.empty_like(w) for _ in range(4))

    theta_history = []
    clamp_max = 0.0
    theta_prev = None
    residual = math.inf
    for it in range(1, max_iter + 1):
        v = nodes(w, v)
        c1 = _clamp_in_place(v, weights, "inner inverse")
        np.power(v, p, out=v_pow)
        t = nodes(v_pow, t)
        c2 = _clamp_in_place(t, weights, "outer inverse")
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

        rel_change = (
            math.inf if theta_prev is None else abs(theta - theta_prev) / theta
        )
        theta_prev = theta
        if rel_change < theta_tol or it == max_iter:
            mu = theta ** (p + 1.0)
            np.multiply(w_root, mu, out=work)
            np.subtract(t, work, out=work)
            residual = float(np.max(np.abs(work, out=work))) / max(
                mu * float(np.max(w_root)), 1e-300
            )
            if rel_change < theta_tol and residual < residual_tol:
                return w, theta, theta_history, it, residual, clamp_max

        np.power(t, q, out=w)
        norm = (cell * _weighted_sum(t, w, weights, work)) ** (1.0 / qnorm)
        if norm == 0.0:
            raise ConvergenceError("iteration collapsed to zero")
        w /= norm
        np.divide(t, norm ** (1.0 / q), out=w_root)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        diagnostics={"theta_history": np.asarray(theta_history)},
    )


def _clamped_inverse(values: np.ndarray, nodes: _CellInverse | _GridInverse,
                     context: str | None) -> np.ndarray:
    """(-Delta)^{-s} of node values, its negative ringing clamped and warned
    about in `context` by `_clamp_in_place`, which refuses a NaN or -inf
    result."""
    out = nodes(values, np.empty_like(values))
    _clamp_in_place(out, nodes.weights, context)
    return out


def _u_and_v(w: np.ndarray, nodes: _CellInverse | _GridInverse, q: float,
             context: str | None) -> tuple[np.ndarray, np.ndarray]:
    """u = w^{1/q} and the clamped v = (-Delta)^{-s} w of a solution's w, on
    `nodes`, the clamp warned about in `context`."""
    v = _clamped_inverse(w, nodes, context)
    return w ** (1.0 / q), v


def _node_set(values: np.ndarray, basis: SpectralBasis,
              grid: Grid) -> tuple[str, _CellInverse | _GridInverse, np.ndarray]:
    """The node set a field's loop runs on, its name and the field's values on
    it: the fundamental cell if `values` is bitwise mirror-symmetric, else
    every node."""
    cell = _CellInverse.cell_of(values)
    if cell is None:
        return "full", _GridInverse(basis, grid), values
    return "cell", _CellInverse(basis, grid), cell


def solution_fields(w: GridFunction, exponents: ExponentPair,
                    basis: SpectralBasis) -> tuple[GridFunction, GridFunction]:
    """u and v of a solution from its w alone, on the node set
    `solve_ground_state` picks for w and by `_solution`'s own steps: bit for
    bit the pair's u and v, so a caller may keep w and drop them, as every
    sweep does until it rescales its last row. The clamp of v is bitwise the
    solve's, which warned about it, so it warns nothing."""
    _, nodes, values = _node_set(w.values, basis, w.grid)
    u, v = _u_and_v(values, nodes, exponents.q, None)
    return GridFunction(w.grid, nodes.extend(u)), GridFunction(w.grid, nodes.extend(v))


def _solution(w: np.ndarray, theta: float, nodes: _CellInverse | _GridInverse,
              exponents: ExponentPair,
              grid: Grid) -> tuple[SolutionPair, float, tuple[SpectralField, SpectralField]]:
    """Scale the loop's normalized maximizer w (on `nodes`, overwritten) by
    Theta^{-q(p+1)/(pq-1)} into a solution of the integral equation, read off
    v = (-Delta)^{-s} w and u = w^{1/q}, check (-Delta)^{-s} v^p = u and
    analyze u and v, all on the loop's nodes. Returns the pair on the full
    grid, the relative sup residual of the check and the coefficients of u
    and v."""
    p, q = exponents.p, exponents.q
    w *= theta ** (-q * (p + 1.0) / (p * q - 1.0))
    u, v = _u_and_v(w, nodes, q, "final v")
    lhs = _clamped_inverse(v**p, nodes, "residual check")
    residual_w = float(np.max(np.abs(lhs - u))) / max(float(u.max()), 1e-300)
    coefficients = (nodes.coefficients(u), nodes.coefficients(v))
    del lhs
    # one field at a time, so each node-set copy goes as its full-grid field comes
    u = GridFunction(grid, nodes.extend(u))
    v = GridFunction(grid, nodes.extend(v))
    w = GridFunction(grid, nodes.extend(w))
    return SolutionPair(u=u, v=v, w=w, exponents=exponents), residual_w, coefficients


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
    of another (n, s) than the basis's box, an `init` on another grid, and a
    stopping rule it cannot meet.
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

    if init is None:
        w = _first_eigenfunction(basis, grid)
    else:
        if (init.grid.shape, init.grid.domain.lengths) != (grid.shape, grid.domain.lengths):
            raise ValueError(f"init lives on the {init.grid.shape} grid of the box "
                             f"{init.grid.domain.lengths}, not on the solver's {grid.shape} grid "
                             f"of the box {grid.domain.lengths}")
        if init.min() < 0 or init.max() <= 0:
            raise ValueError("init must be nonnegative and nontrivial")
        w = init
    # the loop runs on the fundamental cell if the normalized start is
    # bitwise mirror-symmetric, else on every node
    w = w.values / lp_norm(w, (exponents.q + 1.0) / exponents.q)
    node_set, nodes, w = _node_set(w, basis, grid)
    w, theta, theta_history, it, residual, clamp_max = _iterate(
        w, nodes, exponents, grid.cell_volume, theta_tol, residual_tol, max_iter)
    if clamp_max > _POSITIVITY_BUDGET:
        raise ConvergenceError(
            f"positivity lost beyond clamp budget {_POSITIVITY_BUDGET:.1e}: "
            f"{clamp_max:.3e} of L1 mass clamped on the {grid.shape} grid with cutoff "
            f"{basis.cutoff}; a finer grid resolves under-resolution ringing"
        )

    pair, residual_w, coefficients = _solution(w, theta, nodes, exponents, grid)
    del nodes, w  # the loop's operator and node values go before the full-grid sums

    report = SolveReport(
        theta=theta,
        mu=theta ** (exponents.p + 1.0),
        energy=energy(pair, basis, coefficients),
        sobolev_quotient=sobolev_quotient(pair),
        iterations=it,
        residual_el=residual,
        residual_w=residual_w,
        theta_history=np.asarray(theta_history),
        clamped_fraction_max=clamp_max,
        coefficients=coefficients,
        node_set=node_set,
    )
    return pair, report


def energy(pair: SolutionPair, basis: SpectralBasis,
           coefficients: tuple[SpectralField, SpectralField]) -> float:
    """Direct energy: the s/2-bilinear term spectrally minus the potential
    terms. The bilinear term is sum_k lambda_k^s a_k b_k for `coefficients`,
    the eigen-coefficients a, b of u, v."""
    p, q = pair.exponents.p, pair.exponents.q
    a, b = (c.coefficients for c in coefficients)
    # lambda_k^s taken here, not from the cached table: a table kept alive
    # across a sweep would sit under every later row's peak
    bilinear = float(np.sum(basis.eigenvalue_grid ** pair.exponents.s * a * b))
    work = np.empty_like(pair.v.values)
    int_v = integrate(_power(pair.v, p + 1.0, work))
    int_u = integrate(_power(pair.u, q + 1.0, work))
    return bilinear - int_v / (p + 1.0) - int_u / (q + 1.0)


def _power(f: GridFunction, exponent: float, out: np.ndarray) -> GridFunction:
    """`f.with_values(f.values ** exponent)` with the power taken in `out`, in
    place, by `**`'s own exponent dispatch: the post-solve sums take their
    powers in one work array, one after the other."""
    np.copyto(out, f.values)
    out **= exponent
    return f.with_values(out)


def energy_reduced(pair: SolutionPair) -> float:
    """Shortcut form (1 - 1/(p+1) - 1/(q+1)) int w^{(q+1)/q}, valid at solutions."""
    p, q = pair.exponents.p, pair.exponents.q
    factor = 1.0 - 1.0 / (p + 1.0) - 1.0 / (q + 1.0)
    return factor * integrate(pair.w.with_values(pair.w.values ** ((q + 1.0) / q)))


def sobolev_quotient(pair: SolutionPair) -> float:
    """S(Omega) = ||(-Delta)^s u||_{(p+1)/p} / ||u||_{q+1} using (-Delta)^s u = v^p."""
    p, q = pair.exponents.p, pair.exponents.q
    work = np.empty_like(pair.v.values)
    num = lp_norm(_power(pair.v, p, work), (p + 1.0) / p, out=work)
    den = lp_norm(pair.u, q + 1.0, out=work)
    return num / den


def identity_report(pair: SolutionPair, basis: SpectralBasis, energy_direct: float) -> dict:
    """Relative gaps of the algebraic identities that hold at exact solutions,
    against the pair's direct energy `energy_direct` (`SolveReport.energy`).

    Keys: a75 (int v^{p+1} = int u^{q+1}), a74 (||(-Delta)^{-s}w||_{p+1}^{p+1}
    = ||w||^{(q+1)/q}), a80 (reduced energy vs direct), a7 (the quotient form
    factor * [||w|| / ||(-Delta)^{-s}w||]^{(p+1)(q+1)/(pq-1)} vs direct).
    """
    p, q = pair.exponents.p, pair.exponents.q
    qnorm = (q + 1.0) / q
    int_v = integrate(pair.v.with_values(pair.v.values ** (p + 1.0)))
    int_u = integrate(pair.u.with_values(pair.u.values ** (q + 1.0)))
    norm_v = lp_norm(apply_inverse(pair.w, basis), p + 1.0)
    norm_w = lp_norm(pair.w, qnorm)
    factor = 1.0 - 1.0 / (p + 1.0) - 1.0 / (q + 1.0)
    energy_quotient = factor * (norm_w / norm_v) ** ((p + 1.0) * (q + 1.0) / (p * q - 1.0))

    def gap(value, exact):
        return abs(value - exact) / abs(exact)

    return {"a75": gap(int_v, int_u), "a74": gap(norm_v ** (p + 1.0), norm_w ** qnorm),
            "a80": gap(energy_reduced(pair), energy_direct),
            "a7": gap(energy_quotient, energy_direct)}


def solve_checks(pair: SolutionPair, report: SolveReport, basis: SpectralBasis,
                 residual_tol: float) -> list[Check]:
    """The checks of a solve run with `residual_tol`; the ascent rule's value
    is the worst step's Theta decrease beyond its own `ascent_budget`."""
    excess = -np.diff(report.theta_history) - ascent_budget(report.theta_history[:-1])
    gaps, tol = identity_report(pair, basis, report.energy), _IDENTITY_BUDGET
    return [
        Check("converged", report.converged),
        Check.bound("residual_w", report.residual_w, 10 * residual_tol),
        Check.bound("theta_nondecreasing", excess.max() if excess.size else 0.0, 0.0,
                    note="the worst step's Theta decrease beyond its ascent budget"),
        *(Check.bound(f"identity_{key}", gap, tol) for key, gap in gaps.items()),
        Check.bound("positivity_clamp", report.clamped_fraction_max, _POSITIVITY_BUDGET,
                    note=_POSITIVITY_NOTE),
    ]
