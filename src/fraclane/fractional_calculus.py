"""Spectral fractional Laplacian, its inverse, and the Green-function family.

The operator acts by eigenvalue multipliers: (-Delta)^s sum a_k phi_k =
sum a_k lambda_k^s phi_k. The Dirichlet Green function of the box is the
eigen-sum G(x, y) = sum_k lambda_k^{-s} phi_k(x) phi_k(y), bounded above by
the free-space kernel g_{n,s} |x-y|^{2s-n}; its regular part is the
difference H = free - G. The iterated kernel solves
(-Delta_x)^s Gt(x, y) = G^p(x, y) and is computed as
Gt(x, y) = int_Omega G(x, z) G^p(z, y) dz with polar-corrected patches
around both integrable singularities.

The eigenvalue multipliers lambda_k^{+-s} are cached per (basis, exponent)
and shared by `apply_inverse`, `apply_fraclap` and the pointwise kernels. The
pointwise kernels take batches of point pairs and evaluate G(x, y) with
`_contract`, the contraction of `synthesize_at`, on each pair's products of
sine rows.
`g_tilde` takes a batch of points x against one y: the sine rows of y and
every x come from one table per axis and their ring estimates of the
regular part from one `regular_part` batch, and the y side is built once per
call (G(y, .) on its grid, y's patch and polar nodes, and G(x, .) at those
nodes for every x by one `_contract_separable` per patch rule, whose GEMM
over y's distinct last-axis rows is shared by the x's with equal last
coordinates); its default grid is built per call, and its transforms find
the half sine matrices cached on each axis' (L, K, m).
Gauss-Legendre rules, which `hls_limit` uses as well, come from Newton's
method on the Legendre recurrence; each is built once per order and handed
out read-only. The kernels, the node sets and `apply_inverse` read s from
their basis; `apply_fraclap` takes its order, which the semigroup check
varies. The Serrin split `classify_regime`, which every module asks, lives
here, as does `Check`, the record of every report check; `kernel_checks`
holds the kernels command's, on the pairs of its sampler, `KernelSampler`.

A field that is mirror-symmetric about every mid-plane is held by its
fundamental cell, the first ceil(m_i/2) nodes per axis; its mirror
differences and even-k coefficients are exact zeros. `_CellInverse` is the
one owner of that cell: it cuts it out, analyzes it, applies (-Delta)^{-s}
to it, weights its nodes and mirrors it back. It contracts the cell with one
odd-k half sine matrix per distinct axis, shared by the analysis and the
synthesis and by equal axes. The node multiplicity 2 of an even m goes into
one scalar coefficient scale, and only an odd m's axis has an analysis matrix
of its own, weighted 1 on its middle plane; scaling by a power of two is
exact, so the analysis is bitwise `analyze`'s contraction of the fold
head + tail, with no fold pass. With the odd-k half of the multipliers and a
contiguous synthesis chain, its result is bitwise the cell of
`apply_inverse`, and its coefficients are bitwise `analyze` of the full
field. Its node weights are the scalar 2^n when every m_i is even and the
multiplicity array otherwise.

`_CellInverse` and `_GridInverse` are the solver's two node sets, with one
interface: `__call__(values, out)` is (-Delta)^{-s} on the nodes, `weights`
counts the grid nodes each node stands for, `extend` maps node values onto
the full grid and `coefficients` is `analyze` of that field. `_GridInverse`
is the full grid itself, through `apply_inverse`, for a start without the
mirror symmetry.

Eigen-sum truncation is never silently dropped: every kernel sample carries
a tail estimate extrapolated from the decay of the outer mode shells
(a heuristic, flagged as such in reports; the convergence rate is not
quantified anywhere authoritative).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .spectral_domain import (
    Grid,
    GridFunction,
    SpectralBasis,
    SpectralField,
    analyze,
    _check_compatible,
    _contract,
    _contract_separable,
    _half_matrices,
    _points_per_block,
    _sine_factors,
    build_grid,
    check_resolution,
    synthesize,
    synthesize_at,
)


class UnresolvedSingularityError(ValueError):
    """Kernel requested below the basis' resolvable separation."""


class RegimeError(ValueError):
    """Exponent outside the regime an operation is defined for."""


THRESHOLD_TOL = 1e-12  # an exponent this close to a threshold counts as on it


@dataclass
class Check:
    """A named pass/fail record of a report, built by the module that owns
    its rule, and whether it gates. `Check(name, ok)` is a flag (rule
    "flag"); `Check.bound` measures a value against its budget and derives
    the verdict from its rule, "<=" or "<", so a report re-verifies."""

    name: str
    passed: bool
    value: float | None = None
    budget: float | None = None
    rule: str = "flag"
    gating: bool = True
    note: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)  # a NumPy comparison gives a NumPy bool

    @classmethod
    def bound(cls, name: str, value: float, budget: float, strict: bool = False,
              gating: bool = True, note: str = "") -> Check:
        """Passes at value <= budget, or value < budget when `strict`."""
        return cls(name, value < budget if strict else value <= budget, float(value),
                   float(budget), "<" if strict else "<=", gating, note)


def serrin_exponent(n: int, s: float) -> float:
    return n / (n - 2.0 * s)


def classify_regime(p: float, n: int, s: float) -> str:
    """'super' (C2 G), 'serrin' (C3 G, log-normalized) or 'sub' (C4 Gt)."""
    thr = serrin_exponent(n, s)
    if abs(p - thr) <= THRESHOLD_TOL:
        return "serrin"
    if p > thr:
        return "super"
    return "sub"


def _check_iterated_kernel(p: float, n: int, s: float) -> None:
    """The exponents of `g_tilde`: p >= 1, sub-Serrin (where G^p is integrable)."""
    if p < 1.0:
        raise RegimeError(f"iterated kernel requires p >= 1, got p={p}")
    if classify_regime(p, n, s) != "sub":
        raise RegimeError(f"integrability of G^p requires (n - 2s) p < n (sub-Serrin); "
                          f"got p={p}, Serrin exponent {serrin_exponent(n, s)}")


def gns(n: int, s: float) -> float:
    """g_{n,s} = Gamma((n-2s)/2) / (pi^{n/2} 2^{2s} Gamma(s)); finite for n > 2s."""
    if not n > 2 * s:
        raise ValueError(f"free kernel constant needs n > 2s, got n={n}, s={s}")
    return math.gamma((n - 2 * s) / 2.0) / (math.pi ** (n / 2.0) * 2.0 ** (2 * s) * math.gamma(s))


@dataclass(frozen=True)
class KernelSample:
    """Pointwise kernel value plus the estimated eigen-sum tail: floats for
    one pair of points, (P,) arrays for a batch of P pairs."""

    value: float | np.ndarray
    truncation_bound: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.value)):
            raise ValueError("kernel sample is not finite")
        if np.any(self.truncation_bound < 0):
            raise ValueError("truncation bound must be nonnegative")


def free_kernel(x, y, s: float):
    """Free-space kernel g_{n,s} |x-y|^{2s-n} of points (n,) or pairs (P, n),
    n the last axis of the broadcast points; coincident points rejected."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    n = diff.shape[-1]
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d == 0.0):
        raise ValueError("free kernel is singular at coincident points")
    out = gns(n, s) * d ** (2 * s - n)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=16)
def _multipliers(basis: SpectralBasis, exponent: float) -> np.ndarray:
    """Eigenvalue multipliers lambda_k^exponent in tensor layout, read-only."""
    mults = basis.eigenvalue_grid**exponent
    mults.flags.writeable = False
    return mults


def _check_order(s: float) -> None:
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {s}")


def apply_fraclap(f: GridFunction, s: float, basis: SpectralBasis) -> GridFunction:
    """Multiplier action a_k -> lambda_k^s a_k, synthesized back to the grid."""
    _check_order(s)
    field = analyze(f, basis)
    coeff = field.coefficients * _multipliers(basis, s)
    return synthesize(SpectralField(basis, coeff), f.grid)


def apply_inverse(f: GridFunction, basis: SpectralBasis) -> GridFunction:
    """Multiplier action a_k -> lambda_k^{-s} a_k (the Green-kernel integral,
    spectrally), s the order of the basis's box.

    Linear by construction; positivity of the exact operator can surface as a
    small negative ringing on the truncation, which the solver clamps with
    `lane_emden._clamp_in_place` before taking fractional powers.
    """
    field = analyze(f, basis)
    coeff = field.coefficients * _multipliers(basis, -basis.domain.s)
    return synthesize(SpectralField(basis, coeff), f.grid)


class _CellInverse:
    """`apply_inverse` on mirror-symmetric fields, held by their fundamental
    cell (`cell_of`), on one odd-k half sine matrix per distinct axis: equal
    axes share `_half_matrices`' array.

    A call analyzes the cell, scales the odd-k coefficients by the cell
    volume times 2 per even-m axis, multiplies them by the odd-k multipliers
    and synthesizes them back onto the cell. On an even m every cell node
    stands for two grid nodes, a factor the scale carries, so the analysis
    contracts with the shared matrix itself; an odd m's axis has its own
    analysis matrix, the odd half doubled on every row but the middle one.
    Scaling by a power of two is exact, so each analysis is bitwise
    `analyze`'s contraction of its fold head + tail, and the result is
    bitwise the cell of `apply_inverse`.

    The analysis contracts each axis as `analyze` does, node axis in front
    and transposed. A BLAS picks its kernel by the operands' layout and
    shape, and OpenBLAS rounds a contiguous analysis differently from
    `analyze` on some shapes: 25 x 37, 48^2 and 48^3 with every matrix in its
    own layout, 64^2, 128^2 and 1-d with the last one stored transposed.
    The synthesis is a contiguous GEMM chain in `synthesize`'s axis order,
    bitwise on every shape tested: the first axis multiplied from the left,
    the last from the right, a middle one batched over the earlier axes.

    `coefficients` is the same analysis with its even-k modes zero: bitwise
    `analyze` of the full field. `weights` counts the grid nodes each cell
    node stands for (2 per axis, 1 on the middle plane of an odd m), so a
    weighted sum over the cell is the sum over the full grid. When every m_i
    is even that count is the scalar 2^n, and scaling a sum by a power of two
    is exact; otherwise it is an array of the cell's shape. `extend` mirrors
    a cell back onto the full grid. The matrices, multipliers, weights, work
    arrays and their views are built once. `_GridInverse` is the same
    interface on every node of the grid."""

    def __init__(self, basis: SpectralBasis, grid: Grid):
        _check_compatible(basis, grid)
        check_resolution(basis.cutoff, grid.shape)
        self._basis = basis
        self._shape = grid.shape
        self._halves = [m // 2 for m in grid.shape]
        cell = [(m + 1) // 2 for m in grid.shape]
        multiplicity = [np.where(np.arange(c) < h, 2.0, 1.0)
                        for c, h in zip(cell, self._halves, strict=True)]
        odd_m = any(m % 2 for m in grid.shape)
        self.weights = reduce(np.multiply.outer, multiplicity) if odd_m else 2.0**grid.domain.dim
        self._odd = [odd for odd, _ in _half_matrices(basis, grid)]
        weighted = {}  # one analysis matrix per distinct odd-m axis
        self._analysis = [
            weighted.setdefault(id(odd), odd * mult[:, None]) if m % 2 else odd
            for odd, mult, m in zip(self._odd, multiplicity, grid.shape, strict=True)
        ]
        self._scale = grid.cell_volume * 2.0 ** sum(m % 2 == 0 for m in grid.shape)
        # the odd-k entries of _multipliers(basis, -s), taken by the same
        # power from the same eigenvalues; a slice of the cached table would
        # hold all of it, 2^n times their memory, through the solve
        self._odd_modes = (slice(None, None, 2),) * basis.domain.dim
        self._mults = np.ascontiguousarray(basis.eigenvalue_grid[self._odd_modes]) ** -basis.domain.s
        modes = [odd.shape[1] for odd in self._odd]
        # analysis of axis i takes (c_i, X) into (X, Kodd_i), with X the cells
        # of the later axes times the modes of the earlier ones; each step
        # after the first reads the one before as a transposed view
        parts = [np.empty((math.prod(cell[i + 1:]) * math.prod(modes[:i]), modes[i]))
                 for i in range(len(cell))]
        self._first = parts[0]
        self._analysis_steps = [(part.reshape(c, -1).T, analysis, after)
                                for part, c, analysis, after
                                in zip(parts, cell[1:], self._analysis[1:], parts[1:])]
        self._coeff = parts[-1].reshape(modes)
        # synthesis of axis i < last takes (C, Kodd_i, Y) into (C, c_i, Y),
        # with C the cells of the earlier axes and Y the modes of the later
        # ones; the last axis goes from (C, Kodd) into the caller's `out`
        coeff = self._coeff
        self._synthesis_steps = []
        for i, odd in enumerate(self._odd[:-1]):
            nodes = np.empty(cell[:i + 1] + modes[i + 1:])
            batch = math.prod(cell[:i])
            self._synthesis_steps.append((odd, coeff.reshape(batch, modes[i], -1),
                                          nodes.reshape(batch, cell[i], -1)))
            coeff = nodes
        self._last = coeff.reshape(-1, modes[-1]), self._odd[-1].T

    @staticmethod
    def cell_of(values: np.ndarray) -> np.ndarray | None:
        """A copy of the fundamental cell of `values`, the first ceil(m_i/2)
        entries per axis, if `values` equals its flip about every axis bit for
        bit; otherwise None."""
        if not all(np.array_equal(values, np.flip(values, axis)) for axis in range(values.ndim)):
            return None
        return values[tuple(slice((m + 1) // 2) for m in values.shape)].copy()

    def extend(self, cell: np.ndarray) -> np.ndarray:
        """The full mirror-symmetric field whose fundamental cell is `cell`,
        written block by block into one new array: per axis, the cell itself
        and, unless m = 1, its first m//2 entries reversed."""
        full = np.empty(self._shape)
        sides = [[(slice(c), slice(None))]
                 + ([(slice(c, None), slice(h - 1, None, -1))] if h else [])
                 for c, h in zip(cell.shape, self._halves, strict=True)]
        for block in itertools.product(*sides):
            target, source = zip(*block, strict=True)
            full[target] = cell[source]
        return full

    def _analyze(self, values: np.ndarray) -> np.ndarray:
        """The odd-k coefficients of the symmetric field with cell `values`
        (C-contiguous), unscaled, in the operator's buffer."""
        np.matmul(values.reshape(len(self._analysis[0]), -1).T, self._analysis[0], out=self._first)
        for x, analysis, part in self._analysis_steps:
            np.matmul(x, analysis, out=part)
        return self._coeff

    def coefficients(self, values: np.ndarray) -> SpectralField:
        """The eigen-coefficients of the symmetric field with cell `values`
        (C-contiguous), bitwise `analyze` of the full field: even-k modes
        zero."""
        coeff = np.zeros(self._basis.cutoff)
        np.multiply(self._analyze(values), self._scale, out=coeff[self._odd_modes])
        return SpectralField(self._basis, coeff)

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(-Delta)^{-s} of the symmetric field with cell `values` (C-contiguous),
        written into `out` (C-contiguous, the cell's shape) and returned.

        A non-finite node makes NaN or infinite entries, without the warning
        a product with it would give: the solver's clamp and norm sums
        refuse them (`lane_emden._check_finite`)."""
        with np.errstate(invalid="ignore"):
            coeff = self._analyze(values)
            coeff *= self._scale
            coeff *= self._mults
            for odd, before, after in self._synthesis_steps:
                np.matmul(odd, before, out=after)
            before, synthesis = self._last
            np.matmul(before, synthesis, out=out.reshape(len(before), -1))
        return out


class _GridInverse:
    """`_CellInverse`'s interface on every node of the grid, for fields
    without the mirror symmetry: a call is `apply_inverse`, each node stands
    for itself (`weights` 1), `extend` is the identity and `coefficients` is
    `analyze`."""

    weights = 1.0

    def __init__(self, basis: SpectralBasis, grid: Grid):
        self._basis, self._grid = basis, grid

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(-Delta)^{-s} of `values` on the grid, in a new array: `out` is not
        written."""
        return apply_inverse(GridFunction(self._grid, values), self._basis).values

    def extend(self, values: np.ndarray) -> np.ndarray:
        return values

    def coefficients(self, values: np.ndarray) -> SpectralField:
        return analyze(GridFunction(self._grid, values), self._basis)


def operator_algebra_residuals(
    basis: SpectralBasis, grid: Grid, seed: int
) -> tuple[float, float]:
    """Worst relative residuals of (-Delta)^s (-Delta)^{-s} f = f and of the semigroup
    property (-Delta)^{s2} (-Delta)^{s1} f = (-Delta)^{s1+s2} f over two seeded fields."""
    s = basis.domain.s
    rng = np.random.default_rng(seed)
    worst_inv = worst_semi = 0.0
    for _ in range(2):
        f = synthesize(SpectralField(basis, rng.standard_normal(basis.cutoff)), grid)
        scale = float(np.max(np.abs(f.values)))
        back = apply_fraclap(apply_inverse(f, basis), s, basis)
        worst_inv = max(worst_inv, float(np.max(np.abs(back.values - f.values))) / scale)
        s1 = min(0.45, s)
        s2 = min(1.0 - s1, s)
        two = apply_fraclap(apply_fraclap(f, s1, basis), s2, basis)
        one = apply_fraclap(f, s1 + s2, basis)
        semi = float(np.max(np.abs(two.values - one.values))) / float(np.max(np.abs(one.values)))
        worst_semi = max(worst_semi, semi)
    return worst_inv, worst_semi


def resolvability_threshold(basis: SpectralBasis) -> float:
    """Shortest retained wavelength 2 pi / sqrt(lambda_max); kernels refuse below it."""
    return 2.0 * math.pi / math.sqrt(float(basis.eigenvalue_grid[(-1,) * basis.domain.dim]))


# The outer mode shells of the tail estimate: shell j holds the modes whose largest
# k_i / K_i lies in (_SHELL_EDGES[j], _SHELL_EDGES[j+1]] (1 after the last edge), so
# the modes up to an edge e form the box k_i <= e K_i; a shell is a box difference.
_SHELL_EDGES = (0.625, 0.75, 0.875)


def _tail_estimate(shell_sums: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Eigen-sum tail estimate from the three outer mode shells, one row per pair.

    The shell magnitudes of the oscillatory sum decay like a small power of
    the cutoff, so the continued tail is proportional to the outermost shell
    content; the max over the outer three shells guards against accidental
    cancellation in a single shell. The constant 8 was calibrated so the
    estimate dominated a 512-mode reference on 400 sampled interior pairs of
    the unit square with at least 2.5x margin. A heuristic, labeled as such
    wherever reported.
    """
    tail = 8.0 * np.max(np.abs(shell_sums), axis=1)
    return np.maximum(tail, np.abs(value) * 1e-15)


def _interior(domain, points: np.ndarray) -> np.ndarray:
    """Per point (last axis), whether it lies strictly inside the box."""
    return np.all((points > 0.0) & (points < np.asarray(domain.lengths)), axis=-1)


def _check_pairs(basis: SpectralBasis, x: np.ndarray, y: np.ndarray) -> None:
    """Raise on the first pair (last axis) with a point outside the box or a
    separation below the resolvability threshold, where the retained sum is
    meaningless."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    d = np.linalg.norm(x - y, axis=-1)
    thr = resolvability_threshold(basis)
    bad = ~(_interior(basis.domain, x) & _interior(basis.domain, y) & (d >= thr))
    if np.any(bad):
        i = int(np.argmax(bad))
        for pt in (x[i], y[i]):
            if not basis.domain.contains(pt):
                raise ValueError(f"point {tuple(pt)} is not interior to the domain")
        raise UnresolvedSingularityError(f"separation {d[i]:.3e} below resolvable spacing {thr:.3e}")


def green(x, y, basis: SpectralBasis) -> KernelSample:
    """Dirichlet Green function as the truncated eigen-sum, with tail estimate.

    Points (n,) or pairs (P, n), broadcast together; one pair gives float
    fields, P pairs (P,) arrays. The sum contracts lambda_k^{-s} with the
    per-axis products S_i(x_i) S_i(y_i) of sine samples, so it is bitwise
    symmetric; the shell sums of the tail estimate are the same contraction
    on the nested boxes of `_SHELL_EDGES`. Refuses what `_check_pairs` rejects.

    Pointwise convergence of the truncated sum needs 2s > (n-1)/2; at
    n = 3, s = 1/2 it is marginal and generic samples carry O(1) error bars
    (the reported bound covers them). Integrated quantities and the iterated
    kernel remain well convergent there.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    _check_pairs(basis, x, y)
    xs, ys = np.atleast_2d(x), np.atleast_2d(y)
    mults = _multipliers(basis, -basis.domain.s)
    # the edges are multiples of 1/8, so e K_i is exact and k_i / K_i <= e
    # means k_i <= int(e K_i)
    boxes = [tuple(int(e * K) for K in basis.cutoff) for e in _SHELL_EDGES] + [basis.cutoff]
    sums = np.zeros((len(xs), len(boxes)))
    block = _points_per_block(basis.cutoff)
    for start in range(0, len(xs), block):
        rows = slice(start, start + block)
        factors = [basis.sine_samples(axis, xs[rows, axis]) for axis in range(basis.domain.dim)]
        for axis, f in enumerate(factors):
            f *= basis.sine_samples(axis, ys[rows, axis])
        own = np.arange(len(factors[0]))  # each pair has a table row of its own
        for j, box in enumerate(boxes):
            if min(box) > 0:
                sums[rows, j] = _contract(
                    mults[tuple(slice(b) for b in box)],
                    [(f[:, :b], own) for f, b in zip(factors, box, strict=True)],
                )
    value = sums[:, -1]
    tail = _tail_estimate(np.diff(sums, axis=1), value)
    if x.ndim == 1:
        return KernelSample(float(value[0]), float(tail[0]))
    return KernelSample(value, tail)


def regular_part(x, y, basis: SpectralBasis) -> KernelSample:
    """Regular part H = free_kernel - green of points (n,) or pairs (P, n);
    smooth, symmetric, positive."""
    g = green(x, y, basis)
    h = free_kernel(x, y, basis.domain.s) - g.value
    return KernelSample(h, g.truncation_bound)


def kernel_checks(x: np.ndarray, y: np.ndarray, basis: SpectralBasis, grid: Grid,
                  seed: int) -> tuple[dict[str, np.ndarray], list[Check]]:
    """G, its truncation bound, the free kernel, H = free - G and the flag
    0 < G < free + bound at the pairs (x_i, y_i), (P, n) each, by column name;
    and the kernels command's checks."""
    s, tol = basis.domain.s, 1e-12  # the budget of H's symmetry and the operator algebra
    gxy, gyx = green(x, y, basis), green(y, x, basis)
    free = free_kernel(x, y, s)
    h = free - gxy.value
    h_sym = float(np.max(np.abs(h - (free_kernel(y, x, s) - gyx.value)), initial=0.0))
    ok = (0.0 < gxy.value) & (gxy.value < free + gxy.truncation_bound)
    inverse, semigroup = operator_algebra_residuals(basis, grid, seed)
    return {"green": gxy.value, "truncation_bound": gxy.truncation_bound, "free_kernel": free,
            "regular_part": h, "bound_ok": ok}, [
        Check("kernel_bound", np.all(ok), note="0 < G < free + truncation_bound"),
        Check("green_symmetry_exact", np.array_equal(gxy.value, gyx.value)),
        Check.bound("regular_part_symmetry", h_sym, tol),
        Check.bound("operator_inverse_identity", inverse, tol, strict=True),
        Check.bound("operator_semigroup", semigroup, tol, strict=True),
    ]


_KERNEL_MIN_SEP = 0.1  # the least distance between the two points of a kernel pair


@dataclass(frozen=True)
class KernelSampler:
    """Seeded kernel pairs (x, y) for `kernel_checks`, drawn uniformly from
    the box of sides `lengths` inset by `margin` on every face, the two
    points at least _KERNEL_MIN_SEP apart. Each inset side L_i - 2 margin
    must span at least 2 _KERNEL_MIN_SEP, so a drawn pair is far enough apart
    with probability >= 1/4 and `pairs` ends; the margin must be finite and
    >= 0: a NaN one makes NaN sides, from which no pair is ever far enough
    apart."""

    lengths: tuple[float, ...]
    margin: float

    def __post_init__(self):
        margin = self.margin
        if not 0.0 <= margin < math.inf or 2 * (margin + _KERNEL_MIN_SEP) > min(self.lengths):
            raise ValueError(f"kernel_margin must be finite, >= 0 and leave each side L_i - 2 "
                             f"margin of the sampling box >= {2 * _KERNEL_MIN_SEP:g}, got {margin:g}")

    def pairs(self, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """`count` pairs (x, y), each (count, n). Blocks of candidate pairs
        take the generator's doubles in the order one pair at a time would (x,
        then y), and the accepted ones keep their draw order, so the pairs do
        not depend on the block size."""
        rng = np.random.default_rng(seed)
        sides = np.asarray(self.lengths) - 2 * self.margin
        kept, total = [], 0
        while total < count:
            pts = self.margin + rng.random((count, 2, len(sides))) * sides
            pts = pts[np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1) >= _KERNEL_MIN_SEP]
            kept.append(pts)
            total += len(pts)
        pts = np.concatenate(kept)[:count]
        return pts[:, 0], pts[:, 1]


_NEWTON_MAX_STEPS = 10  # Tricomi's start needs 3-4 steps at every order up to 2000
_NEWTON_TOL = 1e-15  # largest final Newton step; the last steps measure ~6e-17


def _legendre_terms(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_order(x), its derivative and 1 - x^2, by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, for x in (-1, 1)."""
    p_prev, p = np.ones_like(x), x.copy()
    term = np.empty_like(x)
    for j in range(1, order):
        np.multiply(x, p, out=term)
        term *= (2 * j + 1) / (j + 1)
        p_prev *= -j / (j + 1)
        p_prev += term
        p_prev, p = p, p_prev
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    return p, order * (p_prev - x * p) / one_minus_x2, one_minus_x2


def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of `order` points on [-1, 1].

    The nonnegative nodes start from Tricomi's asymptotic approximation
    (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1)/(4n + 2)) and are refined by
    Newton's method on the Legendre recurrence (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013); the negative half is their mirror image, so the rule is
    exactly symmetric. The weights are 2/((1 - x^2) P_n'(x)^2), which at a
    root equals 2/(n P_{n-1}(x) P_n'(x)) but moves n times less with an error
    in x. Nodes agree with NumPy's `leggauss` to 1 ulp; O(order^2) work, about
    15 ms CPU at order 2000 on a 2-vCPU Xeon.
    """
    if order < 1:
        raise ValueError(f"a Gauss-Legendre rule needs order >= 1, got {order}")
    k = np.arange(1, (order + 1) // 2 + 1)
    x = (1.0 - (1.0 - 1.0 / order) / (8.0 * order**2)) * np.cos(math.pi * (4 * k - 1) / (4 * order + 2))
    if order % 2:
        x[-1] = 0.0  # the middle node, where P_order vanishes exactly
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp, one_minus_x2 = _legendre_terms(order, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {order} did not converge "
                           f"in {_NEWTON_MAX_STEPS} Newton steps")
    w = 2.0 / (one_minus_x2 * dp * dp)
    half = order // 2  # the strictly positive nodes, largest first
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


@lru_cache(maxsize=16)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order by
    `_legendre_rule`; read-only."""
    nodes, weights = _legendre_rule(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _unit_directions(n: int, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """Angular nodes/weights for integrating over S^{n-1}, n <= 3."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        theta = (np.arange(n_ang) + 0.5) * (2.0 * math.pi / n_ang)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return dirs, np.full(n_ang, 2.0 * math.pi / n_ang)
    mu, wmu = _gauss_legendre(max(n_ang // 2, 4))
    n_th = n_ang
    theta = (np.arange(n_th) + 0.5) * (2.0 * math.pi / n_th)
    wth = 2.0 * math.pi / n_th
    sin_phi = np.sqrt(1.0 - mu**2)
    dirs = np.stack(
        [
            np.outer(sin_phi, np.cos(theta)).ravel(),
            np.outer(sin_phi, np.sin(theta)).ravel(),
            np.repeat(mu, n_th),
        ],
        axis=1,
    )
    weights = np.repeat(wmu * wth, n_th)
    return dirs, weights


def _polar_nodes(center, lo, hi, gamma: float, n_rad: int, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, n) and weights (N,) of `_polar_box_integral`'s rule; N = 0
    when no direction leaves the center into the box."""
    center = np.asarray(center, dtype=float)
    n = center.size
    m = n - gamma
    if m <= 0:
        raise RegimeError(f"singular exponent {gamma} is not integrable in {n}-d")
    dirs, wang = _unit_directions(n, n_ang)
    u_nodes, u_weights = _gauss_legendre(n_rad)
    # distance to the box boundary along each direction: the nearest face
    # crossing over the axes the direction moves along
    faces = np.where(dirs > 0.0, np.asarray(hi, dtype=float), np.asarray(lo, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = np.where(np.abs(dirs) > 1e-300, (faces - center) / dirs, math.inf)
    rmax = np.min(crossings, axis=1)
    keep = np.isfinite(rmax) & (rmax > 0)
    dirs, wang, rmax = dirs[keep], wang[keep], rmax[keep]
    umax = rmax**m / m
    u = 0.5 * umax[:, None] * (u_nodes + 1.0)
    r = (m * u) ** (1.0 / m)
    pts = (center + r[:, :, None] * dirs[:, None, :]).reshape(-1, n)
    scale = ((wang * 0.5 * umax)[:, None] * u_weights).ravel()
    return pts, scale


def _polar_box_integral(center, lo, hi, gamma: float, smooth, n_rad: int, n_ang: int) -> float:
    """int_box smooth(z) |z - center|^{-gamma} dz with the singularity absorbed.

    The radial substitution u = r^{n-gamma}/(n-gamma) is exact for the power
    factor, so plain Gauss-Legendre in u sees only the smooth remainder.
    """
    pts, scale = _polar_nodes(center, lo, hi, gamma, n_rad, n_ang)
    return float(np.sum(scale * smooth(pts))) if len(pts) else 0.0


def _ring_regular_parts(centers: np.ndarray, basis: SpectralBasis, radius: float) -> np.ndarray:
    """Per center c of (C, n), the mean of H = free - G on a small resolvable
    ring around c (H is smooth there), over the ring points inside the box;
    0 for a center with none. All rings go to `regular_part` as one batch."""
    dirs, _ = _unit_directions(basis.domain.dim, 8)
    rings = centers[:, None, :] + radius * dirs
    inside = _interior(basis.domain, rings)
    counts = np.count_nonzero(inside, axis=1)
    means = np.zeros(len(centers))
    if np.any(inside):
        h = regular_part(rings[inside], np.repeat(centers, counts, axis=0), basis).value
        for i, on_ring in enumerate(np.split(h, np.cumsum(counts)[:-1])):
            if len(on_ring):
                means[i] = np.mean(on_ring)
    return means


def _sublattice_spread(weighted_cells: np.ndarray) -> float:
    """Error scale of a midpoint sum from the spread of its 2^n shifted sublattices."""
    n = weighted_cells.ndim
    subs = []
    for mask in range(2**n):
        sl = tuple(
            slice((mask >> axis) & 1, None, 2) for axis in range(n)
        )
        subs.append(float(np.sum(weighted_cells[sl])) * 2**n)
    return 0.5 * (max(subs) - min(subs))


# Polar patch rules of `g_tilde`, fine then coarse: radial and angular nodes;
# the error estimate compares the fine rule with the rule of half as many
# nodes each way.
_PATCH_RULES = ((8, 32), (4, 16))


def _kernel_grid(basis: SpectralBasis) -> Grid:
    """`g_tilde`'s default grid, 2 K_i nodes per axis."""
    return build_grid(basis.domain, tuple(2 * K for K in basis.cutoff))


def _check_iterated_pair(basis: SpectralBasis, x: np.ndarray, y: np.ndarray, p: float,
                         grid: Grid | None = None) -> None:
    """Every refusal of `g_tilde` for one point x against y: what `_check_pairs`
    rejects, exponents outside `_check_iterated_kernel`, a separation below
    4 grid cells (or the resolvability threshold), and singular patches that
    overlap. `grid` defaults to `g_tilde`'s."""
    _check_pairs(basis, x, y)
    _check_iterated_kernel(p, basis.domain.dim, basis.domain.s)
    if grid is None:
        grid = _kernel_grid(basis)
    min_sep = max(resolvability_threshold(basis), 4.0 * max(grid.spacing))
    if float(np.linalg.norm(x - y)) < min_sep:
        raise UnresolvedSingularityError(
            f"g_tilde needs separation >= {min_sep:.3e} between x and y"
        )
    # a patch holds the nodes within one of its nearest node on every axis,
    # so two patches share a node iff the nearest nodes are at most 2 apart
    if all(abs(a - b) <= 2 for a, b in zip(grid.nearest_node(x), grid.nearest_node(y), strict=True)):
        raise UnresolvedSingularityError("singular patches of x and y overlap")


def g_tilde(
    x,
    y,
    p: float,
    basis: SpectralBasis,
    grid: Grid | None = None,
) -> KernelSample:
    """Iterated kernel Gt(x, y) = int_Omega G(x, z) G^p(z, y) dz of a point x
    (n,) or a batch (P, n) against one y (n,): one x gives float fields, P of
    them (P,) arrays, each bitwise the value of its own call.

    Defined in the sub-Serrin regime (n - 2s) p < n with p >= 1, where G^p is
    integrable. Tensor midpoint rule globally, with polar-corrected patches of
    3^n cells around both singular points; the reported bound is the quadrature
    error estimate (sublattice spread plus patch refinement difference).
    The sine rows of y and every x come from one table per axis, and their
    ring estimates of H from one `regular_part` batch. The y side is built
    once per call: G(y, .) on the grid and its p-th power, y's patch, y's
    polar nodes and, per patch rule, G(x, .) at those nodes for every x from
    one `_contract_separable` of their sine factors. Each x adds G(x, .) on
    the grid, its own patch, G(y, .) at its polar nodes and the patch
    integrals, and drops its grid-sized product before the next x. Every x is
    checked by `_check_iterated_pair` before any work.
    """
    n, s = basis.domain.dim, basis.domain.s
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"g_tilde takes one point y of shape ({n},), got {y.shape}")
    if grid is None:
        grid = _kernel_grid(basis)
    xs = np.atleast_2d(x)
    for pt in xs:
        _check_iterated_pair(basis, pt, y, p, grid)

    g_const = gns(n, s)
    lam_pow = n - 2 * s
    ring = max(resolvability_threshold(basis) * 1.1, 2.0 * max(grid.spacing))

    # y and then every x: the sine rows of their coordinates, one table per
    # axis, and their ring estimates of the regular part H
    centers = np.concatenate([y[None, :], xs])
    modes = [basis.sine_samples(axis, centers[:, axis]) for axis in range(n)]
    ring_h = _ring_regular_parts(centers, basis, ring)

    # eigen-coefficients lambda_k^{-s} phi_k(c) of G(c, .), c = centers[index],
    # for the grid and the patches
    def green_coefficients(index):
        return SpectralField(basis, _multipliers(basis, -s)
                             * reduce(np.multiply.outer, [rows[index] for rows in modes]))

    def patch(index, gamma):
        """The 3^n cells around the nearest node of c = centers[index] as a
        tuple of slices of the grid, and per rule of `_PATCH_RULES` the polar
        nodes around c: their weights, the local model
        max(g_{n,s} - H r^{n-2s}, 0) of G(c, .) on them (H the ring estimate
        of the regular part at c) and their sine factors."""
        c = centers[index]
        idx = grid.nearest_node(c)
        lo = [max((j - 1) * hh, 0.0) for j, hh in zip(idx, grid.spacing, strict=True)]
        hi = [
            min((j + 2) * hh, L)
            for j, hh, L in zip(idx, grid.spacing, basis.domain.lengths, strict=True)
        ]
        box = tuple(slice(max(j - 1, 0), min(j + 2, m))
                    for j, m in zip(idx, grid.shape, strict=True))
        h_c = ring_h[index]
        rules = []
        for n_rad, n_ang in _PATCH_RULES:
            pts, weights = _polar_nodes(c, lo, hi, gamma, n_rad, n_ang)
            r = np.linalg.norm(pts - c[None, :], axis=1)
            rules.append((pts, weights, np.maximum(g_const - h_c * r**lam_pow, 0.0),
                          _sine_factors(basis, pts)))
        return box, rules

    coeff_y = green_coefficients(0)
    gy_pow = np.maximum(synthesize(coeff_y, grid).values, 0.0) ** p
    box_y, rules_y = patch(0, lam_pow * p)
    # per rule, the weights and local model of y's polar nodes and G(x, .)
    # there for every x, one contraction of y's sine factors per rule
    x_rows = [rows[1:] for rows in modes]
    rules_y = [(weights, local**p, _contract_separable(_multipliers(basis, -s), x_rows, factors))
               for _, weights, local, factors in rules_y]

    def estimate(i):
        """Gt(x, y) and its error estimate for x = xs[i]; its grid-sized
        product and patch rules go when it returns, before the next x's."""
        coeff_x = green_coefficients(i + 1)
        # in place: each point holds one grid-sized array, with the same products
        weighted = synthesize(coeff_x, grid).values
        np.maximum(weighted, 0.0, out=weighted)
        weighted *= grid.cell_volume
        weighted *= gy_pow
        box_x, rules_x = patch(i + 1, lam_pow)
        weighted[box_y] = 0.0
        weighted[box_x] = 0.0
        fine, coarse = [
            float(np.sum(w_y * (np.maximum(gx_y[i], 0.0) * local_y)))
            + float(np.sum(w_x * (local_x * np.maximum(synthesize_at(coeff_y, pts_x, f_x), 0.0) ** p)))
            for (w_y, local_y, gx_y), (pts_x, w_x, local_x, f_x)
            in zip(rules_y, rules_x, strict=True)
        ]
        return float(np.sum(weighted)) + fine, _sublattice_spread(weighted) + abs(fine - coarse)

    value, bound = np.empty(len(xs)), np.empty(len(xs))
    for i in range(len(xs)):
        value[i], bound[i] = estimate(i)
    if x.ndim == 1:
        return KernelSample(float(value[0]), float(bound[0]))
    return KernelSample(value, bound)
