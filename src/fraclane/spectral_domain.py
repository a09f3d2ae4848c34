"""Box domains, their Dirichlet sine eigenbasis, tensor grids and transforms.

Everything downstream (fractional operators, kernels, ground-state solver)
is built on the closed-form eigenpairs of the Dirichlet Laplacian on an
axis-aligned box: lambda_k = sum_i (k_i pi / L_i)^2 with L2-normalized
eigenfunctions phi_k(x) = prod_i sqrt(2/L_i) sin(k_i pi x_i / L_i).

Grids are uniform cell-centered (midpoint rule), which integrates products
of retained sines exactly once the anti-aliasing rule m_i >= 2 K_i holds,
so analyze/synthesize round-trip at machine precision.

Both transforms apply one butterfly level of the fast sine transform per
axis. On the midpoint grid the sine matrix obeys
S[m-1-j, k] = (-1)^(k+1) S[j, k] (1-based k): odd-k sines are mirror
symmetric in the nodes, even-k sines antisymmetric. `analyze` folds each node
axis into f_j + f_{m-1-j} and f_j - f_{m-1-j} for j < m/2 (for odd m the
middle node joins the sums; every even-k sine vanishes there) and contracts
the sums with the odd-k columns, the differences with the even-k columns.
`synthesize` runs the same steps backwards. Each axis then costs half the
flops of the dense contraction, for any m and K. The half matrices are
cached per axis on its side, cutoff and node count (L, K, m), read-only, so
equal axes of any two grids share one pair.

Point evaluation (`synthesize_at`) orders the points by their last
coordinate and works in blocks: one sine table row per distinct coordinate of
each axis and one BLAS pass over the last mode axis per distinct last-axis
row; only the remaining axes are contracted point by point. A sine table is
built with the points on the fast axis, so its angle-doubling passes run at
vector speed, and a coordinate's row does not depend on the batch it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ResolutionError(ValueError):
    """Grid too coarse for the requested mode content (m_i < 2 K_i)."""


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box prod_i (0, L_i) carrying the fractional order s.

    Requires every L_i finite and > 0, s in (0, 1) and the standing hypothesis n > 2s.
    """

    lengths: tuple[float, ...]
    s: float

    def __post_init__(self):
        lengths = tuple(float(L) for L in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "s", float(self.s))
        if len(lengths) < 1:
            raise ValueError("domain needs at least one dimension")
        if not all(0.0 < L < math.inf for L in lengths):
            raise ValueError(f"side lengths must be positive and finite, got {lengths}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1), got {self.s}")
        if not self.dim > 2 * self.s:
            raise ValueError(
                f"hypothesis n > 2s violated: n = {self.dim}, s = {self.s}"
            )

    @property
    def dim(self) -> int:
        return len(self.lengths)

    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def contains(self, x, margin: float = 0.0) -> bool:
        """True if x lies strictly inside the box, at least `margin` from every face."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        return all(
            margin < xi < L - margin for xi, L in zip(x, self.lengths, strict=True)
        )

    def boundary_distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(
            min(min(xi, L - xi) for xi, L in zip(x, self.lengths, strict=True))
        )


_PI_LO = 1.2246467991473532e-16  # pi - math.pi, to double precision


def _split(v):
    """v = hi + lo exactly, hi with 26 significant bits (Veltkamp's split),
    for floats or arrays."""
    wide = 134217729.0 * v  # 2^27 + 1
    hi = wide - (wide - v)
    return hi, v - hi


def _angle_scale(L: float) -> tuple[float, float]:
    """pi / L as scale_hi + scale_lo to about 2^-78 relative, scale_hi with 26
    significant bits, so its product with a 26-bit float is exact."""
    scale = math.pi / L
    s_hi, s_lo = _split(scale)
    l_hi, l_lo = _split(L)
    # Dekker's exact product scale * L = p + e; pi - p is exact, p being
    # within a few ulp of pi
    p = scale * L
    e = ((s_hi * l_hi - p) + s_hi * l_lo + s_lo * l_hi) + s_lo * l_lo
    return s_hi, s_lo + ((math.pi - p) - e + _PI_LO) / L


def sine_table(L: float, K: int, coords) -> np.ndarray:
    """Matrix of the 1-d eigenfunction factors of a side L with cutoff K:
    S[j, k] = sqrt(2/L) sin((k+1) pi x_j / L), k < K.

    Row j holds the imaginary parts of the powers z^(k+1) of
    z = exp(i pi x_j / L), built by angle doubling: each pass multiplies
    the powers found so far by the highest one, so a coordinate costs one
    cosine and one sine instead of K sines. The angle pi x_j / L is
    carried to twice the working precision, so the error against the
    exact sines is the rounding of z and of the products. Against
    40-digit sines it is 4.5e-14 at K = 256 on the 512 midpoint nodes of
    a unit side, where np.sin of the rounded angles k pi x_j / L is off
    by 1.8e-13.

    The powers are built in a (K, P) array, modes on the slow axis, so a
    doubling pass is one broadcast multiply whose inner loop runs over all
    P points at NumPy's SIMD complex-multiply speed, and one scaled,
    transposed copy writes the C-contiguous (P, K) table. Every point
    takes the same operations, so a coordinate's row is bitwise the same
    at any position of any batch. A lone coordinate runs as a pair: a
    one-column product, whose output shares the buffer of its inputs,
    takes another NumPy loop with other roundings. On one core of a
    2-vCPU Xeon VM a (341, 64) table takes about 0.1 ms, against about
    0.2 ms with the points on the slow axis, where each inner loop
    covered 1 to 32 modes.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.size == 1:
        return sine_table(L, K, np.repeat(coords, 2))[:1]
    # the angle as head + rest, exactly up to the rounding of the small
    # rest: a 26-bit split of x makes scale_hi * x_hi exact
    scale_hi, scale_lo = _angle_scale(L)
    x_hi, x_lo = _split(coords)
    head = scale_hi * x_hi
    rest = scale_hi * x_lo + scale_lo * coords
    angle = head + rest
    angle_lo = rest - (angle - head)
    cos, sin = np.cos(angle), np.sin(angle)
    powers = np.empty((K, coords.size), dtype=complex)
    powers[0].real = cos - angle_lo * sin
    powers[0].imag = sin + angle_lo * cos
    done = 1
    while done < K:
        step = min(done, K - done)
        np.multiply(powers[:step], powers[done - 1], out=powers[done : done + step])
        done += step
    table = np.empty((coords.size, K))
    np.multiply(powers.imag.T, math.sqrt(2.0 / L), out=table)
    return table


class SpectralBasis:
    """All Dirichlet eigenpairs of a box with k_i <= K_i, eigenvalues closed form.

    `eigenvalue_grid` holds the eigenvalues in the transforms' tensor layout,
    increasing along every axis.
    """

    def __init__(self, domain: BoxDomain, cutoff):
        if isinstance(cutoff, int):
            cutoff = (cutoff,) * domain.dim
        cutoff = tuple(int(K) for K in cutoff)
        if len(cutoff) != domain.dim:
            raise ValueError(
                f"cutoff has {len(cutoff)} entries for a {domain.dim}-d domain"
            )
        _check_cutoff(cutoff)
        self.domain = domain
        self.cutoff = cutoff

        lam1d = [
            (np.arange(1, K + 1) * math.pi / L) ** 2
            for K, L in zip(cutoff, domain.lengths, strict=True)
        ]
        grids = np.meshgrid(*lam1d, indexing="ij")
        self.eigenvalue_grid = np.add.reduce(grids)

    def sine_samples(self, axis: int, coords) -> np.ndarray:
        """`sine_table` of the side and cutoff of `axis` at `coords`."""
        return sine_table(self.domain.lengths[axis], self.cutoff[axis], coords)


class Grid:
    """Uniform cell-centered tensor grid on a box with midpoint weights."""

    def __init__(self, domain: BoxDomain, shape):
        if isinstance(shape, int):
            shape = (shape,) * domain.dim
        shape = tuple(int(m) for m in shape)
        if len(shape) != domain.dim:
            raise ValueError(f"shape has {len(shape)} entries for a {domain.dim}-d domain")
        if any(m < 1 for m in shape):
            raise ValueError(f"grid sizes must be >= 1, got {shape}")
        self.domain = domain
        self.shape = shape
        self.spacing = tuple(
            L / m for L, m in zip(domain.lengths, shape, strict=True)
        )
        self.coords = tuple(
            (np.arange(m) + 0.5) * h for m, h in zip(shape, self.spacing, strict=True)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def nearest_node(self, x) -> tuple[int, ...]:
        x = np.asarray(x, dtype=float)
        idx = []
        for xi, c, m in zip(x, self.coords, self.shape, strict=True):
            j = int(np.argmin(np.abs(c - xi)))
            idx.append(min(max(j, 0), m - 1))
        return tuple(idx)


class GridFunction:
    """Real samples on a tensor grid; values must be finite.

    The check reads the values' max and min, which are NaN if any value is
    and infinite if one is infinite, so it takes no array of its own."""

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if not (math.isfinite(values.max()) and math.isfinite(values.min())):
            raise ValueError("grid function carries non-finite values")
        self.grid = grid
        self.values = values

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())


@dataclass
class SpectralField:
    """Coefficients a_k of an expansion sum_k a_k phi_k in tensor layout."""

    basis: SpectralBasis
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != self.basis.cutoff:
            raise ValueError(
                f"coefficient shape {self.coefficients.shape} does not match "
                f"cutoff {self.basis.cutoff}"
            )


def build_basis(domain: BoxDomain, cutoff) -> SpectralBasis:
    """All eigenpairs with k_i <= K_i; rejects K_i = 0."""
    return SpectralBasis(domain, cutoff)


def build_grid(domain: BoxDomain, shape) -> Grid:
    return Grid(domain, shape)


@lru_cache(maxsize=128)
def _half_pair(L: float, K: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd-k and even-k columns (1-based k) of the sine matrix of a side
    L with cutoff K on its m midpoint nodes, sampled on the first ceil(m/2)
    nodes and the first m//2 nodes; read-only, one pair per (L, K, m)."""
    sines = sine_table(L, K, (np.arange((m + 1) // 2) + 0.5) * (L / m))  # `Grid`'s nodes
    odd = np.ascontiguousarray(sines[:, 0::2])
    even = np.ascontiguousarray(sines[: m // 2, 1::2])
    odd.flags.writeable = False
    even.flags.writeable = False
    return odd, even


def _half_matrices(basis: SpectralBasis, grid: Grid) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per axis, the `_half_pair` of its side, cutoff and node count: axes of
    any two grids with equal (L, K, m) share one pair of arrays."""
    return tuple(map(_half_pair, basis.domain.lengths, basis.cutoff, grid.shape))


def _check_cutoff(cutoff: tuple[int, ...]) -> None:
    if any(K < 1 for K in cutoff):
        raise ValueError(f"cutoff entries must be >= 1, got {cutoff}")


def check_resolution(cutoff, shape) -> None:
    """The rule under which `analyze` is exact: every K_i >= 1 and the
    anti-aliasing rule m_i >= 2 K_i."""
    _check_cutoff(cutoff)
    for m, K in zip(shape, cutoff, strict=True):
        if m < 2 * K:
            raise ResolutionError(
                f"grid resolution {shape} below anti-aliasing rule "
                f"m_i >= 2 K_i for cutoff {cutoff}"
            )


def _check_compatible(basis: SpectralBasis, grid: Grid):
    if basis.domain is not grid.domain and basis.domain != grid.domain:
        raise ValueError("basis and grid belong to different domains")


def analyze(f: GridFunction, basis: SpectralBasis) -> SpectralField:
    """Project onto the retained eigenfunctions: a_k = quadrature of f * phi_k.

    Exact for band-limited f on a grid satisfying the anti-aliasing rule
    m_i >= 2 K_i (midpoint rule integrates retained sine products exactly).
    """
    grid = f.grid
    _check_compatible(basis, grid)
    check_resolution(basis.cutoff, grid.shape)
    coeff = f.values
    for odd, even in _half_matrices(basis, grid):
        # fold the leading node axis into mirror sums and differences, then
        # contract; the mode axis lands at the back, in k order
        m, h = coeff.shape[0], even.shape[0]
        x = coeff.reshape(m, -1)
        head, tail = x[:h], x[::-1][:h]
        folded = np.empty((m - h, x.shape[1]))
        out = np.empty((x.shape[1], odd.shape[1] + even.shape[1]))
        np.subtract(head, tail, out=folded[:h])
        np.matmul(folded[:h].T, even, out=out[:, 1::2])
        np.add(head, tail, out=folded[:h])
        if m % 2:
            folded[h] = x[h]
        np.matmul(folded.T, odd, out=out[:, 0::2])
        coeff = out.reshape(coeff.shape[1:] + out.shape[1:])
    return SpectralField(basis, coeff * grid.cell_volume)


def synthesize(c: SpectralField, grid: Grid) -> GridFunction:
    """Pointwise sum_k a_k phi_k(x) on the grid nodes."""
    _check_compatible(c.basis, grid)
    values = c.coefficients
    for odd, even in _half_matrices(c.basis, grid):
        # odd-k modes give the mirror-symmetric part, even-k modes the
        # antisymmetric one; the node axis lands at the back
        x = values.reshape(values.shape[0], -1)
        c_nodes, h = odd.shape[0], even.shape[0]
        out = np.empty((x.shape[1], c_nodes + h))
        np.matmul(x[0::2].T, odd.T, out=out[:, :c_nodes])
        anti = x[1::2].T @ even.T
        head = out[:, :h]
        np.subtract(head, anti, out=out[:, ::-1][:, :h])
        head += anti
        values = out.reshape(values.shape[1:] + out.shape[1:])
    return GridFunction(grid, values)


_SYNTHESIZE_AT_BUDGET_BYTES = 1 << 20


def _points_per_block(cutoff: tuple[int, ...]) -> int:
    """Block size of `_contract` and `green`. Per point: at most one row of
    the distinct-row GEMM output and one gathered row of partial sums, each
    prod(K[:-1]) floats, and per axis a factor row and its gathered copy,
    2 K_i floats (`green`'s sine tables of one axis fit in the same room)."""
    floats_per_point = 2 * math.prod(cutoff[:-1]) + 2 * sum(cutoff)
    return max(1, _SYNTHESIZE_AT_BUDGET_BYTES // (8 * floats_per_point))


def _contract(coefficients: np.ndarray,
              factors: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """sum_k a_k prod_i T_i[j_i(p), k_i] for every point p, whose factors are
    given per axis as a table T_i (D_i, K_i) and each point's row j_i (P,) in it.

    The points run in blocks, ordered by their last-axis row, so the rows of
    a block take one contiguous range of T_n: one BLAS matmul contracts the
    last mode axis once per row of that range, the partial sums are gathered
    per point (unless the block's rows are that range, one each, when the
    output already is the gathered copy), and each remaining axis folds in
    by a batched matmul. The values come back in the points' order."""
    cutoff = coefficients.shape
    last, last_rows = factors[-1]
    flat = coefficients.reshape(-1, cutoff[-1]).T
    order = np.argsort(last_rows, kind="stable")
    out = np.empty(len(order))
    block = _points_per_block(cutoff)
    for start in range(0, len(order), block):
        members = order[start : start + block]
        rows = last_rows[members]
        t = last[rows[0] : rows[-1] + 1] @ flat
        # sorted rows that are distinct and as many as the range (green's
        # own rows) index the GEMM output as it stands
        if len(t) != len(rows) or np.any(rows[1:] == rows[:-1]):
            t = t[rows - rows[0]]
        for axis in range(len(cutoff) - 2, -1, -1):
            table, table_rows = factors[axis]
            t = np.matmul(t.reshape(len(members), -1, cutoff[axis]),
                          table[table_rows[members], :, None])
        out[members] = t.reshape(-1)
    return out


def _sine_factors(basis: SpectralBasis,
                  points: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The factors of `_contract` for points (P, n): per axis the `sine_samples`
    table of the distinct coordinates, in ascending order, and each point's
    row in it (polar nodes share most of their coordinates)."""
    factors = []
    for axis in range(points.shape[1]):
        coords, rows = np.unique(points[:, axis], return_inverse=True)
        factors.append((basis.sine_samples(axis, coords), rows))
    return factors


def synthesize_at(c: SpectralField, points,
                  factors: list[tuple[np.ndarray, np.ndarray]] | None = None) -> np.ndarray:
    """Evaluate sum_k a_k phi_k at arbitrary points (P, n) -> (P,): `_contract`
    with the `_sine_factors` of the points, in blocks of about 1 MB of
    temporaries. A caller that evaluates several fields at one point set
    passes its `_sine_factors` once as `factors`. Without them, each block of
    `_contract`'s order (ascending last coordinate) gets the sine tables of
    its own coordinates, so the tables stay within the block budget and the
    values are bitwise those with the factors passed."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = c.basis.domain.dim
    if points.shape[1] != n:
        raise ValueError(f"points have dimension {points.shape[1]}, expected {n}")
    if factors is not None:
        return _contract(c.coefficients, factors)
    order = np.argsort(points[:, -1], kind="stable")
    block = _points_per_block(c.basis.cutoff)
    out = np.empty(len(order))
    for start in range(0, len(order), block):
        members = order[start : start + block]
        out[members] = _contract(c.coefficients, _sine_factors(c.basis, points[members]))
    return out


def lp_norm(f: GridFunction, r: float, out: np.ndarray | None = None) -> float:
    """Weighted L^r norm (sum_i w_i |f_i|^r)^(1/r); rejects r < 1.

    |f|^r is taken in one array, in place: `out` (f's shape, f's own values
    allowed, which it overwrites) or a new one."""
    r = float(r)
    if not math.isfinite(r) or r < 1.0:
        raise ValueError(f"lp_norm requires finite r >= 1, got {r}")
    w = f.grid.cell_volume
    powers = np.abs(f.values, out=out)
    powers **= r  # `**`'s own exponent dispatch, as np.abs(f.values) ** r
    return float((w * np.sum(powers)) ** (1.0 / r))


def integrate(f: GridFunction) -> float:
    """Midpoint-rule integral over the box."""
    return float(f.grid.cell_volume * np.sum(f.values))
