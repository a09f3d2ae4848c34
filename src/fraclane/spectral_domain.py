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
cached per (basis, grid), read-only; axes with equal side, cutoff and node
count share one pair.
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

    Requires all L_i > 0, s in (0, 1) and the standing hypothesis n > 2s.
    """

    lengths: tuple[float, ...]
    s: float

    def __post_init__(self):
        lengths = tuple(float(L) for L in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "s", float(self.s))
        if len(lengths) < 1:
            raise ValueError("domain needs at least one dimension")
        if any(L <= 0 for L in lengths):
            raise ValueError(f"side lengths must be positive, got {lengths}")
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
        """Matrix of 1-d eigenfunction factors: S[j, k] = sqrt(2/L) sin((k+1) pi x_j / L)."""
        coords = np.asarray(coords, dtype=float)
        L = self.domain.lengths[axis]
        K = self.cutoff[axis]
        karr = np.arange(1, K + 1)
        return math.sqrt(2.0 / L) * np.sin(
            np.pi / L * coords[:, None] * karr[None, :]
        )


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

    def meshgrid(self):
        return np.meshgrid(*self.coords, indexing="ij")

    def points(self) -> np.ndarray:
        """All nodes as an (N, n) array in C order."""
        mesh = self.meshgrid()
        return np.stack([m.ravel(order="C") for m in mesh], axis=-1)

    def nearest_node(self, x) -> tuple[int, ...]:
        x = np.asarray(x, dtype=float)
        idx = []
        for xi, c, m in zip(x, self.coords, self.shape, strict=True):
            j = int(np.argmin(np.abs(c - xi)))
            idx.append(min(max(j, 0), m - 1))
        return tuple(idx)


class GridFunction:
    """Real samples on a tensor grid; values must be finite."""

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
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
def _half_matrices(basis: SpectralBasis, grid: Grid) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per axis, the odd-k and even-k columns (1-based k) of the sine matrix,
    sampled on the first ceil(m/2) nodes and the first m//2 nodes; read-only.
    Axes with the same side, cutoff and node count share one pair of arrays."""
    by_axis = {}
    for axis, m in enumerate(grid.shape):
        key = (basis.domain.lengths[axis], basis.cutoff[axis], m)
        if key in by_axis:
            continue
        sines = basis.sine_samples(axis, grid.coords[axis][: (m + 1) // 2])
        odd = np.ascontiguousarray(sines[:, 0::2])
        even = np.ascontiguousarray(sines[: m // 2, 1::2])
        odd.flags.writeable = False
        even.flags.writeable = False
        by_axis[key] = (odd, even)
    return tuple(by_axis[(L, K, m)] for L, K, m in
                 zip(basis.domain.lengths, basis.cutoff, grid.shape, strict=True))


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
    """Block size of `_contract`'s callers: partial sums plus factors fit the budget."""
    floats_per_point = math.prod(cutoff[:-1]) + sum(cutoff)
    return max(1, _SYNTHESIZE_AT_BUDGET_BYTES // (8 * floats_per_point))


def _contract(coefficients: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """sum_k a_k prod_i F_i[p, k_i] for every row p of the per-axis factor
    matrices F_i (B, K_i): one BLAS matmul contracts the last mode axis, then
    each remaining axis folds in."""
    cutoff = coefficients.shape
    t = factors[-1] @ coefficients.reshape(-1, cutoff[-1]).T
    for axis in range(len(cutoff) - 2, -1, -1):
        t = np.einsum("pjk,pk->pj", t.reshape(len(t), -1, cutoff[axis]), factors[axis])
    return t[:, 0]


def _sine_factors(basis: SpectralBasis, points: np.ndarray) -> list[np.ndarray]:
    """The factor matrices of `_contract` for points (P, n): per axis the
    `sine_samples` of every coordinate, computed once per distinct value
    (bitwise the same sines; polar nodes share most of their coordinates)."""
    factors = []
    for axis in range(points.shape[1]):
        coords, inverse = np.unique(points[:, axis], return_inverse=True)
        factors.append(basis.sine_samples(axis, coords)[inverse])
    return factors


def synthesize_at(c: SpectralField, points, factors: list[np.ndarray] | None = None) -> np.ndarray:
    """Evaluate sum_k a_k phi_k at arbitrary points (P, n) -> (P,): `_contract`
    with the sine samples as factors, per block of about 1 MB of temporaries.
    A caller that evaluates several fields at one point set passes its
    `_sine_factors` once as `factors`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = c.basis.domain.dim
    if points.shape[1] != n:
        raise ValueError(f"points have dimension {points.shape[1]}, expected {n}")
    block = _points_per_block(c.basis.cutoff)
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], block):
        rows = slice(start, start + block)
        out[rows] = _contract(
            c.coefficients,
            _sine_factors(c.basis, points[rows]) if factors is None else [f[rows] for f in factors],
        )
    return out


def lp_norm(f: GridFunction, r: float) -> float:
    """Weighted L^r norm (sum_i w_i |f_i|^r)^(1/r); rejects r < 1."""
    r = float(r)
    if not math.isfinite(r) or r < 1.0:
        raise ValueError(f"lp_norm requires finite r >= 1, got {r}")
    w = f.grid.cell_volume
    return float((w * np.sum(np.abs(f.values) ** r)) ** (1.0 / r))


def integrate(f: GridFunction) -> float:
    """Midpoint-rule integral over the box."""
    return float(f.grid.cell_volume * np.sum(f.values))
