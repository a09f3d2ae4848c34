"""Box domains, their Dirichlet sine eigenbasis, tensor grids and transforms.

Everything downstream (fractional operators, kernels, ground-state solver)
is built on the closed-form eigenpairs of the Dirichlet Laplacian on an
axis-aligned box: lambda_k = sum_i (k_i pi / L_i)^2 with L2-normalized
eigenfunctions phi_k(x) = prod_i sqrt(2/L_i) sin(k_i pi x_i / L_i).

Grids are uniform cell-centered (midpoint rule), which integrates products
of retained sines exactly once the anti-aliasing rule m_i >= 2 K_i holds,
so analyze/synthesize round-trip at machine precision.
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


@dataclass(frozen=True)
class EigenIndex:
    """Multi-index k of an eigenpair; every component is a positive integer."""

    k: tuple[int, ...]

    def __post_init__(self):
        k = tuple(int(v) for v in self.k)
        object.__setattr__(self, "k", k)
        if any(v < 1 for v in k):
            raise ValueError(f"eigenindex components must be >= 1, got {k}")


class SpectralBasis:
    """All Dirichlet eigenpairs of a box with k_i <= K_i, eigenvalues closed form.

    `eigenvalues` lists the eigenvalues of the flattened modes in
    nondecreasing order; `eigenvalue_grid` keeps the tensor layout used by
    the transforms.
    """

    def __init__(self, domain: BoxDomain, cutoff):
        if isinstance(cutoff, int):
            cutoff = (cutoff,) * domain.dim
        cutoff = tuple(int(K) for K in cutoff)
        if len(cutoff) != domain.dim:
            raise ValueError(
                f"cutoff has {len(cutoff)} entries for a {domain.dim}-d domain"
            )
        if any(K < 1 for K in cutoff):
            raise ValueError(f"mode counts must be >= 1, got {cutoff}")
        self.domain = domain
        self.cutoff = cutoff

        lam1d = [
            (np.arange(1, K + 1) * math.pi / L) ** 2
            for K, L in zip(cutoff, domain.lengths, strict=True)
        ]
        grids = np.meshgrid(*lam1d, indexing="ij")
        self.eigenvalue_grid = np.add.reduce(grids)
        self.eigenvalues = np.sort(self.eigenvalue_grid, axis=None)

    @property
    def num_modes(self) -> int:
        return int(np.prod(self.cutoff))

    def eigenvalue_of(self, k) -> float:
        """Closed-form lambda_k = sum_i (k_i pi / L_i)^2."""
        if isinstance(k, EigenIndex):
            k = k.k
        k = tuple(int(v) for v in k)
        if len(k) != self.domain.dim or any(v < 1 for v in k):
            raise ValueError(f"invalid eigenindex {k}")
        if any(v > K for v, K in zip(k, self.cutoff, strict=True)):
            raise ValueError(f"eigenindex {k} beyond cutoff {self.cutoff}")
        return sum(
            (v * math.pi / L) ** 2
            for v, L in zip(k, self.domain.lengths, strict=True)
        )

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

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def total_weight(self) -> float:
        return self.cell_volume * self.num_nodes

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

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

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
def _transform_matrices(basis: SpectralBasis, grid: Grid) -> tuple[np.ndarray, ...]:
    return tuple(
        basis.sine_samples(axis, grid.coords[axis]) for axis in range(grid.domain.dim)
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
    for m, K in zip(grid.shape, basis.cutoff, strict=True):
        if m < 2 * K:
            raise ResolutionError(
                f"grid resolution {grid.shape} below anti-aliasing rule "
                f"m_i >= 2 K_i for cutoff {basis.cutoff}"
            )
    mats = _transform_matrices(basis, grid)
    coeff = f.values
    for mat in mats:
        # contract the leading node axis; the mode axis lands at the back
        coeff = np.tensordot(coeff, mat, axes=([0], [0]))
    return SpectralField(basis, coeff * grid.cell_volume)


def synthesize(c: SpectralField, grid: Grid) -> GridFunction:
    """Pointwise sum_k a_k phi_k(x) on the grid nodes."""
    _check_compatible(c.basis, grid)
    mats = _transform_matrices(c.basis, grid)
    values = c.coefficients
    for mat in mats:
        values = np.tensordot(values, mat, axes=([0], [1]))
    return GridFunction(grid, values)


_SYNTHESIZE_AT_BUDGET_BYTES = 1 << 20


def _points_per_block(cutoff: tuple[int, ...]) -> int:
    """Block size of `synthesize_at`: partial sums plus sine samples fit the budget."""
    floats_per_point = math.prod(cutoff[:-1]) + sum(cutoff)
    return max(1, _SYNTHESIZE_AT_BUDGET_BYTES // (8 * floats_per_point))


def synthesize_at(c: SpectralField, points) -> np.ndarray:
    """Evaluate sum_k a_k phi_k at arbitrary points (P, n) -> (P,).

    Per block of points, one BLAS matmul contracts the last mode axis, then
    each remaining axis folds in; the block size keeps a block's temporaries
    within about 1 MB, whatever the number of points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = c.basis.domain.dim
    if points.shape[1] != n:
        raise ValueError(f"points have dimension {points.shape[1]}, expected {n}")
    cutoff = c.basis.cutoff
    by_last = c.coefficients.reshape(-1, cutoff[-1]).T
    block = _points_per_block(cutoff)
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], block):
        pts = points[start:start + block]
        mats = [c.basis.sine_samples(axis, pts[:, axis]) for axis in range(n)]
        t = mats[-1] @ by_last
        for axis in range(n - 2, -1, -1):
            t = np.einsum("pjk,pk->pj", t.reshape(len(pts), -1, cutoff[axis]), mats[axis])
        out[start:start + block] = t[:, 0]
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
