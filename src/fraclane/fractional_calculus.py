"""Spectral fractional Laplacian, its inverse, and the Green-function family.

The operator acts by eigenvalue multipliers: (-Delta)^s sum a_k phi_k =
sum a_k lambda_k^s phi_k. The Dirichlet Green function of the box is the
eigen-sum G(x, y) = sum_k lambda_k^{-s} phi_k(x) phi_k(y), bounded above by
the free-space kernel g_{n,s} |x-y|^{2s-n}; its regular part is the
difference H = free - G. The iterated kernel solves
(-Delta_x)^s Gt(x, y) = G^p(x, y) and is computed as
Gt(x, y) = int_Omega G(x, z) G^p(z, y) dz with polar-corrected patches
around both integrable singularities.

The eigenvalue multipliers lambda_k^{+-s} are cached per (basis, exponent),
like the half sine matrices of `spectral_domain`, and shared by
`apply_inverse`, `apply_fraclap` and the pointwise kernels; `_CellInverse`
is `apply_inverse` on the fundamental cell of a mirror-symmetric field,
with the odd-k multipliers only. The pointwise
kernels take batches of point pairs and evaluate G(x, y) with the blocked
contraction of `synthesize_at`. `g_tilde`'s default grid is cached per basis.
Gauss-Legendre rules, which `hls_limit` uses as well, are built once per
order and handed out read-only.

Eigen-sum truncation is never silently dropped: every kernel sample carries
a tail estimate extrapolated from the decay of the outer mode shells
(a heuristic, flagged as such in reports; the convergence rate is not
quantified anywhere authoritative).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as gamma_fn

from .spectral_domain import (
    Grid,
    GridFunction,
    SpectralBasis,
    SpectralField,
    analyze,
    _CellTransforms,
    _contract,
    _points_per_block,
    build_grid,
    synthesize,
    synthesize_at,
)


class UnresolvedSingularityError(ValueError):
    """Kernel requested below the basis' resolvable separation."""


class RegimeError(ValueError):
    """Exponent outside the regime an operation is defined for."""


@dataclass(frozen=True)
class FreeKernelConstant:
    """g_{n,s} = Gamma((n-2s)/2) / (pi^{n/2} 2^{2s} Gamma(s)); finite for n > 2s."""

    n: int
    s: float
    value: float

    @classmethod
    def for_order(cls, n: int, s: float) -> "FreeKernelConstant":
        if not n > 2 * s:
            raise ValueError(f"free kernel constant needs n > 2s, got n={n}, s={s}")
        value = gamma_fn((n - 2 * s) / 2.0) / (
            math.pi ** (n / 2.0) * 2.0 ** (2 * s) * gamma_fn(s)
        )
        return cls(n=n, s=s, value=float(value))


def gns(n: int, s: float) -> float:
    return FreeKernelConstant.for_order(n, s).value


@dataclass(frozen=True)
class KernelSample:
    """Pointwise kernel value plus the estimated eigen-sum tail: floats for
    one pair of points, (P,) arrays beside (P, n) points for a batch."""

    x: tuple[float, ...] | np.ndarray
    y: tuple[float, ...] | np.ndarray
    value: float | np.ndarray
    truncation_bound: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.value)):
            raise ValueError("kernel sample is not finite")
        if np.any(self.truncation_bound < 0):
            raise ValueError("truncation bound must be nonnegative")


def free_kernel(x, y, n: int, s: float):
    """Free-space kernel g_{n,s} |x-y|^{2s-n} of points (n,) or pairs (P, n);
    coincident points rejected."""
    d = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)
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


def apply_fraclap(f: GridFunction, s: float, basis: SpectralBasis) -> GridFunction:
    """Multiplier action a_k -> lambda_k^s a_k, synthesized back to the grid."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {s}")
    field = analyze(f, basis)
    coeff = field.coefficients * _multipliers(basis, s)
    return synthesize(SpectralField(basis, coeff), f.grid)


def apply_inverse(f: GridFunction, s: float, basis: SpectralBasis) -> GridFunction:
    """Multiplier action a_k -> lambda_k^{-s} a_k (the Green-kernel integral, spectrally).

    Linear by construction; positivity of the exact operator can surface as a
    small negative ringing on the truncation, which callers clamp via
    :func:`clamp_nonnegative` before taking fractional powers.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {s}")
    field = analyze(f, basis)
    coeff = field.coefficients * _multipliers(basis, -s)
    return synthesize(SpectralField(basis, coeff), f.grid)


class _CellInverse:
    """`apply_inverse` on mirror-symmetric fields, held by their fundamental
    cell: the odd-k coefficients of `_CellTransforms.analyze` times the odd-k
    multipliers, synthesized back onto the cell. Bitwise the cell of
    `apply_inverse`; its work arrays are allocated once."""

    def __init__(self, basis: SpectralBasis, grid: Grid, s: float):
        if not 0.0 < s <= 1.0:
            raise ValueError(f"fractional order must lie in (0, 1], got {s}")
        self._transforms = _CellTransforms(basis, grid)
        # the odd-k entries of _multipliers(basis, -s), taken by the same
        # power from the same eigenvalues
        odd_modes = (slice(None, None, 2),) * basis.domain.dim
        self._mults = np.ascontiguousarray(basis.eigenvalue_grid[odd_modes]) ** -s

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        coeff = self._transforms.analyze(values)
        coeff *= self._mults
        return self._transforms.synthesize(coeff, out)


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
        back = apply_fraclap(apply_inverse(f, s, basis), s, basis)
        worst_inv = max(worst_inv, float(np.max(np.abs(back.values - f.values))) / scale)
        s1 = min(0.45, s)
        s2 = min(1.0 - s1, s)
        two = apply_fraclap(apply_fraclap(f, s1, basis), s2, basis)
        one = apply_fraclap(f, s1 + s2, basis)
        semi = float(np.max(np.abs(two.values - one.values))) / float(np.max(np.abs(one.values)))
        worst_semi = max(worst_semi, semi)
    return worst_inv, worst_semi


_CLAMP_WARN_FRACTION = 1e-8  # clamped L1 mass fraction above which a clamp warns


def clamp_nonnegative(f: GridFunction, context: str = "") -> tuple[GridFunction, float]:
    """Zero out negative ringing; returns (clamped, removed L1 mass fraction).

    Warns when the clamped mass exceeds `_CLAMP_WARN_FRACTION` of the L1 norm:
    the exact inverse is positivity-preserving, so larger clamps indicate an
    under-resolved field.
    """
    if not f.min() < 0.0:
        return f, 0.0
    out = f.values.copy()
    return f.with_values(out), _clamp_in_place(out, 1.0, context)


def _clamp_in_place(values: np.ndarray, weights, context: str) -> float:
    """`clamp_nonnegative` on `values` in place, each node's mass counted
    `weights` times (a scalar, or the multiplicities of a fundamental cell);
    returns the removed fraction and warns as `clamp_nonnegative` does, for
    the caller's caller."""
    if not values.min() < 0.0:
        return 0.0
    neg = values < 0.0
    mass = np.abs(values) * weights
    total = float(np.sum(mass))
    fraction = float(np.sum(mass[neg])) / total if total > 0 else 0.0
    if fraction > _CLAMP_WARN_FRACTION:
        warnings.warn(
            f"clamped {fraction:.3e} of L1 mass to restore positivity"
            + (f" ({context})" if context else ""),
            stacklevel=3,
        )
    values[neg] = 0.0
    return fraction


def resolvability_threshold(basis: SpectralBasis) -> float:
    """Shortest retained wavelength 2 pi / sqrt(lambda_max); kernels refuse below it."""
    return 2.0 * math.pi / math.sqrt(float(basis.eigenvalues[-1]))


# Mode shells of the tail estimate: shell j holds the modes whose largest
# k_i / K_i lies in (_SHELL_EDGES[j-1], _SHELL_EDGES[j]], so the modes up to an
# edge e form the box k_i <= e K_i and each shell is a difference of two boxes.
_SHELL_EDGES = (0.5, 0.625, 0.75, 0.875)


def _tail_estimate(shell_sums: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Eigen-sum tail estimate from the outer mode shells, one row per pair.

    The shell magnitudes of the oscillatory sum decay like a small power of
    the cutoff, so the continued tail is proportional to the outermost shell
    content; the max over the outer three shells guards against accidental
    cancellation in a single shell. The constant 8 was calibrated so the
    estimate dominated a 512-mode reference on 400 sampled interior pairs of
    the unit square with at least 2.5x margin. A heuristic, labeled as such
    wherever reported.
    """
    tail = 8.0 * np.max(np.abs(shell_sums[:, 2:]), axis=1)
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


def green(x, y, basis: SpectralBasis, s: float | None = None) -> KernelSample:
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
    s = basis.domain.s if s is None else s
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    _check_pairs(basis, x, y)
    xs, ys = np.atleast_2d(x), np.atleast_2d(y)
    mults = _multipliers(basis, -s)
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
        for j, box in enumerate(boxes):
            if min(box) > 0:
                sums[rows, j] = _contract(
                    mults[tuple(slice(b) for b in box)],
                    [f[:, :b] for f, b in zip(factors, box, strict=True)],
                )
    value = sums[:, -1]
    tail = _tail_estimate(np.diff(sums, axis=1, prepend=0.0), value)
    if x.ndim == 1:
        return KernelSample(tuple(x), tuple(y), float(value[0]), float(tail[0]))
    return KernelSample(x, y, value, tail)


def regular_part(x, y, basis: SpectralBasis, s: float | None = None) -> KernelSample:
    """Regular part H = free_kernel - green of points (n,) or pairs (P, n);
    smooth, symmetric, positive."""
    s = basis.domain.s if s is None else s
    g = green(x, y, basis, s)
    h = free_kernel(g.x, g.y, basis.domain.dim, s) - g.value
    return KernelSample(g.x, g.y, h, g.truncation_bound)


def rescaled_green(x, y, lam: float, center, basis: SpectralBasis, s: float | None = None):
    """lambda^{-(n-2s)} G(x/lambda + c, y/lambda + c) of points (n,) or pairs
    (P, n); `green` refuses mapped points outside the box."""
    s = basis.domain.s if s is None else s
    if lam <= 0:
        raise ValueError("rescaling factor must be positive")
    center = np.asarray(center, dtype=float)
    xm = np.asarray(x, dtype=float) / lam + center
    ym = np.asarray(y, dtype=float) / lam + center
    n = basis.domain.dim
    return lam ** -(n - 2 * s) * green(xm, ym, basis, s).value


@lru_cache(maxsize=16)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order; read-only."""
    nodes, weights = leggauss(order)
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


def _polar_box_integral(center, lo, hi, gamma: float, smooth, n_rad: int, n_ang: int) -> float:
    """int_box smooth(z) |z - center|^{-gamma} dz with the singularity absorbed.

    The radial substitution u = r^{n-gamma}/(n-gamma) is exact for the power
    factor, so plain Gauss-Legendre in u sees only the smooth remainder.
    """
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
    if not np.any(keep):
        return 0.0
    dirs, wang, rmax = dirs[keep], wang[keep], rmax[keep]
    umax = rmax**m / m
    u = 0.5 * umax[:, None] * (u_nodes + 1.0)
    r = (m * u) ** (1.0 / m)
    pts = (center + r[:, :, None] * dirs[:, None, :]).reshape(-1, n)
    scale = ((wang * 0.5 * umax)[:, None] * u_weights).ravel()
    return float(np.sum(scale * smooth(pts)))


def _ring_regular_part(c, basis: SpectralBasis, s: float, radius: float) -> float:
    """Mean of H = free - G on a small resolvable ring around c (H is smooth
    there), over the ring points inside the box."""
    c = np.asarray(c, dtype=float)
    dirs, _ = _unit_directions(basis.domain.dim, 8)
    ring = c + radius * dirs
    ring = ring[_interior(basis.domain, ring)]
    return float(np.mean(regular_part(ring, c, basis, s).value)) if len(ring) else 0.0


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


# Polar patch rule of `g_tilde`: radial and angular nodes; the error estimate
# compares it with the rule of half as many nodes each way.
_PATCH_RADIAL_NODES = 8
_PATCH_ANGULAR_NODES = 32


@lru_cache(maxsize=16)
def _kernel_grid(basis: SpectralBasis) -> Grid:
    """`g_tilde`'s default grid, 2 K_i nodes per axis, one per basis so that
    the half sine matrices keyed on it are built once."""
    grid = build_grid(basis.domain, tuple(2 * K for K in basis.cutoff))
    for coords in grid.coords:
        coords.flags.writeable = False
    return grid


def g_tilde(
    x,
    y,
    p: float,
    basis: SpectralBasis,
    s: float | None = None,
    grid: Grid | None = None,
) -> KernelSample:
    """Iterated kernel Gt(x, y) = int_Omega G(x, z) G^p(z, y) dz.

    Defined in the sub-Serrin regime (n - 2s) p < n with p >= 1, where G^p is
    integrable. Tensor midpoint rule globally, with polar-corrected patches of
    3^n cells around both singular points; the reported bound is the quadrature
    error estimate (sublattice spread plus patch refinement difference).
    """
    s = basis.domain.s if s is None else s
    n = basis.domain.dim
    if p < 1.0:
        raise RegimeError(f"iterated kernel requires p >= 1, got p={p}")
    if (n - 2 * s) * p >= n:
        raise RegimeError(
            f"integrability of G^p requires (n - 2s) p < n (sub-Serrin); "
            f"got p={p} >= {n / (n - 2 * s)}"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_pairs(basis, x, y)
    if grid is None:
        grid = _kernel_grid(basis)
    h = np.asarray(grid.spacing)
    thr = resolvability_threshold(basis)
    min_sep = max(thr, 4.0 * float(np.max(h)))
    if float(np.linalg.norm(x - y)) < min_sep:
        raise UnresolvedSingularityError(
            f"g_tilde needs separation >= {min_sep:.3e} between x and y"
        )

    g_const = gns(n, s)
    lam_pow = n - 2 * s

    # eigen-coefficients lambda_k^{-s} phi_k(x) of G(x, .) and of G(y, .), for
    # the grid and the patches
    def green_coefficients(pt):
        modes = [basis.sine_samples(axis, [pt[axis]])[0] for axis in range(n)]
        return SpectralField(basis, _multipliers(basis, -s) * reduce(np.multiply.outer, modes))

    coeff_x, coeff_y = green_coefficients(x), green_coefficients(y)

    gx_vals = np.maximum(synthesize(coeff_x, grid).values, 0.0)
    gy_vals = np.maximum(synthesize(coeff_y, grid).values, 0.0)

    def patch_box(c):
        idx = grid.nearest_node(c)
        lo = [max((j - 1) * hh, 0.0) for j, hh in zip(idx, grid.spacing, strict=True)]
        hi = [
            min((j + 2) * hh, L)
            for j, hh, L in zip(idx, grid.spacing, basis.domain.lengths, strict=True)
        ]
        mask = np.zeros(grid.shape, dtype=bool)
        sl = tuple(
            slice(max(j - 1, 0), min(j + 2, m))
            for j, m in zip(idx, grid.shape, strict=True)
        )
        mask[sl] = True
        return np.asarray(lo), np.asarray(hi), mask

    lo_y, hi_y, mask_y = patch_box(y)
    lo_x, hi_x, mask_x = patch_box(x)
    if np.any(mask_x & mask_y):
        raise UnresolvedSingularityError("singular patches of x and y overlap")

    cell = grid.cell_volume
    weighted = cell * gx_vals * gy_vals**p
    weighted[mask_y] = 0.0
    weighted[mask_x] = 0.0
    bulk = float(np.sum(weighted))
    bulk_err = _sublattice_spread(weighted)

    ring = max(thr * 1.1, 2.0 * float(np.max(h)))
    h_y = _ring_regular_part(y, basis, s, ring)
    h_x = _ring_regular_part(x, basis, s, ring)

    def smooth_near_y(pts):
        r = np.linalg.norm(pts - y[None, :], axis=1)
        local = np.maximum(g_const - h_y * r**lam_pow, 0.0) ** p
        gx_here = np.maximum(synthesize_at(coeff_x, pts), 0.0)
        return gx_here * local

    def smooth_near_x(pts):
        r = np.linalg.norm(pts - x[None, :], axis=1)
        local = np.maximum(g_const - h_x * r**lam_pow, 0.0)
        gy_here = np.maximum(synthesize_at(coeff_y, pts), 0.0)
        return local * gy_here**p

    def patches(nr, na):
        py = _polar_box_integral(y, lo_y, hi_y, lam_pow * p, smooth_near_y, nr, na)
        px = _polar_box_integral(x, lo_x, hi_x, lam_pow, smooth_near_x, nr, na)
        return py + px

    patch_fine = patches(_PATCH_RADIAL_NODES, _PATCH_ANGULAR_NODES)
    patch_coarse = patches(_PATCH_RADIAL_NODES // 2, _PATCH_ANGULAR_NODES // 2)
    value = bulk + patch_fine
    err = bulk_err + abs(patch_fine - patch_coarse)
    return KernelSample(tuple(x), tuple(y), value, err)
