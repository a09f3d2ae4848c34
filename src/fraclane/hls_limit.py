"""Whole-space objects: the HLS quotient, the limit integral system, bubble
profiles, radial decay fitting, and the sharp-decay / log-integral checks.

Fields live on truncated boxes with uniform cell-centered grids. The
free-space convolution |x|^{-(n-2s)} * f is evaluated on the grid by
discrete convolution with a kernel table whose singular cell is replaced by
the exact cell average of the power law, so the midpoint rule never sees
the singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipk, gamma as gamma_fn

from .fractional_calculus import RegimeError, _polar_box_integral, gns


def sphere_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


class FreeField:
    """Nonnegative samples on a uniform cell-centered grid over a box.

    The box is [lo_i, hi_i] per axis (symmetric truncation boxes [-R, R]^n in
    synthetic use; rescaled sweeps produce the nearly-symmetric image of the
    original domain). Radial quantities are measured from the origin.
    """

    def __init__(self, lo, hi, values, decay_exponent_hint: float | None = None):
        values = np.asarray(values, dtype=float)
        lo = tuple(float(a) for a in np.atleast_1d(lo))
        hi = tuple(float(b) for b in np.atleast_1d(hi))
        if len(lo) != values.ndim or len(hi) != values.ndim:
            raise ValueError("box bounds do not match value dimensionality")
        if any(b <= a for a, b in zip(lo, hi, strict=True)):
            raise ValueError("box must have positive extent")
        if not np.all(np.isfinite(values)):
            raise ValueError("free field carries non-finite values")
        if values.min() < 0:
            raise ValueError("free field values must be nonnegative")
        self.lo = lo
        self.hi = hi
        self.values = values
        self.decay_exponent_hint = decay_exponent_hint

    @classmethod
    def centered(cls, radius: float, values, decay_exponent_hint=None) -> "FreeField":
        n = np.asarray(values).ndim
        return cls((-radius,) * n, (radius,) * n, values, decay_exponent_hint)

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (b - a) / m for a, b, m in zip(self.lo, self.hi, self.shape, strict=True)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.lo[axis] + (np.arange(self.shape[axis]) + 0.5) * h

    def meshgrid(self):
        return np.meshgrid(*[self.coords(a) for a in range(self.dim)], indexing="ij")

    def radii(self) -> np.ndarray:
        mesh = self.meshgrid()
        return np.sqrt(np.add.reduce([m**2 for m in mesh]))

    def integral(self, values=None) -> float:
        v = self.values if values is None else values
        return float(self.cell_volume * np.sum(v))

    def lp_norm(self, r: float, values=None) -> float:
        if r < 1.0:
            raise ValueError(f"norm exponent must be >= 1, got {r}")
        v = self.values if values is None else values
        return float((self.cell_volume * np.sum(np.abs(v) ** r)) ** (1.0 / r))

    def with_values(self, values) -> "FreeField":
        return FreeField(self.lo, self.hi, values, self.decay_exponent_hint)


@dataclass
class DecayFit:
    """Least-squares radial decay fit over a window, plus regime classification."""

    slope: float
    window: tuple[float, float]
    residual: float
    n_shells: int
    regime: str | None = None

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("fit residual must be nonnegative")


def _kernel_table(field: FreeField, lam: float) -> np.ndarray:
    """|delta|^{-lam} on the (2m-1)^n offset lattice, singular cell averaged exactly."""
    axes = [
        np.arange(-(m - 1), m) * h for m, h in zip(field.shape, field.spacing, strict=True)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(np.add.reduce([g**2 for g in mesh]))
    center = tuple(m - 1 for m in field.shape)
    r[center] = 1.0
    table = r**-lam
    half = np.asarray(field.spacing) / 2.0
    cell_int = _polar_box_integral(
        np.zeros(field.dim), -half, half, lam, lambda pts: np.ones(len(pts)), 12, 32
    )
    table[center] = cell_int / field.cell_volume
    return table


def free_convolution(field: FreeField, n: int, s: float, values=None) -> np.ndarray:
    """g_{n,s} (|x|^{-(n-2s)} * f) on the field's nodes (zero outside the box)."""
    f = field.values if values is None else np.asarray(values, dtype=float)
    lam = n - 2.0 * s
    table = _kernel_table(field, lam)
    shape = f.shape
    fft_shape = tuple(m + t - 1 for m, t in zip(shape, table.shape, strict=True))
    axes = tuple(range(f.ndim))
    F = np.fft.rfftn(f, fft_shape, axes=axes)
    K = np.fft.rfftn(table, fft_shape, axes=axes)
    full = np.fft.irfftn(F * K, fft_shape, axes=axes)
    sl = tuple(slice(m - 1, 2 * m - 1) for m in shape)
    return gns(n, s) * field.cell_volume * full[sl]


def _require_critical(p: float, q0: float, n: int, s: float):
    gap = 1.0 / (p + 1.0) + 1.0 / (q0 + 1.0) - (n - 2.0 * s) / n
    if abs(gap) > 1e-12:
        raise RegimeError(
            f"(p, q0)=({p}, {q0}) is not a critical pair: hyperbola gap {gap:.3e}"
        )


def hls_quotient(f: FreeField, p: float, q0: float, n: int, s: float) -> float:
    """||f||_{(p+1)/p} / (g_{n,s} || |x|^{-(n-2s)} * f ||_{q0+1}) on the grid.

    Requires a critical pair; f is treated as compactly supported in the box.
    The infimum of this quotient over f is the sharp constant, so minimizer
    candidates evaluate to it from above (up to truncation/quadrature).
    """
    _require_critical(p, q0, n, s)
    conv = free_convolution(f, n, s)
    num = f.lp_norm((p + 1.0) / p)
    den = f.lp_norm(q0 + 1.0, values=conv)
    if den == 0.0:
        raise ValueError("zero field has no quotient")
    return num / den


@dataclass
class LimitSystemResidual:
    residual_u: float
    residual_v: float
    tail_budget_u: float
    tail_budget_v: float
    quad_budget_u: float = 0.0
    quad_budget_v: float = 0.0

    @property
    def residuals(self) -> tuple[float, float]:
        return (self.residual_u, self.residual_v)

    @property
    def budgets(self) -> tuple[float, float]:
        return (
            self.tail_budget_u + self.quad_budget_u,
            self.tail_budget_v + self.quad_budget_v,
        )


def _tail_budget(field: FreeField, power: float, n: int, s: float) -> float:
    """Convolution tail beyond the box for f ~ A r^{-gamma}, bounding the kernel
    by (rho - R/2)^{-lam} for interior targets |x| <= R/2; inf when the tail is
    not integrable. Carries a 1.5x margin for the amplitude/shape estimates."""
    gamma = field.decay_exponent_hint
    if gamma is None:
        # no hint: the tail is unknowable; only the zero field has zero tail
        return 0.0 if not np.any(field.values) else math.inf
    gamma = abs(gamma) * power
    lam = n - 2.0 * s
    r = field.radii()
    rmax = float(min(min(-a for a in field.lo), min(field.hi)))
    shell = (r >= rmax - 2 * max(field.spacing)) & (r <= rmax)
    if not np.any(shell):
        return 0.0
    amp = float(np.max(field.values[shell] ** power * r[shell] ** gamma))
    if lam + gamma <= n:
        return math.inf
    # worst interior target sits at the sub-box corner, radius R sqrt(n)/2;
    # int_R^inf (rho - r_far)^{-lam} rho^{n-1-gamma} drho on log-stretched nodes
    r_far = rmax * math.sqrt(n) / 2.0
    t, wt = _gl_on(0.0, 1.0, 256)
    stretch = math.log(1e6)
    rho = rmax * np.exp(t * stretch)
    wr = wt * stretch * rho
    integral = float(np.sum(wr * (rho - r_far) ** -lam * rho ** (n - 1.0 - gamma)))
    return 1.5 * gns(n, s) * amp * sphere_area(n) * integral


def _block_mean(values: np.ndarray) -> np.ndarray:
    """Mean over 2^n blocks (trailing odd slab trimmed)."""
    v = values
    for axis in range(v.ndim):
        m2 = v.shape[axis] // 2
        sl = [slice(None)] * v.ndim
        sl[axis] = slice(0, 2 * m2)
        v = v[tuple(sl)]
        shape = list(v.shape)
        shape[axis : axis + 1] = [m2, 2]
        v = v.reshape(shape).mean(axis=axis + 1)
    return v


def _coarse_convolution_gap(field: FreeField, n: int, s: float, values, fine: np.ndarray) -> float:
    """h vs 2h midpoint-convolution difference (cell means): quadrature scale."""
    if any(m < 4 for m in field.shape):
        return 0.0
    coarse_vals = _block_mean(np.asarray(values, dtype=float))
    hi = tuple(
        a + 2.0 * h * m2
        for a, h, m2 in zip(field.lo, field.spacing, coarse_vals.shape, strict=True)
    )
    coarse = FreeField(field.lo, hi, np.maximum(coarse_vals, 0.0))
    conv_c = free_convolution(coarse, n, s)
    trim = tuple(slice(0, 2 * m2) for m2 in coarse_vals.shape)
    gap = np.abs(_block_mean(fine[trim]) - conv_c)
    # the h-2h gap tracks the true error closely (near-kernel cells converge
    # at first order); 1.5x turns the estimate into a working bound
    return 1.5 * float(np.max(gap))


def limit_system_residual(
    u: FreeField, v: FreeField, p: float, q0: float, n: int, s: float
) -> LimitSystemResidual:
    """Sup-norm residuals of U = g k * V^p and V = g k * U^{q0} on the interior
    half-box; the error budget combines convolution-tail estimates from the
    decay hints with an h-vs-2h quadrature estimate."""
    _require_critical(p, q0, n, s)
    conv_vp = free_convolution(v, n, s, values=v.values**p)
    conv_uq = free_convolution(u, n, s, values=u.values**q0)
    mesh = u.meshgrid()
    interior = np.ones(u.shape, dtype=bool)
    for axis, g in enumerate(mesh):
        half = 0.5 * min(-u.lo[axis], u.hi[axis])
        interior &= np.abs(g) <= half
    res_u = float(np.max(np.abs(u.values - conv_vp)[interior])) if interior.any() else 0.0
    res_v = float(np.max(np.abs(v.values - conv_uq)[interior])) if interior.any() else 0.0
    return LimitSystemResidual(
        residual_u=res_u,
        residual_v=res_v,
        tail_budget_u=_tail_budget(v, p, n, s),
        tail_budget_v=_tail_budget(u, q0, n, s),
        quad_budget_u=_coarse_convolution_gap(v, n, s, v.values**p, conv_vp),
        quad_budget_v=_coarse_convolution_gap(u, n, s, u.values**q0, conv_uq),
    )


def radial_shells(field: FreeField, width_cells: float = 2.0):
    """Shell-averaged radial profile: (centers, mean, min, max, counts)."""
    r = field.radii().ravel()
    v = field.values.ravel()
    width = width_cells * max(field.spacing)
    nbins = int(math.ceil(r.max() / width))
    idx = np.minimum((r / width).astype(int), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    sums = np.bincount(idx, weights=v, minlength=nbins)
    mins = np.full(nbins, np.inf)
    maxs = np.full(nbins, -np.inf)
    np.minimum.at(mins, idx, v)
    np.maximum.at(maxs, idx, v)
    centers = (np.arange(nbins) + 0.5) * width
    good = counts > 0
    with np.errstate(invalid="ignore"):
        means = np.where(good, sums / np.maximum(counts, 1), np.nan)
    return centers[good], means[good], mins[good], maxs[good], counts[good]


def decay_fit(
    field: FreeField,
    window: tuple[float, float],
    serrin_power: float | None = None,
    regime_slopes: dict[str, float] | None = None,
) -> DecayFit:
    """Radial decay fit over `window`.

    Default: least-squares slope of log(shell mean) against log r, so an exact
    power law r^a fits slope a (scalar multiples shift the intercept only).
    With `serrin_power` = n - 2s, fits shellmean * r^{n-2s} against log r
    instead (the log-divergence case); the slope is then the log coefficient.
    `regime_slopes` maps regime labels to predicted slopes; the fit is
    classified to the nearest one.
    """
    r_lo, r_hi = window
    rmax_box = float(min(min(-a for a in field.lo), min(field.hi)))
    if not 0.0 < r_lo < r_hi:
        raise ValueError(f"bad radial window {window}")
    if r_hi > rmax_box + 1e-12:
        raise ValueError(
            f"window {window} extends beyond the inscribed radius {rmax_box:.3g}"
        )
    centers, means, _, _, _ = radial_shells(field)
    mask = (centers >= r_lo) & (centers <= r_hi) & (means > 0)
    if not np.any(mask):
        raise ValueError(f"no shells with positive mean in window {window}")
    rr = centers[mask]
    mm = means[mask]
    x = np.log(rr)
    y = mm * rr**serrin_power if serrin_power is not None else np.log(mm)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    slope = float(coef[1])
    regime = None
    if regime_slopes:
        regime = min(regime_slopes, key=lambda k: abs(regime_slopes[k] - slope))
    return DecayFit(
        slope=slope,
        window=(float(r_lo), float(r_hi)),
        residual=residual,
        n_shells=int(mask.sum()),
        regime=regime,
    )


@dataclass
class SandwichReport:
    fraction_violating: float
    n_points: int
    passed: bool


def sharp_decay_check(
    v_tilde: FreeField,
    c1: float,
    delta: float,
    r_inner: float,
    r_outer: float,
    lam: float,
    n: int,
    s: float,
) -> SandwichReport:
    """Fraction of annulus nodes violating the two-sided bound
    (1 - delta) g C1 |x|^{-(n-2s)} <= v <= (1 + delta) g C1 |x|^{-(n-2s)}
    on r_inner <= |x| <= lam * r_outer; passes iff the fraction is zero."""
    r = v_tilde.radii()
    mask = (r >= r_inner) & (r <= lam * r_outer)
    npts = int(mask.sum())
    if npts == 0:
        raise ValueError("empty annulus for the sharp-decay check")
    envelope = gns(n, s) * c1 * r[mask] ** -(n - 2.0 * s)
    vals = v_tilde.values[mask]
    bad = (vals < (1.0 - delta) * envelope) | (vals > (1.0 + delta) * envelope)
    frac = float(np.mean(bad))
    return SandwichReport(fraction_violating=frac, n_points=npts, passed=frac == 0.0)


@dataclass
class SerrinIntegral:
    value: float
    target: float


def serrin_log_integral(
    v_tilde: FreeField, p: float, lam: float, c1: float, n: int, s: float
) -> SerrinIntegral:
    """(1 / log lam) int v^p against its limit (g C1)^{n/(n-2s)} |S^{n-1}|.

    Only defined at the Serrin exponent p = n/(n-2s).
    """
    serrin = n / (n - 2.0 * s)
    if abs(p - serrin) > 1e-12:
        raise RegimeError(f"log integral needs p = n/(n-2s) = {serrin}, got {p}")
    if lam <= 1.0:
        raise ValueError("normalization needs lam > 1")
    value = v_tilde.integral(values=v_tilde.values**p) / math.log(lam)
    target = (gns(n, s) * c1) ** (n / (n - 2.0 * s)) * sphere_area(n)
    return SerrinIntegral(value=value, target=target)


# ---------------------------------------------------------------------------
# bubble profiles and radial-quadrature oracles (diagonal critical case)

def bubble(r, n: int, s: float):
    """Standard decay profile (1 + r^2)^{-(n-2s)/2}."""
    r = np.asarray(r, dtype=float)
    return (1.0 + r**2) ** (-(n - 2.0 * s) / 2.0)


def kernel_sphere_integral(r, rho, n: int, lam: float):
    """int_{S^{n-1}} |r e1 - rho w|^{-lam} dw, closed forms for n = 2, 3."""
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if n == 2:
        m = 4.0 * r * rho / (r + rho) ** 2
        if lam != 1.0:
            raise NotImplementedError("n = 2 sphere integral implemented for lam = 1")
        return 4.0 / (r + rho) * ellipk(m)
    if n == 3:
        a, b = (r - rho) ** 2, (r + rho) ** 2
        if abs(lam - 2.0) < 1e-14:
            return 2.0 * math.pi * np.log(b / a) / (2.0 * r * rho)
        e = 1.0 - lam / 2.0
        return 2.0 * math.pi * (a**e - b**e) / (2.0 * r * rho * (lam / 2.0 - 1.0))
    raise NotImplementedError(f"sphere integral not implemented for n = {n}")


def _gl_on(a: float, b: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _radial_nodes(rmax: float, nquad: int, split_at: float | None = None):
    """Quadrature on [0, rmax]: GL panels near the origin (and at an optional
    interior singularity), log-stretched GL on the far tail."""
    cuts = [0.0]
    if split_at is not None and 0.0 < split_at < 10.0:
        cuts.append(split_at)
    cuts.append(10.0)
    panels = []
    for a, b in zip(cuts[:-1], cuts[1:], strict=True):
        panels.append(_gl_on(a, b, nquad))
    t, wt = _gl_on(0.0, 1.0, nquad)
    scale = math.log(rmax / 10.0)
    rho_tail = 10.0 * np.exp(t * scale)
    panels.append((rho_tail, wt * scale * rho_tail))
    rho = np.concatenate([p[0] for p in panels])
    w = np.concatenate([p[1] for p in panels])
    return rho, w


def radial_convolution(profile, r_points, n: int, s: float, rmax: float, nquad: int = 2000):
    """g_{n,s} (|x|^{-(n-2s)} * f)(r) for radial f by 1-d quadrature over [0, rmax].

    The rho-quadrature is split at the (integrable) kernel singularity rho = r.
    """
    lam = n - 2.0 * s
    r_points = np.atleast_1d(np.asarray(r_points, dtype=float))
    out = np.empty_like(r_points)
    for i, r in enumerate(r_points):
        rho, w = _radial_nodes(rmax, nquad, split_at=float(r))
        phi = kernel_sphere_integral(r, rho, n, lam)
        out[i] = np.sum(profile(rho) * rho ** (n - 1) * w * phi)
    return gns(n, s) * out


def sharp_diagonal_quotient(n: int, s: float, nquad: int = 2000, rmax: float = 1e4) -> float:
    """Sharp HLS quotient value for the diagonal critical pair p = q0, by
    high-resolution radial quadrature on the bubble extremal.

    The convolution of the bubble power is shape-invariant (proportional to
    the bubble); the proportionality kappa is measured at several radii and
    must agree to quadrature accuracy, which doubles as a self-check.
    """
    q0 = (n + 2.0 * s) / (n - 2.0 * s)
    probe = np.array([0.31, 1.0, 2.7])
    conv = radial_convolution(
        lambda rho: bubble(rho, n, s) ** q0, probe, n, s, rmax, nquad
    )
    kappa_vals = conv / bubble(probe, n, s)
    kappa = float(np.mean(kappa_vals))
    if np.max(np.abs(kappa_vals - kappa)) > 1e-6 * kappa:
        raise RuntimeError("bubble shape-invariance check failed; raise nquad/rmax")
    rho, w = _radial_nodes(rmax, nquad)
    fq = bubble(rho, n, s) ** q0
    num = (sphere_area(n) * np.sum(w * fq ** ((q0 + 1.0) / q0) * rho ** (n - 1))) ** (
        q0 / (q0 + 1.0)
    )
    den = kappa * (
        sphere_area(n) * np.sum(w * bubble(rho, n, s) ** (q0 + 1.0) * rho ** (n - 1))
    ) ** (1.0 / (q0 + 1.0))
    return num / den


def bubble_pair(n: int, s: float, kappa: float | None = None):
    """Scaled bubble pair solving the diagonal limit system U = g k * V^p,
    V = g k * U^{q0}: returns (amplitude, q0) with U = V = amplitude * bubble."""
    q0 = (n + 2.0 * s) / (n - 2.0 * s)
    if kappa is None:
        probe = np.array([0.5, 1.5])
        conv = radial_convolution(
            lambda rho: bubble(rho, n, s) ** q0, probe, n, s, 1e4, 2000
        )
        kappa = float(np.mean(conv / bubble(probe, n, s)))
    amplitude = kappa ** (-(q0 + 1.0) / (q0 * q0 - 1.0))
    return amplitude, q0
