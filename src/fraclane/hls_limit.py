"""Whole-space objects: the HLS quotient, bubble profiles, radial decay
fitting, and the sharp-decay / log-integral checks.

Fields live on truncated boxes with uniform cell-centered grids. The
free-space convolution |x|^{-(n-2s)} * f is evaluated on the grid by
discrete convolution with a kernel table whose singular cell is replaced by
the exact cell average of the power law, so the midpoint rule never sees
the singularity. Exponent thresholds are decided in `lane_emden` and
`fractional_calculus`; the diagonal oracles share one measurement of kappa.
`ladder_checks` holds the hls command's rules on the bubble ladder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fractional_calculus import (THRESHOLD_TOL, Check, RegimeError, _gauss_legendre,
                                  _polar_box_integral, classify_regime, gns, serrin_exponent)
from .lane_emden import diagonal_exponent, hyperbola_gap


def sphere_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _radii(axes) -> np.ndarray:
    """|x| on the tensor grid of the 1-d coordinate arrays `axes`, in one array:
    the open mesh's squares are added by broadcasting, in axis order, so the
    result is bitwise the root of a sum over meshgrid copies."""
    r = reduce(np.add, [a**2 for a in np.ix_(*axes)])
    return np.sqrt(r, out=r)


class FreeField:
    """Nonnegative samples on a uniform cell-centered grid over a box.

    The box is [lo_i, hi_i] per axis (symmetric truncation boxes [-R, R]^n in
    synthetic use; rescaled sweeps produce the nearly-symmetric image of the
    original domain). Radial quantities are measured from the origin.
    """

    def __init__(self, lo, hi, values):
        values = np.asarray(values, dtype=float)
        lo = tuple(float(a) for a in np.atleast_1d(lo))
        hi = tuple(float(b) for b in np.atleast_1d(hi))
        if len(lo) != values.ndim or len(hi) != values.ndim:
            raise ValueError("box bounds do not match value dimensionality")
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError(f"box bounds must be finite, got {lo}, {hi}")
        if any(b <= a for a, b in zip(lo, hi, strict=True)):
            raise ValueError("box must have positive extent")
        low = values.min()  # min and max are NaN if a value is, and one is infinite if a value is
        if not (math.isfinite(values.max()) and math.isfinite(low)):
            raise ValueError("free field carries non-finite values")
        if low < 0:
            raise ValueError("free field values must be nonnegative")
        self.lo = lo
        self.hi = hi
        self.values = values

    @classmethod
    def centered(cls, radius: float, values) -> "FreeField":
        n = np.asarray(values).ndim
        return cls((-radius,) * n, (radius,) * n, values)

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

    def radii(self) -> np.ndarray:
        return _radii([self.coords(a) for a in range(self.dim)])

    def integral(self, values=None) -> float:
        v = self.values if values is None else values
        return float(self.cell_volume * np.sum(v))

    def lp_norm(self, r: float, values=None) -> float:
        if not 1.0 <= r < math.inf:
            raise ValueError(f"norm exponent must be finite and >= 1, got {r}")
        v = self.values if values is None else values
        return float((self.cell_volume * np.sum(np.abs(v) ** r)) ** (1.0 / r))

    def with_values(self, values) -> "FreeField":
        return FreeField(self.lo, self.hi, values)


@dataclass
class DecayFit:
    """Least-squares radial decay fit over a window."""

    slope: float
    residual: float
    n_shells: int

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("fit residual must be nonnegative")


def _kernel_table(field: FreeField, lam: float) -> np.ndarray:
    """|delta|^{-lam} on the quadrant of offsets [0, m] per axis, (m+1)^n entries.

    The origin holds the exact cell average of the singular cell. An entry at
    offset m on any axis is zero: that offset is both +m and -m of the 2m
    period, and no kept node reads it. The kernel is even, so this quadrant
    holds the whole 2m-periodic kernel.
    """
    table = _radii([np.arange(m + 1) * h for m, h in zip(field.shape, field.spacing, strict=True)])
    origin = (0,) * field.dim
    table[origin] = 1.0
    table **= -lam
    half = np.asarray(field.spacing) / 2.0
    cell_int = _polar_box_integral(
        np.zeros(field.dim), -half, half, lam, lambda pts: np.ones(len(pts)), 12, 32
    )
    table[origin] = cell_int / field.cell_volume
    for axis, m in enumerate(field.shape):
        table[(slice(None),) * axis + (m,)] = 0.0
    return table


def _kernel_spectrum(field: FreeField, lam: float) -> np.ndarray:
    """The real DFT of the 2m-periodic, even kernel at frequencies [0, m] per axis.

    An even real sequence has a real, even spectrum, sum_d K(d) cos(pi d k / m),
    which `irfft` with `norm="forward"` computes from the offsets [0, m]; the
    frequencies above m mirror those below it. Each axis takes one pass, and
    the result is copied out of the last pass's 2m-long lines.
    """
    spectrum = _kernel_table(field, lam)
    for axis, m in enumerate(field.shape):
        kept = (slice(None),) * axis + (slice(0, m + 1),)
        spectrum = np.fft.irfft(spectrum, 2 * m, axis, norm="forward")[kept]
    return spectrum.copy()


def _mirrored_blocks(shape):
    """(spectrum block, half-kernel block) pairs over the leading axes of a
    `rfftn` spectrum of period 2m: frequencies [0, m] read the half-kernel's
    [0, m], and frequencies (m, 2m) read its (0, m) reversed."""
    pairs = [((slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, 2 * m), slice(m - 1, 0, -1)))
             for m in shape[:-1]]
    for blocks in itertools.product(*pairs):
        yield tuple(b[0] for b in blocks), tuple(b[1] for b in blocks)


def free_convolution(field: FreeField, s: float) -> np.ndarray:
    """g_{n,s} (|x|^{-(n-2s)} * f) on the field's nodes (zero outside the box), n = `field.dim`.

    The convolution is circular with period 2m per axis, and the kernel sits
    at offset 0. A kept index k in [0, m) reads offset k - j in (-m, m) for
    every input node j in [0, m), so no wrapped term reaches the kept rows.

    f's spectrum is f's `rfftn` of the 2m-periodic zero extension, taken by
    `rfftn`'s passes in `rfftn`'s order into one zeroed array: `rfft` along
    the last axis of the m data lines only, into the spectrum's leading
    block, then `fft` in place along each leading axis, from the last to the
    first, over only the lines that data reached (the others stay zero).
    The kernel is real and even, so its spectrum is real: `_kernel_spectrum`
    gives it at the frequencies [0, m] per axis, and f's spectrum is
    multiplied by it in place, block by block over the mirrored ranges of
    the leading axes. The inverse transform computes the kept rows only. It
    runs `irfftn`'s passes in `irfftn`'s order: `ifft` in place along each
    leading axis, cutting that axis to its kept range as soon as the pass
    returns, then `irfft` along the last axis on what is left. Each pass
    transforms every line on its own, with one plan per length, and a line
    of m values read at length 2m is the line padded with m zeros, so the
    spectrum is bitwise `rfftn`'s and the result `irfftn(F K)[kept]`.
    """
    shape = field.shape
    fft_shape = tuple(2 * m for m in shape)
    axes = tuple(range(field.dim))
    kernel = _kernel_spectrum(field, field.dim - 2.0 * s)
    spectrum = np.zeros(fft_shape[:-1] + (shape[-1] + 1,), dtype=complex)
    data = tuple(slice(0, m) for m in shape[:-1])
    np.fft.rfft(field.values, fft_shape[-1], -1, out=spectrum[data])
    for axis in reversed(axes[:-1]):
        np.fft.fft(spectrum[data[:axis]], fft_shape[axis], axis, out=spectrum[data[:axis]])
    for block, mirror in _mirrored_blocks(shape):
        spectrum[block] *= kernel[mirror]
    del kernel
    for axis in axes[:-1]:
        np.fft.ifft(spectrum, fft_shape[axis], axis, out=spectrum)
        spectrum = spectrum[(slice(None),) * axis + (slice(0, shape[axis]),)]
    conv = np.fft.irfft(spectrum, fft_shape[-1], -1)[..., : shape[-1]]
    del spectrum
    return gns(field.dim, s) * field.cell_volume * conv


def _require_critical(p: float, q0: float, n: int, s: float):
    gap = hyperbola_gap(p, q0, n, s)
    if abs(gap) > THRESHOLD_TOL:
        raise RegimeError(
            f"(p, q0)=({p}, {q0}) is not a critical pair: hyperbola gap {gap:.3e}"
        )


def hls_quotient(f: FreeField, p: float, q0: float, s: float) -> float:
    """||f||_{(p+1)/p} / (g_{n,s} || |x|^{-(n-2s)} * f ||_{q0+1}) on the grid, n = `f.dim`.

    Requires a critical pair; f is treated as compactly supported in the box.
    The infimum of this quotient over f is the sharp constant, so minimizer
    candidates evaluate to it from above (up to truncation/quadrature).
    """
    _require_critical(p, q0, f.dim, s)
    conv = free_convolution(f, s)
    num = f.lp_norm((p + 1.0) / p)
    den = f.lp_norm(q0 + 1.0, values=conv)
    if den == 0.0:
        raise ValueError("zero field has no quotient")
    return num / den


_SHELL_WIDTH_CELLS = 2.0  # width of a `radial_shells` shell, in grid cells


def radial_shells(field: FreeField):
    """Shell-averaged radial profile: (centers, mean, min, max, counts).

    The radii are scaled to shell units in place, and the shell index is
    clipped in place, so the profile takes one float and one integer array
    of the field's size."""
    r = field.radii().ravel()
    v = field.values.ravel()
    width = _SHELL_WIDTH_CELLS * max(field.spacing)
    nbins = int(math.ceil(r.max() / width))
    r /= width
    idx = r.astype(int)
    del r
    np.minimum(idx, nbins - 1, out=idx)
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
    field: FreeField, window: tuple[float, float], serrin_power: float | None = None,
    shells: tuple[np.ndarray, ...] | None = None,
) -> DecayFit:
    """Radial decay fit over `window`, on `shells`, the field's `radial_shells`
    profile (taken here when not given).

    Default: least-squares slope of log(shell mean) against log r, so an exact
    power law r^a fits slope a (scalar multiples shift the intercept only).
    With `serrin_power` = n - 2s, fits shellmean * r^{n-2s} against log r
    instead (the log-divergence case); the slope is then the log coefficient.
    """
    r_lo, r_hi = window
    rmax_box = float(min(min(-a for a in field.lo), min(field.hi)))
    if not 0.0 < r_lo < r_hi:
        raise ValueError(f"bad radial window {window}")
    if r_hi > rmax_box + 1e-12:
        raise ValueError(
            f"window {window} extends beyond the inscribed radius {rmax_box:.3g}"
        )
    centers, means, _, _, _ = radial_shells(field) if shells is None else shells
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
    return DecayFit(
        slope=float(coef[1]),
        residual=residual,
        n_shells=int(mask.sum()),
    )


@dataclass
class SandwichReport:
    fraction_violating: float
    n_points: int
    passed: bool


def sharp_decay_check(
    v_tilde: FreeField, c1: float, delta: float, window: tuple[float, float], s: float
) -> SandwichReport:
    """Fraction of annulus nodes violating the two-sided bound
    (1 - delta) g C1 |x|^{-(n-2s)} <= v <= (1 + delta) g C1 |x|^{-(n-2s)}, n =
    `v_tilde.dim`, on the annulus `window` = (r_lo, r_hi) of the field's
    coordinates, as in `decay_fit`; passes iff the fraction is zero."""
    n = v_tilde.dim
    r = v_tilde.radii()
    mask = (r >= window[0]) & (r <= window[1])
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


def serrin_constant(c1: float, n: int, s: float) -> float:
    """C3 = (g_{n,s} C1)^{n/(n-2s)} |S^{n-1}|, the limit of the log-normalized
    integral of v^p at the Serrin exponent."""
    return (gns(n, s) * c1) ** serrin_exponent(n, s) * sphere_area(n)


def serrin_log_integral(
    v_tilde: FreeField, p: float, lam: float, c1: float, s: float
) -> SerrinIntegral:
    """(1 / log lam) int v^p against its limit C3 = `serrin_constant`.

    Only defined in the Serrin regime p = n/(n-2s), n = `v_tilde.dim`.
    """
    n = v_tilde.dim
    if classify_regime(p, n, s) != "serrin":
        raise RegimeError(f"log integral needs p = n/(n-2s) = {serrin_exponent(n, s)}, got {p}")
    if lam <= 1.0:
        raise ValueError("normalization needs lam > 1")
    value = v_tilde.integral(values=v_tilde.values**p) / math.log(lam)
    return SerrinIntegral(value=value, target=serrin_constant(c1, n, s))


# ---------------------------------------------------------------------------
# bubble profiles and radial-quadrature oracles (diagonal critical case)

def bubble(r, n: int, s: float):
    """Standard decay profile (1 + r^2)^{-(n-2s)/2}."""
    r = np.asarray(r, dtype=float)
    return (1.0 + r**2) ** (-(n - 2.0 * s) / 2.0)


_AGM_MAX_STEPS = 12  # m up to 1 - 1e-16 needs 8


def _ellipk(m):
    """Complete elliptic integral of the first kind, K(m) = pi / (2 AGM(1, sqrt(1 - m))),
    for m in [0, 1) (Abramowitz & Stegun 17.6)."""
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    for _ in range(_AGM_MAX_STEPS):
        if np.all(a - b <= 4.0 * np.finfo(float).eps * a):
            return math.pi / (a + b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    raise RuntimeError(f"AGM did not converge in {_AGM_MAX_STEPS} steps (m too close to 1)")


def kernel_sphere_integral(r, rho, n: int, lam: float):
    """int_{S^{n-1}} |r e1 - rho w|^{-lam} dw, closed forms for n = 2, 3."""
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if n == 2:
        m = 4.0 * r * rho / (r + rho) ** 2
        if lam != 1.0:
            raise NotImplementedError("n = 2 sphere integral implemented for lam = 1")
        return 4.0 / (r + rho) * _ellipk(m)
    if n == 3:
        a, b = (r - rho) ** 2, (r + rho) ** 2
        if abs(lam - 2.0) < 1e-14:
            return 2.0 * math.pi * np.log(b / a) / (2.0 * r * rho)
        e = 1.0 - lam / 2.0
        return 2.0 * math.pi * (a**e - b**e) / (2.0 * r * rho * (lam / 2.0 - 1.0))
    raise NotImplementedError(f"sphere integral not implemented for n = {n}")


def _gl_on(a: float, b: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [a, b]: the cached, read-only rule of this order
    on [-1, 1], mapped affinely into fresh arrays."""
    x, w = _gauss_legendre(npts)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


_RADIAL_NODES = 2000  # Gauss-Legendre nodes per panel of `_radial_nodes`
_BUBBLE_RMAX = 1e4  # outer radius of the diagonal bubble oracles' quadrature


def _radial_nodes(rmax: float, split_at: float | None = None):
    """Quadrature on [0, rmax]: GL panels near the origin (and at an optional
    interior singularity), log-stretched GL on the far tail."""
    cuts = [0.0]
    if split_at is not None and 0.0 < split_at < 10.0:
        cuts.append(split_at)
    cuts.append(10.0)
    panels = [_gl_on(a, b, _RADIAL_NODES) for a, b in zip(cuts[:-1], cuts[1:], strict=True)]
    t, wt = _gl_on(0.0, 1.0, _RADIAL_NODES)
    scale = math.log(rmax / 10.0)
    rho_tail = 10.0 * np.exp(t * scale)
    panels.append((rho_tail, wt * scale * rho_tail))
    rho = np.concatenate([p[0] for p in panels])
    w = np.concatenate([p[1] for p in panels])
    return rho, w


def radial_convolution(profile, r_points, n: int, s: float, rmax: float):
    """g_{n,s} (|x|^{-(n-2s)} * f)(r) for radial f by 1-d quadrature over [0, rmax].

    The rho-quadrature is split at the (integrable) kernel singularity rho = r.
    """
    lam = n - 2.0 * s
    r_points = np.atleast_1d(np.asarray(r_points, dtype=float))
    out = np.empty_like(r_points)
    for i, r in enumerate(r_points):
        rho, w = _radial_nodes(rmax, split_at=float(r))
        phi = kernel_sphere_integral(r, rho, n, lam)
        out[i] = np.sum(profile(rho) * rho ** (n - 1) * w * phi)
    return gns(n, s) * out


def _bubble_kappa(n: int, s: float) -> float:
    """kappa in g_{n,s} |x|^{-(n-2s)} * b^{q0} = kappa b, for the bubble b at
    the diagonal exponent q0.

    The convolution of the bubble power is shape-invariant (proportional to
    the bubble); kappa is measured at several radii, which must agree to
    quadrature accuracy, a self-check of the radial quadrature.
    """
    q0 = diagonal_exponent(n, s)
    probe = np.array([0.31, 1.0, 2.7])
    conv = radial_convolution(lambda rho: bubble(rho, n, s) ** q0, probe, n, s, _BUBBLE_RMAX)
    kappa_vals = conv / bubble(probe, n, s)
    kappa = float(np.mean(kappa_vals))
    if np.max(np.abs(kappa_vals - kappa)) > 1e-6 * kappa:
        raise RuntimeError("bubble shape-invariance check failed")
    return kappa


def sharp_diagonal_quotient(n: int, s: float) -> float:
    """Sharp HLS quotient value for the diagonal critical pair p = q0, by
    high-resolution radial quadrature on the bubble extremal and its
    `_bubble_kappa`."""
    q0 = diagonal_exponent(n, s)
    kappa = _bubble_kappa(n, s)
    rho, w = _radial_nodes(_BUBBLE_RMAX)
    fq = bubble(rho, n, s) ** q0
    num = (sphere_area(n) * np.sum(w * fq ** ((q0 + 1.0) / q0) * rho ** (n - 1))) ** (
        q0 / (q0 + 1.0)
    )
    den = kappa * (
        sphere_area(n) * np.sum(w * bubble(rho, n, s) ** (q0 + 1.0) * rho ** (n - 1))
    ) ** (1.0 / (q0 + 1.0))
    return num / den


def check_ladder(box_radii, grid_sizes) -> None:
    """The rule of a `bubble_ladder`: at least one rung, every box radius
    finite and R > 0, and every grid at least one node per axis."""
    if len(box_radii) == 0:
        raise ValueError("the bubble ladder needs at least one rung")
    if not all(0 < radius < math.inf for radius in box_radii):
        raise ValueError(f"ladder box radii must be positive and finite, got {tuple(box_radii)}")
    if any(m < 1 for m in grid_sizes):
        raise ValueError(f"ladder grids need at least one node per axis, got {tuple(grid_sizes)}")


def bubble_ladder(n: int, s: float, box_radii, grid_sizes) -> list[float]:
    """HLS quotients of the diagonal critical bubble power on centred boxes
    [-R, R]^n with m nodes per axis, one per (R, m) (`check_ladder`); on
    boxes growing with their grids they approach `sharp_diagonal_quotient`
    from above, up to truncation and quadrature."""
    check_ladder(box_radii, grid_sizes)
    q0 = diagonal_exponent(n, s)
    quotients = []
    for radius, m in zip(box_radii, grid_sizes, strict=True):
        box = FreeField.centered(radius, np.zeros((m,) * n))
        f = box.with_values(bubble(box.radii(), n, s) ** q0)
        quotients.append(hls_quotient(f, q0, q0, s))
    return quotients


def ladder_checks(quotients: list[float], oracle: float) -> tuple[list[float], list[Check]]:
    """Each `bubble_ladder` rung's excess quotient / oracle - 1 over
    `sharp_diagonal_quotient`, and the checks: each rung below the one
    before, and the last within 1% of the oracle."""
    excess, tol = [quotient / oracle - 1.0 for quotient in quotients], 0.01
    return excess, [
        Check("bubble_refinement_monotone",
              all(b < a for a, b in zip(quotients[:-1], quotients[1:], strict=True))),
        Check("bubble_within_1pct", excess[-1] < tol, excess[-1], tol),
    ]
