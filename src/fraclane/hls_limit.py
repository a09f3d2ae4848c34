"""Whole-space objects: the HLS quotient, bubble profiles, radial decay
fitting, and the sharp-decay / log-integral checks.

Fields live on truncated boxes with uniform cell-centered grids. The
free-space convolution |x|^{-(n-2s)} * f is evaluated on the grid by
discrete convolution with a kernel table whose singular cell is replaced by
the exact cell average of the power law, so the midpoint rule never sees
the singularity. Exponent thresholds are decided in `lane_emden` and
`fractional_calculus`: `hls_quotient` takes its critical pair from
`critical_q`; the diagonal oracles share one measurement of kappa, and
`check_sphere_integral` states the (n, s) their radial quadrature covers.
`ladder_checks` holds the hls command's rules on the bubble ladder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fractional_calculus import (Check, RegimeError, _gauss_legendre, _polar_box_integral,
                                  classify_regime, gns, serrin_exponent)
from .lane_emden import critical_q, diagonal_exponent


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
        powers = np.abs(self.values if values is None else values)
        powers **= r  # `**`'s own exponent dispatch, as np.abs(v) ** r, in one array
        return float((self.cell_volume * np.sum(powers)) ** (1.0 / r))

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


_BLOCK_BYTES = 3 << 17  # a block's complex lines at the transform length, in bytes


def _blocks(count: int, unit_bytes: int) -> list[slice]:
    """range(count) cut into slices of _BLOCK_BYTES // unit_bytes units (at
    least one each), the last one shorter when the step does not divide count."""
    step = max(1, _BLOCK_BYTES // unit_bytes)
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


def _kernel_spectrum(field: FreeField, lam: float) -> np.ndarray:
    """The real DFT of the 2m-periodic, even kernel at frequencies [0, m] per axis.

    An even real sequence has a real, even spectrum, sum_d K(d) cos(pi d k / m),
    which `irfft` with `norm="forward"` computes from the offsets [0, m]; the
    frequencies above m mirror those below it. Each axis takes one pass over
    the (m+1)^n quadrant table, a block of lines per `irfft`, each line cut
    back from 2m values to [0, m]. The leading axes' passes write back into
    the table. The last axis's pass writes into an array laid out last axis
    first, so that the kernel of one last-axis frequency is one contiguous
    block, and the result is that array's view in the field's axis order.
    """
    table = _kernel_table(field, lam)
    spectrum = np.empty(table.shape[-1:] + table.shape[:-1])
    for axis, m in enumerate(field.shape):
        lines = table.reshape(math.prod(table.shape[:axis]), m + 1, -1)
        dest = lines if axis < field.dim - 1 else spectrum.reshape(m + 1, -1).T[:, :, None]
        if axis == 0:  # no axis before the first: the blocks run over its lines
            lines, dest = lines.transpose(2, 1, 0), dest.transpose(2, 1, 0)
        for part in _blocks(len(lines), lines.shape[2] * 32 * m):
            dest[part] = np.fft.irfft(lines[part], 2 * m, 1, norm="forward")[:, : m + 1]
    return np.moveaxis(spectrum, 0, -1)


def _mirrored_blocks(shape):
    """(spectrum block, half-kernel block) pairs over the leading axes of a
    spectrum of period 2m: frequencies [0, m] read the half-kernel's [0, m],
    and frequencies (m, 2m) read its (0, m) reversed."""
    pairs = [((slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, 2 * m), slice(m - 1, 0, -1)))
             for m in shape[:-1]]
    for blocks in itertools.product(*pairs):
        yield tuple(b[0] for b in blocks), tuple(b[1] for b in blocks)


def _convolve_leading(block, kernel, pads, product) -> None:
    """One block of last-axis frequencies of f's half spectrum, (m, ..., m, w),
    convolved along the leading axes in place, with `kernel` the block's
    half-kernel, (m+1, ..., m+1, w).

    pads[a] is the input of the pass along leading axis a: the axes before a
    at m, the others at 2m, zero beyond m on axis a; `product` has every
    leading axis at 2m. The block enters the head of the last pad, each
    `fft` writes into the head of the pad before, the first into `product`.
    The mirrored kernel is cast into pads[0], whose input is spent, and
    multiplies `product` there. Each `ifft` writes into its axis's pad, whose
    head the next one reads, and the last pad's head is written back; the
    pads' tails are then zeroed again. Every pass reads lines of 2m, the
    length it transforms.
    """
    width = (..., slice(0, block.shape[-1]))
    pads, product = [pad[width] for pad in pads], product[width]
    lead = block.shape[:-1]
    heads = [(slice(None),) * a + (slice(0, m),) for a, m in enumerate(lead)]
    pads[-1][heads[-1]] = block
    for a in reversed(range(len(lead))):
        np.fft.fft(pads[a], 2 * lead[a], a, out=pads[a - 1][heads[a - 1]] if a else product)
    for part, mirror in _mirrored_blocks(block.shape):
        pads[0][part] = kernel[mirror]
    product *= pads[0]
    for a in range(len(lead)):
        np.fft.ifft(pads[a - 1][heads[a - 1]] if a else product, 2 * lead[a], a, out=pads[a])
    block[...] = pads[-1][heads[-1]]
    for a, m in enumerate(lead):
        pads[a][(slice(None),) * a + (slice(m, None),)] = 0.0


def free_convolution(field: FreeField, s: float) -> np.ndarray:
    """g_{n,s} (|x|^{-(n-2s)} * f) on the field's nodes (zero outside the box), n = `field.dim`.

    The convolution is circular with period 2m per axis, and the kernel sits
    at offset 0. A kept index k in [0, m) reads offset k - j in (-m, m) for
    every input node j in [0, m), so no wrapped term reaches the kept rows.

    The transforms are `rfftn`'s and `irfftn`'s passes, in their order,
    streamed so that no array holds f's whole (2m)^{n-1}(m+1) spectrum.
    f's last-axis `rfft` at length 2m takes the m data lines into an
    (m, ..., m, m+1) complex array, half of that spectrum. Each block of its
    columns (last-axis frequencies) then runs the leading-axis `fft`s at
    length 2m, from the last leading axis to the first, the product with the
    kernel's real spectrum (`_kernel_spectrum`, frequencies [0, m], read
    mirrored above m), and the `ifft`s from the first leading axis to the
    last, each cut to its kept rows [0, m), and is written back
    (`_convolve_leading`). The last-axis `irfft` runs by blocks of rows, each
    block scaled into the (m)^n output. Each pass transforms every line on
    its own, with one plan per length, and a line of m values padded with m
    zeros is what `fft` reads at length 2m, so the result is bitwise
    `irfftn(rfftn(f, 2m) K)` cut to the kept rows. At its peak the call holds
    the half spectrum, the kernel spectrum and the column block's buffers,
    at most _BLOCK_BYTES each.
    """
    shape, lead = field.shape, field.shape[:-1]
    m, fft_lead = shape[-1], tuple(2 * k for k in lead)
    kernel = _kernel_spectrum(field, field.dim - 2.0 * s)
    spectrum = np.fft.rfft(field.values, 2 * m, -1)
    blocks = _blocks(m + 1, 16 * math.prod(fft_lead))
    # the block buffers are laid out column first, like the kernel, so that
    # each column is contiguous and each pass runs over all its lines at once
    widest = (blocks[0].stop,)
    pads = [np.moveaxis(np.zeros(widest + lead[:a] + fft_lead[a:], complex), 0, -1)
            for a in range(len(lead))]
    product = np.moveaxis(np.empty(widest + fft_lead, complex), 0, -1) if lead else None
    for cols in blocks:
        if lead:
            _convolve_leading(spectrum[..., cols], kernel[..., cols], pads, product)
        else:
            spectrum[cols] *= kernel[cols]
    del kernel, pads, product
    scale = gns(field.dim, s) * field.cell_volume
    conv = np.empty(shape)
    rows_in, rows_out = spectrum.reshape(-1, m + 1), conv.reshape(-1, m)
    blocks = _blocks(len(rows_in), 32 * m)
    lines = np.empty((blocks[0].stop, 2 * m))
    for rows in blocks:
        height = slice(0, rows.stop - rows.start)
        np.fft.irfft(rows_in[rows], 2 * m, -1, out=lines[height])
        np.multiply(lines[height, :m], scale, out=rows_out[rows])
    return conv


def hls_quotient(f: FreeField, p: float, s: float) -> float:
    """||f||_{(p+1)/p} / (g_{n,s} || |x|^{-(n-2s)} * f ||_{q0+1}) on the grid, n = `f.dim`.

    q0 = `critical_q`(p, n, s) is p's critical partner, so the pair (p, q0)
    meets the hypotheses of `ExponentPair` or is refused by it, a p above
    the diagonal exponent (q0 < p) among them; f is treated as compactly
    supported in the box. The infimum of this quotient over f is the sharp
    constant, so minimizer candidates evaluate to it from above (up to
    truncation/quadrature).
    """
    q0 = critical_q(p, f.dim, s)
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


def sharp_decay_check(
    v_tilde: FreeField, c1: float, delta: float, window: tuple[float, float], s: float
) -> SandwichReport:
    """Fraction of annulus nodes violating the two-sided bound
    (1 - delta) g C1 |x|^{-(n-2s)} <= v <= (1 + delta) g C1 |x|^{-(n-2s)}, n =
    `v_tilde.dim`, on the annulus `window` = (r_lo, r_hi) of the field's
    coordinates, as in `decay_fit`."""
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
    return SandwichReport(fraction_violating=frac, n_points=npts)


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


def check_sphere_integral(n: int, s: float) -> None:
    """The rule of the radial-quadrature oracles: `kernel_sphere_integral`
    has a closed form for n = 3 at every lam = n - 2s, and for n = 2 only at
    lam = 1 (s = 1/2)."""
    if not (n == 3 or (n == 2 and n - 2.0 * s == 1.0)):
        raise RegimeError(f"the radial-quadrature oracle needs n = 3, or n = 2 with "
                          f"lam = n - 2s = 1 (its sphere integral's closed forms), "
                          f"got n = {n}, s = {s}")


def kernel_sphere_integral(r, rho, n: int, s: float):
    """int_{S^{n-1}} |r e1 - rho w|^{-lam} dw with lam = n - 2s, in closed
    form on the (n, s) of `check_sphere_integral`."""
    check_sphere_integral(n, s)
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if n == 2:
        return 4.0 / (r + rho) * _ellipk(4.0 * r * rho / (r + rho) ** 2)
    lam = n - 2.0 * s
    a, b = (r - rho) ** 2, (r + rho) ** 2
    if abs(lam - 2.0) < 1e-14:
        return 2.0 * math.pi * np.log(b / a) / (2.0 * r * rho)
    e = 1.0 - lam / 2.0
    return 2.0 * math.pi * (a**e - b**e) / (2.0 * r * rho * (lam / 2.0 - 1.0))


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
    r_points = np.atleast_1d(np.asarray(r_points, dtype=float))
    out = np.empty_like(r_points)
    for i, r in enumerate(r_points):
        rho, w = _radial_nodes(rmax, split_at=float(r))
        phi = kernel_sphere_integral(r, rho, n, s)
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
    `_bubble_kappa`; an (n, s) outside `check_sphere_integral` is refused
    before any quadrature."""
    check_sphere_integral(n, s)
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
    """The rule of a `bubble_ladder`: one grid per box radius, at least one
    rung, every box radius finite and R > 0, and every grid at least one node
    per axis."""
    if len(box_radii) != len(grid_sizes):
        raise ValueError("hls_box_list and hls_grid_list must have equal length")
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
        quotients.append(hls_quotient(f, q0, s))
    return quotients


def ladder_checks(quotients: list[float], oracle: float) -> tuple[list[float], list[Check]]:
    """Each `bubble_ladder` rung's excess quotient / oracle - 1 over
    `sharp_diagonal_quotient`, and the checks: each rung below the one
    before, and the last within 1% of the oracle."""
    excess, tol = [quotient / oracle - 1.0 for quotient in quotients], 0.01
    return excess, [
        Check("bubble_refinement_monotone",
              all(b < a for a, b in zip(quotients[:-1], quotients[1:], strict=True))),
        Check.bound("bubble_within_1pct", excess[-1], tol, strict=True),
    ]
