"""Whole-space quotient, limit-system, decay-fit and Appendix-style checks."""

import math

import numpy as np
import pytest
from oracles import (bubble_pair, full_table_free_convolution, limit_system_residuals, mesh_radii,
                     plain_free_convolution, plain_kernel_table, plain_quadrant_table,
                     traced_peak)

import fraclane as fl
from fraclane import fractional_calculus as fc
from fraclane import hls_limit as hl
from fraclane.lane_emden import diagonal_exponent


def radial_field(radius, m, profile, n=2):
    r = mesh_radii([(np.arange(m) + 0.5) * (2 * radius / m) - radius for _ in range(n)])
    return hl.FreeField.centered(radius, profile(r))


@pytest.fixture(scope="module")
def bubble_2d():
    amp, q0 = bubble_pair(2, 0.5)
    return amp, q0


def test_free_field_validation():
    with pytest.raises(ValueError):
        hl.FreeField((-1.0,), (1.0,), -np.ones(8))
    with pytest.raises(ValueError):
        hl.FreeField((-1.0, -1.0), (1.0,), np.ones((4, 4)))
    for lo, hi in [((-math.inf,), (1.0,)), ((-1.0,), (math.inf,)), ((math.nan,), (1.0,))]:
        with pytest.raises(ValueError, match="bounds must be finite"):
            hl.FreeField(lo, hi, np.ones(8))
    f = hl.FreeField.centered(2.0, np.ones((4, 4)))
    assert f.cell_volume == pytest.approx(1.0)
    assert f.integral() == pytest.approx(16.0)
    # the orders spectral_domain.lp_norm refuses
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and >= 1"):
            f.lp_norm(r)


def test_sphere_area():
    assert hl.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert hl.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)


def test_ellipk_matches_scipy():
    # the AGM form against SciPy's Cephes ellipk, over [0, 1) and up to the
    # last double below 1, where K ~ 19.7; 4 eps relative covers the last
    # AGM step's rounding and SciPy's own
    ellipk = pytest.importorskip("scipy.special").ellipk
    m = np.concatenate([np.linspace(0.0, 1.0, 20001)[:-1], 1.0 - np.logspace(-16, -1, 400)])
    assert np.max(np.abs(hl._ellipk(m) / ellipk(m) - 1.0)) <= 4 * np.finfo(float).eps
    assert hl._ellipk(np.array(0.0)) == math.pi / 2
    with pytest.raises(RuntimeError, match="AGM"):
        hl._ellipk(np.array([0.5, 1.0]))


def test_sharp_diagonal_quotient_matches_analytic():
    # n=2, s=1/2 diagonal sharp constant is sqrt(pi) (bubble closed form)
    val = hl.sharp_diagonal_quotient(2, 0.5)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-5)


def test_sharp_diagonal_quotient_builds_each_rule_once(monkeypatch):
    # counted at the one rule builder, whichever eigensolver it picks
    built = []
    build = fc._legendre_rule

    def counting_build(order):
        built.append(order)
        return build(order)

    monkeypatch.setattr(fc, "_legendre_rule", counting_build)
    fc._gauss_legendre.cache_clear()
    first = hl.sharp_diagonal_quotient(2, 0.5)
    assert built.count(2000) == 1
    built.clear()
    assert hl.sharp_diagonal_quotient(2, 0.5) == first
    assert built == []


@pytest.mark.parametrize("n, s", [(1, 0.25), (2, 0.25)])
def test_sharp_diagonal_quotient_refuses_before_any_quadrature(n, s, monkeypatch):
    # the rule comes first: no radial quadrature runs on an (n, s) it cannot compute
    def untouched(*args, **kwargs):
        raise AssertionError("radial_convolution ran")

    monkeypatch.setattr(hl, "radial_convolution", untouched)
    with pytest.raises(fl.RegimeError, match="radial-quadrature oracle needs n = 3"):
        hl.sharp_diagonal_quotient(n, s)


def test_sphere_integral_rule_covers_n3_and_the_2d_half():
    # the closed forms: n = 3 at every s, n = 2 only at s = 1/2, n = 1 at none
    covered = {n: [] for n in (1, 2, 3)}
    for n in covered:
        for s in [k / 100 for k in range(1, 100) if 2 * k < 100 * n]:
            try:
                hl.check_sphere_integral(n, s)
            except fl.RegimeError:
                continue
            covered[n].append(s)
    assert covered == {1: [], 2: [0.5], 3: [k / 100 for k in range(1, 100)]}


def test_bubble_pair_constants():
    amp2, q02 = bubble_pair(2, 0.5)
    assert q02 == pytest.approx(3.0, rel=1e-14)
    assert amp2 == pytest.approx(1.0, rel=1e-5)  # kappa(2, 1/2) = 1
    amp3, q03 = bubble_pair(3, 0.5)
    assert q03 == pytest.approx(2.0, rel=1e-14)
    assert amp3 == pytest.approx(2.0, rel=1e-5)  # kappa(3, 1/2) = 1/2


def direct_free_convolution(field, s, values):
    # the O(N^2) discrete sum over the oracle's (2m-1)^n table: node i reads
    # offset i - j + m - 1 for input node j, i.e. the flipped table's window at
    # m - 1 - i
    n = field.dim
    flipped = np.flip(plain_kernel_table(field, n - 2.0 * s))
    shape = values.shape
    out = np.empty(shape)
    for i in np.ndindex(*shape):
        window = tuple(slice(m - 1 - a, 2 * m - 1 - a) for a, m in zip(i, shape, strict=True))
        out[i] = np.sum(values * flipped[window])
    return fl.gns(n, s) * field.cell_volume * out


@pytest.mark.parametrize("n, s, shape", [
    (1, 0.25, (7,)), (1, 0.4, (8,)), (2, 0.5, (5, 8)), (2, 0.3, (6, 6)), (3, 0.5, (3, 4, 6)),
    (1, 0.25, (1,)), (1, 0.3, (2,)), (2, 0.5, (1, 5)), (2, 0.4, (2, 1)),
    (3, 0.5, (2, 1, 1)), (3, 0.3, (1, 2, 3)),
])
def test_free_convolution_matches_direct_sum(n, s, shape):
    rng = np.random.default_rng(sum(shape))
    lo = -rng.uniform(1.0, 2.0, n)
    hi = rng.uniform(1.0, 2.0, n)
    field = hl.FreeField(lo, hi, rng.random(shape))
    other = rng.random(shape) ** 3
    for values, conv in ((field.values, hl.free_convolution(field, s)),
                         (other, hl.free_convolution(field.with_values(other), s))):
        ref = direct_free_convolution(field, s, values)
        assert conv.shape == shape
        assert np.max(np.abs(conv - ref)) <= 1e-12 * np.max(np.abs(ref))


# all-odd and all-even m for n = 1, 2, 3, a mixed shape in 2-d and 3-d, and
# axes of length 1 and 2
PIN_CASES = [
    (1, 0.25, (7,)), (1, 0.4, (8,)),
    (2, 0.5, (7, 9)), (2, 0.3, (6, 10)), (2, 0.5, (5, 8)),
    (3, 0.5, (5, 3, 7)), (3, 0.3, (4, 6, 4)), (3, 0.5, (3, 4, 6)),
    (1, 0.25, (1,)), (1, 0.3, (2,)), (2, 0.5, (1, 5)), (2, 0.4, (2, 1)), (3, 0.5, (2, 1, 1)),
]


def pin_field(n, shape):
    rng = np.random.default_rng(sum(shape) + n)
    return hl.FreeField(-rng.uniform(1.0, 2.0, n), rng.uniform(1.0, 2.0, n), rng.random(shape))


@pytest.mark.parametrize("n, s, shape", PIN_CASES)
def test_free_convolution_is_bitwise_the_plain_transform_product(n, s, shape):
    field = pin_field(n, shape)
    other = field.values**3
    assert np.array_equal(hl.free_convolution(field, s), plain_free_convolution(field, s))
    assert np.array_equal(hl.free_convolution(field.with_values(other), s),
                          plain_free_convolution(field, s, values=other))


@pytest.mark.parametrize("n, s, shape", PIN_CASES)
def test_real_kernel_spectrum_matches_the_full_table_transform(n, s, shape):
    # the kernel's real spectrum against the complex rfftn of the (2m-1)^n
    # table: the same convolution up to rounding
    field = pin_field(n, shape)
    for values in (field.values, field.values**3):
        ref = full_table_free_convolution(field, s, values=values)
        conv = hl.free_convolution(field.with_values(values), s)
        assert np.max(np.abs(conv - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, s, shape", PIN_CASES)
def test_radii_and_kernel_table_are_bitwise_the_meshgrid_formulas(n, s, shape):
    field = pin_field(n, shape)
    assert np.array_equal(field.radii(), mesh_radii([field.coords(a) for a in range(n)]))
    table = hl._kernel_table(field, n - 2.0 * s)
    # the quadrant of offsets [0, m] per axis, zero at offset m
    assert table.shape == tuple(m + 1 for m in shape)
    assert np.array_equal(table, plain_quadrant_table(field, n - 2.0 * s))
    for axis, m in enumerate(shape):
        assert not np.any(np.take(table, m, axis))
    # every offset of the full meshgrid table reads the quadrant at |offset|
    offsets = np.ix_(*[np.abs(np.arange(-(m - 1), m)) for m in shape])
    assert np.array_equal(table[offsets], plain_kernel_table(field, n - 2.0 * s))


def streamed_arrays(m):
    """The bytes of the arrays a streamed 2-d `free_convolution` holds at its
    peak: f's half spectrum ((m, m+1) complex), the kernel's real spectrum
    ((m+1, m+1) real), and two block buffers of at most `_BLOCK_BYTES` each.
    The allowance covers O(m) arrays (coordinate axes, the quadrature's
    nodes): sixteen complex lines of length 2m, far below one more field."""
    return m * (m + 1) * 16 + (m + 1) ** 2 * 8 + 2 * hl._BLOCK_BYTES + 16 * 2 * m * 16


def test_free_convolution_peak_memory_is_f_spectrum():
    # no array holds f's whole (2m, m+1) spectrum: the peak is its (m, m+1)
    # half, the kernel's spectrum and the block buffers; the output and the
    # irfft's row block come after the kernel and the buffers are gone. The
    # full spectrum alone, 2m(m+1) complex, exceeds the bound at m = 512.
    for m in (256, 512):
        field = hl.FreeField.centered(4.0, np.random.default_rng(5).random((m, m)))
        hl.free_convolution(field, 0.5)  # builds the cached quadrature rules
        conv, peak = traced_peak(hl.free_convolution, field, 0.5)
        assert conv.shape == (m, m) and conv.flags.c_contiguous
        assert peak <= streamed_arrays(m)
    assert peak <= 3.5 * field.values.nbytes


def test_hls_quotient_peaks_at_its_convolution():
    # the norms take one work array each, beside the convolution, so the
    # quotient peaks inside `free_convolution`, at 256^2 as at 512^2
    m = 256
    q0 = diagonal_exponent(2, 0.5)
    field = hl.FreeField.centered(4.0, np.random.default_rng(6).random((m, m)))
    first = hl.hls_quotient(field, q0, 0.5)
    quotient, peak = traced_peak(hl.hls_quotient, field, q0, 0.5)
    assert quotient == first and peak <= streamed_arrays(m)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.5])
def test_free_field_lp_norm_is_bitwise_the_plain_formula_in_one_temporary(r):
    # r = 1 and r = 2 are exponents that `**` dispatches to other loops
    values = np.random.default_rng(3).random((64, 64))
    field = hl.FreeField.centered(2.0, values.copy())
    other = -np.random.default_rng(4).random((64, 64))
    for given, plain in ((None, values), (other, other)):
        want = float((field.cell_volume * np.sum(np.abs(plain) ** r)) ** (1.0 / r))
        norm, peak = traced_peak(field.lp_norm, r, given)
        assert norm == want and peak <= values.nbytes + 4096
    assert np.array_equal(field.values, values)
    assert np.array_equal(other, -np.random.default_rng(4).random((64, 64)))


BLOCKS = hl._blocks


def recording_blocks(monkeypatch, budget):
    """`hl._blocks` under the block budget `budget`, recording each call's
    (count, unit_bytes, blocks) in the list returned."""
    calls = []

    def recording(count, unit_bytes):
        cut = BLOCKS(count, unit_bytes)
        calls.append((count, unit_bytes, cut))
        return cut

    monkeypatch.setattr(hl, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(hl, "_blocks", recording)
    return calls


@pytest.mark.parametrize("n, s, shape", PIN_CASES)
def test_streamed_passes_are_bitwise_at_every_block_size(n, s, shape, monkeypatch):
    # every pass of at least three units runs once under a budget that cuts
    # it into blocks of k >= 2 units and a short last one (k not dividing the
    # count), and every pass runs once with one unit per block; each run is
    # bitwise the plain transform product
    field = pin_field(n, shape)
    plain = plain_free_convolution(field, s)
    passes = recording_blocks(monkeypatch, hl._BLOCK_BYTES)
    assert np.array_equal(hl.free_convolution(field, s), plain)
    plan = [(count, unit) for count, unit, _ in passes]
    runs = [(None, 1)]
    for index, (count, unit) in enumerate(plan):
        if count >= 3:
            step = next(k for k in range(2, count) if count % k)
            runs.append((index, step * unit + unit // 2))
    for target, budget in runs:
        calls = recording_blocks(monkeypatch, budget)
        assert np.array_equal(hl.free_convolution(field, s), plain)
        assert [(count, unit) for count, unit, _ in calls] == plan
        for count, _, cut in calls:
            assert [i for block in cut for i in range(count)[block]] == list(range(count))
        if target is None:
            assert all(len(cut) == count for count, _, cut in calls)
        else:
            count, _, cut = calls[target]
            sizes = [len(range(count)[block]) for block in cut]
            assert len(sizes) >= 2 and sizes[-1] < sizes[0]
    # the column pass has m + 1 >= 3 units whenever the last axis has m >= 2
    assert len(runs) > 1 or shape[-1] < 2


def test_hls_quotient_requires_critical_pair():
    # the critical partner of p = 3.5 > 3, the diagonal exponent of (2, 1/2), is below p
    f = radial_field(5.0, 32, lambda r: np.exp(-(r**2)))
    with pytest.raises(ValueError, match="q >= p"):
        hl.hls_quotient(f, 3.5, 0.5)


def test_hls_quotient_reads_n_from_its_field():
    # a 2-d field is scored in 2-d: the diagonal exponent of (3, 0.9) is
    # below 2s/(n-2s) there and is refused, the one of (2, 0.9) is scored
    f = hl.FreeField.centered(4.0, np.random.default_rng(0).random((16, 16)))
    q3 = diagonal_exponent(3, 0.9)
    with pytest.raises(ValueError, match=r"p > 2s/\(n-2s\)"):
        hl.hls_quotient(f, q3, 0.9)
    q2 = diagonal_exponent(2, 0.9)
    assert 0.0 < hl.hls_quotient(f, q2, 0.9) < math.inf


@pytest.mark.parametrize("radii, grids, match", [
    ((), (), "at least one rung"),
    ((8.0, 0.0), (64, 104), "box radii must be positive"),
    ((8.0, -13.0), (64, 104), "box radii must be positive"),
    ((8.0, 13.0), (64, 0), "at least one node per axis"),
    ((8.0, math.inf), (64, 104), "box radii must be positive and finite"),
    ((math.nan, 13.0), (64, 104), "box radii must be positive and finite"),
    ((8.0, 13.0), (64,), "hls_box_list and hls_grid_list must have equal length"),
])
def test_bubble_ladder_refuses_a_bad_rung(radii, grids, match, monkeypatch):
    # an empty ladder returned no quotient, a rung of radius <= 0 or no nodes
    # failed inside FreeField after the rungs before it had run, an infinite
    # radius made NaN nodes, and lists of unequal length failed in zip
    monkeypatch.setattr(hl, "hls_quotient", lambda *args: pytest.fail("a rung ran"))
    with pytest.raises(ValueError, match=match):
        hl.bubble_ladder(2, 0.5, radii, grids)


def test_hls_quotient_scale_invariance_on_grid():
    # dilation f -> delta^{-n q0/(q0+1)} f(./delta) with a grid-representable
    # delta = 2 (box doubles, resolution fixed): quotient changes only within
    # the truncation+quadrature budget, here estimated by h-vs-2h differences
    q0 = 3.0

    def profile(r):
        return np.exp(-(r**2)) + 0.1 * np.exp(-((r - 1.5) ** 2))

    delta = 2.0

    def dilated_profile(r):
        return delta ** (-2 * q0 / (q0 + 1)) * profile(r / delta)

    base = hl.hls_quotient(radial_field(6.0, 96, profile), q0, 0.5)
    base_coarse = hl.hls_quotient(radial_field(6.0, 48, profile), q0, 0.5)
    dil = hl.hls_quotient(radial_field(12.0, 192, dilated_profile), q0, 0.5)
    dil_coarse = hl.hls_quotient(radial_field(12.0, 96, dilated_profile), q0, 0.5)
    budget = abs(base - base_coarse) + abs(dil - dil_coarse)
    assert abs(dil - base) <= budget
    assert abs(dil - base) / base < 5e-3


def test_indicator_dilation_equal_quotients():
    # the quotient is 0-homogeneous and dilation invariant, so a ball indicator
    # and its dilate (at matched relative resolution) agree up to quadrature
    q0 = 3.0
    ball = radial_field(4.0, 128, lambda r: (r < 0.8).astype(float))
    ball2 = radial_field(8.0, 256, lambda r: (r < 1.6).astype(float))
    qa = hl.hls_quotient(ball, q0, 0.5)
    qb = hl.hls_quotient(ball2, q0, 0.5)
    assert qb == pytest.approx(qa, rel=5e-3)


def test_bubble_quotient_refinement_monotone(bubble_2d):
    amp, q0 = bubble_2d
    sharp = hl.sharp_diagonal_quotient(2, 0.5)
    quotients = []
    for radius, m in [(10.0, 48), (14.0, 96), (18.0, 160)]:
        f = radial_field(radius, m, lambda r: hl.bubble(r, 2, 0.5) ** q0)
        quotients.append(hl.hls_quotient(f, q0, 0.5))
    assert all(q > sharp for q in quotients)  # approach from above
    assert all(b < a for a, b in zip(quotients[:-1], quotients[1:], strict=True))
    assert quotients[-1] / sharp - 1.0 < 0.01


def test_limit_system_residual_refinement(bubble_2d):
    amp, q0 = bubble_2d
    values = []
    for radius, m in [(10.0, 48), (14.0, 96), (18.0, 160)]:
        f = radial_field(radius, m, lambda r: amp * hl.bubble(r, 2, 0.5))
        values.append(limit_system_residuals(f, f, q0, q0, 0.5)[0])
    assert values[0] > values[1] > values[2]


def test_decay_fit_exact_power_law():
    f = radial_field(20.0, 128, lambda r: np.where(r > 0.4, r, 0.4) ** -1.3)
    fit = hl.decay_fit(f, (3.0, 15.0))
    assert fit.slope == pytest.approx(-1.3, abs=1e-3)
    assert fit.n_shells >= 8
    scaled = hl.decay_fit(f.with_values(17.0 * f.values), (3.0, 15.0))
    assert scaled.slope == pytest.approx(fit.slope, abs=1e-12)


def test_decay_fit_pure_power_tight():
    # node-exact power law: slope recovered to ~1e-6 when the shell means are
    # taken at matching effective radii (use single-cell-wide shells)
    f = radial_field(20.0, 256, lambda r: np.where(r > 0.4, r, 0.4) ** -2.0)
    fit = hl.decay_fit(f, (4.0, 16.0))
    assert fit.slope == pytest.approx(-2.0, abs=5e-3)
    assert fit.residual < 1e-3


def test_decay_fit_serrin_log():
    # f = r^{-1} log r: compensated fit of f * r against log r has unit slope
    def profile(r):
        rr = np.maximum(r, 1.2)
        return np.log(rr) / rr

    f = radial_field(30.0, 192, profile)
    fit = hl.decay_fit(f, (4.0, 25.0), serrin_power=1.0)
    assert fit.slope == pytest.approx(1.0, abs=5e-3)


def test_decay_fit_window_guards():
    f = radial_field(10.0, 64, lambda r: np.exp(-r))
    with pytest.raises(ValueError):
        hl.decay_fit(f, (5.0, 2.0))
    with pytest.raises(ValueError):
        hl.decay_fit(f, (2.0, 50.0))


def test_sharp_decay_check_synthetic():
    n, s = 2, 0.5
    c1 = 2.0
    g = fl.gns(n, s)
    f = radial_field(30.0, 192, lambda r: g * c1 * np.where(r > 0.5, r, 0.5) ** -1.0)
    ok = hl.sharp_decay_check(f, c1, 0.1, (3.0, 25.0), s)
    assert ok.fraction_violating == 0.0
    doubled = f.with_values(2.0 * f.values)
    bad = hl.sharp_decay_check(doubled, c1, 0.5, (3.0, 25.0), s)
    assert bad.fraction_violating > 0.0
    with pytest.raises(ValueError):
        hl.sharp_decay_check(f, c1, 0.25, (40.0, 0.1), s)


def test_serrin_log_integral_target_and_regime():
    s = 0.5  # on 2-d fields
    c1 = 1.7
    with pytest.raises(fl.RegimeError):
        hl.serrin_log_integral(radial_field(5.0, 16, lambda r: 0 * r + 1), 2.5, 10.0, c1, s)
    # target formula: (g C1)^{n/(n-2s)} |S^{n-1}| = C1^2/(2 pi) at n=2, s=1/2
    f = radial_field(5.0, 16, lambda r: 0 * r + 1)
    si = hl.serrin_log_integral(f, 2.0, 10.0, c1, s)
    assert si.target == pytest.approx(c1**2 / (2 * math.pi), rel=1e-12)


def test_serrin_log_integral_synthetic_convergence():
    # v = g C1 r^{-(n-2s)} on 1 <= r <= lam: the normalized integral tends to
    # the target as lam grows (radial-quadrature oracle value = target exactly
    # for the annulus part)
    n, s = 2, 0.5
    c1 = 1.3
    g = fl.gns(n, s)
    rels = []
    for lam, m in [(20.0, 256), (60.0, 768)]:
        f = radial_field(lam, m, lambda r: np.where(r >= 1.0, g * c1 / np.maximum(r, 1.0), 0.0))
        si = hl.serrin_log_integral(f, 2.0, lam, c1, s)
        rels.append(abs(si.value - si.target) / si.target)
    assert rels[1] < rels[0]
    assert rels[1] < 0.15
