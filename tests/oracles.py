"""Independent test oracles kept apart from the library paths they check."""

import ast
import io
import math
import tokenize
import tracemalloc
from functools import reduce
from pathlib import Path

import mpmath
import numpy as np

import fraclane as fl
from fraclane import blowup_sweep, hls_limit, lane_emden
from fraclane.fractional_calculus import _polar_box_integral, apply_inverse
from fraclane.hls_limit import _bubble_kappa
from fraclane.lane_emden import diagonal_exponent
from fraclane.spectral_domain import GridFunction


def eigenvalues(basis):
    """lambda_k = sum_i (k_i pi / L_i)^2 in tensor layout, from the closed form."""
    return reduce(np.add.outer, [(np.arange(1, K + 1) * math.pi / L) ** 2
                                 for K, L in zip(basis.cutoff, basis.domain.lengths)])


def eigen_modes(basis, x):
    """phi_k(x) = prod_i sqrt(2/L_i) sin(k_i pi x_i / L_i) of every retained mode,
    in tensor layout, from the closed form."""
    return reduce(np.multiply.outer, [
        math.sqrt(2.0 / L) * np.sin(np.arange(1, K + 1) * math.pi * xi / L)
        for xi, K, L in zip(x, basis.cutoff, basis.domain.lengths)])


def exact_sine_samples(L, K, coords, digits=40):
    """sqrt(2/L) sin(k pi x / L), k = 1..K, of every float x taken exactly:
    powers of exp(i pi x / L) in mpmath at `digits` digits, rounded once."""
    out = np.empty((len(coords), K))
    with mpmath.workdps(digits):
        scale = mpmath.sqrt(mpmath.mpf(2) / mpmath.mpf(L))
        for j, x in enumerate(coords):
            z = mpmath.expjpi(mpmath.mpf(float(x)) / mpmath.mpf(L))
            power = z
            for k in range(K):
                out[j, k] = float(scale * power.imag)
                power *= z
    return out


def np_sin_sine_table(L, K, coords):
    """`spectral_domain.sine_table` as np.sin of the rounded angles k pi x / L
    (the signature of the function, so a test can put it in its place)."""
    coords = np.asarray(coords, dtype=float)
    karr = np.arange(1, K + 1)
    return math.sqrt(2.0 / L) * np.sin(np.pi / L * coords[:, None] * karr[None, :])


def np_sin_sine_samples(basis, axis, coords):
    """`SpectralBasis.sine_samples` on `np_sin_sine_table`."""
    return np_sin_sine_table(basis.domain.lengths[axis], basis.cutoff[axis], coords)


def einsum_contract(coefficients, factors):
    """`spectral_domain._contract` point by point in one block: every point's
    factor rows table[rows], one matmul over the last mode axis, then np.einsum
    over each remaining axis."""
    factors = [table[rows] for table, rows in factors]
    cutoff = coefficients.shape
    t = factors[-1] @ coefficients.reshape(-1, cutoff[-1]).T
    for axis in range(len(cutoff) - 2, -1, -1):
        t = np.einsum("pjk,pk->pj", t.reshape(len(t), -1, cutoff[axis]), factors[axis])
    return t[:, 0]


def einsum_contract_separable(weights, rows, factors):
    """`spectral_domain._contract_separable` field by field: each field's
    coefficients, the weights times the outer product of its rows, through
    `einsum_contract`; (F, P)."""
    return np.array([einsum_contract(weights * reduce(np.multiply.outer, [r[f] for r in rows]), factors)
                     for f in range(len(rows[0]))])


def einsum_synthesize_at(c, points):
    """sum_k a_k phi_k at points (P, n) from `np_sin_sine_samples` rows of every
    point and `einsum_contract`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    own = np.arange(len(points))
    return einsum_contract(c.coefficients, [
        (np_sin_sine_samples(c.basis, axis, points[:, axis]), own) for axis in range(points.shape[1])])


def green_direct(basis, s, x, y):
    """One pair's eigen-sum sum_k lambda_k^{-s} phi_k(x) phi_k(y) and its tail
    estimate, term by term: the modes fall into shells split where
    max_i k_i / K_i crosses 0.5, 0.625, 0.75 and 0.875; the tail is 8 times the
    largest outer-three shell sum, and at least 1e-15 |G|."""
    terms = eigenvalues(basis) ** -s * eigen_modes(basis, x) * eigen_modes(basis, y)
    frac = np.max([k / K for k, K in zip(np.indices(basis.cutoff) + 1, basis.cutoff)], axis=0)
    shell = np.searchsorted([0.5, 0.625, 0.75, 0.875], frac, side="left")
    sums = np.bincount(shell.ravel(), weights=terms.ravel(), minlength=5)
    value = float(np.sum(sums))
    return value, max(8.0 * float(np.max(np.abs(sums[2:]))), 1e-15 * abs(value))


def rescaled_green(x, y, lam, center, basis):
    """lambda^{-(n-2s)} G(x/lambda + c, y/lambda + c) of points (n,) or pairs
    (P, n); `green` refuses mapped points outside the box."""
    if lam <= 0:
        raise ValueError("rescaling factor must be positive")
    center = np.asarray(center, dtype=float)
    xm = np.asarray(x, dtype=float) / lam + center
    ym = np.asarray(y, dtype=float) / lam + center
    n, s = basis.domain.dim, basis.domain.s
    return lam ** -(n - 2 * s) * fl.green(xm, ym, basis).value


def theta_quotient(w, exps, basis):
    """Theta(w) = ||(-Delta)^{-s} w||_{p+1} / ||w||_{(q+1)/q} of a
    `GridFunction` w; the zero function is refused. Invariant under positive
    rescaling of w, since both norms are 1-homogeneous."""
    denom = fl.lp_norm(w, (exps.q + 1.0) / exps.q)
    if denom == 0.0:
        raise ValueError("theta quotient of the zero function")
    return fl.lp_norm(apply_inverse(w, basis), exps.p + 1.0) / denom


def clamp_nonnegative(f):
    """f (a `GridFunction`) with its negative values set to zero, and the
    fraction of its L1 mass that this removed."""
    values = f.values
    total = float(np.sum(np.abs(values)))
    removed = float(-np.sum(values[values < 0.0]))
    return f.with_values(np.maximum(values, 0.0)), removed / total if total > 0 else 0.0


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def grid_meshgrid(grid):
    """The node coordinates of a `Grid`, one full array per axis."""
    return np.meshgrid(*grid.coords, indexing="ij")


def collar_sup_full_grid(pair):
    """Sup of u + v over the nodes nearer to the box's boundary than
    COLLAR_FRAC of its shortest side, read from a full-grid distance map;
    None when no node is that near."""
    grid = pair.u.grid
    dist = reduce(np.minimum, [np.minimum(x, L - x)
                               for x, L in zip(grid_meshgrid(grid), grid.domain.lengths)])
    collar = dist < blowup_sweep.COLLAR_FRAC * min(grid.domain.lengths)
    return float(np.max((pair.u.values + pair.v.values)[collar])) if collar.any() else None


def grid_points(grid):
    """All nodes of a `Grid` as an (N, n) array in C order."""
    return np.stack([m.ravel(order="C") for m in grid_meshgrid(grid)], axis=-1)


def inverse_matrix(basis, grid, s):
    """(-Delta)^{-s} on the flattened grid nodes as one dense matrix
    cell * Phi diag(lambda^{-s}) Phi^T, built from the closed-form sines."""
    phi = np.stack([eigen_modes(basis, x).ravel() for x in grid_points(grid)])
    return grid.cell_volume * (phi * eigenvalues(basis).ravel() ** -s) @ phi.T


def projected_gradient_theta(exps, basis, grid, init_values, max_iter=8000):
    """Maximize the quotient Theta by projected gradient ascent on the
    nonnegative cone with backtracking; independent of the fixed-point path
    and of the library's transforms (the inverse is one dense matrix)."""
    p, q, s = exps.p, exps.q, exps.s
    qn = (q + 1.0) / q
    w_cell = grid.cell_volume
    inverse = inverse_matrix(basis, grid, s)

    def norm(values, r):
        return (w_cell * np.sum(np.abs(values) ** r)) ** (1.0 / r)

    def theta(values):
        return norm(inverse @ values, p + 1.0) / norm(values, qn)

    def grad_log_theta(values):
        aw = inverse @ values
        num = norm(aw, p + 1.0)
        den = norm(values, qn)
        at_inner = inverse @ (np.sign(aw) * np.abs(aw) ** p)
        return (w_cell * at_inner / num ** (p + 1)
                - w_cell * np.sign(values) * np.abs(values) ** (1.0 / q) / den**qn)

    values = np.maximum(np.asarray(init_values, dtype=float).ravel(), 0.0)
    values = values / (w_cell * np.sum(values**qn)) ** (1.0 / qn)
    step = 1.0
    best = theta(values)
    for _ in range(max_iter):
        cand = np.maximum(values + step * grad_log_theta(values), 0.0)
        norm_cand = (w_cell * np.sum(cand**qn)) ** (1.0 / qn)
        if norm_cand == 0.0:
            step *= 0.5
            continue
        cand /= norm_cand
        cand_theta = theta(cand)
        if cand_theta > best:
            values, best = cand, cand_theta
            step = min(step * 1.3, 100.0)
        else:
            step *= 0.5
            if step < 1e-15:
                break
    return best, values.reshape(grid.shape)


def multistart_theta(exps, basis, grid, n_restarts=8, seed=777, max_iter=8000):
    """Best PGA quotient over a uniform start plus seeded random restarts."""
    rng = np.random.default_rng(seed)
    best = -np.inf
    best_values = None
    for restart in range(n_restarts):
        if restart == 0:
            init = np.ones(grid.shape)
        else:
            init = rng.random(grid.shape) + 0.1
        theta, values = projected_gradient_theta(exps, basis, grid, init, max_iter)
        if theta > best:
            best, best_values = theta, values
    return best, best_values


def plain_fixed_point(exps, basis, grid, theta_tol=1e-9, residual_tol=1e-7, max_iter=2000,
                      init=None):
    """The normalized fixed-point iteration of `solve_ground_state`, written
    out plainly on the full grid: every power and norm is taken afresh from
    its field. It starts from `init` (values), or from the first
    eigenfunction. Returns u, v of the rescaled solution, the Theta history
    and the iteration count."""
    p, q = exps.p, exps.q
    qn = (q + 1.0) / q
    w_cell = grid.cell_volume

    def norm(values, r):
        return (w_cell * np.sum(np.abs(values) ** r)) ** (1.0 / r)

    def inverse(values):
        return np.maximum(apply_inverse(GridFunction(grid, values), basis).values, 0.0)

    if init is None:
        first = np.zeros(basis.cutoff)
        first[(0,) * grid.domain.dim] = 1.0
        w = fl.synthesize(fl.SpectralField(basis, first), grid).values
    else:
        w = np.asarray(init, dtype=float)
    w = w / norm(w, qn)
    history = []
    for iteration in range(1, max_iter + 1):
        v = inverse(w)
        t = inverse(v**p)
        theta = norm(v, p + 1.0) / norm(w, qn)
        target = theta ** (p + 1.0) * w ** (1.0 / q)
        residual = np.max(np.abs(t - target)) / np.max(np.abs(target))
        change = abs(theta - history[-1]) / theta if history else np.inf
        history.append(theta)
        if change < theta_tol and residual < residual_tol:
            break
        w = t**q / norm(t**q, qn)
    else:
        raise RuntimeError(f"plain iteration did not converge in {max_iter} steps")
    w = theta ** (-q * (p + 1.0) / (p * q - 1.0)) * w
    return w ** (1.0 / q), inverse(w), np.asarray(history), iteration


def mirrored(cell, shape):
    """The field on a grid of `shape` whose fundamental cell (the first
    ceil(m_i/2) nodes per axis) is `cell`, mirrored about every mid-plane by
    concatenating each axis with its reversed head."""
    values = np.asarray(cell)
    for axis, m in enumerate(shape):
        head = np.take(values, np.arange(m // 2), axis=axis)
        values = np.concatenate([values, np.flip(head, axis)], axis=axis)
    return values


def full_grid_post_solve(w, theta, exps, basis, grid, points=None):
    """What `solve_ground_state` makes of its loop's normalized maximizer w
    (values on the full grid) and Theta, every step taken on the full grid:
    w scaled by Theta^{-q(p+1)/(pq-1)}, v = clamp((-Delta)^{-s} w),
    u = w^{1/q}, the residual check clamp((-Delta)^{-s} v^p) against u, the
    direct energy from fresh analyses of u and v, and the Sobolev quotient.
    With `points`, also u and v there, synthesized from those analyses."""
    p, q, s = exps.p, exps.q, exps.s
    w = theta ** (-q * (p + 1.0) / (p * q - 1.0)) * np.asarray(w)
    v = np.maximum(apply_inverse(GridFunction(grid, w), basis).values, 0.0)
    u = w ** (1.0 / q)
    lhs = np.maximum(apply_inverse(GridFunction(grid, v**p), basis).values, 0.0)
    a = fl.analyze(GridFunction(grid, u), basis)
    b = fl.analyze(GridFunction(grid, v), basis)
    int_v = grid.cell_volume * np.sum(v ** (p + 1.0))
    int_u = grid.cell_volume * np.sum(u ** (q + 1.0))
    bilinear = float(np.sum(basis.eigenvalue_grid**s * a.coefficients * b.coefficients))
    out = {
        "u": u,
        "v": v,
        "w": w,
        "residual_w": float(np.max(np.abs(lhs - u))) / max(float(u.max()), 1e-300),
        "energy": bilinear - float(int_v) / (p + 1.0) - float(int_u) / (q + 1.0),
        "sobolev_quotient": fl.lp_norm(GridFunction(grid, v**p), (p + 1.0) / p)
        / fl.lp_norm(GridFunction(grid, u), q + 1.0),
    }
    if points is not None:
        out["u_ring"] = fl.synthesize_at(a, points)
        out["v_ring"] = fl.synthesize_at(b, points)
    return out


def kernel_pairs_one_at_a_time(seed, n, margin, sides, count, min_sep):
    """The seeded kernel-pair sampler as one draw per pair: x, then y, kept if
    |x - y| >= min_sep, until `count` pairs are kept."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    while len(xs) < count:
        x = margin + rng.random(n) * sides
        y = margin + rng.random(n) * sides
        if np.linalg.norm(x - y) >= min_sep:
            xs.append(x)
            ys.append(y)
    return np.array(xs).reshape(-1, n), np.array(ys).reshape(-1, n)


def read_table(path) -> tuple[list[str], list[list[float]]]:
    """A CSV table written by `cli_io.write_table`: its columns, and its rows
    with every cell that parses as a float read as one."""
    with open(path, newline="\n") as fh:
        lines = fh.read().splitlines()
    columns = lines[0].split(",") if lines else []
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        row = []
        for tok in line.split(","):
            try:
                row.append(float(tok))
            except ValueError:
                row.append(tok)
        rows.append(row)
    return columns, rows


def write_table_per_cell(path, columns, rows):
    """`cli_io.write_table` spelled one cell at a time: an int, bool or NumPy
    integer as its integer, any other number with 17 significant digits and
    any other cell by `str`."""
    number = (int, float, np.floating, np.integer)

    def csv_cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g") if isinstance(v, number) else str(v)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join([csv_cell(v) for v in row]) + "\n")


def bubble_pair(n, s):
    """Scaled bubble pair solving the diagonal limit system U = g k * V^p,
    V = g k * U^{q0}: returns (amplitude, q0) with U = V = amplitude * bubble."""
    q0 = diagonal_exponent(n, s)
    amplitude = _bubble_kappa(n, s) ** (-(q0 + 1.0) / (q0 * q0 - 1.0))
    return amplitude, q0


def limit_system_residuals(u, v, p, q0, s):
    """Sup-norm residuals of U = g k * V^p and V = g k * U^{q0} on the interior
    half-box of u and v's shared grid (`FreeField`s), by `free_convolution`."""
    conv_vp = hls_limit.free_convolution(v.with_values(v.values**p), s)
    conv_uq = hls_limit.free_convolution(u.with_values(u.values**q0), s)
    coords = np.ix_(*[u.coords(axis) for axis in range(u.dim)])
    interior = reduce(np.logical_and, [
        np.abs(g) <= 0.5 * min(-a, b) for g, a, b in zip(coords, u.lo, u.hi)
    ])
    return (float(np.max(np.abs(u.values - conv_vp)[interior])),
            float(np.max(np.abs(v.values - conv_uq)[interior])))


def mesh_radii(axes):
    """|x| on the tensor grid of the 1-d coordinate arrays `axes`, as the root
    of a sum over full meshgrid copies."""
    return np.sqrt(np.add.reduce([g**2 for g in np.meshgrid(*axes, indexing="ij")]))


def plain_kernel_table(field, lam):
    """|delta|^{-lam} on the (2m-1)^n offset lattice from meshgrid radii; the
    singular centre cell holds the exact cell average of the power law."""
    r = mesh_radii([np.arange(-(m - 1), m) * h for m, h in zip(field.shape, field.spacing)])
    center = tuple(m - 1 for m in field.shape)
    r[center] = 1.0
    table = r**-lam
    half = np.asarray(field.spacing) / 2.0
    cell_int = _polar_box_integral(np.zeros(field.dim), -half, half, lam,
                                   lambda pts: np.ones(len(pts)), 12, 32)
    table[center] = cell_int / field.cell_volume
    return table


def plain_quadrant_table(field, lam):
    """The offsets [0, m] per axis of the 2m-periodic even kernel: the full
    table's entries at offsets [0, m), zero-padded at offset m on every axis."""
    full = plain_kernel_table(field, lam)
    return np.pad(full[tuple(slice(m - 1, None) for m in field.shape)], [(0, 1)] * field.dim)


def plain_free_convolution(field, s, values=None):
    """g_{n,s} cell * irfftn(rfftn(f, 2m) K), the unpruned circular convolution of
    period 2m per axis with the kernel at offset 0, cut to the kept rows [0, m).
    K is the kernel's real spectrum: one `irfft` per axis of the quadrant table
    gives the frequencies [0, m], and the leading axes are mirrored to the full
    period with explicit copies."""
    n = field.dim
    f = field.values if values is None else values
    kernel = plain_quadrant_table(field, n - 2.0 * s)
    for axis, m in enumerate(f.shape):
        kernel = np.take(np.fft.irfft(kernel, 2 * m, axis, norm="forward"), range(m + 1), axis)
    for axis, m in enumerate(f.shape[:-1]):
        kernel = np.concatenate([kernel, np.flip(np.take(kernel, range(1, m), axis), axis)], axis)
    fft_shape = tuple(2 * m for m in f.shape)
    axes = tuple(range(f.ndim))
    full = np.fft.irfftn(np.fft.rfftn(f, fft_shape, axes=axes) * kernel, fft_shape, axes=axes)
    return fl.gns(n, s) * field.cell_volume * full[tuple(slice(0, m) for m in f.shape)]


def full_table_free_convolution(field, s, values=None):
    """g_{n,s} cell * irfftn(rfftn(f, 2m) rfftn(table, 2m)) over the (2m-1)^n
    table of `plain_kernel_table`, cut to the kept rows [m - 1, 2m - 1): the
    same circular convolution with a complex kernel spectrum."""
    n = field.dim
    f = field.values if values is None else values
    fft_shape = tuple(2 * m for m in f.shape)
    axes = tuple(range(f.ndim))
    product = (np.fft.rfftn(f, fft_shape, axes=axes)
               * np.fft.rfftn(plain_kernel_table(field, n - 2.0 * s), fft_shape, axes=axes))
    full = np.fft.irfftn(product, fft_shape, axes=axes)
    return fl.gns(n, s) * field.cell_volume * full[tuple(slice(m - 1, 2 * m - 1) for m in f.shape)]


def recording_solve(pairs):
    """`blowup_sweep.solve_ground_state` as bound now, appending each pair it
    returns to `pairs`: patched into `blowup_sweep`, it keeps the pair of every
    row of a sweep, which `run_sweep` itself does not hold."""
    solve = blowup_sweep.solve_ground_state

    def recording(*args, **kwargs):
        pair, report = solve(*args, **kwargs)
        pairs.append(pair)
        return pair, report

    return recording


def recording_iterate(loops):
    """`lane_emden._iterate` as bound now, appending a copy of the w and the
    Theta of each loop it runs to `loops` (w on the nodes the loop ran on;
    the solver overwrites its own)."""
    iterate = lane_emden._iterate

    def recording(*args, **kwargs):
        w, theta, *rest = iterate(*args, **kwargs)
        loops.append((w.copy(), theta))
        return (w, theta, *rest)

    return recording


_LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                  tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of Python `source` that hold code: every line a token other
    than a comment or layout touches, less the docstring lines of the module,
    its classes and its functions. The `src/` count is
    `sum(code_lines(p.read_text()) for p in Path("src").rglob("*.py"))`."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)
