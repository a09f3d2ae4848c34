"""Independent test oracles kept apart from the library paths they check."""

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np

import fraclane as fl
from fraclane import blowup_sweep
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


def inverse_matrix(basis, grid, s):
    """(-Delta)^{-s} on the flattened grid nodes as one dense matrix
    cell * Phi diag(lambda^{-s}) Phi^T, built from the closed-form sines."""
    phi = np.stack([eigen_modes(basis, x).ravel() for x in grid.points()])
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
    p, q, s = exps.p, exps.q, exps.s
    qn = (q + 1.0) / q
    w_cell = grid.cell_volume

    def norm(values, r):
        return (w_cell * np.sum(np.abs(values) ** r)) ** (1.0 / r)

    def inverse(values):
        return np.maximum(apply_inverse(GridFunction(grid, values), s, basis).values, 0.0)

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
    """`cli_io.write_table` spelled one cell at a time: the CSV writes an int,
    bool or NumPy integer as its integer, any other number with 17 significant
    digits and any other cell by `str`; the JSON twin, the bytes of
    `json.dump(payload, sort_keys=True, indent=1)`, writes every number as its
    float (NaN and Infinity for the non-finite ones) and any other cell as
    `json` does."""
    number = (int, float, np.floating, np.integer)

    def csv_cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g") if isinstance(v, number) else str(v)

    def json_cell(v):
        return json.dumps(float(v)) if isinstance(v, number) else json.dumps(v)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"version": fl.__version__, "format": "fraclane-table-v1"}
    head = json.dumps({"columns": columns, "meta": meta, "rows": []}, sort_keys=True, indent=1)
    with (open(path, "w", newline="\n") as csv_fh,
          open(path.with_suffix(path.suffix + ".json"), "w", newline="\n") as json_fh):
        csv_fh.write(",".join(columns) + "\n")
        json_fh.write(head.removesuffix("[]\n}") + ("[" if len(rows) else "[]"))
        for k, row in enumerate(rows):
            csv_fh.write(",".join([csv_cell(v) for v in row]) + "\n")
            cells = [json_cell(v) for v in row]
            json_fh.write(("," if k else "") + "\n  "
                          + ("[\n   " + ",\n   ".join(cells) + "\n  ]" if cells else "[]"))
        json_fh.write("\n ]\n}\n" if len(rows) else "\n}\n")


def bubble_pair(n, s):
    """Scaled bubble pair solving the diagonal limit system U = g k * V^p,
    V = g k * U^{q0}: returns (amplitude, q0) with U = V = amplitude * bubble."""
    q0 = diagonal_exponent(n, s)
    amplitude = _bubble_kappa(n, s) ** (-(q0 + 1.0) / (q0 * q0 - 1.0))
    return amplitude, q0


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


def plain_free_convolution(field, s, values=None):
    """g_{n,s} cell * irfftn(rfftn(f, 2m) rfftn(table, 2m)), the plain circular
    convolution of period 2m per axis, cut to the kept rows [m - 1, 2m - 1)."""
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
