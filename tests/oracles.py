"""Independent test oracles kept apart from the library paths they check."""

import math
from functools import reduce

import numpy as np

import fraclane as fl
from fraclane.fractional_calculus import apply_inverse
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
