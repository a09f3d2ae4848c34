"""Independent test oracles kept apart from the library paths they check."""

import numpy as np

import fraclane as fl
from fraclane.fractional_calculus import apply_inverse
from fraclane.spectral_domain import GridFunction


def projected_gradient_theta(exps, basis, grid, init_values, max_iter=8000):
    """Maximize the quotient Theta by projected gradient ascent on the
    nonnegative cone with backtracking; independent of the fixed-point path."""
    p, q, s = exps.p, exps.q, exps.s
    qn = (q + 1.0) / q
    w_cell = grid.cell_volume

    def theta(values):
        return fl.theta_quotient(GridFunction(grid, values), exps, basis)

    def grad_log_theta(values):
        aw = apply_inverse(GridFunction(grid, values), s, basis).values
        num = (w_cell * np.sum(np.abs(aw) ** (p + 1))) ** (1.0 / (p + 1))
        den = (w_cell * np.sum(np.abs(values) ** qn)) ** (1.0 / qn)
        inner = np.sign(aw) * np.abs(aw) ** p
        at_inner = apply_inverse(GridFunction(grid, inner), s, basis).values
        return (w_cell * at_inner / num ** (p + 1)
                - w_cell * np.sign(values) * np.abs(values) ** (1.0 / q) / den**qn)

    values = np.maximum(np.asarray(init_values, dtype=float), 0.0)
    values = values / (w_cell * np.sum(values**qn)) ** (1.0 / qn)
    step = 1.0
    best = theta(values)
    for _ in range(max_iter):
        cand = np.maximum(values + step * grad_log_theta(values), 0.0)
        norm = (w_cell * np.sum(cand**qn)) ** (1.0 / qn)
        if norm == 0.0:
            step *= 0.5
            continue
        cand /= norm
        cand_theta = theta(cand)
        if cand_theta > best:
            values, best = cand, cand_theta
            step = min(step * 1.3, 100.0)
        else:
            step *= 0.5
            if step < 1e-15:
                break
    return best, values


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


def plain_fixed_point(exps, basis, grid, theta_tol=1e-9, residual_tol=1e-7, max_iter=2000):
    """The normalized fixed-point iteration of `solve_ground_state`, written
    out plainly: every power and norm is taken afresh from its field. Returns
    u, v of the rescaled solution, the Theta history and the iteration count."""
    p, q, s = exps.p, exps.q, exps.s
    qn = (q + 1.0) / q
    w_cell = grid.cell_volume

    def norm(values, r):
        return (w_cell * np.sum(np.abs(values) ** r)) ** (1.0 / r)

    def inverse(values):
        return np.maximum(apply_inverse(GridFunction(grid, values), s, basis).values, 0.0)

    first = np.zeros(basis.cutoff)
    first[(0,) * grid.domain.dim] = 1.0
    w = fl.synthesize(fl.SpectralField(basis, first), grid).values
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
