"""Laws that the discrete scheme keeps exactly on every box, so they check
axis order, side lengths and per-axis cutoffs where no closed form reaches.

- Box scaling: on LΩ with the same cutoff the eigenvalues scale by L^-2 and
  each eigenfunction by L^(-n/2), so G_{LΩ}(Lx, Ly) = L^(2s-n) G_Ω(x, y).
- Axis permutation: the box with its sides, cutoffs and coordinates
  permuted is the same box, so its G is G at the permuted points.

`solve_ground_state` keeps both: on LΩ, (-Δ)^-s scales by L^(2s), so the
solution w scales by κ = L^(2s(1+p)/(1/q-p)) and Θ by
L^(2s + n/(p+1) - nq/(q+1)), along the same iteration path; on the permuted
box its fields are the permuted fields. A symmetric start runs the loop on
the fundamental cell (`_CellInverse`), a tilted one on every node
(`_GridInverse`), and the laws are checked on both.

They bound no discretization error: they hold for the truncated sum term by
term, up to the rounding of the sine angles and of the contraction. That
rounding is relative to the size of the terms, not of their sum, which can
nearly cancel where the sum converges slowly (n = 3, s = 1/2)."""

import itertools

import numpy as np
import pytest
from oracles import eigen_modes, eigenvalues

import fraclane as fl

RTOL = 1e-13  # of the term scale; the laws read 5e-17 to 5e-16 of it on these cells

# (lengths, cutoff) of a stretched box per dimension
BOXES = {1: ((1.3,), (96,)), 2: ((1.0, 2.5), (24, 60)), 3: ((1.0, 1.3, 0.8), (12, 16, 10))}
# every n = 1..3 that BoxDomain admits at s = 1/2 and 0.8 (it needs n > 2s),
# and n = 1 at s = 1/4
CELLS = [(n, s) for n in (1, 2, 3) for s in (0.5, 0.8) if n > 2 * s] + [(1, 0.25)]


def interior_pairs(lengths, count=50, seed=19):
    """`count` seeded pairs (x, y): x in the box's middle 40%, y 0.15 to 0.25
    of the shortest side away in a random direction, so every pair is
    interior and resolved."""
    sides = np.asarray(lengths)
    rng = np.random.default_rng(seed)
    x = (0.3 + 0.4 * rng.random((count, len(sides)))) * sides
    direction = rng.normal(size=x.shape)
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    distance = (0.15 + 0.1 * rng.random((count, 1))) * sides.min()
    return x, x + distance * direction


def basis_of(lengths, cutoff, s):
    return fl.build_basis(fl.BoxDomain(lengths, s), cutoff)


def term_scale(basis, x, y):
    """sum_k lambda_k^-s |phi_k(x) phi_k(y)| of each pair, from the closed
    form: the size of the terms whose rounding the laws see. Both laws map
    it as they map G."""
    weights = eigenvalues(basis) ** -basis.domain.s
    return np.array([np.sum(weights * np.abs(eigen_modes(basis, a) * eigen_modes(basis, b)))
                     for a, b in zip(x, y, strict=True)])


def assert_law(got, expect, scale):
    assert np.max(np.abs(got - expect) / scale) <= RTOL


@pytest.mark.parametrize("factor", [2.5, 0.4])
@pytest.mark.parametrize("n, s", CELLS)
def test_green_box_scaling(n, s, factor):
    lengths, cutoff = BOXES[n]
    basis = basis_of(lengths, cutoff, s)
    x, y = interior_pairs(lengths)
    scaled = fl.green(factor * x, factor * y,
                      basis_of(tuple(factor * a for a in lengths), cutoff, s)).value
    law = factor ** (2 * s - n)
    assert_law(scaled, law * fl.green(x, y, basis).value, law * term_scale(basis, x, y))


@pytest.mark.parametrize("n, s", [cell for cell in CELLS if cell[0] > 1])
def test_green_axis_permutation(n, s):
    # in 2-d the 1 x 2.5 box is the transpose of the 2.5 x 1 box
    lengths, cutoff = BOXES[n]
    basis = basis_of(lengths, cutoff, s)
    x, y = interior_pairs(lengths)
    base, scale = fl.green(x, y, basis).value, term_scale(basis, x, y)
    for perm in map(list, itertools.permutations(range(n))):
        if perm != sorted(perm):
            moved = basis_of(tuple(lengths[i] for i in perm), tuple(cutoff[i] for i in perm), s)
            assert_law(fl.green(x[:, perm], y[:, perm], moved).value, base, scale)


# The solver's box: 2-d, stretched, as (lengths, cutoff, grid), at s = 1/2 and
# an exponent pair from which the tilted start converges in under 1000 steps
SOLVE_BOX = ((1.0, 1.6), (12, 20), (24, 40))
P, EPS = 1.5, 0.2


def tilted_start(shape):
    """Positive node values of a 2-d grid, mirror-symmetric about no
    mid-plane, so the solver runs on every node."""
    t0, t1 = ((np.arange(m) + 0.5) / m for m in shape)
    bump = np.outer(np.sin(np.pi * t0), np.sin(np.pi * t1))
    return bump * (1.0 + 0.3 * t0[:, None] + 0.1 * t1[None, :] ** 2)


# the start of each node set: the solver's own symmetric one, or a tilt
STARTS = {"cell": lambda shape: None, "full": tilted_start}


def solve(lengths, cutoff, shape, start):
    domain = fl.BoxDomain(lengths, 0.5)
    grid = fl.build_grid(domain, shape)
    exponents = fl.ExponentPair(P, fl.solve_q_epsilon(P, 2, 0.5, EPS), 2, 0.5)
    init = None if start is None else fl.GridFunction(grid, start)
    return fl.solve_ground_state(exponents, fl.build_basis(domain, cutoff), grid, init=init,
                                 theta_tol=1e-12, residual_tol=1e-8)


@pytest.mark.parametrize("factor", [2.5, 0.4])
@pytest.mark.parametrize("node_set", ["cell", "full"])
def test_solve_box_scaling(node_set, factor):
    lengths, cutoff, shape = SOLVE_BOX
    start = STARTS[node_set](shape)
    base, report = solve(lengths, cutoff, shape, start)
    scaled, scaled_report = solve(tuple(factor * a for a in lengths), cutoff, shape, start)
    n, s, p, q = 2, 0.5, P, base.exponents.q
    kappa = factor ** (2 * s * (1 + p) / (1 / q - p))
    assert report.node_set == scaled_report.node_set == node_set
    assert scaled_report.iterations == report.iterations
    assert_law(scaled.w.values, kappa * base.w.values, kappa * base.w.max())
    law = factor ** (2 * s + n / (p + 1) - n * q / (q + 1))
    assert_law(scaled_report.theta, law * report.theta, law * report.theta)


@pytest.mark.parametrize("node_set", ["cell", "full"])
def test_solve_axis_permutation(node_set):
    # the 1.6 x 1 box with cutoff and grid swapped is the transpose of the 1 x 1.6 box
    lengths, cutoff, shape = SOLVE_BOX
    start = STARTS[node_set](shape)
    base, report = solve(lengths, cutoff, shape, start)
    moved, moved_report = solve(lengths[::-1], cutoff[::-1], shape[::-1],
                                None if start is None else start.T)
    assert report.node_set == moved_report.node_set == node_set
    assert moved_report.iterations == report.iterations
    for name in ("u", "v", "w"):
        field = getattr(base, name)
        assert_law(getattr(moved, name).values.T, field.values, field.max())
    assert_law(moved_report.theta, report.theta, report.theta)
