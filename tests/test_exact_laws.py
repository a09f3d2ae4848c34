"""Laws that the discrete scheme keeps exactly on every box, so they check
axis order, side lengths and per-axis cutoffs where no closed form reaches.

- Box scaling: on LΩ with the same cutoff the eigenvalues scale by L^-2 and
  each eigenfunction by L^(-n/2), so G_{LΩ}(Lx, Ly) = L^(2s-n) G_Ω(x, y).
- Axis permutation: the box with its sides, cutoffs and coordinates
  permuted is the same box, so its G is G at the permuted points.

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
