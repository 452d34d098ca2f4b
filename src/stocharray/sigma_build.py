"""Seeded construction of fractional vertices of the hyperplane-stochastic family.

A rook cycle of 2n grid cells meets every row and column exactly twice.
Writing a symbol on each cell, with every symbol used exactly twice,
turns the cycle into an n x n x n half-integral member: put 1/2 at
(i, j, k) whenever cell (i, j) carries symbol k.  The support graph then
contains the rook cycle itself, so it is connected, and the first three
cells of the cycle get symbols (0, 1, 0), planting a triangle: the two
symbol-0 cells share a hyperplane on top of the two cycle edges.  One
odd component means the member is a vertex, and it is never a
permutation tuple since all entries are fractional.
"""

from __future__ import annotations

import random
from typing import Mapping

from stocharray.core import HALF, Array3, PolytopeSpec
from stocharray.certify import certify_construction
from stocharray.designs import HCycle, random_h_cycle

# the largest order built: the array has n^3 entries, about 180 MB at order 100
MAX_SIGMA_ORDER = 100


class SymbolMatrix:
    """Symbols written on 2n grid cells, two per row, column, and symbol."""

    __slots__ = ("n", "assignment")

    def __init__(self, n: int, assignment: Mapping):
        assignment = dict(assignment)
        if len(assignment) != 2 * n:
            raise ValueError("need exactly 2n labelled cells")
        rows = [0] * n
        cols = [0] * n
        syms = [0] * n
        for (i, j), s in assignment.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= s < n):
                raise ValueError(f"cell or symbol out of range: {(i, j)} -> {s}")
            rows[i] += 1
            cols[j] += 1
            syms[s] += 1
        if rows != [2] * n or cols != [2] * n or syms != [2] * n:
            raise ValueError("each row, column, and symbol must be used exactly twice")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "assignment", assignment)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolMatrix is immutable")

    def to_array(self) -> Array3:
        """Half-integral member with 1/2 at (i, j, k) whenever (i, j) is labelled k."""
        return Array3.from_cells(
            self.n, 2, {(i, j, s): HALF for (i, j), s in self.assignment.items()}
        )


def build_symbol_matrix(H: HCycle, seed: int) -> SymbolMatrix:
    """Plant the (0, 1, 0) triangle on H's first cells, shuffle the rest."""
    n = H.n
    cells = H.cells()
    rng = random.Random(seed)
    fill = [1] + [s for s in range(2, n) for _ in range(2)]
    rng.shuffle(fill)
    assignment = {cells[0]: 0, cells[1]: 1, cells[2]: 0}
    assignment.update(zip(cells[3:], fill))
    return SymbolMatrix(n, assignment)


def construct_sigma_vertex(n: int, seed: int = 0) -> tuple:
    """Build a fractional vertex of the order-n hyperplane-stochastic polytope.

    Works for every 2 <= n <= MAX_SIGMA_ORDER and never fails; returns
    (array, certificate) with the rank-based certificate after checking
    that the graph criterion agrees.  Larger orders are refused before
    anything is allocated.
    """
    if n < 2:
        raise ValueError("order must be >= 2")
    if n > MAX_SIGMA_ORDER:
        raise ValueError(f"construct sigma is capped at order {MAX_SIGMA_ORDER}; got {n}")
    rng = random.Random(seed)
    H = random_h_cycle(n, rng.randrange(1 << 30))
    M = build_symbol_matrix(H, rng.randrange(1 << 30))
    A = M.to_array()
    return A, certify_construction(A, PolytopeSpec("sigma", n, 2))

