"""Package objects built for tests: arrays encoding designs, linear
combinations of arrays, complete bipartite graphs, a Latin square
discordant with a given one, and the committed known vertices."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from stocharray.core import HALF, Array3, from_json_dict
from stocharray.designs import BipartiteGraph, LatinSquare

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


def golden_array(name: str) -> Array3:
    """The array of a committed golden document, such as "omega-3x3x3.json"."""
    with open(GOLDENS / name, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))[1]


def latin_to_array(square: LatinSquare) -> Array3:
    """The 0/1 line-stochastic member with A[i, j, L[i][j]] = 1."""
    cells = {(i, j, k): 1 for i, row in enumerate(square.grid) for j, k in enumerate(row)}
    return Array3.from_cells(square.order, 2, cells)


def tuple_to_array(perms) -> Array3:
    """The 0/1 hyperplane-stochastic member with a 1 at each (i, p1(i), ..., pd(i))."""
    n = len(perms[0])
    cells = {(i,) + tuple(p[i] for p in perms): 1 for i in range(n)}
    return Array3.from_cells(n, len(perms), cells)


def combine(*terms) -> Array3:
    """The array sum of w * A over the (w, A) pairs given; all share one shape."""
    weights = [Fraction(w) for w, _ in terms]
    arrays = [A for _, A in terms]
    n, d = arrays[0].n, arrays[0].d
    assert all((A.n, A.d) == (n, d) for A in arrays), "shape mismatch"
    columns = zip(*(A.entries for A in arrays))
    return Array3(n, d, [sum(w * v for w, v in zip(weights, col)) for col in columns])


def midpoint(X: Array3, Y: Array3) -> Array3:
    return combine((HALF, X), (HALF, Y))


def complete_bipartite(n: int) -> BipartiteGraph:
    return BipartiteGraph.from_edges(n, n, itertools.product(range(n), repeat=2))


def random_latin_discordant(base: LatinSquare, seed: int) -> LatinSquare:
    """A seeded Latin square differing from ``base`` in every cell.

    Fills cell by cell, backtracking, trying the symbols that are free in
    the cell's row and column and differ from ``base`` in shuffled order.
    """
    t = base.order
    rng = random.Random(seed)
    grid = [[-1] * t for _ in range(t)]
    row_free = [(1 << t) - 1] * t
    col_free = [(1 << t) - 1] * t

    def fill(pos: int) -> bool:
        if pos == t * t:
            return True
        i, j = divmod(pos, t)
        avail = row_free[i] & col_free[j] & ~(1 << base.grid[i][j])
        symbols = [s for s in range(t) if avail >> s & 1]
        rng.shuffle(symbols)
        for s in symbols:
            bit = 1 << s
            grid[i][j] = s
            row_free[i] ^= bit
            col_free[j] ^= bit
            if fill(pos + 1):
                return True
            row_free[i] ^= bit
            col_free[j] ^= bit
        return False

    if not fill(0):
        raise ValueError(f"no Latin square of order {t} differs from the base in every cell")
    return LatinSquare(grid)
