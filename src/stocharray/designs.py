"""Combinatorial designs and graph tools feeding the vertex constructions.

Latin squares (random generation, exhaustive counting), rook cycles
through a grid (closed walks alternating row and column steps), double
Latin squares built from two blocks and a cyclic row relabeling, and
bipartite matching / 2-factor machinery.  Symbols and indices are
0-based internally.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

# the largest order `random_latin` fills; beyond it, backtracking can run for minutes
MAX_LATIN_ORDER = 31


class MatchingError(RuntimeError):
    """No matching / factor with the requested properties exists."""


# ─── Latin squares ───────────────────────────────────────────────────────────


class LatinSquare:
    """An order-t grid over symbols 0..t-1, each once per row and column."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        rows = tuple(tuple(row) for row in grid)
        t = len(rows)
        full = frozenset(range(t))
        if t < 1:
            raise ValueError("order must be >= 1")
        for row in rows:
            if len(row) != t or frozenset(row) != full:
                raise ValueError("not a Latin square: bad row")
        for j in range(t):
            if frozenset(row[j] for row in rows) != full:
                raise ValueError("not a Latin square: bad column")
        object.__setattr__(self, "grid", rows)

    def __setattr__(self, name, value):
        raise AttributeError("LatinSquare is immutable")

    @property
    def order(self) -> int:
        return len(self.grid)

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and self.grid == other.grid

    def __hash__(self):
        return hash(self.grid)

    def __repr__(self):
        return f"LatinSquare(order={self.order})"


def random_latin(t: int, seed: int) -> LatinSquare:
    """Uniformly seeded random Latin square of order t (same seed, same square).

    Fills cell by cell in row-major order, backtracking, and tries each
    cell's free symbols in an order shuffled by the seeded generator.
    Orders above MAX_LATIN_ORDER are refused.
    """
    if t < 1:
        raise ValueError("order must be >= 1")
    if t > MAX_LATIN_ORDER:
        raise ValueError(f"random Latin squares are capped at order {MAX_LATIN_ORDER}; got {t}")
    rng = random.Random(seed)
    grid = [[-1] * t for _ in range(t)]
    row_free = [(1 << t) - 1 for _ in range(t)]
    col_free = [(1 << t) - 1 for _ in range(t)]
    untried = []  # per cell up to the current one: its symbols not yet tried
    pos = 0
    while pos < t * t:
        i, j = divmod(pos, t)
        if pos == len(untried):
            avail = row_free[i] & col_free[j]
            symbols = [s for s in range(t) if avail >> s & 1]
            rng.shuffle(symbols)
            untried.append(iter(symbols))
        else:  # back from a dead end: free this cell's symbol
            row_free[i] ^= 1 << grid[i][j]
            col_free[j] ^= 1 << grid[i][j]
        s = next(untried[pos], None)
        if s is None:  # never at pos 0: the search is exhaustive and Latin squares exist
            untried.pop()
            pos -= 1
        else:
            grid[i][j] = s
            row_free[i] ^= 1 << s
            col_free[j] ^= 1 << s
            pos += 1
    return LatinSquare(grid)


def count_latin(t: int) -> int:
    """Exact number of order-t Latin squares (t <= 5): the reduced squares
    (first row and column in natural order), counted by exhaustive
    backtracking cell by cell, times t!(t-1)!, as each square is reduced by
    exactly one column permutation and one permutation of the later rows."""
    if not 1 <= t <= 5:
        raise ValueError("exhaustive count supported for 1 <= t <= 5 only")
    full = (1 << t) - 1
    # symbol i sits at (0, i) and at (i, 0)
    row_free = [full ^ (1 << i) for i in range(t)]
    col_free = [full ^ (1 << j) for j in range(t)]
    cells = [(i, j) for i in range(1, t) for j in range(1, t)]

    def rec(k: int) -> int:
        if k == len(cells):
            return 1
        i, j = cells[k]
        avail = row_free[i] & col_free[j]
        total = 0
        while avail:
            bit = avail & -avail
            avail ^= bit
            row_free[i] ^= bit
            col_free[j] ^= bit
            total += rec(k + 1)
            row_free[i] ^= bit
            col_free[j] ^= bit
        return total

    return math.factorial(t) * math.factorial(t - 1) * rec(0)


# ─── rook cycles (closed alternating row/column walks) ───────────────────────


class HCycle:
    """A closed rook cycle through 2n grid cells.

    Encoded by two permutations ``rows`` and ``cols`` of range(n): the cell
    sequence is (r0,c0), (r1,c0), (r1,c1), (r2,c1), ..., (r0, c_{n-1}).
    Two encodings describe the same cell set exactly when they differ by a
    simultaneous rotation or by reversal.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: Sequence[int], cols: Sequence[int]):
        rows = tuple(rows)
        cols = tuple(cols)
        n = len(rows)
        if n < 2:
            raise ValueError("need n >= 2")
        if sorted(rows) != list(range(n)) or sorted(cols) != list(range(n)):
            raise ValueError("rows and cols must both be permutations of range(n)")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("HCycle is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    def cells(self) -> list:
        """The 2n cells in traversal order."""
        n = self.n
        out = []
        for t in range(n):
            out.append((self.rows[t], self.cols[t]))
            out.append((self.rows[(t + 1) % n], self.cols[t]))
        return out

    def __repr__(self):
        return f"HCycle(rows={self.rows}, cols={self.cols})"


def random_h_cycle(n: int, seed: int) -> HCycle:
    rng = random.Random(seed)
    rows = list(range(n))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return HCycle(rows, cols)


# ─── double Latin squares ────────────────────────────────────────────────────


class DoubleLatinSquare:
    """Order-n grid (n even) over symbols 0..n/2-1, each twice per row and column."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        rows = tuple(tuple(row) for row in grid)
        n = len(rows)
        if n < 2 or n % 2:
            raise ValueError("order must be even and >= 2")
        t = n // 2
        for row in rows:
            if len(row) != n:
                raise ValueError("grid is not square")
            if any(row.count(s) != 2 for s in range(t)):
                raise ValueError("each symbol must appear exactly twice per row")
        for j in range(n):
            col = [row[j] for row in rows]
            if any(col.count(s) != 2 for s in range(t)):
                raise ValueError("each symbol must appear exactly twice per column")
        object.__setattr__(self, "grid", rows)

    def __setattr__(self, name, value):
        raise AttributeError("DoubleLatinSquare is immutable")

    @property
    def order(self) -> int:
        return len(self.grid)

    def symbol_cells(self, s: int) -> list:
        return [
            (i, j)
            for i in range(self.order)
            for j in range(self.order)
            if self.grid[i][j] == s
        ]

    def __eq__(self, other):
        return isinstance(other, DoubleLatinSquare) and self.grid == other.grid

    def __hash__(self):
        return hash(self.grid)

    def __repr__(self):
        return f"DoubleLatinSquare(order={self.order})"


def is_single_cycle(perm: Sequence[int]) -> bool:
    """True when the permutation is one cycle covering all its points."""
    t = len(perm)
    if sorted(perm) != list(range(t)):
        raise ValueError("not a permutation")
    seen = 1
    x = perm[0]
    while x != 0:
        x = perm[x]
        seen += 1
    return seen == t


def double_latin_from(A: LatinSquare, B: LatinSquare, sigma: Sequence[int]) -> DoubleLatinSquare:
    """Stack [[A, B], [sigma(A), B]] into an order-2t double Latin square.

    ``sigma`` must be a permutation of range(t) forming a single t-cycle
    (the identity is only allowed at t = 1); sigma(A) permutes A's rows.
    The result is always Hamiltonian: each symbol's 2n cells close into
    one rook cycle.
    """
    t = A.order
    if B.order != t:
        raise ValueError("blocks must have equal order")
    sigma = tuple(sigma)
    if len(sigma) != t:
        raise ValueError("sigma must act on range(t)")
    if not is_single_cycle(sigma):
        raise ValueError("sigma must be a single t-cycle")
    grid = [list(A.grid[i]) + list(B.grid[i]) for i in range(t)]
    grid += [list(A.grid[sigma[i]]) + list(B.grid[i]) for i in range(t)]
    return DoubleLatinSquare(grid)


def is_hamiltonian(X: DoubleLatinSquare) -> bool:
    """True when every symbol's 2n cells form a single rook cycle."""
    for s in range(X.order // 2):
        try:
            rook_cycle_order(X.symbol_cells(s))
        except ValueError:  # the cells have two per row and column, so: several cycles
            return False
    return True


def rook_cycle_order(cells: Sequence) -> list:
    """The cells of a single rook cycle listed in traversal order.

    Raises ValueError if the cells split into several cycles.
    """
    row_mate = {}
    col_mate = {}
    by_row = {}
    by_col = {}
    for c in cells:
        by_row.setdefault(c[0], []).append(c)
        by_col.setdefault(c[1], []).append(c)
    for group, mate in ((by_row, row_mate), (by_col, col_mate)):
        for pair in group.values():
            if len(pair) != 2:
                raise ValueError("cell set does not have two cells per row/column")
            mate[pair[0]] = pair[1]
            mate[pair[1]] = pair[0]
    start = min(cells)
    order = [start]
    cur, use_row = start, True
    while True:
        cur = row_mate[cur] if use_row else col_mate[cur]
        use_row = not use_row
        if cur == start and use_row:
            break
        order.append(cur)
    if len(order) != len(cells):
        raise ValueError("cells form more than one cycle")
    return order


# ─── bipartite graphs, matchings, 2-factors ──────────────────────────────────


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph on left/right vertex sets {0..n_left-1}, {0..n_right-1}."""

    n_left: int
    n_right: int
    edges: frozenset

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise ValueError(f"edge out of range: {(u, v)}")

    @classmethod
    def from_edges(cls, n_left: int, n_right: int, edges) -> "BipartiteGraph":
        return cls(n_left, n_right, frozenset((u, v) for u, v in edges))

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.n_left)]
        for (u, v) in sorted(self.edges):
            adj[u].append(v)
        return adj

    def without_edges(self, gone) -> "BipartiteGraph":
        return BipartiteGraph(self.n_left, self.n_right, self.edges - frozenset(gone))

    def is_regular(self, k: int) -> bool:
        degs_l = [0] * self.n_left
        degs_r = [0] * self.n_right
        for (u, v) in self.edges:
            degs_l[u] += 1
            degs_r[v] += 1
        return all(x == k for x in degs_l) and all(x == k for x in degs_r)


def perfect_matching(G: BipartiteGraph, order=None) -> dict:
    """A perfect matching as a left -> right dict (Kuhn's augmenting paths).

    ``order`` optionally reorders left vertices and neighbor lists to
    diversify which matching is found.  Raises MatchingError when none
    exists; never returns a partial matching.
    """
    if G.n_left != G.n_right:
        raise MatchingError("sides differ in size")
    adj = G.adjacency()
    lefts = list(range(G.n_left))
    if order is not None:
        rng = random.Random(order)
        rng.shuffle(lefts)
        for row in adj:
            rng.shuffle(row)
    mate: dict = {}  # right -> left

    def augment(u, seen) -> bool:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if v not in mate or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    for u in lefts:
        if not augment(u, set()):
            raise MatchingError("no perfect matching")
    return {u: v for v, u in mate.items()}


def extract_two_factor(G: BipartiteGraph, order=None) -> frozenset:
    """A 2-factor of a k-regular bipartite graph (k even), as an edge set.

    Two edge-disjoint perfect matchings are peeled off and united; a
    k-regular bipartite graph always contains a perfect matching, and
    removing one keeps the graph (k-1)-regular, so the second matching
    also exists.  ``order`` seeds the matching search order, varying
    which 2-factor comes out.
    """
    n = G.n_left
    if n != G.n_right or n < 2:
        raise ValueError("need equal sides of size >= 2")
    k, rem = divmod(len(G.edges), n)
    if rem or not G.is_regular(k):
        raise ValueError("graph is not regular")
    if k < 2 or k % 2:
        raise ValueError(f"need even regularity >= 2, got {k}")
    m1 = perfect_matching(G, order)
    m1_edges = frozenset(m1.items())
    m2 = perfect_matching(
        G.without_edges(m1_edges), None if order is None else order + 1
    )
    factor = m1_edges | frozenset(m2.items())
    assert BipartiteGraph(n, n, factor).is_regular(2), "peeled matchings do not form a 2-factor"
    return factor


def _path_endpoints(path_edges) -> tuple:
    """Validate that 3 edges form a simple path; return (end_l, end_r, mid_l, mid_r)."""
    if len(path_edges) != 3:
        raise ValueError("path must consist of exactly 3 edges")
    count_l: dict = {}
    count_r: dict = {}
    for (u, v) in path_edges:
        count_l[u] = count_l.get(u, 0) + 1
        count_r[v] = count_r.get(v, 0) + 1
    if sorted(count_l.values()) != [1, 2] or sorted(count_r.values()) != [1, 2]:
        raise ValueError("edges do not form a simple 3-edge path")
    end_l = next(u for u, c in count_l.items() if c == 1)
    end_r = next(v for v, c in count_r.items() if c == 1)
    mid_l = next(u for u, c in count_l.items() if c == 2)
    mid_r = next(v for v, c in count_r.items() if c == 2)
    return end_l, end_r, mid_l, mid_r


def two_factor_containing_path(G: BipartiteGraph, path_edges) -> frozenset:
    """A 2-factor of G containing a given 3-edge path end_r-mid_l-mid_r-end_l.

    G must be (n-2)-regular with sides of size n >= 6.  The factor is the
    path, a perfect matching phi of the inner graph (G without the path's
    four vertices), and a perfect matching psi of the outer graph (G
    without mid_l, mid_r, the path's edges and phi's edges): each end then
    meets one path edge and one psi edge, each other vertex one phi edge
    and one psi edge.  Both matchings always exist, so this never fails.
    A bipartite graph whose sides have m vertices each and whose minimum
    degree is at least m/2 satisfies Hall's condition (Hall 1935), and:

    * the inner graph has sides n-2, and a vertex loses at most its edges
      to the two removed path vertices across: degree >= n-4 >= (n-2)/2;
    * the outer graph has sides n-1, and a vertex loses at most its phi
      edge and its edge to the removed middle across (an end loses only
      its path edge): degree >= n-4 >= (n-1)/2 once n >= 7;
    * at n = 6 the bound falls short, and an exhaustive check covers it:
      every 4-regular bipartite graph on 6+6 labelled vertices (67,950),
      with each of its 216 three-edge paths, yields a 2-factor here
      (``tests/two_factor_exhaustion.py``).
    """
    n = G.n_left
    if n != G.n_right or n < 6:
        raise ValueError("need equal sides of size >= 6")
    if not G.is_regular(n - 2):
        raise ValueError("graph is not (n-2)-regular")
    path_edges = frozenset(path_edges)
    if not path_edges <= G.edges:
        raise ValueError("path edges must belong to the graph")
    factor = _factor_via_two_matchings(G, path_edges, *_path_endpoints(path_edges))
    assert path_edges <= factor and BipartiteGraph(n, n, factor).is_regular(2)
    return factor


def _factor_via_two_matchings(G, path_edges, end_l, end_r, mid_l, mid_r) -> frozenset:
    n = G.n_left
    sub_l = [u for u in range(n) if u not in (end_l, mid_l)]
    sub_r = [v for v in range(n) if v not in (end_r, mid_r)]
    pos_l = {u: i for i, u in enumerate(sub_l)}
    pos_r = {v: i for i, v in enumerate(sub_r)}
    inner = BipartiteGraph.from_edges(
        n - 2,
        n - 2,
        ((pos_l[u], pos_r[v]) for (u, v) in G.edges if u in pos_l and v in pos_r),
    )
    phi = perfect_matching(inner)
    phi_edges = frozenset((sub_l[u], sub_r[v]) for u, v in phi.items())
    outer_l = [u for u in range(n) if u != mid_l]
    outer_r = [v for v in range(n) if v != mid_r]
    opos_l = {u: i for i, u in enumerate(outer_l)}
    opos_r = {v: i for i, v in enumerate(outer_r)}
    outer = BipartiteGraph.from_edges(
        n - 1,
        n - 1,
        (
            (opos_l[u], opos_r[v])
            for (u, v) in G.edges - phi_edges - path_edges
            if u in opos_l and v in opos_r
        ),
    )
    psi = perfect_matching(outer)
    psi_edges = frozenset((outer_l[u], outer_r[v]) for u, v in psi.items())
    return path_edges | phi_edges | psi_edges
