"""Seeded construction of fractional vertices of the line-stochastic family.

For even n the builder emits an n x n x n member with all entries 1/2
whose support graph is connected and non-bipartite, hence a vertex that
is not a Latin square.  The layers along the third axis are:

* layers 0..n/2-1: the symbol classes of a stacked double Latin square,
  one rook cycle of 2n cells per layer,
* layer n/2: two disjoint permutations forming a single 2n-cycle, the
  first chosen to pass through every symbol class (this ties all the
  upper cycles into one component through the vertical lines),
* layer n/2+1: a 2-factor of the unused vertical lines forced through a
  3-edge path that closes an odd walk against an upper cycle,
* remaining layers: arbitrary 2-factors of whatever vertical lines are
  still unused.

Each stage is exposed on its own, operating on a PartialArray of decided
layers; `construct_vertex` chains them.  Success is guaranteed for even
n >= 10; orders 6 and 8 are attempted and raise ConstructionError when
the seed leaves no odd-cycle plant option (every other stage always
succeeds), and smaller orders are refused, as no odd-cycle plant ever
fits there.
The result is re-certified through both the graph and the rank criteria
before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from stocharray.core import HALF, Array3, PolytopeSpec
from stocharray.certify import certify_construction
from stocharray.designs import (
    MAX_LATIN_ORDER,
    BipartiteGraph,
    DoubleLatinSquare,
    double_latin_from,
    extract_two_factor,
    is_hamiltonian,
    random_latin,
    rook_cycle_order,
    two_factor_containing_path,
)


class ConstructionError(RuntimeError):
    """The randomized construction failed for this order and seed."""


@dataclass(frozen=True)
class PartialArray:
    """The first few decided layers of an all-halves member being built.

    Each layer is a frozenset of (row, column) cells holding 1/2, with
    exactly two cells per row and per column, and no vertical line may
    carry more than two cells across all decided layers.
    """

    n: int
    layers: tuple

    def __post_init__(self):
        n = self.n
        if len(self.layers) > n:
            raise ValueError("more decided layers than the order allows")
        shafts: dict = {}
        for layer in self.layers:
            rows = [0] * n
            cols = [0] * n
            for (i, j) in layer:
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"cell {(i, j)} out of range")
                rows[i] += 1
                cols[j] += 1
                shafts[(i, j)] = shafts.get((i, j), 0) + 1
            if rows != [2] * n or cols != [2] * n:
                raise ValueError("each layer needs exactly two cells per row and column")
        if any(c > 2 for c in shafts.values()):
            raise ValueError("a vertical line holds more than two cells")

    @property
    def decided(self) -> int:
        return len(self.layers)

    def with_layer(self, cells) -> "PartialArray":
        return PartialArray(self.n, self.layers + (frozenset(cells),))

    def half_counts(self) -> list:
        """Cells holding 1/2 so far in each vertical line, as an n x n grid."""
        grid = [[0] * self.n for _ in range(self.n)]
        for layer in self.layers:
            for (i, j) in layer:
                grid[i][j] += 1
        return grid

    def available_shafts(self) -> frozenset:
        """Vertical lines with room left, once every line holds at least one cell."""
        counts = self.half_counts()
        if any(c == 0 for row in counts for c in row):
            raise ValueError("available shafts are defined once the top half is decided")
        return frozenset(
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if counts[i][j] == 1
        )


def random_single_cycle(t: int, rng: random.Random) -> tuple:
    """A uniformly random permutation of range(t) consisting of one t-cycle."""
    order = list(range(t))
    rng.shuffle(order)
    sigma = [0] * t
    for s in range(t):
        sigma[order[s]] = order[(s + 1) % t]
    return tuple(sigma)


def build_double_latin(n: int, rng: random.Random) -> DoubleLatinSquare:
    """A stacked double Latin square of even order n, at most 2 MAX_LATIN_ORDER, Hamiltonian."""
    if n < 2 or n % 2:
        raise ValueError("double Latin squares need even order >= 2")
    if n > 2 * MAX_LATIN_ORDER:
        raise ValueError(f"double Latin squares are capped at order {2 * MAX_LATIN_ORDER}; got {n}")
    t = n // 2
    A = random_latin(t, rng.randrange(1 << 30))
    B = random_latin(t, rng.randrange(1 << 30))
    sigma = random_single_cycle(t, rng)
    return double_latin_from(A, B, sigma)


def build_top_half(X: DoubleLatinSquare) -> PartialArray:
    """Layers 0..n/2-1 from the symbol classes of a Hamiltonian square.

    Layer s holds 1/2 exactly where X carries symbol s, so each layer's
    support is one rook cycle of 2n cells and every vertical line ends
    up holding exactly one cell.
    """
    if not is_hamiltonian(X):
        raise ValueError("the double Latin square must be Hamiltonian")
    n = X.order
    partial = PartialArray(n, tuple(frozenset(X.symbol_cells(s)) for s in range(n // 2)))
    assert all(c == 1 for row in partial.half_counts() for c in row)
    return partial


def select_rainbow_transversal(X: DoubleLatinSquare, rng: random.Random) -> list:
    """One cell per symbol of X, no two sharing a row or column.

    Greedy selection cannot get stuck: when k symbols are placed, the
    used rows and columns block at most 4k of the next symbol's 2n cells,
    and 4k <= 4(n/2 - 1) < 2n.
    """
    n = X.order
    used_rows: set = set()
    used_cols: set = set()
    picked = []
    for s in range(n // 2):
        free = [
            (i, j)
            for (i, j) in X.symbol_cells(s)
            if i not in used_rows and j not in used_cols
        ]
        assert free, "greedy rainbow selection blocked, impossible by counting"
        cell = rng.choice(free)
        picked.append(cell)
        used_rows.add(cell[0])
        used_cols.add(cell[1])
    return picked


def extend_to_permutation(cells, n: int, rng: random.Random) -> tuple:
    """Complete a partial permutation (distinct rows/cols) to tau: row -> col."""
    tau = [-1] * n
    used_cols = set()
    for (i, j) in cells:
        if tau[i] != -1 or j in used_cols:
            raise ValueError("cells do not form a partial permutation")
        tau[i] = j
        used_cols.add(j)
    free_rows = [i for i in range(n) if tau[i] == -1]
    free_cols = [j for j in range(n) if j not in used_cols]
    rng.shuffle(free_cols)
    for i, j in zip(free_rows, free_cols):
        tau[i] = j
    return tuple(tau)


def choose_single_cycle_partner(tau, rng: random.Random) -> tuple:
    """A permutation disjoint from tau whose union with it is one 2n-cycle.

    Rows are threaded along a random cyclic order v; the partner sends
    v[s+1] to tau(v[s]), so the union alternates row and column steps
    through all n rows before closing.
    """
    n = len(tau)
    if n < 2:
        raise ValueError("need n >= 2")
    v = list(range(n))
    rng.shuffle(v)
    partner = [-1] * n
    for s in range(n):
        partner[v[(s + 1) % n]] = tau[v[s]]
    assert all(partner[i] != tau[i] for i in range(n))
    return tuple(partner)


def _plant_options(cycle_cells, used, rng: random.Random):
    """Candidate (x, y, w) triples for the odd-cycle plant, shuffled.

    x and y sit on one upper rook cycle at odd distance >= 3 (cells at
    distance >= 2 on a rook cycle share no row or column), and w bends
    the lower path; none of the three lower cells may sit on a vertical
    line already consumed by the first lower layer.
    """
    L = len(cycle_cells)
    options = []
    for s in range(L):
        for dist in range(3, L - 2, 2):
            x = cycle_cells[s]
            y = cycle_cells[(s + dist) % L]
            for w in ((x[0], y[1]), (y[0], x[1])):
                if x not in used and y not in used and w not in used:
                    options.append((x, y, w))
    rng.shuffle(options)
    return options


def _path_edges(x, y, w):
    return frozenset({(x[0], x[1]), (w[0], w[1]), (y[0], y[1])})


def plant_odd_cycle(partial: PartialArray, rng: random.Random) -> PartialArray:
    """Decide layer n/2+1: a 2-factor through a planted 3-edge path.

    Two cells x, y of the first upper rook cycle at odd distance >= 3,
    together with the bend w and the vertical lines of x and y, close an
    odd walk through the upper layers; the rest of the layer is a
    2-factor of the still-available vertical lines through that path,
    which always exists.  The first of the shuffled options is planted;
    ConstructionError means there is none.
    """
    n = partial.n
    if partial.decided != n // 2 + 1:
        raise ValueError("the odd-cycle layer comes right after the first lower layer")
    if n < 6:
        raise ConstructionError(
            "the odd-cycle plant needs a 2-factor through a path, "
            "which requires order >= 6"
        )
    K = BipartiteGraph.from_edges(n, n, partial.available_shafts())
    cycle_cells = rook_cycle_order(sorted(partial.layers[0]))
    # the whole list is drawn and shuffled: the later layers' draws follow it
    options = _plant_options(cycle_cells, partial.layers[n // 2], rng)
    if not options:
        raise ConstructionError("no odd-cycle plant admits a completing 2-factor")
    return partial.with_layer(two_factor_containing_path(K, _path_edges(*options[0])))


def fill_remaining_layers(partial: PartialArray, rng: random.Random) -> Array3:
    """Decide the last n/2-2 layers with 2-factors of the leftover lines.

    After the odd-cycle layer the available vertical lines form an
    (n-4)-regular bipartite graph; peeling a 2-factor per layer keeps it
    regular with degree dropping by two each time, so the fill never
    gets stuck.
    """
    n = partial.n
    if partial.decided != n // 2 + 2:
        raise ValueError("remaining layers come after the odd-cycle layer")
    K = BipartiteGraph.from_edges(n, n, partial.available_shafts())
    if not K.is_regular(n - 4):
        raise ValueError("available vertical lines lost regularity upstream")
    layers = list(partial.layers)
    for _ in range(n // 2 - 2):
        factor = extract_two_factor(K, rng.randrange(1 << 30))
        layers.append(frozenset(factor))
        K = K.without_edges(factor)
    assert not K.edges, "every vertical line must be consumed exactly once"
    return assemble_from_layers(n, layers)


def construct_vertex(n: int, seed: int = 0) -> tuple:
    """Build a fractional vertex of the order-n line-stochastic polytope.

    Returns (array, certificate) where the certificate is the rank-based
    one; the graph criterion is evaluated as well and the two must agree.
    Raises ValueError for odd n or n < 6, where the odd-cycle plant has
    no room, and ConstructionError when the first upper rook cycle offers
    no odd-cycle plant clear of the first lower layer (possible only for
    even n < 10); every other stage always succeeds.
    """
    if n % 2 or n < 6:
        raise ValueError("order must be even and >= 6")
    rng = random.Random(seed)

    X = build_double_latin(n, rng)
    partial = build_top_half(X)

    picked = select_rainbow_transversal(X, rng)
    tau = extend_to_permutation(picked, n, rng)
    partner = choose_single_cycle_partner(tau, rng)
    first_lower = frozenset(
        {(i, tau[i]) for i in range(n)} | {(i, partner[i]) for i in range(n)}
    )
    assert len(first_lower) == 2 * n
    assert len(rook_cycle_order(sorted(first_lower))) == 2 * n
    partial = partial.with_layer(first_lower)

    partial = plant_odd_cycle(partial, rng)
    A = fill_remaining_layers(partial, rng)

    return A, certify_construction(A, PolytopeSpec("omega", n, 2))


def assemble_from_layers(n: int, layers) -> Array3:
    """Stack per-layer cell sets into an all-halves array, layer = 3rd axis."""
    if len(layers) != n:
        raise ValueError("need exactly n layers")
    values = {}
    for k, layer in enumerate(layers):
        for (i, j) in layer:
            cell = (i, j, k)
            if cell in values:
                raise ValueError(f"cell {cell} assigned twice")
            values[cell] = HALF
    return Array3.from_cells(n, 2, values)
