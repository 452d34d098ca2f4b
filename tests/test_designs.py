"""Latin squares, rook cycles, stacked double squares, and bipartite factors."""

import itertools
import random

import pytest

from stocharray.designs import (
    MAX_LATIN_ORDER,
    BipartiteGraph,
    DoubleLatinSquare,
    HCycle,
    LatinSquare,
    MatchingError,
    count_latin,
    double_latin_from,
    extract_two_factor,
    is_hamiltonian,
    is_single_cycle,
    perfect_matching,
    random_h_cycle,
    random_latin,
    rook_cycle_order,
    two_factor_containing_path,
)

from fixtures import complete_bipartite, random_latin_discordant
from oracles import oracle_count_latin, oracle_latin_squares, oracle_rook_cycles
from two_factor_exhaustion import check_every_path, complement, removed_two_factors

LATIN_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}


def test_count_latin_matches_oracle_and_known_values():
    for t in range(1, 6):
        assert count_latin(t) == LATIN_COUNTS[t]
    # full t=5 oracle comparison lives in the acceptance suite
    for t in range(1, 5):
        assert count_latin(t) == oracle_count_latin(t)
    with pytest.raises(ValueError):
        count_latin(0)
    with pytest.raises(ValueError):
        count_latin(6)


def test_iter_latin_squares_is_exhaustive_and_distinct():
    for t in range(1, 5):
        squares = [LatinSquare(grid) for grid in oracle_latin_squares(t)]
        assert len(squares) == count_latin(t)
        assert len(set(squares)) == len(squares)


def test_latin_square_validation():
    LatinSquare([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 1]])
    cyclic = LatinSquare([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    assert cyclic.grid[1] == (1, 2, 3, 0)


def test_random_latin_deterministic_and_valid():
    for t in (1, 3, 5):
        a = random_latin(t, 42)
        assert a == random_latin(t, 42)
        assert isinstance(a, LatinSquare)
    assert random_latin(1, 0).grid == ((0,),)
    assert random_latin(3, 0) != random_latin(3, 1) or random_latin(3, 2) != random_latin(3, 3)


def test_random_latin_at_the_order_cap_runs_deep_in_the_stack():
    """The fill keeps its own stack, so an order-31 square (961 cells) needs
    no interpreter frames per cell, even when called 100 frames deep."""

    def nested(depth):
        return nested(depth - 1) if depth else random_latin(MAX_LATIN_ORDER, 1)

    L = nested(100)
    assert isinstance(L, LatinSquare) and len(L.grid) == 31
    with pytest.raises(ValueError, match=f"capped at order {MAX_LATIN_ORDER}; got 32"):
        random_latin(MAX_LATIN_ORDER + 1, 1)


def test_random_latin_discordant_disagrees_everywhere():
    for seed in range(8):
        base = random_latin(4, seed)
        other = random_latin_discordant(base, seed + 100)
        assert all(
            base.grid[i][j] != other.grid[i][j] for i in range(4) for j in range(4)
        )


def test_h_cycle_cells_alternate():
    H = HCycle((0, 1, 2), (0, 1, 2))
    cells = H.cells()
    assert len(cells) == 6
    for t in range(6):
        a, b = cells[t], cells[(t + 1) % 6]
        # consecutive cells share a column, then a row, alternating
        assert (a[1] == b[1]) if t % 2 == 0 else (a[0] == b[0])


def test_h_cycle_counts_match_exhaustion():
    """One encoding of each distinct rook cycle walks 2n distinct cells, two
    per row and column, and no two of them walk the same cell set."""
    for n, expect in [(2, 1), (3, 6), (4, 72)]:
        cell_sets = set()
        for rows, cols in oracle_rook_cycles(n):
            cells = HCycle(rows, cols).cells()
            assert len(set(cells)) == 2 * n
            assert sorted(i for i, _ in cells) == sorted(j for _, j in cells) == sorted(
                list(range(n)) * 2
            )
            cell_sets.add(frozenset(cells))
        assert len(cell_sets) == expect
    with pytest.raises(ValueError):
        HCycle((0,), (0,))


def test_random_h_cycle_valid_and_deterministic():
    for n in (2, 4, 7):
        H = random_h_cycle(n, 9)
        again = random_h_cycle(n, 9)
        assert (H.rows, H.cols) == (again.rows, again.cols)
        assert sorted(H.rows) == list(range(n)) and sorted(H.cols) == list(range(n))


def test_is_single_cycle():
    assert is_single_cycle((1, 2, 0))
    assert is_single_cycle((0,))
    assert not is_single_cycle((0, 1, 2))
    assert not is_single_cycle((1, 0, 2))


def test_double_latin_from_blocks():
    A = LatinSquare([[0, 1], [1, 0]])
    X = double_latin_from(A, A, (1, 0))
    assert X.order == 4
    assert is_hamiltonian(X)
    with pytest.raises(ValueError):
        double_latin_from(A, A, (0, 1))  # identity is not a single 2-cycle
    with pytest.raises(ValueError):
        double_latin_from(A, LatinSquare([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), (1, 0))


def test_double_latin_validation_and_symbol_cells():
    grid = [[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]]
    X = DoubleLatinSquare(grid)
    assert len(X.symbol_cells(0)) == 8
    with pytest.raises(ValueError):
        DoubleLatinSquare([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        DoubleLatinSquare([[0, 0, 1], [1, 1, 0], [0, 1, 1]])


def test_is_hamiltonian_negative_block_square():
    """Two disjoint 4-cycles per symbol class: a valid square that fails."""
    X = DoubleLatinSquare(
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
    )
    assert not is_hamiltonian(X)
    Y = DoubleLatinSquare([[0, 0], [0, 0]])
    assert is_hamiltonian(Y)


def test_rook_cycle_order():
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    order = rook_cycle_order(cells)
    assert len(order) == 4 and set(order) == set(cells)
    two_cycles = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    with pytest.raises(ValueError):
        rook_cycle_order(two_cycles)


def test_bipartite_graph_basics():
    G = BipartiteGraph.from_edges(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)])
    assert G.is_regular(2)
    assert G.adjacency()[0] == [0, 1]
    K = complete_bipartite(3)
    assert len(K.edges) == 9 and K.is_regular(3)
    assert len(K.without_edges(G.edges).edges) == 3


def test_perfect_matching_found_and_missing():
    K = complete_bipartite(4)
    m = perfect_matching(K)
    assert sorted(m) == [0, 1, 2, 3] and sorted(m.values()) == [0, 1, 2, 3]
    for order in range(5):
        m2 = perfect_matching(K, order)
        assert sorted(m2.values()) == [0, 1, 2, 3]
    # left vertex 0 isolated: no perfect matching exists
    G = BipartiteGraph.from_edges(3, 3, [(1, 0), (1, 1), (2, 1), (2, 2)])
    with pytest.raises(MatchingError):
        perfect_matching(G)
    with pytest.raises(MatchingError):
        perfect_matching(BipartiteGraph.from_edges(2, 3, [(0, 0), (1, 1)]))


def check_two_factor(edges, n):
    degs_l = [0] * n
    degs_r = [0] * n
    for (u, v) in edges:
        degs_l[u] += 1
        degs_r[v] += 1
    assert degs_l == [2] * n and degs_r == [2] * n


def test_extract_two_factor_from_complete_graph():
    K = complete_bipartite(4)
    F = extract_two_factor(K)
    check_two_factor(F, 4)
    assert F <= K.edges


def test_extract_two_factor_on_two_regular_graph_returns_it():
    cycle = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3)]
    G = BipartiteGraph.from_edges(4, 4, cycle)
    assert extract_two_factor(G) == G.edges


def test_repeated_extraction_empties_the_graph():
    """A 2k-regular graph yields exactly k disjoint 2-factors."""
    G = complete_bipartite(6)
    rounds = 0
    while G.edges:
        F = extract_two_factor(G, order=rounds)
        check_two_factor(F, 6)
        G = G.without_edges(F)
        rounds += 1
    assert rounds == 3


def test_extract_two_factor_rejects_odd_regularity():
    with pytest.raises(ValueError):
        extract_two_factor(complete_bipartite(3))
    irregular = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
    with pytest.raises(ValueError):
        extract_two_factor(irregular)


def random_regular_instance(n, seed):
    """An (n-2)-regular bipartite graph: the complement of a random 2-factor."""
    rng = random.Random(seed)
    sigma = list(range(n))
    rng.shuffle(sigma)
    shift = list(range(1, n)) + [0]
    tau = [sigma[shift[i]] for i in range(n)]
    gone = {(i, sigma[i]) for i in range(n)} | {(i, tau[i]) for i in range(n)}
    return complete_bipartite(n).without_edges(gone)


def random_path_in(G, rng):
    adj = G.adjacency()
    radj = [[] for _ in range(G.n_right)]
    for (u, v) in G.edges:
        radj[v].append(u)
    while True:
        u1 = rng.randrange(G.n_left)
        v1 = rng.choice(adj[u1])
        u2 = rng.choice(radj[v1])
        if u2 == u1:
            continue
        v2 = rng.choice(adj[u2])
        if v2 == v1:
            continue
        return frozenset({(u1, v1), (u2, v1), (u2, v2)})


def test_two_factor_containing_path():
    for seed in range(12):
        n = 6 if seed % 2 else 10
        G = random_regular_instance(n, seed)
        rng = random.Random(seed + 500)
        path = random_path_in(G, rng)
        F = two_factor_containing_path(G, path)
        check_two_factor(F, n)
        assert path <= F


def test_two_factor_through_random_paths():
    for n in range(6, 11):
        for seed in range(60):
            G = random_regular_instance(n, seed)
            path = random_path_in(G, random.Random(seed + 900))
            F = two_factor_containing_path(G, path)
            check_two_factor(F, n)
            assert path <= F <= G.edges


def test_two_factor_through_every_path_of_sampled_order_six_graphs():
    """A slice of tests/two_factor_exhaustion.py: every 3-edge path of every
    1359th 4-regular bipartite graph on 6+6 vertices."""
    sample = itertools.islice(removed_two_factors(), 0, None, 1359)
    assert sum(check_every_path(complement(rows)) for rows in sample) == 50 * 216


def test_two_factor_containing_path_errors():
    G = random_regular_instance(6, 1)
    with pytest.raises(ValueError):
        two_factor_containing_path(G, frozenset({(0, 0), (0, 1)}))
    closed = frozenset({(0, 0), (1, 0), (1, 1)}) | {(0, 1)}
    with pytest.raises(ValueError):
        two_factor_containing_path(G, closed)  # 4 edges, not a path
    # a walk revisiting a vertex is rejected even with 3 edges
    star = frozenset({(0, 0), (1, 0), (2, 0)})
    with pytest.raises(ValueError):
        two_factor_containing_path(G, star)
    with pytest.raises(ValueError):
        two_factor_containing_path(complete_bipartite(4), frozenset())
    K = complete_bipartite(6)
    with pytest.raises(ValueError):
        two_factor_containing_path(K, frozenset({(0, 0), (1, 0), (1, 1)}))
    # a path using an edge outside the graph is rejected
    H = random_regular_instance(8, 3)
    u, v = next(iter(frozenset(itertools.product(range(8), range(8))) - H.edges))
    radj = {}
    for (x, y) in H.edges:
        radj.setdefault(y, []).append(x)
    u2 = next(x for x in radj[v] if x != u)
    v2 = next(y for (x, y) in H.edges if x == u2 and y != v)
    with pytest.raises(ValueError):
        two_factor_containing_path(H, frozenset({(u, v), (u2, v), (u2, v2)}))


def test_five_regular_matching_example():
    """A 5-regular graph on 10+10 vertices always has a perfect matching."""
    K = complete_bipartite(10)
    F1 = extract_two_factor(K)
    F2 = extract_two_factor(K.without_edges(F1))
    G = K.without_edges(F1 | F2)
    removed = perfect_matching(G)
    H = G.without_edges(frozenset(removed.items()))
    assert H.is_regular(5)
    m = perfect_matching(H)
    assert sorted(m.values()) == list(range(10))
