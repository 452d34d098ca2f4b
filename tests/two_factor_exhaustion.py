"""Exhaustive check of `designs.two_factor_containing_path` at n = 6.

For n >= 7 both perfect matchings the function takes exist by Hall's
condition, as its docstring proves.  At n = 6 the outer graph's degree
bound falls short, so this script tries every instance: each 4-regular
bipartite graph on 6+6 labelled vertices (67,950 of them), with each of
its 216 three-edge paths, must give a 2-factor of the graph through the
path.  Any other outcome raises.

    PYTHONPATH=src python tests/two_factor_exhaustion.py

Two processes split the graphs.  The script prints the number of graphs
and instances checked and the wall time.
"""

import itertools
import multiprocessing
import time

from stocharray.designs import BipartiteGraph, two_factor_containing_path

N = 6
GRAPHS = 67950
WORKERS = 2
PAIRS = tuple(itertools.combinations(range(N), 2))
ALL_EDGES = frozenset(itertools.product(range(N), repeat=2))


def removed_two_factors():
    """Each 6 x 6 0/1 matrix with two ones per row and column, as its rows'
    column pairs; the graphs checked are their complements."""
    rows = []
    col_count = [0] * N

    def rec():
        if len(rows) == N:
            yield tuple(rows)
            return
        for pair in PAIRS:
            if col_count[pair[0]] < 2 and col_count[pair[1]] < 2:
                rows.append(pair)
                for c in pair:
                    col_count[c] += 1
                yield from rec()
                rows.pop()
                for c in pair:
                    col_count[c] -= 1

    return rec()


def complement(rows) -> BipartiteGraph:
    return BipartiteGraph(N, N, ALL_EDGES - {(r, c) for r, pair in enumerate(rows) for c in pair})


def three_edge_paths(G: BipartiteGraph):
    """Each 3-edge path end_r-mid_l-mid_r-end_l of G once, by its middle edge."""
    adj = G.adjacency()
    radj = [[u for u in range(G.n_left) if (u, v) in G.edges] for v in range(G.n_right)]
    for mid_l, mid_r in sorted(G.edges):
        for end_r in adj[mid_l]:
            for end_l in radj[mid_r]:
                if end_r != mid_r and end_l != mid_l:
                    yield frozenset({(mid_l, end_r), (mid_l, mid_r), (end_l, mid_r)})


def check_every_path(G: BipartiteGraph) -> int:
    """Check the 2-factor through each 3-edge path of G; returns the path count."""
    count = 0
    for path in three_edge_paths(G):
        F = two_factor_containing_path(G, path)
        if not (path <= F <= G.edges and BipartiteGraph(N, N, F).is_regular(2)):
            raise AssertionError(f"not a 2-factor through {sorted(path)}: {sorted(F)}")
        count += 1
    return count


def check_share(k: int, workers: int) -> tuple:
    """Check graphs k, k + workers, k + 2 workers, ...; returns (graphs, instances)."""
    shares = itertools.islice(removed_two_factors(), k, None, workers)
    graphs = instances = 0
    for rows in shares:
        instances += check_every_path(complement(rows))
        graphs += 1
    return graphs, instances


if __name__ == "__main__":
    start = time.perf_counter()
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        results = pool.starmap(check_share, [(k, WORKERS) for k in range(WORKERS)])
    graphs = sum(g for g, _ in results)
    instances = sum(i for _, i in results)
    if graphs != GRAPHS or instances != 216 * GRAPHS:
        raise AssertionError(f"checked {graphs} graphs and {instances} instances")
    print(f"{graphs} graphs, {instances} instances, every one a 2-factor through its path, "
          f"{time.perf_counter() - start:.0f} s on {WORKERS} processes")
