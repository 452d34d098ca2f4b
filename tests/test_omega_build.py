"""Staged construction of fractional vertices in the line-stochastic family."""

import random

import pytest

from stocharray.certify import build_support_graph, is_vertex_rank
from stocharray.core import Array3, PolytopeSpec, is_member
from stocharray.designs import (
    DoubleLatinSquare,
    LatinSquare,
    double_latin_from,
    is_single_cycle,
    rook_cycle_order,
)
from stocharray.omega_build import (
    ConstructionError,
    PartialArray,
    assemble_from_layers,
    build_double_latin,
    build_top_half,
    choose_single_cycle_partner,
    construct_vertex,
    extend_to_permutation,
    fill_remaining_layers,
    plant_odd_cycle,
    random_single_cycle,
    select_rainbow_transversal,
)


def top_half_partial(n, seed):
    rng = random.Random(seed)
    return build_top_half(build_double_latin(n, rng))


def first_lower_layer(X, seed):
    picked = select_rainbow_transversal(X, random.Random(seed))
    tau = extend_to_permutation(picked, X.order, random.Random(seed + 1))
    partner = choose_single_cycle_partner(tau, random.Random(seed + 2))
    n = X.order
    return frozenset({(i, tau[i]) for i in range(n)} | {(i, partner[i]) for i in range(n)})


# ─── partial array bookkeeping ───────────────────────────────────────────────


def test_partial_array_validation():
    layer = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    p = PartialArray(2, (layer,))
    assert p.decided == 1
    assert p.half_counts() == [[1, 1], [1, 1]]
    with pytest.raises(ValueError):
        PartialArray(2, (layer, layer, layer))  # more layers than the order
    with pytest.raises(ValueError):
        PartialArray(2, (frozenset({(0, 0), (1, 1)}),))  # one cell per row
    with pytest.raises(ValueError):
        PartialArray(2, (frozenset({(0, 0), (0, 2), (1, 0), (1, 2)}),))
    with pytest.raises(ValueError):
        p.with_layer(layer).with_layer(layer)  # three layers on order two
    big = frozenset({(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)})
    sat = PartialArray(3, (big, big))
    with pytest.raises(ValueError):
        sat.with_layer(big)  # shafts exceed two


def test_available_shafts_needs_full_coverage():
    layer = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    incomplete = PartialArray(3, ())
    with pytest.raises(ValueError):
        incomplete.available_shafts()
    full = PartialArray(2, (layer,))
    assert full.available_shafts() == layer


# ─── stage 1: the top half ───────────────────────────────────────────────────


def test_random_single_cycle():
    for t in (1, 2, 5, 9):
        sigma = random_single_cycle(t, random.Random(3))
        assert is_single_cycle(sigma)


def test_build_double_latin_is_hamiltonian_and_guarded():
    for n, seed in [(2, 0), (6, 1), (10, 2)]:
        X = build_double_latin(n, random.Random(seed))
        assert X.order == n
    with pytest.raises(ValueError):
        build_double_latin(5, random.Random(0))
    with pytest.raises(ValueError):
        build_double_latin(0, random.Random(0))


def test_build_top_half_layers_are_rook_cycles():
    for seed in range(4):
        n = 8
        partial = top_half_partial(n, seed)
        assert partial.decided == n // 2
        for layer in partial.layers:
            assert len(layer) == 2 * n
            assert len(rook_cycle_order(sorted(layer))) == 2 * n
        assert partial.half_counts() == [[1] * n for _ in range(n)]


def test_build_top_half_rejects_non_hamiltonian():
    grid = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
    with pytest.raises(ValueError):
        build_top_half(DoubleLatinSquare(grid))


# ─── stage 2: transversal, extension, partner ────────────────────────────────


def test_select_rainbow_transversal_properties():
    L = LatinSquare([[0, 1], [1, 0]])
    X = double_latin_from(L, L, (1, 0))
    for seed in range(10):
        picked = select_rainbow_transversal(X, random.Random(seed))
        assert len(picked) == 2
        rows = {i for (i, _) in picked}
        cols = {j for (_, j) in picked}
        assert len(rows) == 2 and len(cols) == 2
        for s, (i, j) in enumerate(picked):
            assert X.grid[i][j] == s


def test_extend_to_permutation():
    tau = extend_to_permutation([(0, 0)], 2, random.Random(0))
    assert tau == (0, 1)
    for seed in range(5):
        tau = extend_to_permutation([(1, 3), (4, 0)], 6, random.Random(seed))
        assert sorted(tau) == list(range(6))
        assert tau[1] == 3 and tau[4] == 0
    with pytest.raises(ValueError):
        extend_to_permutation([(0, 0), (0, 1)], 3, random.Random(0))
    with pytest.raises(ValueError):
        extend_to_permutation([(0, 1), (2, 1)], 3, random.Random(0))


def test_choose_single_cycle_partner_small_exhaustive():
    """At n = 3 exactly (n-1)! = 2 distinct partners exist; both appear."""
    tau = (0, 1, 2)
    seen = {choose_single_cycle_partner(tau, random.Random(seed)) for seed in range(40)}
    assert len(seen) == 2
    for partner in seen:
        union = sorted(
            [(i, tau[i]) for i in range(3)] + [(i, partner[i]) for i in range(3)]
        )
        assert len(rook_cycle_order(union)) == 6


def test_choose_single_cycle_partner_large():
    rng = random.Random(11)
    tau = tuple(rng.sample(range(10), 10))
    partner = choose_single_cycle_partner(tau, random.Random(5))
    assert sorted(partner) == list(range(10))
    assert all(partner[i] != tau[i] for i in range(10))
    union = sorted([(i, tau[i]) for i in range(10)] + [(i, partner[i]) for i in range(10)])
    assert len(rook_cycle_order(union)) == 20
    with pytest.raises(ValueError):
        choose_single_cycle_partner((0,), random.Random(0))


# ─── stage 3: odd-cycle plant and fill ───────────────────────────────────────


def test_plant_odd_cycle_stage_guards():
    partial = top_half_partial(8, 0)
    with pytest.raises(ValueError):
        plant_odd_cycle(partial, random.Random(0))  # first lower layer still missing
    X = build_double_latin(8, random.Random(1))
    p = build_top_half(X).with_layer(first_lower_layer(X, 2))
    planted = plant_odd_cycle(p, random.Random(3))
    assert planted.decided == 6
    with pytest.raises(ValueError):
        plant_odd_cycle(planted, random.Random(0))  # already planted


def test_plant_odd_cycle_too_small():
    X = build_double_latin(4, random.Random(0))
    p = build_top_half(X).with_layer(first_lower_layer(X, 1))
    with pytest.raises(ConstructionError):
        plant_odd_cycle(p, random.Random(0))


def test_fill_remaining_layers_stage_guard():
    X = build_double_latin(8, random.Random(4))
    p = build_top_half(X).with_layer(first_lower_layer(X, 5))
    with pytest.raises(ValueError):
        fill_remaining_layers(p, random.Random(0))


def test_staged_pipeline_matches_certificates():
    n = 8
    X = build_double_latin(n, random.Random(21))
    p = build_top_half(X).with_layer(first_lower_layer(X, 22))
    p = plant_odd_cycle(p, random.Random(23))
    A = fill_remaining_layers(p, random.Random(24))
    spec = PolytopeSpec("omega", n, 2)
    assert is_member(A, spec)
    assert is_vertex_rank(A, spec).is_vertex


# ─── orchestration ───────────────────────────────────────────────────────────


def test_construct_vertex_produces_certified_vertices():
    spec = PolytopeSpec("omega", 6, 2)
    seen = set()
    for seed in range(6):
        A, cert = construct_vertex(6, seed)
        assert cert.is_vertex and cert.method == "rank"
        assert is_member(A, spec)
        assert len(A.support()) == 2 * 36
        graph = build_support_graph(A, spec)
        assert graph.is_connected and not graph.has_bipartite_component
        seen.add(A)
    assert len(seen) >= 2  # different seeds explore different vertices


def test_construct_vertex_is_deterministic():
    A1, _ = construct_vertex(10, 77)
    A2, _ = construct_vertex(10, 77)
    assert A1 == A2


def test_construct_vertex_error_taxonomy():
    with pytest.raises(ValueError):
        construct_vertex(7)
    with pytest.raises(ValueError):
        construct_vertex(2)
    with pytest.raises(ValueError):
        construct_vertex(4, 0)
    with pytest.raises(ConstructionError):
        construct_vertex(6, 46)


def test_assemble_from_layers_guards():
    layer = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    A = assemble_from_layers(2, [layer, layer])
    assert A[(0, 0, 0)] == A[(0, 0, 1)]
    with pytest.raises(ValueError):
        assemble_from_layers(2, [layer])
    repeated = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        assemble_from_layers(2, [repeated, layer])
