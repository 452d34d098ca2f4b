"""Construction of fractional vertices in the hyperplane-stochastic family."""

import itertools
from fractions import Fraction

import pytest

from fixtures import golden_array, tuple_to_array
from oracles import oracle_rook_cycles
from stocharray.certify import is_vertex_rank
from stocharray.core import Array3, PolytopeSpec, is_member
from stocharray.designs import HCycle, random_h_cycle
from stocharray.sigma_build import SymbolMatrix, build_symbol_matrix, construct_sigma_vertex

HALF = Fraction(1, 2)


def test_symbol_matrix_validation():
    good = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    M = SymbolMatrix(2, good)
    assert M.n == 2
    with pytest.raises(AttributeError):
        M.n = 3
    with pytest.raises(ValueError):
        SymbolMatrix(2, {(0, 0): 0, (0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        SymbolMatrix(2, {**good, (0, 0): 2})  # symbol out of range
    with pytest.raises(ValueError):
        SymbolMatrix(2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (2, 1): 0})
    lopsided = {
        (0, 0): 0, (0, 1): 1, (0, 2): 2,
        (1, 0): 1, (1, 1): 2, (1, 2): 0,
    }
    with pytest.raises(ValueError):
        SymbolMatrix(3, lopsided)  # three cells in a row, none in another


def test_symbol_matrix_to_array_places_halves():
    M = SymbolMatrix(2, {(0, 0): 0, (0, 1) : 1, (1, 0): 1, (1, 1): 0})
    A = M.to_array()
    assert A[(0, 0, 0)] == HALF and A[(0, 1, 1)] == HALF
    assert A[(1, 0, 1)] == HALF and A[(1, 1, 0)] == HALF
    assert len(A.support()) == 4


def test_fillings_exhaustive_at_order_three():
    """Planting (0,1,0) on a fixed cycle leaves exactly 3 distinct labelings."""
    H = HCycle((0, 1, 2), (0, 1, 2))
    cells = H.cells()
    seen = set()
    for tail in itertools.permutations([1, 2, 2]):
        assignment = {cells[0]: 0, cells[1]: 1, cells[2]: 0}
        assignment.update(zip(cells[3:], tail))
        seen.add(frozenset(assignment.items()))
    assert len(seen) == 3
    sampled = {
        frozenset(build_symbol_matrix(H, seed).assignment.items())
        for seed in range(60)
    }
    assert sampled == seen


def test_build_symbol_matrix_plants_triangle():
    for n, seed in [(2, 0), (4, 3), (7, 9)]:
        H = random_h_cycle(n, seed)
        M = build_symbol_matrix(H, seed + 1)
        cells = H.cells()
        assert M.assignment[cells[0]] == 0
        assert M.assignment[cells[1]] == 1
        assert M.assignment[cells[2]] == 0


def test_distinct_vertices_at_order_three():
    """6 rook cycles times 3 fillings give 18 distinct arrays."""
    arrays = set()
    for rows, cols in oracle_rook_cycles(3):
        cells = HCycle(rows, cols).cells()
        for tail in set(itertools.permutations([1, 2, 2])):
            assignment = {cells[0]: 0, cells[1]: 1, cells[2]: 0}
            assignment.update(zip(cells[3:], tail))
            arrays.add(SymbolMatrix(3, assignment).to_array())
    assert len(arrays) == 18
    spec = PolytopeSpec("sigma", 3, 2)
    for A in arrays:
        assert is_vertex_rank(A, spec).is_vertex


def test_construct_sigma_vertex_certified_across_orders():
    for n in range(2, 7):
        spec = PolytopeSpec("sigma", n, 2)
        A, cert = construct_sigma_vertex(n, seed=n * 13)
        assert cert.is_vertex and cert.method == "rank"
        assert is_member(A, spec)
        assert len(A.support()) == 2 * n
        assert set(A.entries) == {Fraction(0), HALF}


def test_construct_sigma_vertex_order_two_is_forced():
    """One cycle, one filling: every seed gives the canon up to symbol swap.

    The rook cycle through all four cells is unique, but the traversal
    may start anywhere, which can exchange the two layer labels.
    """
    golden = golden_array("sigma-2x2x2.json")
    swapped = Array3.from_cells(
        2, 2, {(i, j, 1 - k): v for (i, j, k), v in zip(golden.cells(), golden.entries) if v}
    )
    for seed in (0, 1, 17, 999):
        A, _ = construct_sigma_vertex(2, seed)
        assert A in (golden, swapped)


def test_construct_sigma_vertex_deterministic_and_guarded():
    A1, _ = construct_sigma_vertex(5, 42)
    A2, _ = construct_sigma_vertex(5, 42)
    assert A1 == A2
    with pytest.raises(ValueError):
        construct_sigma_vertex(1)


def test_tuple_to_array():
    A = tuple_to_array([(0, 1, 2), (0, 1, 2)])
    assert A[(0, 0, 0)] == 1 and A[(1, 1, 1)] == 1 and A[(2, 2, 2)] == 1
    assert len(A.support()) == 3
    spec2 = PolytopeSpec("sigma", 2, 2)
    arrays = set()
    for pair in itertools.product(itertools.permutations(range(2)), repeat=2):
        B = tuple_to_array(pair)
        assert is_member(B, spec2)
        assert is_vertex_rank(B, spec2).is_vertex
        arrays.add(B)
    assert len(arrays) == 4
