"""The sparse elimination kernel against a naive rational-Gauss oracle.

`SparseBasis` answers rank and solve questions; `certify._first_dependency`,
its one loop that stops early, answers the kernel question of the rank
certificate.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stocharray.certify import _first_dependency
from stocharray.linalg import SparseBasis


def naive_rank(rows):
    """Textbook Gaussian elimination over Fraction, used as the oracle."""
    M = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(M[0]) if M else 0
    while rank < len(M) and col < ncols:
        pivot = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = 1 / M[rank][col]
        M[rank] = [v * inv for v in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
        col += 1
    return rank


def random_matrix(rng, m, k, lo=-4, hi=4):
    return [[rng.randrange(lo, hi + 1) for _ in range(k)] for _ in range(m)]


def columns_of(rows, k=None):
    """Sparse columns (row index -> nonzero entry) of a dense row list."""
    k = len(rows[0]) if k is None else k
    return [{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(k)]


def independent(columns):
    """The columns a fresh basis keeps, in order."""
    basis = SparseBasis()
    return [j for j, column in enumerate(columns) if basis.add(column)]


def rank_of(rows):
    return len(independent(columns_of(rows))) if rows else 0


def apply(rows, x):
    return [sum(Fraction(a) * v for a, v in zip(row, x)) for row in rows]


def test_rank_matches_oracle_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        m, k = rng.randrange(1, 7), rng.randrange(1, 7)
        M = random_matrix(rng, m, k)
        assert rank_of(M) == naive_rank(M)


def test_rank_on_engineered_deficiencies():
    rng = random.Random(12)
    for _ in range(30):
        r = rng.randrange(1, 4)
        m, k = rng.randrange(r, 6), rng.randrange(r, 6)
        # a product of m x r and r x k factors has rank at most r
        L = random_matrix(rng, m, r)
        R = random_matrix(rng, r, k)
        M = [[sum(L[i][t] * R[t][j] for t in range(r)) for j in range(k)] for i in range(m)]
        got = rank_of(M)
        assert got == naive_rank(M) and got <= r


def test_echelon_pivot_columns():
    """The independent columns are the pivot columns of a row echelon form."""
    cols = columns_of([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert independent(cols) == [0, 2]
    # column 1 is twice column 0
    assert _first_dependency(cols) == [Fraction(-2), Fraction(1), Fraction(0)]


def test_kernel_vector_properties():
    rng = random.Random(13)
    found = 0
    for _ in range(40):
        m, k = rng.randrange(1, 6), rng.randrange(2, 7)
        M = random_matrix(rng, m, k)
        v = _first_dependency(columns_of(M))
        if naive_rank(M) == k:
            assert v is None
            continue
        found += 1
        assert v is not None and any(x != 0 for x in v)
        assert all(isinstance(x, Fraction) for x in v)
        assert apply(M, v) == [0] * m
    assert found > 10


def test_stop_at_dependency_ends_the_pass():
    cols = columns_of([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert independent(cols) == [0, 2, 3]
    assert _first_dependency(cols) == [Fraction(-1), Fraction(1), 0, 0]
    # a column after the first dependent one is never read
    assert _first_dependency(cols[:2] + [None]) == [Fraction(-1), Fraction(1), 0]


def test_basis_add_keeps_the_independent_columns():
    rng = random.Random(15)
    for _ in range(30):
        M = random_matrix(rng, 5, 7, lo=-2, hi=2)
        cols = columns_of(M)
        basis = SparseBasis()
        kept = [j for j, c in enumerate(cols) if basis.add(c)]
        assert len(kept) == naive_rank(M)
        # column j is kept exactly when it raises the rank of the columns before it
        ranks = [naive_rank([row[:j] for row in M]) for j in range(8)]
        assert kept == [j for j in range(7) if ranks[j + 1] > ranks[j]]
        assert not any(basis.add(c) for c in cols)


def test_exact_rationals_and_fraction_entries():
    # column 2 is 1/3 col 0 + 1/2 col 1; scales force non-unit pivots
    cols = [{0: 3, 1: 6}, {0: 2, 2: 4}, {0: Fraction(2), 1: Fraction(2), 2: Fraction(2)}]
    assert independent(cols) == [0, 1]
    assert _first_dependency(cols) == [Fraction(-1, 3), Fraction(-1, 2), Fraction(1)]


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2)])
    rows = [[draw(entry) for _ in range(k)] for _ in range(m)]
    if draw(st.booleans()) and k >= 2:
        # make a later column a combination of earlier ones
        j = draw(st.integers(1, k - 1))
        a = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
        b = draw(st.sampled_from([0, 1, Fraction(-3, 2)]))
        src = draw(st.integers(0, j - 1))
        for row in rows:
            row[j] = a * row[src] + b * row[0]
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rank_equals_oracle_property(rows):
    assert rank_of(rows) == naive_rank(rows)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_first_dependency_vector_property(rows):
    k = len(rows[0])
    x = _first_dependency(columns_of(rows))
    if naive_rank(rows) == k:
        assert x is None
        return
    # j is the first column dependent on the ones before it
    j = next(j for j in range(k) if naive_rank([r[: j + 1] for r in rows]) == j)
    assert x is not None and any(x)
    assert apply(rows, x) == [0] * len(rows)
    assert x[j] == 1
    assert all(v == 0 for v in x[j + 1 :])


def test_express_recovers_known_solution():
    rng = random.Random(14)
    solved = 0
    for _ in range(60):
        k = rng.randrange(1, 6)
        m = rng.randrange(k, k + 3)
        M = random_matrix(rng, m, k)
        if naive_rank(M) != k:
            continue
        x = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(k)]
        b = [sum(row[j] * x[j] for j in range(k)) for row in M]
        basis = SparseBasis()
        assert all(basis.add(c) for c in columns_of(M))
        got = basis.express(dict(enumerate(b)))
        # a coefficient missing from the result is zero
        assert [got.get(j, 0) for j in range(k)] == x
        assert all(c for c in got.values())
        solved += 1
    assert solved > 20


def test_express_inconsistent_returns_none():
    basis = SparseBasis()
    assert all(basis.add(c) for c in columns_of([[1, 0], [1, 0], [0, 1]]))
    assert basis.express({0: 1, 1: 2}) is None


def test_add_refuses_dependent_column():
    basis = SparseBasis()
    first, second = columns_of([[1, 1], [2, 2]])
    assert basis.add(first)
    assert not basis.add(second)
    # the refused column left the basis as it was
    assert basis.express(second) == {0: 1}


def test_empty_and_degenerate_shapes():
    assert independent([]) == [] and _first_dependency([]) is None
    assert independent([{}, {0: 0}]) == []
    assert _first_dependency([{}, {0: 0}]) == [Fraction(1), Fraction(0)]
    assert independent([{0: 5}]) == [0] and _first_dependency([{0: 5}]) is None
