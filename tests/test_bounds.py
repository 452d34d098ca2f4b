"""Permanents and the counting bounds built on them."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import complete_bipartite
from oracles import oracle_bregman_holds, oracle_factorial_bound, oracle_permanent
from stocharray.bounds import (
    MAX_REPORT_ORDER,
    construction_count_report,
    latin_count_log_asymptotic,
    log_of_int,
    permanent,
    support_size_bound,
    two_factor_log_lower_bound,
)
from stocharray.core import PolytopeSpec
from stocharray.designs import count_latin, random_latin
from stocharray.sample import lp_start


def test_permanent_known_values():
    assert permanent([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert permanent([[1] * 3 for _ in range(3)]) == 6
    third = Fraction(1, 3)
    assert permanent([[third] * 3 for _ in range(3)]) == Fraction(2, 9)
    assert permanent([]) == 1
    assert permanent([[2]]) == 2
    assert permanent([[1, 2], [3, 4]]) == 10


def test_permanent_guards():
    with pytest.raises(ValueError):
        permanent([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        permanent([[1] * 21 for _ in range(21)])


def test_permanent_matches_oracle():
    """Every order 1..7 with signed ints, negative ints and signed Fractions."""
    rng = random.Random(5)
    for trial in range(42):
        n = trial % 7 + 1
        if trial % 3 == 0:
            M = [
                [Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
        else:
            low, high = (-3, 4) if trial % 3 == 1 else (-5, 0)
            M = [[rng.randrange(low, high) for _ in range(n)] for _ in range(n)]
        value = permanent(M)
        assert type(value) is (int if trial % 3 else Fraction)
        assert value == oracle_permanent(M)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 6))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):  # rational: mixed denominators, zeros and ints
        entry = st.one_of(
            entry,
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
        )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_permanent_matches_oracle_property(M):
    """The common-denominator integer loop gives the exact permanent, as an
    int for int-only input and as a Fraction once any entry is one."""
    value = permanent(M)
    rational = any(isinstance(x, Fraction) for row in M for x in row)
    assert type(value) is (Fraction if rational else int)
    assert value == oracle_permanent(M)


def random_doubly_stochastic(n, rng, terms=4):
    """An average of random permutation matrices, exactly rational."""
    M = [[Fraction(0)] * n for _ in range(n)]
    w = Fraction(1, terms)
    for _ in range(terms):
        perm = rng.sample(range(n), n)
        for i in range(n):
            M[i][perm[i]] += w
    return M


def test_factorial_lower_bound_values_and_validity():
    assert oracle_factorial_bound(3) == Fraction(2, 9)
    assert oracle_factorial_bound(1) == 1
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(1, 7)
        M = random_doubly_stochastic(n, rng)
        assert permanent(M) >= oracle_factorial_bound(n)


def test_rowsum_bound_exact_comparator():
    assert oracle_bregman_holds(6, [3, 3, 3])
    assert not oracle_bregman_holds(Fraction(601, 100), [3, 3, 3])
    assert oracle_bregman_holds(1, [0, 0])
    assert not oracle_bregman_holds(2, [0])
    assert oracle_bregman_holds(Fraction(599, 100), [3, 3, 3])
    with pytest.raises(ValueError):
        oracle_bregman_holds(-1, [2])
    # the bound is tight on the all-ones matrix, so the comparison is exact
    assert oracle_bregman_holds(permanent([[1] * 3 for _ in range(3)]), [3, 3, 3])


def test_rowsum_bound_on_random_binary_matrices():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 7)
        M = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        sums = [sum(row) for row in M]
        assert oracle_bregman_holds(permanent(M), sums)


def test_latin_count_log_asymptotic():
    assert latin_count_log_asymptotic(3) == 9 * (math.log(3) - 2)
    assert latin_count_log_asymptotic(1) == -2
    with pytest.raises(ValueError):
        latin_count_log_asymptotic(0)


def brute_two_factor_count(G):
    edges = sorted(G.edges)
    n = G.n_left
    count = 0
    for subset in itertools.combinations(edges, 2 * n):
        degs_l = [0] * n
        degs_r = [0] * n
        for (u, v) in subset:
            degs_l[u] += 1
            degs_r[v] += 1
        if degs_l == [2] * n and degs_r == [2] * n:
            count += 1
    return count


def test_two_factor_log_lower_bound():
    assert two_factor_log_lower_bound(2, 1) == pytest.approx(0.5 * math.log(2) - 2)
    assert two_factor_log_lower_bound(3, 5) < two_factor_log_lower_bound(4, 5)
    # complete bipartite K_{3,3} has exactly 6 two-factors; the bound respects it
    assert brute_two_factor_count(complete_bipartite(3)) == 6
    assert math.log(6) >= two_factor_log_lower_bound(3, 3)
    with pytest.raises(ValueError):
        two_factor_log_lower_bound(1, 4)
    with pytest.raises(ValueError):
        two_factor_log_lower_bound(3, 0)


def test_support_size_bound_matches_constraint_rank():
    cases = [
        ("omega", 2, 1),
        ("omega", 3, 1),
        ("omega", 3, 2),
        ("omega", 2, 3),
        ("omega", 4, 2),
        ("sigma", 2, 2),
        ("sigma", 3, 2),
        ("sigma", 4, 1),
        ("sigma", 2, 4),
    ]
    for kind, n, d in cases:
        spec = PolytopeSpec(kind, n, d)
        assert support_size_bound(spec) == len(lp_start(spec).basis)


def test_log_of_int():
    for x in (1, 2, 720, 10**12):
        assert log_of_int(x) == pytest.approx(math.log(x))
    huge = 7**500
    assert log_of_int(huge) == pytest.approx(500 * math.log(7), rel=1e-12)
    with pytest.raises(ValueError):
        log_of_int(0)


def test_construction_count_report():
    r4 = construction_count_report(4)
    assert r4["top_half_count"] == 4
    assert not r4["top_half_estimated"]
    assert r4["first_lower_layer_orderings"] == 6
    assert r4["later_layers_log_lower_bound"] == 0.0
    assert r4["total_log_lower_bound"] == pytest.approx(math.log(24))

    r10 = construction_count_report(10)
    assert r10["top_half_count"] == 24 * 161280**2 == 624269721600
    assert not r10["top_half_estimated"]
    assert r10["total_log_lower_bound"] == (
        r10["top_half_log_lower_bound"] + r10["bottom_half_log_lower_bound"]
    )
    assert r10["bottom_half_log_lower_bound"] == pytest.approx(
        math.log(math.factorial(9))
        + sum(two_factor_log_lower_bound(k, 10) for k in (6, 4, 2))
    )

    r12 = construction_count_report(12)
    assert r12["top_half_estimated"] and r12["top_half_count"] is None

    with pytest.raises(ValueError):
        construction_count_report(5)
    with pytest.raises(ValueError):
        construction_count_report(0)


def test_construction_count_report_order_cap():
    """The cap is the largest even order whose (n-1)! prints in 4300 digits."""
    assert math.factorial(MAX_REPORT_ORDER - 1) < 10**4300 <= math.factorial(MAX_REPORT_ORDER + 1)
    top = construction_count_report(MAX_REPORT_ORDER)
    assert top["first_lower_layer_orderings"] == math.factorial(MAX_REPORT_ORDER - 1)
    for n in (MAX_REPORT_ORDER + 2, 2000, 10_000_000):
        with pytest.raises(ValueError, match=f"capped at order {MAX_REPORT_ORDER}"):
            construction_count_report(n)


def count_row_extensions(cols, t):
    """Number of permutations extending a partial Latin rectangle by one row."""
    return sum(
        1
        for perm in itertools.permutations(range(t))
        if all(perm[j] not in cols[j] for j in range(t))
    )


def test_row_extension_count_is_an_availability_permanent():
    """Completing one more row is counted exactly by a 0/1 permanent.

    Walking the full tree also re-derives the Latin square count, tying
    the permanent machinery to the design counts it is used to bound.
    """
    for t in (2, 3, 4):

        def rec(cols, filled):
            if filled == t:
                return 1
            avail = [[1 if s not in cols[j] else 0 for s in range(t)] for j in range(t)]
            # availability permanent counts admissible next rows exactly
            assert permanent([list(r) for r in zip(*avail)]) == count_row_extensions(
                cols, t
            )
            total = 0
            for perm in itertools.permutations(range(t)):
                if any(perm[j] in cols[j] for j in range(t)):
                    continue
                for j in range(t):
                    cols[j].add(perm[j])
                total += rec(cols, filled + 1)
                for j in range(t):
                    cols[j].remove(perm[j])
            return total

        assert rec([set() for _ in range(t)], 0) == count_latin(t)


def test_permanent_sandwich_on_regular_binary_matrices():
    """r-regular 0/1 matrices sit between the two permanent bounds."""
    for t, seed in [(4, 0), (5, 3)]:
        L = random_latin(t, seed)
        for r in range(1, t + 1):
            M = [[1 if L.grid[i][j] < r else 0 for j in range(t)] for i in range(t)]
            assert all(sum(row) == r for row in M)
            p = permanent(M)
            # normalized matrix M/r is doubly stochastic: p / r^t >= t!/t^t
            assert Fraction(p, r**t) >= oracle_factorial_bound(t)
            assert oracle_bregman_holds(p, [r] * t)
