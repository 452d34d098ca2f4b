"""Array container, constraint geometry, membership, and JSON interchange."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import combine, golden_array, latin_to_array
from oracles import oracle_groups, oracle_latin_squares
from stocharray.certify import independent_groups
from stocharray.core import (
    HALF,
    Array3,
    PolytopeSpec,
    cell_groups,
    flat_index,
    fraction_from_json,
    fraction_to_json,
    from_json_dict,
    group_rows,
    is_member,
    to_json_dict,
    uniform_array,
)
from stocharray.designs import LatinSquare, random_latin

OMEGA_VERTEX = golden_array("omega-3x3x3.json")
SIGMA_VERTEX = golden_array("sigma-2x2x2.json")


def test_spec_validation():
    spec = PolytopeSpec("omega", 3, 2)
    assert spec.axes == 3 and spec.total_cells == 27
    with pytest.raises(ValueError):
        PolytopeSpec("gamma", 3, 2)
    with pytest.raises(ValueError):
        PolytopeSpec("omega", 0, 2)
    with pytest.raises(ValueError):
        PolytopeSpec("sigma", 3, 0)


def test_array_construction_and_indexing():
    A = Array3(2, 2, range(8))
    assert A.entries == tuple(Fraction(v) for v in range(8))
    assert [A.index(c) for c in A.cells()] == list(range(8))
    assert A[(1, 0, 1)] == 5
    with pytest.raises(ValueError):
        Array3(2, 2, range(7))
    with pytest.raises(ValueError):
        A.index((1, 0))
    with pytest.raises(ValueError):
        A.index((1, 0, 2))
    with pytest.raises(AttributeError):
        A.n = 3


def test_array_builders_roundtrip():
    values = {(0, 1, 1): HALF, (1, 0, 0): 1}
    A = Array3.from_cells(2, 2, values)
    assert A.support() == [(0, 1, 1), (1, 0, 0)]
    assert A.support_indices() == [3, 4]
    B = from_json_dict(to_json_dict(PolytopeSpec("sigma", 2, 2), A))[1]
    assert A == B and hash(A) == hash(B)
    assert Array3(2, 2, [0] * 8).support() == []
    # ragged rows, and nestings that are no cube
    for n, d, entries in (
        (2, 1, [[1, 0], [0]]),
        (2, 2, [[[1, 0], [0, 1]], [[1, 0]]]),
        (3, 1, [1, 2, 3]),
        (3, 2, [1, 2, 3]),
    ):
        with pytest.raises(ValueError, match="shape disagrees"):
            from_json_dict({"kind": "omega", "n": n, "d": d, "entries": entries})


def test_flat_index_is_row_major():
    assert flat_index(3, 2, (0, 0, 0)) == 0
    assert flat_index(3, 2, (0, 0, 2)) == 2
    assert flat_index(3, 2, (1, 0, 0)) == 9
    assert flat_index(3, 2, (2, 2, 2)) == 26


def rows_as_cells(spec, g):
    """The cells of group g, read off `group_rows`, in flat order."""
    cells = list(itertools.product(range(spec.n), repeat=spec.d + 1))
    return [cells[i] for i in sorted(group_rows(spec)[g])]


def test_line_cells_layout():
    """A line varies one axis; its id is a n^d + row-major index of the others."""
    spec = PolytopeSpec("omega", 3, 2)
    assert rows_as_cells(spec, 0 * 9 + 1 * 3 + 2) == [(0, 1, 2), (1, 1, 2), (2, 1, 2)]
    assert rows_as_cells(spec, 1 * 9 + 0 * 3 + 2) == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]
    assert rows_as_cells(spec, 2 * 9 + 0 * 3 + 1) == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]


def test_line_and_hyperplane_counts():
    for n, d in [(2, 1), (3, 2), (2, 3)]:
        lines = group_rows(PolytopeSpec("omega", n, d))
        assert len(lines) == (d + 1) * n**d
        assert all(len(row) == n for row in lines)
        planes = group_rows(PolytopeSpec("sigma", n, d))
        assert len(planes) == (d + 1) * n
        assert all(len(row) == n**d for row in planes)
    # the hyperplane where coordinate a equals v has id a n + v
    sigma = PolytopeSpec("sigma", 2, 2)
    assert rows_as_cells(sigma, 1 * 2 + 0) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]


def test_constraint_group_counts():
    for kind, count in (("omega", 27), ("sigma", 9)):
        index = cell_groups(PolytopeSpec(kind, 3, 2))
        assert len({g for groups in index for g in groups}) == count
    # every cell lies in exactly d+1 groups in both families
    for kind in ("omega", "sigma"):
        index = cell_groups(PolytopeSpec(kind, 2, 2))
        assert {len(set(groups)) for groups in index} == {3}


def test_is_member():
    omega = PolytopeSpec("omega", 3, 2)
    sigma = PolytopeSpec("sigma", 3, 2)
    assert is_member(uniform_array(omega), omega)
    assert is_member(uniform_array(sigma), sigma)
    assert is_member(OMEGA_VERTEX, omega)
    assert is_member(SIGMA_VERTEX, PolytopeSpec("sigma", 2, 2))
    with pytest.raises(ValueError):
        is_member(uniform_array(omega), sigma.__class__("omega", 4, 2))


def test_is_member_rejects_bad_sums_and_signs():
    # rows sum to 9/10 and 11/10 while columns still sum to 1
    M = Array3(2, 1, [Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(1, 2)])
    assert not is_member(M, PolytopeSpec("omega", 2, 1))
    N = Array3(2, 1, [Fraction(3, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(3, 2)])
    assert not is_member(N, PolytopeSpec("omega", 2, 1))


def naive_is_member(A, spec):
    """Dense oracle: every entry nonnegative, every group sums to exactly 1."""
    if any(v < 0 for v in A.entries):
        return False
    return all(
        sum(A[c] for c in cells) == 1 for cells in oracle_groups(spec.kind, spec.n, spec.d)
    )


@st.composite
def near_members(draw):
    """Convex mixtures of 0/1 members, pushed along a sum-preserving direction
    (which may turn entries negative) and sometimes nudged at one cell."""
    kind = draw(st.sampled_from(["omega", "sigma"]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 if d < 3 else 3))
    perms = st.permutations(range(n))

    def zero_one():
        if kind == "omega":
            # cells whose permuted coordinates sum to s mod n: one per line
            pis = [draw(perms) for _ in range(d + 1)]
            s = draw(st.integers(0, n - 1))
            return Array3(n, d, [
                1 if sum(pi[c] for pi, c in zip(pis, cell)) % n == s else 0
                for cell in itertools.product(range(n), repeat=d + 1)
            ])
        # a permutation tuple: one cell per hyperplane
        ps = [draw(perms) for _ in range(d)]
        return Array3.from_cells(n, d, {(i,) + tuple(p[i] for p in ps): 1 for i in range(n)})

    weights = [Fraction(draw(st.integers(1, 4))) for _ in range(draw(st.integers(1, 3)))]
    t = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    A = combine(
        *((w / sum(weights), zero_one()) for w in weights), (t, zero_one()), (-t, zero_one())
    )
    nudge = draw(st.sampled_from([0, 0, 1, -1, Fraction(1, n), Fraction(-1, 7)]))
    if nudge:
        i = draw(st.integers(0, n ** (d + 1) - 1))
        entries = list(A.entries)
        entries[i] += nudge
        A = Array3(n, d, entries)
    return PolytopeSpec(kind, n, d), A


@settings(max_examples=300, deadline=None)
@given(near_members())
def test_is_member_agrees_with_dense_oracle(case):
    spec, A = case
    assert is_member(A, spec) == naive_is_member(A, spec)


def test_cell_groups_index_matches_the_groups():
    for kind, n, d in itertools.product(("omega", "sigma"), (1, 2, 3), (1, 2, 3)):
        spec = PolytopeSpec(kind, n, d)
        index = cell_groups(spec)
        groups = oracle_groups(kind, n, d)
        assert spec.group_count == len(groups)
        through = [[] for _ in index]
        for g, cells in enumerate(groups):
            for c in cells:
                through[flat_index(n, d, c)].append(g)
        assert [list(t) for t in index] == through
        assert group_rows(spec) == [{flat_index(n, d, c): 1 for c in cells} for cells in groups]


def test_affine_dimension_closed_form():
    """The omega polytope has affine dimension (n-1)^(d+1)."""
    for n, d in ((3, 2), (2, 1), (3, 4), (4, 5)):
        spec = PolytopeSpec("omega", n, d)
        assert spec.total_cells - len(independent_groups(spec)) == (n - 1) ** (d + 1)


def test_uniform_array_values():
    assert set(uniform_array(PolytopeSpec("omega", 4, 2)).entries) == {Fraction(1, 4)}
    assert set(uniform_array(PolytopeSpec("sigma", 3, 2)).entries) == {Fraction(1, 9)}


def latin_cells(L):
    return [(i, j, L.grid[i][j]) for i in range(L.order) for j in range(L.order)]


def test_latin_array_roundtrip_order3():
    """Every Latin square is a 0/1 member whose support reads the square back."""
    omega = PolytopeSpec("omega", 3, 2)
    squares = [LatinSquare(grid) for grid in oracle_latin_squares(3)]
    assert len(squares) == 12
    for L in squares:
        A = latin_to_array(L)
        assert is_member(A, omega)
        assert set(A.entries) <= {Fraction(0), Fraction(1)}
        assert A.support() == latin_cells(L)


def test_latin_array_roundtrip_sampled_order4():
    for seed in range(6):
        L = random_latin(4, seed)
        assert latin_to_array(L).support() == latin_cells(L)


def test_fraction_json_forms():
    assert fraction_to_json(Fraction(3)) == 3
    assert fraction_to_json(HALF) == "1/2"
    assert fraction_from_json("7/3") == Fraction(7, 3)
    assert fraction_from_json(-2) == -2
    assert fraction_from_json("-1/2") == Fraction(-1, 2)
    # the second row decoded before only canonical strings were read
    for bad in (True, "1/0", "x/y", 0.5, "3/", "",
                "١/٢", "1/２", "2/4", "007/2", "-0/3", "3/1", "0/5", "1/02"):
        with pytest.raises(ValueError):
            fraction_from_json(bad)


def is_canonical(s: str) -> bool:
    """Whether s is "p/q" in ASCII digits, p and q without leading zeros,
    q >= 2 and gcd(p, q) = 1: the strings fraction_to_json writes."""
    num, sep, den = s.partition("/")
    digits = num[1:] if num.startswith("-") else num
    return (
        sep == "/"
        and all(c in "0123456789" for c in digits + den)
        and digits[:1] not in ("", "0")
        and den[:1] not in ("", "0")
        and int(den) >= 2
        and math.gcd(int(digits), int(den)) == 1
    )


RATIONAL_PIECES = st.sampled_from(
    ["", "-", "+", "/", "0", "00", "1", "2", "3", "4", "6", "12", "٣", "２", "²", "_", " "]
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.lists(RATIONAL_PIECES, max_size=5).map("".join),
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-3, 40)),
))
def test_rational_strings_decode_exactly_when_canonical(s):
    try:
        x = fraction_from_json(s)
    except ValueError:
        assert not is_canonical(s)
    else:
        assert is_canonical(s) and fraction_to_json(x) == s


def test_json_dict_roundtrip():
    spec = PolytopeSpec("omega", 3, 2)
    A = OMEGA_VERTEX
    doc = to_json_dict(spec, A)
    assert doc["kind"] == "omega" and doc["n"] == 3 and doc["d"] == 2
    spec2, B = from_json_dict(doc)
    assert spec2 == spec and B == A
    sigma = PolytopeSpec("sigma", 2, 2)
    doc2 = to_json_dict(sigma, SIGMA_VERTEX)
    assert from_json_dict(doc2)[1] == SIGMA_VERTEX


def test_json_dict_errors():
    with pytest.raises(ValueError):
        from_json_dict({"kind": "omega", "n": 2, "d": 1})
    with pytest.raises(ValueError):
        from_json_dict({"kind": "omega", "n": "2", "d": 1, "entries": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        from_json_dict({"kind": "omega", "n": True, "d": 1, "entries": [[1]]})
    with pytest.raises(ValueError):
        from_json_dict({"kind": "omega", "n": 2, "d": True, "entries": [[1, 0], [0, 1]]})
    deep = [1]
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ValueError, match="nest too deeply"):
        from_json_dict({"kind": "omega", "n": 1, "d": 1, "entries": deep})
    with pytest.raises(ValueError):
        from_json_dict({"kind": "omega", "n": 3, "d": 1, "entries": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        to_json_dict(PolytopeSpec("omega", 2, 1), Array3(3, 1, [0] * 9))


@st.composite
def exact_arrays(draw):
    """Arrays of either kind, d = 1..3, n = 1..4, with zeros, negatives and
    mixed denominators; not necessarily members."""
    kind = draw(st.sampled_from(["omega", "sigma"]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    values = st.one_of(
        st.just(Fraction(0)),
        st.fractions(max_denominator=60),
        st.integers(-(10**30), 10**30).map(Fraction),
    )
    entries = draw(st.lists(values, min_size=n ** (d + 1), max_size=n ** (d + 1)))
    return PolytopeSpec(kind, n, d), Array3(n, d, entries)


@settings(max_examples=100, deadline=None)
@given(exact_arrays())
def test_json_text_roundtrip(case):
    """Through json.dumps and json.loads and back; entries nest as
    entries[i0][i1]...[id] in exact form."""
    spec, A = case
    doc = json.loads(json.dumps(to_json_dict(spec, A)))
    for cell in A.cells():
        leaf = doc["entries"]
        for c in cell:
            leaf = leaf[c]
        assert leaf == fraction_to_json(A[cell])
    assert from_json_dict(doc) == (spec, A)


def test_known_vertices_shapes():
    A = OMEGA_VERTEX
    assert len(A.support()) == 17
    assert sorted(A.entries.count(v) for v in (Fraction(1), HALF)) == [1, 16]
    B = SIGMA_VERTEX
    assert len(B.support()) == 4
    assert set(B[c] for c in B.support()) == {HALF}


def test_random_members_survive_json(tmp_path):
    """Mixtures of Latin arrays stay exact through the interchange format."""
    rng = random.Random(5)
    omega = PolytopeSpec("omega", 4, 2)
    squares = [latin_to_array(random_latin(4, s)) for s in range(4)]
    for _ in range(5):
        weights = [Fraction(rng.randrange(1, 5)) for _ in squares]
        total = sum(weights)
        mix = combine(*((w / total, sq) for w, sq in zip(weights, squares)))
        assert is_member(mix, omega)
        assert from_json_dict(to_json_dict(omega, mix))[1] == mix
