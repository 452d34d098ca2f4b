"""Vertex certification: support-graph criterion, rank criterion, enumeration."""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fixtures import (
    GOLDENS,
    golden_array,
    latin_to_array,
    midpoint,
    random_latin_discordant,
    tuple_to_array,
)
from oracles import oracle_latin_squares, oracle_vertices, oracle_witness_fault
from stocharray import certify
from stocharray.certify import (
    CertificateError,
    VertexCertificate,
    build_support_graph,
    enumerate_vertices,
    half_integral_certificate,
    independent_groups,
    is_vertex_rank,
    support_columns,
)
from stocharray.cli import main
from stocharray.core import Array3, PolytopeSpec, is_member, to_json_dict, uniform_array
from stocharray.designs import LatinSquare, is_hamiltonian, random_latin
from stocharray.linalg import Elimination
from stocharray.omega_build import construct_vertex
from stocharray.sample import run_experiment
from stocharray.sigma_build import construct_sigma_vertex

HALF = Fraction(1, 2)
OMEGA_VERTEX = golden_array("omega-3x3x3.json")
SIGMA_VERTEX = golden_array("sigma-2x2x2.json")


def assert_valid_witness(cert, A, spec):
    assert not cert.is_vertex
    X, Y = cert.witness
    assert X != Y
    assert is_member(X, spec) and is_member(Y, spec)
    assert midpoint(X, Y) == A


def all_half_array(n, d):
    kind_cells = itertools.product(range(n), repeat=d + 1)
    return Array3.from_cells(n, d, {c: HALF for c in kind_cells})


def permutation_array(perm):
    n = len(perm)
    return Array3.from_cells(n, 1, {(i, perm[i]): Fraction(1) for i in range(n)})


# ─── support graph structure ─────────────────────────────────────────────────


def test_known_omega_vertex_graph_structure():
    A = OMEGA_VERTEX
    G = build_support_graph(A, PolytopeSpec("omega", 3, 2))
    assert len(G.cells) == 16  # the single 1-cell is excluded
    assert len(G.edges) == 24  # 27 lines, 3 exhausted by the 1-cell
    assert G.is_connected
    assert not G.has_bipartite_component
    comp = G.components[0]
    assert not comp.is_bipartite and comp.parts is None


def test_known_sigma_vertex_graph_is_k4():
    A = SIGMA_VERTEX
    G = build_support_graph(A, PolytopeSpec("sigma", 2, 2))
    assert len(G.cells) == 4
    assert len(G.edges) == 6
    assert G.is_connected and not G.has_bipartite_component


def test_all_half_cube_is_bipartite_non_vertex():
    spec = PolytopeSpec("omega", 2, 2)
    A = all_half_array(2, 2)
    G = build_support_graph(A, spec)
    assert len(G.cells) == 8 and len(G.edges) == 12
    assert G.is_connected and G.has_bipartite_component
    parts = G.components[0].parts
    assert sorted(parts[0] + parts[1]) == sorted(G.cells)
    cert = half_integral_certificate(A, spec)
    assert_valid_witness(cert, A, spec)
    assert cert.method == "graph"


def test_all_half_square_is_non_vertex_both_families():
    A = all_half_array(2, 1)
    for kind in ("omega", "sigma"):
        spec = PolytopeSpec(kind, 2, 1)
        cert = half_integral_certificate(A, spec)
        assert_valid_witness(cert, A, spec)


def test_graph_rejects_non_half_integral_and_non_member():
    spec = PolytopeSpec("omega", 3, 1)
    with pytest.raises(ValueError):
        build_support_graph(uniform_array(spec), spec)
    zeros = Array3(2, 1, [0] * 4)
    with pytest.raises(ValueError):
        half_integral_certificate(zeros, PolytopeSpec("omega", 2, 1))
    with pytest.raises(ValueError):
        half_integral_certificate(all_half_array(2, 1), PolytopeSpec("omega", 3, 1))


def test_default_family_helper():
    """The graph certificate takes its family from the spec, with no default."""
    A = OMEGA_VERTEX
    cert = half_integral_certificate(A, PolytopeSpec("omega", 3, 2))
    assert cert.is_vertex and cert.method == "graph"
    with pytest.raises(ValueError):  # hyperplanes of this array sum to 3
        half_integral_certificate(A, PolytopeSpec("sigma", 3, 2))


# ─── rank criterion ──────────────────────────────────────────────────────────


def test_permutation_matrices_are_vertices_both_methods():
    for perm in itertools.permutations(range(3)):
        A = permutation_array(perm)
        spec = PolytopeSpec("omega", 3, 1)
        assert is_vertex_rank(A, spec).is_vertex
        assert half_integral_certificate(A, spec).is_vertex


def test_latin_arrays_are_vertices():
    spec3 = PolytopeSpec("omega", 3, 2)
    count = 0
    for grid in oracle_latin_squares(3):
        assert is_vertex_rank(latin_to_array(LatinSquare(grid)), spec3).is_vertex
        count += 1
    assert count == 12
    for t, seed in [(4, 0), (4, 7), (5, 1)]:
        A = latin_to_array(random_latin(t, seed))
        assert is_vertex_rank(A, PolytopeSpec("omega", t, 2)).is_vertex


def test_latin_mixtures_are_rejected_with_witnesses():
    for t in (3, 4):
        spec = PolytopeSpec("omega", t, 2)
        for seed in range(6):
            L1 = random_latin(t, seed)
            L2 = random_latin_discordant(L1, seed + 50)
            A = midpoint(latin_to_array(L1), latin_to_array(L2))
            rank_cert = is_vertex_rank(A, spec)
            assert_valid_witness(rank_cert, A, spec)
            graph_cert = half_integral_certificate(A, spec)
            assert_valid_witness(graph_cert, A, spec)


def test_rank_criterion_on_known_vertices():
    A = OMEGA_VERTEX
    assert is_vertex_rank(A, PolytopeSpec("omega", 3, 2)).is_vertex
    B = SIGMA_VERTEX
    assert is_vertex_rank(B, PolytopeSpec("sigma", 2, 2)).is_vertex


def test_rank_rejects_non_member_and_shape_mismatch():
    spec = PolytopeSpec("omega", 2, 1)
    with pytest.raises(ValueError):
        is_vertex_rank(Array3(2, 1, [0] * 4), spec)
    with pytest.raises(ValueError):
        is_vertex_rank(Array3(3, 1, [0] * 9), spec)


def test_segment_family_vertex_iff_integral():
    """Members of the n=2, d=2 line family form a segment in parameter a."""
    spec = PolytopeSpec("omega", 2, 2)

    def member(a):
        vals = {}
        for (i, j, k) in itertools.product(range(2), repeat=3):
            vals[(i, j, k)] = a if (i + j + k) % 2 == 0 else 1 - a
        return Array3.from_cells(2, 2, vals)

    for a, expect in [
        (Fraction(0), True),
        (Fraction(1), True),
        (HALF, False),
        (Fraction(1, 3), False),
    ]:
        A = member(a)
        assert is_member(A, spec)
        cert = is_vertex_rank(A, spec)
        assert cert.is_vertex == expect
        if not expect:
            assert_valid_witness(cert, A, spec)


def test_support_columns_shape():
    A = OMEGA_VERTEX
    spec = PolytopeSpec("omega", 3, 2)
    columns, support = support_columns(A, spec)
    assert [A.index(c) for c in A.support()] == support
    assert len(support) == 17 and len(columns) == 17
    # every line meets the support
    assert set().union(*columns) == set(range(27))
    # each column belongs to exactly d+1 groups, with coefficient 1
    for column in columns:
        assert len(column) == 3 and set(column.values()) == {1}


# ─── constraint rank and dimension ───────────────────────────────────────────


def test_rank_and_dimension_values():
    """The dimension of a polytope is its cell count minus the constraint rank."""

    def dimension(spec):
        return spec.total_cells - len(independent_groups(spec))

    assert len(independent_groups(PolytopeSpec("omega", 3, 2))) == 19
    assert dimension(PolytopeSpec("omega", 3, 2)) == 8
    assert dimension(PolytopeSpec("omega", 3, 1)) == 4
    assert dimension(PolytopeSpec("sigma", 2, 2)) == 4
    # at d = 1 the two families coincide, as do their dimensions
    assert dimension(PolytopeSpec("sigma", 3, 1)) == 4


# ─── exhaustive enumeration ──────────────────────────────────────────────────


def test_enumerate_birkhoff_gives_permutation_matrices():
    for n, expect in [(2, 2), (3, 6)]:
        spec = PolytopeSpec("omega", n, 1)
        verts = enumerate_vertices(spec)
        assert len(verts) == expect
        expected = {
            permutation_array(p) for p in itertools.permutations(range(n))
        }
        assert set(verts) == expected


def test_enumerate_matches_brute_force_oracle():
    """Every cell subset solved on its own, against the double description's
    extreme rays."""
    for kind, n, d in (("omega", 2, 1), ("omega", 3, 1), ("omega", 2, 2),
                       ("sigma", 2, 1), ("sigma", 3, 1), ("sigma", 2, 2)):
        verts = enumerate_vertices(PolytopeSpec(kind, n, d))
        assert len(verts) == len(set(verts))
        assert {tuple(A.entries) for A in verts} == oracle_vertices(kind, n, d), (kind, n, d)


def test_enumerate_omega_cube():
    verts = enumerate_vertices(PolytopeSpec("omega", 2, 2))
    assert len(verts) == 2
    assert all(set(A.entries) <= {Fraction(0), Fraction(1)} for A in verts)


def test_enumerate_sigma_cube():
    spec = PolytopeSpec("sigma", 2, 2)
    verts = enumerate_vertices(spec)
    assert len(verts) == 6
    vert_set = set(verts)
    assert SIGMA_VERTEX in vert_set
    integral = 0
    for pair in itertools.product(itertools.permutations(range(2)), repeat=2):
        A = tuple_to_array(pair)
        assert A in vert_set
        integral += 1
    assert integral == 4
    for A in verts:
        assert is_vertex_rank(A, spec).is_vertex


def test_enumerate_beyond_sixteen_cells():
    """Instances above 16 cells: the 5! permutation matrices, the 12 Latin
    squares of order 3 among the 66 vertices of omega n=3 d=2, and the
    (3!)^2 permutation pairs among the 1,386 vertices of sigma n=3 d=2."""
    verts = enumerate_vertices(PolytopeSpec("omega", 5, 1))
    assert len(verts) == 120
    assert set(verts) == {permutation_array(p) for p in itertools.permutations(range(5))}

    spec = PolytopeSpec("omega", 3, 2)
    verts = enumerate_vertices(spec)
    assert len(verts) == 66
    latin = {latin_to_array(LatinSquare(grid)) for grid in oracle_latin_squares(3)}
    assert len(latin) == 12 and latin <= set(verts)
    assert {A for A in verts if set(A.entries) <= {0, 1}} == latin
    assert all(is_vertex_rank(A, spec).is_vertex for A in verts)

    verts = enumerate_vertices(PolytopeSpec("sigma", 3, 2))
    assert len(verts) == 1386
    perms = list(itertools.permutations(range(3)))
    pairs = {tuple_to_array(pair) for pair in itertools.product(perms, repeat=2)}
    assert len(pairs) == 36 and pairs <= set(verts)
    assert sum(set(A.entries) <= {0, 1} for A in verts) == 36


def test_enumerate_guards():
    """Above the cell or axis cap an instance is refused before any
    elimination; under them, a run that passes the work budget is refused
    mid-run."""
    for spec in (PolytopeSpec("omega", 5, 2), PolytopeSpec("omega", 1, 64)):
        start = time.perf_counter()
        limit = f"capped at 64 cells and as many axes; n={spec.n}, d={spec.d} has more"
        with pytest.raises(ValueError, match=limit):
            enumerate_vertices(spec)
        assert time.perf_counter() - start < 1.0
    assert len(enumerate_vertices(PolytopeSpec("omega", 1, 63))) == 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="work budget of 10000000 zero-set comparisons"):
        enumerate_vertices(PolytopeSpec("omega", 6, 1))
    assert time.perf_counter() - start < 5.0
    # d = 3 runs: the two parity cubes, and 48 sigma vertices with the 2^3 permutation triples
    assert len(enumerate_vertices(PolytopeSpec("omega", 2, 3))) == 2
    verts = enumerate_vertices(PolytopeSpec("sigma", 2, 3))
    perms = list(itertools.permutations(range(2)))
    triples = {tuple_to_array(t) for t in itertools.product(perms, repeat=3)}
    assert len(verts) == 48 and {A for A in verts if set(A.entries) <= {0, 1}} == triples


# ─── certificate dataclass contracts ─────────────────────────────────────────


def test_certificate_validation():
    VertexCertificate(True, "rank")
    for method in ("simplex", "enumeration"):
        with pytest.raises(ValueError):
            VertexCertificate(True, method)
    with pytest.raises(ValueError):
        VertexCertificate(True, "rank", witness=(1, 2))
    with pytest.raises(ValueError):
        VertexCertificate(False, "graph")


# ─── checks that hold under python -O ────────────────────────────────────────


def latin_midpoint(t=4, seed=0):
    L1 = random_latin(t, seed)
    L2 = random_latin_discordant(L1, seed + 50)
    return midpoint(latin_to_array(L1), latin_to_array(L2)), PolytopeSpec("omega", t, 2)


def sigma_midpoint():
    A = midpoint(tuple_to_array([(0, 1), (0, 1)]), tuple_to_array([(1, 0), (0, 1)]))
    return A, PolytopeSpec("sigma", 2, 2)


def fresh(X):
    """X rebuilt from new Fraction objects, so no entry is one of another array's."""
    return Array3(X.n, X.d, [Fraction(v.numerator, v.denominator) for v in X.entries])


def nudge(A, steps):
    """A plus steps[i] at each flat index i; every other entry is A's own object."""
    entries = list(A.entries)
    for i, step in steps.items():
        entries[i] += step
    return Array3(A.n, A.d, entries)


def test_wrong_kernel_vector_is_caught(monkeypatch):
    A, spec = latin_midpoint()
    k = len(A.support())
    real = certify.eliminate

    def fake(columns, stop_at_dependency=False):
        got = real(columns, stop_at_dependency)
        wrong = list(got.kernel)
        wrong[-1] += 1  # moves the vector out of the kernel
        return Elimination(got.independent, wrong)

    monkeypatch.setattr(certify, "eliminate", fake)
    with pytest.raises(CertificateError, match="not in the kernel"):
        is_vertex_rank(A, spec)
    monkeypatch.setattr(
        certify, "eliminate", lambda columns, stop_at_dependency=False: Elimination((), [0] * k)
    )
    with pytest.raises(CertificateError, match="vanished"):
        is_vertex_rank(A, spec)


def test_coinciding_witness_is_caught(monkeypatch):
    A, spec = latin_midpoint()
    monkeypatch.setattr(certify, "_shift", lambda A, delta, sign: A)
    with pytest.raises(CertificateError, match="coincide"):
        is_vertex_rank(A, spec)
    with pytest.raises(CertificateError, match="coincide"):
        half_integral_certificate(A, spec)


def test_witness_outside_or_off_centre_is_caught(monkeypatch):
    A, spec = latin_midpoint()
    real = certify._shift
    monkeypatch.setattr(certify, "_shift", lambda A, delta, sign: real(A, delta, 3 * sign))
    # three times the step still averages to A but leaves the polytope
    with pytest.raises(CertificateError, match="left the polytope"):
        is_vertex_rank(A, spec)
    with pytest.raises(CertificateError, match="left the polytope"):
        half_integral_certificate(A, spec)
    monkeypatch.setattr(
        certify, "_shift", lambda A, delta, sign: real(A, delta, sign) if sign > 0 else A
    )
    with pytest.raises(CertificateError, match="midpoint"):
        half_integral_certificate(A, spec)


def test_witness_shifted_outside_the_kernel_is_caught(monkeypatch):
    A, spec = latin_midpoint()
    cell = A.entries.index(HALF)
    # X and Y stay nonnegative and average to A, but one group sum moves by 1/8
    monkeypatch.setattr(
        certify, "_shift", lambda A, delta, sign: nudge(A, {cell: sign * Fraction(1, 8)})
    )
    with pytest.raises(CertificateError, match="left the polytope"):
        is_vertex_rank(A, spec)
    with pytest.raises(CertificateError, match="left the polytope"):
        half_integral_certificate(A, spec)


def test_witness_of_fresh_fractions_gets_the_same_verdict(monkeypatch):
    cases = [latin_midpoint(), sigma_midpoint()]
    expected = [(is_vertex_rank(A, spec), half_integral_certificate(A, spec)) for A, spec in cases]
    real = certify._shift
    monkeypatch.setattr(certify, "_shift", lambda A, delta, sign: fresh(real(A, delta, sign)))
    got = [(is_vertex_rank(A, spec), half_integral_certificate(A, spec)) for A, spec in cases]
    assert got == expected


def witness_cases():
    """(A, spec, X, Y) claims: valid witnesses of both certificates and both
    families, and tampered ones that the check must refuse."""
    cases = []
    for A, spec in (latin_midpoint(), sigma_midpoint()):
        for cert in (is_vertex_rank(A, spec), half_integral_certificate(A, spec)):
            X, Y = cert.witness
            delta = {i: x - a for i, (a, x) in enumerate(zip(A.entries, X.entries)) if x != a}
            half = A.entries.index(HALF)
            pairs = [
                (X, Y), (Y, X), (fresh(X), fresh(Y)), (fresh(X), Y),
                (A, A), (X, X), (fresh(A), A),
                (nudge(A, {i: 3 * v for i, v in delta.items()}),
                 nudge(A, {i: -3 * v for i, v in delta.items()})),
                (X, A), (A, Y), (X, nudge(A, {i: -2 * v for i, v in delta.items()})),
                (nudge(A, {half: Fraction(1, 8)}), nudge(A, {half: Fraction(-1, 8)})),
                (nudge(X, {half: Fraction(1, 8)}), Y),
            ]
            cases += [(A, spec, X, Y) for X, Y in pairs]
    return cases


def witness_fault(A, spec, X, Y):
    try:
        certify._check_witness(A, spec, X, Y)
    except CertificateError as exc:
        return next(f for f in ("coincide", "left the polytope", "midpoint") if f in str(exc))
    return None


def test_witness_check_agrees_with_the_dense_oracle():
    faults = []
    for A, spec, X, Y in witness_cases():
        fault = witness_fault(A, spec, X, Y)
        assert fault == oracle_witness_fault(
            spec.kind, spec.n, spec.d, A.entries, X.entries, Y.entries
        )
        faults.append(fault)
    assert set(faults) == {None, "coincide", "left the polytope", "midpoint"}


def test_witness_check_runs_under_optimize_flag():
    A, spec = latin_midpoint()
    half = A.entries.index(HALF)
    X, Y = nudge(A, {half: Fraction(1, 8)}), nudge(A, {half: Fraction(-1, 8)})
    script = (
        "from fractions import Fraction\n"
        "from stocharray import certify\n"
        "from stocharray.core import Array3, PolytopeSpec\n"
        f"A = Array3({A.n}, {A.d}, [Fraction(v) for v in {[str(v) for v in A.entries]!r}])\n"
        f"steps = {{{half}: Fraction(1, 8)}}\n"
        "X, Y = certify._shift(A, steps, 1), certify._shift(A, steps, -1)\n"
        f"certify._check_witness(A, PolytopeSpec('omega', {A.n}, {A.d}), X, Y)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(certify.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1
    assert "CertificateError: witness left the polytope" in proc.stderr
    assert oracle_witness_fault(
        spec.kind, spec.n, spec.d, A.entries, X.entries, Y.entries
    ) == "left the polytope"


def test_builders_check_the_graph_shape(monkeypatch):
    # an all-halves cube of order 2 has one bipartite component
    bipartite = build_support_graph(all_half_array(2, 2), PolytopeSpec("omega", 2, 2))
    monkeypatch.setattr(certify, "build_support_graph", lambda A, spec: bipartite)
    with pytest.raises(CertificateError, match="one odd component"):
        construct_vertex(10, 1)
    with pytest.raises(CertificateError, match="one odd component"):
        construct_sigma_vertex(5, 1)


def test_builders_check_graph_and_rank_agree(monkeypatch):
    A, spec = latin_midpoint()
    negative = is_vertex_rank(A, spec)
    monkeypatch.setattr(certify, "is_vertex_rank", lambda A, spec: negative)
    with pytest.raises(CertificateError, match="both accept"):
        construct_vertex(10, 1)
    with pytest.raises(CertificateError, match="both accept"):
        construct_sigma_vertex(5, 1)


def test_graph_is_built_once_per_construction(monkeypatch):
    calls = []
    real = certify.build_support_graph

    def counting(A, spec):
        calls.append(spec)
        return real(A, spec)

    monkeypatch.setattr(certify, "build_support_graph", counting)
    construct_vertex(10, 1)
    construct_sigma_vertex(6, 1)
    assert calls == [PolytopeSpec("omega", 10, 2), PolytopeSpec("sigma", 6, 2)]


def count_calls(monkeypatch, function) -> list:
    """Route every package module's reference to ``function`` through a
    counter; returns the list that grows by one per call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stocharray" and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def test_each_construction_tests_membership_and_hamiltonicity_once(monkeypatch, capsys):
    member_calls = count_calls(monkeypatch, is_member)
    hamiltonian_calls = count_calls(monkeypatch, is_hamiltonian)
    construct_vertex(10, 1)
    assert (len(member_calls), len(hamiltonian_calls)) == (1, 1)
    construct_sigma_vertex(6, 1)
    assert (len(member_calls), len(hamiltonian_calls)) == (2, 1)
    assert main(["designs", "double-latin", "--n", "10", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["hamiltonian"] is True
    assert (len(member_calls), len(hamiltonian_calls)) == (2, 2)


def test_verify_and_sample_test_membership_once(monkeypatch, capsys, tmp_path):
    member_calls = count_calls(monkeypatch, is_member)
    A, spec = latin_midpoint()
    midpoint = tmp_path / "midpoint.json"
    midpoint.write_text(json.dumps(to_json_dict(spec, A)), encoding="utf-8")
    uniform = tmp_path / "uniform.json"
    flat = PolytopeSpec("omega", 3, 1)
    uniform.write_text(json.dumps(to_json_dict(flat, uniform_array(flat))), encoding="utf-8")
    vertex = GOLDENS / "omega-3x3x3.json"
    # a vertex, a non-vertex with both witnesses, and a rank-only non-vertex
    for path, is_vertex in ((vertex, True), (midpoint, False), (uniform, False)):
        before = len(member_calls)
        assert main(["verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["is_vertex"] is is_vertex
        assert len(member_calls) == before + 1
    before = len(member_calls)
    report = run_experiment(PolytopeSpec("omega", 3, 2), 10)
    assert report.aggregate["graph_checked"] == 10
    assert len(member_calls) == before + 10
