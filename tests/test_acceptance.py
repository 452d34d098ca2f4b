"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also enforces its own runtime budget.
"""

import functools
import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from fixtures import complete_bipartite, golden_array, midpoint
from oracles import (
    oracle_bregman_holds,
    oracle_count_latin,
    oracle_factorial_bound,
    oracle_groups,
    oracle_permanent,
    oracle_rook_cycles,
)
from stocharray.bounds import permanent, support_size_bound
from stocharray.certify import (
    build_support_graph,
    enumerate_vertices,
    half_integral_certificate,
    is_vertex_rank,
)
from stocharray.cli import main as cli_main
from stocharray.core import Array3, PolytopeSpec, is_member
from stocharray.designs import (
    count_latin,
    double_latin_from,
    is_hamiltonian,
    random_latin,
    two_factor_containing_path,
)
from stocharray.omega_build import construct_vertex, random_single_cycle
from stocharray.sample import gaussian_objective, maximize
from stocharray.sigma_build import construct_sigma_vertex

HALF = Fraction(1, 2)


def criterion(num, budget_seconds, label):
    """Run the check, then print exactly one [PASS]/[FAIL] line for it."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                extra = fn()
                elapsed = time.perf_counter() - start
                assert elapsed < budget_seconds, (
                    f"runtime {elapsed:.1f}s exceeds the {budget_seconds}s budget"
                )
            except BaseException:
                print(f"[FAIL] criterion {num}: {label}", flush=True)
                raise
            note = f"; {extra}" if extra else ""
            print(
                f"[PASS] criterion {num}: {label} ({elapsed:.2f}s{note})",
                flush=True,
            )

        return run

    return wrap


@criterion(1, 1.0, "shipped 3x3x3 vertex certified both ways; all-half cube flips")
def test_criterion_01():
    spec = PolytopeSpec("omega", 3, 2)
    A = golden_array("omega-3x3x3.json")
    assert half_integral_certificate(A, spec).is_vertex
    assert is_vertex_rank(A, spec).is_vertex

    cube_spec = PolytopeSpec("omega", 2, 2)
    cube = Array3.from_cells(
        2, 2, {c: HALF for c in itertools.product(range(2), repeat=3)}
    )
    for cert in (
        half_integral_certificate(cube, cube_spec),
        is_vertex_rank(cube, cube_spec),
    ):
        assert not cert.is_vertex
        X, Y = cert.witness
        assert X != Y
        assert is_member(X, cube_spec) and is_member(Y, cube_spec)
        assert midpoint(X, Y) == cube


@criterion(2, 10.0, "small assignment polytopes enumerate to exactly the n! matrices")
def test_criterion_02():
    for n in (2, 3):
        verts = enumerate_vertices(PolytopeSpec("omega", n, 1))
        expected = {
            Array3.from_cells(n, 1, {(i, p[i]): Fraction(1) for i in range(n)})
            for p in itertools.permutations(range(n))
        }
        assert len(verts) == len(expected)
        assert set(verts) == expected


@criterion(3, 60.0, "order-10 construction succeeds for 100 consecutive seeds")
def test_criterion_03():
    spec = PolytopeSpec("omega", 10, 2)
    lines = oracle_groups("omega", 10, 2)
    outputs = set()
    for seed in range(100):
        A, cert = construct_vertex(10, seed)
        assert cert.is_vertex and cert.method == "rank"
        for cells in lines:
            assert sorted(A[c] for c in cells) == [0] * 8 + [HALF, HALF]
        graph = build_support_graph(A, spec)
        assert graph.is_connected and not graph.has_bipartite_component
        outputs.add(A)
    assert len(outputs) == 100
    return "100 distinct arrays"


@criterion(4, 10.0, "stacked double Latin squares are Hamiltonian at n in {4,8,12}")
def test_criterion_04():
    passes = 0
    for n in (4, 8, 12):
        t = n // 2
        for seed in range(50):
            rng = random.Random(seed)
            X = double_latin_from(
                random_latin(t, rng.randrange(1 << 30)),
                random_latin(t, rng.randrange(1 << 30)),
                random_single_cycle(t, rng),
            )
            assert is_hamiltonian(X)
            passes += 1
    assert passes == 150
    return "150/150 Hamiltonian"


def regular_instance(n, seed):
    """An (n-2)-regular bipartite graph: the complement of a random 2-factor."""
    rng = random.Random(seed)
    sigma = list(range(n))
    rng.shuffle(sigma)
    tau = [sigma[(i + 1) % n] for i in range(n)]
    gone = {(i, sigma[i]) for i in range(n)} | {(i, tau[i]) for i in range(n)}
    return complete_bipartite(n).without_edges(gone), rng


def random_path(G, rng):
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
        if v2 != v1:
            return frozenset({(u1, v1), (u2, v1), (u2, v2)})


@criterion(5, 10.0, "2-factors through random planted paths on 100 regular instances")
def test_criterion_05():
    solved = 0
    for n in (6, 10):
        for seed in range(50):
            G, rng = regular_instance(n, seed)
            path = random_path(G, rng)
            F = two_factor_containing_path(G, path)
            assert path <= F
            degs_l = [0] * n
            degs_r = [0] * n
            for (u, v) in F:
                degs_l[u] += 1
                degs_r[v] += 1
            assert degs_l == [2] * n and degs_r == [2] * n
            solved += 1
    assert solved == 100
    return "100/100 instances"


@criterion(6, 10.0, "hyperplane-family construction certified at n in {2,4,6}")
def test_criterion_06():
    golden = golden_array("sigma-2x2x2.json")
    swapped = Array3.from_cells(
        2,
        2,
        {(i, j, 1 - k): v for (i, j, k), v in zip(golden.cells(), golden.entries) if v},
    )
    for n in (2, 4, 6):
        for seed in range(100):
            A, cert = construct_sigma_vertex(n, seed)
            assert cert.is_vertex
            # never one of the integral tuple members
            assert any(v == HALF for v in A.entries)
            if n == 2:
                assert A in (golden, swapped)
    return "300/300 certified, none integral"


@criterion(7, 300.0, "design counts match frozen values and independent oracles")
def test_criterion_07():
    expected_cycles = {2: 1, 3: 6, 4: 72}
    for n, count in expected_cycles.items():
        assert len(oracle_rook_cycles(n)) == count
    expected_latin = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    for t, count in expected_latin.items():
        assert count_latin(t) == count
        assert oracle_count_latin(t) == count
    return "H-cycle and Latin counts verified"


@criterion(8, 120.0, "permanent bounds hold on random matrices with zero violations")
def test_criterion_08():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randrange(1, 9)
        M = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        assert oracle_bregman_holds(permanent(M), [sum(row) for row in M])
    for _ in range(200):
        n = rng.randrange(1, 8)
        M = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(4):
            perm = rng.sample(range(n), n)
            for i in range(n):
                M[i][perm[i]] += Fraction(1, 4)
        assert permanent(M) >= oracle_factorial_bound(n)
    naive_checked = 0
    for _ in range(60):
        n = rng.randrange(1, 6)
        M = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        assert permanent(M) == oracle_permanent(M)
        naive_checked += 1
    return f"700 bound checks, {naive_checked} naive cross-checks"


@criterion(9, 600.0, "200 seeded LP optima at d=2 are certified vertices within the cap")
def test_criterion_09():
    trial_plan = [(3, 80), (4, 70), (5, 50)]
    alphas = {}
    for n, trials in trial_plan:
        spec = PolytopeSpec("omega", n, 2)
        cap = support_size_bound(spec)
        supports = []
        for seed in range(trials):
            A, _ = maximize(spec, gaussian_objective(spec, seed))
            assert is_vertex_rank(A, spec).is_vertex
            support = len(A.support())
            assert support <= cap
            supports.append(support)
        alphas[n] = sum(supports) / trials / n**2
    for n in (3, 4, 5):
        spec = PolytopeSpec("omega", n, 1)
        for seed in range(10):
            A, _ = maximize(spec, gaussian_objective(spec, seed))
            assert set(A.entries) <= {Fraction(0), Fraction(1)}
            assert len(A.support()) == n
    mean_report = ", ".join(f"n={n}: mean alpha {alphas[n]:.3f}" for n in alphas)
    return f"reported (not asserted) {mean_report}"


@criterion(10, 30.0, "repeated CLI runs with one seed emit byte-identical JSON")
def test_criterion_10():
    argvs = [
        ["construct", "omega", "--n", "6", "--seed", "3"],
        ["construct", "sigma", "--n", "4", "--seed", "9", "--count", "2"],
        ["sample", "--kind", "omega", "--n", "3", "--d", "2", "--trials", "2"],
        ["designs", "double-latin", "--n", "8", "--seed", "4"],
        ["enumerate", "--kind", "sigma", "--n", "2"],
        ["bounds", "report", "--n", "10"],
    ]
    for argv in argvs:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(argv))
            assert code == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        json.loads(outs[0])
    return f"{len(argvs)} invocations stable"
