"""Seeded random-objective sampling and its exact LP plumbing."""

import itertools
import time
from fractions import Fraction

import pytest

from fixtures import latin_to_array
from oracles import oracle_vertices
from stocharray import sample
from stocharray.bounds import support_size_bound
from stocharray.certify import enumerate_vertices, independent_groups
from stocharray.core import PolytopeSpec, flat_index, uniform_array
from stocharray.designs import random_latin
from stocharray.sample import (
    CAVEAT,
    MAX_LP_ENTRIES,
    MAX_TRIALS,
    Objective,
    QUANT,
    gaussian_objective,
    lp_start,
    maximize,
    run_experiment,
)
from stocharray.simplex import SimplexResult


def test_objective_validation_and_value():
    spec = PolytopeSpec("omega", 2, 1)
    obj = Objective(spec, (Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
    assert obj.seed is None
    assert obj.value_at(uniform_array(spec)) == 1
    with pytest.raises(ValueError):
        Objective(spec, (Fraction(1),))


def test_gaussian_objective_deterministic_and_quantized():
    spec = PolytopeSpec("omega", 3, 2)
    a = gaussian_objective(spec, 11)
    b = gaussian_objective(spec, 11)
    assert a == b
    assert a.seed == 11
    assert len(a.coefficients) == 27
    assert all(QUANT % c.denominator == 0 for c in a.coefficients)
    assert gaussian_objective(spec, 12) != a


def test_gaussian_objective_is_roughly_standard_normal():
    spec = PolytopeSpec("omega", 10, 1)
    draws = []
    for seed in range(100):
        draws.extend(gaussian_objective(spec, seed).coefficients)
    mean = sum(draws) / len(draws)
    var = sum((x - mean) ** 2 for x in draws) / len(draws)
    assert abs(mean) < 0.05
    assert abs(var - 1) < 0.05


def test_support_bound_values():
    assert support_size_bound(PolytopeSpec("omega", 3, 2)) == 19
    assert support_size_bound(PolytopeSpec("omega", 2, 1)) == 3
    assert support_size_bound(PolytopeSpec("omega", 10, 2)) == 271
    assert support_size_bound(PolytopeSpec("sigma", 3, 2)) == 7


def test_reduced_constraints_drop_counts():
    """The LP keeps a row basis: omega has rank n^(d+1) - (n-1)^(d+1),
    sigma (d+1)(n-1) + 1, and every kept row is pivoted by the start."""
    cases = [
        (PolytopeSpec("omega", 3, 1), 1),
        (PolytopeSpec("omega", 3, 2), 8),
        (PolytopeSpec("sigma", 3, 2), 2),
        (PolytopeSpec("omega", 2, 3), 17),
        (PolytopeSpec("sigma", 4, 1), 1),
        # n=1: one cell, and every group is the same row
        (PolytopeSpec("omega", 1, 2), 2),
    ]
    for spec, expect_dropped in cases:
        tableau, basis = lp_start(spec)
        if spec.kind == "omega":
            total_groups = (spec.d + 1) * spec.n**spec.d
        else:
            total_groups = (spec.d + 1) * spec.n
        assert len(tableau) == total_groups - expect_dropped == len(independent_groups(spec))
        assert all(len(r) == spec.total_cells + 1 for r in tableau)
        # full row rank: each row has its own basic column, a unit column
        assert len(set(basis)) == len(tableau)
        for r, j in enumerate(basis):
            assert [row[j] for row in tableau] == [int(i == r) for i in range(len(tableau))]


def closed_form_vertex(spec):
    """1 where the coordinates sum to 0 mod n (omega) or all agree (sigma)."""
    cells = itertools.product(range(spec.n), repeat=spec.d + 1)
    if spec.kind == "omega":
        return [int(sum(c) % spec.n == 0) for c in cells]
    return [int(len(set(c)) == 1) for c in cells]


def test_lp_start_is_the_closed_form_vertex():
    for kind in ("omega", "sigma"):
        for d in (1, 2, 3):
            for n in (1, 2, 3, 4):
                spec = PolytopeSpec(kind, n, d)
                tableau, basis = lp_start(spec)
                x = [0] * spec.total_cells
                for row, j in zip(tableau, basis):
                    x[j] = row[-1]
                assert x == closed_form_vertex(spec), (kind, n, d)
                assert len(tableau) == len(independent_groups(spec)), (kind, n, d)


def test_maximize_matches_the_best_oracle_vertex():
    """An independent check: the LP optimum is the best of all vertices,
    found by brute force over cell subsets."""
    for kind, n, d in (("omega", 2, 1), ("omega", 3, 1), ("sigma", 3, 1),
                       ("omega", 2, 2), ("sigma", 2, 2)):
        spec = PolytopeSpec(kind, n, d)
        vertices = oracle_vertices(kind, n, d)
        for seed in range(20):
            obj = gaussian_objective(spec, seed)
            best = max(sum(c * v for c, v in zip(obj.coefficients, x)) for x in vertices)
            A, value = maximize(spec, obj)
            assert value == best, (kind, n, d, seed)
            assert tuple(A.entries) in vertices


def test_maximize_optimum_is_an_enumerated_vertex():
    """At n=3 d=2, beyond the brute-force oracle, the double description is
    the reference: the optimum is one of its vertices and the best of them."""
    for kind in ("omega", "sigma"):
        spec = PolytopeSpec(kind, 3, 2)
        vertices = set(enumerate_vertices(spec))
        for seed in range(8):
            obj = gaussian_objective(spec, seed)
            A, value = maximize(spec, obj)
            assert A in vertices, (kind, seed)
            assert value == max(obj.value_at(V) for V in vertices), (kind, seed)


def test_run_experiment_lp_size_cap(monkeypatch):
    """Polytopes whose dense LP (groups x cells) exceeds the cap are refused
    before the first trial builds an objective or a constraint row."""

    class Reached(Exception):
        pass

    def reached(spec, seed):
        raise Reached

    monkeypatch.setattr(sample, "gaussian_objective", reached)
    with pytest.raises(ValueError, match=f"capped at {MAX_LP_ENTRIES} LP entries"):
        run_experiment(PolytopeSpec("omega", 6, 3), trials=1)  # 1,119,744 entries
    # 50,421, 65,536 and 312,500 entries: slow, but allowed
    for n, d in ((7, 2), (4, 3), (5, 3)):
        with pytest.raises(Reached):
            run_experiment(PolytopeSpec("omega", n, d), trials=1)


def test_run_experiment_trial_cap(monkeypatch):
    """More than MAX_TRIALS trials are refused at once, before any objective
    is built; MAX_TRIALS itself passes the check and reaches the solver."""

    class Reached(Exception):
        pass

    def reached(spec, objective):
        raise Reached

    built = []
    real = sample.gaussian_objective

    def counting(spec, seed):
        built.append(seed)
        return real(spec, seed)

    spec = PolytopeSpec("omega", 2, 1)
    monkeypatch.setattr(sample, "maximize", reached)
    monkeypatch.setattr(sample, "gaussian_objective", counting)
    for trials in (MAX_TRIALS + 1, 10**8):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"capped at {MAX_TRIALS} trials; got {trials}"):
            run_experiment(spec, trials=trials)
        assert time.perf_counter() - start < 1.0
    assert built == []
    with pytest.raises(Reached):
        run_experiment(spec, trials=MAX_TRIALS)
    assert built == [0]


def test_maximize_assignment_is_permutation():
    spec = PolytopeSpec("omega", 4, 1)
    for seed in range(5):
        obj = gaussian_objective(spec, seed)
        A, value = maximize(spec, obj)
        assert set(A.entries) <= {Fraction(0), Fraction(1)}
        assert len(A.support()) == 4
        best = max(
            sum(obj.coefficients[flat_index(4, 1, (i, p[i]))] for i in range(4))
            for p in itertools.permutations(range(4))
        )
        assert value == best


def test_maximize_recovers_planted_latin_optimum():
    """An indicator objective is maximized exactly by its own Latin array."""
    spec = PolytopeSpec("omega", 3, 2)
    L = random_latin(3, 4)
    A = latin_to_array(L)
    coeffs = [Fraction(1) if v else Fraction(0) for v in A.entries]
    B, value = maximize(spec, Objective(spec, tuple(coeffs)))
    assert value == 9  # nine cells each contribute their full unit mass
    assert B == A


def test_maximize_rejects_a_wrong_optimum(monkeypatch):
    """The checks on the solver's answer are explicit, so they hold under python -O."""
    spec = PolytopeSpec("omega", 3, 2)
    obj = gaussian_objective(spec, 4)
    A, value = maximize(spec, obj)
    worst, minus_low = maximize(spec, Objective(spec, tuple(-c for c in obj.coefficients)))
    off = list(A.entries)
    off[0] += 1
    cases = [
        (off, value, "full constraint system"),
        (A.entries, value + 1, "recomputed"),
        (worst.entries, -minus_low, "uniform array"),
    ]
    for solution, reported, message in cases:
        result = SimplexResult("optimal", reported, tuple(solution), 0)
        monkeypatch.setattr(sample, "solve_lp", lambda start, c, r=result: r)
        with pytest.raises(RuntimeError, match=message):
            maximize(spec, obj)


def test_maximize_spec_mismatch():
    spec = PolytopeSpec("omega", 3, 1)
    other = PolytopeSpec("omega", 3, 2)
    with pytest.raises(ValueError):
        maximize(spec, gaussian_objective(other, 0))


def test_run_experiment_assignment_statistics():
    spec = PolytopeSpec("omega", 4, 1)
    report = run_experiment(spec, trials=6, seed=3)
    assert report.trials == 6 and report.seed == 3
    for entry in report.per_trial:
        assert entry["support"] == 4
        assert entry["alpha"] == 0.25
        assert entry["is_vertex"] and not entry["fractional"]
        assert entry["half_integral"] and entry["graph_agrees"]
    agg = report.aggregate
    assert agg["mean_alpha"] == 0.25
    assert agg["min"] == agg["max"] == 0.25
    assert agg["support_cap"] == 7
    assert agg["bound_violations"] == 0
    assert agg["vertex_count"] == 6
    assert agg["fractional_count"] == 0
    assert agg["graph_checked"] == agg["graph_agreed"] == 6


def test_run_experiment_three_dimensional():
    spec = PolytopeSpec("omega", 3, 2)
    report = run_experiment(spec, trials=4, seed=0)
    agg = report.aggregate
    assert agg["vertex_count"] == 4
    assert agg["bound_violations"] == 0
    assert agg["support_max"] <= 19
    for entry in report.per_trial:
        assert entry["alpha"] == entry["support"] / 9


def test_run_experiment_json_shape_and_determinism():
    spec = PolytopeSpec("omega", 3, 1)
    r1 = run_experiment(spec, trials=3, seed=9).to_json_dict()
    r2 = run_experiment(spec, trials=3, seed=9).to_json_dict()
    assert r1 == r2
    assert r1["kind"] == "omega" and r1["n"] == 3 and r1["d"] == 1
    assert r1["caveat"] == CAVEAT
    assert len(r1["per_trial"]) == 3
    assert set(r1["per_trial"][0]) >= {
        "seed",
        "support",
        "alpha",
        "value",
        "is_vertex",
        "fractional",
        "half_integral",
    }
    with pytest.raises(ValueError):
        run_experiment(spec, trials=0)
