"""Random-objective vertex sampling via the exact simplex.

A seeded Gaussian objective (quantized to rationals so the whole
pipeline stays exact) is maximized over the polytope; the optimizer's
basic solution is a vertex, which is then certified independently
through the rank criterion, and through the support-graph criterion as
well whenever the optimum happens to be half-integral.  Redundant
constraint rows are dropped before the LP, and the reduced system is
checked once per polytope to span the same row space as the full one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from stocharray.bounds import log_of_int, support_size_bound
from stocharray.certify import is_vertex_rank, half_integral_certificate, rank_of_constraints
from stocharray.core import (
    HALF,
    Array3,
    PolytopeSpec,
    flat_index,
    fraction_to_json,
    is_member,
    iter_hyperplanes,
    iter_lines,
    uniform_array,
)
from stocharray.linalg import eliminate
from stocharray.simplex import solve_lp

QUANT = 1 << 32

CAVEAT = (
    "optima of random linear objectives favor some vertices over others; "
    "these statistics describe that seeded distribution, not the uniform one"
)


@dataclass(frozen=True)
class Objective:
    """A rational linear objective over all cells, in flat cell order."""

    spec: PolytopeSpec
    coefficients: tuple
    seed: int | None = None

    def __post_init__(self):
        if len(self.coefficients) != self.spec.total_cells:
            raise ValueError("objective length must match the cell count")

    def value_at(self, A: Array3) -> Fraction:
        return sum(
            (c * v for c, v in zip(self.coefficients, A.entries)), Fraction(0)
        )


def gaussian_objective(spec: PolytopeSpec, seed: int) -> Objective:
    """Seeded standard-normal coefficients, quantized to multiples of 2^-32."""
    rng = random.Random(seed)
    coeffs = []
    for _ in range(spec.total_cells):
        u1 = 1.0 - rng.random()
        u2 = rng.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        coeffs.append(Fraction(round(z * QUANT), QUANT))
    return Objective(spec, tuple(coeffs), seed)


def vertex_count_upper_bound(n: int, d: int) -> dict:
    """Log-scale cap on how many vertices the line-stochastic polytope has.

    A vertex is a basic solution, so picking which (d+1)n^d cells may be
    basic bounds the count by C(n^(d+1), (d+1)n^d).  Reported with its
    two standard relaxations, (n e/(d+1))^((d+1)n^d) and n^((d+1)n^d),
    all as natural logs.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    cells = n ** (d + 1)
    basic = (d + 1) * n**d
    return {
        "log_binomial": log_of_int(math.comb(cells, basic)),
        "log_relaxation": basic * (math.log(n) + 1 - math.log(d + 1)),
        "log_power_form": basic * math.log(n),
    }


_OMEGA_DROPS = {
    1: frozenset({(0, (0,))}),
    2: frozenset({(0, (1, 1)), (1, (1, 0)), (2, (0, 0))}),
}


@lru_cache(maxsize=None)
def reduced_constraints(spec: PolytopeSpec) -> tuple:
    """Constraint rows with known-redundant ones removed, plus the removals.

    Returns (rows, dropped) where rows are 0/1 lists over flat cell order
    and dropped is a tuple of the removed cell groups.  The reduced rows
    are verified, once per polytope, to have the same rank as the full
    system; since they are a subset of it, equal rank means an identical
    affine span, so no optimum moves and nothing becomes unbounded.
    """
    n, d = spec.n, spec.d
    if spec.kind == "omega":
        drops = _OMEGA_DROPS.get(d, frozenset())
        described = [(a, f, cells) for a, f, cells in iter_lines(n, d)]
    else:
        drops = frozenset((axis, 0) for axis in range(1, d + 1))
        described = [(a, v, cells) for a, v, cells in iter_hyperplanes(n, d)]
    rows = []
    kept = []
    dropped = []
    for key0, key1, cells in described:
        if (key0, key1) in drops:
            dropped.append(tuple(cells))
            continue
        flat = [flat_index(n, d, c) for c in cells]
        row = [0] * spec.total_cells
        for i in flat:
            row[i] = 1
        rows.append(tuple(row))
        kept.append(dict.fromkeys(flat, 1))
    assert len(dropped) == len(drops)
    if eliminate(kept).rank != rank_of_constraints(spec):
        raise RuntimeError("reduced constraint system lost rank; drop set invalid")
    return tuple(rows), tuple(dropped)


def maximize(spec: PolytopeSpec, objective: Objective) -> tuple:
    """Exact maximizer of the objective over the polytope: (vertex, value).

    The solver's basic solution is validated against every constraint of
    the full system, including the dropped rows, and the reported value
    is recomputed from scratch.
    """
    if objective.spec != spec:
        raise ValueError("objective was built for a different polytope")
    rows, dropped = reduced_constraints(spec)
    res = solve_lp(rows, [1] * len(rows), objective.coefficients)
    if res.status != "optimal":
        raise RuntimeError(f"polytope LP reported {res.status}")
    A = Array3(spec.n, spec.d, res.solution)
    if not is_member(A, spec):
        raise RuntimeError("optimum violates the full constraint system")
    for cells in dropped:
        if sum((A[c] for c in cells), Fraction(0)) != 1:
            raise RuntimeError("optimum violates a dropped constraint")
    if objective.value_at(A) != res.objective:
        raise RuntimeError("reported optimum value disagrees with the recomputed one")
    if res.objective < objective.value_at(uniform_array(spec)):
        raise RuntimeError("reported optimum is below the value at the uniform array")
    return A, res.objective


@dataclass(frozen=True)
class SampleReport:
    spec: PolytopeSpec
    trials: int
    seed: int
    per_trial: tuple
    aggregate: dict
    caveat: str = CAVEAT

    def to_json_dict(self) -> dict:
        return {
            "kind": self.spec.kind,
            "n": self.spec.n,
            "d": self.spec.d,
            "trials": self.trials,
            "seed": self.seed,
            "per_trial": [dict(t) for t in self.per_trial],
            "aggregate": dict(self.aggregate),
            "caveat": self.caveat,
        }


def run_experiment(spec: PolytopeSpec, trials: int, seed: int = 0) -> SampleReport:
    """Sample vertices under seeded Gaussian objectives and certify each one.

    Trial k uses seed + k.  Every optimum is checked with the rank
    criterion; half-integral optima are additionally pushed through the
    graph criterion and the two verdicts are compared.  Support sizes
    are reported both raw and as the fraction alpha = support / n^2.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    cap = support_size_bound(spec)
    shafts = spec.n**2
    per_trial = []
    supports = []
    vertex_count = 0
    graph_checked = 0
    graph_agreed = 0
    bound_violations = 0
    fractional_count = 0
    for k in range(trials):
        objective = gaussian_objective(spec, seed + k)
        A, value = maximize(spec, objective)
        support = len(A.support())
        supports.append(support)
        cert = is_vertex_rank(A, spec)
        if cert.is_vertex:
            vertex_count += 1
        if support > cap:
            bound_violations += 1
        fractional = any(v not in (0, 1) for v in A.entries)
        if fractional:
            fractional_count += 1
        half_integral = all(v in (0, HALF, 1) for v in A.entries)
        entry = {
            "seed": seed + k,
            "support": support,
            "alpha": support / shafts,
            "value": fraction_to_json(value),
            "is_vertex": cert.is_vertex,
            "fractional": fractional,
            "half_integral": half_integral,
        }
        if half_integral:
            graph_checked += 1
            gcert = half_integral_certificate(A, spec)
            entry["graph_agrees"] = gcert.is_vertex == cert.is_vertex
            if entry["graph_agrees"]:
                graph_agreed += 1
        per_trial.append(entry)
    aggregate = {
        "mean_alpha": sum(supports) / trials / shafts,
        "min": min(supports) / shafts,
        "max": max(supports) / shafts,
        "support_min": min(supports),
        "support_max": max(supports),
        "support_mean": sum(supports) / trials,
        "support_cap": cap,
        "bound_violations": bound_violations,
        "vertex_count": vertex_count,
        "fractional_count": fractional_count,
        "graph_checked": graph_checked,
        "graph_agreed": graph_agreed,
    }
    return SampleReport(spec, trials, seed, tuple(per_trial), aggregate)
