"""Random-objective vertex sampling via the exact simplex.

A seeded Gaussian objective (quantized to rationals so the whole
pipeline stays exact) is maximized over the polytope; the optimizer's
basic solution is a vertex, which is then certified independently
through the rank criterion, and through the support-graph criterion as
well whenever the optimum happens to be half-integral.  The LP has one
row per constraint group and starts at a vertex known in closed form, the
Latin-type array of omega or the diagonal of sigma, so the simplex needs
no phase 1; that start is built once per polytope.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from stocharray.bounds import support_size_bound
from stocharray.certify import _graph_certificate, _rank_certificate
from stocharray.core import (
    HALF,
    Array3,
    PolytopeSpec,
    cell_groups,
    fraction_to_json,
    is_member,
    uniform_array,
)
from stocharray.linalg import SparseBasis
from stocharray.simplex import Start, solve_lp, start_at

QUANT = 1 << 32

MAX_LP_ENTRIES = 10**6

# every trial is kept for the report, so the count bounds both time and memory
MAX_TRIALS = 10**4

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


@lru_cache(maxsize=8)
def lp_start(spec: PolytopeSpec) -> Start:
    """The polytope's LP, pivoted onto a vertex known in closed form.

    Every group is a row, dependent ones included.  The vertex is 1 where
    the coordinates sum to 0 mod n (omega: one cell per line) or on the
    diagonal (sigma: one cell per hyperplane); its support is extended to a
    basis with the other cells in flat order, one column per unit of rank.
    """
    n = spec.n
    columns = [dict.fromkeys(gs, 1) for gs in cell_groups(spec)]
    coords = itertools.product(range(n), repeat=spec.d + 1)
    if spec.kind == "omega":
        vertex = [i for i, c in enumerate(coords) if sum(c) % n == 0]
    else:
        vertex = [i for i, c in enumerate(coords) if min(c) == max(c)]
    found = SparseBasis()
    # the vertex's cells come round again in flat order and add nothing
    basis = [i for i in itertools.chain(vertex, range(spec.total_cells)) if found.add(columns[i])]
    return start_at(columns, dict.fromkeys(range(spec.group_count), 1), basis)


def maximize(spec: PolytopeSpec, objective: Objective) -> tuple:
    """Exact maximizer of the objective over the polytope: (vertex, value).

    The solver's basic solution is validated against every constraint of
    the full system, dependent rows included, and the reported value is
    recomputed from scratch.
    """
    if objective.spec != spec:
        raise ValueError("objective was built for a different polytope")
    res = solve_lp(lp_start(spec), objective.coefficients)
    if res.status != "optimal":
        raise RuntimeError(f"polytope LP reported {res.status}")
    A = Array3(spec.n, spec.d, res.solution)
    if not is_member(A, spec):
        raise RuntimeError("optimum violates the full constraint system")
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
    if trials > MAX_TRIALS:
        raise ValueError(f"sample is capped at {MAX_TRIALS} trials; got {trials}")
    if spec.cells_exceed(MAX_LP_ENTRIES) or spec.group_count * spec.total_cells > MAX_LP_ENTRIES:
        raise ValueError(
            f"sample is capped at {MAX_LP_ENTRIES} LP entries (groups x cells); "
            f"{spec.kind} n={spec.n}, d={spec.d} has more"
        )
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
        cert = _rank_certificate(A, spec)
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
            gcert = _graph_certificate(A, spec)
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
