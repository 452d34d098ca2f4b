"""Exact primal simplex over rational arithmetic.

Solves  maximize c.x  subject to  A x = b, x >= 0  with a dense tableau
of Fractions and a two-phase start, so the solver never rounds.

Phase 1 does not depend on the objective, so its feasible tableau is
kept in a small cache keyed on the constraint system; later solves of
the same system start phase 2 from a copy of it.  Artificial variables
are basis markers only (index n + i for row i): no column is stored for
them, and those left basic at zero are pivoted out or their rows
dropped as redundant.  Both phases share one pricing loop: Dantzig's
rule (largest reduced cost, lowest index on ties), switching to Bland's
rule after a run of degenerate pivots, so the solver cannot cycle.
Intended for the modest LP sizes this package needs; no effort is spent
on sparse representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
ONE = Fraction(1)

# consecutive degenerate pivots after which pricing falls back to Bland's
# rule until the next pivot that moves the objective
_DEGENERATE_RUN = 50
_PHASE_ONE_CACHE_SIZE = 8
_phase_one_cache: dict = {}  # (rows, rhs) as tuples -> (tableau, basis), or None if infeasible


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Optional[Fraction]
    solution: Optional[tuple]
    pivots: int

    def __post_init__(self):
        if self.status not in ("optimal", "infeasible", "unbounded"):
            raise ValueError(f"unknown status {self.status!r}")


def _pivot(tableau: list, basis: list, pr: int, pc: int) -> None:
    """Make column pc basic in row pr; updates every other row, the cost row included."""
    prow = tableau[pr]
    inv = ONE / prow[pc]
    if inv != ONE:
        tableau[pr] = prow = [v * inv for v in prow]
    hot = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tableau):
        if i == pr:
            continue
        f = row[pc]
        if f:
            for j, v in hot:
                row[j] -= f * v
    basis[pr] = pc


def _ratio_row(tableau: list, basis: list, pc: int) -> Optional[int]:
    """Leaving row for entering column pc: least ratio, lowest basic index on ties."""
    best = None
    for i, b in enumerate(basis):
        a = tableau[i][pc]
        if a > 0:
            key = (tableau[i][-1] / a, b)
            if best is None or key < best[0]:
                best = (key, i)
    return None if best is None else best[1]


def _optimize(tableau: list, basis: list, n: int) -> tuple:
    """Pivot until no structural column has a positive reduced cost.

    The last tableau row holds the reduced costs of the n structural
    columns and minus the objective value in its last entry.  Returns
    (bounded, pivots made).
    """
    cost = tableau[-1]
    pivots = 0
    degenerate = 0
    while True:
        pc = None
        if degenerate < _DEGENERATE_RUN:
            best = ZERO
            for j in range(n):
                if cost[j] > best:
                    pc, best = j, cost[j]
        else:
            pc = next((j for j in range(n) if cost[j] > 0), None)
        if pc is None:
            return True, pivots
        pr = _ratio_row(tableau, basis, pc)
        if pr is None:
            return False, pivots
        degenerate = degenerate + 1 if tableau[pr][-1] == 0 else 0
        _pivot(tableau, basis, pr, pc)
        pivots += 1


def _phase_one(rows, rhs, n: int) -> tuple:
    """Feasible tableau and basis for rows . x = rhs, or None; plus the pivots made."""
    m = len(rows)
    tableau = []
    for row, b in zip(rows, rhs):
        coeffs = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
        tableau.append(coeffs + [b])
    basis = [n + i for i in range(m)]

    # maximize minus the artificial total; its cost row is the column sums
    tableau.append([sum(col, ZERO) for col in zip(*tableau)])
    bounded, pivots = _optimize(tableau, basis, n)
    if not bounded:
        raise RuntimeError("phase-1 LP is bounded by construction")
    if tableau.pop()[-1] != 0:
        return None, pivots

    # leftover artificials sit at zero: pivot them out, or drop their
    # rows as redundant when no structural column is available
    for i in range(m - 1, -1, -1):
        if basis[i] < n:
            continue
        pc = next((j for j in range(n) if tableau[i][j] != 0), None)
        if pc is None:
            tableau.pop(i)
            basis.pop(i)
        else:
            _pivot(tableau, basis, i, pc)
            pivots += 1
    return (tuple(tuple(r) for r in tableau), tuple(basis)), pivots


def _feasible_start(rows, rhs, n: int) -> tuple:
    """Phase 1 through the cache: ((tableau, basis) or None, pivots made by this call)."""
    key = (tuple(tuple(r) for r in rows), tuple(rhs))
    if key in _phase_one_cache:
        start, pivots = _phase_one_cache.pop(key), 0
    else:
        start, pivots = _phase_one(rows, rhs, n)
        if len(_phase_one_cache) >= _PHASE_ONE_CACHE_SIZE:
            del _phase_one_cache[next(iter(_phase_one_cache))]
    _phase_one_cache[key] = start  # (re)inserted last: the dict keeps LRU order
    return start, pivots


def solve_lp(rows, rhs, objective) -> SimplexResult:
    """Maximize objective . x subject to rows . x = rhs, x >= 0."""
    m = len(rows)
    if m == 0:
        raise ValueError("need at least one constraint")
    n = len(rows[0])
    if any(len(r) != n for r in rows) or len(rhs) != m or len(objective) != n:
        raise ValueError("inconsistent LP dimensions")

    start, pivots = _feasible_start(rows, rhs, n)
    if start is None:
        return SimplexResult("infeasible", None, None, pivots)
    tableau = [list(r) for r in start[0]]
    basis = list(start[1])

    # phase 2: reduced costs of the objective against the feasible basis
    robj = [Fraction(v) for v in objective] + [ZERO]
    for row, b in zip(tableau, basis):
        f = robj[b]
        if f:
            for j, v in enumerate(row):
                if v:
                    robj[j] -= f * v
    tableau.append(robj)
    bounded, more = _optimize(tableau, basis, n)
    pivots += more
    if not bounded:
        return SimplexResult("unbounded", None, None, pivots)

    x = [ZERO] * n
    for row, b in zip(tableau, basis):
        x[b] = row[-1]
    return SimplexResult("optimal", -robj[-1], tuple(x), pivots)
