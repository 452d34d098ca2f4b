"""Exact primal simplex over rational arithmetic.

Solves  maximize c.x  subject to  A x = b, x >= 0  with a dense tableau,
so the solver never rounds.  There is no phase 1: the caller names a
feasible basis, `start_at` pivots the tableau onto it once, and every
`solve_lp` on that system starts from a copy of the result.  Pricing is
Dantzig's rule (largest reduced cost, lowest index on ties), switching
to Bland's rule after a run of degenerate pivots, so the solver cannot
cycle.  Intended for the modest LP sizes this package needs; no effort
is spent on sparse representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

ZERO = Fraction(0)
ONE = Fraction(1)

# consecutive degenerate pivots after which pricing falls back to Bland's
# rule until the next pivot that moves the objective
_DEGENERATE_RUN = 50


class Start(NamedTuple):
    """A feasible tableau: rows B^-1 [A | b], and the basic column of each row."""

    tableau: tuple
    basis: tuple


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Optional[Fraction]
    solution: Optional[tuple]
    pivots: int

    def __post_init__(self):
        if self.status not in ("optimal", "unbounded"):
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


def start_at(rows, rhs, basis) -> Start:
    """The tableau of rows . x = rhs pivoted onto the given basis columns.

    There must be one basis column per row, those columns must be
    independent (so the rows are full rank), and the basic solution must
    be nonnegative; otherwise ValueError.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    if m == 0 or any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("need at least one constraint, and consistent LP dimensions")
    if len(basis) != m or not all(0 <= j < n for j in basis):
        raise ValueError("the basis must name one column per row")
    tableau = [list(r) + [b] for r, b in zip(rows, rhs)]
    basic = [None] * m  # the basic column of each row
    free = set(range(m))
    for j in basis:
        pr = min((i for i in free if tableau[i][j]), default=None)
        if pr is None:
            raise ValueError("basis columns are dependent or the rows are not full rank")
        free.remove(pr)
        _pivot(tableau, basic, pr, j)
    if any(row[-1] < 0 for row in tableau):
        raise ValueError("the basic solution has a negative entry")
    return Start(tuple(tuple(r) for r in tableau), tuple(basic))


def solve_lp(start: Start, objective) -> SimplexResult:
    """Maximize objective . x over the system of ``start``, with x >= 0,
    pivoting from the start's basis."""
    tableau = [list(r) for r in start.tableau]
    basis = list(start.basis)
    n = len(tableau[0]) - 1
    if len(objective) != n:
        raise ValueError("inconsistent LP dimensions")

    # reduced costs of the objective against the start basis
    robj = [Fraction(v) for v in objective] + [ZERO]
    for row, b in zip(tableau, basis):
        f = robj[b]
        if f:
            for j, v in enumerate(row):
                if v:
                    robj[j] -= f * v
    tableau.append(robj)
    bounded, pivots = _optimize(tableau, basis, n)
    if not bounded:
        return SimplexResult("unbounded", None, None, pivots)

    x = [ZERO] * n
    for row, b in zip(tableau, basis):
        x[b] = row[-1]
    return SimplexResult("optimal", -robj[-1], tuple(x), pivots)
