"""Exact primal simplex over rational arithmetic.

Solves  maximize c.x  subject to  A x = b, x >= 0  with a dense tableau,
so the solver never rounds.  There is no phase 1: the caller names a
feasible basis, `start_at` reads the tableau B^-1 [A | b] off one sparse
exact elimination of it, and every `solve_lp` on that system pivots from
a copy.  Pricing is Dantzig's rule (largest reduced cost, lowest index on
ties), switching to Bland's rule after a run of degenerate pivots, so the
solver cannot cycle.  Ties in the ratio test go to the lowest basic
column, so no rule depends on the order of the tableau's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from stocharray.linalg import SparseBasis

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


def start_at(columns, rhs, basis) -> Start:
    """The tableau of A x = rhs on the given basis columns: row t holds the
    coefficient of basis column t in each column of A and in rhs.

    Columns, rhs included, are sparse mappings from row to value; the rows
    may be dependent.  The basis columns must be independent and span the
    others, and the basic solution must be nonnegative; else ValueError.
    """
    n = len(columns)
    if not basis or not all(0 <= j < n for j in basis):
        raise ValueError("the basis must name at least one column, each in range")
    found = SparseBasis()
    for j in basis:
        if not found.add(columns[j]):
            raise ValueError("basis columns are dependent")
    tableau = [[0] * (n + 1) for _ in basis]
    for j, column in enumerate((*columns, rhs)):
        coefficients = found.express(column)
        if coefficients is None:
            raise ValueError("the basis does not span the columns and the right-hand side")
        for t, c in coefficients.items():
            tableau[t][j] = c
    if any(row[-1] < 0 for row in tableau):
        raise ValueError("the basic solution has a negative entry")
    return Start(tuple(map(tuple, tableau)), tuple(basis))


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
