"""Exact rational simplex: known optima, statuses, anti-cycling, and the start."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import oracle_groups
from stocharray import simplex
from stocharray.core import flat_index
from stocharray.simplex import SimplexResult, solve_lp, start_at

ROOT = Path(__file__).resolve().parent.parent


def sparse(rows, rhs):
    """The sparse columns of dense rows, and rhs as one more column."""
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]
    return columns, {i: b for i, b in enumerate(rhs) if b}


def start(rows, rhs, basis):
    return start_at(*sparse(rows, rhs), basis)


def solve(rows, rhs, basis, objective):
    return solve_lp(start(rows, rhs, basis), objective)


def test_result_status_validation():
    SimplexResult("optimal", Fraction(0), (), 0)
    with pytest.raises(ValueError):
        SimplexResult("done", None, None, 0)


def test_single_variable():
    res = solve([[1]], [5], [0], [3])
    assert res.status == "optimal"
    assert res.objective == 15 and res.solution == (5,)


def test_known_two_variable_lp():
    # maximize x + 2y  s.t.  x + y = 4, y <= 3 via slack: y + s = 3
    res = solve([[1, 1, 0], [0, 1, 1]], [4, 3], [0, 2], [1, 2, 0])
    assert res.status == "optimal"
    assert res.objective == 7
    assert res.solution[0] == 1 and res.solution[1] == 3


def test_fractional_exact_arithmetic():
    # maximize x  s.t.  3x + 7y = 1 with both nonnegative: x = 1/3
    res = solve([[3, 7]], [1], [1], [1, 0])
    assert res.status == "optimal"
    assert res.objective == Fraction(1, 3)
    assert res.solution == (Fraction(1, 3), Fraction(0))


def test_unbounded():
    res = solve([[1, -1]], [0], [0], [1, 1])
    assert res.status == "unbounded"
    assert res.objective is None


def test_dimension_guards():
    with pytest.raises(ValueError):
        start_at([], {}, [])
    with pytest.raises(ValueError):
        start([[1, 2]], [1], [])  # no basis column
    with pytest.raises(ValueError):
        start([[1, 2]], [1, 2], [0])  # the right-hand side has a row no column has
    with pytest.raises(ValueError):
        start([[1, 2]], [1], [0, 1])  # two basis columns for one row
    with pytest.raises(ValueError):
        start([[1, 2]], [1], [2])
    with pytest.raises(ValueError):
        solve([[1, 2]], [1], [0], [1])


def test_dependent_rows_are_allowed():
    """A row that repeats another adds nothing: the tableau has one row per
    basis column, and the optimum is that of the system without it."""
    res = solve([[1, 1], [2, 2]], [3, 6], [0], [1, 2])
    assert res.status == "optimal"
    assert res.objective == 6 and res.solution == (0, 3)


BAD_BASES = (
    # the basis columns are dependent
    ([[1, 2, 0], [2, 4, 1]], [1, 3], [0, 1], "dependent"),
    # one basis column for a rank-2 system: column 1 is outside its span
    ([[1, 0, 1], [0, 1, 1]], [1, 1], [0], "does not span"),
    # x = (-1, 2) is basic but not feasible
    ([[1, 1, 0], [0, 1, 1]], [1, 2], [0, 1], "negative entry"),
)


def test_bad_basis_raises_value_error():
    for rows, rhs, basis, message in BAD_BASES:
        with pytest.raises(ValueError, match=message):
            start(rows, rhs, basis)


def test_bad_basis_raises_value_error_under_optimize_flag():
    """The start checks are explicit raises, so they hold with asserts stripped."""
    cases = [(*sparse(rows, rhs), basis, message) for rows, rhs, basis, message in BAD_BASES]
    script = (
        "import sys\n"
        "from stocharray.simplex import start_at\n"
        f"for columns, rhs, basis, message in {cases!r}:\n"
        "    try:\n"
        "        start_at(columns, rhs, basis)\n"
        "    except ValueError as e:\n"
        "        if message not in str(e):\n"
        "            sys.exit(f'wrong message: {e}')\n"
        "    else:\n"
        "        sys.exit(f'accepted {basis}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def enumerate_basic_optimum(rows, rhs, objective):
    """Best basic feasible solution by brute force over column subsets."""
    m, n = len(rows), len(rows[0])
    best = None
    for cols in itertools.combinations(range(n), m):
        # solve the square system on these columns exactly
        mat = [[Fraction(rows[i][j]) for j in cols] + [Fraction(rhs[i])] for i in range(m)]
        piv = 0
        ok = True
        for c in range(m):
            sel = next((r for r in range(piv, m) if mat[r][c] != 0), None)
            if sel is None:
                ok = False
                break
            mat[piv], mat[sel] = mat[sel], mat[piv]
            inv = 1 / mat[piv][c]
            mat[piv] = [v * inv for v in mat[piv]]
            for r in range(m):
                if r != piv and mat[r][c] != 0:
                    f = mat[r][c]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[piv])]
            piv += 1
        if not ok:
            continue
        x = [Fraction(0)] * n
        feasible = True
        for idx, c in enumerate(cols):
            if mat[idx][m] < 0:
                feasible = False
                break
            x[c] = mat[idx][m]
        if not feasible:
            continue
        val = sum(Fraction(objective[j]) * x[j] for j in range(n))
        if best is None or val > best:
            best = val
    return best


BEALE_ROWS = [
    [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
    [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1],
]
BEALE_RHS = [0, 0, 1]
BEALE_OBJECTIVE = [Fraction(3, 4), -20, Fraction(1, 2), -6, 0, 0, 0]


def test_degenerate_lp_with_bland_terminates():
    """A classical cycling-prone tableau: the solver must still finish."""
    rows, rhs, objective = BEALE_ROWS, BEALE_RHS, BEALE_OBJECTIVE
    res = solve(rows, rhs, [4, 5, 6], objective)
    assert res.status == "optimal"
    assert res.objective == enumerate_basic_optimum(rows, rhs, objective)
    assert res.objective == Fraction(5, 4)


def test_pricing_loop_escapes_beale_cycle():
    """From the slack basis, Dantzig pricing alone cycles; the Bland fallback finishes.

    Largest-reduced-cost pricing with the least-ratio, lowest-index exit
    revisits the slack basis after six degenerate pivots, so reaching the
    optimum takes at least one full run of degenerate pivots first.
    """
    tableau = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(BEALE_ROWS, BEALE_RHS)]
    tableau.append([Fraction(v) for v in BEALE_OBJECTIVE] + [Fraction(0)])
    basis = [4, 5, 6]
    bounded, pivots = simplex._optimize(tableau, basis, 7)
    assert bounded
    assert pivots >= simplex._DEGENERATE_RUN
    best = enumerate_basic_optimum(BEALE_ROWS, BEALE_RHS, BEALE_OBJECTIVE)
    assert -tableau[-1][-1] == best == Fraction(5, 4)


def doubly_stochastic_lp(n):
    """Rows, right-hand side and a feasible basis of the assignment polytope.

    The last group is the sum of the row groups minus the other column
    groups, so it is left out.  The basis is the identity permutation and
    the cells (i, i + 1): a spanning path of the bipartite row/column graph.
    """
    rows = []
    for group in oracle_groups("omega", n, 1)[:-1]:
        row = [0] * n * n
        for c in group:
            row[flat_index(n, 1, c)] = 1
        rows.append(row)
    basis = [flat_index(n, 1, (i, i)) for i in range(n)]
    basis += [flat_index(n, 1, (i, i + 1)) for i in range(n - 1)]
    return rows, [1] * len(rows), basis


def test_assignment_lps_match_permutation_search():
    """LP optima over the doubly stochastic polytope are assignment optima."""
    rng = random.Random(77)
    for n in (2, 3):
        rows, rhs, basis = doubly_stochastic_lp(n)
        for _ in range(6):
            c = [Fraction(rng.randrange(-50, 51), rng.randrange(1, 8)) for _ in range(n * n)]
            res = solve(rows, rhs, basis, c)
            assert res.status == "optimal"
            best = max(
                sum(c[flat_index(n, 1, (i, p[i]))] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert res.objective == best
            assert sum(v for v in res.solution) == n
            assert all(v >= 0 for v in res.solution)


def test_solution_satisfies_constraints_exactly():
    rows = [[2, 1, 1, 0], [1, 3, 0, 1]]
    rhs = [4, 6]
    objective = [3, 5, 0, 0]
    res = solve(rows, rhs, [2, 3], objective)
    assert res.status == "optimal"
    for row, b in zip(rows, rhs):
        assert sum(Fraction(a) * x for a, x in zip(row, res.solution)) == b
    assert res.objective == enumerate_basic_optimum(rows, rhs, objective)
    assert res.pivots >= 1
