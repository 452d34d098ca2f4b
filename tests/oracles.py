"""Independent reference implementations used to cross-check the library.

Everything here is written against first principles (brute force or
textbook recursions) and deliberately shares no code with the package.
"""

import functools
import itertools
import math
from fractions import Fraction


def oracle_count_latin(t: int) -> int:
    """Row-by-row completion count over whole permutations.

    Each row is a permutation of range(t) avoiding the symbols already
    placed in each column.  The count below a partial square depends only
    on which symbols each column has used, so it is memoised on those
    column bitmasks.  The library counts reduced squares cell by cell, so
    the search shapes differ.
    """
    perms = list(itertools.permutations(range(t)))
    full = (1 << t) - 1

    @functools.lru_cache(maxsize=None)
    def rec(used: tuple) -> int:
        if used[0] == full:
            return 1
        return sum(
            rec(tuple(u | 1 << s for u, s in zip(used, perm)))
            for perm in perms
            if not any(u >> s & 1 for u, s in zip(used, perm))
        )

    return rec((0,) * t)


def oracle_latin_squares(t: int) -> list:
    """Every order-t Latin square as a tuple of rows, built row by row
    from whole permutations that repeat no symbol in any column."""
    squares = []

    def rec(rows: list) -> None:
        if len(rows) == t:
            squares.append(tuple(rows))
            return
        for perm in itertools.permutations(range(t)):
            if all(perm[j] != row[j] for row in rows for j in range(t)):
                rec(rows + [perm])

    rec([])
    return squares


def oracle_rook_cycles(n: int) -> list:
    """One (rows, cols) encoding per distinct rook cycle on the n x n grid.

    An encoding is a pair of permutations of range(n) whose walk visits
    (rows[t], cols[t]) and then (rows[t + 1], cols[t]), cyclically, so it
    alternates column and row steps.  Encodings are deduplicated by the
    set of cells the walk visits, which determines the cycle.
    """
    seen = set()
    out = []
    for rows in itertools.permutations(range(n)):
        for cols in itertools.permutations(range(n)):
            cells = frozenset(
                cell
                for t in range(n)
                for cell in ((rows[t], cols[t]), (rows[(t + 1) % n], cols[t]))
            )
            if cells not in seen:
                seen.add(cells)
                out.append((rows, cols))
    return out


def oracle_factorial_bound(n: int) -> Fraction:
    """n!/n^n: the least permanent of an order-n doubly stochastic matrix
    (van der Waerden's conjecture, proved by Egorychev and Falikman)."""
    return Fraction(math.factorial(n), n**n)


def oracle_bregman_holds(value, row_sums) -> bool:
    """Exactly decide value <= prod over the row sums r of (r!)^(1/r).

    Brègman's theorem bounds the permanent of a 0/1 matrix with these
    row sums this way.  Both sides are raised to the lcm L of the nonzero
    row sums, turning the comparison into value^L <= prod (r!)^(L/r)
    over plain integers, with no rounding.
    """
    if value < 0:
        raise ValueError("value must be nonnegative")
    nonzero = [r for r in row_sums if r]
    if not nonzero:
        return value <= 1
    L = math.lcm(*nonzero)
    frac = Fraction(value)
    rhs = 1
    for r in nonzero:
        rhs *= math.factorial(r) ** (L // r)
    return frac.numerator**L <= rhs * frac.denominator**L


def oracle_permanent(M) -> Fraction:
    """Permanent as the literal sum over all permutations (n <= 6 or so)."""
    n = len(M)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(M[i][perm[i]])
        total += term
    return total


def oracle_groups(kind: str, n: int, d: int) -> list:
    """The unit-sum constraint groups, each a list of cells in lexicographic order.

    Cells are the (d+1)-tuples over range(n).  "omega" groups are the axis
    lines, sorted by axis and then by the d coordinates the line holds
    fixed; "sigma" groups are the coordinate hyperplanes, sorted by axis
    and then by the value held fixed.  A group's position is its id.
    """
    groups = {}
    for axis in range(d + 1):
        for c in itertools.product(range(n), repeat=d + 1):
            fixed = c[:axis] + c[axis + 1:] if kind == "omega" else c[axis]
            groups.setdefault((axis, fixed), []).append(c)
    return [groups[key] for key in sorted(groups)]


def oracle_vertices(kind: str, n: int, d: int) -> set:
    """Vertices of a small polytope by brute force over every cell subset.

    Cells are the (d+1)-tuples over range(n) in lexicographic order, and
    the constraints are the groups of `oracle_groups`, each summing to 1.
    A point is a vertex exactly when it is the unique solution supported
    on its support, so every subset whose columns are independent and
    whose unique solution is positive gives one; each is returned once,
    as a tuple of entries.
    """
    cells = list(itertools.product(range(n), repeat=d + 1))
    member = [[1 if c in g else 0 for c in cells] for g in map(set, oracle_groups(kind, n, d))]
    found = set()
    for k in range(1, len(cells) + 1):
        for subset in itertools.combinations(range(len(cells)), k):
            x = _solve_exactly([[row[j] for j in subset] + [1] for row in member], k)
            if x is not None and all(v > 0 for v in x):
                entries = [Fraction(0)] * len(cells)
                for j, v in zip(subset, x):
                    entries[j] = v
                found.add(tuple(entries))
    return found


def _solve_exactly(aug, k):
    """Unique solution of the augmented system [M | b] with k unknowns, or
    None when M has dependent columns or the system is inconsistent."""
    M = [[Fraction(v) for v in row] for row in aug]
    rank = 0
    for col in range(k):
        pivot = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[rank], M[pivot] = M[pivot], M[rank]
        M[rank] = [v / M[rank][col] for v in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col] != 0:
                M[r] = [a - M[r][col] * b for a, b in zip(M[r], M[rank])]
        rank += 1
    if any(row[k] != 0 for row in M[rank:]):
        return None
    return [M[i][k] for i in range(k)]


def oracle_witness_fault(kind: str, n: int, d: int, A, X, Y):
    """The first fault of a claimed non-vertex witness (X, Y) of a member A,
    checked densely over every cell.

    A, X and Y are flat entry sequences in lexicographic cell order.
    Returns "coincide" when X equals Y, "left the polytope" when X or Y has
    a negative entry or a group of `oracle_groups` not summing to 1,
    "midpoint" when (X + Y) / 2 differs from A in some cell, else None.
    """
    position = {c: i for i, c in enumerate(itertools.product(range(n), repeat=d + 1))}
    A, X, Y = ([Fraction(v) for v in W] for W in (A, X, Y))
    if X == Y:
        return "coincide"
    for W in (X, Y):
        if any(v < 0 for v in W):
            return "left the polytope"
        if any(sum(W[position[c]] for c in g) != 1 for g in oracle_groups(kind, n, d)):
            return "left the polytope"
    if any((x + y) / 2 != a for a, x, y in zip(A, X, Y)):
        return "midpoint"
    return None
