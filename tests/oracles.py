"""Independent reference implementations used to cross-check the library.

Everything here is written against first principles (brute force or
textbook recursions) and deliberately shares no code with the package.
"""

import itertools
from fractions import Fraction


def oracle_count_latin(t: int) -> int:
    """Row-by-row completion count over whole permutations.

    Each row is a permutation of range(t) avoiding the symbols already
    placed in each column; counts are summed over the recursion tree.
    The library counts cell by cell, so the search shapes differ.
    """
    cols = [set() for _ in range(t)]

    def rec(row: int) -> int:
        if row == t:
            return 1
        total = 0
        for perm in itertools.permutations(range(t)):
            if any(perm[j] in cols[j] for j in range(t)):
                continue
            for j in range(t):
                cols[j].add(perm[j])
            total += rec(row + 1)
            for j in range(t):
                cols[j].remove(perm[j])
        return total

    return rec(0)


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
