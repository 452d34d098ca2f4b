"""Exact linear algebra on sparse columns.

One kernel, `SparseBasis`, answers every rank, kernel and solve question
in the package.  Columns are sparse mappings from row index to an exact
value (int or Fraction).  Each added column is reduced over Q against
the pivots found so far and pivots on its lowest remaining row, so the
arithmetic touches only nonzeros and nothing is ever rounded.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence


class SparseBasis:
    """Linearly independent sparse columns, stored reduced.

    Stored column t holds 1 at its pivot, its lowest nonzero row, and is
    kept with the (scale, multipliers) that produced it from the column
    as added, so any combination of stored columns can be rewritten over
    the added ones.
    """

    def __init__(self):
        self._pivot_of: dict = {}  # pivot row -> position
        self._stored: list = []  # (pivot row, reduced column, scale, multipliers)

    def _reduce(self, column: Mapping) -> tuple:
        """(remainder, multipliers) with column = remainder + sum of
        multipliers[t] * stored column t, and remainder 0 on every pivot.

        A stored column is 0 above its pivot, so clearing pivot rows in
        increasing order never revives a row already cleared.
        """
        v = {r: a for r, a in column.items() if a}
        heap = [r for r in v if r in self._pivot_of]
        heapq.heapify(heap)
        multipliers = {}
        while heap:
            r = heapq.heappop(heap)
            a = v.get(r)
            if not a:
                continue
            t = self._pivot_of[r]
            multipliers[t] = a
            for s, w in self._stored[t][1].items():
                x = v.get(s, 0) - a * w
                if x:
                    if s not in v and s in self._pivot_of:
                        heapq.heappush(heap, s)
                    v[s] = x
                else:
                    del v[s]
        return v, multipliers

    def add(self, column: Mapping) -> bool:
        """Store ``column`` if it is independent of the basis; report whether it was."""
        v, multipliers = self._reduce(column)
        if not v:
            return False
        p = min(v)
        scale = v[p]
        if scale == -1:  # keeps integer entries integer, which is much faster
            v = {r: -a for r, a in v.items()}
        elif scale != 1:
            v = {r: Fraction(a) / scale for r, a in v.items()}
        self._pivot_of[p] = len(self._stored)
        self._stored.append((p, v, scale, multipliers))
        return True

    def express(self, column: Mapping) -> Optional[dict]:
        """Nonzero coefficients writing ``column`` over the added columns, by
        position, as ints or Fractions; None when it is outside their span."""
        v, h = self._reduce(column)
        if v:
            return None
        out = {}
        # stored column t = (added column t - sum multipliers[s] * stored s) / scale,
        # over s < t only, so one pass downwards rewrites h over the added columns
        for t in range(len(self._stored) - 1, -1, -1):
            c = h.pop(t, 0)
            if c:
                _, _, scale, multipliers = self._stored[t]
                if scale == -1:
                    c = -c
                elif scale != 1:
                    c = Fraction(c) / scale
                out[t] = c
                for s, g in multipliers.items():
                    h[s] = h.get(s, 0) - c * g
        return out


class Elimination(NamedTuple):
    """One left-to-right pass: the columns independent of all before them,
    and, for the first dependent column j (if any), the unique kernel vector
    x with x[j] = 1 and x[k] = 0 for k > j, as Fractions."""

    independent: tuple
    kernel: Optional[list]

    @property
    def rank(self) -> int:
        return len(self.independent)


def eliminate(columns: Sequence[Mapping], stop_at_dependency: bool = False) -> Elimination:
    """Exact rank and first kernel vector of sparse columns.

    With ``stop_at_dependency`` the pass ends at the first dependent
    column, so ``independent`` holds only the columns before it.
    """
    basis = SparseBasis()
    independent = []
    kernel = None
    for j, column in enumerate(columns):
        if basis.add(column):
            independent.append(j)
            continue
        if kernel is None:
            kernel = [Fraction(0)] * len(columns)
            kernel[j] = Fraction(1)
            for t, c in basis.express(column).items():
                kernel[independent[t]] = Fraction(-c)
        if stop_at_dependency:
            break
    return Elimination(tuple(independent), kernel)

