"""Exact rational stochastic arrays.

A (d+1)-way array with side n is *line-stochastic* ("omega") when every
axis-parallel line sums to 1, and *hyperplane-stochastic* ("sigma") when
every coordinate hyperplane sums to 1.  For d = 1 the omega family is the
set of doubly stochastic matrices (the Birkhoff polytope); for d = 2 its
0/1 members correspond to Latin squares.

Entries are `fractions.Fraction` throughout; nothing in this module
rounds.  Arrays are 0-based in memory.  The JSON interchange format uses
positional nested lists, so the 1-based convention of the file-format
documentation only affects how cells are written about, never how they
are stored.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

HALF = Fraction(1, 2)

# the largest array read: construct writes at most this many cells (sigma, n = 100)
MAX_ARRAY_CELLS = 10**6

KINDS = ("omega", "sigma")

# "p/q" in ASCII digits with q > 0 (\d would match other scripts' digits too)
_RATIONAL = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")

Cell = tuple  # tuple[int, ...] of length d + 1


@dataclass(frozen=True)
class PolytopeSpec:
    """Identifies one polytope: family ``kind``, side ``n``, order ``d``.

    Members are (d+1)-way arrays; "omega" constrains lines, "sigma"
    constrains hyperplanes.
    """

    kind: str
    n: int
    d: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    @property
    def axes(self) -> int:
        return self.d + 1

    @property
    def total_cells(self) -> int:
        return self.n ** (self.d + 1)

    def cells_exceed(self, cap: int) -> bool:
        """Whether n^(d+1) > cap.  For n >= 2 the power passes the cap once
        d + 1 reaches the cap's bit length, so a huge d is decided without it."""
        return self.n > 1 and (self.axes >= cap.bit_length() or self.total_cells > cap)

    @property
    def group_count(self) -> int:
        """Number of unit-sum constraint groups: lines (omega) or hyperplanes (sigma)."""
        return self.axes * (self.n ** self.d if self.kind == "omega" else self.n)


class Array3:
    """Immutable dense (d+1)-way array of exact rationals with side n."""

    __slots__ = ("n", "d", "_entries", "_support")

    def __init__(self, n: int, d: int, entries: Sequence):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        flat = tuple(entries)
        if not {Fraction}.issuperset(map(type, flat)):
            flat = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in flat)
        if len(flat) != n ** (d + 1):
            raise ValueError(f"expected {n ** (d + 1)} entries, got {len(flat)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_entries", flat)
        object.__setattr__(self, "_support", None)

    def __setattr__(self, name, value):
        raise AttributeError("Array3 is immutable")

    @classmethod
    def from_cells(cls, n: int, d: int, values: Mapping[Cell, object]) -> "Array3":
        """Build from a cell -> value mapping; unmentioned cells are 0."""
        flat = [Fraction(0)] * n ** (d + 1)
        for cell, v in values.items():
            flat[flat_index(n, d, cell)] = Fraction(v)
        return cls(n, d, flat)

    def index(self, cell: Cell) -> int:
        return flat_index(self.n, self.d, cell)

    def __getitem__(self, cell: Cell) -> Fraction:
        return self._entries[flat_index(self.n, self.d, cell)]

    @property
    def entries(self) -> tuple:
        return self._entries

    def cells(self) -> Iterator[Cell]:
        return itertools.product(range(self.n), repeat=self.d + 1)

    def support(self) -> list:
        """Cells with nonzero entry, in lexicographic order."""
        weights = [self.n**a for a in range(self.d, -1, -1)]
        return [tuple(i // w % self.n for w in weights) for i in self.support_indices()]

    def support_indices(self) -> list:
        """Flat indices of the nonzero entries, in increasing order.

        The entries are scanned once per array; later calls copy the result.
        """
        if self._support is None:
            found = tuple(itertools.compress(range(len(self._entries)), self._entries))
            object.__setattr__(self, "_support", found)
        return list(self._support)

    def __eq__(self, other):
        return (
            isinstance(other, Array3)
            and self.n == other.n
            and self.d == other.d
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.n, self.d, self._entries))

    def __repr__(self):
        return f"Array3(n={self.n}, d={self.d})"


def flat_index(n: int, d: int, cell: Cell) -> int:
    if len(cell) != d + 1:
        raise ValueError(f"cell must have {d + 1} coordinates, got {cell!r}")
    idx = 0
    for c in cell:
        if not 0 <= c < n:
            raise ValueError(f"coordinate out of range in {cell!r}")
        idx = idx * n + c
    return idx


# ─── constraint groups ───────────────────────────────────────────────────────


@lru_cache(maxsize=8)
def cell_groups(spec: PolytopeSpec) -> tuple:
    """The d+1 ids of the groups through each cell, in flat cell order.

    A group is a unit-sum constraint: the line along axis a (omega), with id
    a n^d + row-major index of the other d coordinates, or the hyperplane
    where coordinate a equals v (sigma), with id a n + v.
    """
    n, d = spec.n, spec.d
    ids = list(range(spec.group_count))  # one int object per id, shared by its cells
    columns = []  # per axis a, the id of the group through each cell
    for a in range(d + 1):
        w = n ** (d - a)  # weight of coordinate a in the flat index
        if spec.kind == "omega":
            # the line skips coordinate a: each block of w ids repeats n times
            first = a * n**d
            blocks = range(first, first + n**a * w, w)
            columns.append([g for h in blocks for _ in range(n) for g in ids[h : h + w]])
        else:
            columns.append([ids[a * n + v] for v in range(n) for _ in range(w)] * n**a)
    return tuple(zip(*columns))


def group_rows(spec: PolytopeSpec) -> list:
    """The constraint matrix by rows: each group's sparse row {flat cell: 1}, by id."""
    rows = [{} for _ in range(spec.group_count)]
    for i, groups in enumerate(cell_groups(spec)):
        for g in groups:
            rows[g][i] = 1
    return rows


# ─── membership and basic polytope facts ─────────────────────────────────────


def is_member(A: Array3, spec: PolytopeSpec) -> bool:
    """Exact membership test: nonnegative entries, every constraint sums to 1.

    Visits the nonzero entries only, scaled to integers over their least
    common denominator so that the group sums are integer sums.
    """
    if A.n != spec.n or A.d != spec.d:
        raise ValueError(
            f"array shape (n={A.n}, d={A.d}) does not match spec (n={spec.n}, d={spec.d})"
        )
    entries = A.entries
    nonzero = A.support_indices()
    scale = math.lcm(*{entries[i].denominator for i in nonzero})
    groups = cell_groups(spec)
    sums = [0] * spec.group_count
    for i in nonzero:
        v = entries[i]
        if v.numerator < 0:
            return False
        for g in groups[i]:
            sums[g] += v.numerator * (scale // v.denominator)
    return sums.count(scale) == len(sums)


def uniform_array(spec: PolytopeSpec) -> Array3:
    """The barycenter member: 1/n per line (omega) or 1/n^d per hyperplane (sigma)."""
    value = Fraction(1, spec.n) if spec.kind == "omega" else Fraction(1, spec.n ** spec.d)
    return Array3(spec.n, spec.d, [value] * spec.total_cells)


# ─── JSON interchange ────────────────────────────────────────────────────────


def fraction_to_json(v: Fraction):
    """Exact JSON form: plain int when integral, lowest-terms "p/q" otherwise."""
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def fraction_from_json(v) -> Fraction:
    """Decode an entry: an int, or a string exactly as `fraction_to_json`
    writes it ("p/q" in ASCII digits, lowest terms, q >= 2)."""
    if isinstance(v, bool):
        raise ValueError(f"not a rational entry: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        parts = _RATIONAL.fullmatch(v)
        if parts:
            x = Fraction(int(parts[1]), int(parts[2]))
            if fraction_to_json(x) == v:
                return x
        raise ValueError(f"malformed rational string: {v!r}")
    raise ValueError(f"entries must be int or 'p/q' strings, got {type(v).__name__}")


def to_json_dict(spec: PolytopeSpec, A: Array3) -> dict:
    """Interchange dict: {"kind", "n", "d", "entries"} with exact entries."""
    if A.n != spec.n or A.d != spec.d:
        raise ValueError("array shape does not match spec")
    # fraction_to_json of each entry, inlined: a call per cell doubles the cost
    out = [v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
           for v in A.entries]
    for _ in range(A.d):
        out = [out[i : i + A.n] for i in range(0, len(out), A.n)]
    return {"kind": spec.kind, "n": spec.n, "d": spec.d, "entries": out}


def from_json_dict(obj: Mapping) -> tuple:
    """Parse an interchange dict; returns (PolytopeSpec, Array3).

    A declared n^(d+1) above `MAX_ARRAY_CELLS` is refused before any entry
    is decoded.  The entries must nest as d + 1 levels of n-long lists; each
    distinct entry token is decoded once.
    """
    try:
        kind, n, d, entries = obj["kind"], obj["n"], obj["d"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing array field: {exc}") from None
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, d)):
        raise ValueError("n and d must be integers")
    spec = PolytopeSpec(kind, n, d)
    if spec.cells_exceed(MAX_ARRAY_CELLS):
        raise ValueError(
            f"arrays are capped at {MAX_ARRAY_CELLS} cells; n={n}, d={d} declares more"
        )
    level = [entries]
    for _ in range(d + 1):
        if not all(isinstance(x, list) and len(x) == n for x in level):
            raise ValueError("entries shape disagrees with declared n, d")
        level = list(itertools.chain.from_iterable(level))
    # only exact ints and strings share a decoding: True, 1 and 1.0 are equal
    # keys, so a bool or float must never look up an int's entry
    if {int, str}.issuperset(map(type, level)):
        decoded = {x: fraction_from_json(x) for x in set(level)}
        return spec, Array3(n, d, map(decoded.__getitem__, level))
    if any(isinstance(x, list) for x in level):
        raise ValueError("entries nest too deeply: a list where an entry belongs")
    return spec, Array3(n, d, [fraction_from_json(x) for x in level])
