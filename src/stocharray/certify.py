"""Vertex certification for stochastic-array polytopes.

Three exact routes, all over rational arithmetic:

* a combinatorial criterion for half-integral members, reading bipartite
  structure off the graph whose nodes are the value-1/2 cells,
* a linear-algebra criterion for arbitrary members, via the rank of the
  constraint matrix restricted to the support,
* exhaustive enumeration of all vertices of small instances, by the
  double description method over exact integer rays.

Both decision routes return a `VertexCertificate`; negative certificates
carry an exact witness pair (X, Y) of distinct members averaging to the
queried point.  The rank route runs one sparse exact elimination
(`linalg.eliminate`).  Kernel vectors and witnesses are re-verified
before they are returned, raising `CertificateError` on failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from stocharray.core import HALF, Array3, PolytopeSpec, cell_groups, group_rows, is_member
from stocharray.linalg import SparseBasis, eliminate

ONE = Fraction(1)
# past these, enumeration runs for many seconds (its setup grows with the cells,
# its adjacency tests with the rays) or prints JSON nested too deeply (axes)
MAX_ENUMERATE_CELLS = 64
MAX_ENUMERATE_WORK = 10**7


class CertificateError(RuntimeError):
    """A certificate failed its own re-verification: a bug, never bad input."""


@dataclass(frozen=True)
class VertexCertificate:
    """Outcome of a vertex test.

    ``witness`` is None for positive certificates; otherwise it is a pair
    of distinct members (X, Y) with A = (X + Y) / 2.
    """

    is_vertex: bool
    method: str
    witness: Optional[tuple] = None

    def __post_init__(self):
        if self.method not in ("graph", "rank"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.is_vertex and self.witness is not None:
            raise ValueError("positive certificate cannot carry a witness")
        if not self.is_vertex and self.witness is None:
            raise ValueError("negative certificate requires a witness")


@dataclass(frozen=True)
class GraphComponent:
    """One connected component of a support graph; ``parts`` is its
    bipartition when it has one, else None."""

    cells: tuple
    is_bipartite: bool
    parts: Optional[tuple] = None


@dataclass(frozen=True, eq=False)
class SupportGraph:
    """Graph on the value-1/2 cells of a half-integral member.

    Cells are adjacent when they share a constraint group: a line of an
    omega member, a coordinate hyperplane of a sigma member.  Value-1
    cells exhaust their groups, are provably immovable, and are never
    included.
    """

    cells: tuple
    edges: frozenset
    components: tuple

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    @property
    def has_bipartite_component(self) -> bool:
        return any(c.is_bipartite for c in self.components)


def _require_member(A: Array3, spec: PolytopeSpec) -> None:
    if (A.n, A.d) != (spec.n, spec.d):
        raise ValueError("array shape does not match the polytope")
    if not is_member(A, spec):
        raise ValueError("array is not a member of the polytope")


def build_support_graph(A: Array3, spec: PolytopeSpec) -> SupportGraph:
    """Adjacency structure of the 1/2-cells of a half-integral member of spec.

    A must be a member of spec; this is not re-tested here.  Every
    constraint group of a half-integral member carries either one value-1
    cell or exactly two value-1/2 cells, so the edge set is read directly
    off the groups of ``spec``.
    """
    groups = cell_groups(spec)
    halves = []
    members: dict = {}  # group id -> its 1/2-cells
    for c, i in zip(A.support(), A.support_indices()):
        if A.entries[i] == HALF:
            halves.append(c)
            for g in groups[i]:
                members.setdefault(g, []).append(c)
        elif A.entries[i] != ONE:
            raise ValueError(f"entry at {c} is {A.entries[i]}, not in {{0, 1/2, 1}}")
    halves = tuple(halves)
    edges = set()
    for g in sorted(members):
        pair = members[g]
        assert len(pair) == 2, "half-integral member with a lone 1/2 in a group"
        edges.add((min(pair), max(pair)))

    adj: dict = {c: [] for c in halves}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)

    components = []
    color: dict = {}
    for start in halves:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        comp = [start]
        bipartite = True
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    comp.append(v)
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
        comp.sort()
        if bipartite:
            part0 = tuple(c for c in comp if color[c] == 0)
            part1 = tuple(c for c in comp if color[c] == 1)
            components.append(
                GraphComponent(tuple(comp), True, parts=(part0, part1))
            )
        else:
            components.append(GraphComponent(tuple(comp), False))
    return SupportGraph(halves, frozenset(edges), tuple(components))


def half_integral_certificate(A: Array3, spec: PolytopeSpec) -> VertexCertificate:
    """Vertex test for half-integral members via support-graph bipartiteness.

    The member is a vertex exactly when no component of its support graph
    is bipartite.  A bipartite component yields the witness directly:
    shifting its two parts by +1/4 and -1/4 preserves every group sum, so
    X = A + shift and Y = A - shift are distinct members averaging to A.
    """
    _require_member(A, spec)
    return _graph_certificate(A, spec)


def _graph_certificate(A: Array3, spec: PolytopeSpec) -> VertexCertificate:
    """`half_integral_certificate` of a member of spec, not re-tested here."""
    graph = build_support_graph(A, spec)
    for comp in graph.components:
        if comp.is_bipartite:
            delta = {}
            for c in comp.parts[0]:
                delta[A.index(c)] = Fraction(1, 4)
            for c in comp.parts[1]:
                delta[A.index(c)] = Fraction(-1, 4)
            X = _shift(A, delta, +1)
            Y = _shift(A, delta, -1)
            _check_witness(A, spec, X, Y)
            return VertexCertificate(False, "graph", witness=(X, Y))
    return VertexCertificate(True, "graph")


def _shift(A: Array3, delta: dict, sign: int) -> Array3:
    """A plus ``sign`` times ``delta``, a flat index -> step mapping."""
    entries = list(A.entries)
    for i, step in delta.items():
        entries[i] += sign * step
    return Array3(A.n, A.d, entries)


def _check_witness(A: Array3, spec: PolytopeSpec, X: Array3, Y: Array3) -> None:
    """Raise unless X and Y are distinct members of spec averaging to A.

    A is a member of spec, so only the cells where X or Y does not hold
    A's own entry object are read: every other cell equals A's entry,
    which is nonnegative and adds nothing to a group sum of X - A or
    Y - A.  The cells read are scaled to integers over their common
    denominator.
    """
    a, x, y = A.entries, X.entries, Y.entries
    moved = [i for i, (u, v, w) in enumerate(zip(a, x, y)) if v is not u or w is not u]
    if all(x[i] == y[i] for i in moved):
        raise CertificateError("witness members coincide")
    scale = math.lcm(*(v.denominator for i in moved for v in (a[i], x[i], y[i])))
    scaled = [
        [v.numerator * (scale // v.denominator) for v in (a[i], x[i], y[i])] for i in moved
    ]
    if any(u < 0 or w < 0 for _, u, w in scaled):
        raise CertificateError("witness left the polytope")
    groups = cell_groups(spec)
    for k in (1, 2):
        sums: dict = {}
        for i, values in zip(moved, scaled):
            for g in groups[i]:
                sums[g] = sums.get(g, 0) + values[k] - values[0]
        if any(sums.values()):
            raise CertificateError("witness left the polytope")
    if any(u + w != 2 * t for t, u, w in scaled):
        raise CertificateError("witness midpoint is not the queried point")


def certify_construction(A: Array3, spec: PolytopeSpec) -> VertexCertificate:
    """Both certificates of a half-integral member built to be a vertex.

    The rank certificate runs first and is the one membership test; the
    support graph of that member must then be one odd component, which is
    exactly the graph certificate's acceptance.  The rank certificate must
    agree, and is returned.
    """
    rank_cert = is_vertex_rank(A, spec)
    graph = build_support_graph(A, spec)
    if not graph.is_connected or graph.has_bipartite_component:
        raise CertificateError(
            "construction invariant broken: support graph must be one odd component"
        )
    if not rank_cert.is_vertex:
        raise CertificateError("graph and rank certificates must both accept the construction")
    return rank_cert


# ─── rank route ──────────────────────────────────────────────────────────────


def support_columns(A: Array3, spec: PolytopeSpec) -> tuple:
    """(columns, support): the flat indices of supp(A) in increasing order,
    and for each the sparse constraint column {group id: 1} of its cell."""
    groups = cell_groups(spec)
    support = A.support_indices()
    return [dict.fromkeys(groups[i], 1) for i in support], support


def _check_kernel(columns: list, x: list) -> None:
    if not any(x):
        raise CertificateError("kernel vector vanished")
    # scaled by the lcm of its denominators, the vector sums in integers
    scale = math.lcm(*(v.denominator for v in x if v))
    sums: dict = {}
    for column, v in zip(columns, x):
        if v:
            w = v.numerator * (scale // v.denominator)
            for r, a in column.items():
                sums[r] = sums.get(r, 0) + a * w
    if any(sums.values()):
        raise CertificateError("kernel vector is not in the kernel of the support columns")


def is_vertex_rank(A: Array3, spec: PolytopeSpec) -> VertexCertificate:
    """Vertex test for arbitrary members via support-restricted rank.

    A member is a vertex exactly when the constraint columns indexed by
    its support are linearly independent.  A kernel vector of those
    columns otherwise gives a feasible direction: every group sum is
    preserved, so only the box constraints limit the step, and half the
    largest feasible step produces the witness pair.
    """
    _require_member(A, spec)
    return _rank_certificate(A, spec)


def _rank_certificate(A: Array3, spec: PolytopeSpec) -> VertexCertificate:
    """`is_vertex_rank` of a member of spec, not re-tested here."""
    columns, support = support_columns(A, spec)
    v = eliminate(columns, stop_at_dependency=True).kernel
    if v is None:
        return VertexCertificate(True, "rank")
    _check_kernel(columns, v)
    entries = A.entries
    step = min(
        min(ONE - entries[i], entries[i]) / abs(x) for i, x in zip(support, v) if x
    )
    t = step / 2
    delta = {i: t * x for i, x in zip(support, v) if x}
    X = _shift(A, delta, +1)
    Y = _shift(A, delta, -1)
    _check_witness(A, spec, X, Y)
    return VertexCertificate(False, "rank", witness=(X, Y))


@lru_cache(maxsize=8)
def independent_groups(spec: PolytopeSpec) -> tuple:
    """Ids of the groups whose rows one elimination pass keeps: a row basis
    of the constraint matrix, earliest first in group-id order."""
    return eliminate(group_rows(spec)).independent


# ─── exhaustive enumeration ──────────────────────────────────────────────────


def enumerate_vertices(spec: PolytopeSpec) -> list:
    """All vertices of a small instance, by double description (Motzkin et
    al. 1953; Fukuda and Prodon 1996), each re-checked by the rank criterion.

    The vertices of {x >= 0, Ax = 1} are the extreme rays (x, t) of the
    cone {Ax = t 1, x >= 0} scaled to t = 1; boundedness makes t > 0.  The
    cells whose columns a `SparseBasis` holding the t column finds
    dependent give a null-space basis, a cone simplicial in those cells.
    The other cells' x_i >= 0 cut it in flat order, combining a positive
    and a negative ray only when adjacent.  Rays are primitive int lists
    with t last; zero sets are bitmasks over the constraints cut so far.
    """
    if spec.cells_exceed(MAX_ENUMERATE_CELLS) or spec.axes > MAX_ENUMERATE_CELLS:
        raise ValueError(
            f"enumeration is capped at {MAX_ENUMERATE_CELLS} cells and as many axes; "
            f"n={spec.n}, d={spec.d} has more"
        )
    N = spec.total_cells
    columns = [dict.fromkeys(gs, 1) for gs in cell_groups(spec)]
    basis = SparseBasis()
    basis.add(dict.fromkeys(range(spec.group_count), -1))
    pivots = [j for j, column in enumerate(columns) if basis.add(column)]
    free = [j for j in range(N) if j not in pivots]
    rays, zeros = [], []
    for j in free:
        # e_j minus column j over the basis (position 0 is t); scaling by
        # the lcm of the denominators leaves entries whose gcd is 1
        coefficients = basis.express(columns[j])
        scale = math.lcm(*(Fraction(c).denominator for c in coefficients.values()))
        ray = [0] * (N + 1)
        ray[j] = scale
        for t, c in coefficients.items():
            ray[pivots[t - 1] if t else N] = int(-c * scale)
        rays.append(ray)
        zeros.append(sum(1 << k for k in free if k != j))
    least_common = len(free) - 2
    work = 0
    for i in pivots:
        bit = 1 << i
        new_rays, new_zeros = [], []
        positive = [(ray, z) for ray, z in zip(rays, zeros) if ray[i] > 0]
        negative = [(ray, z) for ray, z in zip(rays, zeros) if ray[i] < 0]
        for (ray_p, zp), (ray_q, zq) in itertools.product(positive, negative):
            common = zp & zq
            if common.bit_count() < least_common:
                continue
            # adjacent iff no third ray's zero set holds the common one
            work += len(zeros)
            if work > MAX_ENUMERATE_WORK:
                raise ValueError("enumeration exceeded its work budget of "
                                 f"{MAX_ENUMERATE_WORK} zero-set comparisons")
            if sum(z & common == common for z in zeros) > 2:
                continue
            a, b = ray_p[i], -ray_q[i]
            ray = [b * u + a * v for u, v in zip(ray_p, ray_q)]
            g = math.gcd(*ray)
            new_rays.append([v // g for v in ray])
            new_zeros.append(common | bit)
        kept = [k for k, ray in enumerate(rays) if ray[i] >= 0]
        zeros = [zeros[k] | (0 if rays[k][i] else bit) for k in kept] + new_zeros
        rays = [rays[k] for k in kept] + new_rays

    found = [Array3(spec.n, spec.d, [Fraction(v, ray[N]) for v in ray[:N]]) for ray in rays]
    for A in found:
        if not is_vertex_rank(A, spec).is_vertex:
            raise CertificateError("enumerated point failed the rank criterion")
    found.sort(key=lambda a: a.support_indices())
    return found
