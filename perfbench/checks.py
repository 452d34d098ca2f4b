"""Output checks that share no code with stocharray.

Every check parses the command's JSON itself and tests it against facts
derived here from first principles: line and hyperplane sums, known
vertex verdicts, witness midpoints, n! permutation matrices, the closed
form of perm(x*I + J), and the Latin square count of order 5.  A check
raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

HALF = Fraction(1, 2)


class CheckFailed(Exception):
    """An output disagreed with the expected answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ─── arrays ──────────────────────────────────────────────────────────────────


def parse_value(v) -> Fraction:
    require(not isinstance(v, bool) and isinstance(v, (int, str)), f"bad entry {v!r}")
    return Fraction(v)


def flatten(entries, n: int, d: int) -> dict:
    """Nested JSON entries -> {cell: value} over the nonzero cells."""
    out = {}

    def walk(x, prefix):
        if len(prefix) == d + 1:
            value = parse_value(x)
            if value:
                out[prefix] = value
            return
        require(isinstance(x, list) and len(x) == n, "entries are not an n^(d+1) cube")
        for i, y in enumerate(x):
            walk(y, prefix + (i,))

    walk(entries, ())
    return out


def nested(cells: dict, n: int, d: int):
    """{cell: value} -> nested JSON entries with exact 'p/q' strings."""

    def encode(v):
        v = Fraction(v)
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def build(prefix):
        if len(prefix) == d + 1:
            return encode(cells.get(prefix, 0))
        return [build(prefix + (i,)) for i in range(n)]

    return build(())


def is_member(kind: str, n: int, d: int, cells: dict) -> bool:
    """Nonnegative, and every line (omega) or hyperplane (sigma) sums to 1."""
    if any(v < 0 for v in cells.values()):
        return False
    sums: dict = {}
    for cell, v in cells.items():
        for axis in range(d + 1):
            if kind == "omega":
                key = (axis, cell[:axis] + cell[axis + 1 :])
            else:
                key = (axis, cell[axis])
            sums[key] = sums.get(key, 0) + v
    groups = (d + 1) * (n**d if kind == "omega" else n)
    return len(sums) == groups and all(s == 1 for s in sums.values())


def check_array_doc(doc: dict, kind: str, n: int, d: int) -> dict:
    require(
        (doc.get("kind"), doc.get("n"), doc.get("d")) == (kind, n, d),
        f"array header {doc.get('kind')}/{doc.get('n')}/{doc.get('d')} != {kind}/{n}/{d}",
    )
    cells = flatten(doc["entries"], n, d)
    require(is_member(kind, n, d, cells), "array fails its line or hyperplane sums")
    return cells


def check_witness(kind: str, n: int, d: int, cells: dict, witness: dict) -> None:
    """The pair are distinct members whose average is the queried array."""
    x = flatten(witness["x"], n, d)
    y = flatten(witness["y"], n, d)
    require(x != y, "witness members coincide")
    require(is_member(kind, n, d, x) and is_member(kind, n, d, y), "witness is not a member")
    keys = set(x) | set(y) | set(cells)
    require(
        all((x.get(c, 0) + y.get(c, 0)) / 2 == cells.get(c, 0) for c in keys),
        "witness midpoint is not the input",
    )


# ─── generated inputs ────────────────────────────────────────────────────────


def random_latin(n: int, rng: random.Random) -> list:
    """An isotope of the cyclic square: L[i][j] = s[(r[i] + c[j]) mod n]."""
    r, c, s = list(range(n)), list(range(n)), list(range(n))
    rng.shuffle(r)
    rng.shuffle(c)
    rng.shuffle(s)
    return [[s[(r[i] + c[j]) % n] for j in range(n)] for i in range(n)]


def latin_cells(square: list) -> dict:
    n = len(square)
    return {(i, j, square[i][j]): Fraction(1) for i in range(n) for j in range(n)}


def distinct_latin_pair(n: int, rng: random.Random) -> tuple:
    first = random_latin(n, rng)
    while True:
        second = random_latin(n, rng)
        if second != first:
            return first, second


def combine(a: dict, b: dict, wa: Fraction) -> dict:
    out: dict = {}
    for cell, v in a.items():
        out[cell] = out.get(cell, 0) + wa * v
    for cell, v in b.items():
        out[cell] = out.get(cell, 0) + (1 - wa) * v
    return {c: v for c, v in out.items() if v}


def permutation_tuple_cells(n: int, rng: random.Random) -> dict:
    p, q = list(range(n)), list(range(n))
    rng.shuffle(p)
    rng.shuffle(q)
    return {(i, p[i], q[i]): Fraction(1) for i in range(n)}


def shuffled_xi_plus_j(n: int, x: int, rng: random.Random) -> list:
    """x*I + J with rows and columns permuted; the permanent is unchanged."""
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[1 + (x if rows[i] == cols[j] else 0) for j in range(n)] for i in range(n)]


def permanent_xi_plus_j(n: int, x: int) -> int:
    """perm(x*I + J) = sum_k C(n, k) x^k (n - k)!: choose the k fixed points."""
    return sum(math.comb(n, k) * x**k * math.factorial(n - k) for k in range(n + 1))


# ─── per-command checks ──────────────────────────────────────────────────────


def check_construct(out: str, family: str, n: int, seed: int) -> None:
    doc = json.loads(out)
    require(doc["meta"]["command"] == f"construct {family}", "wrong command in meta")
    require(doc["meta"]["seed"] == seed, "wrong seed in meta")
    cells = check_array_doc(doc, family, n, 2)
    require(doc["support"] == len(cells), "support size disagrees with the entries")
    require(any(v != 1 for v in cells.values()), "constructed vertex is not fractional")
    require(doc["certificate"]["is_vertex"] is True, "construction not reported as a vertex")


def check_exact_bytes(out: str, expected: bytes, name: str) -> None:
    require(out.encode("utf-8") == expected, f"output differs from {name}")


def gaussian_coefficients(total: int, seed: int) -> list:
    """The documented sampling objective: Box-Muller normals in multiples of 2^-32."""
    rng = random.Random(seed)
    quant = 1 << 32
    out = []
    for _ in range(total):
        u1 = 1.0 - rng.random()
        u2 = rng.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        out.append(Fraction(round(z * quant), quant))
    return out


def dual_upper_bound(kind: str, n: int, coeff: list, iters: int = 300) -> Fraction:
    """An exact upper bound on max c.x over the d=2 polytope, by LP duality.

    With prices u on the groups of the first axis and v on those of the
    second, every x in the polytope has c.x <= sum(u) + sum(v) + the sum,
    over the groups of the third axis, of the group's largest c - u - v.
    Any u, v give a valid bound; a float subgradient descent picks good
    ones, and the bound is then evaluated exactly.
    """
    if kind == "omega":  # lines: (j, k) along axis 0, (i, k) along 1, (i, j) along 2
        def keys(i, j, k):
            return (j, k), (i, k), (i, j)
    else:  # hyperplanes: i, j, k
        def keys(i, j, k):
            return i, j, k
    groups: dict = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, g = keys(i, j, k)
                c = coeff[(i * n + j) * n + k]
                groups.setdefault(g, []).append((c, float(c), a, b))
    u = {e[2]: 0.0 for g in groups.values() for e in g}
    v = {e[3]: 0.0 for g in groups.values() for e in g}

    def bound(u, v, exact):
        total = sum(u.values()) + sum(v.values())
        for g in groups.values():
            total += max((c if exact else cf) - u[a] - v[b] for c, cf, a, b in g)
        return total

    best = (bound(u, v, False), dict(u), dict(v))
    for t in range(1, iters + 1):
        gu, gv = dict.fromkeys(u, 1.0), dict.fromkeys(v, 1.0)
        for g in groups.values():
            _, _, a, b = max(g, key=lambda e: e[1] - u[e[2]] - v[e[3]])
            gu[a] -= 1
            gv[b] -= 1
        step = 0.5 / math.sqrt(t)
        for a in u:
            u[a] -= step * gu[a]
        for b in v:
            v[b] -= step * gv[b]
        value = bound(u, v, False)
        if value < best[0]:
            best = (value, dict(u), dict(v))
    _, u, v = best
    exact_u = {a: Fraction(x) for a, x in u.items()}
    exact_v = {b: Fraction(x) for b, x in v.items()}
    return bound(exact_u, exact_v, True)


def objective_bounds(kind: str, n: int, seed: int, rng: random.Random) -> tuple:
    """(lower, upper) bounds on the d=2 LP optimum for objective ``seed``.

    Lower: the objective at the barycenter and at a few 0/1 members.
    Upper: `dual_upper_bound`, typically within 0.2 of the optimum.
    """
    coeff = gaussian_coefficients(n**3, seed)

    def c(i, j, k):
        return coeff[(i * n + j) * n + k]

    if kind == "omega":
        points = [latin_cells(random_latin(n, rng)) for _ in range(3)]
        uniform = Fraction(1, n)
    else:
        points = [permutation_tuple_cells(n, rng) for _ in range(3)]
        uniform = Fraction(1, n * n)
    lower = max(
        [sum(coeff) * uniform] + [sum(c(*cell) * v for cell, v in p.items()) for p in points]
    )
    return lower, dual_upper_bound(kind, n, coeff)


def check_sample(out: str, kind: str, n: int, trials: int, seed: int) -> None:
    doc = json.loads(out)
    require((doc["kind"], doc["n"], doc["d"]) == (kind, n, 2), "wrong polytope in report")
    require(doc["trials"] == trials and len(doc["per_trial"]) == trials, "wrong trial count")
    rng = random.Random(seed)
    for k, trial in enumerate(doc["per_trial"]):
        require(trial["seed"] == seed + k, "trial seeds are not seed, seed+1, ...")
        require(trial["is_vertex"] is True, "sampled optimum not reported as a vertex")
        require(trial.get("graph_agrees", True) is True, "graph and rank verdicts disagree")
        require(trial["alpha"] == trial["support"] / (n * n), "alpha is not support / n^2")
        value = parse_value(trial["value"])
        lower, upper = objective_bounds(kind, n, seed + k, rng)
        require(lower <= value <= upper, "reported optimum outside its exact bounds")
    agg = doc["aggregate"]
    require(agg["vertex_count"] == trials, "aggregate vertex count is not the trial count")
    require(agg["graph_agreed"] == agg["graph_checked"], "aggregate graph disagreement")


def check_verify(out: str, kind: str, n: int, d: int, cells: dict, is_vertex: bool) -> None:
    doc = json.loads(out)
    require(doc["member"] is True, "member reported as a non-member")
    require(doc["is_vertex"] is is_vertex, f"verdict {doc['is_vertex']} != known {is_vertex}")
    half_integral = all(v in (HALF, 1) for v in cells.values())
    methods = doc["methods"]
    require("rank" in methods, "rank route missing")
    if half_integral:
        require(methods["graph"].get("is_vertex") is is_vertex, "graph verdict wrong")
    else:
        require(methods["graph"] == {"applicable": False},
                "graph route ran on a non-half-integral array")
    for m in methods.values():
        if "is_vertex" not in m:
            continue
        if is_vertex:
            require("witness" not in m, "vertex carries a witness")
        else:
            check_witness(kind, n, d, cells, m["witness"])


def zero_one_members(kind: str, n: int, d: int) -> set:
    """Every 0/1 member, by brute force over all 0/1 arrays (tiny n only)."""
    all_cells = list(itertools.product(range(n), repeat=d + 1))
    out = set()
    for bits in itertools.product((0, 1), repeat=len(all_cells)):
        cells = {c: Fraction(1) for c, b in zip(all_cells, bits) if b}
        if is_member(kind, n, d, cells):
            out.add(frozenset(cells))
    return out


def check_enumerate(out: str, kind: str, n: int, d: int, zero_one: set | None) -> None:
    doc = json.loads(out)
    vertices = [flatten(v, n, d) for v in doc["vertices"]]
    require(doc["count"] == len(vertices), "count disagrees with the vertex list")
    require(all(is_member(kind, n, d, v) for v in vertices), "listed vertex is not a member")
    keys = {frozenset(v.items()) for v in vertices}
    require(len(keys) == len(vertices), "vertex listed twice")
    if d == 1:
        require(len(vertices) == math.factorial(n), f"{len(vertices)} vertices, expected {n}!")
        perms = {frozenset(((i, p[i]), Fraction(1)) for i in range(n))
                 for p in itertools.permutations(range(n))}
        require(keys == perms, "d=1 vertices are not the permutation matrices")
    else:
        listed = {frozenset(c for c, _ in k) for k in keys if all(v == 1 for _, v in k)}
        require(zero_one <= listed, "a 0/1 member is missing from the vertex list")


def check_permanent(out: str, n: int, x: int) -> None:
    doc = json.loads(out)
    require(parse_value(doc["permanent"]) == permanent_xi_plus_j(n, x), "wrong permanent")


def check_report(out: str) -> None:
    doc = json.loads(out)
    require(doc["order"] == 10, "wrong order in report")
    require(doc["top_half_count"] == 24 * 161280**2, "top_half_count != 4! * L(5)^2")
