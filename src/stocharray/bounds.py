"""Exact permanents and counting bounds for designs and vertices.

The permanent routine is exact over integers or rationals.  The rest
are the largest vertex support of each polytope and log-scale estimates
used to report how many distinct outputs the seeded constructions can
reach.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from stocharray.core import PolytopeSpec
from stocharray.designs import count_latin


def permanent(M) -> object:
    """Exact permanent by Glynn's formula (Glynn 2010).

    perm(M) = 2^-(n-1) * sum over signs e with e_0 = +1 of
    prod(e) * prod_j sum_i e_i M[i][j]: 2^(n-1) terms, each sign vector
    one flip from the last in Gray-code order, so the column sums update
    by twice one row.  Capped at n = 20.  Entries are ints or Fractions.
    The rows are scaled once by the lcm D of all denominators, so the loop
    adds and multiplies plain ints, and the integer total divides exactly
    by 2^(n-1) into the permanent times D^n.  Integer matrices give an
    int, matrices with a Fraction entry a Fraction.
    """
    rows = [list(r) for r in M]
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n > 20:
        raise ValueError("permanent capped at order 20")
    D = math.lcm(*(x.denominator for r in rows for x in r))
    scaled = [[x.numerator * (D // x.denominator) for x in r] for r in rows]
    twice = [[2 * x for x in r] for r in scaled]
    sums = [sum(column) for column in zip(*scaled)]
    total = math.prod(sums)
    flipped = 0  # bit k set when the sign of row k + 1 is -1
    for s in range(1, 1 << (n - 1)):
        bit = s & -s  # the Gray code flips the lowest set bit of s
        flipped ^= bit
        row = twice[bit.bit_length()]
        if flipped & bit:
            sums = list(map(operator.sub, sums, row))
        else:
            sums = list(map(operator.add, sums, row))
        # each step flips one sign, so prod(e) is -1 exactly when s is odd
        total += -math.prod(sums) if s & 1 else math.prod(sums)
    total //= 1 << (n - 1)
    if any(isinstance(x, Fraction) for r in rows for x in r):
        return Fraction(total, D**n)
    return total


def latin_count_log_asymptotic(n: int) -> float:
    """Leading term of the log of the order-n Latin square count: n^2 (ln n - 2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return n * n * (math.log(n) - 2)


def two_factor_log_lower_bound(k: int, n: int) -> float:
    """Log lower bound on the number of 2-factors of a k-regular bipartite graph.

    Peeling two matchings and applying the factorial permanent bound to
    each gives at least (k(k-1)/e^2)^n ordered pairs, and dividing by the
    at-most-2^n decompositions of each 2-factor costs another
    sqrt(2)^... per row: n * ln(k (k-1) / (e^2 sqrt(2))).  Small k can
    make the expression negative; it is then vacuous but still valid.
    """
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    return n * (math.log(k) + math.log(k - 1) - 2 - 0.5 * math.log(2))


def support_size_bound(spec: PolytopeSpec) -> int:
    """Largest possible vertex support: the constraint-matrix rank.

    Line-stochastic: n^(d+1) - (n-1)^(d+1).  Hyperplane-stochastic:
    (d+1)(n-1) + 1.  Matches `len(certify.independent_groups(spec))` exactly.
    """
    n, d = spec.n, spec.d
    if spec.kind == "omega":
        return n ** (d + 1) - (n - 1) ** (d + 1)
    return (d + 1) * (n - 1) + 1


def log_of_int(x: int) -> float:
    """Natural log of a positive integer of any size."""
    if x <= 0:
        raise ValueError("need a positive integer")
    if x.bit_length() <= 900:
        return math.log(x)
    shift = x.bit_length() - 64
    return math.log(x >> shift) + shift * math.log(2)


# the largest even order whose (n - 1)! has at most 4300 digits, the
# longest int Python converts to a string by default
MAX_REPORT_ORDER = 1558


def construction_count_report(n: int) -> dict:
    """How many distinct arrays the even-order fractional builder can reach.

    The top half is determined by the stacked double Latin square: two
    free order-n/2 blocks and one of (n/2 - 1)! single cycles, an exact
    count when n/2 <= 5 and an asymptotic log estimate beyond.  The
    bottom half ranges over at least the (n-1)! cyclic row orders of its
    first layer times 2-factor counts of shrinking even-regular graphs,
    reported as a summed log lower bound.  The total is the sum of the
    two log components; the log of the order-n Latin square count is
    included as the natural reference scale.
    """
    if n < 2 or n % 2:
        raise ValueError("the builder count needs even n >= 2")
    if n > MAX_REPORT_ORDER:
        raise ValueError(f"the builder count report is capped at order {MAX_REPORT_ORDER}")
    t = n // 2
    if t <= 5:
        top_count = math.factorial(t - 1) * count_latin(t) ** 2
        top_log = log_of_int(top_count)
        estimated = False
    else:
        top_count = None
        top_log = math.log(math.factorial(t - 1)) + 2 * latin_count_log_asymptotic(t)
        estimated = True
    later_log = sum(two_factor_log_lower_bound(k, n) for k in range(n - 4, 1, -2))
    bottom_log = math.log(math.factorial(n - 1)) + later_log
    return {
        "order": n,
        "top_half_count": top_count,
        "top_half_log_lower_bound": top_log,
        "top_half_estimated": estimated,
        "first_lower_layer_orderings": math.factorial(n - 1),
        "later_layers_log_lower_bound": later_log,
        "bottom_half_log_lower_bound": bottom_log,
        "total_log_lower_bound": top_log + bottom_log,
        "reference_log_scale": latin_count_log_asymptotic(n),
    }
