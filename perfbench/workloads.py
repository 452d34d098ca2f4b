"""The three workloads: which CLI commands run, on what inputs, checked how.

Each workload has a warm-up op, a prologue run once at the start of the
timed phase, and a round of ops that repeats.  Every input and every op
seed comes from the workload seed.  Rounds keep one composition, so
throughput and the latency percentiles do not depend on where a run
stops; the seed changes the seeds and the generated arrays, not the
sizes.

Ops of different commands differ in cost by up to a hundredfold, and on a
shared 2-vCPU host the core's speed swings by up to 1.7x over tens of
seconds.  So each round is a ladder of op sizes, with costs spread about
evenly on a log scale around the median and the tail percentile: there
the latency estimates average several overlapping op classes, and move
smoothly with the machine's speed instead of jumping between two
classes, as they do when one class of near-equal ops holds the
percentile.  Each round is shuffled, so the ops of one class are spread
over the run and sample the machine's slow and fast spells alike.

The tail percentile is fixed per workload: the highest whole percentile
with at least ten ops beyond it in a 30 s run at this commit's speed.
It is not recomputed from each run's op count, because then a faster
program, running more ops, would move the percentile up into a slower
class and report a worse tail.

Why each workload (see the per-layer metrics they are meant to move):

* construct: the builders (omega_build, designs, sigma_build) and vertex
  certification (certify, linalg.bareiss_echelon, core.is_member) do the
  work and simplex does none.  The n=10 ops weigh builder stages against
  rank; the n=16 ops are mostly rank.
* sample: simplex does nearly all the work, with several trials per op
  on one polytope, so a per-polytope phase-1 cache or a pricing change
  shows here and nowhere else.
* inspect: read-only commands on supplied inputs.  Most verdicts are
  negative and go through kernel vectors and witnesses, so a rank
  shortcut that helps construct can cost here.  It is also the only
  workload that runs enumeration, permanents, count_latin and the JSON
  input codecs.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks


@dataclass
class Op:
    label: str  # the op's class: argv without seeds or file names
    argv: list
    check: object  # callable(stdout) raising checks.CheckFailed


@dataclass
class Workload:
    warmup: Op
    prologue: list
    round_ops: object  # callable(round index) -> list of Op
    tail_percentile: int
    inputs: dict = field(default_factory=dict)  # file name -> JSON document

    def write_inputs(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, doc in self.inputs.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)


def _round_rng(seed: int, r: int) -> random.Random:
    return random.Random(seed * 1_000_003 + r)


def _construct_op(family: str, n: int, seed: int) -> Op:
    return Op(
        f"construct {family} --n {n}",
        ["construct", family, "--n", str(n), "--seed", str(seed)],
        functools.partial(checks.check_construct, family=family, n=n, seed=seed),
    )


def construct(seed: int, root: str, input_dir: str) -> Workload:
    golden_path = os.path.join(root, "goldens", "omega-n10-seed1.json")
    with open(golden_path, "rb") as fh:
        golden = fh.read()
    fixed = Op(
        "construct omega --n 10 --seed 1",
        ["construct", "omega", "--n", "10", "--seed", "1"],
        functools.partial(checks.check_exact_bytes, expected=golden, name=golden_path),
    )
    pool = random.Random(seed)
    big_seeds = [pool.randrange(1 << 30) for _ in range(3)]
    sigma_seeds = [pool.randrange(1 << 30) for _ in range(3)]

    def round_ops(r: int) -> list:
        rng = _round_rng(seed, r)
        ops = [fixed]
        ops += [_construct_op("omega", 10, rng.randrange(1 << 30)) for _ in range(14)]
        ops.append(_construct_op("omega", 16, big_seeds[r % 3]))
        ops.append(_construct_op("sigma", 30, sigma_seeds[r % 3]))
        rng.shuffle(ops)
        return ops

    # 15 of 17 ops are n=10: the median and p80 are both n=10 ops
    return Workload(fixed, [], round_ops, 80)


def _sample_op(kind: str, n: int, trials: int, seed: int) -> Op:
    return Op(
        f"sample --kind {kind} --n {n} --trials {trials}",
        ["sample", "--kind", kind, "--n", str(n), "--d", "2",
         "--trials", str(trials), "--seed", str(seed)],
        functools.partial(checks.check_sample, kind=kind, n=n, trials=trials, seed=seed),
    )


# (kind, trials) of one sample round, a ladder from about 0.07 s to about
# 1.4 s an op: the median falls among sigma 6 and omega 1, p80 among
# sigma 8, sigma 10 and omega 2
SAMPLE_ROUND = (("sigma", 1), ("sigma", 2), ("sigma", 3), ("sigma", 4), ("sigma", 6),
                ("sigma", 8), ("sigma", 10), ("omega", 1), ("omega", 2), ("omega", 3))


def sample(seed: int, root: str, input_dir: str) -> Workload:
    def round_ops(r: int) -> list:
        rng = _round_rng(seed, r)
        ops = [_sample_op(kind, 4, trials, rng.randrange(1 << 30)) for kind, trials in SAMPLE_ROUND]
        rng.shuffle(ops)
        return ops

    # one n=5 trial per run, on a fixed objective: its cost varies 3-8 s
    # with the objective, enough to swamp the rest of a run
    prologue = [_sample_op("omega", 5, 1, 0)]
    return Workload(_sample_op("omega", 4, 1, 0), prologue, round_ops, 80)


# inspect draws its generated inputs from a pool of this many rounds
INSPECT_POOL = 4
GOLDENS = (
    ("omega-3x3x3.json", "omega", 3, True),
    ("sigma-2x2x2.json", "sigma", 2, True),
    ("omega-n10-seed1.json", "omega", 10, True),
)
PERMANENT_ORDER = 14


def _verify_op(label: str, path: str, kind: str, n: int, cells: dict, is_vertex: bool) -> Op:
    return Op(
        f"verify {label}",
        ["verify", path],
        functools.partial(
            checks.check_verify, kind=kind, n=n, d=2, cells=cells, is_vertex=is_vertex
        ),
    )


def inspect(seed: int, root: str, input_dir: str) -> Workload:
    rng = random.Random(seed)
    inputs: dict = {}
    pool: list = []

    def add(name: str, kind: str, n: int, cells: dict) -> str:
        inputs[name] = {"kind": kind, "n": n, "d": 2, "entries": checks.nested(cells, n, 2)}
        return os.path.join(input_dir, name)

    # per round: Latin squares of orders 8-14, permutation tuples, midpoints
    # of orders 8-12 and 1/3-2/3 combinations make a ladder from about 0.01 s
    # to about 1 s; with the fixed ops the median falls among the Latin
    # squares of orders 11-14 and p80 among the midpoints of orders 10-12,
    # the thirds of order 12, the permanent and the report
    for p in range(INSPECT_POOL):
        ops = []
        for n in (8, 9, 10, 11, 12, 13, 14):
            cells = checks.latin_cells(checks.random_latin(n, rng))
            ops.append(_verify_op(f"latin n{n}", add(f"latin-{p}-{n}.json", "omega", n, cells),
                                  "omega", n, cells, True))
        for n in (8, 10, 12):
            cells = checks.permutation_tuple_cells(n, rng)
            ops.append(_verify_op(f"tuple n{n}", add(f"tuple-{p}-{n}.json", "sigma", n, cells),
                                  "sigma", n, cells, True))
        for n in (8, 9, 10, 11, 12):
            a, b = checks.distinct_latin_pair(n, rng)
            cells = checks.combine(checks.latin_cells(a), checks.latin_cells(b), Fraction(1, 2))
            ops.append(_verify_op(f"midpoint n{n}", add(f"mid-{p}-{n}.json", "omega", n, cells),
                                  "omega", n, cells, False))
        for n in (8, 10, 12):
            a, b = checks.distinct_latin_pair(n, rng)
            cells = checks.combine(checks.latin_cells(a), checks.latin_cells(b), Fraction(1, 3))
            ops.append(_verify_op(f"third n{n}", add(f"third-{p}-{n}.json", "omega", n, cells),
                                  "omega", n, cells, False))
        x = rng.randrange(1, 7)
        name = f"permanent-{p}.json"
        inputs[name] = checks.shuffled_xi_plus_j(PERMANENT_ORDER, x, rng)
        ops.append(Op(
            f"bounds permanent n{PERMANENT_ORDER}",
            ["bounds", "permanent", os.path.join(input_dir, name)],
            functools.partial(checks.check_permanent, n=PERMANENT_ORDER, x=x),
        ))
        pool.append(ops)

    fixed = []
    for name, kind, n, is_vertex in GOLDENS:
        path = os.path.join(root, "goldens", name)
        with open(path, encoding="utf-8") as fh:
            cells = checks.flatten(json.load(fh)["entries"], n, 2)
        fixed.append(_verify_op(f"golden {name}", path, kind, n, cells, is_vertex))
    for kind, n, d in (("omega", 3, 1), ("omega", 4, 1), ("sigma", 2, 2), ("omega", 2, 2)):
        zero_one = checks.zero_one_members(kind, n, d) if d == 2 else None
        fixed.append(Op(
            f"enumerate --kind {kind} --n {n} --d {d}",
            ["enumerate", "--kind", kind, "--n", str(n), "--d", str(d)],
            functools.partial(checks.check_enumerate, kind=kind, n=n, d=d, zero_one=zero_one),
        ))
    fixed.append(Op("bounds report --n 10", ["bounds", "report", "--n", "10"], checks.check_report))

    def round_ops(r: int) -> list:
        ops = fixed + pool[r % INSPECT_POOL]
        _round_rng(seed, r).shuffle(ops)
        return ops

    return Workload(fixed[2], [], round_ops, 80, inputs)


WORKLOADS = {"construct": construct, "sample": sample, "inspect": inspect}
