"""stocharray benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each op is one
``stocharray.cli.main(argv)`` call with stdout and stderr captured; every
op's output is checked afterwards by ``checks.py``, which shares no code
with the package.  The workloads are described in ``workloads.py``.

--trace 0 runs whole rounds of the workload until --seconds have passed,
not counting the time spent checking outputs, and until at least ten ops
lie beyond the tail percentile; it reports the end-to-end metrics, with
the median and the tail percentile of op latency as Harrell-Davis
estimates.  --trace 1 runs the prologue and one round, each op first plainly
and then with every layer wrapped by ``tracer.py``; it reports per-layer
metrics from the traced ops and the tracing overhead, and writes the
spans to ``.perfbench-out/``.  --seconds does not apply to it: it runs a
fixed op list so that its counts repeat exactly (``check_counts.py``).
Either way the last line of stdout is one JSON object: correct,
attempted, failed, metrics.

The benchmark refuses to run under ``python -O``: the package's
certificate checks are asserts, and the run would measure another
program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 5
TAIL_BEYOND = 10  # ops the tail percentile must leave beyond it
MAX_SECONDS = 120.0  # the timed phase stops here even with fewer ops beyond the tail

import checks  # noqa: E402  (sibling module; sys.path[0] is this directory)
import tracer  # noqa: E402
import workloads  # noqa: E402


def _import_package():
    """Import stocharray from SRC, with every layer, and return its cli module."""
    package = importlib.import_module("stocharray")
    if Path(package.__file__).resolve().parent != SRC / "stocharray":
        raise RuntimeError(f"imported stocharray from {package.__file__}, not {SRC}")
    for layer in tracer.LAYERS:
        importlib.import_module(f"stocharray.{layer}")
    return sys.modules["stocharray.cli"]


class Record(NamedTuple):
    op: workloads.Op
    seconds: float
    problem: str | None  # None when the op succeeded and its output checks out


def _run_batch(cli, ops: list, records: list) -> float:
    """Run ``ops`` in order, appending a Record each; returns the seconds spent checking.

    Each output is checked as soon as its op returns and then dropped, so
    memory does not grow with the number of ops.
    """
    checking = 0.0
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        seconds = time.perf_counter() - start
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[:200]}"
        else:
            try:
                op.check(out.getvalue())
            except checks.CheckFailed as exc:
                problem = f"check failed: {exc}"
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"malformed output: {type(exc).__name__}: {exc}"
        records.append(Record(op, seconds, problem))
        checking += time.perf_counter() - start - seconds
    return checking


def _rank(n: int, p: int) -> int:
    """The 1-based nearest rank of the p-th percentile of n values."""
    return max(1, math.ceil(p * n / 100))


def _quantile(values: list, q: float) -> float:
    """The Harrell-Davis (1982) estimate of the q-quantile of ``values``.

    A mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    density, so it moves smoothly with the machine's speed where a single
    order statistic jumps between op classes.  Each weight is that
    density's mass over one order statistic's interval, by the midpoint
    rule; needs at least two values.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in points))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _setup(args, input_dir: Path) -> tuple:
    """Set up SETUP_REPS times; returns the last (cli, workload) and every set-up's time.

    Before each set-up, every module imported since the first one began is
    dropped from sys.modules, so each pays to import the package and its
    dependencies (mpmath among them), not just the package itself.
    """
    baseline = set(sys.modules)
    times = []
    for _ in range(SETUP_REPS):
        for name in set(sys.modules) - baseline:
            del sys.modules[name]
        gc.collect()  # frees the dropped modules, which sit in reference cycles
        start = time.perf_counter()
        cli = _import_package()
        wl = workloads.WORKLOADS[args.workload](args.seed, str(ROOT), str(input_dir))
        wl.write_inputs(str(input_dir))
        warm: list = []
        checking = _run_batch(cli, [wl.warmup], warm)
        times.append(time.perf_counter() - start - checking)
        if warm[0].problem is not None:
            raise RuntimeError(f"warm-up op {' '.join(wl.warmup.argv)} failed: {warm[0].problem}")
    return cli, wl, times


def _timed(cli, wl, seconds: float) -> tuple:
    """Whole rounds until ``seconds`` have passed and TAIL_BEYOND ops lie beyond the tail.

    A slow program runs past ``seconds`` to get those ops, but stops after
    MAX_SECONDS whatever the count.  Returns (records, elapsed), where
    elapsed is op time and loop overhead, leaving out output checking.
    """
    records: list = []
    start = time.perf_counter()
    checking = _run_batch(cli, wl.prologue, records)
    for r in itertools.count():
        checking += _run_batch(cli, wl.round_ops(r), records)
        elapsed = time.perf_counter() - start - checking
        beyond = len(records) - _rank(len(records), wl.tail_percentile)
        if (elapsed >= seconds and beyond >= TAIL_BEYOND) or elapsed >= MAX_SECONDS:
            return records, elapsed


def _traced(cli, wl) -> tuple:
    """The prologue and round 0, each op run plainly and then traced.

    Alternating op by op puts each plain and traced pair in the same
    spell of machine speed, so their ratio shows the tracing overhead.
    """
    tr = tracer.Tracer()
    plain: list = []
    traced: list = []
    starts = []
    for op in wl.prologue + wl.round_ops(0):
        _run_batch(cli, [op], plain)
        starts.append(len(tr.spans))
        with tr:
            _run_batch(cli, [op], traced)
    return plain, traced, tr.spans, starts


def _layer_metrics(spans: list, plain: list, traced: list) -> dict:
    agg = tracer.aggregate(spans)
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def module_self(module):
        return sum(row["self_s"] for name, row in agg.items() if name.startswith(module + "."))

    solves = get("simplex.solve_lp", "calls")
    searched = get("linalg.solve_unique", "calls")  # enumerate_vertices is its only caller
    failed_builds = sum(
        1 for s in spans if s[0] == "omega_build.construct_vertex" and s[5] == "ConstructionError"
    )
    n_ops = len(traced)
    values = {}
    for name in (
        "linalg.bareiss_echelon", "linalg.kernel_vector_int", "certify.is_vertex_rank",
        "linalg.solve_unique", "simplex.solve_lp", "core.is_member",
        "certify.build_support_graph", "designs.perfect_matching",
        "designs.two_factor_containing_path", "designs._factor_via_two_matchings",
        "designs._factor_via_bmatching",
    ):
        values[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in (
        "linalg.bareiss_echelon", "linalg.kernel_vector_int", "certify.is_vertex_rank",
        "linalg.solve_unique", "certify.enumerate_vertices", "simplex.solve_lp",
        "sample.maximize", "core.is_member", "certify.build_support_graph",
        "certify.half_integral_certificate", "omega_build.construct_vertex",
        "sigma_build.construct_sigma_vertex", "bounds.permanent",
        "bounds.construction_count_report", "designs.count_latin",
        "core.from_json_dict", "core.to_json_dict",
    ):
        values[f"{name}.self_s"] = (get(name, "self_s"), "s")
    values["linalg.bareiss_echelon.entries"] = (get("linalg.bareiss_echelon", "count"), "count")
    values["certify.enumerate_vertices.yield"] = (
        get("certify.enumerate_vertices", "count") / searched if searched else 0.0, "ratio")
    values["simplex.pivots"] = (get("simplex.solve_lp", "count"), "count")
    values["simplex.pivots_per_solve"] = (
        get("simplex.solve_lp", "count") / solves if solves else 0.0, "ratio")
    values["designs.self_s"] = (module_self("designs"), "s")
    values["cli.self_s"] = (module_self("cli"), "s")
    values["omega_build.construction_error_ops"] = (failed_builds, "count")
    values["trace.ops"] = (n_ops, "count")
    values["trace.spans"] = (len(spans), "count")
    values["trace.op_time_s"] = (traced_s, "s")
    values["trace.untraced_ops_per_s"] = (n_ops / plain_s, "ops/s")
    values["trace.traced_ops_per_s"] = (n_ops / traced_s, "ops/s")
    values["trace.slowdown"] = (traced_s / plain_s, "ratio")
    return values


def _by_op_class(spans: list, starts: list, traced: list) -> dict:
    """Per op class: op count, op seconds, and the top self times inside it."""
    bounds = starts + [len(spans)]
    classes: dict = {}
    for i, record in enumerate(traced):
        row = classes.setdefault(record.op.label, {"ops": 0, "op_s": 0.0, "self_s": {}})
        row["ops"] += 1
        row["op_s"] += record.seconds
        for name, agg in tracer.aggregate(spans, bounds[i], bounds[i + 1]).items():
            row["self_s"][name] = row["self_s"].get(name, 0.0) + agg["self_s"]
    for row in classes.values():
        top = sorted(row["self_s"].items(), key=lambda kv: -kv[1])[:4]
        row["top"] = [(name, s, s / row["op_s"]) for name, s in top]
        del row["self_s"]
    return classes


def _timed_metrics(wl, records: list, elapsed: float, setup_times: list) -> tuple:
    latencies = [r.seconds for r in records]
    beyond = len(records) - _rank(len(records), wl.tail_percentile)
    values = {
        "throughput_ops_per_s": (len(records) / elapsed, "ops/s"),
        "latency_p50_s": (_quantile(latencies, 0.5), "s"),
        "latency_tail_s": (_quantile(latencies, wl.tail_percentile / 100), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_class: dict = {}
    for r in records:
        by_class.setdefault(r.op.label, []).append(r.seconds)
    details = {
        "elapsed_s": elapsed, "ops": len(records),
        "tail_percentile": wl.tail_percentile, "ops_beyond_tail": beyond,
        "tail_short": beyond < TAIL_BEYOND,
        "op_classes": {k: {"ops": len(v), "median_s": statistics.median(v)}
                       for k, v in by_class.items()},
    }
    print(f"  {len(records)} ops, {elapsed:.2f} s; latency_tail_s is "
          f"p{wl.tail_percentile} of {len(records)} ops, {beyond} beyond it")
    if beyond < TAIL_BEYOND:
        print(f"  WARNING: only {beyond} ops beyond p{wl.tail_percentile} after "
              f"{MAX_SECONDS:g} s; latency_tail_s rests on fewer than {TAIL_BEYOND}")
    return values, details


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def _measure(args, input_dir: Path) -> tuple:
    """Set up, run the workload, and return (values, checked records, details)."""
    cli, wl, setup_times = _setup(args, input_dir)
    details = {"setup_s": setup_times}
    if not args.trace:
        records, elapsed = _timed(cli, wl, args.seconds)
        values, more = _timed_metrics(wl, records, elapsed, setup_times)
        details.update(more)
        return values, records, details
    plain, traced, spans, starts = _traced(cli, wl)
    values = _layer_metrics(spans, plain, traced)
    classes = _by_op_class(spans, starts, traced)
    for label, row in classes.items():
        top = ", ".join(f"{name} {share:.0%}" for name, _, share in row["top"])
        print(f"  {label}: {row['ops']} ops, {row['op_s']:.3f} s; self time: {top}")
    details["op_classes"] = classes
    _write_json(OUT / f"spans-{args.workload}-seed{args.seed}.json", {
        "fields": ["name", "start", "end", "parent", "count", "error"],
        "spans": spans,
        "ops": [[r.op.label, r.op.argv, s] for r, s in zip(traced, starts)],
    })
    return values, plain + traced, details


def main(argv=None) -> int:
    if not __debug__:
        sys.stderr.write("perfbench: refusing to run under python -O; the package's "
                         "certificate checks are asserts and would be skipped\n")
        return 2
    p = argparse.ArgumentParser(description="stocharray benchmark")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "stocharray" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no stocharray package under {SRC}\n")
        return 1
    sys.path.insert(0, str(SRC))

    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={env['python']} nproc={env['nproc']}")
    input_dir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        values, checked, details = _measure(args, input_dir)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    failures = [r for r in checked if r.problem is not None]
    for r in failures[:5]:
        print(f"FAILED {' '.join(r.op.argv)}: {r.problem}")
    print(f"  error_rate {len(failures) / len(checked):g} ratio "
          f"({len(failures)} failed of {len(checked)})")
    for name, (value, unit) in values.items():
        print(f"  {name} {value:.6g} {unit}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    _write_json(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **env,
        "attempted": len(checked), "failed": len(failures), **details, "metrics": metrics,
    })
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
