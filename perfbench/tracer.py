"""Spans around calls into stocharray's layers, recorded from outside.

Inside ``with Tracer()``, each layer module's public functions (plus the
few private ones named in EXTRA) are wrapped, and every module attribute
of the package that holds the same function object is rebound, so a call
through an imported name such as ``cli.is_member`` or
``omega_build.is_vertex_rank`` is traced too.  Spans (name, start, end,
parent) stay in memory; leaving the block puts the original bindings
back.  Nothing under ``src/`` changes.

Left unwrapped, so their time counts as their caller's self time:
generator functions (a span would time only their creation), and the
per-cell helpers in SKIP, which run up to hundreds of thousands of times
per op and whose wrapper would cost more than their body.
"""

from __future__ import annotations

import inspect
import sys
import time
import types

PACKAGE = "stocharray"
LAYERS = (
    "core", "linalg", "certify", "designs", "omega_build",
    "sigma_build", "simplex", "bounds", "sample", "cli",
)

SKIP = {
    "core.flat_index", "core.line_cells", "core.hyperplane_cells",
    "core.fraction_to_json", "core.fraction_from_json",
}

# private functions worth counting: the two 2-factor routes
EXTRA = {"designs._factor_via_two_matchings", "designs._factor_via_bmatching"}


def _count_of(name: str, args: tuple, result) -> int:
    """Work counted at the span itself; 0 for spans without a counter."""
    if name == "linalg.bareiss_echelon":
        rows = args[0]
        return len(rows) * len(rows[0]) if rows else 0
    if name == "simplex.solve_lp":
        return result.pivots
    if name == "certify.enumerate_vertices":
        return len(result)
    return 0


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, count, error]
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)

    def _targets(self) -> dict:
        out = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") and name not in EXTRA:
                    continue
                if name in SKIP or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
                    continue
                out[id(obj)] = (obj, self._wrap(name, obj))
        return out

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                count = 0 if error else _count_of(name, args, result)
                spans[index] = [name, start, end, parent, count, error]

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        targets = self._targets()
        for mod_name, module in list(sys.modules.items()):
            if not isinstance(module, types.ModuleType):
                continue
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def aggregate(spans: list, first: int = 0, last: int | None = None) -> dict:
    """name -> {"calls", "self_s", "count"} over spans[first:last].

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run has one thread.
    """
    last = len(spans) if last is None else last
    child = {}
    for i in range(first, last):
        _, start, end, parent, _, _ = spans[i]
        if parent >= first:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict = {}
    for i in range(first, last):
        name, start, end, _, count, _ = spans[i]
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["self_s"] += end - start - child.get(i, 0.0)
        row["count"] += count
    return out

