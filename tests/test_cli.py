"""End-to-end command-line behavior via in-process dispatch."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import combine, latin_to_array, midpoint, tuple_to_array
from stocharray import __version__, certify
from stocharray.bounds import MAX_REPORT_ORDER
from stocharray.cli import _render, main
from stocharray.core import (
    MAX_ARRAY_CELLS,
    PolytopeSpec,
    from_json_dict,
    is_member,
    to_json_dict,
    uniform_array,
)
from stocharray.designs import MAX_LATIN_ORDER, random_latin
from stocharray.sample import MAX_TRIALS
from stocharray.sigma_build import MAX_SIGMA_ORDER

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "goldens"
OMEGA_GOLDEN = str(GOLDENS / "omega-3x3x3.json")
SIGMA_GOLDEN = str(GOLDENS / "sigma-2x2x2.json")
SAMPLE_GOLDEN = GOLDENS / "sample-omega-n4-seed7.json"
SIGMA_SAMPLE_GOLDEN = GOLDENS / "sample-sigma-n4-seed7.json"
DEEP_SAMPLE_GOLDEN = GOLDENS / "sample-omega-n3-d3-seed11.json"
FLAT_SAMPLE_GOLDEN = GOLDENS / "sample-sigma-n5-d1-seed3.json"
WITNESS_GOLDEN = GOLDENS / "verify-omega-n10-latin-midpoint.json"
REPORT_GOLDEN = GOLDENS / "bounds-report-n10.json"
PERMANENT_MATRIX = GOLDENS / "permanent-order8-matrix.json"
PERMANENT_GOLDEN = GOLDENS / "permanent-order8.json"
ENUMERATE_GOLDEN = GOLDENS / "enumerate-omega-n4-d1.json"
LATIN_CUBE_ENUMERATE_GOLDEN = GOLDENS / "enumerate-omega-n3-d2.json"
FOUR_AXIS_ENUMERATE_GOLDEN = GOLDENS / "enumerate-sigma-n2-d3.json"
LATIN_GOLDEN = GOLDENS / "designs-latin-order9-seed5.json"
SIGMA_CONSTRUCT_GOLDEN = GOLDENS / "sigma-n8-seed2.json"
CONSTRUCT_SWEEP = GOLDENS / "construct-sweep.json"
# committed command outputs and inputs that are not arrays
NON_ARRAY_GOLDENS = (
    SAMPLE_GOLDEN, SIGMA_SAMPLE_GOLDEN, DEEP_SAMPLE_GOLDEN, FLAT_SAMPLE_GOLDEN, WITNESS_GOLDEN,
    REPORT_GOLDEN, PERMANENT_MATRIX, PERMANENT_GOLDEN, ENUMERATE_GOLDEN,
    LATIN_CUBE_ENUMERATE_GOLDEN, FOUR_AXIS_ENUMERATE_GOLDEN, LATIN_GOLDEN, CONSTRUCT_SWEEP,
)
ENUMERATE_ARGV = ("enumerate", "--kind", "omega", "--n", "4", "--d", "1")
LATIN_CUBE_ENUMERATE_ARGV = ("enumerate", "--kind", "omega", "--n", "3", "--d", "2")
FOUR_AXIS_ENUMERATE_ARGV = ("enumerate", "--kind", "sigma", "--n", "2", "--d", "3")
SAMPLE_ARGV = ("sample", "--kind", "omega", "--n", "4", "--d", "2", "--trials", "5", "--seed", "7")
SIGMA_SAMPLE_ARGV = ("sample", "--kind", "sigma", *SAMPLE_ARGV[3:])
DEEP_SAMPLE_ARGV = ("sample", "--kind", "omega", "--n", "3", "--d", "3", "--trials", "3", "--seed", "11")
FLAT_SAMPLE_ARGV = ("sample", "--kind", "sigma", "--n", "5", "--d", "1", "--trials", "4", "--seed", "3")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


def run_subprocess(*argv, optimize=False):
    """Run the CLI in a fresh interpreter, with asserts stripped when ``optimize``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "stocharray", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


# ─── global dispatch ─────────────────────────────────────────────────────────


def test_version_and_help(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip() == f"stocharray {__version__}"
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "commands:" in out


def test_no_arguments_is_a_usage_error(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 4
    assert "unknown command" in err


# `site` may already have loaded third-party modules, so only what the
# imports below add is checked
IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import stocharray
sys.argv = ["stocharray", "--version"]
imported = []
for module in pkgutil.iter_modules(stocharray.__path__, "stocharray."):
    try:
        importlib.import_module(module.name)
    except SystemExit as exc:  # importing __main__ runs the command line
        assert exc.code == 0, exc.code
    imported.append(module.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps([imported, sorted(added)]))
"""


def test_package_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERY_MODULE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported, top_level = json.loads(proc.stdout.splitlines()[-1])
    assert {"stocharray.cli", "stocharray.__main__"} <= set(imported)
    assert set(top_level) - set(sys.stdlib_module_names) == {"stocharray"}


# ─── verify ──────────────────────────────────────────────────────────────────


def test_verify_goldens(capsys):
    for path in (OMEGA_GOLDEN, SIGMA_GOLDEN):
        payload = run_json(capsys, "verify", path)
        assert payload["member"] is True
        assert payload["is_vertex"] is True
        assert payload["methods"]["graph"]["is_vertex"] is True
        assert payload["methods"]["rank"]["is_vertex"] is True


def test_verify_single_methods(capsys):
    for method in ("graph", "rank"):
        payload = run_json(capsys, "verify", OMEGA_GOLDEN, "--method", method)
        assert payload["is_vertex"] is True
        assert list(payload["methods"]) == [method]


def test_verify_from_stdin(capsys, monkeypatch):
    with open(SIGMA_GOLDEN, encoding="utf-8") as fh:
        text = fh.read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    payload = run_json(capsys, "verify")
    assert payload["is_vertex"] is True


def test_verify_non_half_integral_member(capsys, tmp_path):
    spec = PolytopeSpec("omega", 3, 1)
    doc = to_json_dict(spec, uniform_array(spec))
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    payload = run_json(capsys, "verify", str(path))
    assert payload["member"] is True
    assert payload["is_vertex"] is False
    assert payload["methods"]["graph"] == {"applicable": False}
    assert "witness" in payload["methods"]["rank"]
    code, _, err = run(capsys, "verify", str(path), "--method", "graph")
    assert code == 2
    assert "half-integral" in err


def test_verify_non_member_reports_null(capsys, tmp_path):
    doc = {"kind": "omega", "n": 2, "d": 1, "entries": [[0, 0], [0, 0]]}
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    payload = run_json(capsys, "verify", str(path))
    assert payload["member"] is False
    assert payload["is_vertex"] is None


def test_verify_io_failures(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 3 and "i/o failure" in err
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 3


def test_verify_invalid_document(capsys, tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"kind": "omega", "n": 2}), encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "invalid parameters" in err
    path.write_text(
        json.dumps({"kind": "omega", "n": True, "d": 1, "entries": [[1]]}), encoding="utf-8"
    )
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "integers" in err


def test_verify_refuses_arrays_above_the_cell_cap(capsys, tmp_path):
    """A declared n^(d+1) above MAX_ARRAY_CELLS exits 2 before any entry is
    decoded; exactly the cap, the largest sigma construct, is decoded."""
    path = tmp_path / "zeros.json"
    row = "[" + ",".join(["0"] * 120) + "]"
    plane = "[" + ",".join([row] * 120) + "]"
    entries = "[" + ",".join([plane] * 120) + "]"
    path.write_text(f'{{"kind": "sigma", "n": 120, "d": 2, "entries": {entries}}}')
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "") and f"capped at {MAX_ARRAY_CELLS} cells" in err
    path.write_text(json.dumps({"kind": "omega", "n": 10**9, "d": 10**9, "entries": [[0]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "") and f"capped at {MAX_ARRAY_CELLS} cells" in err
    assert time.perf_counter() - start < 5
    path.write_text(json.dumps({"kind": "sigma", "n": 100, "d": 2, "entries": [[0]]}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "") and "shape disagrees" in err


def test_deeply_nested_input_is_an_input_failure(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "nests too deeply" in err
    code, _, err = run(capsys, "bounds", "permanent", str(path))
    assert code == 3 and "nests too deeply" in err


# refusals of one entry token, each placed after the int it equals (or
# after 1) has been decoded, so a decoding shared by equal raw values fails
BAD_ENTRY_TOKENS = (True, False, 1.0, 0.0, None, "1/0", [1], {"1": 1})


def bad_entry_documents():
    """(why, document): an omega n=2 d=2 array with one bad cell or shape."""
    good = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    for token in BAD_ENTRY_TOKENS:
        entries = json.loads(json.dumps(good))
        entries[1][1][1] = token  # the last cell: a 1 and a 0 are decoded before it
        yield f"token {token!r}", entries
    deep = 1
    for _ in range(50):
        deep = [deep]
    for cell in itertools.product(range(2), repeat=3):
        entries = json.loads(json.dumps(good))
        i, j, k = cell
        entries[i][j][k] = deep
        yield f"deep nesting at {cell}", entries
    yield "ragged row", [[[1, 0], [0, 1]], [[0, 1], [1]]]
    yield "ragged plane", [[[1, 0], [0, 1]], [[0, 1]]]
    yield "too few axes", [[1, 0], [0, 1]]
    yield "a number for a row", [[[1, 0], 1], [[0, 1], [1, 0]]]


def test_bad_entries_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for why, entries in bad_entry_documents():
        doc = {"kind": "omega", "n": 2, "d": 2, "entries": entries}
        with pytest.raises(ValueError):
            from_json_dict(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, ""), why
        assert "invalid parameters" in err, why


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**100, -(10**100), 2**63, -(2**63) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.sampled_from(["", "é", "\u2028", "\ud800", '"', "\\", "\n\t\x00", "1/2", "日本"]),
)
JSON_KEYS = st.one_of(st.text(), st.sampled_from(["", '"q"', "\\", "\n", "é", "\ud83d", "a b"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(st.one_of(st.integers(), st.text()), max_size=8),
        st.dictionaries(JSON_KEYS, children, max_size=6),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_render_is_json_dumps(value):
    assert _render(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@st.composite
def design_mixtures(draw):
    """A convex combination of 2-3 seeded Latin squares (omega) or permutation
    tuples (sigma) of order 3-6, with weights 1-4."""
    kind = draw(st.sampled_from(["omega", "sigma"]))
    n = draw(st.integers(3, 6))
    terms = []
    for _ in range(draw(st.integers(2, 3))):
        if kind == "omega":
            design = latin_to_array(random_latin(n, draw(st.integers(0, 10**6))))
        else:
            perms = st.permutations(range(n))
            design = tuple_to_array([draw(perms), draw(perms)])
        terms.append((draw(st.integers(1, 4)), design))
    total = sum(w for w, _ in terms)
    return PolytopeSpec(kind, n, 2), combine(*((Fraction(w, total), A) for w, A in terms))


@settings(max_examples=80, deadline=None)
@given(design_mixtures())
def test_verify_of_design_mixtures(case):
    """verify's stdout on mixtures: the graph and rank verdicts agree where
    both run, each witness averages back to the input, and the input
    survives the JSON round trip."""
    spec, A = case
    text = json.dumps(to_json_dict(spec, A))
    assert from_json_dict(json.loads(text)) == (spec, A)
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = main(["verify", "-"])
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["member"] is True
    verdicts = [m["is_vertex"] for m in payload["methods"].values() if "is_vertex" in m]
    assert verdicts and set(verdicts) == {payload["is_vertex"]}
    half_integral = set(A.entries) <= {0, Fraction(1, 2), 1}
    assert ("is_vertex" in payload["methods"]["graph"]) == half_integral
    for method in payload["methods"].values():
        if "witness" in method:
            X, Y = (
                from_json_dict({"kind": spec.kind, "n": spec.n, "d": spec.d, "entries": e})[1]
                for e in (method["witness"]["x"], method["witness"]["y"])
            )
            assert X != Y and is_member(X, spec) and is_member(Y, spec)
            assert midpoint(X, Y) == A


# ─── enumerate ───────────────────────────────────────────────────────────────


def test_enumerate_counts(capsys):
    payload = run_json(capsys, "enumerate", "--kind", "omega", "--n", "3", "--d", "1")
    assert payload["count"] == 6
    assert len(payload["vertices"]) == 6
    payload = run_json(capsys, "enumerate", "--kind", "sigma", "--n", "2")
    assert payload["count"] == 6


def test_enumerate_too_large(capsys):
    """125 cells or 501 axes pass the caps and are refused up front; omega
    n=6 d=1 passes the work budget and is refused mid-run.  All exit 2
    naming the limit."""
    for n, d, limit, seconds in (
        ("5", "2", "enumeration is capped at 64 cells and as many axes; n=5, d=2 has more", 1.0),
        ("1", "500", "n=1, d=500 has more", 1.0),
        ("6", "1", "work budget of 10000000 zero-set comparisons", 5.0),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--kind", "omega", "--n", n, "--d", d)
        assert code == 2 and out == ""
        assert "invalid parameters" in err and limit in err
        assert time.perf_counter() - start < seconds


# ─── construct ───────────────────────────────────────────────────────────────


def test_construct_single(capsys):
    payload = run_json(capsys, "construct", "omega", "--n", "6", "--seed", "0")
    assert payload["kind"] == "omega" and payload["n"] == 6
    assert payload["support"] == 72
    assert payload["certificate"]["is_vertex"] is True
    assert payload["meta"]["seed"] == 0
    payload = run_json(capsys, "construct", "sigma", "--n", "5", "--seed", "2")
    assert payload["support"] == 10
    assert payload["certificate"]["is_vertex"] is True


def test_construct_error_codes(capsys):
    code, _, err = run(capsys, "construct", "omega", "--n", "9")
    assert code == 2
    code, _, err = run(capsys, "construct", "omega", "--n", "4")
    assert code == 2 and "invalid parameters" in err
    code, _, err = run(capsys, "construct", "omega", "--n", "6", "--seed", "46")
    assert code == 1 and "construction failed" in err
    code, _, _ = run(capsys, "construct", "omega", "--n", "6", "--count", "0")
    assert code == 2


def test_construct_sigma_order_cap(capsys):
    """Above the cap the order is refused at once, before the n^3 array is allocated."""
    for n in (MAX_SIGMA_ORDER + 1, 10**6):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "sigma", "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"capped at order {MAX_SIGMA_ORDER}; got {n}" in err


def test_construct_count_cap(capsys):
    """More than MAX_TRIALS runs are refused before the first build."""
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "omega", "--n", "10", "--count", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"capped at a count of {MAX_TRIALS}; got 1000000000" in err


def test_construct_count_collects_results(capsys):
    payload = run_json(
        capsys, "construct", "sigma", "--n", "4", "--seed", "3", "--count", "3"
    )
    assert payload["meta"]["params"]["count"] == 3
    assert len(payload["results"]) == 3
    seeds = [doc["meta"]["seed"] for doc in payload["results"]]
    assert seeds == [3, 4, 5]
    for doc in payload["results"]:
        assert doc["certificate"]["is_vertex"] is True


def test_construct_out_writes_stable_files(capsys, tmp_path):
    out = tmp_path / "runs"
    args = (
        "construct", "omega", "--n", "6", "--seed", "1", "--count", "2",
        "--out", str(out),
    )
    payload = run_json(capsys, *args)
    assert payload["written"] == ["omega-n6-seed1.json", "omega-n6-seed2.json"]
    first = {name: (out / name).read_bytes() for name in payload["written"]}
    for name in payload["written"]:
        doc = json.loads(first[name])
        assert doc["certificate"]["is_vertex"] is True
    run_json(capsys, *args)  # rerun into the same directory
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


# ─── designs ─────────────────────────────────────────────────────────────────


def test_designs_latin_grid_is_one_based(capsys):
    payload = run_json(capsys, "designs", "latin", "--order", "4", "--seed", "5")
    grid = payload["grid"]
    assert payload["order"] == 4
    for row in grid:
        assert sorted(row) == [1, 2, 3, 4]
    for j in range(4):
        assert sorted(row[j] for row in grid) == [1, 2, 3, 4]


def test_designs_double_latin(capsys):
    payload = run_json(capsys, "designs", "double-latin", "--n", "6", "--seed", "2")
    assert payload["hamiltonian"] is True
    for row in payload["grid"]:
        assert sorted(row) == [1, 1, 2, 2, 3, 3]


def test_designs_parameter_errors(capsys):
    code, _, _ = run(capsys, "designs", "latin")
    assert code == 2
    code, _, _ = run(capsys, "designs", "double-latin", "--n", "5")
    assert code == 2


def test_designs_latin_order_cap(capsys):
    """Above the cap the fill is refused at once, instead of failing or hanging."""
    code, out, _ = run(capsys, "designs", "latin", "--order", str(MAX_LATIN_ORDER), "--seed", "1")
    assert code == 0 and len(json.loads(out)["grid"]) == MAX_LATIN_ORDER
    for order in (MAX_LATIN_ORDER + 1, 10**6):
        start = time.perf_counter()
        code, out, err = run(capsys, "designs", "latin", "--order", str(order))
        assert code == 2 and out == ""
        assert f"capped at order {MAX_LATIN_ORDER}" in err
        assert time.perf_counter() - start < 1.0


def test_double_latin_order_cap_names_the_order_given(capsys):
    """construct omega and designs double-latin refuse orders whose blocks pass
    the Latin cap, in terms of the --n given rather than the block order."""
    for argv in (("construct", "omega", "--n", "64"), ("designs", "double-latin", "--n", "64")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"double Latin squares are capped at order {2 * MAX_LATIN_ORDER}; got 64" in err


# ─── bounds ──────────────────────────────────────────────────────────────────


def test_bounds_permanent(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]), encoding="utf-8")
    payload = run_json(capsys, "bounds", "permanent", str(path))
    assert payload["permanent"] == 1
    path.write_text(
        json.dumps([["1/2", "1/2"], ["1/2", "1/2"]]), encoding="utf-8"
    )
    payload = run_json(capsys, "bounds", "permanent", str(path))
    assert payload["permanent"] == "1/2"


def test_bounds_permanent_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "bounds", "permanent", str(tmp_path / "nope.json"))
    assert code == 3
    bad = tmp_path / "scalar.json"
    bad.write_text("3", encoding="utf-8")
    code, _, err = run(capsys, "bounds", "permanent", str(bad))
    assert code == 2 and "list of rows" in err


def test_bounds_report(capsys):
    payload = run_json(capsys, "bounds", "report", "--n", "4")
    assert payload["top_half_count"] == 4
    assert payload["total_log_lower_bound"] == pytest.approx(
        payload["top_half_log_lower_bound"] + payload["bottom_half_log_lower_bound"]
    )
    code, _, _ = run(capsys, "bounds", "report")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "report", "--n", "7")
    assert code == 2


def test_bounds_report_order_cap(capsys):
    payload = run_json(capsys, "bounds", "report", "--n", str(MAX_REPORT_ORDER))
    assert payload["order"] == MAX_REPORT_ORDER
    # beyond the cap: refused at once, where (n-1)! would not print or not finish
    for n in (MAX_REPORT_ORDER + 2, 2000, 10_000_000):
        code, out, err = run(capsys, "bounds", "report", "--n", str(n))
        assert code == 2 and out == ""
        assert f"capped at order {MAX_REPORT_ORDER}" in err


# ─── sample ──────────────────────────────────────────────────────────────────


def test_sample_assignment_family(capsys):
    payload = run_json(
        capsys, "sample", "--kind", "omega", "--n", "4", "--d", "1",
        "--trials", "2", "--seed", "5",
    )
    assert payload["trials"] == 2
    for entry in payload["per_trial"]:
        assert entry["alpha"] == 0.25
        assert entry["is_vertex"] is True
    assert "caveat" in payload


def test_sample_single_cell_omega_d2():
    """At n=1 the three groups of d=2 are one row and the polytope is one point;
    with or without asserts the run prints the same bytes."""
    argv = ("sample", "--kind", "omega", "--n", "1", "--d", "2")
    plain = run_subprocess(*argv)
    optimized = run_subprocess(*argv, optimize=True)
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout == optimized.stdout
    assert json.loads(plain.stdout)["aggregate"]["vertex_count"] == 1


def test_sample_lp_size_cap(capsys):
    code, out, err = run(capsys, "sample", "--kind", "omega", "--n", "6", "--d", "3")
    assert code == 2 and out == ""
    assert "capped at 1000000 LP entries (groups x cells); omega n=6, d=3 has more" in err


def test_huge_d_is_refused_without_the_power(capsys):
    """n^(d+1) would have about 5 * 10^8 digits; the refusal names n and d."""
    for command in ("enumerate", "sample"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--kind", "omega", "--n", "3", "--d", str(10**9))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "") and "n=3, d=1000000000 has more" in err
        assert len(err.encode()) < 200


def test_sample_trial_cap(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "sample", "--kind", "omega", "--n", "2", "--d", "1", "--trials", "100000000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "capped at 10000 trials; got 100000000" in err


def test_sample_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "sample", "--kind", "omega", "--n", "3", "--d", "1",
        "--trials", "1", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout


# ─── seeding and determinism ─────────────────────────────────────────────────


def test_seed_env_variable_matches_flag(capsys, monkeypatch):
    flag = run_json(capsys, "construct", "sigma", "--n", "3", "--seed", "7")
    monkeypatch.setenv("SEED", "7")
    env = run_json(capsys, "construct", "sigma", "--n", "3")
    assert env == flag
    monkeypatch.setenv("SEED", "8")
    other = run_json(capsys, "construct", "sigma", "--n", "3")
    assert other != flag


def test_seed_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("SEED", "not-a-number")
    code, _, err = run(capsys, "construct", "sigma", "--n", "3")
    assert code == 2 and "SEED" in err


@pytest.mark.parametrize(
    "text", ["٣", "1_0", " 3", "+3"], ids=["unicode-digit", "underscore", "whitespace", "plus"]
)
def test_integers_are_read_in_ascii_digits_only(capsys, monkeypatch, text):
    """int() reads each of these as a number; a flag or SEED holding one exits 2."""
    code, out, err = run(capsys, "construct", "sigma", "--n", text)
    assert (code, out) == (2, "") and f"argument --n: invalid integer value: {text!r}" in err
    monkeypatch.setenv("SEED", text)
    code, out, err = run(capsys, "construct", "sigma", "--n", "3")
    assert (code, out) == (2, "")
    assert f"SEED environment variable is not an integer: {text!r}" in err


def test_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("SEED", "9")
    payload = run_json(capsys, "construct", "sigma", "--n", "3", "--seed", "7")
    assert payload["meta"]["seed"] == 7


def test_repeated_runs_are_byte_identical(capsys):
    argvs = [
        ("construct", "omega", "--n", "6", "--seed", "4"),
        ("sample", "--kind", "omega", "--n", "3", "--d", "2", "--trials", "1"),
        ("designs", "latin", "--order", "5", "--seed", "1"),
        ("enumerate", "--kind", "omega", "--n", "2", "--d", "2"),
    ]
    for argv in argvs:
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2 and out1.endswith("\n")


def test_verbose_goes_to_stderr_only(capsys):
    code, quiet_out, quiet_err = run(capsys, "designs", "latin", "--order", "3")
    assert code == 0 and quiet_err == ""
    code, loud_out, loud_err = run(capsys, "designs", "latin", "--order", "3", "-v")
    assert code == 0
    assert loud_out == quiet_out
    assert "designs latin ok" in loud_err


# ─── committed fixtures ──────────────────────────────────────────────────────


def test_every_golden_fixture_reverifies(capsys):
    fixtures = sorted(p for p in GOLDENS.glob("*.json") if p not in NON_ARRAY_GOLDENS)
    assert len(fixtures) == 4
    for path in fixtures:
        payload = run_json(capsys, "verify", str(path))
        assert payload["member"] is True
        assert payload["is_vertex"] is True, f"{path.name} failed"


def test_construct_prints_the_committed_golden_bytes(capsys):
    _, out, _ = run(capsys, "construct", "omega", "--n", "10", "--seed", "1")
    assert out == (GOLDENS / "omega-n10-seed1.json").read_text(encoding="utf-8")


def test_construct_sigma_prints_the_committed_golden_bytes(capsys):
    """Pins the rook cycle and the symbol filling drawn for one seed."""
    _, out, _ = run(capsys, "construct", "sigma", "--n", "8", "--seed", "2")
    assert out == SIGMA_CONSTRUCT_GOLDEN.read_text(encoding="utf-8")


def test_designs_latin_prints_the_committed_golden_bytes(capsys):
    """Pins the order in which the seeded Latin fill tries symbols."""
    _, out, _ = run(capsys, "designs", "latin", "--order", "9", "--seed", "5")
    assert out == LATIN_GOLDEN.read_text(encoding="utf-8")


def test_sample_prints_the_committed_golden_bytes(capsys):
    _, out, _ = run(capsys, *SAMPLE_ARGV)
    assert out == SAMPLE_GOLDEN.read_text(encoding="utf-8")


def test_sigma_sample_prints_the_committed_golden_bytes(capsys):
    """Sigma n=4 d=2: 12 constraint groups of rank 10, three fractional optima."""
    _, out, _ = run(capsys, *SIGMA_SAMPLE_ARGV)
    assert out == SIGMA_SAMPLE_GOLDEN.read_text(encoding="utf-8")


def test_omega_d3_sample_prints_the_committed_golden_bytes(capsys):
    """Omega n=3 d=3: 108 constraint groups of rank 65, one fractional optimum."""
    _, out, _ = run(capsys, *DEEP_SAMPLE_ARGV)
    assert out == DEEP_SAMPLE_GOLDEN.read_text(encoding="utf-8")


def test_sigma_d1_sample_prints_the_committed_golden_bytes(capsys):
    _, out, _ = run(capsys, *FLAT_SAMPLE_ARGV)
    assert out == FLAT_SAMPLE_GOLDEN.read_text(encoding="utf-8")


def test_verify_prints_the_committed_witness_bytes(capsys, tmp_path):
    """A non-vertex: the midpoint of two seeded Latin squares of order 10."""
    A = midpoint(latin_to_array(random_latin(10, 1)), latin_to_array(random_latin(10, 2)))
    path = tmp_path / "midpoint.json"
    path.write_text(json.dumps(to_json_dict(PolytopeSpec("omega", 10, 2), A)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out == WITNESS_GOLDEN.read_text(encoding="utf-8")


def test_bounds_report_prints_the_committed_golden_bytes(capsys):
    _, out, _ = run(capsys, "bounds", "report", "--n", "10")
    assert out == REPORT_GOLDEN.read_text(encoding="utf-8")


def test_bounds_permanent_prints_the_committed_golden_bytes(capsys, tmp_path):
    """Order 8, mixed denominators, zeros and negative entries.  The same
    matrix with an entry out of lowest terms is refused."""
    _, out, _ = run(capsys, "bounds", "permanent", str(PERMANENT_MATRIX))
    assert out == PERMANENT_GOLDEN.read_text(encoding="utf-8")
    path = tmp_path / "unreduced.json"
    path.write_text(PERMANENT_MATRIX.read_text(encoding="utf-8").replace('"2/3"', '"4/6"', 1))
    assert run(capsys, "bounds", "permanent", str(path)) == (
        2, "", "stocharray: invalid parameters: malformed rational string: '4/6'\n"
    )


def test_enumerate_prints_the_committed_golden_bytes(capsys):
    _, out, _ = run(capsys, *ENUMERATE_ARGV)
    assert out == ENUMERATE_GOLDEN.read_text(encoding="utf-8")


def test_latin_cube_enumerate_prints_the_committed_golden_bytes(capsys):
    """omega n=3 d=2: 66 vertices, 12 of them the Latin squares of order 3."""
    _, out, _ = run(capsys, *LATIN_CUBE_ENUMERATE_ARGV)
    assert out == LATIN_CUBE_ENUMERATE_GOLDEN.read_text(encoding="utf-8")


def test_four_axis_enumerate_prints_the_committed_golden_bytes(capsys):
    """sigma n=2 d=3: 48 vertices, each printed four lists deep."""
    _, out, _ = run(capsys, *FOUR_AXIS_ENUMERATE_ARGV)
    assert out == FOUR_AXIS_ENUMERATE_GOLDEN.read_text(encoding="utf-8")
    assert json.loads(out)["count"] == 48


def test_golden_bytes_hold_under_optimize_flag(tmp_path):
    """With asserts stripped (python -O) the checks still run and the bytes match:
    the builders' certificates for construct, the rank re-check for enumerate,
    the start-basis checks and the optimum checks for sample, the kernel and
    witness checks for verify."""
    A = midpoint(latin_to_array(random_latin(10, 1)), latin_to_array(random_latin(10, 2)))
    path = tmp_path / "midpoint.json"
    path.write_text(json.dumps(to_json_dict(PolytopeSpec("omega", 10, 2), A)))
    for argv, golden in (
        (("verify", str(path)), WITNESS_GOLDEN),
        (("construct", "omega", "--n", "10", "--seed", "1"), GOLDENS / "omega-n10-seed1.json"),
        (("construct", "sigma", "--n", "8", "--seed", "2"), SIGMA_CONSTRUCT_GOLDEN),
        (ENUMERATE_ARGV, ENUMERATE_GOLDEN),
        (LATIN_CUBE_ENUMERATE_ARGV, LATIN_CUBE_ENUMERATE_GOLDEN),
        (FOUR_AXIS_ENUMERATE_ARGV, FOUR_AXIS_ENUMERATE_GOLDEN),
        (SAMPLE_ARGV, SAMPLE_GOLDEN),
        (SIGMA_SAMPLE_ARGV, SIGMA_SAMPLE_GOLDEN),
        (DEEP_SAMPLE_ARGV, DEEP_SAMPLE_GOLDEN),
        (FLAT_SAMPLE_ARGV, FLAT_SAMPLE_GOLDEN),
    ):
        proc = run_subprocess(*argv, optimize=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden.read_text(encoding="utf-8")


def test_certificate_failure_exits_one(capsys, monkeypatch):
    A = midpoint(latin_to_array(random_latin(4, 1)), latin_to_array(random_latin(4, 2)))
    text = json.dumps(to_json_dict(PolytopeSpec("omega", 4, 2), A))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    monkeypatch.setattr(certify, "_shift", lambda A, delta, sign: A)
    code, out, err = run(capsys, "verify", "-")
    assert code == 1 and out == ""
    assert "certificate check failed: witness members coincide" in err
