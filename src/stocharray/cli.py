"""Command-line interface.

Subcommands: verify, enumerate, construct, designs, bounds, sample.
All output is deterministic JSON on stdout (sorted keys, two-space
indent, trailing newline, no timestamps).  Seeds resolve as: --seed
flag, else the SEED environment variable, else 0.

Exit codes: 0 success, 1 internal, construction or certificate-check
failure, 2 invalid parameters, 3 input/output failure, 4 unknown subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from stocharray import __version__
from stocharray.bounds import construction_count_report, permanent
from stocharray.certify import (
    CertificateError,
    _graph_certificate,
    _rank_certificate,
    enumerate_vertices,
)
from stocharray.core import (
    HALF,
    PolytopeSpec,
    fraction_from_json,
    fraction_to_json,
    from_json_dict,
    is_member,
    to_json_dict,
)
from stocharray.designs import is_hamiltonian, random_latin
from stocharray.omega_build import ConstructionError, build_double_latin, construct_vertex
from stocharray.sample import MAX_TRIALS, run_experiment
from stocharray.sigma_build import construct_sigma_vertex

import random


def _render(payload: dict) -> str:
    """Exactly ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``."""
    return _dumps(payload, "\n") + "\n"


def _dumps(x, newline: str) -> str:
    """``json.dumps(x, sort_keys=True, indent=2)`` with ``newline`` for each line break.

    The json module encodes in pure Python when it indents, a call per value;
    here each non-empty list or str-keyed dict is one join, and a list's
    ints and strings are encoded in place.  Any other value, empty
    containers included, goes to json.dumps, whose line breaks are re-indented
    (a JSON string holds no raw line break).
    """
    inner = newline + "  "
    if type(x) is list and x:
        items = [
            str(v) if type(v) is int else _string(v) if type(v) is str else _dumps(v, inner)
            for v in x
        ]
    elif type(x) is dict and x and all(type(k) is str for k in x):
        items = [f"{_string(k)}: {_dumps(v, inner)}" for k, v in sorted(x.items())]
    else:
        return json.dumps(x, sort_keys=True, indent=2).replace("\n", newline)
    brackets = "[]" if type(x) is list else "{}"
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _emit(payload: dict) -> None:
    sys.stdout.write(_render(payload))


def _note(verbose: bool, message: str) -> None:
    if verbose:
        sys.stderr.write(f"stocharray: {message}\n")


def _meta(command: str, seed=None, **params) -> dict:
    meta = {
        "tool": "stocharray",
        "version": __version__,
        "command": command,
        "params": params,
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def _brief(text: str) -> str:
    """``text`` in full up to 20 characters, else its first 16 and its length."""
    return text if len(text) <= 20 else f"{text[:16]}... ({len(text)} characters)"


def integer(text: str) -> int:
    """An integer in ASCII digits with an optional leading minus.  int() alone
    also takes other scripts' digits, underscores, whitespace and a plus."""
    if re.fullmatch(r"-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid integer value: {_brief(text)!r}")


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SEED")
    if env is not None:
        try:
            return integer(env)
        except argparse.ArgumentTypeError:
            raise ValueError(f"SEED environment variable is not an integer: {_brief(env)!r}")
    return 0


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise OSError(f"{path}: JSON nests too deeply to parse") from None


def _certificate_json(spec, cert) -> dict:
    out = {"is_vertex": cert.is_vertex, "method": cert.method}
    if cert.witness is not None:
        X, Y = cert.witness
        out["witness"] = {
            "x": to_json_dict(spec, X)["entries"],
            "y": to_json_dict(spec, Y)["entries"],
        }
    return out


def _cmd_verify(argv) -> int:
    p = argparse.ArgumentParser(prog="stocharray verify")
    p.add_argument("file", nargs="?", default="-", help="array JSON file, or - for stdin")
    p.add_argument("--method", choices=("graph", "rank", "both"), default="both")
    p.add_argument("-v", "--verbose", action="store_true")
    a = p.parse_args(argv)
    spec, A = from_json_dict(_read_json(a.file))
    out = _meta("verify", method=a.method, kind=spec.kind, n=spec.n, d=spec.d)
    payload = {"meta": out, "member": is_member(A, spec)}
    if not payload["member"]:
        payload["is_vertex"] = None
        _emit(payload)
        return 0
    half_integral = all(v in (0, HALF, 1) for v in A.entries)
    methods = {}
    if a.method in ("graph", "both"):
        if half_integral:
            methods["graph"] = _certificate_json(spec, _graph_certificate(A, spec))
        elif a.method == "graph":
            raise ValueError(
                "the graph criterion needs a half-integral array; use --method rank"
            )
        else:
            methods["graph"] = {"applicable": False}
    if a.method in ("rank", "both"):
        methods["rank"] = _certificate_json(spec, _rank_certificate(A, spec))
    verdicts = {m["is_vertex"] for m in methods.values() if "is_vertex" in m}
    if len(verdicts) != 1:
        raise RuntimeError("graph and rank criteria disagree")
    payload["is_vertex"] = verdicts.pop()
    payload["methods"] = methods
    _emit(payload)
    _note(a.verbose, f"verify ok (is_vertex={payload['is_vertex']})")
    return 0


def _cmd_enumerate(argv) -> int:
    p = argparse.ArgumentParser(prog="stocharray enumerate")
    p.add_argument("--kind", choices=("omega", "sigma"), required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--d", type=integer, default=2)
    p.add_argument("-v", "--verbose", action="store_true")
    a = p.parse_args(argv)
    spec = PolytopeSpec(a.kind, a.n, a.d)
    vertices = enumerate_vertices(spec)
    payload = {
        "meta": _meta("enumerate", kind=a.kind, n=a.n, d=a.d),
        "count": len(vertices),
        "vertices": [to_json_dict(spec, v)["entries"] for v in vertices],
    }
    _emit(payload)
    _note(a.verbose, f"enumerate ok ({len(vertices)} vertices)")
    return 0


def _construct_one(family: str, n: int, seed: int) -> dict:
    if family == "omega":
        A, cert = construct_vertex(n, seed)
        spec = PolytopeSpec("omega", n, 2)
    else:
        A, cert = construct_sigma_vertex(n, seed)
        spec = PolytopeSpec("sigma", n, 2)
    doc = to_json_dict(spec, A)
    doc["meta"] = _meta(f"construct {family}", seed=seed, n=n)
    doc["support"] = len(A.support_indices())
    doc["certificate"] = _certificate_json(spec, cert)
    return doc


def _cmd_construct(argv) -> int:
    p = argparse.ArgumentParser(prog="stocharray construct")
    p.add_argument("family", choices=("omega", "sigma"))
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--seed", type=integer, default=None)
    p.add_argument("--count", type=integer, default=1, help="number of runs, seeds seed..seed+count-1")
    p.add_argument("--out", help="directory to write one JSON file per run")
    p.add_argument("-v", "--verbose", action="store_true")
    a = p.parse_args(argv)
    if a.count < 1:
        raise ValueError("--count must be at least 1")
    if a.count > MAX_TRIALS:
        raise ValueError(f"construct is capped at a count of {MAX_TRIALS}; got {a.count}")
    seed = _resolve_seed(a.seed)
    docs = [(seed + i, _construct_one(a.family, a.n, seed + i)) for i in range(a.count)]
    if a.out:
        os.makedirs(a.out, exist_ok=True)
        written = []
        for run_seed, doc in docs:
            name = f"{a.family}-n{a.n}-seed{run_seed}.json"
            with open(os.path.join(a.out, name), "w", encoding="utf-8") as fh:
                fh.write(_render(doc))
            written.append(name)
        payload = {
            "meta": _meta(f"construct {a.family}", seed=seed, n=a.n, count=a.count),
            "out": a.out,
            "written": written,
        }
    elif a.count == 1:
        payload = docs[0][1]
    else:
        payload = {
            "meta": _meta(f"construct {a.family}", seed=seed, n=a.n, count=a.count),
            "results": [doc for _, doc in docs],
        }
    _emit(payload)
    _note(a.verbose, f"construct {a.family} ok ({a.count} run(s))")
    return 0


def _cmd_designs(argv) -> int:
    p = argparse.ArgumentParser(prog="stocharray designs")
    p.add_argument("what", choices=("latin", "double-latin"))
    p.add_argument("--order", type=integer, help="order of the Latin square")
    p.add_argument("--n", type=integer, help="order of the double Latin square (even)")
    p.add_argument("--seed", type=integer, default=None)
    p.add_argument("-v", "--verbose", action="store_true")
    a = p.parse_args(argv)
    seed = _resolve_seed(a.seed)
    if a.what == "latin":
        if a.order is None:
            p.error("latin requires --order")
        L = random_latin(a.order, seed)
        payload = {
            "meta": _meta("designs latin", seed=seed, order=a.order),
            "order": a.order,
            "grid": [[v + 1 for v in row] for row in L.grid],
        }
    else:
        if a.n is None:
            p.error("double-latin requires --n")
        X = build_double_latin(a.n, random.Random(seed))
        payload = {
            "meta": _meta("designs double-latin", seed=seed, n=a.n),
            "order": a.n,
            "grid": [[v + 1 for v in row] for row in X.grid],
            "hamiltonian": is_hamiltonian(X),
        }
    _emit(payload)
    _note(a.verbose, f"designs {a.what} ok")
    return 0


def _cmd_bounds(argv) -> int:
    p = argparse.ArgumentParser(prog="stocharray bounds")
    p.add_argument("what", choices=("permanent", "report"))
    p.add_argument("file", nargs="?", default="-",
                   help="matrix JSON for 'permanent', ignored for 'report'")
    p.add_argument("--n", type=integer, help="order for 'report' (even)")
    p.add_argument("-v", "--verbose", action="store_true")
    a = p.parse_args(argv)
    if a.what == "permanent":
        raw = _read_json(a.file)
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            raise ValueError("matrix JSON must be a list of rows")
        M = [[fraction_from_json(v) for v in row] for row in raw]
        value = permanent(M)
        payload = {
            "meta": _meta("bounds permanent", order=len(M)),
            "permanent": fraction_to_json(Fraction(value)),
        }
    else:
        if a.n is None:
            p.error("report requires --n")
        payload = {"meta": _meta("bounds report", n=a.n)}
        payload.update(construction_count_report(a.n))
    _emit(payload)
    _note(a.verbose, f"bounds {a.what} ok")
    return 0


def _cmd_sample(argv) -> int:
    p = argparse.ArgumentParser(prog="stocharray sample")
    p.add_argument("--kind", choices=("omega", "sigma"), required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--d", type=integer, default=2)
    p.add_argument("--trials", type=integer, default=1)
    p.add_argument("--seed", type=integer, default=None)
    p.add_argument("--out", help="also write the report JSON to this file")
    p.add_argument("-v", "--verbose", action="store_true")
    a = p.parse_args(argv)
    seed = _resolve_seed(a.seed)
    spec = PolytopeSpec(a.kind, a.n, a.d)
    report = run_experiment(spec, a.trials, seed=seed)
    payload = {
        "meta": _meta("sample", seed=seed, kind=a.kind, n=a.n, d=a.d, trials=a.trials),
    }
    payload.update(report.to_json_dict())
    if a.out:
        with open(a.out, "w", encoding="utf-8") as fh:
            fh.write(_render(payload))
    _emit(payload)
    _note(a.verbose, f"sample ok ({a.trials} trial(s))")
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "construct": _cmd_construct,
    "designs": _cmd_designs,
    "bounds": _cmd_bounds,
    "sample": _cmd_sample,
}

_USAGE = """usage: stocharray <command> [options]

commands:
  verify     check membership and vertexhood of an array JSON file
  enumerate  list all vertices of a small polytope
  construct  build a seeded fractional vertex (omega | sigma)
  designs    generate a random Latin or double Latin square
  bounds     exact permanent of a matrix, or construction count report
  sample     maximize seeded Gaussian objectives and certify the optima

run 'stocharray <command> --help' for command options
"""


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0 if args else 2
    if args[0] == "--version":
        sys.stdout.write(f"stocharray {__version__}\n")
        return 0
    handler = _HANDLERS.get(args[0])
    if handler is None:
        sys.stderr.write(f"stocharray: unknown command {args[0]!r}\n{_USAGE}")
        return 4
    try:
        return handler(args[1:])
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    except (OSError, json.JSONDecodeError) as e:
        # JSONDecodeError subclasses ValueError, so this arm must come first
        sys.stderr.write(f"stocharray: i/o failure: {e}\n")
        return 3
    except ValueError as e:
        # a huge value prints in brief, so that it cannot flood stderr
        message = re.sub(r"[0-9]{21,}", lambda m: _brief(m[0]), str(e))
        sys.stderr.write(f"stocharray: invalid parameters: {message}\n")
        return 2
    except ConstructionError as e:
        sys.stderr.write(f"stocharray: construction failed: {e}\n")
        return 1
    except CertificateError as e:
        sys.stderr.write(f"stocharray: certificate check failed: {e}\n")
        return 1
    except Exception as e:  # pragma: no cover - defensive catch-all
        sys.stderr.write(f"stocharray: internal error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
