"""Write the byte manifests: the bytes of seeded CLI commands, in goldens/.

Each entry holds one command's argv, its exit code, and the sha256 of its
stdout and of its stderr, as `stocharray.cli.main` produces them in-process.
There are two manifests:

* goldens/construct-sweep.json, 600 builder commands: `construct omega`
  (including the seeds at n=6 that fail), `construct sigma` and
  `designs double-latin`;
* goldens/sample-sweep.json, 63 `sample` commands: both kinds at
  d = 1..3 and small n, seeds 1-3, two trials each, and three refusals.

`test_construct_sweep.py` re-runs every command and compares.

Run from the repository root, at the commit whose bytes are the reference:

    PYTHONPATH=src python tests/construct_sweep.py

Running it under `python -O` and finding the files unchanged (`git diff`)
shows that the bytes do not depend on assert statements.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from stocharray.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
MANIFEST = GOLDENS / "construct-sweep.json"
SAMPLE_MANIFEST = GOLDENS / "sample-sweep.json"


def commands() -> list:
    out = []
    for n in (6, 8, 10, 12, 14, 16, 20):
        out += [["construct", "omega", "--n", str(n), "--seed", str(s)] for s in range(25)]
    out += [["construct", "omega", "--n", "6", "--seed", str(s)] for s in range(25, 300)]
    for n in (*range(2, 11), 30):
        out += [["construct", "sigma", "--n", str(n), "--seed", str(s)] for s in range(10)]
    for n in range(2, 21, 2):
        out += [["designs", "double-latin", "--n", str(n), "--seed", str(s)] for s in range(5)]
    return out


def sample_commands() -> list:
    out = []
    for kind in ("omega", "sigma"):
        for d, orders in ((1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (2, 3))):
            for n in orders:
                out += [
                    ["sample", "--kind", kind, "--n", str(n), "--d", str(d),
                     "--trials", "2", "--seed", str(s)]
                    for s in (1, 2, 3)
                ]
    # refused: a huge d, too many trials, and an LP over the entry cap
    out.append(["sample", "--kind", "omega", "--n", "3", "--d", "1000000000"])
    out.append(["sample", "--kind", "omega", "--n", "3", "--trials", "10001"])
    out.append(["sample", "--kind", "omega", "--n", "15"])
    return out


def record(argv: list) -> dict:
    """Run one command in-process and describe what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def render(entries: list) -> str:
    """One entry per line, so a changed entry shows as one changed line."""
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def changed(manifest: Path, argvs: list) -> list:
    """The commands, as text, whose record differs from the manifest's entry.

    The manifest must list exactly ``argvs``, in order.
    """
    entries = json.loads(manifest.read_text(encoding="utf-8"))
    assert [e["argv"] for e in entries] == argvs, f"{manifest.name} lists other commands"
    return [" ".join(e["argv"]) for e in entries if record(e["argv"]) != e]


if __name__ == "__main__":
    for manifest, argvs in ((MANIFEST, commands()), (SAMPLE_MANIFEST, sample_commands())):
        manifest.write_text(render([record(argv) for argv in argvs]), encoding="utf-8")
