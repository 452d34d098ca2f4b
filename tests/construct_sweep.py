"""Write goldens/construct-sweep.json: the bytes of 600 seeded builder commands.

Each entry holds one command's argv, its exit code, and the sha256 of its
stdout and of its stderr, as `stocharray.cli.main` produces them in-process.
The commands are `construct omega` (including the seeds at n=6 that fail),
`construct sigma` and `designs double-latin`.  `test_construct_sweep.py`
re-runs every command and compares.

Run from the repository root, at the commit whose bytes are the reference:

    PYTHONPATH=src python tests/construct_sweep.py

Running it under `python -O` and finding the file unchanged (`git diff`)
shows that the bytes do not depend on assert statements.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from stocharray.cli import main

MANIFEST = Path(__file__).resolve().parent.parent / "goldens" / "construct-sweep.json"


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
    """One entry per line, so a changed command shows as one changed line."""
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


if __name__ == "__main__":
    MANIFEST.write_text(render([record(argv) for argv in commands()]), encoding="utf-8")
