"""Write goldens/pivot-pin.json: the pivot count and optimum of 75 seeded solves.

`sample` prints only facts of the optimal vertex, so a change to the
simplex that takes another pivot path leaves its bytes as they are.  This
pin holds the path instead: for each solve, `solve_lp` from `lp_start(spec)`
under `gaussian_objective(spec, seed)`, it records the pivots made and the
optimum reached.  The solves cover both kinds at d = 1..3, n = 1..4 (and
n = 5 at d = 1; omega at d = 3 only up to n = 3), seeds 1-3.
`test_sample.py` re-runs every solve and compares.

Run from the repository root, at the commit whose pivots are the reference:

    PYTHONPATH=src python tests/pivot_pin.py
"""

from construct_sweep import GOLDENS, render
from stocharray.core import PolytopeSpec, fraction_to_json
from stocharray.sample import gaussian_objective, lp_start
from stocharray.simplex import solve_lp

PIN = GOLDENS / "pivot-pin.json"


def solves() -> list:
    out = []
    for kind in ("omega", "sigma"):
        for d, top in ((1, 5), (2, 4), (3, 3 if kind == "omega" else 4)):
            for n in range(1, top + 1):
                out += [(kind, n, d, seed) for seed in (1, 2, 3)]
    return out


def record(kind: str, n: int, d: int, seed: int) -> dict:
    """Solve once and describe the pivot path's length and its end."""
    spec = PolytopeSpec(kind, n, d)
    res = solve_lp(lp_start(spec), gaussian_objective(spec, seed).coefficients)
    return {"kind": kind, "n": n, "d": d, "seed": seed,
            "pivots": res.pivots, "optimum": fraction_to_json(res.objective)}


if __name__ == "__main__":
    PIN.write_text(render([record(*solve) for solve in solves()]), encoding="utf-8")
