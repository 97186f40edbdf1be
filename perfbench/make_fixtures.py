"""Regenerate the frozen fixtures in perfbench/fixtures/.

    python3 perfbench/make_fixtures.py

Staircase PLQ inputs are made with ``affval construct staircase`` and
stored as the CLI wrote them, so that later edits to ``affval.sequences``
cannot change what the benchmark loads.  The envelope-quadrature bases are
drawn by the benchmark's own generator from a fixed seed, and their
``Z_zeta`` reference values are computed with the library at the commit
that writes the fixture; the benchmark checks later values against them
within 1%.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from affval import cli, jsonio  # noqa: E402
from affval.transforms import EnvelopeFn  # noqa: E402
from affval.valuations import sqrt_zeta, z_zeta_numeric  # noqa: E402

# (n, m, s, a, r, t1, t2): the zvalue sizes, then the small envelope bases
STAIRCASES = [
    (2, 4, 0.0, 1.0, 2.0, 1.0, 1.0),
    (2, 8, 0.25, 1.0, 2.5, 1.2, 0.8),
    (2, 16, 0.1, 0.7, 1.9, 0.9, 1.1),
    (2, 32, 0.0, 1.3, 3.0, 1.0, 1.0),
    (3, 4, 0.2, 1.1, 2.2, 1.1, 0.9),
    (3, 8, 0.0, 1.0, 2.0, 1.0, 1.0),
    (3, 16, 0.3, 0.9, 2.4, 0.8, 1.2),
    (3, 24, 0.0, 1.0, 2.0, 1.0, 1.0),
    (2, 1, 0.2, 1.0, 2.0, 1.0, 1.0),
    (2, 2, 0.1, 0.8, 1.8, 1.0, 1.0),
    (3, 1, 0.2, 1.0, 2.0, 1.0, 1.0),
    (3, 2, 0.1, 0.8, 1.8, 1.0, 1.0),
]

ENV_LAM, ENV_MU, ENV_GRID, ENV_ZETA = 1.5, 0.3, 4, "sqrt"


def construct_staircase(n, m, s, a, r, t1, t2) -> dict:
    out = os.path.join(FIXTURES, "staircase.tmp.json")
    rc = cli.main(["construct", "staircase", "--s", repr(s), "--a", repr(a), "--r", repr(r),
                   "--t1", repr(t1), "--t2", repr(t2), "--m", str(m), "--n", str(n),
                   "--out", out])
    if rc != 0:
        raise SystemExit(f"affval construct staircase failed with exit code {rc}")
    with open(out) as fh:
        fn = json.load(fh)
    os.remove(out)
    return {"n": n, "m": m, "s": s, "a": a, "r": r, "t1": t1, "t2": t2, "function": fn}


def envelope_quadrature_bases(staircases) -> list[dict]:
    rng = np.random.default_rng(20251208)
    pa, _ = inputs.compact_pa(rng, 2, 4, "vertices")
    quad, _ = inputs.quad_cell_plq(rng, 2, "vertices")
    stair = next(f["function"] for f in staircases if (f["n"], f["m"]) == (2, 1))
    out = []
    for kind, fn in (("pa", pa), ("quad", quad), ("staircase", stair)):
        env = EnvelopeFn(jsonio.function_from_dict(fn), ENV_LAM, ENV_MU)
        z = z_zeta_numeric(env, env.domain, sqrt_zeta(), grid=ENV_GRID)
        out.append({"kind": kind, "lam": ENV_LAM, "mu": ENV_MU, "grid": ENV_GRID,
                    "zeta": ENV_ZETA, "z_ref": z, "function": fn})
    return out


def main() -> None:
    os.makedirs(FIXTURES, exist_ok=True)
    staircases = [construct_staircase(*spec) for spec in STAIRCASES]
    with open(os.path.join(FIXTURES, "staircases.json"), "w") as fh:
        json.dump(staircases, fh)
    with open(os.path.join(FIXTURES, "envelope_quadrature.json"), "w") as fh:
        json.dump(envelope_quadrature_bases(staircases), fh)


if __name__ == "__main__":
    main()
