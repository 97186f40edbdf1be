"""Show that every oracle accepts a right output and rejects a wrong one.

    python3 perfbench/selftest.py [--seed N]

For one op of each kind, runs the op, checks that its oracle passes, then
feeds the oracle a deliberately wrong output (a perturbed value, a moved
minimizer or domain vertex, a failing report) and checks that it is counted
as a failure.  Exits 1 if any wrong output slips through.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _rewrite(path, edit):
    data = oracles.load(path)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def _shift_intercepts(d):
    for p in d["pieces"]:
        p["c"] += 1e-3


def _move_domain_vertex(d):
    d["domain"]["vertices"][0][0] += 1e-6


def _scale_atom(d):
    d["atoms"][0]["mass"] *= 1 + 1e-6


def _perturb_value(d):
    d["evaluations"][0]["value"] += 1e-6


def _suboptimal_minimizer(op):
    """Move one minimizer 30% of the way to its query point (feasible, since
    both ends are) and make the value consistent with it, so that only the
    optimality check can catch it."""
    data = oracles.load(op.out)
    base = oracles.EnvelopeBase(oracles.load(op.out.replace("_out.json", "_in.json")))
    lam = data["lambda"]
    for row in data["evaluations"]:
        x, y0 = np.asarray(row["x"]), np.asarray(row["minimizer"])
        if np.all(base.A @ x <= base.b) and np.abs(x - y0).max() > 1e-6:
            y = y0 + 0.3 * (x - y0)
            row["minimizer"] = y.tolist()
            row["value"] = base.value(y) + 0.5 * lam * float((x - y) @ (x - y))
            break
    else:
        raise RuntimeError("no query point inside dom u with a moved minimizer")
    with open(op.out, "w") as fh:
        json.dump(data, fh)


def _bump_z(d):
    d["z_zeta"] *= 1 + 1e-7


def _bump_z_1pct(d):
    d["z_zeta"] *= 1.02


def _bump_usc(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows[1][1] = repr(float(rows[1][1]) * (1 + 1e-7))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# op kind -> list of (description, corruption); a corruption edits the
# output file of a CLI op, or maps the result of a library op to a wrong one
CORRUPTIONS = {
    "conjugate": [("intercepts + 1e-3", lambda op, r: _rewrite(op.out, _shift_intercepts))],
    "infconv": [("intercepts + 1e-3", lambda op, r: _rewrite(op.out, _shift_intercepts)),
                ("domain vertex moved 1e-6", lambda op, r: _rewrite(op.out, _move_domain_vertex))],
    "ma": [("one atom mass * (1 + 1e-6)", lambda op, r: _rewrite(op.out, _scale_atom))],
    "envelope": [("value + 1e-6", lambda op, r: _rewrite(op.out, _perturb_value)),
                 ("suboptimal minimizer", lambda op, r: _suboptimal_minimizer(op))],
    "envelope_z": [("Z * 1.02", lambda op, r: r * 1.02)],
    "zvalue": [("z_zeta * (1 + 1e-7)", lambda op, r: _rewrite(op.out, _bump_z))],
    "zvalue_numeric": [("z_zeta * 1.02", lambda op, r: _rewrite(op.out, _bump_z_1pct))],
    "usc": [("z_value * (1 + 1e-7)", lambda op, r: _bump_usc(op.out))],
    "identity": [("residual above tolerance",
                  lambda op, r: dataclasses.replace(r, residual=10 * r.tolerance)),
                 ("tolerance of wrong Z values",
                  lambda op, r: dataclasses.replace(r, tolerance=1.01 * r.tolerance))],
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    workdir = os.path.join(ROOT, ".perfbench_out", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    missed = 0
    for name in WORKLOADS:
        wl = workloads.build(name)
        seen = set()
        for op in wl.round(args.seed, 0, workdir):
            if op.kind in seen:
                continue
            seen.add(op.kind)
            result = op.call()
            ok = op.check(result)
            print(f"{op.label:<36} right output: {'accepted' if ok is None else 'REJECTED: ' + ok}")
            missed += ok is not None
            for desc, corrupt in CORRUPTIONS[op.kind]:
                if op.out is None:
                    verdict = op.check(corrupt(op, result))
                else:
                    op.call()
                    corrupt(op, result)
                    verdict = op.check(result)
                print(f"{'':<36} {desc}: {'MISSED' if verdict is None else 'failed: ' + verdict}")
                missed += verdict is None
    print(f"{missed} oracle checks went wrong")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
