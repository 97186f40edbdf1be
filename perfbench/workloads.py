"""The three benchmark workloads.

A workload is a list of op slots that makes up one round.  Round r of a run
draws its inputs from ``default_rng([seed, r])`` and runs its slots in a
shuffled order, so a run is a sequence of rounds with a fixed mix of op
kinds and sizes while no two ops share an input.  Every op reads its inputs
from files and is either an in-process ``affval.cli.main`` call or a
public library call for a path the CLI does not expose.  Its output is
checked afterwards by an oracle from ``oracles``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import inputs
import oracles
from affval import cli, jsonio, transforms, valuations

ZETAS = ("sqrt", "power:0.3", "power:0.7")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


@dataclass
class Op:
    """One timed call and the untimed check of its result."""

    kind: str
    label: str
    size: dict
    call: object          # () -> result
    check: object         # (result) -> None or a reason it is wrong
    out: str | None = None  # output file of a CLI op


@dataclass
class Workload:
    name: str
    slots: list           # one round: (maker, kwargs) pairs
    warmup: list          # one small slot per op kind
    trace_rounds: int     # rounds in a traced run
    setup_rounds: int     # rounds generated during set-up

    def round(self, seed, r, workdir, slots=None) -> list[Op]:
        rng = np.random.default_rng([seed, r])
        slots = self.slots if slots is None else slots
        order = rng.permutation(len(slots))
        ops = []
        for i in order:
            maker, kw = slots[i]
            tag = os.path.join(workdir, f"r{r}_{i}")
            ops.append(maker(rng, tag, np.random.default_rng([seed, r, int(i), 1]), **kw))
        return ops


def _cli_op(kind, label, size, argv, verify, out) -> Op:
    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        return verify()
    return Op(kind, label, size, lambda: cli.main(argv), check, out)


# ---------------------------------------------------------------------------
# pa_duality


def conjugate(rng, tag, orng, n, k, form):
    if form == "finite":
        fn = inputs.finite_pa(rng, n, k)
    else:
        fn, _ = inputs.compact_pa(rng, n, k, form)
    src, out = tag + "_in.json", tag + "_out.json"
    inputs.write_json(src, fn)
    return _cli_op("conjugate", f"conjugate/n{n}/k{k}/{form}", {"n": n, "k": k},
                   ["conjugate", "--in", src, "--out", out],
                   lambda: oracles.check_conjugate(fn, oracles.load(out), orng), out)


def infconv(rng, tag, orng, n, k, nv):
    u, _ = inputs.compact_pa(rng, n, k, "vertices", count=nv)
    v, _ = inputs.compact_pa(rng, n, k, "halfspaces", count=nv)
    fu, fv, out = tag + "_u.json", tag + "_v.json", tag + "_out.json"
    inputs.write_json(fu, u)
    inputs.write_json(fv, v)
    return _cli_op("infconv", f"infconv/n{n}/k{k}", {"n": n, "k": 2 * k},
                   ["infconv", fu, fv, "--out", out],
                   lambda: oracles.check_infconv(u, v, oracles.load(out), orng), out)


def ma(rng, tag, orng, n, k):
    fn = inputs.finite_pa(rng, n, k)
    src, out = tag + "_in.json", tag + "_out.json"
    inputs.write_json(src, fn)
    return _cli_op("ma", f"ma/n{n}/k{k}", {"n": n, "k": k}, ["ma", src, "--out", out],
                   lambda: oracles.check_ma(fn, oracles.load(out)), out)


# ---------------------------------------------------------------------------
# envelope_query


def envelope(rng, tag, orng, n, base, grid, fixtures):
    if base.startswith("staircase"):
        fx = fixtures[(n, int(base[-1]))]
        shift = rng.uniform(-1.0, 1.0, n)
        fn = inputs.shift_plq(fx["function"], shift, rng.uniform(-0.5, 0.5, n),
                              float(rng.uniform(-1, 1)))
        half = np.array([fx["t1"], fx["t2"]] + [1.0] * (n - 2))
        ys = shift + 0.95 * half * rng.uniform(-1.0, 1.0, (grid, n))
        cells = len(fn["cells"])
    elif base == "pa":
        fn, P = inputs.compact_pa(rng, n, 4, "vertices")
        ys, cells = P.interior(rng, grid), 4
    else:
        fn, P = inputs.quad_cell_plq(rng, n, "vertices" if base == "quadV" else "halfspaces")
        ys, cells = P.interior(rng, grid), 1
    lam, mu = float(rng.uniform(0.8, 2.0)), float(rng.uniform(0.15, 0.4))
    pts = ys + mu * rng.uniform(-0.95, 0.95, (grid, n))
    src, gpath, out = tag + "_in.json", tag + "_grid.json", tag + "_out.json"
    inputs.write_json(src, fn)
    inputs.write_json(gpath, {"points": pts.tolist()})
    return _cli_op(
        "envelope", f"envelope/n{n}/{base}/pts{grid}", {"n": n, "cells": cells, "points": grid},
        ["envelope", src, "--lambda", repr(lam), "--mu", repr(mu), "--eval-grid", gpath,
         "--out", out],
        lambda: oracles.check_envelope(oracles.EnvelopeBase(fn), oracles.load(out), pts, lam, mu),
        out)


def envelope_z(rng, tag, orng, index, quad_fixtures):
    """z_zeta_numeric on an EnvelopeFn: a translated, vertically shifted copy
    of a fixture base, so the reference value still applies."""
    fx = quad_fixtures[index]
    fn, n = fx["function"], 2
    shift, const = rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1, 1))
    if fn["type"] == "plq":
        fn = inputs.shift_plq(fn, shift, np.zeros(n), const)
        verts = np.vstack([c["poly"]["vertices"] for c in fn["cells"]])
    else:
        G = np.array([p["grad"] for p in fn["pieces"]])
        c = np.array([p["c"] for p in fn["pieces"]]) - G @ shift + const
        verts = np.asarray(fn["domain"]["vertices"]) + shift
        fn = inputs.pa_json(G, c, {"dim": n, "vertices": verts.tolist()})
    src = tag + "_in.json"
    inputs.write_json(src, fn)
    lam, mu, grid = fx["lam"], fx["mu"], fx["grid"]

    def call():
        env = transforms.EnvelopeFn(jsonio.load_function(src), lam, mu)
        return valuations.z_zeta_numeric(env, env.domain, valuations.sqrt_zeta(), grid=grid)

    def check(z):
        return oracles.check_envelope_quadrature(z, verts, lam, mu, n, fx["zeta"], fx["z_ref"])

    return Op("envelope_z", f"envelope_z/n2/{fx['kind']}/grid{grid}",
              {"n": n, "points": grid ** n}, call, check)


# ---------------------------------------------------------------------------
# plq_valuation


def _valuation_consts(rng):
    return ZETAS[int(rng.integers(len(ZETAS)))], float(rng.uniform(-1, 1)), float(rng.uniform(0, 2))


def zvalue(rng, tag, orng, n, m, fixtures):
    fx = fixtures[(n, m)]
    fn = inputs.shift_plq(fx["function"], rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 0.5, n),
                          float(rng.uniform(-1, 1)))
    zeta, c0, c1 = _valuation_consts(rng)
    src, out = tag + "_in.json", tag + "_out.json"
    inputs.write_json(src, fn)
    # "--c0=VALUE": argparse reads a separate "-8e-05" as an option, not a value
    return _cli_op("zvalue", f"zvalue/n{n}/m{m}", {"n": n, "cells": len(fn["cells"])},
                   ["zvalue", src, "--zeta", zeta, f"--c0={c0!r}", f"--c1={c1!r}",
                    "--out", out],
                   lambda: oracles.check_zvalue(fn, oracles.load(out), fx, zeta, c0, c1), out)


def zvalue_numeric(rng, tag, orng, n, grid, form):
    fn, _ = inputs.quad_cell_plq(rng, n, form)
    zeta = ZETAS[int(rng.integers(len(ZETAS)))]
    src, out = tag + "_in.json", tag + "_out.json"
    inputs.write_json(src, fn)
    return _cli_op("zvalue_numeric", f"zvalue_numeric/n{n}/grid{grid}/{form}",
                   {"n": n, "cells": 1, "points": grid ** n},
                   ["zvalue", src, "--zeta", zeta, "--numeric", "--grid", str(grid),
                    "--out", out],
                   lambda: oracles.check_numeric_zvalue(fn, oracles.load(out), zeta), out)


def usc(rng, tag, orng, n, ms):
    s = float(rng.uniform(0.0, 0.5))
    a = s + float(rng.uniform(0.3, 1.0))
    r = a + float(rng.uniform(0.3, 1.5))
    zeta, c0, c1 = _valuation_consts(rng)
    cfg_path, out = tag + "_cfg.json", tag + "_out.csv"
    cfg = {"zeta": zeta, "c0": c0, "c1": c1, "out_csv": out,
           "sequence": {"kind": "staircase", "s": s, "a": a, "r": r, "n": n,
                        "t1": float(rng.uniform(0.5, 1.5)), "t2": float(rng.uniform(0.5, 1.5)),
                        "ms": list(ms)}}
    inputs.write_json(cfg_path, cfg)
    return _cli_op("usc", f"usc/n{n}/m{max(ms)}", {"n": n, "cells": sum(2 * m + 1 for m in ms)},
                   ["experiment", "usc", "--config", cfg_path],
                   lambda: oracles.check_usc(out, cfg), out)


def identity(rng, tag, orng, n, kind):
    """valuation_identity_check on a pair whose pointwise min is convex: one
    function restricted to two overlapping boxes with a box as union."""
    lo = rng.uniform(-2.0, -1.0, n)
    hi = lo + rng.uniform(1.0, 2.0, n)
    axis = int(rng.integers(n))
    hi_u, lo_v = hi.copy(), lo.copy()
    hi_u[axis] = lo[axis] + 0.7 * (hi[axis] - lo[axis])
    lo_v[axis] = lo[axis] + 0.3 * (hi[axis] - lo[axis])
    corners = lambda a, b: np.array(np.meshgrid(*zip(a, b), indexing="ij")).reshape(n, -1).T
    zeta, c0, c1 = _valuation_consts(rng)
    if kind == "plq":
        A = inputs.psd_matrix(rng, n)
        b, c = rng.uniform(-1, 1, n), float(rng.uniform(-1, 1))
        fns = [{"type": "plq", "cells": [{"poly": {"dim": n, "vertices": corners(p, q).tolist()},
                                          "A": A.tolist(), "b": b.tolist(), "c": c}]}
               for p, q in ((lo, hi_u), (lo_v, hi))]
    else:
        A = None
        pieces = inputs.finite_pa(rng, n, n + 3)["pieces"]
        fns = [{"type": "pa", "pieces": pieces,
                "domain": {"dim": n, "vertices": corners(p, q).tolist()}}
               for p, q in ((lo, hi_u), (lo_v, hi))]
    fu, fv = tag + "_u.json", tag + "_v.json"
    inputs.write_json(fu, fns[0])
    inputs.write_json(fv, fns[1])
    p = float(zeta.split(":")[1]) if ":" in zeta else 0.5

    def call():
        val = valuations.Valuation(c0, c1, valuations.power_zeta(p))
        return valuations.valuation_identity_check(
            val, jsonio.load_function(fu), jsonio.load_function(fv))

    zf = oracles.zeta_fn(zeta)
    z_u = oracles.box_z(lo, hi_u, A, c0, c1, zf)
    z_v = oracles.box_z(lo_v, hi, A, c0, c1, zf)
    return Op("identity", f"identity/n{n}/{kind}", {"n": n, "cells": 2}, call,
              lambda report: oracles.check_identity(report, z_u, z_v))


# ---------------------------------------------------------------------------
# the workloads


def _load_fixtures():
    with open(os.path.join(FIXTURES, "staircases.json")) as fh:
        stairs = {(f["n"], f["m"]): f for f in json.load(fh)}
    with open(os.path.join(FIXTURES, "envelope_quadrature.json")) as fh:
        quads = json.load(fh)
    return stairs, quads


def build(name: str) -> Workload:
    stairs, quads = _load_fixtures()
    C, I, M = conjugate, infconv, ma
    E, EZ = envelope, envelope_z
    if name == "pa_duality":
        # piece dedupe and pruning, lifted lower hulls, subdivision vertices,
        # Qhull and monge_ampere_pa; no envelope, quadrature or PLQ.  The three
        # subcommands take similar shares of the time, and about a fifth of
        # the ops (3-D infconv, large ma and conjugate) sit near the p90.
        slots = [
            (C, dict(n=1, k=8, form="vertices")), (C, dict(n=1, k=16, form="finite")),
            (C, dict(n=2, k=8, form="halfspaces")), (C, dict(n=2, k=16, form="vertices")),
            (C, dict(n=2, k=30, form="finite")), (C, dict(n=3, k=8, form="vertices")),
            (C, dict(n=3, k=12, form="halfspaces")), (C, dict(n=3, k=16, form="halfspaces")),
            (C, dict(n=3, k=30, form="finite")), (C, dict(n=2, k=24, form="vertices")),
            (M, dict(n=1, k=16)), (M, dict(n=2, k=8)), (M, dict(n=2, k=16)), (M, dict(n=2, k=24)),
            (M, dict(n=3, k=8)), (M, dict(n=3, k=12)), (M, dict(n=3, k=16)),
            (I, dict(n=1, k=5, nv=2)), (I, dict(n=2, k=3, nv=5)), (I, dict(n=2, k=4, nv=5)),
            (I, dict(n=3, k=3, nv=4)),
        ]
        warmup = [(C, dict(n=1, k=3, form="vertices")), (M, dict(n=1, k=3)),
                  (I, dict(n=1, k=2, nv=2))]
        return Workload(name, slots, warmup, trace_rounds=3, setup_rounds=20)
    if name == "envelope_query":
        # query-heavy: active-set enumeration in min_quadratic_over_polytope.
        # The 1-point grids are dominated by EnvelopeFn set-up, so a
        # precompute that pays off only on many points shows here as a loss;
        # the four slowest slots have similar cost, so the p90 falls among them.
        kw = dict(fixtures=stairs)
        slots = [
            *[(E, dict(n=2, base=b, grid=1, **kw))
              for b in ("pa", "quadH", "staircase1", "staircase2")],
            *[(E, dict(n=2, base=b, grid=4, **kw)) for b in ("pa", "quadV", "staircase2")],
            *[(E, dict(n=2, base=b, grid=16, **kw)) for b in ("pa", "quadH", "staircase1")],
            *[(E, dict(n=2, base=b, grid=64, **kw)) for b in ("quadV", "pa")],
            *[(E, dict(n=3, base=b, grid=1, **kw)) for b in ("quadH", "staircase1")],
            (E, dict(n=3, base="pa", grid=3, **kw)),
            *[(E, dict(n=3, base=b, grid=4, **kw)) for b in ("staircase1", "quadV")],
            (E, dict(n=3, base="staircase1", grid=24, **kw)),
            (EZ, dict(index=0, quad_fixtures=quads)),
        ]
        warmup = [(E, dict(n=2, base="quadH", grid=1, **kw)),
                  (EZ, dict(index=1, quad_fixtures=quads))]
        return Workload(name, slots, warmup, trace_rounds=3, setup_rounds=12)
    if name == "plq_valuation":
        # the load/certify side: certify_plq's pairwise intersections on
        # staircases and boundary clipping in numeric Z; no dedupe or envelope.
        # The four slowest slots (3-D m=24, 3-D numeric) hold the p90.
        kw = dict(fixtures=stairs)
        slots = [
            (zvalue, dict(n=2, m=4, **kw)), (zvalue, dict(n=2, m=8, **kw)),
            (zvalue, dict(n=2, m=16, **kw)), (zvalue, dict(n=2, m=32, **kw)),
            (zvalue, dict(n=3, m=4, **kw)), (zvalue, dict(n=3, m=8, **kw)),
            (zvalue, dict(n=3, m=16, **kw)), (zvalue, dict(n=3, m=24, **kw)),
            (zvalue_numeric, dict(n=2, grid=32, form="vertices")),
            (zvalue_numeric, dict(n=2, grid=32, form="halfspaces")),
            (zvalue_numeric, dict(n=2, grid=64, form="vertices")),
            (zvalue_numeric, dict(n=2, grid=128, form="halfspaces")),
            (zvalue_numeric, dict(n=3, grid=8, form="halfspaces")),
            *[(zvalue_numeric, dict(n=3, grid=8, form="vertices"))] * 2,
            (usc, dict(n=2, ms=(1, 2, 4))), (usc, dict(n=2, ms=(2, 4, 8))),
            (usc, dict(n=3, ms=(1, 2, 4))),
            (identity, dict(n=2, kind="plq")), (identity, dict(n=2, kind="pa")),
            (identity, dict(n=3, kind="plq")), (identity, dict(n=3, kind="pa")),
        ]
        warmup = [(zvalue, dict(n=2, m=4, **kw)),
                  (zvalue_numeric, dict(n=2, grid=8, form="vertices")),
                  (usc, dict(n=2, ms=(1,))), (identity, dict(n=2, kind="plq"))]
        return Workload(name, slots, warmup, trace_rounds=2, setup_rounds=12)
    raise KeyError(name)
