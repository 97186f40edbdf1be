"""Command-line front end.

Subcommands: eval, conjugate, infconv, envelope, ma, zvalue, check,
construct, experiment.  All randomness is derived from --seed; identical
inputs and seed produce byte-identical outputs.  Exit codes: 0 success,
1 failed check, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import generators, jsonio, sequences, valuations
from .errors import AffvalError, BadInput, BadParameter
from .funcs import PAFn
from .measures import ma_total_mass, monge_ampere_pa
from .numerics import MA_MASS_TOL, REL_ERR_FLOOR
from .report import CheckReport
from .transforms import EnvelopeFn, conjugate_identities_check, envelope_eval, inf_conv_pa, legendre_pa
from .valuations import Valuation, apply, invariance_check, valuation_identity_check, z_zeta, z_zeta_numeric

SCHEMA_HELP = """\
function JSON:
  {"type":"pa","pieces":[{"grad":[...],"c":R}],"domain":POLY|null}
  {"type":"plq","cells":[{"poly":POLY,"A":[[...]],"b":[...],"c":R}]}
  {"type":"indicator","domain":POLY}
polytope JSON (POLY):
  {"dim":N,"vertices":[[...],...]}  or  {"halfspaces":[{"normal":[...],"offset":R},...]}
zeta specs: power:P (0<P<1), sqrt
CSV columns of check reports: index,name,residual,tolerance,pass"""


def _parse_zeta(spec: str, path: str):
    """The weight a zeta spec names; `path` names the spec in error messages."""
    if spec == "sqrt":
        return valuations.sqrt_zeta()
    if spec.startswith("power:"):
        try:
            return valuations.power_zeta(float(spec.split(":", 1)[1]))
        except (ValueError, BadParameter):
            raise BadInput(f"{path} {spec!r} is not power:P with a number 0 < P < 1") from None
    raise BadInput(f"{path}: unknown zeta spec {spec!r} (use power:P or sqrt)")


def _emit(args, obj) -> None:
    text = jsonio.dumps(obj)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reports_csv(reports, path) -> None:
    lines = ["index,name,residual,tolerance,pass"]
    for i, r in enumerate(reports):
        lines.append(
            f"{i},{r.name},{format(r.residual, '.17g')},"
            f"{format(r.tolerance, '.17g')},{int(r.passed)}"
        )
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval(args) -> int:
    u = jsonio.load_function(args.func)
    x = np.array([float(t) for t in args.point.split(",")])
    if len(x) != u.dim:
        raise BadInput(f"--point has {len(x)} coordinates, the function has dimension {u.dim}")
    _emit(args, {"point": x, "value": u.evaluate(x)})
    return 0


def _cmd_conjugate(args) -> int:
    u = jsonio.load_function(args.infile)
    if not isinstance(u, PAFn):
        raise BadInput("conjugation is implemented for piecewise affine inputs")
    jsonio.save(args.out, jsonio.function_to_dict(legendre_pa(u)))
    return 0


def _cmd_infconv(args) -> int:
    u = jsonio.load_function(args.a)
    v = jsonio.load_function(args.b)
    if not (isinstance(u, PAFn) and isinstance(v, PAFn)):
        raise BadInput("infimal convolution is implemented for piecewise affine inputs")
    _emit(args, jsonio.function_to_dict(inf_conv_pa(u, v)))
    return 0


def _cmd_envelope(args) -> int:
    u = jsonio.load_function(args.func)
    env = EnvelopeFn(u, args.lam, args.mu)
    path = "--eval-grid.points"
    with open(args.eval_grid) as fh:
        pts = jsonio._floats(jsonio._field(json.load(fh), path), path)
    if pts.size and (pts.ndim != 2 or pts.shape[1] != u.dim):
        raise BadInput(f"{path} has shape {list(pts.shape)}; the function has dimension {u.dim}")
    rows = []
    for x in pts.reshape(-1, u.dim):
        if env.domain.contains(x):
            val, y0, _ = envelope_eval(env, x)
            rows.append({"x": x, "value": val, "minimizer": y0})
        else:
            rows.append({"x": x, "value": "inf", "minimizer": None})
    _emit(args, {
        "lambda": env.lam,
        "mu": env.mu,
        "domain": jsonio.polytope_to_dict(env.domain),
        "evaluations": rows,
    })
    return 0


def _cmd_ma(args) -> int:
    v = jsonio.load_function(args.func)
    if not isinstance(v, PAFn):
        raise BadInput("the Monge-Ampere measure needs a piecewise affine input")
    measure = monge_ampere_pa(v)
    total, dual = ma_total_mass(v)
    _emit(args, {
        "atoms": [{"x": x, "mass": m} for x, m in measure.atoms],
        "total": total,
        "dual_volume": dual,
    })
    return 0


def _cmd_zvalue(args) -> int:
    u = jsonio.load_function(args.func)
    zeta = _parse_zeta(args.zeta, "--zeta")
    if u.domain is None:
        raise BadInput("Z_zeta needs a compact domain")
    if args.grid is not None and not args.numeric:
        raise BadInput("--grid sets the quadrature grid and needs --numeric")
    if args.numeric:
        z = z_zeta_numeric(u, u.domain, zeta, grid=args.grid)
    else:
        z = z_zeta(u, zeta)
    value = args.c0 + args.c1 * u.domain.volume + z
    _emit(args, {"c0": args.c0, "c1": args.c1, "zeta": args.zeta,
                 "z_zeta": z, "value": value})
    return 0


def _check_valuation(rng, dim, trials):
    val = Valuation(1.0, 2.0, valuations.sqrt_zeta())
    reports = []
    for i in range(trials):
        if i % 2 == 0:
            u, v = generators.meet_pair_pa(rng, dim)
        else:
            u, v = generators.meet_pair_plq(rng, dim)
        reports.append(valuation_identity_check(val, u, v))
    return reports


def _check_invariance(rng, dim, trials):
    val = Valuation(0.0, 0.0, valuations.sqrt_zeta())
    reports = []
    kinds = ["unimodular", "translate", "vshift", "add_affine"]
    for i in range(trials):
        u = generators.random_plq(rng, dim)
        kind = kinds[i % 4]
        if kind == "unimodular":
            arg = generators.random_unimodular(rng, dim)
        elif kind == "translate":
            arg = rng.uniform(-2, 2, dim)
        elif kind == "vshift":
            arg = float(rng.uniform(-3, 3))
        else:
            from .funcs import AffineFn

            arg = AffineFn(rng.uniform(-2, 2, dim), float(rng.uniform(-1, 1)))
        reports.append(invariance_check(val, u, (kind, arg)))
    return reports


def _check_conjugacy(rng, dim, trials):
    reports = []
    for _ in range(trials):
        u = generators.random_pa(rng, dim)
        phi = generators.random_unimodular(rng, dim)
        y = rng.uniform(-1, 1, dim)
        c = float(rng.uniform(-2, 2))
        reports.extend(conjugate_identities_check(u, y, c, phi))
    return reports


def _check_infconv(rng, dim, trials):
    from .geometry import minkowski_sum, vertex_sets_equal

    reports = []
    for i in range(trials):
        u = generators.random_pa(rng, dim)
        v = generators.random_pa(rng, dim)
        w = inf_conv_pa(u, v)
        expected = minkowski_sum(u.domain, v.domain)
        dom_ok = vertex_sets_equal(w.domain, expected)
        reports.append(CheckReport(f"infconv_domain_{i}", 0.0 if dom_ok else 1.0, 0.5))
    return reports


def _check_ma(rng, dim, trials):
    reports = []
    for i in range(trials):
        v = generators.random_finite_pa(rng, dim)
        mass, dual = ma_total_mass(v)
        rel = abs(mass - dual) / max(REL_ERR_FLOOR, abs(dual))
        reports.append(CheckReport(f"ma_total_mass_{i}", rel, MA_MASS_TOL))
    return reports


_CHECKS = {
    "valuation": _check_valuation,
    "invariance": _check_invariance,
    "conjugacy": _check_conjugacy,
    "infconv": _check_infconv,
    "ma": _check_ma,
}


def _cmd_check(args) -> int:
    rng = generators.rng_for(args.seed)
    reports = _CHECKS[args.what](rng, args.dim, args.trials)
    if args.out_json:
        jsonio.save(args.out_json, [r.to_dict() for r in reports])
    _reports_csv(reports, args.out_csv)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_construct(args) -> int:
    if args.what == "staircase":
        spec = sequences.StaircaseSpec(args.s, args.a, args.r, args.t1, args.t2,
                                       args.m, args.n)
        u = sequences.staircase_sequence(spec)
    elif args.what == "degenerate":
        u = sequences.degenerate_sequence(args.k, args.n)
    else:
        approx = sequences.zonotope_segment_approx(args.mu, args.m)
        _emit(args, {
            "composite": jsonio.function_to_dict(approx.composite),
            "sup_gap": approx.sup_gap,
            "max_slope": approx.max_slope,
            "segments": [jsonio.function_to_dict(s) for s in approx.segments],
        })
        return 0
    _emit(args, jsonio.function_to_dict(u))
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = {"zeta": "sqrt", "c0": 0.0, "c1": 0.0,
               **jsonio._check_type(json.load(fh), dict, "config")}
    seq_cfg = {"t1": 1.0, "t2": 1.0, "n": 2, **jsonio._check_type(
        jsonio._field(cfg, "config.sequence"), dict, "config.sequence")}

    def count(value, path):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise BadInput(f"{path} is not a positive integer")
        return value

    def counts(key):
        path = f"config.sequence.{key}"
        return [count(k, f"{path}[{i}]")
                for i, k in enumerate(jsonio._check_type(jsonio._field(seq_cfg, path), list, path))]

    zeta = _parse_zeta(str(cfg["zeta"]), "config.zeta")
    val = Valuation(jsonio._number(cfg, "config.c0"), jsonio._number(cfg, "config.c1"), zeta)
    kind = jsonio._field(seq_cfg, "config.sequence.kind")
    if kind == "staircase":
        spec0 = {k: jsonio._number(seq_cfg, f"config.sequence.{k}")
                 for k in ("s", "a", "r", "t1", "t2")}
        spec0["n"] = count(seq_cfg["n"], "config.sequence.n")
        indices = counts("ms")
        members = [sequences.staircase_sequence(sequences.StaircaseSpec(m=m, **spec0))
                   for m in indices]
        limit = sequences.staircase_reference(sequences.StaircaseSpec(m=1, **spec0))
    elif kind == "pa_approx":
        limit = jsonio.function_from_dict(jsonio._field(cfg, "config.limit"))
        indices = counts("ks")
        members = [sequences.pa_approximate(limit, k) for k in indices]
    else:
        raise BadInput(f"unknown sequence kind {kind!r}")
    report = sequences.usc_experiment(val, members, limit)
    z_limit = apply(val, limit)
    lines = ["index,z_value,gap"]
    for idx, z in zip(indices, report.witnesses[:-1]):
        lines.append(f"{idx},{format(z, '.17g')},{format(z_limit - z, '.17g')}")
    text = "\n".join(lines) + "\n"
    out_csv = cfg.get("out_csv")
    if out_csv:
        with open(out_csv, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reads any argument that starts like a negative number ('-8e-05',
    '-.5') as a value, not an option flag.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="affval",
        description="Convex-function calculus on polytopal domains.",
        epilog=SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("eval", help="evaluate a function at a point")
    q.add_argument("func")
    q.add_argument("--point", required=True, help="comma-separated coordinates")
    q.add_argument("--out")
    q.set_defaults(fn="_cmd_eval")

    q = sub.add_parser("conjugate", help="Legendre transform of a PA function")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(fn="_cmd_conjugate")

    q = sub.add_parser("infconv", help="infimal convolution of two PA functions")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--out")
    q.set_defaults(fn="_cmd_infconv")

    q = sub.add_parser("envelope", help="box-constrained Moreau envelope values")
    q.add_argument("func")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--mu", type=float, required=True)
    q.add_argument("--eval-grid", required=True, help='JSON {"points": [[...], ...]}')
    q.add_argument("--out")
    q.set_defaults(fn="_cmd_envelope")

    q = sub.add_parser("ma", help="Monge-Ampere measure of a finite PA function")
    q.add_argument("func")
    q.add_argument("--out")
    q.set_defaults(fn="_cmd_ma")

    q = sub.add_parser("zvalue", help="valuation value of a function")
    q.add_argument("func")
    q.add_argument("--zeta", required=True)
    q.add_argument("--c0", type=float, default=0.0)
    q.add_argument("--c1", type=float, default=0.0)
    q.add_argument("--numeric", action="store_true", help="force quadrature")
    q.add_argument("--grid", type=int, default=None, help="quadrature cells per axis (--numeric)")
    q.add_argument("--out")
    q.set_defaults(fn="_cmd_zvalue")

    q = sub.add_parser("check", help="seeded property checks")
    q.add_argument("what", choices=sorted(_CHECKS))
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--dim", type=int, default=2, choices=(1, 2, 3))
    q.add_argument("--out-json")
    q.add_argument("--out-csv")
    q.set_defaults(fn="_cmd_check")

    q = sub.add_parser("construct", help="generate structured instances")
    qs = q.add_subparsers(dest="what", required=True)
    st = qs.add_parser("staircase")
    st.add_argument("--s", type=float, required=True)
    st.add_argument("--a", type=float, required=True)
    st.add_argument("--r", type=float, required=True)
    st.add_argument("--t1", type=float, default=1.0)
    st.add_argument("--t2", type=float, default=1.0)
    st.add_argument("--m", type=int, default=1)
    st.add_argument("--n", type=int, default=2)
    st.add_argument("--out")
    st.set_defaults(fn="_cmd_construct")
    dg = qs.add_parser("degenerate")
    dg.add_argument("--k", type=int, required=True)
    dg.add_argument("--n", type=int, default=2)
    dg.add_argument("--out")
    dg.set_defaults(fn="_cmd_construct")
    zo = qs.add_parser("zonotope")
    zo.add_argument("--mu", type=float, required=True)
    zo.add_argument("--m", type=int, required=True)
    zo.add_argument("--out")
    zo.set_defaults(fn="_cmd_construct")

    q = sub.add_parser("experiment", help="run a configured experiment")
    qe = q.add_subparsers(dest="what", required=True)
    us = qe.add_parser("usc")
    us.add_argument("--config", required=True)
    us.set_defaults(fn="_cmd_experiment")

    return p


# built by the first main call and reused, since building it costs about
# 2.5 ms.  Subparsers name their handler, which main
# looks up when it runs, so a handler rebound later (a tracing wrapper, say)
# still takes effect.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[args.fn](args)
    except (AffvalError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
