"""Outside-in tracing of the ``affval`` layers from the benchmark's side.

``Tracer.install`` wraps public functions of the package with span
recorders.  ``from .geometry import hull`` copies a binding, so each
function is replaced in every ``affval`` module that binds it.  Spans are
kept in memory as ``[name, start, end, parent]`` and written out at exit;
a span's self time is its duration minus that of its direct children (the
process runs one op at a time on one thread, so children never overlap).
A few helpers are wrapped as counters only (Qhull, ``linprog``, envelope
point solves and ``eval_many`` sample counts).  No library file changes.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter

CLI_COMMANDS = ("conjugate", "infconv", "ma", "envelope", "zvalue", "experiment")
# (module, attribute path, span name); a span name is its metric prefix and
# starts with its layer, which is the module
SPANS = [
    ("cli", "main", "cli.main"),
    *[("cli", f"_cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS],
    ("jsonio", "load_function", "jsonio.load_function"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("geometry", "hull", "geometry.hull"),
    ("geometry", "vertices_from_halfspaces", "geometry.vertices_from_halfspaces"),
    ("geometry", "intersect", "geometry.intersect"),
    ("geometry", "minkowski_sum", "geometry.minkowski_sum"),
    ("funcs", "_dedupe_pieces", "funcs._dedupe_pieces"),
    ("funcs", "PAFn.pruned", "funcs.PAFn.pruned"),
    ("funcs", "PAFn.cells", "funcs.PAFn.cells"),
    ("funcs", "PAFn.subdivision_vertices", "funcs.PAFn.subdivision_vertices"),
    ("funcs", "lower_hull_pieces", "funcs.lower_hull_pieces"),
    ("funcs", "essential_mask_global", "funcs.essential_mask_global"),
    ("funcs", "essential_mask_on_domain", "funcs.essential_mask_on_domain"),
    ("funcs", "certify_plq", "funcs.certify_plq"),
    ("funcs", "meet", "funcs.meet"),
    ("funcs", "join", "funcs.join"),
    ("transforms", "legendre_pa", "transforms.legendre_pa"),
    ("transforms", "inf_conv_pa", "transforms.inf_conv_pa"),
    ("transforms", "EnvelopeFn.__init__", "transforms.EnvelopeFn.init"),
    ("transforms", "envelope_eval", "transforms.envelope_eval"),
    ("transforms", "min_quadratic_over_polytope",
     "transforms.min_quadratic_over_polytope"),
    ("measures", "monge_ampere_pa", "measures.monge_ampere_pa"),
    ("measures", "ma_total_mass", "measures.ma_total_mass"),
    ("valuations", "z_zeta_plq", "valuations.z_zeta_plq"),
    ("valuations", "z_zeta_numeric", "valuations.z_zeta_numeric"),
    ("valuations", "valuation_identity_check", "valuations.valuation_identity_check"),
    ("sequences", "staircase_sequence", "sequences.staircase_sequence"),
    ("sequences", "usc_experiment", "sequences.usc_experiment"),
]
LAYERS = ("cli", "jsonio", "geometry", "funcs", "transforms", "measures", "valuations", "sequences")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith((".calls", "clips", "points")):
        return "count"
    return "ratio"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(args)
            return fn(*args, **kwargs)
        return wrapper

    def _parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, orig, new):
        """Rebind `orig` to `new` in every affval module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "affval" or modname.startswith("affval.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _replace_member(self, cls, attr, new):
        orig = cls.__dict__[attr]
        setattr(cls, attr, new)
        if isinstance(new, cached_property):
            new.__set_name__(cls, attr)
        self._undo.append((cls, attr, orig))

    def install(self) -> None:
        mods = {m: sys.modules[f"affval.{m}"] for m in LAYERS}
        c = self.counts

        def dumps_bytes(args, out):
            c["dumps.bytes"] += len(out)

        def vertices(args, out):
            A, _, dim = args
            c["vfh.bases"] += math.comb(len(A), int(dim))
            c["vfh.vertices"] += len(out)

        def pruned(args, out):
            c["pruned.in"] += len(args[0].pieces)
            c["pruned.out"] += len(out.pieces)

        def monge_ampere(args, out):
            v = args[0]
            c["ma.subsets"] += math.comb(len(v.pieces), v.dim + 1)
            c["ma.atoms"] += len(out.atoms)

        after = {"jsonio.dumps": dumps_bytes, "geometry.vertices_from_halfspaces": vertices,
                 "funcs.PAFn.pruned": pruned, "measures.monge_ampere_pa": monge_ampere}
        for mod, attr, name in SPANS:
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(mods[mod], owner)
                orig = cls.__dict__[member]
                if isinstance(orig, cached_property):
                    self._replace_member(cls, member,
                                         cached_property(self._span(name, orig.func, after.get(name))))
                else:
                    self._replace_member(cls, member, self._span(name, orig, after.get(name)))
            else:
                orig = getattr(mods[mod], attr)
                self._replace_everywhere(orig, self._span(name, orig, after.get(name)))

        def bump(key):
            def count(args):
                c[key] += 1
            return count
        hull_cls = mods["geometry"].ConvexHull
        self._replace_everywhere(hull_cls, self._counter(hull_cls, bump("qhull")))
        self._replace_everywhere(mods["funcs"].linprog, self._counter(mods["funcs"].linprog,
                                                                      bump("linprog")))
        env = mods["transforms"].EnvelopeFn
        self._replace_member(env, "_solve", self._counter(env.__dict__["_solve"], bump("env.points")))

        # eval_many is counted, not spanned, so a call made straight from
        # z_zeta_numeric finds that span on top of the stack
        def sample_count(args):
            if self._parent_name() == "valuations.z_zeta_numeric":
                c["integrand_points"] += len(args[1])
        funcs = mods["funcs"]
        for cls in (funcs.ConvexFn, funcs.PAFn, funcs.QuadFn, funcs.PLQFn):
            self._replace_member(cls, "eval_many",
                                 self._counter(cls.__dict__["eval_many"], sample_count))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict:
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self = defaultdict(float)
        boundary_clips = 0
        zn = {i for i, s in enumerate(self.spans) if s[0] == "valuations.z_zeta_numeric"}
        for i, (s, st) in enumerate(zip(self.spans, self.self_times())):
            name = s[0]
            calls[name] += 1
            total[name] += s[2] - s[1]
            own[name] += st
            layer_self[name.split(".")[0]] += st
            if name == "geometry.vertices_from_halfspaces" and s[3] in zn:
                boundary_clips += 1
        c = self.counts
        ratio = lambda a, b: a / b if b else 0.0
        out = {}
        for _, _, name in SPANS:
            if name == "cli.main":
                continue
            out[name + ".calls"] = calls[name]
            if name.startswith("cli."):
                out[name + ".total_s"] = total[name]
            else:
                out[name + ".self_s"] = own[name]
        out["cli.self_s"] = layer_self["cli"]
        out["jsonio.dumps.bytes"] = int(c["dumps.bytes"])
        out["geometry.qhull.calls"] = int(c["qhull"])
        out["geometry.vertices_from_halfspaces.vertices_per_basis"] = ratio(c["vfh.vertices"],
                                                                           c["vfh.bases"])
        out["funcs.linprog.calls"] = int(c["linprog"])
        out["funcs.PAFn.pruned.kept_frac"] = ratio(c["pruned.out"], c["pruned.in"])
        out["transforms.qp_per_point"] = ratio(calls["transforms.min_quadratic_over_polytope"],
                                               c["env.points"])
        out["measures.monge_ampere_pa.atoms_per_subset"] = ratio(c["ma.atoms"], c["ma.subsets"])
        out["valuations.z_zeta_numeric.boundary_clips"] = boundary_clips
        out["valuations.z_zeta_numeric.integrand_points"] = int(c["integrand_points"])
        out["trace_overhead"] = ratio(wall_s, untraced_wall_s)
        for layer in LAYERS:
            out[f"{layer}.self_share"] = ratio(layer_self[layer], wall_s)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
