"""JSON (de)serialization with deterministic, 17-significant-digit output.

Polytopes: {"dim": n, "vertices": [[...], ...]} and/or
           {"halfspaces": [{"normal": [...], "offset": r}, ...]};
           both forms are accepted, canonical output is the vertex form with
           rows sorted lexicographically.

Functions: {"type": "pa", "pieces": [{"grad": [...], "c": r}, ...],
            "domain": POLY | null, "cylinder": bool?}
           {"type": "plq", "cells": [{"poly": POLY, "A": [[...]],
            "b": [...], "c": r}, ...]}
           {"type": "indicator", "domain": POLY}
"""

from __future__ import annotations

import json

import numpy as np

from .errors import BadInput
from .funcs import AffineFn, ConvexFn, PAFn, PLQFn, QuadraticFn, certify_plq
from .geometry import Polytope, from_halfspaces, halfspaces_bounded, hull


# ---------------------------------------------------------------------------
# canonical writer


def _fmt_float(x: float) -> str:
    if x != x:
        raise BadInput("cannot serialize NaN")
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(float(x), ".17g")
    return s


def _write(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise BadInput(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    _write(obj, out)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# polytopes


def polytope_to_dict(P: Polytope) -> dict:
    return {"dim": P.dim, "vertices": P.vertices}


def polytope_from_dict(d: dict) -> Polytope:
    if "vertices" in d and d["vertices"]:
        verts = np.asarray(d["vertices"], dtype=float)
        if verts.ndim == 1:
            verts = verts[:, None]
        return hull(verts)
    if "halfspaces" in d:
        rows = d["halfspaces"]
        A = np.array([r["normal"] for r in rows], dtype=float)
        b = np.array([r["offset"] for r in rows], dtype=float)
        dim = int(d.get("dim", A.shape[-1]))
        if A.ndim != 2 or A.shape[1] != dim:
            raise BadInput(f"halfspace normals must be {dim}-vectors")
        if not halfspaces_bounded(A):
            raise BadInput("halfspace description is unbounded: the normals do not "
                           "positively span the space")
        P = from_halfspaces(A, b, dim)
        if P is None:
            raise BadInput("halfspace description is empty")
        return P
    raise BadInput("polytope needs 'vertices' or 'halfspaces'")


# ---------------------------------------------------------------------------
# functions


def function_to_dict(u: ConvexFn) -> dict:
    if isinstance(u, PAFn):
        if len(u.pieces) == 1 and u.domain is not None \
                and np.all(u.pieces[0].grad == 0.0) and u.pieces[0].c == 0.0 \
                and not u.is_cylinder:
            return {"type": "indicator", "domain": polytope_to_dict(u.domain)}
        d = {
            "type": "pa",
            "pieces": [{"grad": p.grad, "c": p.c} for p in u.pieces],
            "domain": None if u.domain is None else polytope_to_dict(u.domain),
        }
        if u.is_cylinder:
            d["cylinder"] = True
        return d
    if isinstance(u, PLQFn):
        return {
            "type": "plq",
            "cells": [
                {"poly": polytope_to_dict(P), "A": q.A, "b": q.b, "c": q.c}
                for P, q in u.cells
            ],
        }
    if hasattr(u, "as_plq"):
        return function_to_dict(u.as_plq())
    raise BadInput(f"cannot serialize {type(u).__name__}")


def _array(value, shape: tuple, path: str) -> np.ndarray:
    """`value` as a float array of the given shape; BadInput naming the JSON
    path otherwise."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise BadInput(f"{path} is not a numeric array") from None
    if arr.ndim == 0:
        # a bare number stands for a 1-vector or a 1x1 matrix
        arr = arr.reshape((1,) * len(shape))
    if arr.shape != shape:
        raise BadInput(f"{path} has shape {list(arr.shape)}, expected {list(shape)}")
    return arr


def function_from_dict(d: dict) -> ConvexFn:
    kind = d.get("type")
    if kind == "indicator":
        return PAFn.indicator(polytope_from_dict(d["domain"]))
    if kind == "pa":
        dom = d.get("domain")
        dom = None if dom is None else polytope_from_dict(dom)
        # the domain, or else the first piece, fixes the dimension
        first = d["pieces"][0]["grad"] if d["pieces"] else []
        n = dom.dim if dom is not None else np.size(first)
        pieces = [AffineFn(_array(p["grad"], (n,), f"pieces[{i}].grad"), float(p["c"]))
                  for i, p in enumerate(d["pieces"])]
        return PAFn(pieces, dom, is_cylinder=bool(d.get("cylinder", False)))
    if kind == "plq":
        cells = []
        for i, c in enumerate(d["cells"]):
            P = polytope_from_dict(c["poly"])
            cells.append((P, QuadraticFn(_array(c["A"], (P.dim, P.dim), f"cells[{i}].A"),
                                         _array(c["b"], (P.dim,), f"cells[{i}].b"),
                                         float(c["c"]))))
        return certify_plq(cells)
    raise BadInput(f"unknown function type {kind!r}")


def load_function(path: str) -> ConvexFn:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadInput(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return function_from_dict(data)


def save(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
