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
# readers of outside input: each raises BadInput naming the JSON path


def _check_type(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise BadInput(f"{path} is not {'an object' if kind is dict else 'a list'}")
    return value


def _field(d, path: str):
    """The member that `path` names, its last key looked up in d."""
    parent, _, key = path.rpartition(".")
    if key not in _check_type(d, dict, parent or "the function"):
        raise BadInput(f"{path} is missing")
    return d[key]


def _number(d, path: str) -> float:
    try:
        return float(_field(d, path))
    except (TypeError, ValueError):
        raise BadInput(f"{path} is not a number") from None


def _floats(value, path: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise BadInput(f"{path} is not a numeric array") from None


def _array(d, path: str, shape: tuple) -> np.ndarray:
    """The member that `path` names as a float array of the given shape."""
    arr = _floats(_field(d, path), path)
    if arr.ndim == 0:
        # a bare number stands for a 1-vector or a 1x1 matrix
        arr = arr.reshape((1,) * len(shape))
    if arr.shape != shape:
        raise BadInput(f"{path} has shape {list(arr.shape)}, expected {list(shape)}")
    return arr


# ---------------------------------------------------------------------------
# polytopes


def polytope_to_dict(P: Polytope) -> dict:
    return {"dim": P.dim, "vertices": P.vertices}


def polytope_from_dict(d: dict) -> Polytope:
    return _polytope(d, "polytope")


def _polytope(d, path: str) -> Polytope:
    _check_type(d, dict, path)
    if "vertices" in d and d["vertices"]:
        verts = _floats(d["vertices"], f"{path}.vertices")
        if verts.ndim == 1:
            verts = verts[:, None]
        if verts.ndim != 2:
            raise BadInput(f"{path}.vertices is not a list of points")
        return hull(verts)
    if "halfspaces" in d:
        rows = _check_type(d["halfspaces"], list, f"{path}.halfspaces")
        paths = [f"{path}.halfspaces[{i}]" for i in range(len(rows))]
        A = _floats([_field(r, f"{p}.normal") for r, p in zip(rows, paths)], f"{path}.halfspaces")
        b = np.array([_number(r, f"{p}.offset") for r, p in zip(rows, paths)])
        try:
            dim = int(d.get("dim", A.shape[-1]))
        except (TypeError, ValueError, OverflowError):
            raise BadInput(f"{path}.dim is not an integer") from None
        if A.ndim != 2 or A.shape[1] != dim:
            raise BadInput(f"halfspace normals must be {dim}-vectors")
        if not halfspaces_bounded(A):
            raise BadInput("halfspace description is unbounded: the normals do not "
                           "positively span the space")
        P = from_halfspaces(A, b, dim)
        if P is None:
            raise BadInput("halfspace description is empty")
        return P
    raise BadInput(f"{path} needs 'vertices' or 'halfspaces'")


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


def function_from_dict(d: dict) -> ConvexFn:
    kind = _check_type(d, dict, "the function").get("type")
    if kind == "indicator":
        return PAFn.indicator(_polytope(_field(d, "domain"), "domain"))
    if kind == "pa":
        dom = d.get("domain")
        dom = None if dom is None else _polytope(dom, "domain")
        pieces = _check_type(_field(d, "pieces"), list, "pieces")
        # the domain, or else the first piece, fixes the dimension
        first = _field(pieces[0], "pieces[0].grad") if pieces else []
        n = dom.dim if dom is not None else _floats(first, "pieces[0].grad").size
        pieces = [AffineFn(_array(p, f"pieces[{i}].grad", (n,)), _number(p, f"pieces[{i}].c"))
                  for i, p in enumerate(pieces)]
        return PAFn(pieces, dom, is_cylinder=bool(d.get("cylinder", False)))
    if kind == "plq":
        cells = []
        for i, c in enumerate(_check_type(_field(d, "cells"), list, "cells")):
            P = _polytope(_field(c, f"cells[{i}].poly"), f"cells[{i}].poly")
            cells.append((P, QuadraticFn(_array(c, f"cells[{i}].A", (P.dim, P.dim)),
                                         _array(c, f"cells[{i}].b", (P.dim,)),
                                         _number(c, f"cells[{i}].c"))))
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
