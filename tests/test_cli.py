import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import affval
from affval import cli, jsonio
from affval.cli import _build_parser, main
from affval.funcs import AffineFn, PAFn, QuadraticFn
from affval.geometry import box, cube


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def l1_dict():
    return {"type": "pa",
            "pieces": [{"grad": [sx, sy], "c": 0.0} for sx in (1, -1) for sy in (1, -1)],
            "domain": None}


# -- json round trips ----------------------------------------------------------


def test_function_json_roundtrip_pa():
    u = PAFn([AffineFn([1.0, -0.5], 0.25), AffineFn([-1.0, 0.0], 0.0)], cube(2))
    d = jsonio.function_to_dict(u)
    v = jsonio.function_from_dict(json.loads(jsonio.dumps(d)))
    pts = cube(2).grid_points(5)
    assert np.allclose(u.eval_many(pts), v.eval_many(pts))


def test_function_json_roundtrip_plq():
    q = QuadraticFn(np.diag([2.0, 1.0]), [0.5, 0.0], -0.25)
    from affval.funcs import QuadFn

    u = QuadFn(q, box([0, 0], [1, 2])).as_plq()
    d = jsonio.function_to_dict(u)
    v = jsonio.function_from_dict(json.loads(jsonio.dumps(d)))
    pts = u.domain.grid_points(5)
    assert np.allclose(u.eval_many(pts), v.eval_many(pts))


def test_polytope_halfspace_form_accepted():
    d = {"dim": 2, "halfspaces": [
        {"normal": [1.0, 0.0], "offset": 1.0},
        {"normal": [-1.0, 0.0], "offset": 0.0},
        {"normal": [0.0, 1.0], "offset": 1.0},
        {"normal": [0.0, -1.0], "offset": 0.0},
    ]}
    P = jsonio.polytope_from_dict(d)
    assert P.volume == pytest.approx(1.0)


@pytest.mark.parametrize("text", [
    '{"dim": 2, "vertices": [[Infinity, 0], [0, 1], [1, 0]]}',
    '{"dim": 1, "vertices": [[NaN]]}',
])
def test_polytope_non_finite_vertex_rejected(text):
    # json.loads accepts Infinity and NaN; the hull must refuse them
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.polytope_from_dict(json.loads(text))


def test_seventeen_digit_serialization():
    x = 0.1 + 0.2
    s = jsonio.dumps({"v": x})
    assert format(x, ".17g") in s


# -- CLI ------------------------------------------------------------------------


def _run(argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_ma_on_l1(tmp_path, capsys):
    path = write(tmp_path, "l1.json", l1_dict())
    assert main(["ma", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == pytest.approx(4.0)
    assert out["dual_volume"] == pytest.approx(4.0)


def test_cli_zvalue_closed_form(tmp_path, capsys):
    u = {"type": "plq", "cells": [{
        "poly": {"dim": 2, "vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]},
        "A": [[4, 0], [0, 4]], "b": [0, 0], "c": 0.0}]}
    path = write(tmp_path, "u.json", u)
    assert main(["zvalue", "--zeta", "power:0.5", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(4.0)


def test_cli_negative_numbers_are_values(tmp_path, capsys):
    u = {"type": "indicator", "domain": {"dim": 2, "vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]}}
    path = write(tmp_path, "u.json", u)
    assert main(["zvalue", path, "--zeta", "sqrt", "--c0", "-8e-05", "--c1", "-.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c0"] == -8e-05
    assert out["value"] == pytest.approx(-0.5 - 8e-05)
    assert main(["eval", write(tmp_path, "l1.json", l1_dict()), "--point", "-1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(3.0)
    # nested subparsers get the same reading
    args = _build_parser().parse_args(["construct", "staircase", "--s", "-1e-1",
                                       "--a", "1", "--r", "2"])
    assert args.s == -0.1


def test_cli_conjugate_and_eval(tmp_path, capsys):
    absf = {"type": "pa",
            "pieces": [{"grad": [1.0], "c": 0.0}, {"grad": [-1.0], "c": 0.0}],
            "domain": {"dim": 1, "vertices": [[-1], [1]]}}
    fin = write(tmp_path, "abs.json", absf)
    fout = str(tmp_path / "star.json")
    assert main(["conjugate", "--in", fin, "--out", fout]) == 0
    assert main(["eval", fout, "--point", "2.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(1.0)


def test_cli_check_deterministic_and_csv(tmp_path, capsys):
    args = ["check", "valuation", "--seed", "7", "--trials", "4", "--dim", "2"]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "index,name,residual,tolerance,pass"
    assert len(lines) == 5
    assert all(line.endswith(",1") for line in lines[1:])


def test_cli_check_seed_changes_output(capsys):
    main(["check", "ma", "--seed", "1", "--trials", "3", "--dim", "1"])
    a = capsys.readouterr().out
    main(["check", "ma", "--seed", "2", "--trials", "3", "--dim", "1"])
    b = capsys.readouterr().out
    assert a.splitlines()[0] == b.splitlines()[0]


def test_cli_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert main(["ma", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


WEDGE = {"dim": 2, "halfspaces": [{"normal": [-1, 0], "offset": 0},
                                  {"normal": [0, -1], "offset": 0},
                                  {"normal": [1, -1], "offset": 1}]}
TRIANGLE = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}


@pytest.mark.parametrize("obj, message", [
    ({"type": "indicator", "domain": WEDGE}, "unbounded"),
    ({"type": "plq", "cells": [{"poly": TRIANGLE, "A": [[1, 0, 0], [0, 1, 0]],
                                "b": [0, 0], "c": 0}]}, "cells[0].A"),
    ({"type": "plq", "cells": [{"poly": TRIANGLE, "A": [[1, 0], [0, 1]],
                                "b": [0, 0, 0], "c": 0}]}, "cells[0].b"),
    ({"type": "pa", "pieces": [{"grad": [1, 0], "c": 0}, {"grad": [1], "c": 0}],
      "domain": TRIANGLE}, "pieces[1].grad"),
    # malformed structure: each message names the JSON path
    ([1, 2], "the function is not an object"),
    ("pa", "the function is not an object"),
    ({"type": "plq", "cells": None}, "cells is not a list"),
    ({"type": "pa", "pieces": "abc"}, "pieces is not a list"),
    ({"type": "pa", "pieces": [{"grad": [1, 0], "c": 0}], "domain": 5}, "domain is not an object"),
    ({"type": "pa", "pieces": [{"grad": [1, 0], "c": [0]}], "domain": TRIANGLE},
     "pieces[0].c is not a number"),
    ({"type": "pa", "pieces": [{"grad": [1, 0]}], "domain": TRIANGLE}, "pieces[0].c is missing"),
    ({"type": "indicator", "domain": {"dim": 2, "halfspaces": [{"normal": [1, 0]}]}},
     "domain.halfspaces[0].offset is missing"),
    ({"type": "pa", "pieces": [{"grad": [1, [0]], "c": 0}], "domain": None}, "pieces[0].grad"),
    ({"type": "indicator", "domain": {"dim": 2, "vertices": [[0, 0], [1]]}}, "domain.vertices"),
    ({"type": "plq", "cells": [{"poly": TRIANGLE, "A": [[1, 0], [0, 1]], "b": [0, 0]}]},
     "cells[0].c is missing"),
    ({"type": "pa", "pieces": [{"grad": [1], "c": 0}], "domain": None, "cylinder": True},
     "compact domain"),
    ({"type": "indicator", "domain": {"dim": float("inf"), "halfspaces": [
        {"normal": [1], "offset": 1}, {"normal": [-1], "offset": 1}]}}, "domain.dim"),
])
def test_cli_rejects_unbounded_or_misshapen_input(tmp_path, capsys, obj, message):
    f = write(tmp_path, "f.json", obj)
    assert main(["zvalue", f, "--zeta", "sqrt", "--c1", "1"]) == 2
    assert message in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("spec, code", [
    ("--a 1 --r 1e12 --m 3", 0),
    ("--a 1e-9 --r 1 --m 5", 0),
    ("--a 1 --r 2 --m 4 --t2 1e9", 2),   # the 2 x 2e9 box is flat at EPS_GEOM
])
def test_cli_construct_staircase_large_coefficients(capsys, spec, code):
    # large coefficients cancel in the tangency values; a spec either builds
    # or is rejected as input, never with a traceback
    assert main(["construct", "staircase", "--s", "0"] + spec.split()) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["type"] == "plq"
    else:
        assert captured.err.startswith("error: ")


def test_cli_construct_staircase_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "stair.json")
    assert main(["construct", "staircase", "--s", "0", "--a", "1", "--r", "2",
                 "--m", "2", "--out", out]) == 0
    u = jsonio.load_function(out)
    from affval.valuations import sqrt_zeta, z_zeta_plq

    assert z_zeta_plq(u, sqrt_zeta()) == pytest.approx(4.0 * np.sqrt(2.0), rel=1e-9)


def test_cli_envelope_values(tmp_path, capsys):
    f = write(tmp_path, "i0.json",
              {"type": "indicator", "domain": {"dim": 1, "vertices": [[0], [0]]}})
    g = write(tmp_path, "grid.json", {"points": [[0.5], [0.0], [2.0]]})
    assert main(["envelope", f, "--lambda", "1.0", "--mu", "1.0", "--eval-grid", g]) == 0
    out = json.loads(capsys.readouterr().out)
    vals = [row["value"] for row in out["evaluations"]]
    assert vals[0] == pytest.approx(0.125)
    assert vals[1] == pytest.approx(0.0)
    assert vals[2] == "inf"


def test_cli_experiment_usc(tmp_path, capsys):
    cfg = {"zeta": "sqrt", "c0": 0, "c1": 0,
           "sequence": {"kind": "staircase", "s": 0, "a": 1, "r": 2, "ms": [1, 2]}}
    path = write(tmp_path, "exp.json", cfg)
    assert main(["experiment", "usc", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,z_value,gap"
    assert len(lines) == 3


SQUARE = {"type": "indicator", "domain": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}}
STAIRCASE = {"kind": "staircase", "s": 0, "a": 1, "r": 2, "ms": [1, 2]}
HUGE_SLOPE = {"type": "pa", "pieces": [{"grad": [1e308, 0], "c": 0}],
              "domain": SQUARE["domain"]}


def _crossed_slopes(g):
    """Pieces [g, 0] and [0, g] on the unit square."""
    return {"type": "pa", "pieces": [{"grad": [g, 0], "c": 0}, {"grad": [0, g], "c": 0}],
            "domain": SQUARE["domain"]}


@pytest.mark.parametrize("argv, files, message", [
    (["eval", "F", "--point", "0.5"], {}, "--point has 1 coordinates, the function has dimension 2"),
    (["envelope", "F", "--lambda", "1", "--mu", "1", "--eval-grid", "G"],
     {"G": {"points": [[0.5], [0.2]]}}, "--eval-grid.points has shape [2, 1]"),
    (["envelope", "F", "--lambda", "1", "--mu", "1", "--eval-grid", "G"],
     {"G": {"pts": [[0.5, 0.5]]}}, "--eval-grid.points is missing"),
    (["envelope", "F", "--lambda", "1", "--mu", "1", "--eval-grid", "G"],
     {"G": [[0.5, 0.5]]}, "--eval-grid is not an object"),
    (["envelope", "F", "--lambda", "nan", "--mu", "1", "--eval-grid", "G"],
     {"G": {"points": []}}, "got nan, 1.0"),
    (["envelope", "F", "--lambda", "1", "--mu", "inf", "--eval-grid", "G"],
     {"G": {"points": []}}, "got 1.0, inf"),
    (["experiment", "usc", "--config", "C"],
     {"C": {"sequence": {k: v for k, v in STAIRCASE.items() if k != "ms"}}},
     "config.sequence.ms is missing"),
    (["experiment", "usc", "--config", "C"],
     {"C": {"sequence": {"kind": "pa_approx", "ks": [2]}}}, "config.limit is missing"),
    (["experiment", "usc", "--config", "C"], {"C": {"zeta": "sqrt"}},
     "config.sequence is missing"),
    (["experiment", "usc", "--config", "C"], {"C": {"sequence": {**STAIRCASE, "ms": ["x"]}}},
     "config.sequence.ms[0] is not a positive integer"),
    (["experiment", "usc", "--config", "C"], {"C": {"sequence": {**STAIRCASE, "ms": [1, 1.5]}}},
     "config.sequence.ms[1] is not a positive integer"),
    (["experiment", "usc", "--config", "C"], {"C": {"sequence": {**STAIRCASE, "ms": [0]}}},
     "config.sequence.ms[0] is not a positive integer"),
    (["experiment", "usc", "--config", "C"], {"C": {"sequence": {**STAIRCASE, "s": "q"}}},
     "config.sequence.s is not a number"),
    (["experiment", "usc", "--config", "C"], {"C": {"sequence": {**STAIRCASE, "t2": [1]}}},
     "config.sequence.t2 is not a number"),
    (["experiment", "usc", "--config", "C"], {"C": {"sequence": {**STAIRCASE, "n": "3"}}},
     "config.sequence.n is not a positive integer"),
    (["experiment", "usc", "--config", "C"], {"C": {"c0": "abc", "sequence": STAIRCASE}},
     "config.c0 is not a number"),
    (["experiment", "usc", "--config", "C"],
     {"C": {"sequence": {"kind": "pa_approx", "ks": [True]}, "limit": SQUARE}},
     "config.sequence.ks[0] is not a positive integer"),
    (["experiment", "usc", "--config", "C"], {"C": {"zeta": 5, "sequence": STAIRCASE}},
     "unknown zeta spec '5'"),
    (["zvalue", "F", "--zeta", "sqrt", "--grid", "16"], {},
     "--grid sets the quadrature grid and needs --numeric"),
    (["experiment", "usc", "--config", "C"], {"C": {"zeta": 5, "sequence": STAIRCASE}},
     "config.zeta: unknown zeta spec '5'"),
    (["experiment", "usc", "--config", "C"], {"C": {"zeta": "power:abc", "sequence": STAIRCASE}},
     "config.zeta 'power:abc' is not power:P"),
    (["zvalue", "F", "--zeta", "power:abc"], {}, "--zeta 'power:abc' is not power:P"),
    (["zvalue", "F", "--zeta", "power:"], {}, "--zeta 'power:' is not power:P"),
    (["zvalue", "F", "--zeta", "power:1.5"], {}, "--zeta 'power:1.5' is not power:P"),
    (["zvalue", "F", "--zeta", "cbrt"], {}, "--zeta: unknown zeta spec 'cbrt'"),
    # finite coefficients whose values overflow: an error naming the magnitude, no warning
    (["conjugate", "--in", "F", "--out", "O"], {"F": HUGE_SLOPE, "O": {}},
     "gradients up to 1e+308 and intercepts up to 0 in magnitude overflow"),
    (["envelope", "F", "--lambda", "1", "--mu", "1", "--eval-grid", "G"],
     {"F": HUGE_SLOPE, "G": {"points": [[0.5, 0.5]]}},
     "gradients up to 1e+308 and intercepts up to 0 in magnitude overflow"),
    (["zvalue", "F", "--zeta", "sqrt", "--numeric", "--grid", "32"], {"F": HUGE_SLOPE},
     "values up to 9.85e+307 in magnitude overflow the finite-difference Hessian"),
    # finite caps whose Qhull frame rows overflow their norms
    (["conjugate", "--in", "F", "--out", "O"], {"F": _crossed_slopes(1e200), "O": {}},
     "gradients up to 1e+200 and intercepts up to 0 in magnitude overflow"),
    (["conjugate", "--in", "F", "--out", "O"], {"F": _crossed_slopes(1e307), "O": {}},
     "gradients up to 1e+307 and intercepts up to 0 in magnitude overflow"),
])
def test_cli_bad_input_names_itself(tmp_path, capsys, argv, files, message):
    paths = {"F": write(tmp_path, "F.json", SQUARE)}
    paths.update({k: write(tmp_path, k + ".json", v) for k, v in files.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([paths.get(a, a) for a in argv]) == 2
    assert message in capsys.readouterr().err


def test_cli_conjugate_of_large_crossed_slopes(tmp_path):
    # below the overflow of the frame rows the conjugate is still computed
    src, dst = write(tmp_path, "F.json", _crossed_slopes(1e150)), str(tmp_path / "O.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(["conjugate", "--in", src, "--out", dst])
    assert (code, err) == (0, "")
    jsonio.load_function(dst)


def test_cli_infconv(tmp_path, capsys):
    a = write(tmp_path, "a.json",
              {"type": "indicator", "domain": {"dim": 1, "vertices": [[0], [1]]}})
    b = write(tmp_path, "b.json",
              {"type": "indicator", "domain": {"dim": 1, "vertices": [[0], [2]]}})
    assert main(["infconv", a, b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == "indicator"
    assert out["domain"]["vertices"] == [[0], [3]]


# -- structural fuzzing of function JSON ----------------------------------------

INTS = st.integers(-2, 2)
# one value of every JSON type, to stand in for a value of the wrong type
JUNK = st.one_of(st.none(), st.booleans(), INTS, st.just("abc"), st.lists(INTS, max_size=2),
                 st.just({}))


def _vector(n):
    return st.lists(INTS, min_size=n, max_size=n)


def _polytope(n):
    hull = st.lists(_vector(n), min_size=1, max_size=4).map(lambda v: {"dim": n, "vertices": v})
    box = st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n).map(lambda off: {
        "dim": n, "halfspaces": [{"normal": [s if j == i else 0 for j in range(n)],
                                  "offset": off[2 * i + (s < 0)]}
                                 for i in range(n) for s in (1, -1)]})
    return st.one_of(hull, box)


def _function(n):
    piece = st.fixed_dictionaries({"grad": _vector(n), "c": INTS})
    cell = st.fixed_dictionaries({
        "poly": _polytope(n), "b": _vector(n), "c": INTS,
        "A": st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
            lambda d: [[d[i] if i == j else 0 for j in range(n)] for i in range(n)])})
    return st.one_of(
        st.fixed_dictionaries({"type": st.just("indicator"), "domain": _polytope(n)}),
        st.fixed_dictionaries({"type": st.just("pa"), "domain": st.none() | _polytope(n),
                               "pieces": st.lists(piece, min_size=1, max_size=3),
                               "cylinder": st.booleans()}),
        st.fixed_dictionaries({"type": st.just("plq"),
                               "cells": st.lists(cell, min_size=1, max_size=2)}))


@st.composite
def _mutated(draw, value):
    """`value` with members dropped and values swapped for JSON values of
    another type, each with probability 1/10."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    if isinstance(value, dict):
        return {k: draw(_mutated(v)) for k, v in value.items() if draw(st.integers(0, 9))}
    if isinstance(value, list):
        return [draw(_mutated(v)) for v in value]
    return value


@st.composite
def _documents(draw):
    n = draw(st.integers(1, 2))
    doc = draw(_function(n))
    return n, draw(_mutated(doc)) if draw(st.booleans()) else doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_documents())
def test_cli_function_json_fuzz(case):
    # schema-shaped documents, half of them malformed: eval and zvalue exit
    # 0 with JSON on stdout or 2 with a message, and never raise
    n, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (["eval", path, "--point", ",".join(["0.5"] * n)],
                     ["zvalue", path, "--zeta", "sqrt"]):
            code, out, err = _run(argv)
            assert code in (0, 2), (argv, err)
            if code == 0:
                json.loads(out)
            else:
                assert err.startswith("error: ")


# -- numeric fuzzing of conjugate, infconv and ma ---------------------------------


def _numbers(draw, size):
    """`size` numbers from 1e-8 to 1e8 in magnitude, or 0."""
    mantissa = draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
    exponent = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size))
    return np.array(mantissa) * 10.0 ** np.array(exponent)


def _tied_pieces(draw, n):
    """Pieces with such entries, some repeated exactly and some repeated up to
    a relative 1e-12."""
    k = draw(st.integers(1, 5))
    pieces = [(_numbers(draw, n), float(_numbers(draw, 1)[0])) for _ in range(k)]
    for i in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        g, c = pieces[i]
        wiggle = 1.0 + 1e-12 * draw(st.sampled_from([0.0, 1.0, -3.0]))
        pieces.append((g * wiggle, c) if draw(st.booleans()) else (g, c * wiggle))
    return [{"grad": g.tolist(), "c": c} for g, c in pieces]


@st.composite
def _compact_pa_documents(draw, n=None):
    """Compact PA functions of dimension n (drawn when None) with tied pieces
    and a domain of scale 1e-8 to 1e8."""
    n = draw(st.integers(1, 3)) if n is None else n
    pieces = _tied_pieces(draw, n)
    scale = 10.0 ** draw(st.integers(-8, 8))
    vertices = _numbers(draw, n * draw(st.integers(n + 1, n + 4))).reshape(-1, n) * scale
    return {"type": "pa", "domain": {"dim": n, "vertices": vertices.tolist()}, "pieces": pieces}


@st.composite
def _finite_pa_documents(draw):
    return {"type": "pa", "domain": None, "pieces": _tied_pieces(draw, draw(st.integers(1, 3)))}


@st.composite
def _compact_pa_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(_compact_pa_documents(n)), draw(_compact_pa_documents(n))


def _exits_cleanly(argv, docs, load):
    """main(argv) with "{name}" in argv naming a temporary file of docs[name]:
    exit 0 with an output that load(stdout, directory) reads back, or exit 2
    with a message; never 1 and never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        code, out, err = _run([a.format(**{name: os.path.join(tmp, name) for name in docs},
                                        dir=tmp) for a in argv])
        assert code in (0, 2), err
        if code == 0:
            load(out, tmp)
        else:
            assert err.startswith("error: ")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_compact_pa_documents())
def test_cli_conjugate_numeric_fuzz(doc):
    # huge, tiny, tied and near-tied coefficients: conjugate exits 0 with a
    # function that loads back, or 2 with a message, and never raises
    _exits_cleanly(["conjugate", "--in", "{u}", "--out", "{dir}/conj.json"], {"u": doc},
                   lambda _, tmp: jsonio.load_function(os.path.join(tmp, "conj.json")))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_compact_pa_pairs())
def test_cli_infconv_numeric_fuzz(pair):
    _exits_cleanly(["infconv", "{u}", "{v}"], dict(zip("uv", pair)),
                   lambda text, _: jsonio.function_from_dict(json.loads(text)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_finite_pa_documents())
def test_cli_ma_numeric_fuzz(doc):
    def load(text, _):
        out = json.loads(text)
        assert set(out) == {"atoms", "total", "dual_volume"}

    _exits_cleanly(["ma", "{u}"], {"u": doc}, load)


@st.composite
def _compact_plq_documents(draw):
    """One-cell PLQ functions: a diagonal PSD quadratic with such entries on
    a domain of scale 1e-8 to 1e8."""
    n = draw(st.integers(1, 3))
    domain = draw(_compact_pa_documents(n))["domain"]
    cell = {"poly": domain, "A": np.diag(np.abs(_numbers(draw, n))).tolist(),
            "b": _numbers(draw, n).tolist(), "c": float(_numbers(draw, 1)[0])}
    return {"type": "plq", "cells": [cell]}


def _finite_z_zeta(text, _):
    z = json.loads(text)["z_zeta"]
    assert isinstance(z, (int, float)) and np.isfinite(z), z


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(_compact_pa_documents(), _compact_plq_documents()),
       st.sampled_from(["sqrt", "power:0.3"]), st.integers(2, 16))
def test_cli_zvalue_numeric_fuzz(doc, zeta, grid):
    # quadrature, boundary clips included: a finite Z_zeta, or exit 2 with a message
    _exits_cleanly(["zvalue", "{u}", "--zeta", zeta, "--numeric", "--grid", str(grid)],
                   {"u": doc}, _finite_z_zeta)


# Draws of _compact_pa_documents whose activity subdivision Qhull cannot
# resolve in the raw coordinates: slivers 1e7 long and 1 wide, entries from
# 1e-316 to 1e15, pieces tied exactly or to 1e-12.  (domain vertices, pieces)
_HARD_COMPACT_PA = [
    ([[0.0, 0.0, 0.0], [0.0, 9757.118875261063, 2.220446049250313e-12],
      [862.2457534108307, 6971975.592919244, -5.888396605517412e-22],
      [-1.5770256232496875e-239, 2.2250738585217784e-303, 0.0009115711356559722]],
     [([25500.457588812318, -7.542101848216443e-309, 95672.44468288712], 0.14438621260707962),
      ([-7.611264965393421, -1447.6767001403057, -2.026693833553273e-186], 652816.7624341466),
      ([0.005624606300986574, -5.888396605517411e-29, 0.99999], 7.130237149259448e-07),
      ([0.0, -0.0099999, -6.54866775768726e-05], 0.0),
      ([-0.6548667757687259, 0.0, 1.1427480376593844e-06], 0.0)]),
    ([[0.0, 1142.7480376593846, 0.0], [0.0, 9757.118875261063, 2.220446049250313e-12],
      [862.2457534108307, 6971975.592919244, -5.888396605517412e-22],
      [-1.5770256232496875e-239, 2.2250738585217784e-303, 0.0009115711356559722]],
     [([25500.457588812318, -7.542101848216443e-309, 95672.44468288712], 0.14438621260707962),
      ([-7.611264965393421, -1447.6767001403057, -2.026693833553273e-186], 652816.7624341466),
      ([0.005624606300986574, -5.888396605517411e-29, 0.99999], 7.130237149259448e-07),
      ([0.0, -0.0099999, -6.54866775768726e-05], 0.0),
      ([-0.6548667757687259, 0.0, 1.1427480376593844e-06], 0.0)]),
    ([[0.0, 1142.7480376593846, 0.0], [0.0, 9757.118875261063, 2.220446049250313e-12],
      [862.2457534108307, 6971975.592919244, -5.888396605517412e-22],
      [-1.5770256232496875e-239, 2.2250738585217784e-303, 0.0009115711356559722]],
     [([25500.457588812318, -7.542101848216443e-309, 95672.44468288712], 0.14438621260707962),
      ([-7.611264965393421, -1447.6767001403057, -2.026693833553273e-186], 0.0),
      ([0.005624606300986574, -5.888396605517411e-29, 0.99999], 7.130237149259448e-07),
      ([0.0, -0.0099999, -6.54866775768726e-05], 0.0),
      ([-0.6548667757687259, 0.0, 1.1427480376593844e-06], 0.0)]),
    ([[-596046.4477539062, -7.441841820205276, -1.192092896e-07],
      [4.940656458412465e-308, -0.3721526984557241, 21.436720009354616],
      [100000000.0, 96640894.41066754, 1.7028776023550903e-85],
      [1e-05, -8156860.754656165, -1775.5192654893272],
      [96258077.9093789, 707481722924159.6, 266448961.9641024],
      [50762031.30090522, -87.78706686984235, -78464071716905.89]],
     [([5.7448756833142454e-09, -5.700362074356223e-06, -8.096417847238302e-208],
       809.9279822413141),
      ([-7.97333534037755, -9.501444998793756e-05, -0.024750591953229973], 13.556692025430085)]),
    ([[1.0000000000000001e-23, 1.0000000000000001e-23], [9.861217587831271e-09, 0.0],
      [-4.5283142030837436e-13, -0.9707024548756249]],
     [([0.00040083069829737974, -26107439.69555739], 0.36504968755051626),
      ([0.00040083069829737974, -26107439.69555739], 0.36504968755051626),
      ([0.00040083069829617725, -26107439.695479065], 0.36504968755051626)]),
    ([[-6.905995743712889e-12, -8.800306023675981e-16],
      [7.30585648809817e-07, -0.5526071991612879],
      [-2.2673684788986946e-06, 5.839556748224603e-112],
      [-9.888552190112336e-06, -1.175494351e-45]],
     [([0.6312634122538943, 4722.716037149022], 0.06606964735060195),
      ([-8.845444869352757e-05, -0.01], -1.1125369292536007e-306),
      ([1.6226070302809648e-09, -60.40668331889395], -4.960395985929684e-262),
      ([-2.3645444852237385e-05, 0.0009426857508571307], -8.546570505459962e-06),
      ([-53394781.31120922, -8.757464861573595], 0.033041611187157226),
      ([0.6312634122538943, 4722.716037149022], 0.06606964735060195)]),
    ([[-6.905995743712889e-12, -8.800306023675981e-16],
      [7.30585648809817e-07, -0.5526071991612879],
      [-2.2673684788986946e-06, 5.839556748224603e-112],
      [-9.888552190112336e-06, -1.175494351e-45]],
     [([0.6312634122538943, 4722.716037149022], 0.06606964735060195),
      ([-8.845444869352757e-05, -0.01], -85.46570505459962),
      ([1.6226070302809648e-09, -60.40668331889395], -4.960395985929684e-262),
      ([-2.3645444852237385e-05, 0.0009426857508571307], -8.546570505459962e-06),
      ([-53394781.31120922, -8.757464861573595], 0.033041611187157226),
      ([0.6312634122538943, 4722.716037149022], 0.06606964735060195)]),
    ([[888531.6633325283, 2737708790517106.0, 750.3189794975267],
      [-17819806569206.72, 3.937065573122963e-236, -374193988348916.4],
      [-660050290.1235799, 546.7332283936582, 9473.43077961126],
      [69102.8855932295, -0.8390292336759786, -6306.705660429781],
      [-93.57220597758315, -1.9951679252865804, 183960628311.03708],
      [-7339585536807.403, 10000000000000.0, -8.821751732044713e-110],
      [1.192092896e-06, -1.496651289743855e-260, -366483755.4118664]],
     [([4.9999999999999996e-06, 91947.85352365447, -6.781053053000139e-287], -4.94065646e-316),
      ([9.078357089168224e-06, 9.886315556395568e-07, 2.61665166596029e-08],
       -4.3171293838707155e-202),
      ([105920.26211787564, -3.110991865974795e-291, 1.4559077939509646e-05],
       -0.0736654485834126),
      ([15512.563914693555, 3904.122648106012, 420009.0003930728], -1386.2162450463122),
      ([4.9999999999999996e-06, 91947.85352365447, -6.781053053000139e-287], -4.94065646e-316)]),
]


def _conjugate_by_lp(u, y, scale):
    """u*(y) / scale: the max of y.x - t over the weights of the domain's
    vertices x and t above every piece, as one LP in units of scale."""
    V = u.domain.vertices
    at_v = u.G @ V.T + u.cvec[:, None]
    res = linprog(np.append(-(V @ y) / scale, 1.0),
                  A_ub=np.column_stack([at_v / scale, -np.ones(len(at_v))]),
                  b_ub=np.zeros(len(at_v)), A_eq=np.append(np.ones(len(V)), 0.0)[None], b_eq=[1.0],
                  bounds=[(0, None)] * len(V) + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("vertices,pieces", _HARD_COMPACT_PA)
def test_cli_conjugate_hard_compact_pa_matches_lp(tmp_path, vertices, pieces):
    doc = {"type": "pa", "domain": {"dim": len(vertices[0]), "vertices": vertices},
           "pieces": [{"grad": g, "c": c} for g, c in pieces]}
    dst = str(tmp_path / "conj.json")
    assert main(["conjugate", "--in", write(tmp_path, "u.json", doc), "--out", dst]) == 0
    u, conj = jsonio.function_from_dict(doc), jsonio.load_function(dst)
    slope = np.abs(u.G).max() + 1.0
    scale = slope * np.abs(u.domain.vertices).max() + np.abs(u.cvec).max()
    for y in np.random.default_rng(0).uniform(-2, 2, (10, u.dim)) * slope:
        assert conj.eval_many(y[None])[0] / scale == pytest.approx(_conjugate_by_lp(u, y, scale),
                                                                   abs=1e-7)


# Draws of _compact_pa_documents on domains thinner than the enumeration slack
# at their scale (FEAS_TOL times the largest coordinate): spurious basic
# solutions far outside the domain used to pass for subdivision vertices, and
# conjugate exited 0 off the LP by 2.7e11 and 0.28 of the scale.
_THIN_COMPACT_PA = [
    ([[0.06942410222945598, 1e-23, -1.556640505980529e-97],
      [1e-22, -2.9190013894958953, -1.9143767835429277e-202],
      [6.485308362652236e-190, -0.0, -8.645675034434887e-139],
      [9.676467395037134e-250, -9.794359848132863e-12, -7.417846916766742e-08],
      [-8.332433539582253e-10, 7.791952536262211e-113, 1.106868548685813e-134],
      [2.1408501602785024e-236, 1.0, -1.5811313396689489e-97]],
     [([-1000.0000000000001, 2.3237453145750432e-10, 6.886596526666162e-08],
       0.008176845891489518),
      ([-846.0987016893692, 88862346.65986548, -3.4431965162180046e-05], -7.2179786241409e-05),
      ([8.266291657477748e-05, -5.1356453541189514e-54, 8.17996071732494e-09],
       6.015299563095295e-48),
      ([-1.934160476458513e-09, -3.0164627431838884e-220, 1.4014693801578004e-08], 0.01),
      ([-392.9522278536769, 0.0, -70.503654030307], 6.306819649817478e-08)]),
    ([[2.5043122055977363e-10, 1.195680593464819e-32], [-7.011630107e-315, -3.40748246763562e-08],
      [8.84282772603255e-08, 5.537533019510077e-221], [-8.430759577931672, -0.008233435548980953]],
     [([-9999.999999999998, 0.09575849792404219], -7113796.138323787),
      ([-9999.999999969998, 0.0957584979237549], -7113796.138323787),
      ([-9999.999999999998, 0.09575849792404219], -7113796.138330901)]),
]


@pytest.mark.parametrize("vertices,pieces", _THIN_COMPACT_PA)
def test_cli_conjugate_thin_domain_is_refused_or_right(tmp_path, capsys, vertices, pieces):
    doc = {"type": "pa", "domain": {"dim": len(vertices[0]), "vertices": vertices},
           "pieces": [{"grad": g, "c": c} for g, c in pieces]}
    dst = str(tmp_path / "conj.json")
    code = main(["conjugate", "--in", write(tmp_path, "u.json", doc), "--out", dst])
    if code == 2:
        assert "not resolved by the enumeration slack" in capsys.readouterr().err
        return
    assert code == 0
    u, conj = jsonio.function_from_dict(doc), jsonio.load_function(dst)
    slope = np.abs(u.G).max() + 1.0
    scale = slope * np.abs(u.domain.vertices).max() + np.abs(u.cvec).max()
    for y in np.random.default_rng(0).uniform(-2, 2, (10, u.dim)) * slope:
        assert conj.eval_many(y[None])[0] / scale == pytest.approx(_conjugate_by_lp(u, y, scale),
                                                                   abs=1e-7)


# -- the parser is built once per process -------------------------------------------


def test_cli_parser_built_once(tmp_path, monkeypatch, capsys):
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    path = write(tmp_path, "l1.json", l1_dict())
    assert [main(["ma", path]), main(["eval", path, "--point", "0,1"]), main(["--bogus"]),
            main(["ma", path])] == [0, 0, 2, 0]
    assert len(builds) == 1


def test_cli_reused_parser_matches_a_fresh_process(tmp_path, monkeypatch):
    # one process runs a usage error, --help, a BadInput and a conjugate in a
    # row; each gives the exit code, stderr and output bytes of a fresh
    # `python -m affval.cli` running that command alone
    monkeypatch.setenv("COLUMNS", "80")
    square = write(tmp_path, "square.json", SQUARE)
    absf = write(tmp_path, "abs.json", {"type": "pa", "domain": {"dim": 1, "vertices": [[-1], [2]]},
                                        "pieces": [{"grad": [1.0], "c": 0.0},
                                                   {"grad": [-1.0], "c": 0.5}]})
    commands = [["conjugate", "--in", absf, "--out", "{out}", "--bogus"],
                ["--help"],
                ["zvalue", square, "--zeta", "sqrt", "--grid", "16"],
                ["conjugate", "--in", absf, "--out", "{out}"]]

    def outputs(where, run):
        got = []
        for i, argv in enumerate(commands):
            out = tmp_path / f"{where}{i}.json"
            code, stdout, stderr = run([a.format(out=out) for a in argv])
            got.append((code, stdout, stderr, out.read_text() if out.exists() else None))
        return got

    src = os.path.dirname(os.path.dirname(affval.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def fresh(argv):
        p = subprocess.run([sys.executable, "-m", "affval.cli", *argv], capture_output=True,
                           text=True, env=env)
        return p.returncode, p.stdout, p.stderr

    here = outputs("here", _run)
    assert [g[0] for g in here] == [2, 0, 2, 0]
    assert here == outputs("fresh", fresh)
