import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affval import jsonio
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
])
def test_cli_bad_input_names_itself(tmp_path, capsys, argv, files, message):
    paths = {"F": write(tmp_path, "F.json", SQUARE)}
    paths.update({k: write(tmp_path, k + ".json", v) for k, v in files.items()})
    assert main([paths.get(a, a) for a in argv]) == 2
    assert message in capsys.readouterr().err


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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), (argv, err.getvalue())
            if code == 0:
                json.loads(out.getvalue())
            else:
                assert err.getvalue().startswith("error: ")
