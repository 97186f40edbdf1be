"""The numerics policy: tolerances are named in `affval.numerics` only."""

import ast
import re
from pathlib import Path

import numpy as np

import affval
from affval.numerics import scale_of

SRC = Path(affval.__file__).parent
NUMERICS = SRC / "numerics.py"


def _sources():
    return [p for p in sorted(SRC.glob("*.py")) if p != NUMERICS]


def test_no_tolerance_literal_outside_numerics():
    found = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                v = abs(node.value)
                if 0.0 < v <= 1e-2 or v >= 1e6:
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, "name these in numerics.py:\n" + "\n".join(found)


def test_no_scalar_scale_floor_outside_numerics():
    found = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "max" and node.args
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1.0):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "use numerics.scale_of:\n" + "\n".join(found)


def test_every_constant_states_its_scale():
    constants = [line for line in NUMERICS.read_text().splitlines()
                 if re.match(r"[A-Z_]+ = ", line)]
    assert constants
    for line in constants:
        _, _, comment = line.partition("#")
        assert "absolute" in comment or "relative" in comment, line


def test_scale_of_matches_the_hand_written_floor():
    rng = np.random.default_rng(3)
    for x in (rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-3, 4), np.zeros(2), -2.5, 0.5):
        assert scale_of(x) == max(1.0, float(np.abs(x).max()))
    a, b = rng.normal(size=4) * 5, rng.normal(size=(2, 2)) * 7
    assert scale_of(a, b) == max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
