"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name, so a rename in the library fails here instead of in a traced run."""

import importlib.util
from pathlib import Path

import affval
import affval.cli
from affval import funcs, measures
from affval.funcs import AffineFn, PAFn
from affval.geometry import cube

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_tracer_installs_and_uninstalls():
    originals = (funcs.lower_hull_pieces, funcs.PAFn.__dict__["cells"], measures.monge_ampere_pa)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        v = PAFn([AffineFn([1.0, 0.0], 0.0), AffineFn([-1.0, 0.0], 0.0),
                  AffineFn([0.0, 1.0], 0.0), AffineFn([0.0, -1.0], 0.0)])
        mass, dual = affval.ma_total_mass(v)
    finally:
        tracer.uninstall()
    assert mass == dual == 2.0
    assert {s[0] for s in tracer.spans} >= {"measures.ma_total_mass", "funcs.lower_hull_pieces"}
    assert (funcs.lower_hull_pieces, funcs.PAFn.__dict__["cells"], measures.monge_ampere_pa) \
        == originals


def test_benchmark_tracer_spans_pruning_on_a_domain():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        u = PAFn([AffineFn([1.0, 0.0], 0.0), AffineFn([-1.0, 0.0], 0.0),
                  AffineFn([0.0, 0.0], -5.0)], cube(2)).pruned()
    finally:
        tracer.uninstall()
    assert len(u.pieces) == 2
    assert {s[0] for s in tracer.spans} >= {"funcs.PAFn.pruned", "funcs.essential_mask_on_domain"}


def test_benchmark_tracer_spans_exact_and_numeric_zvalue(tmp_path):
    from affval import jsonio
    from affval.sequences import StaircaseSpec, staircase_sequence

    src = tmp_path / "stairs.json"
    src.write_text(jsonio.dumps(jsonio.function_to_dict(
        staircase_sequence(StaircaseSpec(0.0, 1.0, 2.0, m=2)))))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        exact = affval.cli.main(["zvalue", str(src), "--zeta", "sqrt"])
        numeric = affval.cli.main(["zvalue", str(src), "--zeta", "sqrt", "--numeric",
                                   "--grid", "8"])
    finally:
        tracer.uninstall()
    assert exact == numeric == 0
    assert {s[0] for s in tracer.spans} >= {"cli.zvalue", "funcs.certify_plq", "geometry.intersect",
                                            "valuations.z_zeta_plq", "valuations.z_zeta_numeric"}


def test_benchmark_tracer_spans_conjugate_through_the_subdivision(tmp_path):
    from affval import jsonio

    src, dst = tmp_path / "u.json", tmp_path / "conj.json"
    src.write_text(jsonio.dumps(jsonio.function_to_dict(
        PAFn([AffineFn([1.0, 0.5], 0.0), AffineFn([-1.0, 0.0], 0.2), AffineFn([0.0, -1.0], 0.1)],
             cube(2)))))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = affval.cli.main(["conjugate", "--in", str(src), "--out", str(dst)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert {s[0] for s in tracer.spans} >= {"cli.conjugate", "funcs.PAFn.subdivision_vertices",
                                            "geometry.vertices_from_halfspaces"}


def test_benchmark_tracer_spans_commands_of_a_parser_built_before_it(tmp_path):
    # main builds its parser once; the handler it dispatches to is looked up
    # at call time, so a tracer installed afterwards still sees cli.conjugate
    from affval import jsonio

    src, dst = tmp_path / "u.json", tmp_path / "conj.json"
    src.write_text(jsonio.dumps(jsonio.function_to_dict(
        PAFn([AffineFn([1.0, 0.0], 0.0), AffineFn([-1.0, 0.5], 0.1)], cube(2)))))
    argv = ["conjugate", "--in", str(src), "--out", str(dst)]
    assert affval.cli.main(argv) == 0
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = affval.cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert "cli.conjugate" in {s[0] for s in tracer.spans}
