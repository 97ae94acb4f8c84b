"""Command-line behavior: exit codes, reports, CSV artifacts."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import degenpde
from degenpde import reduction, solvers
from degenpde.cli import main
from degenpde.reduction import equation_residual

from conftest import PROBLEMS


@pytest.fixture
def example(problems_dir):
    def pick(name):
        return str(problems_dir / name)
    return pick


def test_structure_prints_certificates(example, capsys):
    code = main(["structure", example("example2.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "family: evolution1" in out
    assert "A1_certified=pass" in out
    assert "A1_quasitriangular=yes" in out
    assert "Pk_idempotence=" in out
    assert "A1_residual_primal=" in out


def test_structure_traces_less_than_one_dense_matrix(example, capsys):
    # I - Q, Bplus and the check max |B Bplus - (I - Q)| stay diagonal plus
    # low-rank maps: no dim x dim array is formed anywhere in the command,
    # so the traced peak stays below one
    tracemalloc.start()
    try:
        assert main(["structure", example("example2.json"), "--grid-scale", "4"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "pseudoinverse_identity=" in capsys.readouterr().out
    assert peak < 801 * 801 * 8


def test_structure_on_invertible_lead_is_regular(example, tmp_path, capsys):
    obj = {
        "family": "mixed_xy",
        "spaces": {"state": {"kind": "euclidean", "dim": 2}},
        "B": {"kind": "identity", "space": "state"},
        "A1": {"kind": "identity", "space": "state"},
        "f": ["1", "1"],
        "grid": {"box": {"x": [0.0, 1.0], "y": [0.0, 1.0]}},
        "tolerances": {"verify": 1e-8},
    }
    path = tmp_path / "regular.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["structure", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regular equation" in out


def test_solve_writes_csv_next_to_cwd(example, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["solve", example("example4.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "example4.csv").exists()
    assert "csv=example4.csv" in out
    assert "== reduction ==" in out
    assert "== solver ==" in out


def test_solve_honors_output_flag(example, tmp_path, capsys):
    target = tmp_path / "field.csv"
    code = main(["solve", example("example4.json"), "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    header = target.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x,y,component,value"


def test_solve_csv_is_deterministic(example, tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["solve", example("example3.json"), "--output", str(a)]) == 0
    assert main(["solve", example("example3.json"), "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 1000


def test_verify_passes_bundled_oracle(example, capsys):
    code = main(["verify", example("example3.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "== oracle ==" in out
    assert "verdict=pass" in out
    assert "== residuals ==" in out


def test_verify_tol_override_can_fail_the_gate(example, capsys):
    code = main(["verify", example("example3.json"), "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict=fail" in out


def test_resonant_lambda_exits_with_failure(example, capsys):
    code = main(["solve", example("example5.json"), "--lambda", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "resonant lambda" in err


def test_common_null_direction_is_refused_up_front(problems_dir, tmp_path, capsys):
    # (1, -1) is null for both B and A1, so no chain through it can
    # terminate; neither matrix has a zero column.  The corner closed form
    # describes another pencil, so the file declares no oracle
    obj = json.loads((problems_dir / "example1.json").read_text(encoding="utf-8"))
    del obj["oracle"]
    obj["B"]["rows"] = [[1.0, 1.0], [1.0, 1.0]]
    obj["A1"] = {"kind": "matrix", "space": "state",
                 "rows": [[2.0, 2.0], [0.0, 0.0]]}
    path = tmp_path / "common_null.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["structure", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "share a null direction" in err


def test_regular_spectral_pencil_verifies(problems_dir, tmp_path, capsys):
    # B = diag(2 - n^2) never vanishes, so lambda = 4 (A1 null on m = 2)
    # leaves a regular pencil: nothing to refuse
    obj = json.loads((problems_dir / "example5.json").read_text(encoding="utf-8"))
    obj["spaces"]["state"]["shape"] = [8, 8]
    obj["B"]["entry"] = "2 - x^2"
    obj["lambda"] = 4.0
    path = tmp_path / "regular.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert "verdict=pass" in capsys.readouterr().out


def test_mixed_xy_coarse_grid_verifies_and_unresolved_data_is_an_input_error(
        problems_dir, tmp_path, capsys):
    obj = json.loads((problems_dir / "example4.json").read_text(encoding="utf-8"))
    obj["grid"]["nx"] = obj["grid"]["ny"] = 9
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert "verdict=pass" in capsys.readouterr().out

    obj = json.loads((problems_dir / "example4.json").read_text(encoding="utf-8"))
    obj["f"] = ["sin(150*x)", "1"]
    path = tmp_path / "rough.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "right-hand side not resolved" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("f", [
    "(" * 3000 + "1" + ")" * 3000,
    "-" * 3000 + "1",
    "2^" * 3000 + "1",
    "1+" * 3000 + "1",
], ids=["brackets", "signs", "powers", "flat-sum"])
def test_deep_expression_is_an_input_error(problems_dir, tmp_path, capsys, f):
    obj = json.loads((problems_dir / "example2.json").read_text(encoding="utf-8"))
    obj["f"] = f
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: f: expression" in err and "deeper than" in err
    assert "Traceback" not in err


def test_400_term_flat_sum_still_verifies(problems_dir, tmp_path, capsys):
    obj = json.loads((problems_dir / "example2.json").read_text(encoding="utf-8"))
    obj["f"] = "+".join(["0.0025*x"] * 400)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert "verdict=pass" in capsys.readouterr().out


@pytest.mark.parametrize("name, L", [
    ("example2.json", [[[[1], 5.0]], [[[0], 2.0]]]),
    ("example1.json", [[[[1, 1], 3.0]], [[[0, 0], 1.0]]]),
    ("example4.json", [[[[2, 0], 3.0]], [[[0, 1], 1.0]]]),
    ("example4.json", [[[[1, 1], 1.0]], [[[0, 1], 1.0]]]),
], ids=["example2-5Dt", "example1-3DxDy", "example4-3Dxx", "example4-DxDy"])
def test_verify_refuses_an_equation_the_family_does_not_solve(
        problems_dir, tmp_path, capsys, name, L):
    # none of these is its family's canonical equation; solving the
    # canonical one and passing the oracle would be a false pass, so a
    # file stating its own L is refused before anything is solved
    obj = json.loads((problems_dir / name).read_text(encoding="utf-8"))
    obj["L"] = L
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert re.search('error: L: is not read; .*"family"', captured.err), \
        captured.err
    assert "verdict=pass" not in captured.out


def _with_L(obj):
    obj["L"] = [[[[2], 1.0]], [[[1], 1.0]], [[[0], 1.0]]]


def _with_A(obj):
    obj["A"] = [obj.pop("A1"), {"kind": "identity", "space": "state",
                                "scale": 0.5}]


def _with_grid_key(obj):
    obj["grid"]["nodes"] = 11


def _with_tolerance_key(obj):
    obj["tolerances"]["residual"] = 1e-6


@pytest.mark.parametrize("command", ["structure", "solve", "verify", "report"])
@pytest.mark.parametrize("edit, message", [
    (_with_L, 'error: L: is not read; .*"family"'),
    (_with_A, 'error: A: is not read; .*"A1"'),
    (_with_grid_key, "error: grid.nodes: is not read by family evolution2"),
    (_with_tolerance_key, "error: tolerances.residual: is not read"),
], ids=["L", "A", "grid-key", "tolerance-key"])
def test_unread_keys_are_input_errors(problems_dir, tmp_path, monkeypatch,
                                      capsys, command, edit, message):
    # the family tag is the only statement of the equation: a file still
    # declaring L or a list of operators A (here the L0 B + L1 A1 + L2 A2
    # system, A2 = 0.5 I) is refused before anything is solved, as is a
    # key that nothing reads
    monkeypatch.chdir(tmp_path)
    obj = json.loads((problems_dir / "example3.json").read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / "unread.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert re.search(message, captured.err), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == [path]


BIG = "1e400"   # JSON reads it as an infinite float


MALFORMED = [
    ("example1", "grid.nx", "abc", None, "grid.nx: expected an integer"),
    ("example2", "grid.dt", "fast", None, "grid.dt: expected a finite number"),
    ("example2", "grid.dt", [1], None, "grid.dt: expected a finite number"),
    ("example5", "grid.nquad", "x", None, "grid.nquad: expected an integer"),
    ("example2", "grid.box.t", [0, BIG], None, r"grid.box.t\[1\]: .* got inf"),
    ("example1", "B.rows", [[1, "a"], [0, 0]], None, r"B.rows\[0\]\[1\]: "),
    ("example2", "A1.scale", BIG, None, "A1.scale: .* got inf"),
    ("example2", "oracle.tol", BIG, None, "oracle.tol: .* got inf"),
    ("example2", "tolerances.verify", BIG, None, "tolerances.verify: .* got inf"),
    ("example2", "spaces.state.quadrture", "simpson", "quadrature",
     r"spaces.state: unknown keys \['quadrture'\]"),
    ("example2", "B.exact_onn", "x", "exact_on", r"B: unknown keys \['exact_onn'\]"),
    ("example2", "oracle.toll", 1e-6, "tol", r"oracle: unknown keys \['toll'\]"),
    ("example1", "grid.nx", 300.7, None, "grid.nx: expected an integer, got 300.7"),
    ("example2", "spaces.state.interval", [False, True], None,
     r"spaces.state.interval\[0\]: .* got bool"),
    # a closed form on a problem it does not describe used to solve in full
    # and then fail, by 88.7, 0.335, 0.441 and 1.0
    ("example2", "spaces.state.interval", [1.0, 2.0], None,
     r"oracle.name: closed form 'evolution1_quadrature' assumes .*; "
     r"B is on a grid space over \[1, 2\]$"),
    ("example1", "B.rows", [[2.0, 0.0], [0.0, 0.0]], None,
     r"oracle.name: closed form 'goursat_bessel' assumes .*; "
     r"the file's B differs from it by 1 \(entry bound\)$"),
    ("example1", "grid.box.x", [0.5, 1.5], None,
     r"oracle.name: closed form 'goursat_bessel' assumes .* starting at x = 0, "
     r"y = 0; grid.box.x starts at 0.5$"),
    ("example3", "A1.scale", -2.0, None,
     r"oracle.name: closed form 'evolution2_quadrature' assumes .*; "
     r"the file's A1 differs from it by 1 \(entry bound\)$"),
]


@pytest.mark.parametrize("name, path, value, drop, message", MALFORMED,
                         ids=[f"{name}-{path}-{i}" for i, (name, path, *_)
                              in enumerate(MALFORMED)])
def test_malformed_fields_are_input_errors(problems_dir, tmp_path, monkeypatch,
                                           capsys, name, path, value, drop, message):
    # each edit used to end in a traceback, or to be accepted, ignored or
    # rounded so that verify checked some other problem; it is refused
    # before any stage runs
    def stage(*args, **kwargs):
        raise AssertionError("a stage ran before the refusal")

    for attr in ("complete_structure", "reduce"):
        monkeypatch.setattr(f"degenpde.cli.{attr}", stage)
    monkeypatch.chdir(tmp_path)
    target = _edited(problems_dir, tmp_path, name, path, value, drop)
    code = main(["verify", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert re.match(f"error: {message}", captured.err.rstrip("\n")), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == [target]


def _edited(problems_dir, tmp_path, name, path, value, drop=None):
    """A copy of a bundled problem with the field at the dotted path set
    to value, and its sibling drop removed."""
    obj = json.loads((problems_dir / f"{name}.json").read_text(encoding="utf-8"))
    *parents, key = path.split(".")
    node = obj
    for parent in parents:
        node = node[parent]
    node[key] = value
    node.pop(drop, None)
    target = tmp_path / "edited.json"
    target.write_text(json.dumps(obj).replace(f'"{BIG}"', BIG), encoding="utf-8")
    return target


def test_closed_form_compares_the_pencil_by_value(problems_dir, tmp_path, capsys):
    # the same kernel written in another order builds the same B
    path = _edited(problems_dir, tmp_path, "example2", "B.kernel", "3*s*x")
    assert main(["verify", str(path)]) == 0
    assert "verdict=pass" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "report"])
def test_unwritable_output_is_an_input_error(example, tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.txt"
    code = main([command, example("example4.json"), "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["solve", "report"])
def test_unwritable_output_is_refused_before_the_solve(example, tmp_path, capsys,
                                                       monkeypatch, command):
    def no_solve(rp):
        raise AssertionError("the solve ran")

    monkeypatch.setattr("degenpde.cli.solve_family", no_solve)
    target = tmp_path / "missing" / "x.csv"
    assert main([command, example("example1.json"), "--output", str(target)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {target}: No such file or directory\n")
    # a file where the directory should be
    (tmp_path / "plain").write_text("", encoding="utf-8")
    target = tmp_path / "plain" / "x.csv"
    assert main([command, example("example1.json"), "--output", str(target)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: Not a directory\n"


def test_grid_scale_scales_the_default_node_counts(problems_dir, tmp_path, capsys):
    obj = json.loads((problems_dir / "example1.json").read_text(encoding="utf-8"))
    del obj["grid"]["nx"], obj["grid"]["ny"]
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    target = tmp_path / "defaults.csv"
    assert main(["solve", str(path), "--grid-scale", "2",
                 "--output", str(target)]) == 0
    # the goursat default of 201 nodes per axis, scaled to 401
    assert "rows=321602" in capsys.readouterr().out


def test_spectral_verify_measures_the_equation_residual_once(example, monkeypatch,
                                                             capsys):
    calls = []

    def counting(*args):
        calls.append(args[0].family)
        return equation_residual(*args)
    for module in (reduction, solvers):
        monkeypatch.setattr(module, "equation_residual", counting)
    assert main(["verify", example("example5.json")]) == 0
    assert "verdict=pass" in capsys.readouterr().out
    assert calls == ["spectral3"]


def test_mode_override_runs_smaller_table(example, tmp_path, capsys):
    target = tmp_path / "modes.csv"
    code = main(["solve", example("example5.json"), "--modes", "6", "6",
                 "--output", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert "modes=(6, 6)" in out
    assert target.exists()


@pytest.mark.parametrize("problem, flags, message", [
    ("example5.json", ["--modes", "0", "0"], "modes must be at least 1"),
    ("example2.json", ["--grid-scale", "nan"], "grid_scale must be finite"),
    ("example2.json", ["--grid-scale", "0"], "grid_scale must be finite and > 0"),
    ("example2.json", ["--grid-scale", "-1"], "grid_scale must be finite and > 0"),
    ("example2.json", ["--dt", "nan"], "dt must be finite"),
    ("example2.json", ["--dt", "-0.001"], "dt must be finite and > 0"),
    ("example5.json", ["--lambda", "nan"], "lambda must be finite"),
    ("example5.json", ["--lambda", "inf"], "lambda must be finite"),
    ("example3.json", ["--tol", "nan"], "--tol must be finite"),
    ("example3.json", ["--tol", "-1"], "--tol must be finite and >= 0"),
])
def test_bad_override_is_an_input_error(example, capsys, problem, flags, message):
    code = main(["verify", example(problem)] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy():
    probe = ("import sys, degenpde, degenpde.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(degenpde.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in degenpde.__all__ if not hasattr(degenpde, name)]
    assert missing == []
    assert len(set(degenpde.__all__)) == len(degenpde.__all__)


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read problem file" in err


def test_corrupt_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not valid JSON" in err


def test_schema_violation_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "evolution1"}), encoding="utf-8")
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "missing required keys" in err


def test_report_roundtrip_is_stable_up_to_wall_time(example, tmp_path, capsys):
    ra = tmp_path / "ra.txt"
    rb = tmp_path / "rb.txt"
    assert main(["report", example("example4.json"), "--output", str(ra)]) == 0
    assert main(["report", example("example4.json"), "--output", str(rb)]) == 0
    out = capsys.readouterr().out
    assert f"report written to {ra}" in out

    def strip_wall(path):
        return [ln for ln in path.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("wall_time_s=")]

    ta, tb = strip_wall(ra), strip_wall(rb)
    assert ta == tb
    assert any(ln.startswith("== oracle ==") for ln in ta)
    assert any(ln.startswith("== residuals ==") for ln in ta)


def test_report_prints_when_no_output_given(example, capsys):
    code = main(["report", example("example4.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("problem: ")
    assert "wall_time_s=" in out


def _without_oracle(problems_dir, tmp_path):
    raw = json.loads((problems_dir / "example2.json").read_text(encoding="utf-8"))
    del raw["oracle"]
    path = tmp_path / "no_oracle.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_verify_without_an_oracle_is_an_input_error(problems_dir, tmp_path, capsys):
    code = main(["verify", _without_oracle(problems_dir, tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "declares no oracle" in err


def test_report_without_an_oracle_has_no_oracle_section(problems_dir, tmp_path, capsys):
    code = main(["report", _without_oracle(problems_dir, tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "== residuals ==" in out
    assert "== oracle ==" not in out


def test_report_failing_the_oracle_still_writes_the_file(example, tmp_path, capsys):
    assert main(["report", example("example3.json"), "--tol", "1e-30"]) == 1
    assert "verdict=fail" in capsys.readouterr().out
    target = tmp_path / "report.txt"
    assert main(["report", example("example3.json"), "--tol", "1e-30",
                 "--output", str(target)]) == 1
    assert capsys.readouterr().out == f"report written to {target}\n"
    assert "verdict=fail" in target.read_text(encoding="utf-8")


def _section(out, title):
    """The lines of a report's == title == section; a blank line ends
    every section."""
    lines = out.splitlines()
    start = lines.index(f"== {title} ==") + 1
    return lines[start:lines.index("", start)]


@pytest.mark.parametrize("name", PROBLEMS)
def test_structure_section_is_the_same_under_every_subcommand(example, tmp_path,
                                                              capsys, name):
    sections = []
    for command in ("structure", "solve", "verify", "report"):
        flags = ["--output", str(tmp_path / "u.csv")] if command == "solve" else []
        assert main([command, example(name)] + flags) == 0
        sections.append(_section(capsys.readouterr().out, "structure"))
    assert sections[0]
    assert all(section == sections[0] for section in sections)


_STRUCTURE_KEYS = ["n", "m", "nu", "l", "p", "k", "terminal_pairing_det",
                   "pairing_condition", "normalization_deviation",
                   "chain_link_residual", "biorthogonality_error",
                   "schmidt_condition", "extra_kernel_directions",
                   "extra_cokernel_directions", "Pk_idempotence",
                   "Qk_idempotence", "pseudoinverse_identity", "A1_certified",
                   "A1_quasitriangular", "A1_residual_primal", "A1_residual_dual"]


def _report_keys(lead, lower, chains, plan, solver, residuals):
    """The line keys of a bundled report: section titles and blank lines
    key as '', every other line up to its first '=' or ':'."""
    return (["problem", "family", "", ""] + _STRUCTURE_KEYS
            + ["", "", "regular part", f"  [{lead}] x operator(|coef|_max",
               f"  [{lower}] x operator(|coef|_max", "C-system rows"]
            + [f"  C({s}, 1) from psi({s}, 1); lower terms" for s in range(chains)]
            + ["free function slots", "compatibility functionals", "boundary plan"]
            + [f"  {line}" for line in plan] + ["", ""] + solver
            + ["", "", "equation_residual"] + residuals
            + ["", "", "kind", "detail", "deviation", "tol", "verdict", "",
               "wall_time_s"])


REPORT_KEYS = {
    "example1.json": _report_keys(
        "1*D0*D1", "1", 1, ["I-Pk d^0u on x", "I-Pk d^0u on y"],
        ["dx", "dy"],
        ["I-Pk d0u/dx0 at x", "I-Pk d0u/dy0 at y"]),
    "example2.json": _report_keys(
        "1*D0", "1", 1, ["I-Pk d^0u on t"], ["dt", "march", "output_stride_t"],
        ["I-Pk d0u/dt0 at t"]),
    "example3.json": _report_keys(
        "1*D0^2", "1*D0", 1, ["I d^0u on t", "I-Pk d^1u on t"],
        ["dt", "march", "output_stride_t"], ["I d0u/dt0 at t", "I-Pk d1u/dt1 at t"]),
    "example4.json": _report_keys(
        "1*D0^2", "1*D1", 1,
        ["I-Pk d^0u on x", "I-Pk d^1u on x", "Pk d^0u on y"],
        ["fit_residual", "series_terms"],
        ["I-Pk d0u/dx0 at x", "I-Pk d1u/dx1 at x", "Pk d0u/dy0 at y"]),
    "example5.json": _report_keys(
        "1*D0^3", "1", 16,
        ["I-Pk d^0u on t", "I-Pk d^1u on t", "I-Pk d^2u on t"],
        ["dt", "lambda", "march", "mode_residual", "modes", "output_stride_t"],
        ["I-Pk d0u/dt0 at t", "I-Pk d1u/dt1 at t", "I-Pk d2u/dt2 at t"]),
}


def test_report_line_keys_are_stable(example, capsys):
    # values are left out, so rounding-level changes never touch this; a
    # dropped, renamed or reordered report line does
    for name in PROBLEMS:
        assert main(["report", example(name)]) == 0
        out = capsys.readouterr().out
        keys = [re.split("[=:]", line, maxsplit=1)[0] for line in out.splitlines()]
        assert keys == REPORT_KEYS[name], name


def test_every_bundled_problem_solves_cleanly(example, tmp_path, capsys):
    for i, name in enumerate(PROBLEMS):
        target = tmp_path / f"run{i}.csv"
        assert main(["solve", example(name), "--output", str(target)]) == 0
        assert target.exists()
    capsys.readouterr()
