"""Problem-file loading, validation messages, overrides, and oracles."""

import copy
import functools
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from degenpde import cli, problems, spaces
from degenpde.cli import main
from degenpde.errors import (CompatibilityError, ConfigurationError,
                             EvaluationError, ParseError, UsageError)
from degenpde.expressions import parse
from degenpde.problems import (_mode_sampler, evaluate_oracle, instantiate,
                               load_problem, oracle_first_order_evolution,
                               oracle_second_order_evolution)
from degenpde.reduction import FAMILIES, reduce
from degenpde.solvers import solve_family

from conftest import PROBLEMS

MINIMAL_EVOLUTION = {
    "family": "evolution1",
    "spaces": {"state": {"kind": "grid", "interval": [0.0, 1.0], "nodes": 21,
                         "quadrature": "simpson"}},
    "B": {"kind": "kernel", "space": "state", "kernel": "3*x*s",
          "exact_on": "x"},
    "A1": {"kind": "identity", "space": "state", "scale": -1.0},
    "f": "x",
    "grid": {"box": {"t": [0.0, 1.0]}, "dt": 0.01},
    "tolerances": {"verify": 1e-6},
}

MINIMAL_SPECTRAL = {
    "family": "spectral3",
    "spaces": {"state": {"kind": "modes", "shape": [4, 4]}},
    "B": {"kind": "mode_diag", "space": "state", "entry": "1 - x^2"},
    "A1": {"kind": "mode_diag", "space": "state", "entry": "s - y^2"},
    "f": "sin(2*x)*sin(y)*exp(-t)",
    "lambda": 5.0,
    "grid": {"box": {"t": [0.0, 1.0]}, "dt": 0.01, "nquad": 32},
    "tolerances": {"verify": 1e-4},
}


def _dump(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _variant(base, **edits):
    obj = copy.deepcopy(base)
    obj.update(edits)
    return obj


# -- bundled files -------------------------------------------------------------

def test_bundled_problems_load_and_instantiate(problems_dir):
    for name in PROBLEMS:
        pf = load_problem(problems_dir / name)
        assert pf.oracle is not None
        spec = instantiate(pf)
        assert spec.family == pf.family
        assert spec.B.domain.dim >= 2


def test_bundled_kernel_example_dimensions(problems_dir):
    pf = load_problem(problems_dir / "example2.json")
    spec = instantiate(pf)
    assert spec.B.domain.dim == 201
    assert spec.box["t"] == (0.0, 2.0)
    assert spec.grid["dt"] == 0.001


# -- validation messages -------------------------------------------------------

def test_unreadable_file_is_a_usage_error(tmp_path):
    with pytest.raises(UsageError, match="cannot read problem file"):
        load_problem(tmp_path / "missing.json")


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"family": "evolution1",\n  "spaces": }', encoding="utf-8")
    with pytest.raises(ParseError, match="not valid JSON") as ei:
        load_problem(path)
    assert "line 2" in str(ei.value)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"family": "\xff\xfe"}')
    with pytest.raises(ParseError, match="not valid JSON"):
        load_problem(path)


def test_unknown_top_level_key(tmp_path):
    path = _dump(tmp_path, _variant(MINIMAL_EVOLUTION, surprise=1))
    with pytest.raises(ConfigurationError,
                       match=r"top level: unknown keys \['surprise'\]"):
        load_problem(path)


def test_missing_required_keys(tmp_path):
    obj = copy.deepcopy(MINIMAL_EVOLUTION)
    del obj["tolerances"]
    with pytest.raises(ConfigurationError, match="missing required keys"):
        load_problem(_dump(tmp_path, obj))


def test_unknown_family_lists_the_supported_ones(tmp_path):
    path = _dump(tmp_path, _variant(MINIMAL_EVOLUTION, family="heat"))
    with pytest.raises(ConfigurationError, match="family: unknown family") as ei:
        load_problem(path)
    msg = str(ei.value)
    for fam in ("goursat", "evolution1", "evolution2", "mixed_xy", "spectral3"):
        assert fam in msg


def test_bad_space_descriptions(tmp_path):
    obj = copy.deepcopy(MINIMAL_EVOLUTION)
    obj["spaces"]["state"] = {"kind": "sobolev"}
    with pytest.raises(ConfigurationError, match="spaces.state.kind"):
        load_problem(_dump(tmp_path, obj))
    obj["spaces"]["state"] = {"kind": "grid", "interval": [1.0, 0.0], "nodes": 21}
    with pytest.raises(ConfigurationError, match=r"interval.*lo < hi"):
        load_problem(_dump(tmp_path, obj))
    obj["spaces"]["state"] = {"kind": "grid", "interval": [0.0, 1.0], "nodes": 3}
    with pytest.raises(ConfigurationError, match="nodes.*>= 5"):
        load_problem(_dump(tmp_path, obj))


def test_bad_operator_descriptions(tmp_path):
    obj = copy.deepcopy(MINIMAL_EVOLUTION)
    obj["B"] = {"kind": "projector", "space": "state"}
    with pytest.raises(ConfigurationError, match="B.kind: unknown operator"):
        load_problem(_dump(tmp_path, obj))
    obj["B"] = {"kind": "kernel", "space": "other", "kernel": "x*s"}
    with pytest.raises(ConfigurationError, match="B.space: unknown space"):
        load_problem(_dump(tmp_path, obj))
    obj["B"] = {"kind": "kernel", "space": "state", "kernel": "x*t"}
    with pytest.raises(ConfigurationError, match="B.kernel"):
        load_problem(_dump(tmp_path, obj))


def test_operator_term_validation(tmp_path):
    # the family fixes L0 and L1, so term lists and operator lists are
    # refused with the key that replaces them
    obj = _variant(MINIMAL_EVOLUTION, L=[[[[1], 1.0]], [[[0], 1.0]]])
    with pytest.raises(ConfigurationError,
                       match='L: is not read; declare the equation through '
                             '"family" only'):
        load_problem(_dump(tmp_path, obj))
    obj = copy.deepcopy(MINIMAL_EVOLUTION)
    obj["A"] = [obj.pop("A1")]
    with pytest.raises(ConfigurationError,
                       match='A: is not read; declare the one lower-order '
                             'operator as "A1"'):
        load_problem(_dump(tmp_path, obj))
    obj = copy.deepcopy(MINIMAL_EVOLUTION)
    obj["A1"] = {"kind": "projector", "space": "state"}
    with pytest.raises(ConfigurationError, match="A1.kind: unknown operator"):
        load_problem(_dump(tmp_path, obj))


@pytest.mark.parametrize("family, reads", [
    ("goursat", "box, nx, ny"), ("evolution1", "box, dt"),
    ("evolution2", "box, dt"), ("mixed_xy", "box, nx, ny"),
    ("spectral3", "box, dt, nquad"),
])
def test_unread_grid_and_tolerance_keys_are_refused(tmp_path, family, reads):
    base = MINIMAL_SPECTRAL if family == "spectral3" else MINIMAL_EVOLUTION
    obj = _variant(base, family=family, grid={"output_stride_t": 5})
    with pytest.raises(ConfigurationError,
                       match=f"grid.output_stride_t: is not read by family "
                             f"{family}; its grid keys are {reads}$"):
        load_problem(_dump(tmp_path, obj))
    unread = {"goursat": "dt", "evolution1": "nx", "evolution2": "nquad",
              "mixed_xy": "nodes", "spectral3": "ny"}[family]
    obj = _variant(base, family=family, grid={unread: 11})
    with pytest.raises(ConfigurationError, match=f"grid.{unread}: is not read"):
        load_problem(_dump(tmp_path, obj))
    obj = _variant(base, family=family, grid={},
                   tolerances={"verify": 1e-6, "oracle": 1e-3})
    with pytest.raises(ConfigurationError,
                       match="tolerances.oracle: is not read; the only "
                             "tolerance is verify"):
        load_problem(_dump(tmp_path, obj))


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_bundled_file_loads_with_only_keys_its_family_reads(
        problems_dir, name):
    raw = json.loads((problems_dir / name).read_text(encoding="utf-8"))
    pf = load_problem(problems_dir / name)
    assert set(raw["grid"]) <= {"box", *FAMILIES[pf.family].grid}
    assert set(pf.tolerances) == {"verify"}
    assert "A" not in raw and "L" not in raw


def _nodes(tree, path=""):
    """The field path and value of every node under a parsed JSON tree,
    entries of lists included, the root left out."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        sub = (f"{path}[{key}]" if isinstance(key, int)
               else f"{path}.{key}" if path else key)
        yield sub, value
        yield from _nodes(value, sub)


def _replaced(tree, path, value):
    """A copy of tree with the node at a field path of _nodes set to value."""
    tree = copy.deepcopy(tree)
    *parents, last = [int(k) if k.isdigit() else k
                      for k in path.replace("[", ".").replace("]", "").split(".")]
    node = tree
    for key in parents:
        node = node[key]
    node[last] = value
    return tree


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_field_of_every_bundled_file_is_checked(problems_dir, tmp_path, name):
    # a string, an empty list, a bool and a number JSON reads as infinite:
    # none of them is a valid value of any field of the bundled files, so
    # each must be refused at load time with the path of that field (or of
    # the list that holds it), never passed on to the solvers
    raw = json.loads((problems_dir / name).read_text(encoding="utf-8"))
    for path, _ in _nodes(raw):
        for value in ("?", [], True, float("inf")):
            target = _dump(tmp_path, _replaced(raw, path, value))
            with pytest.raises(ConfigurationError) as ei:
                load_problem(target)
            where = str(ei.value).split(": ", 1)[0]
            assert where == path or path.startswith(where + "["), (path, value, ei.value)


def test_perfbench_problem_files_load_and_instantiate(tmp_path):
    # the benchmark writes its own problem files from the bundled ones;
    # each must load and build with the overrides its workload passes
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    built = 0
    for workload in workloads.WORKLOADS:
        for seed in range(6):
            paths = workloads.write_problems(root, workload, seed,
                                             tmp_path / f"{workload}{seed}")
            for name, over in workloads.instantiate_args(workload):
                instantiate(load_problem(paths[name]), **over)
            built += len(paths)
    assert built == 48


def test_forcing_variable_scope(tmp_path):
    path = _dump(tmp_path, _variant(MINIMAL_EVOLUTION, f="y + t"))
    with pytest.raises(ConfigurationError,
                       match=r"f: variables \['y'\] are not available"):
        load_problem(path)


def test_bad_box_axis(tmp_path):
    obj = copy.deepcopy(MINIMAL_EVOLUTION)
    obj["grid"] = {"box": {"q": [0.0, 1.0]}, "dt": 0.01}
    with pytest.raises(ConfigurationError,
                       match="grid.box.q: family evolution1 has axes t"):
        load_problem(_dump(tmp_path, obj))


def test_lambda_must_be_a_number(tmp_path):
    obj = _variant(MINIMAL_SPECTRAL)
    obj["lambda"] = [0.0, 1.0]
    with pytest.raises(ConfigurationError,
                       match="free kernel coefficients are not configurable "
                             "from problem files"):
        load_problem(_dump(tmp_path, obj))


def test_oracle_validation(tmp_path):
    path = _dump(tmp_path, _variant(MINIMAL_EVOLUTION,
                                    oracle={"kind": "guess"}))
    with pytest.raises(ConfigurationError, match="oracle.kind: unknown oracle"):
        load_problem(path)
    path = _dump(tmp_path, _variant(MINIMAL_EVOLUTION,
                                    oracle={"kind": "closed_form",
                                            "name": "wave_dalembert"}))
    with pytest.raises(ConfigurationError, match="oracle.name: unknown closed"):
        load_problem(path)
    # a closed form of another family is refused, not a false fail
    second_order = _variant(MINIMAL_EVOLUTION, family="evolution2",
                            oracle={"kind": "closed_form",
                                    "name": "evolution1_quadrature"})
    with pytest.raises(ConfigurationError,
                       match="closed form 'evolution1_quadrature' does not "
                             "describe family evolution2"):
        load_problem(_dump(tmp_path, second_order))


@pytest.mark.parametrize("f, message", [
    (["x*y", "1"], r"needs a constant right side; f\[0\] depends on \['x', 'y'\]"),
    (["1", "1", "1"], "covers the two-component corner problem"),
], ids=["variable", "three-components"])
def test_series_closed_form_refuses_other_right_sides_at_load(problems_dir, tmp_path,
                                                              f, message):
    raw = json.loads((problems_dir / "example1.json").read_text(encoding="utf-8"))
    with pytest.raises(ConfigurationError,
                       match=f"oracle.name: the series closed form {message}"):
        load_problem(_dump(tmp_path, _variant(raw, f=f)))


def test_series_closed_form_refuses_a_box_where_it_cancels(problems_dir, tmp_path):
    # the Bessel sum's largest term times eps bounds its rounding: 0.41 on
    # [0, 20]^2, where the form reads 0.40 away from 1 - J0(2 sqrt(xy)),
    # and 7.7e-8 on [0, 12]^2, within the tol of 1e-6
    raw = json.loads((problems_dir / "example1.json").read_text(encoding="utf-8"))
    wide = _variant(raw, grid={**raw["grid"], "box": {"x": [0.0, 20.0], "y": [0.0, 20.0]}})
    with pytest.raises(ConfigurationError,
                       match=r"oracle.name: closed form 'goursat_bessel' cancels on the "
                             r"box x \[0, 20\], y \[0, 20\]: its rounding bound 0.41 "
                             r"exceeds the oracle tol 1e-06"):
        instantiate(load_problem(_dump(tmp_path, wide)))
    narrow = _variant(raw, grid={**raw["grid"], "box": {"x": [0.0, 12.0], "y": [0.0, 12.0]}})
    assert instantiate(load_problem(_dump(tmp_path, narrow))).box["x"] == (0.0, 12.0)


@pytest.mark.parametrize("name", ["example1.json", "example2.json"])
def test_mode_residual_oracle_needs_a_modes_space(problems_dir, tmp_path, capsys, name):
    # only a solve on a modes space records its per-mode residual: on any
    # other pencil the oracle would read deviation=inf and fail every run
    raw = json.loads((problems_dir / name).read_text(encoding="utf-8"))
    path = _dump(tmp_path, _variant(raw, oracle={"kind": "mode_residual", "tol": 1e-4}))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "oracle.kind: mode_residual needs B on a modes space" in err


def test_mode_residual_oracle_follows_the_space_not_the_family(problems_dir, tmp_path,
                                                               capsys):
    # the goursat corner problem declared on a (2, 1) mode table
    raw = json.loads((problems_dir / "example1.json").read_text(encoding="utf-8"))
    path = _dump(tmp_path, _variant(raw, spaces={"state": {"kind": "modes", "shape": [2, 1]}},
                                    oracle={"kind": "mode_residual", "tol": 1e-4},
                                    tolerances={"verify": 1e-4}))
    assert main(["verify", str(path)]) == 0
    assert "kind=mode_residual" in capsys.readouterr().out


def test_component_count_checked_at_instantiation(tmp_path):
    obj = {
        "family": "mixed_xy",
        "spaces": {"state": {"kind": "euclidean", "dim": 2}},
        "B": {"kind": "matrix", "space": "state",
              "rows": [[1.0, 0.0], [0.0, 0.0]]},
        "A1": {"kind": "identity", "space": "state"},
        "f": ["1", "1", "1"],
        "grid": {"box": {"x": [0.0, 1.0], "y": [0.0, 1.0]}},
        "tolerances": {"verify": 1e-8},
    }
    pf = load_problem(_dump(tmp_path, obj))
    with pytest.raises(ConfigurationError, match="f: needs 2 components"):
        instantiate(pf)


def test_matrix_shape_checked_at_instantiation(tmp_path):
    obj = {
        "family": "mixed_xy",
        "spaces": {"state": {"kind": "euclidean", "dim": 2}},
        "B": {"kind": "matrix", "space": "state", "rows": [[1.0, 0.0, 0.0]]},
        "A1": {"kind": "identity", "space": "state"},
        "f": ["1", "1"],
        "grid": {"box": {"x": [0.0, 1.0], "y": [0.0, 1.0]}},
        "tolerances": {"verify": 1e-8},
    }
    pf = load_problem(_dump(tmp_path, obj))
    with pytest.raises(ConfigurationError, match="B.rows: matrix shape"):
        instantiate(pf)


def test_mode_diag_requires_declared_lambda(tmp_path):
    obj = copy.deepcopy(MINIMAL_SPECTRAL)
    del obj["lambda"]
    pf = load_problem(_dump(tmp_path, obj))
    with pytest.raises(ConfigurationError, match="needs a spectral parameter"):
        instantiate(pf)


# -- sampling and overrides ------------------------------------------------------

def test_mode_sampler_is_exact_on_band_limited_forcing(tmp_path):
    pf = load_problem(_dump(tmp_path, MINIMAL_SPECTRAL))
    spec = instantiate(pf)
    t = np.array([0.0, 0.5, 1.0])
    coeff = spec.f(t=t)
    assert coeff.shape == (3, 16)
    # f = sin(2x) sin(y) e^-t lands on mode (n, m) = (2, 1), index 4
    np.testing.assert_allclose(coeff[:, 4], np.exp(-t), atol=1e-12)
    others = np.delete(coeff, 4, axis=1)
    assert np.abs(others).max() <= 1e-12


def test_mode_sampler_matches_the_double_sum():
    nm, mm, nquad = 3, 2, 8
    t = np.array([0.0, 0.3, 1.2])
    got = _mode_sampler(parse("x * y^2 * (1 + t) + cos(x - y)"), nm, mm, nquad)(t)
    xq = np.arange(1, nquad) * np.pi / nquad
    want = np.zeros((t.size, nm, mm))
    for a, tv in enumerate(t):
        for n in range(1, nm + 1):
            for m in range(1, mm + 1):
                for xj in xq:
                    for yk in xq:
                        fv = xj * yk ** 2 * (1 + tv) + np.cos(xj - yk)
                        want[a, n - 1, m - 1] += fv * np.sin(n * xj) * np.sin(m * yk)
    want *= (2.0 / nquad) ** 2
    np.testing.assert_allclose(got, want.reshape(t.size, -1), rtol=0, atol=1e-13)


def test_mode_sampler_returns_one_mode_of_a_sine_product():
    t = np.array([0.0, 0.5, 2.0])
    coeff = _mode_sampler(parse("sin(x) * sin(2*y) * exp(-t)"), 3, 2, 8)(t)
    # mode (n, m) = (1, 2) sits at flat index (1 - 1) * 2 + (2 - 1)
    np.testing.assert_allclose(coeff[:, 1], np.exp(-t), rtol=0, atol=1e-13)
    assert np.abs(np.delete(coeff, 1, axis=1)).max() <= 1e-13


def _time_ranks(monkeypatch):
    """Record the rank of the t binding of every expression evaluation in
    problems: 1 for a time factor, 3 for the (t, x, y) grid."""
    ranks = []
    orig = problems.evaluate

    def recording(ast, **bindings):
        if "t" in bindings:
            ranks.append(np.ndim(bindings["t"]))
        return orig(ast, **bindings)
    monkeypatch.setattr(problems, "evaluate", recording)
    return ranks


@pytest.mark.parametrize("source", [
    "(sin(x)*sin(2*y) + sin(2*x)*sin(y))*exp(-t)",
    # the form the benchmark draws for example5
    "(1.237*sin(x)*sin(2*y) + 0.614*sin(2*x)*sin(y))*exp(-1.852*t)",
    "x * y^2 * (1 + t) + cos(x - y) - 2*t",
])
def test_mode_sampler_factors_match_the_grid_path(source, monkeypatch):
    t = np.linspace(0.0, 1.0, 301)
    ranks = _time_ranks(monkeypatch)
    factored = _mode_sampler(parse(source), 16, 16, 64)(t)
    assert set(ranks) == {1}
    monkeypatch.setattr(problems, "separate", lambda *args: None)
    grid = _mode_sampler(parse(source), 16, 16, 64)(t)
    assert set(ranks) == {1, 3}
    np.testing.assert_allclose(factored, grid, rtol=0,
                               atol=1e-14 * np.abs(grid).max())


def test_mode_sampler_keeps_the_grid_path_for_a_mixed_side(tmp_path, monkeypatch,
                                                           capsys):
    ranks = _time_ranks(monkeypatch)
    # 801 half-step samples: the grid is sampled in several chunks
    grid = dict(MINIMAL_SPECTRAL["grid"], dt=0.0025)
    path = _dump(tmp_path, _variant(MINIMAL_SPECTRAL, f="sin(x*t)*y", grid=grid,
                                    oracle={"kind": "mode_residual", "tol": 1e-4}))
    assert main(["verify", str(path)]) == 0
    assert "verdict=pass" in capsys.readouterr().out
    assert set(ranks) == {3}


@pytest.mark.parametrize("source", [
    "exp(700*t)*exp(100*x)",      # finite factors, overflowing products
    "exp(800*t)*sin(x)",          # an overflowing time factor
    "exp(-t)*exp(400*y)",         # an overflowing space factor
])
def test_mode_sampler_refuses_an_overflowing_side(source, tmp_path, capsys):
    with pytest.raises(EvaluationError, match="non-finite"):
        _mode_sampler(parse(source), 4, 4, 32)(np.linspace(0.0, 1.0, 5))
    path = _dump(tmp_path, _variant(MINIMAL_SPECTRAL, f=source))
    # structure never samples f
    assert main(["structure", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_grid_scale_override_rescales_nodes(problems_dir):
    pf = load_problem(problems_dir / "example2.json")
    spec = instantiate(pf, grid_scale=0.5)
    assert spec.B.domain.dim == 101
    tiny = instantiate(pf, grid_scale=0.01)
    assert tiny.B.domain.dim == 5


def test_dt_override_wins_over_the_file(problems_dir):
    pf = load_problem(problems_dir / "example2.json")
    spec = instantiate(pf, dt=0.01)
    assert spec.grid["dt"] == 0.01


def test_modes_override_changes_operator_dimensions(problems_dir):
    pf = load_problem(problems_dir / "example5.json")
    spec = instantiate(pf, modes=(8, 8))
    assert spec.B.domain.dim == 64
    assert spec.B.domain.mode_shape == (8, 8)
    b = np.diag(spec.B.matrix)
    n_idx = np.repeat(np.arange(1, 9), 8)
    np.testing.assert_allclose(b, 1.0 - n_idx.astype(float) ** 2, atol=0)


def test_spectral_settings_under_grid_are_refused(tmp_path):
    # lambda and the mode table each have one source; a grid copy would
    # otherwise be silently dropped (or, for modes, silently win)
    for key, value, instead in (("lambda", 5.0, 'top-level "lambda"'),
                                ("modes", [2, 2], "spaces.<name>.shape")):
        grid = dict(MINIMAL_SPECTRAL["grid"], **{key: value})
        path = _dump(tmp_path, _variant(MINIMAL_SPECTRAL, grid=grid))
        with pytest.raises(ConfigurationError, match=f"grid.{key}: .*{instead}"):
            load_problem(path)
    spec = instantiate(load_problem(_dump(tmp_path, MINIMAL_SPECTRAL)))
    assert spec.B.domain.mode_shape == (4, 4) and spec.grid["lambda"] == 5.0


def test_resonant_lambda_override_rejected_early(problems_dir):
    pf = load_problem(problems_dir / "example5.json")
    with pytest.raises(CompatibilityError, match=r"resonant lambda.*mode \(1, 2\);"):
        instantiate(pf, lambda_param=4.0)
    with pytest.raises(CompatibilityError, match=r"resonant lambda.*mode \(1, 3\);"):
        instantiate(pf, lambda_param=9.0)


def test_common_null_mode_of_the_built_pencil_is_refused(problems_dir, tmp_path):
    # B = 1 - n^2 and A1 = 2 - 2 m^2 both vanish on mode (1, 1)
    obj = json.loads((problems_dir / "example5.json").read_text(encoding="utf-8"))
    obj["spaces"]["state"]["shape"] = [8, 8]
    obj["A1"]["entry"] = "s - 2*y^2"
    obj["lambda"] = 2.0
    with pytest.raises(CompatibilityError,
                       match=r"resonant lambda: 2 .* on mode \(1, 1\);"):
        instantiate(load_problem(_dump(tmp_path, obj)))


def test_instantiate_is_deterministic(tmp_path):
    pf = load_problem(_dump(tmp_path, MINIMAL_SPECTRAL))
    a = instantiate(pf)
    b = instantiate(pf)
    assert a.B.matrix.tobytes() == b.B.matrix.tobytes()
    assert a.A1.matrix.tobytes() == b.A1.matrix.tobytes()
    t = np.linspace(0.0, 1.0, 7)
    assert a.f(t=t).tobytes() == b.f(t=t).tobytes()


# -- oracle evaluation ------------------------------------------------------------

def test_oracle_outcomes_for_bundled_problems(problems_dir):
    # the two cheap ones: exact expressions and the mode residual
    for name, bound in (("example3.json", 1e-9), ("example5.json", 1e-4)):
        pf = load_problem(problems_dir / name)
        rp = reduce(instantiate(pf))
        fld = solve_family(rp)
        out = evaluate_oracle(pf, rp, fld)
        assert out.passed
        assert out.deviation <= bound


@pytest.mark.parametrize("block", [1, 500, 1 << 16])
def test_exact_oracle_takes_its_deviation_by_row_blocks(problems_dir, monkeypatch, rng,
                                                        block):
    # the largest deviation sits in one row of many blocks; every block's
    # exact values match the whole-array evaluation
    pf = load_problem(problems_dir / "example4.json")
    rp = reduce(instantiate(pf))
    fld = solve_family(rp)
    fld.values = fld.values + 1e-9 * rng.standard_normal(fld.values.shape)
    fld.values[73, 40, 1] += 1e-6
    x, y = np.meshgrid(fld.axes[0][1], fld.axes[1][1], indexing="ij")
    exact = np.stack([x ** 2 / 2, y], axis=-1)
    monkeypatch.setattr(spaces, "BLOCK", block)
    assert evaluate_oracle(pf, rp, fld).deviation == np.abs(fld.values - exact).max()


@pytest.mark.parametrize("name, component", [("example2", "-x"), ("example3", "-x*t")])
def test_exact_oracle_binds_x_to_the_grid_nodes(problems_dir, tmp_path, capsys, name,
                                                component):
    # f = x solves to u = -x under evolution1 and to u = -x t under evolution2
    raw = json.loads((problems_dir / f"{name}.json").read_text(encoding="utf-8"))
    path = _dump(tmp_path, _variant(raw, oracle={"kind": "exact", "components": [component],
                                                 "tol": 1e-10}, tolerances={"verify": 1e-10}))
    assert main(["verify", str(path)]) == 0
    assert "kind=exact" in capsys.readouterr().out


@pytest.mark.parametrize("name, components, want", [
    ("example2", ["-x", "x"], "family evolution1 takes a single expression"),
    ("example4", ["x^2/2", "y", "1"], "needs 2 components"),
])
def test_exact_oracle_component_count_is_an_input_error(problems_dir, tmp_path, capsys,
                                                        name, components, want):
    raw = json.loads((problems_dir / f"{name}.json").read_text(encoding="utf-8"))
    path = _dump(tmp_path, _variant(raw, oracle={"kind": "exact", "components": components,
                                                 "tol": 1e-10}, tolerances={"verify": 1e-10}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: oracle.components: {want}")


@pytest.mark.parametrize("command", ["structure", "solve", "verify"])
def test_exact_oracle_components_are_refused_before_any_stage_runs(problems_dir, tmp_path,
                                                                   capsys, monkeypatch,
                                                                   command):
    # instantiate compiles the oracle's components, so no subcommand gets
    # to the structure, the solve or the CSV with a wrong component count
    raw = json.loads((problems_dir / "example2.json").read_text(encoding="utf-8"))
    path = _dump(tmp_path, _variant(raw, oracle={"kind": "exact", "components": ["-x", "x"],
                                                 "tol": 1e-10}, tolerances={"verify": 1e-10}))
    with pytest.raises(ConfigurationError, match="oracle.components"):
        instantiate(load_problem(path))

    def refused(*args):
        raise AssertionError("ran a stage after instantiate")

    monkeypatch.setattr(cli, "complete_structure", refused)
    monkeypatch.setattr(cli, "reduce", refused)
    csv = tmp_path / "u.csv"
    argv = [command, str(path)] + (["--output", str(csv)] if command == "solve" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: oracle.components: family evolution1 takes a single expression")
    assert not csv.exists()


@pytest.mark.parametrize("source", ["sin(x)*sin(2*y)*exp(-t)*(1 - t)",
                                    "x * y^2 * (1 + t) + cos(x - y)"])
def test_exact_oracle_on_modes_is_the_sine_transform(problems_dir, tmp_path, source):
    raw = json.loads((problems_dir / "example5.json").read_text(encoding="utf-8"))
    pf = load_problem(_dump(tmp_path, _variant(raw, oracle={"kind": "exact",
                                                            "components": [source]})))
    rp = reduce(instantiate(pf))
    fld = solve_family(rp)
    fld.values = _mode_sampler(parse(source), 16, 16, 64)(fld.axes[0][1])
    assert evaluate_oracle(pf, rp, fld).deviation == 0.0


def test_oracle_tolerance_override_sets_the_verdict(problems_dir):
    pf = load_problem(problems_dir / "example3.json")
    rp = reduce(instantiate(pf))
    fld = solve_family(rp)
    assert evaluate_oracle(pf, rp, fld).tol == pf.oracle["tol"]
    strict = evaluate_oracle(pf, rp, fld, tol=1e-30)
    assert strict.tol == 1e-30
    assert not strict.passed


def test_oracle_tol_and_tolerances_verify_must_agree(problems_dir, tmp_path, capsys):
    # both keys state the oracle's tolerance; a file that gives two
    # values is refused rather than silently using one
    raw = json.loads((problems_dir / "example7.json").read_text(encoding="utf-8"))
    path = _dump(tmp_path, _variant(raw, tolerances={"verify": 1e-6}))
    with pytest.raises(ConfigurationError, match=r"^oracle.tol: 1e-11 differs from "
                                                 r"tolerances.verify 1e-06"):
        load_problem(path)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: oracle.tol: 1e-11 differs from tolerances.verify 1e-06")
    assert load_problem(problems_dir / "example7.json").oracle["tol"] == 1e-11


def _oracle_routes(problems_dir, name, dt, monkeypatch):
    """The reference of both evolution oracles on one bundled problem, on
    the separated route and on the sampled one (problems.separate patched
    to find no separation), with the node slices each route yielded."""
    pf = load_problem(problems_dir / f"{name}.json")
    out = []
    for route in ("separated", "sampled"):
        if route == "sampled":
            monkeypatch.setattr(problems, "separate", lambda *args: None)
        spec = instantiate(pf, dt=dt)
        assert (getattr(spec.f, "separated", None) is None) == (route == "sampled")
        nt = round((spec.box["t"][1] - spec.box["t"][0]) / spec.grid["dt"])
        tgrid = np.linspace(*spec.box["t"], nt + 1)
        for oracle in (oracle_first_order_evolution, oracle_second_order_evolution):
            blocks = list(oracle(spec.f, tgrid, spec.B.domain.grid))
            out.append((route, oracle.__name__, blocks, nt + 1))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("dt", [None, 0.00025])
@pytest.mark.parametrize("name", ["example2", "example3", "example7"])
def test_separated_and_sampled_oracle_routes_agree(problems_dir, monkeypatch, name, dt):
    refs = {}
    for route, oracle, blocks, n_nodes in _oracle_routes(problems_dir, name, dt, monkeypatch):
        # every time node is yielded once, in order
        seen = np.concatenate([np.arange(n_nodes)[nodes] for nodes, _ in blocks])
        assert np.array_equal(seen, np.arange(n_nodes))
        refs.setdefault(oracle, {})[route] = np.concatenate([ref for _, ref in blocks])
    for oracle, ref in refs.items():
        want = ref["separated"]
        assert np.abs(ref["sampled"] - want).max() <= 1e-12 * np.abs(want).max(), oracle


@pytest.mark.parametrize("name", ["example2", "example3"])
def test_an_f_that_does_not_separate_is_sampled_by_the_oracle(problems_dir, tmp_path,
                                                                capsys, name):
    raw = json.loads((problems_dir / f"{name}.json").read_text(encoding="utf-8"))
    path = _dump(tmp_path, _variant(raw, f="sin(3*t*x)"))
    assert getattr(instantiate(load_problem(path)).f, "separated", None) is None
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "detail=sup deviation from the quadrature closed form, f sampled\n" in out
    # the solver takes its sampled route too
    assert "march=f sampled, width 201\n" in out
    assert "verdict=pass" in out


@pytest.mark.parametrize("name, terms", [("example2", "1 separated term"),
                                         ("example7", "2 separated terms")])
def test_a_separated_f_is_never_sampled_by_the_oracle(problems_dir, name, terms):
    # the oracle integrates f's time factors only (the solver's own route
    # has its test in test_solvers)
    pf = load_problem(problems_dir / f"{name}.json")
    rp = reduce(instantiate(pf))
    fld = solve_family(rp)
    calls = []
    sampler = rp.system.f

    @functools.wraps(sampler)
    def spy(**coords):
        calls.append(coords)
        return sampler(**coords)

    rp.system.f = spy
    outcome = evaluate_oracle(pf, rp, fld)
    assert calls == []
    assert outcome.detail == f"sup deviation from the quadrature closed form, f in {terms}"
    assert outcome.passed


def test_separated_oracle_peak_stays_at_or_below_the_sampled_one(problems_dir, monkeypatch):
    # example3 at dt 2.5e-4, u = 8001 x 201: both routes hold blocks of u
    # rows, the separated one beside an R-wide time side
    pf = load_problem(problems_dir / "example3.json")
    peaks = []
    for route in ("separated", "sampled"):
        if route == "sampled":
            monkeypatch.setattr(problems, "separate", lambda *args: None)
        rp = reduce(instantiate(pf, dt=0.00025))
        fld = solve_family(rp)
        tracemalloc.start()
        try:
            evaluate_oracle(pf, rp, fld)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_missing_oracle_is_an_error(tmp_path):
    pf = load_problem(_dump(tmp_path, MINIMAL_EVOLUTION))
    assert pf.oracle is None
    with pytest.raises(ConfigurationError, match="declares no oracle"):
        evaluate_oracle(pf, None, None)
