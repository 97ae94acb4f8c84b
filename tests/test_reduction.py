"""System specs, reduction to the regular problem, residual checks."""

import numpy as np
import pytest

from degenpde.errors import CompatibilityError, ConfigurationError
from degenpde.problems import instantiate, load_problem
from degenpde.reduction import (FAMILIES, DegenerateSystemSpec,
                                apply_differential_operator, describe_reduction,
                                reconstruct_solution, reduce, residual_check)
from degenpde.solvers import SolutionField, solve_family
from degenpde.spaces import FiniteOperator, grid_space, matrix_operator


def _evolution_spec(B, A, f, dt=1e-3, t_hi=1.0):
    return DegenerateSystemSpec(B=B, A1=A, f=f, family="evolution1",
                                box={"t": (0.0, t_hi)}, grid={"dt": dt})


# -- differential operators ---------------------------------------------------

def test_apply_differential_operator_mixed_partial():
    x = np.linspace(0.0, 1.0, 41)
    y = np.linspace(0.0, 1.0, 31)
    field = np.outer(x ** 2, y)
    out = apply_differential_operator((1, 1), field, [("x", x), ("y", y)])
    np.testing.assert_allclose(out, np.broadcast_to(2 * x[:, None],
                                                    field.shape), atol=1e-9)


# -- system spec validation ----------------------------------------------------

def test_system_spec_rejects_unknown_family():
    B = matrix_operator(np.eye(2))
    with pytest.raises(ConfigurationError, match="unknown family 'heat'"):
        DegenerateSystemSpec(B=B, A1=B, f=None, family="heat")


def test_system_spec_checks_operator_shapes():
    B = matrix_operator(np.eye(2))
    A = matrix_operator(np.eye(3))
    with pytest.raises(ConfigurationError, match="A1 shape mismatch"):
        DegenerateSystemSpec(B=B, A1=A, f=None, family="evolution1")


# -- boundary plans -------------------------------------------------------------

def test_boundary_plans_per_family():
    fams = {
        "evolution1": [("I-Pk", "t", 0)],
        "evolution2": [("I", "t", 0), ("I-Pk", "t", 1)],
        "goursat": [("I-Pk", "x", 0), ("I-Pk", "y", 0)],
        "mixed_xy": [("I-Pk", "x", 0), ("I-Pk", "x", 1), ("Pk", "y", 0)],
        "spectral3": [("I-Pk", "t", 0), ("I-Pk", "t", 1), ("I-Pk", "t", 2)],
    }
    assert set(fams) == set(FAMILIES)
    for fam, want in fams.items():
        assert list(FAMILIES[fam].bc) == want, fam


# -- reduction ------------------------------------------------------------------

@pytest.mark.parametrize("name, lead, lower, scale", [
    ("example1", "1*D0*D1", "1", "1"),
    ("example2", "1*D0", "1", "1"),
    ("example3", "1*D0^2", "1*D0", "1"),
    ("example4", "1*D0^2", "1*D1", "1"),
    ("example5", "1*D0^3", "1", "83.6667"),
], ids=[f"example{i}" for i in range(1, 6)])
def test_regular_part_lines_of_the_bundled_problems(problems_dir, name, lead,
                                                    lower, scale):
    rp = reduce(instantiate(load_problem(problems_dir / f"{name}.json")))
    lines = describe_reduction(rp).splitlines()
    assert lines[:3] == ["regular part:",
                         f"  [{lead}] x operator(|coef|_max=1)",
                         f"  [{lower}] x operator(|coef|_max={scale})"]


def _assert_regular_part(rp, A):
    # B Bplus is the projector onto the solvable complement, and M is
    # assembled from it and the v-equation's A1 Bplus term, in that order
    Bplus = rp.ps.Bplus.matrix
    np.testing.assert_allclose(rp.system.B.matrix @ Bplus, rp.IQ, atol=1e-12)
    assert np.array_equal(rp.M, rp.IQ @ (A.matrix @ Bplus))
    # Bplus vanishes on the root and extra subspaces, on both sides
    tol = 1e-8 * max(1.0, np.linalg.norm(Bplus))
    assert np.abs(rp.ps.P @ Bplus).max() <= tol
    assert np.abs(Bplus @ rp.ps.Q).max() <= tol


def test_reduce_single_link_chain_layout():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))
    rp = reduce(_evolution_spec(B, A, f=None))
    _assert_regular_part(rp, A)
    assert len(rp.Csystem) == 1
    row = rp.Csystem[0]
    assert row.unknown == (0, 1) and row.proj == (0, 1)
    assert row.lead_scale == pytest.approx(1.0)
    assert row.lower == ()
    assert rp.lambda_slots == () and rp.compat == ()
    text = describe_reduction(rp)
    for token in ("regular part:", "C-system rows: 1",
                  "free function slots: none",
                  "compatibility functionals: 0", "boundary plan:"):
        assert token in text


def test_reduce_length_two_chain_orders_rows():
    B = matrix_operator([[0.0, 1.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))
    rp = reduce(_evolution_spec(B, A, f=None))
    assert [row.unknown for row in rp.Csystem] == [(0, 2), (0, 1)]
    # the second row depends on the first through the lead operator
    assert rp.Csystem[0].lower == ()
    [(pair, coef)] = rp.Csystem[1].lower
    assert pair == (0, 2) and coef == pytest.approx(1.0)
    assert ("  C(0, 1) from psi(0, 2); lower terms: L0 C(0, 2)\n"
            in describe_reduction(rp))


def test_reduce_names_free_function_slots():
    B = matrix_operator([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A = matrix_operator([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rp = reduce(_evolution_spec(B, A, f=None))
    _assert_regular_part(rp, A)
    assert rp.lambda_slots == ("lambda_2",)
    assert rp.compat == ()


def test_reduce_counts_compat_functionals():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rp = reduce(_evolution_spec(B, A, f=None))
    _assert_regular_part(rp, A)
    assert rp.compat == (0,)
    assert rp.lambda_slots == ()


def test_reduce_regular_part_of_a_nonsymmetric_pair(rng):
    # rank-4 B and a Gaussian A1 in a trapezoid metric: the minimum-norm
    # solve of B X = I - Qk has a part in the root subspace here
    sp = grid_space(0.0, 1.0, 6)
    B = FiniteOperator(rng.normal(size=(6, 4)) @ rng.normal(size=(4, 6)), sp, sp)
    A = FiniteOperator(rng.normal(size=(6, 6)), sp, sp)
    rp = reduce(_evolution_spec(B, A, f=None))
    assert rp.js.p == (1, 1)
    _assert_regular_part(rp, A)


# -- end-to-end on a hand-solvable length-two chain -----------------------------

def test_length_two_chain_recovers_manufactured_solution():
    # d/dt(Bu) + u = f with B the 2x2 upper shift: the second component
    # is forced directly, the first follows after one differentiation
    B = matrix_operator([[0.0, 1.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))

    def f(t=None):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin(t), t ** 2], axis=-1)

    rp = reduce(_evolution_spec(B, A, f=f))
    fld = solve_family(rp)
    t = fld.axes[0][1]
    want1 = np.sin(t) - 2.0 * t
    want2 = t ** 2
    assert np.abs(fld.values[:, 0] - want1).max() <= 1e-9
    assert np.abs(fld.values[:, 1] - want2).max() <= 1e-9


def test_tall_realization_accepts_compatible_data():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def f(t=None):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.sin(t), t], axis=-1)

    rp = reduce(_evolution_spec(B, A, f=f))
    fld = solve_family(rp)
    t = fld.axes[0][1]
    assert np.abs(fld.values[:, 0] - np.sin(t)).max() <= 1e-8
    assert np.abs(fld.values[:, 1] - t).max() <= 1e-8


def test_tall_realization_rejects_incompatible_data():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def f(t=None):
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(t), 0 * t, 0 * t], axis=-1)

    rp = reduce(_evolution_spec(B, A, f=f))
    with pytest.raises(CompatibilityError, match="unresolvable-direction"):
        solve_family(rp)


def test_regular_part_leaking_into_extra_cokernel_is_refused():
    # the back-ends keep v in the range of I - Q; a v along z_extra is not
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rp = reduce(_evolution_spec(B, A, f=lambda t=None: np.zeros((np.size(t), 3))))
    with pytest.raises(CompatibilityError, match="leaks into the unresolvable"):
        reconstruct_solution(rp, rp.js.z_extra.T, {})


# -- residual checks -------------------------------------------------------------

def test_residual_check_zero_solution_zero_rhs():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))

    def f(t=None):
        t = np.asarray(t, dtype=float)
        return np.stack([0 * t, 0 * t], axis=-1)

    rp = reduce(_evolution_spec(B, A, f=f))
    tg = np.linspace(0.0, 1.0, 101)
    fld = SolutionField(axes=(("t", tg),), values=np.zeros((101, 2)))
    resid, report = residual_check(rp, fld)
    assert resid == 0.0
    assert report["equation_residual"] == 0.0


def test_residual_check_reports_boundary_conditions():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))

    def f(t=None):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.exp(-t)], axis=-1)

    spec = _evolution_spec(B, A, f=f)
    rp = reduce(spec)
    fld = solve_family(rp)
    resid, report = residual_check(rp, fld)
    assert resid <= 5e-6
    key = "I-Pk d0u/dt0 at t=0"
    assert key in report
    assert report[key] <= 1e-10


def test_residual_check_wants_enough_nodes():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    rp = reduce(_evolution_spec(B, matrix_operator(np.eye(2)), f=None))
    fld = SolutionField(axes=(("t", np.linspace(0, 1, 4)),),
                        values=np.zeros((4, 2)))
    with pytest.raises(ConfigurationError, match=">= 5"):
        residual_check(rp, fld)

