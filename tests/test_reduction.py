"""System specs, reduction to the regular problem, residual checks."""

import json

import numpy as np
import pytest

from degenpde import chains, reduction, solvers, spaces
from degenpde.chains import (CERTIFY_TOL, apply_schmidt_inverse,
                             complete_structure)
from degenpde.errors import (CompatibilityError, ConfigurationError,
                             StructureError)
from degenpde.problems import instantiate, load_problem
from degenpde.reduction import (FAMILIES, DegenerateSystemSpec, _interior,
                                _mesh_coords, apply_differential_operator,
                                describe_reduction, equation_residual,
                                reconstruct_solution, reduce, residual_check,
                                solve_C_recurrence)
from degenpde.solvers import (SolutionField, _cumulative_from_zero,
                              _cumulative_simpson_half, solve_family)
from degenpde.spaces import FiniteOperator, grid_space, matrix_operator

from conftest import PROBLEMS, projector_matrices
from test_jordan import random_structured_pair


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
    # B Bplus is the projector I - Q onto the solvable complement, and M is
    # the v-equation's A1 Bplus term projected there; reduce forms it from
    # the blocks, A1 Bplus - Z (Psi^T W A1 Bplus) - extras, so it matches
    # the dense product to rounding.  Of A1 Bplus itself reduce keeps only
    # its largest entry and its pairing with the extra cokernel directions.
    pm = projector_matrices(rp.js)
    Bplus = rp.js.Bplus.matrix
    IQ = np.eye(pm.Q.shape[0]) - pm.Q
    np.testing.assert_allclose(rp.system.B.matrix @ Bplus, IQ, atol=1e-12)
    ABplus = A.matrix @ Bplus
    assert rp.lower_size == float(np.abs(ABplus).max())
    if not rp.js.psi_extra.shape[1]:
        assert rp.lower_psi_extra.shape[1] == 0
    else:
        wpsi = rp.js.codomain.weights[:, None] * rp.js.psi_extra
        np.testing.assert_array_equal(rp.lower_psi_extra, ABplus.T @ wpsi)
    dense = IQ @ ABplus
    assert np.abs(rp.M.matrix - dense).max() <= 1e-13 * np.abs(dense).max()
    # Bplus vanishes on the root and extra subspaces, on both sides
    tol = 1e-8 * max(1.0, np.linalg.norm(Bplus))
    assert np.abs(pm.P @ Bplus).max() <= tol
    assert np.abs(Bplus @ pm.Q).max() <= tol


def test_no_dim_by_dim_projector_is_stored(problems_dir):
    # the projectors stay chain blocks, and the pseudoinverse and the
    # v-equation's M stay diagonal plus low-rank maps: no field of the
    # reduced problem, of its structure or of their operators is dim x dim
    rp = reduce(instantiate(load_problem(problems_dir / "example2.json")))
    dim = rp.system.B.domain.dim
    ops = [val for obj in (rp.js, rp) for val in vars(obj).values()
           if isinstance(val, FiniteOperator)]
    assert {id(rp.M), id(rp.js.Bplus)} <= {id(op) for op in ops}
    square = {name for obj in [rp.js, rp] + ops for name, val in vars(obj).items()
              if np.shape(val) == (dim, dim)}
    assert square == set()
    assert rp.M.U.shape[1] <= 8 and rp.js.Bplus.U.shape[1] <= 8


def _C_system_lines(rp):
    lines = describe_reduction(rp).splitlines()
    start = lines.index(f"C-system rows: {rp.js.k}")
    return lines[start:start + rp.js.k + 1]


def _pairings(js):
    """(B Phi)^T w Psi and (A1 Phi)^T w Psi: entry [b, a] pairs phi
    column b with psi column a."""
    wPsi = js.codomain.weights[:, None] * js.Psi
    return ((js.B.matrix @ js.Phi).T @ wPsi, (js.A1.matrix @ js.Phi).T @ wPsi)


def test_reduce_single_link_chain_layout():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))
    rp = reduce(_evolution_spec(B, A, f=None))
    _assert_regular_part(rp, A)
    assert rp.js.p == (1,)
    assert _C_system_lines(rp) == [
        "C-system rows: 1", "  C(0, 1) from psi(0, 1); lower terms: none"]
    # the one row has lead 1 and no lower term: C is its projection
    matB, matA = _pairings(rp.js)
    assert matA[0, 0] == pytest.approx(1.0)
    assert np.abs(matB).max() <= 1e-12
    t = np.linspace(0.0, 1.0, 11)
    beta = np.sin(t)[:, None]
    C = solve_C_recurrence(rp, beta, [("t", t)], lambda rhs: rhs)
    assert C.shape == (11, 1)
    np.testing.assert_array_equal(C, beta)
    assert rp.lambda_slots == () and rp.js.psi_extra.shape[1] == 0
    text = describe_reduction(rp)
    for token in ("regular part:", "free function slots: none",
                  "compatibility functionals: 0", "boundary plan:"):
        assert token in text


def test_reduce_length_two_chain_orders_rows():
    B = matrix_operator([[0.0, 1.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))
    rp = reduce(_evolution_spec(B, A, f=None))
    assert rp.js.p == (2,)
    # the top level comes first; the second row depends on it through
    # the lead operator
    assert _C_system_lines(rp) == [
        "C-system rows: 2",
        "  C(0, 2) from psi(0, 1); lower terms: none",
        "  C(0, 1) from psi(0, 2); lower terms: L0 C(0, 2)"]
    # B pairs phi_(0,2) with psi_(0,2) with coefficient 1, nothing else
    matB, _ = _pairings(rp.js)
    np.testing.assert_allclose(matB, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
    t = np.linspace(0.0, 1.0, 21)
    beta = np.stack([t ** 2, np.sin(t)], axis=-1)
    C = solve_C_recurrence(rp, beta, [("t", t)], lambda rhs: rhs)
    np.testing.assert_array_equal(C[:, 1], beta[:, 0])
    np.testing.assert_array_equal(
        C[:, 0], beta[:, 1] - apply_differential_operator((1,), C[:, 1],
                                                          [("t", t)]))


def _row_by_row_C(rp, beta, axes, solve_lead, accuracy):
    """The C-system solved one row at a time, its pattern and coefficients
    read from the measured pairings: the projection onto psi column a
    solves the C column of A1's largest pairing with it, divided by that
    lead, after subtracting every L0 term that B pairs with psi column a."""
    matB, matA = _pairings(rp.js)
    lead_k = FAMILIES[rp.system.family].L[0]
    solved = {}
    for a in range(rp.js.k):
        b = int(np.argmax(np.abs(matA[:, a])))
        rhs = beta[..., a]
        for c in np.flatnonzero(np.abs(matB[:, a]) > 1e-8):
            rhs = rhs - matB[c, a] * apply_differential_operator(
                lead_k, solved[c], axes, accuracy=accuracy)
        solved[b] = solve_lead(rhs / matA[b, a])
    return np.stack([solved[b] for b in range(rp.js.k)], axis=-1)


def _recursion_case(lead):
    """(family, axes, solve_lead, accuracy) as the back-ends pass them.

    Chain level j is differentiated j - 1 times by L0, and each pass
    multiplies one-ulp differences in the levels above by about
    10/h^order: the reference divides by measured leads within 4.4e-16 of
    1 and sums the stencil edges column by column.  Steps of 0.2 in t and
    0.5 in x keep that gain small enough that 1e-12 compares the
    recursions, not the rounding; with steps of 0.025 in t and 0.05 in x
    the same comparison reads up to 2e-12 (D_t) and 1e-11 (D_x^2)."""
    t = np.linspace(0.0, 8.0, 41)
    if lead == "identity":
        return "evolution1", [("t", t)], (lambda rhs: rhs), 4
    if lead == "simpson":
        return ("evolution2", [("t", t)],
                (lambda rhs: _cumulative_simpson_half(rhs, t)), 4)
    x, y = np.linspace(0.0, 8.0, 17), np.linspace(0.0, 1.0, 17)
    return ("mixed_xy", [("x", x), ("y", y)],
            (lambda rhs: _cumulative_from_zero(rhs, y, axis=1)), 2)


@pytest.mark.parametrize("lead", ["identity", "simpson", "from_zero_y"])
@pytest.mark.parametrize("p", [(3, 2, 1), (2, 2), (3, 1)],
                         ids=lambda p: "p" + "".join(map(str, p)))
def test_C_recursion_matches_row_by_row_substitution(rng, p, lead):
    family, axes, solve_lead, accuracy = _recursion_case(lead)
    B, A = random_structured_pair(rng, sum(p) + 2, p)
    rp = reduce(DegenerateSystemSpec(B=B, A1=A, f=None, family=family))
    assert rp.js.p == p
    grids = np.meshgrid(*[g for _, g in axes], indexing="ij")
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(len(axes), rp.js.k))
    beta = np.prod([np.sin((0.5 + 0.25 * np.arange(rp.js.k)) * g[..., None] + ph)
                    for g, ph in zip(grids, phase)], axis=0)
    C = solve_C_recurrence(rp, beta, axes, solve_lead, accuracy=accuracy)
    ref = _row_by_row_C(rp, beta, axes, solve_lead, accuracy)
    assert C.shape == beta.shape
    assert np.abs(C - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("entry, size, message", [
    ((0, 0), 1e-6, "pairs phi column 0 with psi column 0 by 1.000e-06, expected 0"),
    ((1, 0), 2e-6, "pairs phi column 1 with psi column 0 by 1.000e\\+00, expected 1"),
], ids=["off_pattern", "lead"])
def test_reduce_refuses_a_pairing_off_the_chain_pattern(monkeypatch, entry,
                                                        size, message):
    # p = (2,): A1 pairs phi column 1 with psi column 0 and phi column 0
    # with psi column 1; a certified matrix that moves an entry beyond
    # CERTIFY_TOL (off the pattern) or 1e-6 (on it) is refused.  The entry
    # moves just before the pattern check, which reads the matrix in place
    violation = chains.exchange_violation

    def shifted(shift):
        def perturbed(M, p):
            M[entry] += shift
            return violation(M, p)
        return perturbed

    B = matrix_operator([[0.0, 1.0], [0.0, 0.0]])
    spec = _evolution_spec(B, matrix_operator(np.eye(2)), f=None)
    monkeypatch.setattr(chains, "exchange_violation", shifted(size))
    with pytest.raises(StructureError, match=message):
        reduce(spec)
    # inside the tolerances the same pencil reduces
    tol = CERTIFY_TOL if entry == (0, 0) else 1e-6
    monkeypatch.setattr(chains, "exchange_violation", shifted(0.5 * tol))
    assert reduce(spec).js.p == (2,)


def test_reduce_checks_the_exchange_pattern_once(monkeypatch):
    # the commutability result keeps the first violation, and reduce
    # refuses from it rather than scanning the matrix again
    calls = []

    def counted(M, p, _orig=chains.exchange_violation):
        calls.append(p)
        return _orig(M, p)
    monkeypatch.setattr(chains, "exchange_violation", counted)
    # reduce would read its own binding of the name if it imported one
    monkeypatch.setattr(reduction, "exchange_violation", counted, raising=False)
    B = matrix_operator([[0.0, 1.0], [0.0, 0.0]])
    rp = reduce(_evolution_spec(B, matrix_operator(np.eye(2)), f=None))
    assert calls == [(2,)]
    assert rp.js.comm.quasitriangular and rp.js.comm.violation is None


def test_reduce_names_free_function_slots():
    B = matrix_operator([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A = matrix_operator([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rp = reduce(_evolution_spec(B, A, f=None))
    _assert_regular_part(rp, A)
    assert rp.lambda_slots == ("lambda_2",)
    assert rp.js.psi_extra.shape[1] == 0


def test_reduce_counts_compat_functionals():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rp = reduce(_evolution_spec(B, A, f=None))
    _assert_regular_part(rp, A)
    assert rp.js.psi_extra.shape[1] == 1
    assert "compatibility functionals: 1\n" in describe_reduction(rp)
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


def _kron_chains_instance(rng, blocks, r=2):
    """B = S diag(I, N) T and A1 = S diag(G, I) T with N the direct sum of
    nilpotent shift blocks of the given sizes, and the exact solution of
    (Bu)' + A1 u = f from the splitting w = T u: w1' + G w1 = g1 with
    w1(0) = 0 (manufactured), w2 = sum_j (-N D)^j g2 on the nilpotent
    part."""
    n = sum(blocks)
    N = np.zeros((n, n))
    off = 0
    for size in blocks:
        N[off:off + size - 1, off + 1:off + size] = np.eye(size - 1)
        off += size
    G = rng.normal(size=(r, r)) / np.sqrt(r)
    S = np.linalg.qr(rng.normal(size=(r + n, r + n)))[0]
    T = np.linalg.qr(rng.normal(size=(r + n, r + n)))[0]
    core_B = np.zeros((r + n, r + n))
    core_B[:r, :r] = np.eye(r)
    core_B[r:, r:] = N
    core_A = np.eye(r + n)
    core_A[:r, :r] = G
    a, b = rng.normal(size=(2, r))
    q0, q1 = rng.normal(size=(2, n))

    def g2(t, order=0):
        # d^j/dt^j of sin(t) q0 + exp(t/2) q1
        return (np.sin(t + order * np.pi / 2)[:, None] * q0
                + (np.exp(t / 2) / 2 ** order)[:, None] * q1)

    def w1(t):
        return np.sin(t)[:, None] * a + (t ** 2)[:, None] * b

    def f(t=None):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        g1 = np.cos(t)[:, None] * a + (2 * t)[:, None] * b + w1(t) @ G.T
        return np.concatenate([g1, g2(t)], axis=-1) @ S.T

    def exact(t):
        w2 = sum(g2(t, j) @ np.linalg.matrix_power(-N, j).T
                 for j in range(max(blocks)))
        return np.concatenate([w1(t), w2], axis=-1) @ T

    return S @ core_B @ T, S @ core_A @ T, f, exact


@pytest.mark.parametrize("blocks", [(1,), (2, 1), (3, 1), (4,), (2, 2, 1)],
                         ids=lambda b: "p" + "".join(map(str, b)))
def test_schmidt_inverse_from_the_blocks_inverts_the_bordered_matrix(rng, blocks):
    # Gamma = Bplus + Phi K^-1 Psi^T W is the inverse of B bordered by the
    # head terms z_i^(1) <., gamma_i^(1)>, here in the Euclidean metric
    B, A, _, _ = _kron_chains_instance(rng, blocks)
    js = complete_structure(matrix_operator(B), matrix_operator(A))
    assert js.p == blocks
    first = js.head_columns
    inv = np.linalg.inv(B + js.Z[:, first] @ js.Gam[:, first].T)
    Gamma = apply_schmidt_inverse(js, np.eye(len(B)))
    assert np.abs(Gamma - inv).max() <= 1e-12 * np.abs(inv).max()


@pytest.mark.parametrize("blocks", [(2, 1), (3, 1), (2, 2)],
                         ids=lambda b: "p" + "".join(map(str, b)))
def test_several_chains_recover_the_splitting_solution(rng, blocks):
    # chains of different lengths solve together, depth by depth; the
    # bound is the single-chain one of acceptance criterion 8
    B, A, f, exact = _kron_chains_instance(rng, blocks)
    spec = DegenerateSystemSpec(B=matrix_operator(B), A1=matrix_operator(A),
                                f=f, family="evolution1",
                                box={"t": (0.0, 1.0)}, grid={"dt": 1e-3})
    rp = reduce(spec)
    assert rp.js.p == blocks
    fld = solve_family(rp)
    assert np.abs(fld.values - exact(fld.axes[0][1])).max() <= 1e-5


def _tall_realization():
    """B and A1 of shape 3 x 2 with f = (cos t, sin t, t), compatible:
    u = (sin t, t)."""
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def f(t=None):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.sin(t), t], axis=-1)

    return reduce(_evolution_spec(B, A, f=f))


def test_tall_realization_accepts_compatible_data():
    rp = _tall_realization()
    fld = solve_family(rp)
    t = fld.axes[0][1]
    assert np.abs(fld.values[:, 0] - np.sin(t)).max() <= 1e-8
    assert np.abs(fld.values[:, 1] - t).max() <= 1e-8
    # B u and A1 u live in the 3-dimensional codomain, not in u's space;
    # the centered first difference of sin leaves about h^2 / 6 = 1.7e-7
    resid, report = residual_check(rp, fld)
    assert report["equation_residual"] == resid <= 1e-6


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
        reconstruct_solution(rp, rp.js.z_extra.T, np.zeros((1, rp.js.k)))


def _tall_pencil(f=lambda t=None: np.zeros((np.size(t), 3))):
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return reduce(_evolution_spec(B, A, f=f))


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_leak_check_and_reconstruction_go_by_row_blocks(monkeypatch, rng, block):
    # the largest leak and the largest |v| sit in different rows, so the
    # blocked maxima must meet across blocks; the refusal reports the
    # whole-array ratio and a compatible v reconstructs as a whole
    monkeypatch.setattr(spaces, "BLOCK", block)
    rp = _tall_pencil()
    js = rp.js
    keep = np.eye(3) - js.z_span[:, js.k:] @ js.z_coef[:, js.k:].T
    v = rng.standard_normal((400, 3)) @ keep.T
    v[37] *= 50.0
    C = rng.standard_normal((400, js.k))
    want = v @ js.Bplus.matrix.T + C @ js.Phi.T
    np.testing.assert_allclose(reconstruct_solution(rp, v, C), want, rtol=0, atol=1e-13)
    v[311] += 1e-3 * js.z_extra[:, 0]
    leak = (v @ js.z_coef[:, js.k:]) @ js.z_span[:, js.k:].T
    dev = np.abs(leak).max() / max(1.0, np.abs(v).max())
    with pytest.raises(CompatibilityError, match=f"relative size {dev:.2e}"):
        reconstruct_solution(rp, v, C)


def test_public_reconstruction_leaves_v_as_it_was(problems_dir, rng):
    # a square pencil: u may go over v only through an explicit out, which
    # gives the bits of the new array
    rp = reduce(instantiate(load_problem(problems_dir / "example2.json")))
    v = rng.standard_normal((300, rp.js.domain.dim))
    C = rng.standard_normal((300, rp.js.k))
    before = v.copy()
    u = reconstruct_solution(rp, v, C)
    assert np.array_equal(v, before)
    assert not np.shares_memory(u, v)
    assert reconstruct_solution(rp, v, C, out=v) is v
    assert np.array_equal(v, u)


def _leaking_back_end(rp, backend):
    """The back-end's solve with its v pushed along the extra cokernel
    direction."""
    def solve(rp):
        axes, f_psi, v, C, meta = backend(rp)
        v += 1e-3 * rp.js.z_extra[:, 0]
        return axes, f_psi, v, C, meta
    return solve


@pytest.mark.parametrize("case", ["leak", "incompatible"])
def test_solve_refuses_a_tall_pencil_before_it_writes_u(monkeypatch, case):
    # both refusals read the back-end's v and leave it as it was; an out
    # given to the reconstruction is not written either
    backend, held = solvers.SOLVERS["evolution1"], []
    if case == "leak":
        rp, match = _tall_pencil(), "leaks into the unresolvable"
        backend = _leaking_back_end(rp, backend)
    else:
        rp = _tall_pencil(lambda t=None: np.stack([np.ones_like(t), 0 * t, 0 * t], axis=-1))
        match = "unresolvable-direction"

    def spy(rp):
        solved = backend(rp)
        held.append((solved[2], solved[2].copy(), solved[3]))
        return solved

    monkeypatch.setitem(solvers.SOLVERS, "evolution1", spy)
    with pytest.raises(CompatibilityError, match=match):
        solve_family(rp)
    v, before, C = held[0]
    assert v.shape[-1] == 3 > rp.js.domain.dim
    assert np.array_equal(v, before)
    if case == "leak":
        out = np.full(v.shape[:-1] + (rp.js.domain.dim,), np.nan)
        with pytest.raises(CompatibilityError, match=match):
            reconstruct_solution(rp, v, C, out=out)
        assert np.isnan(out).all()


@pytest.mark.parametrize("name, tall", [("example2.json", False), ("example1.json", False),
                                        (None, True)])
def test_solve_writes_u_over_the_back_ends_v_when_the_widths_match(monkeypatch, problems_dir,
                                                                   name, tall):
    rp = _tall_realization() if tall else reduce(instantiate(load_problem(problems_dir / name)))
    family = rp.system.family
    backend, held = solvers.SOLVERS[family], []
    monkeypatch.setitem(solvers.SOLVERS, family,
                        lambda rp: held.append(backend(rp)) or held[-1])
    fld = solve_family(rp)
    assert np.shares_memory(fld.values, held[0][2]) == (not tall)


def whole_equation_residual(spec, axes, u):
    """The equation residual in one pass over whole arrays: f sampled on
    every node, B u and A1 u formed at once, every derivative along its
    whole axis."""
    lead_k, lower_k = FAMILIES[spec.family].L
    f_vals = np.asarray(spec.f(**_mesh_coords(axes)), dtype=float)
    total = (apply_differential_operator(lead_k, spec.B.apply_to_samples(u), axes)
             + apply_differential_operator(lower_k, spec.A1.apply_to_samples(u), axes))
    return float(np.abs(_interior(total - f_vals, len(axes))).max())


# the bundled f = x of example2/3 lies in the range of Q, so their regular
# part is rounding noise; the sin forcing gives it a size
@pytest.mark.parametrize("name, f", [(name, None) for name in PROBLEMS]
                         + [(name, "1 + sin(t)*x^2") for name in PROBLEMS[1:3]])
def test_blocked_equation_residual_matches_the_whole_array_pass(problems_dir, monkeypatch,
                                                                name, f):
    pf = load_problem(problems_dir / name)
    if f is not None:
        pf.f = f
    spec = instantiate(pf)
    fld = solve_family(reduce(spec))
    axes = list(fld.axes)
    for block in (1, 1000, 1 << 16):
        # B u in the same row blocks on both sides: apply_to_samples reads BLOCK too
        monkeypatch.setattr(spaces, "BLOCK", block)
        assert equation_residual(spec, axes, fld.values) == whole_equation_residual(
            spec, axes, fld.values)


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_blocked_equation_residual_of_a_tall_pencil(monkeypatch, block):
    # the halo of B u and A1 u is m = 3 wide while u is n = 2 wide
    rp = _tall_realization()
    fld = solve_family(rp)
    monkeypatch.setattr(spaces, "BLOCK", block)
    axes = list(fld.axes)
    assert equation_residual(rp.system, axes, fld.values) == whole_equation_residual(
        rp.system, axes, fld.values)


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


def test_boundary_norms_are_taken_at_the_box_start(problems_dir, tmp_path):
    # every back-end imposes its zero data at the first node of an axis,
    # so that is where the norms are read, and where the keys say
    obj = json.loads((problems_dir / "example4.json").read_text(encoding="utf-8"))
    obj["grid"]["box"]["x"] = [-1.0, 1.0]
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    rp = reduce(instantiate(load_problem(path)))
    _, report = residual_check(rp, solve_family(rp))
    assert report["I-Pk d0u/dx0 at x=-1"] <= 1e-12
    assert report["I-Pk d1u/dx1 at x=-1"] <= 1e-12
    assert report["Pk d0u/dy0 at y=0"] <= 1e-12
    assert "I-Pk d^1u on x=-1" in describe_reduction(rp)


def test_residual_check_wants_enough_nodes():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    rp = reduce(_evolution_spec(B, matrix_operator(np.eye(2)), f=None))
    fld = SolutionField(axes=(("t", np.linspace(0, 1, 4)),),
                        values=np.zeros((4, 2)))
    with pytest.raises(ConfigurationError, match=">= 5"):
        residual_check(rp, fld)

