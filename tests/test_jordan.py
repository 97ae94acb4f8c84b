"""Jordan chains, projectors, pseudoinverse, commutability certificates."""

import numpy as np
import pytest

from degenpde.chains import (_biorthogonal_partners,
                             _normalize_primal_chains, _pseudo_inverse,
                             _refuse_coupled_extras,
                             _terminal_pairing_certificate,
                             apply_schmidt_inverse,
                             commutability_matrix, complete_structure,
                             exchange_violation, structure_report)
from degenpde.errors import StructureError
from degenpde.problems import instantiate, load_problem
from degenpde.reduction import DegenerateSystemSpec, reduce
from degenpde.spaces import (euclidean_space, grid_space, identity_operator,
                             make_kernel_operator, matrix_operator)

from conftest import projector_matrices


def _pair(Brows, Arows):
    return matrix_operator(Brows), matrix_operator(Arows)


def random_structured_pair(rng, dim, block_sizes):
    """A pair whose chain lengths are exactly block_sizes: conjugate a
    direct sum of an identity and nilpotent shift blocks by rotations."""
    r = dim - sum(block_sizes)
    assert r >= 0
    core = np.zeros((dim, dim))
    core[:r, :r] = np.eye(r)
    off = r
    for psize in block_sizes:
        for j in range(psize - 1):
            core[off + j, off + j + 1] = 1.0
        off += psize
    S = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    T = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return matrix_operator(S @ core @ T), matrix_operator(S @ T)


def random_rectangular_pair(rng, r, l, e, tall):
    """B = S [I_r 0] T with an (l + e)-dimensional kernel and an
    l-dimensional cokernel (wide), or the reverse (tall), and a Gaussian
    A1: generically l chains of length 1 and e extra directions."""
    rows, cols = (r + l + e, r + l) if tall else (r + l, r + l + e)
    core = np.zeros((rows, cols))
    core[:r, :r] = np.eye(r)
    S = np.linalg.qr(rng.normal(size=(rows, rows)))[0]
    T = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
    return (matrix_operator(S @ core @ T),
            matrix_operator(rng.normal(size=(rows, cols))))


# -- hand-checkable structures ------------------------------------------------

def test_rank_one_kernel_single_link():
    B, A = _pair([[1.0, 0.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    assert (js.n, js.m, js.l, js.nu, js.k) == (1, 1, 1, 0, 1)
    assert js.p == (1,)
    np.testing.assert_allclose(np.abs(js.Phi[:, 0]), [0.0, 1.0], atol=1e-12)
    pm = projector_matrices(js)
    np.testing.assert_allclose(pm.Pk, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(pm.Qk, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(apply_schmidt_inverse(js, np.eye(2)), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(js.Bplus.matrix, np.diag([1.0, 0.0]), atol=1e-10)


def test_single_length_two_chain():
    B, A = _pair([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    assert js.p == (2,)
    assert js.k == 2
    np.testing.assert_allclose(np.abs(js.Phi[:, 0]), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(js.Phi[:, 1]), [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(js.Psi[:, 0]), [0.0, 1.0], atol=1e-12)
    # the whole space is root space: both projectors are the identity
    pm = projector_matrices(js)
    np.testing.assert_allclose(pm.Pk, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pm.Qk, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(js.Bplus.matrix, np.zeros((2, 2)), atol=1e-12)


def test_length_three_shift_chain():
    shift = np.zeros((3, 3))
    shift[0, 1] = shift[1, 2] = 1.0
    B, A = _pair(shift, np.eye(3))
    js = complete_structure(B, A)
    assert js.p == (3,)
    pm = projector_matrices(js)
    np.testing.assert_allclose(pm.Pk, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(pm.Qk, np.eye(3), atol=1e-12)


def test_invertible_leading_operator_degenerates_gracefully(rng):
    M = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    B, A = _pair(M, rng.normal(size=(4, 4)))
    js = complete_structure(B, A)
    assert (js.n, js.m, js.l, js.nu, js.k) == (0, 0, 0, 0, 0)
    assert js.p == ()
    np.testing.assert_allclose(projector_matrices(js).Pk, np.zeros((4, 4)), atol=1e-12)
    np.testing.assert_allclose(js.Bplus.matrix, np.linalg.inv(M), atol=1e-9)
    np.testing.assert_allclose(apply_schmidt_inverse(js, np.eye(4)), np.linalg.inv(M), atol=1e-9)


def test_kernel_operator_realization_has_single_link():
    sp = grid_space(0.0, 1.0, 201, quadrature="simpson")
    B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                             exact_on="x")
    A = identity_operator(sp)
    js = complete_structure(B, A, rank_tol=1e-6)
    assert js.p == (1,)
    assert js.k == 1 and js.nu == 0
    x = sp.grid
    Pk = projector_matrices(js).Pk
    np.testing.assert_allclose(Pk @ x, x, atol=1e-8)
    assert np.abs(Pk @ Pk - Pk).max() <= 1e-10
    # the projector acts as 3 x <., multiplicative weight s>
    expect = 3.0 * np.outer(x, x * sp.weights)
    assert np.abs(Pk - expect).max() <= 1e-3


def test_schmidt_times_complement_matches_pseudoinverse_for_unit_chains():
    sp = grid_space(0.0, 1.0, 201, quadrature="simpson")
    B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                             exact_on="x")
    js = complete_structure(B, identity_operator(sp), rank_tol=1e-6)
    alt = apply_schmidt_inverse(js, np.eye(sp.dim) - projector_matrices(js).Qk)
    assert np.abs(alt - js.Bplus.matrix).max() <= 1e-8


@pytest.mark.parametrize("name, dense, expected", [
    ("example2.json", False, []),
    ("example5.json", False, []),
    ("example2.json", True, [("svd", True), ("svd", False)]),
], ids=["example2.json", "example5.json", "example2-matrix"])
def test_complete_structure_factors_at_most_twice(problems_dir, monkeypatch, name,
                                                  dense, expected):
    # a pencil kept as a diagonal plus low-rank factors is factored through
    # 1x1 blocks and small cores: no factorization of a matrix whose smaller
    # side is dim/2 or more.  The same B given densely takes one weighted SVD
    # (null bases, chain links, Bplus) and one values-only SVD of the
    # Schmidt bordered matrix.  Factorizations of the small chain-pairing
    # matrices are not counted.
    spec = instantiate(load_problem(problems_dir / name))
    B = matrix_operator(spec.B.matrix, spec.B.domain, spec.B.codomain) if dense else spec.B
    dim = B.domain.dim
    large = []
    for fname in ("svd", "lstsq", "inv", "cond", "solve", "pinv", "qr"):
        def counted(a, *args, _orig=getattr(np.linalg, fname), _name=fname, **kw):
            if np.ndim(a) == 2 and min(np.shape(a)) >= dim / 2:
                large.append((_name, kw.get("compute_uv", True)))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.linalg, fname, counted)
    complete_structure(B, spec.A1)
    assert large == expected, large


# -- unpaired directions (kernel/cokernel mismatch) ---------------------------

def test_wide_pair_keeps_extra_kernel_direction():
    B = matrix_operator([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A = matrix_operator([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    js = complete_structure(B, A)
    assert (js.n, js.m, js.l, js.nu) == (2, 1, 1, 1)
    assert js.p == (1,)
    assert js.phi_extra.shape == (3, 1)
    assert js.psi_extra.shape[1] == 0
    assert not js.square
    pm = projector_matrices(js)
    Pt = pm.P
    assert np.abs(Pt @ Pt - Pt).max() <= 1e-10
    assert np.abs(pm.Pextra @ pm.Pk).max() <= 1e-10
    BBp = B.matrix @ js.Bplus.matrix
    np.testing.assert_allclose(BBp, np.eye(2) - pm.Q, atol=1e-9)


def test_tall_pair_keeps_extra_cokernel_direction():
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = matrix_operator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    js = complete_structure(B, A)
    assert (js.n, js.m, js.l, js.nu) == (1, 2, 1, -1)
    assert js.p == (1,)
    assert js.psi_extra.shape == (3, 1)
    assert js.phi_extra.shape[1] == 0
    Qt = projector_matrices(js).Q
    assert np.abs(Qt @ Qt - Qt).max() <= 1e-10


# -- commutability ------------------------------------------------------------

def test_zero_operator_is_certified_commutable():
    B, A = _pair([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    r = commutability_matrix(matrix_operator(np.zeros((2, 2))), js)
    assert r.certified
    # no lead entries: the C-system reduce solves has nothing to solve with
    assert not r.quasitriangular
    assert r.residual_primal == 0.0 and r.residual_dual == 0.0
    np.testing.assert_array_equal(r.matrix, np.zeros((2, 2)))


def test_leading_operator_pattern_on_chain_span():
    # B phi^(j) lands on z^(p+2-j): one skew diagonal below the main one
    shift = np.zeros((3, 3))
    shift[0, 1] = shift[1, 2] = 1.0
    B, A = _pair(shift, np.eye(3))
    js = complete_structure(B, A)
    r = commutability_matrix(B, js)
    expect = np.zeros((3, 3))
    expect[1, 2] = expect[2, 1] = 1.0
    np.testing.assert_allclose(r.matrix, expect, atol=1e-10)
    assert r.certified


def test_identity_on_chain_span_is_antidiagonal():
    B, A = _pair([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    r = commutability_matrix(A, js)
    np.testing.assert_allclose(r.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-10)
    assert r.certified and r.quasitriangular


def test_chain_swapping_operator_fails_quasitriangularity():
    B = matrix_operator(np.diag([1.0, 0.0, 0.0]))
    A1 = matrix_operator(np.eye(3))
    swap = np.eye(3)[[0, 2, 1]]
    js = complete_structure(B, A1)
    assert js.p == (1, 1)
    r = commutability_matrix(matrix_operator(swap), js)
    assert r.certified
    assert not r.quasitriangular
    # the swap moves the lead of psi column 0 off phi column 0
    assert exchange_violation(r.matrix, js.p) == (0, 0)
    off = np.abs(r.matrix - np.diag(np.diag(r.matrix))).max()
    assert off > 0.9  # the swap genuinely couples the two chains


def test_within_chain_operator_fails_quasitriangularity():
    # on the length-2 chain the operator maps phi^(1) onto z^(1): an entry
    # above the antidiagonal of the diagonal block
    B, A = _pair([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    r = commutability_matrix(matrix_operator([[0.0, 0.0], [1.0, 0.0]]), js)
    assert r.certified
    assert not r.quasitriangular
    assert exchange_violation(r.matrix, js.p) == (0, 0)
    np.testing.assert_allclose(r.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_entry_below_the_antidiagonal_fails_quasitriangularity():
    # p = (2,): the antidiagonal plus entry [1, 1], phi^(2) onto z^(2).
    # reduce refuses it, so structure must not call it quasitriangular
    B, A = _pair([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    r = commutability_matrix(matrix_operator([[1.0, 0.5], [0.0, 1.0]]), js)
    assert r.certified
    np.testing.assert_allclose(r.matrix, [[0.0, 1.0], [1.0, 0.5]], atol=1e-12)
    assert exchange_violation(r.matrix, js.p) == (1, 1)
    assert not r.quasitriangular


def test_certify_operators_certifies_the_pencil_A1():
    B, A = _pair([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    r = js.comm
    assert r.certified and r.quasitriangular
    np.testing.assert_array_equal(r.matrix, commutability_matrix(A, js).matrix)


def test_uncertified_operator_detected():
    # an operator pushing the chain off the z span is not certified
    B, A = _pair([[1.0, 0.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    push = matrix_operator([[0.0, 1.0], [0.0, 0.0]])  # phi -> e1, not in span z
    r = commutability_matrix(push, js)
    assert not r.certified
    assert r.residual_primal > 1e-3


# -- failure certificates -----------------------------------------------------

@pytest.mark.parametrize("Brows, Arows, message", [
    # a common null vector is refused before any chain grows
    ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]],
     "share a null direction"),
    # the common null vector (1, -1) off the axes: A1 of the computed head
    # is roundoff, which is no yardstick for itself
    ([[1.0, 1.0], [1.0, 1.0]], [[2.0, 2.0], [0.0, 0.0]],
     "share a null direction"),
    # B is 2x3 with cokernel e2 (m = 1 < n = 2), which A1* also annihilates
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
     "share a null direction"),
    # a singular pencil with no common null vector reaches the growth guard
    ([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]],
     "unbounded chain growth"),
], ids=["common-null-vector", "common-null-vector-off-axis",
        "common-dual-null-vector", "singular-pencil"])
def test_nilpotent_pair_with_no_termination_rejected(Brows, Arows, message):
    B, A = _pair(Brows, Arows)
    with pytest.raises(StructureError, match=message):
        complete_structure(B, A)


def test_terminal_pairing_zero_row_rejected():
    # the terminal (A1 = I) of the one chain is orthogonal to the dual head
    tails = np.array([[0.0], [1.0]])
    heads = np.array([[1.0], [0.0]])
    with pytest.raises(StructureError, match="terminal pairs to zero"):
        _terminal_pairing_certificate(tails.T @ heads)


def test_terminal_pairing_near_singular_determinant_rejected():
    cols = np.array([[1.0, 1.0], [0.0, 1e-12]])
    with pytest.raises(StructureError, match="determinant"):
        _terminal_pairing_certificate(cols.T @ cols)


def test_ill_conditioned_schmidt_bordering_rejected():
    # A1 = 1e-13 I: the normalized chain is 1e13 e2, gamma^(1) = 1e-13 e2,
    # and the bordered matrix diag(1, 1e-13) is refused
    B, A = _pair(np.diag([1.0, 0.0]), 1e-13 * np.eye(2))
    with pytest.raises(StructureError, match="Schmidt bordering failed"):
        complete_structure(B, A)


def test_link_off_the_range_past_the_rank_tolerance_rejected():
    # the second head's image pairs 1e-7 with the cokernel: below the rank
    # tolerance of the 1e4 image beside it, above the link tolerance
    B, A = _pair(np.diag([0.0, 0.0, 1.0]),
                 [[1e4, 0.0, 0.0], [0.0, 1e-7, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(StructureError, match="chain extension residual 1.00e-07"):
        complete_structure(B, A)


def test_primal_and_dual_chain_lengths_must_agree():
    # only the dual images carry the 1e6 entry, so the 1e-9 pairing falls
    # below the dual rank tolerance alone and one dual chain grows
    B, A = _pair(np.diag([0.0, 0.0, 1.0]),
                 [[1.0, 0.0, 1e6], [0.0, 1e-9, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(StructureError, match=r"primal chain lengths \(1, 1\) "
                                             r"and dual chain lengths \(2, 1\)"):
        complete_structure(B, A)


def test_normalization_off_the_chain_form_rejected():
    # the first link of the length-2 chain misses by 5e-14, below the rank
    # tolerance; the pairing inverse of the 1e-3 pencil carries it into the
    # banned level-1 -> level-2 entry of G at 5e-2
    B, A = _pair([[0.0, 1.0], [0.0, 0.0]], [[1e-3, 0.0], [5e-14, 1e-3]])
    with pytest.raises(StructureError, match="not a chain-preserving"):
        complete_structure(B, A)


def test_singular_chain_pairing_rejected():
    # a pencil passing the terminal certificate has a non-singular pairing,
    # so only a broken pairing reaches this refusal
    with pytest.raises(StructureError, match="pairing matrix is singular"):
        _normalize_primal_chains(np.eye(2), np.zeros((2, 2)), (2,))


def test_extra_direction_coupled_to_a_chain_rejected():
    # staircase extras pair with no chain level; a coupling of 0.5 does
    with pytest.raises(StructureError, match="couples to the chains"):
        _refuse_coupled_extras(np.array([[1.0], [0.0]]), np.array([[0.5], [0.0]]))


def test_extra_direction_inside_the_chain_span_rejected():
    # an extra equal to a chain vector has no biorthogonal partner
    e1 = np.array([[1.0], [0.0]])
    with pytest.raises(StructureError, match="biorthogonalization failed"):
        _biorthogonal_partners(e1, e1, euclidean_space(2))


def test_pseudoinverse_needs_the_z_span_complement():
    # without the z-span projector I - Q leaves the range of B
    js = complete_structure(*_pair(np.diag([1.0, 0.0]), np.eye(2)))
    js.z_span = np.zeros_like(js.z_span)
    with pytest.raises(StructureError, match="pseudoinverse construction failed"):
        _pseudo_inverse(js)


def test_mismatched_domains_rejected():
    B = matrix_operator(np.zeros((2, 2)))
    A = matrix_operator(np.zeros((2, 3)))
    with pytest.raises(StructureError, match="share their domain"):
        complete_structure(B, A)
    with pytest.raises(StructureError, match="share their codomain"):
        complete_structure(matrix_operator(np.zeros((2, 3))),
                           matrix_operator(np.zeros((3, 3))))


# -- randomized invariants ----------------------------------------------------

def test_random_pairs_satisfy_structure_invariants(rng):
    menu = [(4, (1,)), (5, (2,)), (6, (3,)), (6, (2, 1)), (7, (2, 2)),
            (8, (3, 2, 1)), (8, (1, 1, 1)), (7, (3, 1))]
    for trial in range(24):
        dim, blocks = menu[trial % len(menu)]
        B, A1 = random_structured_pair(rng, dim, blocks)
        js = complete_structure(B, A1)
        assert js.p == tuple(sorted(blocks, reverse=True))
        assert js.diagnostics["chain_link_residual"] <= 1e-8
        assert js.diagnostics["biorthogonality_error"] <= 1e-8
        pm = projector_matrices(js)
        for P in (pm.Pk, pm.Qk):
            assert np.abs(P @ P - P).max() <= 1e-10
        Bp = js.Bplus.matrix
        eye = np.eye(dim)
        assert np.abs(B.matrix @ Bp - (eye - pm.Q)).max() <= 1e-9
        assert np.abs(Bp @ B.matrix - (eye - pm.P)).max() <= 1e-9
        assert np.abs(pm.Pk @ Bp).max() <= 1e-9
        assert np.abs(Bp @ js.Z).max() <= 1e-9
        # the commutability matrix of A1 is certified and quasitriangular
        r = commutability_matrix(A1, js)
        assert r.certified and r.quasitriangular


@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
def test_random_rectangular_pencils_keep_extra_directions(rng, tall):
    for _ in range(40):
        r, l, e = (int(v) for v in rng.integers(1, (5, 3, 3)))
        B, A1 = random_rectangular_pair(rng, r, l, e, tall)
        js = complete_structure(B, A1)
        assert js.p == (1,) * l
        assert js.nu == (-e if tall else e)
        pm = projector_matrices(js)
        Pt, Qt = pm.P, pm.Q
        assert np.abs(Pt @ Pt - Pt).max() <= 1e-10
        assert np.abs(Qt @ Qt - Qt).max() <= 1e-10
        Bp = js.Bplus.matrix
        rows, cols = B.matrix.shape
        assert np.abs(B.matrix @ Bp - (np.eye(rows) - Qt)).max() <= 1e-9
        assert np.abs(Bp @ B.matrix - (np.eye(cols) - Pt)).max() <= 1e-9
        # the block helpers apply the same totals, extras included
        np.testing.assert_allclose(js.outside_phi.apply_to_samples(np.eye(cols)),
                                   np.eye(cols) - Pt.T, atol=1e-12)
        np.testing.assert_allclose(js.outside_z.apply_to_samples(np.eye(rows)),
                                   np.eye(rows) - Qt.T, atol=1e-12)
        assert commutability_matrix(A1, js).certified
        if tall:
            extra, partner = js.psi_extra, js.z_extra
        else:
            extra, partner = js.phi_extra, js.gamma_extra
        np.testing.assert_allclose(extra.T @ partner, np.eye(e), atol=1e-9)
        spec = DegenerateSystemSpec(B=B, A1=A1, f=None,
                                    family="evolution1", box={"t": (0.0, 1.0)})
        rp = reduce(spec)
        assert (rp.js.psi_extra.shape[1] if tall else len(rp.lambda_slots)) == e


def test_extra_directions_survive_a_large_lower_order_operator(rng):
    # the extras' chain pairings vanish exactly in theory; at |A1| ~ 1e9 their
    # roundoff alone passes 1e-8, so the refusal is relative to A1's size
    for tall in (False, True):
        for _ in range(20):
            r, l, e = (int(v) for v in rng.integers(1, (5, 3, 3)))
            B, A1 = random_rectangular_pair(rng, r, l, e, tall)
            js = complete_structure(B, matrix_operator(1e9 * A1.matrix))
            assert js.p == (1,) * l
            assert js.nu == (-e if tall else e)


def test_structure_report_contents():
    B, A = _pair([[1.0, 0.0], [0.0, 0.0]], np.eye(2))
    js = complete_structure(B, A)
    text = structure_report(js)
    for token in ("n=1", "m=1", "nu=0", "l=1", "p=1", "k=1",
                  "terminal_pairing_det", "chain_link_residual",
                  "Pk_idempotence", "pseudoinverse_identity",
                  "A1_certified=pass", "A1_quasitriangular=yes",
                  "A1_residual_primal="):
        assert token in text
    # report is stable across calls
    assert text == structure_report(js)
