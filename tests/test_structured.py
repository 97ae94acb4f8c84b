"""Operators kept as a diagonal plus low-rank factors against the same
operators given densely: the structure stage must not tell them apart."""

import numpy as np
import pytest

from conftest import projector_matrices
from degenpde.chains import apply_schmidt_inverse, complete_structure
from degenpde.cli import main
from degenpde.spaces import (FiniteOperator, grid_space, identity_operator,
                             make_kernel_operator, structured_operator)


def _dense(op):
    return FiniteOperator(op.matrix, op.domain, op.codomain)


def _assert_same_structure(B, A1):
    """complete_structure on B, A1 and on their dense copies agree to
    1e-12 relative in p, the block projectors, Bplus, Gamma and the
    Schmidt condition."""
    assert B.dense is None
    js = complete_structure(B, A1)
    jd = complete_structure(_dense(B), _dense(A1))
    eye = np.eye(B.domain.dim)
    assert js.p == jd.p and (js.n, js.m) == (jd.n, jd.m)
    pm, pmd = projector_matrices(js), projector_matrices(jd)
    for name, got, want in (("Pk", pm.Pk, pmd.Pk), ("Qk", pm.Qk, pmd.Qk),
                            ("P", pm.P, pmd.P), ("Q", pm.Q, pmd.Q),
                            ("Bplus", js.Bplus, jd.Bplus),
                            ("Gamma", apply_schmidt_inverse(js, eye),
                             apply_schmidt_inverse(jd, eye))):
        err = np.abs(got - want).max() / max(1.0, np.abs(want).max())
        assert err <= 1e-12, (name, err)
    assert js.diagnostics["schmidt_condition"] == pytest.approx(
        jd.diagnostics["schmidt_condition"], rel=1e-12)
    return js


def _nilpotent(rng, blocks):
    """A k x k nilpotent matrix with Jordan blocks of the given sizes, each
    block turned by its own random rotation."""
    k = sum(blocks)
    N = np.zeros((k, k))
    off = 0
    for size in blocks:
        O = np.linalg.qr(rng.normal(size=(size, size)))[0]
        N[off:off + size, off:off + size] = O @ np.eye(size, k=1) @ O.T
        off += size
    return N


@pytest.mark.parametrize("blocks", [(1,), (2,), (3,), (1, 1), (2, 1), (3, 1),
                                    (2, 2), (3, 2, 1)])
def test_identity_minus_low_rank_pencils_match_their_dense_form(rng, blocks):
    # B = I - U V^T with V^T U = I - N: B U y = U N y, so with A1 = -I the
    # chains follow N's Jordan blocks.  U is orthonormal in the space's
    # metric and V = W U (I - N)^T, so different blocks stay orthogonal and
    # the minimum-norm chain links add no head of a shorter chain.  U and
    # V vanish on some coordinates, which the skeleton keeps as 1x1 blocks.
    for n in (23, 41):
        sp = grid_space(0.0, 1.0, n, quadrature="simpson")
        k = sum(blocks)
        rows = np.sort(rng.choice(n, n - 5, replace=False))
        U = np.zeros((n, k))
        U[rows] = np.linalg.qr(rng.normal(size=(rows.size, k)))[0]
        U /= sp.root[:, None]
        V = sp.weights[:, None] * U @ (np.eye(k) - _nilpotent(rng, blocks)).T
        js = _assert_same_structure(structured_operator(sp, np.ones(n), -U, V),
                                    identity_operator(sp, -1.0))
        assert sorted(js.p) == sorted(blocks)
        # the negated pencil: the constant of the factored block is -1
        js = _assert_same_structure(structured_operator(sp, -np.ones(n), U, V),
                                    identity_operator(sp))
        assert sorted(js.p) == sorted(blocks)


def test_diagonal_pencil_with_repeated_zeros_matches_its_dense_form(rng):
    sp = grid_space(0.0, 2.0, 31)
    d = rng.uniform(0.5, 2.0, 31) * rng.choice([-1.0, 1.0], 31)
    zeros = [3, 4, 11, 20, 27]
    d[zeros] = 0.0
    A1 = structured_operator(sp, rng.uniform(0.5, 2.0, 31))
    js = _assert_same_structure(structured_operator(sp, d), A1)
    assert js.p == (1,) * len(zeros)
    # a rank-one part on the nonzero coordinates, where the diagonal
    # varies, makes that block take a dense SVD; the null space stays
    u, v = rng.normal(size=(31, 1)), rng.normal(size=(31, 1))
    u[zeros], v[zeros] = 0.0, 0.0
    js = _assert_same_structure(structured_operator(sp, d, 0.1 * u, v), A1)
    assert js.p == (1,) * len(zeros)


def test_kernel_only_operator_matches_its_dense_form():
    # c = 0: the complement of the factors' span is the kernel, of
    # dimension n - k, so every one of its directions heads a chain
    sp = grid_space(0.0, 1.0, 41)
    B = make_kernel_operator(sp, "kernel_only", "1 + x*s")
    js = _assert_same_structure(B, identity_operator(sp, -1.0))
    assert js.n == 39 and js.p == (1,) * 39


def test_skeleton_solve_matches_the_dense_skeleton(rng):
    # minimum-norm solutions and residual norms of B x = y from the pieces
    # (1x1 blocks, the core and the complement of Q's span) equal the dense
    # SVD's for right-hand sides that leave the range of B
    sp = grid_space(0.0, 1.0, 41, quadrature="simpson")
    d = rng.uniform(0.5, 2.0, 41)
    d[[2, 9, 30]] = 0.0
    U = np.zeros((41, 3))
    U[5:] = np.linalg.qr(rng.normal(size=(36, 3)))[0]
    U /= sp.root[:, None]
    V = sp.weights[:, None] * U @ (np.eye(3) - _nilpotent(rng, (2, 1))).T
    for B in (structured_operator(sp, d),
              structured_operator(sp, np.ones(41), -U, V),
              make_kernel_operator(sp, "kernel_only", "1 + x*s")):
        y = rng.normal(size=(41, 4))
        x, res = B.skeleton().solve(y)
        xd, resd = _dense(B).skeleton().solve(y)
        assert B.skeleton().rank == _dense(B).skeleton().rank
        assert np.abs(x - xd).max() <= 1e-12 * np.abs(xd).max()
        np.testing.assert_allclose(res, resd, rtol=1e-12)
        assert resd.min() > 1e-2


def test_structure_and_verify_never_form_a_factored_matrix(problems_dir, monkeypatch, capsys):
    built = FiniteOperator.matrix.fget

    def guarded(op):
        if op.dense is None:
            raise AssertionError("formed the dense matrix of a factored operator")
        return built(op)

    monkeypatch.setattr(FiniteOperator, "matrix", property(guarded))
    for argv in (["verify", str(problems_dir / "example2.json")],
                 ["verify", str(problems_dir / "example5.json")],
                 ["structure", str(problems_dir / "example2.json"), "--grid-scale", "4"]):
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert out.count("verdict=pass") == 2
