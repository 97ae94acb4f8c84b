"""Operators kept as a diagonal plus low-rank factors against the same
operators given densely: the structure stage, the pseudoinverse, the
reduced M and the march must not tell them apart."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import kernel_evolution_spec, projector_matrices
from degenpde import chains, instantiate, load_problem, spaces
from degenpde.chains import _pseudo_inverse, apply_schmidt_inverse, complete_structure
from degenpde.cli import main
from degenpde.errors import StructureError
from degenpde.reduction import DegenerateSystemSpec, reduce
from degenpde.solvers import _march, solve_family
from degenpde.spaces import (BLOCK, FACTORED_WIDTH_SHARE, FiniteOperator, compose, grid_space,
                             identity_operator, make_kernel_operator, matrix_operator,
                             structured_operator)


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
                            ("Bplus", js.Bplus.matrix, jd.Bplus.matrix),
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


def _nilpotent_factors(rng, sp, blocks, untouched=5):
    """U, V with V^T U = I - N, N nilpotent with the given Jordan blocks: U
    orthonormal in the space's metric and zero on `untouched` random rows,
    V = W U (I - N)^T."""
    n, k = sp.dim, sum(blocks)
    rows = np.sort(rng.choice(n, n - untouched, replace=False))
    U = np.zeros((n, k))
    U[rows] = np.linalg.qr(rng.normal(size=(rows.size, k)))[0]
    U /= sp.root[:, None]
    return U, sp.weights[:, None] * U @ (np.eye(k) - _nilpotent(rng, blocks)).T


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
        U, V = _nilpotent_factors(rng, sp, blocks)
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


def test_each_staircase_level_applies_a1_once(rng, monkeypatch):
    # a factored (3, 1) pencil: the staircase mixes the images it paired
    # and reads each link residual from that pairing, so it applies A1 (or
    # A1*) once per level, also on the levels that extend chains
    sp = grid_space(0.0, 1.0, 41, quadrature="simpson")
    U, V = _nilpotent_factors(rng, sp, (3, 1))
    calls = []

    def counted(solve, apply_A1, *args, _orig=chains._staircase):
        level_calls = []

        def apply(cols):
            level_calls.append(cols.shape)
            return apply_A1(cols)
        out = _orig(solve, apply, *args)
        calls.append(len(level_calls))
        return out
    monkeypatch.setattr(chains, "_staircase", counted)
    js = complete_structure(structured_operator(sp, np.ones(41), -U, V),
                            identity_operator(sp, -1.0))
    assert js.p == (3, 1)
    assert calls == [3, 3]


def test_structure_and_verify_never_form_a_factored_matrix(problems_dir, monkeypatch, capsys):
    # Bplus, M and every product of the bundled kernel and mode pencils go
    # through factors or dense arrays already held: no step asks any
    # operator for its matrix
    def refused(op):
        raise AssertionError("asked an operator for its dense matrix")

    monkeypatch.setattr(FiniteOperator, "matrix", property(refused))
    for argv in (["verify", str(problems_dir / "example2.json")],
                 ["verify", str(problems_dir / "example3.json")],
                 ["verify", str(problems_dir / "example5.json")],
                 ["structure", str(problems_dir / "example2.json"), "--grid-scale", "4"]):
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert out.count("verdict=pass") == 3


def _random_factored(rng, n, k, diag):
    return structured_operator(grid_space(0.0, 1.0, n), diag, rng.normal(size=(n, k)),
                               rng.normal(size=(n, k)))


def test_compose_matches_the_dense_product(rng):
    # factors times factors stay factors while the product is narrow; with
    # a dense side, or past FACTORED_WIDTH_SHARE of dim, the product is
    # dense; the low-rank part is recompressed to its rank
    a = _random_factored(rng, 41, 2, rng.normal(size=41))
    b = _random_factored(rng, 41, 3, rng.normal(size=41))
    for x, y in ((a, b), (_dense(a), b), (a, _dense(b)), (_dense(a), _dense(b))):
        ab = compose(x, y)
        assert (ab.dense is None) == (x.dense is None and y.dense is None)
        np.testing.assert_allclose(ab.matrix, a.matrix @ b.matrix, rtol=1e-13, atol=1e-13)
    assert compose(a, b).U.shape[1] == 5 <= FACTORED_WIDTH_SHARE * 41
    wide = _random_factored(rng, 41, 9, rng.normal(size=41))
    assert 9 + 3 > FACTORED_WIDTH_SHARE * 41
    assert compose(wide, b).dense is not None
    np.testing.assert_allclose(compose(wide, b).matrix, wide.matrix @ b.matrix,
                               rtol=1e-13, atol=1e-13)
    d = structured_operator(a.domain, rng.normal(size=41))
    assert compose(d, d).U.shape[1] == 0


def test_compose_recompresses_example2_m_to_its_rank(problems_dir, monkeypatch):
    # example2's M = -I + U V^T has one singular value of U V^T above
    # rounding; without the recompression compose keeps every factor column
    spec = instantiate(load_problem(problems_dir / "example2.json"))
    rp = reduce(spec)
    M = rp.M
    monkeypatch.setattr(spaces, "_recompressed", lambda U, V: (U, V))
    M0 = reduce(spec).M
    assert M.U.shape[1] == rp.js.Bplus.U.shape[1] == 1 < M0.U.shape[1]
    assert np.abs(M.matrix - M0.matrix).max() <= 1e-13 * np.abs(M0.matrix).max()


@pytest.mark.parametrize("shape, axes", [((5, 7, 4), (0, 2, 1)), ((7, 5, 4), (1, 2, 0)),
                                         ((4, 7, 5), (2, 0, 1))])
def test_apply_to_samples_takes_any_layout(rng, shape, axes):
    # transposed (5, 4, 7) samples; for the first the flattening to rows is
    # a copy, not a view
    op = _random_factored(rng, 7, 2, rng.normal(size=7))
    samples = rng.normal(size=shape).transpose(axes)
    assert samples.shape == (5, 4, 7) and not samples.flags.c_contiguous
    np.testing.assert_allclose(op.apply_to_samples(samples), samples @ op.matrix.T,
                               rtol=1e-13, atol=1e-13)


def test_apply_to_samples_holds_no_more_than_two_row_blocks(rng):
    # one pass over row blocks: no temporary of the samples' size, nor a
    # (samples, k) coefficient block
    op = _random_factored(rng, 201, 8, rng.normal(size=201))
    samples = rng.normal(size=(20000, 201))
    op.apply_to_samples(samples[:10])
    tracemalloc.start()
    try:
        out = op.apply_to_samples(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (BLOCK // 201) * 201 * samples.itemsize
    assert peak <= out.nbytes + 2 * block
    np.testing.assert_allclose(out, samples @ op.matrix.T, rtol=1e-13, atol=1e-12)


def _kernel_xy_problem(family):
    """B = I - 3xs on a 41-node Simpson grid, A1 = diag(1 + x) and
    f = e^(xy) (1 + s^2), reduced for family on 31 x 31 nodes of [0, 1]^2.
    With this A1, M's low-rank part does not vanish on the range of I - Q
    (with A1 = I it does)."""
    sp = grid_space(0.0, 1.0, 41, quadrature="simpson")
    B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s", exact_on="x")

    def f(x=None, y=None):
        X, Y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return np.exp(X * Y)[..., None] * (1.0 + sp.grid ** 2)

    rp = reduce(DegenerateSystemSpec(B=B, A1=structured_operator(sp, 1.0 + sp.grid), f=f,
                                     family=family, box={"x": (0.0, 1.0), "y": (0.0, 1.0)},
                                     grid={"nx": 31, "ny": 31}))
    assert rp.M.dense is None and rp.M.U.shape[1]
    return rp


def test_mixed_xy_kernel_pencil_matches_its_dense_m():
    # the mixed_xy series applies M to Chebyshev derivatives along y, arrays
    # that are not C-ordered
    rp = _kernel_xy_problem("mixed_xy")
    got = solve_family(rp)
    want = solve_family(replace(rp, M=_dense(rp.M)))
    assert got.meta["series_terms"] == want.meta["series_terms"] > 2
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)


def test_goursat_kernel_pencil_matches_its_dense_m():
    # the goursat sweep takes (M + I / c)^-1 from M's skeleton and M times
    # it from compose, each through whatever form it keeps
    rp = _kernel_xy_problem("goursat")
    got = solve_family(rp)
    want = solve_family(replace(rp, M=_dense(rp.M)))
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [2, 12])
def test_reduce_keeps_m_factored_only_while_narrow(rng, k):
    # B = I + U V^T is invertible, so Bplus = B^-1 and M = A1 Bplus = -B^-1,
    # I plus a part of rank k, recompressed to factor width k from the 2k of
    # the skeleton's solve: past FACTORED_WIDTH_SHARE of dim 41 for k = 12,
    # where both come out dense
    sp = grid_space(0.0, 1.0, 41)
    B = structured_operator(sp, np.ones(41), 0.1 * rng.normal(size=(41, k)),
                            rng.normal(size=(41, k)) / 41)
    rp = reduce(DegenerateSystemSpec(B=B, A1=identity_operator(sp, -1.0), f=None,
                                     family="evolution1", box={"t": (0.0, 1.0)},
                                     grid={"dt": 1e-2}))
    narrow = k <= FACTORED_WIDTH_SHARE * 41
    assert (rp.js.Bplus.dense is None) == (rp.M.dense is None) == narrow
    if narrow:
        assert rp.js.Bplus.U.shape[1] == rp.M.U.shape[1] == k
    np.testing.assert_allclose(rp.js.Bplus.matrix, np.linalg.inv(B.matrix), atol=1e-12)
    np.testing.assert_allclose(rp.M.matrix, -np.linalg.inv(B.matrix), atol=1e-12)


def test_largest_entry_sees_the_low_rank_part_cancel_the_diagonal():
    # diag(5, 1) - 5 e1 e1^T = diag(0, 1): the diagonal alone is no bound
    sp = grid_space(0.0, 1.0, 2)
    op = structured_operator(sp, np.array([5.0, 1.0]), np.array([[-5.0], [0.0]]),
                             np.array([[1.0], [0.0]]))
    assert op.entry_bound() == 1.0
    assert _dense(op).entry_bound() == 1.0


def _reference_max(op):
    """max |diag + U V^T| over the entries of the formed matrix."""
    m = op.U @ op.V.T
    m[np.diag_indices_from(m)] += op.diag
    return float(np.abs(m).max())


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [0, 1])
def test_entry_bound_is_the_largest_entry_for_factors_one_column_wide(seed, k):
    # the diagonal exactly, the off-diagonal from each column's two largest
    # entries: no rounding differs from the formed matrix
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60)) if seed else 1
    U = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4)
    V = rng.normal(size=(n, k))
    d = 1e3 * rng.normal(size=n)
    # the low-rank part cancels the diagonal on half the coordinates
    # (all of them for odd seeds), to the last bit
    cancel = np.arange(n) if seed % 2 else rng.choice(n, size=n // 2, replace=False)
    d[cancel] = -(U[cancel] * V[cancel]).sum(axis=1)
    op = structured_operator(spaces.euclidean_space(n), d, U, V)
    assert op.entry_bound() == _reference_max(op)
    assert op.weighted_entry_bound() == _reference_max(op)


@pytest.mark.parametrize("seed", range(12))
def test_entry_bound_bounds_the_largest_entry_of_wider_factors(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 120))
    k = int(rng.integers(2, n // 4 + 1))
    U, V = rng.normal(size=(n, k)), rng.normal(size=(n, k))
    if seed % 3 == 0:
        # columns that cancel each other off the diagonal
        V[:, 1] = -V[:, 0] * (1.0 + 1e-9 * rng.normal(size=n))
        U[:, 1] = U[:, 0]
    d = rng.normal(size=n)
    d[::2] = -(U[::2] * V[::2]).sum(axis=1)
    op = structured_operator(spaces.euclidean_space(n), d, U, V)
    assert FACTORED_WIDTH_SHARE * n >= k
    assert op.entry_bound() >= _reference_max(op)


@pytest.mark.parametrize("name", ["example2", "example5"])
def test_entry_bound_is_rounding_level_on_the_bundled_gap_and_idempotence_maps(
        problems_dir, name):
    # example2's gap cancels across its two columns off the diagonal, which
    # only the 2-norm sees; example5's diagonal cancels against coordinate
    # factor columns, which only the column sum sees
    spec = instantiate(load_problem(problems_dir / f"{name}.json"))
    js = complete_structure(spec.B, spec.A1)
    gap = compose(js.B, js.Bplus).updated(js.z_span, js.z_coef, shift=-1.0)
    assert gap.dense is None and gap.U.shape[1] >= 2
    assert js.diagnostics["pseudoinverse_identity"] == gap.entry_bound() <= 1e-15
    lines = dict(line.split("=") for line in chains.structure_report(js).splitlines())
    assert float(lines["Pk_idempotence"]) <= 1e-15
    assert float(lines["Qk_idempotence"]) <= 1e-15


def test_updated_and_bordered_keep_the_width_rule(rng):
    # a factored map plus columns stays factored while narrow and turns
    # dense past FACTORED_WIDTH_SHARE of dim, as compose's results do
    sp = grid_space(0.0, 1.0, 41, quadrature="simpson")
    a = _random_factored(rng, 41, 2, rng.normal(size=41))
    cols, rows = rng.normal(size=(41, 9)), rng.normal(size=(41, 9))
    narrow, wide = a.updated(cols[:, :1], rows[:, :1], shift=-1.0), a.updated(cols, rows)
    assert narrow.U.shape[1] == 3 and wide.dense is not None
    for op, c, r, shift in ((narrow, cols[:, :1], rows[:, :1], -1.0), (wide, cols, rows, 0.0)):
        np.testing.assert_allclose(op.matrix, a.matrix + c @ r.T + shift * np.eye(41),
                                   rtol=0, atol=1e-13)
    # kernel_only B has rank 2 on 41 nodes: its gap and bordered map are
    # 2 + l = 41 columns wide
    B = make_kernel_operator(sp, "kernel_only", "1 + x*s")
    js = complete_structure(B, identity_operator(sp, -1.0))
    assert B.U.shape[1] + js.l == 41
    gap = compose(js.B, js.Bplus).updated(js.z_span, js.z_coef, shift=-1.0)
    bordered = chains._bordered(js)
    assert gap.dense is not None and bordered.dense is not None
    first = js.head_columns
    np.testing.assert_allclose(
        bordered.matrix, B.matrix + js.Z[:, first] @ (sp.weights[:, None] * js.Gam[:, first]).T,
        rtol=0, atol=1e-13)


def test_structure_sizes_form_no_row_block_at_dim_12801(problems_dir, monkeypatch):
    # every size of the structure and the reduction comes from the factors:
    # no row block and no dense matrix of the d = 12801 pencil is formed
    spec = instantiate(load_problem(problems_dir / "example2.json"), grid_scale=64)
    assert spec.B.dense is None and spec.B.domain.dim == 12801

    def refused(*args):
        raise AssertionError("formed a block of a dim x dim matrix")

    monkeypatch.setattr(spaces, "row_blocks", refused)
    monkeypatch.setattr(FiniteOperator, "matrix", property(refused))
    rp = reduce(spec)
    lines = dict(line.split("=") for line in chains.structure_report(rp.js).splitlines())
    assert float(lines["pseudoinverse_identity"]) <= 1e-15
    assert float(lines["Pk_idempotence"]) == float(lines["Qk_idempotence"]) == 0.0
    assert rp.lower_size == 1.0


@pytest.mark.parametrize("make", ["kernel", "diagonal", "nilpotent", "kernel_only"])
def test_factored_pseudoinverse_matches_the_dense_one(rng, make):
    sp = grid_space(0.0, 1.0, 41, quadrature="simpson")
    if make == "kernel":
        B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s", exact_on="x")
    elif make == "diagonal":
        # zero diagonal entries: 1x1 blocks that the solve leaves at zero
        d = rng.uniform(0.5, 2.0, 41)
        d[[3, 17]] = 0.0
        B = structured_operator(sp, d)
    elif make == "nilpotent":
        # I - U V^T with a nilpotent core, on coordinates U and V partly miss
        U, V = _nilpotent_factors(rng, sp, (2, 1))
        B = structured_operator(sp, np.ones(41), -U, V)
    else:
        B = make_kernel_operator(sp, "kernel_only", "1 + x*s")
    # the skeleton's minimum-norm solve from the pieces (1x1 blocks, the
    # core and the complement of Q's span) equals the dense SVD's, also
    # for right-hand sides that leave the range of B
    assert B.skeleton().rank == _dense(B).skeleton().rank
    S, Sd = B.skeleton().pseudo_inverse(), _dense(B).skeleton().pseudo_inverse()
    assert S.dense is None
    y = rng.normal(size=(41, 4))
    x, xd = S.apply(y), Sd.apply(y)
    assert np.abs(x - xd).max() <= 1e-12 * np.abs(xd).max()
    assert np.linalg.norm(sp.root[:, None] * (B.matrix @ xd - y), axis=0).min() > 1e-2
    js = complete_structure(B, identity_operator(sp, -1.0))
    jd = complete_structure(_dense(B), identity_operator(sp, -1.0))
    # the dense B's Bplus keeps factors only where its rank is small: the
    # kernel_only B's solve has rank 2, and compose recompresses to it
    assert (jd.Bplus.dense is None) == (make == "kernel_only")
    if make in ("kernel", "diagonal"):
        assert js.Bplus.U.shape[1] <= (4 if make == "kernel" else 0)
    np.testing.assert_allclose(js.Bplus.matrix, jd.Bplus.matrix, atol=1e-12)
    assert js.diagnostics["pseudoinverse_identity"] <= 1e-14
    assert jd.diagnostics["pseudoinverse_identity"] <= 1e-14


@pytest.mark.parametrize("dense", [False, True], ids=["factored", "dense"])
def test_pseudoinverse_refusal_fires_on_either_form(dense):
    # without the z-span projector, I - Q leaves the range of B
    sp = grid_space(0.0, 1.0, 41, quadrature="simpson")
    B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s", exact_on="x")
    js = complete_structure(_dense(B) if dense else B, identity_operator(sp, -1.0))
    # the refusal reads the cokernel through the dual heads, orthonormal
    Y = np.hstack([js.Psi[:, js.head_columns], js.psi_extra])
    np.testing.assert_allclose(Y.T @ (sp.weights[:, None] * Y), np.eye(Y.shape[1]),
                               atol=1e-12)
    js.z_span = np.zeros_like(js.z_span)
    with pytest.raises(StructureError, match="pseudoinverse construction failed"):
        _pseudo_inverse(js)


def _marches(M, r, s, rng, t):
    g_half = rng.normal(size=(2 * len(t) - 1, M.domain.dim))
    got = _march(M, r, s, g_half.__getitem__, t)
    want = _march(matrix_operator(M.matrix), r, s, g_half.__getitem__, t)
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("r, s", [(1, 0), (2, 1), (3, 0)],
                         ids=["evolution1", "evolution2", "spectral3"])
def test_factored_march_matches_the_dense_march(rng, r, s):
    # one march on both sides: the kernel problem's M = -I + low rank
    # through its narrow factors, against M's matrix entering as X = -h M,
    # V = I and folded into dense step maps
    rp = reduce(kernel_evolution_spec("evolution1", None))
    assert rp.M.dense is None and np.all(rp.M.diag == -1.0)
    assert _marches(rp.M, r, s, rng, np.linspace(0.0, 2.0, 2001)) <= 1e-10
    # c I + U V^T with |c| T large, decaying and growing
    t = np.linspace(0.0, 1.0, 1001)
    for c in (150.0, -40.0):
        M = _random_factored(rng, 23, 3, np.full(23, c))
        M = structured_operator(M.domain, M.diag, 0.3 * M.U, M.V)
        assert _marches(M, r, s, rng, t) <= 1e-10
    # a diagonal that varies (k = 0): one factor p per column
    M = structured_operator(grid_space(0.0, 1.0, 23), rng.uniform(-3.0, 90.0, 23))
    assert _marches(M, r, s, rng, t) <= 1e-10


@pytest.mark.parametrize("name", ["example2", "example3"])
@pytest.mark.parametrize("flags", [[], ["--dt", "0.00025"]], ids=["default", "dt"])
def test_verify_passes_the_oracle_on_an_order_one_regular_part(problems_dir, tmp_path,
                                                               capsys, name, flags):
    # the bundled f = x lies in the range of Q, so its regular part is
    # rounding noise; f = 1 + sin(t) x^2 marches a v of order one
    raw = json.loads((problems_dir / f"{name}.json").read_text())
    raw["f"] = "1 + sin(t)*x^2"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)] + flags) == 0
    out = capsys.readouterr().out
    assert "verdict=pass" in out
