"""Inner-product spaces, adjoints, null bases, kernel operators."""

import numpy as np
import pytest

from degenpde import spaces
from degenpde.errors import ConfigurationError
from degenpde.expressions import evaluate, parse
from degenpde.spaces import (FiniteOperator, InnerProductSpace,
                             euclidean_space, grid_space, identity_operator,
                             make_kernel_operator, matrix_operator, mode_space,
                             row_blocks)


# -- row blocks ----------------------------------------------------------------

@pytest.mark.parametrize("n, width, rows", [(10, 300, 3), (9, 300, 3), (10, 100000, 1),
                                            (10, 0, 10), (0, 5, 1)])
def test_row_blocks_cover_the_rows_in_blocks_of_at_most_BLOCK_entries(monkeypatch, n,
                                                                     width, rows):
    monkeypatch.setattr(spaces, "BLOCK", 1000)
    blocks = row_blocks(n, width)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    assert all(b.stop - b.start == rows for b in blocks[:-1])
    assert all(0 < b.stop - b.start <= rows for b in blocks)


# -- weights and quadrature ---------------------------------------------------

def test_space_rejects_bad_weights():
    with pytest.raises(ConfigurationError, match="do not match space dim"):
        InnerProductSpace(dim=3, weights=np.ones(4))
    with pytest.raises(ConfigurationError, match="must all be positive"):
        InnerProductSpace(dim=3, weights=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ConfigurationError, match="must all be positive"):
        InnerProductSpace(dim=3, weights=np.array([1.0, -2.0, 1.0]))


def test_trapezoid_integrates_quadratic():
    sp = grid_space(0.0, 1.0, 201)
    x = sp.grid
    # composite trapezoid error for x^2 is exactly h^2/6
    h = 1.0 / 200
    assert sp.inner(x, x) == pytest.approx(1.0 / 3.0 + h * h / 6.0, abs=1e-12)
    assert abs(sp.inner(x, x) - 1.0 / 3.0) < 1e-4


def test_trapezoid_sine_on_half_period():
    sp = grid_space(0.0, np.pi, 201)
    s = np.sin(sp.grid)
    # the cos(2x) part of sin^2 sums to zero over the uniform grid
    assert sp.inner(s, s) == pytest.approx(np.pi / 2.0, abs=1e-9)


def test_simpson_integrates_quadratic_exactly():
    sp = grid_space(0.0, 1.0, 201, quadrature="simpson")
    x = sp.grid
    assert sp.inner(x, x) == pytest.approx(1.0 / 3.0, abs=5e-15)


def test_simpson_rejects_even_node_count():
    with pytest.raises(ConfigurationError, match="odd node count"):
        grid_space(0.0, 1.0, 200, quadrature="simpson")


def test_unknown_quadrature_rejected():
    with pytest.raises(ConfigurationError, match="unknown quadrature"):
        grid_space(0.0, 1.0, 11, quadrature="gauss")


def test_grid_space_needs_two_nodes():
    with pytest.raises(ConfigurationError, match="at least 2 nodes"):
        grid_space(0.0, 1.0, 1)


def test_mode_space_shape():
    sp = mode_space(4, 3)
    assert sp.dim == 12
    assert sp.mode_shape == (4, 3)
    np.testing.assert_array_equal(sp.weights, np.ones(12))


# -- operators and adjoints ---------------------------------------------------

def test_operator_shape_validated():
    dom = euclidean_space(3)
    cod = euclidean_space(5)
    with pytest.raises(ConfigurationError, match="does not match"):
        FiniteOperator(np.zeros((3, 5)), dom, cod)


def test_euclidean_adjoint_is_transpose(rng):
    dom = euclidean_space(3)
    cod = euclidean_space(5)
    A = FiniteOperator(rng.normal(size=(5, 3)), dom, cod)
    np.testing.assert_allclose(A.apply_adjoint(np.eye(5)), A.matrix.T, atol=1e-14)


def test_adjoint_identity_under_weighted_grams(rng):
    for _ in range(100):
        dom = InnerProductSpace(dim=3, weights=rng.uniform(0.5, 2.0, 3))
        cod = InnerProductSpace(dim=5, weights=rng.uniform(0.5, 2.0, 5))
        A = FiniteOperator(rng.normal(size=(5, 3)), dom, cod)
        u = rng.normal(size=3)
        w = rng.normal(size=5)
        lhs = cod.inner(A.matrix @ u, w)
        rhs = dom.inner(u, A.apply_adjoint(w[:, None])[:, 0])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_adjoint_is_an_involution(rng):
    dom = grid_space(0.0, 1.0, 31)
    cod = grid_space(0.0, 2.0, 31)
    A = FiniteOperator(rng.normal(size=(31, 31)), dom, cod)
    Astar = FiniteOperator(A.apply_adjoint(np.eye(31)), cod, dom)
    back = Astar.apply_adjoint(np.eye(31))
    assert np.abs(back - A.matrix).max() <= 1e-12


def test_multiplicative_kernel_is_self_adjoint():
    sp = grid_space(0.0, 1.0, 101)
    A = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s")
    assert np.abs(A.apply_adjoint(np.eye(101)) - A.matrix).max() <= 1e-12


def test_matrix_operator_defaults():
    A = matrix_operator([[1.0, 2.0, 3.0]])
    assert A.domain.dim == 3 and A.codomain.dim == 1
    with pytest.raises(ConfigurationError, match="2-d matrix"):
        matrix_operator([1.0, 2.0])


# -- null bases ---------------------------------------------------------------

def test_null_basis_of_zero_map():
    # Simpson weights are non-uniform, so orthonormality is metric-specific
    for sp in (euclidean_space(2), grid_space(0.0, 1.0, 5, quadrature="simpson")):
        A = FiniteOperator(np.zeros((sp.dim, sp.dim)), sp, sp)
        basis = A.skeleton().kernel()
        assert basis.shape == (sp.dim, sp.dim)
        np.testing.assert_allclose(basis.T @ (sp.weights[:, None] * basis),
                                   np.eye(sp.dim), atol=1e-12)
        assert np.abs(A.matrix @ basis).max() == 0.0


def test_null_basis_of_identity_is_empty():
    sp = euclidean_space(4)
    assert identity_operator(sp).skeleton().kernel().shape == (4, 0)


def test_null_basis_is_deterministic(rng):
    sp = euclidean_space(6)
    U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    A = FiniteOperator(U @ np.diag([3.0, 2.0, 1.0, 0, 0, 0]) @ U.T, sp, sp)
    first = A.skeleton().kernel()
    second = A.skeleton().kernel()
    assert first.tobytes() == second.tobytes()
    assert first.shape == (6, 3)
    # sign fix: first significant coordinate of each column is positive
    for j in range(3):
        col = first[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        assert col[nz[0]] > 0
    assert np.abs(A.matrix @ first).max() <= 1e-10


def test_raw_kernel_null_direction_is_nearly_linear():
    sp = grid_space(0.0, 1.0, 201)
    A = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s")
    sk = A.skeleton(rank_tol=1e-4)
    basis = sk.kernel()
    assert basis.shape[1] == 1
    v = basis[:, 0]
    x = sp.grid
    cos = abs(sp.inner(v, x)) / (sp.norm(v) * sp.norm(x))
    assert cos >= 1.0 - 1e-6
    # a null direction at this tolerance really is nearly annihilated
    assert sp.norm(A.matrix @ v) <= 10 * 1e-4 * sk.s[0] * sp.norm(v)


def test_cokernel_is_the_kernel_of_the_adjoint(rng):
    # read from the same factorization as the kernel, between non-uniform
    # metrics of different dimension
    dom = grid_space(0.0, 1.0, 7, quadrature="simpson")
    cod = grid_space(0.0, 1.0, 5)
    A = FiniteOperator(rng.normal(size=(5, 2)) @ rng.normal(size=(2, 7)), dom, cod)
    sk = A.skeleton()
    assert sk.kernel().shape == (7, 5)
    cok = sk.adjoint().kernel()
    assert cok.shape == (5, 3)
    assert max(dom.norm(col) for col in A.apply_adjoint(cok).T) <= 1e-10
    np.testing.assert_allclose(cok.T @ (cod.weights[:, None] * cok),
                               np.eye(3), atol=1e-12)


# -- kernel operators ---------------------------------------------------------

def test_zero_kernel_gives_identity():
    sp = grid_space(0.0, 1.0, 51)
    A = make_kernel_operator(sp, "identity_minus_kernel", "0*x*s")
    np.testing.assert_array_equal(A.matrix, np.eye(51))


def test_raw_kernel_reproduces_linear_to_quadrature_error():
    sp = grid_space(0.0, 1.0, 201)
    A = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s")
    x = sp.grid
    # trapezoid: K x = (1 + h^2/2) x, so the defect is exactly (h^2/2) x
    defect = A.matrix @ x
    h = 1.0 / 200
    np.testing.assert_allclose(defect, -(h * h / 2.0) * x, atol=1e-12)
    assert sp.norm(defect) <= 1e-4 * sp.norm(x)


def test_exact_on_makes_annihilation_exact():
    sp = grid_space(0.0, 1.0, 201, quadrature="simpson")
    A = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                             exact_on="x")
    out = A.matrix @ sp.grid
    assert np.abs(out).max() <= 1e-14


def test_exact_on_rejects_non_parallel_direction():
    sp = grid_space(0.0, 1.0, 201)
    with pytest.raises(ConfigurationError, match="not proportional"):
        make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                             exact_on="1 + 0*x")


def test_exact_on_rejects_zero_direction():
    sp = grid_space(0.0, 1.0, 201)
    with pytest.raises(ConfigurationError, match="is zero"):
        make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                             exact_on="0*x")


def test_kernel_operator_needs_grid_space():
    with pytest.raises(ConfigurationError, match="grid space"):
        make_kernel_operator(euclidean_space(4), "kernel_only", "x*s")


def test_unknown_kernel_kind_rejected():
    sp = grid_space(0.0, 1.0, 11)
    with pytest.raises(ConfigurationError, match="unknown kernel operator kind"):
        make_kernel_operator(sp, "resolvent", "x*s")


def test_sine_projector_is_idempotent():
    sp = grid_space(0.0, np.pi, 201)
    P = make_kernel_operator(sp, "kernel_only",
                             "(2/3.14159265358979323846)*sin(x)*sin(s)")
    M = P.matrix
    assert np.abs(M @ M - M).max() <= 1e-12


def test_null_residual_shrinks_at_second_order():
    # the raw-kernel defect is exactly h^2/2, so halving h divides it by 4
    rel = []
    for nodes in (101, 201):
        sp = grid_space(0.0, 1.0, nodes)
        A = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s")
        x = sp.grid
        rel.append(sp.norm(A.matrix @ x) / sp.norm(x))
    assert rel[0] / rel[1] >= 4.0 - 1e-6


# -- degenerate kernels kept as factors, and the dense fallback -----------------

def _sampled(sp, kernel):
    """The kernel sampled on the whole grid and weighted, as the dense path
    builds it."""
    X, S = np.meshgrid(sp.grid, sp.grid, indexing="ij")
    return np.broadcast_to(evaluate(parse(kernel), x=X, s=S), (sp.dim, sp.dim)) * sp.weights


def test_separable_kernel_keeps_its_factors():
    sp = grid_space(0.0, 1.0, 41, quadrature="simpson")
    A = make_kernel_operator(sp, "identity_minus_kernel", "x*s - 2*x^2*s^2")
    assert A.dense is None and A.U.shape == (41, 2)
    np.testing.assert_allclose(A.matrix, np.eye(41) - _sampled(sp, "x*s - 2*x^2*s^2"),
                               rtol=0, atol=1e-15)
    u = np.random.default_rng(3).normal(size=(41, 2))
    np.testing.assert_allclose(A.apply(u), A.matrix @ u, rtol=0, atol=1e-14)
    np.testing.assert_allclose(A.apply_adjoint(u), A.matrix.T @ (sp.weights[:, None] * u)
                               / sp.weights[:, None], rtol=0, atol=1e-13)


@pytest.mark.parametrize("kernel", ["exp(x*s)", "sin(x + s)",
                                    "+".join(f"x^{i}*s^{i}" for i in range(1, 12))])
def test_other_kernels_are_sampled_densely(kernel):
    # not a sum of products, or more than dim // 4 = 10 of them
    sp = grid_space(0.0, 1.0, 41)
    for kind, expect in (("kernel_only", _sampled(sp, kernel)),
                         ("identity_minus_kernel", np.eye(41) - _sampled(sp, kernel))):
        A = make_kernel_operator(sp, kind, kernel)
        assert A.dense is not None
        np.testing.assert_array_equal(A.matrix, expect)


def test_many_term_kernel_is_the_same_map_either_way():
    kernel = "+".join(f"x^{i}*s^{i}" for i in range(1, 12))
    small, large = grid_space(0.0, 1.0, 41), grid_space(0.0, 1.0, 45)
    assert make_kernel_operator(small, "kernel_only", kernel).dense is not None
    factored = make_kernel_operator(large, "kernel_only", kernel)
    assert factored.dense is None
    np.testing.assert_allclose(factored.matrix, _sampled(large, kernel), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("kernel", ["3*x*s", "3*x*s + 0*exp(x*s)"], ids=["factors", "dense"])
def test_exact_on_on_both_paths(kernel):
    sp = grid_space(0.0, 1.0, 201)
    A = make_kernel_operator(sp, "identity_minus_kernel", kernel, exact_on="x")
    assert (A.dense is None) == (kernel == "3*x*s")
    assert np.abs(A.apply(sp.grid)).max() <= 1e-14
    with pytest.raises(ConfigurationError, match="not proportional"):
        make_kernel_operator(sp, "identity_minus_kernel", kernel, exact_on="1 + 0*x")
    with pytest.raises(ConfigurationError, match="is zero"):
        make_kernel_operator(sp, "identity_minus_kernel", kernel, exact_on="0*x")


def test_factored_and_dense_exact_on_agree():
    sp = grid_space(0.0, 1.0, 201, quadrature="simpson")
    factored = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s", exact_on="x")
    dense = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s + 0*exp(x*s)",
                                 exact_on="x")
    np.testing.assert_allclose(factored.matrix, dense.matrix, rtol=0, atol=1e-14)


def test_largest_weighted_entry_matches_the_dense_matrix():
    sp = grid_space(0.0, 2.0, 601, quadrature="simpson")
    # the largest entry off the diagonal, then on it
    for kernel in ("5*x*s + cos(x)*s", "-x*s"):
        A = make_kernel_operator(sp, "identity_minus_kernel", kernel)
        weighted = sp.root[:, None] * A.matrix / sp.root
        assert A.weighted_entry_bound() == pytest.approx(np.abs(weighted).max(), rel=1e-14)
    assert identity_operator(sp, -3.0).weighted_entry_bound() == 3.0
