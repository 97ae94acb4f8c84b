"""Finite-difference weights and grid derivatives, checked against dense
reference derivative matrices built here from the public weights."""

import tracemalloc

import numpy as np
import pytest

from degenpde.fd import derivative_along_axis, fd_weights, stencil_size


def derivative_matrix(n, h, order, accuracy=2):
    """Dense (n, n) reference matrix mapping samples on a uniform grid of
    spacing h to samples of the order-th derivative, one fd_weights call
    per row: centered stencils inside, one-sided stencils of the same node
    count near the edges."""
    npts = stencil_size(order, accuracy)
    if npts > n:
        raise ValueError(f"grid of {n} nodes too small for a {npts}-point stencil")
    D = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - npts // 2, 0), n - npts)
        D[i, lo:lo + npts] = fd_weights((np.arange(lo, lo + npts) - i) * h, 0.0, order)
    return D


def test_centered_first_derivative_weights():
    w = fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 1)
    np.testing.assert_allclose(w, [-0.5, 0.0, 0.5], atol=1e-14)


def test_centered_second_derivative_weights():
    w = fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 2)
    np.testing.assert_allclose(w, [1.0, -2.0, 1.0], atol=1e-14)


def test_one_sided_first_derivative_weights():
    w = fd_weights(np.array([0.0, 1.0, 2.0]), 0.0, 1)
    np.testing.assert_allclose(w, [-1.5, 2.0, -0.5], atol=1e-14)


def test_five_point_second_derivative_weights():
    w = fd_weights(np.arange(-2.0, 3.0), 0.0, 2)
    np.testing.assert_allclose(
        w, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], atol=1e-13)


def test_interpolation_weights():
    w = fd_weights(np.array([0.0, 1.0]), 0.5, 0)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)


def test_order_beyond_node_count_rejected():
    with pytest.raises(ValueError, match="need more than"):
        fd_weights(np.array([0.0, 1.0]), 0.0, 2)


def test_weights_exact_on_polynomials(rng):
    x = np.sort(rng.uniform(-1.0, 1.0, size=6))
    x0 = 0.1
    for m in range(3):
        w = fd_weights(x, x0, m)
        for deg in range(6):
            coeff = 1.0
            for j in range(m):
                coeff *= deg - j
            exact = coeff * x0 ** (deg - m) if deg >= m else 0.0
            assert np.dot(w, x ** deg) == pytest.approx(exact, abs=1e-9)


def test_stencil_size_table():
    assert stencil_size(1, 2) == 3
    assert stencil_size(2, 2) == 3
    assert stencil_size(1, 4) == 5
    assert stencil_size(3, 2) == 5


def test_derivative_matrix_exact_on_low_degree():
    n, h = 21, 0.05
    x = np.arange(n) * h
    D1 = derivative_matrix(n, h, 1)
    D2 = derivative_matrix(n, h, 2)
    np.testing.assert_allclose(D1 @ x, np.ones(n), atol=1e-11)
    np.testing.assert_allclose(D1 @ x ** 2, 2 * x, atol=1e-10)
    np.testing.assert_allclose(D2 @ x ** 2, np.full(n, 2.0), atol=1e-9)


def test_derivative_matrix_second_order_convergence():
    errs = []
    for n in (101, 201):
        h = 1.0 / (n - 1)
        x = np.arange(n) * h
        D = derivative_matrix(n, h, 1)
        errs.append(np.abs(D @ np.sin(2 * x) - 2 * np.cos(2 * x)).max())
    assert errs[0] / errs[1] >= 3.5


def test_derivative_matrix_fourth_order_convergence():
    errs = []
    for n in (101, 201):
        h = 1.0 / (n - 1)
        x = np.arange(n) * h
        D = derivative_matrix(n, h, 1, accuracy=4)
        errs.append(np.abs(D @ np.sin(2 * x) - 2 * np.cos(2 * x)).max())
    assert errs[0] / errs[1] >= 12.0


def test_derivative_matrix_needs_enough_nodes():
    with pytest.raises(ValueError, match="too small"):
        derivative_matrix(3, 0.1, 3)
    with pytest.raises(ValueError, match="too small"):
        derivative_along_axis(np.zeros((4, 3)), 0.1, 3, axis=0)


def test_derivative_along_axis_targets_one_axis():
    t = np.linspace(0.0, 1.0, 41)
    x = np.linspace(0.0, 2.0, 31)
    field = t[:, None] ** 2 + 3.0 * x[None, :]
    dt = derivative_along_axis(field, t[1] - t[0], 1, axis=0)
    dx = derivative_along_axis(field, x[1] - x[0], 1, axis=1)
    np.testing.assert_allclose(dt, np.broadcast_to(2 * t[:, None], field.shape),
                               atol=1e-9)
    np.testing.assert_allclose(dx, np.full_like(field, 3.0), atol=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("accuracy", [2, 4])
def test_derivative_along_axis_matches_the_matrix_rows(rng, order, accuracy):
    npts = stencil_size(order, accuracy)
    # the first axis is exactly one stencil wide: one centered row only
    field = rng.standard_normal((npts, npts + 3, 2 * npts + 1))
    for axis, n in enumerate(field.shape):
        D = derivative_matrix(n, 0.1, order, accuracy)
        want = np.moveaxis(np.tensordot(D, np.moveaxis(field, axis, 0),
                                        axes=(1, 0)), 0, axis)
        got = derivative_along_axis(field, 0.1, order, axis, accuracy)
        assert got.shape == field.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_derivative_along_axis_allocates_no_square_matrix():
    # a dense 4001-node derivative matrix alone would take 128 MB
    column = np.linspace(0.0, 1.0, 4001)[:, None] ** 2
    tracemalloc.start()
    try:
        deriv = derivative_along_axis(column, 1.0 / 4000, 2, axis=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    np.testing.assert_allclose(deriv, 2.0, atol=1e-6)
