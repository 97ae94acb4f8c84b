"""Finite-difference weights and grid derivatives.

Weights come from Fornberg's recurrence, which gives exact differentiation
weights for any node set and derivative order.  Derivatives along one axis
of a sampled field use centered interior stencils with one-sided stencils
of the same order near the boundary.
"""

import numpy as np


def fd_weights(x, x0, m):
    """Weights w such that sum(w * f(x)) approximates the m-th derivative
    of f at x0, exact for polynomials up to degree len(x)-1.

    x : 1-d array of distinct node locations.
    x0 : evaluation point.
    m : derivative order, m >= 0.
    """
    x = np.asarray(x, dtype=float)
    npts = x.size
    if m >= npts:
        raise ValueError(f"need more than {npts} nodes for derivative order {m}")
    c = np.zeros((npts, m + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def stencil_size(order, accuracy):
    """Smallest odd node count giving the requested accuracy for the
    requested derivative order with a centered stencil."""
    npts = 2 * ((order + 1) // 2) - 1 + accuracy
    if npts % 2 == 0:
        npts += 1
    return npts


def _stencil_table(n, h, order, accuracy):
    """(npts, npts) weight rows on a uniform grid of spacing h: row i
    differentiates at local node i of an npts-node window.  Row npts // 2
    is the centered interior stencil; the rows before it serve the first
    nodes of the grid and the rows after it the last ones."""
    npts = stencil_size(order, accuracy)
    if npts > n:
        raise ValueError(f"grid of {n} nodes too small for a {npts}-point stencil")
    xloc = np.arange(npts) * h
    return np.array([fd_weights(xloc, x0, order) for x0 in xloc])


def derivative_along_axis(values, h, order, axis, accuracy=2):
    """Differentiate a sampled field along one axis of an ndarray: centered
    interior stencils and one-sided edge stencils of the same node count,
    applied as banded sums: O(n * npts) work and no (n, n) matrix."""
    values = np.asarray(values, dtype=float)
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    W = _stencil_table(n, h, order, accuracy)
    npts = W.shape[0]
    half = npts // 2
    out = np.empty_like(v)
    _centered(W[half], v, out[half:n - half])
    out[:half] = np.tensordot(W[:half], v[:npts], axes=(1, 0))
    out[n - half:] = np.tensordot(W[half + 1:], v[n - npts:], axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def centered_weights(h, order):
    """The centered interior weight row of derivative_along_axis at
    accuracy 2 on a uniform grid of spacing h."""
    npts = stencil_size(order, 2)
    return _stencil_table(npts, h, order, 2)[npts // 2]


def centered_derivative(values, weights):
    """The interior rows of derivative_along_axis along axis 0, and only
    those: the centered stencil of the weight row (centered_weights) at
    rows half .. n - half - 1 of values, half = len(weights) // 2."""
    out = np.empty((len(values) - len(weights) + 1,) + values.shape[1:])
    _centered(weights, values, out)
    return out


def _centered(weights, v, out):
    """out = sum_k weights[k] v[k : k + len(out)], the banded interior sum."""
    np.multiply(weights[0], v[:len(out)], out=out)
    for k in range(1, len(weights)):
        out += weights[k] * v[k:k + len(out)]
