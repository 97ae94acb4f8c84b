"""Finite inner-product spaces and the operators between them.

Structure analysis happens on finite spaces: either a plain Euclidean
coordinate space, a quadrature discretization of functions on an
interval (trapezoid or Simpson weights), or a space of Fourier mode
coefficients.  Every one of them has a diagonal Gram matrix, so a space
stores only its weights, the diagonal of the Gram matrix, and every
metric operation is a row or column scaling.  Operators carry their
domain and codomain so their adjoints are taken with respect to the
right inner products.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .expressions import evaluate, parse

DEFAULT_RANK_TOL = 1e-10
KERNEL_PARALLEL_TOL = 1e-8   # exact_on: K v against its projection onto v


@dataclass(frozen=True)
class InnerProductSpace:
    """A finite-dimensional real space with inner product
    <u, v> = sum_i w_i u_i v_i.

    weights are the diagonal of the Gram matrix and must all be positive;
    root holds their square roots, the scaling to orthonormal
    coordinates.  grid, if present, holds the quadrature nodes the
    coordinates sample a function on; mode_shape, if present, says the
    coordinates are a (nx, ny) table of mode amplitudes flattened in
    row-major order.
    """

    dim: int
    weights: np.ndarray = field(repr=False)
    grid: np.ndarray = field(default=None, repr=False)
    mode_shape: tuple = None
    root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise ConfigurationError(
                f"weights of shape {w.shape} do not match space dim {self.dim}")
        if not np.all(w > 0):
            raise ConfigurationError("space weights must all be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "root", np.sqrt(w))

    def inner(self, u, v):
        return float(np.asarray(u) @ (self.weights * np.asarray(v)))

    def norm(self, u):
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


def euclidean_space(dim):
    return InnerProductSpace(dim=dim, weights=np.ones(dim))


def grid_space(a, b, nodes, quadrature="trapezoid"):
    """Functions on [a, b] sampled at `nodes` uniform points; the
    quadrature weights are the space weights.  Trapezoid by default,
    composite Simpson on request (odd node count required)."""
    if nodes < 2:
        raise ConfigurationError("a grid space needs at least 2 nodes")
    grid = np.linspace(a, b, nodes)
    h = (b - a) / (nodes - 1)
    if quadrature == "trapezoid":
        weights = np.full(nodes, h)
        weights[0] = weights[-1] = h / 2
    elif quadrature == "simpson":
        if nodes % 2 == 0 or nodes < 3:
            raise ConfigurationError(
                f"simpson quadrature needs an odd node count >= 3, got {nodes}")
        weights = np.full(nodes, 2 * h / 3.0)
        weights[1::2] = 4 * h / 3.0
        weights[0] = weights[-1] = h / 3.0
    else:
        raise ConfigurationError(
            f"unknown quadrature {quadrature!r}; use trapezoid or simpson")
    return InnerProductSpace(dim=nodes, weights=weights, grid=grid)


def mode_space(nx, ny):
    """Amplitudes of an (nx, ny) table of modes, Euclidean inner product."""
    return InnerProductSpace(dim=nx * ny, weights=np.ones(nx * ny),
                             mode_shape=(nx, ny))


@dataclass(frozen=True)
class FiniteOperator:
    """A linear map between two inner-product spaces, stored densely."""

    matrix: np.ndarray = field(repr=False)
    domain: InnerProductSpace
    codomain: InnerProductSpace

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ConfigurationError(
                f"operator matrix shape {m.shape} does not match "
                f"codomain dim {self.codomain.dim} x domain dim {self.domain.dim}")
        object.__setattr__(self, "matrix", m)

    def apply_adjoint(self, cols):
        """The adjoint map codomain -> domain on a column block,
        <A u, v>_cod = <u, A* v>_dom: A* v = W_dom^-1 A^T (W_cod v)."""
        return self.matrix.T @ (self.codomain.weights[:, None] * cols) / self.domain.weights[:, None]

    def skeleton(self, rank_tol=DEFAULT_RANK_TOL):
        """The SVD of this map between orthonormal coordinates of its spaces;
        singular values <= rank_tol * largest count as zero."""
        U, s, Vt = np.linalg.svd(self.codomain.root[:, None] * self.matrix / self.domain.root)
        rank = int(np.sum(s > rank_tol * s[0])) if s.size else 0
        return Skeleton(U, s, Vt, rank, self.domain, self.codomain)


@dataclass(frozen=True, repr=False)
class Skeleton:
    """B_w = U diag(s) Vt, the weighted SVD of an operator B, with its
    numerical rank.  (B*)_w = B_w^T, so the skeleton of the adjoint needs
    no second factorization."""

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray
    rank: int
    domain: InnerProductSpace
    codomain: InnerProductSpace

    def adjoint(self):
        return Skeleton(self.Vt.T, self.s, self.U.T, self.rank, self.codomain, self.domain)

    def kernel(self):
        """Domain-orthonormal null basis by ascending singular value, signs fixed."""
        return _fix_column_signs(self.Vt[self.rank:][::-1].T / self.domain.root[:, None])

    def solve(self, rhs_cols):
        """Minimum-norm least-squares solutions of B x = y for the columns y
        of rhs_cols, and the residual norms, |U[:, rank:]^T y_w| as U is square."""
        r, yw = self.rank, self.codomain.root[:, None] * rhs_cols
        coef = self.U[:, :r].T @ yw
        res = np.linalg.norm(self.U[:, r:].T @ yw, axis=0)
        return self.Vt[:r].T @ (coef / self.s[:r, None]) / self.domain.root[:, None], res


def _fix_column_signs(cols):
    """Flip each column so its first non-negligible coordinate is positive."""
    cols = np.array(cols, dtype=float)
    for j in range(cols.shape[1]):
        col = cols[:, j]
        big = np.abs(col).max()
        if big == 0:
            continue
        nz = np.nonzero(np.abs(col) > 1e-12 * big)[0]
        if nz.size and col[nz[0]] < 0:
            cols[:, j] = -col
    return cols


def identity_operator(space, scale=1.0):
    return FiniteOperator(scale * np.eye(space.dim), space, space)


def matrix_operator(rows, domain=None, codomain=None):
    m = np.asarray(rows, dtype=float)
    if m.ndim != 2:
        raise ConfigurationError("operator rows must form a 2-d matrix")
    dom = domain if domain is not None else euclidean_space(m.shape[1])
    cod = codomain if codomain is not None else (dom if m.shape[0] == m.shape[1] else euclidean_space(m.shape[0]))
    return FiniteOperator(m, dom, cod)


def make_kernel_operator(space, kind, kernel, exact_on=None):
    """Integral operator on a grid space from a kernel expression in (x, s).

    kind "kernel_only" gives (K u)(x_i) = sum_j w_j k(x_i, s_j) u_j with the
    trapezoid weights w; "identity_minus_kernel" gives I - K.

    exact_on: an expression v(x) that the kernel part should reproduce
    exactly (K v = v for identity_minus_kernel, so that (I - K) v = 0).
    The quadrature only reproduces it approximately, so the kernel is
    rescaled by the factor that makes the reproduction exact.  The sampled
    K v must already be proportional to v to within KERNEL_PARALLEL_TOL,
    else the request is refused.
    """
    if space.grid is None:
        raise ConfigurationError("kernel operators need a grid space")
    if kind not in ("identity_minus_kernel", "kernel_only"):
        raise ConfigurationError(f"unknown kernel operator kind {kind!r}")
    ast = parse(kernel) if isinstance(kernel, str) else kernel
    g = space.grid
    X, S = np.meshgrid(g, g, indexing="ij")
    K = np.broadcast_to(np.asarray(evaluate(ast, x=X, s=S), dtype=float),
                        (space.dim, space.dim)).copy()
    K = K * space.weights[None, :]
    if exact_on is not None:
        v = np.asarray(evaluate(parse(exact_on) if isinstance(exact_on, str) else exact_on,
                                x=g))
        v = np.broadcast_to(v, g.shape).astype(float)
        w = K @ v
        vnorm = np.linalg.norm(v)
        wnorm = np.linalg.norm(w)
        if vnorm == 0 or wnorm == 0:
            raise ConfigurationError("exact_on expression or its image is zero")
        resid = np.linalg.norm(w - (np.dot(v, w) / np.dot(v, v)) * v) / wnorm
        if resid > KERNEL_PARALLEL_TOL:
            raise ConfigurationError(
                f"kernel image of exact_on expression is not proportional to it "
                f"(relative deviation {resid:.2e})")
        K = K * (np.dot(v, w) / np.dot(w, w))
    if kind == "identity_minus_kernel":
        m = np.eye(space.dim) - K
    else:
        m = K
    return FiniteOperator(m, space, space)
