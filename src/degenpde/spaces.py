"""Finite inner-product spaces and the operators between them.

Structure analysis happens on finite spaces: either a plain Euclidean
coordinate space, a quadrature discretization of functions on an
interval (trapezoid or Simpson weights), or a space of Fourier mode
coefficients.  Every one of them has a diagonal Gram matrix, so a space
stores only its weights, the diagonal of the Gram matrix, and every
metric operation is a row or column scaling.  Operators carry their
domain and codomain so their adjoints are taken with respect to the
right inner products.

A square operator built as a diagonal plus a low-rank part, diag(D) +
U V^T (the identity, a mode diagonal, I - K or K for a degenerate kernel
K = sum a_i(x) b_i(s)), keeps those factors.  Its skeleton, the SVD
between orthonormal coordinates, then comes from 1x1 blocks and one SVD
of size at most 2k: Fredholm's degenerate-kernel reduction.  The
skeleton's minimum-norm solve (pseudo_inverse) and the products of such
maps (compose, which recompresses the factors to their rank) keep the
same form while they stay narrow: one rule, FACTORED_WIDTH_SHARE, turns
a result dense once it is rectangular or its factors are wider than that
share of dim.  Any other operator is dense and takes a full SVD.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .expressions import evaluate, parse, separate

DEFAULT_RANK_TOL = 1e-10
KERNEL_PARALLEL_TOL = 1e-8   # exact_on: K v against its projection onto v
BLOCK = 1 << 16              # entries of a row block formed at once
# a map keeps its factors while their width is at most this share of dim;
# past it the matrix is cheaper to apply and to march, and the march
# (solvers._table_map) folds wider cores into matrices by the same share
# (one BLAS thread, measured crossovers: the march at 0.35-0.6 of dim for
# dim 51-801, apply_to_samples at 0.3 for dim 201)
FACTORED_WIDTH_SHARE = 0.25


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
    """A linear map between two inner-product spaces.

    A square map of the form diag(diag) + U V^T, with U and V of size
    dim x k (k = 0 for a diagonal map), keeps those factors: it is applied,
    adjoined and factored through them, and forms its dense `matrix` only
    on request.  Any other map is stored densely in `dense`, with diag, U
    and V left None."""

    dense: np.ndarray = field(repr=False)
    domain: InnerProductSpace
    codomain: InnerProductSpace
    diag: np.ndarray = field(default=None, repr=False)
    U: np.ndarray = field(default=None, repr=False)
    V: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        n = self.domain.dim
        if self.dense is None:
            d = np.asarray(self.diag, dtype=float)
            U, V = np.asarray(self.U, dtype=float), np.asarray(self.V, dtype=float)
            if (self.codomain.dim != n or d.shape != (n,) or U.ndim != 2
                    or U.shape[0] != n or U.shape != V.shape):
                raise ConfigurationError(
                    f"factors diag {d.shape}, U {U.shape}, V {V.shape} do not form "
                    f"a map of codomain dim {self.codomain.dim} x domain dim {n}")
            for name, val in (("diag", d), ("U", U), ("V", V)):
                object.__setattr__(self, name, val)
            return
        m = np.asarray(self.dense, dtype=float)
        if m.shape != (self.codomain.dim, n):
            raise ConfigurationError(
                f"operator matrix shape {m.shape} does not match "
                f"codomain dim {self.codomain.dim} x domain dim {n}")
        object.__setattr__(self, "dense", m)

    @property
    def matrix(self):
        """The dense matrix; a map kept as factors forms it on each request."""
        if self.dense is not None:
            return self.dense
        m = self.U @ self.V.T
        m[np.diag_indices_from(m)] += self.diag
        return m

    def apply(self, cols):
        """The map on a column block (or one vector), the domain dimension first."""
        if self.dense is not None:
            return self.dense @ cols
        out = self.diag.reshape((-1,) + (1,) * (np.ndim(cols) - 1)) * cols
        if self.U.shape[1]:
            out += self.U @ (self.V.T @ cols)
        return out

    def apply_to_samples(self, samples):
        """The map on every sample of an array whose last axis is the domain
        dimension.  With a low-rank part it makes one pass over blocks of
        samples, diag s + (s V) U^T a block at a time, so that no
        temporary is larger than a block; samples whose layout does not
        flatten to rows are copied to rows first.  The output is C-ordered
        whatever the layout of samples."""
        if self.dense is not None:
            return samples @ self.dense.T
        if not self.U.shape[1]:
            return np.multiply(samples, self.diag, order="C")
        out = np.empty(np.shape(samples))
        rows_out = out.reshape(-1, out.shape[-1])
        rows = np.reshape(samples, rows_out.shape)
        for part in row_blocks(len(rows), rows.shape[1]):
            blk, dst = rows[part], rows_out[part]
            np.multiply(blk, self.diag, out=dst)
            # np.dot, not @: numpy's matmul runs a slow loop for width k = 1
            dst += np.dot(blk @ self.V, self.U.T)
        return out

    def transpose(self):
        """The transposed matrix as a map codomain -> domain; factors swap."""
        if self.dense is not None:
            return FiniteOperator(self.dense.T, self.codomain, self.domain)
        return FiniteOperator(None, self.codomain, self.domain, self.diag, self.V, self.U)

    def apply_adjoint(self, cols):
        """The adjoint map codomain -> domain on a column block,
        <A u, v>_cod = <u, A* v>_dom: A* v = W_dom^-1 A^T (W_cod v)."""
        wv = self.codomain.weights[:, None] * cols
        return self.transpose().apply(wv) / self.domain.weights[:, None]

    def entry_bound(self):
        """An upper bound on max |A| over the entries of the matrix: the
        maximum itself for a dense map, _entry_bound of the factors
        otherwise."""
        if self.dense is not None:
            return float(np.abs(self.dense).max(initial=0.0))
        return _entry_bound(self.diag, self.U, self.V)

    def weighted_entry_bound(self):
        """entry_bound of R_cod A R_dom^-1."""
        r1, r2 = self.domain.root, self.codomain.root
        if self.dense is not None:
            return float(np.abs(r2[:, None] * self.dense / r1).max(initial=0.0))
        return _entry_bound(self.diag * (r2 / r1), r2[:, None] * self.U,
                            self.V / r1[:, None])

    def updated(self, cols, rows, shift=0.0):
        """This map plus shift I plus cols rows^T, on the same spaces;
        factors stay factors under _factored's width rule."""
        if self.dense is None:
            return _factored(self.domain, self.codomain, self.diag + shift,
                             np.hstack([self.U, cols]), np.hstack([self.V, rows]))
        m = self.dense + cols @ rows.T
        if shift:
            m[np.diag_indices_from(m)] += shift
        return replace(self, dense=m)

    def bordered(self, cols, rows):
        """The matrix of this map plus cols rows^T, as a map between
        Euclidean spaces of the same dimensions, under updated's width rule."""
        return replace(self, domain=euclidean_space(self.domain.dim),
                       codomain=euclidean_space(self.codomain.dim)).updated(cols, rows)

    def _pieces(self, compute_uv):
        """The SVD pieces of the map between orthonormal coordinates:
        _factor_pieces of its weighted factors, or one dense piece."""
        r1, r2 = self.domain.root, self.codomain.root
        if self.dense is None:
            return _factor_pieces(self.diag * (r2 / r1), r2[:, None] * self.U,
                                  self.V / r1[:, None], compute_uv)
        return [_Dense(*_svd(r2[:, None] * self.dense / r1, compute_uv))]

    def singular_values(self):
        """Singular values of the map between orthonormal coordinates of its
        spaces, descending, without singular vectors."""
        return np.sort(np.concatenate([p.values for p in self._pieces(False)]))[::-1]

    def skeleton(self, rank_tol=DEFAULT_RANK_TOL):
        """The SVD of this map between orthonormal coordinates of its spaces,
        in pieces; singular values <= rank_tol * largest count as zero."""
        pieces = tuple(self._pieces(True))
        s = np.sort(np.concatenate([p.values for p in pieces]))[::-1]
        cut = rank_tol * s[0] if s.size else 0.0
        return Skeleton(pieces, s, int(np.sum(s > cut)), cut, self.domain, self.codomain)


def _entry_bound(d, U, V):
    """An upper bound on max |diag(d) + U V^T| over the entries, from the
    factors in O(dim k^2): the diagonal entries exactly, and the others by
    the smaller of ||U V^T||_2 = ||Ru Rv^T||_2, from the R factors of the
    QRs of U and V (as in _recompressed), and the sum over the
    columns a of the largest off-diagonal entry of |U_a| |V_a|^T, read
    from the two largest entries of each factor column.  For k <= 1 that
    sum is the largest off-diagonal entry, so the bound is the maximum."""
    best = float(np.abs(d + (U * V).sum(axis=1)).max(initial=0.0))
    k = U.shape[1]
    if not k or d.size < 2:
        return best
    aU, aV = np.abs(U), np.abs(V)
    iu, iv = (np.argpartition(-a, 1, axis=0)[:2] for a in (aU, aV))
    cols = np.arange(k)
    u1, u2, v1, v2 = aU[iu[0], cols], aU[iu[1], cols], aV[iv[0], cols], aV[iv[1], cols]
    off = float(np.where(iu[0] != iv[0], u1 * v1, np.maximum(u1 * v2, u2 * v1)).sum())
    if k > 1:
        Ru, Rv = np.linalg.qr(U, mode="r"), np.linalg.qr(V, mode="r")
        off = min(off, float(np.linalg.norm(Ru @ Rv.T, 2)))
    return max(best, off)


def row_blocks(n, width):
    """Consecutive slices covering rows 0 .. n - 1, of max(1, BLOCK //
    width) rows each: at most BLOCK entries when a row holds width of them,
    and never less than one row."""
    step = max(1, BLOCK // max(1, width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def compose(a, b):
    """The map a b, b applied first.  Two maps kept as factors give
    diag(a.d b.d) + [a.U, a.d b.U + a.U (a.V^T b.U)] [b.d a.V, b.V]^T, its
    low-rank part recompressed (_recompressed) and kept as factors by
    _factored's width rule; otherwise the product is dense, and a factored
    side is applied through its factors."""
    if a.dense is None and b.dense is None:
        U = np.hstack([a.U, a.diag[:, None] * b.U + a.U @ (a.V.T @ b.U)])
        V = np.hstack([b.diag[:, None] * a.V, b.V])
        return _factored(b.domain, a.codomain, a.diag * b.diag, *_recompressed(U, V))
    m = a.apply(b.dense) if b.dense is not None else b.transpose().apply(a.dense.T).T
    return FiniteOperator(m, b.domain, a.codomain)


def _recompressed(U, V):
    """Factors of U V^T as narrow as its numerical rank: QRs of U and V,
    then an SVD of the small core, whose singular values <= DEFAULT_RANK_TOL
    times the largest are dropped."""
    if not U.shape[1]:
        return U, V
    (Qu, Ru), (Qv, Rv) = np.linalg.qr(U), np.linalg.qr(V)
    W, s, Zt = np.linalg.svd(Ru @ Rv.T, full_matrices=False)
    keep = s > DEFAULT_RANK_TOL * s[0]
    return Qu @ (W[:, keep] * s[keep]), Qv @ Zt[keep].T


def _factored(domain, codomain, diag, U, V):
    """diag(diag) + U V^T as a map domain -> codomain: kept as factors when
    the map is square and U is at most FACTORED_WIDTH_SHARE of dim wide,
    dense otherwise (diag is zero on a rectangular map)."""
    if domain.dim == codomain.dim and U.shape[1] <= FACTORED_WIDTH_SHARE * domain.dim:
        return FiniteOperator(None, domain, codomain, diag, U, V)
    m = U @ V.T
    if domain.dim == codomain.dim:
        m[np.diag_indices_from(m)] += diag
    return FiniteOperator(m, domain, codomain)


def _svd(a, compute_uv):
    """(U, s, Vt) of a, or (None, s, None) for the singular values alone."""
    if compute_uv:
        return np.linalg.svd(a)
    return None, np.linalg.svd(a, compute_uv=False), None


def _factor_pieces(d, U, V, compute_uv):
    """B_w = diag(d) + U V^T as pieces on disjoint coordinate sets.

    Each coordinate that U and V leave untouched is a 1x1 block with
    singular value |d_j|.  On the touched ones, where d is a constant c,
    c I + U V^T = Q core Q^T + c (I - Q Q^T) with Q an orthonormal basis
    holding the columns of U and V, so one q x q SVD (q <= 2k) factors it;
    where d varies under U V^T, the whole map takes one dense SVD."""
    touched = np.any(U != 0, axis=1) | np.any(V != 0, axis=1)
    idx, rest = np.flatnonzero(touched), np.flatnonzero(~touched)
    dT, UT, VT = d[idx], U[idx], V[idx]
    if idx.size and np.any(dT != dT[0]):
        m = U @ V.T
        m[np.diag_indices_from(m)] += d
        return [_Dense(*_svd(m, compute_uv))]
    pieces = [_Diagonal(rest, d[rest])]
    if idx.size:
        # unit columns, so that Q holds a small column as well as a large one
        X = np.hstack([UT, VT])
        Q = np.linalg.qr(X / np.maximum(np.linalg.norm(X, axis=0), np.finfo(float).tiny))[0]
        core = (Q.T @ UT) @ (Q.T @ VT).T + dT[0] * np.eye(Q.shape[1])
        pieces.append(_LowRank(idx, Q, *_svd(core, compute_uv), dT[0]))
    return pieces


class _Diagonal:
    """1x1 blocks B_w e_j = d_j e_j on the coordinates idx."""

    def __init__(self, idx, d):
        self.idx, self.d, self.values = idx, d, np.abs(d)

    def adjoint(self):
        return self

    def null_right(self, cut, dim):
        null = np.flatnonzero(self.values <= cut)
        vecs = np.zeros((dim, null.size))
        vecs[self.idx[null], np.arange(null.size)] = 1.0
        return self.values[null], vecs

    def inverse(self, d, cut):
        """Write the 1x1 inverses of the live blocks into d; no low-rank part."""
        live = self.values > cut
        d[self.idx[live]] = 1.0 / self.d[live]
        return np.zeros((d.size, 0)), np.zeros((d.size, 0))


class _LowRank:
    """B_w = Q (Uc diag(sc) Vct) Q^T + c (I - Q Q^T) on the coordinates
    idx, Q orthonormal: the SVD of the q x q core, and singular value |c|
    on the complement of Q's span."""

    def __init__(self, idx, Q, Uc, sc, Vct, c):
        self.idx, self.Q, self.Uc, self.sc, self.Vct, self.c = idx, Q, Uc, sc, Vct, c
        self.values = np.concatenate([sc, np.full(idx.size - sc.size, abs(c))])

    def adjoint(self):
        return _LowRank(self.idx, self.Q, self.Vct.T, self.sc, self.Uc.T, self.c)

    def null_right(self, cut, dim):
        r, q = int(np.sum(self.sc > cut)), self.Q.shape[1]
        vals, cols = self.sc[r:][::-1], self.Q @ self.Vct[r:][::-1].T
        if abs(self.c) <= cut and self.idx.size > q:
            comp = np.linalg.qr(self.Q, mode="complete")[0][:, q:]
            vals = np.concatenate([np.full(comp.shape[1], abs(self.c)), vals])
            cols = np.hstack([comp, cols])
        vecs = np.zeros((dim, cols.shape[1]))
        vecs[self.idx] = cols
        return vals, vecs

    def inverse(self, d, cut):
        """The minimum-norm solve as cinv I + Q core Q^T on idx, cinv = 1/c
        or 0 when c counts as zero: write cinv into d and return the factors
        (Q core, Q) of the rest."""
        r = int(np.sum(self.sc > cut))
        cinv = 1.0 / self.c if abs(self.c) > cut else 0.0
        d[self.idx] = cinv
        core = self.Vct[:r].T @ (self.Uc[:, :r].T / self.sc[:r, None])
        core[np.diag_indices_from(core)] -= cinv
        U, V = np.zeros((d.size, self.Q.shape[1])), np.zeros((d.size, self.Q.shape[1]))
        U[self.idx], V[self.idx] = self.Q @ core, self.Q
        return U, V


class _Dense:
    """The SVD U diag(s) Vt of the whole of B_w."""

    def __init__(self, U, s, Vt):
        self.U, self.values, self.Vt = U, s, Vt

    def adjoint(self):
        return _Dense(self.Vt.T, self.values, self.U.T)

    def null_right(self, cut, dim):
        s = self.values
        r = int(np.sum(s > cut))
        vals = np.zeros(dim)
        vals[:s.size] = s
        return vals[r:][::-1], self.Vt[r:][::-1].T

    def inverse(self, d, cut):
        """The minimum-norm solve as the rank-r factors (Vt_r^T diag(1/s_r),
        U_r); nothing on the diagonal."""
        s = self.values
        r = int(np.sum(s > cut))
        return self.Vt[:r].T / s[:r], self.U[:, :r]


@dataclass(frozen=True, repr=False)
class Skeleton:
    """B_w = R_cod B R_dom^-1 as SVD pieces on disjoint coordinate sets
    (_factor_pieces; one dense piece for a dense map), with every singular
    value in s, descending, and the numerical rank: values <= cut count as
    zero.  (B*)_w = B_w^T, so the skeleton of the adjoint flips each piece
    and needs no second factorization.  Each piece gives its part of the
    null basis (kernel) and of the one minimum-norm solve
    (pseudo_inverse)."""

    pieces: tuple
    s: np.ndarray
    rank: int
    cut: float
    domain: InnerProductSpace
    codomain: InnerProductSpace

    def adjoint(self):
        return Skeleton(tuple(p.adjoint() for p in self.pieces), self.s, self.rank,
                        self.cut, self.codomain, self.domain)

    def kernel(self):
        """Domain-orthonormal null basis by ascending singular value, signs fixed."""
        vals, vecs = zip(*(p.null_right(self.cut, self.domain.dim) for p in self.pieces))
        order = np.argsort(np.concatenate(vals), kind="stable")
        return _fix_column_signs(np.hstack(vecs)[:, order] / self.domain.root[:, None])

    def pseudo_inverse(self):
        """The minimum-norm least-squares solve y -> x of B x = y as a map
        codomain -> domain: diag + U V^T from the pieces' inverses, under
        _factored's width rule.  Its adjoint is the solve of B* x = y."""
        dom, cod = self.domain, self.codomain
        d = np.zeros(dom.dim)
        U, V = (np.hstack(f) for f in zip(*(p.inverse(d, self.cut) for p in self.pieces)))
        r1, r2 = dom.root, cod.root
        # a rectangular map is one dense piece, which leaves d at zero
        diag = d * (r2 / r1) if dom.dim == cod.dim else d
        return _factored(cod, dom, diag, U / r1[:, None], r2[:, None] * V)


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


def structured_operator(space, diag, U=None, V=None):
    """diag(diag) + U V^T on one space, kept as its factors (k = 0, a
    diagonal map, when U and V are omitted)."""
    empty = np.zeros((space.dim, 0))
    return FiniteOperator(None, space, space, diag,
                          empty if U is None else U, empty if V is None else V)


def identity_operator(space, scale=1.0):
    return structured_operator(space, np.full(space.dim, float(scale)))


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

    A degenerate kernel, a sum of at most FACTORED_WIDTH_SHARE * dim
    products a_i(x) b_i(s)
    (expressions.separate), is kept as the factors U = [a_i(x_j)] and
    V = [w_j b_i(s_j)] of K = U V^T, and nothing is sampled dim x dim; any
    other kernel is sampled densely.

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
    g, n = space.grid, space.dim
    terms = separate(ast, ({"x"}, {"s"}), int(FACTORED_WIDTH_SHARE * n))
    if terms is not None:
        U = np.column_stack([np.broadcast_to(evaluate(a, x=g), (n,)) for a, _ in terms])
        V = np.column_stack([space.weights * evaluate(b, s=g) for _, b in terms])
    else:
        X, S = np.meshgrid(g, g, indexing="ij")
        K = np.broadcast_to(np.asarray(evaluate(ast, x=X, s=S), dtype=float), (n, n)).copy()
        K = K * space.weights[None, :]
    scale = 1.0
    if exact_on is not None:
        v = np.asarray(evaluate(parse(exact_on) if isinstance(exact_on, str) else exact_on,
                                x=g))
        v = np.broadcast_to(v, g.shape).astype(float)
        w = U @ (V.T @ v) if terms is not None else K @ v
        vnorm = np.linalg.norm(v)
        wnorm = np.linalg.norm(w)
        if vnorm == 0 or wnorm == 0:
            raise ConfigurationError("exact_on expression or its image is zero")
        resid = np.linalg.norm(w - (np.dot(v, w) / np.dot(v, v)) * v) / wnorm
        if resid > KERNEL_PARALLEL_TOL:
            raise ConfigurationError(
                f"kernel image of exact_on expression is not proportional to it "
                f"(relative deviation {resid:.2e})")
        scale = np.dot(v, w) / np.dot(w, w)
    sign = -1.0 if kind == "identity_minus_kernel" else 1.0
    if terms is not None:
        return structured_operator(space, np.full(n, float(kind == "identity_minus_kernel")),
                                   (sign * scale) * U, V)
    K = K * scale
    return FiniteOperator(np.eye(n) - K if sign < 0 else K, space, space)
