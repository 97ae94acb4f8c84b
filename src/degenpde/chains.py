"""Generalized Jordan structure for a degenerate operator pair (B, A1).

Builds chains phi_i^(j) with B phi^(1) = 0, B phi^(j) = A1 phi^(j-1),
the dual chains psi for the adjoint pair, the biorthogonal systems
gamma_i^(j) = A1* psi_i^(p_i+1-j) and z_i^(j) = A1 phi_i^(p_i+1-j),
extra kernel directions when the kernel and cokernel dimensions differ,
the root projectors, a bounded pseudoinverse and A1's commutability
certificate in one JordanStructure, complete when complete_structure
returns it; the Schmidt regularizer is applied on demand, and
commutability_matrix certifies any other operator on the chain span.
One skeleton decomposition of B, its weighted SVD, supplies the null
bases of B and B* and one minimum-norm solve S = B^+: S extends the
primal chains, its adjoint (B*)^+ = (B^+)* the dual chains, and Bplus =
(I - P) S (I - Q).  For B kept as a diagonal plus low-rank factors the
skeleton has 1x1 blocks and one SVD of size at most twice the rank of
the factors, every product with B or A1 goes through
FiniteOperator.apply, and S and Bplus are themselves diagonal plus
low-rank maps while narrow (spaces.FACTORED_WIDTH_SHARE): no step forms
a dim x dim array.
Each chain set is one column block, so every pairing between the sets
is a matrix product, and every projector stays a pair of such blocks
(Pk = Phi Gam^T W1, Qk = Z Psi^T W2), never a dim x dim matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StructureError
from .spaces import (DEFAULT_RANK_TOL, FiniteOperator, _fix_column_signs, compose,
                     structured_operator)

LINK_TOL = 1e-8
SUPPORT_TOL = 1e-8   # chain-preserving form of the normalizing transformation
CERTIFY_TOL = 1e-8   # commutability certificates and the quasitriangular pattern


def _chain_columns(p):
    """Chain index, 1-based level and chain length of each column of a
    block whose columns run chain by chain, levels ascending."""
    P = np.asarray(p, dtype=int)
    chain = np.repeat(np.arange(P.size), P)
    level = np.arange(chain.size) - (np.cumsum(P) - P)[chain] + 1
    return chain, level, P[chain]


def _exchange_columns(p):
    """Column of chain i, level p_i + 1 - j for each column (i, j): the
    level reversal within each chain that pairs A1 phi with psi."""
    _, level, P = _chain_columns(p)
    return np.arange(P.size) + P + 1 - 2 * level


@dataclass
class CommutabilityResult:
    """commutability_matrix's M, its certificate and its first entry off
    the exchange pattern (exchange_violation; None when M keeps it)."""

    matrix: np.ndarray
    certified: bool
    violation: tuple
    residual_primal: float
    residual_dual: float

    @property
    def quasitriangular(self):
        return self.violation is None


@dataclass
class JordanStructure:
    """The complete generalized Jordan set of a pair (B, A1), its root
    projectors and its bounded pseudoinverse.

    Phi, Psi, Gam and Z are (dim x k) column blocks of the primal chains,
    the dual chains, gamma and z.  Chains are sorted by descending length;
    chain i, level j is column off_i + j - 1 with off_i = p_1 + ... +
    p_(i-1).  Unpaired kernel directions (kernel/cokernel dimension
    mismatch) are kept apart in phi_extra / psi_extra with their
    least-squares biorthogonal partners gamma_extra / z_extra; a side with
    no extras has (dim, 0) blocks.  The total root projectors are chain
    blocks: P = phi_span phi_coef^T with phi_span = [Phi, phi_extra],
    phi_coef = W1 [Gam, gamma_extra]; Q = z_span z_coef^T with z_span =
    [Z, z_extra], z_coef = W2 [Psi, psi_extra].  The first k columns give
    Pk and Qk; outside_phi = I - P and outside_z = I - Q are the maps
    diag(1) - span coef^T.  S is the skeleton's minimum-norm solve
    B^+ and Bplus = (I - P) S (I - Q) the bounded pseudoinverse, both
    FiniteOperators codomain -> domain under spaces' width rule, and comm
    is A1's commutability certificate on the chain span.  The spans, the
    outside maps, Bplus, comm and the measured diagnostics are set when
    the record is built.
    """

    Phi: np.ndarray
    Psi: np.ndarray
    Gam: np.ndarray
    Z: np.ndarray
    p: tuple
    n: int
    m: int
    l: int
    nu: int
    k: int
    B: FiniteOperator
    A1: FiniteOperator
    S: FiniteOperator
    phi_extra: np.ndarray
    psi_extra: np.ndarray
    gamma_extra: np.ndarray
    z_extra: np.ndarray
    diagnostics: dict
    phi_span: np.ndarray = field(init=False)
    phi_coef: np.ndarray = field(init=False)
    z_span: np.ndarray = field(init=False)
    z_coef: np.ndarray = field(init=False)
    outside_phi: FiniteOperator = field(init=False)
    outside_z: FiniteOperator = field(init=False)
    Bplus: FiniteOperator = field(init=False)
    comm: CommutabilityResult = field(init=False)

    def __post_init__(self):
        self.phi_span = np.hstack([self.Phi, self.phi_extra])
        self.phi_coef = self.domain.weights[:, None] * np.hstack([self.Gam, self.gamma_extra])
        self.z_span = np.hstack([self.Z, self.z_extra])
        self.z_coef = self.codomain.weights[:, None] * np.hstack([self.Psi, self.psi_extra])
        self.diagnostics.update(structure_residuals(self))
        (self.outside_phi, self.outside_z, self.Bplus,
         self.diagnostics["pseudoinverse_identity"]) = _pseudo_inverse(self)
        if self.square:
            self.diagnostics["schmidt_condition"] = _schmidt_condition(self)
        self.comm = commutability_matrix(self.A1, self)

    @property
    def domain(self):
        return self.B.domain

    @property
    def codomain(self):
        return self.B.codomain

    @property
    def square(self):
        """No unpaired directions on a square map: the Schmidt bordering applies."""
        return self.nu == 0 and self.domain.dim == self.codomain.dim

    @property
    def head_columns(self):
        """Columns of the level-1 vectors, one per chain."""
        return np.flatnonzero(_chain_columns(self.p)[1] == 1)

    @property
    def exchange(self):
        """Column (i, p_i + 1 - j) for each column (i, j), the partner that
        A1 pairs it with after the normalization (exchange_violation)."""
        return _exchange_columns(self.p)


def _staircase(solve, apply_A1, heads, dual_heads, space, stop_at, rank_tol):
    """Grow chains from kernel heads under apply_A1 (A1, or A1* for the dual
    chains), terminating the combinations whose next link would leave the
    range of B (or B*), whose minimum-norm solve is solve; dual_heads is
    an orthonormal basis, in space, of that range's complement.

    At each level the pairing M of the candidate links with that basis is
    decomposed: row-space combinations terminate at the current length,
    null-space combinations extend.  Mixing whole chains is valid because
    every active chain has the same current length, so the active chains,
    their images and M's columns are mixed by one product each; M's
    mixed columns are the continuing links' residuals off the range.
    Once stop_at chains have terminated, the heads of the still-active
    chains are the unpaired extra kernel directions.

    Returns (Phi, p, extra_heads): the terminated chains as a column block
    sorted by descending length, their lengths, and a (dim, e) block.
    """
    d1 = heads.shape[0]
    w2, r2 = space.weights, space.root[:, None]
    active = heads[None]
    terminated = []   # (length, dim, count) blocks, ascending length
    done = 0
    while active.shape[2] and done < stop_at:
        level, _, n_active = active.shape
        if level > d1:
            raise StructureError(
                "incomplete Jordan set: unbounded chain growth "
                f"(still {n_active} active chains past length {d1})")
        imgs = apply_A1(active[-1])
        M = dual_heads.T @ (w2[:, None] * imgs)
        # rank against the image magnitudes, not against M's own largest
        # singular value: when every chain extends, M is pure roundoff and
        # a relative test would hallucinate terminations
        img_scale = float(np.linalg.norm(r2 * imgs, axis=0).max())
        if M.size == 0 or img_scale == 0.0 or np.abs(M).max() <= rank_tol * img_scale:
            rank, V = 0, np.eye(n_active)
        else:
            _, s, vt = np.linalg.svd(M)
            rank = int(np.sum(s > rank_tol * img_scale))
            V = _fix_column_signs(vt.T)
        mixed = active @ V
        if rank:
            terminated.append(mixed[:, :, :rank])
            done += rank
        active = mixed[:, :, rank:]
        if active.shape[2]:
            new_imgs = imgs @ V[:, rank:]
            res = np.linalg.norm((M @ V)[:, rank:], axis=0)
            img_scale = np.maximum(np.linalg.norm(r2 * new_imgs, axis=0), 1.0)
            worst = np.max(res / img_scale)
            if worst > LINK_TOL:
                raise StructureError(
                    f"incomplete Jordan set: chain extension residual {worst:.2e} "
                    f"exceeds {LINK_TOL:.1e} at length {level}")
            active = np.concatenate([active, solve(new_imgs)[None]])
    blocks = terminated[::-1]
    p = tuple(b.shape[0] for b in blocks for _ in range(b.shape[2]))
    Phi = np.hstack([np.zeros((d1, 0))] + [b.transpose(1, 2, 0).reshape(d1, -1)
                                          for b in blocks])
    return Phi, p, active[0]


def _terminal_pairing_certificate(T):
    """The completeness certificate: the pairing T[i, s] = <A1 phi_i^(p_i),
    psi_s^(1)> of chain terminals with dual heads must be non-singular
    (|det| >= 1e-8 after row scaling)."""
    scales = np.abs(T).max(axis=1)
    if np.any(scales == 0):
        bad = int(np.argmin(scales)) + 1
        raise StructureError(
            f"incomplete Jordan set: chain {bad} terminal pairs to zero "
            "with every dual kernel direction")
    det = abs(np.linalg.det(T / scales[:, None]))
    if det < 1e-8:
        raise StructureError(
            f"incomplete Jordan set: terminal pairing determinant {det:.2e} < 1e-8")
    return det


def _normalize_primal_chains(Phi, W, p):
    """One-sided renormalization: replace the primal chains by combinations
    Phi G^T so that <A1 phi_i^(j), psi_s^(r)> = delta_is delta_{j+r,p_i+1},
    given the pairing W[b, a] = <A1 Phi_b, Psi_a>.

    G solves G W = E on the flat chain index.  A valid G must be a
    chain-preserving transformation: block (i,s) constant along j - t = d
    (a shifted whole-chain addition) with the shift tail-aligned,
    max(0, p_i - p_s) <= d <= p_i - 1.  G is projected onto that form
    (which makes the new chain links exact) and the projection error is
    the completeness check.
    """
    chain, level, P = _chain_columns(p)
    k = chain.size
    E = np.eye(k)[_exchange_columns(p)]
    try:
        G = np.linalg.solve(W.T, E.T).T
    except np.linalg.LinAlgError:
        raise StructureError(
            "incomplete Jordan set: chain pairing matrix is singular") from None
    condW = float(np.linalg.cond(W))
    d = level[:, None] - level[None, :]
    support = d >= np.maximum(0, P[:, None] - P[None, :])
    # one group per (chain i, chain s, shift d); Ghat is G's group mean
    key = ((chain[:, None] * len(p) + chain[None, :]) * k + d)[support]
    Ghat = np.zeros_like(G)
    Ghat[support] = (np.bincount(key, weights=G[support])[key]
                     / np.bincount(key)[key])
    dev = float(np.abs(G - Ghat).max())
    if dev > SUPPORT_TOL * max(1.0, float(np.abs(G).max())):
        raise StructureError(
            "incomplete Jordan set: biorthogonal normalization is not a "
            f"chain-preserving transformation (deviation {dev:.2e})")
    return Phi @ Ghat.T, {"pairing_condition": condW,
                          "normalization_deviation": dev}


def _refuse_coupled_extras(X, K):
    """Reject structures whose extra directions (columns of X) couple to
    the chains; the chain pairings of the extras are X^T K, one column per
    chain level.  The staircase keeps each extra's own chain unpaired with
    the dual heads at every level up to the longest chain, so through the
    chain links every pairing telescopes to zero; what is left above
    LINK_TOL, relative to the size of K, means the links do not hold."""
    worst = (float(np.abs(X.T @ K).max(initial=0.0))
             / max(1.0, float(np.abs(K).max(initial=0.0))))
    if worst > LINK_TOL:
        raise StructureError(
            "unsupported structure: an unpaired kernel direction couples "
            f"to the chains (residual {worst:.2e}); no kernel-vector "
            "correction can remove it")


def _biorthogonal_partners(chain_cols, extra_cols, space):
    """Minimum-norm functional vectors y_e with <extra_d, y_e> = delta_de
    and <chain_j, y_e> = 0 in the space's inner product."""
    primary_cols = np.column_stack([chain_cols, extra_cols])
    rhs_cols = np.eye(primary_cols.shape[1])[:, chain_cols.shape[1]:]
    M = (space.root[:, None] * primary_cols).T  # rows <primary_j, .>, orthonormal coords
    yw, *_ = np.linalg.lstsq(M, rhs_cols, rcond=None)
    res = float(np.linalg.norm(M @ yw - rhs_cols))
    if res > 1e-8:
        raise StructureError(
            f"extra-direction biorthogonalization failed (residual {res:.2e})")
    return yw / space.root[:, None]


def complete_structure(B, A1, rank_tol=DEFAULT_RANK_TOL):
    """Construct the complete, certified Jordan structure of the pair (B, A1).

    Raises StructureError when the pair has no complete structure (a null
    direction shared by B and A1, singular terminal pairing, unbounded
    growth, mismatched primal and dual chain lengths, or unpaired
    directions coupling into chains).
    """
    if B.domain is not A1.domain and B.domain.dim != A1.domain.dim:
        raise StructureError("B and A1 must share their domain")
    if B.codomain.dim != A1.codomain.dim:
        raise StructureError("B and A1 must share their codomain")
    E1, E2 = B.domain, B.codomain
    sk = B.skeleton(rank_tol)
    heads, dual_heads, S = sk.kernel(), sk.adjoint().kernel(), sk.pseudo_inverse()
    n, m = heads.shape[1], dual_heads.shape[1]
    l, nu = min(n, m), n - m
    diagnostics = {}
    if l:
        # every head on the smaller side must terminate: a combination that
        # A1 (A1* for dual heads) also annihilates pairs with no head of the
        # other side at any length; the square case takes the primal test
        shared = (E2.root[:, None] * A1.apply(heads) if n <= m
                  else E1.root[:, None] * A1.apply_adjoint(dual_heads))
        sv = np.linalg.svd(shared, compute_uv=False)
        # against A1's size too: with one head, sv[0] is itself roundoff
        if sv[-1] <= rank_tol * max(sv[0], A1.weighted_entry_bound()):
            raise StructureError("incomplete Jordan set: B and A1 share a null direction")

    Phi, p, phi_left = _staircase(S.apply, A1.apply, heads, dual_heads, E2, l, rank_tol)
    Psi, p_dual, psi_left = _staircase(S.apply_adjoint, A1.apply_adjoint, dual_heads, heads,
                                       E1, l, rank_tol)
    if p != p_dual:
        raise StructureError(
            f"primal chain lengths {p} and dual chain lengths {p_dual} disagree")
    _, level, P = _chain_columns(p)
    first, last = np.flatnonzero(level == 1), np.flatnonzero(level == P)
    rev = _exchange_columns(p)
    wPsi = E2.weights[:, None] * Psi

    if l:
        W = A1.apply(Phi).T @ wPsi
        diagnostics["terminal_pairing_det"] = _terminal_pairing_certificate(
            W[np.ix_(last, first)])
        Phi, norm_diag = _normalize_primal_chains(Phi, W, p)
        diagnostics.update(norm_diag)

    APhi = A1.apply(Phi)
    gamma_left, z_left = np.zeros((E1.dim, 0)), np.zeros((E2.dim, 0))
    if phi_left.shape[1]:
        _refuse_coupled_extras(phi_left, E1.weights[:, None] * A1.apply_adjoint(Psi))
        gamma_left = _biorthogonal_partners(Phi, phi_left, E1)
    if psi_left.shape[1]:
        _refuse_coupled_extras(psi_left, E2.weights[:, None] * APhi)
        z_left = _biorthogonal_partners(Psi, psi_left, E2)
    return JordanStructure(Phi=Phi, Psi=Psi, Gam=A1.apply_adjoint(Psi[:, rev]),
                           Z=APhi[:, rev], p=p, n=n, m=m, l=l, nu=nu, k=P.size,
                           B=B, A1=A1, S=S, phi_extra=phi_left,
                           psi_extra=psi_left, gamma_extra=gamma_left,
                           z_extra=z_left, diagnostics=diagnostics)


def _link_residual(BX, AX, X, first, r_dom, r_cod):
    """Largest relative link residual of the chain block X from BX = B X and
    AX = A X[:, :-1]: |B x| / max(1, |x|) at the heads,
    |B x_j - A x_(j-1)| / max(1, |A x_(j-1)|) above them."""
    rhs = np.zeros(BX.shape)
    rhs[:, 1:] = AX
    rhs[:, first] = 0.0
    res = np.linalg.norm(r_cod[:, None] * (BX - rhs), axis=0)
    den = np.linalg.norm(r_cod[:, None] * rhs, axis=0)
    den[first] = np.linalg.norm(r_dom[:, None] * X[:, first], axis=0)
    return float((res / np.maximum(1.0, den)).max(initial=0.0))


def structure_residuals(js):
    """Measured chain-link and biorthogonality residuals (diagnostics)."""
    E1, E2 = js.domain, js.codomain
    B, A1, Phi, Psi, first = js.B, js.A1, js.Phi, js.Psi, js.head_columns
    link = max(_link_residual(B.apply(Phi), A1.apply(Phi[:, :-1]), Phi, first,
                              E1.root, E2.root),
               _link_residual(B.apply_adjoint(Psi), A1.apply_adjoint(Psi[:, :-1]), Psi,
                              first, E2.root, E1.root))
    eye = np.eye(js.k)
    bio = max(np.abs(Phi.T @ js.phi_coef[:, :js.k] - eye).max(initial=0.0),
              np.abs(js.Z.T @ js.z_coef[:, :js.k] - eye).max(initial=0.0))
    return {"chain_link_residual": link, "biorthogonality_error": float(bio)}


def _bordered(js):
    """B bordered by the rank-one terms z_i^(1) <., gamma_i^(1)>, i = 1..l,
    between Euclidean spaces; B's factors, if any, plus l columns."""
    first = js.head_columns
    return js.B.bordered(js.Z[:, first], js.domain.weights[:, None] * js.Gam[:, first])


def _schmidt_condition(js):
    """The condition number of the Schmidt bordered matrix, read from its
    singular values alone; refused above 1e12.  Square structures."""
    s = _bordered(js).singular_values()
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if cond > 1e12:
        raise StructureError(
            f"Schmidt bordering failed: bordered matrix condition {cond:.2e}")
    return cond


def apply_schmidt_inverse(js, cols):
    """The Schmidt regularizer Gamma, the inverse of the bordered B, on a
    column block (or one vector), the codomain dimension first.  Gamma =
    Bplus + Phi K^-1 Psi^T W2, as the bordered Bhat acts as B on the range
    of Bplus and maps the chain span onto the z-span through K = Psi^T W2
    Bhat Phi.  Square structures only."""
    if not js.square:
        raise ConfigurationError(
            "the Schmidt inverse needs a square structure: got "
            f"nu={js.nu} on a {js.codomain.dim}x{js.domain.dim} map")
    K = js.z_coef.T @ _bordered(js).apply(js.Phi)
    return js.Bplus.apply(cols) + js.Phi @ np.linalg.solve(K, js.z_coef.T @ cols)


def _pseudo_inverse(js):
    """Bounded pseudoinverse Bplus = (I - P) S (I - Q), S = js.S the
    skeleton's minimum-norm solve: it inverts B between the complement of
    the root (plus extra) subspace and the complement of the z-span, zero
    elsewhere.
    Satisfies B Bplus = I - Q, Bplus Q = 0, P Bplus = 0.  The residual of
    B S (I - Q) = I - Q, the part of R2 (I - Q) along B's cokernel, must
    vanish relative to the size of R2 (I - Q); it is Y^T W2 (I - Q) for
    the codomain-orthonormal cokernel basis Y = [dual heads, psi_extra],
    which the dual staircase mixes orthogonally out of B*'s null basis.
    The dual chain links confine the root-space part of S (I - Q) to ker B
    (level-1 and extra directions), so I - P removes it.  Kept as factors
    while compose keeps them; returned after I - P and I - Q, the maps
    diag(1) - span coef^T it is composed from, and before the entry_bound
    of B Bplus - (I - Q), the pseudoinverse_identity diagnostic."""
    IQ = structured_operator(js.codomain, np.ones(js.codomain.dim), -js.z_span, js.z_coef)
    IP = structured_operator(js.domain, np.ones(js.domain.dim), -js.phi_span, js.phi_coef)
    w = js.codomain.weights
    Y = np.hstack([js.Psi[:, js.head_columns], js.psi_extra])
    res = np.linalg.norm(IQ.transpose().apply(w[:, None] * Y))
    # sum_i w_i |row i of I - Z C^T|^2, Z = z_span, C = z_coef
    Z, C = js.z_span, js.z_coef
    size = np.sqrt(max(0.0, w.sum() - 2.0 * (w @ (Z * C)).sum()
                       + (w @ ((Z @ (C.T @ C)) * Z)).sum()))
    rel = float(res / max(1.0, size))
    if rel > 1e-8:
        raise StructureError("pseudoinverse construction failed: range-complement "
                             f"solve residual {rel:.2e}")
    Bplus = compose(IP, compose(js.S, IQ))
    gap = compose(js.B, Bplus).updated(js.z_span, js.z_coef, shift=-1.0)
    return IP, IQ, Bplus, gap.entry_bound()


def exchange_violation(M, p):
    """First (b, a), by psi column a, where M[b, a] = <A phi_b, psi_a> leaves
    the C-system's exchange pattern: 1 (within 1e-6) at b = exchange[a],
    0 (within CERTIFY_TOL) elsewhere.  None when M keeps it."""
    pattern = np.eye(len(M))[_exchange_columns(p)]
    bad = np.argwhere((np.abs(M - pattern) > np.where(pattern, 1e-6, CERTIFY_TOL)).T)
    return (int(bad[0][1]), int(bad[0][0])) if bad.size else None


def commutability_matrix(A, js):
    """Coefficient matrix of A on the chain span: A phi_b = sum_a M[b,a] z_a
    with the dual identity A* psi_a = sum_b M[b,a] gamma_b.  Certified when
    both hold; quasitriangular when M keeps the exchange pattern that
    reduce solves the C-system on (exchange_violation)."""
    E1, E2 = js.domain, js.codomain
    Phi, Psi, Gam, Z = js.Phi, js.Psi, js.Gam, js.Z
    APhi = A.apply(Phi)
    r1, r2 = E1.root[:, None], E2.root[:, None]
    M = APhi.T @ js.z_coef[:, :js.k]
    prim_dev = np.linalg.norm(r2 * (APhi - Z @ M.T))
    prim_scale = max(1.0, np.linalg.norm(r2 * APhi))
    AstarPsi = A.apply_adjoint(Psi)
    dual_dev = np.linalg.norm(r1 * (AstarPsi - Gam @ M))
    dual_scale = max(1.0, np.linalg.norm(r1 * AstarPsi))
    res_p = float(prim_dev / prim_scale)
    res_d = float(dual_dev / dual_scale)
    certified = res_p <= CERTIFY_TOL and res_d <= CERTIFY_TOL
    return CommutabilityResult(M, certified, exchange_violation(M, js.p), res_p, res_d)


def structure_report(js):
    """Stable one-record-per-line text report of the structure."""
    lines = [
        f"n={js.n}",
        f"m={js.m}",
        f"nu={js.nu}",
        f"l={js.l}",
        f"p={','.join(str(v) for v in js.p) if js.p else '-'}",
        f"k={js.k}",
    ]
    diag = js.diagnostics
    for key in ("terminal_pairing_det", "pairing_condition",
                "normalization_deviation", "chain_link_residual",
                "biorthogonality_error", "schmidt_condition"):
        if key in diag:
            lines.append(f"{key}={diag[key]:.6e}")
    lines.append(f"extra_kernel_directions={js.phi_extra.shape[1]}")
    lines.append(f"extra_cokernel_directions={js.psi_extra.shape[1]}")
    # P P - P of P = cols coef^T is the rank-k map cols (coef^T cols - I) coef^T,
    # sized by its entry_bound
    for name, cols, coef, space in (("Pk", js.Phi, js.phi_coef, js.domain),
                                    ("Qk", js.Z, js.z_coef, js.codomain)):
        coef = coef[:, :js.k]
        idem = structured_operator(space, np.zeros(space.dim),
                                   cols @ (coef.T @ cols - np.eye(js.k)), coef).entry_bound()
        lines.append(f"{name}_idempotence={idem:.6e}")
    lines.append(f"pseudoinverse_identity={diag['pseudoinverse_identity']:.6e}")
    lines.append(f"A1_certified={'pass' if js.comm.certified else 'fail'}")
    lines.append(f"A1_quasitriangular={'yes' if js.comm.quasitriangular else 'no'}")
    lines.append(f"A1_residual_primal={js.comm.residual_primal:.6e}")
    lines.append(f"A1_residual_dual={js.comm.residual_dual:.6e}")
    return "\n".join(lines) + "\n"
