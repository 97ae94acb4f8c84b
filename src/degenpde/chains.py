"""Generalized Jordan structure for a degenerate operator pair (B, A1).

Builds chains phi_i^(j) with B phi^(1) = 0, B phi^(j) = A1 phi^(j-1),
the dual chains psi for the adjoint pair, the biorthogonal systems
gamma_i^(j) = A1* psi_i^(p_i+1-j) and z_i^(j) = A1 phi_i^(p_i+1-j),
the root projectors Pk/Qk, extra kernel directions when the kernel and
cokernel dimensions differ, the Schmidt regularizer, a bounded
pseudoinverse, and commutability matrices with their certificates.
One weighted SVD of B, its skeleton decomposition, supplies the null
bases of B and B*, the chain solves and the pseudoinverse Bplus.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError
from .spaces import DEFAULT_RANK_TOL, FiniteOperator, Skeleton, _fix_column_signs

LINK_TOL = 1e-8


@dataclass
class JordanStructure:
    """Chains and biorthogonal systems for a pair (B, A1).

    phi[i][j] is the level-(j+1) vector of paired primal chain i (chains
    sorted by descending length); psi mirrors it for the adjoint pair.
    Unpaired kernel directions (kernel/cokernel dimension mismatch) are
    kept apart in phi_extra / psi_extra with their least-squares
    biorthogonal partners gamma_extra / z_extra.
    """

    phi: list
    psi: list
    gamma: list
    z: list
    p: tuple
    n: int
    m: int
    l: int
    nu: int
    k: int
    B: FiniteOperator
    A1: FiniteOperator
    skeleton: Skeleton
    phi_extra: np.ndarray = None
    psi_extra: np.ndarray = None
    gamma_extra: np.ndarray = None
    z_extra: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def domain(self):
        return self.B.domain

    @property
    def codomain(self):
        return self.B.codomain

    def pair_indices(self):
        """Flat (chain, level) index list, levels 1-based, block order."""
        return [(i, j) for i in range(self.l) for j in range(1, self.p[i] + 1)]

    def phi_stack(self):
        cols = [self.phi[i][j - 1] for (i, j) in self.pair_indices()]
        return np.column_stack(cols) if cols else np.zeros((self.domain.dim, 0))

    def psi_stack(self):
        cols = [self.psi[i][j - 1] for (i, j) in self.pair_indices()]
        return np.column_stack(cols) if cols else np.zeros((self.codomain.dim, 0))

    def gamma_stack(self):
        cols = [self.gamma[i][j - 1] for (i, j) in self.pair_indices()]
        return np.column_stack(cols) if cols else np.zeros((self.domain.dim, 0))

    def z_stack(self):
        cols = [self.z[i][j - 1] for (i, j) in self.pair_indices()]
        return np.column_stack(cols) if cols else np.zeros((self.codomain.dim, 0))


@dataclass
class ProjectorSet:
    """Root projectors and the regularized inverses built from them.

    Pextra is present exactly when n > m (unpaired kernel directions);
    Qextra exactly when m > n.  Gamma is the Schmidt operator (square
    structures only); Bplus the bounded pseudoinverse.
    """

    Pk: FiniteOperator
    Qk: FiniteOperator
    Pextra: FiniteOperator = None
    Qextra: FiniteOperator = None
    Gamma: FiniteOperator = None
    Bplus: FiniteOperator = None

    def p_total(self):
        m = self.Pk.matrix.copy()
        if self.Pextra is not None:
            m = m + self.Pextra.matrix
        return m

    def q_total(self):
        m = self.Qk.matrix.copy()
        if self.Qextra is not None:
            m = m + self.Qextra.matrix
        return m


@dataclass
class CommutabilityResult:
    matrix: np.ndarray
    certified: bool
    quasitriangular: bool
    residual_primal: float
    residual_dual: float


@dataclass
class CommutabilityData:
    """Commutability matrices for every operator of a system, with the
    primal and dual certificate residuals of each lower-order operator."""

    matA: list
    matB: np.ndarray
    quasitriangular: list
    certified: list
    residual_primal: list
    residual_dual: list


def _staircase(sk, A1op, heads, dual_heads, stop_at, rank_tol):
    """Grow chains from kernel heads, terminating the combinations whose
    next link would leave the range of the operator whose skeleton is sk.

    At each level the pairing of the candidate links with the cokernel
    basis is decomposed: row-space combinations terminate at the current
    length, null-space combinations extend.  Mixing whole chains is valid
    because every active chain has the same current length.  Once stop_at
    chains have terminated, the heads of the still-active chains are the
    unpaired extra kernel directions.

    Returns (terminated_chains, extra_heads) with chains as vector lists.
    """
    d1 = sk.domain.dim
    w2, r2 = sk.codomain.weights, sk.codomain.root[:, None]
    active = [[heads[:, i]] for i in range(heads.shape[1])]
    terminated = []
    level = 1
    while active:
        if len(terminated) == stop_at:
            return terminated, [c[0] for c in active]
        if level > d1:
            raise StructureError(
                "incomplete Jordan set: unbounded chain growth "
                f"(still {len(active)} active chains past length {d1})")
        tails = np.column_stack([c[-1] for c in active])
        imgs = A1op.matrix @ tails
        M = dual_heads.T @ (w2[:, None] * imgs) if dual_heads.shape[1] else np.zeros((0, len(active)))
        # rank against the image magnitudes, not against M's own largest
        # singular value: when every chain extends, M is pure roundoff and
        # a relative test would hallucinate terminations
        img_scale = float(np.linalg.norm(r2 * imgs, axis=0).max()) if imgs.size else 0.0
        if M.size == 0 or img_scale == 0.0 or np.abs(M).max() <= rank_tol * img_scale:
            rank = 0
            V = np.eye(len(active))
        else:
            _, s, vt = np.linalg.svd(M)
            rank = int(np.sum(s > rank_tol * img_scale))
            V = _fix_column_signs(vt.T)
        mixed = []
        for c in range(V.shape[1]):
            combo = V[:, c]
            mixed.append([sum(combo[a] * active[a][lev] for a in range(len(active)))
                          for lev in range(level)])
        terminated.extend(mixed[:rank])
        survivors = mixed[rank:]
        if survivors:
            new_tails = np.column_stack([c[-1] for c in survivors])
            new_imgs = A1op.matrix @ new_tails
            ext, res = sk.solve(new_imgs)
            img_scale = np.maximum(np.linalg.norm(r2 * new_imgs, axis=0), 1.0)
            worst = np.max(res / img_scale)
            if worst > LINK_TOL:
                raise StructureError(
                    f"incomplete Jordan set: chain extension residual {worst:.2e} "
                    f"exceeds {LINK_TOL:.1e} at length {level}")
            for idx, chain in enumerate(survivors):
                chain.append(ext[:, idx])
        active = survivors
        level += 1
    return terminated, []


def _terminal_pairing_certificate(phi_chains, psi_chains, A1op, codomain):
    """The completeness certificate: the pairing of chain terminals with
    dual heads must be non-singular (|det| >= 1e-8 after row scaling)."""
    l = len(phi_chains)
    if l == 0:
        return 1.0
    T = np.zeros((l, l))
    for i in range(l):
        tail_img = A1op.matrix @ phi_chains[i][-1]
        for s in range(l):
            T[i, s] = codomain.inner(tail_img, psi_chains[s][0])
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


def _pair_matrix(phi_chains, psi_chains, p, A1op, codomain):
    """W[(i,j),(s,r)] = <A1 phi_i^(j), psi_s^(r)>, flat block order."""
    idx = [(i, j) for i in range(len(p)) for j in range(1, p[i] + 1)]
    k = len(idx)
    W = np.zeros((k, k))
    imgs = {(i, j): A1op.matrix @ phi_chains[i][j - 1] for (i, j) in idx}
    for bi, (i, j) in enumerate(idx):
        for ai, (s, r) in enumerate(idx):
            W[bi, ai] = codomain.inner(imgs[(i, j)], psi_chains[s][r - 1])
    return W, idx


def _normalize_primal_chains(phi_chains, psi_chains, p, A1op, codomain,
                             support_tol=1e-8):
    """One-sided renormalization: replace the primal chains by combinations
    G phi so that <A1 phi_i^(j), psi_s^(r)> = delta_is delta_{j+r,p_i+1}.

    G solves G W = E on the flat chain index.  A valid G must be a
    chain-preserving transformation: block (i,s) constant along j - t = d
    (a shifted whole-chain addition) with the shift tail-aligned,
    max(0, p_i - p_s) <= d <= p_i - 1.  G is projected onto that form
    (which makes the new chain links exact) and the projection error is
    the completeness check.
    """
    W, idx = _pair_matrix(phi_chains, psi_chains, p, A1op, codomain)
    k = len(idx)
    E = np.zeros((k, k))
    for bi, (i, j) in enumerate(idx):
        for ai, (s, t) in enumerate(idx):
            if i == s and j + t == p[i] + 1:
                E[bi, ai] = 1.0
    try:
        G = np.linalg.solve(W.T, E.T).T
    except np.linalg.LinAlgError:
        raise StructureError(
            "incomplete Jordan set: chain pairing matrix is singular") from None
    condW = float(np.linalg.cond(W))
    pos = {pair: a for a, pair in enumerate(idx)}
    Ghat = np.zeros_like(G)
    scale = max(1.0, float(np.abs(G).max()))
    worst_dev = 0.0
    for i in range(len(p)):
        for s in range(len(p)):
            for d in range(max(0, p[i] - p[s]), p[i]):
                cells = [(pos[(i, j)], pos[(s, j - d)])
                         for j in range(d + 1, p[i] + 1) if 1 <= j - d <= p[s]]
                if not cells:
                    continue
                vals = np.array([G[b, a] for (b, a) in cells])
                g = float(vals.mean())
                worst_dev = max(worst_dev, float(np.abs(vals - g).max()))
                for b, a in cells:
                    Ghat[b, a] = g
    off = float(np.abs(G - Ghat).max())
    if max(off, worst_dev) > support_tol * scale:
        raise StructureError(
            "incomplete Jordan set: biorthogonal normalization is not a "
            f"chain-preserving transformation (deviation {max(off, worst_dev):.2e})")
    new_chains = []
    for i in range(len(p)):
        chain = []
        for j in range(1, p[i] + 1):
            b = pos[(i, j)]
            vec = np.zeros_like(phi_chains[0][0])
            for ai, (s, t) in enumerate(idx):
                if Ghat[b, ai] != 0.0:
                    vec = vec + Ghat[b, ai] * phi_chains[s][t - 1]
            chain.append(vec)
        new_chains.append(chain)
    return new_chains, {"pairing_condition": condW,
                        "normalization_deviation": max(off, worst_dev)}


def _correct_extras(extra_vecs, own_heads, couplings):
    """Remove the terminal-level coupling of each extra kernel direction by
    a kernel-vector correction; reject structures whose extras couple to
    middle chain levels (no kernel correction can reach those).

    couplings(vec) -> matrix c[i][r] of the chain pairings of vec; the
    correction with own_heads[i] shifts exactly c[i][p_i - 1] (the last
    level), level-1 couplings vanish by extendability.
    """
    corrected = []
    for vec in extra_vecs:
        c = couplings(vec)
        v = vec.copy()
        for i, row in enumerate(c):
            if len(row) and abs(row[-1]) > 0:
                v = v - row[-1] * own_heads[i]
        c2 = couplings(v)
        worst = 0.0
        for row in c2:
            for val in row:
                worst = max(worst, abs(val))
        if worst > LINK_TOL:
            raise StructureError(
                "unsupported structure: an unpaired kernel direction couples "
                f"to interior chain levels (residual {worst:.2e}); no "
                "kernel-vector correction can remove it")
        corrected.append(v)
    return corrected


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


def build_jordan_chains(B, A1, rank_tol=DEFAULT_RANK_TOL):
    """Construct the full Jordan structure of the pair (B, A1).

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
    A1star = A1.adjoint()
    sk = B.skeleton(rank_tol)
    heads, dual_heads = sk.kernel(), sk.adjoint().kernel()
    n, m = heads.shape[1], dual_heads.shape[1]
    l, nu = min(n, m), n - m
    diagnostics = {}
    if l:
        # every head on the smaller side must terminate: a combination that
        # A1 (A1* for dual heads) also annihilates pairs with no head of the
        # other side at any length; the square case takes the primal test
        shared = (E2.root[:, None] * (A1.matrix @ heads) if n <= m
                  else E1.root[:, None] * (A1star.matrix @ dual_heads))
        sv = np.linalg.svd(shared, compute_uv=False)
        if sv[-1] <= rank_tol * sv[0]:
            raise StructureError("incomplete Jordan set: B and A1 share a null direction")

    phi_chains, phi_left = _staircase(sk, A1, heads, dual_heads, l, rank_tol)
    psi_chains, psi_left = _staircase(sk.adjoint(), A1star, dual_heads, heads, l, rank_tol)
    order = sorted(range(len(phi_chains)), key=lambda i: -len(phi_chains[i]))
    phi_chains = [phi_chains[i] for i in order]
    dual_order = sorted(range(len(psi_chains)), key=lambda i: -len(psi_chains[i]))
    psi_chains = [psi_chains[i] for i in dual_order]
    p = tuple(len(c) for c in phi_chains)
    p_dual = tuple(len(c) for c in psi_chains)
    if p != p_dual:
        raise StructureError(
            f"primal chain lengths {p} and dual chain lengths {p_dual} disagree")
    k = sum(p)

    if l:
        diagnostics["terminal_pairing_det"] = _terminal_pairing_certificate(
            phi_chains, psi_chains, A1, E2)
        phi_chains, norm_diag = _normalize_primal_chains(
            phi_chains, psi_chains, p, A1, E2)
        diagnostics.update(norm_diag)

    gamma = [[A1star.matrix @ psi_chains[i][p[i] - j] for j in range(1, p[i] + 1)]
             for i in range(l)]
    z = [[A1.matrix @ phi_chains[i][p[i] - j] for j in range(1, p[i] + 1)]
         for i in range(l)]

    js = JordanStructure(phi=phi_chains, psi=psi_chains, gamma=gamma, z=z,
                         p=p, n=n, m=m, l=l, nu=nu, k=k, B=B, A1=A1,
                         skeleton=sk, diagnostics=diagnostics)

    if phi_left:
        def phi_couplings(vec):
            img = A1.matrix @ vec
            return [[E2.inner(img, psi_chains[i][r - 1])
                     for r in range(1, p[i] + 1)] for i in range(l)]
        own_heads = [phi_chains[i][0] for i in range(l)]
        extras = _correct_extras(phi_left, own_heads, phi_couplings)
        js.phi_extra = np.column_stack(extras)
        js.gamma_extra = _biorthogonal_partners(js.phi_stack(), js.phi_extra, E1)
    if psi_left:
        def psi_couplings(vec):
            return [[E2.inner(A1.matrix @ phi_chains[i][t - 1], vec)
                     for t in range(1, p[i] + 1)] for i in range(l)]
        own_heads = [psi_chains[i][0] for i in range(l)]
        extras = _correct_extras(psi_left, own_heads, psi_couplings)
        js.psi_extra = np.column_stack(extras)
        js.z_extra = _biorthogonal_partners(js.psi_stack(), js.psi_extra, E2)

    js.diagnostics.update(structure_residuals(js))
    return js


def structure_residuals(js):
    """Measured chain-link and biorthogonality residuals (diagnostics)."""
    B, A1 = js.B, js.A1
    E1, E2 = js.domain, js.codomain
    link = 0.0
    for i in range(js.l):
        head = js.phi[i][0]
        link = max(link, E2.norm(B.apply(head)) / max(1.0, E1.norm(head)))
        for j in range(1, js.p[i]):
            rhs = A1.apply(js.phi[i][j - 1])
            link = max(link, E2.norm(B.apply(js.phi[i][j]) - rhs)
                       / max(1.0, E2.norm(rhs)))
    Bstar, A1star = B.adjoint(), A1.adjoint()
    for i in range(js.l):
        head = js.psi[i][0]
        link = max(link, E1.norm(Bstar.apply(head)) / max(1.0, E2.norm(head)))
        for j in range(1, js.p[i]):
            rhs = A1star.apply(js.psi[i][j - 1])
            link = max(link, E1.norm(Bstar.apply(js.psi[i][j]) - rhs)
                       / max(1.0, E1.norm(rhs)))
    bio = 0.0
    idx = js.pair_indices()
    for bi, (i, j) in enumerate(idx):
        for ai, (s, t) in enumerate(idx):
            want = 1.0 if (i == s and j == t) else 0.0
            bio = max(bio, abs(E1.inner(js.phi[i][j - 1], js.gamma[s][t - 1]) - want))
            bio = max(bio, abs(E2.inner(js.z[i][j - 1], js.psi[s][t - 1]) - want))
    return {"chain_link_residual": link, "biorthogonality_error": bio}


def _schmidt_operator(js):
    """Schmidt regularizer: inverse of B bordered by the rank-one terms
    z_i^(1) <., gamma_i^(1)>, i = 1..l, from one SVD.  Square structures."""
    E1, E2 = js.domain, js.codomain
    bordered = js.B.matrix.copy()
    for i in range(js.l):
        bordered = bordered + np.outer(js.z[i][0], E1.weights * js.gamma[i][0])
    U, s, Vt = np.linalg.svd(bordered)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if cond > 1e12:
        raise StructureError(
            f"Schmidt bordering failed: bordered matrix condition {cond:.2e}")
    js.diagnostics["schmidt_condition"] = cond
    return FiniteOperator(Vt.T @ (U.T / s[:, None]), E2, E1)


def _pseudo_inverse(js, ps):
    """Bounded pseudoinverse: inverts B between the complement of the root
    (plus extra) subspace and the complement of the z-span, zero elsewhere.
    Satisfies B Bplus = I - Qk - Qextra, Bplus Qk = 0, Pk Bplus = 0.
    The minimum-norm solve X0 of B X0 = I - Q has X0 Qk = 0; the dual chain
    links confine its root-space part to the kernel of B (level-1 and extra
    directions), so removing that part keeps B X0 and gives Pk Bplus = 0."""
    E2 = js.codomain
    target = np.eye(E2.dim) - ps.q_total()
    X0, res = js.skeleton.solve(target)
    rel = float(np.linalg.norm(res) / max(1.0, np.linalg.norm(E2.root[:, None] * target)))
    if rel > 1e-8:
        raise StructureError("pseudoinverse construction failed: range-complement "
                             f"solve residual {rel:.2e}")
    return FiniteOperator(X0 - ps.p_total() @ X0, E2, js.domain)


def build_projectors(js):
    """Root projectors Pk/Qk, the extra-direction projectors, the Schmidt
    operator (square structures), and the bounded pseudoinverse."""
    E1, E2 = js.domain, js.codomain
    Phi, Psi = js.phi_stack(), js.psi_stack()
    Gam, Z = js.gamma_stack(), js.z_stack()
    Pk = FiniteOperator(Phi @ (Gam.T * E1.weights), E1, E1)
    Qk = FiniteOperator(Z @ (Psi.T * E2.weights), E2, E2)
    ps = ProjectorSet(Pk=Pk, Qk=Qk)
    if js.phi_extra is not None:
        ps.Pextra = FiniteOperator(js.phi_extra @ (js.gamma_extra.T * E1.weights),
                                   E1, E1)
    if js.psi_extra is not None:
        ps.Qextra = FiniteOperator(js.z_extra @ (js.psi_extra.T * E2.weights),
                                   E2, E2)
    if js.nu == 0 and E1.dim == E2.dim:
        ps.Gamma = _schmidt_operator(js)
    ps.Bplus = _pseudo_inverse(js, ps)
    return ps


def complete_structure(B, A1, rank_tol=DEFAULT_RANK_TOL):
    js = build_jordan_chains(B, A1, rank_tol)
    ps = build_projectors(js)
    return js, ps


def commutability_matrix(A, js, tol=1e-8):
    """Coefficient matrix of A on the chain span: A phi_b = sum_a M[b,a] z_a
    with the dual identity A* psi_a = sum_b M[b,a] gamma_b.  Certified when
    both hold; quasitriangular per the block pattern that makes the
    C-system forward-solvable (upper quasitriangular blocks, diagonal
    blocks lower-right triangular)."""
    E1, E2 = js.domain, js.codomain
    idx = js.pair_indices()
    k = len(idx)
    Phi, Psi = js.phi_stack(), js.psi_stack()
    Gam, Z = js.gamma_stack(), js.z_stack()
    if k == 0:
        return CommutabilityResult(np.zeros((0, 0)), True, True, 0.0, 0.0)
    APhi = A.matrix @ Phi
    r1, r2 = E1.root[:, None], E2.root[:, None]
    M = APhi.T @ (E2.weights[:, None] * Psi)
    prim_dev = np.linalg.norm(r2 * (APhi - Z @ M.T))
    prim_scale = max(1.0, np.linalg.norm(r2 * APhi))
    AstarPsi = A.adjoint_matrix() @ Psi
    dual_dev = np.linalg.norm(r1 * (AstarPsi - Gam @ M))
    dual_scale = max(1.0, np.linalg.norm(r1 * AstarPsi))
    res_p = float(prim_dev / prim_scale)
    res_d = float(dual_dev / dual_scale)
    certified = res_p <= tol and res_d <= tol
    quasi = True
    scale = max(1.0, float(np.abs(M).max()))
    for bi, (i, j) in enumerate(idx):
        for ai, (s, t) in enumerate(idx):
            lower_block = i > s
            above_antidiag = (i == s) and (j + t <= js.p[i])
            if (lower_block or above_antidiag) and abs(M[bi, ai]) > tol * scale:
                quasi = False
    return CommutabilityResult(M, certified, quasi, res_p, res_d)


def certify_operators(js, ops, tol=1e-8):
    """Commutability data for B and the lower-order operators of a system."""
    rb = commutability_matrix(js.B, js, tol)
    rs = [commutability_matrix(A, js, tol) for A in ops]
    return CommutabilityData(matA=[r.matrix for r in rs], matB=rb.matrix,
                             quasitriangular=[r.quasitriangular for r in rs],
                             certified=[r.certified for r in rs],
                             residual_primal=[r.residual_primal for r in rs],
                             residual_dual=[r.residual_dual for r in rs])


def structure_report(js, ps=None, comm=None):
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
    lines.append(f"extra_kernel_directions={0 if js.phi_extra is None else js.phi_extra.shape[1]}")
    lines.append(f"extra_cokernel_directions={0 if js.psi_extra is None else js.psi_extra.shape[1]}")
    if ps is not None:
        E1, E2 = js.domain, js.codomain
        idem_p = np.abs(ps.Pk.matrix @ ps.Pk.matrix - ps.Pk.matrix).max()
        idem_q = np.abs(ps.Qk.matrix @ ps.Qk.matrix - ps.Qk.matrix).max()
        lines.append(f"Pk_idempotence={idem_p:.6e}")
        lines.append(f"Qk_idempotence={idem_q:.6e}")
        bbp = np.abs(js.B.matrix @ ps.Bplus.matrix - (np.eye(E2.dim) - ps.q_total())).max()
        lines.append(f"pseudoinverse_identity={bbp:.6e}")
    if comm is not None:
        for i, (c, q) in enumerate(zip(comm.certified, comm.quasitriangular), start=1):
            lines.append(f"A{i}_certified={'pass' if c else 'fail'}")
            lines.append(f"A{i}_quasitriangular={'yes' if q else 'no'}")
    return "\n".join(lines) + "\n"
