"""Enumeration oracles for `exactalg.solve_quadratic` and the two
quadratic searches of `sepkit`.

`brute_roots` evaluates a quadratic system on every member of an affine
set.  `sepkit` decides the heavy condition and the multiplicativity of
a ring retraction by solving a quadratic system with
`exactalg.solve_quadratic`; the other oracles are the vectorised
filters it used before: every member of the affine set goes through the
condition, and the survivors are kept.  They share no code with the
solver.
"""

import numpy as np

from hsep.exactalg import solve_modular_system
from hsep.finring import check_ring_hom

CHUNK = 2048


def brute_roots(affine, A, mods):
    """The members x of `affine` with x̂ᵀA_r x̂ ≡ 0 (mod mods[r]) for every
    r, x̂ = (1, x), on the members' own coordinates."""
    members = affine.member_array()
    xhat = np.hstack([np.ones((len(members), 1), dtype=np.int64), members])
    vals = np.einsum("nu,ruv,nv->nr", xhat, A, xhat) % np.array(mods)
    return members[~vals.any(axis=1)]


def h_pass_mask(t2, members):
    """Heavy filter over an array of canonical coordinates of S⊗_R S:
    β(e,e) − Δ(e), computed on the lifts and projected to S⊗_R S⊗_R S."""
    n = members.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    k = t2.k
    if k == 0:
        return np.ones(n, dtype=bool)
    tri = t2.triple
    t = t2.hom.target.np_mul
    u = np.array(t2.hom.target.unit, dtype=np.int64)
    mods3 = tri.np_moduli
    # P = P_new·(P₂⊗I_k) is the identity when both factors are
    identity = tri.group.is_identity and t2.group.is_identity
    out = np.zeros(n, dtype=bool)
    for lo in range(0, n, CHUNK):
        chunk = members[lo : lo + CHUNK]
        x = ((chunk @ t2.np_lift.T) % t2.np_gen_moduli).reshape(-1, k, k)
        t1 = np.einsum("nab,bce,ncd->naed", x, t, x, optimize=True)
        t2v = np.einsum("nad,c->nacd", x, u)
        diff = (t1 - t2v).reshape(len(chunk), -1)
        if not identity:
            diff = diff @ tri.np_project.T
        out[lo : lo + CHUNK] = ~np.any(diff % mods3[None, :], axis=1)
    return out


def heavy_members(t2):
    """The heavy separability idempotents by enumeration, sorted."""
    members = t2.locus.member_array()
    return tuple(sorted(tuple(int(x) for x in row) for row in members[h_pass_mask(t2, members)]))


def retraction_space(hom):
    """The affine set of E: S → R with E∘φ = id, E(1) = 1, each E(e_j)
    killed by the order of e_j; unknown l·ks + j is coordinate l of E(e_j)."""
    src, tgt = hom.source, hom.target
    kr, ks = src.k, tgt.k
    nx = kr * ks
    phi = np.array(hom.matrix, dtype=np.int64).reshape(kr, ks)
    eye = np.eye(kr, dtype=np.int64)
    rows = np.vstack([
        np.diag(np.tile(tgt.np_moduli, kr)),
        np.einsum("ij,lm->ilmj", phi, eye).reshape(kr * kr, nx),
        np.kron(eye, np.array(tgt.unit, dtype=np.int64)),
    ])
    b = [0] * nx + eye.ravel().tolist() + list(src.unit)
    unknown = tuple(m for m in src.moduli for _ in range(ks))
    mods = unknown + src.moduli * kr + src.moduli
    return solve_modular_system(rows, b, mods, unknown_moduli=unknown)


def multiplicative_members(hom, members):
    """The rows of `members` with E(e_i e_j) = E(e_i)E(e_j) for every basis
    pair, one pair at a time so failing candidates drop out early."""
    src, tgt = hom.source, hom.target
    kr, ks = src.k, tgt.k
    if kr * ks == 0:
        return members
    smod = np.array(src.moduli, dtype=np.int64)[None, :]
    alive = members.reshape(-1, kr, ks)
    for i in range(ks):
        for j in range(ks):
            if not alive.shape[0]:
                break
            lhs = np.einsum("c,nlc->nl", tgt.np_mul[i, j], alive, optimize=True)
            rhs = np.einsum("na,nb,abl->nl", alive[:, :, i], alive[:, :, j], src.np_mul, optimize=True)
            alive = alive[~np.any((lhs - rhs) % smod, axis=1)]
    return alive.reshape(-1, kr * ks)


def retractions(hom):
    """All ring retractions of φ by enumeration, sorted by matrix."""
    src, tgt = hom.source, hom.target
    sol = retraction_space(hom)
    found = [
        check_ring_hom(tuple(map(tuple, m.reshape(src.k, tgt.k).T.tolist())), tgt, src)
        for m in multiplicative_members(hom, sol.member_array())
    ]
    return tuple(sorted(found, key=lambda h: h.matrix))
