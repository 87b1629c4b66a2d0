"""Test-only views of sepkit and exactalg values, which no verdict uses.

S⊗_R S is the Sweedler coring of the extension: comultiplication sends
a⊗b to a⊗1⊗b and the counit is multiplication, so a heavy separability
idempotent is exactly an invariant grouplike element of that coring.
`is_h_idempotent` checks that equation one element at a time; sepkit
solves it as a quadratic system instead.  `triple_class` and
`triple_pure` read S⊗_R S⊗_R S through its projection array.
`contains` and `verify_member` test membership in an
`AffineSolutionSet` directly, by an integer solve and by substitution.
"""

from functools import lru_cache

import numpy as np

import smith_oracle

from hsep import exactalg


class NotSeparabilityIdempotent(ValueError):
    """The element fails the linear separability conditions."""


@lru_cache(maxsize=None)
def np_sweedler(t2):
    """a⊗b ↦ a⊗1⊗b on canonical coordinates (rank3 x rank)."""
    tri = t2.triple
    k = t2.k
    p3 = tri.np_project.reshape(tri.group.rank, k, k, k)
    l2 = t2.np_lift.reshape(k, k, t2.group.rank)
    u = np.array(t2.hom.target.unit, dtype=np.int64)
    sw = np.einsum("racb,c,abq->rq", p3, u, l2, optimize=True)
    return sw % tri.np_moduli[:, None]


def sweedler_delta(t2, coords):
    tri = t2.triple
    out = (np_sweedler(t2) @ np.asarray(coords, dtype=np.int64)) % tri.np_moduli
    return tuple(int(x) for x in out)


def beta(t2, x, y):
    """Middle multiplication (a⊗b, c⊗d) ↦ a⊗bc⊗d, computed on lifts."""
    k = t2.k
    t = t2.hom.target.np_mul
    xm = t2.lift(x).reshape(k, k)
    ym = t2.lift(y).reshape(k, k)
    raw = np.einsum("ab,bce,cd->aed", xm, t, ym, optimize=True).ravel()
    return triple_class(t2.triple, raw)


def triple_class(t3, raw):
    """Canonical coordinates in S⊗_R S⊗_R S of a vector on the k³ pure tensors."""
    rows = t3.np_project.tolist()
    return tuple(sum(int(p) * int(v) for p, v in zip(row, raw, strict=True)) % d for row, d in zip(rows, t3.group.moduli))


def triple_pure(t3, x, y, z):
    """Class of the pure tensor x⊗y⊗z of coordinate tuples of S."""
    return triple_class(t3, [a * b * c for a in x for b in y for c in z])


def verify_coring_laws(t2):
    """(ε⊗1)Δ = id and (1⊗ε)Δ = id on canonical coordinates."""
    tri = t2.triple
    k, rank = t2.k, t2.group.rank
    t = t2.hom.target.np_mul
    p2 = t2.np_project.reshape(rank, k, k)
    l3 = tri.np_lift.reshape(k, k, k, tri.group.rank)
    # collapse the first two slots by multiplication, keep the third
    e1 = np.einsum("rub,acu,acbq->rq", p2, t, l3, optimize=True)
    # keep the first slot, collapse the last two
    e2 = np.einsum("rau,cbu,acbq->rq", p2, t, l3, optimize=True)
    mods = t2.np_moduli[:, None]
    eye = np.eye(rank, dtype=np.int64)
    ok1 = ((e1 @ np_sweedler(t2)) % mods == eye % mods).all()
    ok2 = ((e2 @ np_sweedler(t2)) % mods == eye % mods).all()
    return bool(ok1 and ok2)


def is_h_idempotent(t2, coords) -> bool:
    """Heavy condition β(e,e) = a⊗1⊗b-expansion of e, i.e. Δ(e) = e⊗e.

    Precondition: e is a separability idempotent (raises otherwise).
    In coring language: e is already invariant and counit-1, and this
    decides whether it is grouplike.
    """
    coords = tuple(int(c) for c in coords)
    if not t2.is_separability_idempotent(coords):
        raise NotSeparabilityIdempotent("element %r fails the linear conditions" % (coords,))
    return beta(t2, coords, coords) == sweedler_delta(t2, coords)


def contains(affine, vec):
    """vec ∈ particular + ⟨kernel generators⟩, by an integer solve of
    `smith_oracle`, which shares no code with the solver."""
    if not affine.is_empty and len(vec) != len(affine.coordinate_moduli):
        raise exactalg.DimensionMismatch("member length")
    return smith_oracle.contains(affine, vec)


def verify_member(affine, vec):
    """Substitute vec into the set's defining congruence system."""
    if affine.system is None:
        raise ValueError("solution set carries no defining system")
    a, b, mods = affine.system
    for row, bi, mi in zip(a.tolist(), b, mods):
        if (sum(r * v for r, v in zip(row, vec)) - bi) % mi:
            return False
    return True
