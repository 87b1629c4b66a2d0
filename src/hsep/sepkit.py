"""Separability and heavy separability of ring extensions.

For a homomorphism φ: R → S this module builds the tensor powers
S⊗_R S and S⊗_R S⊗_R S as canonically presented finite abelian groups,
solves for the locus of separability idempotents (Σ a_i b_i = 1 and
s·e = e·s for every s), filters the quadratic heavy condition
Σ a_i ⊗ b_i a_j ⊗ b_j = Σ a_i ⊗ 1 ⊗ b_i by exact enumeration, and
decides the ring-epimorphism criteria with an internal cross-check.

The locus comes from `exactalg.solve_modular_system` as particular +
Σ c_i g_i, checked there once on those vectors, which covers every
member.  Enumeration only filters the heavy condition, in the one
vectorised pass `h_idempotents` that reports and the CLI share.

S⊗_R S is also the Sweedler coring of the extension: comultiplication
sends a⊗b to a⊗1⊗b and the counit is multiplication, so a heavy
separability idempotent is exactly an invariant grouplike element of
that coring.  `is_h_idempotent` checks precisely that equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exactalg import (
    AffineSolutionSet,
    CapExceeded,
    IntegerMatrix,
    solve_modular_system,
    subgroup_basis,
    cokernel,
)
from .finring import RingHom, check_ring_hom, commutativity_report

__all__ = [
    "TensorPower",
    "SeparabilityVerdict",
    "NotSeparabilityIdempotent",
    "ModuliTooLarge",
    "InternalCriterionMismatch",
    "UNDECIDED",
    "DEFAULT_CAP",
    "tensor_power",
    "separability_locus",
    "is_h_idempotent",
    "h_idempotents",
    "is_ring_epimorphism",
    "find_ring_retractions",
    "h_separability_report",
    "verdict_to_doc",
]

DEFAULT_CAP = 10**6
UNDECIDED = "undecided-by-enumeration"

_CHUNK = 2048


class NotSeparabilityIdempotent(ValueError):
    """The element fails the linear separability conditions."""


class ModuliTooLarge(ValueError):
    """k⁵·(largest modulus)⁴ reaches 2⁶², past the int64 tensor kernels."""


class InternalCriterionMismatch(RuntimeError):
    """Two provably equivalent criteria disagreed: an implementation bug."""


class TensorPower:
    """S⊗_R S (arity 2) or S⊗_R S⊗_R S (arity 3) over φ: R → S.

    The group is the cokernel of the balance relations
    (x·φ(r))⊗y − x⊗(φ(r)·y) on basis generators together with the
    order relation gcd(orders of the slots) on each pure generator.
    Construction verifies, as exact matrix identities, that projection
    kills every balance relation and that multiplication and the
    Sweedler comultiplication are well defined on classes.
    """

    def __init__(self, hom: RingHom, arity: int):
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        self.hom = hom
        self.arity = arity
        s = hom.target
        self.k = s.k
        k = s.k
        big = max(s.moduli, default=1)
        # the vectorized kernels accumulate in int64
        if k and k**5 * big**4 >= 2**62:
            raise ModuliTooLarge(
                "moduli too large for the exact vectorized tensor kernels"
            )
        self.gens = k**arity
        if arity == 2:
            gen_moduli = [
                math.gcd(s.moduli[a], s.moduli[b]) for a in range(k) for b in range(k)
            ]
        else:
            gen_moduli = [
                math.gcd(math.gcd(s.moduli[a], s.moduli[b]), s.moduli[c])
                for a in range(k)
                for b in range(k)
                for c in range(k)
            ]
        self.gen_moduli = tuple(gen_moduli)
        rel = self._balance_relations()
        self.relation_array = rel  # gens x ncols, kept for well-definedness tests
        relations = IntegerMatrix.from_rows(rel.tolist(), rel.shape[1])
        self.group = cokernel(relations, gen_moduli)
        self._verify_construction()

    # -- construction ---------------------------------------------------

    def _balance_relations(self):
        hom, k, arity = self.hom, self.k, self.arity
        s = hom.target
        src = hom.source
        cols = []
        for r in range(src.k):
            ra = hom.matrix[r]
            xr = [s.mul_coords(s.basis_element(a).coords, ra) for a in range(k)]
            rx = [s.mul_coords(ra, s.basis_element(b).coords) for b in range(k)]
            for a in range(k):
                for b in range(k):
                    if arity == 2:
                        col = np.zeros(self.gens, dtype=np.int64)
                        for c in range(k):
                            col[c * k + b] += xr[a][c]
                            col[a * k + c] -= rx[b][c]
                        cols.append(col)
                    else:
                        for d in range(k):
                            col = np.zeros(self.gens, dtype=np.int64)
                            # balance across slots (0,1), third slot fixed at d
                            for c in range(k):
                                col[(c * k + b) * k + d] += xr[a][c]
                                col[(a * k + c) * k + d] -= rx[b][c]
                            cols.append(col)
                            col = np.zeros(self.gens, dtype=np.int64)
                            # balance across slots (1,2), first slot fixed at d
                            for c in range(k):
                                col[(d * k + c) * k + b] += xr[a][c]
                                col[(d * k + a) * k + c] -= rx[b][c]
                            cols.append(col)
        if not cols:
            return np.zeros((self.gens, 0), dtype=np.int64)
        arr = np.stack(cols, axis=1)
        arr = arr[:, np.any(arr, axis=0)]
        if arr.shape[1]:
            arr = np.unique(arr, axis=1)
        return arr

    def _verify_construction(self):
        # projection must kill every balance relation
        if self.relation_array.shape[1]:
            img = (self.np_project @ self.relation_array) % self.np_moduli[:, None]
            assert not img.any(), "projection does not kill a balance relation"
        if self.arity == 2 and self.k:
            s = self.hom.target
            smod = np.array(s.moduli, dtype=np.int64)
            # multiplication is well defined on classes
            if self.relation_array.shape[1]:
                img = (self._raw_mult @ self.relation_array) % smod[:, None]
                assert not img.any(), "multiplication not balanced"
            # and computes products of pure tensors
            lhs = (self.np_mult @ self.np_project) % smod[:, None]
            rhs = self._raw_mult % smod[:, None]
            assert (lhs == rhs).all(), "mult disagrees with the product on pure tensors"

    # -- numpy views -----------------------------------------------------

    @cached_property
    def np_moduli(self):
        return np.array(self.group.moduli, dtype=np.int64)

    @cached_property
    def np_gen_moduli(self):
        return np.array(self.gen_moduli, dtype=np.int64)

    @cached_property
    def np_project(self):
        p = np.array(self.group.project_matrix, dtype=np.int64).reshape(
            self.group.rank, self.gens
        )
        return p % self.np_moduli[:, None]

    @cached_property
    def np_lift(self):
        l = np.array(self.group.lift_matrix, dtype=np.int64).reshape(
            self.gens, self.group.rank
        )
        return l % self.np_gen_moduli[:, None]

    @cached_property
    def is_identity_presentation(self):
        g, r = self.gens, self.group.rank
        if g != r:
            return False
        return (self.np_project == np.eye(g, dtype=np.int64)).all()

    @cached_property
    def _raw_mult(self):
        # raw map on generators: a⊗b -> a*b, shape (k, gens); arity 2 only
        t = self.hom.target.np_mul
        return t.transpose(2, 0, 1).reshape(self.k, self.gens).copy()

    @cached_property
    def np_mult(self):
        """Multiplication S⊗S → S on canonical coordinates (k x rank)."""
        assert self.arity == 2
        smod = np.array(self.hom.target.moduli, dtype=np.int64)
        return (self._raw_mult @ self.np_lift) % smod[:, None]

    @cached_property
    def triple(self):
        assert self.arity == 2
        tri = tensor_power(self.hom, 3)
        self._verify_triple(tri)
        return tri

    @cached_property
    def action_matrices(self):
        """(left, right): arrays of shape (k, rank, rank), canonical coords."""
        assert self.arity == 2
        k, rank = self.k, self.group.rank
        t = self.hom.target.np_mul
        p = self.np_project.reshape(rank, k, k)
        l = self.np_lift.reshape(k, k, rank)
        left = np.einsum("rcb,sac,abq->srq", p, t, l, optimize=True)
        right = np.einsum("rac,bsc,abq->srq", p, t, l, optimize=True)
        mods = self.np_moduli[None, :, None]
        return left % mods, right % mods

    @cached_property
    def action_difference(self):
        """Stacked (k*rank) x rank matrix of s·(−) − (−)·s conditions."""
        left, right = self.action_matrices
        k, rank = self.k, self.group.rank
        diff = (left - right).reshape(k * rank, rank)
        mods = np.tile(self.np_moduli, k)
        return diff % np.where(mods > 0, mods, 1)[:, None], mods

    @cached_property
    def np_sweedler(self):
        """a⊗b ↦ a⊗1⊗b on canonical coordinates (rank3 x rank)."""
        assert self.arity == 2
        tri = self.triple
        k = self.k
        p3 = tri.np_project.reshape(tri.group.rank, k, k, k)
        l2 = self.np_lift.reshape(k, k, self.group.rank)
        u = np.array(self.hom.target.unit, dtype=np.int64)
        sw = np.einsum("racb,c,abq->rq", p3, u, l2, optimize=True)
        return sw % tri.np_moduli[:, None]

    @cached_property
    def one_one(self):
        s = self.hom.target
        return self.pure(*([s.one()] * self.arity))

    @cached_property
    def locus(self):
        """Affine set of separability idempotents in canonical coordinates."""
        assert self.arity == 2
        s = self.hom.target
        rank = self.group.rank
        rows = [list(map(int, r)) for r in self.np_mult]
        b = list(s.unit)
        mods = list(s.moduli)
        diff, dmods = self.action_difference
        rows.extend(list(map(int, r)) for r in diff)
        b.extend([0] * diff.shape[0])
        mods.extend(int(m) for m in dmods)
        a = IntegerMatrix.from_rows(rows, rank)
        return solve_modular_system(a, b, mods, unknown_moduli=self.group.moduli)

    # -- operations --------------------------------------------------------

    def pure(self, *elems):
        """Class of the pure tensor of the given ring elements."""
        if len(elems) != self.arity:
            raise ValueError("pure expects %d elements" % self.arity)
        vecs = []
        for e in elems:
            coords = e.coords if hasattr(e, "coords") else tuple(e)
            if len(coords) != self.k:
                raise ValueError("element has wrong coordinate length")
            vecs.append(np.array(coords, dtype=np.int64))
        if self.arity == 2:
            raw = np.einsum("a,b->ab", vecs[0], vecs[1]).ravel()
        else:
            raw = np.einsum("a,b,c->abc", vecs[0], vecs[1], vecs[2]).ravel()
        return self.project(raw)

    def project(self, raw):
        raw = np.asarray(raw, dtype=np.int64)
        out = (self.np_project @ raw) % self.np_moduli
        return tuple(int(x) for x in out)

    def lift(self, coords):
        coords = np.asarray(coords, dtype=np.int64)
        return (self.np_lift @ coords) % np.where(self.np_gen_moduli > 0, self.np_gen_moduli, 1)

    def mult(self, coords):
        """Counit of the Sweedler coring: a⊗b ↦ ab."""
        s = self.hom.target
        out = (self.np_mult @ np.asarray(coords, dtype=np.int64)) % np.array(
            s.moduli, dtype=np.int64
        )
        return s.element(tuple(int(x) for x in out))

    counit = mult

    def is_central(self, coords):
        diff, mods = self.action_difference
        vals = (diff @ np.asarray(coords, dtype=np.int64)) % mods
        return not vals.any()

    def is_separability_idempotent(self, coords):
        """The linear conditions: mult(e) = 1 and s·e = e·s for every s."""
        s = self.hom.target
        return self.mult(coords).coords == s.unit and self.is_central(coords)

    def sweedler_delta(self, coords):
        tri = self.triple
        out = (self.np_sweedler @ np.asarray(coords, dtype=np.int64)) % tri.np_moduli
        return tuple(int(x) for x in out)

    def beta(self, x, y):
        """Middle multiplication (a⊗b, c⊗d) ↦ a⊗bc⊗d, computed on lifts."""
        tri = self.triple
        k = self.k
        t = self.hom.target.np_mul
        xm = self.lift(x).reshape(k, k)
        ym = self.lift(y).reshape(k, k)
        raw = np.einsum("ab,bce,cd->aed", xm, t, ym, optimize=True).ravel()
        return tri.project(raw)

    def format_element(self, coords):
        """Formal sum Σ c · e_i⊗e_j over the ring basis."""
        s = self.hom.target
        raw = self.lift(coords)
        terms = []
        for g in range(self.gens):
            c = int(raw[g])
            if not c:
                continue
            idx = []
            gg = g
            for _ in range(self.arity):
                idx.append(gg % self.k)
                gg //= self.k
            idx.reverse()
            name = "⊗".join(s.basis_labels[i] for i in idx)
            terms.append(name if c == 1 else "%d*%s" % (c, name))
        return " + ".join(terms) if terms else "0"

    def _verify_triple(self, tri):
        # beta must be constant on classes: beta(δ, y) = 0 = beta(y, δ)
        # for every balance relation δ and every generator y
        k = self.k
        if k == 0 or self.relation_array.shape[1] == 0:
            return
        t = self.hom.target.np_mul
        p3 = tri.np_project.reshape(tri.group.rank, k, k, k)
        mods3 = tri.np_moduli
        rels = self.relation_array.T.reshape(-1, k, k)
        for x in rels:
            # beta(δ, y) over all pure generators y = (c, d)
            z = np.einsum("ab,bce->ace", x, t, optimize=True)
            vals = np.einsum("raed,ace->rcd", p3, z, optimize=True) % mods3[:, None, None]
            assert not vals.any(), "beta is not balanced in its left slot"
            # beta(y, δ) over all pure generators y = (a, b)
            z = np.einsum("bce,cd->bed", t, x, optimize=True)
            vals = np.einsum("raed,bed->rab", p3, z, optimize=True) % mods3[:, None, None]
            assert not vals.any(), "beta is not balanced in its right slot"

    def verify_coring_laws(self):
        """(ε⊗1)Δ = id and (1⊗ε)Δ = id on canonical coordinates."""
        assert self.arity == 2
        tri = self.triple
        k, rank = self.k, self.group.rank
        t = self.hom.target.np_mul
        p2 = self.np_project.reshape(rank, k, k)
        l3 = tri.np_lift.reshape(k, k, k, tri.group.rank)
        # collapse the first two slots by multiplication, keep the third
        e1 = np.einsum("rub,acu,acbq->rq", p2, t, l3, optimize=True)
        # keep the first slot, collapse the last two
        e2 = np.einsum("rau,cbu,acbq->rq", p2, t, l3, optimize=True)
        mods = self.np_moduli[:, None]
        eye = np.eye(rank, dtype=np.int64)
        ok1 = ((e1 @ self.np_sweedler) % mods == eye % mods).all()
        ok2 = ((e2 @ self.np_sweedler) % mods == eye % mods).all()
        return bool(ok1 and ok2)


@lru_cache(maxsize=None)
def tensor_power(hom: RingHom, arity: int) -> TensorPower:
    """Tensor power of the extension with all structure maps verified."""
    return TensorPower(hom, arity)


def separability_locus(hom: RingHom) -> AffineSolutionSet:
    """The exact affine set of separability idempotents of S/R."""
    return tensor_power(hom, 2).locus


def is_h_idempotent(t2: TensorPower, coords) -> bool:
    """Heavy condition β(e,e) = a⊗1⊗b-expansion of e, i.e. Δ(e) = e⊗e.

    Precondition: e is a separability idempotent (raises otherwise).
    In coring language: e is already invariant and counit-1, and this
    decides whether it is grouplike.
    """
    coords = tuple(int(c) for c in coords)
    if not t2.is_separability_idempotent(coords):
        raise NotSeparabilityIdempotent("element %r fails the linear conditions" % (coords,))
    return t2.beta(coords, coords) == t2.sweedler_delta(coords)


def h_idempotents(t2: TensorPower):
    """The heavy separability idempotents, sorted: the whole locus through
    one vectorised heavy filter.  The caller bounds the locus size."""
    members = t2.locus.member_array()
    return tuple(sorted(tuple(int(x) for x in row) for row in members[_h_pass_mask(t2, members)]))


def _h_pass_mask(t2: TensorPower, members):
    """Vectorized heavy filter over an array of canonical coordinates."""
    n = members.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    k = t2.k
    if k == 0:
        return np.ones(n, dtype=bool)
    tri = t2.triple
    t = t2.hom.target.np_mul
    u = np.array(t2.hom.target.unit, dtype=np.int64)
    lmat = t2.np_lift
    gmod = np.where(t2.np_gen_moduli > 0, t2.np_gen_moduli, 1)
    mods3 = tri.np_moduli
    p3 = tri.np_project
    out = np.zeros(n, dtype=bool)
    for lo in range(0, n, _CHUNK):
        chunk = members[lo : lo + _CHUNK]
        raw = (chunk @ lmat.T) % gmod[None, :]
        x = raw.reshape(-1, k, k)
        t1 = np.einsum("nab,bce,ncd->naed", x, t, x, optimize=True)
        t2v = np.einsum("nad,c->nacd", x, u)
        diff = (t1 - t2v).reshape(len(chunk), -1)
        if tri.is_identity_presentation:
            ok = ~np.any(diff % mods3[None, :], axis=1)
        else:
            proj = (diff @ p3.T) % mods3[None, :]
            ok = ~np.any(proj, axis=1)
        out[lo : lo + _CHUNK] = ok
    return out


def is_ring_epimorphism(hom: RingHom) -> bool:
    """Lemma criteria: mult bijective (2), cross-checked against 1⊗1 (3)."""
    t2 = tensor_power(hom, 2)
    s = hom.target
    vectors = [tuple(int(x) for x in col) for col in t2.np_mult.T]
    _, orders = subgroup_basis(vectors, s.moduli)
    surjective = math.prod(orders) == s.order
    crit2 = surjective and t2.group.order == s.order
    crit3 = t2.is_separability_idempotent(t2.one_one)
    if crit2 != crit3:
        raise InternalCriterionMismatch(
            "multiplication-bijectivity and 1⊗1 criteria disagree on %r" % (hom,)
        )
    return crit2


def find_ring_retractions(hom: RingHom, cap=DEFAULT_CAP):
    """All ring homs E: S → R with E∘φ = id, by linear solve + filter."""
    src, tgt = hom.source, hom.target
    kr, ks = src.k, tgt.k
    nx = kr * ks  # unknown t[l][j] = coordinate l of E(e_j)
    idx = lambda l, j: l * ks + j
    rows, b, mods = [], [], []
    for l in range(kr):
        for j in range(ks):
            row = [0] * nx
            row[idx(l, j)] = tgt.moduli[j]
            rows.append(row)
            b.append(0)
            mods.append(src.moduli[l])
    for i in range(kr):
        img = hom.matrix[i]
        for l in range(kr):
            row = [0] * nx
            for j in range(ks):
                row[idx(l, j)] = img[j]
            rows.append(row)
            b.append(1 if l == i else 0)
            mods.append(src.moduli[l])
    for l in range(kr):
        row = [0] * nx
        for j in range(ks):
            row[idx(l, j)] = tgt.unit[j]
        rows.append(row)
        b.append(src.unit[l])
        mods.append(src.moduli[l])
    unknown = tuple(src.moduli[l] for l in range(kr) for _ in range(ks))
    sol = solve_modular_system(IntegerMatrix.from_rows(rows, nx), b, mods, unknown_moduli=unknown)
    if sol.is_empty:
        return ()
    if sol.size > cap:
        raise CapExceeded(sol.size)
    members = sol.member_array()
    found = []
    if nx == 0:
        candidates = members
    else:
        # multiplicativity filter E(e_i e_j) == E(e_i) E(e_j), one basis
        # pair at a time so failing candidates drop out early
        tsrc = src.np_mul
        ttgt = tgt.np_mul
        smod = np.array(src.moduli, dtype=np.int64)[None, :]
        alive = members.reshape(-1, kr, ks)
        for i in range(ks):
            for j in range(ks):
                if not alive.shape[0]:
                    break
                lhs = np.einsum("c,nlc->nl", ttgt[i, j], alive, optimize=True)
                rhs = np.einsum(
                    "na,nb,abl->nl", alive[:, :, i], alive[:, :, j], tsrc, optimize=True
                )
                alive = alive[~np.any((lhs - rhs) % smod, axis=1)]
        candidates = alive.reshape(-1, nx)
    for member in candidates:
        matrix = tuple(
            tuple(int(member[idx(l, j)]) for l in range(kr)) for j in range(ks)
        )
        found.append(check_ring_hom(matrix, tgt, src))
    found.sort(key=lambda h: h.matrix)
    return tuple(found)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Everything the workbench can decide about one extension S/R."""

    hom: RingHom
    is_separable: bool
    is_h_separable: object  # True, False, or UNDECIDED
    is_ring_epi: bool
    sep_locus: AffineSolutionSet
    h_witnesses: tuple
    retractions: tuple | None
    notes: dict

    def check_invariants(self):
        if self.is_h_separable is True:
            assert self.is_separable
        if self.is_ring_epi:
            assert self.is_h_separable is True
        if self.notes["image_central"]:
            assert self.is_h_separable == self.is_ring_epi
        return True


def h_separability_report(hom: RingHom, cap=DEFAULT_CAP) -> SeparabilityVerdict:
    """Full verdict for S/R: separable, h-separable, ring epi, witnesses.

    h-separability is decided by enumerating the separability locus and
    filtering the heavy condition; the ring-epi and central-image
    shortcuts are computed independently and any disagreement with the
    enumeration is a fatal internal error.
    """
    t2 = tensor_power(hom, 2)
    locus = t2.locus
    is_sep = not locus.is_empty
    epi = is_ring_epimorphism(hom)
    central = hom.is_image_central()
    target_comm = commutativity_report(hom.target).is_commutative
    one_one_sep = t2.is_separability_idempotent(t2.one_one)

    witnesses = ()
    enumerated = None
    if is_sep and locus.size <= cap:
        witnesses = h_idempotents(t2)
        enumerated = bool(witnesses)

    decided_by = None
    if epi:
        h_state = True
        decided_by = "ring-epimorphism"
        # the unique separability idempotent is 1⊗1
        if locus.size != 1:
            raise InternalCriterionMismatch("ring epi with locus size %d" % locus.size)
        if enumerated is not None:
            if not (enumerated and witnesses == (t2.one_one,)):
                raise InternalCriterionMismatch("epi shortcut disagrees with enumeration")
        else:
            witnesses = (t2.one_one,)
    elif central:
        h_state = epi  # Theorem: central image makes h-separability equivalent to epi
        decided_by = "central-image-shortcut"
        if enumerated is not None and enumerated != h_state:
            raise InternalCriterionMismatch("central-image shortcut disagrees with enumeration")
    elif enumerated is not None:
        h_state = enumerated
        decided_by = "enumeration"
    else:
        h_state = UNDECIDED

    if not is_sep:
        assert h_state is not True
        h_state = False if h_state is UNDECIDED else h_state
        decided_by = decided_by or "empty-locus"

    retractions = None
    retr_note = None
    try:
        retractions = find_ring_retractions(hom, cap)
    except CapExceeded as err:
        retr_note = int(err.size)

    verdict = SeparabilityVerdict(
        hom=hom,
        is_separable=is_sep,
        is_h_separable=h_state,
        is_ring_epi=epi,
        sep_locus=locus,
        h_witnesses=witnesses,
        retractions=retractions,
        notes={
            "image_central": central,
            "target_commutative": target_comm,
            "one_tensor_one_separability": one_one_sep,
            "locus_size": locus.size,
            "h_decided_by": decided_by,
            "enumeration_ran": enumerated is not None,
            "retraction_space_over_cap": retr_note,
        },
    )
    verdict.check_invariants()
    return verdict


def verdict_to_doc(verdict: SeparabilityVerdict) -> dict:
    """JSON-ready report; idempotents appear in coordinates and as formal sums."""
    t2 = tensor_power(verdict.hom, 2)
    h = verdict.is_h_separable
    locus = verdict.sep_locus
    doc = {
        "source": verdict.hom.source.label,
        "target": verdict.hom.target.label,
        "separable": verdict.is_separable,
        "h_separable": h if isinstance(h, str) else bool(h),
        "ring_epimorphism": verdict.is_ring_epi,
        "locus_size": locus.size,
        "locus_kernel_orders": list(locus.kernel_orders),
        "locus_particular": None
        if locus.is_empty
        else {
            "coords": list(locus.particular),
            "formal_sum": t2.format_element(locus.particular),
        },
        "h_witnesses": [
            {"coords": list(w), "formal_sum": t2.format_element(w)}
            for w in verdict.h_witnesses
        ],
        "retraction_count": None if verdict.retractions is None else len(verdict.retractions),
        "retractions": None
        if verdict.retractions is None
        else [[list(col) for col in r.matrix] for r in verdict.retractions],
        "notes": {
            key: (val if not isinstance(val, bool) else bool(val))
            for key, val in verdict.notes.items()
        },
    }
    return doc
