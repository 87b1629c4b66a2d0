"""Separability and heavy separability of ring extensions.

For a homomorphism φ: R → S this module builds the tensor powers
S⊗_R S and S⊗_R S⊗_R S as canonically presented finite abelian groups,
solves for the locus of separability idempotents (Σ a_i b_i = 1 and
s·e = e·s for every s), solves the quadratic heavy condition
Σ a_i ⊗ b_i a_j ⊗ b_j = Σ a_i ⊗ 1 ⊗ b_i on that locus exactly, and
decides the ring-epimorphism criteria with an internal cross-check.

S⊗_R S⊗_R S is presented from S⊗_R S, by associativity, as
(S⊗_R S)⊗_R S: its generators are x_i⊗e_b for the canonical generators
x_i of S⊗_R S and the basis e_b of S, rank₂·k of them instead of the k³
pure tensors.  Its projection and lift on the pure tensors are
composites through S⊗_R S, and construction checks them against every
balance relation of the pure tensors; that β is balanced follows, and
is left to the test oracles.  The balance relations of both groups
come from `finring.phi_actions` and `finring.balance_relations`, which
also build finring's A⊗_R B; finring moves a product onto a
presentation (its tensor product and quotient) in
`_ring_on_presentation`.  Both groups read the projection and lift
arrays of their `exactalg.FinAbPresentation`; an identity presentation
has none, and S⊗_R S⊗_R S then never multiplies by it.  Every product
goes through `exactalg.exact_einsum`, so no modulus is too large.  Every
construction check raises `exactalg.ConstructionCheckFailed` and every
verdict cross-check `InternalCriterionMismatch`, so both also run under
`python -O`.

The locus comes from `exactalg.solve_modular_system` as particular +
Σ c_i g_i, checked there once on those vectors, which covers every
member.  On it β(e,e) − Δ(e) is a quadratic form in the c_i, and
`h_idempotents`, which reports and the CLI share, finds its roots with
`exactalg.solve_quadratic` instead of visiting every member.
S⊗_R S⊗_R S is built for that system alone, and only where it has
unknowns: a locus of exactly {1⊗1}, as for every ring epimorphism, is
heavy in any ring, as β(1⊗1, 1⊗1) = 1⊗1⊗1 = Δ(1⊗1), so an
epimorphism's report builds no S⊗_R S⊗_R S.  The report still checks
the locus solve against the epimorphism criterion.  A ring retraction's
E(xy) = E(x)E(y) is quadratic in the same way on the linear solutions
of E∘φ = id, and `find_ring_retractions` solves it with the same
solver.  Both still run only on sets within the caller's cap.

S⊗_R S is also the Sweedler coring of the extension: comultiplication
sends a⊗b to a⊗1⊗b and the counit is multiplication, so a heavy
separability idempotent is exactly an invariant grouplike element of
that coring.  The heavy quadratic system is that equation; the test
suite checks it member by member as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exactalg import (
    AffineSolutionSet,
    CapExceeded,
    ConstructionCheckFailed,
    _int_array,
    exact_einsum,
    solve_modular_system,
    subgroup_basis,
    cokernel,
    solve_quadratic,
)
from .finring import RingHom, check_ring_hom
from .finring import balance_relations as _balance_relations
from .finring import phi_actions as _phi_actions

__all__ = [
    "TensorPower",
    "TripleTensorPower",
    "SeparabilityVerdict",
    "InternalCriterionMismatch",
    "UNDECIDED",
    "DEFAULT_CAP",
    "tensor_power",
    "separability_locus",
    "h_idempotents",
    "is_ring_epimorphism",
    "find_ring_retractions",
    "h_separability_report",
    "verdict_to_doc",
]

DEFAULT_CAP = 10**6
UNDECIDED = "undecided-by-enumeration"


class InternalCriterionMismatch(RuntimeError):
    """Two provably equivalent criteria disagreed: an implementation bug."""


class TensorPower:
    """S⊗_R S over φ: R → S; `triple` is S⊗_R S⊗_R S.

    The group is the cokernel of the balance relations
    (e_a·φ(r))⊗e_b − e_a⊗(φ(r)·e_b) on the k² pure tensors of basis
    elements, each of order the gcd of its slots' orders.  `np_project`
    maps pure-tensor coordinates onto canonical ones and `np_lift` is a
    section of it: the presentation's reduced arrays, or the identity
    when the presentation is.  Elements of S and of S⊗_R S are coordinate
    tuples.  Construction verifies, as exact matrix identities, that
    projection kills every balance relation and that multiplication is
    well defined on classes.  S⊗_R S⊗_R S is presented from this group,
    as (S⊗_R S)⊗_R S (`triple`).
    """

    def __init__(self, hom: RingHom):
        self.hom = hom
        s = hom.target
        k = self.k = s.k
        self.gens = k * k
        self.np_gen_moduli = np.gcd.outer(s.np_moduli, s.np_moduli).ravel()
        # gens x ncols, kept for the well-definedness checks
        self.relation_array = _balance_relations(*_phi_actions(hom))
        group = self.group = cokernel(self.relation_array, self.np_gen_moduli)
        self.np_moduli = _int_array(group.moduli, (group.rank,))
        if group.is_identity:
            self.np_project = self.np_lift = np.eye(self.gens, dtype=np.int64)
        else:
            self.np_project, self.np_lift = group.P, group.L
        self._verify_construction()

    # -- construction ---------------------------------------------------

    def _verify_construction(self):
        rel = self.relation_array
        if rel.shape[1] and (exact_einsum("rg,gc->rc", self.np_project, rel) % self.np_moduli[:, None]).any():
            raise ConstructionCheckFailed("projection does not kill a balance relation")
        if self.k:
            smod = self.hom.target.np_moduli[:, None]
            if rel.shape[1] and (exact_einsum("ag,gc->ac", self._raw_mult, rel) % smod).any():
                raise ConstructionCheckFailed("multiplication not balanced")
            if ((exact_einsum("ar,rg->ag", self.np_mult, self.np_project) - self._raw_mult) % smod).any():
                raise ConstructionCheckFailed("mult disagrees with the product on pure tensors")

    # -- numpy views -----------------------------------------------------

    @cached_property
    def _raw_mult(self):
        # raw map on generators: a⊗b -> a*b, shape (k, gens)
        t = self.hom.target.np_mul
        return t.transpose(2, 0, 1).reshape(self.k, self.gens).copy()

    @cached_property
    def np_mult(self):
        """Multiplication S⊗S → S on canonical coordinates (k x rank)."""
        smod = self.hom.target.np_moduli
        return exact_einsum("ag,gr->ar", self._raw_mult, self.np_lift) % smod[:, None]

    @cached_property
    def triple(self):
        """S⊗_R S⊗_R S, presented from this group and checked."""
        return TripleTensorPower(self)

    @cached_property
    def action_matrices(self):
        """(left, right): arrays of shape (k, rank, rank), canonical coords."""
        k, rank = self.k, self.group.rank
        t = self.hom.target.np_mul
        if self.group.is_identity:
            # s·(e_a⊗e_b) = (s·e_a)⊗e_b and (e_a⊗e_b)·s = e_a⊗(e_b·s): the
            # product table re-indexed
            eye = np.eye(k, dtype=np.int64)
            left = exact_einsum("sac,bd->scbad", t, eye).reshape(k, rank, rank)
            right = exact_einsum("ac,bsd->sadcb", eye, t).reshape(k, rank, rank)
        else:
            # contracted pairwise: k⁴·n + k³·n² multiply-adds instead of
            # k⁴·n², n = rank; 2·k⁵ against k⁶ when n = k, as for an epi
            p = self.np_project.reshape(rank, k, k)
            l = self.np_lift.reshape(k, k, rank)
            left = exact_einsum("rcb,scbq->srq", p, exact_einsum("sac,abq->scbq", t, l))
            right = exact_einsum("rac,sacq->srq", p, exact_einsum("bsc,abq->sacq", t, l))
        mods = self.np_moduli[None, :, None]
        return left % mods, right % mods

    @cached_property
    def action_difference(self):
        """Stacked (k*rank) x rank matrix of s·(−) − (−)·s conditions."""
        left, right = self.action_matrices
        k, rank = self.k, self.group.rank
        diff = (left - right).reshape(k * rank, rank)
        mods = np.tile(self.np_moduli, k)
        return diff % mods[:, None], mods

    @cached_property
    def one_one(self):
        unit = self.hom.target.unit
        return self.pure(unit, unit)

    @cached_property
    def locus(self):
        """Affine set of separability idempotents in canonical coordinates."""
        s = self.hom.target
        diff, dmods = self.action_difference
        a = np.vstack([self.np_mult, diff])
        b = list(s.unit) + [0] * diff.shape[0]
        mods = list(s.moduli) + dmods.tolist()
        return solve_modular_system(a, b, mods, unknown_moduli=self.group.moduli)

    # -- operations --------------------------------------------------------

    def pure(self, x, y):
        """Class of the pure tensor x⊗y of two coordinate tuples of S."""
        x, y = (_int_array(v, (self.k,)) for v in (x, y))
        return self.project(exact_einsum("a,b->ab", x, y).ravel())

    def project(self, raw):
        raw = _int_array(raw, (self.gens,))
        return tuple(int(x) for x in exact_einsum("rg,g->r", self.np_project, raw) % self.np_moduli)

    def lift(self, coords):
        coords = _int_array(coords, (self.group.rank,))
        return exact_einsum("gr,r->g", self.np_lift, coords) % self.np_gen_moduli

    def mult(self, coords):
        """a⊗b ↦ ab, the counit of the Sweedler coring, as coordinates of S."""
        out = exact_einsum("ar,r->a", self.np_mult, _int_array(coords, (self.group.rank,)))
        return tuple(int(x) for x in out % self.hom.target.np_moduli)

    def is_central(self, coords):
        diff, mods = self.action_difference
        vals = exact_einsum("ir,r->i", diff, _int_array(coords, (self.group.rank,))) % mods
        return not vals.any()

    def is_separability_idempotent(self, coords):
        """The linear conditions: mult(e) = 1 and s·e = e·s for every s."""
        s = self.hom.target
        return self.mult(coords) == s.unit and self.is_central(coords)

    def format_element(self, coords):
        """Formal sum Σ c · e_i⊗e_j over the ring basis."""
        labels = self.hom.target.basis_labels
        raw = self.lift(coords)
        terms = []
        for g in range(self.gens):
            c = int(raw[g])
            if not c:
                continue
            name = "%s⊗%s" % (labels[g // self.k], labels[g % self.k])
            terms.append(name if c == 1 else "%d*%s" % (c, name))
        return " + ".join(terms) if terms else "0"


class TripleTensorPower:
    """S⊗_R S⊗_R S, presented as (S⊗_R S)⊗_R S.

    The generators are x_i⊗e_b, for the canonical generators x_i of
    S⊗_R S (order d_i) and the basis e_b of S, each of order gcd(d_i, m_b).
    The relations are (x_i·φ(r))⊗e_b − x_i⊗(φ(r)·e_b), for every source
    basis element r; x_i·φ(r) is read off the right action of S on S⊗_R S.
    So the cokernel is solved on rank₂·k generators, not on the k³ pure
    tensors.  `group` is that cokernel, presented on the x_i⊗e_b.
    Projection and lift on the k³ pure tensors, `np_project` and
    `np_lift`, are composites through S⊗_R S: P = P_new·(P₂⊗I_k) and
    L = (L₂⊗I_k)·L_new.
    When P_new and L_new are the identity, as when the relations vanish,
    they are P₂⊗I_k and L₂⊗I_k, and nothing is multiplied.  P and L are
    built on first use: an M_n(Z/m)/(Z/m) report reads neither.

    Construction verifies, as exact matrix identities, that the right
    action agrees with the product on pure tensors, that P kills every
    balance relation of the pure tensors in slots (0,1) and (1,2), and
    that P·L is the identity on canonical coordinates.  The heavy forms
    read it through these arrays alone.
    """

    def __init__(self, square: TensorPower):
        hom = self.hom = square.hom
        s = hom.target
        k = self.k = square.k
        n = square.group.rank
        self.gens = k**3
        self.np_gen_moduli = np.gcd.outer(square.np_gen_moduli, s.np_moduli).ravel()
        actions = square.action_matrices[1]
        # right[r, i, j]: coordinate j of x_i·φ(r)
        right = exact_einsum("rs,sji->rij", hom.np_matrix, actions) % square.np_moduli
        gen_moduli = np.gcd.outer(square.np_moduli, s.np_moduli).ravel()
        rel = _balance_relations(right, _phi_actions(hom)[1])
        group = self.group = cokernel(rel, gen_moduli.tolist())
        self.np_moduli = _int_array(group.moduli, (group.rank,))
        rank = group.rank
        self._square = square
        if group.is_identity:
            self._project_new = self._lift_new = None
        else:
            self._project_new = group.P.reshape(rank, n, k)
            self._lift_new = group.L.reshape(n, k, rank)
        self._verify_presentation(square, actions)

    @cached_property
    def np_project(self):
        """P = P_new·(P₂⊗I_k), or P₂⊗I_k when P_new is the identity."""
        p2, k = self._square.np_project, self.k
        if self._project_new is None:
            p = exact_einsum("ia,cd->icad", p2, np.eye(k, dtype=np.int64))
        else:
            p = exact_einsum("ric,ia->rac", self._project_new, p2)
        return p.reshape(self.group.rank, self.gens) % self.np_moduli[:, None]

    @cached_property
    def np_lift(self):
        """L = (L₂⊗I_k)·L_new, or L₂⊗I_k when L_new is the identity."""
        l2, k = self._square.np_lift, self.k
        if self._lift_new is None:
            l = exact_einsum("ai,cd->acid", l2, np.eye(k, dtype=np.int64))
        else:
            l = exact_einsum("ai,icq->acq", l2, self._lift_new)
        return l.reshape(self.gens, self.group.rank) % self.np_gen_moduli[:, None]

    def _verify_presentation(self, square, actions):
        k, n, rank = self.k, square.group.rank, self.group.rank
        # P₂(e_a⊗e_b·e_s) = P₂(e_a⊗e_b)·e_s for every basis element s; when
        # S⊗S's presentation is the identity, P₂ = I and nothing is
        # multiplied: rhs[s, (a', c), a, b], coordinate (a', c) of
        # e_a⊗(e_b·e_s), is (e_b·e_s)_c when a' = a and 0 otherwise
        p2, identity, mul = square.np_project, square.group.is_identity, self.hom.target.np_mul
        if identity:
            lhs = actions.reshape(k, n, k, k)
            rhs = np.zeros((k, k, k, k, k), dtype=mul.dtype)
            a = np.arange(k)
            rhs[:, a, :, a, :] = mul.transpose(1, 2, 0)
            rhs = rhs.reshape(k, n, k, k)
        else:
            lhs = exact_einsum("sij,jg->sig", actions, p2).reshape(k, n, k, k)
            rhs = exact_einsum("jac,bsc->sjab", p2.reshape(n, k, k), mul)
        if ((lhs - rhs) % square.np_moduli[None, :, None, None]).any():
            raise ConstructionCheckFailed("right action disagrees with the product on pure tensors")
        # the balance relations of S⊗S⊗S are ρ⊗e_d (slots 0,1) and e_d⊗ρ
        # (slots 1,2), for the balance relations ρ of S⊗S
        rel = square.relation_array
        if rel.shape[1]:
            p3 = self.np_project.reshape(rank, k * k, k)
            slots01 = exact_einsum("gc,rgd->rcd", rel, p3)
            slots12 = exact_einsum("ag,gc->ac", self.np_project.reshape(rank * k, k * k), rel)
            if (slots01 % self.np_moduli[:, None, None]).any() or (
                slots12.reshape(rank, k * rel.shape[1]) % self.np_moduli[:, None]
            ).any():
                raise ConstructionCheckFailed("projection does not kill a balance relation of S⊗S⊗S")
        if self._project_new is None:
            # P·L = (P₂·L₂)⊗I_k, and each order gcd(d_i, m_c) divides d_i;
            # P₂·L₂ is L₂ when P₂ = I
            pl = square.np_lift if identity else exact_einsum("ig,gj->ij", p2, square.np_lift)
            pl_mods = square.np_moduli
        else:
            pl, pl_mods = exact_einsum("ig,gj->ij", self.np_project, self.np_lift), self.np_moduli
        if ((pl - np.eye(len(pl_mods), dtype=np.int64)) % pl_mods[:, None]).any():
            raise ConstructionCheckFailed("projection after lift is not the identity on S⊗S⊗S")


@lru_cache(maxsize=None)
def tensor_power(hom: RingHom, arity: int) -> TensorPower | TripleTensorPower:
    """S⊗_R S (arity 2) or S⊗_R S⊗_R S (arity 3), structure maps verified."""
    if arity == 2:
        return TensorPower(hom)
    if arity == 3:
        return tensor_power(hom, 2).triple
    raise ValueError("arity must be 2 or 3")


def separability_locus(hom: RingHom) -> AffineSolutionSet:
    """The exact affine set of separability idempotents of S/R."""
    return tensor_power(hom, 2).locus


def h_idempotents(t2: TensorPower):
    """The heavy separability idempotents, sorted: the roots of the heavy
    quadratic system on the locus.  The caller bounds the locus size.

    A locus of exactly {1⊗1}, as for a ring epimorphism, is heavy in any
    ring: β(1⊗1, 1⊗1) = 1⊗1·1⊗1 = 1⊗1⊗1 = Δ(1⊗1).  The system then has no
    unknowns and S⊗_R S⊗_R S is not built."""
    locus = t2.locus
    if locus.is_empty:
        return ()
    if not locus.kernel_generators and locus.particular == t2.one_one:
        return (t2.one_one,)
    forms, mods = _heavy_forms(t2)
    members = solve_quadratic(locus, forms, mods)
    return tuple(sorted(tuple(int(x) for x in row) for row in members))


def _heavy_forms(t2: TensorPower):
    """(Q, moduli) with ĉᵀQ_r ĉ coordinate r of β(e,e) − Δ(e) in S⊗_R S⊗_R S,
    at e = p + Σ c_i g_i on the locus, ĉ = (1, c).

    Q_r[u, v] is coordinate r of β(v_u, v_v) for v_0 = p and v_i = g_i,
    computed on their lifts, with Δ(v_v) folded into row 0: (n+1)² β
    evaluations.
    """
    locus, tri, k = t2.locus, t2.triple, t2.k
    n1 = 1 + len(locus.kernel_generators)
    vecs = _int_array((locus.particular,) + locus.kernel_generators, (n1, t2.group.rank))
    x = (exact_einsum("ur,gr->ug", vecs, t2.np_lift) % t2.np_gen_moduli).reshape(n1, k, k)
    s = t2.hom.target
    first = np.eye(n1, dtype=np.int64)[0]
    raw = exact_einsum("uab,bce,vcd->uvaed", x, s.np_mul, x) - exact_einsum(
        "u,vad,c->uvacd", first, x, _int_array(s.unit, (k,))
    )
    raw = raw.reshape(n1, n1, k**3)
    # P = P_new·(P₂⊗I_k) is the identity when both factors are
    if tri.group.is_identity and t2.group.is_identity:
        forms = raw.transpose(2, 0, 1)
    else:
        forms = exact_einsum("uvg,rg->ruv", raw, tri.np_project)
    return forms % tri.np_moduli[:, None, None], tri.np_moduli


def is_ring_epimorphism(hom: RingHom) -> bool:
    """Lemma criteria: mult bijective (2), cross-checked against 1⊗1 (3)."""
    t2 = tensor_power(hom, 2)
    s = hom.target
    _, orders = subgroup_basis(t2.np_mult.T, s.moduli)
    surjective = math.prod(orders) == s.order
    crit2 = surjective and t2.group.order == s.order
    crit3 = t2.is_separability_idempotent(t2.one_one)
    if crit2 != crit3:
        raise InternalCriterionMismatch(
            "multiplication-bijectivity and 1⊗1 criteria disagree on %r" % (hom,)
        )
    return crit2


def find_ring_retractions(hom: RingHom, cap=DEFAULT_CAP):
    """All ring homs E: S → R with E∘φ = id: E∘φ = id and E(1) = 1 are
    solved as a linear system, E(xy) = E(x)E(y) as a quadratic one on it."""
    src, tgt = hom.source, hom.target
    kr, ks = src.k, tgt.k
    nx = kr * ks  # unknown l·ks + j is coordinate l of E(e_j)
    eye = np.eye(kr, dtype=np.int64)
    # E(e_j) is killed by the order of e_j, E∘φ = id and E(1) = 1, with
    # each congruence on coordinate l of E taken modulo src.moduli[l]
    rows = np.vstack([
        np.diag(np.tile(tgt.np_moduli, kr)),
        exact_einsum("ij,lm->ilmj", hom.np_matrix, eye).reshape(kr * kr, nx),
        exact_einsum("lm,j->lmj", eye, _int_array(tgt.unit, (ks,))).reshape(kr, nx),
    ])
    b = [0] * nx + eye.ravel().tolist() + list(src.unit)
    unknown = tuple(m for m in src.moduli for _ in range(ks))
    mods = unknown + src.moduli * kr + src.moduli
    sol = solve_modular_system(rows, b, mods, unknown_moduli=unknown)
    if sol.is_empty:
        return ()
    if sol.size > cap:
        raise CapExceeded(sol.size)
    # E(e_i e_j) − E(e_i)E(e_j), coordinate l, is quadratic on E = v_0 + Σ c_u v_u
    n1 = 1 + len(sol.kernel_generators)
    vecs = _int_array((sol.particular,) + sol.kernel_generators, (n1, kr, ks))
    forms = -exact_einsum("uai,vbj,abl->ijluv", vecs, vecs, src.np_mul)
    forms[..., 0, :] += exact_einsum("ijc,ulc->ijlu", tgt.np_mul, vecs)
    members = solve_quadratic(sol, forms.reshape(ks * ks * kr, n1, n1), src.moduli * (ks * ks))
    found = [check_ring_hom(tuple(map(tuple, m.reshape(kr, ks).T.tolist())), tgt, src) for m in members]
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
        if self.is_h_separable is True and not self.is_separable:
            raise InternalCriterionMismatch("h-separable but not separable")
        if self.is_ring_epi and self.is_h_separable is not True:
            raise InternalCriterionMismatch("ring epimorphism but not h-separable")
        if self.notes["image_central"] and self.is_h_separable != self.is_ring_epi:
            raise InternalCriterionMismatch("central image, but h-separability differs from epi")
        return True


def h_separability_report(hom: RingHom, cap=DEFAULT_CAP) -> SeparabilityVerdict:
    """Full verdict for S/R: separable, h-separable, ring epi, witnesses.

    h-separability is decided by solving the heavy condition on the
    separability locus, when the locus is within the cap; the ring-epi and
    central-image shortcuts are computed independently and any
    disagreement with the solved verdict is a fatal internal error.  The
    report keys keep their names: "enumeration" is the solver's verdict.
    """
    t2 = tensor_power(hom, 2)
    locus = t2.locus
    is_sep = not locus.is_empty
    epi = is_ring_epimorphism(hom)
    central = hom.is_image_central()
    target_comm = hom.target.is_commutative
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
        if h_state is True:
            raise InternalCriterionMismatch("h-separable with an empty separability locus")
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
        "notes": dict(verdict.notes),
    }
    return doc
