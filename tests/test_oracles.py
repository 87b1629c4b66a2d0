"""Independent brute-force oracles for the tensor-power machinery.

Everything here recomputes results with plain loops and set arithmetic,
sharing no code path with the solver / einsum implementations, except
that the direct presentation of S⊗S⊗S goes through `exactalg.cokernel`.
"""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build_corpus, zmod
from finring_util import _unit_vector, add, mul
from sepkit_util import is_h_idempotent, triple_class

from hsep.exactalg import cokernel
from hsep.finring import construct_standard_ring, hom_from_doc
from hsep.sepkit import separability_locus, tensor_power

HOMS, STD = build_corpus()
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def balance_relation_vectors(hom, arity):
    """Balance relations as tuples, written with `finring_util.mul`."""
    s, r = hom.target, hom.source
    k = s.k
    gens = k**arity
    vectors = []
    slots = list(range(arity - 1))
    for ri in range(r.k):
        img = hom.matrix[ri]
        for fixed in itertools.product(range(k), repeat=arity - 2):
            for a in range(k):
                for b in range(k):
                    for slot in slots:
                        vec = [0] * gens
                        left = mul(s, _unit_vector(k, a), img)
                        right = mul(s, img, _unit_vector(k, b))
                        for c in range(k):
                            pos = list(fixed[:slot]) + [c, b] + list(fixed[slot:])
                            idx = 0
                            for p in pos:
                                idx = idx * k + p
                            vec[idx] += left[c]
                            pos = list(fixed[:slot]) + [a, c] + list(fixed[slot:])
                            idx = 0
                            for p in pos:
                                idx = idx * k + p
                            vec[idx] -= right[c]
                        if any(vec):
                            vectors.append(tuple(vec))
    return vectors


def subgroup_closure(vectors, moduli):
    """Orbit closure of the subgroup generated by the vectors."""
    zero = tuple([0] * len(moduli))
    gens = [tuple(v % m for v, m in zip(vec, moduli)) for vec in vectors]
    gens = [v for v in gens if any(v)]
    group = {zero}
    queue = [zero]
    while queue:
        x = queue.pop()
        for g in gens:
            y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
            if y not in group:
                group.add(y)
                queue.append(y)
    return group


class TestPresentationOracle:
    def test_t2_into_m2_quotient_matches_closure(self):
        # ambient (Z/2)^16; the balance subgroup computed by raw closure
        hom = HOMS["t2_into_m2"]
        t2 = tensor_power(hom, 2)
        moduli = t2.np_gen_moduli.tolist()
        relations = balance_relation_vectors(hom, 2)
        subgroup = subgroup_closure(relations, moduli)
        ambient = 1
        for m in moduli:
            ambient *= m
        assert t2.group.order == ambient // len(subgroup)
        # membership in the closure agrees with equality of projections
        rng = random.Random(4242)
        for _ in range(300):
            x = tuple(rng.randrange(m) for m in moduli)
            y = tuple(rng.randrange(m) for m in moduli)
            diff = tuple((a - b) % m for a, b, m in zip(x, y, moduli))
            same_class = diff in subgroup
            assert (t2.project(x) == t2.project(y)) == same_class

    def test_z4_to_z2_closure(self):
        hom = HOMS["z4_to_z2"]
        t2 = tensor_power(hom, 2)
        relations = balance_relation_vectors(hom, 2)
        subgroup = subgroup_closure(relations, t2.np_gen_moduli.tolist())
        assert len(subgroup) == 1
        assert t2.group.order == 2


class TestLocusOracle:
    def test_f2_square_locus_by_elementwise_enumeration(self):
        hom = HOMS["f2_diag_f2sq"]
        s = hom.target
        t2 = tensor_power(hom, 2)
        k = s.k
        # here the tensor square is free over the generators, so the
        # canonical coordinates are a permutation of the raw ones
        assert t2.group.order == 16
        solutions = set()
        for raw in itertools.product(range(2), repeat=k * k):
            total = (0,) * k
            for a in range(k):
                for b in range(k):
                    if raw[a * k + b]:
                        total = add(s, total, mul(s, _unit_vector(k, a), _unit_vector(k, b)))
            if total != s.unit:
                continue
            central = True
            for si in range(k):
                e_s = _unit_vector(k, si)
                left = [0] * (k * k)
                right = [0] * (k * k)
                for a in range(k):
                    for b in range(k):
                        c = raw[a * k + b]
                        if not c:
                            continue
                        sa = mul(s, e_s, _unit_vector(k, a))
                        for cc in range(k):
                            left[cc * k + b] = (left[cc * k + b] + c * sa[cc]) % 2
                        bs = mul(s, _unit_vector(k, b), e_s)
                        for cc in range(k):
                            right[a * k + cc] = (right[a * k + cc] + c * bs[cc]) % 2
                if left != right:
                    central = False
                    break
            if central:
                solutions.add(t2.project(raw))
        locus = separability_locus(hom)
        assert solutions == set(locus.members())


class TestHeavyOracle:
    def formal_heavy_check(self, hom, member):
        """Both sides of the heavy equation expanded with plain loops."""
        s = hom.target
        t2 = tensor_power(hom, 2)
        t3 = tensor_power(hom, 3)
        k = s.k
        raw = [int(x) for x in t2.lift(member)]
        lhs = [0] * (k**3)
        # sum over pairs of pure terms: a⊗b and c⊗d give a⊗(bc)⊗d
        for a in range(k):
            for b in range(k):
                cab = raw[a * k + b]
                if not cab:
                    continue
                for c in range(k):
                    for d in range(k):
                        ccd = raw[c * k + d]
                        if not ccd:
                            continue
                        prod = mul(s, _unit_vector(k, b), _unit_vector(k, c))
                        for e in range(k):
                            if prod[e]:
                                lhs[(a * k + e) * k + d] += cab * ccd * prod[e]
        rhs = [0] * (k**3)
        for a in range(k):
            for b in range(k):
                cab = raw[a * k + b]
                if not cab:
                    continue
                for e in range(k):
                    if s.unit[e]:
                        rhs[(a * k + e) * k + b] += cab * s.unit[e]
        return triple_class(t3, lhs) == triple_class(t3, rhs)

    def test_formal_expansion_agrees_with_filter(self):
        for name in ("f2_diag_f2sq", "t2_into_m2", "f3_into_f9", "f2_into_m2"):
            hom = HOMS[name]
            t2 = tensor_power(hom, 2)
            for member in separability_locus(hom).members(cap=512):
                assert self.formal_heavy_check(hom, member) == is_h_idempotent(
                    t2, member
                ), (name, member)


def direct_triple(hom):
    """S⊗_R S⊗_R S presented directly on the k³ pure tensors, each of order
    the gcd of its slots' orders: every balance relation in slots (0,1)
    and (1,2), passed to `cokernel`."""
    s, k = hom.target, hom.target.k
    gen_moduli = [
        math.gcd(math.gcd(s.moduli[a], s.moduli[b]), s.moduli[c])
        for a in range(k)
        for b in range(k)
        for c in range(k)
    ]
    cols = sorted(set(balance_relation_vectors(hom, 3)))
    rel = np.array(cols, dtype=np.int64).reshape(len(cols), k**3).T
    return cokernel(rel, gen_moduli), gen_moduli


def dense(pres):
    """P and L of a presentation as int64 arrays, the identity spelled out."""
    if pres.is_identity:
        eye = np.eye(pres.generator_count, dtype=np.int64)
        return eye, eye
    return pres.P.astype(np.int64), pres.L.astype(np.int64)


def beta_unbalanced(t2, p3, mods3):
    """The slot, "left" or "right", in which β is not constant on classes
    under the projection p3 of the k³ pure tensors, or None: β(δ, y) and
    β(y, δ) must vanish for every balance relation δ of S⊗S and every
    pure generator y."""
    k = t2.k
    if k == 0:
        return None
    t = t2.hom.target.np_mul
    p3 = p3.reshape(-1, k, k, k)
    for x in t2.relation_array.T.reshape(-1, k, k):
        # β(δ, e_c⊗e_d) = (δ·e_c)⊗e_d
        z = np.einsum("ab,bce->ace", x, t)
        if (np.einsum("raed,ace->rcd", p3, z) % mods3[:, None, None]).any():
            return "left"
        # β(e_a⊗e_b, δ) = e_a⊗(e_b·δ)
        z = np.einsum("bce,cd->bed", t, x)
        if (np.einsum("raed,bed->rab", p3, z) % mods3[:, None, None]).any():
            return "right"
    return None


def oracle_homs():
    homs = dict(HOMS)
    for path in sorted(CORPUS.glob("*/hom.json")):
        homs["corpus/" + path.parent.name] = hom_from_doc(json.loads(path.read_text()), path.parent)
    for m in range(2, 10):
        base = zmod(m)
        homs["T2(Z/%d)" % m] = construct_standard_ring("triangular", {"base": base, "n": 2}).homs["into_matrix"]
        homs["M2(Z/%d)" % m] = construct_standard_ring("matrix", {"base": base, "n": 2}).homs["scalar"]
    return homs


ORACLE_HOMS = oracle_homs()


class TestTripleOracle:
    """S⊗S⊗S built as (S⊗S)⊗S against the direct k³ presentation.  Both
    take projections on the same k³ pure tensors, so they agree iff their
    invariant factors and their kernels agree."""

    @pytest.mark.parametrize("name", sorted(ORACLE_HOMS))
    def test_same_group_and_kernel(self, name):
        hom = ORACLE_HOMS[name]
        t3 = tensor_power(hom, 3)
        direct, gen_moduli = direct_triple(hom)
        assert t3.group.moduli == direct.moduli
        mods = np.array(direct.moduli, dtype=np.int64)[:, None]
        p_old, l_old = dense(direct)
        p_new, l_new = t3.np_project, t3.np_lift
        # ker P_old = {x − L_old·P_old·x}, so P kills it iff P·L_old·P_old ≡ P
        assert not (((p_new @ l_old % mods) @ p_old - p_new) % mods).any()
        assert not (((p_old @ l_new % mods) @ p_new - p_old) % mods).any()

    @pytest.mark.parametrize("name", sorted(ORACLE_HOMS))
    def test_beta_balanced(self, name):
        # β(δ, y) is a combination of the relations ρ⊗e_d and β(y, δ) of
        # e_d⊗ρ, which construction checks P to kill; this recomputes β
        t2 = tensor_power(ORACLE_HOMS[name], 2)
        assert beta_unbalanced(t2, t2.triple.np_project, t2.triple.np_moduli) is None

    def test_beta_oracle_sees_an_identity_projection(self):
        # the identity on the k³ pure tensors kills no balance relation
        t2 = tensor_power(STD["t2"].homs["into_matrix"], 2)
        gens = t2.k**3
        eye = np.eye(gens, dtype=np.int64)
        assert beta_unbalanced(t2, eye, np.full(gens, 2, dtype=np.int64)) == "left"
