"""Tensor powers, idempotent loci, epi decision, retractions, reports."""

import pytest

from corpus_util import build_corpus, zmod
from finring_util import _unit_vector, add, mul, scale
from sepkit_util import (
    NotSeparabilityIdempotent,
    beta,
    contains,
    is_h_idempotent,
    sweedler_delta,
    triple_pure,
    verify_coring_laws,
    verify_member,
)

from hsep.finring import check_ring_hom, construct_standard_ring, identity_hom
from hsep.sepkit import (
    UNDECIDED,
    find_ring_retractions,
    h_separability_report,
    is_ring_epimorphism,
    separability_locus,
    tensor_power,
    verdict_to_doc,
)


HOMS, STD = build_corpus()


class TestTensorPower:
    def test_identity_tensor_is_base(self):
        t2 = tensor_power(HOMS["id_z6"], 2)
        assert t2.group.order == 6
        one = t2.hom.target.unit
        assert any(t2.pure(one, one))

    def test_z4_to_z2_collapse(self):
        # oracle: one generator of order gcd(2,2)=2; balance relations for
        # r = 1, 2, 3 are integer multiples of the basis relation, all zero
        t2 = tensor_power(HOMS["z4_to_z2"], 2)
        assert t2.group.order == 2

    def test_f2_diagonal_no_collapse(self):
        t2 = tensor_power(HOMS["f2_diag_f2sq"], 2)
        assert t2.group.order == 16

    def test_pure_is_balanced(self):
        # (x·φ(r))⊗y == x⊗(φ(r)·y) as classes, for every basis triple
        hom = HOMS["t2_into_m2"]
        t2 = tensor_power(hom, 2)
        s, r = hom.target, hom.source
        for ri in range(r.k):
            img = hom.matrix[ri]
            for a in range(s.k):
                for b in range(s.k):
                    x, y = _unit_vector(s.k, a), _unit_vector(s.k, b)
                    assert t2.pure(mul(s, x, img), y) == t2.pure(x, mul(s, img, y))

    def test_mult_and_delta_on_pure(self):
        hom = HOMS["f2_diag_f2sq"]
        t2 = tensor_power(hom, 2)
        s = hom.target
        for a in range(s.k):
            for b in range(s.k):
                x, y = _unit_vector(s.k, a), _unit_vector(s.k, b)
                e = t2.pure(x, y)
                assert t2.mult(e) == mul(s, x, y)
                assert sweedler_delta(t2, e) == triple_pure(t2.triple, x, s.unit, y)

    def test_coring_counit_laws(self):
        for name in ("id_f2", "z4_to_z2", "f2_diag_f2sq", "t2_into_m2", "f3_into_f9"):
            assert verify_coring_laws(tensor_power(HOMS[name], 2)), name

    def test_triple_order(self):
        t3 = tensor_power(HOMS["z4_to_z2"], 3)
        assert t3.group.order == 2


class TestSeparabilityLocus:
    def test_identity_locus_is_one_tensor_one(self):
        t2 = tensor_power(HOMS["id_z6"], 2)
        locus = separability_locus(HOMS["id_z6"])
        assert locus.size == 1
        assert locus.members() == [t2.one_one]

    def test_matrix_standard_idempotent(self):
        # Σ_i E_i1 ⊗ E_1i, verified by substitution
        hom = HOMS["f2_into_m2"]
        t2 = tensor_power(hom, 2)
        s = hom.target
        by_label = {lab: i for i, lab in enumerate(s.basis_labels)}
        e11 = _unit_vector(s.k, by_label["E11"])
        e21 = _unit_vector(s.k, by_label["E21"])
        e12 = _unit_vector(s.k, by_label["E12"])
        e = add(t2.group, t2.pure(e11, e11), t2.pure(e21, e12))
        assert t2.is_separability_idempotent(e)
        locus = separability_locus(hom)
        assert contains(locus, e)

    def test_diagonal_locus_membership(self):
        hom = HOMS["f2_diag_f2sq"]
        t2 = tensor_power(hom, 2)
        s = hom.target
        e1 = (1, 0)
        e2 = (0, 1)
        e = add(t2.group, t2.pure(e1, e1), t2.pure(e2, e2))
        locus = separability_locus(hom)
        assert contains(locus, e)
        assert not contains(locus, t2.one_one)
        for member in locus.members():
            assert verify_member(locus, member)


class TestHIdempotent:
    def test_one_tensor_one_is_heavy_for_epis(self):
        for name in ("id_f2", "z4_to_z2", "t2_into_m2", "z6_quotient"):
            t2 = tensor_power(HOMS[name], 2)
            assert is_h_idempotent(t2, t2.one_one), name

    def test_diagonal_idempotent_not_heavy(self):
        hom = HOMS["f2_diag_f2sq"]
        t2 = tensor_power(hom, 2)
        e1, e2 = (1, 0), (0, 1)
        e = add(t2.group, t2.pure(e1, e1), t2.pure(e2, e2))
        assert not is_h_idempotent(t2, e)
        # the surviving cross term is e1⊗e2⊗e1 + e2⊗e1⊗e2
        lhs = beta(t2, e, e)
        rhs = sweedler_delta(t2, e)
        t3 = t2.triple
        cross = add(
            t3.group, triple_pure(t3, e1, e2, e1), triple_pure(t3, e2, e1, e2)
        )
        assert lhs == add(t3.group, rhs, cross)

    def test_matrix_idempotent_not_heavy(self):
        hom = HOMS["f2_into_m2"]
        t2 = tensor_power(hom, 2)
        s = hom.target
        by_label = {lab: i for i, lab in enumerate(s.basis_labels)}
        e = add(
            t2.group,
            t2.pure(_unit_vector(s.k, by_label["E11"]), _unit_vector(s.k, by_label["E11"])),
            t2.pure(_unit_vector(s.k, by_label["E21"]), _unit_vector(s.k, by_label["E12"])),
        )
        assert not is_h_idempotent(t2, e)

    def test_precondition_enforced(self):
        t2 = tensor_power(HOMS["f2_diag_f2sq"], 2)
        with pytest.raises(NotSeparabilityIdempotent):
            is_h_idempotent(t2, (0,) * t2.group.rank)


class TestRingEpimorphism:
    def test_surjections_are_epi(self):
        assert is_ring_epimorphism(HOMS["z4_to_z2"])
        assert is_ring_epimorphism(HOMS["z6_to_z2"])
        assert is_ring_epimorphism(HOMS["z6_quotient"])

    def test_triangular_inclusion_is_epi(self):
        assert is_ring_epimorphism(HOMS["t2_into_m2"])
        assert is_ring_epimorphism(HOMS["t3_into_m3"])

    def test_diagonal_is_not_epi(self):
        # two distinct projections agree on the image
        assert not is_ring_epimorphism(HOMS["f2_diag_f2sq"])

    def test_identity_is_epi(self):
        assert is_ring_epimorphism(HOMS["id_m2"])


class TestRetractions:
    def test_identity(self):
        homs = find_ring_retractions(HOMS["id_z6"])
        assert len(homs) == 1
        assert homs[0].matrix == identity_hom(zmod(6)).matrix

    def test_diagonal_two_projections(self):
        homs = find_ring_retractions(HOMS["f2_diag_f2sq"])
        assert len(homs) == 2
        assert sorted(h.matrix for h in homs) == [((0,), (1,)), ((1,), (0,))]

    def test_field_extension_has_none(self):
        assert find_ring_retractions(HOMS["f3_into_f9"]) == ()
        assert find_ring_retractions(HOMS["f2_into_m2"]) == ()

    def test_split_quotient(self):
        homs = find_ring_retractions(HOMS["f2_into_dual"])
        assert len(homs) == 1


class TestReport:
    def test_triangular_into_matrix(self):
        v = h_separability_report(HOMS["t2_into_m2"])
        t2 = tensor_power(HOMS["t2_into_m2"], 2)
        assert v.is_h_separable is True
        assert v.is_ring_epi
        assert v.h_witnesses == (t2.one_one,)
        assert v.notes["locus_size"] == 1

    def test_matrix_over_field(self):
        v = h_separability_report(HOMS["f2_into_m2"])
        assert v.is_separable
        assert v.is_h_separable is False
        assert not v.is_ring_epi
        assert v.notes["image_central"]

    def test_f9_over_f3_unique_idempotent(self):
        hom = HOMS["f3_into_f9"]
        v = h_separability_report(hom)
        assert v.is_separable and v.is_h_separable is False
        assert v.sep_locus.size == 1
        t2 = tensor_power(hom, 2)
        s = hom.target
        one, x = s.unit, _unit_vector(s.k, 1)
        # 2*(1⊗1 − i⊗i) with i² = −1
        expected = add(
            t2.group,
            t2.pure(scale(s, 2, one), one),
            t2.pure(scale(s, -2, x), x),
        )
        assert v.sep_locus.members() == [expected]

    def test_central_image_decides_even_when_capped(self):
        # central image: the epi equivalence is exact, so capping the
        # enumeration must not degrade the verdict to undecided
        v = h_separability_report(HOMS["f2_into_m2"], cap=1)
        assert v.is_h_separable is False
        assert v.notes["enumeration_ran"] is False
        assert v.notes["h_decided_by"] == "central-image-shortcut"

    def test_undecided_when_capped_noncentral(self):
        f2 = zmod(2)
        f2sq = construct_standard_ring("product", {"factors": [f2, f2]}).ring
        m2 = STD["m2"].ring
        by_label = {lab: i for i, lab in enumerate(m2.basis_labels)}
        cols = [
            tuple(1 if i == by_label["E11"] else 0 for i in range(m2.k)),
            tuple(1 if i == by_label["E22"] else 0 for i in range(m2.k)),
        ]
        diag = check_ring_hom(cols, f2sq, m2)
        capped = h_separability_report(diag, cap=1)
        assert capped.is_h_separable == UNDECIDED
        full = h_separability_report(diag)
        assert full.is_h_separable in (True, False)

    def test_report_doc_shape(self):
        doc = verdict_to_doc(h_separability_report(HOMS["f3_into_f9"]))
        assert doc["separable"] is True
        assert doc["h_separable"] is False
        assert doc["locus_size"] == 1
        assert doc["retraction_count"] == 0

    def test_zero_ring_is_heavy(self):
        v = h_separability_report(HOMS["id_zero"])
        assert v.is_h_separable is True
        assert v.is_ring_epi

    def test_huge_moduli_decided_not_overflowed(self):
        from hsep.finring import construct_ring, identity_hom

        big = construct_ring((10**6,), (((1,),),), (1,), "Z/1e6")
        for arity in (2, 3):
            power = tensor_power(identity_hom(big), arity)
            one_one = power.one_one if arity == 2 else triple_pure(power, (1,), (1,), (1,))
            assert power.group.moduli == (10**6,) and one_one == (1,)
