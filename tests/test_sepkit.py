"""Tensor powers, idempotent loci, epi decision, retractions, reports."""

import pytest

from corpus_util import build_corpus, zmod
from sepkit_util import (
    NotSeparabilityIdempotent,
    beta,
    contains,
    is_h_idempotent,
    sweedler_delta,
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


def add_coords(group, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, group.moduli))


HOMS, STD = build_corpus()


class TestTensorPower:
    def test_identity_tensor_is_base(self):
        t2 = tensor_power(HOMS["id_z6"], 2)
        assert t2.group.order == 6
        one = t2.hom.target.one()
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
            img = hom.target.element(hom.matrix[ri])
            for a in range(s.k):
                for b in range(s.k):
                    x, y = s.basis_element(a), s.basis_element(b)
                    assert t2.pure(x * img, y) == t2.pure(x, img * y)

    def test_mult_and_delta_on_pure(self):
        hom = HOMS["f2_diag_f2sq"]
        t2 = tensor_power(hom, 2)
        s = hom.target
        for a in range(s.k):
            for b in range(s.k):
                x, y = s.basis_element(a), s.basis_element(b)
                e = t2.pure(x, y)
                assert t2.mult(e).coords == (x * y).coords
                assert sweedler_delta(t2, e) == t2.triple.pure(x, s.one(), y)

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
        e11 = s.basis_element(by_label["E11"])
        e21 = s.basis_element(by_label["E21"])
        e12 = s.basis_element(by_label["E12"])
        e = add_coords(t2.group, t2.pure(e11, e11), t2.pure(e21, e12))
        assert t2.is_separability_idempotent(e)
        locus = separability_locus(hom)
        assert contains(locus, e)

    def test_diagonal_locus_membership(self):
        hom = HOMS["f2_diag_f2sq"]
        t2 = tensor_power(hom, 2)
        s = hom.target
        e1 = s.element((1, 0))
        e2 = s.element((0, 1))
        e = add_coords(t2.group, t2.pure(e1, e1), t2.pure(e2, e2))
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
        s = hom.target
        e1, e2 = s.element((1, 0)), s.element((0, 1))
        e = add_coords(t2.group, t2.pure(e1, e1), t2.pure(e2, e2))
        assert not is_h_idempotent(t2, e)
        # the surviving cross term is e1⊗e2⊗e1 + e2⊗e1⊗e2
        lhs = beta(t2, e, e)
        rhs = sweedler_delta(t2, e)
        t3 = t2.triple
        cross = add_coords(
            t3.group, t3.pure(e1, e2, e1), t3.pure(e2, e1, e2)
        )
        assert lhs == add_coords(t3.group, rhs, cross)

    def test_matrix_idempotent_not_heavy(self):
        hom = HOMS["f2_into_m2"]
        t2 = tensor_power(hom, 2)
        s = hom.target
        by_label = {lab: i for i, lab in enumerate(s.basis_labels)}
        e = add_coords(
            t2.group,
            t2.pure(s.basis_element(by_label["E11"]), s.basis_element(by_label["E11"])),
            t2.pure(s.basis_element(by_label["E21"]), s.basis_element(by_label["E12"])),
        )
        assert not is_h_idempotent(t2, e)

    def test_precondition_enforced(self):
        t2 = tensor_power(HOMS["f2_diag_f2sq"], 2)
        with pytest.raises(NotSeparabilityIdempotent):
            is_h_idempotent(t2, t2.group.zero())


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
        one, x = s.one(), s.basis_element(1)
        # 2*(1⊗1 − i⊗i) with i² = −1
        expected = add_coords(
            t2.group,
            t2.pure(2 * one, one),
            t2.pure(2 * (-x), x),
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
            assert power.group.moduli == (10**6,) and power.one_one == (1,)
