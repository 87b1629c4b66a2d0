"""Corpus-wide laws: implication chain, composition, products, triviality."""

import numpy as np

from corpus_util import build_corpus, zmod
from finring_util import mul, product_idempotents
from sepkit_util import is_h_idempotent, verify_coring_laws

from hsep.finring import compose_homs, construct_standard_ring
from hsep.sepkit import (
    h_separability_report,
    is_ring_epimorphism,
    tensor_power,
)

HOMS, STD = build_corpus()
REPORTS = {name: h_separability_report(hom) for name, hom in HOMS.items()}


class TestCriteriaAgreement:
    def test_epi_criteria_agree_everywhere(self):
        # is_ring_epimorphism raises InternalCriterionMismatch on disagreement
        for name, hom in HOMS.items():
            is_ring_epimorphism(hom)

    def test_one_tensor_one_heavy_iff_separability(self):
        # conditions (3) and (4): 1⊗1 separability idempotent iff heavy
        for name, hom in HOMS.items():
            t2 = tensor_power(hom, 2)
            if t2.is_separability_idempotent(t2.one_one):
                assert is_h_idempotent(t2, t2.one_one), name

    def test_uniqueness_when_one_tensor_one_in_locus(self):
        for name, v in REPORTS.items():
            if v.notes["one_tensor_one_separability"]:
                assert v.sep_locus.size == 1, name


class TestImplicationChain:
    def test_epi_implies_h_implies_separable(self):
        for name, v in REPORTS.items():
            if v.is_ring_epi:
                assert v.is_h_separable is True, name
            if v.is_h_separable is True:
                assert v.is_separable, name

    def test_verdict_invariants(self):
        for v in REPORTS.values():
            assert v.check_invariants()


class TestCentralImage:
    def test_equivalence_and_commutativity(self):
        for name, (hom, v) in {n: (HOMS[n], REPORTS[n]) for n in HOMS}.items():
            if hom.is_image_central():
                assert v.is_h_separable == v.is_ring_epi, name
                if v.is_h_separable is True:
                    assert hom.target.is_commutative, name


class TestComposition:
    CHAINS = [
        ("z8_to_z4", "z4_to_z2"),
        ("z6_to_z2", "id_f2"),
        ("t2_into_m2", "id_m2"),
    ]

    def test_both_heavy_implies_composite_heavy(self):
        for first_name, second_name in self.CHAINS:
            first, second = HOMS[first_name], HOMS[second_name]
            comp = compose_homs(second, first)
            v1, v2 = REPORTS[first_name], REPORTS[second_name]
            vc = h_separability_report(comp)
            if v1.is_h_separable is True and v2.is_h_separable is True:
                assert vc.is_h_separable is True, (first_name, second_name)
            if vc.is_h_separable is True:
                assert v2.is_h_separable is True, (first_name, second_name)

    def test_composite_heavy_implies_second_step_heavy(self):
        # F_2 → T_2 → M_2: composite is the scalar embedding, not heavy;
        # consistent with the second step being heavy
        f2_to_t2 = STD["t2"].homs["scalar"]
        comp = compose_homs(HOMS["t2_into_m2"], f2_to_t2)
        vc = h_separability_report(comp)
        assert vc.is_h_separable is False
        assert REPORTS["t2_into_m2"].is_h_separable is True
        assert h_separability_report(f2_to_t2).is_h_separable is False


class TestProductCriterion:
    def check_product(self, hom_a, hom_b):
        std = construct_standard_ring("product", {"homs": [hom_a, hom_b]})
        unit = std.homs["unit"]
        t2 = tensor_power(unit, 2)
        e0, e1 = product_idempotents(std)
        zero = (0,) * t2.group.rank
        cross_vanish = t2.pure(e0, e1) == zero and t2.pure(e1, e0) == zero
        va = h_separability_report(hom_a)
        vb = h_separability_report(hom_b)
        vs = h_separability_report(unit)
        expected = va.is_h_separable is True and vb.is_h_separable is True and cross_vanish
        assert (vs.is_h_separable is True) == expected
        return vs, cross_vanish

    def test_f2_square_over_f2(self):
        from hsep.finring import identity_hom

        f2 = zmod(2)
        vs, cross = self.check_product(identity_hom(f2), identity_hom(f2))
        assert not cross
        assert vs.is_h_separable is False

    def test_product_over_itself_is_heavy(self):
        # base R = F_2 x F_2, factors A = B = F_2 via the two projections:
        # S = A x B is isomorphic to R, so S/R is heavy
        f2sq = STD["f2sq"]
        vs, cross = self.check_product(f2sq.homs["proj_0"], f2sq.homs["proj_1"])
        assert cross
        assert vs.is_h_separable is True

    def test_mixed_product(self):
        from hsep.finring import identity_hom

        f2 = zmod(2)
        f2c2_scalar = STD["f2c2"].homs["scalar"]
        vs, cross = self.check_product(identity_hom(f2), f2c2_scalar)
        assert vs.is_h_separable is False


class TestFieldTriviality:
    def test_algebras_over_prime_fields(self):
        # any F_p-algebra with more than p elements is not heavy
        for name in (
            "f3_into_f9",
            "f2_into_f4",
            "f2_into_m2",
            "f2_into_f2c2",
            "f3_into_f3c3",
            "f2_into_tensor",
            "f2_into_dual",
        ):
            hom = HOMS[name]
            assert hom.is_image_central(), name
            assert hom.target.order > hom.source.order, name
            assert REPORTS[name].is_h_separable is False, name


class TestRandomInstances:
    def test_random_modular_surjections_are_heavy(self):
        import random

        from hsep.finring import check_ring_hom

        rng = random.Random(31)
        for _ in range(10):
            n = rng.choice([4, 6, 8, 9, 12])
            m = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            hom = check_ring_hom(((1,),), zmod(n), zmod(m))
            v = h_separability_report(hom)
            assert v.is_ring_epi and v.is_h_separable is True
            assert v.sep_locus.size == 1

    def test_random_modular_products_follow_crt(self):
        # Z/n -> Z/a x Z/b is an epimorphism exactly when gcd(a, b) = 1,
        # and heaviness must match because the image is central
        import math
        import random

        from hsep.finring import check_ring_hom

        rng = random.Random(77)
        for _ in range(8):
            n = rng.choice([4, 6, 12])
            divs = [d for d in range(2, n + 1) if n % d == 0]
            a, b = rng.choice(divs), rng.choice(divs)
            hom_a = check_ring_hom(((1,),), zmod(n), zmod(a))
            hom_b = check_ring_hom(((1,),), zmod(n), zmod(b))
            std = construct_standard_ring("product", {"homs": [hom_a, hom_b]})
            v = h_separability_report(std.homs["unit"])
            expected = math.gcd(a, b) == 1
            assert v.is_ring_epi == expected
            assert (v.is_h_separable is True) == expected

    def test_zero_ring_target_is_heavy(self):
        # collapsing everything to the zero ring is a ring epimorphism
        from hsep.finring import check_ring_hom, construct_ring

        zero = construct_ring((), (), (), "0")
        hom = check_ring_hom(((),), zmod(2), zero)
        v = h_separability_report(hom)
        assert v.is_ring_epi and v.is_h_separable is True


def image_subring(hom):
    """The image of φ as a ring, with inclusion and corestriction homs."""
    from hsep.exactalg import solve_modular_system, subgroup_basis
    from hsep.finring import check_ring_hom, construct_ring

    s = hom.target
    gens, orders = subgroup_basis(np.array(hom.matrix, dtype=np.int64).reshape(hom.source.k, s.k), s.moduli)
    mat = np.array(gens, dtype=np.int64).reshape(len(gens), s.k).T

    def express(coords):
        sol = solve_modular_system(mat, list(coords), s.moduli, unknown_moduli=orders)
        assert not sol.is_empty, "element is not in the image"
        return sol.particular

    def image_mul(ci, cj):
        a = [sum(c * g[l] for c, g in zip(ci, gens)) for l in range(s.k)]
        b = [sum(c * g[l] for c, g in zip(cj, gens)) for l in range(s.k)]
        return express(mul(s, s.reduce(a), s.reduce(b)))

    t = len(gens)
    basis = [tuple(1 if i == j else 0 for j in range(t)) for i in range(t)]
    table = tuple(tuple(image_mul(basis[i], basis[j]) for j in range(t)) for i in range(t))
    ring = construct_ring(orders, table, express(s.unit), "im(%s)" % hom.source.label)
    inclusion = check_ring_hom(tuple(gens), ring, s)
    corestriction = check_ring_hom(
        tuple(express(hom.matrix[i]) for i in range(hom.source.k)), hom.source, ring
    )
    return ring, inclusion, corestriction


class TestImageFactorization:
    """S/R is heavy exactly when S over the image of φ is heavy."""

    CASES = ["z6_to_z2", "t2_into_m2", "f2_into_m2", "f3_into_f9"]

    def test_factor_through_image(self):
        from hsep.finring import check_ring_hom

        homs = dict(HOMS)
        # a non-injective, non-surjective case: Z/4 -> F2 x F2, 1 -> (1,1)
        f2sq = STD["f2sq"].ring
        homs["z4_diag"] = check_ring_hom(((1, 1),), zmod(4), f2sq)
        for name in self.CASES + ["z4_diag"]:
            hom = homs[name]
            image, inclusion, corestriction = image_subring(hom)
            # the corestriction is a surjection, hence heavy
            assert compose_homs(inclusion, corestriction).matrix == hom.matrix
            assert h_separability_report(corestriction).is_h_separable is True
            full = h_separability_report(hom).is_h_separable
            over_image = h_separability_report(inclusion).is_h_separable
            assert full == over_image, name


class TestTensorExtension:
    def test_scalars_extend_heaviness(self):
        # B/R heavy makes (A⊗_R B)/A heavy; here R = Z/6, B = Z/2,
        # A = the group ring Z/6[C2]
        from corpus_util import cyclic_cayley

        z6 = zmod(6)
        a_std = construct_standard_ring(
            "group_ring", {"base": z6, "cayley": cyclic_cayley(2), "identity": 0}
        )
        hom_b = HOMS["z6_to_z2"]
        assert h_separability_report(hom_b).is_h_separable is True
        std = construct_standard_ring(
            "tensor_product", {"homs": [a_std.homs["scalar"], hom_b]}
        )
        over_a = h_separability_report(std.homs["left"])
        assert over_a.is_h_separable is True
        # A/R itself is not heavy, so the combined clause does not apply
        assert h_separability_report(a_std.homs["scalar"]).is_h_separable is False


class TestWellDefinedness:
    def test_beta_balanced_and_coring_laws(self):
        # triple construction asserts beta kills every balance relation
        for name in ("z4_to_z2", "f2_diag_f2sq", "t2_into_m2", "f3_into_f9", "f2_into_f2c2"):
            t2 = tensor_power(HOMS[name], 2)
            t2.triple
            assert verify_coring_laws(t2), name
