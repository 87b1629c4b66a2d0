"""Finite ring construction, validation, homs, named families."""

import json
import math
import warnings

import pytest

from finring_util import _unit_vector, add, center, elements, mul, scale

from hsep import finring
from hsep.exactalg import DimensionMismatch, subgroup_basis
from hsep.finring import (
    BilinearityIncompatible,
    InvalidCayleyTable,
    NonCentralImage,
    NotAssociative,
    NotMultiplicative,
    NotUnital,
    ReduciblePolynomialAllowed,
    check_ring_hom,
    compose_homs,
    construct_ring,
    construct_standard_ring,
    hom_from_doc,
    hom_to_doc,
    identity_hom,
    ring_from_doc,
    ring_to_doc,
)


def zmod(n):
    return construct_standard_ring("modular", {"n": n}).ring


def direct_law_check(ring):
    """Oracle: re-verify ring laws element by element, not via the table."""
    assert ring.order <= 300
    elems = list(elements(ring.moduli))
    one = ring.unit
    for x in elems:
        assert mul(ring, one, x) == x
        assert mul(ring, x, one) == x
    for x in elems[:8]:
        for y in elems[:8]:
            for z in elems[:8]:
                assert mul(ring, mul(ring, x, y), z) == mul(ring, x, mul(ring, y, z))


class TestConstructRing:
    def test_modular_six(self):
        ring = construct_ring((6,), (((1,),),), (1,), "Z/6")
        assert ring.order == 6
        direct_law_check(ring)

    def test_unit_law_fails(self):
        from hsep.finring import UnitLawFails

        with pytest.raises(UnitLawFails):
            construct_ring((4,), (((2,),),), (1,))

    def test_f2_squared_pointwise(self):
        ring = construct_ring(
            (2, 2),
            (((1, 0), (0, 0)), ((0, 0), (0, 1))),
            (1, 1),
            "F2xF2",
        )
        assert ring.order == 4
        direct_law_check(ring)

    def test_not_associative_names_triple(self):
        # (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = e0
        table = (
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
            ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
        )
        with pytest.raises(NotAssociative) as err:
            construct_ring((2, 2, 2), table, (1, 0, 0))
        assert err.value.triple == (1, 1, 1)

    def test_bilinearity_incompatible(self):
        # e1 has order 2 but e1*e1 has a coordinate of order 4 not killed by 2
        table = (
            ((1, 0), (0, 1)),
            ((0, 1), (1, 0)),
        )
        with pytest.raises(BilinearityIncompatible):
            construct_ring((4, 2), table, (1, 0))

    @pytest.mark.parametrize("cell", [(1,), (1, 0, 5)])
    def test_mul_cell_width(self, cell):
        # a cell of the wrong width is rejected before it is reduced
        with pytest.raises(DimensionMismatch, match="cell width"):
            construct_ring((2, 2), ((cell, (0, 0)), ((0, 0), (0, 1))), (1, 1))

    def test_zero_ring(self):
        ring = construct_ring((), (), (), "0")
        assert ring.order == 1
        assert ring.unit == ()


class TestStandardRings:
    def test_matrix_ring(self):
        std = construct_standard_ring("matrix", {"base": zmod(2), "n": 2})
        assert std.ring.order == 16
        assert "scalar" in std.homs
        direct_law_check(std.ring)

    def test_triangular_inclusion(self):
        std = construct_standard_ring("triangular", {"base": zmod(2), "n": 2})
        incl = std.homs["into_matrix"]
        assert incl.source.order == 8
        assert incl.target.order == 16

    def test_group_ring_c2(self):
        std = construct_standard_ring(
            "group_ring", {"base": zmod(2), "cayley": [[0, 1], [1, 0]], "identity": 0}
        )
        ring = std.ring
        assert ring.order == 4
        g = _unit_vector(ring.k, 1)
        assert mul(ring, g, g) == ring.unit
        direct_law_check(ring)

    def test_invalid_cayley(self):
        with pytest.raises(InvalidCayleyTable):
            construct_standard_ring(
                "group_ring", {"base": zmod(2), "cayley": [[0, 0], [1, 0]], "identity": 0}
            )

    def test_product(self):
        std = construct_standard_ring("product", {"factors": [zmod(2), zmod(3)]})
        assert std.ring.order == 6
        assert std.homs["proj_0"].target.order == 2
        e0, e1 = std.elements["e_0"], std.elements["e_1"]
        assert not any(mul(std.ring, e0, e1))
        assert add(std.ring, e0, e1) == std.ring.unit

    def test_polynomial_quotient_f9(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            std = construct_standard_ring("polynomial_quotient", {"p": 3, "poly": [1, 0, 1]})
        ring = std.ring
        assert ring.order == 9
        x = std.elements["x"]
        assert mul(ring, x, x) == scale(ring, -1, ring.unit)
        direct_law_check(ring)

    def test_polynomial_quotient_size_guard_comes_first(self, monkeypatch):
        def never(*args):
            raise AssertionError("work started past the size guard")

        monkeypatch.setattr(finring, "_is_prime", never)
        monkeypatch.setattr(finring, "_poly_is_reducible", never)
        # p past 10^12, then 2^20 candidate factors of a degree-40 polynomial
        for params in ({"p": 10**12 + 39, "poly": [1, 1]}, {"p": 2, "poly": [1] + [0] * 39 + [1]}):
            with pytest.raises(ValueError, match=r"supported for p <= 10\^12 and p\^\(degree // 2\) <= 10\^6"):
                construct_standard_ring("polynomial_quotient", params)

    def test_reducible_polynomial_warns(self):
        with pytest.warns(ReduciblePolynomialAllowed):
            construct_standard_ring("polynomial_quotient", {"p": 2, "poly": [0, 0, 1]})

    def test_tensor_product_of_group_rings(self):
        grp = construct_standard_ring(
            "group_ring", {"base": zmod(2), "cayley": [[0, 1], [1, 0]], "identity": 0}
        )
        unit_hom = grp.homs["scalar"]
        std = construct_standard_ring("tensor_product", {"homs": [unit_hom, unit_hom]})
        # F2[C2] (x)_F2 F2[C2] has F2-dimension 4
        assert std.ring.order == 16
        direct_law_check(std.ring)

    def test_tensor_requires_central_images(self):
        mat = construct_standard_ring("matrix", {"base": zmod(2), "n": 2})
        # embed F2[C2]-style non-central: use T2 inclusion into M2, whose image
        # is not central in M2
        tri = construct_standard_ring("triangular", {"base": zmod(2), "n": 2})
        incl = tri.homs["into_matrix"]
        with pytest.raises((NonCentralImage, ValueError)):
            construct_standard_ring("tensor_product", {"homs": [incl, incl]})

    @pytest.mark.parametrize("generator", [(2,), (2, 5, 1)])
    def test_quotient_ideal_width(self, generator):
        # Z/6 × Z/6: a generator of the wrong width used to be cut to length
        base = construct_standard_ring("product", {"factors": [zmod(6), zmod(6)]}).ring
        with pytest.raises(DimensionMismatch, match="ideal generators"):
            construct_standard_ring("quotient", {"base": base, "ideal": [generator]})

    def test_quotient(self):
        std = construct_standard_ring("quotient", {"base": zmod(6), "ideal": [(2,)]})
        assert std.ring.order == 2
        proj = std.homs["projection"]
        assert proj.apply_coords(proj.source.unit) == std.ring.unit

    def test_matrix_count_formula(self):
        for n in (2, 3):
            std = construct_standard_ring("matrix", {"base": zmod(2), "n": n})
            assert std.ring.order == 2 ** (n * n)

    def test_group_ring_count_formula(self):
        c3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        std = construct_standard_ring("group_ring", {"base": zmod(3), "cayley": c3})
        assert std.ring.order == 3**3


class TestRingHom:
    def test_identity_valid(self):
        ring = zmod(6)
        hom = identity_hom(ring)
        assert hom.apply_coords((5,)) == (5,)

    def test_surjection_z4_to_z2(self):
        hom = check_ring_hom(((1,),), zmod(4), zmod(2))
        _, orders = subgroup_basis(hom.np_matrix, hom.target.moduli)
        assert math.prod(orders) == hom.target.order

    def test_unit_must_map_to_unit(self):
        with pytest.raises(NotUnital):
            check_ring_hom(((0,),), zmod(2), zmod(2))

    def test_not_multiplicative(self):
        # F2 x F2 -> F2 x F2 swapping a unit coordinate into a non-hom
        ring = construct_ring(
            (2, 2), (((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 1), "F2xF2"
        )
        with pytest.raises(NotMultiplicative):
            check_ring_hom(((1, 1), (0, 1)), ring, ring)

    def test_additive_well_definedness(self):
        from hsep.finring import NotAdditiveWellDefined

        with pytest.raises(NotAdditiveWellDefined):
            check_ring_hom(((1,),), zmod(2), zmod(4))

    @pytest.mark.parametrize("col", [(1,), (1, 1, 7)])
    def test_column_width(self, col):
        # F2 → F2 × F2: a short column used to raise IndexError, a long
        # one was cut to (1, 1)
        f2sq = construct_standard_ring("product", {"factors": [zmod(2), zmod(2)]}).ring
        with pytest.raises(DimensionMismatch, match="one coordinate per target basis element"):
            check_ring_hom((col,), zmod(2), f2sq)

    def test_composition_is_valid(self):
        h1 = check_ring_hom(((1,),), zmod(4), zmod(2))
        std = construct_standard_ring("matrix", {"base": zmod(2), "n": 2})
        h2 = std.homs["scalar"]
        comp = compose_homs(h2, h1)
        assert comp.source.order == 4
        assert comp.target.order == 16


class TestCommutativity:
    def test_matrix_ring_center(self):
        std = construct_standard_ring("matrix", {"base": zmod(2), "n": 2})
        ring = std.ring
        assert not ring.is_commutative
        # oracle: enumerate all 16 elements and intersect centralizers
        expect = [
            x
            for x in elements(ring.moduli)
            if all(mul(ring, x, y) == mul(ring, y, x) for y in elements(ring.moduli))
        ]
        solved = center(ring)
        assert solved.size == len(expect) == 2
        assert set(solved.members()) == set(expect)

    def test_commutative_rings(self):
        ring = construct_ring(
            (2, 2), (((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 1), "F2xF2"
        )
        assert ring.is_commutative
        assert center(ring).size == ring.order
        assert zmod(6).is_commutative

    def test_is_commutative_matches_the_centre(self):
        # the table comparison against the centre the solver finds
        rings = [zmod(6), zmod(4)]
        for n, m in ((1, 4), (2, 2), (2, 4), (2, 9), (3, 2)):
            rings.append(construct_standard_ring("matrix", {"base": zmod(m), "n": n}).ring)
            rings.append(construct_standard_ring("triangular", {"base": zmod(m), "n": n}).ring)
        rings.append(construct_standard_ring("product", {"factors": [zmod(2), zmod(9)]}).ring)
        seen = set()
        for ring in rings:
            assert ring.is_commutative == (center(ring).size == ring.order), ring
            seen.add(ring.is_commutative)
        assert seen == {True, False}


class TestDocs:
    def test_ring_roundtrip(self):
        std = construct_standard_ring("matrix", {"base": zmod(2), "n": 2})
        doc = ring_to_doc(std.ring)
        again = ring_from_doc(doc)
        assert again == std.ring

    def test_standard_doc(self):
        ring = ring_from_doc({"kind": "modular", "params": {"n": 5}})
        assert ring.order == 5

    def test_repeated_reference_is_not_a_cycle(self, tmp_path):
        # both factors name z2.json: a file may recur, but not on its own chain
        (tmp_path / "z2.json").write_text(json.dumps({"kind": "modular", "params": {"n": 2}}))
        doc = {"kind": "product", "params": {"factors": ["z2.json", "z2.json"]}}
        (tmp_path / "sq.json").write_text(json.dumps({"kind": "matrix", "params": {"base": "sq.json", "n": 2}}))
        assert ring_from_doc(doc, tmp_path).order == 4
        with pytest.raises(ValueError, match="sq.json: reference cycle"):
            ring_from_doc("sq.json", tmp_path)

    def test_hom_roundtrip(self):
        hom = check_ring_hom(((1,),), zmod(4), zmod(2))
        doc = hom_to_doc(hom)
        again = hom_from_doc(doc)
        assert again.matrix == hom.matrix

    def test_canonical_hom_doc(self):
        doc = {
            "standard": {
                "kind": "triangular",
                "params": {"n": 2, "base": {"kind": "modular", "params": {"n": 2}}},
            },
            "hom": "into_matrix",
        }
        hom = hom_from_doc(doc)
        assert hom.source.order == 8
        assert hom.target.order == 16
