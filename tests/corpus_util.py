"""Shared corpus of ring extensions used across the test suite."""

import json
from pathlib import Path

from hsep.finring import check_ring_hom, construct_ring, construct_standard_ring, hom_from_doc, identity_hom

ROOT = Path(__file__).resolve().parent.parent


def zmod(n):
    return construct_standard_ring("modular", {"n": n}).ring


def cyclic_cayley(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def diagonal_into_matrix(n, m):
    """D_n(Z/m) → M_n(Z/m): the diagonal matrices, built as the nested
    product ((Z/m × Z/m) × ...) × Z/m, whose i-th basis element goes to E_ii."""
    base = zmod(m)
    diag = base
    for _ in range(n - 1):
        diag = construct_standard_ring("product", {"factors": [diag, base]}).ring
    full = construct_standard_ring("matrix", {"base": base, "n": n}).ring
    by_label = {lab: c for c, lab in enumerate(full.basis_labels)}
    cols = [
        tuple(1 if c == by_label["E%d%d" % (i, i)] else 0 for c in range(full.k))
        for i in range(1, n + 1)
    ]
    return check_ring_hom(cols, diag, full)


def build_corpus():
    """name -> RingHom, the standing corpus for property and acceptance tests."""
    f2, f3 = zmod(2), zmod(3)
    z4, z6, z8 = zmod(4), zmod(6), zmod(8)

    m2 = construct_standard_ring("matrix", {"base": f2, "n": 2})
    m3 = construct_standard_ring("matrix", {"base": f2, "n": 3})
    t2 = construct_standard_ring("triangular", {"base": f2, "n": 2})
    t3 = construct_standard_ring("triangular", {"base": f2, "n": 3})
    m2_z4 = construct_standard_ring("matrix", {"base": z4, "n": 2})

    f4 = construct_standard_ring("polynomial_quotient", {"p": 2, "poly": [1, 1, 1]})
    f9 = construct_standard_ring("polynomial_quotient", {"p": 3, "poly": [1, 0, 1]})

    f2sq = construct_standard_ring("product", {"factors": [f2, f2]})
    diag = check_ring_hom(((1, 1),), f2, f2sq.ring)

    f2c2 = construct_standard_ring(
        "group_ring", {"base": f2, "cayley": cyclic_cayley(2), "identity": 0}
    )
    f3c3 = construct_standard_ring(
        "group_ring", {"base": f3, "cayley": cyclic_cayley(3), "identity": 0}
    )

    tensor = construct_standard_ring(
        "tensor_product", {"homs": [f2c2.homs["scalar"], f2c2.homs["scalar"]]}
    )
    quot_z6 = construct_standard_ring("quotient", {"base": z6, "ideal": [(2,)]})
    dual_numbers = None
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dual = construct_standard_ring("polynomial_quotient", {"p": 2, "poly": [0, 0, 1]})

    zero = construct_ring((), (), (), "0")

    homs = {
        "id_f2": identity_hom(f2),
        "id_z6": identity_hom(z6),
        "id_m2": identity_hom(m2.ring),
        "z4_to_z2": check_ring_hom(((1,),), z4, f2),
        "z6_to_z2": check_ring_hom(((1,),), z6, f2),
        "z6_to_z3": check_ring_hom(((1,),), z6, f3),
        "z8_to_z4": check_ring_hom(((1,),), z8, z4),
        "z8_to_z2": check_ring_hom(((1,),), z8, f2),
        "t2_into_m2": t2.homs["into_matrix"],
        "t3_into_m3": t3.homs["into_matrix"],
        "f2_diag_f2sq": diag,
        "f3_into_f9": f9.homs["scalar"],
        "f2_into_f4": f4.homs["scalar"],
        "f2_into_m2": m2.homs["scalar"],
        "f2_into_f2c2": f2c2.homs["scalar"],
        "f3_into_f3c3": f3c3.homs["scalar"],
        "f2_into_tensor": tensor.homs["unit"],
        "z6_quotient": quot_z6.homs["projection"],
        "f2_into_dual": dual.homs["scalar"],
        "id_zero": check_ring_hom((), zero, zero),
    }
    standards = {
        "m2": m2,
        "m3": m3,
        "t2": t2,
        "t3": t3,
        "m2_z4": m2_z4,
        "f4": f4,
        "f9": f9,
        "f2sq": f2sq,
        "f2c2": f2c2,
        "f3c3": f3c3,
        "tensor": tensor,
        "quot_z6": quot_z6,
        "dual": dual,
    }
    return homs, standards


def hom_documents():
    """"doc:<folder>/<stem>" -> RingHom, for every hom document of the
    corpus and of tests/golden/sep-homs."""
    paths = sorted((ROOT / "corpus").glob("*/hom.json")) + sorted((ROOT / "tests" / "golden" / "sep-homs").glob("*.json"))
    return {"doc:%s/%s" % (p.parent.name, p.stem): hom_from_doc(json.loads(p.read_text()), p.parent) for p in paths}
