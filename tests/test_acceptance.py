"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is exact equality; the only numeric budgets are
wall-clock limits stated per criterion.
"""

import time

from cat_util import (
    build_adjunctions,
    c2_category,
    collapse_to_terminal,
    inclusion_terminal_into_chain,
)
from conftest import record_acceptance
from corpus_util import build_corpus, zmod
from finring_util import _unit_vector, add, scale
from sepkit_util import contains, is_h_idempotent
from test_tensorbialg import oracle_primitive_dims

from hsep.fincat import (
    chain_poset,
    compose_functors,
    eilenberg_moore,
    find_h_separability_structures,
    find_monad_augmentations,
    find_rafael_retractions,
    find_section_functors,
    identity_functor,
    monad_from_adjunction,
)
from hsep.finring import (
    compose_homs,
    construct_standard_ring,
    identity_hom,
)
from hsep.sepkit import (
    find_ring_retractions,
    h_separability_report,
    is_ring_epimorphism,
    tensor_power,
)
from hsep.tensorbialg import (
    build_truncated,
    primitives,
    tensor_algebra_witness,
    verify_bialgebra_adjunction,
)

HOMS, STD = build_corpus()


EPI_SUITE = [
    "id_f2",
    "id_z6",
    "id_m2",
    "z4_to_z2",
    "z6_to_z2",
    "z6_to_z3",
    "z8_to_z4",
    "z8_to_z2",
    "t2_into_m2",
    "t3_into_m3",
    "f2_diag_f2sq",
    "f3_into_f9",
    "f2_into_f4",
    "f2_into_m2",
    "f2_into_f2c2",
    "f3_into_f3c3",
    "f2_into_tensor",
    "z6_quotient",
    "f2_into_dual",
    "id_zero",
]


def test_criterion_1_epi_equivalence_suite():
    """Criteria (2) and (3) agree; (4) ⟺ (3); corpus of >= 12 homs; < 30 s."""
    start = time.monotonic()
    problems = []
    assert len(EPI_SUITE) >= 12
    for name in EPI_SUITE:
        hom = HOMS[name]
        try:
            # raises InternalCriterionMismatch if (2) and (3) disagree
            is_ring_epimorphism(hom)
        except Exception as err:
            problems.append("%s: %s" % (name, err))
            continue
        t2 = tensor_power(hom, 2)
        if t2.is_separability_idempotent(t2.one_one):
            if not is_h_idempotent(t2, t2.one_one):
                problems.append("%s: (3) holds but (4) fails for 1⊗1" % name)
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        problems.append("runtime %.1fs >= 30s" % elapsed)
    record_acceptance(
        1,
        "epi-equivalence suite (%d homs)" % len(EPI_SUITE),
        not problems,
        "%.1fs" % elapsed,
    )
    assert not problems, problems


def test_criterion_2_matrix_rings_never_heavy():
    """Std idempotent in locus by substitution; no heavy element, by full
    enumeration; < 5 min for the largest case."""
    start = time.monotonic()
    problems = []
    for base_n in (2, 4):
        base = zmod(base_n)
        for n in (2, 3):
            std = construct_standard_ring("matrix", {"base": base, "n": n})
            hom = std.homs["scalar"]
            ring = std.ring
            t2 = tensor_power(hom, 2)
            by_label = {lab: i for i, lab in enumerate(ring.basis_labels)}
            e = (0,) * t2.group.rank
            for i in range(1, n + 1):
                term = t2.pure(
                    _unit_vector(ring.k, by_label["E%d1" % i]),
                    _unit_vector(ring.k, by_label["E1%d" % i]),
                )
                e = add(t2.group, e, term)
            case = "M%d(Z/%d)" % (n, base_n)
            if not t2.is_separability_idempotent(e):
                problems.append("%s: standard idempotent fails substitution" % case)
            if not contains(t2.locus, e):
                problems.append("%s: standard idempotent not in locus" % case)
            verdict = h_separability_report(hom)
            if not verdict.is_separable:
                problems.append("%s: expected separable" % case)
            if verdict.is_h_separable is not False:
                problems.append("%s: expected not h-separable" % case)
            if not verdict.notes["enumeration_ran"] or verdict.h_witnesses:
                problems.append("%s: full enumeration did not run clean" % case)
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        problems.append("runtime %.1fs >= 300s" % elapsed)
    record_acceptance(2, "matrix rings are never heavy", not problems, "%.1fs" % elapsed)
    assert not problems, problems


def test_criterion_3_field_triviality():
    """F9/F3 and F4/F2: separable with a unique idempotent, not heavy;
    the F9 idempotent is 2*(1⊗1 − i⊗i)."""
    problems = []
    for name in ("f3_into_f9", "f2_into_f4"):
        v = h_separability_report(HOMS[name])
        if not (v.is_separable and v.sep_locus.size == 1 and v.is_h_separable is False):
            problems.append("%s: wrong verdict shape" % name)
    hom = HOMS["f3_into_f9"]
    t2 = tensor_power(hom, 2)
    s = hom.target
    one, x = s.unit, _unit_vector(s.k, 1)
    expected = add(t2.group, t2.pure(scale(s, 2, one), one), t2.pure(scale(s, -2, x), x))
    if t2.locus.members() != [expected]:
        problems.append("f9: unique idempotent is not 2*(1⊗1 - i⊗i)")
    record_acceptance(3, "field triviality with explicit idempotent", not problems)
    assert not problems, problems


def test_criterion_4_central_image_equivalence():
    """Central image: heavy ⟺ ring epi, and heavy targets are commutative."""
    problems = []
    checked = 0
    for name in EPI_SUITE:
        hom = HOMS[name]
        if not hom.is_image_central():
            continue
        checked += 1
        v = h_separability_report(hom)
        if v.is_h_separable != v.is_ring_epi:
            problems.append("%s: heavy != epi with central image" % name)
        if v.is_h_separable is True and not hom.target.is_commutative:
            problems.append("%s: heavy but target not commutative" % name)
    record_acceptance(
        4, "central image: heavy ⟺ epi (%d homs)" % checked, not problems
    )
    assert checked >= 10
    assert not problems, problems


def test_criterion_5_retraction_counts():
    """Exact retraction counts by exhaustive filter."""
    problems = []
    expected_counts = {
        "id_f2": 1,
        "id_z6": 1,
        "id_m2": 1,
        "id_zero": 1,
        "f2_diag_f2sq": 2,
        "f2_into_dual": 1,  # split quotient: x ↦ 0
        "f3_into_f9": 0,
        "f2_into_m2": 0,
    }
    for name, count in expected_counts.items():
        found = find_ring_retractions(HOMS[name])
        if len(found) != count:
            problems.append("%s: %d retractions, expected %d" % (name, len(found), count))
    record_acceptance(5, "ring retraction counts", not problems)
    assert not problems, problems


def test_criterion_6_group_rings_not_heavy():
    problems = []
    for name in ("f2_into_f2c2", "f3_into_f3c3"):
        v = h_separability_report(HOMS[name])
        if v.is_h_separable is not False:
            problems.append("%s: expected not h-separable" % name)
    record_acceptance(6, "group rings F2[C2], F3[C3] not heavy", not problems)
    assert not problems, problems


def test_criterion_7_composition_and_products():
    problems = []
    # composition: both steps heavy -> composite heavy; composite heavy
    # -> second step heavy
    chains = [("z8_to_z4", "z4_to_z2"), ("z6_to_z2", "id_f2"), ("t2_into_m2", "id_m2")]
    for first_name, second_name in chains:
        first, second = HOMS[first_name], HOMS[second_name]
        v1 = h_separability_report(first)
        v2 = h_separability_report(second)
        vc = h_separability_report(compose_homs(second, first))
        if v1.is_h_separable is True and v2.is_h_separable is True and vc.is_h_separable is not True:
            problems.append("chain %s;%s: composite not heavy" % (first_name, second_name))
        if vc.is_h_separable is True and v2.is_h_separable is not True:
            problems.append("chain %s;%s: second step not heavy" % (first_name, second_name))
    # a composite that is not heavy although the second step is
    f2_to_t2 = STD["t2"].homs["scalar"]
    vc = h_separability_report(compose_homs(HOMS["t2_into_m2"], f2_to_t2))
    if vc.is_h_separable is not False:
        problems.append("scalar;inclusion composite should not be heavy")

    # product criterion: heavy(S/R) iff both factors heavy and the mixed
    # pure tensors vanish
    f2 = zmod(2)
    product_cases = [
        (identity_hom(f2), identity_hom(f2)),
        (STD["f2sq"].homs["proj_0"], STD["f2sq"].homs["proj_1"]),
        (identity_hom(f2), STD["f2c2"].homs["scalar"]),
    ]
    for hom_a, hom_b in product_cases:
        std = construct_standard_ring("product", {"homs": [hom_a, hom_b]})
        unit = std.homs["unit"]
        t2 = tensor_power(unit, 2)
        e0, e1 = std.elements["e_0"], std.elements["e_1"]
        zero = (0,) * t2.group.rank
        cross = t2.pure(e0, e1) == zero and t2.pure(e1, e0) == zero
        va = h_separability_report(hom_a).is_h_separable is True
        vb = h_separability_report(hom_b).is_h_separable is True
        vs = h_separability_report(unit).is_h_separable is True
        if vs != (va and vb and cross):
            problems.append("product over %s: criterion mismatch" % std.ring.label)
    record_acceptance(7, "composition and product laws", not problems)
    assert not problems, problems


def test_criterion_8_rafael_equivalence():
    """Heavy retractions ↔ EM sections ↔ monad augmentations on >= 4
    adjunctions, all by exhaustive search."""
    problems = []
    adjunctions = build_adjunctions()
    assert len(adjunctions) >= 4
    for name, adj in adjunctions.items():
        _, heavy = find_rafael_retractions(adj, "left")
        em, forget = eilenberg_moore(adj)
        sections = find_section_functors(forget)
        augs = find_monad_augmentations(monad_from_adjunction(adj))
        if not (len(heavy) == len(sections) == len(augs)):
            problems.append(
                "%s: %d heavy, %d sections, %d augmentations"
                % (name, len(heavy), len(sections), len(augs))
            )
            continue
        heavy_keys = sorted(tuple(sorted(w.components.items())) for w in heavy)
        aug_keys = sorted(tuple(sorted(a.components.items())) for a in augs)
        section_keys = sorted(
            tuple(sorted((b, gamma.split("|", 1)[1]) for b, gamma in s.object_map.items()))
            for s in sections
        )
        if heavy_keys != aug_keys or heavy_keys != section_keys:
            problems.append("%s: witness families disagree" % name)
    record_acceptance(
        8, "Rafael ↔ EM sections ↔ augmentations (%d adjunctions)" % len(adjunctions), not problems
    )
    assert not problems, problems


def test_criterion_9_functor_lemmas():
    problems = []
    chain2 = chain_poset(2)
    chain3 = chain_poset(3, prefix="d")
    lmap = {"c0": "d0", "c1": "d1"}
    from hsep.fincat import FunctorData

    chain_incl = FunctorData(
        chain2,
        chain3,
        lmap,
        {(x, y, n): "%s<=%s" % (lmap[x], lmap[y]) for x, y, n in chain2.morphisms()},
        label="incl",
    ).validate()
    ff_functors = {
        "id_2chain": identity_functor(chain2),
        "terminal_into_2chain": inclusion_terminal_into_chain(chain2, "c1"),
        "2chain_into_3chain": chain_incl,
        "id_c2": identity_functor(c2_category()),
    }
    structures = {}
    for name, fun in ff_functors.items():
        structures[name] = find_h_separability_structures(fun)
        if not structures[name]:
            problems.append("%s: full+faithful but no structure found" % name)
    # composite of heavy functors is heavy
    f = ff_functors["terminal_into_2chain"]
    g = ff_functors["2chain_into_3chain"]
    if not find_h_separability_structures(compose_functors(g, f)):
        problems.append("composite of heavy functors has no structure")
    # GF heavy implies F heavy (GF = Id here)
    collapse = collapse_to_terminal(chain2)
    gf = compose_functors(collapse, f)
    if not find_h_separability_structures(gf):
        problems.append("split-mono composite has no structure")
    if not find_h_separability_structures(f):
        problems.append("first factor of a split mono has no structure")
    if find_h_separability_structures(collapse):
        problems.append("collapse functor should have no structure")
    record_acceptance(9, "functor lemmas by exhaustive search", not problems)
    assert not problems, problems


def test_criterion_10_bialgebra_identities():
    """All identities exact on {1,2} x {Q, F2, F5} x {2,3}; witness values
    0 vs v everywhere; primitive dims match the oracle; < 60 s."""
    start = time.monotonic()
    problems = []
    for v_dim in (1, 2):
        for field in ("q", "2", "5"):
            for deg in (2, 3):
                rep = verify_bialgebra_adjunction(v_dim, field, deg)
                if not rep.all_hold:
                    problems.append(
                        "identities fail for dim=%d field=%s deg=%d: %r"
                        % (v_dim, field, deg, rep.failure_witnesses)
                    )
                wit = tensor_algebra_witness(v_dim, field, deg)
                if not (wit.values_differ and wit.unit_retraction_holds):
                    problems.append(
                        "witness broken for dim=%d field=%s deg=%d" % (v_dim, field, deg)
                    )
                if any(wit.doubled_value[1]):
                    problems.append("double projection is not zero")
                if list(wit.evaluated_value[1]) != [1] + [0] * (v_dim - 1):
                    problems.append("evaluation is not the letter v")
    prims_q = primitives(build_truncated(2, "q", 3))
    if list(prims_q.space.dims[1:]) != [2, 1, 2]:
        problems.append("rational primitive dims != [2, 1, 2]")
    if oracle_primitive_dims(2, "q", 3) != [2, 1, 2]:
        problems.append("oracle disagrees over Q")
    prims_2 = primitives(build_truncated(2, 2, 3))
    if prims_2.space.dims[2] != 3 or oracle_primitive_dims(2, "2", 2)[1] != 3:
        problems.append("mod-2 degree-2 primitive dim != 3")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append("runtime %.1fs >= 60s" % elapsed)
    record_acceptance(10, "tensor bialgebra identities", not problems, "%.1fs" % elapsed)
    assert not problems, problems
