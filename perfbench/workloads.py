"""Seeded workloads of the hsep benchmark.

A workload is a fixed list of op specs.  One op is one verdict a user
can ask for.  Every pass over a workload writes a fresh document for
each op: rings get a seeded basis permutation, categories a seeded
relabeling, and every label carries the pass tag.  No two ops of a run
share a document, so hsep's value-keyed `tensor_power` cache misses as
it does in a fresh `hsep` process.  The seed also sets the op order.

Expected verdicts and counts come from theory where it exists and from
the corpus `expect.json` files otherwise.  None of the counts depends on
the seed, so any drift between passes, runs or seeds is an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

CAP = 10**6  # hsep's default enumeration cap, passed explicitly
FIELD_P = "7"  # above every truncation degree used, so 𝔽_p has ℚ's primitive dims

# -- rings ----------------------------------------------------------------


def _matrix_units(n, upper_only=False):
    return [(i, j) for i in range(n) for j in range(n) if not upper_only or i <= j]


def _unit_ring_doc(cells, m, label):
    """Explicit structure constants of the span of matrix units `cells` over Z/m."""
    k = len(cells)
    pos = {c: p for p, c in enumerate(cells)}
    mul = [[[0] * k for _ in range(k)] for _ in range(k)]
    for p, (i, j) in enumerate(cells):
        for q, (a, b) in enumerate(cells):
            if j == a:
                mul[p][q][pos[(i, b)]] = 1
    unit = [1 if i == j else 0 for i, j in cells]
    labels = ["E%d%d" % c for c in cells]
    return {"label": label, "moduli": [m] * k, "mul": mul, "unit": unit, "basis_labels": labels}


def _zmod_doc(m):
    return {"label": "Z/%d" % m, "moduli": [m], "mul": [[[1]]], "unit": [1], "basis_labels": ["1"]}


def scalar_extension_doc(n, m):
    """Z/m → M_n(Z/m), the scalar inclusion."""
    target = _unit_ring_doc(_matrix_units(n), m, "M%d(Z/%d)" % (n, m))
    return {"source": _zmod_doc(m), "target": target, "matrix": [list(target["unit"])]}


def triangular_epi_doc(n, m):
    """T_n(Z/m) → M_n(Z/m), the inclusion of upper triangular matrices."""
    full, upper = _matrix_units(n), _matrix_units(n, upper_only=True)
    target = _unit_ring_doc(full, m, "M%d(Z/%d)" % (n, m))
    source = _unit_ring_doc(upper, m, "T%d(Z/%d)" % (n, m))
    matrix = [[1 if c == u else 0 for c in full] for u in upper]
    return {"source": source, "target": target, "matrix": matrix}


def _permute_ring(doc, perm, tag):
    """The same ring on the basis (e_perm[0], e_perm[1], ...)."""
    k = len(perm)
    mul = doc["mul"]
    return {
        "label": doc["label"] + tag,
        "moduli": [doc["moduli"][perm[p]] for p in range(k)],
        "mul": [[[mul[perm[p]][perm[q]][perm[r]] for r in range(k)] for q in range(k)] for p in range(k)],
        "unit": [doc["unit"][perm[r]] for r in range(k)],
        "basis_labels": [doc["basis_labels"][perm[p]] for p in range(k)],
    }


def permute_hom_doc(doc, rng, tag):
    """Seeded basis permutation of both rings of an explicit hom document."""
    src, tgt = doc["source"], doc["target"]
    ps = list(range(len(src["moduli"])))
    pt = list(range(len(tgt["moduli"])))
    rng.shuffle(ps)
    rng.shuffle(pt)
    matrix = [[doc["matrix"][ps[p]][pt[r]] for r in range(len(pt))] for p in range(len(ps))]
    return {
        "source": _permute_ring(src, ps, tag),
        "target": _permute_ring(tgt, pt, tag),
        "matrix": matrix,
    }


# -- categories -----------------------------------------------------------


def _cyclic_chain(m, n, names, elem_names, label):
    """C_m × [n]: objects names[i], Hom(i, j) = C_m for i <= j, group law +."""
    homs, compose = [], []
    for i in range(n):
        for j in range(i, n):
            homs.append([names[i], names[j], [elem_names[i, j][g] for g in range(m)]])
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for f in range(m):
                    for g in range(m):
                        compose.append(
                            [names[i], names[j], names[k], elem_names[i, j][f],
                             elem_names[j, k][g], elem_names[i, k][(f + g) % m]]
                        )
    return {
        "type": "category",
        "label": label,
        "objects": [names[i] for i in range(n)],
        "homs": homs,
        "compose": compose,
        "identities": {names[i]: elem_names[i, i][0] for i in range(n)},
    }


def _random_naming(rng, prefix, m, n):
    order = list(range(n))
    rng.shuffle(order)
    names = ["%s%d" % (prefix, order[i]) for i in range(n)]
    elem_names = {}
    for i in range(n):
        for j in range(i, n):
            perm = list(range(m))
            rng.shuffle(perm)
            elem_names[i, j] = ["%s%d.%d.%d" % (prefix.upper(), order[i], order[j], perm[g]) for g in range(m)]
    return names, elem_names


def cyclic_chain_adjunction_doc(m, n, extra, rng, tag):
    """L ⊣ R between B = C_m × [n] and A = C_m × [n + extra].

    L embeds the chain through a seeded injective monotone l with l(0) = 0
    and acts on the group by a seeded automorphism u; R sends j to
    max{i : l(i) <= j} and acts by u⁻¹.  The unit is a seeded constant
    h ∈ C_m and the counit is −u·h.  RL = Id, so the unit side has m^n
    candidate retractions; LR = Id only when extra = 0.
    """
    na = n + extra
    u = rng.choice([v for v in range(1, m) if math.gcd(v, m) == 1])
    uinv = pow(u, -1, m)
    h = rng.randrange(m)
    l = [0] + sorted(rng.sample(range(1, na), n - 1))
    r = [max(i for i in range(n) if l[i] <= j) for j in range(na)]
    bnames, belem = _random_naming(rng, "b", m, n)
    anames, aelem = _random_naming(rng, "a", m, na)
    bcat = _cyclic_chain(m, n, bnames, belem, "C%dx[%d]%s" % (m, n, tag))
    acat = _cyclic_chain(m, na, anames, aelem, "C%dx[%d]%s" % (m, na, tag))
    left = {
        "type": "functor",
        "label": "L",
        "source": bcat,
        "target": acat,
        "objects": {bnames[i]: anames[l[i]] for i in range(n)},
        "morphisms": [
            [bnames[i], bnames[j], belem[i, j][g], aelem[l[i], l[j]][(u * g) % m]]
            for i in range(n) for j in range(i, n) for g in range(m)
        ],
    }
    right = {
        "type": "functor",
        "label": "R",
        "source": acat,
        "target": bcat,
        "objects": {anames[j]: bnames[r[j]] for j in range(na)},
        "morphisms": [
            [anames[i], anames[j], aelem[i, j][g], belem[r[i], r[j]][(uinv * g) % m]]
            for i in range(na) for j in range(i, na) for g in range(m)
        ],
    }
    # objects are listed in seeded order; the searches scan them in that order
    for cat in (bcat, acat):
        rng.shuffle(cat["objects"])
    return {
        "type": "adjunction",
        "left": left,
        "right": right,
        "unit": {bnames[i]: belem[i, i][h] for i in range(n)},
        "counit": {anames[j]: aelem[l[r[j]], j][(-u * h) % m] for j in range(na)},
    }


def relabel_adjunction_doc(doc, rng, tag):
    """Seeded relabeling of a corpus adjunction: every object and morphism
    name gets the pass tag, and object lists are shuffled (the same way in
    every copy of a category)."""
    done = {}

    def obj(x):
        return x + tag

    def cat(c):
        key = json.dumps(c, sort_keys=True)
        if key not in done:
            done[key] = _relabel_category(c)
        return done[key]

    def _relabel_category(c):
        objects = [obj(x) for x in c["objects"]]
        rng.shuffle(objects)
        return {
            "type": "category",
            "label": c.get("label", "category") + tag,
            "objects": objects,
            "homs": [[obj(x), obj(y), [f + tag for f in names]] for x, y, names in c.get("homs", [])],
            "compose": [[obj(x), obj(y), obj(z), f + tag, g + tag, h + tag] for x, y, z, f, g, h in c.get("compose", [])],
            "identities": {obj(x): f + tag for x, f in c["identities"].items()},
        }

    def functor(fd):
        return {
            "type": "functor",
            "label": fd.get("label", "functor"),
            "source": cat(fd["source"]),
            "target": cat(fd["target"]),
            "objects": {obj(x): obj(y) for x, y in fd["objects"].items()},
            "morphisms": [[obj(x), obj(y), f + tag, g + tag] for x, y, f, g in fd["morphisms"]],
        }

    return {
        "type": "adjunction",
        "left": functor(doc["left"]),
        "right": functor(doc["right"]),
        "unit": {obj(x): f + tag for x, f in doc["unit"].items()},
        "counit": {obj(x): f + tag for x, f in doc["counit"].items()},
    }


# -- op specs -------------------------------------------------------------


@dataclass
class OpSpec:
    """One verdict.  `make(rng, tag)` returns the op's document (or None).

    `expect` maps report keys (dotted for nested keys) to expected
    values; `code` is the expected exit code of the CLI; `counts` are
    the size counts the traced pass must reproduce exactly.
    """

    name: str
    kind: str
    make: object = None
    args: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    code: int = 0
    counts: dict = field(default_factory=dict)


def _sep_counts(rank2, rank3, locus, witnesses):
    enumerated = 0 < locus <= CAP
    return {
        "sepkit.rank2": rank2,
        "sepkit.rank3": rank3 if enumerated else 0,
        "sepkit.locus_size": locus,
        "sepkit.h_witnesses": witnesses,
        "exactalg.member_rows": locus if enumerated else 0,
    }


def _retraction_expect(space):
    """A capped retraction search reports the space size instead of a count."""
    if space <= CAP:
        return {"retraction_count": 0, "notes.retraction_space_over_cap": None}
    return {"retraction_count": None, "notes.retraction_space_over_cap": space}


def scalar_extension_op(n, m):
    """M_n(Z/m)/Z/m is separable and not heavy; its locus is the
    affine set of m^(n²−1) idempotents and no ring retraction exists."""
    locus = m ** (n * n - 1)
    expect = {
        "separable": True,
        "h_separable": False,
        "ring_epimorphism": False,
        "locus_size": locus,
        "h_witnesses": [],
        "notes.h_decided_by": "central-image-shortcut",
    }
    expect.update(_retraction_expect(m ** (n * n - 1)))
    base = scalar_extension_doc(n, m)
    return OpSpec(
        name="M%d(Z/%d)" % (n, m),
        kind="sep-report",
        make=lambda rng, tag: permute_hom_doc(base, rng, tag),
        expect=expect,
        code=1,
        counts=_sep_counts(n**4, n**6, locus, 0),
    )


def triangular_epi_op(n, m, copy=1):
    """T_n(Z/m) → M_n(Z/m) is a ring epimorphism, hence heavy with
    locus {1⊗1}.  Its retraction space has m^(n(n+1)/2 · n(n−1)/2)
    members (the images of the lower matrix units are free), and no
    retraction exists.  Copies get their own seeded bases."""
    expect = {
        "separable": True,
        "h_separable": True,
        "ring_epimorphism": True,
        "locus_size": 1,
        "notes.h_decided_by": "ring-epimorphism",
    }
    expect.update(_retraction_expect(m ** ((n * (n + 1) // 2) * (n * (n - 1) // 2))))
    base = triangular_epi_doc(n, m)
    return OpSpec(
        name="T%d(Z/%d)" % (n, m) + ("" if copy == 1 else " copy %d" % copy),
        kind="sep-report",
        make=lambda rng, tag: permute_hom_doc(base, rng, tag),
        expect=expect,
        code=0,
        counts=_sep_counts(n * n, n * n, 1, 1),
    )


# Ranks of S⊗_R S and S⊗_R S⊗_R S and the locus size of the corpus
# extensions.  Each S is free over a field R, so the ranks are dim² and
# dim³, except that 1⊗1 spans both for the epimorphisms.  The étale
# algebras F2×F2 and F9 have a unique separability idempotent, F2[C2]
# over F2 has none.
_CORPUS_SEP = {
    "f2_diag_f2sq": (4, 8, 1),
    "f2c2_over_f2": (4, 8, 0),
    "f3_into_f9": (4, 8, 1),
    "m2_f2_over_f2": (16, 64, 8),
    "t2_into_m2_f2": (4, 4, 1),
    "z4_to_z2": (1, 0, 1),
}

# Candidates and accepted witnesses of the corpus Rafael searches: C2 has
# two choices for its one component; in the Galois case Hom(RL c0, c0) is
# empty.
_CORPUS_CAT = {"rafael_c2": (2, 1), "galois_2chain": (0, 0)}


def corpus_sep_ops(root, kinds):
    """Corpus ring cases, converted to explicit documents once."""
    from hsep import finring

    ops = []
    for case in sorted(p for p in (root / "corpus").iterdir() if (p / "expect.json").is_file()):
        spec = json.loads((case / "expect.json").read_text())
        if spec.get("type") not in kinds:
            continue
        hom = finring.hom_from_doc(spec["hom"], case)
        base = finring.hom_to_doc(hom)
        expect = dict(spec["expect"])
        rank2, rank3, locus = _CORPUS_SEP[case.name]
        if spec["type"] == "sep_report":
            witnesses = 1 if expect.get("h_separable") else 0
            ops.append(OpSpec(
                name="corpus/" + case.name,
                kind="sep-report",
                make=lambda rng, tag, base=base: permute_hom_doc(base, rng, tag),
                expect=expect,
                code=0 if expect.get("h_separable") else 1,
                counts=_sep_counts(rank2, rank3, locus, witnesses),
            ))
        else:
            ops.append(OpSpec(
                name="corpus/" + case.name,
                kind="sep-epi",
                make=lambda rng, tag, base=base: permute_hom_doc(base, rng, tag),
                expect=expect,
                code=0 if expect["ring_epimorphism"] else 1,
                counts={"sepkit.rank2": rank2},
            ))
    return ops


def witt_dims(v_dim, deg):
    """Dimensions of the free Lie algebra on v_dim letters, degrees 0..deg:
    (1/d) Σ_{e | d} μ(e) v^(d/e) (Witt's formula)."""

    def mobius(e):
        out, x, p = 1, e, 2
        while p * p <= x:
            if x % p == 0:
                x //= p
                if x % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if x > 1 else out

    return [0] + [
        sum(mobius(e) * v_dim ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        for d in range(1, deg + 1)
    ]


def tensor_dims(graded_dims, deg):
    """Degree-wise dimensions of the tensor algebra on a graded space."""
    out = [1] + [0] * deg
    for d in range(1, deg + 1):
        out[d] = sum(graded_dims[p] * out[d - p] for p in range(1, d + 1) if p < len(graded_dims))
    return out


def talg_verify_op(v_dim, deg, fld, expect=None):
    """The adjunction identities hold; the carrier has dim^d words in
    degree d and the primitives have Witt's dimensions (over ℚ, and over
    𝔽_p for p > deg)."""
    prims = witt_dims(v_dim, deg)
    carrier = [v_dim**d for d in range(deg + 1)]
    double = tensor_dims(prims, deg)
    full = {
        "all_hold": True,
        "unit_retraction": True,
        "heavy_composition": True,
        "letter_projection_restriction": True,
        "failures": [],
        "dims.carrier": carrier,
        "dims.primitives": prims,
        "dims.double_carrier": double,
    }
    return OpSpec(
        name="verify(%d,%d,%s)" % (v_dim, deg, fld),
        kind="talg-verify",
        args={"dim": v_dim, "deg": deg, "field": fld},
        expect=full if expect is None else expect,
        code=0,
        counts={
            "tensorbialg.carrier_dim": sum(carrier),
            "tensorbialg.primitive_dim": sum(prims),
            "tensorbialg.double_carrier_dim": sum(double),
        },
    )


def talg_witness_op(v_dim, deg, fld, copy=1):
    """The tensor-algebra retraction is separable and not heavy: the two
    composites differ on 1⊗v and the unit retraction holds."""
    return OpSpec(
        name="witness(%d,%d,%s)" % (v_dim, deg, fld) + ("" if copy == 1 else " copy %d" % copy),
        kind="talg-witness",
        args={"dim": v_dim, "deg": deg, "field": fld},
        expect={"values_differ": True, "unit_retraction": True},
        code=0,
    )


def corpus_talg_ops(root):
    ops = []
    for case in sorted(p for p in (root / "corpus").iterdir() if (p / "expect.json").is_file()):
        spec = json.loads((case / "expect.json").read_text())
        if spec.get("type") == "talg_verify":
            op = talg_verify_op(spec["dim"], spec["deg"], spec["field"], expect=spec["expect"])
        elif spec.get("type") == "talg_witness":
            op = talg_witness_op(spec["dim"], spec["deg"], spec["field"])
            op.expect = dict(spec["expect"])
        else:
            continue
        op.name = "corpus/" + case.name
        ops.append(op)
    return ops


CAT_SEARCHES = ("rafael-left", "rafael-right", "augmentations", "em-sections", "hsep-structures")


def cyclic_chain_ops(m, n, extra):
    """The five searches on one seeded adjunction C_m×[n] ⇄ C_m×[n+extra].

    Unit side: the only retraction of the unit is the constant −h, and it
    is heavy; so one witness each for Rafael (left), monad augmentations
    and Eilenberg-Moore sections.  Counit side: with extra = 0 the only
    section of the counit is u·h, also heavy; with extra > 0 an object
    outside the image of l has an empty Hom(a, LRa), so there is none.
    L is fully faithful, so P = L⁻¹ is its only h-separability structure.
    Candidates are the product of the hom-set sizes each search scans.
    """
    name = "C%dx[%d]%s" % (m, n, "" if not extra else "<[%d]" % (n + extra))
    iso = extra == 0
    scans = {
        "rafael-left": m**n,
        "rafael-right": m**n if iso else 0,
        "augmentations": m**n,
        "em-sections": 1,
        "hsep-structures": 1,
    }
    ops = []
    for search in CAT_SEARCHES:
        found = 0 if search == "rafael-right" and not iso else 1
        if search.startswith("rafael"):
            args = {"side": search[len("rafael-"):]}
            expect = {"separable_witness_count": found, "h_witness_count": found, "h_separable": bool(found)}
        else:
            args, expect = {}, {"count": found}
        ops.append(OpSpec(
            name="%s/%s" % (name, search),
            kind="cat-" + search,
            make=lambda rng, tag: cyclic_chain_adjunction_doc(m, n, extra, rng, tag),
            args=args,
            expect=expect,
            code=0 if found else 1,
            counts={"fincat.candidates": scans[search], "fincat.witnesses": found},
        ))
    return ops


def corpus_cat_ops(root):
    ops = []
    for case in sorted(p for p in (root / "corpus").iterdir() if (p / "expect.json").is_file()):
        spec = json.loads((case / "expect.json").read_text())
        if spec.get("type") != "cat_rafael":
            continue
        base = json.loads((case / spec["adjunction"]).read_text())
        ops.append(OpSpec(
            name="corpus/" + case.name,
            kind="cat-rafael-" + spec.get("side", "left"),
            make=lambda rng, tag, base=base: relabel_adjunction_doc(base, rng, tag),
            args={"side": spec.get("side", "left")},
            expect=dict(spec["expect"]),
            code=0 if spec["expect"]["h_separable"] else 1,
            counts=dict(zip(("fincat.candidates", "fincat.witnesses"), _CORPUS_CAT[case.name])),
        ))
    return ops
