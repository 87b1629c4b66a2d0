"""Shared finite-category corpus: small posets, monoids, adjunctions,
the brute-force natural-retraction, section-functor and Eilenberg-Moore
oracles, and the category, functor and naturality law checks written out
as loops over morphisms."""

import itertools
from pathlib import Path

from hsep.fincat import (
    AdjunctionData,
    CategoryLawError,
    FiniteCategory,
    FunctorData,
    FunctorLawFails,
    IdentityLawFails,
    MalformedData,
    NatTransform,
    NaturalityFails,
    NotAssociativeComposition,
    adjunction_from_doc,
    category_to_doc,
    chain_poset,
    compose_functors,
    identity_adjunction,
    identity_functor,
    monad_from_adjunction,
    monoid_category,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def comp(cat, f, g):
    """g∘f read off cat's compose mapping, not its integer table, which
    `FiniteCategory.comp` reads: the oracles below compose through this."""
    if f[1] != g[0]:
        raise MalformedData("morphisms do not compose", (f, g))
    return (f[0], g[1], cat.compose[(f[0], f[1], g[1], f[2], g[2])])


def terminal_category():
    return chain_poset(1, prefix="t")


def inclusion_terminal_into_chain(chain, target_obj):
    term = terminal_category()
    return FunctorData(
        term,
        chain,
        {"t0": target_obj},
        {("t0", "t0", term.identity["t0"]): chain.identity[target_obj]},
        label="incl",
    ).validate()


def collapse_to_terminal(cat):
    term = terminal_category()
    return FunctorData(
        cat,
        term,
        {x: "t0" for x in cat.objects},
        {f: term.identity["t0"] for f in cat.morphisms()},
        label="collapse",
    ).validate()


def galois_two_chain_terminal():
    """2-chain ⇄ terminal: L collapses, R picks the top object."""
    b = chain_poset(2)
    a = terminal_category()
    left = collapse_to_terminal(b)
    right = FunctorData(
        a, b, {"t0": "c1"}, {("t0", "t0", a.identity["t0"]): b.identity["c1"]}, label="top"
    ).validate()
    rl = compose_functors(right, left)
    unit = NatTransform(identity_functor(b), rl, {"c0": "c0<=c1", "c1": "c1<=c1"})
    counit = NatTransform(
        compose_functors(left, right), identity_functor(a), {"t0": a.identity["t0"]}
    )
    return AdjunctionData(left, right, unit, counit).validate()


def codiscrete_pair_collapse():
    """The codiscrete category on x, y (one morphism ab: a → b for any two
    objects) ⇄ terminal: L collapses, R picks y.  RL is the constant y, so
    the monad moves x, and γ_x = yx retracts the unit and is heavy."""
    objects = ("x", "y")
    b = FiniteCategory(
        objects,
        {(p, q): (p + q,) for p in objects for q in objects},
        {(p, q, r, p + q, q + r): p + r for p in objects for q in objects for r in objects},
        {o: o + o for o in objects},
        "codiscrete2",
    ).validate()
    a = terminal_category()
    left = collapse_to_terminal(b)
    right = FunctorData(a, b, {"t0": "y"}, {("t0", "t0", a.identity["t0"]): "yy"}, label="pick y").validate()
    unit = NatTransform(identity_functor(b), compose_functors(right, left), {"x": "xy", "y": "yy"})
    counit = NatTransform(compose_functors(left, right), identity_functor(a), {"t0": a.identity["t0"]})
    return AdjunctionData(left, right, unit, counit).validate()


def rl_identity_adjunction():
    """2-chain ⇄ 3-chain Galois connection with RL = Id."""
    b = chain_poset(2)
    a = chain_poset(3, prefix="d")
    lmap = {"c0": "d0", "c1": "d2"}
    rmap = {"d0": "c0", "d1": "c0", "d2": "c1"}
    left = FunctorData(
        b,
        a,
        lmap,
        {(x, y, n): "%s<=%s" % (lmap[x], lmap[y]) for x, y, n in b.morphisms()},
        label="L",
    ).validate()
    right = FunctorData(
        a,
        b,
        rmap,
        {(x, y, n): "%s<=%s" % (rmap[x], rmap[y]) for x, y, n in a.morphisms()},
        label="R",
    ).validate()
    unit = NatTransform(
        identity_functor(b),
        compose_functors(right, left),
        {x: b.identity[x] for x in b.objects},
    )
    counit = NatTransform(
        compose_functors(left, right),
        identity_functor(a),
        {"d0": "d0<=d0", "d1": "d0<=d1", "d2": "d2<=d2"},
    )
    return AdjunctionData(left, right, unit, counit).validate()


def c2_category():
    return monoid_category(("1", "g"), [[0, 1], [1, 0]], 0, label="C2")


def c2_twisted_adjunction():
    """Identity functors on C2 with unit = counit = g (a valid adjunction)."""
    cat = c2_category()
    idf = identity_functor(cat)
    unit = NatTransform(idf, compose_functors(idf, idf), {"*": "g"})
    counit = NatTransform(compose_functors(idf, idf), idf, {"*": "g"})
    return AdjunctionData(idf, idf, unit, counit).validate()


def c4_category():
    return monoid_category(
        ("1", "a", "a2", "a3"), [[(i + j) % 4 for j in range(4)] for i in range(4)], 0, label="C4"
    )


def v4_category():
    """The Klein four-group {1, a, b, ab}."""
    names = ("1", "a", "b", "ab")
    return monoid_category(names, [[i ^ j for j in range(4)] for i in range(4)], 0, label="V4")


def c2_into_v4():
    """g ↦ a: two h-separability structures, P(b) = 1 or g."""
    return FunctorData(
        c2_category(), v4_category(), {"*": "*"}, {("*", "*", "1"): "1", ("*", "*", "g"): "a"}, label="C2<V4"
    ).validate()


def c2_doubling_into_c4():
    """g ↦ a2: no h-separability structure, as P(a)∘P(a) = P(a2) = g has no root in C2."""
    return FunctorData(
        c2_category(), c4_category(), {"*": "*"}, {("*", "*", "1"): "1", ("*", "*", "g"): "a2"}, label="C2<C4"
    ).validate()


def parallel_arrows_inclusion(order=(0, 1, 2), composite="t"):
    """B ⊂ A on objects o0, o1, o2, listed in `order`, with identity
    endomorphisms only.  B has p, q: o0 → o1, r, r2: o1 → o2 and s, t: o0 →
    o2, with p;r = p;r2 = s and q;r = q;r2 = t.  A adds p': o0 → o1 with
    p';r = p';r2 = s, and r': o1 → o2 with p;r' = s, q;r' = t and p';r' = composite.
    Naturality forces P(p') = p and leaves P(r') free, so multiplicativity
    at p';r' decides: two structures if composite = s, none if it is t.  The order
    of the objects sets which of the three pairs the search assigns last."""
    objects = tuple("o%d" % i for i in order)
    composites = {("p", "r"): "s", ("p", "r2"): "s", ("q", "r"): "t", ("q", "r2"): "t"}
    extra = {("p'", "r"): "s", ("p'", "r2"): "s", ("p", "r'"): "s", ("q", "r'"): "t", ("p'", "r'"): composite}

    def category(homs, composites, label):
        hom = {**homs, **{(o, o): ("i" + o[1],) for o in objects}}
        compose = {(o, o, o, "i" + o[1], "i" + o[1]): "i" + o[1] for o in objects}
        for (x, y), names in homs.items():
            for name in names:
                compose[(x, x, y, "i" + x[1], name)] = compose[(x, y, y, name, "i" + y[1])] = name
        for (f, g), h in composites.items():
            compose[("o0", "o1", "o2", f, g)] = h
        return FiniteCategory(objects, hom, compose, {o: "i" + o[1] for o in objects}, label).validate()

    bhoms = {("o0", "o1"): ("p", "q"), ("o1", "o2"): ("r", "r2"), ("o0", "o2"): ("s", "t")}
    ahoms = {("o0", "o1"): ("p", "q", "p'"), ("o1", "o2"): ("r", "r2", "r'"), ("o0", "o2"): ("s", "t")}
    bcat = category(bhoms, composites, "B")
    acat = category(ahoms, {**composites, **extra}, "A")
    return FunctorData(
        bcat, acat, {o: o for o in objects}, {f: f[2] for f in bcat.morphisms()}, label="B<A"
    ).validate()


def build_adjunctions():
    return {
        "identity_2chain": identity_adjunction(chain_poset(2)),
        "galois_collapse": galois_two_chain_terminal(),
        "rl_identity": rl_identity_adjunction(),
        "c2_twisted": c2_twisted_adjunction(),
    }


def _elem(prefix, i, j, g):
    return "%s%d%d.%d" % (prefix, i, j, g)


def group_chain(m, n, prefix, mul, label):
    """G × [n] for the group {0, .., m-1} under mul: objects <prefix>i,
    Hom(i, j) = G for i <= j; g ∈ Hom(i, j) is named <prefix>ij.g."""
    names = tuple("%s%d" % (prefix, i) for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    hom = {(names[i], names[j]): tuple(_elem(prefix, i, j, g) for g in range(m)) for i, j in pairs}
    compose = {
        (names[i], names[j], names[k], _elem(prefix, i, j, f), _elem(prefix, j, k, g)):
            _elem(prefix, i, k, mul(f, g))
        for i, j in pairs
        for k in range(j, n)
        for f in range(m)
        for g in range(m)
    }
    identity = {names[i]: _elem(prefix, i, i, 0) for i in range(n)}
    return FiniteCategory(names, hom, compose, identity, label).validate()


def cyclic_chain(m, n, prefix):
    """C_m × [n], composed by addition mod m."""
    return group_chain(m, n, prefix, lambda f, g: (f + g) % m, "C%dx[%d]" % (m, n))


def c2_chain_into_v4_chain(n=2):
    """C2 × [n] → V4 × [n], g ↦ a on every hom-set, where V4 = {0, 1, 2, 3}
    under xor and a = 1.  Each hom-set leaves P(b) and P(ab) free, and
    naturality ties them across hom-sets: two structures."""
    bcat = cyclic_chain(2, n, "b")
    acat = group_chain(4, n, "a", lambda f, g: f ^ g, "V4x[%d]" % n)
    return FunctorData(
        bcat,
        acat,
        {"b%d" % i: "a%d" % i for i in range(n)},
        {(x, y, name): "a" + name[1:] for x, y, name in bcat.morphisms()},
        label="C2x[%d]<V4x[%d]" % (n, n),
    ).validate()


def cyclic_chain_adjunction(m, n, extra, u, h):
    """L ⊣ R between B = C_m × [n] and A = C_m × [n + extra].

    L sends i to l(i) = i + extra for i > 0 (and 0 to 0) and acts on C_m
    by the automorphism x ↦ u·x; R sends j to max{i : l(i) <= j} and acts
    by u⁻¹.  The unit is the constant h and the counit −u·h.  RL = Id
    always; LR = Id exactly when extra = 0.
    """
    na = n + extra
    bcat, acat = cyclic_chain(m, n, "b"), cyclic_chain(m, na, "a")
    l = [0] + [i + extra for i in range(1, n)]
    r = [max(i for i in range(n) if l[i] <= j) for j in range(na)]

    def functor(src, tgt, size, obj, scale, label):
        sp, tp = src.objects[0][0], tgt.objects[0][0]
        morphisms = {
            (src.objects[i], src.objects[j], _elem(sp, i, j, g)): _elem(tp, obj[i], obj[j], scale * g % m)
            for i in range(size)
            for j in range(i, size)
            for g in range(m)
        }
        objects = {src.objects[i]: tgt.objects[obj[i]] for i in range(size)}
        return FunctorData(src, tgt, objects, morphisms, label).validate()

    left = functor(bcat, acat, n, l, u, "L")
    right = functor(acat, bcat, na, r, pow(u, -1, m), "R")
    unit = NatTransform(
        identity_functor(bcat),
        compose_functors(right, left),
        {"b%d" % i: _elem("b", i, i, h % m) for i in range(n)},
    )
    counit = NatTransform(
        compose_functors(left, right),
        identity_functor(acat),
        {"a%d" % j: _elem("a", l[r[j]], j, -u * h % m) for j in range(na)},
    )
    return AdjunctionData(left, right, unit, counit).validate()


def adjunction_doc(adj):
    """The document of adj with every category inline, as the benchmark
    writes them: each category appears twice, as the same text."""
    cats = {}

    def category(cat):
        if id(cat) not in cats:
            cats[id(cat)] = category_to_doc(cat)
        return cats[id(cat)]

    def functor(fun):
        return {
            "type": "functor",
            "label": fun.label,
            "source": category(fun.source),
            "target": category(fun.target),
            "objects": dict(fun.object_map),
            "morphisms": [[*key, name] for key, name in fun.morphism_map.items()],
        }

    return {
        "type": "adjunction",
        "left": functor(adj.left),
        "right": functor(adj.right),
        "unit": dict(adj.unit.components),
        "counit": dict(adj.counit.components),
    }


def oracle_adjunctions():
    """build_adjunctions(), both corpus adjunctions, a collapse whose monad
    moves an object, and two C3 × chain adjunctions: one with LR = Id,
    one with LR != Id."""
    fixtures = dict(build_adjunctions())
    fixtures["codiscrete_collapse"] = codiscrete_pair_collapse()
    for case in ("rafael_c2", "galois_2chain"):
        fixtures["corpus_" + case] = adjunction_from_doc(str(CORPUS / case / "adjunction.json"))
    fixtures["c3x2_lr_identity"] = cyclic_chain_adjunction(3, 2, 0, u=2, h=1)
    fixtures["c3x2_into_c3x3"] = cyclic_chain_adjunction(3, 2, 1, u=2, h=1)
    return fixtures


# ---------------------------------------------------------------------------
# brute-force oracle: every candidate family of components is built, then
# naturality, the unit/counit law and the heavy law are checked directly on
# each side, without the opposite category or the monad.


def _natural_families(source, target, cat, hom_of):
    for combo in itertools.product(*(cat.hom_set(*hom_of(x)) for x in cat.objects)):
        cand = NatTransform(source, target, dict(zip(cat.objects, combo)))
        try:
            cand.validate()
        except CategoryLawError:
            continue
        yield cand


def oracle_rafael_retractions(adj, side):
    """(separable, heavy) component keys of the unit retractions (left) or
    the counit sections (right)."""
    sep, heavy = [], []
    if side == "left":
        bcat = adj.left.source
        rl = compose_functors(adj.right, adj.left)
        for cand in _natural_families(rl, identity_functor(bcat), bcat, lambda b: (rl.object_map[b], b)):
            if any(
                comp(bcat, adj.unit.component(b), cand.component(b)) != bcat.id_mor(b)
                for b in bcat.objects
            ):
                continue
            sep.append(cand.key())
            if all(
                comp(bcat, cand.component(rl.object_map[b]), cand.component(b))
                == comp(bcat, adj.right.apply(adj.counit.component(adj.left.object_map[b])), cand.component(b))
                for b in bcat.objects
            ):
                heavy.append(cand.key())
    else:
        acat = adj.left.target
        lr = compose_functors(adj.left, adj.right)
        for cand in _natural_families(identity_functor(acat), lr, acat, lambda a: (a, lr.object_map[a])):
            if any(
                comp(acat, cand.component(a), adj.counit.component(a)) != acat.id_mor(a)
                for a in acat.objects
            ):
                continue
            sep.append(cand.key())
            if all(
                comp(acat, cand.component(a), cand.component(lr.object_map[a]))
                == comp(acat, cand.component(a), adj.left.apply(adj.unit.component(adj.right.object_map[a])))
                for a in acat.objects
            ):
                heavy.append(cand.key())
    return sorted(sep), sorted(heavy)


def oracle_monad_augmentations(monad):
    """Component keys of all natural γ: T → Id with γ∘η = id and γγT = γ∘μ."""
    cat, t = monad.functor.source, monad.functor
    found = []
    for cand in _natural_families(t, identity_functor(cat), cat, lambda b: (t.object_map[b], b)):
        if any(comp(cat, monad.unit.component(b), cand.component(b)) != cat.id_mor(b) for b in cat.objects):
            continue
        if all(
            comp(cat, cand.component(t.object_map[b]), cand.component(b))
            == comp(cat, monad.mult.component(b), cand.component(b))
            for b in cat.objects
        ):
            found.append(cand.key())
    return sorted(found)


# ---------------------------------------------------------------------------
# brute-force oracle for h-separability structures: every family P with the
# values P(Ff) = f pinned, filtered by the naturality and multiplicativity
# loops written out over every morphism.


def structure_candidates(fun):
    """Every family P: Hom(F−, F−) → Hom(−, −) with P(Ff) = f."""
    bcat, acat = fun.source, fun.target
    pairs = [(x, y) for x in bcat.objects for y in bcat.objects]
    per_pair = []
    for x, y in pairs:
        pinned = {}
        for name in bcat.hom_set(x, y):
            pinned.setdefault(fun.morphism_map[(x, y, name)], []).append(name)
        if any(len(names) > 1 for names in pinned.values()):
            return  # F is not faithful: no retraction
        dom = acat.hom_set(fun.object_map[x], fun.object_map[y])
        values = [pinned.get(m, bcat.hom_set(x, y)) for m in dom]
        per_pair.append([dict(zip(dom, combo)) for combo in itertools.product(*values)])
    for tables in itertools.product(*per_pair):
        yield dict(zip(pairs, tables))


def oracle_structure_law_failure(fun, P):
    """"natural" or "multiplicative", the first law the family P breaks, or
    None; P may leave pairs unassigned, and conditions on them are skipped."""
    bcat, acat = fun.source, fun.target

    def p_apply(x, y, m):
        return (x, y, P[(x, y)][m[2]])

    for (x, y), table in P.items():
        fx, fy = fun.object_map[x], fun.object_map[y]
        for fname in table:
            fmor = (fx, fy, fname)
            for u in bcat.morphisms():
                if u[1] != x:
                    continue
                for v in bcat.morphisms():
                    if v[0] != y or (u[0], v[1]) not in P:
                        continue
                    conj = comp(acat, comp(acat, fun.apply(u), fmor), fun.apply(v))
                    if p_apply(u[0], v[1], conj) != comp(bcat, comp(bcat, u, p_apply(x, y, fmor)), v):
                        return "natural"
    for (x, y), t1 in P.items():
        fx, fy = fun.object_map[x], fun.object_map[y]
        for (y2, z), t2 in P.items():
            if y2 != y or (x, z) not in P:
                continue
            fz = fun.object_map[z]
            for gname in t1:
                g = (fx, fy, gname)
                for fname in t2:
                    f = (fy, fz, fname)
                    if p_apply(x, z, comp(acat, g, f)) != comp(bcat, p_apply(x, y, g), p_apply(y, z, f)):
                        return "multiplicative"
    return None


def structure_key(P):
    return tuple(sorted((pair, tuple(sorted(table.items()))) for pair, table in P.items()))


def oracle_h_separability_structures(fun):
    """Sorted keys of all h-separability structures of fun."""
    return sorted(structure_key(P) for P in structure_candidates(fun) if oracle_structure_law_failure(fun, P) is None)


# ---------------------------------------------------------------------------
# law-check oracle: the category and functor laws as loops over morphisms,
# pairs and triples, on the dict tables and this module's `comp`, in the
# scan order the integer tables of `FiniteCategory.validate` and
# `FunctorData.validate` report their first failure in.


def oracle_category_law_failure(cat):
    """The first failure of `cat`'s tables or laws as an exception, or None."""
    seen = set(cat.objects)
    if len(seen) != len(cat.objects):
        return MalformedData("duplicate object labels")
    for (x, y), names in cat.hom.items():
        if x not in seen or y not in seen:
            return MalformedData("hom-set over unknown object", (x, y))
        if len(set(names)) != len(names):
            return MalformedData("duplicate morphism labels", (x, y))
    for x in cat.objects:
        if x not in cat.identity:
            return MalformedData("missing identity", x)
        if cat.identity[x] not in cat.hom_set(x, x):
            return MalformedData("identity not in hom-set", x)
    for f in cat.morphisms():
        for g in cat.morphisms():
            if g[0] != f[1]:
                continue
            key = (f[0], f[1], g[1], f[2], g[2])
            if key not in cat.compose:
                return MalformedData("missing composite", key)
            if cat.compose[key] not in cat.hom_set(f[0], g[1]):
                return MalformedData("composite outside hom-set", key)
    for f in cat.morphisms():
        if comp(cat, cat.id_mor(f[0]), f) != f:
            return IdentityLawFails("id;f != f", f)
        if comp(cat, f, cat.id_mor(f[1])) != f:
            return IdentityLawFails("f;id != f", f)
    for f in cat.morphisms():
        for g in cat.morphisms():
            if g[0] != f[1]:
                continue
            for h in cat.morphisms():
                if h[0] == g[1] and comp(cat, comp(cat, f, g), h) != comp(cat, f, comp(cat, g, h)):
                    return NotAssociativeComposition("(h∘g)∘f != h∘(g∘f)", (f, g, h))
    return None


def oracle_functor_law_failure(fun):
    """The first failure of `fun`'s maps or laws as an exception, or None."""
    src, tgt = fun.source, fun.target
    for x in src.objects:
        if fun.object_map.get(x) not in tgt.objects:
            return MalformedData("object image missing", x)
    for f in src.morphisms():
        if f not in fun.morphism_map:
            return MalformedData("morphism image missing", f)
        if fun.morphism_map[f] not in tgt.hom_set(fun.object_map[f[0]], fun.object_map[f[1]]):
            return MalformedData("morphism image outside hom-set", f)
    for x in src.objects:
        if fun.apply(src.id_mor(x)) != tgt.id_mor(fun.object_map[x]):
            return FunctorLawFails("identity not preserved", x)
    for f in src.morphisms():
        for g in src.morphisms():
            if g[0] == f[1] and fun.apply(comp(src, f, g)) != comp(tgt, fun.apply(f), fun.apply(g)):
                return FunctorLawFails("composition not preserved", (f, g))
    return None


def oracle_nat_transform_failure(alpha):
    """The first failure of `alpha`'s components or naturality squares as
    an exception, or None: F(f);α_y = α_x;G(f) composed with `comp`, one
    morphism f at a time."""
    f_fun, g_fun = alpha.source_functor, alpha.target_functor
    cat = f_fun.target
    for x in f_fun.source.objects:
        if alpha.components.get(x) not in cat.hom_set(f_fun.object_map[x], g_fun.object_map[x]):
            return MalformedData("component outside hom-set", x)
    for f in f_fun.source.morphisms():
        if comp(cat, f_fun.apply(f), alpha.component(f[1])) != comp(cat, alpha.component(f[0]), g_fun.apply(f)):
            return NaturalityFails("square does not commute", f)
    return None


def oracle_section_functors(u):
    """Sorted component keys of all functors Γ with U∘Γ = Id: every object
    choice, every lift of each morphism, and the functor laws checked by
    the loops of oracle_functor_law_failure."""
    src, tgt = u.source, u.target
    fibers = [[o for o in src.objects if u.object_map[o] == x] for x in tgt.objects]
    tgt_mors = list(tgt.morphisms())
    found = []
    for combo in itertools.product(*fibers):
        gamma_obj = dict(zip(tgt.objects, combo))
        lifts = []
        for x, y, f in tgt_mors:
            gx, gy = gamma_obj[x], gamma_obj[y]
            lifts.append([name for name in src.hom_set(gx, gy) if u.morphism_map[(gx, gy, name)] == f])
        for names in itertools.product(*lifts):
            gamma = FunctorData(tgt, src, gamma_obj, dict(zip(tgt_mors, names)))
            if oracle_functor_law_failure(gamma) is None:
                found.append(gamma.component_key())
    return sorted(found)


def oracle_eilenberg_moore(adj):
    """(category, forgetful functor) of the algebras of the monad of adj,
    built with dict lookups and `comp`: every candidate action checked,
    every B-morphism between two algebras tested, every composable pair
    composed one at a time."""
    monad = monad_from_adjunction(adj)
    bcat = adj.left.source
    t = monad.functor
    algebras = []
    for b in bcat.objects:
        tb = t.object_map[b]
        for aname in bcat.hom_set(tb, b):
            a = (tb, b, aname)
            if comp(bcat, monad.unit.component(b), a) != bcat.id_mor(b):
                continue
            if comp(bcat, t.apply(a), a) != comp(bcat, monad.mult.component(b), a):
                continue
            algebras.append((b, a))
    objects = tuple("%s|%s" % (b, a[2]) for b, a in algebras)
    by_label = dict(zip(objects, algebras))
    hom = {}
    for ob1, (b, a) in by_label.items():
        for ob2, (c, caction) in by_label.items():
            names = []
            for fname in bcat.hom_set(b, c):
                f = (b, c, fname)
                if comp(bcat, a, f) == comp(bcat, t.apply(f), caction):
                    names.append(fname)
            hom[(ob1, ob2)] = tuple(names)
    compose = {}
    for ob1, (b, _) in by_label.items():
        for ob2, (c, _) in by_label.items():
            for ob3, (d, _) in by_label.items():
                for fn in hom[(ob1, ob2)]:
                    for gn in hom[(ob2, ob3)]:
                        compose[(ob1, ob2, ob3, fn, gn)] = comp(bcat, (b, c, fn), (c, d, gn))[2]
    identity = {ob: bcat.identity[by_label[ob][0]] for ob in objects}
    em = FiniteCategory(objects, hom, compose, identity, label="EM(%s)" % t.label).validate()
    forgetful = FunctorData(
        em,
        bcat,
        {ob: by_label[ob][0] for ob in objects},
        {(ob1, ob2, fn): fn for (ob1, ob2), names in hom.items() for fn in names},
        label="U",
    ).validate()
    return em, forgetful
