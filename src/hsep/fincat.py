"""Finite categories and brute-force h-separability searches.

Categories are label tables: objects, hom-sets of morphism names
(unique per hom-set, equality is label equality), a composition table
and identities.  On top of that sit functors, natural transformations,
adjunctions, monads, their opposites, and the exhaustive searches:
retraction families P making a functor (heavily) separable, natural
retractions of an adjunction unit (one search, which also yields the
monad augmentations and, on the opposite adjunction, the counit
sections), and Eilenberg-Moore section functors.  Searches raise
CapExceeded past SEARCH_CAP candidates.  Everything is small and
checked exhaustively.  Composable morphisms come from each category's
table, whose row for f: x → y lists the morphisms out of y in
morphisms() order, so that the first failure found does not move.

Each category keeps one integer view of its composition table.
Morphism ids follow morphisms(); out(x) is the list of morphisms out of
x in that order, pos[g] is g's index in out(g[0]), ptr[f] is the prefix
sum of len(out(f[1])), and vals[ptr[f] + pos[g]] is the id of g∘f: one
entry per composable pair, no N×N array.  pos, ptr and the ids along
each row come from the hom-set sizes (_layout); vals is filled in one
pass over the compose entries [X, Y, Z, f, g, g∘f], by one index.get for
each of f, g and g∘f, with −1 left where a composite is missing and −2
where it lies outside its hom-set, and the first such slot in table
order is the error raised.  A category document's entries are its own
decoded list: its compose mapping (X, Y, Z, f, g) → g∘f is built only
when something reads it (category_to_doc, an opposite's compose), and
comp reads the table, so no verdict builds it.  Document files are
decoded by documents.load, which decodes an inline copy that repeats an
earlier one once, so adjunction_from_doc builds each distinct category
once and knows its copies by identity; a category or functor given
inline must be a JSON object, and one given by path a file that holds
one.  Derived categories and functors
gather theirs from tables that exist, and read no composite through a
dict: an opposite keeps the original's morphism ids, its slot (f, g) is
the original's (g, f), and it is gathered only when first used; the
Eilenberg-Moore category reads its algebras, its hom-sets and its table
off the base category's; an identity functor's image array is arange, a
composite's is the second's gathered at the first's, and an opposite's
is the original's.  The identity laws, associativity on every
composable triple, (h∘g)∘f against h∘(g∘f), and a functor's F(g∘f) =
F(g)∘F(f) on every pair are array comparisons on the table.  The first
failure reported is the first index of the failure mask, with pairs in
(f, g ∈ out(f[1])) order and triples in (f, g, h ∈ out(g[1])) order,
the order of the loops over morphisms in tests/cat_util.py, so the
witness is the one those loops find.

The naturality and multiplicativity laws of a retraction family P of a
functor F are integer rows on those tables, built once per functor
(_Conditions).  Each pair (x, y) of objects owns one slot per morphism
of Hom(Fx, Fy); P is an array over the slots, holding morphism ids of
F's source.  Naturality is one row per (u, m, v), multiplicativity one
per (g, f), and a row is checked by gathers on vals[ptr[·] + pos[·]].

Every law is written once, as a failure mask over rows: _broken for
those structure rows, _unnatural for a natural transformation's squares
α_y∘F(f) = G(f)∘α_x (one row per morphism f, against each functor's
cached image array) and _uncomposed for a functor's F(g∘f) = F(g)∘F(f)
(one row (f, g, g∘f) per composable pair of its source).  validate
passes all rows; the three searches pass the rows of one stage.  They
run on one engine, _assignments, which fills an integer array stage by
stage on an explicit stack of itertools.product iterators, with no
recursion.  Each search gives it the slots, their choices, one group
per slot (a pair of objects, an object or a morphism) and the rows with
the slots each reads; the engine forms the stages: every slot with a
single choice in one first stage, then one stage per group in
increasing order, and each row checked at the stage that assigns the
last of its slots.  So a fully faithful F, whose slots are all pinned
to P(Ff) = f, is one stage.  No search calls comp.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .documents import load
from .exactalg import CapExceeded

SEARCH_CAP = 10**7  # candidates a search may enumerate; read at call time

__all__ = [
    "FiniteCategory",
    "FunctorData",
    "NatTransform",
    "AdjunctionData",
    "MonadData",
    "HSepStructure",
    "CategoryLawError",
    "MalformedData",
    "NotAssociativeComposition",
    "IdentityLawFails",
    "FunctorLawFails",
    "NaturalityFails",
    "TriangleIdentityFails",
    "MonadLawFails",
    "validate",
    "poset_category",
    "chain_poset",
    "monoid_category",
    "identity_functor",
    "compose_functors",
    "identity_adjunction",
    "find_h_separability_structures",
    "find_rafael_retractions",
    "monad_from_adjunction",
    "eilenberg_moore",
    "find_section_functors",
    "find_monad_augmentations",
    "category_from_doc",
    "category_to_doc",
    "functor_from_doc",
    "adjunction_from_doc",
]


class CategoryLawError(ValueError):
    """A law of the presented structure fails; carries the witness tuple."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else "%s at %r" % (message, witness))
        self.witness = witness


class MalformedData(CategoryLawError):
    pass


class NotAssociativeComposition(CategoryLawError):
    pass


class IdentityLawFails(CategoryLawError):
    pass


class FunctorLawFails(CategoryLawError):
    pass


class NaturalityFails(CategoryLawError):
    pass


class TriangleIdentityFails(CategoryLawError):
    pass


class MonadLawFails(CategoryLawError):
    pass


def _reverse(key):
    """(x, y), (x, y, f) or (x, y, z, f, g) with the objects and the names
    each reversed: the same key read in the opposite category."""
    n = len(key) // 2 + 1  # objects in the key
    return key[n - 1 :: -1] + key[: n - 1 : -1]


class _OppositeTable(Mapping):
    """A hom, functor or composition table read through _reverse; nothing is copied."""

    def __init__(self, table):
        self._table = table

    def __getitem__(self, key):
        return self._table[_reverse(key)]

    def __iter__(self):
        return map(_reverse, self._table)

    def __len__(self):
        return len(self._table)


class _Entries(Mapping):
    """A category document's compose list of [X, Y, Z, f, g, g∘f] entries,
    read as the mapping (X, Y, Z, f, g) → g∘f, the later of two entries
    for one key winning.  The table is built from the list itself; the
    dict is built only when something reads the mapping."""

    def __init__(self, entries):
        self.entries = entries

    @cached_property
    def _dict(self):
        return {(x, y, z, f, g): h for x, y, z, f, g, h in self.entries}

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self._dict)


class _CompositionTable(NamedTuple):
    """A category's composition on integer ids, which follow morphisms().

    pos[g] is g's index among the morphisms out of g[0], and the row of
    f, from ptr[f], lists g∘f for each g out of f[1]: vals[ptr[f] +
    pos[g]] is the id of g∘f, and first and second are the ids of f and
    g along vals.  Objects are numbered in objects order.
    """

    mors: list
    index: dict
    pos: np.ndarray
    ptr: np.ndarray
    second: np.ndarray
    vals: np.ndarray
    ends: np.ndarray  # the source and target object index of each morphism

    @property
    def out_degree(self):
        """The number of morphisms out of f[1] for each f: the length of f's row."""
        return np.diff(self.ptr, append=len(self.vals))

    @property
    def first(self):
        return np.repeat(np.arange(len(self.mors)), self.out_degree)


def _expand(counts):
    """Item i repeated counts[i] times, and beside each copy its rank 0, 1, ...
    among the copies of i."""
    item = np.repeat(np.arange(len(counts)), counts)
    return item, np.arange(len(item)) - np.repeat(np.cumsum(counts) - counts, counts)


def _layout(ends, n):
    """pos, ptr, first and second of the composition table of the morphisms
    whose source and target object indices, among n objects, are `ends`."""
    src, tgt = ends.T
    order = np.argsort(src, kind="stable")  # out of object 0, of 1, ..., each in id order
    size = np.bincount(src, minlength=n)
    start = np.cumsum(size) - size
    pos = np.empty(len(src), dtype=np.int64)
    pos[order] = np.arange(len(src)) - np.repeat(start, size)
    first, k = _expand(size[tgt])
    return pos, np.cumsum(size[tgt]) - size[tgt], first, order[start[tgt[first]] + k]


def _homs(cat):
    """(size, first, place) on cat's table: the size and first id of each
    hom-set (x, y), indexed by x·n + y, and each morphism's index in its
    hom-set, whose ids run consecutively in hom order."""
    t, n = cat._table, len(cat.objects)
    key = t.ends[:, 0] * n + t.ends[:, 1]
    _, place = _expand(np.array([len(names) for names in cat.hom.values()], dtype=np.int64))
    first = np.zeros(n * n, dtype=np.int64)
    first[key] = np.arange(len(key)) - place
    return np.bincount(key, minlength=n * n), first, place


@dataclass(frozen=True, eq=False)
class FiniteCategory:
    """objects, hom tables, composition table (g∘f), identities."""

    objects: tuple[str, ...]
    hom: dict
    compose: dict
    identity: dict
    label: str = "category"

    def hom_set(self, x, y):
        return self.hom.get((x, y), ())

    def morphisms(self):
        for (x, y), names in self.hom.items():
            for name in names:
                yield (x, y, name)

    def id_mor(self, x):
        return (x, x, self.identity[x])

    def comp(self, f, g):
        """g∘f for f: X→Y and g: Y→Z, read off the composition table."""
        if f[1] != g[0]:
            raise MalformedData("morphisms do not compose", (f, g))
        t = self._table
        return t.mors[t.vals[t.ptr[t.index[f]] + t.pos[t.index[g]]]]

    @cached_property
    def _raw_table(self):
        """The integer composition table, read in one pass over the compose
        entries [X, Y, Z, f, g, g∘f], a document's own list or the items of
        a dict, by one index.get for each of f, g and g∘f; a slot holds −1
        for a missing composite and −2 for one outside its hom-set.
        Entries that name no morphism are ignored, and of two entries for
        one slot the later wins, as in a dict."""
        mors = list(self.morphisms())
        index = {f: i for i, f in enumerate(mors)}
        number = {x: i for i, x in enumerate(self.objects)}
        ends = np.array([(number[x], number[y]) for x, y, _ in mors], dtype=np.int64).reshape(-1, 2)
        pos, ptr, _, second = _layout(ends, len(self.objects))
        entries = self.compose.entries if isinstance(self.compose, _Entries) else [(*k, h) for k, h in self.compose.items()]

        def ids(entries):
            return [
                (index.get((x, y, f), -1), index.get((y, z, g), -1), index.get((x, z, h), -2))
                for x, y, z, f, g, h in entries
            ]

        try:
            fgh = ids(entries)
        except TypeError:
            # the first malformed entry raises what building the compose
            # dict raises; else a composite that cannot be hashed, a list
            # say, names no morphism
            for x, y, z, f, g, _ in entries:
                hash((x, y, z, f, g))
            fgh = ids([(x, y, z, f, g, h if h.__hash__ else object()) for x, y, z, f, g, h in entries])
        f, g, h = np.fromiter(itertools.chain.from_iterable(fgh), np.int64, 3 * len(fgh)).reshape(-1, 3).T
        named = (f >= 0) & (g >= 0)
        slot = ptr[f[named]] + pos[g[named]]
        _, last = np.unique(slot[::-1], return_index=True)  # each slot's last entry, counted from the end
        vals = np.full(len(second), -1, dtype=np.int64)
        vals[slot[::-1][last]] = h[named][::-1][last]
        return _CompositionTable(mors, index, pos, ptr, second, vals, ends)

    @cached_property
    def _table(self):
        """The integer composition table, once every composite exists and
        lies in its hom-set; the first failure in table order is raised."""
        t = self._raw_table
        bad = t.vals < 0
        if bad.any():
            i = bad.argmax()
            f, g = t.mors[t.first[i]], t.mors[t.second[i]]
            message = "missing composite" if t.vals[i] == -1 else "composite outside hom-set"
            raise MalformedData(message, (f[0], f[1], g[1], f[2], g[2]))
        return t

    def validate(self):
        seen = set(self.objects)
        if len(seen) != len(self.objects):
            raise MalformedData("duplicate object labels")
        for (x, y), names in self.hom.items():
            if x not in seen or y not in seen:
                raise MalformedData("hom-set over unknown object", (x, y))
            if len(set(names)) != len(names):
                raise MalformedData("duplicate morphism labels", (x, y))
        for x in self.objects:
            if x not in self.identity:
                raise MalformedData("missing identity", x)
            if self.identity[x] not in self.hom_set(x, x):
                raise MalformedData("identity not in hom-set", x)
        t = self._table
        ids = np.arange(len(t.mors))
        ident = np.array([t.index[self.id_mor(x)] for x in self.objects], dtype=np.int64)
        source_id, target_id = ident[t.ends.T]
        left = t.vals[t.ptr[source_id] + t.pos] != ids  # f∘id
        bad = left | (t.vals[t.ptr + t.pos[target_id]] != ids)  # id∘f
        if bad.any():
            i = bad.argmax()
            raise IdentityLawFails("id;f != f" if left[i] else "f;id != f", t.mors[i])
        # the triples (f, g, h) in scan order: pair p = (f, g) once for each
        # h, and h = second[ptr[g] + k] the k-th morphism out of g[1]
        p, k = _expand(t.out_degree[t.second])
        h_gf = t.vals[t.ptr[t.vals[p]] + k]
        hg = t.vals[t.ptr[t.second[p]] + k]
        bad = h_gf != t.vals[t.ptr[t.first[p]] + t.pos[hg]]  # against (h∘g)∘f
        if bad.any():
            i = bad.argmax()
            f, g, h = t.first[p[i]], t.second[p[i]], t.second[t.ptr[t.second[p[i]]] + k[i]]
            raise NotAssociativeComposition("(h∘g)∘f != h∘(g∘f)", (t.mors[f], t.mors[g], t.mors[h]))
        return self

    def opposite(self):
        """The opposite category: arrows reversed, every name kept.  It is
        made once per category and keeps its morphism ids, so its
        composition table is gathered from this one when first used."""
        return self._opposite

    @cached_property
    def _opposite(self):
        return _GatheredCategory(
            self.objects,
            _OppositeTable(self.hom),
            _OppositeTable(self.compose),
            self.identity,
            self.label + "^op",
            gather=lambda: _opposite_table(self._raw_table, len(self.objects)),
        )


def _opposite_table(t, n):
    """The raw composition table of the opposite of the category, with n
    objects, whose raw table is t, on the same morphism ids: its slot
    (f, g), g∘f there, is f∘g here, t's slot (g, f)."""
    ends = np.ascontiguousarray(t.ends[:, ::-1])
    pos, ptr, first, second = _layout(ends, n)
    mors = [(y, x, name) for x, y, name in t.mors]
    vals = t.vals[t.ptr[second] + t.pos[first]]
    return _CompositionTable(mors, {f: i for i, f in enumerate(mors)}, pos, ptr, second, vals, ends)


class _GatheredCategory(FiniteCategory):
    """A category whose raw composition table gather() derives, when first
    used, from tables that exist: an opposite's, or an Eilenberg-Moore
    category's."""

    def __init__(self, *fields, gather, **named):
        super().__init__(*fields, **named)
        object.__setattr__(self, "_gather", gather)

    @cached_property
    def _raw_table(self):
        return self._gather()


@dataclass(frozen=True, eq=False)
class FunctorData:
    source: FiniteCategory
    target: FiniteCategory
    object_map: dict
    morphism_map: dict
    label: str = "functor"

    def apply(self, f):
        x, y, name = f
        return (self.object_map[x], self.object_map[y], self.morphism_map[(x, y, name)])

    def validate(self):
        for x in self.source.objects:
            if self.object_map.get(x) not in self.target.objects:
                raise MalformedData("object image missing", x)
        for f in self.source.morphisms():
            key = f
            if key not in self.morphism_map:
                raise MalformedData("morphism image missing", f)
            fx, fy = self.object_map[f[0]], self.object_map[f[1]]
            if self.morphism_map[key] not in self.target.hom_set(fx, fy):
                raise MalformedData("morphism image outside hom-set", f)
        for x in self.source.objects:
            if self.apply(self.source.id_mor(x)) != self.target.id_mor(self.object_map[x]):
                raise FunctorLawFails("identity not preserved", x)
        s = self.source._table
        pairs = np.stack([s.first, s.second, s.vals], axis=1)  # (f, g, g∘f) in table order
        bad = _uncomposed(self.target._table, self._img, pairs)
        if bad.any():
            f, g, _ = pairs[bad.argmax()]
            raise FunctorLawFails("composition not preserved", (s.mors[f], s.mors[g]))
        return self

    @cached_property
    def _img(self):
        """The target-table id of F(f) for each source morphism f, in morphisms() order."""
        index = self.target._table.index
        return np.array([index[self.apply(f)] for f in self.source._table.mors], dtype=np.int64)

    @cached_property
    def _conditions(self):
        return _Conditions.build(self)

    def component_key(self):
        return tuple(sorted(self.object_map.items())), tuple(sorted(self.morphism_map.items()))

    def opposite(self):
        """F^op between the opposite categories, with the same maps; the
        opposites keep the morphism ids, so F^op has F's image array."""
        return _GatheredFunctor(
            self.source.opposite(),
            self.target.opposite(),
            self.object_map,
            _OppositeTable(self.morphism_map),
            self.label + "^op",
            gather=lambda: self._img,
        )


class _GatheredFunctor(FunctorData):
    """A functor whose image array gather() derives, when first used, from
    arrays that exist: an opposite's, an identity's or a composite's."""

    def __init__(self, *fields, gather, **named):
        super().__init__(*fields, **named)
        object.__setattr__(self, "_gather", gather)

    @cached_property
    def _img(self):
        return self._gather()


def identity_functor(cat: FiniteCategory) -> FunctorData:
    return _GatheredFunctor(
        cat,
        cat,
        {x: x for x in cat.objects},
        {f: f[2] for f in cat.morphisms()},
        label="Id",
        gather=lambda: np.arange(len(cat._table.mors)),
    )


def compose_functors(second: FunctorData, first: FunctorData) -> FunctorData:
    """second ∘ first; through one category, its image array is second's
    gathered at first's."""
    if first.target is not second.source and first.target.objects != second.source.objects:
        raise MalformedData("functors do not compose")
    om = first.object_map
    maps = (
        first.source,
        second.target,
        {x: second.object_map[om[x]] for x in first.source.objects},
        {f: second.morphism_map[om[f[0]], om[f[1]], first.morphism_map[f]] for f in first.source.morphisms()},
        "%s∘%s" % (second.label, first.label),
    )
    if first.target is second.source:
        return _GatheredFunctor(*maps, gather=lambda: second._img[first._img])
    return FunctorData(*maps)


@dataclass(frozen=True, eq=False)
class NatTransform:
    source_functor: FunctorData
    target_functor: FunctorData
    components: dict  # object -> morphism name in Hom(FX, GX)

    def component(self, x):
        fx = self.source_functor.object_map[x]
        gx = self.target_functor.object_map[x]
        return (fx, gx, self.components[x])

    def validate(self):
        f_fun, g_fun = self.source_functor, self.target_functor
        cat = f_fun.target
        for x in f_fun.source.objects:
            fx, gx = f_fun.object_map[x], g_fun.object_map[x]
            if self.components.get(x) not in cat.hom_set(fx, gx):
                raise MalformedData("component outside hom-set", x)
        index, mors = cat._table.index, f_fun.source._table.mors
        alpha = np.array([index[self.component(x)] for x in f_fun.source.objects], dtype=np.int64)
        bad = _unnatural(f_fun, g_fun, alpha, np.arange(len(mors)))
        if bad.any():
            raise NaturalityFails("square does not commute", mors[bad.argmax()])
        return self

    def key(self):
        return tuple(sorted(self.components.items()))

    def opposite(self):
        """α^op: G^op → F^op, with the same components."""
        return NatTransform(
            self.target_functor.opposite(), self.source_functor.opposite(), self.components
        )


@dataclass(frozen=True, eq=False)
class AdjunctionData:
    """(L, R, unit, counit) with L: B → A left adjoint to R: A → B."""

    left: FunctorData
    right: FunctorData
    unit: NatTransform
    counit: NatTransform

    def validate(self):
        self.left.validate()
        self.right.validate()
        self.unit.validate()
        self.counit.validate()
        bcat, acat = self.left.source, self.left.target
        for b in bcat.objects:
            lb = self.left.object_map[b]
            lhs = acat.comp(self.left.apply(self.unit.component(b)), self.counit.component(lb))
            if lhs != acat.id_mor(lb):
                raise TriangleIdentityFails("(εL)(Lη) != id", b)
        for a in acat.objects:
            ra = self.right.object_map[a]
            lhs = bcat.comp(self.unit.component(ra), self.right.apply(self.counit.component(a)))
            if lhs != bcat.id_mor(ra):
                raise TriangleIdentityFails("(Rε)(ηR) != id", a)
        return self

    def opposite(self):
        """R^op ⊣ L^op, unit and counit swapped; not re-validated."""
        return AdjunctionData(
            self.right.opposite(), self.left.opposite(), self.counit.opposite(), self.unit.opposite()
        )


@dataclass(frozen=True, eq=False)
class MonadData:
    functor: FunctorData  # endofunctor T on B
    unit: NatTransform  # Id → T
    mult: NatTransform  # TT → T

    def validate(self):
        self.functor.validate()
        self.unit.validate()
        self.mult.validate()
        cat = self.functor.source
        t = self.functor
        for b in cat.objects:
            tb = t.object_map[b]
            mu = self.mult.component(b)
            if cat.comp(t.apply(self.unit.component(b)), mu) != cat.id_mor(tb):
                raise MonadLawFails("μ∘Tη != id", b)
            if cat.comp(self.unit.component(tb), mu) != cat.id_mor(tb):
                raise MonadLawFails("μ∘ηT != id", b)
            if cat.comp(t.apply(self.mult.component(b)), mu) != cat.comp(self.mult.component(tb), mu):
                raise MonadLawFails("μ∘Tμ != μ∘μT", b)
        return self


class _Conditions(NamedTuple):
    """The naturality and multiplicativity laws of a retraction family P of
    F: B → A, as integer rows over slots.

    The pair (x, y) of B's objects is number x·n + y, in search order, and
    owns one slot for each m in Hom(Fx, Fy), from base[pair] in hom-set
    order; slot_mor is the A-table id of its m, and pin[f] the slot of Ff.
    P is an array of B-table ids over those S slots, then over one
    constant slot S + f for each morphism f of B, which holds f;
    slot_pair is the pair of each of the S slots.  A row (h, a, b, c)
    asks P[h] = P[c]∘P[b]∘P[a].  Naturality, for u: w → x, m in
    Hom(Fx, Fy) and v: y → z, is the row (slot of Fv∘m∘Fu in (w, z),
    S + u, m, S + v); multiplicativity, for g in Hom(Fx, Fy) and f in
    Hom(Fy, Fz), is (slot of f∘g in (x, z), S + id_x, g, f).  The
    naturality rows come first, so a row is one of them exactly when its
    c is a constant slot.
    """

    slot_pair: np.ndarray
    slot_mor: np.ndarray
    pin: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, fun):
        sb, ta, img = fun.source._table, fun.target._table, fun._img
        n, na = len(fun.source.objects), len(fun.target.objects)
        ident = np.array([sb.index[fun.source.id_mor(x)] for x in fun.source.objects], dtype=np.int64)
        fobj = ta.ends[img[ident], 0]  # F(id_x) = id_Fx
        size, first, place = _homs(fun.target)
        pair_hom = (fobj[:, None] * na + fobj).ravel()
        slot_pair, rank = _expand(size[pair_hom])
        slot_mor, S = first[pair_hom[slot_pair]] + rank, len(slot_pair)
        base = np.searchsorted(slot_pair, np.arange(n * n + 1))
        x, y = np.divmod(slot_pair, n)
        src, tgt = sb.ends.T
        # naturality: each u: w → x, each slot m of a pair (x, y), and each v
        # out of y, which the row of id_y in B's table lists
        u, k = _expand(base[(tgt + 1) * n] - base[tgt * n])
        m = base[tgt[u] * n] + k
        r, k = _expand(sb.out_degree[ident[y[m]]])
        u, m, v = u[r], m[r], sb.second[sb.ptr[ident[y[m[r]]]] + k]
        conj = ta.vals[ta.ptr[ta.vals[ta.ptr[img[u]] + ta.pos[slot_mor[m]]]] + ta.pos[img[v]]]
        nat = np.stack([base[src[u] * n + tgt[v]] + place[conj], S + u, m, S + v], axis=1)
        # multiplicativity: each slot g of (x, y), each slot f of a pair (y, z)
        g, k = _expand(base[(y + 1) * n] - base[y * n])
        f = base[y[g] * n] + k
        fg = base[x[g] * n + y[f]] + place[ta.vals[ta.ptr[slot_mor[g]] + ta.pos[slot_mor[f]]]]
        rows = np.concatenate([nat, np.stack([fg, S + ident[x[g]], g, f], axis=1)])
        return cls(slot_pair, slot_mor, base[sb.ends[:, 0] * n + sb.ends[:, 1]] + place[img], rows)


def _broken(sb, P, rows):
    """The mask of the rows (h, a, b, c) with P[h] != P[c]∘P[b]∘P[a], on B's table sb."""
    h, a, b, c = rows.T
    ba = sb.vals[sb.ptr[P[a]] + sb.pos[P[b]]]
    return P[h] != sb.vals[sb.ptr[ba] + sb.pos[P[c]]]


def _uncomposed(t, img, rows):
    """The mask of the rows (f, g, g∘f) of a functor's source table with
    img[g∘f] != img[g]∘img[f] on its target table t; img holds t-ids."""
    f, g, gf = rows.T
    return img[gf] != t.vals[t.ptr[img[f]] + t.pos[img[g]]]


def _unnatural(f_fun, g_fun, alpha, rows):
    """The mask of the source morphisms f: x → y in `rows` with
    α_y∘F(f) != G(f)∘α_x; alpha holds each component's target-table id,
    in objects order."""
    s, t = f_fun.source._table, f_fun.target._table
    ax, ay = alpha[s.ends[rows]].T
    return t.vals[t.ptr[f_fun._img[rows]] + t.pos[ay]] != t.vals[t.ptr[ax] + t.pos[g_fun._img[rows]]]


def _assignments(P, slots, choices, group, rows, reads, broken):
    """Every completion of the integer array P that breaks no row, depth
    first on an explicit stack of itertools.product iterators.

    P[slots[i]] takes each id of the list choices[i].  The slots with a
    single choice are assigned in one first stage, and the others in one
    stage per value of `group`, in increasing order; a stage gives its
    slots each combination of their choices, in product order.  Row r
    reads P at reads[r], where an index outside `slots` holds a constant,
    and is checked at the stage that assigns the last of those slots:
    broken(P, rows) is the failure mask of that stage's rows.  P itself
    is yielded: copy what is kept."""
    key = np.where([len(c) == 1 for c in choices], -1, group)
    ids, stage = np.unique(key, return_inverse=True)
    at = np.zeros(len(P), dtype=np.int64)  # the stage of each index of P, 0 for a constant
    at[slots] = stage
    tag = at[reads].max(axis=1, initial=0)
    bounds, order, by_tag = np.arange(1, len(ids)), np.argsort(stage, kind="stable"), np.argsort(tag, kind="stable")
    stages = [
        (slots[k], [choices[i] for i in k], checked)
        for k, checked in zip(
            np.split(order, np.searchsorted(stage[order], bounds)),
            np.split(rows[by_tag], np.searchsorted(tag[by_tag], bounds)),
        )
    ]
    stack = [itertools.product(*stages[0][1])]  # one iterator per stage assigned so far
    while stack:
        slots, _, rows = stages[len(stack) - 1]
        # the top stage takes its next choice that breaks none of its rows
        if not any(not broken(P, rows).any() for P[slots] in stack[-1]):
            stack.pop()
        elif len(stack) == len(stages):
            yield P
        else:
            stack.append(itertools.product(*stages[len(stack)][1]))


@dataclass(frozen=True, eq=False)
class HSepStructure:
    """Retraction family P for F with P(f∘g) = P(f)∘P(g)."""

    functor: FunctorData
    P: dict  # (X, Y) -> dict: name in Hom(FX,FY) -> name in Hom(X,Y)

    def apply(self, x, y, f):
        return (x, y, self.P[(x, y)][f[2]])

    def validate(self):
        fun = self.functor
        bcat, acat = fun.source, fun.target
        for x in bcat.objects:
            for y in bcat.objects:
                fx, fy = fun.object_map[x], fun.object_map[y]
                table = self.P.get((x, y), {})
                dom = acat.hom_set(fx, fy)
                if set(table) != set(dom):
                    raise MalformedData("P table domain mismatch", (x, y))
                for name in table:
                    if table[name] not in bcat.hom_set(x, y):
                        raise MalformedData("P value outside hom-set", (x, y, name))
        for f in bcat.morphisms():
            if self.apply(f[0], f[1], fun.apply(f)) != f:
                raise CategoryLawError("P∘F != id", f)
        # the family on the slots, then the constants; the naturality rows
        # come first, so the first failing row names naturality before
        # multiplicativity
        c, sb, ta = fun._conditions, bcat._table, acat._table
        pairs = [(x, y) for x in bcat.objects for y in bcat.objects]
        values = [(*pairs[p], self.P[pairs[p]][ta.mors[m][2]]) for p, m in zip(c.slot_pair.tolist(), c.slot_mor.tolist())]
        P = np.array([sb.index[f] for f in values] + list(range(len(sb.mors))), dtype=np.int64)
        bad = _broken(sb, P, c.rows)
        if bad.any():
            _, a, b, d = c.rows[bad.argmax()]  # (h, u, m, v) or (f∘g, id_x, g, f)
            if d >= len(c.slot_mor):  # v, a constant: a naturality row
                raise NaturalityFails("P not natural", (sb.mors[P[a]], ta.mors[c.slot_mor[b]], sb.mors[P[d]]))
            raise CategoryLawError("P not multiplicative", (ta.mors[c.slot_mor[b]], ta.mors[c.slot_mor[d]]))
        return self

    def key(self):
        return tuple(sorted((pair, tuple(sorted(tbl.items()))) for pair, tbl in self.P.items()))


def validate(value):
    """Exhaustively check the laws of any of the structure types."""
    if isinstance(value, (FiniteCategory, FunctorData, NatTransform, AdjunctionData, MonadData, HSepStructure)):
        return value.validate()
    raise TypeError("cannot validate %r" % type(value))


# ---------------------------------------------------------------------------
# builders


def poset_category(labels, leq, label="poset") -> FiniteCategory:
    """Category of a finite poset: at most one morphism per ordered pair."""
    objects = tuple(labels)
    hom = {}
    identity = {}
    for x in objects:
        for y in objects:
            if leq(x, y):
                hom[(x, y)] = ("%s<=%s" % (x, y),)
    for x in objects:
        identity[x] = "%s<=%s" % (x, x)
    compose = {}
    for (x, y), (f,) in hom.items():
        for (y2, z), (g,) in hom.items():
            if y2 == y:
                compose[(x, y, z, f, g)] = hom[(x, z)][0]
    return FiniteCategory(objects, hom, compose, identity, label).validate()


def chain_poset(n, prefix="c") -> FiniteCategory:
    labels = tuple("%s%d" % (prefix, i) for i in range(n))
    order = {lab: i for i, lab in enumerate(labels)}
    return poset_category(labels, lambda a, b: order[a] <= order[b], label="%d-chain" % n)


def monoid_category(elements, table, unit_index=0, obj="*", label="monoid") -> FiniteCategory:
    """One-object category; composition g∘f is table[g][f]."""
    names = tuple(elements)
    hom = {(obj, obj): names}
    compose = {}
    for i, f in enumerate(names):
        for j, g in enumerate(names):
            compose[(obj, obj, obj, f, g)] = names[table[j][i]]
    identity = {obj: names[unit_index]}
    return FiniteCategory((obj,), hom, compose, identity, label).validate()


def identity_adjunction(cat: FiniteCategory) -> AdjunctionData:
    idf = identity_functor(cat)
    unit = NatTransform(idf, idf, {x: cat.identity[x] for x in cat.objects})
    counit = NatTransform(idf, idf, {x: cat.identity[x] for x in cat.objects})
    return AdjunctionData(idf, idf, unit, counit).validate()


# ---------------------------------------------------------------------------
# searches


def find_h_separability_structures(fun: FunctorData, cap=None):
    """All families P: Hom(F−,F−) → Hom(−,−) making F heavily separable.

    Exhaustive product over function spaces, with the retraction
    constraint pinned; the cap bounds that product before any condition
    row is built.  P is an array over F's slots, grouped by pair of
    objects: the slots pinned to P(Ff) = f, and any other with one
    choice, are _assignments' first stage, and each naturality and
    multiplicativity row is checked once, when the last of its slots is
    assigned, so the structures found are not validated again.
    """
    cap = SEARCH_CAP if cap is None else cap
    bcat, acat = fun.source, fun.target
    pairs = [(x, y) for x in bcat.objects for y in bcat.objects]
    space = 1
    for x, y in pairs:
        dom, cod = acat.hom_set(fun.object_map[x], fun.object_map[y]), bcat.hom_set(x, y)
        pinned = len({fun.morphism_map[(x, y, f)] for f in cod})
        if pinned < len(cod) or (dom and not cod):
            return []  # F not injective on Hom(x, y), or nothing for P to take Hom(Fx, Fy) to
        space *= max(1, len(cod)) ** (len(dom) - pinned)
        if space > cap:
            raise CapExceeded(space)

    c, sb = fun._conditions, bcat._table
    S = len(c.slot_mor)
    cods = [[sb.index[(*pair, f)] for f in bcat.hom_set(*pair)] for pair in pairs]
    choices = [cods[p] for p in c.slot_pair.tolist()]
    for f, slot in enumerate(c.pin.tolist()):
        choices[slot] = [f]  # P(Ff) = f
    P = np.r_[np.full(S, -1), np.arange(len(sb.mors))]
    found = []
    for P in _assignments(P, np.arange(S), choices, c.slot_pair, c.rows, c.rows, lambda P, rows: _broken(sb, P, rows)):
        family = {pair: {} for pair in pairs}
        for p, m, b in zip(c.slot_pair.tolist(), c.slot_mor.tolist(), P.tolist()):
            family[pairs[p]][acat._table.mors[m][2]] = sb.mors[b][2]
        found.append(HSepStructure(fun, family))
    return sorted(found, key=HSepStructure.key)


def _unit_retractions(monad: MonadData):
    """Natural γ: T → Id with γ∘η = id, split into (separable, heavy); the
    heavy ones, γ∘γT = γ∘μ, are the augmentations of the monad.

    γ is an array of B-table ids over the objects, grouped by object,
    whose choices are the γ_b with γ_b∘η_b = id_b; the cap bounds their
    product.  The naturality square of a morphism is checked when the
    later of its two objects is assigned, and the heavy law is one row
    comparison on each natural γ.
    """
    cat, t = monad.functor.source, monad.functor
    if not all(cat.hom_set(t.object_map[x], x) for x in cat.objects):
        return [], []  # some γ_x has no candidate: no table is built
    sb, idf = cat._table, identity_functor(cat)
    eta = [sb.index[monad.unit.component(x)] for x in cat.objects]
    mu = [sb.index[monad.mult.component(x)] for x in cat.objects]
    choices, space = [], 1
    for e, x in zip(eta, cat.objects):
        hom = [sb.index[(t.object_map[x], x, g)] for g in cat.hom_set(t.object_map[x], x)]
        choices.append([g for g in hom if sb.vals[sb.ptr[e] + sb.pos[g]] == sb.index[cat.id_mor(x)]])
        space *= len(choices[-1])
    if space > SEARCH_CAP:
        raise CapExceeded(space)
    n, sep, heavy = len(cat.objects), [], []
    squares = np.arange(len(sb.mors))  # one per morphism, reading γ at its ends
    for gamma in _assignments(
        np.full(n, -1), np.arange(n), choices, np.arange(n), squares, sb.ends, lambda P, rows: _unnatural(t, idf, P, rows)
    ):
        cand = NatTransform(t, idf, {x: sb.mors[g][2] for x, g in zip(cat.objects, gamma.tolist())})
        sep.append(cand)
        # γ_x∘γ_Tx = γ_x∘μ_x, with Tx the end of η_x
        if (sb.vals[sb.ptr[gamma[sb.ends[eta, 1]]] + sb.pos[gamma]] == sb.vals[sb.ptr[mu] + sb.pos[gamma]]).all():
            heavy.append(cand)
    return sorted(sep, key=NatTransform.key), sorted(heavy, key=NatTransform.key)


def find_rafael_retractions(adj: AdjunctionData, side="left"):
    """Natural retractions of the unit (side=left) or sections of the
    counit (side=right), split into (separable, heavy) witness lists.

    The right side is the left side of R^op ⊣ L^op; names are kept, so its
    components are those of natural transformations Id → LR.
    """
    if side == "left":
        return _unit_retractions(monad_from_adjunction(adj))
    if side == "right":
        idf, lr = adj.counit.target_functor, adj.counit.source_functor
        found = _unit_retractions(monad_from_adjunction(adj.opposite()))
        return tuple([NatTransform(idf, lr, n.components) for n in part] for part in found)
    raise ValueError("side must be 'left' or 'right'")


def monad_from_adjunction(adj: AdjunctionData) -> MonadData:
    """The monad (RL, RεL, η) of the adjunction.

    Not re-validated: RL of a validated adjunction is a monad by the
    triangle identities.  `find_monad_augmentations` validates the monad
    it is given."""
    bcat = adj.left.source
    rl = compose_functors(adj.right, adj.left)
    mult = NatTransform(
        compose_functors(rl, rl),
        rl,
        {
            b: adj.right.apply(adj.counit.component(adj.left.object_map[b]))[2]
            for b in bcat.objects
        },
    )
    return MonadData(rl, adj.unit, mult)


def _algebra_label(b, aname):
    return "%s|%s" % (b, aname)


def eilenberg_moore(adj: AdjunctionData):
    """Category of algebras of the monad (RL, RεL, η) and its forgetful functor.

    Everything is read off B's table by gathers, g∘f at vals[ptr[f] +
    pos[g]]: the algebras a: Tb → b, with a∘η_b = id_b and a∘Ta = a∘μ_b,
    in objects then hom order; the algebra morphisms f: (b, a) → (c, c'),
    with f∘a = c'∘Tf; and the composition table of the algebras, whose ids
    follow its morphisms() and whose composites are looked up in their
    hom-sets, −2 where one is not an algebra morphism.  No dict composes;
    the category's validation on that table is the gate on the result."""
    monad = monad_from_adjunction(adj)
    bcat, t = adj.left.source, monad.functor
    sb, n, timg = bcat._table, len(bcat.objects), t._img
    size, start, place = _homs(bcat)

    def comp(f, g):
        return sb.vals[sb.ptr[f] + sb.pos[g]]

    def ids(component):
        return np.array([sb.index[component(b)] for b in bcat.objects], dtype=np.int64)

    ident, eta, mu = ids(bcat.id_mor), ids(monad.unit.component), ids(monad.mult.component)
    tb = sb.ends[eta, 1]
    b, r = _expand(size[tb * n + np.arange(n)])  # each a in Hom(Tb, b)
    a = start[tb[b] * n + b] + r
    keep = (comp(eta[b], a) == ident[b]) & (comp(timg[a], a) == comp(mu[b], a))
    obj, act = b[keep], a[keep]
    k = len(obj)
    # each f in Hom(b, c) for each pair (i, j) of algebras, numbered i·k + j
    p, r = _expand(size[(obj[:, None] * n + obj).ravel()])
    i, j = np.divmod(p, k)
    f = start[obj[i] * n + obj[j]] + r
    keep = comp(act[i], f) == comp(timg[f], act[j])
    em_id = np.full(len(f), -2, dtype=np.int64)
    em_id[keep] = np.arange(keep.sum())
    under, ends = f[keep], np.stack([i[keep], j[keep]], axis=1)
    pos, ptr, first, second = _layout(ends, k)
    h = comp(under[first], under[second])
    x, y, z = ends[first, 0], ends[second, 0], ends[second, 1]
    inside = (sb.ends[h, 0] == obj[x]) & (sb.ends[h, 1] == obj[z])
    vals = np.full(len(h), -2, dtype=np.int64)
    vals[inside] = em_id[(np.searchsorted(p, x * k + z) + place[h])[inside]]

    # names and algebra labels as object arrays, gathered by id
    names = np.fromiter((m[2] for m in sb.mors), object, len(sb.mors))
    labels = np.fromiter(map(_algebra_label, np.fromiter(bcat.objects, object, n)[obj], names[act]), object, k)
    objects = tuple(labels)
    mors = list(zip(labels[ends[:, 0]], labels[ends[:, 1]], names[under]))
    hom = {(ob1, ob2): () for ob1 in objects for ob2 in objects}
    for ob1, ob2, name in mors:
        hom[(ob1, ob2)] += (name,)
    keys = zip(labels[x], labels[y], labels[z], names[under[first]], names[under[second]])
    table = _CompositionTable(mors, {m: e for e, m in enumerate(mors)}, pos, ptr, second, vals, ends)
    under_obj = [bcat.objects[b] for b in obj.tolist()]
    em = _GatheredCategory(
        objects,
        hom,
        dict(zip(keys, names[h])),
        {ob: bcat.identity[b] for ob, b in zip(objects, under_obj)},
        label="EM(%s)" % t.label,
        gather=lambda: table,
    ).validate()
    forgetful = _GatheredFunctor(
        em, bcat, dict(zip(objects, under_obj)), {m: m[2] for m in mors}, label="U", gather=lambda: under
    ).validate()
    return em, forgetful


def find_section_functors(u: FunctorData, cap=None):
    """All functors Γ with U∘Γ = Id on the target of U.

    For each choice of objects, Γ is an array of U's source ids over the
    morphisms of U's target, grouped by morphism: f takes each of its
    lifts and id_x only id_Γx, so in _assignments the morphisms with a
    single lift share the first stage and each other one has its own;
    Γ(g∘f) = Γ(g)∘Γ(f) is checked at the stage of the last of f, g and
    g∘f.  The cap bounds the lifts enumerated over all object choices
    together, not those of each choice."""
    cap = SEARCH_CAP if cap is None else cap
    src, tgt = u.source, u.target
    fibers, space = {}, 1
    for x in tgt.objects:
        fiber = tuple(o for o in src.objects if u.object_map[o] == x)
        if not fiber:
            return []
        fibers[x] = fiber
        space *= len(fiber)
        if space > cap:
            raise CapExceeded(space)
    s, t = tgt._table, src._table
    pairs = np.stack([s.first, s.second, s.vals], axis=1)  # (f, g, g∘f) in table order
    results = []
    enumerated = 0  # candidates of the object choices before this one
    for combo in itertools.product(*(fibers[x] for x in tgt.objects)):
        gamma_obj = dict(zip(tgt.objects, combo))
        lifts, total = [], 1
        for f in s.mors:
            gx, gy = gamma_obj[f[0]], gamma_obj[f[1]]
            lifts.append([t.index[(gx, gy, g)] for g in src.hom_set(gx, gy) if u.morphism_map[(gx, gy, g)] == f[2]])
            total *= len(lifts[-1])
            if not total:
                break
            if enumerated + total > cap:
                raise CapExceeded(enumerated + total)
            if f == tgt.id_mor(f[0]):
                lifts[-1] = [g for g in lifts[-1] if g == t.index[src.id_mor(gx)]]
        else:  # every morphism has a lift
            enumerated += total
            ids = np.arange(len(s.mors))
            for img in _assignments(np.full(len(ids), -1), ids, lifts, ids, pairs, pairs, lambda P, rows: _uncomposed(t, P, rows)):
                gamma_mor = {f: t.mors[g][2] for f, g in zip(s.mors, img.tolist())}
                results.append(FunctorData(tgt, src, gamma_obj, gamma_mor, label="Γ"))
    return sorted(results, key=FunctorData.component_key)


def find_monad_augmentations(monad: MonadData):
    """All natural γ: M → Id with γ∘η = id and γγ = γ∘m."""
    monad.validate()
    return _unit_retractions(monad)[1]


# ---------------------------------------------------------------------------
# JSON documents


def category_to_doc(cat: FiniteCategory) -> dict:
    return {
        "type": "category",
        "label": cat.label,
        "objects": list(cat.objects),
        "homs": [[x, y, list(names)] for (x, y), names in sorted(cat.hom.items())],
        "compose": [list(key) + [val] for key, val in sorted(cat.compose.items())],
        "identities": dict(sorted(cat.identity.items())),
    }


def _resolve(doc, base_dir, kind):
    """(document, its base directory): a JSON object given inline, or the
    one in the file at a path relative to base_dir; anything else is a
    ValueError."""
    if isinstance(doc, str):
        path = Path(base_dir or ".") / doc
        return load(path), path.parent
    if not isinstance(doc, dict):
        raise ValueError("a %s must be a JSON object or a path, got %s" % (kind, type(doc).__name__))
    return doc, base_dir


def category_from_doc(doc, base_dir=None) -> FiniteCategory:
    doc, _ = _resolve(doc, base_dir, "category")
    hom = {(x, y): tuple(names) for x, y, names in doc.get("homs", [])}
    return FiniteCategory(
        tuple(doc["objects"]),
        hom,
        _Entries(doc.get("compose", [])),
        dict(doc["identities"]),
        doc.get("label", "category"),
    ).validate()


def _functor(doc, base_dir, category) -> FunctorData:
    """The functor of a document, its categories from `category(spec, base_dir)`; not validated."""
    doc, base_dir = _resolve(doc, base_dir, "functor")
    source, target = category(doc["source"], base_dir), category(doc["target"], base_dir)
    morphism_map = {(x, y, f): ff for x, y, f, ff in doc["morphisms"]}
    return FunctorData(source, target, dict(doc["objects"]), morphism_map, doc.get("label", "functor"))


def functor_from_doc(doc, base_dir=None) -> FunctorData:
    return _functor(doc, base_dir, category_from_doc).validate()


def adjunction_from_doc(doc, base_dir=None) -> AdjunctionData:
    """Each distinct category document is built and validated once, and
    each functor once, by `AdjunctionData.validate`.  documents.loads
    decodes a repeated inline copy once, so a copy is known by identity
    first; an equal copy, from another file or formatted differently, is
    known by ==."""
    doc, base_dir = _resolve(doc, base_dir, "adjunction")
    built = []  # (category document, category)

    def category(spec, base):
        cdoc, _ = _resolve(spec, base, "category")
        for same in (operator.is_, operator.eq):
            for seen, cat in built:
                if same(seen, cdoc):
                    return cat
        built.append((cdoc, category_from_doc(cdoc)))
        return built[-1][1]

    left = _functor(doc["left"], base_dir, category)
    right = _functor(doc["right"], base_dir, category)
    rl = compose_functors(right, left)
    lr = compose_functors(left, right)
    idb = identity_functor(left.source)
    ida = identity_functor(left.target)
    unit = NatTransform(idb, rl, dict(doc["unit"]))
    counit = NatTransform(lr, ida, dict(doc["counit"]))
    return AdjunctionData(left, right, unit, counit).validate()
