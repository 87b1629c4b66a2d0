"""Finite-category validation and the brute-force h-separability searches."""

import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cat_util import (
    CORPUS,
    adjunction_doc,
    build_adjunctions,
    c2_category,
    c2_chain_into_v4_chain,
    c2_doubling_into_c4,
    c2_into_v4,
    collapse_to_terminal,
    cyclic_chain,
    cyclic_chain_adjunction,
    inclusion_terminal_into_chain,
    oracle_adjunctions,
    oracle_category_law_failure,
    oracle_eilenberg_moore,
    oracle_functor_law_failure,
    oracle_h_separability_structures,
    oracle_monad_augmentations,
    oracle_nat_transform_failure,
    oracle_rafael_retractions,
    oracle_section_functors,
    oracle_structure_law_failure,
    parallel_arrows_inclusion,
    structure_candidates,
    structure_key,
    v4_category,
)

from hsep import fincat
from hsep.exactalg import CapExceeded
from hsep.fincat import (
    CategoryLawError,
    FiniteCategory,
    FunctorData,
    FunctorLawFails,
    HSepStructure,
    IdentityLawFails,
    MalformedData,
    MonadData,
    NatTransform,
    NaturalityFails,
    NotAssociativeComposition,
    chain_poset,
    compose_functors,
    eilenberg_moore,
    find_h_separability_structures,
    find_monad_augmentations,
    find_rafael_retractions,
    find_section_functors,
    identity_functor,
    monad_from_adjunction,
    validate,
)

ADJUNCTIONS = build_adjunctions()
ORACLE_ADJUNCTIONS = oracle_adjunctions()


def _run_optimized(script):
    """Run `script` under python -O with src on the path."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestValidation:
    def test_two_chain_valid(self):
        validate(chain_poset(2))

    def test_broken_associativity(self):
        # a(aa) = ab = 1 but (aa)a = ba = a
        hom = {("*", "*"): ("1", "a", "b")}
        compose = {}
        table = {
            ("1", "1"): "1", ("1", "a"): "a", ("1", "b"): "b",
            ("a", "1"): "a", ("b", "1"): "b",
            ("a", "a"): "b", ("a", "b"): "1",
            ("b", "a"): "a", ("b", "b"): "a",
        }
        for (f, g), h in table.items():
            compose[("*", "*", "*", f, g)] = h
        cat = FiniteCategory(("*",), hom, compose, {"*": "1"})
        with pytest.raises(NotAssociativeComposition):
            validate(cat)

    def test_galois_adjunction_valid(self):
        validate(ADJUNCTIONS["galois_collapse"])

    def test_monoid_category(self):
        validate(c2_category())


class TestAdjunctionDocs:
    SLOTS = (("left", "source"), ("left", "target"), ("right", "source"), ("right", "target"))

    @staticmethod
    def load(case):
        return json.loads((CORPUS / case / "adjunction.json").read_text())

    @staticmethod
    def count_validations(monkeypatch):
        counts = {"category": 0, "functor": 0}
        for kind, cls in (("category", FiniteCategory), ("functor", FunctorData)):
            def counted(self, _original=cls.validate, _kind=kind):
                counts[_kind] += 1
                return _original(self)

            monkeypatch.setattr(cls, "validate", counted)
        return counts

    @pytest.mark.parametrize("case,categories", [("rafael_c2", 1), ("galois_2chain", 2)])
    def test_each_category_and_functor_validated_once(self, monkeypatch, case, categories):
        counts = self.count_validations(monkeypatch)
        adj = fincat.adjunction_from_doc(self.load(case))
        assert counts == {"category": categories, "functor": 2}
        assert adj.left.target is adj.right.source and adj.left.source is adj.right.target

    def test_categories_by_path_are_shared(self, monkeypatch, tmp_path):
        doc = self.load("galois_2chain")
        (tmp_path / "cats").mkdir()
        (tmp_path / "cats" / "b.json").write_text(json.dumps(doc["left"]["source"]))
        (tmp_path / "a.json").write_text(json.dumps(doc["left"]["target"]))
        doc["left"]["source"] = "cats/b.json"
        doc["left"]["target"] = "a.json"
        right = dict(doc["right"], source="../a.json", target="b.json")
        (tmp_path / "cats" / "right.json").write_text(json.dumps(right))
        doc["right"] = "cats/right.json"
        (tmp_path / "adjunction.json").write_text(json.dumps(doc))
        counts = self.count_validations(monkeypatch)
        adj = fincat.adjunction_from_doc(str(tmp_path / "adjunction.json"))
        assert counts == {"category": 2, "functor": 2}
        assert adj.left.target is adj.right.source

    @pytest.mark.parametrize("functor,slot", SLOTS)
    def test_broken_category_in_any_slot(self, functor, slot):
        doc = self.load("rafael_c2")
        cat = copy.deepcopy(doc[functor][slot])
        for entry in cat["compose"]:
            if entry[3:5] == ["1", "g"]:
                entry[5] = "1"  # 1;g = 1 breaks the identity law
        doc[functor][slot] = cat
        with pytest.raises(IdentityLawFails):
            fincat.adjunction_from_doc(doc)


class TestHSepStructures:
    def test_identity_functor_contains_identity_family(self):
        cat = chain_poset(2)
        structures = find_h_separability_structures(identity_functor(cat))
        assert structures
        keys = [s.key() for s in structures]
        ident = HSepStructure(
            identity_functor(cat),
            {
                (x, y): {n: n for n in cat.hom_set(x, y)}
                for x in cat.objects
                for y in cat.objects
            },
        )
        assert ident.key() in keys

    def test_full_faithful_inclusion_nonempty(self):
        chain = chain_poset(2)
        incl = inclusion_terminal_into_chain(chain, "c1")
        assert find_h_separability_structures(incl)

    def test_collapse_has_no_structure(self):
        # Hom(c1, c0) is empty while Hom(Fc1, Fc0) is not: no P can exist
        structures = find_h_separability_structures(collapse_to_terminal(chain_poset(2)))
        assert structures == []

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            find_h_separability_structures(c2_doubling_into_c4(), cap=1)

    def test_two_structures_into_v4(self):
        found = find_h_separability_structures(c2_into_v4())
        assert [s.P[("*", "*")] for s in found] == [
            {"1": "1", "a": "g", "b": "g", "ab": "1"},
            {"1": "1", "a": "g", "b": "1", "ab": "g"},
        ]

    def test_results_are_not_validated_again(self, monkeypatch):
        def fail(self):
            raise AssertionError("validate called")

        monkeypatch.setattr(HSepStructure, "validate", fail)
        assert len(find_h_separability_structures(c2_into_v4())) == 2

    def test_forty_objects_do_not_recurse(self):
        # one stage per pair of objects: 1600 stages, past Python's default
        # recursion limit; a chain's identity has the identity family only
        assert len(find_h_separability_structures(identity_functor(chain_poset(40)))) == 1


def _ff_chain_functor():
    """The 2-chain into the 3-chain, c0 ↦ d0, c1 ↦ d1."""
    chain3, chain2 = chain_poset(3, prefix="d"), chain_poset(2)
    lmap = {"c0": "d0", "c1": "d1"}
    return FunctorData(
        chain2,
        chain3,
        lmap,
        {(x, y, n): "%s<=%s" % (lmap[x], lmap[y]) for x, y, n in chain2.morphisms()},
        label="G",
    ).validate()


def _small_cyclic_adjunctions(seed=14):
    """C_m×[n] ⇄ C_m×[n + extra] for m ≤ 3, n ≤ 3 and extra ∈ {0, 1}, the
    automorphism u and the unit h drawn from a seeded generator."""
    rng = random.Random(seed)
    fixtures = {}
    for m in (2, 3):
        for n in (1, 2, 3):
            for extra in (0, 1):
                u, h = rng.choice([a for a in range(1, m) if math.gcd(a, m) == 1]), rng.randrange(m)
                name = "c%dx%d_extra%d_u%d_h%d" % (m, n, extra, u, h)
                fixtures[name] = cyclic_chain_adjunction(m, n, extra, u=u, h=h)
    return fixtures


SMALL_CYCLIC_ADJUNCTIONS = _small_cyclic_adjunctions()


def _structure_fixtures():
    chain2, chain3 = chain_poset(2), chain_poset(3, prefix="d")
    incl = inclusion_terminal_into_chain(chain2, "c1")
    collapse = collapse_to_terminal(chain2)
    fixtures = {
        "id_2chain": identity_functor(chain2),
        "id_c2": identity_functor(c2_category()),
        "terminal_into_2chain": incl,
        "collapse_2chain": collapse,
        "c2_doubling_into_c4": c2_doubling_into_c4(),
        "c2_into_v4": c2_into_v4(),
        "c2x2_into_v4x2": c2_chain_into_v4_chain(2),
        "c2x3_into_v4x3": c2_chain_into_v4_chain(3),
        "2chain_into_3chain": _ff_chain_functor(),
        "2chain_into_3chain_after_terminal": compose_functors(_ff_chain_functor(), incl),
        "collapse_after_terminal": compose_functors(collapse, incl),
        "terminal_into_3chain_after_collapse": compose_functors(
            inclusion_terminal_into_chain(chain3, "d2"), collapse
        ),
    }
    for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
        fixtures["parallel_arrows_%d%d%d" % order] = parallel_arrows_inclusion(order)
    fixtures["parallel_arrows_multiplicative"] = parallel_arrows_inclusion(composite="s")
    for name, adj in {**ORACLE_ADJUNCTIONS, **SMALL_CYCLIC_ADJUNCTIONS}.items():
        fixtures[name + "/L"] = adj.left
        fixtures[name + "/R"] = adj.right
    return fixtures


STRUCTURE_FIXTURES = _structure_fixtures()


class TestHSepOracle:
    """The incremental search and HSepStructure.validate against the loops
    in cat_util, which scan every morphism and share no code with fincat's
    law check."""

    @pytest.mark.parametrize("name", sorted(STRUCTURE_FIXTURES))
    def test_search_matches_oracle(self, name):
        fun = STRUCTURE_FIXTURES[name]
        found = [s.key() for s in find_h_separability_structures(fun)]
        assert found == oracle_h_separability_structures(fun)

    @pytest.mark.parametrize("name", sorted(STRUCTURE_FIXTURES))
    def test_validate_matches_oracle_on_every_candidate(self, name):
        fun = STRUCTURE_FIXTURES[name]
        for P in structure_candidates(fun):
            try:
                HSepStructure(fun, P).validate()
                failure = None
            except CategoryLawError as err:
                failure = str(err).split(" at ")[0]
            expected = oracle_structure_law_failure(fun, P)
            assert failure == (expected and "P not " + expected), structure_key(P)

    @pytest.mark.parametrize("name", sorted(STRUCTURE_FIXTURES))
    def test_each_condition_is_checked_at_its_last_slot(self, name, monkeypatch):
        # wrap the search's law check: every row it checks reads assigned
        # slots only, and its stage, the one that assigns the last of its
        # slots, is the stage at which it is checked; the stages are the
        # slots with one choice, then one per group in increasing order
        fun = STRUCTURE_FIXTURES[name]
        original, runs = fincat._assignments, []

        def assignments(P, slots, choices, group, rows, reads, broken):
            multi = sorted({g for c, g in zip(choices, group.tolist()) if len(c) != 1})
            stage = np.zeros(len(P), dtype=np.int64)  # 0 for a constant
            for slot, c, g in zip(slots.tolist(), choices, group.tolist()):
                stage[slot] = 0 if len(c) == 1 else 1 + multi.index(g)
            at, checked = {}, []  # the stage of each rows array, and the rows checked
            runs.append((stage[slots], stage[reads].max(axis=1, initial=0), checked))

            def check(P, rows):
                assert (P[rows] >= 0).all()
                if id(rows) not in at:
                    # first visit: the slots of later stages were never assigned
                    at[id(rows)] = stage[slots][P[slots] >= 0].max(initial=0)
                    assert (P[slots][stage[slots] > at[id(rows)]] < 0).all()
                    checked.append((at[id(rows)], rows))
                assert (stage[rows].max(axis=1, initial=0) == at[id(rows)]).all()
                return broken(P, rows)

            return original(P, slots, choices, group, rows, reads, check)

        monkeypatch.setattr(fincat, "_assignments", assignments)
        found = find_h_separability_structures(fun)
        for slot_stage, row_stage, checked in runs:
            rows = np.concatenate([r for _, r in checked] + [np.empty((0, 4), dtype=np.int64)])
            assert len(rows) == len({tuple(r) for r in rows.tolist()}) == sum(row_stage <= max(s for s, _ in checked))
            if found:  # every stage was reached, and every row checked once
                assert sorted(s for s, _ in checked) == list(range(slot_stage.max(initial=0) + 1))
                assert len(rows) == len(row_stage)

    @pytest.mark.parametrize("seed", range(6))
    def test_changed_free_value_fails_as_the_oracle(self, seed):
        # one value of P off F's image changed within its hom-set: P∘F = id
        # still holds, and validate names the law the oracle names first
        rng = random.Random(seed)
        for name in ("c2_into_v4", "c2x3_into_v4x3", "parallel_arrows_multiplicative"):
            fun = STRUCTURE_FIXTURES[name]
            P = copy.deepcopy(rng.choice(find_h_separability_structures(fun)).P)
            image = {pair: {fun.morphism_map[(*pair, f)] for f in fun.source.hom_set(*pair)} for pair in P}
            (x, y), m = rng.choice([(pair, m) for pair in sorted(P) for m in sorted(P[pair]) if m not in image[pair]])
            P[(x, y)][m] = rng.choice([f for f in fun.source.hom_set(x, y) if f != P[(x, y)][m]])
            expected = oracle_structure_law_failure(fun, P)
            failure = _first_failure(HSepStructure(fun, P))
            assert (failure and str(failure).split(" at ")[0]) == (expected and "P not " + expected), (name, m)
            assert failure is None or type(failure) is (NaturalityFails if expected == "natural" else CategoryLawError)

    def test_search_matches_oracle_under_optimize(self):
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from cat_util import c2_chain_into_v4_chain, cyclic_chain_adjunction, oracle_h_separability_structures\n"
            "from hsep.fincat import find_h_separability_structures\n"
            "adj = cyclic_chain_adjunction(3, 2, 1, u=2, h=1)\n"
            "funs = [c2_chain_into_v4_chain(3), adj.left, adj.right]\n"
            "same = [[s.key() for s in find_h_separability_structures(f)] == oracle_h_separability_structures(f)\n"
            "        for f in funs]\n"
            "print('optimize=%%d same=%%s' %% (sys.flags.optimize, same))\n"
        ) % str(Path(__file__).resolve().parent)
        out = _run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "optimize=1 same=[True, True, True]"

    def test_fixture_counts(self):
        counts = {name: len(oracle_h_separability_structures(fun)) for name, fun in STRUCTURE_FIXTURES.items()}
        assert counts["c2_into_v4"] == counts["c2x2_into_v4x2"] == counts["c2x3_into_v4x3"] == 2
        assert counts["c2_doubling_into_c4"] == counts["collapse_2chain"] == counts["parallel_arrows_012"] == 0
        assert counts["parallel_arrows_multiplicative"] == 2


class TestHSepValidateFailures:
    """Each law of HSepStructure.validate raises its own error, on one
    value changed from a structure the search finds."""

    @staticmethod
    def changed(fun, **values):
        P = copy.deepcopy(find_h_separability_structures(fun)[0].P)
        P[("*", "*")].update(values)
        return HSepStructure(fun, P)

    def test_domain_mismatch(self):
        fun = c2_into_v4()
        P = copy.deepcopy(find_h_separability_structures(fun)[0].P)
        del P[("*", "*")]["ab"]
        with pytest.raises(MalformedData, match="P table domain mismatch"):
            HSepStructure(fun, P).validate()

    def test_value_outside_hom_set(self):
        with pytest.raises(MalformedData, match="P value outside hom-set"):
            self.changed(c2_into_v4(), b="h").validate()

    def test_not_a_retraction(self):
        with pytest.raises(CategoryLawError, match="P∘F != id") as err:
            self.changed(c2_into_v4(), a="1").validate()
        assert type(err.value) is CategoryLawError

    def test_not_natural(self):
        # P(ab) = P(a·b) must be g·P(b), and the first structure has P(b) = g
        with pytest.raises(NaturalityFails, match="P not natural"):
            self.changed(c2_into_v4(), ab="g").validate()

    def test_not_multiplicative(self):
        # the doubling has no structure; P(a) = 1, P(a3) = g is natural,
        # but P(a)∘P(a) = 1 != g = P(a2)
        P = {("*", "*"): {"1": "1", "a": "1", "a2": "g", "a3": "g"}}
        with pytest.raises(CategoryLawError, match="P not multiplicative") as err:
            HSepStructure(c2_doubling_into_c4(), P).validate()
        assert type(err.value) is CategoryLawError

    def test_gate_fires_under_optimize(self):
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from cat_util import c2_into_v4\n"
            "from hsep.fincat import HSepStructure, NaturalityFails\n"
            "P = {('*', '*'): {'1': '1', 'a': 'g', 'b': '1', 'ab': '1'}}\n"
            "try:\n"
            "    HSepStructure(c2_into_v4(), P).validate()\n"
            "except NaturalityFails as err:\n"
            "    print('optimize=%%d raised: %%s' %% (sys.flags.optimize, str(err).split(' at ')[0]))\n"
        ) % str(Path(__file__).resolve().parent)
        out = _run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "optimize=1 raised: P not natural"


def _first_failure(value):
    try:
        value.validate()
    except CategoryLawError as err:
        return err
    return None


def _same_failure(got, expected):
    """Both None, or the same exception class, message and witness."""
    if got is None or expected is None:
        return got is expected
    return (type(got), str(got), got.witness) == (type(expected), str(expected), expected.witness)


class TestLawTableOracle:
    """`validate` on the integer composition tables against the loops over
    morphisms in cat_util, on C_m×[n], their opposites and an
    Eilenberg-Moore category, each with one entry corrupted, also after a
    JSON round trip, and on the natural transformations of two adjunctions
    and their monads; and each opposite's gathered table against a fresh
    build of its own tables."""

    ADJ = cyclic_chain_adjunction(3, 3, 1, u=2, h=1)
    EM, FORGET = eilenberg_moore(ADJ)
    CATEGORIES = [cyclic_chain(m, n, "b") for m, n in ((2, 3), (3, 2), (4, 2))] + [ADJ.left.target, EM]
    FUNCTORS = [ADJ.left, ADJ.right, FORGET, c2_chain_into_v4_chain(2)]
    TRANSFORMS = [
        alpha
        for adj in (ADJ, cyclic_chain_adjunction(2, 3, 0, u=1, h=1))
        for side in (adj, adj.opposite())
        for alpha in (side.unit, side.counit, monad_from_adjunction(side).mult)
    ]

    @staticmethod
    def corrupt_category(cat, rng):
        """A fresh copy of cat with one composite renamed within its
        hom-set, moved outside it or removed."""
        compose = dict(cat.compose)
        key = rng.choice(sorted(compose))
        roll = rng.random()
        if roll < 0.1:
            del compose[key]
        elif roll < 0.2:
            compose[key] = "outside"
        else:
            compose[key] = rng.choice(cat.hom_set(key[0], key[2]))
        return FiniteCategory(cat.objects, cat.hom, compose, cat.identity, cat.label)

    @staticmethod
    def corrupt_functor(fun, rng):
        """A copy of fun with one morphism image renamed within its hom-set."""
        morphism_map = dict(fun.morphism_map)
        x, y, name = key = rng.choice(sorted(morphism_map))
        morphism_map[key] = rng.choice(fun.target.hom_set(fun.object_map[x], fun.object_map[y]))
        return FunctorData(fun.source, fun.target, fun.object_map, morphism_map, fun.label)

    def test_uncorrupted_inputs_pass_both(self):
        for cat in self.CATEGORIES:
            for side in (cat, cat.opposite()):
                assert oracle_category_law_failure(side) is None and _first_failure(side) is None
        for fun in self.FUNCTORS:
            for side in (fun, fun.opposite()):
                assert oracle_functor_law_failure(side) is None and _first_failure(side) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_category_fails_as_the_oracle(self, seed):
        rng = random.Random(seed)
        for cat in self.CATEGORIES:
            for side in (False, True):
                broken = self.corrupt_category(cat, rng)
                broken = broken.opposite() if side else broken
                expected = oracle_category_law_failure(broken)
                assert _same_failure(_first_failure(broken), expected), (seed, broken.label)

    @staticmethod
    def decoded(text):
        """The category of a category document's JSON text, not validated."""
        doc = json.loads(text)
        return FiniteCategory(
            tuple(doc["objects"]),
            {(x, y): tuple(names) for x, y, names in doc["homs"]},
            {tuple(entry[:5]): entry[5] for entry in doc["compose"]},
            doc["identities"],
            doc["label"],
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_category_from_json_fails_as_the_oracle(self, seed):
        # category_from_doc reads the table off freshly decoded strings, none
        # shared with the corrupted category or with the oracle's own copy
        rng = random.Random(seed)
        for cat in self.CATEGORIES:
            for side in (False, True):
                broken = self.corrupt_category(cat, rng)
                text = json.dumps(fincat.category_to_doc(broken.opposite() if side else broken))
                try:
                    fincat.category_from_doc(json.loads(text))
                    failure = None
                except CategoryLawError as err:
                    failure = err
                assert _same_failure(failure, oracle_category_law_failure(self.decoded(text))), (seed, broken.label)

    @pytest.mark.parametrize("seed", range(6))
    def test_first_of_several_bad_composites_is_the_oracle(self, seed):
        # several composites missing or outside their hom-sets, and entries
        # naming no morphism, which are ignored: the one pass reports the
        # first bad slot in table order, directly and after a JSON round trip
        rng = random.Random(seed)
        for cat in self.CATEGORIES:
            for side in (cat, cat.opposite()):
                compose = dict(side.compose)
                for key in rng.sample(sorted(compose), 4):
                    if rng.random() < 0.5:
                        del compose[key]
                    else:
                        compose[key] = "outside"
                x, y = rng.choice(sorted(side.hom))
                compose[(x, y, y, "unnamed", side.identity[y])] = side.identity[y]
                broken = FiniteCategory(side.objects, dict(side.hom), compose, side.identity, side.label)
                expected = oracle_category_law_failure(broken)
                assert isinstance(expected, MalformedData) and "composite" in str(expected)
                assert _same_failure(_first_failure(broken), expected), (seed, side.label)
                text = json.dumps(fincat.category_to_doc(broken))
                with pytest.raises(MalformedData) as err:
                    fincat.category_from_doc(json.loads(text))
                assert _same_failure(err.value, oracle_category_law_failure(self.decoded(text))), (seed, side.label)

    def test_unhashable_composite_lies_outside_its_hom_set(self):
        doc = fincat.category_to_doc(self.CATEGORIES[0])
        doc["compose"][3][5] = ["not", "a", "name"]
        text = json.dumps(doc)
        with pytest.raises(MalformedData, match="composite outside hom-set") as err:
            fincat.category_from_doc(json.loads(text))
        assert _same_failure(err.value, oracle_category_law_failure(self.decoded(text)))

    def test_entries_naming_no_morphism_are_ignored(self):
        for cat in self.CATEGORIES:
            for side in (cat, cat.opposite()):
                x, y, name = next(side.morphisms())
                extra = {(x, y, y, "unnamed", side.identity[y]): name, (x, x, y, side.identity[x], "unnamed"): name}
                padded = FiniteCategory(side.objects, dict(side.hom), {**side.compose, **extra}, side.identity)
                assert padded.validate() is padded
                assert self.same_table(padded._table, side._table)

    @staticmethod
    def from_entries(text):
        """The category of a category document's JSON text with its table
        read off the decoded compose list, as category_from_doc reads it,
        not validated."""
        doc = json.loads(text)
        return FiniteCategory(
            tuple(doc["objects"]),
            {(x, y): tuple(names) for x, y, names in doc["homs"]},
            fincat._Entries(doc["compose"]),
            doc["identities"],
            doc["label"],
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_duplicate_entries_the_later_wins(self, seed):
        # a document may list one (X, Y, Z, f, g) more than once, with the
        # right composite, another in its hom-set, one outside it or an
        # unhashable one; as in the dict oracle, the last entry decides
        rng = random.Random(seed)
        for cat in self.CATEGORIES:
            for side in (cat, cat.opposite()):
                doc = fincat.category_to_doc(side)
                for _ in range(4):
                    entry = list(rng.choice(doc["compose"]))
                    entry[5] = rng.choice([entry[5], "outside", ["not", "a", "name"], rng.choice(side.hom_set(entry[0], entry[2]))])
                    doc["compose"].insert(rng.randrange(len(doc["compose"]) + 1), entry)
                text = json.dumps(doc)
                got, oracle = self.from_entries(text), self.decoded(text)
                assert len(got.compose.entries) > len(oracle.compose)
                assert self.same_table(got._raw_table, oracle._raw_table), (seed, side.label)
                assert _same_failure(_first_failure(got), oracle_category_law_failure(oracle)), (seed, side.label)
                assert dict(got.compose) == oracle.compose

    def test_unhashable_composites_in_duplicates(self):
        # an unhashable composite that a later entry corrects, and a right
        # one that a later unhashable entry replaces
        doc = fincat.category_to_doc(self.CATEGORIES[0])
        first, second = doc["compose"][3], doc["compose"][7]
        doc["compose"][3] = first[:5] + [["a", "list"]]
        doc["compose"] += [first, second[:5] + [{"a": "dict"}]]
        text = json.dumps(doc)
        got, oracle = self.from_entries(text), self.decoded(text)
        assert self.same_table(got._raw_table, oracle._raw_table)
        assert got._raw_table.vals.tolist().count(-2) == 1
        with pytest.raises(MalformedData, match="composite outside hom-set") as err:
            fincat.category_from_doc(json.loads(text))
        assert _same_failure(err.value, oracle_category_law_failure(oracle))

    @staticmethod
    def same_table(got, expected):
        return (got.mors, got.index) == (expected.mors, expected.index) and all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got[2:], expected[2:])
        )

    def test_opposite_table_is_its_fresh_build(self):
        # the opposite's table, gathered from the original's, against the one
        # pass over its own compose entries; corrupted categories compare
        # their raw tables, missing (−1) and outside (−2) composites included
        rng = random.Random(0)
        corrupted = [self.corrupt_category(cat, rng) for cat in self.CATEGORIES for _ in range(6)]
        for cat in self.CATEGORIES + corrupted:
            op = cat.opposite()
            fresh = FiniteCategory(op.objects, dict(op.hom), dict(op.compose), op.identity)
            assert self.same_table(op._raw_table, fresh._raw_table), op.label
            assert self.same_table(op.opposite()._raw_table, cat._raw_table), op.label
        assert any((cat._raw_table.vals == -1).any() for cat in corrupted)
        assert any((cat._raw_table.vals == -2).any() for cat in corrupted)

    def test_table_gates_fire_under_optimize(self):
        # a missing composite and one outside its hom-set in a document, and
        # Eilenberg-Moore categories of identity monads read off a corrupted
        # table of B, in slots that no algebra or algebra-morphism test
        # reads: in C4, a∘a read as a3 is caught by associativity on the
        # algebras' table; in C2×[2], a composite b0 → b1 read as a
        # morphism b1 → b1 lies outside the algebras' hom-set
        script = (
            "import json, sys\n"
            "sys.path.insert(0, %r)\n"
            "from cat_util import c4_category, cyclic_chain\n"
            "from hsep.fincat import CategoryLawError, MalformedData, category_from_doc, category_to_doc\n"
            "from hsep.fincat import eilenberg_moore, identity_adjunction\n"
            "raised = []\n"
            "doc = category_to_doc(cyclic_chain(3, 2, 'b'))\n"
            "missing, outside = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))\n"
            "del missing['compose'][5]\n"
            "outside['compose'][5][5] = 'outside'\n"
            "for broken in (missing, outside):\n"
            "    try:\n"
            "        category_from_doc(broken)\n"
            "    except MalformedData as err:\n"
            "        raised.append(str(err).split(' at ')[0])\n"
            "for cat, f, g, wrong in (\n"
            "    (c4_category(), ('*', '*', 'a'), ('*', '*', 'a'), ('*', '*', 'a3')),\n"
            "    (cyclic_chain(2, 2, 'b'), ('b0', 'b0', 'b00.1'), ('b0', 'b1', 'b01.0'), ('b1', 'b1', 'b11.0')),\n"
            "):\n"
            "    adj = identity_adjunction(cat)\n"
            "    t = cat._table\n"
            "    t.vals[t.ptr[t.index[f]] + t.pos[t.index[g]]] = t.index[wrong]\n"
            "    try:\n"
            "        eilenberg_moore(adj)\n"
            "    except CategoryLawError as err:\n"
            "        raised.append('%%s: %%s' %% (type(err).__name__, str(err).split(' at ')[0]))\n"
            "print('optimize=%%d raised=%%s' %% (sys.flags.optimize, raised))\n"
        ) % str(Path(__file__).resolve().parent)
        out = _run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "optimize=1 raised=%s" % [
            "missing composite",
            "composite outside hom-set",
            "NotAssociativeComposition: (h∘g)∘f != h∘(g∘f)",
            "MalformedData: composite outside hom-set",
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_functor_fails_as_the_oracle(self, seed):
        rng = random.Random(seed)
        for fun in self.FUNCTORS:
            for side in (False, True):
                broken = self.corrupt_functor(fun, rng)
                broken = broken.opposite() if side else broken
                expected = oracle_functor_law_failure(broken)
                assert _same_failure(_first_failure(broken), expected), (seed, broken.label)

    @staticmethod
    def corrupt_transform(alpha, rng):
        """A copy of alpha with one component renamed within its hom-set."""
        components = dict(alpha.components)
        x = rng.choice(sorted(components))
        fx, gx = alpha.source_functor.object_map[x], alpha.target_functor.object_map[x]
        components[x] = rng.choice(alpha.source_functor.target.hom_set(fx, gx))
        return NatTransform(alpha.source_functor, alpha.target_functor, components)

    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_transform_fails_as_the_oracle(self, seed):
        rng = random.Random(seed)
        for alpha in self.TRANSFORMS:
            broken = self.corrupt_transform(alpha, rng)
            assert _same_failure(_first_failure(broken), oracle_nat_transform_failure(broken)), (seed, alpha)

    def test_uncorrupted_transforms_pass_both(self):
        for alpha in self.TRANSFORMS:
            assert oracle_nat_transform_failure(alpha) is None and _first_failure(alpha) is None

    def test_every_failure_kind_is_reached(self):
        kinds = set()
        for seed in range(12):
            rng = random.Random(seed)
            for cat in self.CATEGORIES:
                kinds.add(type(oracle_category_law_failure(self.corrupt_category(cat, rng))))
            for fun in self.FUNCTORS:
                kinds.add(type(oracle_functor_law_failure(self.corrupt_functor(fun, rng))))
            for alpha in self.TRANSFORMS:
                kinds.add(type(oracle_nat_transform_failure(self.corrupt_transform(alpha, rng))))
        assert {MalformedData, IdentityLawFails, NotAssociativeComposition, FunctorLawFails, NaturalityFails} <= kinds


class TestLawCheckCost:
    """The category and functor laws are checked on integer tables: `comp`
    is not called once per composable pair or triple."""

    def test_validate_does_not_compose_per_triple(self, monkeypatch):
        left = cyclic_chain_adjunction(4, 7, 1, u=3, h=1).left  # C4×[7] → C4×[8]

        def fresh(cat):
            return FiniteCategory(cat.objects, cat.hom, cat.compose, cat.identity, cat.label)

        bcat, acat = fresh(left.source), fresh(left.target)
        fun = FunctorData(fresh(left.source), fresh(left.target), left.object_map, left.morphism_map)
        calls = []
        original = FiniteCategory.comp
        monkeypatch.setattr(FiniteCategory, "comp", lambda self, f, g: calls.append(1) or original(self, f, g))
        mors = list(acat.morphisms())
        out = {x: sum(f[0] == x for f in mors) for x in acat.objects}
        morphisms, triples = len(mors), sum(out[g[1]] for f in mors for g in mors if g[0] == f[1])
        assert (morphisms, triples) == (144, 21120)
        for value, size in ((bcat, 112), (acat, morphisms), (fun, morphisms)):
            calls.clear()
            value.validate()
            assert len(calls) <= 2 * size, value


class TestStructureSearchCost:
    """The structure search runs on the condition rows: `comp` is never
    called, and the cap is checked before any row is built."""

    def test_structure_search_does_not_compose(self, monkeypatch):
        adjunctions = (
            cyclic_chain_adjunction(4, 7, 1, u=3, h=1),  # C4×[7] ⇄ C4×[8]
            cyclic_chain_adjunction(3, 9, 0, u=2, h=1),  # C3×[9] ⇄ C3×[9]
        )
        calls = []
        original = FiniteCategory.comp
        monkeypatch.setattr(FiniteCategory, "comp", lambda self, f, g: calls.append(1) or original(self, f, g))
        assert [len(find_h_separability_structures(adj.left)) for adj in adjunctions] == [1, 1]
        assert calls == []

    def test_natural_and_section_searches_do_not_compose(self, monkeypatch):
        adjunctions = (
            cyclic_chain_adjunction(4, 7, 1, u=3, h=1),  # C4×[7] ⇄ C4×[8]
            cyclic_chain_adjunction(3, 9, 0, u=2, h=1),  # C3×[9] ⇄ C3×[9]
        )
        monads = [monad_from_adjunction(adj) for adj in adjunctions]
        calls = []
        original = FiniteCategory.comp
        monkeypatch.setattr(FiniteCategory, "comp", lambda self, f, g: calls.append(1) or original(self, f, g))
        forgetful = [eilenberg_moore(adj)[1] for adj in adjunctions]
        assert calls == []  # the algebras are read off B's table
        for side, counts in (("left", [[1, 1], [1, 1]]), ("right", [[0, 0], [1, 1]])):
            assert [[len(found) for found in find_rafael_retractions(adj, side)] for adj in adjunctions] == counts
        assert [[len(found) for found in fincat._unit_retractions(monad)] for monad in monads] == [[1, 1], [1, 1]]
        assert [len(find_section_functors(u)) for u in forgetful] == [1, 1]
        assert calls == []

    @staticmethod
    def stage_counts(monkeypatch):
        """The number of stages each _assignments run checks rows at, one
        list entry per run; on a search that finds a result every stage is
        reached, and each stage checks its own rows array."""
        runs, original = [], fincat._assignments

        def assignments(P, slots, choices, group, rows, reads, broken):
            seen = set()
            runs.append(seen)
            return original(P, slots, choices, group, rows, reads, lambda P, rows: seen.add(id(rows)) or broken(P, rows))

        monkeypatch.setattr(fincat, "_assignments", assignments)
        return runs

    def test_single_lifts_share_the_first_stage(self, monkeypatch):
        # once the objects are chosen, each morphism of an Eilenberg-Moore
        # forgetful functor has one lift: one stage, not one per morphism;
        # on V4 ⊔ V4 → C2, id has one lift and g two, for each of 2 choices
        forget = eilenberg_moore(cyclic_chain_adjunction(4, 7, 1, u=3, h=1))[1]  # C4×[7] ⇄ C4×[8]
        runs = self.stage_counts(monkeypatch)
        assert len(find_section_functors(forget)) == 1
        assert [len(seen) for seen in runs] == [1]
        runs.clear()
        assert len(find_section_functors(TestSections.v4_pair_onto_c2())) == 4
        assert [len(seen) for seen in runs] == [2, 2]

    def test_pinned_slots_share_the_first_stage(self, monkeypatch):
        # a fully faithful functor pins every slot to P(Ff) = f: one stage,
        # not one per pair of objects (49, 81 and 1600 of them)
        funs = [
            cyclic_chain_adjunction(4, 7, 1, u=3, h=1).left,  # C4×[7] → C4×[8]
            cyclic_chain_adjunction(3, 9, 0, u=2, h=1).left,  # C3×[9] → C3×[9]
            identity_functor(chain_poset(40)),
        ]
        runs = self.stage_counts(monkeypatch)
        assert [len(find_h_separability_structures(fun)) for fun in funs] == [1, 1, 1]
        assert [len(seen) for seen in runs] == [1, 1, 1]

    def test_no_candidate_builds_no_table(self):
        # C3×[2] ⇄ C3×[3]: Hom(a1, LR a1) is empty, so the counit side has no
        # candidate and the opposite category's composition table is not built
        adj = cyclic_chain_adjunction(3, 2, 1, u=2, h=1)
        assert find_rafael_retractions(adj, "right") == ([], [])
        assert "_table" not in vars(adj.left.target.opposite())

    def test_cap_before_any_condition_row(self, monkeypatch):
        def build(cls, fun):
            raise AssertionError("condition rows built")

        monkeypatch.setattr(fincat._Conditions, "build", classmethod(build))
        with pytest.raises(CapExceeded) as err:
            find_h_separability_structures(c2_doubling_into_c4(), cap=3)
        assert err.value.size == 4  # 2 free values of C4, each one of C2's 2


class TestDocumentCategoriesBuildNoComposeDict:
    """A verdict on a document reads each category's table off its
    compose list: the (X, Y, Z, f, g) → g∘f mapping is built only when
    something reads it, which no verdict does, on the document categories
    or on their opposites."""

    @pytest.fixture
    def adjunction_paths(self, monkeypatch, tmp_path):
        def refuse(self):
            raise AssertionError("compose dict built")

        monkeypatch.setattr(fincat._Entries, "_dict", property(refuse))
        paths = [CORPUS / "rafael_c2" / "adjunction.json", CORPUS / "galois_2chain" / "adjunction.json"]
        for name, adj in (("c4", cyclic_chain_adjunction(4, 7, 1, u=3, h=1)), ("c3", cyclic_chain_adjunction(3, 4, 0, u=2, h=1))):
            paths.append(tmp_path / ("%s.json" % name))
            paths[-1].write_text(json.dumps(adjunction_doc(adj)))
        return paths

    def test_the_guard_fires(self, adjunction_paths):
        adj = fincat.adjunction_from_doc(str(adjunction_paths[0]))
        with pytest.raises(AssertionError, match="compose dict built"):
            dict(adj.left.source.compose)
        with pytest.raises(AssertionError, match="compose dict built"):
            dict(adj.left.source.opposite().compose)

    def test_cli_verdicts(self, adjunction_paths, capsys):
        from hsep.cli import main

        for path in adjunction_paths:
            assert main(["cat", "check", str(path)]) == 0
            for side in ("left", "right"):
                assert main(["cat", "rafael", str(path), "--side", side]) in (0, 1)
        capsys.readouterr()

    def test_library_searches(self, adjunction_paths):
        for path in adjunction_paths:
            adj = fincat.adjunction_from_doc(str(path))
            find_monad_augmentations(monad_from_adjunction(adj))
            find_section_functors(eilenberg_moore(adj)[1])
            find_h_separability_structures(adj.left)
            find_h_separability_structures(adj.right.opposite())


class TestSearchValidations:
    def test_five_searches_validate_two_functors(self, monkeypatch):
        # the monad RL is not re-validated, nor is a section candidate;
        # find_monad_augmentations validates its argument and
        # eilenberg_moore its forgetful functor
        adj = cyclic_chain_adjunction(4, 7, 1, u=3, h=1)  # C4×[7] ⇄ C4×[8]
        calls = []
        original = FunctorData.validate
        monkeypatch.setattr(FunctorData, "validate", lambda self: calls.append(1) or original(self))
        assert [len(found) for found in find_rafael_retractions(adj, "left")] == [1, 1]
        assert [len(found) for found in find_rafael_retractions(adj, "right")] == [0, 0]
        assert len(find_monad_augmentations(monad_from_adjunction(adj))) == 1
        assert len(find_section_functors(eilenberg_moore(adj)[1])) == 1
        assert len(find_h_separability_structures(adj.left)) == 1
        assert len(calls) == 2


class TestRafael:
    def test_identity_adjunction(self):
        sep, heavy = find_rafael_retractions(ADJUNCTIONS["identity_2chain"], "left")
        assert len(sep) == 1 and len(heavy) == 1
        cat = chain_poset(2)
        assert heavy[0].components == {x: cat.identity[x] for x in cat.objects}

    def test_galois_has_no_separable_witness(self):
        sep, heavy = find_rafael_retractions(ADJUNCTIONS["galois_collapse"], "left")
        assert sep == [] and heavy == []

    def test_rl_identity_unique_heavy_witness(self):
        sep, heavy = find_rafael_retractions(ADJUNCTIONS["rl_identity"], "left")
        assert len(sep) == 1 and len(heavy) == 1

    def test_c2_twisted(self):
        sep, heavy = find_rafael_retractions(ADJUNCTIONS["c2_twisted"], "left")
        assert [n.components for n in sep] == [{"*": "g"}]
        assert [n.components for n in heavy] == [{"*": "g"}]

    def test_right_side_of_identity(self):
        sep, heavy = find_rafael_retractions(ADJUNCTIONS["identity_2chain"], "right")
        assert len(sep) == 1 and len(heavy) == 1

    def test_right_side_of_galois_matches_full_faithfulness(self):
        # the right adjoint picks the top object and is full and faithful,
        # so its heavy witness must exist
        adj = ADJUNCTIONS["galois_collapse"]
        sep, heavy = find_rafael_retractions(adj, "right")
        assert len(sep) == 1 and len(heavy) == 1
        assert find_h_separability_structures(adj.right)


class TestRafaelOracle:
    """The merged search against the brute-force loops in cat_util, which
    write both sides out directly, without the opposite adjunction."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", sorted(ORACLE_ADJUNCTIONS))
    def test_rafael_matches_oracle(self, name, side):
        adj = ORACLE_ADJUNCTIONS[name]
        sep, heavy = find_rafael_retractions(adj, side)
        assert ([n.key() for n in sep], [n.key() for n in heavy]) == oracle_rafael_retractions(adj, side)

    @pytest.mark.parametrize("name", sorted(ORACLE_ADJUNCTIONS))
    def test_augmentations_match_oracle(self, name):
        monad = monad_from_adjunction(ORACLE_ADJUNCTIONS[name])
        assert [n.key() for n in find_monad_augmentations(monad)] == oracle_monad_augmentations(monad)

    @pytest.mark.parametrize("name", sorted(ORACLE_ADJUNCTIONS))
    def test_derived_monads_are_monads(self, name):
        # monad_from_adjunction does not validate its result: the triangle
        # identities make RL a monad, on either side of the adjunction
        adj = ORACLE_ADJUNCTIONS[name]
        for side in (adj, adj.opposite()):
            monad = monad_from_adjunction(side)
            assert monad.validate() is monad

    def test_naturality_and_heavy_law_filter(self):
        # In every fixture the unit law leaves only natural, heavy families,
        # so each law is pinned on a pair (T, η, μ) that is not a monad.
        def pair(cat, unit, mult):
            idf = identity_functor(cat)
            return MonadData(idf, NatTransform(idf, idf, unit), NatTransform(idf, idf, mult))

        # η = (1, g) on C2 × [2] is not natural, nor is its only retraction
        chain = cyclic_chain(2, 2, "b")
        twisted = pair(chain, {"b0": "b00.0", "b1": "b11.1"}, chain.identity)
        assert fincat._unit_retractions(twisted) == ([], [])
        # on C2 with η = 1, μ = g: γ = 1 is a retraction, but γγ = 1 != g = γ∘μ
        c2 = c2_category()
        sep, heavy = fincat._unit_retractions(pair(c2, {"*": "1"}, {"*": "g"}))
        assert [n.components for n in sep] == [{"*": "1"}] and heavy == []
        assert oracle_monad_augmentations(pair(c2, {"*": "1"}, {"*": "g"})) == []

    def test_searches_match_oracles_under_optimize(self):
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from cat_util import cyclic_chain_adjunction, oracle_monad_augmentations, oracle_rafael_retractions\n"
            "from cat_util import oracle_section_functors\n"
            "from hsep.fincat import eilenberg_moore, find_monad_augmentations, find_rafael_retractions\n"
            "from hsep.fincat import find_section_functors, monad_from_adjunction\n"
            "same = []\n"
            "for adj in (cyclic_chain_adjunction(3, 2, 1, u=2, h=1), cyclic_chain_adjunction(2, 3, 0, u=1, h=1)):\n"
            "    for side in ('left', 'right'):\n"
            "        sep, heavy = find_rafael_retractions(adj, side)\n"
            "        keys = ([n.key() for n in sep], [n.key() for n in heavy])\n"
            "        same.append(keys == oracle_rafael_retractions(adj, side))\n"
            "    monad = monad_from_adjunction(adj)\n"
            "    same.append([n.key() for n in find_monad_augmentations(monad)] == oracle_monad_augmentations(monad))\n"
            "    for side in (adj, adj.opposite()):\n"
            "        u = eilenberg_moore(side)[1]\n"
            "        same.append([g.component_key() for g in find_section_functors(u)] == oracle_section_functors(u))\n"
            "print('optimize=%%d same=%%s' %% (sys.flags.optimize, all(same) and len(same)))\n"
        ) % str(Path(__file__).resolve().parent)
        out = _run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "optimize=1 same=10"

    def test_cap_is_read_at_call_time(self, monkeypatch):
        # c2_twisted keeps one candidate after the unit-law filter; at the
        # default cap, c2_into_v4 has 2 structures and the forgetful functor
        # of rl_identity 1 section
        adj = ADJUNCTIONS["c2_twisted"]
        monkeypatch.setattr(fincat, "SEARCH_CAP", 1)
        assert len(find_rafael_retractions(adj, "left")[1]) == 1
        monkeypatch.setattr(fincat, "SEARCH_CAP", 0)
        forget = eilenberg_moore(ADJUNCTIONS["rl_identity"])[1]
        for search in (
            lambda: find_rafael_retractions(adj, "left"),
            lambda: find_rafael_retractions(adj, "right"),
            lambda: find_monad_augmentations(monad_from_adjunction(adj)),
            lambda: find_h_separability_structures(c2_into_v4()),
            lambda: find_section_functors(forget),
        ):
            with pytest.raises(CapExceeded):
                search()


def _tables(cat):
    return cat.objects, cat.hom, cat.compose, cat.identity


class TestOpposite:
    CATEGORIES = [
        cat
        for name in sorted(ORACLE_ADJUNCTIONS)
        for cat in (ORACLE_ADJUNCTIONS[name].left.source, ORACLE_ADJUNCTIONS[name].left.target)
    ]

    def test_double_opposite_is_identity(self):
        for cat in self.CATEGORIES:
            assert _tables(cat.opposite().opposite()) == _tables(cat)
        for adj in ORACLE_ADJUNCTIONS.values():
            for fun in (adj.left, adj.right):
                twice = fun.opposite().opposite()
                assert (twice.object_map, twice.morphism_map) == (fun.object_map, fun.morphism_map)

    def test_opposite_category_validates(self):
        for cat in self.CATEGORIES:
            cat.opposite().validate()

    def test_opposite_is_made_once(self):
        # the opposite adjunction's functors then share one table per category
        for cat in self.CATEGORIES:
            assert cat.opposite() is cat.opposite()
        adj = ORACLE_ADJUNCTIONS["c3x2_into_c3x3"].opposite()
        assert adj.left.source is adj.right.target and adj.left.target is adj.right.source

    @pytest.mark.parametrize("name", sorted(ORACLE_ADJUNCTIONS))
    def test_opposite_adjunction_validates(self, name):
        adj = ORACLE_ADJUNCTIONS[name]
        op = adj.opposite().validate()
        assert op.unit.components == adj.counit.components
        assert op.counit.components == adj.unit.components


class TestEilenbergMoore:
    def test_identity_adjunction_gives_base(self):
        em, forget = eilenberg_moore(ADJUNCTIONS["identity_2chain"])
        assert len(em.objects) == 2
        assert sorted(forget.object_map.values()) == ["c0", "c1"]

    def test_constant_top_monad_single_algebra(self):
        em, forget = eilenberg_moore(ADJUNCTIONS["galois_collapse"])
        assert len(em.objects) == 1
        assert forget.object_map[em.objects[0]] == "c1"

    def test_monoid_algebra_count_by_enumeration(self):
        adj = ADJUNCTIONS["c2_twisted"]
        em, _ = eilenberg_moore(adj)
        # oracle: brute force over both candidate structure maps
        cat = c2_category()
        monad = monad_from_adjunction(adj)
        count = 0
        for aname in cat.hom_set("*", "*"):
            a = ("*", "*", aname)
            if cat.comp(monad.unit.component("*"), a) != cat.id_mor("*"):
                continue
            if cat.comp(monad.functor.apply(a), a) != cat.comp(monad.mult.component("*"), a):
                continue
            count += 1
        assert len(em.objects) == count == 1


EM_ADJUNCTIONS = {
    **{
        name + suffix: side
        for name, adj in ORACLE_ADJUNCTIONS.items()
        for suffix, side in (("", adj), ("^op", adj.opposite()))
    },
    "c4x7_into_c4x8": cyclic_chain_adjunction(4, 7, 1, u=3, h=1),
    "c3x9_iso": cyclic_chain_adjunction(3, 9, 0, u=2, h=1),
}


class TestEilenbergMooreOracle:
    """eilenberg_moore, read off B's table by gathers, against the
    dict-and-comp construction in cat_util."""

    @pytest.mark.parametrize("name", sorted(EM_ADJUNCTIONS))
    def test_matches_oracle(self, name):
        adj = EM_ADJUNCTIONS[name]
        (em, forget), (oem, oforget) = eilenberg_moore(adj), oracle_eilenberg_moore(adj)
        assert (em.objects, list(em.hom.items()), em.identity, em.label) == (
            oem.objects, list(oem.hom.items()), oem.identity, oem.label
        )
        assert em.compose == oem.compose
        assert (list(forget.object_map.items()), list(forget.morphism_map.items()), forget.label) == (
            list(oforget.object_map.items()), list(oforget.morphism_map.items()), oforget.label
        )
        assert forget.source is em and forget.target is adj.left.source
        fresh = FiniteCategory(oem.objects, oem.hom, oem.compose, oem.identity)
        assert TestLawTableOracle.same_table(em._table, fresh._table)
        assert np.array_equal(forget._img, oforget._img)


class TestSections:
    def test_identity_forgetful(self):
        cat = chain_poset(2)
        sections = find_section_functors(identity_functor(cat))
        assert len(sections) == 1

    def test_constant_top_em_has_no_section(self):
        em, forget = eilenberg_moore(ADJUNCTIONS["galois_collapse"])
        assert find_section_functors(forget) == []

    def test_rl_identity_exactly_one_section(self):
        em, forget = eilenberg_moore(ADJUNCTIONS["rl_identity"])
        assert len(find_section_functors(forget)) == 1

    @staticmethod
    def two_point_fiber():
        """Two isolated objects over a single point: either lift works."""
        two = FiniteCategory(
            ("a", "b"),
            {("a", "a"): ("ia",), ("b", "b"): ("ib",)},
            {("a", "a", "a", "ia", "ia"): "ia", ("b", "b", "b", "ib", "ib"): "ib"},
            {"a": "ia", "b": "ib"},
        ).validate()
        term = chain_poset(1, prefix="t")
        return FunctorData(
            two,
            term,
            {"a": "t0", "b": "t0"},
            {("a", "a", "ia"): term.identity["t0"], ("b", "b", "ib"): term.identity["t0"]},
        ).validate()

    @staticmethod
    def idempotent_onto_terminal():
        """The monoid {1, e}, e∘e = e, onto the terminal category: e is an
        idempotent lift of the identity that preserves composition, and
        only Γ(id) = 1 is a functor."""
        term = chain_poset(1, prefix="t")
        monoid = fincat.monoid_category(("1", "e"), [[0, 1], [1, 1]], 0, label="{1,e}")
        return FunctorData(
            monoid, term, {"*": "t0"}, {("*", "*", n): term.identity["t0"] for n in ("1", "e")}
        ).validate()

    def test_two_point_fiber_gives_two_sections(self):
        assert len(find_section_functors(self.two_point_fiber())) == 2

    @staticmethod
    def v4_pair_onto_c2():
        """V4 ⊔ V4 → C2 with a, ab ↦ g: each object's fiber has 4 candidates,
        2 of them sections."""
        v4 = v4_category()
        objects = ("p", "q")
        names = v4.hom_set("*", "*")
        two = FiniteCategory(
            objects,
            {(o, o): names for o in objects},
            {(o, o, o, f, g): h for o in objects for (_, _, _, f, g), h in v4.compose.items()},
            {o: "1" for o in objects},
        ).validate()
        c2 = c2_category()
        image = {"1": "1", "a": "g", "b": "1", "ab": "g"}
        return FunctorData(
            two, c2, {o: "*" for o in objects}, {(o, o, n): image[n] for o in objects for n in names}
        ).validate()

    def test_cap_counts_candidates_across_object_choices(self):
        u = self.v4_pair_onto_c2()
        assert len(find_section_functors(u, cap=8)) == 4
        for cap in (4, 7):
            with pytest.raises(CapExceeded) as err:
                find_section_functors(u, cap=cap)
            assert cap < err.value.size <= 8


class TestSectionOracle:
    """find_section_functors against the brute force in cat_util, which
    builds every lift and checks the functor laws by loops over morphisms."""

    FUNCTORS = {
        **{
            name + suffix: eilenberg_moore(side)[1]
            for name, adj in ORACLE_ADJUNCTIONS.items()
            for suffix, side in (("", adj), ("^op", adj.opposite()))
        },
        "v4_pair_onto_c2": TestSections.v4_pair_onto_c2(),
        "two_point_fiber": TestSections.two_point_fiber(),
        "idempotent_onto_terminal": TestSections.idempotent_onto_terminal(),
    }

    @pytest.mark.parametrize("name", sorted(FUNCTORS))
    def test_sections_match_oracle(self, name):
        u = self.FUNCTORS[name]
        assert [g.component_key() for g in find_section_functors(u)] == oracle_section_functors(u)

    def test_fixture_counts(self):
        counts = {name: len(oracle_section_functors(u)) for name, u in self.FUNCTORS.items()}
        assert (counts["v4_pair_onto_c2"], counts["two_point_fiber"], counts["idempotent_onto_terminal"]) == (4, 2, 1)
        assert counts["galois_collapse"] == 0 and counts["galois_collapse^op"] == 1


class TestAugmentations:
    def test_identity_monad(self):
        monad = monad_from_adjunction(ADJUNCTIONS["identity_2chain"])
        augs = find_monad_augmentations(monad)
        assert len(augs) == 1

    def test_constant_top_monad_empty(self):
        monad = monad_from_adjunction(ADJUNCTIONS["galois_collapse"])
        assert find_monad_augmentations(monad) == []

    def test_rl_identity_monad(self):
        monad = monad_from_adjunction(ADJUNCTIONS["rl_identity"])
        assert len(find_monad_augmentations(monad)) == 1


class TestRafaelEquivalence:
    """Heavy witnesses ↔ EM sections ↔ monad augmentations, in bijection."""

    @pytest.mark.parametrize("name", sorted(ADJUNCTIONS))
    def test_three_way_bijection(self, name):
        adj = ADJUNCTIONS[name]
        _, heavy = find_rafael_retractions(adj, "left")
        em, forget = eilenberg_moore(adj)
        sections = find_section_functors(forget)
        monad = monad_from_adjunction(adj)
        augs = find_monad_augmentations(monad)
        assert len(heavy) == len(sections) == len(augs)
        heavy_keys = sorted(tuple(sorted(w.components.items())) for w in heavy)
        aug_keys = sorted(tuple(sorted(a.components.items())) for a in augs)
        assert heavy_keys == aug_keys
        # a section sends B to the algebra (B, γ_B)
        section_keys = sorted(
            tuple(sorted((b, gamma.split("|", 1)[1]) for b, gamma in s.object_map.items()))
            for s in sections
        )
        assert section_keys == heavy_keys


class TestFunctorLemmas:
    FF_FUNCTORS = {
        "id_2chain": identity_functor(chain_poset(2)),
        "terminal_into_2chain": inclusion_terminal_into_chain(chain_poset(2), "c1"),
        "id_c2": identity_functor(c2_category()),
    }

    def test_full_faithful_functors_have_structures(self):
        for name, fun in self.FF_FUNCTORS.items():
            assert find_h_separability_structures(fun), name

    def test_composite_structure_from_factors(self):
        # P for GF is built as P^F ∘ P^G from the factor structures
        g = _ff_chain_functor()
        f = inclusion_terminal_into_chain(g.source, "c1")
        gf = compose_functors(g, f)
        sf = find_h_separability_structures(f)
        sg = find_h_separability_structures(g)
        assert sf and sg
        pf, pg = sf[0], sg[0]
        combined = {}
        for x in f.source.objects:
            for y in f.source.objects:
                gx, gy = gf.object_map[x], gf.object_map[y]
                fx, fy = f.object_map[x], f.object_map[y]
                table = {}
                for name in g.target.hom_set(gx, gy):
                    mid = pg.P[(fx, fy)][name]
                    table[name] = pf.P[(x, y)][mid]
                combined[(x, y)] = table
        HSepStructure(gf, combined).validate()

    def test_composite_heavy_implies_first_factor_heavy(self):
        # GF = Id (split mono), so F inherits h-separability
        chain2 = chain_poset(2)
        f = inclusion_terminal_into_chain(chain2, "c1")
        g = collapse_to_terminal(chain2)
        gf = compose_functors(g, f)
        assert find_h_separability_structures(gf)
        assert find_h_separability_structures(f)

    def test_non_ff_collapse_fails(self):
        assert find_h_separability_structures(collapse_to_terminal(chain_poset(2))) == []

    def test_heavy_second_factor_cannot_rescue(self):
        # G heavy and GF heavy would force F heavy, so with F the collapse
        # functor the composite must have no structure either
        chain2 = chain_poset(2)
        chain3 = chain_poset(3, prefix="d")
        f = collapse_to_terminal(chain2)
        g = inclusion_terminal_into_chain(chain3, "d2")
        assert find_h_separability_structures(g)
        assert find_h_separability_structures(compose_functors(g, f)) == []
