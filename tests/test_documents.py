"""`documents.loads` against `json.loads`: the same values, the same
errors at the same positions, the same behaviour on deep nesting, and
each object whose text repeats an earlier one's decoded once and shared."""

import copy
import json
import random
import time
from pathlib import Path

import pytest

from cat_util import CORPUS, adjunction_doc, cyclic_chain_adjunction, oracle_adjunctions

from hsep import cli, documents

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(CORPUS.rglob("*.json")) + sorted((ROOT / "tests" / "golden").rglob("*.json"))
GENERATED = {
    "C4x[7]<C4x[8]": cyclic_chain_adjunction(4, 7, 1, u=3, h=1),
    "C3x[9]": cyclic_chain_adjunction(3, 9, 0, u=2, h=1),
    **oracle_adjunctions(),
}


def outcome(decode, text):
    """("value", its JSON text), (JSONDecodeError, message, position) or
    RecursionError, whose message names the container being decoded when
    the limit was reached, which depends on the caller's stack depth."""
    try:
        return "value", json.dumps(decode(text))
    except json.JSONDecodeError as err:
        return type(err), err.msg, err.pos
    except RecursionError:
        return RecursionError


def assert_as_json(text):
    assert outcome(documents.loads, text) == outcome(json.loads, text)


def random_text(rng, depth=0, pool=None):
    """The JSON text of a random value: objects with repeated keys and
    repeated member values, arrays of objects, strings with escapes,
    braces and non-ASCII characters, numbers of every form, and odd
    whitespace around every token."""
    pool = [] if pool is None else pool

    def ws():
        return rng.choice(["", "", " ", "\n", "\t", " \r\n  "])

    def string():
        text = "".join(rng.choice('ab{}[]:,"\\/é∘ \x01 ') for _ in range(rng.randrange(6)))
        return json.dumps(text, ensure_ascii=rng.random() < 0.5)

    kinds = ["object", "array", "string", "number", "literal"] if depth < 5 else ["string", "number", "literal"]
    kind = rng.choice(kinds)
    if kind == "object" and pool and rng.random() < 0.3:
        return rng.choice(pool)  # an earlier object's exact text
    if kind == "object":
        keys = [string() for _ in range(rng.randrange(4))]
        keys += rng.sample(keys, min(len(keys), rng.randrange(2)))  # duplicate keys
        members = ["%s%s%s:%s%s%s" % (ws(), k, ws(), ws(), random_text(rng, depth + 1, pool), ws()) for k in keys]
        text = "{%s%s}" % (",".join(members), ws())
        pool.append(text)
        return text
    if kind == "array":
        return "[%s%s]" % (",".join(ws() + random_text(rng, depth + 1, pool) + ws() for _ in range(rng.randrange(4))), ws())
    if kind == "string":
        return string()
    if kind == "number":
        return rng.choice(["0", "-0", "12", "-7", "3.25", "1e3", "-2.5E-3", "1.0", "123456789012345678901234567890"])
    return rng.choice(["true", "false", "null", "NaN", "Infinity", "-Infinity"])


class TestSameAsJson:
    @pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
    def test_repository_documents(self, path):
        assert_as_json(path.read_text())

    @pytest.mark.parametrize("name", sorted(GENERATED))
    @pytest.mark.parametrize("indent", [None, 2])
    def test_generated_adjunctions(self, name, indent):
        assert_as_json(json.dumps(adjunction_doc(GENERATED[name]), indent=indent))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_values(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            assert_as_json(random_text(rng))

    def test_top_level_values(self):
        for text in ['"a"', " 3 ", "[]", "{}", "[{}, {}]", " \n{\"a\": {}}\t", "null", "-1.5e2"]:
            assert_as_json(text)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "", "  ", "{", "}", '{"a": 1,}', '{"a" 1}', '{"a": 1 "b": 2}', "[1, 2", '{"a": {"b": 1}} x',
            '{"a": {"b": nope}}', '﻿{"a": 1}', '{"a": "\x01"}', '{"a": {"b": [1, {"c": }]}}',
            '{"a": {"x": 1}, "b": {"x": 1}', '[{"x": 1}, {"x": 1}, {"x": 1]', "{1: 2}", '{"a": [}',
        ],
    )
    def test_malformed_text(self, text):
        assert outcome(documents.loads, text)[0] is json.JSONDecodeError
        assert_as_json(text)

    @pytest.mark.parametrize("seed", range(20))
    def test_corrupted_random_values(self, seed):
        # a character deleted, doubled or replaced, or the text cut short
        rng = random.Random(seed)
        for _ in range(25):
            text = random_text(rng)
            i = rng.randrange(len(text) + 1)
            for broken in (text[:i] + text[i + 1 :], text[:i] + text[i : i + 1] * 2 + text[i + 1 :], text[:i] + rng.choice('{}[],:"x ') + text[i + 1 :], text[:i]):
                assert_as_json(broken)

    @pytest.mark.parametrize("depth", [10, 300, 900, 2000, 100_000])
    @pytest.mark.parametrize("shape", ["object", "array", "array of objects"])
    def test_deep_nesting(self, depth, shape):
        # past this parser's recursion json.loads decides: the same value or
        # the same RecursionError
        opening, closing = {"object": ('{"a":', "}"), "array": ("[", "]"), "array of objects": ('[{"a":', "}]")}[shape]
        assert_as_json(opening * depth + "1" + closing * depth)


class TestSharing:
    def test_repeated_objects_are_one_object(self):
        doc = documents.loads(json.dumps(adjunction_doc(GENERATED["C4x[7]<C4x[8]"])))
        assert doc["left"]["source"] is doc["right"]["target"] and doc["left"]["target"] is doc["right"]["source"]
        assert doc["left"]["source"] is not doc["left"]["target"]
        assert doc["left"]["source"]["identities"] is doc["right"]["target"]["identities"]

    def test_indented_copies_are_shared(self):
        doc = documents.loads(json.dumps(adjunction_doc(GENERATED["galois_collapse"]), indent=2))
        assert doc["left"]["source"] is doc["right"]["target"]

    def test_items_of_an_array_of_objects(self):
        doc = documents.loads('[{"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}, {"b": 2}]')
        assert doc[0] is doc[1] and doc[2] == {"b": 2}

    def test_copies_that_differ_in_formatting_are_not_shared(self):
        doc = documents.loads('{"x": {"a": 1}, "y": {"a":1}, "z": {"a": 1}}')
        assert doc["x"] is doc["z"] and doc["x"] is not doc["y"] and doc["x"] == doc["y"]

    def test_an_object_is_not_shared_with_a_longer_one(self):
        # the text up to the first "}" is the same, the lengths are not
        doc = documents.loads('{"x": {"a": {}}, "y": {"a": {}, "b": 1}, "z": {"a": {}, "b": 1}, "w": {"a": {}}}')
        assert doc["y"] is doc["z"] and doc["x"] is doc["w"] and doc["x"] == {"a": {}}

    @pytest.mark.parametrize("siblings", ["distinct", "same prefix"])
    def test_many_siblings_decode_in_linear_time(self, siblings):
        # 10⁴ object values; with a long common prefix every earlier object
        # shares the lookup text, so a scan over them would be quadratic
        pad = "p" * 100 if siblings == "same prefix" else ""
        text = json.dumps({"k%d" % i: {"pad": pad, "i": i, "v": [i, "s"]} for i in range(10_000)})
        assert_as_json(text)

        def best(decode):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                decode(text)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(documents.loads) < 30 * best(json.loads) + 0.05


class TestCommandsLeaveTheDocumentAlone:
    """Shared objects make a change to one copy a change to every copy:
    no command may change what it decoded."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cat", "rafael", str(CORPUS / "rafael_c2" / "adjunction.json"), "--side", "left"],
            ["cat", "rafael", str(CORPUS / "galois_2chain" / "adjunction.json"), "--side", "right"],
            ["cat", "check", str(CORPUS / "galois_2chain" / "adjunction.json")],
            ["sep", "report", str(CORPUS / "m2_f2_over_f2" / "hom.json")],
            ["sep", "report", str(ROOT / "tests" / "golden" / "sep-homs" / "z8-to-z4.json")],
        ],
    )
    def test_decoded_documents_are_unchanged(self, monkeypatch, capsys, argv):
        decoded, original = [], documents.loads

        def recording(text):
            doc = original(text)
            decoded.append((doc, copy.deepcopy(doc)))
            return doc

        monkeypatch.setattr(documents, "loads", recording)
        assert cli.main(argv) in (0, 1)
        capsys.readouterr()
        assert decoded
        for doc, before in decoded:
            assert json.dumps(doc) == json.dumps(before)
