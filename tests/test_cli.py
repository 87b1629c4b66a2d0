"""Exit codes, report stability, and the corpus runner."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corpus_util import zmod

from hsep import cli, exactalg, sepkit
from hsep.cli import main
from hsep.finring import check_ring_hom, construct_standard_ring, identity_hom

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
F2 = {"kind": "modular", "params": {"n": 2}}
F2_SQUARED = {"kind": "product", "params": {"factors": [F2, F2]}}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_epi_holds(self, capsys):
        code, out, _ = run(capsys, "sep", "epi", str(CORPUS / "z4_to_z2" / "hom.json"))
        assert code == 0
        assert "ring epimorphism: true" in out

    def test_report_not_heavy(self, capsys):
        code, out, _ = run(capsys, "sep", "report", str(CORPUS / "m2_f2_over_f2" / "hom.json"))
        assert code == 1
        assert "h-separable: false" in out
        assert "separable: true" in out

    def test_garbage_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("not json at all")
        code, _, err = run(capsys, "ring", "validate", str(bad))
        assert code == 2
        assert err.startswith("error: ")
        assert "\n" not in err.strip()

    def test_invalid_ring_is_one(self, capsys, tmp_path):
        doc = tmp_path / "ring.json"
        doc.write_text(json.dumps({"moduli": [4], "unit": [1], "mul": [[[2]]]}))
        code, out, _ = run(capsys, "ring", "validate", str(doc))
        assert code == 1

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("sep epi", {"source": F2, "target": F2_SQUARED, "matrix": [[1]]}),
            ("sep epi", {"source": F2, "target": F2_SQUARED, "matrix": [[1, 1, 7]]}),
            ("ring validate", {"moduli": [2], "unit": [1], "mul": [[[1, 5]]]}),
        ],
    )
    def test_malformed_widths_are_input_errors(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *command.split(), str(path))
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sep", "epi", "no-such-file.json")
        assert code == 2

    def test_undecided_is_three(self, capsys, tmp_path, monkeypatch):
        # non-central, non-epi extension with the cap forced to 1
        doc = tmp_path / "hom.json"
        m2 = {"kind": "matrix", "params": {"n": 2, "base": {"kind": "modular", "params": {"n": 2}}}}
        f2sq = {"kind": "product", "params": {"factors": [
            {"kind": "modular", "params": {"n": 2}}, {"kind": "modular", "params": {"n": 2}}]}}
        doc.write_text(json.dumps({
            "source": f2sq,
            "target": m2,
            "matrix": [[1, 0, 0, 0], [0, 0, 0, 1]],
        }))
        monkeypatch.setenv("SEPKIT_CAP", "1")
        code, out, _ = run(capsys, "sep", "report", str(doc))
        assert code == 3
        assert "undecided-by-enumeration" in out

    def test_rerun_is_idempotent(self, capsys):
        path = str(CORPUS / "t2_into_m2_f2" / "hom.json")
        first = run(capsys, "sep", "report", path)
        second = run(capsys, "sep", "report", path)
        assert first == second

    def test_idempotents_h_only_filter(self, capsys):
        path = str(CORPUS / "m2_f2_over_f2" / "hom.json")
        code, out, _ = run(capsys, "sep", "idempotents", path)
        assert code == 0 and "8 idempotent(s)" in out
        code, out, _ = run(capsys, "sep", "idempotents", path, "--h-only")
        assert code == 1
        assert "0 idempotent(s)" in out

    def test_h_only_lists_exactly_the_heavy_members(self, capsys):
        from sepkit_util import is_h_idempotent

        from hsep.finring import hom_from_doc
        from hsep.sepkit import tensor_power

        for path in sorted(CORPUS.glob("*/hom.json")):
            t2 = tensor_power(hom_from_doc(json.loads(path.read_text()), path.parent), 2)
            heavy = [list(m) for m in t2.locus.members() if is_h_idempotent(t2, m)]
            code, out, _ = run(capsys, "--format", "json", "sep", "idempotents", str(path), "--h-only")
            listed = [e["coords"] for e in json.loads(out)["idempotents"]]
            assert listed == heavy, path.parent.name
            assert code == (0 if heavy else 1)

    def test_h_only_on_the_diagonal_extension(self, capsys, tmp_path):
        # D3(F2) → M3(F2): three of the four separability idempotents are
        # heavy, the sums Σ_i E_ij⊗E_ji for j = 1, 2, 3
        from corpus_util import diagonal_into_matrix
        from hsep.finring import hom_to_doc

        path = tmp_path / "d3.json"
        path.write_text(json.dumps(hom_to_doc(diagonal_into_matrix(3, 2))))
        code, out, _ = run(capsys, "--format", "json", "sep", "idempotents", str(path), "--h-only")
        doc = json.loads(out)
        assert code == 0 and doc["locus_size"] == 4 and doc["h_only"] is True
        sums = sorted(e["formal_sum"] for e in doc["idempotents"])
        assert sums == [
            "E11⊗E11 + E21⊗E12 + E31⊗E13",
            "E12⊗E21 + E22⊗E22 + E32⊗E23",
            "E13⊗E31 + E23⊗E32 + E33⊗E33",
        ]


def fresh_process(*argv):
    """`python -m hsep` in a new interpreter, hsep imported from src/."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "hsep", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
    )


class TestParserReuse:
    """`main` builds its parser on the first call, not at import, and
    every later call in the process reuses it."""

    def test_many_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            hom = str(CORPUS / "z4_to_z2" / "hom.json")
            for _ in range(4):
                assert run(capsys, "sep", "epi", hom)[0] == 0
                assert run(capsys, "--format", "json", "talg", "witness", "--dim", "1", "--deg", "2", "--field", "q")[0] == 0
                assert run(capsys, "sep", "report", hom, "--cap", "-1")[0] == 2
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_import_builds_no_parser(self):
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        probe = subprocess.run(
            [sys.executable, "-c", "from hsep import cli; print(cli._parser.cache_info().currsize)"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (probe.returncode, probe.stdout) == (0, "0\n"), probe.stderr

    def test_back_to_back_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        hom = str(CORPUS / "m2_f2_over_f2" / "hom.json")
        adjunction = str(CORPUS / "rafael_c2" / "adjunction.json")
        out = "{out}"
        # (SEPKIT_CAP or None, argv): subcommands, formats, outputs and caps interleaved
        calls = [
            (None, ["--format", "json", "--output", out, "sep", "report", hom]),
            ("1", ["sep", "idempotents", hom]),
            (None, ["--format", "json", "sep", "idempotents", hom, "--h-only"]),
            ("0", ["--output", out, "--format", "json", "sep", "report", hom]),
            (None, ["talg", "witness", "--dim", "2", "--deg", "3", "--field", "7"]),
            ("-2", ["--format", "json", "sep", "idempotents", hom]),
            (None, ["--format", "json", "cat", "rafael", adjunction, "--side", "right"]),
            (None, ["--output", out, "cat", "check", adjunction]),
            ("5", ["sep", "report", hom]),
        ]
        for i, (cap, argv) in enumerate(calls):
            monkeypatch.delenv("SEPKIT_CAP", raising=False)
            if cap is not None:
                monkeypatch.setenv("SEPKIT_CAP", cap)
            results = []
            for where in ("in", "fresh"):
                target = tmp_path / ("%s-%d.txt" % (where, i))
                args = [a.format(out=target) for a in argv]
                if where == "in":
                    code, stdout, stderr = run(capsys, *args)
                    got = (code, stdout.encode(), stderr.encode())
                else:
                    proc = fresh_process(*args)
                    got = (proc.returncode, proc.stdout, proc.stderr)
                results.append(got + (target.read_bytes() if target.exists() else None,))
            assert results[0] == results[1], argv


class TestCliErrors:
    """Every input or output error prints one `error: ` line and exits 2."""

    HOM = str(CORPUS / "m2_f2_over_f2" / "hom.json")

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["directory", "not-a-directory"])
    def test_unwritable_output(self, capsys, tmp_path, under_a_file):
        target = tmp_path
        if under_a_file:
            (tmp_path / "file").write_text("")
            target = tmp_path / "file" / "report.json"
        code, out, err = run(capsys, "--output", str(target), "sep", "epi", self.HOM)
        assert (code, out) == (2, "")
        assert err.startswith("error: %s: " % target) and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["directory", "under-a-file", "under-a-missing-directory"])
    def test_unwritable_output_fails_before_the_command(self, capsys, monkeypatch, tmp_path, target):
        # the command itself is replaced by one that fails if it is called
        def refuse(args):
            raise AssertionError("the command ran")

        parser = cli.build_parser()
        parse_args = parser.parse_args

        def parse_refusing(argv):
            args = parse_args(argv)
            args.func = refuse
            return args

        monkeypatch.setattr(parser, "parse_args", parse_refusing)
        monkeypatch.setattr(cli, "_parser", lambda: parser)
        (tmp_path / "file").write_text("")
        path = {"directory": tmp_path, "under-a-file": tmp_path / "file" / "r.txt", "under-a-missing-directory": tmp_path / "no" / "r.txt"}[target]
        code, out, err = run(capsys, "--output", str(path), "sep", "report", self.HOM)
        assert (code, out) == (2, "")
        assert err.startswith("error: %s: " % path) and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"] and (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("command", ["cat check", "cat rafael", "sep report", "ring validate"])
    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("3", "int"), ('"adjunction"', "str"), ("null", "NoneType")])
    def test_document_that_is_not_an_object(self, capsys, tmp_path, command, text, kind):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run(capsys, *command.split(), str(path))
        assert (code, out, err) == (2, "", "error: %s: expected a JSON object, got %s\n" % (path, kind))

    @pytest.mark.parametrize("command", ["cat check", "sep report", "ring validate"])
    @pytest.mark.parametrize("fault", ["not utf-8", "integer too long"])
    def test_document_that_cannot_be_decoded(self, capsys, tmp_path, command, fault):
        # both used to end in a traceback: the bytes are not text, or json
        # refuses an integer of more digits than int() converts
        path = tmp_path / "doc.json"
        if fault == "not utf-8":
            path.write_bytes(b"\xff{}")
            reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        else:
            path.write_text('{"moduli": [%s]}' % ("1" * 5000))
            try:
                int("1" * 5000)
                pytest.skip("this interpreter converts integers of any length")
            except ValueError as err:
                reason = str(err)
        code, out, err = run(capsys, *command.split(), str(path))
        assert (code, out, err) == (2, "", "error: %s: %s\n" % (path, reason))

    @pytest.mark.parametrize(
        "argv",
        [["sep", "report", HOM, "--cap", "-1"], ["sep", "idempotents", HOM, "--cap", "-7"], ["corpus", "run", str(CORPUS), "--cap", "-1"]],
    )
    def test_negative_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --cap must not be negative: %s\n" % argv[-1])

    def test_negative_cap_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SEPKIT_CAP", "-1")
        code, out, err = run(capsys, "sep", "report", self.HOM)
        assert (code, out, err) == (2, "", "error: SEPKIT_CAP must not be negative: '-1'\n")

    @pytest.mark.parametrize("command", ["sep report", "cat check", "ring standard"])
    def test_reference_to_a_directory(self, capsys, tmp_path, command):
        # the document is readable, but a file it names is a directory
        (tmp_path / "dir").mkdir()
        adjunction = json.loads((CORPUS / "rafael_c2" / "adjunction.json").read_text())
        doc = {"sep report": {"source": "dir", "target": F2, "matrix": [[1]]}, "cat check": dict(adjunction, left="dir")}.get(command)
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        params = json.dumps({"base": str(tmp_path / "dir"), "n": 2})
        argv = ["ring", "standard", "matrix", "--params", params] if doc is None else command.split() + [str(tmp_path / "doc.json")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["ring validate", "sep report"])
    @pytest.mark.parametrize("ring, reason", [("a.json", "expected a JSON object, got str"), ("c.json", "reference cycle")])
    def test_reference_cycle(self, capsys, tmp_path, command, ring, reason):
        # a.json holds the string "a.json", and c.json is M2 over itself
        (tmp_path / "a.json").write_text(json.dumps("a.json"))
        (tmp_path / "c.json").write_text(json.dumps({"kind": "matrix", "params": {"base": "c.json", "n": 2}}))
        top = tmp_path / "top.json"
        hom = {"source": ring, "target": F2, "matrix": [[1]]}
        top.write_text(json.dumps(hom if command == "sep report" else {"kind": "matrix", "params": {"base": ring, "n": 2}}))
        code, out, err = run(capsys, *command.split(), str(top))
        assert (code, out, err) == (2, "", "error: %s: %s: %s\n" % (top, tmp_path / ring, reason))

    def test_cap_zero_is_legal(self, capsys, monkeypatch):
        expect = (3, "undecided: locus size 8 exceeds cap 0\n", "")
        assert run(capsys, "sep", "idempotents", self.HOM, "--cap", "0") == expect
        monkeypatch.setenv("SEPKIT_CAP", "0")
        assert run(capsys, "sep", "idempotents", self.HOM) == expect


def test_python_dash_m_hsep():
    out = fresh_process("--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(b"usage: hsep ")


class TestJsonFormat:
    def test_sorted_keys_byte_stable(self, capsys):
        path = str(CORPUS / "f3_into_f9" / "hom.json")
        _, out1, _ = run(capsys, "--format", "json", "sep", "report", path)
        _, out2, _ = run(capsys, "--format", "json", "sep", "report", path)
        assert out1 == out2
        doc = json.loads(out1)
        assert list(doc) == sorted(doc)
        assert doc["h_separable"] is False

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "--format", "json", "--output", str(target),
            "sep", "epi", str(CORPUS / "z4_to_z2" / "hom.json"),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["ring_epimorphism"] is True


class TestRingStandard:
    def test_emit_matrix_ring(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "ring", "standard", "matrix",
            "--params", '{"n": 2, "base": {"kind": "modular", "params": {"n": 2}}}',
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["moduli"]) == 4
        assert "scalar" in doc["canonical_homs"]

    def test_bad_kind(self, capsys):
        code, _, err = run(capsys, "ring", "standard", "nonsense")
        assert code == 2


class TestLargePrimes:
    """No trial division of a large prime: the size checks come first.
    Each command runs in a subprocess with a wall-clock bound, so a
    regression fails instead of stalling the suite."""

    MERSENNE = 2**61 - 1

    @staticmethod
    def cli(*argv):
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        return subprocess.run(
            [sys.executable, "-m", "hsep.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=10,
        )

    def test_talg_field_limit_before_primality(self):
        out = self.cli("talg", "verify", "--dim", "1", "--deg", "2", "--field", str(self.MERSENNE))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: field '%d': prime fields are supported up to p = 97\n" % self.MERSENNE

    def test_polynomial_quotient_size_before_primality(self):
        # neither √p trial divisions nor the search for factors is started
        params = {"p": self.MERSENNE, "poly": [1, 0, 1]}
        out = self.cli("ring", "standard", "polynomial_quotient", "--params", json.dumps(params))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "error: standard ring: polynomial quotients are supported for p <= 10^12 and p^(degree // 2) <= 10^6,"
            " got p = %d, degree 2\n" % self.MERSENNE
        )

    def test_quotient_past_the_int64_field_bound(self):
        # 2 is a unit mod 2⁶¹ − 1, so the quotient is the zero ring
        params = {"base": modular(self.MERSENNE), "ideal": [[2]]}
        out = self.cli("--format", "json", "ring", "standard", "quotient", "--params", json.dumps(params))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert (doc["moduli"], doc["canonical_homs"]) == ([], ["projection"])


class TestCat:
    def test_check_category(self, capsys, tmp_path):
        from hsep.fincat import category_to_doc, chain_poset

        doc = tmp_path / "cat.json"
        doc.write_text(json.dumps(category_to_doc(chain_poset(2))))
        code, out, _ = run(capsys, "cat", "check", str(doc))
        assert code == 0

    def test_check_rejects_broken(self, capsys, tmp_path):
        doc = tmp_path / "cat.json"
        doc.write_text(json.dumps({
            "type": "category",
            "objects": ["x"],
            "homs": [["x", "x", ["id", "a"]]],
            "compose": [["x", "x", "x", "id", "id", "id"],
                        ["x", "x", "x", "id", "a", "a"],
                        ["x", "x", "x", "a", "id", "a"],
                        ["x", "x", "x", "a", "a", "id"]],
            "identities": {"x": "a"},
        }))
        code, out, _ = run(capsys, "cat", "check", str(doc))
        assert code == 1

    def test_rafael_exit(self, capsys):
        code, _, _ = run(capsys, "cat", "rafael", str(CORPUS / "rafael_c2" / "adjunction.json"))
        assert code == 0
        code, _, _ = run(capsys, "cat", "rafael", str(CORPUS / "galois_2chain" / "adjunction.json"))
        assert code == 1

    def test_rafael_invalid_adjunction_is_input_error(self, capsys, tmp_path):
        doc = json.loads((CORPUS / "rafael_c2" / "adjunction.json").read_text())
        doc["unit"] = {"*": "1"}  # breaks the triangle identities
        path = tmp_path / "adjunction.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "cat", "rafael", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "\n" not in err.strip()

    def test_broken_category_in_an_adjunction(self, capsys, tmp_path):
        doc = json.loads((CORPUS / "galois_2chain" / "adjunction.json").read_text())
        doc["right"]["source"]["identities"] = {x: "missing" for x in doc["right"]["source"]["identities"]}
        path = tmp_path / "adjunction.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "cat", "check", str(path))
        assert code == 1 and out.startswith("invalid: ")
        code, out, err = run(capsys, "cat", "rafael", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")

    SLOTS = {"left.source": "category", "right.target": "category", "left": "functor", "right": "functor"}

    @staticmethod
    def with_slot(doc, slot, value):
        doc = json.loads(json.dumps(doc))
        *path, last = slot.split(".")
        parent = doc
        for key in path:
            parent = parent[key]
        parent[last] = value
        return doc

    @pytest.mark.parametrize("command", ["cat check", "cat rafael"])
    @pytest.mark.parametrize("slot", sorted(SLOTS))
    @pytest.mark.parametrize("value, kind", [(5, "int"), ([1, 2], "list"), (None, "NoneType"), (True, "bool")])
    def test_inline_value_that_is_not_an_object(self, capsys, tmp_path, command, slot, value, kind):
        adjunction = json.loads((CORPUS / "rafael_c2" / "adjunction.json").read_text())
        path = tmp_path / "adjunction.json"
        path.write_text(json.dumps(self.with_slot(adjunction, slot, value)))
        code, out, err = run(capsys, *command.split(), str(path))
        expected = "error: %s: a %s must be a JSON object or a path, got %s\n" % (path, self.SLOTS[slot], kind)
        assert (code, out, err) == (2, "", expected)

    @pytest.mark.parametrize("command", ["cat check", "cat rafael"])
    @pytest.mark.parametrize("slot", sorted(SLOTS))
    def test_reference_to_a_file_that_is_not_an_object(self, capsys, tmp_path, command, slot):
        adjunction = json.loads((CORPUS / "rafael_c2" / "adjunction.json").read_text())
        (tmp_path / "value.json").write_text("[1, 2]")
        path = tmp_path / "adjunction.json"
        path.write_text(json.dumps(self.with_slot(adjunction, slot, "value.json")))
        code, out, err = run(capsys, *command.split(), str(path))
        assert (code, out, err) == (2, "", "error: %s: %s: expected a JSON object, got list\n" % (path, tmp_path / "value.json"))

    def test_values_that_are_not_objects_under_optimize(self, tmp_path):
        adjunction = json.loads((CORPUS / "rafael_c2" / "adjunction.json").read_text())
        (tmp_path / "value.json").write_text("[1, 2]")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        for name, value, reason in (
            ("inline", 5, "a category must be a JSON object or a path, got int"),
            ("file", "value.json", "%s: expected a JSON object, got list" % (tmp_path / "value.json")),
        ):
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(self.with_slot(adjunction, "left.source", value)))
            for command in ("check", "rafael"):
                out = subprocess.run(
                    [sys.executable, "-O", "-m", "hsep.cli", "cat", command, str(path)],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: %s: %s\n" % (path, reason))

    @pytest.mark.parametrize(
        "entry",
        [
            ["x", "x", ["x"], "id", "a", "a"],
            ["x", "x", "x", {"a": 1}, "a", "a"],
            [["x"], "x", "x", "id", {"a": 1}, "a"],
            ["x", "x", "x", "id", "a"],
            ["x", "x", "x", "id", "a", "a", "a"],
            5,
            "xxxxxx",
        ],
        ids=["list-object", "dict-name", "list-and-dict", "five-items", "seven-items", "int", "six-chars"],
    )
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_malformed_compose_entry(self, capsys, tmp_path, entry, position):
        # exit 2 and the message that building the compose dict raises,
        # whatever the entry's place among the others
        compose = [
            ["x", "x", "x", "id", "id", "id"], ["x", "x", "x", "id", "a", "a"],
            ["x", "x", "x", "a", "id", "a"], ["x", "x", "x", "a", "a", "id"],
        ]
        compose.insert(position, entry)
        doc = {"type": "category", "objects": ["x"], "homs": [["x", "x", ["id", "a"]]], "compose": compose, "identities": {"x": "id"}}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        try:
            {(x, y, z, f, g): h for x, y, z, f, g, h in compose}
            reason = None
        except (TypeError, ValueError) as err:
            reason = str(err)
        code, out, err = run(capsys, "cat", "check", str(path))
        if reason is None:  # a six-character string unpacks into a key that names no morphism
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", "error: %s: %s\n" % (path, reason))

    def test_rafael_capped_search_is_undecided(self, capsys, monkeypatch):
        from hsep import fincat

        monkeypatch.setattr(fincat, "SEARCH_CAP", 0)
        path = str(CORPUS / "rafael_c2" / "adjunction.json")
        for side in ("left", "right"):
            code, out, _ = run(capsys, "--format", "json", "cat", "rafael", path, "--side", side)
            assert code == 3
            assert json.loads(out)["h_separable"] == "undecided-by-enumeration"


class TestCatGolden:
    """Reports captured before the category laws used an endpoint index:
    the first failure found, and so its witness, must not move."""

    @pytest.mark.parametrize(
        "name", ["not-associative", "functor-breaks-composition", "unit-not-natural", "triangle-fails"]
    )
    def test_check_broken_bytes(self, capsys, name):
        doc = GOLDEN / "cat-broken" / ("%s.json" % name)
        code, out, err = run(capsys, "--format", "json", "cat", "check", str(doc))
        golden = GOLDEN / ("cat-check-%s.json" % name)
        assert (code, out.encode(), err) == (1, golden.read_bytes(), "")

    @pytest.mark.parametrize(
        "name", ["not-associative", "functor-breaks-composition", "unit-not-natural", "triangle-fails"]
    )
    def test_check_broken_bytes_under_optimize(self, name):
        """The law checks are gates, not asserts: `python -O` reports the same bytes."""
        doc = GOLDEN / "cat-broken" / ("%s.json" % name)
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-O", "-m", "hsep.cli", "--format", "json", "cat", "check", str(doc)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            timeout=120,
        )
        golden = GOLDEN / ("cat-check-%s.json" % name)
        assert (out.returncode, out.stdout, out.stderr) == (1, golden.read_bytes(), b"")

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("case, left_code", [("rafael_c2", 0), ("galois_2chain", 1)])
    def test_rafael_bytes(self, capsys, case, left_code, side):
        path = str(CORPUS / case / "adjunction.json")
        code, out, err = run(capsys, "--format", "json", "cat", "rafael", path, "--side", side)
        golden = GOLDEN / ("cat-rafael-%s-%s.json" % (case, side))
        assert (code, out.encode(), err) == (left_code if side == "left" else 0, golden.read_bytes(), "")


# name -> (hom document, exit code of `sep report`)
SEP_GOLDEN = {
    name: (CORPUS / name / "hom.json", code)
    for name, code in [
        ("f2_diag_f2sq", 1), ("f2c2_over_f2", 1), ("f3_into_f9", 1), ("m2_f2_over_f2", 1),
        ("t2_into_m2_f2", 0), ("z4_to_z2", 0),
    ]
}
SEP_GOLDEN.update(
    (name, (GOLDEN / "sep-homs" / ("%s.json" % name), code))
    for name, code in [
        ("m3-z4-scalar", 1), ("t3-z2-into-m3", 0), ("d3-f3-into-m3", 0), ("z8-to-z4", 0), ("z6-quotient", 0),
    ]
)
RING_STANDARD_CASES = json.loads((GOLDEN / "ring-standard" / "cases.json").read_text())


class TestSepGolden:
    """Reports captured while exactalg still took tuple matrices: the
    Smith pivot rule did not change with the container, so neither may a
    byte.  The hom documents outside the corpus are in golden/sep-homs/."""

    @pytest.mark.parametrize("name", sorted(SEP_GOLDEN))
    def test_report_bytes(self, capsys, name):
        path, expect_code = SEP_GOLDEN[name]
        code, out, err = run(capsys, "--format", "json", "sep", "report", str(path))
        golden = GOLDEN / ("sep-report-%s.json" % name)
        assert (code, out.encode(), err) == (expect_code, golden.read_bytes(), "")

    @pytest.mark.parametrize("name", sorted(RING_STANDARD_CASES))
    def test_ring_standard_bytes(self, capsys, name):
        # tensor products and quotients over composite moduli take their
        # basis from the Smith path
        kind, params = RING_STANDARD_CASES[name]
        code, out, err = run(capsys, "--format", "json", "ring", "standard", kind, "--params", json.dumps(params))
        golden = GOLDEN / "ring-standard" / ("%s.json" % name)
        assert (code, out.encode(), err) == (0, golden.read_bytes(), "")


class TestTalg:
    def test_verify(self, capsys):
        code, out, _ = run(capsys, "talg", "verify", "--dim", "1", "--deg", "2", "--field", "q")
        assert code == 0

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "talg", "witness", "--dim", "1", "--deg", "2", "--field", "2")
        assert code == 0
        assert "values differ: true" in out

    def test_witness_json_over_rationals(self, capsys):
        reports = {}
        for field in ("q", "7"):
            code, out, _ = run(
                capsys, "--format", "json", "talg", "witness", "--dim", "2", "--deg", "3", "--field", field
            )
            assert code == 0
            reports[field] = json.loads(out)
        assert (reports["q"].pop("field"), reports["7"].pop("field")) == ("Q", "F7")
        assert reports["q"] == reports["7"]
        assert reports["q"]["evaluated_then_projected"] == [1, [1, 0]]

    def test_witness_text_prints_scalars(self, capsys):
        code, out, _ = run(capsys, "talg", "witness", "--dim", "2", "--deg", "3", "--field", "q")
        assert code == 0 and "Fraction" not in out
        assert "project twice: [0, 0]\nevaluate then project: [1, 0]\n" in out
        assert "values differ: true\nunit retraction still holds: true\n" in out

    def test_bad_field(self, capsys):
        code, _, err = run(capsys, "talg", "verify", "--dim", "1", "--deg", "2", "--field", "6")
        assert code == 2

    @pytest.mark.parametrize(
        "command, dim, deg, field",
        [
            ("verify", 3, 4, "q"),
            ("verify", 2, 5, "7"),
            ("verify", 4, 3, "q"),
            ("witness", 3, 4, "q"),
            # p <= N, where the restricted primitives differ from Witt's count
            ("verify", 3, 4, "2"),
            ("verify", 2, 5, "3"),
            ("witness", 2, 5, "7"),
        ],
    )
    def test_json_report_bytes(self, capsys, command, dim, deg, field):
        code, out, err = run(
            capsys, "--format", "json", "talg", command, "--dim", str(dim), "--deg", str(deg), "--field", field
        )
        golden = GOLDEN / ("talg-%s-%d-%d-%s.json" % (command, dim, deg, field))
        assert (code, out.encode(), err) == (0, golden.read_bytes(), "")

    def test_guard_is_an_input_error(self, capsys):
        # T(V) fits under the guard, the double model on its primitives does not
        code, out, err = run(capsys, "talg", "verify", "--dim", "2", "--deg", "7", "--field", "7")
        assert (code, out, err) == (2, "", "error: truncated model needs 10923+ dimensions (guard 4096)\n")

    @pytest.mark.parametrize("dim, deg, message", [("-1", "2", "v_dim must be >= 0"), ("1", "0", "truncation degree must be >= 1")])
    def test_verify_bad_sizes_are_input_errors(self, capsys, dim, deg, message):
        code, out, err = run(capsys, "talg", "verify", "--dim", dim, "--deg", deg, "--field", "q")
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def modular(m):
    return {"kind": "modular", "params": {"n": m}}


class TestTensorKernelGuard:
    """k⁵·(largest modulus)⁴ < 2⁶² was once the bound of sepkit's int64
    tensor kernels, and the sep commands refused past it.  Every product
    now goes through `exact_einsum`, so they decide exactly on both sides
    of it."""

    @staticmethod
    def identity_doc(tmp_path, m):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"source": modular(m), "target": modular(m), "matrix": [[1]]}))
        return str(path)

    @staticmethod
    def diagonal_doc(tmp_path, m):
        target = {"kind": "product", "params": {"factors": [modular(m), modular(m)]}}
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"source": modular(m), "target": target, "matrix": [[1, 1]]}))
        return str(path)

    def test_bounds(self):
        # k = 1: 46340 is the largest m with m^4 < 2^62; k = 2: 19483 with 32·m^4 < 2^62
        assert 46340**4 < 2**62 <= 46341**4
        assert 2**5 * 19483**4 < 2**62 <= 2**5 * 19484**4

    def test_identity_at_the_bound(self, capsys, tmp_path):
        doc = self.identity_doc(tmp_path, 46340)
        code, out, _ = run(capsys, "--format", "json", "sep", "report", doc)
        report = json.loads(out)
        assert code == 0 and report["separable"] and report["ring_epimorphism"]
        assert report["h_separable"] is True
        assert [w["coords"] for w in report["h_witnesses"]] == [[1]]
        assert run(capsys, "sep", "epi", doc)[0] == 0
        code, out, _ = run(capsys, "--format", "json", "sep", "idempotents", "--h-only", doc)
        assert code == 0 and [w["coords"] for w in json.loads(out)["idempotents"]] == [[1]]

    def test_diagonal_at_the_bound(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "sep", "report", self.diagonal_doc(tmp_path, 19483))
        report = json.loads(out)
        assert code == 1
        assert report["separable"] is True and report["h_separable"] is False
        assert report["locus_particular"]["coords"] == [1, 0, 0, 1]

    @pytest.mark.parametrize("command", ["report", "epi", "idempotents"])
    @pytest.mark.parametrize("kind, m", [("identity", 46341), ("diagonal", 19484)])
    def test_past_the_bound_decides(self, capsys, tmp_path, command, kind, m):
        # the identity is epi, so heavy; the diagonal has central image and is not epi
        heavy = kind == "identity"
        doc = getattr(self, kind + "_doc")(tmp_path, m)
        argv = ["idempotents", "--h-only"] if command == "idempotents" else [command]
        code, out, err = run(capsys, "--format", "json", "sep", *argv, doc)
        report = json.loads(out)
        assert (code, err) == (0 if heavy else 1, "")
        if command == "report":
            assert report["separable"] is True
            assert report["h_separable"] is heavy and report["ring_epimorphism"] is heavy
            assert [w["coords"] for w in report["h_witnesses"]] == ([[1]] if heavy else [])
            assert report["notes"]["h_decided_by"] == ("ring-epimorphism" if heavy else "central-image-shortcut")
            assert report["retraction_count"] == (1 if heavy else 4)
        elif command == "epi":
            assert report["ring_epimorphism"] is heavy
        else:
            assert [w["coords"] for w in report["idempotents"]] == ([[1]] if heavy else [])

    @pytest.mark.parametrize("arity", [2, 3])
    def test_past_the_bound_at_each_arity(self, arity):
        for m in (46340, 46341):
            power = sepkit.tensor_power(identity_hom(zmod(m)), arity)
            kind = {2: sepkit.TensorPower, 3: sepkit.TripleTensorPower}[arity]
            assert type(power) is kind and power.group.moduli == (m,)


class TestCoprimeModuliGuard:
    """The old bound was on the exponent of S, the lcm of its basis moduli:
    Z/(ab) → Z/a × Z/b has S⊗S = Z/(ab) while the largest basis modulus
    is max(a, b).  Past it, these extensions are decided too."""

    @staticmethod
    def crt_doc(tmp_path, a, b):
        target = {"kind": "product", "params": {"factors": [modular(a), modular(b)]}}
        path = tmp_path / "crt.json"
        path.write_text(json.dumps({"source": modular(a * b), "target": target, "matrix": [[1, 1]]}))
        return str(path)

    def test_bounds(self):
        # k = 2: 19482 = 2·9741 is the largest coprime product with 32·m⁴ < 2⁶²
        # (19483 is prime); 4·4871 is the next, and max(4, 4871) passes
        assert 2**5 * 19482**4 < 2**62 <= 2**5 * (4 * 4871) ** 4
        assert math.gcd(2, 9741) == math.gcd(4, 4871) == 1
        assert 2**5 * 4871**4 < 2**62

    def test_at_the_bound(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "sep", "report", self.crt_doc(tmp_path, 2, 9741))
        report = json.loads(out)
        assert code == 0 and report["ring_epimorphism"] and report["h_separable"] is True
        assert report["locus_size"] == 1

    def test_past_the_bound_decides(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "sep", "report", self.crt_doc(tmp_path, 4, 4871))
        report = json.loads(out)
        assert code == 0 and report["ring_epimorphism"] and report["h_separable"] is True
        assert report["locus_size"] == 1

    def test_tensor_power_past_the_bound(self):
        hom = check_ring_hom(
            ((1, 1),),
            zmod(4 * 4871),
            construct_standard_ring("product", {"factors": [zmod(4), zmod(4871)]}).ring,
        )
        assert sepkit.tensor_power(hom, 2).group.moduli == (4 * 4871,)
        assert sepkit.is_ring_epimorphism(hom)


class TestHugeModuli:
    """Moduli past int64, or primes near it: the products go to Python
    ints, and the quadratic solver trial-divides nothing past the lcm of
    the kernel orders of the set it solves on, never the moduli."""

    P = 2**61 - 1

    @pytest.fixture(autouse=True)
    def no_trial_division(self, monkeypatch):
        factor = exactalg._prime_factors

        def below_the_orders(n):
            # every locus here is one point: the lcm of no kernel orders is 1
            if n > 1:
                raise AssertionError("trial division of %d" % n)
            return factor(n)

        monkeypatch.setattr(exactalg, "_prime_factors", below_the_orders)

    def test_identity_past_int64(self, capsys, tmp_path):
        doc = TestTensorKernelGuard.identity_doc(tmp_path, 2**70)
        code, out, err = run(capsys, "--format", "json", "sep", "report", doc)
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert report["ring_epimorphism"] and report["h_separable"] is True
        assert [w["coords"] for w in report["h_witnesses"]] == [[1]]

    def test_large_prime_diagonal(self, capsys, tmp_path):
        doc = TestTensorKernelGuard.diagonal_doc(tmp_path, self.P)
        code, out, err = run(capsys, "--format", "json", "sep", "report", doc)
        report = json.loads(out)
        assert (code, err) == (1, "")
        assert report["separable"] is True and report["h_separable"] is False
        assert report["notes"]["h_decided_by"] == "central-image-shortcut"
        # E(e_1) ranges over Z/p, past the default cap
        assert report["notes"]["retraction_space_over_cap"] == self.P
        assert report["retraction_count"] is None

    def test_triangular_over_a_large_prime_field(self):
        hom = construct_standard_ring("triangular", {"n": 3, "base": zmod(self.P)}).homs["into_matrix"]
        verdict = sepkit.h_separability_report(hom)
        assert verdict.is_ring_epi and verdict.is_h_separable is True
        assert verdict.h_witnesses == (sepkit.tensor_power(hom, 2).one_one,)


class TestCorpusRunner:
    def test_golden_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "corpus", "run", str(CORPUS))
        assert code == 0
        assert "10/10 cases match" in out

    def test_mismatch_detected(self, capsys, tmp_path):
        case = tmp_path / "cases" / "broken"
        case.mkdir(parents=True)
        shutil.copy(CORPUS / "z4_to_z2" / "hom.json", case / "hom.json")
        (case / "expect.json").write_text(json.dumps({
            "type": "sep_epi", "hom": "hom.json",
            "expect": {"ring_epimorphism": False},
        }))
        code, out, _ = run(capsys, "corpus", "run", str(tmp_path / "cases"))
        assert code == 1
        assert "MISMATCH" in out
        assert "expected False, got True" in out

    def test_raising_case_is_reported(self, capsys, tmp_path):
        shutil.copytree(CORPUS / "z4_to_z2", tmp_path / "cases" / "a_ok")
        case = tmp_path / "cases" / "b_broken"
        case.mkdir()
        (case / "expect.json").write_text(json.dumps({
            "type": "sep_epi", "hom": "no-such-hom.json",
            "expect": {"ring_epimorphism": True},
        }))
        cases = str(tmp_path / "cases")
        code, out, _ = run(capsys, "corpus", "run", cases)
        assert code == 1
        lines = out.splitlines()
        assert lines[0].split() == ["a_ok", "ok"]
        assert lines[1].split() == ["b_broken", "MISMATCH"]
        assert lines[2].startswith("    error: ") and "no-such-hom.json" in lines[2]
        assert lines[3:] == ["1/2 cases match"]
        code, out, _ = run(capsys, "--format", "json", "corpus", "run", cases)
        assert code == 1
        doc = json.loads(out)
        assert (doc["failures"], doc["total"]) == (1, 2)
        assert [c["ok"] for c in doc["cases"]] == [True, False]
        assert "no-such-hom.json" in doc["cases"][1]["mismatches"]["error"]

    def test_empty_dir_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", "run", str(tmp_path))
        assert code == 2
