"""The heavy stage of a ring epimorphism: its locus is exactly {1⊗1},
which is heavy in any ring, so `sepkit.h_idempotents` answers without
building S⊗_R S⊗_R S.

The answer is checked against the full quadratic solve on the heavy
forms and against the coring equation of `sepkit_util.is_h_idempotent`,
on every epimorphism of the corpus, the golden hom documents,
`build_corpus()` and T_n(Z/q) → M_n(Z/q) in three bases; the
constructions of S⊗_R S⊗_R S are counted through the CLI; and the two
epi cross-checks of `h_separability_report` are made to fire by a
corrupted locus, also under `python -O`.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build_corpus, hom_documents, zmod
from sepkit_util import is_h_idempotent
from solve_census import dense_basis_change, extension

from hsep import cli, sepkit
from hsep.exactalg import solve_quadratic
from hsep.finring import construct_standard_ring, hom_to_doc
from hsep.sepkit import (
    InternalCriterionMismatch,
    TensorPower,
    TripleTensorPower,
    h_idempotents,
    h_separability_report,
    is_ring_epimorphism,
)

ROOT = Path(__file__).resolve().parent.parent
HOMS, _ = build_corpus()


def permuted_basis_change(k, q, rng):
    """(P, P⁻¹) for a seeded permutation matrix P."""
    perm = list(range(k))
    rng.shuffle(perm)
    p = np.eye(k, dtype=np.int64)[perm]
    return p, p.T.copy()


def extensions():
    """name -> RingHom: the corpus documents, `build_corpus()`, and
    T_n(Z/q) → M_n(Z/q) for n ≤ 3 and q = 2..9 in the standard, a
    permuted and a dense basis."""
    cases = hom_documents()
    cases.update(("corpus:" + name, hom) for name, hom in HOMS.items())
    for n in (1, 2, 3):
        for q in range(2, 10):
            cases["T%d(Z/%d)" % (n, q)] = extension("T", n, q, 0)
            for seed, change in ((1, permuted_basis_change), (2, dense_basis_change)):
                cases["T%d(Z/%d) %s" % (n, q, change.__name__)] = extension("T", n, q, seed, change=change)
    return cases


CASES = extensions()


def full_solve(t2):
    """The heavy idempotents by the quadratic solve on every heavy form."""
    members = solve_quadratic(t2.locus, *sepkit._heavy_forms(t2))
    return tuple(sorted(tuple(int(x) for x in row) for row in members))


class TestShortcutOracle:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_shortcut_matches_the_full_solve(self, name):
        hom = CASES[name]
        t2 = TensorPower(hom)
        if t2.locus.is_empty:
            assert h_idempotents(t2) == ()
            return
        got = h_idempotents(t2)
        # the shortcut takes exactly the epimorphisms, and builds no S⊗S⊗S
        epi = is_ring_epimorphism(hom)
        assert ("triple" not in vars(t2)) == epi
        assert full_solve(t2) == got
        if epi:
            assert got == (t2.one_one,) and is_h_idempotent(t2, t2.one_one)
        else:
            assert not t2.is_separability_idempotent(t2.one_one)

    def test_the_cases_hold_epimorphisms(self):
        epis = {name for name, hom in CASES.items() if is_ring_epimorphism(hom)}
        assert any(name.startswith("doc:") for name in epis) and any(name.startswith("corpus:") for name in epis)
        assert {name for name in CASES if name.startswith("T")} <= epis


# -- the constructions of S⊗_R S⊗_R S, counted -----------------------------


def fresh_document(hom, path):
    """A document of `hom` whose target label no other test uses, so that
    `tensor_power`'s value-keyed cache misses."""
    doc = hom_to_doc(hom)
    doc["target"]["label"] += " [%s]" % path.stem
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def triples(monkeypatch):
    """The list of S⊗_R S⊗_R S constructed from now on."""
    built, original = [], TripleTensorPower.__init__

    def counted(self, square):
        built.append(square.hom)
        original(self, square)

    monkeypatch.setattr(TripleTensorPower, "__init__", counted)
    return built


def triangular(n, m):
    return construct_standard_ring("triangular", {"n": n, "base": zmod(m)}).homs["into_matrix"]


def matrix_scalar(n, m):
    return construct_standard_ring("matrix", {"n": n, "base": zmod(m)}).homs["scalar"]


class TestConstructionCount:
    EPIS = {"T2(Z/2)": triangular(2, 2), "T3(Z/4)": triangular(3, 4), "Z/8->Z/4": HOMS["z8_to_z4"]}
    NON_EPIS = {"M2(Z/2)/(Z/2)": matrix_scalar(2, 2), "f3_into_f9": HOMS["f3_into_f9"]}

    @pytest.mark.parametrize("command", [["report"], ["idempotents", "--h-only"]])
    @pytest.mark.parametrize("name", sorted(EPIS))
    def test_an_epi_builds_none(self, triples, tmp_path, name, command):
        doc = fresh_document(self.EPIS[name], tmp_path / "hom.json")
        code = cli.main(["--format", "json", "--output", str(tmp_path / "out.json"), "sep"] + command + [doc])
        assert code == cli.EXIT_HOLDS
        assert triples == []

    @pytest.mark.parametrize("name", sorted(NON_EPIS))
    def test_a_non_epi_within_the_cap_builds_one(self, triples, tmp_path, name):
        doc = fresh_document(self.NON_EPIS[name], tmp_path / "hom.json")
        code = cli.main(["--format", "json", "--output", str(tmp_path / "out.json"), "sep", "report", doc])
        report = json.loads((tmp_path / "out.json").read_text())
        assert code == cli.EXIT_FAILS and report["notes"]["enumeration_ran"]
        assert len(triples) == 1


# -- the epi cross-checks, made to fire --------------------------------------


TRUE_LOCUS = TensorPower.locus.func


def corrupt_locus(change):
    """A `TensorPower.locus` that passes the true locus through `change`;
    the corrupted set carries no system, so it does not check itself."""
    return property(lambda self: change(self, dataclasses.replace(TRUE_LOCUS(self), system=None)))


def two_points(t2, locus):
    """{1⊗1, 1⊗1 + x_0}: x_0 has order 2 over Z/2."""
    gen = (1,) + (0,) * (t2.group.rank - 1)
    return dataclasses.replace(locus, kernel_generators=(gen,), kernel_orders=(2,))


def another_point(t2, locus):
    """{1⊗1 + x_0}, one point other than 1⊗1."""
    moved = ((locus.particular[0] + 1) % t2.group.moduli[0],) + locus.particular[1:]
    return dataclasses.replace(locus, particular=moved)


class TestEpiCrossChecks:
    HOM = triangular(2, 2)

    def test_the_true_locus_is_one_one(self):
        t2 = TensorPower(self.HOM)
        assert is_ring_epimorphism(self.HOM) and t2.group.moduli[0] == 2
        assert t2.locus.size == 1 and t2.locus.particular == t2.one_one

    @pytest.mark.parametrize(
        "change, message",
        [(two_points, "ring epi with locus size 2"), (another_point, "epi shortcut disagrees with enumeration")],
    )
    def test_a_corrupted_locus_is_caught(self, monkeypatch, change, message):
        monkeypatch.setattr(TensorPower, "locus", corrupt_locus(change))
        with pytest.raises(InternalCriterionMismatch, match=message):
            h_separability_report(self.HOM)

    def test_checks_fire_under_optimize(self):
        script = (
            "import sys\n"
            "from hsep.sepkit import TensorPower, h_separability_report\n"
            "from test_epi_shortcut import TestEpiCrossChecks, another_point, corrupt_locus, two_points\n"
            "for change in (two_points, another_point):\n"
            "    TensorPower.locus = corrupt_locus(change)\n"
            "    try:\n"
            "        h_separability_report(TestEpiCrossChecks.HOM)\n"
            "    except Exception as err:\n"
            "        print('optimize=%d raised %s: %s' % (sys.flags.optimize, type(err).__name__, err))\n"
        )
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "optimize=1 raised InternalCriterionMismatch: ring epi with locus size 2",
            "optimize=1 raised InternalCriterionMismatch: epi shortcut disagrees with enumeration",
        ]
