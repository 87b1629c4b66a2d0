"""The separability locus is checked once, on its particular solution and
generators; here every enumerated member is re-checked independently,
and corrupted loci must fail that construction check."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build_corpus, zmod
from sepkit_util import verify_member

from hsep import exactalg
from hsep.exactalg import ConstructionCheckFailed, solve_modular_system
from hsep.finring import construct_standard_ring, hom_from_doc
from hsep.sepkit import separability_locus, tensor_power

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
HOMS, _ = build_corpus()


def golden_homs():
    return {
        path.parent.name: hom_from_doc(json.loads(path.read_text()), path.parent)
        for path in sorted(CORPUS.glob("*/hom.json"))
    }


def matrix_scalar(n, m):
    return construct_standard_ring("matrix", {"n": n, "base": zmod(m)}).homs["scalar"]


CASES = dict(HOMS)
CASES.update({"corpus/" + name: hom for name, hom in golden_homs().items()})
CASES.update({"M2(Z/%d)" % m: matrix_scalar(2, m) for m in range(2, 7)})
CASES["M3(Z/2)"] = matrix_scalar(3, 2)


def substitution_failures(t2, members):
    """Oracle: rows of `members` with mult != 1 or not central, by substitution."""
    s = t2.hom.target
    smod = np.array(s.moduli, dtype=np.int64)
    unit = np.array(s.unit, dtype=np.int64) % smod
    diff, dmods = t2.action_difference
    prods = (members @ t2.np_mult.T) % smod[None, :]
    central = ~((members @ diff.T) % dmods[None, :]).any(axis=1)
    return np.flatnonzero(~((prods == unit[None, :]).all(axis=1) & central))


def resolve(locus):
    """Solve the locus's defining system again, outside the tensor-power cache."""
    a, b, mods = locus.system
    return solve_modular_system(a, b, mods, unknown_moduli=locus.coordinate_moduli)


def failing_column(locus):
    """A coordinate j whose unit vector the homogeneous system rejects."""
    a, _, mods = locus.system
    return next(j for j in range(len(locus.coordinate_moduli)) if any(row[j] % m for row, m in zip(a.tolist(), mods)))


class TestEveryMemberOracle:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_member_is_a_separability_idempotent(self, name):
        t2 = tensor_power(CASES[name], 2)
        members = t2.locus.member_array()
        assert members.shape[0] == t2.locus.size
        assert substitution_failures(t2, members).size == 0
        for row in members[:64]:
            assert verify_member(t2.locus, tuple(int(x) for x in row))

    def test_oracle_rejects_non_members(self):
        t2 = tensor_power(CASES["M2(Z/2)"], 2)
        zero = np.zeros((1, t2.group.rank), dtype=np.int64)
        assert substitution_failures(t2, zero).tolist() == [0]


class TestFaultInjection:
    LOCUS = separability_locus(CASES["M2(Z/3)"])
    # a locus over a modulus that is not a prime power
    COMPOSITE = separability_locus(CASES["M2(Z/6)"])

    def test_corrupted_generator_by_replace(self):
        gens = (self.LOCUS.particular,) + self.LOCUS.kernel_generators[1:]
        with pytest.raises(ConstructionCheckFailed, match="kernel generator 0"):
            dataclasses.replace(self.LOCUS, kernel_generators=gens)

    def test_corrupted_particular_by_replace(self):
        zero = (0,) * len(self.LOCUS.particular)
        with pytest.raises(ConstructionCheckFailed, match="particular solution"):
            dataclasses.replace(self.LOCUS, particular=zero)

    @staticmethod
    def corrupt_back_substitution(monkeypatch, which):
        """The solver's back-substitution returns its particular, or its
        last kernel vector, plus 1 at a coordinate the system reads."""
        original = exactalg._back_substitute
        j = failing_column(TestFaultInjection.COMPOSITE)

        def corrupt(H, pivots, n, q):
            x, gens = original(H, pivots, n, q)
            x, gens = x.copy(), gens.copy()
            if which == "particular":
                x[j] = (x[j] + 1) % q
            else:
                gens[-1, j] = (gens[-1, j] + 1) % q
            return x, gens

        monkeypatch.setattr(exactalg, "_back_substitute", corrupt)

    def test_corrupted_generator_in_the_solver(self, monkeypatch):
        assert resolve(self.COMPOSITE) == self.COMPOSITE
        self.corrupt_back_substitution(monkeypatch, "generator")
        last = len(self.COMPOSITE.kernel_generators) - 1
        with pytest.raises(ConstructionCheckFailed, match="kernel generator %d" % last):
            resolve(self.COMPOSITE)

    def test_corrupted_particular_in_the_solver(self, monkeypatch):
        self.corrupt_back_substitution(monkeypatch, "particular")
        with pytest.raises(ConstructionCheckFailed, match="particular solution"):
            resolve(self.COMPOSITE)

    def test_not_an_assertion(self):
        assert not issubclass(ConstructionCheckFailed, AssertionError)

    def test_products_beyond_int64(self):
        # entries and moduli fit int64, but A·p does not: (−1)·(−1) mod 2^61 − 1
        m = 2**61 - 1
        sol = solve_modular_system(np.array([[m - 1]]), [1], [m])
        assert sol.particular == (m - 1,) and sol.size == 1

    def test_moduli_beyond_int64(self):
        big = 2**70
        a = np.array([[3, 0], [0, 2**65]], dtype=object)
        sol = solve_modular_system(a, [6, 2**66], [big, big])
        assert verify_member(sol, sol.particular)
        with pytest.raises(ConstructionCheckFailed, match="particular solution"):
            dataclasses.replace(sol, particular=(0, 0))

    def test_gate_fires_under_optimize(self):
        script = (
            "import dataclasses, sys\n"
            "from corpus_util import zmod\n"
            "from hsep.exactalg import ConstructionCheckFailed\n"
            "from hsep.finring import construct_standard_ring\n"
            "from hsep.sepkit import separability_locus\n"
            "hom = construct_standard_ring('matrix', {'n': 2, 'base': zmod(3)}).homs['scalar']\n"
            "locus = separability_locus(hom)\n"
            "gens = (locus.particular,) + locus.kernel_generators[1:]\n"
            "try:\n"
            "    dataclasses.replace(locus, kernel_generators=gens)\n"
            "except ConstructionCheckFailed as err:\n"
            "    print('optimize=%d raised: %s' % (sys.flags.optimize, err))\n"
            "import pytest\n"
            "from test_locus_check import TestFaultInjection, resolve\n"
            "for which in ('particular', 'generator'):\n"
            "    with pytest.MonkeyPatch.context() as patch:\n"
            "        TestFaultInjection.corrupt_back_substitution(patch, which)\n"
            "        try:\n"
            "            resolve(TestFaultInjection.COMPOSITE)\n"
            "        except ConstructionCheckFailed as err:\n"
            "            print('optimize=%d raised: %s' % (sys.flags.optimize, err))\n"
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
        last = len(self.COMPOSITE.kernel_generators) - 1
        assert out.stdout.splitlines() == [
            "optimize=1 raised: kernel generator 0 fails the defining system",
            "optimize=1 raised: the particular solution fails the defining system",
            "optimize=1 raised: kernel generator %d fails the defining system" % last,
        ]
