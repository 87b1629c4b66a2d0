"""The construction gates of S⊗_R S and S⊗_R S⊗_R S, and the verdict
invariants, raise named errors (never `assert`, which `python -O` strips).
Each gate is made to fire by corrupting one input of the construction."""

import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build_corpus, zmod
from sepkit_util import beta, sweedler_delta, triple_pure, verify_coring_laws

from hsep import sepkit
from hsep.exactalg import ConstructionCheckFailed
from hsep.finring import check_ring_hom, construct_ring, construct_standard_ring
from hsep.sepkit import (
    InternalCriterionMismatch,
    TensorPower,
    TripleTensorPower,
    h_separability_report,
    tensor_power,
)

ROOT = Path(__file__).resolve().parent.parent
HOMS, _ = build_corpus()


def triangular(n, m):
    return construct_standard_ring("triangular", {"base": zmod(m), "n": n}).homs["into_matrix"]


def corrupt_right_action(monkeypatch, entry):
    """Make TensorPower.action_matrices return a right action whose
    (s, j, i) entry is off by one."""
    original = TensorPower.action_matrices.func

    def corrupted(self):
        left, right = original(self)
        right = right.copy()
        s, j, i = entry
        right[s, j, i] = (right[s, j, i] + 1) % self.np_moduli[j]
        return left, right

    monkeypatch.setattr(TensorPower, "action_matrices", property(corrupted))


def corrupt_cokernel(monkeypatch, change):
    """Pass every cokernel sepkit computes from now on through `change`."""
    original = sepkit.cokernel
    monkeypatch.setattr(sepkit, "cokernel", lambda rel, mods: change(original(rel, mods)))


class TestTripleGates:
    def test_right_action_off_by_one(self, monkeypatch):
        # x_0·e_0 gains x_0: the relations built from it are not balance
        # relations, and S⊗S⊗S would come out too small
        t2 = TensorPower(triangular(2, 3))
        corrupt_right_action(monkeypatch, (0, 0, 0))
        with pytest.raises(ConstructionCheckFailed, match="right action disagrees"):
            TripleTensorPower(t2)

    def test_missing_relation(self, monkeypatch):
        # drop the relations of S⊗S⊗S: its group comes out too large
        original = sepkit._balance_relations
        hom = triangular(2, 3)
        t2 = TensorPower(hom)
        assert original(*sepkit._phi_actions(hom)).shape[1]
        monkeypatch.setattr(
            sepkit, "_balance_relations", lambda right, left: original(right, left)[:, :0]
        )
        with pytest.raises(ConstructionCheckFailed, match="does not kill a balance relation of S⊗S⊗S"):
            TripleTensorPower(t2)

    def test_projection_row_scaled(self, monkeypatch):
        # 2·(row 0) of P_new has the same kernel, so every relation is still
        # killed, but P·L is no longer the identity
        def scale(group):
            p = group.P.copy()
            p[0] *= 2
            return dataclasses.replace(group, P=p)

        t2 = TensorPower(triangular(2, 3))
        corrupt_cokernel(monkeypatch, scale)
        with pytest.raises(ConstructionCheckFailed, match="projection after lift is not the identity"):
            TripleTensorPower(t2)

    def test_projection_row_shifted(self, monkeypatch):
        # P_new's first row also reads the last generator, which a balance
        # relation of S⊗S⊗S involves
        def shift(group):
            p = group.P.copy()
            p[0, -1] += 1
            return dataclasses.replace(group, P=p)

        t2 = TensorPower(triangular(2, 2))
        corrupt_cokernel(monkeypatch, shift)
        with pytest.raises(ConstructionCheckFailed, match="does not kill a balance relation of S⊗S⊗S"):
            TripleTensorPower(t2)

    def test_relations_killed_in_one_slot_pair_only(self):
        # P(a⊗b⊗c) = e_a⊗P₂(b⊗c) kills every relation e_d⊗ρ of slots (1,2)
        # but not ρ⊗e_d, of slots (0,1)
        t2 = TensorPower(triangular(2, 2))
        k, n = t2.k, t2.group.rank
        fake = types.SimpleNamespace(
            k=k,
            hom=t2.hom,
            group=types.SimpleNamespace(rank=k * n),
            np_project=np.kron(np.eye(k, dtype=np.int64), t2.np_project),
            np_moduli=np.tile(t2.np_moduli, k),
        )
        with pytest.raises(ConstructionCheckFailed, match="does not kill a balance relation of S⊗S⊗S"):
            TripleTensorPower._verify_presentation(fake, t2, t2.action_matrices[1])
        fake.np_project = np.kron(t2.np_project, np.eye(k, dtype=np.int64))
        fake.np_moduli = np.repeat(t2.np_moduli, k)
        with pytest.raises(ConstructionCheckFailed, match="does not kill a balance relation of S⊗S⊗S"):
            TripleTensorPower._verify_presentation(fake, t2, t2.action_matrices[1])

    def test_beta_not_balanced(self):
        # the identity on the k³ pure tensors kills no balance relation, so
        # β(δ, y) survives for a relation δ of S⊗S; β(δ, e_c⊗e_d) is
        # (δ·e_c)⊗e_d, a combination of the slot-(0,1) relations, and the
        # slot-pair gate refuses the projection
        t2 = TensorPower(triangular(2, 2))
        gens = t2.k**3
        fake = types.SimpleNamespace(
            k=t2.k,
            hom=t2.hom,
            np_project=np.eye(gens, dtype=np.int64),
            np_moduli=np.full(gens, 2, dtype=np.int64),
            group=types.SimpleNamespace(rank=gens),
        )
        with pytest.raises(ConstructionCheckFailed, match="does not kill a balance relation of S⊗S⊗S"):
            TripleTensorPower._verify_presentation(fake, t2, t2.action_matrices[1])

    def test_right_action_off_by_one_under_an_identity_presentation(self, monkeypatch):
        # M2(Z/2)/(Z/2): S⊗S has no relations, so P₂ = I and the action is
        # compared with the product as it is
        hom = construct_standard_ring("matrix", {"n": 2, "base": zmod(2)}).homs["scalar"]
        t2 = TensorPower(hom)
        assert t2.group.is_identity
        corrupt_right_action(monkeypatch, (1, 2, 3))
        with pytest.raises(ConstructionCheckFailed, match="right action disagrees"):
            TripleTensorPower(t2)

    def test_identity_presentation_multiplies_nothing_by_it(self, monkeypatch):
        # with P₂ = I, neither actions·P₂ nor P₂·L₂ is computed
        hom = construct_standard_ring("matrix", {"n": 3, "base": zmod(2)}).homs["scalar"]
        t2 = TensorPower(hom)
        assert t2.group.is_identity
        products, original = [], sepkit.exact_einsum
        monkeypatch.setattr(sepkit, "exact_einsum", lambda spec, *arrays: products.append(spec) or original(spec, *arrays))
        TripleTensorPower(t2)
        assert not {"sij,jg->sig", "jac,bsc->sjab", "ig,gj->ij"} & set(products)
        products.clear()
        TripleTensorPower(TensorPower(triangular(2, 3)))
        assert {"sij,jg->sig", "jac,bsc->sjab"} <= set(products)

    def test_gate_fires_under_optimize(self):
        script = (
            "import sys\n"
            "from corpus_util import zmod\n"
            "from hsep.finring import construct_standard_ring\n"
            "from hsep.sepkit import TensorPower, TripleTensorPower\n"
            "for kind, name, m in (('triangular', 'into_matrix', 3), ('matrix', 'scalar', 2)):\n"
            "    # S⊗S of M2(Z/2)/(Z/2) has the identity presentation, that of T2 → M2 not\n"
            "    hom = construct_standard_ring(kind, {'base': zmod(m), 'n': 2}).homs[name]\n"
            "    t2 = TensorPower(hom)\n"
            "    right = t2.action_matrices[1]\n"
            "    right[0, 0, 0] = (right[0, 0, 0] + 1) % m\n"
            "    try:\n"
            "        TripleTensorPower(t2)\n"
            "    except Exception as err:\n"
            "        print('optimize=%d identity=%s raised %s: %s' % (sys.flags.optimize, t2.group.is_identity, type(err).__name__, err))\n"
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
            "optimize=1 identity=%s raised ConstructionCheckFailed: "
            "right action disagrees with the product on pure tensors" % identity
            for identity in (False, True)
        ]


class TestSquareGates:
    def test_projection_misses_a_relation(self, monkeypatch):
        # the cokernel of S⊗S without its relations: too large a group
        original = sepkit.cokernel
        monkeypatch.setattr(sepkit, "cokernel", lambda rel, mods: original(rel[:, :0], mods))
        with pytest.raises(ConstructionCheckFailed, match="projection does not kill a balance relation"):
            TensorPower(triangular(2, 2))

    def test_multiplication_disagrees(self, monkeypatch):
        # a lift off by one generator: projection still kills every
        # relation, but multiplication through the lift is wrong
        def shift(group):
            l = group.L.copy()
            l[0] += 1
            return dataclasses.replace(group, L=l)

        corrupt_cokernel(monkeypatch, shift)
        with pytest.raises(ConstructionCheckFailed, match="mult disagrees"):
            TensorPower(triangular(2, 3))


class TestDegenerateShapes:
    """S⊗S⊗S on the shapes where a dimension is 0."""

    ZERO = construct_ring((), (), (), "0")

    CASES = {
        # k = 0: the zero ring has no basis
        "k=0": (((),), zmod(2), ZERO),
        # rank₂ = 0 with k = 1: Z/1 has one basis element, of order 1
        "rank2=0": (((0,),), zmod(2), zmod(1)),
        # the source has no basis
        "no source basis": ((), ZERO, zmod(1)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_trivial_triple(self, name):
        hom = check_ring_hom(*self.CASES[name])
        t2 = TensorPower(hom)
        t3 = t2.triple
        k = hom.target.k
        assert (t2.k, t2.group.rank) == (k, 0)
        assert t3.group.order == 1
        assert t3.np_project.shape == (0, k**3) and t3.np_lift.shape == (k**3, 0)
        assert triple_pure(t3, *[hom.target.unit] * 3) == ()
        assert sweedler_delta(t2, ()) == () and beta(t2, (), ()) == ()
        assert verify_coring_laws(t2)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report(self, name):
        verdict = h_separability_report(check_ring_hom(*self.CASES[name]))
        assert verdict.is_ring_epi and verdict.is_h_separable is True
        assert verdict.h_witnesses == ((),)


class TestArityPreconditions:
    T3 = tensor_power(HOMS["t2_into_m2"], 3)

    def test_triple_is_the_square_triple(self):
        assert self.T3 is tensor_power(HOMS["t2_into_m2"], 2).triple
        assert not isinstance(self.T3, TensorPower)

    def test_arity(self):
        with pytest.raises(ValueError, match="arity must be 2 or 3"):
            tensor_power(HOMS["t2_into_m2"], 4)


class TestVerdictInvariants:
    VERDICT = h_separability_report(HOMS["f2_into_m2"])

    def test_holds(self):
        assert self.VERDICT.check_invariants()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"is_separable": False, "is_h_separable": True}, "h-separable but not separable"),
            ({"is_ring_epi": True}, "ring epimorphism but not h-separable"),
            ({"is_h_separable": True}, "central image"),
        ],
    )
    def test_violations(self, change, message):
        bad = dataclasses.replace(self.VERDICT, **change)
        with pytest.raises(InternalCriterionMismatch, match=message):
            bad.check_invariants()
