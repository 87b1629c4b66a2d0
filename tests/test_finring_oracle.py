"""Tensor products, quotients and structure-tensor products against
the pure-Python oracles.

`finring` builds A⊗_R B and S/I on the balance relations sepkit uses and
on one contraction through the presentation, and checks homs by
contracting with the structure tensor; `finring_util` does each with
per-coordinate loops.  The ring document and every canonical hom matrix
must agree, and so must the first failing check of a hom.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finring_util import (
    SEEDED_MODULI,
    big_basis_cases,
    big_basis_ring,
    dense_balance_relations,
    mul,
    oracle,
    oracle_bilinearity_failure,
    oracle_hom_failure,
    oracle_is_image_central,
    seeded_cases,
    standard,
)
from corpus_util import build_corpus

from hsep import finring, sepkit
from hsep.exactalg import exact_einsum
from hsep.finring import (
    BilinearityIncompatible,
    NotAdditiveWellDefined,
    NotMultiplicative,
    NotUnital,
    check_ring_hom,
    construct_ring,
    construct_standard_ring,
    identity_hom,
    standard_params_from_doc,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CASES = json.loads((ROOT / "tests" / "golden" / "ring-standard" / "cases.json").read_text())


def golden_cases(name):
    """The golden case itself when it is a tensor product or a quotient;
    otherwise its ring modulo a seeded element and, when the ring has a
    scalar hom, the tensor square of that hom."""
    kind, params = GOLDEN_CASES[name]
    params = standard_params_from_doc(params)
    if kind == "tensor_product":
        return [(kind, tuple(params["homs"]))]
    if kind == "quotient":
        return [(kind, (params["base"], params["ideal"]))]
    std = construct_standard_ring(kind, params)
    rng = random.Random(name)
    cases = [("quotient", (std.ring, [tuple(rng.randrange(m) for m in std.ring.moduli)]))]
    if "scalar" in std.homs:
        cases.append(("tensor_product", (std.homs["scalar"],) * 2))
    return cases


def test_cases_cover_both_constructions():
    kinds = [kind for name in GOLDEN_CASES for kind, _ in golden_cases(name)]
    assert len(GOLDEN_CASES) == 15
    assert kinds.count("tensor_product") == 8 and kinds.count("quotient") == 11


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_case(name):
    for kind, args in golden_cases(name):
        assert standard(kind, args) == oracle(kind, args), kind


@pytest.mark.parametrize("n", SEEDED_MODULI)
def test_seeded_over_zn(n):
    cases = seeded_cases(n)
    assert len(cases) == 22
    for kind, args in cases:
        assert standard(kind, args) == oracle(kind, args), (kind, args)


def test_big_basis_ring_past_int64():
    ring = big_basis_ring()
    assert min(ring.unit) >= 2**60
    for kind, args in big_basis_cases():
        ours, theirs = standard(kind, args), oracle(kind, args)
        assert ours == theirs, kind
    # R ⊗_{Z/N} R is free of rank 4, R ⊗_R R is R, and R/3R is F3[x]/(x²)
    ranks = [len(standard(kind, args)[0]["moduli"]) for kind, args in big_basis_cases()]
    assert ranks == [4, 2, 2, 0, 2]


def seeded_homs(n):
    """The homs of the seeded tensor products over Z/n, and two whose
    image is not central: T2(Z/n) → M2(Z/n) and Z/n × Z/n → M2(Z/n)."""
    homs = {id(h): h for kind, args in seeded_cases(n) if kind == "tensor_product" for h in args}
    zn = construct_standard_ring("modular", {"n": n}).ring
    tri = construct_standard_ring("triangular", {"n": 2, "base": zn})
    square = construct_standard_ring("product", {"homs": [identity_hom(zn)] * 2}).ring
    diagonal = check_ring_hom([[1, 0, 0, 0], [0, 0, 0, 1]], square, tri.homs["into_matrix"].target)
    return list(homs.values()) + [tri.homs["into_matrix"], diagonal]


def hom_failure(matrix, source, target):
    try:
        check_ring_hom(matrix, source, target)
    except (NotAdditiveWellDefined, NotMultiplicative, NotUnital) as err:
        return type(err), getattr(err, "index", getattr(err, "pair", None))
    return None


def test_hom_checks_against_loops():
    """One corrupted entry at a time, and a random matrix the other way:
    check_ring_hom names the oracle's first failure, the image is central
    exactly when the loops say so, and products agree."""
    rng = random.Random(2024)
    seen = set()
    for n in SEEDED_MODULI:
        for hom in seeded_homs(n):
            source, target = hom.source, hom.target
            assert hom.is_image_central() == oracle_is_image_central(hom)
            seen.add(hom.is_image_central())
            for _ in range(6):
                matrix = [list(col) for col in hom.matrix]
                matrix[rng.randrange(source.k)][rng.randrange(target.k)] = rng.randrange(-n, 2 * n)
                found = hom_failure(matrix, source, target)
                assert found == oracle_hom_failure(matrix, source, target), (hom, matrix)
                seen.add(found and found[0])
            # a random matrix back from the target, which its orders may not kill
            matrix = [[rng.randrange(m) for m in source.moduli] for _ in range(target.k)]
            found = hom_failure(matrix, target, source)
            assert found == oracle_hom_failure(matrix, target, source), (hom, matrix)
            seen.add(found and found[0])
            for _ in range(3):
                x, y = (tuple(rng.randrange(m) for m in target.moduli) for _ in range(2))
                xy = exact_einsum("i,j,ijl->l", np.array(x, dtype=object), np.array(y, dtype=object), target.np_mul)
                assert target.reduce(xy.tolist()) == mul(target, x, y)
    assert seen == {True, False, None, NotAdditiveWellDefined, NotMultiplicative, NotUnital}


def test_bilinearity_witness_against_loops():
    """Random tables over mixed moduli: construct_ring names the oracle's
    first incompatible pair, or passes the bilinearity check."""
    rng = random.Random(7)
    failed = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        moduli = [rng.choice((2, 3, 4, 6, 12)) for _ in range(k)]
        # mostly products that the orders kill, so the first failure moves
        table = [
            [[rng.randrange(m) * (1 if rng.random() < 0.15 else m // math.gcd(m, mi, mj)) for m in moduli]
             for mj in moduli]
            for mi in moduli
        ]
        expected = oracle_bilinearity_failure(moduli, table)
        try:
            construct_ring(moduli, table, [1] + [0] * (k - 1))
        except BilinearityIncompatible as err:
            assert err.pair == expected
            failed += 1
        except ValueError:
            assert expected is None
        else:
            assert expected is None
    assert 20 <= failed <= 180


def test_under_optimize():
    script = (
        "import sys\n"
        "from finring_util import big_basis_cases, oracle, seeded_cases, standard\n"
        "cases = big_basis_cases() + seeded_cases(12)\n"
        "bad = [kind for kind, args in cases if standard(kind, args) != oracle(kind, args)]\n"
        "print('optimize=%d cases=%d mismatches=%d' % (sys.flags.optimize, len(cases), len(bad)))\n"
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
    assert out.stdout.strip() == "optimize=1 cases=27 mismatches=0"


def balance_homs():
    homs = dict(build_corpus()[0])
    for n in (4, 6):
        homs.update(("seeded over Z/%d #%d" % (n, i), h) for i, h in enumerate(seeded_homs(n)))
    ring = big_basis_ring()
    homs["big basis identity"] = identity_hom(ring)
    return homs


BALANCE_HOMS = balance_homs()


@pytest.mark.parametrize("name", sorted(BALANCE_HOMS))
def test_balance_relations_against_dense(monkeypatch, name):
    # S⊗S and S⊗S⊗S each build their relations once
    calls = []

    def record(right, left):
        calls.append((right, left, finring.balance_relations(right, left)))
        return calls[-1][2]

    monkeypatch.setattr(sepkit, "_balance_relations", record)
    sepkit.TensorPower(BALANCE_HOMS[name]).triple
    assert len(calls) == 2
    for right, left, ours in calls:
        dense = dense_balance_relations(right, left)
        assert (ours.shape, ours.dtype) == (dense.shape, dense.dtype)
        assert ours.tolist() == dense.tolist()


@pytest.mark.parametrize("scale", [1, 2**61, 2**70])
def test_balance_relations_on_random_actions(scale):
    # mostly diagonal actions, so that many columns vanish, with entries
    # past int64 at the largest scale
    rng = random.Random(scale % 1000)
    for _ in range(30):
        kr, n, k = rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 4)

        def action(size):
            a = [[[rng.choice([0, 1, -1, 2]) * scale if i == j or rng.random() < 0.15 else 0 for j in range(size)]
                  for i in range(size)] for _ in range(kr)]
            return np.array(a, dtype=np.int64 if scale < 2**62 else object).reshape(kr, size, size)

        right, left = action(n), action(k)
        ours, dense = finring.balance_relations(right, left), dense_balance_relations(right, left)
        assert (ours.shape, ours.dtype) == (dense.shape, dense.dtype)
        assert ours.tolist() == dense.tolist()
