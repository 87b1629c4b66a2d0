"""The prime-field path of `solve_modular_system` and `subgroup_basis`,
against the Smith path.

Patching `exactalg._prime_power` to return None
(`solve_census.smith_path`) sends a prime system down the Smith path.
The two paths must give the same particular solution, the same kernel
orders and the same members: equal particulars and equal kernel spans,
which the Smith path's `subgroup_basis` compares without a row
reduction.  Tiny systems are also solved by brute force.  A corrupt row
reduction must raise, also under -O, over 𝔽_p and over Z/pᵉ.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build_corpus, zmod
from solve_census import report_systems, smith_path

from hsep import exactalg
from hsep.exactalg import ConstructionCheckFailed, solve_modular_system, subgroup_basis
from hsep.finring import construct_standard_ring, hom_from_doc

ROOT = Path(__file__).resolve().parent.parent
SMALL_PRIMES = (2, 3, 5, 7, 11)
BIG_PRIME = 3037000493  # the largest prime with (p − 1)² + (p − 1) < 2⁶³
PRIMES = SMALL_PRIMES + (BIG_PRIME,)


def smith_orders(vectors, p, n):
    """The orders of the span of `vectors` in (Z/p)^n, by the Smith path."""
    with smith_path():
        return subgroup_basis(np.array(vectors, dtype=object).reshape(len(vectors), n), (p,) * n)[1]


def brute_members(a, b, p):
    n_x = a.shape[1]
    return sorted(
        x for x in itertools.product(range(p), repeat=n_x) if not ((a.astype(object) @ x - b) % p).any()
    )


def assert_same_solutions(a, b, p, unknown=None):
    """Both paths on A x ≡ b (mod p); returns the prime path's set."""
    n_eq, n_x = a.shape
    fast = solve_modular_system(a, b, (p,) * n_eq, unknown)
    with smith_path():
        slow = solve_modular_system(a, b, (p,) * n_eq, unknown)
    assert fast.coordinate_moduli == slow.coordinate_moduli == (p,) * n_x
    assert fast.particular == slow.particular
    assert fast.kernel_orders == slow.kernel_orders
    assert all(o == p for o in fast.kernel_orders)
    if not fast.is_empty and fast.kernel_orders:
        union = smith_orders(fast.kernel_generators + slow.kernel_generators, p, n_x)
        assert union == fast.kernel_orders
    if p**n_x <= 3000:
        expect = brute_members(a, np.array(b, dtype=object), p)
        assert fast.members() == slow.members() == expect
    return fast


def random_system(rng, p, consistent):
    n_eq, n_x = rng.randint(1, 40), rng.randint(1, 30)
    if rng.random() < 0.5:  # low rank, with many redundant rows
        inner = rng.randint(1, min(n_eq, n_x))
        left = np.array([[rng.randrange(p) for _ in range(inner)] for _ in range(n_eq)], dtype=object)
        right = np.array([[rng.randrange(p) for _ in range(n_x)] for _ in range(inner)], dtype=object)
        a = (left.dot(right) % p).reshape(n_eq, n_x)
    else:
        density = rng.random()
        a = np.array([[rng.randrange(p) if rng.random() < density else 0 for _ in range(n_x)] for _ in range(n_eq)], dtype=object).reshape(n_eq, n_x)
    if rng.random() < 0.5:
        a = a.astype(np.int64) - p * (rng.random() < 0.5)  # negative entries read mod p
    if consistent:
        x0 = np.array([rng.randrange(p) for _ in range(n_x)], dtype=object)
        b = (a.astype(object).dot(x0) % p).tolist()
    else:
        b = [rng.randrange(p) for _ in range(n_eq)]
    return a, b


class TestRandomSystems:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("consistent", [True, False])
    def test_prime_path_matches_smith_path(self, p, consistent):
        rng = random.Random(p * 2 + consistent)
        empty = 0
        for t in range(24):
            a, b = random_system(rng, p, consistent)
            sol = assert_same_solutions(a, b, p, (p,) * a.shape[1] if t % 2 else None)
            empty += sol.is_empty
        assert empty == 0 if consistent else empty > 0

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_tiny_systems_by_brute_force(self, p):
        rng = random.Random(300 + p)
        for _ in range(40):
            n_eq, n_x = rng.randint(1, 4), rng.randint(1, 3)
            a = np.array([[rng.randint(-p, 2 * p) for _ in range(n_x)] for _ in range(n_eq)]).reshape(n_eq, n_x)
            b = [rng.randint(-p, 2 * p) for _ in range(n_eq)]
            assert_same_solutions(a, b, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_subgroup_basis(self, p):
        rng = random.Random(400 + p)
        for _ in range(12):
            n = rng.randint(1, 8)
            vecs = [[rng.randrange(-p, 2 * p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(rng.randint(0, 10))]
            array = np.array(vecs, dtype=object).reshape(len(vecs), n)
            gens, orders = subgroup_basis(array, (p,) * n)
            assert orders == smith_orders(vecs, p, n)
            assert all(0 <= x < p for g in gens for x in g)
            if orders:
                assert smith_orders(list(gens) + vecs, p, n) == orders


def golden_homs():
    return {
        path.parent.name: hom_from_doc(json.loads(path.read_text()), path.parent)
        for path in sorted((ROOT / "corpus").glob("*/hom.json"))
    }


def standard_homs():
    homs = {}
    for n, primes in ((2, (2, 3, 5, 7)), (3, (2, 3))):
        for p in primes:
            base = zmod(p)
            homs["M%d(Z/%d)" % (n, p)] = construct_standard_ring("matrix", {"n": n, "base": base}).homs["scalar"]
            tri = construct_standard_ring("triangular", {"n": n, "base": base}).homs
            homs["T%d(Z/%d)" % (n, p)] = tri["scalar"]
            homs["T%d -> M%d (Z/%d)" % (n, n, p)] = tri["into_matrix"]
    return homs


HOMS = dict(build_corpus()[0])
HOMS.update({"corpus/" + name: hom for name, hom in golden_homs().items()})
HOMS.update(standard_homs())


class TestVerdictSystems:
    @pytest.mark.parametrize("name", sorted(HOMS))
    def test_prime_path_matches_smith_path(self, name):
        for a, b, mods, unknown in report_systems(HOMS[name]):
            n_x = a.shape[1]
            unknown = tuple(unknown) if unknown is not None else None
            p = exactalg._one_prime(tuple(mods) + (unknown or ()))
            if p is None or not len(mods):
                continue
            fast = solve_modular_system(a, b, mods, unknown)
            with smith_path():
                slow = solve_modular_system(a, b, mods, unknown)
            assert fast.particular == slow.particular
            assert fast.kernel_orders == slow.kernel_orders
            if not fast.is_empty and fast.kernel_orders:
                assert smith_orders(fast.kernel_generators + slow.kernel_generators, p, n_x) == fast.kernel_orders

    def test_the_prime_systems_are_many(self):
        # the comparison above must not pass by skipping every system
        prime = sum(
            exactalg._one_prime(tuple(mods) + tuple(unknown or ())) is not None
            for hom in HOMS.values()
            for _, _, mods, unknown in report_systems(hom)
            if len(mods)
        )
        assert prime >= 3 * len(standard_homs())


# the solver's row reduction of [A | b] corrupted: system, corruption,
# message; over Z/4 and Z/9 a reduction that finds no solution hands the
# system to the Smith path, which needs no proof from it
CORRUPT_REDUCTIONS = [
    ([[1, 1, 2], [0, 1, 1]], [1, 2], q, how, message)
    for q in (2, 5, 4, 9)
    for how, message in (
        ("particular", "the particular solution fails the defining system"),
        ("generator", "kernel generator 0 fails the defining system"),
        ("inconsistent", "the row reduction does not prove the system inconsistent"),
    )
    if how != "inconsistent" or q in (2, 5)
]
CORRUPT_REDUCTION = """
import numpy as np
from hsep import exactalg

def corrupt_reduction(how):
    # the first row reduction, the solver's [A | b], comes back corrupted:
    # its constant or a free entry of row 0 plus 1, or a false pivot in
    # the b column; every later reduction stays clean
    clean = exactalg._rref
    calls = []

    def corrupted(rows, q):
        rref, pivots = clean(rows, q)
        calls.append(rows.shape)
        if len(calls) > 1:
            return rref, pivots
        width = rows.shape[1] - 1
        if how == "inconsistent":
            return np.vstack([rref, np.eye(1, width + 1, width, dtype=rref.dtype)]), pivots + [width]
        rref = rref.copy()
        c = width if how == "particular" else next(c for c in range(width) if c not in pivots)
        rref[0, c] = (rref[0, c] + 1) % q
        return rref, pivots

    exactalg._rref = corrupted
"""


class TestPrimePathGates:
    """A corrupt row reduction over 𝔽_p or Z/pᵉ raises: a wrong solution
    fails `AffineSolutionSet`'s check, and a false claim of inconsistency
    over 𝔽_p finds no proof, also under -O."""

    @pytest.mark.parametrize("a, b, q, how, message", CORRUPT_REDUCTIONS)
    def test_corrupt_reduction_raises(self, monkeypatch, a, b, q, how, message):
        assert not solve_modular_system(np.array(a), b, [q, q]).is_empty
        monkeypatch.setattr(exactalg, "_rref", exactalg._rref)  # restored after the test
        namespace = {}
        exec(CORRUPT_REDUCTION, namespace)
        namespace["corrupt_reduction"](how)
        with pytest.raises(ConstructionCheckFailed, match="^%s$" % message):
            solve_modular_system(np.array(a), b, [q, q])

    def test_inconsistent_system_is_proved(self):
        # a true inconsistency passes its proof on both primes
        for p in (2, 5):
            assert solve_modular_system(np.array([[1, 1], [2, 2]]), [0, 1], [p, p]).is_empty

    def test_gates_fire_under_optimize(self):
        script = CORRUPT_REDUCTION + (
            "import sys\n"
            "clean = exactalg._rref\n"
            "for a, b, q, how, _ in %r:\n"
            "    corrupt_reduction(how)\n"
            "    try:\n"
            "        exactalg.solve_modular_system(np.array(a), b, [q, q])\n"
            "    except exactalg.ConstructionCheckFailed as err:\n"
            "        print('optimize=%%d raised: %%s' %% (sys.flags.optimize, err))\n"
            "    exactalg._rref = clean\n"
        ) % (CORRUPT_REDUCTIONS,)
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["optimize=1 raised: %s" % m for *_, m in CORRUPT_REDUCTIONS]
