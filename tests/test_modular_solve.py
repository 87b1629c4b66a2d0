"""`solve_modular_system` on its one Howell form, against independent
oracles.

`smith_oracle.solve` is the integer Smith-form solve the workbench ran
before: both must find the same solution set, which `smith_oracle`
compares without the solver (the oracle's particular must lie in the
solver's set, and the solver's kernel, the oracle's kernel and their
joint span must have one order), and the solver's particular must be
the colexicographically least member, which `smith_oracle.colex_least`
finds from the oracle's set without listing it.  Small systems are also
solved by brute force, which checks the member set, that the kernel
orders multiply to the member count, and the colex-least member.
`_rref` is checked against the Howell form read off the enumerated row
module.  A corrupt row reduction must raise, also under -O, and the
solver never runs a Smith form except inside `subgroup_basis`.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import smith_oracle
import solve_census
from corpus_util import build_corpus, zmod
from smith_oracle import colex_key
from solve_census import SmithCount, report_systems, smith_calls

from hsep import exactalg
from hsep.exactalg import ConstructionCheckFailed, solve_modular_system, subgroup_basis
from hsep.finring import construct_standard_ring, hom_from_doc
from hsep.sepkit import h_separability_report

ROOT = Path(__file__).resolve().parent.parent
BIG_PRIME = 3037000493  # the largest prime with (p − 1)² + (p − 1) < 2⁶³
PRIMES = (2, 3, 5, 7, 11, BIG_PRIME)
PRIME_POWERS = (4, 8, 9, 25, 27)
COMPOSITE = (6, 12, 36)


def brute_members(a, b, mods, unknown):
    a = a.astype(object)
    return sorted(
        x for x in itertools.product(*(range(m) for m in unknown)) if not any((a[i].dot(x) - b[i]) % m for i, m in enumerate(mods))
    )


def assert_matches_oracle(a, b, mods, unknown=None):
    """The solver against `smith_oracle`, and against brute force when the
    ambient group has at most 3000 members; returns the solver's set."""
    sol = solve_modular_system(a, b, mods, unknown)
    oracle = smith_oracle.solve(a, b, mods, unknown)
    assert sol.is_empty == (oracle is None)
    moduli = sol.coordinate_moduli
    if not sol.is_empty:
        assert smith_oracle.contains(sol, oracle[0])
        assert sol.particular == smith_oracle.colex_least(oracle[0], oracle[1], moduli)
        assert all(0 <= x < m for x, m in zip(sol.particular, moduli))
        order = smith_oracle.span_order(sol.kernel_generators, moduli)
        assert order == sol.size == smith_oracle.span_order(oracle[1], moduli)
        assert smith_oracle.span_order(sol.kernel_generators + tuple(oracle[1]), moduli) == order
        assert all(sol.kernel_orders[i + 1] % sol.kernel_orders[i] == 0 for i in range(len(sol.kernel_orders) - 1))
    if math.prod(moduli) <= 3000:
        expect = brute_members(a, b, mods, moduli)
        assert sol.members() == expect and sol.size == len(expect)
        if expect:
            assert sol.particular == min(expect, key=colex_key)
    return sol


def random_prime_system(rng, p, consistent):
    """A over 𝔽_p, up to 40 × 30, and b: half the time of low rank, with
    many redundant rows, else of random density; object entries, or int64
    ones that may be negative."""
    n_eq, n_x = rng.randint(1, 40), rng.randint(1, 30)
    if rng.random() < 0.5:
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


def random_system(rng, q, consistent):
    """A over Z/q with zero and repeated rows, and b; over a prime,
    `random_prime_system`.  Half the time the rows span an echelon module
    with unit pivots; some rows are scaled by a prime factor of q, which
    can leave a column with no unit."""
    p = exactalg._prime_factors(q)[0]
    if p == q:
        return random_prime_system(rng, p, consistent)
    n_x = rng.randint(1, 12)
    if rng.random() < 0.5:
        r = rng.randint(1, n_x)
        pivots = sorted(rng.sample(range(n_x), r))
        basis = np.zeros((r, n_x), dtype=np.int64)
        for i, c in enumerate(pivots):
            basis[i, c] = 1
            basis[i, c + 1:] = [0 if j in pivots else rng.randrange(q) for j in range(c + 1, n_x)]
        mix = np.array([[rng.randrange(q) for _ in range(r)] for _ in range(rng.randint(1, 2 * r + 1))], dtype=np.int64)
        a = np.vstack([basis, mix @ basis % q])
    else:
        a = np.array([[rng.randrange(q) for _ in range(n_x)] for _ in range(rng.randint(1, 10))], dtype=np.int64)
    if rng.random() < 0.3:
        a[rng.randrange(len(a))] *= p
    a = np.vstack([a, np.zeros((rng.randint(0, 2), n_x), dtype=np.int64), a[[rng.randrange(len(a)) for _ in range(rng.randint(0, 3))]]])
    a = a[rng.sample(range(len(a)), len(a))]
    if rng.random() < 0.5:
        a = a - q  # entries are read mod q
    if consistent:
        x0 = np.array([rng.randrange(q) for _ in range(n_x)], dtype=object)
        b = (a.astype(object).dot(x0) % q).tolist()
    else:
        b = [rng.randrange(q) for _ in range(len(a))]
    return a, b


def mixed_system(rng):
    """Equation moduli that divide one of Z/2 … Z/18, and unknown moduli
    that are multiples of their lcm, or none."""
    base = rng.randint(2, 18)
    divisors = [d for d in range(1, base + 1) if base % d == 0]
    n_eq, n_x = rng.randint(1, 4), rng.randint(1, 3)
    mods = [rng.choice(divisors) for _ in range(n_eq)]
    lcm = math.lcm(*mods)
    unknown = [lcm * rng.choice([f for f in (1, 2, 3) if lcm * f <= 18] or [1]) for _ in range(n_x)] if rng.random() < 0.5 else None
    a = np.array([[rng.randint(-20, 20) for _ in range(n_x)] for _ in range(n_eq)]).reshape(n_eq, n_x)
    return a, [rng.randint(-20, 20) for _ in range(n_eq)], mods, unknown


class TestAgainstTheOracle:
    @pytest.mark.parametrize("q", PRIMES + PRIME_POWERS + COMPOSITE)
    @pytest.mark.parametrize("consistent", [True, False])
    def test_random_systems(self, q, consistent):
        rng = random.Random(q * 2 + consistent)
        empty = 0
        for t in range(24 if q in PRIMES else 30):
            a, b = random_system(rng, q, consistent)
            sol = assert_matches_oracle(a, b, [q] * len(a), [q] * a.shape[1] if t % 2 else None)
            assert q not in PRIMES or set(sol.kernel_orders) <= {q}
            empty += sol.is_empty
        assert empty == 0 if consistent else empty > 0

    def test_mixed_moduli(self):
        rng = random.Random(31)
        sizes = set()
        for _ in range(300):
            sizes.add(assert_matches_oracle(*mixed_system(rng)).size)
        assert 0 in sizes and len(sizes) > 10

    def test_moduli_past_int64(self):
        big = 2**70
        for a, b in (([[3, 0], [0, 2**65]], [6, 2**66]), ([[2**69, 1]], [2**69])):
            a = np.array(a, dtype=object)
            assert_matches_oracle(a, b, [big] * len(a))


    @pytest.mark.parametrize(
        "a, b, q, size",
        [
            ([[2, 1]], [1], 4, 4),  # no unit in column 0
            ([[0, 0, 2, 1], [0, 1, 1, 2], [1, 0, 0, 0]], [0, 0, 0], 4, 4),  # a centre in a changed basis
            ([[3, 3], [0, 6]], [3, 0], 9, 9),
        ],
    )
    def test_non_unit_columns(self, a, b, q, size):
        assert assert_matches_oracle(np.array(a), b, [q] * len(a)).size == size


class TestBruteForce:
    """Every member, by enumeration, on random small systems over mixed
    equation and unknown moduli: the member set, Π kernel orders = the
    member count, and the particular is the colexicographically least
    member."""

    def test_random_small_systems(self):
        rng = random.Random(2601)
        empty = 0
        for _ in range(400):
            a, b, mods, unknown = mixed_system(rng)
            sol = solve_modular_system(a, b, mods, unknown)
            expect = brute_members(a, b, mods, sol.coordinate_moduli)
            assert sol.members() == expect
            assert sol.size == math.prod(sol.kernel_orders) * (not sol.is_empty) == len(expect)
            if expect:
                assert sol.particular == min(expect, key=colex_key)
            empty += sol.is_empty
        assert 40 < empty < 360

    @pytest.mark.parametrize("q", (2, 3, 5, 7, 11) + PRIME_POWERS + COMPOSITE)
    def test_tiny_systems(self, q):
        rng = random.Random(500 + q)
        for _ in range(40):
            n_eq, n_x = rng.randint(1, 4), rng.randint(1, 2 if q > 11 else 3)
            a = np.array([[rng.randint(-q, 2 * q) for _ in range(n_x)] for _ in range(n_eq)]).reshape(n_eq, n_x)
            assert_matches_oracle(a, [rng.randint(-q, 2 * q) for _ in range(n_eq)], [q] * n_eq)


def golden_homs():
    return {
        path.parent.name: hom_from_doc(json.loads(path.read_text()), path.parent)
        for path in sorted((ROOT / "corpus").glob("*/hom.json"))
    }


def standard_homs():
    homs = {}
    for n, moduli in ((2, (2, 3, 4, 5, 6, 7)), (3, (2, 3))):
        for m in moduli:
            base = zmod(m)
            homs["M%d(Z/%d)" % (n, m)] = construct_standard_ring("matrix", {"n": n, "base": base}).homs["scalar"]
            tri = construct_standard_ring("triangular", {"n": n, "base": base}).homs
            homs["T%d(Z/%d)" % (n, m)] = tri["scalar"]
            homs["T%d -> M%d (Z/%d)" % (n, n, m)] = tri["into_matrix"]
    return homs


HOMS = dict(build_corpus()[0])
HOMS.update({"corpus/" + name: hom for name, hom in golden_homs().items()})
HOMS.update(standard_homs())


class TestVerdictSystems:
    @pytest.mark.parametrize("name", sorted(HOMS))
    def test_every_report_system_matches_the_oracle(self, name):
        for a, b, mods, unknown in report_systems(HOMS[name]):
            if len(mods):
                assert_matches_oracle(a, b, mods, unknown)

    def test_the_systems_are_many(self):
        # the comparison above must not pass by skipping every system
        count = sum(1 for hom in HOMS.values() for _, _, mods, _ in report_systems(hom) if len(mods))
        assert count >= 3 * len(HOMS)


def module_howell(rows, q, n):
    """The Howell form of the span of `rows` in (Z/q)^n, read off the span
    itself, enumerated.  Column c pivots when some member vanishing before
    c is nonzero at c, on g, the gcd of q and all such entries; its row is
    the member vanishing before c with g at c whose entries at every later
    pivot c' lie in [0, g')."""
    span = {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % q for j in range(n)) for cs in itertools.product(range(q), repeat=len(rows))}
    pivots = {}
    for c in range(n):
        g = math.gcd(q, *(x[c] for x in span if not any(x[:c])))
        if g != q:
            pivots[c] = g
    form = [
        next(x for x in span if not any(x[:c]) and x[c] == g and all(x[d] < pivots[d] for d in pivots if d > c))
        for c, g in pivots.items()
    ]
    return [list(x) for x in form], list(pivots)


class TestHowellForm:
    @pytest.mark.parametrize("q", [2, 3, 4, 6, 8, 9, 12])
    def test_matches_the_enumerated_module(self, q):
        rng = random.Random(700 + q)
        non_unit = 0
        for _ in range(60):
            m, n = rng.randint(1, 3 if q < 8 else 2), rng.randint(1, 4)
            rows = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
            got = exactalg._rref(np.array(rows, dtype=np.int64).reshape(m, n), q)
            expect = module_howell(rows, q, n)
            assert (got[0].tolist(), got[1]) == expect
            non_unit += any(row[c] != 1 for row, c in zip(*expect))
        assert (non_unit > 0) == (q not in (2, 3))

    @pytest.mark.parametrize("q", PRIME_POWERS + COMPOSITE)
    def test_depends_only_on_the_row_module(self, q):
        # rows mixed by an invertible matrix over Z/q span the same module
        rng = random.Random(800 + q)
        for _ in range(30):
            m, n = rng.randint(1, 6), rng.randint(1, 8)
            a = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(m)], dtype=np.int64)
            g, _ = solve_census.dense_basis_change(m, q, rng)
            want, got = exactalg._rref(a, q), exactalg._rref(g @ a % q, q)
            assert want[0].tolist() == got[0].tolist() and want[1] == got[1]


class TestSmithOnlyInsideCokernel:
    def test_the_solver_never_reaches_smith(self):
        rng = random.Random(41)
        inside = 0
        for t in range(120):
            q = rng.choice(PRIME_POWERS + COMPOSITE)
            a, b = random_system(rng, q, True)
            system = (a, b, [q] * len(a), None) if t % 2 else mixed_system(rng)
            calls = smith_calls(*system)
            assert calls[1] == 0
            inside += calls[0]
        assert inside > 0

    @pytest.mark.parametrize("q", (2, 5) + PRIME_POWERS + COMPOSITE)
    def test_unit_pivots_take_no_smith_form(self, q):
        # a free kernel over one modulus is read off the form itself
        a = np.array([[1, 2, 3], [0, 1, q - 1], [1, 2, 3], [0, 0, 0]])
        with mock.patch.object(exactalg, "_smith", side_effect=AssertionError("a Smith form ran")):
            sol = solve_modular_system(a, [1, 2, 1, 0], [q] * 4)
        assert sol.particular == ((q - 3) % q, 2 % q, 0) and sol.kernel_orders == (q,)

    @pytest.mark.parametrize("q", PRIME_POWERS + COMPOSITE)
    def test_subgroup_basis_and_cokernel(self, q):
        # a subgroup and the quotient by it: each cokernel takes at most
        # one Smith form, and subgroup_basis takes its own inside one
        rng = random.Random(900 + q)
        with SmithCount() as count:
            for _ in range(6):
                n = rng.randint(1, 4)
                vectors = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(1, 4))], dtype=np.int64)
                gens, orders = subgroup_basis(vectors, (q,) * n)
                pres = exactalg.cokernel(vectors.T.copy(), (q,) * n)
                assert math.prod(orders) == smith_oracle.span_order(vectors.tolist(), (q,) * n)
                assert math.prod(orders) * pres.order == q**n
        assert count.outside == 0 and 0 < count.inside <= 12

    @pytest.mark.parametrize("name", ["z8-to-z4", "z6-quotient", "m3-z4-scalar"])
    def test_sep_report(self, name):
        hom = hom_from_doc(json.loads((ROOT / "tests" / "golden" / "sep-homs" / ("%s.json" % name)).read_text()), ROOT)
        with SmithCount() as count:
            h_separability_report(hom)
        assert count.outside == 0

    @pytest.mark.parametrize("p", PRIMES)
    def test_subgroup_basis_over_a_prime(self, p):
        rng = random.Random(400 + p)
        for _ in range(12):
            n = rng.randint(1, 8)
            vecs = [[rng.randrange(-p, 2 * p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(rng.randint(0, 10))]
            gens, orders = subgroup_basis(np.array(vecs, dtype=object).reshape(len(vecs), n), (p,) * n)
            assert set(orders) <= {p} and all(0 <= x < p for g in gens for x in g)
            assert math.prod(orders) == smith_oracle.span_order(vecs, (p,) * n) == smith_oracle.span_order(list(gens) + vecs, (p,) * n)


# the solver's Howell form of [A | b] corrupted: system, modulus,
# corruption, message
CORRUPT_REDUCTIONS = [
    ([[1, 1, 2], [0, 1, 1]], [1, 2], q, how, message)
    for q in (2, 5, 4, 9, 6)
    for how, message in (
        ("particular", "the particular solution fails the defining system"),
        ("generator", "kernel generator 0 fails the defining system"),
        ("inconsistent", "the row reduction does not prove the system inconsistent"),
    )
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


class TestCorruptReduction:
    """A corrupt Howell form raises: a wrong solution fails
    `AffineSolutionSet`'s check, and a false claim of inconsistency finds
    no proof, over a prime, a prime power and a composite modulus, also
    under -O."""

    @pytest.mark.parametrize("a, b, q, how, message", CORRUPT_REDUCTIONS)
    def test_corrupt_reduction_raises(self, monkeypatch, a, b, q, how, message):
        assert not solve_modular_system(np.array(a), b, [q, q]).is_empty
        monkeypatch.setattr(exactalg, "_rref", exactalg._rref)  # restored after the test
        namespace = {}
        exec(CORRUPT_REDUCTION, namespace)
        namespace["corrupt_reduction"](how)
        with pytest.raises(ConstructionCheckFailed, match="^%s$" % message):
            solve_modular_system(np.array(a), b, [q, q])

    @pytest.mark.parametrize("q", (2, 5) + PRIME_POWERS + COMPOSITE)
    def test_inconsistent_system_is_proved(self, q):
        # a unit pivot in the b column, then a non-unit one: both proofs pass
        for b in ([0, 1], [0, q // exactalg._prime_factors(q)[0]]):
            assert solve_modular_system(np.array([[1, 1], [1, 1]]), b, [q, q]).is_empty
        assert solve_modular_system(np.array([[2, 4], [3, 0]]), [1, 1], [4, 6]).is_empty

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


# a seeded slice of tests/solve_census.py: 40 of its 120 extensions
CENSUS_SLICE = sorted(random.Random(2503).sample(solve_census.CASES, 40))


@pytest.mark.parametrize("case", CENSUS_SLICE, ids=lambda c: "%s%d-Z%d-basis%d" % c)
def test_census_slice(case):
    total, _, fallbacks, bad = solve_census.census(case)
    assert (total, fallbacks, bad) == (4, 0, [])
