"""The unit-pivot path of `solve_modular_system` over Z/q, q = pᵉ with
e > 1, against the Smith path.

When every equation and unknown modulus is one such q, the solver
row-reduces [A | b] over Z/q; a column with no unit left to pivot on, or
an inconsistent system, sends it to the Smith path.
`solve_census.smith_path` patches `exactalg._prime_power` to return
None, which sends every system there.  Both must give the same
particular solution, the same kernel orders and the same kernel span;
tiny systems are also solved by brute force, and `_rref` over Z/q is
checked against the row module it spans, enumerated.  `subgroup_basis`
and `cokernel` keep the Smith path over prime powers, and so does the
solver over any modulus that is not a prime power.
"""

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

import solve_census
from solve_census import smith_path, span_orders

from hsep import exactalg
from hsep.exactalg import cokernel, solve_modular_system, subgroup_basis

MODULI = (4, 8, 9, 25, 27)


def brute_members(a, b, mods, unknown):
    a = a.astype(object)
    return sorted(
        x for x in itertools.product(*(range(m) for m in unknown)) if not any((a[i].dot(x) - b[i]) % m for i, m in enumerate(mods))
    )


class PathLog:
    """Records, while active, what each `_rref` call returned, how many
    Smith forms ran and how many times the solver's Smith path began, with
    its echelon pass."""

    def __init__(self):
        self.reduced, self.smith, self.echelon = [], 0, 0

    def __enter__(self):
        rref, smith, echelon = exactalg._rref, exactalg._smith, exactalg._echelon_mod

        def logged_rref(rows, q):
            out = rref(rows, q)
            self.reduced.append(out is not None)
            return out

        def logged_smith(rows, m):
            self.smith += 1
            return smith(rows, m)

        def logged_echelon(rows, modulus):
            self.echelon += 1
            return echelon(rows, modulus)

        self._patches = [
            mock.patch.object(exactalg, "_rref", logged_rref),
            mock.patch.object(exactalg, "_smith", logged_smith),
            mock.patch.object(exactalg, "_echelon_mod", logged_echelon),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


def assert_same_solutions(a, b, mods, unknown=None):
    """Both paths on A x ≡ b; returns the solver's set."""
    fast = solve_modular_system(a, b, mods, unknown)
    with smith_path():
        slow = solve_modular_system(a, b, mods, unknown)
    assert fast.coordinate_moduli == slow.coordinate_moduli
    assert fast.particular == slow.particular
    assert fast.kernel_orders == slow.kernel_orders
    if not fast.is_empty and fast.kernel_orders:
        assert span_orders(fast.kernel_generators + slow.kernel_generators, fast.coordinate_moduli) == fast.kernel_orders
    if math.prod(fast.coordinate_moduli) <= 3000:
        expect = brute_members(a, b, mods, fast.coordinate_moduli)
        assert fast.members() == slow.members() == expect
    return fast


def random_system(rng, q, consistent):
    """A over Z/q with zero and repeated rows, and b.  Half the time the
    rows span an echelon module with unit pivots; some rows are scaled by
    p, which can leave a column with no unit to pivot on."""
    p = exactalg._prime_factors(q)[0]
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
        x0 = np.array([rng.randrange(q) for _ in range(n_x)], dtype=np.int64)
        b = (a.dot(x0) % q).tolist()
    else:
        b = [rng.randrange(q) for _ in range(len(a))]
    return a, b


class TestRandomSystems:
    @pytest.mark.parametrize("q", MODULI)
    @pytest.mark.parametrize("consistent", [True, False])
    def test_unit_path_matches_smith_path(self, q, consistent):
        rng = random.Random(q * 2 + consistent)
        empty = 0
        with PathLog() as log:
            for t in range(30):
                a, b = random_system(rng, q, consistent)
                empty += assert_same_solutions(a, b, [q] * len(a), [q] * a.shape[1] if t % 2 else None).is_empty
        assert empty == 0 if consistent else empty > 0
        # both outcomes of the reduction occur, so both paths were compared
        assert any(log.reduced) and not all(log.reduced)

    @pytest.mark.parametrize("q", MODULI)
    def test_tiny_systems_by_brute_force(self, q):
        rng = random.Random(500 + q)
        for _ in range(40):
            n_eq, n_x = rng.randint(1, 4), rng.randint(1, 2)
            a = np.array([[rng.randint(-q, 2 * q) for _ in range(n_x)] for _ in range(n_eq)]).reshape(n_eq, n_x)
            assert_same_solutions(a, [rng.randint(-q, 2 * q) for _ in range(n_eq)], [q] * n_eq)


class TestFallback:
    """What the row reduction cannot answer goes to the Smith path."""

    @pytest.mark.parametrize(
        "a, b, q, size",
        [
            ([[2, 1]], [1], 4, 4),  # no unit in column 0
            ([[0, 0, 2, 1], [0, 1, 1, 2], [1, 0, 0, 0]], [0, 0, 0], 4, 4),  # a centre in a changed basis
            ([[3, 3], [0, 6]], [3, 0], 9, 9),
        ],
    )
    def test_non_unit_column(self, a, b, q, size):
        with PathLog() as log:
            solve_modular_system(np.array(a), b, [q] * len(a))
        assert log.reduced == [False] and log.echelon == 1
        assert assert_same_solutions(np.array(a), b, [q] * len(a)).size == size

    @pytest.mark.parametrize("q", MODULI)
    def test_inconsistent_system(self, q):
        # a unit pivot in the b column, then a non-unit one
        for a, b in (([[1, 1], [1, 1]], [0, 1]), ([[1, 1], [1, 1]], [0, q // exactalg._prime_factors(q)[0]])):
            with PathLog() as log:
                solve_modular_system(np.array(a), b, [q, q])
            assert log.echelon == 1
            assert assert_same_solutions(np.array(a), b, [q, q]).is_empty

    @pytest.mark.parametrize("q", MODULI)
    def test_unit_pivot_system_skips_smith(self, q):
        with PathLog() as log:
            sol = solve_modular_system(np.array([[1, 2, 3], [0, 1, q - 1], [1, 2, 3], [0, 0, 0]]), [1, 2, 1, 0], [q] * 4)
        assert (log.reduced, log.echelon, log.smith) == ([True], 0, 0)
        assert sol.particular == (q - 3, 2, 0) and sol.kernel_orders == (q,)


def module_rref(rows, q, n):
    """The unit-pivot rref of the span of `rows` in (Z/q)^n from the span
    itself, enumerated, or None when it has none.  Column c is a pivot when
    some member vanishing before c has a unit at c; it has none when such
    members have a nonzero entry at c but no unit there."""
    span = {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % q for j in range(n)) for cs in itertools.product(range(q), repeat=len(rows))}
    pivots = []
    for c in range(n):
        lead = {x[c] for x in span if not any(x[:c])}
        if lead == {0}:
            continue
        if all(math.gcd(v, q) > 1 for v in lead):
            return None
        pivots.append(c)
    form = [next(x for x in span if not any(x[:c]) and x[c] == 1 and not any(x[d] for d in pivots if d != c)) for c in pivots]
    return [list(x) for x in form], pivots


class TestRowReductionOverPrimePowers:
    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_rref_matches_the_enumerated_module(self, q):
        rng = random.Random(700 + q)
        outcomes = set()
        for _ in range(60):
            m, n = rng.randint(1, 3 if q < 8 else 2), rng.randint(1, 4)
            rows = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
            got = exactalg._rref(np.array(rows, dtype=np.int64).reshape(m, n), q)
            expect = module_rref(rows, q, n)
            outcomes.add(expect is None)
            if expect is None:
                assert got is None
            else:
                assert (got[0].tolist(), got[1]) == expect
        assert outcomes == {True, False}

    @pytest.mark.parametrize("q", MODULI)
    def test_depends_only_on_the_row_module(self, q):
        # rows mixed by an invertible matrix over Z/q span the same module
        rng = random.Random(800 + q)
        for _ in range(30):
            m, n = rng.randint(1, 6), rng.randint(1, 8)
            a = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(m)], dtype=np.int64)
            g, _ = solve_census.basis_change(m, q, rng)
            want, got = exactalg._rref(a, q), exactalg._rref(g @ a % q, q)
            assert (want is None) == (got is None)
            if want is not None:
                assert want[0].tolist() == got[0].tolist() and want[1] == got[1]


class TestSmithPathKept:
    @pytest.mark.parametrize("q", MODULI)
    def test_subgroup_basis_and_cokernel(self, q):
        rng = random.Random(900 + q)
        for _ in range(6):
            n = rng.randint(1, 4)
            vectors = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(1, 4))], dtype=np.int64)
            with PathLog() as log:
                gens, orders = subgroup_basis(vectors, (q,) * n)
                pres = cokernel(vectors.T.copy(), (q,) * n)
            assert log.reduced == [] and log.smith
            assert math.prod(orders) * pres.order == q**n

    def test_composite_moduli(self):
        # one modulus that is not a prime power, or moduli that differ
        for a, mods, unknown in (
            ([[1, 2], [3, 1]], [6, 6], None),
            ([[1, 2], [3, 1]], [4, 8], None),
            ([[3, 2], [3, 1]], [9, 9], [3, 9]),
            ([[1, 2], [3, 1]], [4, 4], [8, 4]),
        ):
            with PathLog() as log:
                solve_modular_system(np.array(a), [1, 1], mods, unknown)
            assert log.reduced == [] and log.echelon == 1
            assert_same_solutions(np.array(a), [1, 1], mods, unknown)


# a seeded slice of tests/solve_census.py: 40 of its 120 extensions
CENSUS_SLICE = sorted(random.Random(2503).sample(solve_census.CASES, 40))


@pytest.mark.parametrize("case", CENSUS_SLICE, ids=lambda c: "%s%d-Z%d-basis%d" % c)
def test_census_slice(case):
    fast, slow, bad = solve_census.census(case)
    assert bad == []
    assert fast + slow == 4


def test_census_slice_takes_both_paths():
    counts = [solve_census.census(case)[:2] for case in CENSUS_SLICE]
    assert sum(fast for fast, _ in counts) > 3 * sum(slow for _, slow in counts) > 0
