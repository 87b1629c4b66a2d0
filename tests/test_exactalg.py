"""Exact linear algebra kernels, checked against independent oracles."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import smith_oracle
import solve_census
from finring_util import elements, lift, project
from sepkit_util import contains, is_h_idempotent, verify_member
from talg_util import rref as oracle_rref

from hsep import exactalg, sepkit
from hsep.exactalg import (
    CapExceeded,
    ConstructionCheckFailed,
    DimensionMismatch,
    cokernel,
    exact_einsum,
    solve_modular_system,
    subgroup_basis,
)
from hsep.finring import NotAssociative, UnitLawFails, construct_ring, construct_standard_ring
from hsep.sepkit import h_separability_report, verdict_to_doc
from hsep.tensorbialg import exact_field

ROOT = Path(__file__).resolve().parent.parent


def mat(rows, cols=None):
    """A 2-D object array of Python ints; `cols` keeps the width of zero rows."""
    return np.array(rows, dtype=object).reshape(len(rows), len(rows[0]) if cols is None else cols)


def determinant(rows):
    """Exact determinant of a square list of integer rows by fraction-free
    (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinantal_divisors(a):
    """Oracle: d_k = gcd(k x k minors) / gcd((k-1) minors).

    Independent of the elimination code path.
    """
    n, m = a.shape
    k = min(n, m)
    prev = 1
    out = []
    for size in range(1, k + 1):
        g = 0
        for rs in itertools.combinations(range(n), size):
            for cs in itertools.combinations(range(m), size):
                g = math.gcd(g, determinant([[a[i, j] for j in cs] for i in rs]))
        if g == 0:
            out.extend([0] * (k - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def check_smith(a, modulus):
    """`exactalg._smith` of the integer matrix a over Z/N, N = modulus,
    against the textbook integer Smith form of `smith_oracle`: each d_i is
    the gcd of the oracle's with N (N past the oracle's diagonal),
    U·U⁻¹ ≡ I (mod N) for the U it applies to the identity, and row i of
    U·a vanishes mod d_i.  With the oracle's orders, the last makes
    x ↦ (U·x mod d_i) an isomorphism of (Z/N)ⁿ modulo the columns of a
    onto ⊕ Z/d_i."""
    n, m = a.shape
    rows = [[int(x) for x in row] for row in a.tolist()]
    d, U, W = exactalg._smith([row[:] for row in rows], m, modulus, np.eye(n, dtype=np.int64))
    _, expect, _ = smith_oracle.smith(rows, m)
    assert d == tuple(math.gcd(x, modulus) for x in expect) + (modulus,) * (n - len(expect))
    u, w = U.astype(object), W.astype(object)
    assert U.shape == W.shape == (n, n)
    assert ((u @ w.T - np.eye(n, dtype=np.int64)) % modulus == 0).all()
    assert ((0 <= u) & (u < modulus)).all() and ((0 <= w) & (w < modulus)).all()
    ua = u @ a.astype(object) % modulus
    assert all(not (row % di).any() for row, di in zip(ua, d))
    return d


class TestSmithNormalForm:
    """The small Smith form over Z/N behind `cokernel`."""

    def test_frozen_example(self):
        # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |16-24| = 8
        a = mat([[2, 4], [6, 8]])
        assert check_smith(a, 16) == (2, 4)
        assert check_smith(a, 12) == (2, 4)
        assert check_smith(a, 6) == (2, 2)
        assert determinantal_divisors(a) == (2, 4)

    def test_identity(self):
        for n in (1, 2, 5):
            assert check_smith(np.eye(n, dtype=np.int64), 12) == (1,) * n

    def test_zero(self):
        # a zero diagonal entry, and the rows past the columns, read as N
        assert check_smith(np.zeros((3, 4), dtype=np.int64), 8) == (8, 8, 8)
        assert check_smith(np.zeros((3, 1), dtype=np.int64), 8) == (8, 8, 8)

    def test_rectangular_and_negative(self):
        a = np.array([[0, -3, 6], [9, 12, -15]], dtype=np.int64)
        assert check_smith(a, 27) == tuple(math.gcd(x, 27) for x in determinantal_divisors(a))

    @pytest.mark.parametrize("modulus", [4, 6, 8, 9, 12, 2**70])
    def test_random_matrices_match_oracle(self, modulus):
        rng = random.Random(20240817 + modulus % 1000)
        for _ in range(40):
            n, m = rng.randint(1, 5), rng.randint(0, 5)
            check_smith(random_matrix(rng, n, m, rng.choice([modulus - 1, 9, 10**6])), modulus)

    def test_entries_past_the_threshold_are_reduced(self):
        # entries of N⁴ and past it are reduced mod N, and the diagonal
        # still matches the oracle
        rng = random.Random(4)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 10**5)
            check_smith(a, 6)

    def test_determinism(self):
        a = [[4, 6, 2], [6, 0, 8], [2, 8, 0]]
        first = exactalg._smith([r[:] for r in a], 3, 32, np.eye(3, dtype=np.int64))
        second = exactalg._smith([r[:] for r in a], 3, 32, np.eye(3, dtype=np.int64))
        assert first[0] == second[0] and (first[1] == second[1]).all() and (first[2] == second[2]).all()

    def test_row_operations_act_on_the_given_rows(self):
        # U·x for any x equals U applied to the identity, times x
        rng = random.Random(8)
        for _ in range(20):
            n, m = rng.randint(1, 5), rng.randint(0, 5)
            rows = random_matrix(rng, n, m, 30).tolist()
            x = random_matrix(rng, n, 4, 11) % 12
            _, u, _ = exactalg._smith([r[:] for r in rows], m, 12, np.eye(n, dtype=np.int64))
            d, ux, _ = exactalg._smith([r[:] for r in rows], m, 12, x)
            assert (ux == u @ x % 12).all()

    def test_large_diagonal_input_is_fast(self):
        n = 400
        d, _, _ = exactalg._smith([[4 * (i == j) for j in range(n)] for i in range(n)], n, 8, np.eye(n, dtype=np.int64))
        assert d == (4,) * n


def fingerprint(pres):
    """Everything a presentation stores: moduli, and P and L as dtype,
    shape and bytes (an object array by its Python ints)."""

    def raw(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes() if a.dtype != object else a.tolist())

    return pres.moduli, pres.generator_moduli, raw(pres.P), raw(pres.L)


LATTICE_MODULI = {"Z4": (4,), "Z6": (6,), "Z8": (8,), "Z9": (9,), "Z12": (12,), "mixed": (1, 2, 3, 4, 6, 8, 9, 12)}


def other_columns(rng, cols, mods):
    """Another spanning set of the lattice of the columns `cols` (lists of
    Python ints) plus the m_i·e_i: permuted, one column duplicated, mixed
    by unimodular integer column operations, then each shifted by a
    multiple of every m_i·e_i."""
    cols = [list(c) for c in cols]
    rng.shuffle(cols)
    if cols:
        cols.append(list(rng.choice(cols)))
    for _ in range(2 * len(cols)):
        if len(cols) > 1:
            a, b = rng.sample(range(len(cols)), 2)
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            cols[a] = [x + k * y for x, y in zip(cols[a], cols[b])]
    return [[x + rng.randint(-3, 3) * m for x, m in zip(c, mods)] for c in cols]


class TestLatticeInvariance:
    """`cokernel` prints coordinates that depend only on the lattice the
    relations span together with the order relations, and
    `subgroup_basis` generators that depend only on the subgroup."""

    @pytest.mark.parametrize("name", sorted(LATTICE_MODULI))
    def test_cokernel(self, name):
        rng = random.Random("cokernel " + name)
        for _ in range(60):
            g = rng.randint(1, 5)
            mods = tuple(rng.choice(LATTICE_MODULI[name]) for _ in range(g))
            cols = [[rng.randrange(-13, 13) for _ in range(g)] for _ in range(rng.randint(1, 5))]
            want = fingerprint(cokernel(mat(cols, g).T.copy(), mods))
            for _ in range(3):
                other = other_columns(rng, cols, mods)
                assert fingerprint(cokernel(mat(other, g).T.copy(), mods)) == want, (cols, other, mods)

    @pytest.mark.parametrize("name", sorted(LATTICE_MODULI))
    def test_subgroup_basis(self, name):
        rng = random.Random("subgroup " + name)
        for _ in range(60):
            n = rng.randint(1, 5)
            M = tuple(rng.choice(LATTICE_MODULI[name]) for _ in range(n))
            vecs = [[rng.randrange(-13, 13) for _ in range(n)] for _ in range(rng.randint(1, 5))]
            gens, orders = subgroup_basis(mat(vecs, n), M)
            assert math.prod(orders) == smith_oracle.span_order(vecs, M)
            assert all(orders[i + 1] % orders[i] == 0 for i in range(len(orders) - 1))
            for _ in range(3):
                other = other_columns(rng, vecs, M)
                assert subgroup_basis(mat(other, n), M) == (gens, orders), (vecs, other, M)
            # the generators themselves span the subgroup, and give it back
            assert subgroup_basis(mat(list(gens) or [[0] * n], n), M) == (gens, orders)


# The census reports whose printed S⊗S coordinates moved when `cokernel`
# became a function of the relation lattice: T_n(Z/q) → M_n(Z/q) in the
# changed bases of `solve_census.extension`, "shear" seeds 1-4 by
# `basis_change` and "dense" seeds 1-2 by `dense_basis_change`.  No
# standard-basis, prime-modulus, M_n, corpus or golden report moved.
MOVED = {
    (n, q): ["shear1", "shear2", "shear3", "shear4", "dense1", "dense2"] for n in (2, 3) for q in (4, 6, 8, 9, 10, 12)
}
MOVED[2, 8].remove("dense1")


def moved_extension(n, q, basis):
    change = solve_census.dense_basis_change if basis.startswith("dense") else solve_census.basis_change
    return solve_census.extension("T", n, q, int(basis[-1]), change=change)


class TestPrintedChange:
    """Each moved report keeps every field but `locus_particular` and
    `h_witnesses`: here the standard basis's, as every other field of a
    T_n → M_n report is basis-free.  The epimorphism's locus is {1⊗1}, so
    both print 1⊗1 in the new coordinates, a heavy idempotent."""

    @pytest.mark.parametrize("n, q, basis", [(n, q, b) for (n, q), bases in sorted(MOVED.items()) for b in bases], ids=lambda x: str(x))
    def test_moved_report_keeps_every_other_field(self, n, q, basis):
        printed = ("locus_particular", "h_witnesses")
        hom = moved_extension(n, q, basis)
        doc = verdict_to_doc(h_separability_report(hom))
        standard = verdict_to_doc(h_separability_report(solve_census.extension("T", n, q, 0)))
        assert {k: v for k, v in doc.items() if k not in printed} == {k: v for k, v in standard.items() if k not in printed}
        t2 = sepkit.tensor_power(hom, 2)
        witnesses = [tuple(w["coords"]) for w in doc["h_witnesses"]]
        assert witnesses == [tuple(doc["locus_particular"]["coords"])] == [t2.one_one]
        assert all(is_h_idempotent(t2, w) for w in witnesses)


class TestArrayInputs:
    """The solvers take 2-D integer arrays, int64 or object arrays of Python
    ints, and raise DimensionMismatch on anything else; zero-row and
    zero-column shapes keep their width."""

    @pytest.mark.parametrize(
        "bad",
        [[[1, 2]], np.array([1, 2]), np.zeros((1, 2, 1), dtype=np.int64), np.array([[1.0, 2.0]]), np.array([[1, 2]], dtype=np.uint8)],
        ids=["list", "1-D", "3-D", "float", "unsigned"],
    )
    def test_rejects_other_inputs(self, bad):
        for call in (
            lambda: cokernel(bad, (4,)),
            lambda: subgroup_basis(bad, (4, 4)),
            lambda: solve_modular_system(bad, [0], [4]),
        ):
            with pytest.raises(DimensionMismatch):
                call()

    def test_empty_shapes_keep_their_width(self):
        assert subgroup_basis(np.zeros((0, 2), dtype=np.int64), (2, 4)) == ((), ())
        assert solve_modular_system(np.zeros((0, 3), dtype=np.int64), [], [], unknown_moduli=[2, 2, 2]).size == 8
        with pytest.raises(DimensionMismatch):
            subgroup_basis(np.zeros((0, 3), dtype=np.int64), (2, 4))
        with pytest.raises(DimensionMismatch):
            solve_modular_system(np.zeros((0, 2), dtype=np.int64), [], [], unknown_moduli=[2, 2, 2])
        with pytest.raises(DimensionMismatch):
            cokernel(np.zeros((3, 0), dtype=np.int64), (2, 4))


class TestCokernel:
    def test_two_cyclic_factors_merge(self):
        # oracle: SNF of diag(2,3) is diag(1,6)
        pres = cokernel(np.zeros((2, 0), dtype=np.int64), (2, 3))
        assert pres.moduli == (6,)
        assert pres.order == 6

    def test_order_relation(self):
        pres = cokernel(mat([[2]]), (4,))
        assert pres.moduli == (2,)

    def test_no_generators(self):
        pres = cokernel(np.zeros((0, 0), dtype=np.int64), ())
        assert pres.moduli == ()
        assert pres.order == 1

    def test_project_lift_roundtrip_exhaustive(self):
        rng = random.Random(7)
        for _ in range(40):
            g = rng.randint(1, 4)
            mods = [rng.choice([1, 2, 2, 3, 4, 6]) for _ in range(g)]
            ncols = rng.randint(0, 3)
            rel = mat([[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(g)], ncols)
            pres = cokernel(rel, mods)
            assert pres.order <= 10**4
            for x in elements(pres.moduli):
                assert project(pres, lift(pres, x)) == x
            # project kills every relation column and every order relation
            for c in range(ncols):
                assert project(pres, rel[:, c]) == (0,) * pres.rank
            for i in range(g):
                vec = [mods[i] if j == i else 0 for j in range(g)]
                assert project(pres, vec) == (0,) * pres.rank

    def test_prime_fast_path_matches_generic(self):
        rel = mat([[1, 0], [1, 1], [0, 1]])
        fast = cokernel(rel, (2, 2, 2))
        # generic path forced through a non-prime-shaped call: same group
        generic = cokernel(np.hstack([rel, np.zeros((3, 0), dtype=np.int64)]), (2, 2, 2))
        assert fast.moduli == (2,) == generic.moduli
        for x in elements(fast.moduli):
            assert project(fast, lift(fast, x)) == x

    def test_quotient_is_surjective(self):
        pres = cokernel(mat([[2], [2]]), (4, 4))
        images = {project(pres, (a, b)) for a in range(4) for b in range(4)}
        assert len(images) == pres.order

    def test_same_quotient_as_the_oracle(self):
        # the invariant factors are the oracle Smith form's, and two
        # vectors have one class exactly when the oracle's U·x agree
        rng = random.Random(11)
        for _ in range(40):
            g = rng.randint(1, 5)
            mods = [rng.choice([2, 3, 5, 4, 6, 9]) for _ in range(g)]
            ncols = rng.randint(0, 4)
            rel = mat([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(g)], ncols)
            pres = cokernel(rel, mods)
            u, d, _ = smith_oracle.smith([row + [m * (i == j) for j, m in enumerate(mods)] for i, row in enumerate(rel.tolist())], ncols + g)
            keep = [i for i in range(g) if d[i] != 1]
            assert pres.moduli == tuple(d[i] for i in keep)

            def oracle_project(vec):
                return tuple(sum(a * b for a, b in zip(u[i], vec)) % d[i] for i in keep)

            for _ in range(30):
                x = [rng.randrange(m) for m in mods]
                y = [rng.randrange(m) for m in mods]
                assert (project(pres, x) == project(pres, y)) == (oracle_project(x) == oracle_project(y))


class TestPresentationArrays:
    """P and L are reduced numpy arrays; an identity presentation stores
    neither, and only `cokernel`'s two identity cases set the flag."""

    @pytest.mark.parametrize("mods", [(2, 4, 8), (3, 3), (5,), ()])
    def test_identity_without_relations(self, mods):
        pres = cokernel(np.zeros((len(mods), 0), dtype=np.int64), mods)
        assert pres.is_identity and pres.P is None and pres.L is None
        assert pres.moduli == mods
        vec = tuple(m + 1 for m in mods)
        assert project(pres, vec) == tuple(1 % m for m in mods) == lift(pres, vec)

    def test_identity_when_no_relation_survives_mod_p(self):
        pres = cokernel(np.array([[3, 0], [6, 9]]), (3, 3))
        assert pres.is_identity and pres.moduli == (3, 3)

    @pytest.mark.parametrize(
        "rel, mods",
        [
            ([[0], [0]], (4, 4)),  # no relation survives mod N
            ([[2], [4]], (2, 4)),  # the relations lie in the order relations' lattice
            ([[2], [0]], (4, 4)),  # Z/2 ⊕ Z/4 on its own generators
        ],
    )
    def test_identity_whenever_the_coordinates_are_the_generators(self, rel, mods):
        # the flag depends only on the lattice: the moduli are the m_i
        # and P is the identity
        pres = cokernel(mat(rel), mods)
        assert pres.is_identity == (pres.moduli == mods)
        if pres.moduli == mods:
            assert pres.P is None and pres.L is None

    def test_dropped_order_one_generator(self):
        pres = cokernel(np.zeros((3, 0), dtype=np.int64), (1, 2, 4))
        assert not pres.is_identity and pres.moduli == (2, 4)
        assert pres.P.tolist() == [[0, 1, 0], [0, 0, 1]]
        assert pres.L.tolist() == [[0, 0], [1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "rel, mods",
        [
            ([[1], [1]], (2, 2)),  # a unit pivot
            ([[2], [0]], (4, 4)),  # moduli (2, 4), not the generators' (4, 4)
            ([[], []], (2, 3)),  # no relations, but not a divisor chain
        ],
    )
    def test_not_identity(self, rel, mods):
        pres = cokernel(mat(rel), mods)
        assert not pres.is_identity
        assert pres.P.shape == (pres.rank, 2) and pres.L.shape == (2, pres.rank)

    def test_rows_are_reduced_and_read_only(self):
        rng = random.Random(5)
        for _ in range(20):
            g = rng.randint(1, 4)
            mods = [rng.choice([2, 3, 4, 6, 9]) for _ in range(g)]
            rel = np.array([[rng.randint(-9, 9)] for _ in range(g)])
            pres = cokernel(rel, mods)
            assert pres.P.dtype == np.int64
            assert ((0 <= pres.P) & (pres.P < np.array(pres.moduli)[:, None])).all()
            assert ((0 <= pres.L) & (pres.L < np.array(mods)[:, None])).all()
            assert not pres.P.flags.writeable and not pres.L.flags.writeable

    def test_past_int64_like_python_ints(self):
        # P·x and L·y take products past 2⁶³: the arrays hold Python ints,
        # and the classes are the oracle Smith form's
        mods = (2**62, 3 * 2**62)
        rel = np.array([[2**40 + 1], [5]])
        pres = cokernel(rel, mods)
        assert pres.P.dtype == object and pres.L.dtype == object
        u, d, _ = smith_oracle.smith([[2**40 + 1, mods[0], 0], [5, 0, mods[1]]], 3)
        keep = [i for i in range(2) if d[i] != 1]
        assert pres.moduli == tuple(d[i] for i in keep)
        rng = random.Random(3)
        for _ in range(50):
            x = [rng.randrange(-(2**70), 2**70) for _ in range(2)]
            y = [rng.randrange(-(2**70), 2**70) for _ in range(2)]
            same = all(sum(a * (b - c) for a, b, c in zip(u[i], x, y)) % d[i] == 0 for i in keep)
            assert (project(pres, x) == project(pres, y)) == same
            z = tuple(rng.randrange(di) for di in pres.moduli)
            assert project(pres, lift(pres, z)) == z


# (rows, cols), with the empty shapes of a degree that has no words
ROW_SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (2, 5), (4, 3), (5, 5), (6, 4)]


class TestRowReduction:
    """`_rref` over GF(2), GF(3) and GF(7), on seeded
    integer matrices, against Gauss–Jordan on lists of the field's
    own elements."""

    @staticmethod
    def matrices(p):
        rng = random.Random(200 + p)
        for rows, cols in ROW_SHAPES:
            for _ in range(6):
                a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
                if rows >= 3 and rng.random() < 0.5:
                    a[-1] = [x + 2 * y for x, y in zip(a[0], a[1])]  # rank below the row count
                yield np.array(a, dtype=np.int64).reshape(rows, cols)

    @staticmethod
    def oracle(p, a):
        return oracle_rref(exact_field(p), a.tolist())

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_rref_matches_oracle(self, p):
        for a in self.matrices(p):
            rref, pivots = exactalg._rref(a, p)
            expect, expect_pivots = self.oracle(p, a)
            assert pivots == expect_pivots
            assert rref.shape == (len(pivots), a.shape[1])
            assert rref.tolist() == expect


class TestUniqueRows:
    def test_matches_np_unique(self):
        # np.unique(axis=0) sorts rows through a structured dtype; the
        # lexsort gives the same rows in the same order, on Python ints too
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = rng.integers(-3, 3, size=(int(rng.integers(0, 25)), int(rng.integers(1, 5))))
            expect = np.unique(a, axis=0).tolist()
            assert exactalg._unique_rows(a).tolist() == expect
            big = exactalg._unique_rows(a.astype(object) * 2**70)
            assert big.tolist() == [[x * 2**70 for x in row] for row in expect]


class TestPrimesPastInt64:
    """Past p(p − 1) ≥ 2⁶³ the elimination runs on Python ints."""

    P = 4294967311  # the first prime past 2³²

    def test_dtype_bound(self):
        # 3037000493 is the largest prime with (p − 1)² + (p − 1) < 2⁶³
        assert exactalg._field_dtype(3037000493) is np.int64
        assert exactalg._field_dtype(3037000507) is object

    def test_cokernel_kills_its_relations(self):
        p = self.P
        rel = np.array([[1, 0], [p - 1, 1], [0, p - 1]])
        pres = cokernel(rel, (p,) * 3)
        assert pres.moduli == (p,)
        for c in range(2):
            assert project(pres, rel[:, c]) == (0,)
        assert project(pres, (1, 0, 0)) == project(pres, (0, 1, 0)) == project(pres, (0, 0, 1)) != (0,)
        assert project(pres, lift(pres, (p - 2,))) == (p - 2,)

    @pytest.mark.parametrize("p", [7, P])
    def test_ring_law_witnesses(self, p):
        # past k·p² ≥ 2⁶² the law check runs on Python ints, and names the
        # same first failing basis triple and unit index as in int64
        table = (
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
            ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
        )
        with pytest.raises(NotAssociative) as err:
            construct_ring((p,) * 3, table, (1, 0, 0))
        assert err.value.triple == (1, 1, 1)
        with pytest.raises(UnitLawFails) as err:
            construct_ring((p, p), (((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 0))
        assert err.value.where == 1

    @pytest.mark.parametrize("p", [7, 2147483647, P])
    def test_group_ring_quotient_is_the_prime_field(self, p):
        # Z/p[C3] modulo 1 − g is Z/p
        zp = construct_standard_ring("modular", {"n": p}).ring
        c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        base = construct_standard_ring("group_ring", {"base": zp, "cayley": c3}).ring
        quotient = construct_standard_ring("quotient", {"base": base, "ideal": [(1, p - 1, 0)]})
        assert quotient.ring.moduli == (p,)


# Each corruption patches one stage of `cokernel` or `subgroup_basis` by
# assignment, so that a fresh `python -O` process can run it too.
CORRUPTIONS = """
import dataclasses
from hsep import exactalg

smith, rref, cokernel = exactalg._smith, exactalg._rref, exactalg.cokernel


def trivial_diagonal(rows, n, m, modulus):
    d, U, W = smith(rows, n, m, modulus)
    return (1,) * len(d), U, W


def shifted_howell_entry(rows, q):
    H, pivots = rref(rows, q)
    H = H.copy()
    H[0, -1] = (H[0, -1] + 1) % q
    return H, pivots


def doubled_moduli(relations, moduli):
    pres = cokernel(relations, moduli)
    return dataclasses.replace(pres, moduli=tuple(2 * m for m in pres.moduli))


CORRUPTIONS = {"_smith": trivial_diagonal, "_rref": shifted_howell_entry, "cokernel": doubled_moduli}
"""
# (stage corrupted, call, the gate's message)
GATES = [
    ("_smith", "cokernel(np.array([[2], [0]]), (4, 4))", "the invariant factors miss the order of the cokernel"),
    ("_smith", "subgroup_basis(np.array([[2]]), (4,))", "the invariant factors miss the order of the cokernel"),
    ("_rref", "cokernel(np.array([[1], [1]]), (4, 4))", "the presentation does not kill its relations or lift its coordinates"),
    ("_rref", "subgroup_basis(np.array([[1, 1]]), (4, 4))", "the row reduction is not a Howell form of the vectors"),
    ("cokernel", "subgroup_basis(np.array([[2, 1]]), (4, 4))", "the subgroup orders miss the order of its Howell form"),
]


class TestSmithGates:
    """`cokernel` checks its presentation against the Howell form's order
    and its own relations, and `subgroup_basis` checks its Howell form and
    the orders it reads off `cokernel`.  A corrupt Smith diagonal, Howell
    form or cokernel raises, also under -O."""

    @pytest.mark.parametrize("stage, call, message", GATES, ids=["smith-cokernel", "smith-subgroup", "howell-cokernel", "howell-subgroup", "orders-subgroup"])
    def test_corruption_raises(self, stage, call, message, monkeypatch):
        scope = {}
        exec(CORRUPTIONS, scope)
        monkeypatch.setattr(exactalg, stage, scope["CORRUPTIONS"][stage])
        with pytest.raises(ConstructionCheckFailed, match="^%s$" % message):
            eval(call, {"np": np, "cokernel": exactalg.cokernel, "subgroup_basis": subgroup_basis})

    def test_uncorrupted_calls_pass(self):
        for _, call, _ in GATES:
            eval(call, {"np": np, "cokernel": cokernel, "subgroup_basis": subgroup_basis})

    def test_gate_fires_under_optimize(self):
        script = CORRUPTIONS + (
            "import sys\n"
            "import numpy as np\n"
            "for stage, call in %r:\n"
            "    setattr(exactalg, stage, CORRUPTIONS[stage])\n"
            "    try:\n"
            "        eval(call, {'np': np, 'cokernel': exactalg.cokernel, 'subgroup_basis': exactalg.subgroup_basis})\n"
            "    except exactalg.ConstructionCheckFailed as err:\n"
            "        print('optimize=%%d raised: %%s' %% (sys.flags.optimize, err))\n"
            "    setattr(exactalg, stage, {'_smith': smith, '_rref': rref, 'cokernel': cokernel}[stage])\n"
        ) % ([(stage, call) for stage, call, _ in GATES],)
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["optimize=1 raised: %s" % message for _, _, message in GATES]


def random_matrix(rng, n, m, bound):
    """An n × m integer array with entries in [−bound, bound]: int64, or
    Python ints once bound passes int64."""
    values = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    return np.array(values, dtype=np.int64 if bound < 2**63 else object).reshape(n, m)


class TestSolveModularSystem:
    def test_single_congruence(self):
        sol = solve_modular_system(mat([[1]]), [1], [2])
        assert not sol.is_empty
        assert sol.members() == [(1,)]

    def test_parity_obstruction(self):
        sol = solve_modular_system(mat([[2]]), [1], [4])
        assert sol.is_empty
        assert sol.size == 0

    def test_two_unknowns_kernel(self):
        # oracle: enumerate all 4 pairs mod 2
        sol = solve_modular_system(mat([[1, 1]]), [0], [2])
        expect = sorted(
            (x, y) for x in range(2) for y in range(2) if (x + y) % 2 == 0
        )
        assert sol.size == 2
        assert sol.members() == expect

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_modular_system(mat([[1, 1]]), [0, 1], [2])

    def test_mixed_moduli_against_enumeration(self):
        rng = random.Random(99)
        for _ in range(40):
            n_x = rng.randint(1, 3)
            n_eq = rng.randint(1, 3)
            mods = [rng.choice([2, 3, 4, 6]) for _ in range(n_eq)]
            a = np.array([[rng.randint(-5, 5) for _ in range(n_x)] for _ in range(n_eq)])
            b = [rng.randint(-5, 5) for _ in range(n_eq)]
            sol = solve_modular_system(a, b, mods)
            L = math.lcm(*mods)
            brute = sorted(
                x
                for x in itertools.product(range(L), repeat=n_x)
                if all(
                    (sum(a[i, j] * x[j] for j in range(n_x)) - b[i]) % mods[i] == 0
                    for i in range(n_eq)
                )
            )
            assert sol.size == len(brute)
            if brute:
                assert sol.members() == brute
                for member in sol.members():
                    assert verify_member(sol, member)

    def test_unknown_moduli_ambient(self):
        # x == 0 mod 2 with x ranging over Z/4: solutions {0, 2}
        sol = solve_modular_system(
            mat([[1]]), [0], [2], unknown_moduli=[4]
        )
        assert sol.members() == [(0,), (2,)]

    def test_ill_defined_unknown_moduli_rejected(self):
        with pytest.raises(ValueError):
            solve_modular_system(
                mat([[1]]), [0], [4], unknown_moduli=[2]
            )

    @pytest.mark.parametrize("scale", [1, 2**64], ids=["int64", "past-int64"])
    def test_ill_defined_in_the_last_row_only(self, scale):
        # row i is well defined when A[i, j]·M_j ≡ 0 (mod m_i) for every j;
        # rows 0 and 1 are, and row 2 fails on 1·M_0 mod m_2
        a = np.array([[1, 0], [0, 4], [1, 1]], dtype=np.int64)
        unknown = [2 * scale, 2 * scale]
        mods = [2 * scale, 4 * scale, 4 * scale]
        with pytest.raises(ValueError, match="^system is not well defined modulo the unknown moduli$"):
            solve_modular_system(a, [0, 0, 0], mods, unknown_moduli=unknown)
        # without it: x_0 ≡ 0 (mod 2·scale) and 4·x_1 ≡ 0 (mod 4·scale)
        sol = solve_modular_system(a[:2], [0, 0], mods[:2], unknown_moduli=unknown)
        assert sol.size == 2 and contains(sol, (0, scale)) and not contains(sol, (1, 0))

    def test_well_definedness_product_only_when_needed(self, monkeypatch):
        # A·diag(M) ≡ 0 row by row holds when lcm(moduli) divides every
        # unknown modulus, so its product is skipped there; a non-dividing
        # M still has it computed, and an ill-defined row still raises
        products, original = [], exactalg.exact_einsum
        monkeypatch.setattr(exactalg, "exact_einsum", lambda spec, *arrays: products.append(spec) or original(spec, *arrays))
        solve_modular_system(mat([[1, 3], [2, 1]]), [1, 0], [2, 4], unknown_moduli=[4, 8])
        assert "ij,j->ij" not in products
        sol = solve_modular_system(mat([[2, 1]]), [0], [4], unknown_moduli=[2, 4])
        assert "ij,j->ij" in products and sol.size == 2
        with pytest.raises(ValueError, match="^system is not well defined modulo the unknown moduli$"):
            solve_modular_system(mat([[1, 1]]), [0], [4], unknown_moduli=[2, 4])

    def test_contains(self):
        sol = solve_modular_system(mat([[1, 1]]), [0], [2])
        assert contains(sol, (1, 1))
        assert not contains(sol, (1, 0))

    def test_members_cap(self):
        sol = solve_modular_system(np.zeros((0, 4), dtype=np.int64), [], [], unknown_moduli=[2, 2, 2, 2])
        assert sol.size == 16
        with pytest.raises(CapExceeded):
            sol.members(cap=8)

    def test_members_past_int64(self):
        # x_0 ≡ 0 (mod 2⁶⁵) and 4·x_1 ≡ 0 (mod 2⁶⁶), x_1 read mod 2⁶⁵
        sol = solve_modular_system(np.array([[1, 0], [0, 4]]), [0, 0], [2**65, 2**66], unknown_moduli=[2**65, 2**65])
        assert sol.member_array().dtype == object
        assert sol.members() == [(0, 0), (0, 2**64)]
        assert all(verify_member(sol, member) for member in sol.members())

    @pytest.mark.parametrize(
        "modulus, dtype",
        # the largest modulus times the largest kernel order (2 here)
        # reaches 2⁶³ at 2⁶²
        [(8, np.int64), (2**62 - 2, np.int64), (2**62, object)],
    )
    def test_member_dtype(self, modulus, dtype):
        sol = solve_modular_system(np.array([[2, 0]], dtype=object), [0], [modulus], unknown_moduli=[modulus, 1])
        assert sol.kernel_orders == (2,)
        assert sol.member_array().dtype == dtype
        assert sol.members() == [(0, 0), (modulus // 2, 0)]


def einsum_oracle(spec, *operands):
    """np.einsum by a loop over every index point, in Python ints or
    `Fraction`s, as nested lists of the output's shape."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    sizes = {}
    for letters, a in zip(inputs, operands):
        sizes.update(zip(letters, a.shape))
    letters = sorted(sizes)
    nested = [a.tolist() for a in operands]
    out = {}
    for point in itertools.product(*(range(sizes[c]) for c in letters)):
        at = dict(zip(letters, point))
        term = 1
        for ins, entry in zip(inputs, nested):
            for c in ins:
                entry = entry[at[c]]
            term *= entry
        key = tuple(at[c] for c in output)
        out[key] = out.get(key, 0) + term
    flat = [out.get(key, 0) for key in itertools.product(*(range(sizes[c]) for c in output))]
    return np.array(flat, dtype=object).reshape(tuple(sizes[c] for c in output)).tolist()


class TestExactEinsum:
    """int64 exactly when every operand is a signed-integer array and
    (summed terms)·Π(largest |entry|) ≤ 2⁶², against a Python-int loop."""

    @staticmethod
    def random_case(rng):
        letters = "abcde"
        sizes = {c: rng.choice([0, 1, 1, 2, 2, 3]) for c in letters}
        specs = [rng.sample(letters, rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        used = sorted(set().union(*specs))
        output = rng.sample(used, rng.randint(0, len(used)))
        top = rng.choice([5, 2**15, 2**20, 2**31, 2**62])
        operands = [
            np.array([rng.randint(-top, top) for _ in range(math.prod(sizes[c] for c in ins))], dtype=np.int64).reshape(
                tuple(sizes[c] for c in ins)
            )
            for ins in specs
        ]
        spec = ",".join("".join(ins) for ins in specs) + "->" + "".join(output)
        return spec, operands, sizes

    def test_against_a_python_loop(self):
        rng = random.Random(20180611)
        dtypes = set()
        for _ in range(400):
            spec, operands, sizes = self.random_case(rng)
            out = exact_einsum(spec, *operands)
            # a full contraction of object arrays comes back as a Python scalar
            dtype = getattr(out, "dtype", np.dtype(object))
            inputs, output = spec.split("->")
            terms = math.prod(n for c, n in sizes.items() if c in inputs and c not in output)
            bound = terms * math.prod(int(abs(a).max(initial=0)) for a in operands)
            assert dtype == (np.int64 if bound <= 2**62 else object), spec
            assert (out.tolist() if dtype != object or output else out) == einsum_oracle(spec, *operands), spec
            dtypes.add(dtype)
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    def test_at_the_bound(self):
        # a bound of exactly 2⁶² stays int64: one term of 2⁶², or two of 2⁶¹
        assert exact_einsum("i->i", np.array([2**62])).dtype == np.int64
        assert exact_einsum("ij,jk->ik", np.array([[2**31, 2**31]]), np.array([[2**30], [2**30]])).dtype == np.int64
        # a bound of 2⁶² + 1 does not
        past = exact_einsum("i,i->i", np.array([2**62 + 1]), np.array([1]))
        assert past.dtype == object and past.tolist() == [2**62 + 1]

    def test_summed_terms_count(self):
        # each product is 2⁶², the sum of two is 2⁶³, which int64 would wrap
        out = exact_einsum("ij,j->i", np.array([[2**31, 2**31]]), np.array([2**31, 2**31]))
        assert out.dtype == object and out.tolist() == [2**63]

    def test_object_operands_are_never_cast(self):
        small = np.array([[1, 2], [3, 4]], dtype=object)
        out = exact_einsum("ij,jk->ik", small, np.eye(2, dtype=np.int64))
        assert out.dtype == object and out.tolist() == [[1, 2], [3, 4]]
        third = np.array([[Fraction(1, 3), Fraction(2, 3)]], dtype=object)
        out = exact_einsum("ij,jk->ik", third, np.array([[3], [6]]))
        assert out.dtype == object and out.tolist() == [[5]]
        assert exact_einsum("i,i->i", np.array([Fraction(1, 2)], dtype=object), np.array([1])).tolist() == [Fraction(1, 2)]

    def test_zero_size_operands(self):
        out = exact_einsum("ij,jk->ik", np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64))
        assert out.dtype == np.int64 and out.tolist() == [[0] * 3] * 2
        assert exact_einsum("ij,jk->ik", np.zeros((0, 2), dtype=object), np.ones((2, 1), dtype=np.int64)).shape == (0, 1)


class TestSubgroupBasis:
    def test_independent_generators(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 3)
            M = [rng.choice([2, 3, 4, 6]) for _ in range(n)]
            nv = rng.randint(0, 3)
            vecs = [[rng.randrange(M[j]) for j in range(n)] for _ in range(nv)]
            gens, orders = subgroup_basis(mat(vecs, n), M)
            # brute-force closure of the generated subgroup
            group = {tuple([0] * n)}
            frontier = [tuple(v) for v in vecs]
            while frontier:
                nxt = []
                for g in frontier:
                    for h in list(group):
                        s = tuple((a + b) % m for a, b, m in zip(g, h, M))
                        if s not in group:
                            group.add(s)
                            nxt.append(s)
                frontier = nxt
            assert math.prod(orders) == len(group)
            built = set()
            for coeffs in itertools.product(*(range(o) for o in orders)):
                v = tuple(
                    sum(c * g[j] for c, g in zip(coeffs, gens)) % M[j]
                    for j in range(n)
                )
                built.add(v)
            assert built == group
