"""Exact linear algebra kernels, checked against independent oracles."""

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import solve_census
from finring_util import elements, lift, project
from sepkit_util import contains, verify_member
from talg_util import rref as oracle_rref

from hsep import exactalg, sepkit
from hsep.exactalg import (
    CapExceeded,
    ConstructionCheckFailed,
    DimensionMismatch,
    cokernel,
    exact_einsum,
    smith_normal_form,
    solve_modular_system,
    subgroup_basis,
)
from hsep.finring import NotAssociative, UnitLawFails, construct_ring, construct_standard_ring, hom_from_doc
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


def full_u_inv(s):
    """The full U⁻¹ of a Smith form, replayed onto the identity."""
    return s.u_inverse_dot(np.eye(s.shape[0], dtype=np.int64))


def check_decomposition(a):
    """U·Λ = diag(d)·Zⁿ for the column lattice Λ of a: every row i of U·a
    is a multiple of d_i (zero past the diagonal), and the rows divided by
    d_i have determinantal divisors all 1, so they extend to a unimodular
    matrix; U is unimodular."""
    s = smith_normal_form(a)
    n, m = a.shape
    diag = s.diagonal
    assert len(diag) == min(n, m)
    ua = (s.U @ a.astype(object)).tolist()
    d = list(diag) + [0] * (n - len(diag))
    assert all((all(x % di == 0 for x in row) if di else not any(row)) for row, di in zip(ua, d))
    scaled = [[x // di for x in row] for row, di in zip(ua, d) if di]
    if scaled and m:
        assert set(determinantal_divisors(mat(scaled, m))) == {1}
    assert (s.U @ full_u_inv(s)).tolist() == np.eye(n, dtype=np.int64).tolist()
    assert abs(determinant(s.U.tolist())) == 1
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    return s


class TestSmithNormalForm:
    def test_frozen_example(self):
        # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |16-24| = 8
        a = mat([[2, 4], [6, 8]])
        s = check_decomposition(a)
        assert s.diagonal == (2, 4)
        assert determinantal_divisors(a) == (2, 4)

    def test_identity(self):
        for n in (1, 2, 5):
            s = check_decomposition(np.eye(n, dtype=np.int64))
            assert s.diagonal == (1,) * n

    def test_zero(self):
        s = check_decomposition(np.zeros((3, 4), dtype=np.int64))
        assert s.diagonal == (0, 0, 0)

    def test_rectangular_and_negative(self):
        a = np.array([[0, -3, 6], [9, 12, -15]], dtype=np.int64)
        s = check_decomposition(a)
        assert s.diagonal == determinantal_divisors(a)

    def test_random_matrices_match_oracle(self):
        rng = random.Random(20240817)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            a = mat([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], m)
            s = check_decomposition(a)
            assert s.diagonal == determinantal_divisors(a)

    def test_determinism(self):
        a = mat([[4, 6, 2], [6, 0, 8], [2, 8, 0]])
        first, second = smith_normal_form(a), smith_normal_form(a)
        assert first.diagonal == second.diagonal
        assert np.array_equal(first.U, second.U)

    def test_large_diagonal_input_is_fast(self):
        n = 400
        s = smith_normal_form(np.diag(np.full(n, 4)))
        assert s.diagonal == (4,) * n


class TestLatticeModulus:
    """When the columns hold a nonzero multiple of every unit vector, the
    column lattice holds N·Zⁿ for their lattice modulus N, and the Smith
    form reduces its entries mod N once they reach N⁴.  Its diagonal and
    U must still be the lattice's, by the determinantal-divisor oracle."""

    def test_detected(self):
        assert exactalg._lattice_modulus(mat([[5, 6, 0, 1], [0, 0, 4, 1]])) == 4
        assert exactalg._lattice_modulus(mat([[2, 1], [0, 1]])) is None
        assert exactalg._lattice_modulus(np.zeros((0, 3), dtype=np.int64)) is None

    @pytest.mark.parametrize("bound", [10**6, 2**70], ids=["int64", "past-int64"])
    def test_matches_the_oracle(self, bound):
        rng = random.Random(bound % 997)
        for _ in range(40):
            n, k = rng.randint(1, 4), rng.randint(0, 3)
            mods = [rng.choice([1, 2, 4, 6, 9, 12]) for _ in range(n)]
            a = np.hstack([random_matrix(rng, n, k, bound), np.diag(mods).astype(object)])
            if rng.random() < 0.5:  # a relation that is a multiple of one unit vector
                a = np.hstack([a, (rng.randint(1, 40) * np.eye(n, dtype=np.int64)[:, [rng.randrange(n)]]).astype(object)])
            s = check_decomposition(a)
            assert s.diagonal == determinantal_divisors(a)

    def test_lattice_of_everything(self):
        # 5·e_0 and 6·e_0, 5·e_1 and 6·e_1: the lattice is Z², N = 1
        a = mat([[5, 6, 0, 0, 3], [0, 0, 5, 6, 7]])
        assert exactalg._lattice_modulus(a) == 1
        assert check_decomposition(a).diagonal == (1, 1)

    def test_printed_form_moves_where_the_reduction_fires(self, monkeypatch):
        """`cokernel`'s presentation depends on the relation matrix, not
        only on its lattice, so the reduced Smith form prints other S⊗S
        coordinates than the exact one wherever the exact form grows past
        N⁴.  Among the changed-basis T2 → M2 reports over Z/4 … Z/12 and
        T3 → M3 over Z/4 (`solve_census.extension`), that is exactly these
        six; every verdict and count agrees on all of them."""
        cases = [("T", 2, q, s) for q in (4, 6, 8, 9, 10, 12) for s in range(4)] + [("T", 3, 4, s) for s in range(4)]
        printed = ("locus_particular", "h_witnesses")
        moved = set()
        # uncached, so each report builds its S⊗S under its own Smith form
        monkeypatch.setattr(sepkit, "tensor_power", sepkit.tensor_power.__wrapped__)
        for case in cases:
            docs = []
            for modulus in (exactalg._lattice_modulus, lambda a: None):
                with monkeypatch.context() as patch:
                    patch.setattr(exactalg, "_lattice_modulus", modulus)
                    docs.append(verdict_to_doc(h_separability_report(solve_census.extension(*case))))
            reduced, exact = ({k: v for k, v in doc.items() if k not in printed} for doc in docs)
            assert reduced == exact and len(docs[0]["h_witnesses"]) == len(docs[1]["h_witnesses"])
            if docs[0] != docs[1]:
                moved.add(case)
        assert moved == {("T", 2, 9, 2), ("T", 2, 9, 3), ("T", 2, 10, 1), ("T", 2, 10, 2), ("T", 2, 12, 3), ("T", 3, 4, 2)}


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
            lambda: smith_normal_form(bad),
            lambda: cokernel(bad, (4,)),
            lambda: subgroup_basis(bad, (4, 4)),
            lambda: solve_modular_system(bad, [0], [4]),
        ):
            with pytest.raises(DimensionMismatch):
                call()

    def test_empty_shapes_keep_their_width(self):
        s = smith_normal_form(np.zeros((0, 3), dtype=np.int64))
        assert s.diagonal == () and s.U.shape == full_u_inv(s).shape == (0, 0)
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

    def test_prime_path_equivalent_to_snf_path(self):
        # the GF(p) shortcut and the Smith-normal-form route must induce
        # the same quotient: equal invariant factors, equal class relation
        rng = random.Random(11)
        for _ in range(25):
            g = rng.randint(1, 5)
            p = rng.choice([2, 3, 5])
            ncols = rng.randint(0, 4)
            rel = mat([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(g)], ncols)
            fast = cokernel(rel, (p,) * g)
            snf = smith_normal_form(np.hstack([rel, np.diag(np.full(g, p))]))
            d = snf.diagonal
            keep = [i for i in range(g) if d[i] != 1]
            assert fast.moduli == tuple(d[i] for i in keep)

            def snf_project(vec):
                img = snf.U @ np.array(vec, dtype=object)
                return tuple(img[i] % d[i] for i in keep)

            for _ in range(30):
                x = [rng.randrange(p) for _ in range(g)]
                y = [rng.randrange(p) for _ in range(g)]
                assert (project(fast, x) == project(fast, y)) == (
                    snf_project(x) == snf_project(y)
                )


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

    def test_dropped_order_one_generator(self):
        pres = cokernel(np.zeros((3, 0), dtype=np.int64), (1, 2, 4))
        assert not pres.is_identity and pres.moduli == (2, 4)
        assert pres.P.tolist() == [[0, 1, 0], [0, 0, 1]]
        assert pres.L.tolist() == [[0, 0], [1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "rel, mods",
        [
            ([[1], [1]], (2, 2)),  # the prime path finds a pivot
            ([[0], [0]], (4, 4)),  # the Smith path, even though P comes out as I
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
        # P·x and L·y take products past 2⁶³: the arrays hold Python ints
        # and agree with the Smith transforms computed directly
        mods = (2**62, 3 * 2**62)
        rel = np.array([[2**40 + 1], [5]])
        pres = cokernel(rel, mods)
        assert pres.P.dtype == object and pres.L.dtype == object
        snf = smith_normal_form(np.hstack([rel, np.diag(np.array(mods, dtype=object))]))
        d = snf.diagonal
        keep = [i for i in range(2) if d[i] != 1]
        assert pres.moduli == tuple(d[i] for i in keep)
        assert int(pres.P.max()) * (max(mods) - 1) >= 2**63
        assert int(pres.L.max()) * (max(pres.moduli) - 1) >= 2**63
        inverse = full_u_inv(snf)
        rng = random.Random(3)
        for _ in range(50):
            x = [rng.randrange(-(2**70), 2**70) for _ in range(2)]
            assert project(pres, x) == tuple((snf.U @ np.array(x, dtype=object))[i] % d[i] for i in keep)
            y = [rng.randrange(d[i]) for i in keep]
            lifted = tuple(sum(inverse[r, i] * yi for i, yi in zip(keep, y)) % mods[r] for r in range(2))
            assert lift(pres, y) == lifted
            assert project(pres, lifted) == tuple(y)


# (rows, cols), with the empty shapes of a degree that has no words
ROW_SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (2, 5), (4, 3), (5, 5), (6, 4)]


class TestRowReduction:
    """`_rref` and `_kernel` over GF(2), GF(3) and GF(7), on seeded
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

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_kernel(self, p):
        for a in self.matrices(p):
            K, free = exactalg._kernel(a, p)
            cols = a.shape[1]
            _, expect_pivots = self.oracle(p, a)
            assert len(expect_pivots) + len(free) == cols
            assert list(free) == [c for c in range(cols) if c not in expect_pivots]
            assert K.shape == (cols, len(free))
            assert K[free].tolist() == np.eye(len(free), dtype=np.int64).tolist()
            assert not (a.astype(object) @ K.astype(object) % p).any()
            assert ((0 <= K) & (K < p)).all()


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


class TestSmithGates:
    """The invariant factors `cokernel` and `subgroup_basis` read off a
    Smith form are checked, and a corrupt form raises, also under -O."""

    @staticmethod
    def corrupt_diagonal(monkeypatch, value):
        original = exactalg.smith_normal_form

        def corrupted(a):
            snf = original(a)
            return dataclasses.replace(snf, diagonal=tuple(value(d) for d in snf.diagonal))

        monkeypatch.setattr(exactalg, "smith_normal_form", corrupted)

    def test_cokernel_zero_invariant_factor(self, monkeypatch):
        self.corrupt_diagonal(monkeypatch, lambda d: 0)
        with pytest.raises(ConstructionCheckFailed, match="zero invariant factor"):
            cokernel(np.zeros((2, 0), dtype=np.int64), (2, 3))

    def test_subgroup_zero_invariant_factor(self, monkeypatch):
        self.corrupt_diagonal(monkeypatch, lambda d: 0)
        with pytest.raises(ConstructionCheckFailed, match="zero invariant factor"):
            subgroup_basis(np.array([[1]]), (4,))

    def test_subgroup_lattice_misses_a_modulus(self, monkeypatch):
        # span((1), (4)) is Z with d = 1; d = 8 claims the lattice 8Z,
        # which does not hold the modulus 4
        self.corrupt_diagonal(monkeypatch, lambda d: 8 * d)
        with pytest.raises(ConstructionCheckFailed, match="does not span the ambient moduli"):
            subgroup_basis(np.array([[1]]), (4,))

    def test_gate_fires_under_optimize(self):
        script = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "from hsep import exactalg\n"
            "original = exactalg.smith_normal_form\n"
            "def corrupted(a):\n"
            "    snf = original(a)\n"
            "    return dataclasses.replace(snf, diagonal=(0,) * len(snf.diagonal))\n"
            "exactalg.smith_normal_form = corrupted\n"
            "try:\n"
            "    exactalg.cokernel(np.zeros((2, 0), dtype=np.int64), (2, 3))\n"
            "except exactalg.ConstructionCheckFailed as err:\n"
            "    print('optimize=%d raised: %s' % (sys.flags.optimize, err))\n"
        )
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "optimize=1 raised: the generator moduli leave a zero invariant factor"


def random_matrix(rng, n, m, bound):
    """An n × m integer array with entries in [−bound, bound]: int64, or
    Python ints once bound passes int64."""
    values = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    return np.array(values, dtype=np.int64 if bound < 2**63 else object).reshape(n, m)


class TestSmithLog:
    """A Smith form holds the log of its row operations.  Each accessor
    replays it onto what a caller reads and must match the full U and U⁻¹,
    which are built from the same log and checked by U·Λ = diag(d)·Zⁿ,
    U·U⁻¹ = I and det = ±1."""

    @pytest.mark.parametrize("bound", [9, 2**70], ids=["int64", "past-int64"])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3), (5, 5)])
    def test_accessors_match_the_full_transforms(self, shape, bound):
        rng = random.Random(hash((shape, bound)) % 2**32)
        n, m = shape
        for _ in range(8):
            s = check_decomposition(random_matrix(rng, n, m, bound))
            x = random_matrix(rng, n, 3, bound)
            assert s.u_dot(x).tolist() == (s.U @ x.astype(object)).tolist()
            assert s.u_dot(x[:, 0]).tolist() == (s.U @ x[:, 0].astype(object)).tolist()
            assert s.u_inverse_dot(x).tolist() == (full_u_inv(s) @ x.astype(object)).tolist()
            assert s.u_inverse_dot(x[:, 1]).tolist() == (full_u_inv(s) @ x[:, 1].astype(object)).tolist()
            rows = rng.sample(range(n), rng.randint(0, n))
            assert s.u_rows(rows).shape == (len(rows), n)
            assert s.u_rows(rows).tolist() == s.U[rows].tolist()
            for out in (s.u_dot(x), s.u_inverse_dot(x), s.u_rows(rows)):
                assert out.dtype == object and all(type(v) is int for v in out.flat)

    def test_operands_must_fit(self):
        s = smith_normal_form(mat([[2, 4, 4], [6, 8, 0]]))
        for call in (lambda: s.u_dot(np.zeros((3, 1), dtype=np.int64)), lambda: s.u_inverse_dot(np.zeros(3, dtype=np.int64))):
            with pytest.raises(DimensionMismatch):
                call()

    @pytest.mark.parametrize(
        "a, transforms",
        [
            (
                [[4, 6, 2], [6, 0, 8], [2, 8, 0]],
                (
                    (2, 2, 16),
                    [[1, 0, 0], [0, 0, 1], [-4, 1, 5]],
                    [[1, 0, 0], [4, -5, 1], [0, 1, 0]],
                ),
            ),
            (
                [[0, -3, 6, 4], [9, 12, -15, 2]],
                (
                    (1, 9),
                    [[0, 1], [-1, 38]],
                    [[38, -1], [1, 0]],
                ),
            ),
        ],
    )
    def test_transforms_are_pinned(self, a, transforms):
        # the pivot rule and the order of the operations fix every entry
        # of the row transform, not only the diagonal
        s = smith_normal_form(mat(a))
        assert (s.diagonal, s.U.tolist(), full_u_inv(s).tolist()) == transforms


class TestSmithReads:
    """`cokernel` and `subgroup_basis` replay the row log onto what they
    read, and `solve_modular_system` runs a Smith form only inside
    `subgroup_basis`.  A Smith form builds no full U⁻¹, and only
    `subgroup_basis` builds a full U."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = {"smith": 0}
        full = exactalg.SmithDecomposition.__dict__["U"].func

        def counted(self):
            built["U"] = built.get("U", 0) + 1
            return full(self)

        monkeypatch.setattr(exactalg.SmithDecomposition, "U", property(counted))
        smith = exactalg._smith

        def counted_smith(*args):
            built["smith"] += 1
            return smith(*args)

        monkeypatch.setattr(exactalg, "_smith", counted_smith)
        return built

    def test_cokernel(self, built):
        rng = random.Random(17)
        for _ in range(20):
            g = rng.randint(1, 5)
            rel = random_matrix(rng, g, rng.randint(0, 4), 12)
            cokernel(rel, [rng.choice([4, 6, 8, 9, 12]) for _ in range(g)])
        assert built["smith"] >= 15 and set(built) == {"smith"}

    def test_subgroup_basis(self, built):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 4)
            subgroup_basis(random_matrix(rng, rng.randint(1, 4), n, 12), [rng.choice([4, 6, 8]) for _ in range(n)])
        assert built["smith"] == 40 and set(built) == {"smith", "U"}

    def test_solve_modular_system(self, built):
        rng = random.Random(23)
        for _ in range(20):
            n_eq, n_x = rng.randint(1, 3), rng.randint(1, 3)
            solve_modular_system(random_matrix(rng, n_eq, n_x, 12), [rng.randint(0, 11) for _ in range(n_eq)], [rng.choice([6, 10, 12]) for _ in range(n_eq)])
        assert built["smith"] > 0 and set(built) == {"smith", "U"}

    def test_sep_report(self, built):
        hom = hom_from_doc(json.loads((ROOT / "tests" / "golden" / "sep-homs" / "z8-to-z4.json").read_text()), ROOT)
        h_separability_report(hom)
        assert built["smith"] > 0 and set(built) <= {"smith", "U"}


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
