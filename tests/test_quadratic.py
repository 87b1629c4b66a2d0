"""`exactalg.solve_quadratic` and the two searches built on it.

The solver is checked against brute force on random systems with mixed
generator orders and composite moduli; `sepkit.h_idempotents` and
`sepkit.find_ring_retractions` are checked against the enumeration
filters of `quadratic_util` on ring extensions.  Its gate must catch a
corrupted form, also under `python -O`, and its row reductions are
counted on the large scalar extensions."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpus_util import build_corpus, diagonal_into_matrix, zmod
from finring_util import _unit_vector
from quadratic_util import brute_roots, heavy_members, retraction_space, retractions

from hsep import exactalg
from hsep.exactalg import (
    AffineSolutionSet,
    CapExceeded,
    ConstructionCheckFailed,
    DimensionMismatch,
    solve_quadratic,
    subgroup_basis,
)
from hsep.finring import check_ring_hom, construct_ring, construct_standard_ring
from hsep.sepkit import DEFAULT_CAP, find_ring_retractions, h_idempotents, h_separability_report, tensor_power

ROOT = Path(__file__).resolve().parent.parent
HOMS, _ = build_corpus()


def matrix_scalar(n, m):
    return construct_standard_ring("matrix", {"n": n, "base": zmod(m)}).homs["scalar"]


def triangular(n, m):
    return construct_standard_ring("triangular", {"n": n, "base": zmod(m)}).homs["into_matrix"]


def extension_cases():
    cases = dict(HOMS)
    cases.update({"M2(Z/%d)" % m: matrix_scalar(2, m) for m in range(2, 10)})
    cases.update({"M3(Z/%d)" % m: matrix_scalar(3, m) for m in (2, 3, 4)})
    cases.update({"T2(Z/%d)" % m: triangular(2, m) for m in range(2, 7)})
    cases["T3(Z/2)"] = triangular(3, 2)
    cases.update({"D%d(Z/%d)" % (n, m): diagonal_into_matrix(n, m) for n, m in [(2, 2), (3, 2), (2, 6), (3, 4), (2, 8)]})
    z4z9 = construct_standard_ring("product", {"factors": [zmod(4), zmod(9)]}).ring
    cases["Z/36->Z/4xZ/9"] = check_ring_hom(((1, 1),), zmod(36), z4z9)
    cases["Z/2->0"] = check_ring_hom(((),), zmod(2), construct_ring((), (), (), "0"))
    return cases


CASES = extension_cases()


# -- the solver against brute force -----------------------------------------


def random_system(rng, coord, mods, vectors):
    """An affine set in ⊕ Z/coord and quadratic forms on it, each well
    defined modulo coord: the coefficient of x_j·x_k is a multiple of
    m/gcd(m, coord_j) and of m/gcd(m, coord_k), of x_j one of m/gcd(m, coord_j).
    The constants make a random member a root."""
    w = len(coord)
    gens, orders = subgroup_basis(np.array(vectors, dtype=np.int64), coord)
    particular = tuple(rng.randrange(c) for c in coord)
    affine = AffineSolutionSet(coord, particular, gens, orders)
    step = [[m // np.gcd(m, c) for c in coord] for m in mods]
    A = np.zeros((len(mods), w + 1, w + 1), dtype=np.int64)
    for r, m in enumerate(mods):
        for j in range(w):
            A[r, 0, j + 1] = step[r][j] * rng.randrange(m)
            for k in range(j, w):
                A[r, j + 1, k + 1] = np.lcm(step[r][j], step[r][k]) * rng.randrange(m)
    member = affine.member_array()[rng.randrange(affine.size)]
    xhat = np.concatenate([[1], member])
    A[:, 0, 0] = -np.einsum("u,ruv,v->r", xhat, A, xhat)
    W = np.zeros((w + 1, len(gens) + 1), dtype=np.int64)
    W[0, 0] = 1
    W[1:, 0] = particular
    W[1:, 1:] = np.array(gens, dtype=np.int64).reshape(len(gens), w).T
    return affine, np.einsum("ui,ruv,vj->rij", W, A, W), A


SHAPES = [
    ((4, 2, 12), (4, 6, 3)),
    ((36, 4, 9), (4, 9, 36, 12)),
    ((8, 8, 2), (8, 4)),
    ((5, 25), (25, 5)),
    ((6, 10, 15), (30, 2, 5, 3)),
    ((9, 27, 3), (27,)),
    ((16, 4), (16, 8)),
    ((7, 7, 7), (7, 7)),
]
# each has a modulus with a prime that divides no coordinate modulus
COPRIME_SHAPES = [
    ((4, 2, 12), (4, 21)),
    ((9, 3), (33, 117, 2)),
]
SHAPES += COPRIME_SHAPES


def coprime_part(m, n):
    """The largest divisor of m coprime to n."""
    while math.gcd(m, n) > 1:
        m //= math.gcd(m, n)
    return m


class TestSolverOracle:
    @pytest.mark.parametrize("coord, mods", SHAPES)
    def test_random_systems(self, coord, mods):
        rng = random.Random(repr((coord, mods)))
        mixed = False
        for _ in range(12):
            vectors = [[rng.randrange(c) for c in coord] for _ in range(len(coord))]
            affine, Q, A = random_system(rng, coord, mods, vectors)
            mixed |= len(set(affine.kernel_orders)) > 1
            want = brute_roots(affine, A, mods)
            got = solve_quadratic(affine, Q, mods)
            assert got.tolist() == want.tolist() and len(got)
        if len(set(coord)) > 1:
            assert mixed

    @pytest.mark.parametrize("coord, mods", COPRIME_SHAPES)
    def test_coprime_part_is_read_at_zero(self, coord, mods, monkeypatch):
        """F is constant in c modulo the primes that divide no kernel order:
        a constant shifted by 1 on such a row leaves no root, and the solver
        trial-divides nothing past the lcm of the kernel orders."""
        row = next(r for r, m in enumerate(mods) if coprime_part(m, math.lcm(*coord)) > 1)
        factor, bound = exactalg._prime_factors, []

        def below_the_orders(n):
            if n > bound[-1]:
                raise AssertionError("trial division of %d" % n)
            return factor(n)

        monkeypatch.setattr(exactalg, "_prime_factors", below_the_orders)
        rng = random.Random(repr((coord, mods, row)))
        for _ in range(12):
            vectors = [[rng.randrange(c) for c in coord] for _ in range(len(coord))]
            affine, Q, A = random_system(rng, coord, mods, vectors)
            bound.append(math.lcm(*affine.kernel_orders))
            assert solve_quadratic(affine, Q, mods).tolist() == brute_roots(affine, A, mods).tolist() != []
            Q[row, 0, 0] += 1
            A[row, 0, 0] += 1
            assert solve_quadratic(affine, Q, mods).tolist() == brute_roots(affine, A, mods).tolist() == []

    def test_zero_forms_keep_every_member(self):
        affine, Q, _ = random_system(random.Random(1), (4, 6), (12,), [[1, 0], [0, 1]])
        assert affine.kernel_orders == (2, 12)
        got = solve_quadratic(affine, np.zeros_like(Q), (12,))
        assert got.tolist() == affine.member_array().tolist()

    def test_no_forms_and_no_generators(self):
        affine = AffineSolutionSet((3,), (2,), (), ())
        assert solve_quadratic(affine, np.zeros((0, 1, 1), dtype=np.int64), ()).tolist() == [[2]]
        assert solve_quadratic(affine, np.ones((1, 1, 1), dtype=np.int64), (3,)).tolist() == []
        assert solve_quadratic(affine, np.full((1, 1, 1), 3, dtype=np.int64), (3,)).tolist() == [[2]]

    def test_python_ints_past_int64(self):
        # over 𝔽_q for a Mersenne prime q, products of three entries pass
        # 2⁶³: c1·c2 = 15, c1 = 5 and c2 = 3 leave the root (5, 3)
        q = 2**31 - 1
        affine = AffineSolutionSet((q, q), (0, 0), ((1, 0), (0, 1)), (q, q))
        forms = np.zeros((3, 3, 3), dtype=object)
        forms[0, 0, 0], forms[0, 1, 2] = -15, 1
        forms[1, 0, 0], forms[1, 0, 1] = -5, 1
        forms[2, 0, 0], forms[2, 0, 2] = -3, 1
        assert solve_quadratic(affine, forms, (q, q, q)).tolist() == [[5, 3]]
        # x − 2²⁰ ≡ 0 (mod 2²¹) at x = 2¹⁹·c, c ∈ Z/4: twenty Hensel steps
        # in Python ints, the last nineteen with no digit left to choose
        m = 2**21
        affine = AffineSolutionSet((m,), (0,), ((2**19,),), (4,))
        forms = np.array([[[-(2**20), 2**19], [0, 0]]], dtype=np.int64)
        assert solve_quadratic(affine, forms, (m,)).tolist() == [[2**20]]
        # the same past int64: 2⁶⁹·c − 2⁶⁹ ≡ 0 (mod 2⁷⁰), c ∈ Z/2, whose
        # sixty-nine Hensel steps after the first choose no digit
        m = 2**70
        affine = AffineSolutionSet((m,), (0,), ((2**69,),), (2,))
        forms = np.array([[[-(2**69), 2**69], [0, 0]]], dtype=object)
        assert solve_quadratic(affine, forms, (m,)).tolist() == [[2**69]]

    @pytest.mark.parametrize("coord, mods", SHAPES)
    def test_duplicated_and_zero_forms(self, coord, mods, monkeypatch):
        """Each form again, shifted by a multiple of its modulus, a zero
        form and a multiple of a modulus, shuffled in: the roots are the
        enumeration's, and the prime loop sees only the distinct forms."""
        seen, original = [], exactalg._prime_power_roots

        def counted(Q, b, e, q):
            seen.append(len(Q))
            return original(Q, b, e, q)

        monkeypatch.setattr(exactalg, "_prime_power_roots", counted)
        rng = random.Random(repr(("duplicates", coord, mods)))
        for _ in range(8):
            vectors = [[rng.randrange(c) for c in coord] for _ in range(len(coord))]
            affine, Q, A = random_system(rng, coord, mods, vectors)
            R = len(mods)
            shift = np.array([[[rng.randrange(-3, 4) * m for _ in range(Q.shape[2])] for _ in range(Q.shape[1])] for m in mods])
            Qs = np.concatenate([Q, Q + shift, np.zeros_like(Q[:1]), mods[0] * Q[:1]])
            As = np.concatenate([A, A, np.zeros_like(A[:1]), np.zeros_like(A[:1])])
            ms = mods + mods + (mods[0], mods[0])
            order = list(range(len(ms)))
            rng.shuffle(order)
            Qs, As, ms = Qs[order], As[order], tuple(ms[i] for i in order)
            seen.clear()
            assert solve_quadratic(affine, Qs, ms).tolist() == brute_roots(affine, As, ms).tolist() != []
            assert all(n <= R for n in seen)

    def test_distinct_forms(self):
        # F, F shifted by its modulus, zero, F under another modulus (the
        # same residues mod 2 as mod 4), a multiple of the modulus, and F
        # again: the first and fourth stay
        f = np.array([[1, 1], [0, 1]], dtype=np.int64)
        Q = np.stack([f, f + 4, 0 * f, f, 4 * f, f])
        assert exactalg._distinct_forms(Q, (4, 4, 4, 2, 4, 4)) == [0, 3]
        assert exactalg._distinct_forms(Q.astype(object), (4, 4, 4, 2, 4, 4)) == [0, 3]

    def test_a_dropped_form_is_still_checked(self, monkeypatch):
        # the solver sees no form, so every c is a root; c = 1 fails the
        # caller's form c ≡ 0 (mod 2)
        affine, forms = one_form()
        monkeypatch.setattr(exactalg, "_distinct_forms", lambda Q, mods: [])
        with pytest.raises(ConstructionCheckFailed, match="fails it"):
            solve_quadratic(affine, forms, (2,))

    def test_empty_affine_set(self):
        empty = AffineSolutionSet((2, 2), None, (), ())
        assert solve_quadratic(empty, np.zeros((1, 1, 1), dtype=np.int64), (2,)).shape == (0, 2)

    @pytest.mark.parametrize(
        "forms, mods",
        [
            (np.zeros((1, 2, 2), dtype=np.int64), (2,)),
            (np.zeros((1, 3, 3), dtype=np.int64), (2, 2)),
            (np.zeros((1, 3, 3), dtype=np.float64), (2,)),
            (np.zeros((3, 3), dtype=np.int64), (2,)),
        ],
    )
    def test_shape_errors(self, forms, mods):
        affine = AffineSolutionSet((2, 2), (0, 0), ((1, 0), (0, 1)), (2, 2))
        with pytest.raises(DimensionMismatch):
            solve_quadratic(affine, forms, mods)


# -- the searches against the enumeration filters ---------------------------


class TestHeavyOracle:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_witnesses_match_the_filter(self, name):
        t2 = tensor_power(CASES[name], 2)
        if t2.locus.is_empty:
            assert h_idempotents(t2) == ()
            return
        assert h_idempotents(t2) == heavy_members(t2)


class TestRetractionOracle:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_retractions_match_the_filter(self, name):
        hom = CASES[name]
        if retraction_space(hom).size > DEFAULT_CAP:
            with pytest.raises(CapExceeded):
                find_ring_retractions(hom)
            return
        got = [h.matrix for h in find_ring_retractions(hom)]
        assert got == [h.matrix for h in retractions(hom)]


# -- the diagonal extensions: heavy, non-central, not epi --------------------


def matrix_unit_witness(t2, n, j):
    """Coordinates of Σ_i E_ij⊗E_ji in S⊗_R S."""
    s = t2.hom.target
    unit = {lab: _unit_vector(s.k, c) for c, lab in enumerate(s.basis_labels)}
    total = np.zeros(t2.group.rank, dtype=np.int64)
    for i in range(1, n + 1):
        total += t2.pure(unit["E%d%d" % (i, j)], unit["E%d%d" % (j, i)])
    return tuple(int(x) for x in total % t2.np_moduli)


class TestDiagonalFixture:
    @pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4) for p in (2, 3, 5)])
    def test_matrix_unit_witnesses(self, n, p):
        hom = diagonal_into_matrix(n, p)
        verdict = h_separability_report(hom)
        t2 = tensor_power(hom, 2)
        assert verdict.is_h_separable is True and not verdict.is_ring_epi
        assert not verdict.notes["image_central"]
        assert verdict.notes["h_decided_by"] == "enumeration"
        assert verdict.sep_locus.size == p ** (n - 1)
        assert verdict.h_witnesses == tuple(sorted(matrix_unit_witness(t2, n, j) for j in range(1, n + 1)))

    def test_d3_over_z4(self):
        hom = diagonal_into_matrix(3, 4)
        verdict = h_separability_report(hom)
        t2 = tensor_power(hom, 2)
        assert verdict.sep_locus.size == 16
        assert verdict.notes["h_decided_by"] == "enumeration"
        assert verdict.h_witnesses == tuple(sorted(matrix_unit_witness(t2, 3, j) for j in (1, 2, 3)))


# -- the gate and the work bound ---------------------------------------------


def one_form():
    """c ≡ 0 (mod 2) on c ∈ Z/2: the root c = 0 only."""
    affine = AffineSolutionSet((2,), (0,), ((1,),), (2,))
    forms = np.zeros((1, 2, 2), dtype=np.int64)
    forms[0, 0, 1] = 1
    return affine, forms


class TestSolverGate:
    def test_corrupted_form_is_caught(self, monkeypatch):
        # the prime-power solver sees one entry changed: 2c ≡ 0 has the root
        # c = 1 too, which the substitution into the true form rejects
        affine, forms = one_form()
        assert solve_quadratic(affine, forms, (2,)).tolist() == [[0]]
        original = exactalg._prime_power_roots

        def corrupted(Q, b, e, q):
            Q = Q.copy()
            Q[0, 0, 1] += 1
            return original(Q, b, e, q)

        monkeypatch.setattr(exactalg, "_prime_power_roots", corrupted)
        with pytest.raises(ConstructionCheckFailed, match="fails it"):
            solve_quadratic(affine, forms, (2,))

    def test_gate_fires_under_optimize(self):
        script = (
            "import sys\n"
            "from hsep import exactalg\n"
            "from test_quadratic import one_form\n"
            "affine, forms = one_form()\n"
            "original = exactalg._prime_power_roots\n"
            "def corrupted(Q, b, e, q):\n"
            "    Q = Q.copy()\n"
            "    Q[0, 0, 1] += 1\n"
            "    return original(Q, b, e, q)\n"
            "exactalg._prime_power_roots = corrupted\n"
            "try:\n"
            "    exactalg.solve_quadratic(affine, forms, (2,))\n"
            "except Exception as err:\n"
            "    print('optimize=%d raised %s: %s' % (sys.flags.optimize, type(err).__name__, err))\n"
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
        assert out.stdout.strip() == (
            "optimize=1 raised ConstructionCheckFailed: a root of the quadratic system fails it"
        )

    @pytest.mark.parametrize("n, m, bound", [(3, 4, 2), (4, 2, 2)])
    def test_row_reductions_on_scalar_extensions(self, monkeypatch, n, m, bound):
        # M3(Z/4) has 4⁸ locus members and M4(Z/2) 2¹⁵; no member is heavy,
        # and the solver sees that in at most `bound` row reductions
        t2 = tensor_power(matrix_scalar(n, m), 2)
        t2.triple
        calls = []
        original = exactalg._rref

        def counted(rows, p):
            calls.append(rows.shape)
            return original(rows, p)

        monkeypatch.setattr(exactalg, "_rref", counted)
        assert h_idempotents(t2) == ()
        assert 1 <= len(calls) <= bound
