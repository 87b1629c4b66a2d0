"""Truncated tensor bialgebra: construction, the bialgebra laws, primitives,
the identities, and the span gates."""

import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import talg_census
from talg_util import (
    delta_word,
    element,
    evaluation_blocks,
    lie_basis,
    mult_elt,
    oracle_primitives,
    rank,
    spans_within,
    unit_elt,
    word_elt,
    zero_elt,
)

from hsep import exactalg, tensorbialg
from hsep.exactalg import ConstructionCheckFailed
from hsep.tensorbialg import (
    DimensionGuardExceeded,
    GradedMap,
    GradedSpace,
    TruncatedTensorBialgebra,
    build_truncated,
    exact_field,
    primitives,
    tensor_algebra_witness,
    verify_bialgebra_adjunction,
)

ROOT = Path(__file__).resolve().parent.parent


def counit(bialg):
    """Projection onto the empty word, as a map to a point space."""
    n = bialg.N
    point = GradedSpace(bialg.field, (1,) + (0,) * n, (("1",),) + ((),) * n)
    blocks = (np.ones((1, 1), dtype=np.int64),) + tuple(np.zeros((0, m), dtype=np.int64) for m in bialg.carrier.dims[1:])
    return GradedMap(bialg.carrier, point, blocks)


def length_component(bialg, n):
    """(space of length-n words, inclusion into the carrier)."""
    members = [[i for i, w in enumerate(ws) if len(w) == n] for ws in bialg.words]
    space = GradedSpace(
        bialg.field,
        tuple(len(m) for m in members),
        tuple(tuple(bialg.carrier.labels[d][i] for i in m) for d, m in enumerate(members)),
    )
    blocks = tuple(np.eye(bialg.carrier.dims[d], dtype=np.int64)[:, m] for d, m in enumerate(members))
    return space, GradedMap(space, bialg.carrier, blocks)


def oracle_primitive_dims(v_dim, field, upto):
    """Independent kernel-rank oracle: build the coproduct matrix from the
    subset rule with itertools and row-reduce it from scratch."""
    dims = []
    for d in range(1, upto + 1):
        words = list(itertools.product(range(v_dim), repeat=d))
        pairs = {}
        def pair_index(p):
            return pairs.setdefault(p, len(pairs))
        rows = {}
        for j, w in enumerate(words):
            col = {}
            for r in range(d + 1):
                for subset in itertools.combinations(range(d), r):
                    inside = set(subset)
                    left = tuple(w[i] for i in range(d) if i in inside)
                    right = tuple(w[i] for i in range(d) if i not in inside)
                    col[(left, right)] = col.get((left, right), 0) + 1
            col[(w, ())] = col.get((w, ())) - 1
            col[((), w)] = col.get(((), w)) - 1
            for key, c in col.items():
                rows.setdefault(pair_index(key), {})[j] = c
        # fraction-free rank over Q, or mod p
        mat = [[Fraction(rows.get(i, {}).get(j, 0)) for j in range(len(words))] for i in range(len(pairs))]
        if field != "q":
            p = int(field)
            mat = [[int(x) % p for x in row] for row in mat]
        rank = 0
        ncols = len(words)
        r = 0
        for c in range(ncols):
            piv = None
            for i in range(r, len(mat)):
                val = mat[i][c]
                if (val % p if field != "q" else val) != 0:
                    piv = i
                    break
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            if field == "q":
                inv = 1 / mat[r][c]
                mat[r] = [x * inv for x in mat[r]]
                for i in range(len(mat)):
                    if i != r and mat[i][c] != 0:
                        f = mat[i][c]
                        mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            else:
                inv = pow(mat[r][c], -1, p)
                mat[r] = [(x * inv) % p for x in mat[r]]
                for i in range(len(mat)):
                    if i != r and mat[i][c] % p:
                        f = mat[i][c]
                        mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
            r += 1
        rank = r
        dims.append(len(words) - rank)
    return dims


def reduce_counts(p, counts):
    """Integer coefficients as field elements, zeros dropped."""
    values = {key: element(p, c) for key, c in counts.items()}
    return {key: x for key, x in values.items() if x != 0}


# (base, field): T(V) with dim V = 0..3; the same model built on the
# primitives of T(V), dim V = 2, which are graded with dims (0, 2, 1, 2)
# over Q; a graded base with an empty degree; the augmentation kernel of
# T(V), dim V = 2.  These are shaped like the three models that
# verify_bialgebra_adjunction builds.
LAW_MODELS = [(base, f) for f in ("q", "2") for base in ("V0", "V1", "V2", "V3", "P(V2)", "gap0201", "Aug(V2)")]


@functools.lru_cache(maxsize=None)
def law_model(base, fname):
    field = exact_field(fname)
    if base.startswith("V"):
        return build_truncated(int(base[1:]), field, 4)
    if base == "gap0201":
        return TruncatedTensorBialgebra(GradedSpace(field, (0, 2, 0, 1), ((), ("a", "b"), (), ("c",))), 4)
    prims = primitives(build_truncated(2, field, 3))
    return TruncatedTensorBialgebra(prims.space if base == "P(V2)" else prims.aug_kernel, 3)


def all_words(b, upto=None):
    return [w for d in range(b.N + 1 if upto is None else upto + 1) for w in b.words[d]]


@pytest.mark.parametrize("base, fname", LAW_MODELS, ids=["%s-%s" % m for m in LAW_MODELS])
class TestModelLaws:
    """The bialgebra laws, on every basis word, pair and triple within the
    cutoff.  They hold for every base, so no model checks them itself."""

    def test_unit_and_concatenation(self, base, fname):
        b = law_model(base, fname)
        for w in all_words(b):
            assert mult_elt(b, unit_elt(b), word_elt(b, w)) == word_elt(b, w)
            assert mult_elt(b, word_elt(b, w), unit_elt(b)) == word_elt(b, w)
        zero_top = zero_elt(b, b.N)
        for w1, w2 in itertools.product(all_words(b), repeat=2):
            d = b.index[w1][0] + b.index[w2][0]
            expect = word_elt(b, w1 + w2) if d <= b.N else zero_top
            assert mult_elt(b, word_elt(b, w1), word_elt(b, w2)) == expect, (w1, w2)

    def test_associativity(self, base, fname):
        b = law_model(base, fname)
        for w1 in all_words(b):
            d1 = b.index[w1][0]
            for w2 in all_words(b, b.N - d1):
                d2 = b.index[w2][0]
                for w3 in all_words(b, b.N - d1 - d2):
                    x, y, z = word_elt(b, w1), word_elt(b, w2), word_elt(b, w3)
                    assert mult_elt(b, mult_elt(b, x, y), z) == mult_elt(b, x, mult_elt(b, y, z)), (w1, w2, w3)

    def test_coassociativity_and_counit(self, base, fname):
        b = law_model(base, fname)
        field = b.field
        for w in all_words(b):
            delta = delta_word(w)
            left, right, eps_left, eps_right = {}, {}, {}, {}
            for (w1, w2), c in delta.items():
                for (u1, u2), c2 in delta_word(w1).items():
                    left[(u1, u2, w2)] = left.get((u1, u2, w2), 0) + c * c2
                for (u1, u2), c2 in delta_word(w2).items():
                    right[(w1, u1, u2)] = right.get((w1, u1, u2), 0) + c * c2
                if w1 == ():
                    eps_left[w2] = eps_left.get(w2, 0) + c
                if w2 == ():
                    eps_right[w1] = eps_right.get(w1, 0) + c
            assert reduce_counts(field, left) == reduce_counts(field, right), w
            assert reduce_counts(field, eps_left) == reduce_counts(field, {w: 1}), w
            assert reduce_counts(field, eps_right) == reduce_counts(field, {w: 1}), w

    def test_coproduct_is_multiplicative(self, base, fname):
        b = law_model(base, fname)
        for w1 in all_words(b):
            for w2 in all_words(b, b.N - b.index[w1][0]):
                rhs = {}
                for (a1, a2), c1 in delta_word(w1).items():
                    for (b1, b2), c2 in delta_word(w2).items():
                        key = (a1 + b1, a2 + b2)
                        rhs[key] = rhs.get(key, 0) + c1 * c2
                lhs = reduce_counts(b.field, delta_word(w1 + w2))
                assert lhs == reduce_counts(b.field, rhs), (w1, w2)

    def test_letter_projection_retracts_letters(self, base, fname):
        b = law_model(base, fname)
        omega = b.letter_projection
        letters, incl = length_component(b, 1)
        assert all(np.array_equal(x, y) for x, y in zip(incl.blocks, b.unit_inclusion.blocks, strict=True))
        assert omega.compose(incl).equals(GradedMap.identity(omega.target))
        for n in range(b.N + 1):
            if n != 1:
                comp = omega.compose(length_component(b, n)[1])
                assert not any(block.any() for block in comp.blocks), n


class TestConstruction:
    def test_dims_one_letter(self):
        b = build_truncated(1, "q", 2)
        assert b.carrier.dims == (1, 1, 1)

    def test_dims_two_letters(self):
        b = build_truncated(2, 2, 3)
        assert b.carrier.dims == (1, 2, 4, 8)

    def test_delta_of_two_letter_word(self):
        # Δ(vw) = 1⊗vw + v⊗w + w⊗v + vw⊗1, by direct expansion
        b = build_truncated(2, "q", 2)
        v, w = (1, 0), (1, 1)
        expansion = delta_word((v, w))
        assert expansion == {
            ((), (v, w)): 1,
            ((v,), (w,)): 1,
            ((w,), (v,)): 1,
            ((v, w), ()): 1,
        }

    def test_zero_dimensional_base(self):
        b = build_truncated(0, "q", 2)
        assert b.carrier.dims == (1, 0, 0)

    def test_guard(self):
        with pytest.raises(DimensionGuardExceeded):
            build_truncated(8, "q", 5)

    @pytest.mark.parametrize("base, fname", LAW_MODELS, ids=["%s-%s" % m for m in LAW_MODELS])
    def test_word_counts(self, base, fname):
        b = law_model(base, fname)
        assert tensorbialg._word_counts(b.base.dims, b.N) == [len(ws) for ws in b.words]

    @pytest.mark.parametrize("v_dim, total", [(4000, 16004001), (10**5, 100001)])
    def test_guard_trips_before_any_word(self, monkeypatch, v_dim, total):
        # 4000 letters fit under the guard; their 16M words of degree 2 do not
        def no_words(*args):
            raise AssertionError("words enumerated before the guard")

        monkeypatch.setattr(tensorbialg, "_compositions", no_words)
        message = r"truncated model needs %d\+ dimensions \(guard 4096\)" % total
        with pytest.raises(DimensionGuardExceeded, match=message):
            build_truncated(v_dim, "q", 2)

    def test_field_parsing(self):
        assert exact_field("q") == exact_field("Q") == exact_field(0) == 0
        assert exact_field("5") == exact_field(5) == 5
        with pytest.raises(ValueError):
            exact_field(6)
        with pytest.raises(ValueError):
            exact_field(101)


class TestPrimitives:
    def test_rational_dims_match_oracle(self):
        b = build_truncated(2, "q", 3)
        p = primitives(b)
        assert list(p.space.dims[1:]) == [2, 1, 2]
        assert oracle_primitive_dims(2, "q", 3) == [2, 1, 2]

    def test_mod2_dims_match_oracle(self):
        b = build_truncated(2, 2, 3)
        p = primitives(b)
        assert p.space.dims[2] == 3 == oracle_primitive_dims(2, "2", 2)[1]

    def test_one_letter_rational(self):
        b = build_truncated(1, "q", 3)
        p = primitives(b)
        assert list(p.space.dims[1:]) == [1, 0, 0]
        assert oracle_primitive_dims(1, "q", 3) == [1, 0, 0]

    def test_degree_two_kernel_is_commutator_over_q(self):
        b = build_truncated(2, "q", 2)
        p = primitives(b)
        # the unique degree-2 primitive is vw - wv up to scale
        col = [p.into_carrier.blocks[2][i][0] for i in range(b.carrier.dims[2])]
        words = b.words[2]
        coeffs = {w: c for w, c in zip(words, col) if c != 0}
        (w1, c1), (w2, c2) = sorted(coeffs.items())
        assert w1 == ((1, 0), (1, 1)) and w2 == ((1, 1), (1, 0))
        assert c1 == -c2

    def test_letter_projection_retracts_length_components(self):
        # projecting to single letters kills every length component but n = 1
        b = build_truncated(2, "q", 3)
        for n in range(4):
            space, incl = length_component(b, n)
            comp = b.letter_projection.compose(incl)
            for d in range(4):
                for i, row in enumerate(comp.blocks[d]):
                    for j, x in enumerate(row):
                        if n == 1:
                            expect = 1 if space.labels[d][j] == b.base.labels[d][i] else 0
                        else:
                            expect = 0
                        assert x == expect

    def test_primitives_in_augmentation_kernel(self):
        b = build_truncated(2, 5, 3)
        p = primitives(b)
        eps = counit(b)
        comp = eps.compose(p.into_carrier)
        zero = GradedMap(
            p.space,
            eps.target,
            tuple(np.zeros((eps.target.dims[d], p.space.dims[d]), dtype=np.int64) for d in range(b.N + 1)),
        )
        assert comp.equals(zero)
        # the unit is not primitive, and the inclusion factors through the
        # augmentation kernel: ζ∘ξ̂ = ξ with ζ the identity in degrees >= 1
        assert p.space.dims[0] == 0
        assert p.aug_kernel.dims == (0,) + b.carrier.dims[1:]
        zeta = GradedMap(p.aug_kernel, b.carrier, (np.zeros((1, 0), dtype=np.int64),) + GradedMap.identity(b.carrier).blocks[1:])
        xi_hat = GradedMap(p.space, p.aug_kernel, (np.zeros((0, 0), dtype=np.int64),) + p.into_carrier.blocks[1:])
        assert zeta.compose(xi_hat).equals(p.into_carrier)


ORACLE_MODELS = LAW_MODELS + [("V3", "7")]


@pytest.mark.parametrize("base, fname", ORACLE_MODELS, ids=["%s-%s" % m for m in ORACLE_MODELS])
def test_primitives_match_whole_degree_oracle(base, fname):
    """The Lyndon basis spans what one elimination of the whole degree
    spans, and each of its vectors is the independent bracket expansion of
    its Lyndon word.  V3 is T(V), dim V = 3, truncated at 4: the first
    model of `talg verify` at (3,4), here over Q, F2 and F7."""
    assert_lyndon_basis(law_model(base, fname))


def assert_lyndon_basis(b):
    """In every degree, the basis has the oracle's rank and span and is
    `lie_basis`, and each vector is 1 on its lead row, whose word is the
    lexicographically smallest it contains, with the lead words ascending."""
    prims = primitives(b)
    for d in range(b.N + 1):
        basis = prims.into_carrier.blocks[d].T.tolist()
        whole = oracle_primitives(b, d)
        assert rank(b.field, basis) == rank(b.field, whole) == len(whole) == prims.space.dims[d]
        assert spans_within(b.field, basis, whole) and spans_within(b.field, whole, basis)
        assert basis == lie_basis(b, d), d
        block, lead, words = prims.into_carrier.blocks[d], prims.lead[d], b.words[d]
        assert [words[r] for r in lead] == sorted(words[r] for r in lead)
        for i, r in enumerate(lead):
            assert block[r, i] == 1
            assert min(words[j] for j in np.flatnonzero(block[:, i])) == words[r]


@pytest.mark.parametrize("fname", ["q", "2", "3"])
def test_double_model_primitives_match_oracle(fname):
    """The double model's letters lie in several degrees; its Lyndon basis
    spans the whole-degree kernel and is the bracket expansion."""
    prims = primitives(build_truncated(2, exact_field(fname), 4))
    assert_lyndon_basis(TruncatedTensorBialgebra(prims.space, 4))


@pytest.mark.parametrize("fname", ["q", "2", "7"])
@pytest.mark.parametrize("v_dim, deg", [(3, 4), (2, 5)])
def test_no_row_reduction_on_the_talg_path(monkeypatch, v_dim, deg, fname):
    """Both models' primitives come from Lyndon words: `exactalg._rref`,
    which every kernel and cokernel solve runs on, is never called."""
    original, calls = exactalg._rref, []

    def counted(rows, p):
        calls.append(rows.shape)
        return original(rows, p)

    monkeypatch.setattr(exactalg, "_rref", counted)
    assert verify_bialgebra_adjunction(v_dim, fname, deg).all_hold
    assert calls == []


@pytest.mark.parametrize("p", [0, 2, 7])
def test_unitriangular_inverse(p):
    """The inverse of seeded dense lower unitriangular integer matrices, up
    to 8 × 8, where N⁷ ≠ 0: exact over Q, reduced mod p over F_p."""
    rng = random.Random(31 + p)
    for m in range(9):
        strict = np.array([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)], dtype=np.int64).reshape(m, m)
        block = np.tril(strict, -1) + np.eye(m, dtype=np.int64)
        inverse = tensorbialg._unitriangular_inverse(block, p)
        error = block.astype(object) @ inverse.astype(object) - np.eye(m, dtype=np.int64)
        assert not (error % p if p else error).any()
        if p:
            assert ((0 <= inverse) & (inverse < p)).all()


def census_slice():
    """A seeded slice of tests/talg_census.py: 12 models with dim V of 1
    or 2 and N ≤ 5, and 6 more among them over 𝔽_p with p ≤ N, where the
    restricted powers appear."""
    pool = [case for case in talg_census.CASES if 1 <= case[0] <= 2 and case[1] <= 5]
    rng = random.Random(18)
    return sorted(set(rng.sample(pool, 12) + rng.sample([c for c in pool if c[2] and c[2] <= c[1]], 6)))


@pytest.mark.parametrize("case", census_slice(), ids=lambda case: "%d-%d-%d-%s" % case)
def test_census_slice(case):
    bialg = talg_census.build(*case)
    assert bialg is not None
    assert talg_census.disagreements(bialg) == []


EVALUATION_MODELS = [(v, n, f) for f in ("q", "2") for v, n in ((2, 3), (3, 2), (2, 4))]


@pytest.mark.parametrize("v_dim, deg, fname", EVALUATION_MODELS, ids=["%d-%d-%s" % m for m in EVALUATION_MODELS])
def test_kronecker_evaluation_matches_word_products(v_dim, deg, fname):
    """The Kronecker evaluation of the double model and of the
    augmentation-kernel model into T(V) is the word-by-word product."""
    field = exact_field(fname)
    base = build_truncated(v_dim, field, deg)
    prims = primitives(base)
    zeta = tuple(np.eye(n, m, dtype=np.int64) for n, m in zip(base.carrier.dims, prims.aug_kernel.dims))
    for outer_base, letters in ((prims.space, prims.into_carrier.blocks), (prims.aug_kernel, zeta)):
        outer = TruncatedTensorBialgebra(outer_base, deg)
        evaluation = tensorbialg._evaluation(outer, base, letters)
        assert [b.tolist() for b in evaluation.blocks] == evaluation_blocks(outer, base, letters)


def test_failures_are_named(monkeypatch):
    """Letters that multiply out to 0 break (b) and (c); each names the
    first failing basis vector, and (c) builds its model only to label it."""

    def zero(letters, comp, p):
        rows, cols = np.prod([letters[c].shape for c in comp], axis=0, dtype=int) if comp else (1, 1)
        return np.zeros((rows, cols), dtype=np.int64)

    monkeypatch.setattr(tensorbialg, "_monomials", zero)
    report = verify_bialgebra_adjunction(2, "q", 3)
    assert report.unit_retraction_holds
    assert report.failure_witnesses == (
        ("heavy-composition", "p1_0"),
        ("letter-projection-restriction", (1, "v0")),
    )


def python_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


class TestExactProduct:
    """int64 only where no entry can wrap; Python ints and Fractions past it."""

    def test_rational_entry(self):
        a = np.array([[Fraction(1, 2), 3], [0, -1]], dtype=object)
        b = np.array([[2, 1], [5, 7]], dtype=np.int64)
        out = tensorbialg._product(a, b, 0)
        assert out.dtype == object
        assert out.tolist() == python_product(a.tolist(), b.tolist()) == [[16, Fraction(43, 2)], [-5, -7]]

    def test_past_the_int64_bound(self):
        # 2·2⁴⁰·2²³ = 2⁶⁴: in int64 the single entry would wrap to 0
        a = np.array([[2**40, 2**40]], dtype=np.int64)
        b = np.array([[2**23], [2**23]], dtype=np.int64)
        out = tensorbialg._product(a, b, 0)
        assert out.dtype == object
        assert out.tolist() == python_product(a.tolist(), b.tolist()) == [[2**64]]
        assert tensorbialg._product(a, b, 7).tolist() == [[2**64 % 7]]
        assert tensorbialg._kron(a, b, 0).tolist() == [[2**63, 2**63], [2**63, 2**63]]
        # at 2⁶² the bound holds and the product stays in int64
        assert tensorbialg._product(a, b // 4, 0).dtype == np.int64


WITT_GRID = [(2, 7, "7"), (3, 4, "2"), (2, 6, "2"), (2, 6, "3"), (1, 5, "2"), (3, 4, "3"), (2, 5, "5"), (2, 6, "q"), (1, 4, "q")]


@pytest.mark.parametrize("v_dim, deg, fname", WITT_GRID, ids=["%d-%d-%s" % m for m in WITT_GRID])
def test_primitive_dims_formula(v_dim, deg, fname):
    """Witt's counts over Q, and over F_p the sum over the p^k dividing d,
    equal the built dimensions and the ranks of the oracle's kernels."""
    field = exact_field(fname)
    dims = tensorbialg._primitive_dims((0, v_dim), field, deg)
    assert dims == primitives(build_truncated(v_dim, field, deg)).space.dims
    assert list(dims[1:]) == oracle_primitive_dims(v_dim, fname, deg)


@pytest.mark.parametrize(
    "v_dim, deg, fname, total",
    # the double model does not fit at (2,7); at (3,5) it does, and the
    # augmentation-kernel model does not
    [(2, 7, "7", 10923), (2, 7, "q", 10923), (3, 5, "q", 4666)],
)
def test_guard_trips_before_any_bracket(monkeypatch, v_dim, deg, fname, total):
    def no_bracket(word, memo):
        raise AssertionError("a primitive built before the guard")

    monkeypatch.setattr(tensorbialg, "_bracketing", no_bracket)
    message = r"truncated model needs %d\+ dimensions \(guard 4096\)" % total
    with pytest.raises(DimensionGuardExceeded, match=message):
        verify_bialgebra_adjunction(v_dim, fname, deg)


class TestAdjunctionIdentities:
    @pytest.mark.parametrize("v_dim", [1, 2])
    @pytest.mark.parametrize("field", ["q", "2", "5"])
    @pytest.mark.parametrize("deg", [2, 3])
    def test_identities_hold(self, v_dim, field, deg):
        report = verify_bialgebra_adjunction(v_dim, field, deg)
        assert report.unit_retraction_holds
        assert report.heavy_composition_holds
        assert report.letter_projection_identity_holds
        assert report.all_hold

    def test_zero_space_vacuous(self):
        report = verify_bialgebra_adjunction(0, "q", 2)
        assert report.all_hold


class TestAlgebraWitness:
    @pytest.mark.parametrize("v_dim", [1, 2])
    @pytest.mark.parametrize("field", ["q", "2", "5"])
    def test_witness_values(self, v_dim, field):
        rep = tensor_algebra_witness(v_dim, field, 3)
        assert rep.values_differ
        assert rep.unit_retraction_holds
        # projecting twice gives 0, evaluating first gives the letter v
        assert not any(rep.doubled_value[1])
        assert rep.evaluated_value[0] == 1
        vec = rep.evaluated_value[1]
        assert vec[0] == 1
        assert all(x == 0 for x in vec[1:])

    @pytest.mark.parametrize("field", ["q", "2"])
    def test_outer_projection_keeping_pairs(self, monkeypatch, field):
        # an outer projection that multiplies out length-2 words sends the
        # witness 1⊗v to 1·v = v, so projecting twice agrees with evaluating
        original = tensorbialg._outer_letter_projection

        def keep_pairs(bialg, word):
            if len(word) != 2:
                return original(bialg, word)
            return mult_elt(bialg, *word)

        monkeypatch.setattr(tensorbialg, "_outer_letter_projection", keep_pairs)
        rep = tensor_algebra_witness(2, field, 3)
        assert not rep.values_differ
        assert rep.doubled_value == rep.evaluated_value

    def test_requires_room(self):
        with pytest.raises(ValueError):
            tensor_algebra_witness(0, "q", 3)
        with pytest.raises(ValueError):
            tensor_algebra_witness(1, "q", 1)


def lose_letters(monkeypatch):
    """Each letter's bracket comes back as 0, so every degree keeps its
    count but degree 1 loses its span."""
    original = tensorbialg._bracketing

    def lose(word, memo):
        return {} if len(word) == 1 else original(word, memo)

    monkeypatch.setattr(tensorbialg, "_bracketing", lose)


def skip_a_lyndon_word(monkeypatch):
    """The last Lyndon word of degree 3 is not found."""
    original = tensorbialg._is_lyndon
    monkeypatch.setattr(tensorbialg, "_is_lyndon", lambda word: original(word) and word != ((1, 0), (1, 1), (1, 1)))


def change_primitives(monkeypatch, model, change):
    """Pass the primitives of the model-th `primitives` call (1 for T(V), 2
    for the double model) through `change`, a map on PrimitivesData."""
    original, calls = tensorbialg.primitives, []

    def patched(bialg):
        calls.append(bialg)
        prims = original(bialg)
        return change(prims) if len(calls) == model else prims

    monkeypatch.setattr(tensorbialg, "primitives", patched)


def with_basis(prims, d, block, lead):
    """prims with the degree-d basis `block`, whose leading words are on
    the rows `lead`."""
    xi = prims.into_carrier
    blocks = xi.blocks[:d] + (block,) + xi.blocks[d + 1 :]
    leads = prims.lead[:d] + (tuple(lead),) + prims.lead[d + 1 :]
    return dataclasses.replace(prims, into_carrier=dataclasses.replace(xi, blocks=blocks), lead=leads)


def duplicate_first_letter(monkeypatch):
    """The first letter's primitive comes back twice and the second letter's
    not at all, so degree 1 keeps its count but loses its span."""

    def change(prims):
        return with_basis(prims, 1, prims.into_carrier.blocks[1][:, [0, 0]], prims.lead[1])

    change_primitives(monkeypatch, 1, change)


class TestSpanGates:
    """The primitives must have Witt's dimensions, and the letters and the
    image of each primitive of the double model must lie in their span; a
    construction that misses, loses or corrupts a primitive raises, also
    under python -O."""

    def test_dimension_gate(self, monkeypatch):
        skip_a_lyndon_word(monkeypatch)
        message = r"primitive basis has dimensions \(0, 2, 1, 1\), not Witt's \(0, 2, 1, 2\)"
        with pytest.raises(ConstructionCheckFailed, match=message):
            verify_bialgebra_adjunction(2, "q", 3)

    # in T(V) with dim V = 2 and N = 3 the letters are the two words of degree 1
    @pytest.mark.parametrize("fault", [lose_letters, duplicate_first_letter], ids=["lost", "duplicated"])
    def test_letter_primitive_lost(self, monkeypatch, fault):
        fault(monkeypatch)
        with pytest.raises(ConstructionCheckFailed, match="letters must be primitive"):
            verify_bialgebra_adjunction(2, "q", 3)

    def test_non_primitive_in_the_double_model(self, monkeypatch):
        # the double model on the primitives (dims 0, 2, 1, 2) has the squares
        # w0·w0 and w1·w1 of its degree-1 letters at positions 0 and 3 of
        # degree 2; claimed primitive, w0·w0 evaluates to v0·v0, which is
        # not primitive over Q
        def claim_squares(prims):
            block = prims.into_carrier.blocks[2]
            squares = np.eye(block.shape[0], dtype=block.dtype)[:, [0, 3]]
            return with_basis(prims, 2, np.hstack([squares, block]), (0, 3) + prims.lead[2])

        change_primitives(monkeypatch, 2, claim_squares)
        with pytest.raises(ConstructionCheckFailed, match="image of a primitive is not primitive"):
            verify_bialgebra_adjunction(2, "q", 3)

    def test_gates_fire_under_optimize(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from hsep import tensorbialg\n"
            "from hsep.exactalg import ConstructionCheckFailed\n"
            "bracketing, is_lyndon, primitives = tensorbialg._bracketing, tensorbialg._is_lyndon, tensorbialg.primitives\n"
            "def lose(word, memo):\n"
            "    return {} if len(word) == 1 else bracketing(word, memo)\n"
            "def skip(word):\n"
            "    return is_lyndon(word) and word != ((1, 0), (1, 1), (1, 1))\n"
            "def claim_square(bialg):\n"
            "    prims = primitives(bialg)\n"
            "    if bialg.base.dims[1:] == (2, 1, 2):\n"
            "        block = prims.into_carrier.blocks[2]\n"
            "        block[:, 0] = np.eye(block.shape[0], dtype=block.dtype)[:, 0]\n"
            "    return prims\n"
            "for name, fault in (('_bracketing', lose), ('_is_lyndon', skip), ('primitives', claim_square)):\n"
            "    setattr(tensorbialg, name, fault)\n"
            "    try:\n"
            "        tensorbialg.verify_bialgebra_adjunction(2, 'q', 3)\n"
            "    except ConstructionCheckFailed as err:\n"
            "        print('optimize=%d raised: %s' % (sys.flags.optimize, err))\n"
            "    setattr(tensorbialg, name, {'_bracketing': bracketing, '_is_lyndon': is_lyndon, 'primitives': primitives}[name])\n"
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
        assert out.stdout.splitlines() == [
            "optimize=1 raised: letters must be primitive",
            "optimize=1 raised: primitive basis has dimensions (0, 2, 1, 1), not Witt's (0, 2, 1, 2)",
            "optimize=1 raised: image of a primitive is not primitive",
        ]
