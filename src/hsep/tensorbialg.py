"""Truncated tensor bialgebra over an exact field.

The tensor algebra on a graded space, truncated past a fixed internal
degree, carries the coproduct that makes the letters primitive: a word
maps to the sum over position subsets of subword ⊗ complementary
subword.  Every map used here (multiplication, coproduct, counit,
length-component inclusions, the projection onto single letters, the
primitive inclusion, the evaluation of words of primitives) preserves
internal degree, so the truncated model computes the adjunction
identities faithfully in all degrees up to the cutoff.

Building a model checks no law.  The bialgebra laws of concatenation and
the subset coproduct hold for every base, so tests/test_tensorbialg.py
proves them once, on every word, pair and triple of models shaped like
the three that `verify_bialgebra_adjunction` builds.  What depends on
the linear algebra is gated at run time: the letters, and the image of
every primitive of the double model, must lie in the span of the
computed primitives, or `exactalg.ConstructionCheckFailed` is raised
(also under `python -O`).

Scalars are exact, and a field is passed as its characteristic: 0 for
the rationals, or a prime p <= 97.  A graded map keeps one 2-D numpy
array per degree.  Over 𝔽_p it is int64 reduced mod p.  Over ℚ it is int64
while every entry is an integer, and an object array of `Fraction`s
otherwise.  `_product` and `_kron` run on `exactalg.exact_einsum`,
which keeps them in int64 only while no entry can wrap.

Δ keeps the multiset of letters of a word, so the primitives of each
degree are solved one letter-content block at a time, on `exactalg`'s
row reduction.  A block's system depends only on its key, its words with
each letter replaced by its rank among the block's letters, so each key
is solved once per verification, for both models that need primitives.

The base model has its letters in degree 1, where the words with letters
of degrees c₁, …, c_k multiply, in `itertools.product` order, onto the
degree-(c₁ + … + c_k) words in lexicographic order.  Evaluating words of
realized letters is therefore a Kronecker product of the realizations
for each composition of the degree.

The primitives of T(V) are the free restricted Lie algebra on V in
characteristic p and the free Lie algebra over ℚ, so their dimensions
are known in advance, and the dimension guard checks all three models
before anything is solved.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactalg import ConstructionCheckFailed, _is_prime, _kernel, exact_einsum

__all__ = [
    "exact_field",
    "GradedSpace",
    "GradedMap",
    "TruncatedTensorBialgebra",
    "PrimitivesData",
    "BialgebraReport",
    "AlgebraWitnessReport",
    "DimensionGuardExceeded",
    "build_truncated",
    "primitives",
    "verify_bialgebra_adjunction",
    "tensor_algebra_witness",
    "DIM_GUARD",
]

DIM_GUARD = 4096


class DimensionGuardExceeded(ValueError):
    """The truncated model would exceed the configured total dimension."""


def exact_field(spec) -> int:
    """The characteristic of a field: 'q', 'Q' or 0 give the rationals (0),
    a prime p <= 97, or its decimal string, gives 𝔽_p (p)."""
    if isinstance(spec, str):
        spec = 0 if spec.lower() == "q" else int(spec)
    if spec == 0:
        return 0
    if spec > 97:
        raise ValueError("prime fields are supported up to p = 97")
    if not _is_prime(spec):
        raise ValueError("field order must be prime")
    return int(spec)


def _field_name(p):
    return "F%d" % p if p else "Q"


# ---------------------------------------------------------------------------
# exact products; eliminations run in exactalg


def _product(a, b, p):
    """a·b over the field of characteristic p, reduced mod p over 𝔽_p."""
    out = exact_einsum("ij,jk->ik", a, b)
    return out % p if p else out


def _kron(a, b, p):
    """np.kron of two vectors or two matrices over the field of characteristic p."""
    out = exact_einsum("ij,kl->ikjl", np.atleast_2d(a), np.atleast_2d(b)).reshape(np.multiply(a.shape, b.shape))
    return out % p if p else out


def _integral(K):
    """An object array of rationals as int64 when its entries are integers
    below 2⁶³ in size; otherwise unchanged."""
    if K.dtype == object and all(x.denominator == 1 and abs(x) < 2**63 for x in K.flat):
        return np.array([int(x) for x in K.flat], dtype=np.int64).reshape(K.shape)
    return K


def _coordinates(p, basis, free, targets):
    """X with basis·X = targets, or None when a column of targets lies
    outside the span of the columns of basis.  Column i of basis is the
    unit vector on row free[i] there, so X is targets on the free rows;
    one product against basis checks it."""
    X = targets[list(free)]
    return X if not (_product(basis, X, p) != targets).any() else None


def _first_column(a, b):
    """Index of the first column where two arrays of one shape differ."""
    cols = np.flatnonzero((a != b).any(axis=0))
    return int(cols[0]) if cols.size else None


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional graded vector space with labeled bases over the
    field of characteristic `field`."""

    field: int
    dims: tuple[int, ...]
    labels: tuple[tuple[str, ...], ...]

    @property
    def top(self):
        return len(self.dims) - 1


@dataclass(frozen=True, eq=False)
class GradedMap:
    """Degree-preserving linear map given by one 2-D array per degree."""

    source: GradedSpace
    target: GradedSpace
    blocks: tuple  # blocks[d]: target.dims[d] x source.dims[d]

    def compose(self, inner):
        """self ∘ inner."""
        p = self.source.field
        blocks = tuple(_product(a, b, p) for a, b in zip(self.blocks, inner.blocks))
        return GradedMap(inner.source, self.target, blocks)

    def equals(self, other):
        if self.source.dims != other.source.dims or self.target.dims != other.target.dims:
            return False
        return self.first_difference(other) is None

    def first_difference(self, other):
        """(degree, source basis index) of the first disagreeing column."""
        for d, (b1, b2) in enumerate(zip(self.blocks, other.blocks)):
            j = _first_column(b1, b2)
            if j is not None:
                return d, j
        return None

    @staticmethod
    def identity(space):
        return GradedMap(space, space, tuple(np.eye(n, dtype=np.int64) for n in space.dims))


def _compositions(total, max_part):
    """Ordered compositions of `total` into parts 1..max_part, lexicographic."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_part) + 1):
        for rest in _compositions(total - first, max_part):
            yield (first,) + rest


def _word_counts(dims, truncation):
    """Words of each degree 0..truncation over letters with dims[p] of
    degree p: n_0 = 1 and n_d = Σ_p dims[p]·n_(d−p)."""
    counts = [1]
    for d in range(1, truncation + 1):
        counts.append(sum(dims[p] * counts[d - p] for p in range(1, min(d, len(dims) - 1) + 1)))
    return counts


def _check_guard(dims, truncation, guard):
    """Raise when the model on a base of these dims would pass the guard."""
    for total in itertools.accumulate(_word_counts(dims, truncation)):
        if total > guard:
            raise DimensionGuardExceeded(
                "truncated model needs %d+ dimensions (guard %d)" % (total, guard)
            )


def _mobius(n):
    mu, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            mu = -mu
        f += 1
    return -mu if n > 1 else mu


def _necklaces(v, n):
    """Witt's count of aperiodic necklaces of length n on v letters: the
    degree-n dimension of the free Lie algebra on v letters of degree 1."""
    return sum(_mobius(e) * v ** (n // e) for e in range(1, n + 1) if n % e == 0) // n


def _primitive_dims(v_dim, p, truncation):
    """Dimensions of the primitives of T(V), dim V = v_dim in degree 1:
    Witt's W(d) over ℚ, and Σ over p^k dividing d of W(d/p^k) over 𝔽_p,
    where the p^k-th powers of Lie elements are primitive too."""
    dims = [0]
    for d in range(1, truncation + 1):
        total, n = _necklaces(v_dim, d), d
        while p and n % p == 0:
            n //= p
            total += _necklaces(v_dim, n)
        dims.append(total)
    return tuple(dims)


def _delta(word):
    """Coproduct of a word as a dict pair -> integer coefficient."""
    out = {}
    n = len(word)
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        key = (left, right)
        out[key] = out.get(key, 0) + 1
    return out


class TruncatedTensorBialgebra:
    """Tensor algebra on a graded base, truncated past internal degree N.

    Basis words are tuples of letters (degree, index); the empty word is
    the unit.  Multiplication is concatenation (zero past the cutoff),
    the coproduct is the position-subset rule, the counit projects to
    the empty word.
    """

    def __init__(self, base: GradedSpace, truncation: int, guard=DIM_GUARD):
        if truncation < 1:
            raise ValueError("truncation degree must be >= 1")
        if base.dims[0] != 0:
            raise ValueError("base space must vanish in degree 0")
        self.base = base
        self.field = base.field
        self.N = truncation
        _check_guard(base.dims, truncation, guard)
        maxdeg = min(truncation, base.top)
        words = [[] for _ in range(truncation + 1)]
        labels = [[] for _ in range(truncation + 1)]
        for d in range(truncation + 1):
            for comp in _compositions(d, maxdeg):
                if any(base.dims[p] == 0 for p in comp):
                    continue
                for choice in itertools.product(*(range(base.dims[p]) for p in comp)):
                    words[d].append(tuple(zip(comp, choice)))
                # the letters' labels joined by dots; the empty word is "1"
                labels[d].extend(".".join(ls) or "1" for ls in itertools.product(*(base.labels[p] for p in comp)))
        self.words = tuple(tuple(ws) for ws in words)
        self.index = {
            w: (d, i) for d in range(truncation + 1) for i, w in enumerate(self.words[d])
        }
        self.carrier = GradedSpace(self.field, tuple(len(ws) for ws in self.words), tuple(map(tuple, labels)))

    delta_word = staticmethod(_delta)

    @cached_property
    def letter_projection(self):
        """Projection onto single-letter words, carrier -> base."""
        top = self.base.top
        target = GradedSpace(
            self.field,
            tuple(self.base.dims[d] if d <= top else 0 for d in range(self.N + 1)),
            tuple(self.base.labels[d] if d <= top else () for d in range(self.N + 1)),
        )
        blocks = []
        for d in range(self.N + 1):
            block = np.zeros((target.dims[d], self.carrier.dims[d]), dtype=np.int64)
            for i in range(target.dims[d]):
                block[i, self.index[((d, i),)][1]] = 1
            blocks.append(block)
        return GradedMap(self.carrier, target, tuple(blocks))

    @cached_property
    def unit_inclusion(self):
        """Base -> carrier as single-letter words (the adjunction unit)."""
        omega = self.letter_projection
        return GradedMap(omega.target, self.carrier, tuple(b.T for b in omega.blocks))


def build_truncated(v_dim, field, truncation, guard=DIM_GUARD) -> TruncatedTensorBialgebra:
    """Tensor bialgebra on an ungraded space placed in degree 1."""
    if v_dim < 0:
        raise ValueError("v_dim must be >= 0")
    base = GradedSpace(
        exact_field(field),
        (0, v_dim) + (0,) * max(0, truncation - 1),
        ((), tuple("v%d" % i for i in range(v_dim))) + ((),) * max(0, truncation - 1),
    )
    return TruncatedTensorBialgebra(base, truncation, guard=guard)


@dataclass(frozen=True, eq=False)
class PrimitivesData:
    """Primitive subspace, its inclusion and the augmentation kernel.

    free[d] lists the free columns of degree d in ascending order: basis
    vector i of that degree is the unit vector on free[d][i] there."""

    space: GradedSpace
    into_carrier: GradedMap  # the subobject inclusion
    aug_kernel: GradedSpace  # all words of degree >= 1
    free: tuple[tuple[int, ...], ...]


def _primitive_block(key, p):
    """Kernel of Δ − (−)⊗1 − 1⊗(−) on the span of the words of `key`, which
    share their letters; (K, free) as `exactalg._kernel` gives them, with K
    in int64 when its entries are integers."""
    rows = {}  # pair of words -> its row
    for k, w in enumerate(key):
        counts = _delta(w)
        counts[(w, ())] -= 1
        counts[((), w)] -= 1
        for pair, c in counts.items():
            rows.setdefault(pair, [0] * len(key))[k] = c
    mat = np.array(list(rows.values()), dtype=np.int64).reshape(len(rows), len(key))
    K, free = _kernel(mat, p)
    return _integral(K), free


def primitives(bialg: TruncatedTensorBialgebra, kernels=None) -> PrimitivesData:
    """Degree-n primitives: kernel of Δ − (−)⊗1 − 1⊗(−).

    Δ keeps the multiset of letters of a word, so the system splits into
    one block per letter content.  Each block is solved as its key: its
    words with each letter replaced by its rank among the block's letters.
    Blocks with one key have one integer system, so `kernels` (key ->
    (K, free)) may be shared by the models of one field; each key missing
    from it is solved and added.  A block's free columns are those of the
    whole degree's elimination, and the basis is ordered by them, as one
    elimination of the whole degree would order it.  In degree 0 the map
    is −1⊗1, so every primitive lies in the augmentation kernel.
    """
    p = bialg.field
    kernels = {} if kernels is None else kernels
    blocks, free_cols = [], []
    for words in bialg.words:
        content = {}
        for j, w in enumerate(words):
            content.setdefault(tuple(sorted(w)), []).append(j)
        found = []  # (free column, the block's columns, kernel vector)
        for letters, cols in content.items():
            rank = {x: r for r, x in enumerate(sorted(set(letters)))}
            key = tuple(tuple(rank[x] for x in words[j]) for j in cols)
            if key not in kernels:
                kernels[key] = _primitive_block(key, p)
            K, free = kernels[key]
            found.extend((cols[f], cols, K[:, i]) for i, f in enumerate(free))
        found.sort(key=lambda item: item[0])
        block = np.zeros((len(words), len(found)), dtype=np.result_type(np.int64, *(v for *_, v in found)))
        for i, (_, cols, vec) in enumerate(found):
            block[cols, i] = vec
        blocks.append(block)
        free_cols.append(tuple(f for f, *_ in found))
    dims = tuple(len(f) for f in free_cols)
    labels = tuple(tuple("p%d_%d" % (d, i) for i in range(n)) for d, n in enumerate(dims))
    space = GradedSpace(p, dims, labels)
    aug = GradedSpace(p, (0,) + bialg.carrier.dims[1:], ((),) + bialg.carrier.labels[1:])
    xi = GradedMap(space, bialg.carrier, tuple(blocks))
    return PrimitivesData(space, xi, aug, tuple(free_cols))


def _evaluation(outer, inner, letters):
    """outer carrier -> inner carrier: multiply the realized letters.

    inner is built by `build_truncated`, and column i of letters[c]
    realizes the letter (c, i) of outer in inner's degree c.  The degree-d
    block is the hstack, over the compositions c₁…c_k of d in the order
    outer enumerates its words, of kron(letters[c₁], …, letters[c_k]).
    """
    top = min(outer.N, outer.base.top)
    blocks = tuple(
        np.hstack([_monomials(letters, comp, inner.field) for comp in _compositions(d, top)])
        for d in range(outer.N + 1)
    )
    return GradedMap(outer.carrier, inner.carrier, blocks)


def _monomials(letters, comp, p):
    """kron(letters[c₁], …, letters[c_k]) for comp = (c₁, …, c_k): the
    products, in `itertools.product` order, of the realized letters of
    those degrees."""
    return functools.reduce(lambda a, b: _kron(a, b, p), (letters[c] for c in comp), np.ones((1, 1), dtype=np.int64))


def _restrict_to_primitives(prims_from, prims_to, full_map):
    """Corestrict carrier-level full_map to primitive coordinates."""
    carried = full_map.compose(prims_from.into_carrier)
    blocks = []
    for block, basis, free in zip(carried.blocks, prims_to.into_carrier.blocks, prims_to.free):
        coords = _coordinates(prims_to.space.field, basis, free, block)
        if coords is None:
            raise ConstructionCheckFailed("image of a primitive is not primitive")
        blocks.append(coords)
    return GradedMap(prims_from.space, prims_to.space, tuple(blocks))


@dataclass(frozen=True, eq=False)
class BialgebraReport:
    """Exact verdicts for the heavy-separability identities."""

    v_dim: int
    field_name: str
    truncation: int
    dims: dict
    unit_retraction_holds: bool  # γ∘η = Id
    heavy_composition_holds: bool  # γγ = γ∘(counit evaluated inside primitives)
    letter_projection_identity_holds: bool  # restricted ω identity
    failure_witnesses: tuple

    @property
    def all_hold(self):
        return (
            self.unit_retraction_holds
            and self.heavy_composition_holds
            and self.letter_projection_identity_holds
        )


def verify_bialgebra_adjunction(v_dim, field, truncation, guard=DIM_GUARD) -> BialgebraReport:
    """Check the three adjunction identities on the truncated model.

    (a) the primitive-retraction composed with the unit is the identity
    on the base space; (b) its horizontal square equals its composite
    with the evaluation counit restricted to primitives; (c) the
    restricted letter-projection identity on words of augmentation
    kernel elements.
    """
    p = exact_field(field)
    b1 = build_truncated(v_dim, p, truncation, guard=guard)
    # the double and augmentation-kernel models must fit as well, and
    # their bases are known before anything is solved
    _check_guard(_primitive_dims(v_dim, p, truncation), truncation, guard)
    if v_dim:
        _check_guard((0,) + b1.carrier.dims[1:], truncation, guard)
    kernels = {}  # block key -> (K, free), shared by both models
    p1 = primitives(b1, kernels)
    omega = b1.letter_projection
    gamma_v = omega.compose(p1.into_carrier)  # W -> V
    failures = []

    # (a) unit retraction: V -> W -> V is the identity
    eta_blocks = []
    for basis, free, letters in zip(p1.into_carrier.blocks, p1.free, b1.unit_inclusion.blocks):
        coords = _coordinates(p, basis, free, letters)
        if coords is None:
            raise ConstructionCheckFailed("letters must be primitive")
        eta_blocks.append(coords)
    bold_eta = GradedMap(omega.target, p1.space, tuple(eta_blocks))
    where = gamma_v.compose(bold_eta).first_difference(GradedMap.identity(omega.target))
    if where is not None:
        failures.append(("unit-retraction", b1.base.labels[where[0]][where[1]]))
    ident_a = where is None

    # (b) heavy composition on the double model
    b2 = TruncatedTensorBialgebra(p1.space, truncation, guard=guard)
    p2 = primitives(b2, kernels)
    gamma_w = b2.letter_projection.compose(p2.into_carrier)  # P2 -> W
    evaluation = _evaluation(b2, b1, p1.into_carrier.blocks)  # carrier2 -> carrier1
    eval_on_prims = _restrict_to_primitives(p2, p1, evaluation)  # P2 -> W
    where = gamma_v.compose(gamma_w).first_difference(gamma_v.compose(eval_on_prims))
    if where is not None:
        failures.append(("heavy-composition", p2.space.labels[where[0]][where[1]]))
    ident_b = where is None

    # (c) restricted letter-projection identity on words over the
    # augmentation kernel, whose letters are the words of T(V) of degree
    # >= 1: projecting to the letters (a one-letter word keeps its letter,
    # longer words vanish) and then onto V agrees with multiplying the
    # letters out in T(V) and projecting.  ω has rows only in degree 1,
    # whose one composition is (1) and whose words are the letters, so
    # that is the only degree where (c) can fail.
    aug = p1.aug_kernel
    zeta = {1: np.eye(b1.carrier.dims[1], aug.dims[1], dtype=np.int64)}
    right = _product(omega.blocks[1], _monomials(zeta, (1,), p), p)
    where = _first_column(_product(omega.blocks[1], zeta[1], p), right)
    if where is not None:
        failures.append(("letter-projection-restriction", (1, aug.labels[1][where])))
    ident_c = where is None

    dims = {
        "carrier": list(b1.carrier.dims),
        "primitives": list(p1.space.dims),
        "double_carrier": list(b2.carrier.dims),
        "double_primitives": list(p2.space.dims),
    }
    return BialgebraReport(
        v_dim=v_dim,
        field_name=_field_name(p),
        truncation=truncation,
        dims=dims,
        unit_retraction_holds=ident_a,
        heavy_composition_holds=ident_b,
        letter_projection_identity_holds=ident_c,
        failure_witnesses=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class AlgebraWitnessReport:
    """The plain tensor-algebra retraction is separable but not heavy."""

    v_dim: int
    field_name: str
    truncation: int
    doubled_value: tuple  # (degree, coords) of ωω on the witness
    evaluated_value: tuple  # (degree, coords) of ω∘(evaluation) on it
    values_differ: bool
    unit_retraction_holds: bool


def _outer_letter_projection(bialg, word):
    """The letter projection T(T(V)) → T(V) on a word of homogeneous
    elements of T(V): a length-1 word keeps its letter, and any other
    length gives 0, in the word's total degree."""
    if len(word) == 1:
        return word[0]
    d = sum(deg for deg, _ in word)
    return (d, np.zeros(bialg.carrier.dims[d], dtype=np.int64))


def _letter_part(bialg, elt):
    """The letter projection of a homogeneous element, as Python scalars."""
    d, vec = elt
    vec = np.asarray(vec).reshape(-1, 1)
    return d, tuple(_product(bialg.letter_projection.blocks[d], vec, bialg.field)[:, 0].tolist())


def tensor_algebra_witness(v_dim, field, truncation, guard=DIM_GUARD) -> AlgebraWitnessReport:
    """Evaluate both sides of the failing heavy identity on the word 1⊗v.

    The length-two word whose letters are the algebra unit and a single
    letter v separates the two candidate composites: projecting twice
    kills it while evaluating first multiplies 1·v = v.  The projection
    still retracts the unit, so separability itself survives.
    """
    if v_dim < 1 or truncation < 2:
        raise ValueError("need v_dim >= 1 and truncation >= 2")
    p = exact_field(field)
    b1 = build_truncated(v_dim, p, truncation, guard=guard)
    unit_letter = (0, np.ones(1, dtype=np.int64))
    v_letter = (1, np.eye(1, v_dim, dtype=np.int64)[0])
    witness = [unit_letter, v_letter]  # a single length-2 word of elements

    # project twice: onto the length-1 words of T(T(V)), then onto V
    doubled = _letter_part(b1, _outer_letter_projection(b1, witness))
    # evaluation multiplies the letters, then projects to single letters;
    # in T(V) with V in degree 1 the product of elements is their kron
    prod = (unit_letter[0] + v_letter[0], _kron(unit_letter[1], v_letter[1], p))
    evaluated = _letter_part(b1, prod)

    omega = b1.letter_projection
    retr = omega.compose(b1.unit_inclusion).equals(GradedMap.identity(omega.target))
    return AlgebraWitnessReport(
        v_dim=v_dim,
        field_name=_field_name(p),
        truncation=truncation,
        doubled_value=doubled,
        evaluated_value=evaluated,
        values_differ=doubled[1] != evaluated[1],
        unit_retraction_holds=retr,
    )
