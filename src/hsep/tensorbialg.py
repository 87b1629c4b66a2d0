"""Truncated tensor bialgebra over an exact field.

The tensor algebra on a graded space, truncated past a fixed internal
degree, carries the coproduct that makes the letters primitive: a word
maps to the sum over position subsets of subword ⊗ complementary
subword.  No verdict evaluates the coproduct: the primitives are built
from Lyndon words (see `primitives`), and tests/talg_util.py expands it
word by word for the oracles.  Every map used here (multiplication,
the projection onto single letters, the primitive inclusion, the
evaluation of words of primitives) preserves internal degree, so the
truncated model computes the adjunction identities faithfully in all
degrees up to the cutoff.

Building a model checks no law.  The bialgebra laws of concatenation and
the subset coproduct hold for every base, so tests/test_tensorbialg.py
proves them once, on every word, pair and triple of models shaped like
the three that `verify_bialgebra_adjunction` builds.  What depends on
the primitive basis is gated at run time: its dimensions must be Witt's,
and the letters and the image of every primitive of the double model
must lie in its span, or `exactalg.ConstructionCheckFailed` is raised
(also under `python -O`).

Scalars are exact, and a field is passed as its characteristic: 0 for
the rationals, or a prime p <= 97.  A graded map keeps one 2-D numpy
array per degree.  Over 𝔽_p it is int64 reduced mod p.  Over ℚ every map
built here is integral, since the primitive basis is unitriangular over
ℤ.  `_product` and `_kron` run on `exactalg.exact_einsum`, which keeps
them in int64 only while no entry can wrap and in Python ints past it.

No system is solved.  The primitives are built from Lyndon words (see
`primitives`), and the coordinates of a primitive in that basis come
from its entries on the basis's leading words, through the integer
inverse of the unitriangular lead block.

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

from .exactalg import ConstructionCheckFailed, _is_prime, exact_einsum

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
# exact products


def _product(a, b, p):
    """a·b over the field of characteristic p, reduced mod p over 𝔽_p."""
    out = exact_einsum("ij,jk->ik", a, b)
    return out % p if p else out


def _kron(a, b, p):
    """np.kron of two vectors or two matrices over the field of characteristic p."""
    out = exact_einsum("ij,kl->ikjl", np.atleast_2d(a), np.atleast_2d(b)).reshape(np.multiply(a.shape, b.shape))
    return out % p if p else out


def _coordinates(prims, carried, message):
    """A map into the carrier as a map into the primitives: per degree, X
    with basis·X = the targets.  The basis is unitriangular on its lead
    rows, so X is the inverse of that block times the targets on those
    rows.  One product against the basis checks X; a target outside the
    span of the basis raises `ConstructionCheckFailed(message)`."""
    p = prims.space.field
    blocks = []
    for d, (basis, targets) in enumerate(zip(prims.into_carrier.blocks, carried.blocks)):
        X = _product(prims.lead_inverse[d], targets[list(prims.lead[d])], p)
        if (_product(basis, X, p) != targets).any():
            raise ConstructionCheckFailed(message)
        blocks.append(X)
    return GradedMap(carried.source, prims.space, tuple(blocks))


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


def _primitive_dims(dims, p, truncation):
    """Dimensions of the primitives of T(V), with dims[j] letters of
    degree j.  Over ℚ they are Witt's counts L(n) of Lyndon words,
    Σ over e dividing n of e·L(e) = s_n, where s_n = n·c_n +
    Σ_(0<j<n) c_j·s_(n−j) are the power sums of the inverse roots of
    1 − Σ c_j·t^j (s_n = v^n for v letters of degree 1).  Over 𝔽_p the
    p^k-th powers of Lie elements are primitive too, so degree d adds
    L(d/p^k) for every p^k dividing d."""
    c = [dims[j] if j < len(dims) else 0 for j in range(truncation + 1)]
    s, lyndon = [0], [0]
    for n in range(1, truncation + 1):
        s.append(n * c[n] + sum(c[j] * s[n - j] for j in range(1, n)))
        lyndon.append((s[n] - sum(e * lyndon[e] for e in range(1, n) if n % e == 0)) // n)
    out = [0]
    for d in range(1, truncation + 1):
        total, n = lyndon[d], d
        while p and n % p == 0:
            n //= p
            total += lyndon[n]
        out.append(total)
    return tuple(out)


class TruncatedTensorBialgebra:
    """Tensor algebra on a graded base, truncated past internal degree N.

    Basis words are tuples of letters (degree, index); the empty word is
    the unit.  Multiplication is concatenation (zero past the cutoff).
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

    Basis vector i of degree d has its leading word on row lead[d][i]
    with coefficient 1, and every other word it contains is
    lexicographically larger, so the lead rows of the basis form a lower
    unitriangular integer block."""

    space: GradedSpace
    into_carrier: GradedMap  # the subobject inclusion
    aug_kernel: GradedSpace  # all words of degree >= 1
    lead: tuple[tuple[int, ...], ...]

    @cached_property
    def lead_inverse(self):
        """Per degree, the integer inverse of the lead block, reduced mod p
        over 𝔽_p."""
        p = self.space.field
        return tuple(_unitriangular_inverse(block[list(rows)], p) for block, rows in zip(self.into_carrier.blocks, self.lead))


def _unitriangular_inverse(block, p):
    """The inverse of a unitriangular m × m integer matrix I − N, reduced
    mod p over 𝔽_p.  N is nilpotent, so the inverse is Σ_(k<m) N^k: the
    product of the factors I + N^(2^j) for j below the bit length of m."""
    eye = np.eye(len(block), dtype=np.int64)
    inverse, power = eye, eye - block
    for _ in range(len(block).bit_length()):
        inverse, power = _product(inverse, eye + power, p), _product(power, power, p)
    return inverse


def _is_lyndon(word):
    """Whether a word is strictly smaller than each of its proper suffixes."""
    return all(word < word[i:] for i in range(1, len(word)))


def _times(x, y):
    """The product of two elements of T(V) given as dicts word -> coefficient."""
    out = {}
    for u, a in x.items():
        for v, b in y.items():
            out[u + v] = out.get(u + v, 0) + a * b
    return out


def _bracketing(word, memo):
    """The standard bracketing of a Lyndon word, as a dict word -> integer
    coefficient: a letter is itself, and a longer word uv, with v its
    smallest proper suffix, is [u][v] − [v][u].  memo keeps the brackets
    already built."""
    if word not in memo:
        if len(word) == 1:
            memo[word] = {word: 1}
        else:
            i = min(range(1, len(word)), key=lambda i: word[i:])
            u, v = _bracketing(word[:i], memo), _bracketing(word[i:], memo)
            uv, vu = _times(u, v), _times(v, u)
            memo[word] = {w: c for w in uv.keys() | vu.keys() if (c := uv.get(w, 0) - vu.get(w, 0))}
    return memo[word]


def primitives(bialg: TruncatedTensorBialgebra) -> PrimitivesData:
    """Degree-n primitives: kernel of Δ − (−)⊗1 − 1⊗(−).

    They are the free Lie algebra on the letters over ℚ (Chen, Fox and
    Lyndon 1958) and the free restricted Lie algebra over 𝔽_p (Jacobson),
    so no system is solved.  Each Lyndon word ℓ gives its standard
    bracketing [ℓ], and over 𝔽_p also [ℓ]^(p^k) within the cutoff.  With
    letters ordered by (degree, index), [ℓ] is ℓ plus lexicographically
    larger words of the same letters (Reutenauer, Free Lie Algebras,
    1993, Thm 5.1), and [ℓ]^(p^k) is likewise ℓ^(p^k) plus larger words,
    so each degree's basis is ordered by its leading words and is
    unitriangular on them.  Its dimensions must be Witt's, or
    `ConstructionCheckFailed` is raised.  In degree 0 the map is −1⊗1, so
    every primitive lies in the augmentation kernel.
    """
    p, N = bialg.field, bialg.N
    memo = {}
    found = [[] for _ in range(N + 1)]  # per degree: (leading word, element)
    for d in range(1, N + 1):
        for word in bialg.words[d]:
            if not _is_lyndon(word):
                continue
            element, lead, e = _bracketing(word, memo), word, d
            found[d].append((lead, element))
            while p and e * p <= N:
                element = functools.reduce(_times, [{w: c % p for w, c in element.items()}] * p)
                lead, e = lead * p, e * p
                found[e].append((lead, element))
    dims = tuple(len(f) for f in found)
    witt = _primitive_dims(bialg.base.dims, p, N)
    if dims != witt:
        raise ConstructionCheckFailed("primitive basis has dimensions %s, not Witt's %s" % (dims, witt))
    blocks, lead_rows = [], []
    for d, elements in enumerate(found):
        elements.sort(key=lambda item: item[0])
        block = np.zeros((bialg.carrier.dims[d], len(elements)), dtype=np.int64)
        for i, (_, element) in enumerate(elements):
            for w, c in element.items():
                block[bialg.index[w][1], i] = c % p if p else c
        blocks.append(block)
        lead_rows.append(tuple(bialg.index[w][1] for w, _ in elements))
    labels = tuple(tuple("p%d_%d" % (d, i) for i in range(n)) for d, n in enumerate(dims))
    space = GradedSpace(p, dims, labels)
    aug = GradedSpace(p, (0,) + bialg.carrier.dims[1:], ((),) + bialg.carrier.labels[1:])
    xi = GradedMap(space, bialg.carrier, tuple(blocks))
    return PrimitivesData(space, xi, aug, tuple(lead_rows))


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
    _check_guard(_primitive_dims(b1.base.dims, p, truncation), truncation, guard)
    if v_dim:
        _check_guard((0,) + b1.carrier.dims[1:], truncation, guard)
    p1 = primitives(b1)
    omega = b1.letter_projection
    gamma_v = omega.compose(p1.into_carrier)  # W -> V
    failures = []

    # (a) unit retraction: V -> W -> V is the identity
    bold_eta = _coordinates(p1, b1.unit_inclusion, "letters must be primitive")
    where = gamma_v.compose(bold_eta).first_difference(GradedMap.identity(omega.target))
    if where is not None:
        failures.append(("unit-retraction", b1.base.labels[where[0]][where[1]]))
    ident_a = where is None

    # (b) heavy composition on the double model
    b2 = TruncatedTensorBialgebra(p1.space, truncation, guard=guard)
    p2 = primitives(b2)
    gamma_w = b2.letter_projection.compose(p2.into_carrier)  # P2 -> W
    evaluation = _evaluation(b2, b1, p1.into_carrier.blocks)  # carrier2 -> carrier1
    eval_on_prims = _coordinates(p1, evaluation.compose(p2.into_carrier), "image of a primitive is not primitive")  # P2 -> W
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
