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

Δ keeps the multiset of letters of a word, so the primitives of each
degree are solved one letter-content block at a time, on `exactalg`'s
row reduction; no pair model of the whole degree is built.  The
dimension guard counts the words of each degree before building any.

Scalars are exact: rationals or a prime field with p <= 97.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactalg import ConstructionCheckFailed, _is_prime, _kernel

__all__ = [
    "ExactField",
    "RationalField",
    "PrimeField",
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


class ExactField:
    name = "field"
    characteristic = None

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError


class RationalField(ExactField):
    name = "Q"
    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(ExactField):
    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("field order must be prime")
        if p > 97:
            raise ValueError("prime fields are supported up to p = 97")
        self.p = p
        self.name = "F%d" % p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


def exact_field(spec) -> ExactField:
    """'q'/'Q'/0 gives the rationals, an integer gives a prime field."""
    if isinstance(spec, ExactField):
        return spec
    if isinstance(spec, str):
        if spec.lower() == "q":
            return RationalField()
        spec = int(spec)
    if spec == 0:
        return RationalField()
    return PrimeField(spec)


# ---------------------------------------------------------------------------
# small exact linear algebra over a field; eliminations run in exactalg


def _coordinates(field, basis, free, targets):
    """X with basis·X = targets, or None when a column of targets lies
    outside the span of the columns of basis.  Column i of basis is the
    unit vector on row free[i] there, so X is targets on the free rows;
    one sparse product against basis checks it."""
    nt = len(targets[0]) if targets else 0
    rest = np.array(targets, dtype=object).reshape(len(targets), nt)
    X = rest[list(free)]
    B = np.array(basis, dtype=object).reshape(len(basis), len(free))
    for k, row in enumerate(X):
        rows, cols = np.flatnonzero(B[:, k]), np.flatnonzero(row)
        rest[np.ix_(rows, cols)] -= np.outer(B[rows, k], row[cols])
    p = field.characteristic
    if (rest % p if p else rest).any():
        return None
    return X.tolist()


def _mat_mul(field, a, b):
    if not a or not b:
        return [[field.zero()] * (len(b[0]) if b else 0) for _ in a]
    rows = len(a)
    cols = len(b[0])
    inner = len(b)
    out = [[field.zero()] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            f = ai[k]
            if field.is_zero(f):
                continue
            bk = b[k]
            for j in range(cols):
                if not field.is_zero(bk[j]):
                    oi[j] = field.add(oi[j], field.mul(f, bk[j]))
    return out


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional graded vector space with labeled bases."""

    field: ExactField
    dims: tuple[int, ...]
    labels: tuple[tuple[str, ...], ...]

    @property
    def top(self):
        return len(self.dims) - 1

    @property
    def total_dim(self):
        return sum(self.dims)

    def zero_vec(self, degree):
        return [self.field.zero()] * self.dims[degree]


@dataclass(frozen=True, eq=False)
class GradedMap:
    """Degree-preserving linear map given by one block per degree."""

    source: GradedSpace
    target: GradedSpace
    blocks: tuple  # blocks[d]: target.dims[d] x source.dims[d]

    def apply(self, degree, vec):
        field = self.source.field
        out = [field.zero()] * self.target.dims[degree]
        block = self.blocks[degree]
        for j, x in enumerate(vec):
            if field.is_zero(x):
                continue
            for i in range(len(out)):
                out[i] = field.add(out[i], field.mul(block[i][j], x))
        return out

    def compose(self, inner):
        """self ∘ inner."""
        field = self.source.field
        blocks = tuple(
            tuple(tuple(row) for row in _mat_mul(field, self.blocks[d], inner.blocks[d]))
            for d in range(len(self.blocks))
        )
        return GradedMap(inner.source, self.target, blocks)

    def equals(self, other):
        if self.source.dims != other.source.dims or self.target.dims != other.target.dims:
            return False
        field = self.source.field
        for b1, b2 in zip(self.blocks, other.blocks):
            for r1, r2 in zip(b1, b2):
                for x, y in zip(r1, r2):
                    if not field.is_zero(field.sub(x, y)):
                        return False
        return True

    def first_difference(self, other):
        """(degree, source basis index) of the first disagreeing column."""
        for d, (b1, b2) in enumerate(zip(self.blocks, other.blocks)):
            cols = len(b1[0]) if b1 else 0
            for j in range(cols):
                for r1, r2 in zip(b1, b2):
                    if not self.source.field.is_zero(self.source.field.sub(r1[j], r2[j])):
                        return d, j
        return None

    @staticmethod
    def identity(space):
        blocks = []
        for d in range(len(space.dims)):
            n = space.dims[d]
            blocks.append(tuple(tuple(space.field.one() if i == j else space.field.zero() for j in range(n)) for i in range(n)))
        return GradedMap(space, space, tuple(blocks))


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
        for total in itertools.accumulate(_word_counts(base.dims, truncation)):
            if total > guard:
                raise DimensionGuardExceeded(
                    "truncated model needs %d+ dimensions (guard %d)" % (total, guard)
                )
        maxdeg = min(truncation, base.top)
        words = [[] for _ in range(truncation + 1)]
        for d in range(truncation + 1):
            for comp in _compositions(d, maxdeg):
                if any(base.dims[p] == 0 for p in comp):
                    continue
                for choice in itertools.product(*(range(base.dims[p]) for p in comp)):
                    words[d].append(tuple(zip(comp, choice)))
        self.words = tuple(tuple(ws) for ws in words)
        self.index = {
            w: (d, i) for d in range(truncation + 1) for i, w in enumerate(self.words[d])
        }
        labels = tuple(
            tuple(self._word_label(w) for w in self.words[d])
            for d in range(truncation + 1)
        )
        self.carrier = GradedSpace(self.field, tuple(len(ws) for ws in self.words), labels)

    def _word_label(self, word):
        if not word:
            return "1"
        return ".".join(self.base.labels[p][i] for p, i in word)

    # -- elements are homogeneous: (degree, coefficient list) -------------

    def unit_elt(self):
        return (0, [self.field.one()] + [self.field.zero()] * (self.carrier.dims[0] - 1))

    def word_elt(self, word):
        d, i = self.index[word]
        vec = self.carrier.zero_vec(d)
        vec[i] = self.field.one()
        return (d, vec)

    def mult_elt(self, x, y):
        """Concatenation product of homogeneous elements; zero past N."""
        dx, vx = x
        dy, vy = y
        d = dx + dy
        if d > self.N:
            return (self.N, self.carrier.zero_vec(self.N))
        out = self.carrier.zero_vec(d)
        for i, a in enumerate(vx):
            if self.field.is_zero(a):
                continue
            wx = self.words[dx][i]
            for j, b in enumerate(vy):
                if self.field.is_zero(b):
                    continue
                wy = self.words[dy][j]
                _, pos = self.index[wx + wy]
                out[pos] = self.field.add(out[pos], self.field.mul(a, b))
        return (d, out)

    # -- coproduct -----------------------------------------------------------

    def delta_word(self, word):
        """Coproduct of a basis word as a dict pair -> integer coefficient."""
        out = {}
        n = len(word)
        for mask in range(1 << n):
            left = tuple(word[i] for i in range(n) if mask >> i & 1)
            right = tuple(word[i] for i in range(n) if not mask >> i & 1)
            key = (left, right)
            out[key] = out.get(key, 0) + 1
        return out

    # -- structural maps ----------------------------------------------------

    @cached_property
    def letter_projection(self):
        """Projection onto single-letter words, carrier -> base."""
        blocks = []
        for d in range(self.N + 1):
            nb = self.base.dims[d] if d <= self.base.top else 0
            block = [[self.field.zero()] * self.carrier.dims[d] for _ in range(nb)]
            for j, w in enumerate(self.words[d]):
                if len(w) == 1:
                    p, i = w[0]
                    block[i][j] = self.field.one()
            blocks.append(tuple(tuple(r) for r in block))
        target = GradedSpace(
            self.field,
            tuple(self.base.dims[d] if d <= self.base.top else 0 for d in range(self.N + 1)),
            tuple(self.base.labels[d] if d <= self.base.top else () for d in range(self.N + 1)),
        )
        return GradedMap(self.carrier, target, tuple(blocks))

    @cached_property
    def unit_inclusion(self):
        """Base -> carrier as single-letter words (the adjunction unit)."""
        blocks = []
        for d in range(self.N + 1):
            nb = self.base.dims[d] if d <= self.base.top else 0
            block = [[self.field.zero()] * nb for _ in range(self.carrier.dims[d])]
            for j in range(nb):
                _, pos = self.index[((d, j),)]
                block[pos][j] = self.field.one()
            blocks.append(tuple(tuple(r) for r in block))
        return GradedMap(self.letter_projection.target, self.carrier, tuple(blocks))


def build_truncated(v_dim, field, truncation, guard=DIM_GUARD) -> TruncatedTensorBialgebra:
    """Tensor bialgebra on an ungraded space placed in degree 1."""
    if v_dim < 0:
        raise ValueError("v_dim must be >= 0")
    fld = exact_field(field)
    base = GradedSpace(
        fld,
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


def _primitive_block(bialg, block):
    """Kernel of Δ − (−)⊗1 − 1⊗(−) on the span of the words in `block`, which
    share their letters; (K, free) as `exactalg._kernel` gives them."""
    rows = {}  # pair of words -> its row
    for k, w in enumerate(block):
        counts = bialg.delta_word(w)
        counts[(w, ())] -= 1
        counts[((), w)] -= 1
        for pair, c in counts.items():
            rows.setdefault(pair, [0] * len(block))[k] = c
    mat = np.array(list(rows.values()), dtype=np.int64).reshape(len(rows), len(block))
    return _kernel(mat, bialg.field.characteristic)


def primitives(bialg: TruncatedTensorBialgebra) -> PrimitivesData:
    """Degree-n primitives: kernel of Δ − (−)⊗1 − 1⊗(−).

    Δ keeps the multiset of letters of a word, so the system splits into
    one block per letter content, each solved on its own.  A block's free
    columns are those of the whole degree's elimination, and the basis is
    ordered by them, as one elimination of the whole degree would order it.
    In degree 0 the map is −1⊗1, so every primitive lies in the
    augmentation kernel.
    """
    field = bialg.field
    kernels, free_cols = [], []
    for d in range(bialg.N + 1):
        content = {}
        for j, w in enumerate(bialg.words[d]):
            content.setdefault(tuple(sorted(w)), []).append(j)
        found = []  # (free column, kernel vector)
        for cols in content.values():
            K, free = _primitive_block(bialg, [bialg.words[d][j] for j in cols])
            for f, kvec in zip(free, K.T.tolist()):
                vec = [field.zero()] * bialg.carrier.dims[d]
                for j, x in zip(cols, kvec):
                    vec[j] = x
                found.append((cols[f], vec))
        found.sort()
        kernels.append([vec for _, vec in found])
        free_cols.append(tuple(f for f, _ in found))
    dims = tuple(len(k) for k in kernels)
    labels = tuple(
        tuple("p%d_%d" % (d, i) for i in range(dims[d])) for d in range(bialg.N + 1)
    )
    space = GradedSpace(field, dims, labels)
    blocks = []
    for d in range(bialg.N + 1):
        block = [
            [kernels[d][j][i] for j in range(dims[d])]
            for i in range(bialg.carrier.dims[d])
        ]
        blocks.append(tuple(tuple(r) for r in block))
    xi = GradedMap(space, bialg.carrier, tuple(blocks))
    aug = GradedSpace(field, (0,) + bialg.carrier.dims[1:], ((),) + bialg.carrier.labels[1:])
    return PrimitivesData(space, xi, aug, tuple(free_cols))


def _evaluation_map(bialg_outer, bialg_inner, letter_realization):
    """T(letters) -> inner carrier: multiply the realized letters.

    bialg_outer is a truncated tensor bialgebra whose base letters are
    realized as homogeneous elements of bialg_inner by
    letter_realization(degree, index).
    """
    field = bialg_inner.field
    blocks = []
    for d in range(bialg_outer.N + 1):
        cols = bialg_outer.carrier.dims[d]
        rows = bialg_inner.carrier.dims[d]
        block = [[field.zero()] * cols for _ in range(rows)]
        for j, w in enumerate(bialg_outer.words[d]):
            acc = bialg_inner.unit_elt()
            for p, i in w:
                acc = bialg_inner.mult_elt(acc, letter_realization(p, i))
            for i, x in enumerate(acc[1]):
                if not field.is_zero(x):
                    block[i][j] = field.add(block[i][j], x)
        blocks.append(tuple(tuple(r) for r in block))
    return GradedMap(bialg_outer.carrier, bialg_inner.carrier, tuple(blocks))


def _restrict_to_primitives(prims_from, prims_to, full_map):
    """Corestrict carrier-level full_map to primitive coordinates."""
    carried = full_map.compose(prims_from.into_carrier)
    blocks = []
    for d, block in enumerate(carried.blocks):
        coords = _coordinates(prims_to.space.field, prims_to.into_carrier.blocks[d], prims_to.free[d], block)
        if coords is None:
            raise ConstructionCheckFailed("image of a primitive is not primitive")
        blocks.append(tuple(tuple(row) for row in coords))
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
    fld = exact_field(field)
    b1 = build_truncated(v_dim, fld, truncation, guard=guard)
    p1 = primitives(b1)
    w_space = p1.space
    gamma_v = b1.letter_projection.compose(p1.into_carrier)  # W -> V
    failures = []

    # (a) unit retraction: V -> W -> V is the identity
    eta_blocks = []
    for d in range(truncation + 1):
        coords = _coordinates(fld, p1.into_carrier.blocks[d], p1.free[d], b1.unit_inclusion.blocks[d])
        if coords is None:
            raise ConstructionCheckFailed("letters must be primitive")
        eta_blocks.append(tuple(tuple(row) for row in coords))
    bold_eta = GradedMap(b1.letter_projection.target, w_space, tuple(eta_blocks))
    ident_a = gamma_v.compose(bold_eta).equals(GradedMap.identity(b1.letter_projection.target))
    if not ident_a:
        where = gamma_v.compose(bold_eta).first_difference(
            GradedMap.identity(b1.letter_projection.target)
        )
        failures.append(("unit-retraction", b1.base.labels[where[0]][where[1]]))

    # (b) heavy composition on the double model
    b2 = TruncatedTensorBialgebra(w_space, truncation, guard=guard)
    p2 = primitives(b2)
    gamma_w = b2.letter_projection.compose(p2.into_carrier)  # P2 -> W

    def realize_w_letter(p, i):
        col = [p1.into_carrier.blocks[p][r][i] for r in range(b1.carrier.dims[p])]
        return (p, col)

    evaluation = _evaluation_map(b2, b1, realize_w_letter)  # carrier2 -> carrier1
    eval_on_prims = _restrict_to_primitives(p2, p1, evaluation)  # P2 -> W
    lhs = gamma_v.compose(gamma_w)
    rhs = gamma_v.compose(eval_on_prims)
    ident_b = lhs.equals(rhs)
    if not ident_b:
        where = lhs.first_difference(rhs)
        failures.append(("heavy-composition", p2.space.labels[where[0]][where[1]]))

    # (c) restricted letter-projection identity on words over the
    # augmentation kernel
    aug = p1.aug_kernel
    ident_c = True
    witness_c = None
    if aug.total_dim:
        b3 = TruncatedTensorBialgebra(aug, truncation, guard=guard)
        for d in range(truncation + 1):
            for j, w in enumerate(b3.words[d]):
                # left side: outer projection keeps only single letters
                if len(w) == 1:
                    p, i = w[0]
                    left = b1.letter_projection.apply(*b1.word_elt(b1.words[p][i]))
                else:
                    left = [fld.zero()] * (b1.base.dims[d] if d <= b1.base.top else 0)
                # right side: multiply the letters in the inner algebra,
                # then project to single letters
                acc = b1.unit_elt()
                for p, i in w:
                    acc = b1.mult_elt(acc, b1.word_elt(b1.words[p][i]))
                if left != b1.letter_projection.apply(*acc):
                    ident_c = False
                    witness_c = (d, b3.carrier.labels[d][j])
                    break
            if not ident_c:
                break
    if not ident_c:
        failures.append(("letter-projection-restriction", witness_c))

    dims = {
        "carrier": list(b1.carrier.dims),
        "primitives": list(w_space.dims),
        "double_carrier": list(b2.carrier.dims),
        "double_primitives": list(p2.space.dims),
    }
    return BialgebraReport(
        v_dim=v_dim,
        field_name=fld.name,
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
    return (d, bialg.carrier.zero_vec(d))


def tensor_algebra_witness(v_dim, field, truncation, guard=DIM_GUARD) -> AlgebraWitnessReport:
    """Evaluate both sides of the failing heavy identity on the word 1⊗v.

    The length-two word whose letters are the algebra unit and a single
    letter v separates the two candidate composites: projecting twice
    kills it while evaluating first multiplies 1·v = v.  The projection
    still retracts the unit, so separability itself survives.
    """
    if v_dim < 1 or truncation < 2:
        raise ValueError("need v_dim >= 1 and truncation >= 2")
    fld = exact_field(field)
    b1 = build_truncated(v_dim, fld, truncation, guard=guard)
    unit_letter = b1.unit_elt()
    v_letter = b1.word_elt(((1, 0),))
    witness = [unit_letter, v_letter]  # a single length-2 word of elements

    # project twice: onto the length-1 words of T(T(V)), then onto V
    outer = _outer_letter_projection(b1, witness)
    doubled = (outer[0], b1.letter_projection.apply(*outer))
    # evaluation multiplies the letters, then projects to single letters
    prod = b1.unit_elt()
    for elt in witness:
        prod = b1.mult_elt(prod, elt)
    evaluated = (prod[0], b1.letter_projection.apply(prod[0], prod[1]))

    eta = b1.unit_inclusion
    omega = b1.letter_projection
    retr = omega.compose(eta).equals(GradedMap.identity(omega.target))
    return AlgebraWitnessReport(
        v_dim=v_dim,
        field_name=fld.name,
        truncation=truncation,
        doubled_value=(doubled[0], tuple(doubled[1])),
        evaluated_value=(evaluated[0], tuple(evaluated[1])),
        values_differ=tuple(doubled[1]) != tuple(evaluated[1]),
        unit_retraction_holds=retr,
    )
