"""Finite rings presented by structure constants.

A ring is an additive group ⊕ Z/m_i with a dense basis-indexed
multiplication table, a unit vector and a label; its elements are
coordinate tuples.  Construction always validates bilinearity
compatibility, associativity and the unit laws exhaustively on basis
tuples; the named families (matrix, triangular, product, group ring,
polynomial quotient, tensor product, quotient) are built on top and
never bypass that validation.

Products, hom checks and ideals contract the structure tensor
`np_mul` with `exactalg.exact_einsum`, which picks int64 or Python ints
for each contraction.  A⊗_R B is the cokernel of the balance relations
that sepkit's tensor powers use (`phi_actions`, `balance_relations`),
and both A⊗_R B and S/I carry the product of their generators onto the
presentation in `_ring_on_presentation`: e_u·e_v = P·mul(L·e_u, L·e_v),
with the canonical homs read off P.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .documents import load
from .exactalg import (
    DimensionMismatch,
    _int_array,
    _is_prime,
    _unique_rows,
    cokernel,
    exact_einsum,
    subgroup_basis,
)

__all__ = [
    "FiniteRing",
    "RingHom",
    "StandardRing",
    "RingConstructionError",
    "NotAssociative",
    "UnitLawFails",
    "BilinearityIncompatible",
    "RingHomError",
    "NotAdditiveWellDefined",
    "NotMultiplicative",
    "NotUnital",
    "InvalidCayleyTable",
    "NonCentralImage",
    "ReduciblePolynomialAllowed",
    "construct_ring",
    "construct_standard_ring",
    "check_ring_hom",
    "identity_hom",
    "compose_homs",
    "ring_to_doc",
    "ring_from_doc",
    "hom_from_doc",
    "hom_to_doc",
    "phi_actions",
    "balance_relations",
]


class RingConstructionError(ValueError):
    """A structure-constant table fails a ring law."""


class NotAssociative(RingConstructionError):
    def __init__(self, triple):
        super().__init__("associativity fails on basis triple %r" % (triple,))
        self.triple = triple


class UnitLawFails(RingConstructionError):
    def __init__(self, where):
        super().__init__("unit law fails at basis element %r" % (where,))
        self.where = where


class BilinearityIncompatible(RingConstructionError):
    def __init__(self, pair):
        super().__init__("product of basis pair %r is not killed by the factor orders" % (pair,))
        self.pair = pair


class RingHomError(ValueError):
    """A candidate matrix is not a unital ring homomorphism."""


class NotAdditiveWellDefined(RingHomError):
    def __init__(self, index):
        super().__init__("image of basis element %d is not killed by its order" % index)
        self.index = index


class NotMultiplicative(RingHomError):
    def __init__(self, pair):
        super().__init__("multiplicativity fails on basis pair %r" % (pair,))
        self.pair = pair


class NotUnital(RingHomError):
    def __init__(self):
        super().__init__("unit is not preserved")


class InvalidCayleyTable(ValueError):
    """The given table is not the multiplication table of a group."""


class NonCentralImage(ValueError):
    """Tensor construction requires central images of the base ring."""


class ReduciblePolynomialAllowed(UserWarning):
    """The quotient polynomial is reducible; the ring is still built."""


@dataclass(frozen=True)
class FiniteRing:
    """Finite ring: additive group ⊕ Z/m_i with structure constants.

    mul_table[i][j] holds the coordinates of e_i * e_j, reduced into
    canonical residue ranges.  The zero ring is the empty basis.
    """

    moduli: tuple[int, ...]
    mul_table: tuple[tuple[tuple[int, ...], ...], ...]
    unit: tuple[int, ...]
    label: str
    basis_labels: tuple[str, ...]

    @property
    def k(self):
        return len(self.moduli)

    @property
    def order(self):
        return math.prod(self.moduli)

    @cached_property
    def np_mul(self):
        # structure tensor T[i, j, l] = coord l of e_i e_j
        return _int_array(self.mul_table, (self.k,) * 3)

    @cached_property
    def np_moduli(self):
        return _int_array(self.moduli, (self.k,))

    @property
    def is_commutative(self):
        """Whether e_i·e_j = e_j·e_i for every basis pair, which the
        table holds reduced."""
        t = self.np_mul
        return bool((t == t.transpose(1, 0, 2)).all())

    def reduce(self, coords):
        return tuple(int(c) % m for c, m in zip(coords, self.moduli))

    def __repr__(self):
        return "FiniteRing(%s, order=%d)" % (self.label, self.order)


def construct_ring(moduli, mul_table, unit, label="ring", basis_labels=None) -> FiniteRing:
    """Validate structure constants exhaustively and build the ring.

    Raises BilinearityIncompatible / NotAssociative / UnitLawFails with
    the offending basis tuple.
    """
    moduli = tuple(int(m) for m in moduli)
    if any(m < 1 for m in moduli):
        raise ValueError("basis moduli must be >= 1")
    k = len(moduli)
    if basis_labels is None:
        basis_labels = tuple("e%d" % i for i in range(k))
    else:
        basis_labels = tuple(str(x) for x in basis_labels)
        if len(basis_labels) != k:
            raise DimensionMismatch("need %d basis labels" % k)
    if len(mul_table) != k or any(len(r) != k for r in mul_table):
        raise DimensionMismatch("mul_table must be k x k")
    if any(len(cell) != k for row in mul_table for cell in row):
        raise DimensionMismatch("mul_table cell width")
    table = tuple(
        tuple(tuple(int(c) % m for c, m in zip(cell, moduli)) for cell in row)
        for row in mul_table
    )
    if len(unit) != k:
        raise DimensionMismatch("unit width")
    unit = tuple(int(c) % m for c, m in zip(unit, moduli))
    ring = FiniteRing(moduli, table, unit, str(label), basis_labels)
    if k == 0:
        return ring

    # bilinearity compatibility: m_i·(e_i e_j) and m_j·(e_i e_j) vanish,
    # that is gcd(m_i, m_j)·(e_i e_j) does
    t, mods = ring.np_mul, ring.np_moduli
    killed = exact_einsum("ij,ijl->ijl", np.gcd.outer(mods, mods), t) % mods
    bad = np.argwhere(killed.any(axis=2))
    if bad.size:
        raise BilinearityIncompatible(tuple(int(x) for x in bad[0]))

    left = exact_einsum("ija,alc->ijlc", t, t)
    right = exact_einsum("jla,iac->ijlc", t, t)
    bad = np.argwhere((left - right) % mods != 0)
    if bad.size:
        raise NotAssociative(tuple(int(x) for x in bad[0][:3]))
    u = _int_array(unit, (k,))
    eye = np.eye(k, dtype=np.int64) % mods
    lhs = exact_einsum("j,jil->il", u, t) % mods
    rhs = exact_einsum("j,ijl->il", u, t) % mods
    bad = np.flatnonzero(((lhs != eye) | (rhs != eye)).any(axis=1))
    if bad.size:
        raise UnitLawFails(int(bad[0]))
    return ring


@dataclass(frozen=True)
class RingHom:
    """Unital ring homomorphism; matrix[i] = coordinates of φ(e_i)."""

    source: FiniteRing
    target: FiniteRing
    matrix: tuple[tuple[int, ...], ...]

    def apply_coords(self, coords):
        coords = _int_array(coords, (self.source.k,))
        return self.target.reduce(exact_einsum("i,il->l", coords, self.np_matrix).tolist())

    @cached_property
    def np_matrix(self):
        """Row i holds the coordinates of φ(e_i)."""
        return _int_array(self.matrix, (self.source.k, self.target.k))

    def is_image_central(self):
        t, phi = self.target.np_mul, self.np_matrix
        diff = exact_einsum("ra,ajl->rjl", phi, t) - exact_einsum("ra,jal->rjl", phi, t)
        return not (diff % self.target.np_moduli).any()

    def __repr__(self):
        return "RingHom(%s -> %s)" % (self.source.label, self.target.label)


def check_ring_hom(matrix, source: FiniteRing, target: FiniteRing) -> RingHom:
    """Accept iff the matrix is additive well-defined, multiplicative, unital."""
    if len(matrix) != source.k:
        raise DimensionMismatch("hom matrix needs one column per source basis element")
    if any(len(col) != target.k for col in matrix):
        raise DimensionMismatch("hom matrix columns need one coordinate per target basis element")
    matrix = tuple(tuple(int(c) % m for c, m in zip(col, target.moduli)) for col in matrix)
    hom = RingHom(source, target, matrix)
    phi, mods = hom.np_matrix, target.np_moduli
    bad = np.flatnonzero((exact_einsum("i,il->il", source.np_moduli, phi) % mods).any(axis=1))
    if bad.size:
        raise NotAdditiveWellDefined(int(bad[0]))
    # φ(e_i e_j) against φ(e_i)φ(e_j), first failing pair in row-major order
    lhs = exact_einsum("ija,ac->ijc", source.np_mul, phi)
    rhs = exact_einsum("ia,jb,abc->ijc", phi, phi, target.np_mul)
    bad = np.argwhere(((lhs - rhs) % mods).any(axis=2))
    if bad.size:
        raise NotMultiplicative(tuple(int(x) for x in bad[0]))
    if hom.apply_coords(source.unit) != target.unit:
        raise NotUnital()
    return hom


def identity_hom(ring: FiniteRing) -> RingHom:
    return check_ring_hom(np.eye(ring.k, dtype=np.int64).tolist(), ring, ring)


def compose_homs(second: RingHom, first: RingHom) -> RingHom:
    """second ∘ first, revalidated."""
    if first.target != second.source:
        raise ValueError("homs do not compose")
    matrix = exact_einsum("ia,al->il", first.np_matrix, second.np_matrix).tolist()
    return check_ring_hom(matrix, first.source, second.target)


@dataclass(frozen=True)
class StandardRing:
    """A named construction: the ring and its canonical homs."""

    ring: FiniteRing
    homs: dict


def _matrix_basis(base: FiniteRing, n, cells):
    """Basis data for a ring of matrices over `base` supported on `cells`."""
    index = {}
    labels = []
    moduli = []
    for i, j in cells:
        for b in range(base.k):
            index[(b, i, j)] = len(labels)
            if base.k == 1:
                labels.append("E%d%d" % (i + 1, j + 1))
            else:
                labels.append("%s.E%d%d" % (base.basis_labels[b], i + 1, j + 1))
            moduli.append(base.moduli[b])
    return index, labels, moduli


def _matrix_like_ring(base, n, cells, label):
    index, labels, moduli = _matrix_basis(base, n, cells)
    k = len(labels)
    cellset = set(cells)
    table = [[None] * k for _ in range(k)]
    for (b, i, j), bi in index.items():
        for (c, s, t), ci in index.items():
            out = [0] * k
            if j == s and (i, t) in cellset:
                prod = base.mul_table[b][c]
                for d in range(base.k):
                    if prod[d]:
                        out[index[(d, i, t)]] = prod[d]
            table[bi][ci] = tuple(out)
    unit = [0] * k
    for i in range(n):
        if (i, i) in cellset:
            for d in range(base.k):
                if base.unit[d]:
                    unit[index[(d, i, i)]] = base.unit[d]
    ring = construct_ring(moduli, table, unit, label, labels)
    return ring, index


def _standard_modular(params):
    n = int(params["n"])
    if n < 1:
        raise ValueError("modular ring needs n >= 1")
    ring = construct_ring((n,), (((1,),),), (1,), "Z/%d" % n, ("1",))
    return StandardRing(ring, {})


def _standard_matrix(params):
    base = params["base"]
    n = int(params["n"])
    cells = [(i, j) for i in range(n) for j in range(n)]
    ring, index = _matrix_like_ring(base, n, cells, "M%d(%s)" % (n, base.label))
    cols = []
    for b in range(base.k):
        col = [0] * ring.k
        for i in range(n):
            col[index[(b, i, i)]] = 1
        cols.append(tuple(col))
    scalar = check_ring_hom(cols, base, ring)
    return StandardRing(ring, {"scalar": scalar})


def _standard_triangular(params):
    base = params["base"]
    n = int(params["n"])
    tri_cells = [(i, j) for i in range(n) for j in range(n) if i <= j]
    tri, tri_index = _matrix_like_ring(base, n, tri_cells, "T%d(%s)" % (n, base.label))
    all_cells = [(i, j) for i in range(n) for j in range(n)]
    mat, mat_index = _matrix_like_ring(base, n, all_cells, "M%d(%s)" % (n, base.label))
    cols = []
    for (b, i, j), bi in sorted(tri_index.items(), key=lambda kv: kv[1]):
        col = [0] * mat.k
        col[mat_index[(b, i, j)]] = 1
        cols.append(tuple(col))
    inclusion = check_ring_hom(cols, tri, mat)
    scalar_cols = []
    for b in range(base.k):
        col = [0] * tri.k
        for i in range(n):
            col[tri_index[(b, i, i)]] = 1
        scalar_cols.append(tuple(col))
    scalar = check_ring_hom(scalar_cols, base, tri)
    return StandardRing(tri, {"into_matrix": inclusion, "scalar": scalar})


def _standard_product(params):
    if "homs" in params:
        hom_a, hom_b = params["homs"]
        base = hom_a.source
        if hom_b.source != base:
            raise ValueError("product algebra factors must share the base ring")
        a, b = hom_a.target, hom_b.target
    else:
        a, b = params["factors"]
        hom_a = hom_b = None
        base = None
    ka, kb = a.k, b.k
    moduli = a.moduli + b.moduli
    k = ka + kb
    table = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out = [0] * k
            if i < ka and j < ka:
                out[:ka] = a.mul_table[i][j]
            elif i >= ka and j >= ka:
                out[ka:] = b.mul_table[i - ka][j - ka]
            table[i][j] = tuple(out)
    unit = tuple(a.unit) + tuple(b.unit)
    labels = tuple("L." + x for x in a.basis_labels) + tuple("R." + x for x in b.basis_labels)
    ring = construct_ring(moduli, table, unit, "%s x %s" % (a.label, b.label), labels)
    proj_a = check_ring_hom(np.eye(ka, dtype=np.int64).tolist() + [(0,) * ka] * kb, ring, a)
    proj_b = check_ring_hom([(0,) * kb] * ka + np.eye(kb, dtype=np.int64).tolist(), ring, b)
    homs = {"proj_0": proj_a, "proj_1": proj_b}
    if hom_a is not None:
        cols = tuple(
            tuple(hom_a.matrix[i]) + tuple(hom_b.matrix[i]) for i in range(base.k)
        )
        homs["unit"] = check_ring_hom(cols, base, ring)
    return StandardRing(ring, homs)


def _validate_cayley(table, identity):
    n = len(table)
    if any(len(r) != n for r in table):
        raise InvalidCayleyTable("table is not square")
    elems = set(range(n))
    for r in table:
        if set(r) != elems:
            raise InvalidCayleyTable("a row is not a permutation")
    for j in range(n):
        if set(table[i][j] for i in range(n)) != elems:
            raise InvalidCayleyTable("a column is not a permutation")
    if identity not in elems:
        raise InvalidCayleyTable("identity index out of range")
    for i in range(n):
        if table[identity][i] != i or table[i][identity] != i:
            raise InvalidCayleyTable("identity law fails at %d" % i)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                if table[table[i][j]][l] != table[i][table[j][l]]:
                    raise InvalidCayleyTable("associativity fails at (%d,%d,%d)" % (i, j, l))
    for i in range(n):
        if identity not in [table[i][j] for j in range(n)]:
            raise InvalidCayleyTable("element %d has no inverse" % i)


def _standard_group_ring(params):
    base = params["base"]
    table = [list(map(int, row)) for row in params["cayley"]]
    identity = int(params.get("identity", 0))
    names = params.get("names")
    _validate_cayley(table, identity)
    ng = len(table)
    if names is None:
        names = ["g%d" % i if i != identity else "1" for i in range(ng)]
    kb = base.k
    k = kb * ng
    idx = lambda b, g: g * kb + b
    moduli = tuple(base.moduli[b] for g in range(ng) for b in range(kb))
    mul = [[None] * k for _ in range(k)]
    for g in range(ng):
        for b in range(kb):
            for h in range(ng):
                for c in range(kb):
                    out = [0] * k
                    gh = table[g][h]
                    prod = base.mul_table[b][c]
                    for d in range(kb):
                        if prod[d]:
                            out[idx(d, gh)] = prod[d]
                    mul[idx(b, g)][idx(c, h)] = tuple(out)
    unit = [0] * k
    for d in range(kb):
        unit[idx(d, identity)] = base.unit[d]
    labels = tuple(
        names[g] if kb == 1 else "%s.%s" % (base.basis_labels[b], names[g])
        for g in range(ng)
        for b in range(kb)
    )
    ring = construct_ring(moduli, mul, unit, "%s[G%d]" % (base.label, ng), labels)
    cols = []
    for b in range(kb):
        col = [0] * k
        col[idx(b, identity)] = 1
        cols.append(tuple(col))
    scalar = check_ring_hom(cols, base, ring)
    return StandardRing(ring, {"scalar": scalar})


def _poly_mod(coeffs, f, p):
    # reduce coeffs modulo the monic polynomial f over F_p
    d = len(f) - 1
    out = [c % p for c in coeffs]
    while len(out) > d:
        top = out.pop()
        if top:
            for i in range(d):
                out[-d + i] = (out[-d + i] - top * f[i]) % p
    out += [0] * (d - len(out))
    return out


def _poly_is_reducible(f, p):
    d = len(f) - 1
    if d <= 1:
        return False
    for deg in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            g = list(tail) + [1]
            # trial division of f by g
            rem = [c % p for c in f]
            while len(rem) >= len(g):
                top = rem[-1]
                if top:
                    shift = len(rem) - len(g)
                    for i in range(len(g)):
                        rem[shift + i] = (rem[shift + i] - top * g[i]) % p
                rem.pop()
            if not any(rem):
                return True
    return False


_POLY_STEPS = 10**6  # trial divisions testing p, and candidate factors of the polynomial


def _standard_polynomial_quotient(params):
    """F_p[x]/(f).  p takes up to √p trial divisions, and the reducibility
    check up to p^(deg f // 2) candidate factors; past _POLY_STEPS either
    is refused before any is tried.  The exponent stops at 20, where
    2^20 is past the bound already."""
    p, d = int(params["p"]), len(params["poly"]) - 1
    if p > _POLY_STEPS**2 or (p > 1 and p ** min(d // 2, 20) > _POLY_STEPS):
        raise ValueError(
            "polynomial quotients are supported for p <= 10^12 and p^(degree // 2) <= 10^6, got p = %d, degree %d"
            % (p, d)
        )
    if not _is_prime(p):
        raise ValueError("polynomial quotient base must be a prime field")
    f = [int(c) % p for c in params["poly"]]
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    if _poly_is_reducible(f, p):
        warnings.warn("quotient polynomial is reducible", ReduciblePolynomialAllowed)
    moduli = (p,) * d
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = [0] * (i + j) + [1]
            row.append(tuple(_poly_mod(prod, f, p)))
        table.append(tuple(row))
    unit = tuple(1 if i == 0 else 0 for i in range(d))
    labels = tuple("1" if i == 0 else ("x" if i == 1 else "x^%d" % i) for i in range(d))
    ring = construct_ring(moduli, table, unit, "F%d[x]/(f)" % p, labels)
    base = _standard_modular({"n": p}).ring
    scalar = check_ring_hom((ring.unit,), base, ring)
    return StandardRing(ring, {"scalar": scalar})


def phi_actions(hom):
    """(right, left), both of shape (kr, k, k): right[r, a, c] is coordinate
    c of e_a·φ(r) and left[r, b, c] is coordinate c of φ(r)·e_b."""
    s = hom.target
    t, phi = s.np_mul, hom.np_matrix
    right = exact_einsum("asc,rs->rac", t, phi) % s.np_moduli
    left = exact_einsum("rs,sbc->rbc", phi, t) % s.np_moduli
    return right, left


def balance_relations(right, left):
    """Relation columns (x_i·φ(r))⊗e_b − x_i⊗(φ(r)·e_b) of X⊗_R S.

    right[r, i, j] is coordinate j of x_i·φ(r), for the generators x_i of
    the right R-module X; left[r, b, c] is coordinate c of φ(r)·e_b.  Rows
    are the generators x_j⊗e_c, j-major.  Zero columns are dropped and
    the rest come once each, in lexicographic order.

    Column (r, i, b) is zero exactly when right[r, i] is supported on i,
    left[r, b] on b, and right[r, i, i] == left[r, b, b] as integers, so
    only the other columns are built.
    """
    n, k = right.shape[1], left.shape[1]
    rdiag, ldiag = right[:, np.arange(n), np.arange(n)], left[:, np.arange(k), np.arange(k)]
    r_off = ((right != 0) & ~np.eye(n, dtype=bool)).any(axis=2)
    l_off = ((left != 0) & ~np.eye(k, dtype=bool)).any(axis=2)
    r, i, b = np.nonzero(r_off[:, :, None] | l_off[:, None, :] | (rdiag[:, :, None] != ldiag[:, None, :]))
    cols = exact_einsum("tj,tc->tjc", right[r, i], np.eye(k, dtype=np.int64)[b]) - exact_einsum(
        "tj,tc->tjc", np.eye(n, dtype=np.int64)[i], left[r, b]
    )
    return _unique_rows(cols.reshape(len(r), n * k)).T


def _ring_on_presentation(pres, mul, unit, label, prefix):
    """The ring on the canonical coordinates of `pres`, a quotient of
    generators whose products are mul[i, j, :] and whose unit is `unit`:
    e_u·e_v = P·mul(L·e_u, L·e_v), as one contraction, and the unit is
    P·unit.  Returns the ring and P (rank x generators)."""
    if pres.is_identity:
        p = l = np.eye(pres.generator_count, dtype=np.int64)
    else:
        p, l = pres.P, pres.L
    table = exact_einsum("iu,jv,ijw,rw->uvr", l, l, mul, p).tolist()
    unit = exact_einsum("rw,w->r", p, unit).tolist()
    labels = tuple("%s%d" % (prefix, i) for i in range(pres.rank))
    return construct_ring(pres.moduli, table, unit, label, labels), p


def _standard_tensor_product(params):
    hom_a, hom_b = params["homs"]
    base = hom_a.source
    if hom_b.source != base:
        raise ValueError("tensor factors must share the base ring")
    if not base.is_commutative:
        raise ValueError("tensor base ring must be commutative")
    for name, hom in (("left", hom_a), ("right", hom_b)):
        if not hom.is_image_central():
            raise NonCentralImage("%s factor does not centralize the base image" % name)
    a, b = hom_a.target, hom_b.target
    relations = balance_relations(phi_actions(hom_a)[0], phi_actions(hom_b)[1])
    pres = cokernel(relations, np.gcd.outer(a.np_moduli, b.np_moduli).ravel())
    # the generators e_i⊗f_j multiply slot by slot
    g = a.k * b.k
    mul = exact_einsum("isc,jtd->ijstcd", a.np_mul, b.np_mul).reshape(g, g, g)
    ua, ub = _int_array(a.unit, (a.k,)), _int_array(b.unit, (b.k,))
    label = "%s (x)_{%s} %s" % (a.label, base.label, b.label)
    ring, p = _ring_on_presentation(pres, mul, exact_einsum("i,j->ij", ua, ub).ravel(), label, "t")
    p = p.reshape(pres.rank, a.k, b.k)
    left = check_ring_hom(exact_einsum("rij,j->ir", p, ub).tolist(), a, ring)  # e_i ↦ e_i⊗1
    right = check_ring_hom(exact_einsum("rij,i->jr", p, ua).tolist(), b, ring)  # f_j ↦ 1⊗f_j
    unit_hom = compose_homs(left, hom_a)
    return StandardRing(ring, {"left": left, "right": right, "unit": unit_hom})


def _ideal_subgroup(ring: FiniteRing, generators):
    if any(len(g) != ring.k for g in generators):
        raise DimensionMismatch("ideal generators need one coordinate per basis element")
    k, t = ring.k, ring.np_mul
    gens, orders = subgroup_basis(_int_array([ring.reduce(g) for g in generators], (len(generators), k)), ring.moduli)
    while True:
        g = _int_array(gens, (len(gens), k))
        # each generator g, then e_i·g and g·e_i for every basis element e_i
        products = np.stack([exact_einsum("ial,ga->gil", t, g), exact_einsum("ail,ga->gil", t, g)], axis=2)
        gens2, orders2 = subgroup_basis(np.vstack([g, products.reshape(-1, k)]), ring.moduli)
        if math.prod(orders2) == math.prod(orders):
            return gens2
        gens, orders = gens2, orders2


def _standard_quotient(params):
    base = params["base"]
    ideal = _ideal_subgroup(base, params["ideal"])
    pres = cokernel(_int_array(ideal, (len(ideal), base.k)).T, base.moduli)
    ring, p = _ring_on_presentation(pres, base.np_mul, _int_array(base.unit, (base.k,)), "%s/I" % base.label, "q")
    projection = check_ring_hom(p.T.tolist(), base, ring)
    return StandardRing(ring, {"projection": projection})


_STANDARD_KINDS = {
    "modular": _standard_modular,
    "matrix": _standard_matrix,
    "triangular": _standard_triangular,
    "product": _standard_product,
    "group_ring": _standard_group_ring,
    "polynomial_quotient": _standard_polynomial_quotient,
    "tensor_product": _standard_tensor_product,
    "quotient": _standard_quotient,
}


def construct_standard_ring(kind, params) -> StandardRing:
    """Named ring families with their canonical structural homomorphisms."""
    if kind not in _STANDARD_KINDS:
        raise ValueError("unknown standard ring kind %r" % kind)
    return _STANDARD_KINDS[kind](params)


# ---------------------------------------------------------------------------
# JSON documents


def ring_to_doc(ring: FiniteRing):
    return {
        "label": ring.label,
        "moduli": list(ring.moduli),
        "unit": list(ring.unit),
        "mul": [[list(cell) for cell in row] for row in ring.mul_table],
        "basis_labels": list(ring.basis_labels),
    }


# the files of the references being followed, outermost first
_CHAIN = contextvars.ContextVar("reference_chain", default=())


def _follow(ref, base_dir, build):
    """build(document, its directory) on the file that a document names by
    path.  The file must hold a JSON object, and a chain of references
    that comes back to a file on it is refused: both raise ValueError."""
    path = Path(base_dir or ".") / ref
    chain = _CHAIN.get()
    if path.resolve() in chain:
        raise ValueError("%s: reference cycle" % path)
    doc = load(path)
    token = _CHAIN.set(chain + (path.resolve(),))
    try:
        return build(doc, path.parent)
    finally:
        _CHAIN.reset(token)


def standard_params_from_doc(params, base_dir=None):
    out = dict(params)
    for key in ("base",):
        if key in out:
            out[key] = ring_from_doc(out[key], base_dir)
    if "factors" in out:
        out["factors"] = [ring_from_doc(x, base_dir) for x in out["factors"]]
    if "homs" in out:
        out["homs"] = [hom_from_doc(x, base_dir) for x in out["homs"]]
    if "ideal" in out:
        out["ideal"] = [tuple(int(c) for c in v) for v in out["ideal"]]
    return out


def ring_from_doc(doc, base_dir=None):
    """Ring from an explicit document, a standard-kind document, or a path."""
    if isinstance(doc, str):
        return _follow(doc, base_dir, ring_from_doc)
    if "kind" in doc:
        std = construct_standard_ring(doc["kind"], standard_params_from_doc(doc.get("params", {}), base_dir))
        return std.ring
    return construct_ring(
        doc["moduli"],
        doc["mul"],
        doc["unit"],
        doc.get("label", "ring"),
        doc.get("basis_labels"),
    )


def hom_to_doc(hom: RingHom):
    return {
        "source": ring_to_doc(hom.source),
        "target": ring_to_doc(hom.target),
        "matrix": [list(col) for col in hom.matrix],
    }


def hom_from_doc(doc, base_dir=None):
    """Hom from an explicit matrix document or a named canonical hom."""
    if isinstance(doc, str):
        return _follow(doc, base_dir, hom_from_doc)
    if "standard" in doc:
        std_doc = doc["standard"]
        std = construct_standard_ring(
            std_doc["kind"], standard_params_from_doc(std_doc.get("params", {}), base_dir)
        )
        name = doc["hom"]
        if name not in std.homs:
            raise ValueError("standard construction has no hom named %r" % name)
        return std.homs[name]
    source = ring_from_doc(doc["source"], base_dir)
    target = ring_from_doc(doc["target"], base_dir)
    return check_ring_hom([tuple(col) for col in doc["matrix"]], source, target)
