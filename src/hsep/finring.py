"""Finite rings presented by structure constants.

A ring is an additive group ⊕ Z/m_i with a dense basis-indexed
multiplication table, a unit vector and a label.  Construction always
validates bilinearity compatibility, associativity and the unit laws
exhaustively on basis tuples; the named families (matrix, triangular,
product, group ring, polynomial quotient, tensor product, quotient)
are built on top and never bypass that validation.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .exactalg import (
    CapExceeded,
    DimensionMismatch,
    _is_prime,
    cokernel,
    solve_modular_system,
    subgroup_basis,
)

__all__ = [
    "FiniteRing",
    "RingElem",
    "RingHom",
    "StandardRing",
    "CommutativityReport",
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
    "commutativity_report",
    "ring_to_doc",
    "ring_from_doc",
    "hom_from_doc",
    "hom_to_doc",
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
        t = np.zeros((self.k, self.k, self.k), dtype=np.int64)
        for i in range(self.k):
            for j in range(self.k):
                t[i, j, :] = self.mul_table[i][j]
        return t

    @cached_property
    def np_moduli(self):
        return np.array(self.moduli, dtype=np.int64)

    def reduce(self, coords):
        return tuple(int(c) % m for c, m in zip(coords, self.moduli))

    def element(self, coords):
        if len(coords) != self.k:
            raise DimensionMismatch("element needs %d coordinates" % self.k)
        return RingElem(self, self.reduce(coords))

    def zero(self):
        return self.element((0,) * self.k)

    def one(self):
        return self.element(self.unit)

    def basis_element(self, i):
        return self.element(tuple(1 if j == i else 0 for j in range(self.k)))

    def add_coords(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg_coords(self, x):
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def mul_coords(self, x, y):
        out = [0] * self.k
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.mul_table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                cell = row[j]
                for l in range(self.k):
                    out[l] += xi * yj * cell[l]
        return self.reduce(out)

    def scalar_coords(self, c, x):
        return tuple((c * a) % m for a, m in zip(x, self.moduli))

    def elements(self, cap=None):
        if cap is not None and self.order > cap:
            raise CapExceeded(self.order)
        import itertools

        for coords in itertools.product(*(range(m) for m in self.moduli)):
            yield RingElem(self, coords)

    def format_element(self, coords):
        terms = []
        for c, lab in zip(coords, self.basis_labels):
            if c == 0:
                continue
            terms.append(lab if c == 1 else "%d*%s" % (c, lab))
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return "FiniteRing(%s, order=%d)" % (self.label, self.order)


@dataclass(frozen=True)
class RingElem:
    ring: FiniteRing
    coords: tuple[int, ...]

    def __add__(self, other):
        self._check(other)
        return RingElem(self.ring, self.ring.add_coords(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return RingElem(self.ring, self.ring.add_coords(self.coords, self.ring.neg_coords(other.coords)))

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg_coords(self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElem(self.ring, self.ring.scalar_coords(other, self.coords))
        self._check(other)
        return RingElem(self.ring, self.ring.mul_coords(self.coords, other.coords))

    def __rmul__(self, other):
        if isinstance(other, int):
            return RingElem(self.ring, self.ring.scalar_coords(other, self.coords))
        return NotImplemented

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements of different rings")

    def is_zero(self):
        return not any(self.coords)

    def __str__(self):
        return self.ring.format_element(self.coords)


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

    # bilinearity compatibility
    for i in range(k):
        for j in range(k):
            cell = table[i][j]
            for l in range(k):
                if (moduli[i] * cell[l]) % moduli[l] or (moduli[j] * cell[l]) % moduli[l]:
                    raise BilinearityIncompatible((i, j))

    # each einsum sums k products of two reduced entries: int64 below the
    # bound, Python ints past it
    dtype = np.int64 if k * max(moduli) ** 2 < 2**62 else object
    t = np.array(table, dtype=dtype).reshape(k, k, k)
    mods = np.array(moduli, dtype=dtype)
    left = np.einsum("ija,alc->ijlc", t, t)
    right = np.einsum("jla,iac->ijlc", t, t)
    bad = np.argwhere((left - right) % mods != 0)
    if bad.size:
        raise NotAssociative(tuple(int(x) for x in bad[0][:3]))
    u = np.array(unit, dtype=dtype)
    eye = np.eye(k, dtype=dtype) % mods
    lhs = np.einsum("j,jil->il", u, t) % mods
    rhs = np.einsum("j,ijl->il", u, t) % mods
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
        out = [0] * self.target.k
        for i, ci in enumerate(coords):
            if not ci:
                continue
            img = self.matrix[i]
            for l in range(self.target.k):
                out[l] += ci * img[l]
        return self.target.reduce(out)

    def __call__(self, elem):
        coords = elem.coords if isinstance(elem, RingElem) else elem
        return self.target.element(self.apply_coords(coords))

    def is_image_central(self):
        t = self.target
        for img in self.matrix:
            for j in range(t.k):
                ej = t.basis_element(j).coords
                if t.mul_coords(img, ej) != t.mul_coords(ej, img):
                    return False
        return True

    def image_order(self):
        matrix = np.array(self.matrix, dtype=object).reshape(self.source.k, self.target.k)
        _, orders = subgroup_basis(matrix, self.target.moduli)
        return math.prod(orders)

    def is_surjective(self):
        return self.image_order() == self.target.order

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
    for i in range(source.k):
        img = matrix[i]
        mi = source.moduli[i]
        for l in range(target.k):
            if (mi * img[l]) % target.moduli[l]:
                raise NotAdditiveWellDefined(i)
    for i in range(source.k):
        for j in range(source.k):
            lhs = hom.apply_coords(source.mul_table[i][j])
            rhs = target.mul_coords(matrix[i], matrix[j])
            if lhs != rhs:
                raise NotMultiplicative((i, j))
    if hom.apply_coords(source.unit) != target.unit:
        raise NotUnital()
    return hom


def identity_hom(ring: FiniteRing) -> RingHom:
    return check_ring_hom(tuple(ring.basis_element(i).coords for i in range(ring.k)), ring, ring)


def compose_homs(second: RingHom, first: RingHom) -> RingHom:
    """second ∘ first, revalidated."""
    if first.target != second.source:
        raise ValueError("homs do not compose")
    matrix = tuple(second.apply_coords(first.matrix[i]) for i in range(first.source.k))
    return check_ring_hom(matrix, first.source, second.target)


@dataclass(frozen=True)
class CommutativityReport:
    is_commutative: bool
    center: object  # AffineSolutionSet over the ring's coordinates

    @property
    def center_order(self):
        return self.center.size


def commutativity_report(ring: FiniteRing) -> CommutativityReport:
    """Basis-pair commutativity plus the center as a linear solution set."""
    k = ring.k
    is_comm = all(
        ring.mul_table[i][j] == ring.mul_table[j][i] for i in range(k) for j in range(k)
    )
    # x*e_i - e_i*x == 0, one congruence per output coordinate l: row (i, l)
    # holds coordinate l of e_j*e_i - e_i*e_j in column j
    t = np.array(ring.mul_table, dtype=object).reshape(k, k, k)
    a = (t.transpose(1, 2, 0) - t.transpose(0, 2, 1)).reshape(k * k, k)
    center = solve_modular_system(a, [0] * (k * k), ring.moduli * k, unknown_moduli=ring.moduli)
    return CommutativityReport(is_comm, center)


@dataclass(frozen=True)
class StandardRing:
    """A named construction: the ring, its canonical homs, special elements."""

    ring: FiniteRing
    homs: dict
    elements: dict


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
    return StandardRing(ring, {}, {})


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
    return StandardRing(ring, {"scalar": scalar}, {})


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
    return StandardRing(tri, {"into_matrix": inclusion, "scalar": scalar}, {})


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
    proj_a = check_ring_hom(
        tuple(a.basis_element(i).coords for i in range(ka)) + tuple(a.zero().coords for _ in range(kb)),
        ring,
        a,
    )
    proj_b = check_ring_hom(
        tuple(b.zero().coords for _ in range(ka)) + tuple(b.basis_element(i).coords for i in range(kb)),
        ring,
        b,
    )
    homs = {"proj_0": proj_a, "proj_1": proj_b}
    e0 = ring.element(tuple(a.unit) + (0,) * kb)
    e1 = ring.element((0,) * ka + tuple(b.unit))
    if hom_a is not None:
        cols = tuple(
            tuple(hom_a.matrix[i]) + tuple(hom_b.matrix[i]) for i in range(base.k)
        )
        homs["unit"] = check_ring_hom(cols, base, ring)
    return StandardRing(ring, homs, {"e_0": e0, "e_1": e1})


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
    return StandardRing(ring, {"scalar": scalar}, {})


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
    import itertools

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


def _standard_polynomial_quotient(params):
    p = int(params["p"])
    if not _is_prime(p):
        raise ValueError("polynomial quotient base must be a prime field")
    f = [int(c) % p for c in params["poly"]]
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    d = len(f) - 1
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
    scalar = check_ring_hom((ring.one().coords,), base, ring)
    elements = {"x": ring.basis_element(1)} if d >= 2 else {}
    return StandardRing(ring, {"scalar": scalar}, elements)


def _standard_tensor_product(params):
    hom_a, hom_b = params["homs"]
    base = hom_a.source
    if hom_b.source != base:
        raise ValueError("tensor factors must share the base ring")
    comm = commutativity_report(base)
    if not comm.is_commutative:
        raise ValueError("tensor base ring must be commutative")
    for name, hom in (("left", hom_a), ("right", hom_b)):
        if not hom.is_image_central():
            raise NonCentralImage("%s factor does not centralize the base image" % name)
    a, b = hom_a.target, hom_b.target
    ka, kb = a.k, b.k
    gens = ka * kb
    idx = lambda i, j: i * kb + j
    gen_moduli = [math.gcd(a.moduli[i], b.moduli[j]) for i in range(ka) for j in range(kb)]
    rel_cols = []
    for r in range(base.k):
        ra = hom_a.matrix[r]
        rb = hom_b.matrix[r]
        for i in range(ka):
            xi = a.mul_coords(a.basis_element(i).coords, ra)
            for j in range(kb):
                yj = b.mul_coords(rb, b.basis_element(j).coords)
                col = [0] * gens
                for c in range(ka):
                    if xi[c]:
                        col[idx(c, j)] += xi[c]
                for c in range(kb):
                    if yj[c]:
                        col[idx(i, c)] -= yj[c]
                if any(col):
                    rel_cols.append(col)
    relations = np.array(rel_cols, dtype=object).reshape(len(rel_cols), gens).T
    pres = cokernel(relations, gen_moduli)

    def pure_pair(xa, xb):
        raw = [0] * gens
        for i in range(ka):
            if xa[i]:
                for j in range(kb):
                    if xb[j]:
                        raw[idx(i, j)] += xa[i] * xb[j]
        return pres.project(raw)

    def mul_raw(x, y):
        # x, y are generator-coordinate vectors of pair tensors
        out = [0] * gens
        for i in range(ka):
            for j in range(kb):
                vx = x[idx(i, j)]
                if not vx:
                    continue
                for s in range(ka):
                    for t in range(kb):
                        vy = y[idx(s, t)]
                        if not vy:
                            continue
                        pa = a.mul_table[i][s]
                        pb = b.mul_table[j][t]
                        for c in range(ka):
                            if pa[c]:
                                for d in range(kb):
                                    if pb[d]:
                                        out[idx(c, d)] += vx * vy * pa[c] * pb[d]
        return out

    rank = pres.rank
    table = []
    for u in range(rank):
        lu = pres.lift(tuple(1 if i == u else 0 for i in range(rank)))
        row = []
        for v in range(rank):
            lv = pres.lift(tuple(1 if i == v else 0 for i in range(rank)))
            row.append(pres.project(mul_raw(lu, lv)))
        table.append(tuple(row))
    unit = pure_pair(a.unit, b.unit)
    labels = tuple("t%d" % i for i in range(rank))
    ring = construct_ring(pres.moduli, table, unit, "%s (x)_{%s} %s" % (a.label, base.label, b.label), labels)
    left_cols = tuple(pure_pair(a.basis_element(i).coords, b.unit) for i in range(ka))
    right_cols = tuple(pure_pair(a.unit, b.basis_element(j).coords) for j in range(kb))
    left = check_ring_hom(left_cols, a, ring)
    right = check_ring_hom(right_cols, b, ring)
    unit_hom = compose_homs(left, hom_a)
    return StandardRing(ring, {"left": left, "right": right, "unit": unit_hom}, {})


def _ideal_subgroup(ring: FiniteRing, generators):
    if any(len(g) != ring.k for g in generators):
        raise DimensionMismatch("ideal generators need one coordinate per basis element")
    vectors = lambda vecs: np.array(vecs, dtype=object).reshape(len(vecs), ring.k)
    gens, orders = subgroup_basis(vectors([ring.reduce(g) for g in generators]), ring.moduli)
    while True:
        new = list(gens)
        for g in gens:
            for i in range(ring.k):
                ei = ring.basis_element(i).coords
                new.append(ring.mul_coords(ei, g))
                new.append(ring.mul_coords(g, ei))
        gens2, orders2 = subgroup_basis(vectors(new), ring.moduli)
        if math.prod(orders2) == math.prod(orders):
            return gens2
        gens, orders = gens2, orders2


def _standard_quotient(params):
    base = params["base"]
    ideal = _ideal_subgroup(base, params["ideal"])
    relations = np.array(ideal, dtype=object).reshape(len(ideal), base.k).T
    pres = cokernel(relations, base.moduli)
    rank = pres.rank
    lifts = [pres.lift(tuple(1 if i == u else 0 for i in range(rank))) for u in range(rank)]
    table = tuple(
        tuple(pres.project(base.mul_coords(lifts[u], lifts[v])) for v in range(rank))
        for u in range(rank)
    )
    unit = pres.project(base.unit)
    ring = construct_ring(pres.moduli, table, unit, "%s/I" % base.label,
                          tuple("q%d" % i for i in range(rank)))
    cols = tuple(pres.project(base.basis_element(i).coords) for i in range(base.k))
    projection = check_ring_hom(cols, base, ring)
    return StandardRing(ring, {"projection": projection}, {})


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


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


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
        path = Path(base_dir or ".") / doc
        return ring_from_doc(_load_json(path), path.parent)
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
        path = Path(base_dir or ".") / doc
        return hom_from_doc(_load_json(path), path.parent)
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
