"""Exact integer and mixed-modulus linear algebra.

Smith normal forms of arbitrary-precision integer matrices, canonical
invariant-factor presentations of finite abelian groups, and affine
solution sets of simultaneous congruences with mixed moduli.  Every
quotient construction and solver in the workbench sits on these
kernels.  Numpy arrays are the one matrix type: `smith_normal_form`,
`cokernel`, `subgroup_basis` and `solve_modular_system` take 2-D
integer arrays (signed integers, or object arrays of Python ints) and
raise `DimensionMismatch` on anything else.  The big-integer algorithms
convert their input to Python ints once.  A Smith form keeps its
transforms as logs of the reduction's row and column operations, and
each caller replays them onto only what it reads (rows of U, U·x,
U⁻¹·x, V·x), at one row of the operand per operation, as object arrays
of Python ints; only `subgroup_basis` builds a full U.  `exact_einsum`
is the workbench's one exact product: every contraction in `src/hsep`
runs through it, in int64 while no sum can wrap and in Python ints past
that.  `_rref` is the workbench's one row reduction, with `_kernel`
beside it, over Z/q for a prime power q, pivoting only on units (over
𝔽_p, on any nonzero entry): XOR on GF(2), int64 while no product can
overflow, Python ints past that.  Nothing eliminates over ℚ; the tensor
bialgebra's primitives are built, not solved.  `cokernel` and
`subgroup_basis` solve through it when every modulus is one prime within
that int64 bound (`_one_prime`), and `solve_modular_system` when every
modulus is one prime power q = pᵉ within it (`_prime_power`) and the row
reduction finds a unit in every column it pivots on; each takes the
Smith form otherwise, and the solver's two paths give the same
particular solution.  `solve_quadratic` eliminates through it too; it
finds the members of an affine set where a system of quadratic forms
vanishes: by CRT over the prime powers of the moduli, linearization with
branching over 𝔽_p, and Hensel lifting mod p^k.  A presentation holds its projection
and lift as reduced, read-only numpy arrays (int64 below the overflow
bound, Python ints past it), and an identity presentation holds no
matrix at all.  An affine solution set lists its members the same way:
int64 while (largest modulus)·(largest kernel order) < 2⁶³, Python ints
past it.  All values are immutable after construction and all
operations are pure, so concurrent reads are safe.  A construction that
fails its defining equations raises `ConstructionCheckFailed`, also
under `python -O`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SmithDecomposition",
    "FinAbPresentation",
    "AffineSolutionSet",
    "DimensionMismatch",
    "CapExceeded",
    "ConstructionCheckFailed",
    "smith_normal_form",
    "cokernel",
    "solve_modular_system",
    "solve_quadratic",
    "subgroup_basis",
    "exact_einsum",
]


class DimensionMismatch(ValueError):
    """A matrix is not a 2-D integer array, or the shapes of a matrix,
    right-hand side and moduli disagree."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, size, message=None):
        super().__init__(message or "enumeration of size %d exceeds cap" % size)
        self.size = size


class ConstructionCheckFailed(RuntimeError):
    """A constructed object fails the equations that define it: an implementation bug."""


def _xgcd(a, b):
    # returns (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _check_matrix(a, what):
    """The shape of `a`, which must be a 2-D integer array: signed
    integers, or object of Python ints.  Zero-row and zero-column shapes
    keep their width."""
    if not isinstance(a, np.ndarray) or a.ndim != 2 or a.dtype.kind not in "iO":
        raise DimensionMismatch("%s must be a 2-D integer array" % what)
    return a.shape


def _int_rows(a, what):
    """The rows of a 2-D integer array as lists of Python ints: the one
    conversion into the big-integer algorithms."""
    _check_matrix(a, what)
    rows = a.tolist()
    return rows if a.dtype != object else [[operator.index(x) for x in row] for row in rows]


def _int_array(values, shape):
    """Nested Python ints as an int64 array, or as an object array of
    Python ints when an entry does not fit in int64."""
    try:
        return np.array(values, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(values, dtype=object).reshape(shape)


def exact_einsum(spec, *operands):
    """np.einsum of integer arrays (an explicit "->" spec), exact.

    The one place that picks int64 or Python ints for a contraction:
    int64 when every operand is a signed-integer array and the number of
    summed terms times the largest absolute entry of each operand is at
    most 2⁶², object arrays otherwise.  An object operand (Python ints or
    `Fraction`s) is never cast to int64.  The bit of headroom keeps the
    sum or difference of two results exact.  Only contractions of three or
    more operands over more than 2²⁰ index points pay for numpy's
    contraction-order search."""
    inputs, output = spec.split("->")
    sizes = {}
    ints, bound = True, 1
    for letters, a in zip(inputs.split(","), operands):
        sizes.update(zip(letters, a.shape))
        ints = ints and a.dtype.kind == "i"
        if ints:
            bound *= int(abs(a).max(initial=0))
    bound *= math.prod(n for c, n in sizes.items() if c not in output)
    dtype = np.int64 if ints and bound <= 2**62 else object
    optimize = len(operands) > 2 and math.prod(sizes.values()) > 2**20
    return np.einsum(spec, *(a.astype(dtype, copy=False) for a in operands), optimize=optimize)


class _SnfWorker:
    """Mutable reduction state: M and the logs of the operations on it.

    Invariant after every operation: M == U @ source @ V, where U is the
    product of the logged row operations and V that of the logged column
    operations, replayed by `SmithDecomposition`.  Per-row nonzero column
    sets keep pivot search cheap on large mostly-diagonal inputs.
    """

    def __init__(self, rows):
        self.n = len(rows)
        self.M = rows
        self.row_ops = []
        self.col_ops = []
        self.nz = [set(j for j, v in enumerate(row) if v) for row in self.M]

    def swap_rows(self, a, b):
        if a == b:
            return
        M = self.M
        M[a], M[b] = M[b], M[a]
        self.nz[a], self.nz[b] = self.nz[b], self.nz[a]
        self.row_ops.append((a, b, None))

    def addmul_row(self, dst, src, q):
        # row_dst += q*row_src
        if q == 0:
            return
        md, ms = self.M[dst], self.M[src]
        nzd = self.nz[dst]
        for j in self.nz[src]:
            v = md[j] + q * ms[j]
            md[j] = v
            if v:
                nzd.add(j)
            else:
                nzd.discard(j)
        self.row_ops.append((dst, src, q))

    def negate_row(self, a):
        ma = self.M[a]
        for j in self.nz[a]:
            ma[j] = -ma[j]
        self.row_ops.append((a, a, -1))

    def swap_cols(self, a, b):
        if a == b:
            return
        for i, row in enumerate(self.M):
            va, vb = row[a], row[b]
            if va or vb:
                row[a], row[b] = vb, va
                nzi = self.nz[i]
                ina, inb = a in nzi, b in nzi
                if ina != inb:
                    if ina:
                        nzi.discard(a)
                        nzi.add(b)
                    else:
                        nzi.discard(b)
                        nzi.add(a)
        self.col_ops.append((a, b, None))

    def addmul_col(self, dst, src, q):
        # col_dst += q*col_src
        if q == 0:
            return
        for i, row in enumerate(self.M):
            vs = row[src]
            if vs:
                v = row[dst] + q * vs
                row[dst] = v
                if v:
                    self.nz[i].add(dst)
                else:
                    self.nz[i].discard(dst)
        self.col_ops.append((dst, src, q))


def _replay(ops, x, how):
    """x, a list of rows of Python ints, multiplied in place on the left
    by E = E_k···E_1, the product of the logged row operations, when `how`
    is "E"; by E⁻¹ when it is "inverse"; by Eᵀ when it is "transpose".

    An operation (a, b, q) adds q times row b to row a; q = None swaps
    rows a and b, and (a, a, -1) negates row a.  Each costs one row of x."""
    inverse, transpose = how == "inverse", how == "transpose"
    for a, b, q in ops if how == "E" else reversed(ops):
        if q is None:
            x[a], x[b] = x[b], x[a]
        elif a == b:
            x[a] = [-v for v in x[a]]
        else:
            if inverse:
                q = -q
            elif transpose:
                a, b = b, a
            x[a] = [u + q * v for u, v in zip(x[a], x[b])]
    return x


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """U @ source @ V is diagonal with d1 | d2 | ... on its diagonal.

    The reduction logs its elementary operations instead of accumulating
    the transforms: U is the product of `row_ops` and V the transpose of
    that of `col_ops`, both unimodular (see `_replay`).  `u_rows`,
    `u_dot`, `u_inv_dot` and `v_dot` apply the logs to what a caller
    reads, one row of the operand per operation.  The full U, which
    `subgroup_basis` reads, is built from the same log on first access.
    All come back as object arrays of Python ints.  `diagonal` holds the
    min(rows, cols) diagonal entries; `shape` is the source's.
    """

    diagonal: tuple[int, ...]
    shape: tuple[int, int]
    row_ops: tuple
    col_ops: tuple

    def _apply(self, ops, size, x, how):
        """`_replay` of `ops` on the rows of x, which must number `size`."""
        column = getattr(x, "ndim", None) == 1
        rows = _int_rows(x[:, None] if column else x, "operand")
        if len(rows) != size:
            raise DimensionMismatch("operand has %d rows for a %d x %d transform" % (len(rows), size, size))
        return np.array(_replay(ops, rows, how), dtype=object).reshape(x.shape)

    def u_dot(self, x):
        """U @ x, for a 1-D or 2-D integer array x."""
        return self._apply(self.row_ops, self.shape[0], x, "E")

    def u_inv_dot(self, x):
        """U⁻¹ @ x, for a 1-D or 2-D integer array x."""
        return self._apply(self.row_ops, self.shape[0], x, "inverse")

    def v_dot(self, x):
        """V @ x, for a 1-D or 2-D integer array x."""
        return self._apply(self.col_ops, self.shape[1], x, "transpose")

    def u_rows(self, rows):
        """U[rows], as the columns (Uᵀ)[:, rows]."""
        return self._apply(self.row_ops, self.shape[0], _unit_columns(self.shape[0], rows), "transpose").T

    @cached_property
    def U(self):
        return self.u_dot(np.eye(self.shape[0], dtype=np.int64))


def _unit_columns(n, cols):
    """The columns `cols` of the n × n identity, as an int64 array."""
    out = np.zeros((n, len(cols)), dtype=np.int64)
    out[list(cols), np.arange(len(cols))] = 1
    return out


def _smith(rows, m):
    """Smith normal form of the n x m matrix given as lists of Python ints,
    which it reduces in place."""
    w = _SnfWorker(rows)
    n, M, nz = w.n, w.M, w.nz
    limit = min(n, m)
    t = 0
    while t < limit:
        best = None
        for i in range(t, n):
            row = M[i]
            for j in nz[i]:
                if j < t:
                    continue
                cand = (abs(row[j]), i, j)
                if best is None or cand < best:
                    best = cand
            if best is not None and best[0] == 1 and best[1] == i:
                break  # later rows cannot beat an abs-1 pivot found here
        if best is None:
            break
        w.swap_rows(t, best[1])
        w.swap_cols(t, best[2])
        if M[t][t] < 0:
            w.negate_row(t)
        while True:
            dirty = False
            i = 0
            while i < n:
                if i != t and M[i][t]:
                    q = M[i][t] // M[t][t]
                    w.addmul_row(i, t, -q)
                    if M[i][t]:
                        w.swap_rows(i, t)  # remainder becomes the smaller pivot
                        dirty = True
                        continue
                i += 1
            if dirty:
                continue
            j = 0
            while j < m:
                if j != t and M[t][j]:
                    q = M[t][j] // M[t][t]
                    w.addmul_col(j, t, -q)
                    if M[t][j]:
                        w.swap_cols(j, t)
                        dirty = True
                        continue
                j += 1
            if dirty:
                continue
            # row and column are clear; force the pivot to divide the rest
            p = M[t][t]
            if p == 1:
                break
            bad = None
            for i in range(t + 1, n):
                for j in nz[i]:
                    if j > t and M[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            w.addmul_row(t, bad, 1)
        t += 1
    return SmithDecomposition(
        diagonal=tuple(M[i][i] for i in range(limit)),
        shape=(n, m),
        row_ops=tuple(w.row_ops),
        col_ops=tuple(w.col_ops),
    )


def smith_normal_form(a: np.ndarray) -> SmithDecomposition:
    """Smith normal form with transforms of a 2-D integer array.

    Deterministic: the pivot is the smallest absolute nonzero entry of
    the remaining submatrix, ties broken in row-major order.
    """
    return _smith(_int_rows(a, "matrix"), a.shape[1])


@dataclass(frozen=True, eq=False)
class FinAbPresentation:
    """Finite abelian group in canonical invariant-factor coordinates.

    `moduli` are the nontrivial invariant factors d1 | d2 | ...; the
    trivial group has empty moduli.  The group is a quotient of the
    generators ⊕ Z/m_j, m_j = generator_moduli[j].  `P` (rank x
    generators) maps generator coordinates onto canonical ones, row i
    reduced mod d_i, and `L` (generators x rank) is a section of it, row j
    reduced mod m_j: P·L·x ≡ x for every canonical x.  Both are int64
    when every product sum they take stays below 2⁶³, object arrays of
    Python ints past that.  An identity presentation, whose canonical
    coordinates are the generator coordinates, stores neither: P and L
    are None and `is_identity` is true.  P and L are the whole
    interface: callers contract with them, through `exact_einsum`.
    """

    moduli: tuple[int, ...]
    generator_moduli: tuple[int, ...]
    P: np.ndarray | None = None
    L: np.ndarray | None = None

    @property
    def is_identity(self):
        return self.P is None

    @property
    def rank(self):
        return len(self.moduli)

    @property
    def generator_count(self):
        return len(self.generator_moduli)

    @property
    def order(self):
        return math.prod(self.moduli)


def _presentation(moduli, generator_moduli, p_rows, l_rows):
    """A presentation from P and L given reduced, as integer arrays or nested lists."""
    g, rank = len(generator_moduli), len(moduli)
    # P·x and L·y each sum at most g products of two reduced entries
    dtype = np.int64 if g * max(moduli, default=1) * max(generator_moduli, default=1) < 2**63 else object
    p = np.array(p_rows, dtype=dtype).reshape(rank, g)
    l = np.array(l_rows, dtype=dtype).reshape(g, rank)
    p.flags.writeable = l.flags.writeable = False
    return FinAbPresentation(tuple(moduli), tuple(generator_moduli), p, l)


def _is_divisor_chain(mods):
    return all(mods[i + 1] % mods[i] == 0 for i in range(len(mods) - 1))


def _is_prime(p):
    return _prime_factors(p) == [p]


def _field_dtype(q):
    """int64 while every x − a·b of reduced entries mod q stays below 2⁶³, Python ints past that."""
    return np.int64 if (q - 1) ** 2 + (q - 1) < 2**63 else object


def _prime_power(moduli):
    """(p, e) when every modulus is one q = pᵉ within `_field_dtype`'s
    int64 bound, else None: the moduli on which the row-reduction paths
    run.  Equality is checked first, so trial division runs on one value;
    past the int64 bound the Smith path is as exact, and it skips the
    trial division of a large modulus."""
    q = moduli[0] if moduli else None
    if q is None or any(m != q for m in moduli) or _field_dtype(q) is not np.int64:
        return None
    factors = _prime_factors(q)
    if len(factors) != 1:
        return None
    return factors[0], _valuation(q, factors[0])


def _one_prime(moduli):
    """p when every modulus is one prime p within `_field_dtype`'s int64
    bound (`_prime_power` with e = 1), else None."""
    pe = _prime_power(moduli)
    return pe[0] if pe is not None and pe[1] == 1 else None


def _clear(rows, c, pivot_row, q):
    """Subtract multiples of pivot_row, whose entry in column c is 1, from
    rows until column c is zero mod q."""
    colv = rows[:, c]
    mask = colv != 0
    if not mask.any():
        return
    if q == 2:
        rows[mask] ^= pivot_row
    else:
        rows[mask] = (rows[mask] - np.outer(colv[mask], pivot_row)) % q


def _rref(rows, q):
    """Reduced row echelon form of a 2-D integer array over Z/q, for a
    prime power q, pivoting only on units: for a prime q, on any nonzero
    entry.
    Returns (the nonzero rref rows, pivot columns), each pivot 1, or None
    when a column's remaining entries are nonzero but none is a unit.
    The non-units of Z/pᵉ are the ideal (p), so then no combination of
    the rows has a unit there either: the row module has no echelon basis
    with unit pivots.  Whether it has one, and then the form, depend only
    on the row module.  GF(2) eliminates by XOR of uint8 rows, every other
    q in int64 or Python ints by `_field_dtype`."""
    if q == 2:
        A = (rows % 2).astype(np.uint8)
    else:
        A = rows.astype(_field_dtype(q)) % q
    nrows, ncols = A.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r >= nrows:
            break
        nzr = np.nonzero(A[r:, c])[0]
        if nzr.size == 0:
            continue
        pr = r + int(nzr[0])
        if math.gcd(int(A[pr, c]), q) != 1:
            units = nzr[np.gcd(A[r + nzr, c], q) == 1]
            if units.size == 0:
                return None
            pr = r + int(units[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        if q != 2:
            A[r] = A[r] * pow(int(A[r, c]), -1, q) % q
        _clear(A[r + 1:], c, A[r], q)
        pivots.append(c)
        r += 1
    for i in range(len(pivots) - 1, 0, -1):
        _clear(A[:i], pivots[i], A[i], q)
    A = A[: len(pivots)]
    return (A.astype(np.int64) if q == 2 else A), pivots


def _unique_rows(rows):
    """The distinct rows of a 2-D integer array (int64 or Python ints), in
    lexicographic order: one lexsort and a compare of neighbouring rows."""
    if rows.shape[0] < 2:
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _kernel(rows, p):
    """Kernel basis of a 2-D integer array over GF(p).

    Returns (K, free): K has one column per free column of the rref, is the
    identity on the free columns, and rows·K ≡ 0; each pivot coordinate is
    minus its rref row on the free columns."""
    rref, pivots = _rref(rows, p)
    return _rref_kernel(rref, pivots, rows.shape[1], p)


def _free_columns(ncols, pivots):
    """The columns below `ncols` that hold no pivot, ascending.  A mask,
    not `np.setdiff1d`, whose first call imports `numpy.ma`."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def _rref_kernel(rref, pivots, ncols, q):
    """`_kernel` of the first `ncols` columns of an rref over Z/q whose
    pivots all fall among them."""
    free = _free_columns(ncols, pivots)
    K = np.zeros((ncols, len(free)), dtype=rref.dtype)
    K[free, np.arange(len(free))] = 1
    K[pivots, :] = -rref[:, free] % q
    return K, free


def _cokernel_mod_prime(relations, mods, p):
    g = len(mods)
    K, free = _kernel(_unique_rows((relations % p).astype(np.int64).T), p)
    if len(free) == g:
        return FinAbPresentation(mods, mods)
    # the relations are the row span, so x ↦ Kᵀx kills exactly them
    lift = np.zeros((g, len(free)), dtype=K.dtype)
    lift[free, np.arange(len(free))] = 1
    return _presentation((p,) * len(free), mods, K.T, lift)


def _diagonal(values):
    return np.diag(_int_array(values, (len(values),)))


def cokernel(relations: np.ndarray, generator_moduli) -> FinAbPresentation:
    """Canonical presentation of ⊕ Z/m_i modulo the relation columns.

    `relations` is a 2-D integer array with one row per generator.  Each
    generator g_i carries the order relation m_i * g_i == 0 in addition
    to the explicit relation columns.  The presentation is the identity,
    and stores no matrix, when there are no relations and the m_i are a
    divisor chain of nontrivial moduli, or when every m_i is one prime p
    within `_field_dtype`'s int64 bound and no relation is nonzero mod p.
    """
    mods = tuple(int(x) for x in generator_moduli)
    g = len(mods)
    rows, cols = _check_matrix(relations, "relations")
    if rows != g:
        raise DimensionMismatch("relations have %d rows for %d generators" % (rows, g))
    if any(x < 1 for x in mods):
        raise ValueError("generator moduli must be >= 1")
    if g == 0:
        return FinAbPresentation((), ())
    if cols == 0 and _is_divisor_chain(mods):
        keep = [i for i, mi in enumerate(mods) if mi > 1]
        if len(keep) == g:
            return FinAbPresentation(mods, mods)
        eye = np.eye(g, dtype=np.int64)
        return _presentation(tuple(mods[i] for i in keep), mods, eye[keep], eye[:, keep])
    p = _one_prime(mods)
    if p is not None:
        return _cokernel_mod_prime(relations, mods, p)
    snf = smith_normal_form(np.hstack([relations, _diagonal(mods)]))
    d = snf.diagonal
    if not all(di >= 1 for di in d):
        raise ConstructionCheckFailed("the generator moduli leave a zero invariant factor")
    keep = [i for i in range(g) if d[i] != 1]
    moduli = tuple(d[i] for i in keep)
    proj = snf.u_rows(keep) % np.array(moduli, dtype=object)[:, None]
    lift = snf.u_inv_dot(_unit_columns(g, keep)) % np.array(mods, dtype=object)[:, None]
    return _presentation(moduli, mods, proj, lift)


def subgroup_basis(vectors: np.ndarray, ambient_moduli):
    """Independent generators of the subgroup of ⊕ Z/M_j spanned by the
    rows of the 2-D integer array `vectors`.

    Returns (generators, orders); orders form a divisor chain and the
    subgroup is the internal direct sum of the cyclic pieces, so
    enumerating all coefficient tuples hits each element exactly once.

    When every M_j is one prime p (`_one_prime`), the subgroup is an
    𝔽_p-subspace and the generators are the nonzero rows of its reduced
    row echelon form (`_rref`), each of order p.  The Smith path, which
    runs on every other set of moduli, gives orders (p,)·rank over a
    prime too, so both paths give the same orders and the same subgroup;
    the generators differ.
    """
    M = tuple(int(x) for x in ambient_moduli)
    n = len(M)
    width = _check_matrix(vectors, "subgroup vectors")[1]
    if width != n:
        raise DimensionMismatch("subgroup vectors have %d coordinates for %d moduli" % (width, n))
    if n == 0:
        return (), ()
    p = _one_prime(M)
    if p is not None:
        rref, _ = _rref(vectors % p, p)
        return tuple(map(tuple, rref.tolist())), (p,) * len(rref)
    mods = np.array(M, dtype=object)
    reduced = (vectors.astype(object) % mods).tolist()
    vecs = [v for v in dict.fromkeys(map(tuple, reduced)) if any(v)]
    cols = _int_array(vecs, (len(vecs), n)).T
    s1 = smith_normal_form(np.hstack([cols, _diagonal(M)]))
    d = np.array(s1.diagonal, dtype=object)
    if not all(di >= 1 for di in d):
        raise ConstructionCheckFailed("the ambient moduli leave a zero invariant factor")
    # the lattice span(vectors, diag(M)) has basis C = Uinv @ diag(d), and
    # diag(M) has coordinates X = diag(d)^-1 @ U @ diag(M) in it
    X = s1.U * mods
    if (X % d[:, None]).any():
        raise ConstructionCheckFailed("the lattice basis does not span the ambient moduli")
    s2 = smith_normal_form(_int_array((X // d[:, None]).tolist(), (n, n)))
    big = [i for i, o in enumerate(s2.diagonal) if o > 1]
    # generator i is C·U₂⁻¹[:, i], for the U₂ of the second Smith form
    coords = d[:, None] * s2.u_inv_dot(_unit_columns(n, big))
    gens = s1.u_inv_dot(coords) % mods[:, None]
    return tuple(map(tuple, gens.T.tolist())), tuple(s2.diagonal[i] for i in big)


def _echelon_mod(rows, L):
    """Echelon generating set of the row span over Z/L (span preserving)."""
    basis = {}
    stack = []
    for r in rows:
        rr = [v % L for v in r]
        if any(rr):
            stack.append(rr)
    while stack:
        v = stack.pop()
        j = next((idx for idx, val in enumerate(v) if val), None)
        if j is None:
            continue
        if j not in basis:
            vj = v[j]
            g = math.gcd(vj, L)
            k = vj // g
            if k != 1:
                u = pow(k, -1, L // g)
                w = [(u * x) % L for x in v]
                rem = [(x - k * y) % L for x, y in zip(v, w)]
                basis[j] = w
                if any(rem):
                    stack.append(rem)
            else:
                basis[j] = v
        else:
            w = basis[j]
            g0, vj = w[j], v[j]
            if vj % g0 == 0:
                q = vj // g0
                v2 = [(x - q * y) % L for x, y in zip(v, w)]
                if any(v2):
                    stack.append(v2)
            else:
                x, y, g2 = _xgcd(g0, vj)
                new = [(x * a + y * b) % L for a, b in zip(w, v)]
                basis[j] = new
                w2 = [(a - (g0 // g2) * c) % L for a, c in zip(w, new)]
                v2 = [(b - (vj // g2) * c) % L for b, c in zip(v, new)]
                if any(w2):
                    stack.append(w2)
                if any(v2):
                    stack.append(v2)
    return [basis[j] for j in sorted(basis)]


def _integer_solve_full(mat_rows, rhs, width):
    """Solve M z == rhs over Z, M given as lists of Python ints.

    Returns (particular, kernel basis as the rows of an array), or None
    when row i of U proves that there is no solution: U[i]·M ≡ 0 and
    U[i]·rhs ≢ 0 modulo d_i (exactly, when d_i = 0).  The proof is
    checked, so a corrupt form cannot pass for an inconsistent system;
    a solution is checked by `AffineSolutionSet`."""
    s = _smith([row[:] for row in mat_rows], width)
    ub = s.u_dot(np.array(rhs, dtype=object))
    d = s.diagonal + (0,) * (len(ub) - len(s.diagonal))
    w = np.zeros(width, dtype=object)
    for i, (ui, di) in enumerate(zip(ub, d)):
        if ui % di if di else ui:
            aug = np.array([row + [bi] for row, bi in zip(mat_rows, rhs)], dtype=object).reshape(len(rhs), width + 1)
            proof = exact_einsum("g,gw->w", s.u_rows([i])[0], aug)
            if di:
                proof %= di
            if proof[:-1].any() or not proof[-1]:
                raise ConstructionCheckFailed("the Smith form does not prove the system inconsistent")
            return None
        if di:
            w[i] = ui // di
    free = [j for j in range(width) if j >= len(d) or d[j] == 0]
    return s.v_dot(w), s.v_dot(_unit_columns(width, free)).T


def _rref_solution(aug, q):
    """(x, rref, pivots) of a system [A | b] over Z/q, for a prime power
    q, given reduced in int64: x is the rref's constant on each pivot
    column and 0 on every free one.  None when `_rref` finds no unit
    pivots or puts a pivot in the b column."""
    reduced = _rref(aug, q)
    if reduced is None:
        return None
    rref, pivots = reduced
    width = aug.shape[1] - 1
    if pivots and pivots[-1] == width:
        return None
    x = np.zeros(width, dtype=np.int64)
    x[pivots] = rref[:, width]
    return x, rref, pivots


def _prove_inconsistent(aug, p):
    """Raise `ConstructionCheckFailed` unless [A | b] over 𝔽_p is proved
    inconsistent: a y with yA ≡ 0 and yb ≡ 1 solves [Aᵀ 0; bᵀ 1], and the
    product y·[A | b] is checked, so a corrupt reduction cannot pass for
    an inconsistent system."""
    n_eq, width = aug.shape[0], aug.shape[1] - 1
    dual = np.zeros((width + 1, n_eq + 1), dtype=np.int64)
    dual[:, :n_eq] = aug.T
    dual[width, n_eq] = 1
    y = _rref_solution(dual, p)
    proof = None if y is None else exact_einsum("g,gw->w", y[0], aug) % p
    if proof is None or proof[:-1].any() or not proof[-1]:
        raise ConstructionCheckFailed("the row reduction does not prove the system inconsistent")


@dataclass(frozen=True)
class AffineSolutionSet:
    """particular + subgroup, in the coordinates of `coordinate_moduli`.

    kernel_generators are independent cyclic generators with the given
    orders, so the member count is exactly prod(kernel_orders).  An
    inconsistent system is the empty marker: particular is None.

    A set that carries its defining system (A as a read-only 2-D integer
    array, b, moduli) checks itself on construction: the congruences are
    linear and well defined modulo the coordinate moduli, so checking
    particular and generators covers every member.  Equality compares the
    sets, not the systems.
    """

    coordinate_moduli: tuple[int, ...]
    particular: tuple[int, ...] | None
    kernel_generators: tuple[tuple[int, ...], ...]
    kernel_orders: tuple[int, ...]
    system: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.system is None or self.is_empty or not self.system[2]:
            return
        a, b, mods = self.system
        coord = self.coordinate_moduli
        vecs = (self.particular,) + self.kernel_generators
        m = _int_array(mods, (len(mods), 1))
        v = _int_array([[x % mj for x, mj in zip(vec, coord)] for vec in vecs], (len(vecs), len(coord)))
        res = exact_einsum("ij,nj->in", a % m, v)
        res[:, 0] -= _int_array([bi % mi for bi, mi in zip(b, mods)], (len(mods),))
        bad = np.flatnonzero((res % m).any(axis=0))
        if bad.size:
            which = "the particular solution" if bad[0] == 0 else "kernel generator %d" % (bad[0] - 1)
            raise ConstructionCheckFailed("%s fails the defining system" % which)

    @property
    def is_empty(self):
        return self.particular is None

    @property
    def size(self):
        return 0 if self.is_empty else math.prod(self.kernel_orders)

    def member_array(self):
        """All members as a numpy array, coefficient tuples in lex order.

        A member plus k·g, with k below a kernel order and g reduced, stays
        below (largest modulus)·(largest order), so the array is int64
        while that is below 2⁶³ and Python ints past it."""
        width = len(self.coordinate_moduli)
        if self.is_empty:
            return np.zeros((0, width), dtype=np.int64)
        big = max(self.coordinate_moduli, default=1) * max(self.kernel_orders, default=1)
        dtype = np.int64 if big < 2**63 else object
        mods = np.array(self.coordinate_moduli, dtype=dtype)
        arr = np.array([self.particular], dtype=dtype).reshape(1, width)
        for gen, order in zip(self.kernel_generators, self.kernel_orders):
            g = np.array(gen, dtype=dtype)
            reps = np.arange(order).astype(dtype)[None, :, None] * g[None, None, :]
            arr = (arr[:, None, :] + reps).reshape(-1, width) % mods
        return arr

    def members(self, cap=None):
        """Members as sorted tuples (lexicographic in the coordinates)."""
        if cap is not None and self.size > cap:
            raise CapExceeded(self.size)
        return sorted(tuple(int(x) for x in row) for row in self.member_array())


def solve_modular_system(a: np.ndarray, b, moduli, unknown_moduli=None) -> AffineSolutionSet:
    """Full affine solution set of A x ≡ b, row i taken modulo moduli[i].

    A is a 2-D integer array.  Unknown j ranges over
    Z/unknown_moduli[j]; by default every unknown is taken modulo
    lcm(moduli), which loses no solutions.  Redundant congruences are
    deduplicated by an echelon pass over Z/lcm, then the modulus columns
    are adjoined and the single integer system is solved through the
    Smith normal form.

    When every equation and unknown modulus is one prime power q = pᵉ
    (`_prime_power`), the zero and repeated rows of [A | b] are dropped
    (`_distinct_rows`) and one `_rref` over Z/q replaces all three
    steps, when it pivots on units throughout and puts no pivot in the b
    column: the particular solution is the rref's constant on each pivot
    column and 0 on each free one, and the kernel generators are the
    identity on the free columns, each of order q.  That kernel is free,
    so the Smith path's `subgroup_basis` finds the same orders.  The
    solutions depend only on the row module of [A | b], and so does the
    rref.  Over 𝔽_p (e = 1) every nonzero entry is a unit, and an
    inconsistent system must carry a checked proof, a y with yA ≡ 0 and
    yb ≢ 0.  Over Z/pᵉ with e > 1, a column whose remaining entries are
    nonzero non-units, or a pivot in the b column, hands the system to
    the Smith path, which proves an inconsistency itself.

    The particular is the one the Smith path returns.  Let N, the row
    module of [A | b], have unit pivots at c_0 < c_1 < ….  A member of N
    that vanishes before c is 0 at c unless c is some c_t, and the rref
    row of c_t is such a member with a 1 there.  Take an echelon
    generating set of N whose rows leading before c lead with 1: a
    member vanishing before c takes no multiple of those rows, so its
    entry at c is a multiple of the leading entry of the row that leads
    at c.  By induction on c, `_echelon_mod`'s basis E has one row
    leading at each c_t and no other, and that entry, a divisor of q
    that must be a unit, is 1.  `_smith` on [E | q·I] then pivots at
    (t, c_t) for each t in turn, on the first 1 of its row: by step t
    the rows above t hold only their pivots and the rows below vanish
    at c_t, so no row operation is logged, and its column operations
    swap columns t and c_t and add the pivot column into later columns.
    Replayed onto w, which is 0 past the rank, they leave V·w nonzero
    only on the pivot columns, so it is 0 on every free coordinate.  A
    particular that is 0 there is the rref's constant.
    `tests/test_prime_solve.py`, `tests/test_prime_power_solve.py` and
    `tests/solve_census.py` compare the two paths.
    """
    n_eq, n_x = _check_matrix(a, "system matrix")
    if len(b) != n_eq or len(moduli) != n_eq:
        raise DimensionMismatch("system has %d equations, got %d rhs / %d moduli" % (n_eq, len(b), len(moduli)))
    mods = tuple(int(m) for m in moduli)
    if any(m < 1 for m in mods):
        raise ValueError("equation moduli must be >= 1")
    b = tuple(int(x) for x in b)
    L = math.lcm(*mods) if mods else 1
    if unknown_moduli is None:
        M = (L,) * n_x
    else:
        M = tuple(int(m) for m in unknown_moduli)
        if len(M) != n_x:
            raise DimensionMismatch("unknown_moduli length")
        if any(m < 1 for m in M):
            raise ValueError("unknown moduli must be >= 1")
        # A·diag(M) ≡ 0 row by row; that holds when L divides every M_j
        if any(m % L for m in M) and (exact_einsum("ij,j->ij", a, _int_array(M, (n_x,))) % _int_array(mods, (n_eq, 1))).any():
            raise ValueError("system is not well defined modulo the unknown moduli")
    a = a.copy()
    a.flags.writeable = False
    system = (a, b, mods)

    def full_ambient():
        gens, orders = subgroup_basis(np.eye(n_x, dtype=np.int64), M)
        return AffineSolutionSet(M, (0,) * n_x, gens, orders, system)

    if L == 1 or n_eq == 0:
        return full_ambient()
    empty = AffineSolutionSet(M, None, (), (), system)
    pe = _prime_power(mods + M)
    if pe is not None:
        p, e = pe
        q = p**e
        b_col = np.array([bi % q for bi in b], dtype=np.int64)[:, None]
        aug = _distinct_rows(np.hstack([(a % q).astype(np.int64), b_col]))
        sol = _rref_solution(aug, q)
        if sol is not None:
            x, rref, pivots = sol
            gens = _rref_kernel(rref, pivots, n_x, q)[0].T
            return AffineSolutionSet(M, tuple(x.tolist()), tuple(map(tuple, gens.tolist())), (q,) * len(gens), system)
        if e == 1:
            _prove_inconsistent(aug, p)
            return empty
    aug = []
    for row, mi, bi in zip(_int_rows(a, "system matrix"), mods, b):
        s = L // mi
        aug.append([(x * s) % L for x in row] + [(bi * s) % L])
    ech = _echelon_mod(aug, L)
    eqs = []
    for row in ech:
        if any(row[:n_x]):
            eqs.append(row)
        elif row[n_x] % L:
            return empty
    if not eqs:
        return full_ambient()
    r = len(eqs)
    mat = [eqs[i][:n_x] + [L if j == i else 0 for j in range(r)] for i in range(r)]
    rhs = [eqs[i][n_x] for i in range(r)]
    sol = _integer_solve_full(mat, rhs, n_x + r)
    if sol is None:
        return empty
    z0, kernel = sol
    particular = tuple(int(z0[j]) % M[j] for j in range(n_x))
    gens, orders = subgroup_basis(kernel[:, :n_x], M)
    return AffineSolutionSet(M, particular, gens, orders, system)


# -- quadratic systems on an affine set -----------------------------------


def _prime_factors(n):
    """The primes dividing n, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _valuation(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def _grid(sizes):
    """Every point of Π range(s) as the rows of an int64 array, in lexicographic order."""
    if not len(sizes):
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices(tuple(sizes), dtype=np.int64).reshape(len(sizes), -1).T


def _distinct_rows(rows):
    return _unique_rows(rows[(rows != 0).any(axis=1)])


def _affine_map(rows, pivots, q):
    """x̂ = A·ŷ onto the solutions over 𝔽_q of reduced echelon rows over
    (x_1, ..., x_n, 1) with no pivot in the constant column; ŷ is 1
    followed by the free variables."""
    n = rows.shape[1] - 1
    free = _free_columns(n, pivots)
    A = np.zeros((n + 1, len(free) + 1), dtype=np.int64)
    A[0, 0] = 1
    A[free + 1, np.arange(1, len(free) + 1)] = 1
    piv = np.array(pivots, dtype=np.int64) + 1
    A[piv, 0] = -rows[:, n] % q
    A[piv, 1:] = -rows[:, free] % q
    return A


def _apply_map(A, points, q):
    """The points x of x̂ = A·ŷ for the rows y of `points`, reduced mod q."""
    yhat = np.hstack([np.ones((len(points), 1), dtype=np.int64), points])
    return (exact_einsum("nj,ij->ni", yhat, A)[:, 1:] % q).astype(np.int64)


def _linear_roots(rows, q):
    """Every d ∈ 𝔽_q^m with rows·(d, 1) ≡ 0 (mod q)."""
    m = rows.shape[1] - 1
    rows = _distinct_rows(rows)
    if not rows.shape[0]:
        return _grid((q,) * m)
    rref, pivots = _rref(rows, q)
    if pivots[-1] == m:
        return np.zeros((0, m), dtype=np.int64)
    A = _affine_map(rref, pivots, q)
    return _apply_map(A, _grid((q,) * (A.shape[1] - 1)), q)


def _linearized(Q, q):
    """The forms x̂ᵀQ_r x̂ over 𝔽_q as rows over the monomials: x_i·x_j
    (i < j, and i = j unless q = 2, where x_i² = x_i), then x_1..x_n, then
    1.  Also returns, per quadratic column, the lower variable index."""
    n = Q.shape[1] - 1
    sym = Q + Q.transpose(0, 2, 1)
    iu, ju = np.triu_indices(n, 1 if q == 2 else 0)
    quad = sym[:, iu + 1, ju + 1]
    diag = Q[:, np.arange(1, n + 1), np.arange(1, n + 1)]
    lin = sym[:, 0, 1:]
    if q == 2:
        lin = lin + diag
    else:
        quad[:, iu == ju] = diag
    return np.hstack([quad, lin, Q[:, 0, :1]]) % q, iu


def _substitute(Q, A, q):
    """The forms ŷᵀ(AᵀQ_r A)ŷ of x̂ᵀQ_r x̂ at x̂ = A·ŷ, reduced mod q."""
    return exact_einsum("ui,ruv,vj->rij", A, Q, A) % q


def _field_roots(Q, q):
    """Every x ∈ 𝔽_q^n with x̂ᵀQ_r x̂ ≡ 0 (mod q) for every r, x̂ = (1, x).

    XL with branching (Courtois, Klimov, Patarin and Shamir, EUROCRYPT
    2000): linearize the monomials and row-reduce.  A pivot in the
    constant column leaves no root; rows whose pivot is a variable are
    linear and cut the variables down; otherwise branch on a variable of
    the leading monomial, q ways.  Each case substitutes and reduces
    again.  Every step removes a variable, so there are at most
    (n+1)·q^n reductions, and far fewer when linear rows appear early."""
    n = Q.shape[1] - 1
    rows, lower = _linearized(Q, q)
    rows = _distinct_rows(rows)
    if not rows.shape[0]:
        return _grid((q,) * n)
    rref, pivots = _rref(rows, q)
    first_linear = rows.shape[1] - n - 1
    if pivots[-1] == n + first_linear:
        return np.zeros((0, n), dtype=np.int64)
    linear = [i for i, c in enumerate(pivots) if c >= first_linear]
    if linear:
        maps = [_affine_map(rref[linear, first_linear:], [pivots[i] - first_linear for i in linear], q)]
    else:
        v = int(lower[pivots[0]]) + 1
        maps = []
        for a in range(q):
            A = np.delete(np.eye(n + 1, dtype=np.int64), v, axis=1)
            A[v, 0] = a
            maps.append(A)
    return np.vstack([_apply_map(A, _field_roots(_substitute(Q, A, q), q), q) for A in maps])


def _prime_power_roots(Q, b, e, q):
    """Every c, with c_i read mod q^e[i], such that ĉᵀQ_r ĉ ≡ 0 (mod q^b[r])
    for every r.  Q must be reduced mod q^b[r], row r.

    The roots mod q come from `_field_roots`, and each is lifted one digit
    at a time (Hensel): at c = c₀ + q^j·d, F_r ≡ F_r(c₀) + q^j·J_r(c₀)·d
    (mod q^(j+1)), so the next digits solve a linear system over 𝔽_q.
    Equations with b_r ≤ j already hold, and variables with e_i ≤ j are
    fully read, so neither changes after step j."""
    n = Q.shape[1] - 1
    b, e = np.asarray(b), np.asarray(e)
    active = np.flatnonzero(e > 0)
    keep = np.concatenate([[0], active + 1])
    Q = Q[:, keep][:, :, keep]
    e = e[active]
    roots = _field_roots(Q % q, q)
    for j in range(1, int(b.max(initial=0))):
        forms = Q[b > j]
        # the Jacobian is read mod q only, and this sum cannot wrap
        sym = forms % q + forms.transpose(0, 2, 1) % q
        grow = np.flatnonzero(e > j)
        qj = q**j
        lifted = [np.zeros((0, len(active)), dtype=np.int64)]
        for c0 in roots:
            chat = np.concatenate([[1], c0])
            vals = exact_einsum("u,ruv,v->r", chat, forms, chat) % (qj * q)
            if (vals % qj).any():
                raise ConstructionCheckFailed("a root mod %d^%d fails its equations" % (q, j))
            rows = np.hstack([exact_einsum("ruv,v->ru", sym, chat)[:, grow + 1] % q, (vals // qj)[:, None]])
            digits = _linear_roots(rows, q)
            new = np.repeat(c0[None], len(digits), axis=0)
            if grow.size:  # then q^j is below an order, and fits in int64
                new[:, grow] += qj * digits
            lifted.append(new)
        roots = np.vstack(lifted)
    out = np.zeros((len(roots), n), dtype=np.int64)
    out[:, active] = roots
    return out


def _vanishes(Q, mods, chat):
    """Whether every ĉᵀQ_r ĉ ≡ 0 (mod mods[r]), for each row ĉ of chat."""
    m = _int_array(mods, (len(mods),))
    forms = Q % m[:, None, None]
    ok = np.ones(len(chat), dtype=bool)
    step = max(1, 2**20 // max(Q.shape[0] * Q.shape[1], 1))
    for lo in range(0, len(chat), step):
        c = chat[lo : lo + step]
        ok[lo : lo + step] = ~(exact_einsum("nu,ruv,nv->nr", c, forms, c) % m).any(axis=1)
    return ok


def solve_quadratic(affine: AffineSolutionSet, Q: np.ndarray, mods) -> np.ndarray:
    """The members of `affine` at which a system of quadratic forms vanishes.

    `affine` is p + Σ c_i g_i with c_i ∈ Z/o_i, for its kernel orders o_i.
    Q is an (R, n+1, n+1) integer array, and F_r(c) = ĉᵀQ_r ĉ with
    ĉ = (1, c) must vanish modulo mods[r].  Each F_r must be well defined
    on the c_i mod o_i.  Returns the members as the rows of an array of
    int64 or Python ints, in the lexicographic order of c.

    The moduli split into prime powers (CRT).  In c_i, both q^b and o_i
    are periods of F mod q^b, so F mod q^b reads only c_i mod
    q^min(v_q(o_i), b).  Modulo the part of lcm(mods) coprime to every
    o_i, F is therefore constant, and is tested once at c = 0.  Only the
    primes that also divide an o_i are found, by trial division of
    gcd(lcm(mods), lcm(o_i)); `_prime_power_roots` solves each of them,
    the residues are recombined, and the digits of c that no modulus
    reads are free.  Every root is substituted back into F in one
    vectorised evaluation, and a miss raises `ConstructionCheckFailed`.
    The work, the factoring included, is bounded by the size of
    `affine`, which the caller caps.
    """
    n = len(affine.kernel_orders)
    width = len(affine.coordinate_moduli)
    if not isinstance(Q, np.ndarray) or Q.ndim != 3 or Q.dtype.kind not in "iO" or Q.shape[1:] != (n + 1, n + 1):
        raise DimensionMismatch("forms must be an integer array of shape (R, %d, %d)" % (n + 1, n + 1))
    mods = tuple(int(m) for m in mods)
    if len(mods) != Q.shape[0]:
        raise DimensionMismatch("%d forms, got %d moduli" % (Q.shape[0], len(mods)))
    if any(m < 1 for m in mods):
        raise ValueError("form moduli must be >= 1")
    if affine.is_empty:
        return np.zeros((0, width), dtype=np.int64)
    if max(mods, default=1) >= 2**63:
        Q = Q.astype(object)
    orders = affine.kernel_orders
    dtype = np.int64 if max(orders, default=1) ** 2 < 2**63 else object
    coprime = math.lcm(*mods)
    shared = math.gcd(coprime, math.lcm(*orders))
    while math.gcd(coprime, shared) > 1:
        coprime //= math.gcd(coprime, shared)
    if any(int(f) % math.gcd(m, coprime) for f, m in zip(Q[:, 0, 0], mods)):
        return np.zeros((0, width), dtype=np.int64)
    # c is known mod step; it starts unknown
    coeffs = np.zeros((1, n), dtype=dtype)
    step = np.ones(n, dtype=dtype)
    for q in _prime_factors(shared):
        b = np.array([_valuation(m, q) for m in mods])
        rows = np.flatnonzero(b)
        top = int(b.max())
        e = [min(_valuation(o, q), top) for o in orders]
        qb = np.array([q ** int(x) for x in b[rows]], dtype=Q.dtype)[:, None, None]
        roots = _prime_power_roots(Q[rows] % qb, b[rows], e, q)
        if not len(roots):
            return np.zeros((0, width), dtype=np.int64)
        # CRT: c ≡ coeffs (mod step) and c ≡ roots (mod q^e)
        qe = np.array([q**x for x in e], dtype=dtype)
        inv = np.array([pow(int(s), -1, int(m)) if m > 1 else 0 for s, m in zip(step, qe)], dtype=dtype)
        t = ((roots[None].astype(dtype) - coeffs[:, None]) * inv) % qe
        coeffs = (coeffs[:, None] + step * t).reshape(len(coeffs) * len(roots), n)
        step = step * qe
    grid = _grid([o // int(s) for o, s in zip(orders, step)]).astype(dtype)
    coeffs = (coeffs[:, None] + step * grid[None]).reshape(len(coeffs) * len(grid), n)
    if n:
        coeffs = coeffs[np.lexsort(coeffs.T[::-1])]
    chat = np.hstack([np.ones((len(coeffs), 1), dtype=dtype), coeffs])
    if not _vanishes(Q, mods, chat).all():
        raise ConstructionCheckFailed("a root of the quadratic system fails it")
    vecs = _int_array((affine.particular,) + affine.kernel_generators, (n + 1, width))
    return exact_einsum("nu,uw->nw", chat, vecs) % _int_array(affine.coordinate_moduli, (width,))
