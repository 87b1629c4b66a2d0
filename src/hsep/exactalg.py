"""Exact integer and mixed-modulus linear algebra.

Smith normal forms of arbitrary-precision integer matrices, canonical
invariant-factor presentations of finite abelian groups, and affine
solution sets of simultaneous congruences with mixed moduli.  Every
quotient construction and solver in the workbench sits on these
kernels.  Numpy arrays are the one matrix type: `smith_normal_form`,
`cokernel`, `subgroup_basis` and `solve_modular_system` take 2-D
integer arrays (signed integers, or object arrays of Python ints) and
raise `DimensionMismatch` on anything else.

`_rref` is the workbench's one row reduction: the Howell form over Z/q
for any q, on numpy rows (XOR on GF(2), int64 while no product can
overflow, Python ints past that), with `_kernel` beside it over 𝔽_p.
`solve_modular_system` solves every system with one Howell form over
Z/N, N the lcm of its moduli, and its particular solution is the
colexicographically least member of the solution set (the last
coordinate compared first), so it depends only on the set.  The Smith
form stays only behind `cokernel` and `subgroup_basis`, whose printed
coordinates its U fixes, and each takes one row reduction instead when
every modulus is one prime p within that int64 bound (`_one_prime`).  A
Smith form keeps U as a log of its row operations, replayed onto only
what a caller reads; when the columns hold a multiple of every unit
vector, as in a cokernel, it reduces its entries modulo their lattice
modulus, so they cannot grow.  Nothing eliminates over ℚ; the tensor
bialgebra's primitives are built, not solved.  `exact_einsum` is the
workbench's one exact product: every contraction in `src/hsep` runs
through it, in int64 while no sum can wrap and in Python ints past that.
`solve_quadratic` finds the members of an affine set where a system of
quadratic forms vanishes: by CRT over the prime powers of the moduli,
linearization with branching over 𝔽_p, and Hensel lifting mod p^k.

A presentation holds its projection and lift as reduced, read-only
numpy arrays (int64 below the overflow bound, Python ints past it), and
an identity presentation holds no matrix at all.  An affine solution set
lists its members the same way: int64 while (largest modulus)·(largest
kernel order) < 2⁶³, Python ints past it.  All values are immutable
after construction and all operations are pure, so concurrent reads are
safe.  A construction that fails its defining equations raises
`ConstructionCheckFailed`, also under `python -O`.
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
    """Mutable reduction state: M and the log of the row operations on it.

    Invariant after every operation: span(columns of M) + N·Zⁿ = U·Λ,
    where Λ is the source's column lattice, U the product of the logged
    row operations (replayed by `SmithDecomposition`) and N the lattice
    modulus (`_lattice_modulus`); with no modulus, span = U·Λ exactly.
    Column operations keep the span and are not logged.  With a modulus,
    an entry that reaches N⁴ in absolute value is reduced into [0, N),
    which subtracts a multiple of N·e_i.  Below N⁴ the reduction is the
    exact one, so a form whose entries never grow that far keeps the
    transform, and the printed coordinates, it always had.  N⁴ is chosen,
    not derived: the transform, and so a cokernel's printed presentation,
    depends on the relation matrix and not only on its lattice, so every
    input whose exact form grows past the threshold may print other
    coordinates than the exact form does.  At N² the big-basis tensor
    product of `tests/test_finring_oracle.py`, whose exact forms peak at
    N^3.81, prints different presentations from two congruent relation
    matrices of one lattice; N³ and N⁴ pass it, and N⁴ moves fewer
    printed reports than N³ (`tests/test_exactalg.py` lists the ones N⁴
    moves).  Per-row nonzero column sets keep pivot search cheap on large
    mostly-diagonal inputs.
    """

    def __init__(self, rows, modulus):
        self.n = len(rows)
        self.M = rows
        self.row_ops = []
        self.modulus = modulus
        self.big = None if modulus is None else modulus**4
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
        nzd, big = self.nz[dst], self.big
        for j in self.nz[src]:
            v = md[j] + q * ms[j]
            if big is not None and not -big < v < big:
                v %= self.modulus
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
                if (a in self.nz[i]) != (b in self.nz[i]):
                    self.nz[i] ^= {a, b}

    def addmul_col(self, dst, src, q):
        # col_dst += q*col_src
        if q == 0:
            return
        big = self.big
        for i, row in enumerate(self.M):
            vs = row[src]
            if vs:
                v = row[dst] + q * vs
                if big is not None and not -big < v < big:
                    v %= self.modulus
                row[dst] = v
                if v:
                    self.nz[i].add(dst)
                else:
                    self.nz[i].discard(dst)


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
    """U·Λ = diag(d1, d2, ...)·Zⁿ for the column lattice Λ of the source,
    with d1 | d2 | ... its invariant factors; for a source of full row rank,
    x ↦ (U·x mod d_i) maps Zⁿ onto ⊕ Z/d_i with kernel Λ.

    The reduction logs its row operations instead of accumulating U, a
    unimodular product (see `_replay`).  `u_rows`, `u_dot` and `u_inverse_dot`
    apply the log to what a caller reads, one row of the operand per
    operation; the full U, which `subgroup_basis` reads, is built from the
    same log on first access.  All come back as object arrays of Python
    ints, exact.  `diagonal` holds the min(rows, cols) diagonal entries;
    `shape` is the source's.
    """

    diagonal: tuple[int, ...]
    shape: tuple[int, int]
    row_ops: tuple

    def _apply(self, x, how):
        """`_replay` of the row log on the rows of x, which must number `shape[0]`."""
        column = getattr(x, "ndim", None) == 1
        rows = _int_rows(x[:, None] if column else x, "operand")
        if len(rows) != self.shape[0]:
            raise DimensionMismatch("operand has %d rows for a %d x %d transform" % (len(rows), self.shape[0], self.shape[0]))
        return np.array(_replay(self.row_ops, rows, how), dtype=object).reshape(x.shape)

    def u_dot(self, x):
        """U @ x, for a 1-D or 2-D integer array x."""
        return self._apply(x, "E")

    def u_inverse_dot(self, x):
        """U⁻¹ @ x, for a 1-D or 2-D integer array x."""
        return self._apply(x, "inverse")

    def u_rows(self, rows):
        """U[rows], as the columns (Uᵀ)[:, rows]."""
        return self._apply(_unit_columns(self.shape[0], rows), "transpose").T

    @cached_property
    def U(self):
        return self.u_dot(np.eye(self.shape[0], dtype=np.int64))


def _unit_columns(n, cols):
    """The columns `cols` of the n × n identity, as an int64 array."""
    out = np.zeros((n, len(cols)), dtype=np.int64)
    out[list(cols), np.arange(len(cols))] = 1
    return out


def _lattice_modulus(a):
    """N when the columns of the 2-D integer array `a` hold a nonzero
    multiple of every unit vector: the lcm over rows i of the gcd of the
    entries of the columns that are nonzero only in row i.  The column
    lattice then holds N·Zⁿ.  None otherwise."""
    if not a.size:
        return None
    nz = a != 0
    single = nz.sum(axis=0) == 1
    rows = nz[:, single].argmax(axis=0)
    g = [0] * a.shape[0]
    for i, v in zip(rows.tolist(), a[:, single][rows, np.arange(len(rows))].tolist()):
        g[i] = math.gcd(g[i], v)
    return math.lcm(*g) if all(g) else None


def _smith(rows, m, modulus):
    """Smith normal form of the n x m matrix given as lists of Python ints,
    which it reduces in place, keeping its entries below N⁴ for a lattice
    modulus N.  A settled pivot is then cut to its gcd with N, and each
    diagonal entry d is read as gcd(d, N), with 0 standing for N: the span
    of the final diagonal plus N·Zⁿ is U·Λ."""
    w = _SnfWorker(rows, modulus)
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
            if modulus is not None and modulus % p:
                # p·e_t and N·e_t span gcd(p, N)·e_t: a column operation
                p = M[t][t] = math.gcd(p, modulus)
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
    diagonal = [M[i][i] for i in range(limit)]
    if modulus is not None:
        diagonal = [math.gcd(d, modulus) for d in diagonal]
    return SmithDecomposition(diagonal=tuple(diagonal), shape=(n, m), row_ops=tuple(w.row_ops))


def smith_normal_form(a: np.ndarray) -> SmithDecomposition:
    """Smith normal form with its row transform of a 2-D integer array.

    Deterministic: the pivot is the smallest absolute nonzero entry of
    the remaining submatrix, ties broken in row-major order.  When the
    columns hold a nonzero multiple of every unit vector, the reduction
    works modulo their lattice modulus N (`_lattice_modulus`), so no entry
    grows past N⁴.
    """
    return _smith(_int_rows(a, "matrix"), a.shape[1], _lattice_modulus(a))


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


def _one_prime(moduli):
    """p when every modulus is one prime p within `_field_dtype`'s int64
    bound, else None: the moduli on which `cokernel` and `subgroup_basis`
    row-reduce.  Equality is checked first, so trial division runs on one
    value; past the int64 bound the Smith path is as exact, and it skips
    the trial division of a large modulus."""
    p = moduli[0] if moduli else None
    if p is None or any(m != p for m in moduli) or _field_dtype(p) is not np.int64:
        return None
    return p if _is_prime(p) else None


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


def _to_divisor(a, q):
    """A unit w of Z/q with w·a ≡ gcd(a, q), for a ≢ 0."""
    g = math.gcd(a, q)
    w = pow(a // g, -1, q // g)
    while math.gcd(w, q) != 1:
        w += q // g
    return w


def _rref(rows, q):
    """Howell form of a 2-D integer array over Z/q (Howell, Linear
    Multilinear Algebra 1986; Storjohann and Mulders, ESA 1998): the
    nonzero rows of an echelon basis of the row module, and their pivot
    columns.  Each pivot is a divisor g of q, 1 when the column had a
    unit, and the entries above it lie in [0, g), so the form depends only
    on the row module; over 𝔽_p it is the reduced row echelon form.

    A column with a unit pivots on the first nonzero entry when it is a
    unit, else on the first unit, and clears the rest by one numpy
    update.  A column with nonzero entries but no unit folds them into
    one row by 2 × 2 unimodular steps (the extended gcd), scales the
    pivot to the divisor g, and appends the annihilator row (q/g)·row,
    which vanishes at the pivot.  That keeps the Howell property: every
    member of the module that vanishes before column c is a combination of
    the rows that pivot at c or later.  GF(2) eliminates by XOR of uint8
    rows, every other q in int64 or Python ints by `_field_dtype`."""
    if q == 2:
        A = (rows % 2).astype(np.uint8)
    else:
        A = rows.astype(_field_dtype(q)) % q
    r = 0
    pivots = []
    for c in range(A.shape[1]):
        if r >= A.shape[0]:
            break
        nzr = np.nonzero(A[r:, c])[0]
        if nzr.size == 0:
            continue
        pr = r + int(nzr[0])
        if q != 2 and math.gcd(int(A[pr, c]), q) != 1:
            units = nzr[np.gcd(A[r + nzr, c], q) == 1]
            pr = r + int(units[0]) if units.size else pr
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        if q != 2 and math.gcd(int(A[r, c]), q) != 1:
            for i in (r + np.nonzero(A[r + 1:, c])[0] + 1).tolist():
                a, b = int(A[r, c]), int(A[i, c])
                x, y, g = _xgcd(a, b)
                A[r], A[i] = (x % q * A[r] % q + y % q * A[i] % q) % q, (a // g * A[i] % q - b // g * A[r] % q) % q
        if q != 2:
            A[r] = A[r] * _to_divisor(int(A[r, c]), q) % q
        g = int(A[r, c])
        if g == 1:
            _clear(A[r + 1:], c, A[r], q)
        elif (annihilator := A[r] * (q // g) % q).any():
            A = np.vstack([A, annihilator[None]])
        pivots.append(c)
        r += 1
    A = A[:r]
    for i, c in enumerate(pivots):
        g = int(A[i, c])
        if g == 1:
            _clear(A[:i], c, A[i], q)
        else:
            A[:i] = (A[:i] - np.outer(A[:i, c] // g, A[i])) % q
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
    free = _free_columns(rows.shape[1], pivots)
    K = np.zeros((rows.shape[1], len(free)), dtype=rref.dtype)
    K[free, np.arange(len(free))] = 1
    K[pivots, :] = -rref[:, free] % p
    return K, free


def _free_columns(ncols, pivots):
    """The columns below `ncols` that hold no pivot, ascending.  A mask,
    not `np.setdiff1d`, whose first call imports `numpy.ma`."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


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
    lift = snf.u_inverse_dot(_unit_columns(g, keep)) % np.array(mods, dtype=object)[:, None]
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
    coords = d[:, None] * s2.u_inverse_dot(_unit_columns(n, big))
    gens = s1.u_inverse_dot(coords) % mods[:, None]
    return tuple(map(tuple, gens.T.tolist())), tuple(s2.diagonal[i] for i in big)


def _back_substitute(H, pivots, n, q):
    """(particular, kernel spanning rows) of the Howell form H of [A | b]
    over Z/q with n unknowns and no pivot in the b column.

    Right to left, each free unknown takes 0 and each pivot unknown the
    least value that solves its row, g·x ≡ rhs: rhs/g, as g divides q.
    The Howell property makes every such choice extend to the left, so
    this is the colexicographically least solution.  The kernel is
    spanned by one vector per free column (1 there, 0 on the other free
    columns) and one per pivot g > 1 (q/g there, 0 to its right), each
    back-substituted the same way.  Every entry above a unit pivot is 0,
    so R, the pivot rows' right-hand sides once the free columns are set,
    changes only where a pivot g > 1 is substituted into the rows above
    it; a unit pivot's unknowns are its final row of R."""
    g = H[np.arange(len(pivots)), pivots]
    free = _free_columns(n, pivots)
    extra = np.flatnonzero(g != 1).tolist()
    R = np.hstack([H[:, n:], -H[:, free] % q, np.zeros((len(pivots), len(extra)), dtype=H.dtype)])
    for t in range(len(extra) - 1, -1, -1):
        i, gi = extra[t], int(g[extra[t]])
        R[i] //= gi
        R[i, 1 + len(free) + t] = q // gi
        R[:i] = (R[:i] - np.outer(H[:i, pivots[i]], R[i])) % q
    X = np.zeros((n, R.shape[1]), dtype=H.dtype)
    X[free, 1 + np.arange(len(free))] = 1
    X[pivots] = R
    return X[:, 0], X[:, 1:].T


def _prove_inconsistent(aug, q):
    """Raise `ConstructionCheckFailed` unless [A | b] over Z/q is proved
    inconsistent: the Howell row of [A | b | I] that leads in the b column
    is [yA | yb | y] with yA ≡ 0 and yb ≢ 0, and the product y·[A | b] is
    checked, so a corrupt reduction cannot pass for an inconsistent
    system."""
    width = aug.shape[1] - 1
    H, pivots = _rref(np.hstack([aug, np.eye(aug.shape[0], dtype=aug.dtype)]), q)
    y = H[pivots.index(width), width + 1 :] if width in pivots else None
    proof = None if y is None else exact_einsum("g,gw->w", y, aug) % q
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
    lcm(moduli), which loses no solutions.

    One Howell form (`_rref`) solves every system.  With N the lcm of all
    equation and unknown moduli, congruence i is scaled by N/moduli[i] to
    one over Z/N, and the unknowns are read in Z/N: the system is well
    defined modulo the unknown moduli, so its solutions there are the
    lifts of the solutions sought.  The zero and repeated rows of [A | b]
    are dropped (`_distinct_rows`), and the Howell form of the rest is
    inconsistent exactly when a row leads in the b column; that verdict
    carries a checked proof, a y with yA ≡ 0 and yb ≢ 0
    (`_prove_inconsistent`).  Otherwise `_back_substitute` gives the
    particular and a spanning set of the kernel, which `subgroup_basis`
    turns into independent generators, unless every pivot is 1 and every
    unknown modulus is N: the kernel is then free on the free columns,
    each generator of order N.

    Invariant: the particular is the colexicographically least member of
    the solution set (the last coordinate compared first), each coordinate
    in [0, unknown_moduli[j]).  It depends only on the set, so every
    correct solver prints the same particular.
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
    N = math.lcm(L, *M)
    dtype = _field_dtype(N)
    m = _int_array(mods, (n_eq, 1))
    rhs = _int_array([bi % mi for bi, mi in zip(b, mods)], (n_eq, 1))
    aug = _distinct_rows(np.hstack([a % m, rhs]).astype(dtype) * _int_array([N // mi for mi in mods], (n_eq, 1)).astype(dtype))
    if L == 1 or not aug.shape[0]:
        gens, orders = subgroup_basis(np.eye(n_x, dtype=np.int64), M)
        return AffineSolutionSet(M, (0,) * n_x, gens, orders, system)
    H, pivots = _rref(aug, N)
    if pivots[-1] == n_x:
        _prove_inconsistent(aug, N)
        return AffineSolutionSet(M, None, (), (), system)
    x, gens = _back_substitute(H, pivots, n_x, N)
    particular = tuple(int(v) % mj for v, mj in zip(x.tolist(), M))
    if (H[np.arange(len(pivots)), pivots] == 1).all() and all(mj == N for mj in M):
        gens, orders = tuple(map(tuple, gens.tolist())), (N,) * len(gens)
    else:
        gens, orders = subgroup_basis(gens, M)
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


def _distinct_forms(Q, mods):
    """The indices, in order, of the forms that add a condition: a form
    that is zero mod its modulus, or that repeats an earlier (form mod m,
    m), vanishes wherever the others do."""
    flat = (Q % _int_array(mods, (len(mods), 1, 1))).reshape(len(mods), Q.shape[1] * Q.shape[2])
    seen, keep = set(), []
    for r in np.flatnonzero((flat != 0).any(axis=1)):
        key = (mods[r], tuple(flat[r]) if flat.dtype == object else flat[r].tobytes())
        if key not in seen:
            seen.add(key)
            keep.append(r)
    return keep


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
    reads are free.  A form that vanishes wherever the others do, zero
    or a repeat (`_distinct_forms`), is dropped before the primes are
    solved.  Every root is substituted back into every form of Q in one
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
    keep = _distinct_forms(Q, mods)
    forms, form_mods = Q[keep], tuple(mods[r] for r in keep)
    orders = affine.kernel_orders
    dtype = np.int64 if max(orders, default=1) ** 2 < 2**63 else object
    coprime = math.lcm(*form_mods)
    shared = math.gcd(coprime, math.lcm(*orders))
    while math.gcd(coprime, shared) > 1:
        coprime //= math.gcd(coprime, shared)
    if any(int(f) % math.gcd(m, coprime) for f, m in zip(forms[:, 0, 0], form_mods)):
        return np.zeros((0, width), dtype=np.int64)
    # c is known mod step; it starts unknown
    coeffs = np.zeros((1, n), dtype=dtype)
    step = np.ones(n, dtype=dtype)
    for q in _prime_factors(shared):
        b = np.array([_valuation(m, q) for m in form_mods])
        rows = np.flatnonzero(b)
        top = int(b.max())
        e = [min(_valuation(o, q), top) for o in orders]
        qb = np.array([q ** int(x) for x in b[rows]], dtype=forms.dtype)[:, None, None]
        roots = _prime_power_roots(forms[rows] % qb, b[rows], e, q)
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
