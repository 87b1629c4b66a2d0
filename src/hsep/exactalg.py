"""Exact integer and mixed-modulus linear algebra.

Canonical invariant-factor presentations of finite abelian groups,
independent generators of subgroups, and affine solution sets of
simultaneous congruences with mixed moduli.  Every quotient construction
and solver in the workbench sits on these kernels.  Numpy arrays are the
one matrix type: `cokernel`, `subgroup_basis` and `solve_modular_system`
take 2-D integer arrays (signed integers, or object arrays of Python
ints) and raise `DimensionMismatch` on anything else.

`_rref` is the workbench's one row reduction: the Howell form over Z/q
for any q, on numpy rows (XOR on GF(2), int64 while no product can
overflow, Python ints past that).  It depends only on the row module, so
everything read off it depends only on the module too.
`solve_modular_system` solves every system with one Howell form over
Z/N, N the lcm of its moduli, and its particular solution is the
colexicographically least member of the solution set (the last
coordinate compared first).  `cokernel` takes the Howell form of the
relation lattice over Z/N, eliminates its unit-pivot columns and puts
the rest through one small Smith form over Z/N (`_smith`), the only
one in the workbench, so its printed coordinates depend only on the
lattice.  `subgroup_basis` presents the subgroup on the rows of its
Howell form and reads independent generators off that `cokernel`.
Nothing eliminates over ℚ; the tensor bialgebra's primitives are built,
not solved.  `exact_einsum` is the workbench's one exact product: every
contraction in `src/hsep` runs through it, in int64 while no sum can
wrap and in Python ints past that.  `solve_quadratic` finds the members
of an affine set where a system of quadratic forms vanishes: by CRT over
the prime powers of the moduli, linearization with branching over 𝔽_p,
and Hensel lifting mod p^k.

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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FinAbPresentation",
    "AffineSolutionSet",
    "DimensionMismatch",
    "CapExceeded",
    "ConstructionCheckFailed",
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


def _free_columns(ncols, pivots):
    """The columns below `ncols` that hold no pivot, ascending.  A mask,
    not `np.setdiff1d`, whose first call imports `numpy.ma`."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def _howell_reduce(V, H, pivots, q):
    """(C, R) with V ≡ C·H + R over Z/q: each row of V reduced by the rows
    of the Howell form H in order, the coefficient of row i, pivot g in
    column c, being ⌊v_c / g⌋.  By the Howell property R vanishes exactly
    on the rows of V that lie in the row module of H."""
    C = np.zeros((V.shape[0], len(pivots)), dtype=H.dtype)
    V = V.astype(H.dtype)
    for i, c in enumerate(pivots):
        C[:, i] = V[:, c] // H[i, c]
        V = (V - np.outer(C[:, i], H[i])) % q
    return C, V


def _smith(rows, m, modulus, x):
    """Smith normal form over Z/N, N = modulus, of the n × m matrix A
    given as lists of Python ints, which it reduces in place.  Returns
    (d, U·x, W) for some U invertible mod N with U·A·V ≡ diag(d) (mod N),
    V invertible mod N: `x` is an n-row integer array with entries in
    [0, N), which the row operations act on, and W = (U⁻¹)ᵀ, both reduced
    mod N in `_field_dtype(N)`.  d has n entries, each the gcd of a
    diagonal entry with N, so that N stands for a zero or missing one:
    y ↦ (U·y mod d_i) maps (Z/N)ⁿ onto ⊕ Z/d_i with kernel the column
    span of A.

    The pivot is the smallest absolute nonzero entry of the remaining
    submatrix, ties broken in row-major order.  The entries stay exact
    until one reaches N⁴ in absolute value, and is then reduced into
    [0, N), which subtracts a multiple of N·e_i; a settled pivot p is cut
    to gcd(p, N) the same way.  `cokernel` hands it a Howell form's rows,
    entries in [0, N) that depend only on the lattice, so there the
    threshold only bounds the growth of the entries.  It still picks the
    printed coordinates: at N instead, the golden
    `tests/golden/ring-standard/tensor-z12-z12-z4xz6.json` moves.
    """
    N, big, n = modulus, modulus**4, len(rows)
    M = rows
    U = x.astype(_field_dtype(N))
    W = np.eye(n, dtype=U.dtype)

    def cut(v):
        return v if -big < v < big else v % N

    def addmul_row(dst, src, q):
        # row_dst += q·row_src; U⁻¹ then subtracts q·(column dst) from column src
        M[dst] = [cut(a + q * b) if b else a for a, b in zip(M[dst], M[src])]
        q %= N
        U[dst] = (U[dst] + q * U[src]) % N
        W[src] = (W[src] - q * W[dst]) % N

    def swap_rows(a, b):
        M[a], M[b] = M[b], M[a]
        U[[a, b]], W[[a, b]] = U[[b, a]], W[[b, a]]

    def addmul_col(dst, src, q):
        for row in M:
            if row[src]:
                row[dst] = cut(row[dst] + q * row[src])

    def swap_cols(a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]

    limit = min(n, m)
    for t in range(limit):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if M[i][j] and (best is None or (abs(M[i][j]), i, j) < best):
                    best = (abs(M[i][j]), i, j)
            if best is not None and best[0] == 1 and best[1] == i:
                break  # later rows cannot beat an abs-1 pivot found here
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        if M[t][t] < 0:
            M[t] = [-v for v in M[t]]
            U[t], W[t] = -U[t] % N, -W[t] % N
        while True:
            dirty = False
            i = 0
            while i < n:
                if i != t and M[i][t]:
                    addmul_row(i, t, -(M[i][t] // M[t][t]))
                    if M[i][t]:
                        swap_rows(i, t)  # remainder becomes the smaller pivot
                        dirty = True
                        continue
                i += 1
            if dirty:
                continue
            j = 0
            while j < m:
                if j != t and M[t][j]:
                    addmul_col(j, t, -(M[t][j] // M[t][t]))
                    if M[t][j]:
                        swap_cols(j, t)
                        dirty = True
                        continue
                j += 1
            if dirty:
                continue
            # row and column are clear; force the pivot to divide the rest
            p = M[t][t] = math.gcd(M[t][t], N)
            bad = None if p == 1 else next((i for i in range(t + 1, n) if any(v % p for v in M[i][t + 1 :])), None)
            if bad is None:
                break
            addmul_row(t, bad, 1)
    d = tuple(math.gcd(M[i][i], N) if i < limit else N for i in range(n))
    return d, U, W


def _diagonal(values):
    return np.diag(_int_array(values, (len(values),)))


def cokernel(relations: np.ndarray, generator_moduli) -> FinAbPresentation:
    """Canonical presentation of ⊕ Z/m_i modulo the relation columns.

    `relations` is a 2-D integer array with one row per generator.  Each
    generator g_i carries the order relation m_i * g_i == 0 in addition
    to the explicit relation columns.  The presentation is the identity,
    and stores no matrix, exactly when its moduli are the m_i and P is the
    identity: when there are no relations and the m_i are a divisor chain
    of nontrivial moduli, for one, or when every m_i is N and every
    relation vanishes mod N.

    With N = lcm(m_i), the relation lattice holds N·Zⁿ, so it is the row
    module over Z/N of the relation columns and the m_i·e_i, and its
    Howell form (`_rref`) depends only on the lattice.  A column with a
    unit pivot is eliminated: x ↦ x − Σ x_c·h_c over the unit-pivot rows
    h_c, pivot column c, is x modulo the lattice and vanishes on those
    columns, so it leaves coordinates on the other columns F.  The
    rows with non-unit pivots, restricted to F, take one Smith form over
    Z/N (`_smith`), whose U fixes the coordinates: P = U·(that
    elimination) and L = U⁻¹ on F, 0 on the eliminated columns.  Both are
    functions of the Howell form, so the printed coordinates depend only on
    the lattice the relations span, not on the relation matrix.

    The presentation is checked, also under `python -O`: P kills every
    relation and order relation, P·L is the identity, and the order Π d_i
    is N^g over the order of the Howell form's row module, Π N/g over its
    pivots g.  A failure raises `ConstructionCheckFailed`.
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
    N = math.lcm(*mods)
    orders = _diagonal(mods)[[i for i, m in enumerate(mods) if m != N]]
    lattice = _distinct_rows(np.vstack([relations.T, orders]) % _int_array([N], (1, 1)))
    if not lattice.shape[0]:
        return FinAbPresentation(mods, mods)
    H, pivots = _rref(lattice, N)
    pivot_values = H[np.arange(len(pivots)), pivots]
    unit = pivot_values == 1
    eliminated = np.array(pivots, dtype=np.int64)[unit]
    F = _free_columns(g, eliminated)
    # x ↦ x − Σ x_c·h_c over the unit-pivot rows, on the columns F
    elim = np.zeros((len(F), g), dtype=H.dtype)
    elim[np.arange(len(F)), F] = 1
    elim[:, eliminated] = (-H[unit][:, F] % N).T
    d, proj, W = _smith(H[~unit][:, F].T.tolist(), int((~unit).sum()), N, elim)
    keep = [i for i, di in enumerate(d) if di != 1]
    moduli = tuple(d[i] for i in keep)
    dk = _int_array(moduli, (len(keep), 1))
    proj = proj[keep] % dk
    lift = np.zeros((g, len(keep)), dtype=W.dtype)
    lift[F] = W[keep].T
    lift %= _int_array(mods, (g, 1))
    if math.prod(moduli) * math.prod(N // int(x) for x in pivot_values) != N**g:
        raise ConstructionCheckFailed("the invariant factors miss the order of the cokernel")
    eye = np.eye(len(keep), dtype=np.int64)
    # L vanishes off F, so P·L is P[:, F]·L[F]
    if (exact_einsum("kg,rg->kr", proj, lattice) % dk).any() or ((exact_einsum("kf,fj->kj", proj[:, F], lift[F]) - eye) % dk).any():
        raise ConstructionCheckFailed("the presentation does not kill its relations or lift its coordinates")
    if moduli == mods and (proj == eye).all():
        return FinAbPresentation(mods, mods)
    # P column-major, as the transposed kernel it replaces was: sepkit's
    # S⊗S⊗S contractions over the generators run faster on it
    return _presentation(moduli, mods, np.asfortranarray(proj), lift)


def subgroup_basis(vectors: np.ndarray, ambient_moduli):
    """Independent generators of the subgroup of ⊕ Z/M_j spanned by the
    rows of the 2-D integer array `vectors`.

    Returns (generators, orders); orders form a divisor chain and the
    subgroup is the internal direct sum of the cyclic pieces, so
    enumerating all coefficient tuples hits each element exactly once.

    Coordinate j is scaled by N/M_j into (Z/N)ⁿ, N = lcm(M_j), and the
    subgroup is the row module of its Howell form h_1…h_r, pivots g_i
    (`_rref`).  Its members are Σ c_i·h_i with each c_i in [0, N/g_i) once,
    and by the Howell property (N/g_i)·h_i is a combination Σ t_ik·h_k of
    the rows after it, so the subgroup is presented on the c_i by the
    relations (N/g_i)·e_i − Σ t_ik·e_k, an upper-triangular T.  Orders and
    generators are read off `cokernel(Tᵀ, (N,)·r)`: generator i is L·e_i
    applied to the h's, scaled back.  Both depend only on the subgroup, as
    the Howell form does.  Every vector and every (N/g_i)·h_i must reduce
    to zero by the Howell rows, and Π orders must equal Π N/g_i, or
    `ConstructionCheckFailed` is raised.
    """
    M = tuple(int(x) for x in ambient_moduli)
    n = len(M)
    width = _check_matrix(vectors, "subgroup vectors")[1]
    if width != n:
        raise DimensionMismatch("subgroup vectors have %d coordinates for %d moduli" % (width, n))
    N = math.lcm(*M)
    scale = _int_array([N // m for m in M], (n,))
    rows = _distinct_rows(vectors % _int_array(M, (n,)) * scale)
    if not rows.shape[0]:
        return (), ()
    H, pivots = _rref(rows, N)
    cyclic = [N // int(H[i, c]) for i, c in enumerate(pivots)]
    r = len(pivots)
    C, rest = _howell_reduce(np.vstack([H * _int_array(cyclic, (r, 1)) % N, rows]), H, pivots, N)
    if rest.any():
        raise ConstructionCheckFailed("the row reduction is not a Howell form of the vectors")
    pres = cokernel((C[:r] - np.diag(_int_array(cyclic, (r,)))).T % N, (N,) * r)
    if math.prod(pres.moduli) != math.prod(cyclic):
        raise ConstructionCheckFailed("the subgroup orders miss the order of its Howell form")
    coeffs = np.eye(r, dtype=np.int64) if pres.is_identity else pres.L
    gens = exact_einsum("ik,ij->kj", coeffs, H) % N // scale
    return tuple(map(tuple, gens.tolist())), pres.moduli


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
