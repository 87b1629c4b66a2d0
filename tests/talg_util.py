"""Whole-degree oracle for the primitives of a truncated tensor bialgebra.

`primitives` solves Δ − (−)⊗1 − 1⊗(−) one letter-content block at a
time on `exactalg`'s elimination.  The oracle here writes the whole
degree's system on every ordered pair of words and row-reduces it with
plain list arithmetic in the field's own elements, sharing no code with
`exactalg`.
"""

from fractions import Fraction


def _inverse(field, a):
    return 1 / Fraction(a) if field.characteristic == 0 else pow(a, -1, field.characteristic)


def rref(field, rows):
    """(nonzero rref rows, pivot columns), Gauss–Jordan over the field."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _inverse(field, m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def kernel_basis(field, rows, ncols):
    """One kernel vector per free column: 1 there, minus the rref row entry
    on each pivot coordinate."""
    rr, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for i, pc in enumerate(pivots):
            vec[pc] = field.sub(field.zero(), rr[i][fc])
        basis.append(vec)
    return basis


def primitive_system(bialg, d):
    """Δ − (−)⊗1 − 1⊗(−) on the degree-d words, one row per ordered pair
    of words whose degrees sum to d."""
    field = bialg.field
    pairs = [(w1, w2) for d1 in range(d + 1) for w1 in bialg.words[d1] for w2 in bialg.words[d - d1]]
    index = {pair: i for i, pair in enumerate(pairs)}
    words = bialg.words[d]
    mat = [[field.zero()] * len(words) for _ in pairs]
    for j, w in enumerate(words):
        for pair, coeff in bialg.delta_word(w).items():
            mat[index[pair]][j] = field.from_int(coeff)
        for pair in ((w, ()), ((), w)):
            mat[index[pair]][j] = field.sub(mat[index[pair]][j], field.one())
    return mat


def oracle_primitives(bialg, d):
    """Degree-d primitive basis from one elimination of the whole degree."""
    return kernel_basis(bialg.field, primitive_system(bialg, d), bialg.carrier.dims[d])


def rank(field, vectors):
    return len(rref(field, vectors)[1])


def spans_within(field, vectors, space):
    """Every vector lies in the span of `space`."""
    return rank(field, list(space) + list(vectors)) == rank(field, space)
