"""Word-level oracles for the truncated tensor bialgebra.

`primitives` solves Δ − (−)⊗1 − 1⊗(−) one letter-content block at a
time on `exactalg`'s elimination.  The oracle here writes the whole
degree's system on every ordered pair of words and row-reduces it with
plain list arithmetic, sharing no code with `exactalg`.

`tensorbialg` multiplies and evaluates words as Kronecker products of
arrays.  The product here concatenates words one pair at a time, on
lists of field elements, for any graded base.

A field is its characteristic p, 0 for ℚ; its elements are `Fraction`s
over ℚ and ints in 0..p−1 over 𝔽_p.
"""

from fractions import Fraction


def element(p, x):
    return x % p if p else Fraction(x)


def rref(p, rows):
    """(nonzero rref rows, pivot columns), Gauss–Jordan over the field."""
    m = [[element(p, x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        m[r] = [element(p, inv * x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [element(p, a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def kernel_basis(p, rows, ncols):
    """One kernel vector per free column: 1 there, minus the rref row entry
    on each pivot coordinate."""
    rr, pivots = rref(p, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [element(p, 0)] * ncols
        vec[fc] = element(p, 1)
        for i, pc in enumerate(pivots):
            vec[pc] = element(p, -rr[i][fc])
        basis.append(vec)
    return basis


def primitive_system(bialg, d):
    """Δ − (−)⊗1 − 1⊗(−) on the degree-d words, one row per ordered pair
    of words whose degrees sum to d."""
    pairs = [(w1, w2) for d1 in range(d + 1) for w1 in bialg.words[d1] for w2 in bialg.words[d - d1]]
    index = {pair: i for i, pair in enumerate(pairs)}
    words = bialg.words[d]
    mat = [[0] * len(words) for _ in pairs]
    for j, w in enumerate(words):
        for pair, coeff in bialg.delta_word(w).items():
            mat[index[pair]][j] = coeff
        for pair in ((w, ()), ((), w)):
            mat[index[pair]][j] -= 1
    return mat


def oracle_primitives(bialg, d):
    """Degree-d primitive basis from one elimination of the whole degree."""
    return kernel_basis(bialg.field, primitive_system(bialg, d), bialg.carrier.dims[d])


def rank(p, vectors):
    return len(rref(p, vectors)[1])


def spans_within(p, vectors, space):
    """Every vector lies in the span of `space`."""
    return rank(p, list(space) + list(vectors)) == rank(p, space)


# -- homogeneous elements (degree, coefficient list) and their product ------


def zero_elt(bialg, d):
    return (d, [element(bialg.field, 0)] * bialg.carrier.dims[d])


def unit_elt(bialg):
    return word_elt(bialg, ())


def word_elt(bialg, word):
    d, i = bialg.index[word]
    vec = zero_elt(bialg, d)[1]
    vec[i] = element(bialg.field, 1)
    return (d, vec)


def mult_elt(bialg, x, y):
    """Concatenation product of homogeneous elements; zero past N."""
    (dx, vx), (dy, vy) = x, y
    d = dx + dy
    if d > bialg.N:
        return zero_elt(bialg, bialg.N)
    out = zero_elt(bialg, d)[1]
    for i, a in enumerate(vx):
        if a == 0:
            continue
        for j, b in enumerate(vy):
            if b != 0:
                _, pos = bialg.index[bialg.words[dx][i] + bialg.words[dy][j]]
                out[pos] = element(bialg.field, out[pos] + a * b)
    return (d, out)


def evaluation_blocks(outer, inner, letters):
    """Word by word: each word of outer goes to the product in inner of its
    letters, letter (c, i) realized as column i of letters[c]."""
    blocks = []
    for d in range(outer.N + 1):
        columns = []
        for w in outer.words[d]:
            acc = unit_elt(inner)
            for c, i in w:
                acc = mult_elt(inner, acc, (c, [element(inner.field, x) for x in letters[c][:, i].tolist()]))
            columns.append(acc[1])
        blocks.append([list(row) for row in zip(*columns)] if columns else [[] for _ in range(inner.carrier.dims[d])])
    return blocks
