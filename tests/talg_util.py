"""Word-level oracles for the truncated tensor bialgebra.

`primitives` builds the primitives from Lyndon words, with no system
solved.  The oracle here writes the whole degree's system on every
ordered pair of words and row-reduces it with plain dict arithmetic,
sharing no code with `tensorbialg` or `exactalg`.  `lie_basis` expands
the same Lyndon basis independently: brackets as uv − vu on word dicts,
p-th powers by `mult_elt`.

`tensorbialg` multiplies and evaluates words as Kronecker products of
arrays.  The product here concatenates words one pair at a time, on
lists of field elements, for any graded base.  `tensorbialg` never
evaluates the coproduct; `delta_word` expands it on one word, for the
law checks and the whole-degree oracle.

A field is its characteristic p, 0 for ℚ; its elements are `Fraction`s
over ℚ and ints in 0..p−1 over 𝔽_p.
"""

import itertools
from fractions import Fraction


def element(p, x):
    return x % p if p else Fraction(x)


def _entries(p, row):
    """The nonzero entries of a list or dict row as a dict column -> field element."""
    pairs = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v for c, x in pairs if (v := element(p, x)) != 0}


def _add_multiple(p, row, factor, other):
    """row + factor·other on dict rows, zeros dropped."""
    out = dict(row)
    for c, x in other.items():
        v = element(p, out.get(c, 0) + factor * x)
        if v != 0:
            out[c] = v
        else:
            out.pop(c, None)
    return out


def rref(p, rows, ncols=None):
    """(nonzero rref rows, pivot columns), Gauss–Jordan over the field.

    Rows are lists, or dicts column -> entry with ncols given; each is
    kept as a dict of its nonzero entries, so sparse systems stay cheap.
    Every row is reduced against the pivot rows found so far, then each
    pivot row against the later ones."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivot_rows = {}  # pivot column -> row that is 1 there and 0 before it
    for row in rows:
        r = _entries(p, row)
        while r:
            c = min(r)
            if c not in pivot_rows:
                inv = pow(r[c], -1, p) if p else 1 / r[c]
                pivot_rows[c] = {k: element(p, inv * x) for k, x in r.items()}
                break
            r = _add_multiple(p, r, -r[c], pivot_rows[c])
    pivots = sorted(pivot_rows)
    for c in reversed(pivots):
        row = pivot_rows[c]
        for later in [k for k in row if k != c and k in pivot_rows]:
            row = _add_multiple(p, row, -row[later], pivot_rows[later])
        pivot_rows[c] = row
    zero = element(p, 0)
    return [[pivot_rows[c].get(j, zero) for j in range(ncols)] for c in pivots], pivots


def kernel_basis(p, rows, ncols):
    """One kernel vector per free column: 1 there, minus the rref row entry
    on each pivot coordinate."""
    rr, pivots = rref(p, rows, ncols)
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


def delta_word(word):
    """Coproduct of a word as a dict (left, right) -> integer coefficient:
    one term per subset of positions, the subword on it ⊗ the rest."""
    out = {}
    n = len(word)
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        out[(left, right)] = out.get((left, right), 0) + 1
    return out


def primitive_system(bialg, d):
    """Δ − (−)⊗1 − 1⊗(−) on the degree-d words, one dict row per ordered
    pair of words whose degrees sum to d."""
    rows = {}
    for j, w in enumerate(bialg.words[d]):
        for pair, coeff in delta_word(w).items():
            rows.setdefault(pair, {})[j] = coeff
        for pair in ((w, ()), ((), w)):
            rows[pair][j] -= 1
    return list(rows.values())


def oracle_primitives(bialg, d):
    """Degree-d primitive basis from one elimination of the whole degree."""
    return kernel_basis(bialg.field, primitive_system(bialg, d), bialg.carrier.dims[d])


def is_lyndon(word):
    """Strictly smaller than each of its nontrivial rotations."""
    return len(word) > 0 and all(word < word[i:] + word[:i] for i in range(1, len(word)))


def standard_bracket(word):
    """[u, v] = uv − vu as a dict word -> integer, where v is the longest
    proper suffix of the Lyndon word uv that is itself Lyndon; a letter
    is itself."""
    if len(word) == 1:
        return {word: 1}
    v = next(word[i:] for i in range(1, len(word)) if is_lyndon(word[i:]))
    x, y = standard_bracket(word[: len(word) - len(v)]), standard_bracket(v)
    out = {}
    for (a, ca), (b, cb) in itertools.product(x.items(), y.items()):
        out[a + b] = out.get(a + b, 0) + ca * cb
        out[b + a] = out.get(b + a, 0) - ca * cb
    return out


def lie_basis(bialg, d):
    """The degree-d Lyndon basis as coefficient lists: [ℓ] for each Lyndon
    word ℓ of degree d, and over 𝔽_p also [ℓ]^k for ℓ of degree d/k with k
    a power of p, ordered by their leading words ℓ and ℓ^k."""
    p = bialg.field
    items = []
    for e in range(1, d + 1):
        k = d // e
        if d % e or (k > 1 and not (p and _is_power(k, p))):
            continue
        for word in bialg.words[e]:
            if is_lyndon(word):
                vec = zero_elt(bialg, e)[1]
                for w, c in standard_bracket(word).items():
                    _, i = bialg.index[w]
                    vec[i] = element(p, vec[i] + c)
                power = (e, vec)
                for _ in range(k - 1):
                    power = mult_elt(bialg, power, (e, vec))
                items.append((word * k, power[1]))
    return [vec for _, vec in sorted(items, key=lambda item: item[0])]


def _is_power(k, p):
    while k % p == 0:
        k //= p
    return k == 1


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
