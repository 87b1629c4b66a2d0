"""The integer Smith-form solve of congruence systems, the oracle of
`exactalg.solve_modular_system`.

This is the solve the workbench ran before its Howell form: scale each
congruence to Z/L, L = lcm(moduli), take an echelon generating set of
the rows over Z/L (`echelon_mod`), adjoin the columns L·I and solve the
one integer system through a Smith form with both transforms.  It shares
no code with `src/hsep`: `smith` is a textbook Smith normal form on lists
of Python ints that keeps U and V as full matrices.

`solve` returns (particular, kernel spanning vectors) or None for an
inconsistent system.  Its particular is some member of the solution set,
not always the colexicographically least one, so callers compare sets:
`contains` tests membership in an affine set by one integer solve,
`span_order` counts a subgroup of ⊕ Z/M_j from the Smith form of
[vectors | diag(M)], and `colex_least` finds the colexicographically
least member of the oracle's set without listing it.
"""

import math


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith(rows, m):
    """(U, d, V) with U·A·V diagonal, d its min(n, m) diagonal entries,
    d1 | d2 | ..., d_i ≥ 0, and U, V unimodular; A is n × m, as lists."""
    a = [list(r) for r in rows]
    n = len(a)
    u, v = _identity(n), _identity(m)

    def add_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for mat in (a, v):
            for row in mat:
                row[dst] += q * row[src]

    def swap_cols(i, j):
        for mat in (a, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    for t in range(min(n, m)):
        while True:
            # the smallest entry of row and column t, else any nonzero one
            nonzero = [(abs(a[i][t]), i, t) for i in range(t, n) if a[i][t]]
            nonzero += [(abs(a[t][j]), t, j) for j in range(t + 1, m) if a[t][j]]
            if not nonzero:
                nonzero = [(0, i, j) for i in range(t, n) for j in range(t, m) if a[i][j]][:1]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
            swap_cols(t, j)
            for i in range(t + 1, n):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, m):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][j] for j in range(t + 1, m)):
                continue
            p = abs(a[t][t])
            bad = None if p == 1 else next((i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1 :])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
    return u, [a[i][i] for i in range(min(n, m))], v


def integer_solve(mat, rhs, width):
    """(z, kernel basis) with mat·z = rhs over Z, or None when there is no
    solution; mat is a list of rows of Python ints, `width` columns wide."""
    u, d, v = smith(mat, width)
    c = [sum(x * y for x, y in zip(row, rhs)) for row in u]
    d = d + [0] * (len(c) - len(d))
    w = [0] * width
    for i, (ci, di) in enumerate(zip(c, d)):
        if (ci % di if di else ci):
            return None
        if di:
            w[i] = ci // di
    z = [sum(v[j][i] * w[i] for i in range(width)) for j in range(width)]
    free = [i for i in range(width) if i >= len(d) or d[i] == 0]
    return z, [[v[j][i] for j in range(width)] for i in free]


def echelon_mod(rows, L):
    """An echelon generating set of the row span over Z/L."""
    basis = {}
    stack = [[x % L for x in r] for r in rows if any(x % L for x in r)]
    while stack:
        vec = stack.pop()
        j = next((i for i, x in enumerate(vec) if x), None)
        if j is None:
            continue
        if j not in basis:
            g = math.gcd(vec[j], L)
            k = vec[j] // g
            if k != 1:
                inv = pow(k, -1, L // g)
                w = [inv * x % L for x in vec]
                rest = [(x - k * y) % L for x, y in zip(vec, w)]
                basis[j] = w
                if any(rest):
                    stack.append(rest)
            else:
                basis[j] = vec
            continue
        w = basis[j]
        g0, vj = w[j], vec[j]
        if vj % g0 == 0:
            rest = [(x - vj // g0 * y) % L for x, y in zip(vec, w)]
            if any(rest):
                stack.append(rest)
            continue
        g = math.gcd(g0, vj)
        x0, y0 = _bezout(g0, vj)
        new = [(x0 * p + y0 * q) % L for p, q in zip(w, vec)]
        basis[j] = new
        for old, lead in ((w, g0), (vec, vj)):
            rest = [(p - lead // g * q) % L for p, q in zip(old, new)]
            if any(rest):
                stack.append(rest)
    return [basis[j] for j in sorted(basis)]


def _bezout(a, b):
    """(x, y) with x·a + y·b = gcd(a, b)."""
    if b == 0:
        return (1 if a >= 0 else -1), 0
    x, y = _bezout(b, a % b)
    return y, x - (a // b) * y


def solve(a, b, mods, unknown=None):
    """(particular, kernel spanning vectors) of A x ≡ b, row i modulo
    mods[i] and unknown j modulo unknown[j] (lcm(mods) by default), or
    None when the system is inconsistent."""
    rows = [[int(x) for x in row] for row in a.tolist()]
    n_x = a.shape[1]
    L = math.lcm(*mods) if len(mods) else 1
    moduli = tuple(unknown) if unknown is not None else (L,) * n_x
    aug = [[x * (L // m) % L for x in row] + [int(bi) * (L // m) % L] for row, bi, m in zip(rows, b, mods)]
    eqs = []
    for row in echelon_mod(aug, L):
        if any(row[:n_x]):
            eqs.append(row)
        elif row[n_x]:
            return None
    if not eqs:
        return (0,) * n_x, [tuple(int(i == j) for j in range(n_x)) for i in range(n_x)]
    r = len(eqs)
    mat = [eq[:n_x] + [L if j == i else 0 for j in range(r)] for i, eq in enumerate(eqs)]
    found = integer_solve(mat, [eq[n_x] for eq in eqs], n_x + r)
    if found is None:
        return None
    z, kernel = found
    return tuple(x % m for x, m in zip(z, moduli)), [tuple(x % m for x, m in zip(k, moduli)) for k in kernel]


def span_order(vectors, moduli):
    """The order of the subgroup of ⊕ Z/M_j spanned by `vectors`."""
    n = len(moduli)
    if not len(vectors):
        return 1
    cols = [[int(vec[i]) for vec in vectors] + [m if j == i else 0 for j, m in enumerate(moduli)] for i in range(n)]
    _, d, _ = smith(cols, len(vectors) + n)
    return math.prod(moduli) // math.prod(d)


def contains(affine, vec):
    """vec ∈ particular + ⟨kernel generators⟩, by an integer solve."""
    if affine.is_empty:
        return False
    moduli = affine.coordinate_moduli
    diff = [(int(x) - p) % m for x, p, m in zip(vec, affine.particular, moduli)]
    gens = affine.kernel_generators
    if not gens:
        return not any(diff)
    mat = [[g[i] for g in gens] + [m if j == i else 0 for j in range(len(moduli))] for i, m in enumerate(moduli)]
    return integer_solve(mat, diff, len(gens) + len(moduli)) is not None


def colex_key(x):
    """The colexicographic order: the last coordinate compared first."""
    return tuple(reversed(x))


def colex_least(particular, kernel, moduli):
    """The colexicographically least member of particular + ⟨kernel⟩ in
    ⊕ Z/M_j, without listing the set.

    The lattice Λ = ⟨kernel⟩ + ⊕ M_j·Z e_j is reduced from the last column
    to the first by 2 × 2 unimodular (extended gcd) steps: at column j the
    row M_j·e_j and the rows that vanish right of j fold into one pivot
    row with d_j > 0 at j, and the rest vanish at j too.  The members of Λ
    that vanish right of j then take exactly the values d_j·Z at j, so
    once the coordinates right of j are fixed, subtracting a multiple of
    the pivot row gives the least value x_j mod d_j.  As M_k·e_k joins
    only at column k, the other rows may be kept reduced mod M."""
    n = len(moduli)
    rows = [[int(v) % m for v, m in zip(k, moduli)] for k in kernel]
    x = [int(v) for v in particular]
    for j in range(n - 1, -1, -1):
        live = [r for r in rows if r[j]]
        rows = [r for r in rows if not r[j]]
        pivot = [moduli[j] if i == j else 0 for i in range(n)]
        for r in live:
            a, b = pivot[j], r[j]
            s, t = _bezout(a, b)
            g = s * a + t * b
            pivot, rest = [s * u + t * v for u, v in zip(pivot, r)], [a // g * v - b // g * u for u, v in zip(pivot, r)]
            rows.append([v % m for v, m in zip(rest, moduli)])
        if pivot[j] < 0:
            pivot = [-v for v in pivot]
        x = [u - x[j] // pivot[j] * v for u, v in zip(x, pivot)]
    return tuple(v % m for v, m in zip(x, moduli))
