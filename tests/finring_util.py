"""Pure-Python tensor products and quotients of finite rings, as oracles.

`finring` builds A⊗_R B and S/I on numpy balance relations and one
contraction through the presentation.  These build the same rings the
slow way: one relation column per (r, i, j), one product of lifted
generators at a time in nested loops, and the ideal closed under basis
multiples element by element.  Both return (ring document, {hom name:
matrix}), so a comparison covers the ring and every canonical hom.

Ring elements are coordinate tuples, and `mul`, `add` and `scale` are
their arithmetic.  `project` and `lift` move coordinates through a
`FinAbPresentation` by its P and L, one row at a time.
"""

import itertools
import math
import random

import numpy as np

from hsep.exactalg import cokernel, exact_einsum, solve_modular_system, subgroup_basis
from hsep.finring import (
    NotAdditiveWellDefined,
    NotMultiplicative,
    NotUnital,
    check_ring_hom,
    compose_homs,
    construct_ring,
    construct_standard_ring,
    identity_hom,
    ring_to_doc,
)


def product_idempotents(std):
    """e_0 and e_1 of a product A × B from `construct_standard_ring`:
    its unit with the B coordinates, or the A coordinates, set to 0."""
    ka = std.homs["proj_0"].target.k
    unit = std.ring.unit
    return unit[:ka] + (0,) * (len(unit) - ka), (0,) * ka + unit[ka:]


def mul(ring, x, y):
    """x·y by the multiplication table, one basis pair at a time."""
    out = [0] * ring.k
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = ring.mul_table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            cell = row[j]
            for l in range(ring.k):
                out[l] += xi * yj * cell[l]
    return ring.reduce(out)


def add(space, *xs):
    """The sum of coordinate tuples of a ring or a presentation, by its moduli."""
    return tuple(sum(cs) % m for cs, m in zip(zip(*xs, strict=True), space.moduli, strict=True))


def scale(ring, c, x):
    """c·x for an integer c."""
    return ring.reduce([c * a for a in x])


def elements(moduli):
    """Every coordinate tuple of ⊕ Z/m_i, in lexicographic order."""
    return itertools.product(*(range(m) for m in moduli))


def _apply(mat, vec, vec_moduli, out_moduli):
    """mat·vec reduced, with vec read modulo vec_moduli; None is the identity."""
    vec = [int(x) % m for x, m in zip(vec, vec_moduli, strict=True)]
    if mat is not None:
        vec = [sum(int(a) * x for a, x in zip(row, vec)) for row in mat.tolist()]
    return tuple(x % m for x, m in zip(vec, out_moduli))


def project(pres, vec):
    """Canonical coordinates of generator coordinates of a presentation."""
    return _apply(pres.P, vec, pres.generator_moduli, pres.moduli)


def lift(pres, vec):
    """Generator coordinates of canonical ones, read modulo the moduli."""
    return _apply(pres.L, vec, pres.moduli, pres.generator_moduli)


def _unit_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _homs(std):
    return {name: [list(col) for col in hom.matrix] for name, hom in std.items()}


def oracle_tensor_product(hom_a, hom_b):
    base = hom_a.source
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
            xi = mul(a, _unit_vector(ka, i), ra)
            for j in range(kb):
                yj = mul(b, rb, _unit_vector(kb, j))
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
        return project(pres, raw)

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
    lifts = [lift(pres, _unit_vector(rank, u)) for u in range(rank)]
    table = [[project(pres, mul_raw(lu, lv)) for lv in lifts] for lu in lifts]
    labels = tuple("t%d" % i for i in range(rank))
    label = "%s (x)_{%s} %s" % (a.label, base.label, b.label)
    ring = construct_ring(pres.moduli, table, pure_pair(a.unit, b.unit), label, labels)
    left = check_ring_hom([pure_pair(_unit_vector(ka, i), b.unit) for i in range(ka)], a, ring)
    right = check_ring_hom([pure_pair(a.unit, _unit_vector(kb, j)) for j in range(kb)], b, ring)
    homs = {"left": left, "right": right, "unit": compose_homs(left, hom_a)}
    return ring_to_doc(ring), _homs(homs)


def dense_balance_relations(right, left):
    """`finring.balance_relations` the dense way: every column (r, i, b)
    as (x_i·φ(r))⊗e_b − x_i⊗(φ(r)·e_b), by two contractions with
    identities, then the zero columns dropped and the rest deduplicated
    and sorted by `np.unique`, or by a set of tuples on Python ints."""
    kr, n, _ = right.shape
    k = left.shape[1]
    rel = exact_einsum("rij,bc->jcrib", right, np.eye(k, dtype=np.int64)) - exact_einsum(
        "ij,rbc->jcrib", np.eye(n, dtype=np.int64), left
    )
    arr = rel.reshape(n * k, kr * n * k)
    arr = arr[:, (arr != 0).any(axis=0)]
    if arr.dtype == object:  # np.unique takes no axis on object arrays
        cols = sorted(set(map(tuple, arr.T.tolist())))
        return np.array(cols, dtype=object).reshape(len(cols), n * k).T
    return np.unique(arr, axis=1) if arr.shape[1] else arr


def oracle_ideal(ring, generators):
    """Subgroup generators of the two-sided ideal generated by `generators`."""
    vectors = lambda vecs: np.array(vecs, dtype=object).reshape(len(vecs), ring.k)
    gens, orders = subgroup_basis(vectors([ring.reduce(g) for g in generators]), ring.moduli)
    while True:
        new = list(gens)
        for g in gens:
            for i in range(ring.k):
                ei = _unit_vector(ring.k, i)
                new.append(mul(ring, ei, g))
                new.append(mul(ring, g, ei))
        gens2, orders2 = subgroup_basis(vectors(new), ring.moduli)
        if math.prod(orders2) == math.prod(orders):
            return gens2
        gens, orders = gens2, orders2


def oracle_quotient(base, generators):
    ideal = oracle_ideal(base, generators)
    relations = np.array(ideal, dtype=object).reshape(len(ideal), base.k).T
    pres = cokernel(relations, base.moduli)
    rank = pres.rank
    lifts = [lift(pres, _unit_vector(rank, u)) for u in range(rank)]
    table = [[project(pres, mul(base, lu, lv)) for lv in lifts] for lu in lifts]
    labels = tuple("q%d" % i for i in range(rank))
    ring = construct_ring(pres.moduli, table, project(pres, base.unit), "%s/I" % base.label, labels)
    cols = [project(pres, _unit_vector(base.k, i)) for i in range(base.k)]
    return ring_to_doc(ring), _homs({"projection": check_ring_hom(cols, base, ring)})


def oracle_hom_failure(matrix, source, target):
    """(exception class, witness) of the first check `check_ring_hom`
    fails, by loops in its order: additivity by basis element,
    multiplicativity by basis pair in row-major order, then the unit.
    None when the matrix is a ring hom."""
    matrix = [target.reduce(col) for col in matrix]

    def apply(coords):
        return target.reduce([sum(c * matrix[i][l] for i, c in enumerate(coords)) for l in range(target.k)])

    for i in range(source.k):
        if any(source.moduli[i] * matrix[i][l] % target.moduli[l] for l in range(target.k)):
            return NotAdditiveWellDefined, i
    for i in range(source.k):
        for j in range(source.k):
            if apply(source.mul_table[i][j]) != mul(target, matrix[i], matrix[j]):
                return NotMultiplicative, (i, j)
    if apply(source.unit) != target.unit:
        return NotUnital, None
    return None


def oracle_bilinearity_failure(moduli, table):
    """The first basis pair (i, j), row-major, whose product some factor
    order m_i or m_j does not kill, or None."""
    k = len(moduli)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                cell = table[i][j][l] % moduli[l]
                if (moduli[i] * cell) % moduli[l] or (moduli[j] * cell) % moduli[l]:
                    return i, j
    return None


def center(ring):
    """The center of `ring` as an `AffineSolutionSet`: the x with
    x·e_i − e_i·x = 0 for every basis element e_i, one congruence per
    output coordinate l; row (i, l) holds coordinate l of e_j·e_i − e_i·e_j
    in column j."""
    k, t = ring.k, ring.np_mul
    a = (t.transpose(1, 2, 0) - t.transpose(0, 2, 1)).reshape(k * k, k)
    return solve_modular_system(a, [0] * (k * k), ring.moduli * k, unknown_moduli=ring.moduli)


def oracle_is_image_central(hom):
    t = hom.target
    for img in hom.matrix:
        for j in range(t.k):
            ej = _unit_vector(t.k, j)
            if mul(t, img, ej) != mul(t, ej, img):
                return False
    return True


def standard_result(std):
    """(ring document, {hom name: matrix}) of a `StandardRing`."""
    return ring_to_doc(std.ring), _homs(std.homs)


# ---------------------------------------------------------------------------
# cases: ((tensor_product, (hom_a, hom_b)) or (quotient, (base, generators)))

BIG = 2**61 + 1  # 3 · 768614336404564651


def big_basis_ring():
    """Z/(2⁶¹+1)[x]/(x² − 3) on the basis e0 = 3 + 2⁶⁰x, e1 = 7 + (2⁵⁹+1)x:
    the unit's coordinates are near 2⁶⁰, past every int64 product."""
    c = [[3, 2**60], [7, 2**59 + 1]]
    det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
    inv_det = pow(det, -1, BIG)
    inv = [[c[1][1] * inv_det % BIG, -c[0][1] * inv_det % BIG], [-c[1][0] * inv_det % BIG, c[0][0] * inv_det % BIG]]

    def new_coords(v):  # v in the basis 1, x
        return tuple((v[0] * inv[0][j] + v[1] * inv[1][j]) % BIG for j in range(2))

    def product(u, v):  # (u0 + u1 x)(v0 + v1 x) with x² = 3
        return (u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    table = [[new_coords(product(c[i], c[j])) for j in range(2)] for i in range(2)]
    return construct_ring((BIG, BIG), table, new_coords((1, 0)), "Z/(2^61+1)[x]/(x^2-3)", ("e0", "e1"))


def oracle(kind, args):
    return oracle_tensor_product(*args) if kind == "tensor_product" else oracle_quotient(*args)


def standard(kind, args):
    if kind == "tensor_product":
        return standard_result(construct_standard_ring(kind, {"homs": list(args)}))
    base, generators = args
    return standard_result(construct_standard_ring(kind, {"base": base, "ideal": generators}))


def big_basis_cases():
    ring = big_basis_ring()
    zn = construct_standard_ring("modular", {"n": BIG}).ring
    scalar = check_ring_hom([ring.unit], zn, ring)
    return [
        ("tensor_product", (scalar, scalar)),
        ("tensor_product", (identity_hom(ring), identity_hom(ring))),
        ("quotient", (ring, [(3, 0)])),
        ("quotient", (ring, [(0, 2**60 + 3)])),
        ("quotient", (ring, [])),
    ]


SEEDED_MODULI = (2, 3, 4, 6, 8, 9, 12, 18, 36)
C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def seeded_cases(n):
    """Tensor products and quotients over Z/n, drawn with seed n.

    Over Z/n: the structure homs of Z/n, M2, T2, Z/n[C2], Z/n[C3] and
    Z/n × Z/n, and the projections onto Z/d for the divisors d of n; ten
    ordered pairs of them.  Over Z/n[C2], whose homs to Z/n, Z/n × Z/n and
    itself leave balance relations: six ordered pairs.  Each of the
    six rings modulo an ideal of one or two random generators.
    """
    rng = random.Random(n)
    zn = construct_standard_ring("modular", {"n": n}).ring
    homs = [identity_hom(zn)]
    for kind, params in (("matrix", {"n": 2}), ("triangular", {"n": 2}), ("group_ring", {"cayley": C2}),
                         ("group_ring", {"cayley": C3})):
        homs.append(construct_standard_ring(kind, dict(params, base=zn)).homs["scalar"])
    homs.append(construct_standard_ring("product", {"homs": [identity_hom(zn)] * 2}).homs["unit"])
    rings = [hom.target for hom in homs]
    for d in range(2, n):
        if n % d == 0:
            homs.append(check_ring_hom([[1]], zn, construct_standard_ring("modular", {"n": d}).ring))
    pairs = [(a, b) for a in homs for b in homs]
    cases = [("tensor_product", pair) for pair in rng.sample(pairs, 10)]
    group = rings[3]
    plus_minus = [
        identity_hom(group),
        check_ring_hom([[1], [1]], group, zn),
        check_ring_hom([[1], [n - 1]], group, zn),
        check_ring_hom([[1, 1], [1, n - 1]], group, rings[5]),
    ]
    pairs = [(a, b) for a in plus_minus for b in plus_minus]
    cases += [("tensor_product", pair) for pair in rng.sample(pairs, 6)]
    for ring in rings:
        generators = [tuple(rng.randrange(n) for _ in range(ring.k)) for _ in range(rng.randint(1, 2))]
        cases.append(("quotient", (ring, generators)))
    return cases
