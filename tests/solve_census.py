"""Census of the unit-pivot solve over Z/q against the Smith path.

For n ≤ 3, q ∈ {4, 8, 9, 25, 27} and four bases of each ring (the
standard one and three seeded changes of basis, `basis_change`), this
collects the systems a `sep report` hands `exactalg.solve_modular_system`
on M_n(Z/q)/(Z/q) and on T_n(Z/q) → M_n(Z/q): the separability locus,
the ring-retraction system and the centre of each ring.  The report no
longer solves the centres; `finring_util.center` builds the system it
solved.  Each system is solved twice: as the solver chooses, and with
`exactalg._prime_power` patched to None, which sends every system down
the Smith path.  Both must give the same particular solution, the same
kernel orders and the same kernel span, which the Smith path's
`subgroup_basis` compares: the span of both generator sets must have
the orders of either.

Run it from the repository root:

    PYTHONPATH=src:tests python3 tests/solve_census.py

It prints one line per extension, with how many of its systems took the
row reduction and how many fell back to the Smith path, and exits 1
after the last if any system differed.  tests/test_prime_power_solve.py
runs a seeded slice.
"""

import math
import random
import sys
from unittest import mock

import numpy as np

from finring_util import center

from hsep import exactalg, sepkit
from hsep.exactalg import CapExceeded, exact_einsum, solve_modular_system, subgroup_basis
from hsep.finring import check_ring_hom, construct_ring, construct_standard_ring
from hsep.sepkit import find_ring_retractions, separability_locus

MODULI = (4, 8, 9, 25, 27)
KINDS = ("M", "T")
SEEDS = (0, 1, 2, 3)
CASES = [(kind, n, q, seed) for kind in KINDS for n in (1, 2, 3) for q in MODULI for seed in SEEDS]


def smith_path():
    return mock.patch.object(exactalg, "_prime_power", lambda moduli: None)


def basis_change(k, q, rng):
    """(G, G⁻¹) mod q for G = P·D·S: a seeded permutation P, a diagonal D
    of units and a shear S = I + c·E_ij, i ≠ j.  A denser G, such as a
    product of full unitriangular matrices, sends the Smith path of
    S⊗S's cokernel into coefficient growth on T3."""
    perm = list(range(k))
    rng.shuffle(perm)
    p = np.eye(k, dtype=np.int64)[perm]
    units = [u for u in range(1, q) if math.gcd(u, q) == 1]
    d = [rng.choice(units) for _ in range(k)]
    shear = np.eye(k, dtype=np.int64)
    if k > 1:
        i, j = rng.sample(range(k), 2)
        shear[i, j] = rng.randrange(1, q)
    g = p @ np.diag(d) @ shear % q
    # (I + N)⁻¹ = I − N, as N² = 0
    g_inv = (2 * np.eye(k, dtype=np.int64) - shear) @ np.diag([pow(u, -1, q) for u in d]) @ p.T % q
    return g, g_inv


def rebased(ring, g, g_inv):
    """`ring`, every modulus q, on the basis e'_a = Σ_i G[i, a]·e_i."""
    q = ring.moduli[0]
    table = exact_einsum("ia,jb,ijl,cl->abc", g, g, ring.np_mul, g_inv) % q
    unit = g_inv @ np.array(ring.unit, dtype=np.int64) % q
    labels = tuple("%s'%d" % (ring.label, a) for a in range(ring.k))
    return construct_ring(ring.moduli, table.tolist(), unit.tolist(), ring.label, labels)


def extension(kind, n, q, seed):
    """M_n(Z/q)/(Z/q) ("M") or T_n(Z/q) → M_n(Z/q) ("T"); seed 0 keeps the
    standard bases, and any other seed changes both."""
    base = construct_standard_ring("modular", {"n": q}).ring
    if kind == "M":
        hom = construct_standard_ring("matrix", {"n": n, "base": base}).homs["scalar"]
    else:
        hom = construct_standard_ring("triangular", {"n": n, "base": base}).homs["into_matrix"]
    if not seed:
        return hom
    rng = random.Random(repr((kind, n, q, seed)))
    src, tgt = hom.source, hom.target
    gs, gs_inv = basis_change(src.k, q, rng)
    gt, gt_inv = basis_change(tgt.k, q, rng)
    # row a of the new matrix: φ(e'_a) in the new target coordinates
    matrix = exact_einsum("ja,jl,cl->ac", gs, hom.np_matrix, gt_inv) % q
    return check_ring_hom(matrix.tolist(), rebased(src, gs, gs_inv), rebased(tgt, gt, gt_inv))


def report_systems(hom):
    """(A, b, moduli, unknown moduli) of every system a `sep report` on
    `hom` solves, and the centres of both rings: the locus, the
    ring-retraction system, then the centres of source and target."""
    calls = []
    real = exactalg.solve_modular_system

    def record(a, b, mods, unknown_moduli=None):
        calls.append((a, tuple(b), tuple(mods), unknown_moduli))
        return real(a, b, mods, unknown_moduli)

    locus = separability_locus(hom)
    calls.append(locus.system + (locus.coordinate_moduli,))
    with mock.patch.object(sepkit, "solve_modular_system", record):
        try:
            find_ring_retractions(hom, cap=0)
        except CapExceeded:
            pass
    for ring in (hom.source, hom.target):
        solved = center(ring)
        calls.append(solved.system + (solved.coordinate_moduli,))
    return [(a, b, mods, None if unknown is None else tuple(unknown)) for a, b, mods, unknown in calls]


def span_orders(vectors, moduli):
    """The orders of the span of `vectors` in ⊕ Z/m_j, by the Smith path."""
    with smith_path():
        return subgroup_basis(np.array(vectors, dtype=object).reshape(len(vectors), len(moduli)), moduli)[1]


def differences(a, b, mods, unknown):
    """What differs between the solver's answer and the Smith path's:
    an empty list when they agree."""
    fast = solve_modular_system(a, b, mods, unknown)
    with smith_path():
        slow = solve_modular_system(a, b, mods, unknown)
    bad = []
    if fast.particular != slow.particular:
        bad.append("particular")
    if fast.kernel_orders != slow.kernel_orders:
        bad.append("orders")
    elif fast.kernel_orders and not fast.is_empty:
        union = span_orders(fast.kernel_generators + slow.kernel_generators, fast.coordinate_moduli)
        if union != fast.kernel_orders:
            bad.append("span")
    return bad


def took_row_reduction(a, b, mods, unknown):
    """Whether the solver answers this system from its row reduction: its
    Smith path, which every system with an equation takes otherwise,
    begins with `_echelon_mod`."""
    echelon = []
    real = exactalg._echelon_mod

    def counted(rows, modulus):
        echelon.append(modulus)
        return real(rows, modulus)

    with mock.patch.object(exactalg, "_echelon_mod", counted):
        solve_modular_system(a, b, mods, unknown)
    return not echelon


def census(case):
    """(systems on the row reduction, systems on the Smith path, the
    differences found) for one extension."""
    systems = report_systems(extension(*case))
    fast = sum(took_row_reduction(*system) for system in systems)
    bad = ["system %d: %s" % (i, ", ".join(d)) for i, system in enumerate(systems) if (d := differences(*system))]
    return fast, len(systems) - fast, bad


def main():
    failed = 0
    for case in CASES:
        fast, slow, bad = census(case)
        failed += bool(bad)
        kind, n, q, seed = case
        name = ("M%d(Z/%d)/(Z/%d)" % (n, q, q) if kind == "M" else "T%d(Z/%d) -> M%d(Z/%d)" % (n, q, n, q)) + ", basis %d" % seed
        print("%s: %d row-reduced, %d on the Smith path, %s" % (name, fast, slow, "; ".join(bad) if bad else "same"))
        sys.stdout.flush()
    print("%d of %d extensions differ" % (failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
