"""Census of `exactalg.solve_modular_system` against the integer Smith
solve of `smith_oracle`.

For n ≤ 3, q ∈ {4, 8, 9, 25, 27} and four bases of each ring (the
standard one and three seeded changes of basis, `basis_change`), this
collects the systems a `sep report` hands `exactalg.solve_modular_system`
on M_n(Z/q)/(Z/q) and on T_n(Z/q) → M_n(Z/q): the separability locus,
the ring-retraction system and the centre of each ring.  The report no
longer solves the centres; `finring_util.center` builds the system it
solved.  Each system is solved by the solver and by the oracle, and
`differences` names what disagrees: emptiness, the oracle's particular
outside the solver's set, the order of either kernel or of their joint
span, or a particular that is not the colexicographically least member
of the oracle's set (`smith_oracle.colex_least`).

Run it from the repository root:

    PYTHONPATH=src:tests python3 tests/solve_census.py

It prints one line per extension: how many of its systems the Howell
form solved, how many of their kernels `subgroup_basis` turned into
independent generators through the Smith form inside its `cokernel`,
and how many ran a Smith form anywhere else, which is never; it exits 1 after the
last if any system differed.  tests/test_modular_solve.py runs a seeded
slice.
"""

import math
import random
import sys
from unittest import mock

import numpy as np

import smith_oracle
from finring_util import center

from hsep import exactalg, sepkit
from hsep.exactalg import CapExceeded, exact_einsum, solve_modular_system
from hsep.finring import check_ring_hom, construct_ring, construct_standard_ring
from hsep.sepkit import find_ring_retractions, separability_locus

MODULI = (4, 8, 9, 25, 27)
KINDS = ("M", "T")
SEEDS = (0, 1, 2, 3)
CASES = [(kind, n, q, seed) for kind in KINDS for n in (1, 2, 3) for q in MODULI for seed in SEEDS]


def basis_change(k, q, rng):
    """(G, G⁻¹) mod q for G = P·D·S: a seeded permutation P, a diagonal D
    of units and a shear S = I + c·E_ij, i ≠ j.  `dense_basis_change`
    gives a denser G."""
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


def dense_basis_change(k, q, rng):
    """(G, G⁻¹) mod q for G = L·U, with L and U seeded unitriangular
    matrices whose every off-diagonal entry is random: every entry of G
    is then dense.  A triangular inverse is built by back-substitution
    over Z, so G⁻¹ = U⁻¹·L⁻¹ needs no division."""
    low = np.eye(k, dtype=np.int64)
    up = np.eye(k, dtype=np.int64)
    for i in range(k):
        for j in range(i):
            low[i, j], up[j, i] = rng.randrange(q), rng.randrange(q)
    return low @ up % q, _unitriangular_inverse(up, q) @ _unitriangular_inverse(low.T, q).T % q


def _unitriangular_inverse(t, q):
    """The inverse mod q of an upper unitriangular matrix."""
    k = len(t)
    inv = np.eye(k, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        for j in range(i + 1, k):
            inv[i] = (inv[i] - t[i, j] * inv[j]) % q
    return inv


def rebased(ring, g, g_inv):
    """`ring`, every modulus q, on the basis e'_a = Σ_i G[i, a]·e_i."""
    q = ring.moduli[0]
    table = exact_einsum("ia,jb,ijl,cl->abc", g, g, ring.np_mul, g_inv) % q
    unit = g_inv @ np.array(ring.unit, dtype=np.int64) % q
    labels = tuple("%s'%d" % (ring.label, a) for a in range(ring.k))
    return construct_ring(ring.moduli, table.tolist(), unit.tolist(), ring.label, labels)


def extension(kind, n, q, seed, change=basis_change):
    """M_n(Z/q)/(Z/q) ("M") or T_n(Z/q) → M_n(Z/q) ("T"); seed 0 keeps the
    standard bases, and any other seed changes both by `change`."""
    base = construct_standard_ring("modular", {"n": q}).ring
    if kind == "M":
        hom = construct_standard_ring("matrix", {"n": n, "base": base}).homs["scalar"]
    else:
        hom = construct_standard_ring("triangular", {"n": n, "base": base}).homs["into_matrix"]
    if not seed:
        return hom
    rng = random.Random(repr((kind, n, q, seed)))
    src, tgt = hom.source, hom.target
    gs, gs_inv = change(src.k, q, rng)
    gt, gt_inv = change(tgt.k, q, rng)
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


def differences(a, b, mods, unknown):
    """What differs between the solver's answer and the oracle's: an
    empty list when they agree."""
    fast = solve_modular_system(a, b, mods, unknown)
    slow = smith_oracle.solve(a, b, mods, unknown)
    if fast.is_empty or slow is None:
        return [] if fast.is_empty and slow is None else ["emptiness"]
    bad = []
    if not smith_oracle.contains(fast, slow[0]):
        bad.append("particular")
    moduli = fast.coordinate_moduli
    order = smith_oracle.span_order(fast.kernel_generators, moduli)
    if order != fast.size or smith_oracle.span_order(slow[1], moduli) != order:
        bad.append("orders")
    elif smith_oracle.span_order(fast.kernel_generators + tuple(slow[1]), moduli) != order:
        bad.append("span")
    if smith_oracle.colex_least(slow[0], slow[1], moduli) != fast.particular:
        bad.append("not colex-least")
    return bad


class SmithCount:
    """Counts `exactalg._smith` calls made inside `exactalg.cokernel` and
    outside it, while patched in."""

    def __init__(self):
        self.inside = self.outside = self.depth = 0
        self.smith, self.cokernel = exactalg._smith, exactalg.cokernel

    def counted_smith(self, *args):
        if self.depth:
            self.inside += 1
        else:
            self.outside += 1
        return self.smith(*args)

    def counted_cokernel(self, *args):
        self.depth += 1
        try:
            return self.cokernel(*args)
        finally:
            self.depth -= 1

    def __enter__(self):
        self.patches = [mock.patch.object(exactalg, "_smith", self.counted_smith), mock.patch.object(exactalg, "cokernel", self.counted_cokernel)]
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self.patches:
            patch.stop()


def smith_calls(a, b, mods, unknown):
    """(Smith forms run inside `cokernel`, Smith forms run outside it)
    while the solver answers this system."""
    with SmithCount() as count:
        solve_modular_system(a, b, mods, unknown)
    return count.inside, count.outside


def census(case, change=basis_change):
    """(systems, systems that took a Smith form inside `cokernel`, which
    `subgroup_basis` calls on a kernel, systems that took one anywhere
    else, the differences found) for one extension."""
    systems = report_systems(extension(*case, change=change))
    calls = [smith_calls(*system) for system in systems]
    bad = ["system %d: %s" % (i, ", ".join(d)) for i, system in enumerate(systems) if (d := differences(*system))]
    return len(systems), sum(1 for inside, _ in calls if inside), sum(1 for _, outside in calls if outside), bad


def main():
    failed = 0
    for case in CASES:
        total, kernels, fallbacks, bad = census(case)
        failed += bool(bad) or bool(fallbacks)
        kind, n, q, seed = case
        name = ("M%d(Z/%d)/(Z/%d)" % (n, q, q) if kind == "M" else "T%d(Z/%d) -> M%d(Z/%d)" % (n, q, n, q)) + ", basis %d" % seed
        print("%s: %d row-reduced, %d kernels through a cokernel Smith form, %d fallbacks, %s" % (name, total, kernels, fallbacks, "; ".join(bad) if bad else "same"))
        sys.stdout.flush()
    print("%d of %d extensions differ or fall back" % (failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
