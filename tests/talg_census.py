"""Census of the Lyndon primitive basis against the whole-degree kernel.

For every dim V ≤ 3, truncation N ≤ 6 and field ℚ, 𝔽₂, 𝔽₃, 𝔽₅ or 𝔽₇,
three models are built as `talg verify` builds them: T(V), the double
model on the primitives of T(V), and the model on the augmentation
kernel of T(V).  A model that does not fit under `tensorbialg.DIM_GUARD`
is skipped, as its constructor decides.  In every degree of every other
model, the basis of `tensorbialg.primitives` must span exactly what
`oracle_primitives` (one elimination of the whole degree, in
tests/talg_util.py) spans: the counts agree, the basis is independent,
and each of its vectors lies in the oracle's span.

Run it from the repository root:

    PYTHONPATH=src:tests python3 tests/talg_census.py

It prints one line per model, and exits 1 after the last if any model
disagreed.  tests/test_tensorbialg.py runs a seeded slice of it.
"""

import sys

from talg_util import oracle_primitives, rank, spans_within

from hsep.tensorbialg import DimensionGuardExceeded, TruncatedTensorBialgebra, build_truncated, primitives

FIELDS = (0, 2, 3, 5, 7)
MODELS = ("T(V)", "double", "augmentation")
CASES = [(v_dim, deg, p, model) for v_dim in range(4) for deg in range(1, 7) for p in FIELDS for model in MODELS]


def build(v_dim, deg, p, model):
    """The model, or None when it does not fit under the guard."""
    try:
        base = build_truncated(v_dim, p, deg)
        if model == "T(V)":
            return base
        prims = primitives(base)
        return TruncatedTensorBialgebra(prims.space if model == "double" else prims.aug_kernel, deg)
    except DimensionGuardExceeded:
        return None


def disagreements(bialg):
    """The degrees where the basis and the oracle span different spaces."""
    prims = primitives(bialg)
    p = bialg.field
    bad = []
    for d in range(bialg.N + 1):
        basis = prims.into_carrier.blocks[d].T.tolist()
        whole = oracle_primitives(bialg, d)
        if not (len(basis) == len(whole) == rank(p, basis) and spans_within(p, basis, whole)):
            bad.append(d)
    return bad


def main():
    failed = 0
    for case in CASES:
        bialg = build(*case)
        name = "dim %d, deg %d, %s, %s" % (case[0], case[1], "F%d" % case[2] if case[2] else "Q", case[3])
        if bialg is None:
            print("%s: over the guard" % name)
            continue
        bad = disagreements(bialg)
        failed += bool(bad)
        print("%s: %s" % (name, "differs in degrees %s" % bad if bad else "same span, dims %s" % (bialg.carrier.dims,)))
        sys.stdout.flush()
    print("%d of %d cases differ" % (failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
