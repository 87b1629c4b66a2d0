"""S's two actions on S⊗_R S, `TensorPower.action_matrices`, against the
three-operand contractions they replaced.

On a presentation that is not the identity, s·(e_a⊗e_b) and
(e_a⊗e_b)·s are read on the pure tensors through the lift L and the
projection P; sepkit contracts the product table with L first and P
after.  `three_operand_actions` is the single contraction of all three.
The values, not the dtypes, must agree on the corpus, on T_n(Z/q) →
M_n(Z/q) in dense bases, and on T3 → M3 over 𝔽_p for p = 2⁶¹ − 1, whose
products pass int64 and are taken in Python ints.
"""

import numpy as np
import pytest

from corpus_util import build_corpus, hom_documents, zmod
from solve_census import dense_basis_change, extension

from hsep.exactalg import exact_einsum
from hsep.finring import construct_standard_ring
from hsep.sepkit import TensorPower

MERSENNE = 2**61 - 1


def three_operand_actions(t2):
    """(left, right), each by one contraction of P, the product table
    and L."""
    k, rank = t2.k, t2.group.rank
    t = t2.hom.target.np_mul
    p = t2.np_project.reshape(rank, k, k)
    l = t2.np_lift.reshape(k, k, rank)
    mods = t2.np_moduli[None, :, None]
    left = exact_einsum("rcb,sac,abq->srq", p, t, l)
    right = exact_einsum("rac,bsc,abq->srq", p, t, l)
    return left % mods, right % mods


def extensions():
    cases = hom_documents()
    cases.update(("corpus:" + name, hom) for name, hom in build_corpus()[0].items())
    for kind in ("T", "M"):
        for n in (2, 3):
            for q in range(2, 10):
                cases["%s%d(Z/%d) dense" % (kind, n, q)] = extension(kind, n, q, 1, change=dense_basis_change)
    return cases


CASES = extensions()


def assert_same_values(got, want):
    assert got.shape == want.shape
    assert [int(x) for x in got.ravel()] == [int(x) for x in want.ravel()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_pairwise_actions_match_the_oracle(name):
    t2 = TensorPower(CASES[name])
    if name.startswith("T"):
        # S⊗S of the epimorphism T_n → M_n is S: k generators, not k²
        assert not t2.group.is_identity and t2.group.rank == t2.k
    for got, want in zip(t2.action_matrices, three_operand_actions(t2)):
        assert_same_values(got, want)


def test_past_int64():
    hom = construct_standard_ring("triangular", {"n": 3, "base": zmod(MERSENNE)}).homs["into_matrix"]
    t2 = TensorPower(hom)
    assert not t2.group.is_identity
    left, right = t2.action_matrices
    assert left.dtype == right.dtype == object
    for got, want in zip((left, right), three_operand_actions(t2)):
        assert_same_values(got, want)
    # the actions are those of S: e_11·(1⊗1) = e_11⊗1 = (1⊗1)·e_11
    assert np.array_equal(left[0] @ np.array(t2.one_one, dtype=object) % MERSENNE,
                          right[0] @ np.array(t2.one_one, dtype=object) % MERSENNE)
