"""A seeded slice of the rebasing census: a verdict is a property of an
extension up to isomorphism, so a dense change of basis must leave it
unchanged and must not cost more than a bounded multiple of the standard
basis.

Each extension is rebased on source and target by G = L·U with full
random unitriangular L and U over Z/q (`solve_census.dense_basis_change`),
written as a document, and reported by `python -m hsep sep report` in a
fresh process under a timeout far above its standard-basis time (at most
0.3 s in process).  Separable, h-separable, ring-epi, the locus size, the
multiset of kernel orders, the witness count and the retraction count
must equal the standard basis's.  A timeout fails and names the input.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from solve_census import dense_basis_change, extension

from hsep.finring import hom_to_doc
from hsep.sepkit import h_separability_report, verdict_to_doc

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 30
# (kind, n, q): T_n(Z/q) → M_n(Z/q) ("T") or M_n(Z/q)/(Z/q) ("M")
CASES = [("T", 3, 4), ("T", 3, 6), ("T", 3, 8), ("T", 3, 9), ("M", 2, 4), ("M", 2, 6)]
SEEDS = (1, 2)


def invariants(doc):
    return (
        doc["separable"],
        doc["h_separable"],
        doc["ring_epimorphism"],
        doc["locus_size"],
        sorted(doc["locus_kernel_orders"]),
        len(doc["h_witnesses"]),
        doc["retraction_count"],
    )


def report_in_a_fresh_process(hom, path):
    path.write_text(json.dumps(hom_to_doc(hom)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    try:
        out = subprocess.run(
            [sys.executable, "-m", "hsep", "--format", "json", "sep", "report", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("sep report on %s gave no answer in %d s" % (path.name, TIMEOUT))
    assert out.returncode in (0, 1), out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d-Z%d" % c)
def test_dense_basis_keeps_the_verdict(case, seed, tmp_path):
    standard = verdict_to_doc(h_separability_report(extension(*case, 0)))
    rebased = extension(*case, seed, change=dense_basis_change)
    name = "%s%d-Z%d-dense%d.json" % (case + (seed,))
    assert invariants(report_in_a_fresh_process(rebased, tmp_path / name)) == invariants(standard)


def test_the_bases_are_dense():
    # every entry of a change of basis is random, not one shear
    g, g_inv = dense_basis_change(9, 9, random.Random(3))
    assert (g @ g_inv % 9 == np.eye(9, dtype=np.int64)).all()
    assert (g != 0).sum() > 60
