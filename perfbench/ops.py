"""Running one op, with tracing off (through the CLI) or on (through the
public library calls, one span per call), and checking its outcome."""

from __future__ import annotations

import itertools
import json
import re

from hsep import cli, exactalg, fincat, finring, sepkit, tensorbialg

from workloads import CAP

EXIT = {True: cli.EXIT_HOLDS, False: cli.EXIT_FAILS, sepkit.UNDECIDED: cli.EXIT_UNDECIDED}


def _lookup(doc, dotted):
    for key in dotted.split("."):
        if not isinstance(doc, dict) or key not in doc:
            return "<missing>"
        doc = doc[key]
    return doc


def check(op, code, report, counts):
    """Every mismatch against the op's expectations, as text."""
    problems = []
    if code != op.code:
        problems.append("exit code %r, expected %r" % (code, op.code))
    for key, want in op.expect.items():
        got = _lookup(report, key)
        if got != want:
            problems.append("%s = %r, expected %r" % (key, got, want))
    if report.get("h_separable") == sepkit.UNDECIDED:
        problems.append("undecided where a decision is expected")
    for key, got in counts.items():
        want = op.counts.get(key)
        if want is not None and got != want:
            problems.append("count %s = %r, expected %r" % (key, got, want))
    return problems


# -- tracing off: every op the CLI offers enters through `hsep.cli.main` ------

_WITNESS_LINE = re.compile(r"^(values differ|unit retraction still holds): (true|false)$", re.M)


def run_plain(op, path, out):
    """Run the op and return (exit code, report)."""
    kind = op.kind
    if kind == "sep-report":
        argv = ["sep", "report", str(path), "--cap", str(CAP)]
    elif kind == "sep-epi":
        argv = ["sep", "epi", str(path)]
    elif kind in ("talg-verify", "talg-witness"):
        a = op.args
        argv = ["talg", kind[5:], "--dim", str(a["dim"]), "--deg", str(a["deg"]), "--field", a["field"]]
    elif kind.startswith("cat-rafael"):
        argv = ["cat", "rafael", str(path), "--side", op.args["side"]]
    else:
        return _library_search(op, fincat.adjunction_from_doc(str(path)))[:2]
    # `--format json` fails on witnesses over ℚ (a Fraction reaches the
    # JSON encoder), so witness verdicts are read from the text report.
    fmt = "text" if kind == "talg-witness" else "json"
    code = cli.main(["--format", fmt, "--output", str(out)] + argv)
    text = out.read_text()
    if fmt == "json":
        return code, json.loads(text)
    found = dict(_WITNESS_LINE.findall(text))
    return code, {
        "values_differ": found.get("values differ") == "true",
        "unit_retraction": found.get("unit retraction still holds") == "true",
    }


def _library_search(op, adj):
    """The fincat searches the CLI does not offer; (code, report, input)."""
    kind = op.kind
    if kind == "cat-augmentations":
        found = fincat.find_monad_augmentations(fincat.monad_from_adjunction(adj))
        scanned = adj
    elif kind == "cat-em-sections":
        _, forget = fincat.eilenberg_moore(adj)
        found = fincat.find_section_functors(forget)
        scanned = forget
    elif kind == "cat-hsep-structures":
        found = fincat.find_h_separability_structures(adj.left)
        scanned = adj.left
    else:
        raise ValueError("unknown op kind %r" % kind)
    return EXIT[bool(found)], {"count": len(found)}, scanned


# -- tracing on: public library calls, one span each ---------------------------


def run_traced(op, path, tracer):
    """Run the op; return (exit code, report, counts)."""
    kind = op.kind
    if kind.startswith("sep-"):
        return _traced_sep(op, path, tracer)
    if kind.startswith("talg-"):
        return _traced_talg(op, tracer)
    with tracer.span("fincat.build"):
        adj = fincat.adjunction_from_doc(str(path))
    if kind.startswith("cat-rafael"):
        side = op.args["side"]
        with tracer.span("fincat.rafael"):
            sep, heavy = fincat.find_rafael_retractions(adj, side)
        report = {
            "separable_witness_count": len(sep),
            "h_witness_count": len(heavy),
            "h_separable": bool(heavy),
        }
        counts = {"fincat.candidates": _natural_candidates(adj, side), "fincat.witnesses": len(sep)}
        return EXIT[bool(heavy)], report, counts
    name = "fincat." + kind[4:].replace("-", "_")
    with tracer.span(name):
        code, report, scanned = _library_search(op, adj)
    if kind == "cat-augmentations":
        candidates = _natural_candidates(adj, "left")
    elif kind == "cat-em-sections":
        candidates = _section_candidates(scanned)
    else:
        candidates = _structure_candidates(scanned)
    return code, report, {"fincat.candidates": candidates, "fincat.witnesses": report["count"]}


def _traced_sep(op, path, tracer):
    doc = json.loads(path.read_text())
    with tracer.span("finring.load"):
        hom = finring.hom_from_doc(doc, path.parent)
    with tracer.span("sepkit.tensor2"):
        t2 = sepkit.tensor_power(hom, 2)
    counts = {"sepkit.rank2": t2.group.rank}
    if op.kind == "sep-epi":
        with tracer.span("sepkit.epi"):
            epi = sepkit.is_ring_epimorphism(hom)
        return EXIT[epi], {"ring_epimorphism": epi}, counts
    with tracer.span("sepkit.locus"):
        locus = t2.locus
    # the report builds S⊗S⊗S and enumerates the locus only below the cap
    enumerated = not locus.is_empty and locus.size <= CAP
    counts.update({"sepkit.rank3": 0, "exactalg.member_rows": 0})
    if enumerated:
        with tracer.span("sepkit.tensor3"):
            counts["sepkit.rank3"] = t2.triple.group.rank
        with tracer.span("exactalg.member_array"):
            counts["exactalg.member_rows"] = locus.member_array().shape[0]
    with tracer.span("sepkit.retractions"):
        try:
            sepkit.find_ring_retractions(hom, CAP)
        except exactalg.CapExceeded:
            pass
    with tracer.span("sepkit.epi"):
        sepkit.is_ring_epimorphism(hom)
    inside = "sepkit.report"
    with tracer.wrapped(sepkit, "find_ring_retractions", "sepkit.retractions", inside, repeat=True), \
            tracer.wrapped(sepkit, "is_ring_epimorphism", "sepkit.epi", inside, repeat=True), \
            tracer.wrapped(exactalg.AffineSolutionSet, "member_array", "exactalg.member_array", inside,
                           repeat=True, select=lambda s: s is locus):
        with tracer.span(inside):
            verdict = sepkit.h_separability_report(hom, cap=CAP)
    with tracer.span("sepkit.to_doc"):
        report = sepkit.verdict_to_doc(verdict)
    counts["sepkit.locus_size"] = locus.size
    counts["sepkit.h_witnesses"] = len(report["h_witnesses"])
    return EXIT[verdict.is_h_separable], report, counts


def _traced_talg(op, tracer):
    a = op.args
    fld = tensorbialg.exact_field(a["field"])
    if op.kind == "talg-witness":
        with tracer.wrapped(tensorbialg, "build_truncated", "tensorbialg.build", "tensorbialg.witness"):
            with tracer.span("tensorbialg.witness"):
                rep = tensorbialg.tensor_algebra_witness(a["dim"], fld, a["deg"])
        report = {"values_differ": rep.values_differ, "unit_retraction": rep.unit_retraction_holds}
        code = EXIT[rep.values_differ and rep.unit_retraction_holds]
        return code, report, {}
    # the base model and its primitives are the first build_truncated and
    # primitives calls of the verification; later ones belong to the
    # double model and stay in the verification's own time
    inside = "tensorbialg.verify"
    with tracer.wrapped(tensorbialg, "build_truncated", "tensorbialg.build", inside, once=True), \
            tracer.wrapped(tensorbialg, "primitives", "tensorbialg.primitives", inside, once=True):
        with tracer.span(inside):
            rep = tensorbialg.verify_bialgebra_adjunction(a["dim"], fld, a["deg"])
    report = {
        "all_hold": rep.all_hold,
        "unit_retraction": rep.unit_retraction_holds,
        "heavy_composition": rep.heavy_composition_holds,
        "letter_projection_restriction": rep.letter_projection_identity_holds,
        "failures": [list(map(str, f)) for f in rep.failure_witnesses],
        "dims": rep.dims,
    }
    counts = {
        "tensorbialg.carrier_dim": sum(rep.dims["carrier"]),
        "tensorbialg.primitive_dim": sum(rep.dims["primitives"]),
        "tensorbialg.double_carrier_dim": sum(rep.dims["double_carrier"]),
    }
    return EXIT[rep.all_hold], report, counts


# -- candidates each fincat search scans, computed from its input -----------


def _natural_candidates(adj, side):
    """Π over objects of |Hom(RL b, b)| (unit side) or |Hom(a, LR a)|."""
    if side == "left":
        cat, first, second = adj.left.source, adj.left, adj.right
        sizes = [len(cat.hom_set(second.object_map[first.object_map[b]], b)) for b in cat.objects]
    else:
        cat, first, second = adj.right.source, adj.right, adj.left
        sizes = [len(cat.hom_set(a, second.object_map[first.object_map[a]])) for a in cat.objects]
    total = 1
    for s in sizes:
        total *= s
    return total


def _section_candidates(u):
    """Σ over object choices of Π over morphisms f of the lifts of f."""
    src, tgt = u.source, u.target
    fibers = [[o for o in src.objects if u.object_map[o] == x] for x in tgt.objects]
    total = 0
    for combo in itertools.product(*fibers):
        gamma = dict(zip(tgt.objects, combo))
        prod = 1
        for x, y, f in tgt.morphisms():
            gx, gy = gamma[x], gamma[y]
            prod *= sum(1 for name in src.hom_set(gx, gy) if u.morphism_map[(gx, gy, name)] == f)
        total += prod
    return total


def _structure_candidates(fun):
    """Π over object pairs of |Hom(x,y)| ^ (Hom(Fx,Fy) outside F's image)."""
    bcat, acat = fun.source, fun.target
    total = 1
    for x in bcat.objects:
        for y in bcat.objects:
            cod = bcat.hom_set(x, y)
            dom = acat.hom_set(fun.object_map[x], fun.object_map[y])
            image = {fun.morphism_map[(x, y, f)] for f in cod}
            total *= max(1, len(cod)) ** (len(dom) - len(image))
    return total
