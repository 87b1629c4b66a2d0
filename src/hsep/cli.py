"""Command-line front door.

Subcommands: `ring validate/standard`, `sep report/epi/idempotents`,
`cat check/rafael`, `talg verify/witness`, `corpus run`.

Every command takes one path.  Its producer takes parsed inputs (a hom
and a cap, an adjunction and a side, or dim, field and deg) and returns
`(doc, lines, holds)`, where `holds` is True, False or
`sepkit.UNDECIDED`.  `main` hands the doc and lines to the one writer,
`_emit`: `--format json` writes the doc, byte-stable with sorted keys,
and the default text format writes the lines.  It then returns
`_EXIT[holds]`: 0 when the queried property holds, 1 when it does not,
3 when enumeration was capped and the question stays undecided.  Input
errors raise `InputError` in the loaders (`_load_*`, `_parse_field`)
or at a size guard, and exit 2 with one `error: ` line on stderr.
`corpus run` calls the same producers through `_CASES` and compares
each case's expected keys against the producer's doc.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import documents, fincat, finring, sepkit, tensorbialg

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3
# a producer's `holds` (True, False or sepkit.UNDECIDED) -> the exit code
_EXIT = {True: EXIT_HOLDS, False: EXIT_FAILS, sepkit.UNDECIDED: EXIT_UNDECIDED}


class InputError(Exception):
    pass


def default_cap():
    env = os.environ.get("SEPKIT_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError as err:
            raise InputError("SEPKIT_CAP must be an integer: %r" % env) from err
        if cap < 0:
            raise InputError("SEPKIT_CAP must not be negative: %r" % env)
        return cap
    return sepkit.DEFAULT_CAP


def _emit(doc, lines, args):
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as err:
            raise InputError("%s: %s" % (args.output, err)) from err
    else:
        sys.stdout.write(text)


def _check_output(path):
    """Fail before the command runs when `path` cannot be a file: a
    directory, or a path whose parent is not a directory.  Nothing is
    created; any other write error is raised by _emit."""
    target = Path(path)
    if target.is_dir():
        raise InputError("%s: is a directory" % path)
    if not target.parent.is_dir():
        raise InputError("%s: %s is not a directory" % (path, target.parent))


def _load_doc(path):
    try:
        return documents.load(path), Path(path).parent
    except documents.NotAnObject as err:
        raise InputError(str(err)) from err
    except (OSError, ValueError) as err:  # a decode error is a ValueError
        raise InputError("%s: %s" % (path, err)) from err


def _load_hom(path):
    doc, base = _load_doc(path)
    try:
        return finring.hom_from_doc(doc, base)
    except (finring.RingConstructionError, finring.RingHomError, ValueError, KeyError, TypeError) as err:
        raise InputError("%s: %s" % (path, err)) from err


# -- ring ---------------------------------------------------------------


def cmd_ring_validate(args):
    doc, base = _load_doc(args.file)
    try:
        ring = finring.ring_from_doc(doc, base)
    except finring.RingConstructionError as err:
        return {"valid": False, "error": str(err)}, ["invalid: %s" % err], False
    except (ValueError, KeyError, TypeError) as err:
        raise InputError("%s: %s" % (args.file, err)) from err
    doc = {"valid": True, "label": ring.label, "order": ring.order, "basis": ring.k}
    return doc, ["valid: %s (order %d, %d basis elements)" % (ring.label, ring.order, ring.k)], True


def cmd_ring_standard(args):
    try:
        params = json.loads(args.params) if args.params else {}
        std = finring.construct_standard_ring(args.kind, finring.standard_params_from_doc(params))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as err:
        raise InputError("standard ring: %s" % err) from err
    doc = finring.ring_to_doc(std.ring)
    doc["canonical_homs"] = sorted(std.homs)
    return doc, [json.dumps(doc, indent=2, sort_keys=True)], True


# -- sep ----------------------------------------------------------------


def sep_report(hom, cap):
    doc = sepkit.verdict_to_doc(sepkit.h_separability_report(hom, cap=cap))
    lines = [
        "extension: %s over %s" % (doc["target"], doc["source"]),
        "separable: %s" % str(doc["separable"]).lower(),
        "h-separable: %s" % str(doc["h_separable"]).lower(),
        "ring epimorphism: %s" % str(doc["ring_epimorphism"]).lower(),
        "locus size: %d" % doc["locus_size"],
    ]
    lines += ["h-witness: %s  %s" % (w["coords"], w["formal_sum"]) for w in doc["h_witnesses"]]
    if doc["retraction_count"] is not None:
        lines.append("ring retractions: %d" % doc["retraction_count"])
    return doc, lines, doc["h_separable"]


def sep_epi(hom):
    epi = sepkit.is_ring_epimorphism(hom)
    doc = {"source": hom.source.label, "target": hom.target.label, "ring_epimorphism": epi}
    return doc, ["ring epimorphism: %s" % str(epi).lower()], epi


def sep_idempotents(hom, cap, h_only):
    t2 = sepkit.tensor_power(hom, 2)
    locus = t2.locus
    if locus.is_empty:
        return {"locus_size": 0, "idempotents": []}, ["no separability idempotents"], False
    if locus.size > cap:
        lines = ["undecided: locus size %d exceeds cap %d" % (locus.size, cap)]
        return {"locus_size": locus.size, "idempotents": None}, lines, sepkit.UNDECIDED
    members = sepkit.h_idempotents(t2) if h_only else locus.members()
    doc = {
        "locus_size": locus.size,
        "h_only": h_only,
        "idempotents": [{"coords": list(m), "formal_sum": t2.format_element(m)} for m in members],
    }
    lines = ["%d idempotent(s)%s" % (len(members), " passing the heavy condition" if h_only else "")]
    lines += ["  %s  %s" % (list(m), t2.format_element(m)) for m in members]
    return doc, lines, bool(members)


# -- cat ----------------------------------------------------------------


def _load_cat_doc(path):
    doc, base = _load_doc(path)
    kind = doc.get("type")
    try:
        if kind == "category":
            return fincat.category_from_doc(doc, base)
        if kind == "functor":
            return fincat.functor_from_doc(doc, base)
        if kind == "adjunction":
            return fincat.adjunction_from_doc(doc, base)
    except fincat.CategoryLawError:
        raise
    except (ValueError, KeyError, TypeError) as err:
        raise InputError("%s: %s" % (path, err)) from err
    raise InputError("%s: unknown document type %r" % (path, kind))


def _load_adjunction(path):
    try:
        value = _load_cat_doc(path)
    except fincat.CategoryLawError as err:
        raise InputError("%s: %s" % (path, err)) from err
    if not isinstance(value, fincat.AdjunctionData):
        raise InputError("%s: rafael needs an adjunction document" % path)
    return value


def cmd_cat_check(args):
    try:
        value = _load_cat_doc(args.file)
    except fincat.CategoryLawError as err:
        return {"valid": False, "error": str(err)}, ["invalid: %s" % err], False
    return {"valid": True, "kind": type(value).__name__}, ["valid %s" % type(value).__name__], True


def cat_rafael(adj, side):
    try:
        sep, heavy = fincat.find_rafael_retractions(adj, side)
    except fincat.CapExceeded as err:
        doc = {"side": side, "h_separable": sepkit.UNDECIDED, "candidates": err.size}
        return doc, ["side: %s" % side, "undecided: %s" % err], sepkit.UNDECIDED
    doc = {
        "side": side,
        "separable_witness_count": len(sep),
        "h_witness_count": len(heavy),
        "h_separable": bool(heavy),
        "h_witnesses": [dict(sorted(n.components.items())) for n in heavy],
    }
    lines = [
        "side: %s" % side,
        "separable witnesses: %d" % len(sep),
        "h-separability witnesses: %d" % len(heavy),
    ]
    return doc, lines, bool(heavy)


# -- talg ---------------------------------------------------------------


def _parse_field(text):
    try:
        return tensorbialg.exact_field(text)
    except ValueError as err:
        raise InputError("field %r: %s" % (text, err)) from err


def _talg_report(build, dim, field, deg):
    try:
        return build(dim, field, deg)
    except ValueError as err:  # bad sizes, or past the dimension guard
        raise InputError(str(err)) from err


def talg_verify(dim, field, deg):
    report = _talg_report(tensorbialg.verify_bialgebra_adjunction, dim, field, deg)
    doc = {
        "v_dim": report.v_dim,
        "field": report.field_name,
        "truncation": report.truncation,
        "dims": report.dims,
        "unit_retraction": report.unit_retraction_holds,
        "heavy_composition": report.heavy_composition_holds,
        "letter_projection_restriction": report.letter_projection_identity_holds,
        "all_hold": report.all_hold,
        "failures": [list(map(str, f)) for f in report.failure_witnesses],
    }
    lines = [
        "dims: carrier %s, primitives %s" % (report.dims["carrier"], report.dims["primitives"]),
        "unit retraction: %s" % str(report.unit_retraction_holds).lower(),
        "heavy composition: %s" % str(report.heavy_composition_holds).lower(),
        "restricted projection identity: %s" % str(report.letter_projection_identity_holds).lower(),
    ]
    return doc, lines, bool(report.all_hold)


def talg_witness(dim, field, deg):
    rep = _talg_report(tensorbialg.tensor_algebra_witness, dim, field, deg)
    doubled = list(rep.doubled_value[1])
    evaluated = list(rep.evaluated_value[1])
    doc = {
        "v_dim": rep.v_dim,
        "field": rep.field_name,
        "truncation": rep.truncation,
        "doubled_projection": [rep.doubled_value[0], doubled],
        "evaluated_then_projected": [rep.evaluated_value[0], evaluated],
        "values_differ": rep.values_differ,
        "unit_retraction": rep.unit_retraction_holds,
    }
    lines = [
        "witness word: (unit letter) ⊗ (degree-1 letter)",
        "project twice: %s" % json.dumps(doubled),
        "evaluate then project: %s" % json.dumps(evaluated),
        "values differ: %s" % str(rep.values_differ).lower(),
        "unit retraction still holds: %s" % str(rep.unit_retraction_holds).lower(),
    ]
    return doc, lines, bool(rep.values_differ and rep.unit_retraction_holds)


# -- corpus -------------------------------------------------------------


# case type -> (spec, case directory, cap) -> the producer's (doc, lines, holds)
_CASES = {
    "sep_report": lambda spec, base, cap: sep_report(finring.hom_from_doc(spec["hom"], base), cap),
    "sep_epi": lambda spec, base, cap: sep_epi(finring.hom_from_doc(spec["hom"], base)),
    "cat_rafael": lambda spec, base, cap: cat_rafael(
        fincat.adjunction_from_doc(spec["adjunction"], base), spec.get("side", "left")
    ),
    "talg_verify": lambda spec, base, cap: talg_verify(
        spec["dim"], tensorbialg.exact_field(spec["field"]), spec["deg"]
    ),
    "talg_witness": lambda spec, base, cap: talg_witness(
        spec["dim"], tensorbialg.exact_field(spec["field"]), spec["deg"]
    ),
}


def _load_case(case):
    path = case / "expect.json"
    spec, _ = _load_doc(path)
    expect = spec.get("expect", {})
    if not isinstance(expect, dict):
        raise InputError("%s: \"expect\" must be a JSON object, got %s" % (path, type(expect).__name__))
    return spec, expect


def _run_case(case, spec, expect, cap):
    """The case's mismatches against its producer's doc, or {"error":
    message} when the case raises: a broken case is a mismatch."""
    try:
        produce = _CASES.get(spec.get("type"))
        if produce is None:
            raise InputError("unknown corpus case type %r" % spec.get("type"))
        doc = produce(spec, case, cap)[0]
    except Exception as err:
        return {"error": str(err)}
    got = {key: doc.get(key, "<missing>") for key in expect}
    return {key: {"expected": want, "got": got[key]} for key, want in expect.items() if got[key] != want}


def cmd_corpus_run(args):
    root = Path(args.dir)
    if not root.is_dir():
        raise InputError("%s is not a directory" % root)
    cases = sorted(p for p in root.iterdir() if (p / "expect.json").is_file())
    if not cases:
        raise InputError("%s holds no cases (directories with expect.json)" % root)
    specs = [(case, *_load_case(case)) for case in cases]
    results = [(case.name, _run_case(case, spec, expect, args.cap)) for case, spec, expect in specs]
    failures = sum(1 for _, mm in results if mm)
    doc = {
        "cases": [{"name": name, "ok": not mm, "mismatches": mm} for name, mm in results],
        "failures": failures,
        "total": len(results),
    }
    lines = []
    for name, mm in results:
        lines.append("%-28s %s" % (name, "MISMATCH" if mm else "ok"))
        for key, detail in sorted(mm.items()):
            if isinstance(detail, dict):
                lines.append("    %s: expected %r, got %r" % (key, detail["expected"], detail["got"]))
            else:  # the case raised: {"error": message}
                lines.append("    %s: %s" % (key, detail))
    lines.append("%d/%d cases match" % (len(results) - failures, len(results)))
    return doc, lines, failures == 0


# -- entry point --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsep",
        description="Exact separability / heavy separability workbench",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring documents").add_subparsers(dest="sub", required=True)
    v = ring.add_parser("validate", help="validate a ring document")
    v.add_argument("file")
    v.set_defaults(func=cmd_ring_validate)
    s = ring.add_parser("standard", help="emit a standard ring document")
    s.add_argument("kind")
    s.add_argument("--params", help="JSON parameters for the construction")
    s.set_defaults(func=cmd_ring_standard)

    sep = sub.add_parser("sep", help="separability of ring extensions").add_subparsers(dest="sub", required=True)
    r = sep.add_parser("report", help="full h-separability verdict")
    r.add_argument("hom")
    r.add_argument("--cap", type=int, default=None)
    r.set_defaults(func=lambda a: sep_report(_load_hom(a.hom), a.cap))
    e = sep.add_parser("epi", help="ring epimorphism decision")
    e.add_argument("hom")
    e.set_defaults(func=lambda a: sep_epi(_load_hom(a.hom)))
    i = sep.add_parser("idempotents", help="list separability idempotents")
    i.add_argument("hom")
    i.add_argument("--h-only", action="store_true")
    i.add_argument("--cap", type=int, default=None)
    i.set_defaults(func=lambda a: sep_idempotents(_load_hom(a.hom), a.cap, a.h_only))

    cat = sub.add_parser("cat", help="finite category documents").add_subparsers(dest="sub", required=True)
    c = cat.add_parser("check", help="validate a category/functor/adjunction")
    c.add_argument("file")
    c.set_defaults(func=cmd_cat_check)
    ra = cat.add_parser("rafael", help="natural retractions of an adjunction")
    ra.add_argument("file")
    ra.add_argument("--side", choices=("left", "right"), default="left")
    ra.set_defaults(func=lambda a: cat_rafael(_load_adjunction(a.file), a.side))

    talg = sub.add_parser("talg", help="truncated tensor bialgebra checks").add_subparsers(dest="sub", required=True)
    tv = talg.add_parser("verify", help="verify the adjunction identities")
    tv.add_argument("--dim", type=int, required=True)
    tv.add_argument("--deg", type=int, required=True)
    tv.add_argument("--field", required=True, help="q for rationals, or a prime")
    tv.set_defaults(func=lambda a: talg_verify(a.dim, _parse_field(a.field), a.deg))
    tw = talg.add_parser("witness", help="tensor-algebra non-heaviness witness")
    tw.add_argument("--dim", type=int, required=True)
    tw.add_argument("--deg", type=int, required=True)
    tw.add_argument("--field", required=True)
    tw.set_defaults(func=lambda a: talg_witness(a.dim, _parse_field(a.field), a.deg))

    corpus = sub.add_parser("corpus", help="golden corpus").add_subparsers(dest="sub", required=True)
    cr = corpus.add_parser("run", help="run every golden case in a directory")
    cr.add_argument("dir")
    cr.add_argument("--cap", type=int, default=None)
    cr.set_defaults(func=cmd_corpus_run)
    return parser


@functools.cache
def _parser():
    """The parser, built on the first `main` call and shared by the rest."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        if hasattr(args, "cap"):
            if args.cap is None:
                args.cap = default_cap()
            elif args.cap < 0:
                raise InputError("--cap must not be negative: %d" % args.cap)
        doc, lines, holds = args.func(args)
        _emit(doc, lines, args)
        return _EXIT[holds]
    except (InputError, OSError) as err:
        sys.stderr.write("error: %s\n" % str(err).replace("\n", " "))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
