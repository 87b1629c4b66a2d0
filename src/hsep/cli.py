"""Command-line front door.

Subcommands: `ring validate/standard`, `sep report/epi/idempotents`,
`cat check/rafael`, `talg verify/witness`, `corpus run`.  Verdict
subcommands exit 0 when the queried property holds, 1 when it does
not, 2 on input error, 3 when enumeration was capped and the question
stays undecided.  `--format json` emits byte-stable reports (sorted
keys); the default is human-readable text.
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
        _emit({"valid": False, "error": str(err)}, ["invalid: %s" % err], args)
        return EXIT_FAILS
    except (ValueError, KeyError, TypeError) as err:
        raise InputError("%s: %s" % (args.file, err)) from err
    _emit(
        {"valid": True, "label": ring.label, "order": ring.order, "basis": ring.k},
        ["valid: %s (order %d, %d basis elements)" % (ring.label, ring.order, ring.k)],
        args,
    )
    return EXIT_HOLDS


def cmd_ring_standard(args):
    try:
        params = json.loads(args.params) if args.params else {}
        std = finring.construct_standard_ring(
            args.kind, finring.standard_params_from_doc(params)
        )
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as err:
        raise InputError("standard ring: %s" % err) from err
    doc = finring.ring_to_doc(std.ring)
    doc["canonical_homs"] = sorted(std.homs)
    _emit(
        doc,
        [json.dumps(doc, indent=2, sort_keys=True)],
        args,
    )
    return EXIT_HOLDS


# -- sep ----------------------------------------------------------------


def _verdict_lines(doc):
    h = doc["h_separable"]
    lines = [
        "extension: %s over %s" % (doc["target"], doc["source"]),
        "separable: %s" % str(doc["separable"]).lower(),
        "h-separable: %s" % (h if isinstance(h, str) else str(h).lower()),
        "ring epimorphism: %s" % str(doc["ring_epimorphism"]).lower(),
        "locus size: %d" % doc["locus_size"],
    ]
    for w in doc["h_witnesses"]:
        lines.append("h-witness: %s  %s" % (w["coords"], w["formal_sum"]))
    if doc["retraction_count"] is not None:
        lines.append("ring retractions: %d" % doc["retraction_count"])
    return lines


def cmd_sep_report(args):
    hom = _load_hom(args.hom)
    verdict = sepkit.h_separability_report(hom, cap=args.cap)
    doc = sepkit.verdict_to_doc(verdict)
    _emit(doc, _verdict_lines(doc), args)
    if verdict.is_h_separable == sepkit.UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_HOLDS if verdict.is_h_separable else EXIT_FAILS


def cmd_sep_epi(args):
    hom = _load_hom(args.hom)
    epi = sepkit.is_ring_epimorphism(hom)
    doc = {
        "source": hom.source.label,
        "target": hom.target.label,
        "ring_epimorphism": epi,
    }
    _emit(doc, ["ring epimorphism: %s" % str(epi).lower()], args)
    return EXIT_HOLDS if epi else EXIT_FAILS


def cmd_sep_idempotents(args):
    hom = _load_hom(args.hom)
    t2 = sepkit.tensor_power(hom, 2)
    locus = t2.locus
    if locus.is_empty:
        _emit(
            {"locus_size": 0, "idempotents": []},
            ["no separability idempotents"],
            args,
        )
        return EXIT_FAILS
    if locus.size > args.cap:
        _emit(
            {"locus_size": locus.size, "idempotents": None},
            ["undecided: locus size %d exceeds cap %d" % (locus.size, args.cap)],
            args,
        )
        return EXIT_UNDECIDED
    members = sepkit.h_idempotents(t2) if args.h_only else locus.members()
    doc = {
        "locus_size": locus.size,
        "h_only": bool(args.h_only),
        "idempotents": [
            {"coords": list(m), "formal_sum": t2.format_element(m)} for m in members
        ],
    }
    lines = ["%d idempotent(s)%s" % (len(members), " passing the heavy condition" if args.h_only else "")]
    lines += ["  %s  %s" % (list(m), t2.format_element(m)) for m in members]
    _emit(doc, lines, args)
    return EXIT_HOLDS if members else EXIT_FAILS


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


def cmd_cat_check(args):
    try:
        value = _load_cat_doc(args.file)
    except fincat.CategoryLawError as err:
        _emit({"valid": False, "error": str(err)}, ["invalid: %s" % err], args)
        return EXIT_FAILS
    _emit({"valid": True, "kind": type(value).__name__}, ["valid %s" % type(value).__name__], args)
    return EXIT_HOLDS


def cmd_cat_rafael(args):
    try:
        value = _load_cat_doc(args.file)
    except fincat.CategoryLawError as err:
        raise InputError("%s: %s" % (args.file, err)) from err
    if not isinstance(value, fincat.AdjunctionData):
        raise InputError("%s: rafael needs an adjunction document" % args.file)
    try:
        sep, heavy = fincat.find_rafael_retractions(value, args.side)
    except fincat.CapExceeded as err:
        doc = {"side": args.side, "h_separable": sepkit.UNDECIDED, "candidates": err.size}
        _emit(doc, ["side: %s" % args.side, "undecided: %s" % err], args)
        return EXIT_UNDECIDED
    doc = {
        "side": args.side,
        "separable_witness_count": len(sep),
        "h_witness_count": len(heavy),
        "h_separable": bool(heavy),
        "h_witnesses": [dict(sorted(n.components.items())) for n in heavy],
    }
    lines = [
        "side: %s" % args.side,
        "separable witnesses: %d" % len(sep),
        "h-separability witnesses: %d" % len(heavy),
    ]
    _emit(doc, lines, args)
    return EXIT_HOLDS if heavy else EXIT_FAILS


# -- talg ---------------------------------------------------------------


def _parse_field(text):
    try:
        return tensorbialg.exact_field(text)
    except ValueError as err:
        raise InputError("field %r: %s" % (text, err)) from err


def cmd_talg_verify(args):
    field = _parse_field(args.field)
    try:
        report = tensorbialg.verify_bialgebra_adjunction(args.dim, field, args.deg)
    except ValueError as err:  # bad sizes, or past the dimension guard
        raise InputError(str(err)) from err
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
    _emit(doc, lines, args)
    return EXIT_HOLDS if report.all_hold else EXIT_FAILS


def cmd_talg_witness(args):
    field = _parse_field(args.field)
    try:
        rep = tensorbialg.tensor_algebra_witness(args.dim, field, args.deg)
    except ValueError as err:  # bad sizes, or past the dimension guard
        raise InputError(str(err)) from err
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
    _emit(doc, lines, args)
    return EXIT_HOLDS if rep.values_differ and rep.unit_retraction_holds else EXIT_FAILS


# -- corpus -------------------------------------------------------------


def _case_report(case_dir, spec, cap):
    kind = spec.get("type")
    if kind == "sep_report":
        hom = finring.hom_from_doc(spec["hom"], case_dir)
        return sepkit.verdict_to_doc(sepkit.h_separability_report(hom, cap=cap))
    if kind == "sep_epi":
        hom = finring.hom_from_doc(spec["hom"], case_dir)
        epi = sepkit.is_ring_epimorphism(hom)
        return {"ring_epimorphism": epi}
    if kind == "cat_rafael":
        adj = fincat.adjunction_from_doc(spec["adjunction"], case_dir)
        sep, heavy = fincat.find_rafael_retractions(adj, spec.get("side", "left"))
        return {
            "separable_witness_count": len(sep),
            "h_witness_count": len(heavy),
            "h_separable": bool(heavy),
        }
    if kind == "talg_verify":
        rep = tensorbialg.verify_bialgebra_adjunction(
            spec["dim"], tensorbialg.exact_field(spec["field"]), spec["deg"]
        )
        return {
            "all_hold": rep.all_hold,
            "unit_retraction": rep.unit_retraction_holds,
            "heavy_composition": rep.heavy_composition_holds,
        }
    if kind == "talg_witness":
        rep = tensorbialg.tensor_algebra_witness(
            spec["dim"], tensorbialg.exact_field(spec["field"]), spec["deg"]
        )
        return {
            "values_differ": rep.values_differ,
            "unit_retraction": rep.unit_retraction_holds,
        }
    raise InputError("unknown corpus case type %r" % kind)


def cmd_corpus_run(args):
    root = Path(args.dir)
    if not root.is_dir():
        raise InputError("%s is not a directory" % root)
    cases = sorted(p for p in root.iterdir() if (p / "expect.json").is_file())
    if not cases:
        raise InputError("%s holds no cases (directories with expect.json)" % root)
    results = []
    failures = 0
    for case in cases:
        spec, _ = _load_doc(case / "expect.json")
        try:
            produced = _case_report(case, spec, args.cap)
        except Exception as err:  # a broken case document is a mismatch
            results.append((case.name, False, {"error": str(err)}))
            failures += 1
            continue
        mismatches = {}
        for key, expected in spec.get("expect", {}).items():
            got = produced.get(key, "<missing>")
            if got != expected:
                mismatches[key] = {"expected": expected, "got": got}
        ok = not mismatches
        failures += 0 if ok else 1
        results.append((case.name, ok, mismatches))
    doc = {
        "cases": [
            {"name": name, "ok": ok, "mismatches": mm} for name, ok, mm in results
        ],
        "failures": failures,
        "total": len(results),
    }
    lines = []
    for name, ok, mm in results:
        lines.append("%-28s %s" % (name, "ok" if ok else "MISMATCH"))
        for key, detail in sorted(mm.items()):
            if isinstance(detail, dict):
                lines.append("    %s: expected %r, got %r" % (key, detail["expected"], detail["got"]))
            else:  # the case raised: {"error": message}
                lines.append("    %s: %s" % (key, detail))
    lines.append("%d/%d cases match" % (len(results) - failures, len(results)))
    _emit(doc, lines, args)
    return EXIT_HOLDS if failures == 0 else EXIT_FAILS


# -- entry point --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsep",
        description="Exact separability / heavy separability workbench",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring documents").add_subparsers(
        dest="sub", required=True
    )
    v = ring.add_parser("validate", help="validate a ring document")
    v.add_argument("file")
    v.set_defaults(func=cmd_ring_validate)
    s = ring.add_parser("standard", help="emit a standard ring document")
    s.add_argument("kind")
    s.add_argument("--params", help="JSON parameters for the construction")
    s.set_defaults(func=cmd_ring_standard)

    sep = sub.add_parser("sep", help="separability of ring extensions").add_subparsers(
        dest="sub", required=True
    )
    r = sep.add_parser("report", help="full h-separability verdict")
    r.add_argument("hom")
    r.add_argument("--cap", type=int, default=None)
    r.set_defaults(func=cmd_sep_report)
    e = sep.add_parser("epi", help="ring epimorphism decision")
    e.add_argument("hom")
    e.set_defaults(func=cmd_sep_epi)
    i = sep.add_parser("idempotents", help="list separability idempotents")
    i.add_argument("hom")
    i.add_argument("--h-only", action="store_true")
    i.add_argument("--cap", type=int, default=None)
    i.set_defaults(func=cmd_sep_idempotents)

    cat = sub.add_parser("cat", help="finite category documents").add_subparsers(
        dest="sub", required=True
    )
    c = cat.add_parser("check", help="validate a category/functor/adjunction")
    c.add_argument("file")
    c.set_defaults(func=cmd_cat_check)
    ra = cat.add_parser("rafael", help="natural retractions of an adjunction")
    ra.add_argument("file")
    ra.add_argument("--side", choices=("left", "right"), default="left")
    ra.set_defaults(func=cmd_cat_rafael)

    talg = sub.add_parser("talg", help="truncated tensor bialgebra checks").add_subparsers(
        dest="sub", required=True
    )
    tv = talg.add_parser("verify", help="verify the adjunction identities")
    tv.add_argument("--dim", type=int, required=True)
    tv.add_argument("--deg", type=int, required=True)
    tv.add_argument("--field", required=True, help="q for rationals, or a prime")
    tv.set_defaults(func=cmd_talg_verify)
    tw = talg.add_parser("witness", help="tensor-algebra non-heaviness witness")
    tw.add_argument("--dim", type=int, required=True)
    tw.add_argument("--deg", type=int, required=True)
    tw.add_argument("--field", required=True)
    tw.set_defaults(func=cmd_talg_witness)

    corpus = sub.add_parser("corpus", help="golden corpus").add_subparsers(
        dest="sub", required=True
    )
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
        return args.func(args)
    except (InputError, OSError) as err:
        sys.stderr.write("error: %s\n" % str(err).replace("\n", " "))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
