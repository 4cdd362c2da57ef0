"""Command-line front end.

Reads a fact file, runs one subcommand, and prints the result as text or
byte-stable JSON. Exit codes: 0 success or MATCH, 1 usage or parse error,
2 verification MISMATCH, 3 search-space guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping

from .aaf import (
    EncodingError,
    aaf_extensions,
    encode_adf,
    encode_conjunctive,
    encode_disjunctive,
)
from .af import (
    VALUE_TO_LABEL,
    Framework,
    Labelling,
    canonical,
    classify,
    enumerate_complete,
    enumerate_complete_determined,
)
from .document import InputDocument, parse_document
from .meta import SearchSpaceExceeded, solve_higher, star_theory
from .prop import enumerate_models, is_valid
from .syntax import ParseError, format_formula, parse_prop
from .threeval import ThreeVal
from .translate import (
    CorrespondenceReport,
    DiagramReport,
    Theory,
    domain_diagram,
    instantiated_models,
    instantiation_patterns,
    prop_theory,
    pred_theory,
    und_definition,
    und_free_theories,
    verify_domain_diagram,
    verify_pred_theory,
    verify_prop_theory,
    verify_und_free,
)


class _UsageError(Exception):
    """Bad flags or a command that does not fit the document."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _profile(v: ThreeVal) -> str:
    letters = {False: "f", True: "t"}
    return f"({letters[v.here]},{letters[v.there]})"


def _labelling_dict(lab: Labelling) -> dict[str, str]:
    return {x: lab[x].value for x in sorted(lab)}


def _assignment_dict(h: Mapping[str, ThreeVal]) -> dict[str, str]:
    return {x: _profile(h[x]) for x in sorted(h)}


def _theory_dict(t: Theory) -> dict[str, Any]:
    return {
        "tag": t.tag,
        "clauses": [
            {"name": name, "formula": format_formula(g)} for name, g in t.clauses
        ],
    }


def _corr_dict(r: CorrespondenceReport) -> dict[str, Any]:
    return {
        "subject": r.subject,
        "models": r.model_count,
        "labellings": r.labelling_count,
        "matched": r.matched,
        "extra_models": [dict(pairs) for pairs in r.extra_models],
        "extra_labellings": [dict(pairs) for pairs in r.extra_labellings],
        "ok": r.ok,
    }


def _diagram_dict(r: DiagramReport) -> dict[str, Any]:
    def row(entry: tuple) -> dict[str, Any]:
        relation, pairs = entry
        return {
            "relation": [list(p) for p in relation],
            "labelling": dict(pairs),
        }

    return {
        "subject": r.subject,
        "interpretations": r.interp_count,
        "expected": r.expected_count,
        "matched": r.matched,
        "extra_found": [row(e) for e in r.extra_found],
        "extra_expected": [row(e) for e in r.extra_expected],
        "ok": r.ok,
    }


def _load(path: str) -> InputDocument:
    return parse_document(Path(path).read_text(encoding="utf-8"))


def _cmd_extensions(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    doc = _load(ns.file)
    result: dict[str, Any] = {
        "command": "extensions",
        "species": doc.species,
        "semantics": ns.semantics,
    }
    fw = doc.to_framework()
    if doc.insts:
        if ns.semantics != "complete":
            raise _UsageError(
                "instantiated documents support complete semantics only"
            )
        patterns = instantiation_patterns(fw, doc.to_substitution())
        result["instantiated"] = True
        chosen = patterns
    else:
        labs = enumerate_complete(fw)
        if ns.semantics == "complete":
            chosen = labs
        else:
            split = classify(labs)
            chosen = {
                "stable": list(split.stable),
                "grounded": [split.grounded],
                "preferred": list(split.preferred),
            }[ns.semantics]
    result["count"] = len(chosen)
    result["extensions"] = [_labelling_dict(lab) for lab in chosen]
    return result, 0


def _cmd_translate(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    doc = _load(ns.file)
    result: dict[str, Any] = {
        "command": "translate",
        "species": doc.species,
        "mode": ns.mode,
    }
    if ns.mode == "higher":
        result["theories"] = [_theory_dict(star_theory(doc.to_higher()))]
    elif ns.mode == "prop":
        result["theories"] = [_theory_dict(prop_theory(doc.to_framework()))]
    elif ns.mode == "und-free":
        fw = doc.to_framework()
        stable, free = und_free_theories(fw)
        result["theories"] = [_theory_dict(stable), _theory_dict(free)]
        result["marker_definition"] = format_formula(und_definition(fw))
    elif ns.mode == "pred":
        doc.to_framework()
        result["theories"] = [_theory_dict(pred_theory())]
    else:
        result["formula"] = format_formula(domain_diagram(doc.to_framework()))
    return result, 0


def _cmd_models(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    doc = _load(ns.file)
    fw = doc.to_framework()
    result: dict[str, Any] = {"command": "models", "species": doc.species}
    if doc.insts:
        subst = doc.to_substitution()
        models = instantiated_models(fw, subst)
        result["instantiated"] = True
        result["patterns"] = [
            _labelling_dict(lab) for lab in instantiation_patterns(fw, subst)
        ]
    else:
        models = enumerate_models(prop_theory(fw).formulas(), fw.arguments)
    result["count"] = len(models)
    result["models"] = [_assignment_dict(h) for h in models]
    return result, 0


def _cmd_verify(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    doc = _load(ns.file)
    fw = doc.to_framework()
    if doc.insts:
        raise _UsageError("verify does not apply to documents with inst facts")
    result: dict[str, Any] = {
        "command": "verify",
        "species": doc.species,
        "claim": ns.claim,
    }
    if ns.claim == "prop":
        report = verify_prop_theory(fw)
        result["report"] = _corr_dict(report)
    elif ns.claim == "und-free":
        report = verify_und_free(fw)
        result["report"] = {
            "stable": _corr_dict(report.stable),
            "non_stable": _corr_dict(report.non_stable),
            "union_ok": report.union_ok,
        }
    elif ns.claim == "pred":
        report = verify_pred_theory(fw)
        result["report"] = _corr_dict(report)
    else:
        report = verify_domain_diagram(fw)
        result["report"] = _diagram_dict(report)
    result["verdict"] = "MATCH" if report.ok else "MISMATCH"
    return result, 0 if report.ok else 2


def _cmd_solve_higher(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    doc = _load(ns.file)
    hn = doc.to_higher()
    models = solve_higher(hn, max_unknowns=ns.max_unknowns)
    pairs = [(u, x) for u in hn.nodes for x in hn.nodes]
    rows = []
    for m in models:
        statuses = {f"r({u},{x})": _profile(m.interp.r_val[(u, x)]) for u, x in pairs}
        statuses.update(
            (w.name, _profile(m.status(w.name))) for w in hn.wffs
        )
        rows.append(
            {
                "nodes": {
                    n: VALUE_TO_LABEL[m.in_value(n)].value for n in hn.nodes
                },
                "statuses": statuses,
            }
        )
    return {
        "command": "solve-higher",
        "species": doc.species,
        "count": len(rows),
        "models": rows,
    }, 0


def _cmd_aaf(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    doc = _load(ns.file)
    rows = [
        {
            "relation": [list(p) for p in relation],
            "count": len(labs),
            "extensions": [_labelling_dict(lab) for lab in labs],
        }
        for relation, labs in aaf_extensions(doc.to_aaf())
    ]
    return {
        "command": "aaf",
        "species": doc.species,
        "count": len(rows),
        "relations": rows,
    }, 0


def _project(fw: Framework, base: frozenset[str]) -> list[dict[str, str]]:
    seen = set()
    out = []
    for lab in enumerate_complete_determined(fw, sorted(base)):
        shadow = {x: lab[x] for x in base}
        key = canonical(shadow)
        if key not in seen:
            seen.add(key)
            out.append(_labelling_dict(shadow))
    return out


def _cmd_encode(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    doc = _load(ns.file)
    source = ns.source or doc.species
    if source not in ("conjunctive", "disjunctive", "adf"):
        raise _UsageError(f"cannot encode a {doc.species} document")
    if source != doc.species:
        raise _UsageError(
            f"--from {source} does not match this {doc.species} document"
        )
    result: dict[str, Any] = {
        "command": "encode",
        "species": doc.species,
        "from": source,
    }
    if source == "disjunctive":
        if ns.project:
            raise _UsageError("--project applies to conjunctive and adf encodings")
        frame = encode_disjunctive(doc.to_disjunctive())
        result["arguments"] = list(frame.s0)
        result["psi"] = format_formula(frame.psi)
        return result, 0
    if source == "conjunctive":
        fw, base = encode_conjunctive(doc.to_conjunctive())
    else:
        fw, base = encode_adf(doc.to_adf())
    result["arguments"] = list(fw.arguments)
    result["attacks"] = [list(p) for p in sorted(fw.attacks)]
    result["projection"] = sorted(base)
    if ns.project:
        result["projected_extensions"] = _project(fw, base)
    return result, 0


def _cmd_valid(ns: argparse.Namespace) -> tuple[dict[str, Any], int]:
    f = parse_prop(ns.formula)
    ok, counter = is_valid(f)
    return {
        "command": "valid",
        "formula": format_formula(f),
        "verdict": "VALID" if ok else "INVALID",
        "countermodel": None if counter is None else _assignment_dict(counter),
    }, 0


def _pairs_line(d: Mapping[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(d.items()))


def _theory_lines(t: dict[str, Any]) -> list[str]:
    lines = [f"theory {t['tag']}:"]
    lines.extend(f"  {c['name']}: {c['formula']}" for c in t["clauses"])
    return lines


def _corr_lines(label: str, r: dict[str, Any]) -> list[str]:
    lines = [
        f"{label}subject: {r['subject']}",
        f"{label}models: {r['models']}  labellings: {r['labellings']}"
        f"  matched: {r['matched']}",
    ]
    lines.extend(f"{label}extra model: {_pairs_line(d)}" for d in r["extra_models"])
    lines.extend(
        f"{label}extra labelling: {_pairs_line(d)}" for d in r["extra_labellings"]
    )
    return lines


def _relation_text(pairs: list[list[str]]) -> str:
    return "{" + ", ".join(f"{u}>{x}" for u, x in pairs) + "}"


def _render_text(result: dict[str, Any]) -> list[str]:
    command = result["command"]
    lines: list[str] = []
    if command == "extensions":
        lines.append(
            f"{result['count']} {result['semantics']} "
            + ("pattern(s)" if result.get("instantiated") else "labelling(s)")
        )
        lines.extend("  " + _pairs_line(d) for d in result["extensions"])
    elif command == "translate":
        lines.append(f"mode: {result['mode']}")
        for t in result.get("theories", ()):
            lines.extend(_theory_lines(t))
        if "marker_definition" in result:
            lines.append(f"marker definition: {result['marker_definition']}")
        if "formula" in result:
            lines.append(f"formula: {result['formula']}")
    elif command == "models":
        lines.append(f"{result['count']} model(s)")
        lines.extend("  " + _pairs_line(d) for d in result["models"])
        if "patterns" in result:
            lines.append(f"{len(result['patterns'])} pattern(s)")
            lines.extend("  " + _pairs_line(d) for d in result["patterns"])
    elif command == "verify":
        lines.append(f"claim: {result['claim']}")
        report = result["report"]
        if result["claim"] == "und-free":
            lines.extend(_corr_lines("stable ", report["stable"]))
            lines.extend(_corr_lines("undecided ", report["non_stable"]))
            lines.append(f"union ok: {report['union_ok']}")
        elif result["claim"] == "diagram":
            lines.append(f"subject: {report['subject']}")
            lines.append(
                f"interpretations: {report['interpretations']}  "
                f"expected: {report['expected']}  matched: {report['matched']}"
            )
            for key in ("extra_found", "extra_expected"):
                for row in report[key]:
                    lines.append(
                        f"{key.replace('_', ' ')}: "
                        f"{_relation_text(row['relation'])} "
                        f"{_pairs_line(row['labelling'])}"
                    )
        else:
            lines.extend(_corr_lines("", report))
        lines.append(f"verdict: {result['verdict']}")
    elif command == "solve-higher":
        lines.append(f"{result['count']} generalized model(s)")
        for row in result["models"]:
            lines.append("  nodes: " + _pairs_line(row["nodes"]))
            lines.append("  statuses: " + _pairs_line(row["statuses"]))
    elif command == "aaf":
        lines.append(f"{result['count']} admissible relation(s)")
        for row in result["relations"]:
            lines.append(f"relation {_relation_text(row['relation'])}:")
            lines.extend("  " + _pairs_line(d) for d in row["extensions"])
    elif command == "encode":
        lines.append(f"from: {result['from']}")
        lines.append("arguments: " + " ".join(result["arguments"]))
        if "psi" in result:
            lines.append(f"psi: {result['psi']}")
        if "attacks" in result:
            lines.extend(f"  {u} > {x}" for u, x in result["attacks"])
            lines.append("projection: " + " ".join(result["projection"]))
        if "projected_extensions" in result:
            lines.append(f"{len(result['projected_extensions'])} projected extension(s)")
            lines.extend(
                "  " + _pairs_line(d) for d in result["projected_extensions"]
            )
    else:
        lines.append(f"formula: {result['formula']}")
        lines.append(f"verdict: {result['verdict']}")
        if result["countermodel"] is not None:
            lines.append("countermodel: " + _pairs_line(result["countermodel"]))
    return lines


def _build_parser() -> _Parser:
    parser = _Parser(prog="g3arg", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extensions", parents=[common])
    p.add_argument("file")
    p.add_argument(
        "--semantics",
        choices=("complete", "stable", "grounded", "preferred"),
        default="complete",
    )
    p.set_defaults(handler=_cmd_extensions)

    p = sub.add_parser("translate", parents=[common])
    p.add_argument("file")
    p.add_argument(
        "--mode",
        choices=("prop", "und-free", "pred", "diagram", "higher"),
        required=True,
    )
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("models", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_models)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("file")
    p.add_argument(
        "--claim", choices=("prop", "und-free", "pred", "diagram"), required=True
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve-higher", parents=[common])
    p.add_argument("file")
    p.add_argument("--max-unknowns", type=int, default=14)
    p.set_defaults(handler=_cmd_solve_higher)

    p = sub.add_parser("aaf", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_aaf)

    p = sub.add_parser("encode", parents=[common])
    p.add_argument("file")
    p.add_argument(
        "--from",
        dest="source",
        choices=("conjunctive", "disjunctive", "adf"),
        default=None,
    )
    p.add_argument("--project", action="store_true")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("valid", parents=[common])
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_valid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        result, code = ns.handler(ns)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ParseError, EncodingError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SearchSpaceExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    if ns.format == "json":
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(result)))
    return code


if __name__ == "__main__":
    sys.exit(main())
