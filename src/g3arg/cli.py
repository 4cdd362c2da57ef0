"""Command-line front end.

Reads a fact file, runs one subcommand, and prints the result as text or
byte-stable JSON. Exit codes: 0 success or MATCH, 1 usage or parse error,
2 verification MISMATCH, 3 search-space guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from argparse import Namespace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .aaf import (
    EncodingError,
    aaf_extensions,
    encode_adf,
    encode_conjunctive,
    encode_disjunctive,
)
from .af import (
    VALUE_TO_LABEL,
    Labelling,
    classify,
    distinct_projections,
    enumerate_complete,
    enumerate_complete_determined,
)
from .document import InputDocument, parse_document
from .meta import MAX_UNKNOWNS, solve_higher, star_texts
from .prop import SearchSpaceExceeded, is_valid, select_assignments
from .syntax import MarkerText, ParseError, format_formula, parse_prop
from .threeval import ThreeVal
from .translate import (
    CorrespondenceReport,
    DiagramReport,
    Theory,
    UndFreeReport,
    assignment_to_labelling,
    clause_parts,
    clause_texts,
    domain_diagram,
    instantiated_models,
    instantiation_patterns,
    pred_theory,
    und_definition,
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
    return {x: label.value for x, label in lab.items()}


def _assignment_dict(h: Mapping[str, ThreeVal]) -> dict[str, str]:
    return {x: _profile(v) for x, v in h.items()}


def _theory_dict(tag: str, texts: Iterable[tuple[str, str]]) -> dict[str, Any]:
    return {
        "tag": tag,
        "clauses": [{"name": name, "formula": text} for name, text in texts],
    }


def _formatted(t: Theory) -> dict[str, Any]:
    return _theory_dict(t.tag, ((name, format_formula(g)) for name, g in t.clauses))


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


def _und_free_dict(r: UndFreeReport) -> dict[str, Any]:
    return {
        "stable": _corr_dict(r.stable),
        "non_stable": _corr_dict(r.non_stable),
        "union_ok": r.union_ok,
    }


def _diagram_dict(r: DiagramReport) -> dict[str, Any]:
    def row(relation: tuple, pairs: tuple) -> dict[str, Any]:
        return {"relation": [list(p) for p in relation], "labelling": dict(pairs)}

    return {
        "subject": r.subject,
        "interpretations": r.interp_count,
        "expected": r.expected_count,
        "matched": r.matched,
        "extra_found": [row(*e) for e in r.extra_found],
        "extra_expected": [row(*e) for e in r.extra_expected],
        "ok": r.ok,
    }


def _cmd_extensions(ns: Namespace, doc: InputDocument, result: dict[str, Any]) -> int:
    result["semantics"] = ns.semantics
    fw = doc.to_framework()
    if doc.insts:
        if ns.semantics != "complete":
            raise _UsageError(
                "instantiated documents support complete semantics only"
            )
        chosen = instantiation_patterns(fw, doc.to_substitution())
        result["instantiated"] = True
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
    return 0


def _cmd_translate(ns: Namespace, doc: InputDocument, result: dict[str, Any]) -> int:
    result["mode"] = ns.mode
    if ns.mode == "higher":
        result["theories"] = [_theory_dict("higher", star_texts(doc.to_higher()))]
    elif ns.mode == "prop":
        result["theories"] = [_theory_dict("prop", clause_texts(doc.to_framework()))]
    elif ns.mode == "und-free":
        # und_free_theories, rendered without building either: the clause
        # texts with each #n printed as its definition, rendered once
        fw = doc.to_framework()
        marker = MarkerText.of(und_definition(fw))
        result["theories"] = [
            _theory_dict("stable", clause_texts(fw, stable=True)),
            _theory_dict("und-free", clause_texts(fw, und=marker)),
        ]
        result["marker_definition"] = marker.text
    elif ns.mode == "pred":
        doc.to_framework()
        result["theories"] = [_formatted(pred_theory())]
    else:
        result["formula"] = format_formula(domain_diagram(doc.to_framework()))
    return 0


def _cmd_models(ns: Namespace, doc: InputDocument, result: dict[str, Any]) -> int:
    fw = doc.to_framework()
    if doc.insts:
        models = instantiated_models(fw, doc.to_substitution())
        result["instantiated"] = True
        labs = map(assignment_to_labelling, models)
        result["patterns"] = [
            _labelling_dict(lab) for lab in distinct_projections(labs, fw.arguments)
        ]
    else:
        models = list(select_assignments(fw.arguments, clause_parts(fw)))
    result["count"] = len(models)
    result["models"] = [_assignment_dict(h) for h in models]
    return 0


def _cmd_verify(ns: Namespace, doc: InputDocument, result: dict[str, Any]) -> int:
    fw = doc.to_framework()
    if doc.insts:
        raise _UsageError("verify does not apply to documents with inst facts")
    verifier, as_dict, _ = _CLAIMS[ns.claim]
    report = globals()[verifier](fw)
    result["claim"] = ns.claim
    result["report"] = as_dict(report)
    result["verdict"] = "MATCH" if report.ok else "MISMATCH"
    return 0 if report.ok else 2


def _cmd_solve_higher(ns: Namespace, doc: InputDocument, result: dict[str, Any]) -> int:
    hn = doc.to_higher()
    models = solve_higher(hn, max_unknowns=ns.max_unknowns)
    # an r(u,x) unit's status is its pair's, written under the same key
    pairs = {f"r({u},{x})": (u, x) for u in hn.nodes for x in hn.nodes}
    rows = []
    for m in models:
        statuses = {key: _profile(m.interp.r_val[p]) for key, p in pairs.items()}
        statuses.update((name, _profile(v)) for name, v in m.statuses if name not in pairs)
        rows.append(
            {
                "nodes": {
                    n: VALUE_TO_LABEL[m.in_value(n)].value for n in hn.nodes
                },
                "statuses": statuses,
            }
        )
    result["count"] = len(rows)
    result["models"] = rows
    return 0


def _cmd_aaf(ns: Namespace, doc: InputDocument, result: dict[str, Any]) -> int:
    rows = [
        {
            "relation": relation,  # JSON renders pair tuples as lists
            "count": len(labs),
            "extensions": [_labelling_dict(lab) for lab in labs],
        }
        for relation, labs in aaf_extensions(doc.to_aaf())
    ]
    result["count"] = len(rows)
    result["relations"] = rows
    return 0


def _cmd_encode(ns: Namespace, doc: InputDocument, result: dict[str, Any]) -> int:
    source = ns.source or doc.species
    if source not in ("conjunctive", "disjunctive", "adf"):
        article = "an" if doc.species[0] in "aeiou" else "a"
        raise _UsageError(f"cannot encode {article} {doc.species} document")
    if source != doc.species:
        raise _UsageError(
            f"--from {source} does not match this {doc.species} document"
        )
    result["from"] = source
    if source == "disjunctive":
        if ns.project:
            raise _UsageError("--project applies to conjunctive and adf encodings")
        frame = encode_disjunctive(doc.to_disjunctive())
        result["arguments"] = list(frame.s0)
        result["psi"] = format_formula(frame.psi)
        return 0
    if source == "conjunctive":
        fw, base = encode_conjunctive(doc.to_conjunctive())
    else:
        fw, base = encode_adf(doc.to_adf())
    result["arguments"] = list(fw.arguments)
    result["attacks"] = [list(p) for p in sorted(fw.attacks)]
    result["projection"] = sorted(base)
    if ns.project:
        labs = enumerate_complete_determined(fw, sorted(base))
        result["projected_extensions"] = [
            _labelling_dict(lab) for lab in distinct_projections(labs, base)
        ]
    return 0


def _cmd_valid(ns: Namespace, doc: None, result: dict[str, Any]) -> int:
    f = parse_prop(ns.formula)
    ok, counter = is_valid(f)
    result["formula"] = format_formula(f)
    result["verdict"] = "VALID" if ok else "INVALID"
    result["countermodel"] = None if counter is None else _assignment_dict(counter)
    return 0


def _pairs_line(d: Mapping[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(d.items()))


def _theory_lines(t: dict[str, Any]) -> list[str]:
    lines = [f"theory {t['tag']}:"]
    lines.extend(f"  {c['name']}: {c['formula']}" for c in t["clauses"])
    return lines


def _corr_lines(r: dict[str, Any], label: str = "") -> list[str]:
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


def _relation_text(pairs: Sequence[Sequence[str]]) -> str:
    return "{" + ", ".join(f"{u}>{x}" for u, x in pairs) + "}"


def _und_free_lines(r: dict[str, Any]) -> list[str]:
    lines = _corr_lines(r["stable"], "stable ") + _corr_lines(r["non_stable"], "undecided ")
    return lines + [f"union ok: {r['union_ok']}"]


def _diagram_lines(r: dict[str, Any]) -> list[str]:
    lines = [
        f"subject: {r['subject']}",
        f"interpretations: {r['interpretations']}  "
        f"expected: {r['expected']}  matched: {r['matched']}",
    ]
    for key in ("extra_found", "extra_expected"):
        lines.extend(
            f"{key.replace('_', ' ')}: {_relation_text(row['relation'])} "
            f"{_pairs_line(row['labelling'])}"
            for row in r[key]
        )
    return lines


# One row per --claim: its verifier's name, looked up when verify runs (so a wrapper
# set on this module is called), its report as a JSON dict, and that dict's text lines.
_CLAIMS = {
    "prop": ("verify_prop_theory", _corr_dict, _corr_lines),
    "und-free": ("verify_und_free", _und_free_dict, _und_free_lines),
    "pred": ("verify_pred_theory", _corr_dict, _corr_lines),
    "diagram": ("verify_domain_diagram", _diagram_dict, _diagram_lines),
}


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
        lines.extend(_CLAIMS[result["claim"]][2](result["report"]))
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


_quote = json.encoder.encode_basestring_ascii  # type: ignore[attr-defined]
_is_str = str.__instancecheck__  # isinstance(x, str), mapped without a Python frame


def _json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With an indent, ``json`` runs its pure-Python encoder. This builds the
    same text from the C string quoter and one final join, quoting a list
    of strings, or a dict of them, in a single join. It takes str, int,
    bool, None, lists, tuples and str-keyed dicts, and raises ``TypeError``
    for anything else. Nesting runs on an explicit stack.
    """
    out: list[str] = []
    # the open containers, innermost last: the lead text and value of each
    # child still to render, the line break and indent of the children,
    # and the container's closing text
    stack = [(iter((("", value),)), "\n", "")]
    while stack:
        children, nl, end = stack[-1]
        inner = nl + "  "
        sep = "," + inner
        for lead, v in children:
            out.append(lead)
            if isinstance(v, str):
                out.append(_quote(v))
            elif v is None or v is True or v is False:
                out.append("null" if v is None else "true" if v else "false")
            elif isinstance(v, int):
                out.append(int.__repr__(v))
            elif isinstance(v, dict):
                keys = sorted(v)
                if not all(map(_is_str, keys)):
                    raise TypeError("JSON object keys must be str")
                if not keys:
                    out.append("{}")
                elif all(map(_is_str, v.values())):
                    pairs = [f"{_quote(k)}: {_quote(v[k])}" for k in keys]
                    out.append("{" + inner + sep.join(pairs) + nl + "}")
                else:
                    leads = [f"{sep}{_quote(k)}: " for k in keys]
                    leads[0] = "{" + leads[0][1:]
                    stack.append((zip(leads, map(v.__getitem__, keys)), inner, nl + "}"))
                    break
            elif isinstance(v, (list, tuple)):
                if not v:
                    out.append("[]")
                elif all(map(_is_str, v)):
                    out.append("[" + inner + sep.join(map(_quote, v)) + nl + "]")
                else:
                    leads = [sep] * len(v)
                    leads[0] = "[" + inner
                    stack.append((zip(leads, v), inner, nl + "]"))
                    break
            else:
                raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        else:
            out.append(end)
            stack.pop()
    return "".join(out)


def _non_negative(text: str) -> int:
    """An argparse type: an int, refused below 0 as a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# Built once per process: parse_args leaves the parser as it found it, and
# _Parser.error raises instead of exiting, so each call parses like the first.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="g3arg", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering",
    )
    document = _Parser(add_help=False)
    document.add_argument("file")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extensions", parents=[common, document])
    p.add_argument(
        "--semantics",
        choices=("complete", "stable", "grounded", "preferred"),
        default="complete",
    )
    p.set_defaults(handler=_cmd_extensions)

    p = sub.add_parser("translate", parents=[common, document])
    p.add_argument(
        "--mode",
        choices=("prop", "und-free", "pred", "diagram", "higher"),
        required=True,
    )
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("models", parents=[common, document])
    p.set_defaults(handler=_cmd_models)

    p = sub.add_parser("verify", parents=[common, document])
    p.add_argument("--claim", choices=_CLAIMS, required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve-higher", parents=[common, document])
    p.add_argument("--max-unknowns", type=_non_negative, default=MAX_UNKNOWNS)
    p.set_defaults(handler=_cmd_solve_higher)

    p = sub.add_parser("aaf", parents=[common, document])
    p.set_defaults(handler=_cmd_aaf)

    p = sub.add_parser("encode", parents=[common, document])
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
        # each handler adds its keys to this result and returns the exit code
        result: dict[str, Any] = {"command": ns.command}
        doc = None
        if "file" in ns:
            doc = parse_document(Path(ns.file).read_text(encoding="utf-8-sig"))
            result["species"] = doc.species
        code = ns.handler(ns, doc, result)
        if ns.format == "json":
            print(_json(result), flush=True)
        else:
            print("\n".join(_render_text(result)), flush=True)
    except (_UsageError, ParseError, EncodingError, ValueError, OSError) as e:
        if isinstance(e, BrokenPipeError):
            # stdout was closed: point it at devnull, so that the flush at
            # interpreter exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SearchSpaceExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
