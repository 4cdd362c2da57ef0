"""End-to-end tests for the command line entry point."""

import hashlib
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle
from g3arg import cli, meta, prop, translate
from g3arg.document import parse_document
from g3arg.af import LABEL_ORDER, Framework, Label, check_complete
from g3arg.syntax import format_formula, parse_pred, parse_prop
from g3arg.translate import (
    CorrespondenceReport,
    prop_theory,
    stable_theory,
    und_definition,
    und_free_theories,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, text):
    """Write ``text`` to a file named by its digest, so that two documents in
    one test never share a file."""
    path = tmp_path / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.facts"
    path.write_text(text)
    return str(path)


@pytest.fixture
def cycle_doc(tmp_path):
    return write_doc(tmp_path, "arg(a). arg(b). att(a,b). att(b,a).\n")


@pytest.fixture
def inst_doc(tmp_path):
    return write_doc(
        tmp_path, 'arg(x). arg(y). att(x,y). att(y,x). inst(x, "p | ~p").\n'
    )


@pytest.fixture
def loop_doc(tmp_path):
    return write_doc(tmp_path, 'arg(a). wff(raa, "R(a,a)").\n')


@pytest.fixture
def higher_doc(tmp_path):
    return write_doc(
        tmp_path, "arg(a). arg(b). att(a,b). att(b,a). att(a, r(b,a)).\n"
    )


@pytest.fixture
def aaf_doc(tmp_path):
    return write_doc(
        tmp_path,
        "arg(a). arg(b).\n"
        'psi "(forall X (X = a | X = b)) & a != b'
        ' & (exists X (forall Y (~R(Y,X)))) & ~R(a,a) & ~R(b,b)".\n',
    )


@pytest.fixture
def conj_doc(tmp_path):
    return write_doc(tmp_path, "arg(y1). arg(y2). arg(z). catt([y1,y2], z).\n")


@pytest.fixture
def disj_doc(tmp_path):
    return write_doc(tmp_path, "arg(y1). arg(y2). arg(z). datt(z, [y1,y2]).\n")


def test_extensions_lists_complete_labellings(capsys, cycle_doc):
    code, out, err = run(capsys, "extensions", cycle_doc)
    assert code == 0
    assert err == ""
    assert out == (
        "3 complete labelling(s)\n"
        "  a=in b=out\n"
        "  a=out b=in\n"
        "  a=und b=und\n"
    )


@pytest.mark.parametrize(
    "semantics, expected",
    [
        ("grounded", "1 grounded labelling(s)\n  a=und b=und\n"),
        ("stable", "2 stable labelling(s)\n  a=in b=out\n  a=out b=in\n"),
        ("preferred", "2 preferred labelling(s)\n  a=in b=out\n  a=out b=in\n"),
    ],
)
def test_extensions_other_semantics(capsys, cycle_doc, semantics, expected):
    code, out, _ = run(capsys, "extensions", cycle_doc, "--semantics", semantics)
    assert code == 0
    assert out == expected


def test_extensions_on_instantiated_document_reports_patterns(capsys, inst_doc):
    code, out, _ = run(capsys, "extensions", inst_doc)
    assert code == 0
    assert out == (
        "3 complete pattern(s)\n"
        "  x=out y=in\n"
        "  x=und y=und\n"
        "  x=in y=out\n"
    )


def test_extensions_on_instantiated_document_rejects_stable(capsys, inst_doc):
    code, out, err = run(capsys, "extensions", inst_doc, "--semantics", "stable")
    assert code == 1
    assert out == ""
    assert "complete semantics only" in err


def test_translate_prop_prints_four_clauses_per_argument(capsys, cycle_doc):
    code, out, _ = run(capsys, "translate", cycle_doc, "--mode", "prop")
    assert code == 0
    assert out == (
        "mode: prop\n"
        "theory prop:\n"
        "  a1[a]: a -> #n | ~b\n"
        "  a2[a]: ~b -> #n | a\n"
        "  b1[a]: ~a -> #n | b\n"
        "  b2[a]: b -> ~a | #n\n"
        "  a1[b]: b -> #n | ~a\n"
        "  a2[b]: ~a -> #n | b\n"
        "  b1[b]: ~b -> #n | a\n"
        "  b2[b]: a -> ~b | #n\n"
    )


def test_translate_und_free_prints_both_theories_and_marker(capsys, cycle_doc):
    code, out, _ = run(capsys, "translate", cycle_doc, "--mode", "und-free")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: und-free"
    assert lines[1] == "theory stable:"
    assert lines[2] == "  fix[a]: (a -> ~b) & (~b -> a)"
    assert lines[3] == "  fix[b]: (b -> ~a) & (~a -> b)"
    assert lines[4] == "theory und-free:"
    assert lines[5] == "  a1[a]: a -> (a | ~a) & (b | ~b) | ~b"
    assert lines[-1] == "marker definition: (a | ~a) & (b | ~b)"


ONE_ARGUMENT_UND_FREE = (
    "mode: und-free\n"
    "theory stable:\n"
    "  fix[a]: (a -> true) & (true -> a)\n"
    "theory und-free:\n"
    "  a1[a]: a -> (a | ~a) | true\n"
    "  a2[a]: true -> (a | ~a) | a\n"
    "  b1[a]: ~a -> (a | ~a) | false\n"
    "  b2[a]: false -> ~a | a | ~a\n"
    "marker definition: a | ~a\n"
)


def test_translate_und_free_of_one_argument(capsys, tmp_path):
    """One argument's definition is a disjunction: parenthesized on the left
    of ``|``, bare on its tight right."""
    doc = write_doc(tmp_path, "arg(a).\n")
    assert run(capsys, "translate", doc, "--mode", "und-free") == (
        0, ONE_ARGUMENT_UND_FREE, ""
    )
    code, out, _ = run(capsys, "translate", doc, "--mode", "und-free", "--format", "json")
    assert code == 0
    assert [c["formula"] for c in json.loads(out)["theories"][1]["clauses"]] == [
        "a -> (a | ~a) | true",
        "true -> (a | ~a) | a",
        "~a -> (a | ~a) | false",
        "false -> ~a | a | ~a",
    ]


def test_translate_und_free_rebuilds_no_clause(capsys, tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("the und-free display rebuilt the clause theory")

    for module, name in [
        (prop, "replace_und"), (translate, "replace_und"),
        (translate, "und_free_theories"),
    ]:
        monkeypatch.setattr(module, name, fail)
    doc = write_doc(tmp_path, "arg(a).\n")
    assert run(capsys, "translate", doc, "--mode", "und-free") == (
        0, ONE_ARGUMENT_UND_FREE, ""
    )


@st.composite
def small_frameworks(draw):
    names = "abcdef"[: draw(st.integers(1, 6))]
    pairs = [(u, x) for u in names for x in names]  # self-attacks included
    return Framework.make(names, draw(st.sets(st.sampled_from(pairs))))


def assert_translate_prints_the_rebuilt_theories(capsys, tmp_path, fw):
    """``translate --mode prop|und-free`` prints format_formula of the rebuilt
    clauses, in text and in JSON. Returns the document's path."""
    facts = [f"arg({x})." for x in fw.arguments]
    facts += [f"att({u},{x})." for u, x in sorted(fw.attacks)]
    doc = write_doc(tmp_path, " ".join(facts) + "\n")
    definition = format_formula(und_definition(fw))
    want = {
        "prop": [prop_theory(fw)],
        "und-free": [stable_theory(fw), und_free_theories(fw)[1]],
    }
    for mode, theories in want.items():
        theories = [
            (t.tag, [(name, format_formula(g)) for name, g in t.clauses])
            for t in theories
        ]
        lines = [f"mode: {mode}"]
        for tag, clauses in theories:
            lines += [f"theory {tag}:"] + [f"  {n}: {t}" for n, t in clauses]
        if mode == "und-free":
            lines.append(f"marker definition: {definition}")

        code, out, err = run(capsys, "translate", doc, "--mode", mode)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines

        code, out, err = run(capsys, "translate", doc, "--mode", mode, "--format", "json")
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert [
            (t["tag"], [(c["name"], c["formula"]) for c in t["clauses"]])
            for t in result["theories"]
        ] == theories
        if mode == "und-free":
            assert result["marker_definition"] == definition
    return doc


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_frameworks())
def test_und_free_display_matches_the_rebuilt_theory(capsys, tmp_path, fw):
    """Printing #n as its definition equals printing the replaced clauses,
    and the prop and stable theories equal their rebuilt clauses too."""
    assert_translate_prints_the_rebuilt_theories(capsys, tmp_path, fw)


def test_translate_fills_a_renamed_copy_with_its_own_names(capsys, tmp_path):
    """A renamed copy has the same attacker shapes, so it is printed from the
    first copy's clause texts; digit names show a fill with the wrong ones."""
    rng = random.Random(13)
    names = "abcdef"
    attacks = {(u, x) for u in names for x in names if rng.random() < 0.35}
    attacks.add(("c", "c"))
    digits = dict(zip(names, ["0", "1", "10", "11", "2", "20"]))
    for fw in (
        Framework.make(names, attacks),
        Framework.make(digits.values(), {(digits[u], digits[x]) for u, x in attacks}),
    ):
        assert_translate_prints_the_rebuilt_theories(capsys, tmp_path, fw)


def test_translate_builds_no_clause_theory(capsys, tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("translate built a clause theory")

    fw = Framework.make("abc", [("a", "b"), ("b", "b"), ("c", "b"), ("b", "c")])
    doc = assert_translate_prints_the_rebuilt_theories(capsys, tmp_path, fw)
    calls = [
        ("translate", doc, "--mode", mode, "--format", fmt)
        for mode in ("prop", "und-free") for fmt in ("text", "json")
    ]
    want = [run(capsys, *argv) for argv in calls]
    for module in (cli, translate):
        for name in ("prop_theory", "stable_theory"):
            monkeypatch.setattr(module, name, fail, raising=False)
    translate._shape_texts.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == want


# every kind of unit, body and attack: a bare equality, its negation, a
# disjunction, a quantifier and a negation as bodies; node -> node, node ->
# formula, formula -> formula, formula -> node, self-attacks and r(u,v)
# endpoints
HIGHER_TEMPLATE = (
    "arg({a}). arg({b}). arg({c}).\n"
    'wff({u}, "{a}={b}"). wff({v}, "{a}!={c}"). wff({w}, "R({b},{a}) | In({c})").\n'
    'wff({x}, "forall X (In(X) -> R(X,{a}))"). wff({y}, "~In({b})").\n'
    "att({a},{b}). att({b},{b}). att({a},{u}). att({u},{v}). att({v},{u}).\n"
    "att({w},{c}). att({x},{x}). att({y},{w}). att({u},{w}). att({c},{w}).\n"
    "att({a}, r({c},{b})). att(r({b},{a}), {x}). att({v}, r({c},{b})).\n"
)


def rendered_star_theory(text):
    """``translate --mode higher``'s text and JSON for a document, from the
    rendered clauses of ``star_theory``."""
    clauses = [
        (name, format_formula(g))
        for name, g in meta.star_theory(parse_document(text).to_higher()).clauses
    ]
    lines = ["mode: higher", "theory higher:"] + [f"  {n}: {t}" for n, t in clauses]
    return "\n".join(lines) + "\n", [
        {"name": name, "formula": formula} for name, formula in clauses
    ]


def test_translate_higher_builds_no_star_theory(capsys, tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("translate built a star theory")

    names = dict(a="a", b="b", c="c", u="u", v="v", w="w", x="x", y="y")
    # a rename that keeps the names' order keeps each unit's attackers' order
    renamed = dict(a="a1", b="b0", c="c_", u="u9", v="v", w="w_w", x="x2", y="yy")
    want = [rendered_star_theory(HIGHER_TEMPLATE.format(**n)) for n in (names, renamed)]
    monkeypatch.setattr(meta, "star_theory", fail)
    monkeypatch.setattr(meta, "_star_clauses", fail)
    monkeypatch.setattr(cli, "star_theory", fail, raising=False)
    meta._unit_shape_texts.cache_clear()
    shapes = None
    for fill, (text, clauses) in zip((names, renamed), want):
        doc = write_doc(tmp_path, HIGHER_TEMPLATE.format(**fill))
        assert run(capsys, "translate", doc, "--mode", "higher") == (0, text, "")
        code, out, err = run(capsys, "translate", doc, "--mode", "higher", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["theories"] == [{"tag": "higher", "clauses": clauses}]
        # the renamed copy is filled in from the first copy's shapes
        if shapes is None:
            shapes = meta._unit_shape_texts.cache_info().currsize
        assert meta._unit_shape_texts.cache_info().currsize == shapes


def test_translate_pred_prints_closed_theory(capsys, cycle_doc):
    code, out, _ = run(capsys, "translate", cycle_doc, "--mode", "pred")
    assert code == 0
    assert out == (
        "mode: pred\n"
        "theory pred:\n"
        "  a1: forall X (In(X) -> #n | (forall Y (R(Y,X) -> ~In(Y))))\n"
        "  a2: forall X ((forall Y (R(Y,X) -> ~In(Y))) -> #n | In(X))\n"
        "  b1: forall X (~In(X) -> #n | (exists Y (R(Y,X) & In(Y))))\n"
        "  b2: forall X ((exists Y (R(Y,X) & In(Y))) -> #n | ~In(X))\n"
        "  decided-r: forall X (forall Y (R(X,Y) | ~R(X,Y)))\n"
    )


def test_translate_diagram_prints_single_formula(capsys, cycle_doc):
    code, out, _ = run(capsys, "translate", cycle_doc, "--mode", "diagram")
    assert code == 0
    assert out == (
        "mode: diagram\n"
        "formula: exists X1 (exists X2 (X1!=X2 & R(X1,X2) & R(X2,X1)"
        " & ~R(X1,X1) & ~R(X2,X2) & (forall Y (Y=X1 | Y=X2))))\n"
    )


def test_translate_higher_covers_nodes_and_relation_atom(capsys, higher_doc):
    code, out, _ = run(capsys, "translate", higher_doc, "--mode", "higher")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: higher"
    assert lines[1] == "theory higher:"
    assert "  a1[a]: In(a) -> #n | (~In(a) | ~R(a,a)) & (~In(b) | ~R(b,a))" in lines
    assert "  b2[r(b,a)]: In(a) -> #n | ~R(b,a)" in lines
    # two nodes and one attacked relation atom, four clauses each
    assert len(lines) == 2 + 12


def test_models_lists_world_profiles(capsys, cycle_doc):
    code, out, _ = run(capsys, "models", cycle_doc)
    assert code == 0
    assert out == (
        "3 model(s)\n"
        "  a=(f,f) b=(t,t)\n"
        "  a=(f,t) b=(f,t)\n"
        "  a=(t,t) b=(f,f)\n"
    )


def test_models_on_instantiated_document_appends_patterns(capsys, inst_doc):
    code, out, _ = run(capsys, "models", inst_doc)
    assert code == 0
    assert out == (
        "4 model(s)\n"
        "  p=(f,t) x=(f,f) y=(t,t)\n"
        "  p=(f,t) x=(f,t) y=(f,t)\n"
        "  p=(f,f) x=(t,t) y=(f,f)\n"
        "  p=(t,t) x=(t,t) y=(f,f)\n"
        "3 pattern(s)\n"
        "  x=out y=in\n"
        "  x=und y=und\n"
        "  x=in y=out\n"
    )


def test_models_on_instantiated_document_scans_once(capsys, inst_doc, monkeypatch):
    calls = []
    scanned = translate.instantiated_models

    def counting(*args):
        calls.append(args)
        return scanned(*args)

    # instantiation_patterns reaches the function through translate's globals
    monkeypatch.setattr(cli, "instantiated_models", counting)
    monkeypatch.setattr(translate, "instantiated_models", counting)
    code, out, _ = run(capsys, "models", inst_doc, "--format", "json")
    assert code == 0
    assert len(calls) == 1
    with open(inst_doc) as fh:
        doc = parse_document(fh.read())
    patterns = translate.instantiation_patterns(
        doc.to_framework(), doc.to_substitution()
    )
    assert json.loads(out)["patterns"] == [
        {x: lab[x].value for x in sorted(lab)} for lab in patterns
    ]


def test_verify_prop_matches(capsys, cycle_doc):
    code, out, _ = run(capsys, "verify", cycle_doc, "--claim", "prop")
    assert code == 0
    assert "claim: prop" in out
    assert "subject: a,b|a>b,b>a" in out
    assert "models: 3  labellings: 3  matched: 3" in out
    assert out.rstrip().endswith("verdict: MATCH")


def test_verify_mismatch_exits_two(capsys, cycle_doc, monkeypatch):
    broken = CorrespondenceReport(
        subject="a,b|a>b,b>a",
        model_count=3,
        labelling_count=3,
        matched=2,
        extra_models=((("a", "in"), ("b", "in")),),
        extra_labellings=(),
    )
    monkeypatch.setattr(cli, "verify_prop_theory", lambda f: broken)
    code, out, _ = run(capsys, "verify", cycle_doc, "--claim", "prop")
    assert code == 2
    assert "extra model: a=in b=in" in out
    assert "verdict: MISMATCH" in out


@pytest.mark.parametrize("claim, name", [
    ("prop", "verify_prop_theory"), ("und-free", "verify_und_free"),
    ("pred", "verify_pred_theory"), ("diagram", "verify_domain_diagram"),
])
def test_verify_calls_the_verifier_bound_on_the_module(capsys, cycle_doc, claim, name):
    """A wrapper set on ``cli``'s attribute, as a tracer installs one, is what
    ``verify`` calls."""
    original, calls = getattr(cli, name), []

    def traced(f):
        calls.append(f)
        return original(f)

    with patch.object(cli, name, traced):
        code, out, _ = run(capsys, "verify", cycle_doc, "--claim", claim)
    assert code == 0 and out.endswith("verdict: MATCH\n")
    assert [f.arguments for f in calls] == [("a", "b")]


def _mismatching_report(claim):
    """A stubbed report of ``claim`` with an extra row on each side, its text and its JSON report."""
    if claim == "und-free":
        stable = CorrespondenceReport("a,b|a>b,b>a (stable case)", 3, 2, 2,
                                      ((("a", "in"), ("b", "in")),), ())
        non_stable = CorrespondenceReport("a,b|a>b,b>a (undecided case)", 0, 1, 0,
                                          (), ((("a", "und"), ("b", "und")),))
        text = [
            "stable subject: a,b|a>b,b>a (stable case)",
            "stable models: 3  labellings: 2  matched: 2",
            "stable extra model: a=in b=in",
            "undecided subject: a,b|a>b,b>a (undecided case)",
            "undecided models: 0  labellings: 1  matched: 0",
            "undecided extra labelling: a=und b=und",
            "union ok: False",
        ]
        report = {
            "stable": {"subject": "a,b|a>b,b>a (stable case)", "models": 3, "labellings": 2,
                       "matched": 2, "extra_models": [{"a": "in", "b": "in"}],
                       "extra_labellings": [], "ok": False},
            "non_stable": {"subject": "a,b|a>b,b>a (undecided case)", "models": 0,
                           "labellings": 1, "matched": 0, "extra_models": [],
                           "extra_labellings": [{"a": "und", "b": "und"}], "ok": False},
            "union_ok": False,
        }
        return translate.UndFreeReport(stable, non_stable, False), text, report
    stub = translate.DiagramReport(
        "a,b|a>b,b>a", 5, 5, 4,
        extra_found=(((("a", "b"),), (("a", "in"), ("b", "out"))),),
        extra_expected=(((("a", "b"), ("b", "a")), (("a", "und"), ("b", "und"))),),
    )
    text = [
        "subject: a,b|a>b,b>a",
        "interpretations: 5  expected: 5  matched: 4",
        "extra found: {a>b} a=in b=out",
        "extra expected: {a>b, b>a} a=und b=und",
    ]
    report = {
        "subject": "a,b|a>b,b>a", "interpretations": 5, "expected": 5, "matched": 4,
        "extra_found": [{"relation": [["a", "b"]], "labelling": {"a": "in", "b": "out"}}],
        "extra_expected": [{"relation": [["a", "b"], ["b", "a"]],
                            "labelling": {"a": "und", "b": "und"}}],
        "ok": False,
    }
    return stub, text, report


@pytest.mark.parametrize("claim", ["und-free", "diagram"])
def test_verify_mismatch_renders_every_extra_row(capsys, cycle_doc, monkeypatch, claim):
    stub, text, report = _mismatching_report(claim)
    monkeypatch.setattr(cli, cli._CLAIMS[claim][0], lambda f: stub)
    code, out, _ = run(capsys, "verify", cycle_doc, "--claim", claim)
    assert code == 2
    assert out == "\n".join([f"claim: {claim}", *text, "verdict: MISMATCH"]) + "\n"
    code, out, _ = run(capsys, "verify", cycle_doc, "--claim", claim, "--format", "json")
    assert code == 2
    want = {"command": "verify", "species": "plain", "claim": claim, "report": report,
            "verdict": "MISMATCH"}
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_solve_higher_reports_relation_and_wff_statuses(capsys, loop_doc):
    code, out, _ = run(capsys, "solve-higher", loop_doc)
    assert code == 0
    assert out == (
        "2 generalized model(s)\n"
        "  nodes: a=und\n"
        "  statuses: r(a,a)=(f,t) raa=(f,t)\n"
        "  nodes: a=und\n"
        "  statuses: r(a,a)=(t,t) raa=(t,t)\n"
    )


def test_solve_higher_guard_exits_three(capsys, higher_doc):
    for bound in ("2", "0"):
        code, out, err = run(capsys, "solve-higher", higher_doc, "--max-unknowns", bound)
        assert code == 3
        assert out == ""
        assert err == f"error: 6 three-valued unknowns exceed the bound {bound}\n"


def test_solve_higher_guard_counts_only_scanned_units(capsys, higher_doc):
    # nodes a, b and the four R pairs: the r(b,a) unit stands as its R pair
    unguarded = run(capsys, "solve-higher", higher_doc)
    assert unguarded[0] == 0
    assert run(capsys, "solve-higher", higher_doc, "--max-unknowns", "6") == unguarded


def test_the_unknown_bound_has_one_default():
    ns = cli._build_parser().parse_args(["solve-higher", "doc.facts"])
    assert ns.max_unknowns == meta.MAX_UNKNOWNS
    default = inspect.signature(meta.solve_higher).parameters["max_unknowns"].default
    assert default == meta.MAX_UNKNOWNS


def test_solve_higher_refuses_a_negative_bound_as_usage(capsys, higher_doc):
    code, out, err = run(capsys, "solve-higher", higher_doc, "--max-unknowns", "-1")
    assert code == 1
    assert out == ""
    assert err == (
        "error: argument --max-unknowns: expected a non-negative integer, got '-1'\n"
    )


def test_aaf_lists_admissible_relations(capsys, aaf_doc):
    code, out, _ = run(capsys, "aaf", aaf_doc)
    assert code == 0
    assert out == (
        "3 admissible relation(s)\n"
        "relation {}:\n"
        "  a=in b=in\n"
        "relation {a>b}:\n"
        "  a=in b=out\n"
        "relation {b>a}:\n"
        "  a=out b=in\n"
    )


def test_encode_conjunctive_with_projection(capsys, conj_doc):
    code, out, _ = run(capsys, "encode", conj_doc, "--project")
    assert code == 0
    assert out == (
        "from: conjunctive\n"
        "arguments: aux_and__y1_y2__z aux_not__y1__y1_y2__z"
        " aux_not__y2__y1_y2__z y1 y2 z\n"
        "  aux_and__y1_y2__z > z\n"
        "  aux_not__y1__y1_y2__z > aux_and__y1_y2__z\n"
        "  aux_not__y2__y1_y2__z > aux_and__y1_y2__z\n"
        "  y1 > aux_not__y1__y1_y2__z\n"
        "  y2 > aux_not__y2__y1_y2__z\n"
        "projection: y1 y2 z\n"
        "1 projected extension(s)\n"
        "  y1=in y2=in z=out\n"
    )


def test_encode_disjunctive_emits_constraint(capsys, disj_doc):
    code, out, _ = run(capsys, "encode", disj_doc)
    assert code == 0
    assert out == (
        "from: disjunctive\n"
        "arguments: y1 y2 z\n"
        "psi: (R(z,y1) | R(z,y2)) & ~R(y1,y1) & ~R(y1,y2) & ~R(y1,z)"
        " & ~R(y2,y1) & ~R(y2,y2) & ~R(y2,z) & ~R(z,z)\n"
    )


def test_encode_from_mismatch_is_usage_error(capsys, conj_doc):
    code, out, err = run(capsys, "encode", conj_doc, "--from", "adf")
    assert code == 1
    assert out == ""
    assert "--from adf does not match this conjunctive document" in err


def test_encode_plain_document_is_usage_error(capsys, cycle_doc, tmp_path):
    code, _, err = run(capsys, "encode", cycle_doc)
    assert code == 1
    assert "cannot encode a plain document" in err
    # a species that starts with a vowel takes "an"
    aaf_doc = tmp_path / "aaf.facts"
    aaf_doc.write_text('arg(a). psi "~R(a,a)".\n')
    code, _, err = run(capsys, "encode", str(aaf_doc))
    assert code == 1
    assert "cannot encode an aaf document" in err
    code, _, err = run(capsys, "aaf", cycle_doc)
    assert code == 1
    assert "this operation needs an aaf document, got plain" in err
    with pytest.raises(ValueError, match="needs an adf document, got plain"):
        parse_document("arg(a).").to_adf()


def test_two_documents_in_one_test_stay_apart(capsys, cycle_doc, aaf_doc):
    assert cycle_doc != aaf_doc
    code, out, _ = run(capsys, "extensions", cycle_doc, "--format", "json")
    assert (code, json.loads(out)["species"]) == (0, "plain")
    code, out, _ = run(capsys, "aaf", aaf_doc, "--format", "json")
    assert (code, json.loads(out)["species"]) == (0, "aaf")
    code, _, err = run(capsys, "encode", cycle_doc)
    assert (code, err) == (1, "error: cannot encode a plain document\n")


@pytest.mark.parametrize("command", ["models", "extensions"])
def test_inst_replacement_naming_another_argument_is_refused(capsys, tmp_path, command):
    doc = write_doc(tmp_path, 'arg(a). arg(b). att(a,b). inst(a, "~b").\n')
    assert run(capsys, command, doc) == (
        1, "", "error: replacement for a reuses argument names ['b']\n"
    )


def test_encode_disjunctive_rejects_projection(capsys, disj_doc):
    code, _, err = run(capsys, "encode", disj_doc, "--project")
    assert code == 1
    assert "--project applies to conjunctive and adf encodings" in err


def test_valid_accepts_and_rejects(capsys):
    code, out, _ = run(capsys, "valid", "(x -> y) | (y -> x)")
    assert code == 0
    assert out == "formula: (x -> y) | (y -> x)\nverdict: VALID\n"
    code, out, _ = run(capsys, "valid", "x | ~x")
    assert code == 0
    assert out == (
        "formula: x | ~x\nverdict: INVALID\ncountermodel: x=(f,t)\n"
    )


def test_valid_countermodel_names_the_atoms_of_a_dead_operand(capsys):
    # p sits under a conjunction that folds to false while compiling; the
    # scan still ranges over it
    code, out, err = run(capsys, "valid", "q | (p & false)")
    assert (code, err) == (0, "")
    assert out == (
        "formula: q | p & false\nverdict: INVALID\ncountermodel: p=(f,f) q=(f,f)\n"
    )


def test_encode_keeps_the_parent_of_a_false_condition(capsys, tmp_path):
    doc = write_doc(tmp_path, 'arg(a). arg(b).\nacc(a, "b & false").\nacc(b, "true").\n')
    code, out, err = run(capsys, "encode", doc)
    assert (code, err) == (0, "")
    assert out == (
        "from: adf\narguments: a aux_off__a b\n  aux_off__a > a\nprojection: a b\n"
    )


def test_json_extensions_payload(capsys, cycle_doc):
    code, out, _ = run(capsys, "extensions", cycle_doc, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "extensions",
        "count": 3,
        "extensions": [
            {"a": "in", "b": "out"},
            {"a": "out", "b": "in"},
            {"a": "und", "b": "und"},
        ],
        "semantics": "complete",
        "species": "plain",
    }


def test_json_valid_countermodel(capsys):
    code, out, _ = run(capsys, "valid", "x | ~x", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "valid",
        "countermodel": {"x": "(f,t)"},
        "formula": "x | ~x",
        "verdict": "INVALID",
    }


def test_json_solve_higher_status_keys(capsys, loop_doc):
    code, out, _ = run(capsys, "solve-higher", loop_doc, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    for model in payload["models"]:
        assert sorted(model["statuses"]) == ["r(a,a)", "raa"]
        assert model["nodes"] == {"a": "und"}


def test_main_builds_its_parser_once(capsys, cycle_doc, monkeypatch):
    run(capsys, "extensions", cycle_doc)
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv in (["extensions", cycle_doc], ["valid", "x | ~x"], ["models", "--bogus"]):
        run(capsys, *argv)
    assert built == []


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (["extensions", "--semantics", "grounded"], "cycle_doc"),
        (["translate", "--mode", "prop"], "cycle_doc"),
        (["models"], "cycle_doc"),
        (["verify", "--claim", "pred"], "cycle_doc"),
        (["solve-higher"], "loop_doc"),
        (["aaf"], "aaf_doc"),
        (["encode", "--project"], "conj_doc"),
        (["valid", "x | ~x"], None),
    ],
)
def test_each_call_parses_its_document_once(capsys, request, monkeypatch, argv, fixture):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_document(text)

    monkeypatch.setattr(cli, "parse_document", counting)
    doc = [] if fixture is None else [request.getfixturevalue(fixture)]
    code, _, err = run(capsys, *argv[:1], *doc, *argv[1:])
    assert (code, err) == (0, "")
    assert len(parsed) == len(doc)


@pytest.mark.parametrize(
    "before, argv, code",
    [
        (["extensions", "{plain}", "--semantics", "stable"],
         ["extensions", "{plain}", "--bogus"], 1),
        (["translate", "{plain}", "--mode", "prop"],
         ["extensions", "{plain}", "--semantics", "bogus"], 1),
        (["extensions", "{plain}"], ["extensions", "{plain}", "--format", "json"], 0),
        (["extensions", "{plain}", "--format", "json"], ["extensions", "{plain}"], 0),
        (["valid", "x"], ["solve-higher", "{higher}", "--max-unknowns", "5"], 3),
        (["solve-higher", "{higher}", "--max-unknowns", "5"],
         ["solve-higher", "{higher}"], 0),
    ],
)
def test_a_reused_parser_carries_no_state_between_calls(
    capsys, tmp_path, monkeypatch, before, argv, code
):
    """A call right after another prints what it prints on a fresh parser."""
    docs = {
        "plain": write_doc(tmp_path, "arg(a). arg(b). att(a,b). att(b,a).\n"),
        "higher": str(tmp_path / "higher.facts"),
    }
    (tmp_path / "higher.facts").write_text(
        "arg(a). arg(b). att(a,b). att(b,a). att(a, r(b,a)).\n"
    )
    before = [x.format(**docs) for x in before]
    argv = [x.format(**docs) for x in argv]
    parser = cli._build_parser()
    run(capsys, *before)
    reused = run(capsys, *argv)
    assert cli._build_parser() is parser
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = run(capsys, *argv)
    assert reused == fresh
    assert reused[0] == code
    assert (reused[1] == "") == (code != 0)


def test_json_output_is_byte_stable(capsys, cycle_doc):
    _, first, _ = run(capsys, "extensions", cycle_doc, "--format", "json")
    _, second, _ = run(capsys, "extensions", cycle_doc, "--format", "json")
    assert first == second


_PLAIN_TEXT = "arg(a). arg(b). att(a,b). att(b,a).\n"
_INST_TEXT = 'arg(x). arg(y). att(x,y). att(y,x). inst(x, "p | ~p").\n'
_HIGHER_TEXT = 'arg(a). arg(b). wff(w, "R(a,b) | In(b)"). att(w, a). att(a, r(b,a)).\n'
_ADF_TEXT = 'arg(a). arg(b). acc(a, "~b"). acc(b, "a | ~a").\n'


@pytest.mark.parametrize(
    "argv, text",
    [
        *((["extensions", "--semantics", s], _PLAIN_TEXT)
          for s in ("complete", "stable", "grounded", "preferred")),
        (["extensions"], _INST_TEXT),
        *((["translate", "--mode", m], _PLAIN_TEXT)
          for m in ("prop", "und-free", "pred", "diagram")),
        (["translate", "--mode", "higher"], _HIGHER_TEXT),
        (["models"], _PLAIN_TEXT),
        (["models"], _INST_TEXT),
        *((["verify", "--claim", c], _PLAIN_TEXT) for c in cli._CLAIMS),
        (["solve-higher"], _HIGHER_TEXT),
        (["aaf"], "arg(a). arg(b). psi \"forall X ~R(X,X)\".\n"),
        (["encode"], "arg(y1). arg(y2). arg(z). catt([y1,y2], z).\n"),
        (["encode", "--project"], "arg(y1). arg(y2). arg(z). catt([y1,y2], z).\n"),
        (["encode"], "arg(y1). arg(y2). arg(z). datt(z, [y1,y2]).\n"),
        (["encode", "--project"], _ADF_TEXT),
        (["valid", "x | ~x"], None),
        (["valid", "(x -> y) | (y -> x)"], None),
    ],
)
def test_every_json_result_prints_as_json_dumps_prints_it(
    capsys, tmp_path, monkeypatch, argv, text
):
    rendered = []
    render = cli._json
    monkeypatch.setattr(cli, "_json", lambda result: rendered.append(result) or render(result))
    doc = [] if text is None else [write_doc(tmp_path, text)]
    code, out, err = run(capsys, argv[0], *doc, *argv[1:], "--format", "json")
    assert (code, err) == (0, "")
    [result] = rendered
    assert out == json.dumps(result, sort_keys=True, indent=2) + "\n"


_JSON_TEXT = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='"\\/\x00\x08\t\n\x1f\x7f\x80\u00e9\u2028\uffff\U0001f600 ab', max_size=6),
)
_JSON_SCALARS = st.one_of(
    _JSON_TEXT,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def _deep_json_values(draw):
    """A value wrapped in 5 to 8 containers, each with siblings around it."""
    value = draw(_JSON_VALUES)
    for _ in range(draw(st.integers(5, 8))):
        items = draw(st.lists(_JSON_VALUES, max_size=2))
        items.insert(draw(st.integers(0, len(items))), value)
        kind = draw(st.sampled_from([list, tuple, dict]))
        if kind is dict:
            keys = draw(st.lists(_JSON_TEXT, min_size=len(items), max_size=len(items),
                                 unique=True))
            value = dict(zip(keys, items))
        else:
            value = kind(items)
    return value


@settings(max_examples=250, deadline=None)
@given(st.one_of(_JSON_VALUES, _deep_json_values()))
def test_json_renders_what_json_dumps_renders(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, [["a", 0.0]], {"a": {"b": {3}}}, {1: "a"}, {"a": "b", 2: "c"}, b"x",
     object()],
)
def test_json_refuses_what_it_does_not_render(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_json_nests_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    value = "x"
    for _ in range(depth):
        value = [value, 0]
    lines = ["  " * i + "[" for i in range(depth)]
    lines.append("  " * depth + '"x",')
    for i in reversed(range(depth)):
        lines += ["  " * (i + 1) + "0", "  " * i + ("]," if i else "]")]
    assert cli._json(value) == "\n".join(lines)


def test_a_byte_order_mark_is_skipped(capsys, tmp_path):
    plain = tmp_path / "plain.facts"
    plain.write_bytes(b"arg(a). arg(b). att(a,b).\n")
    marked = tmp_path / "marked.facts"
    marked.write_bytes(b"\xef\xbb\xbfarg(a). arg(b). att(a,b).\n")
    for fmt in ([], ["--format", "json"]):
        want = run(capsys, "extensions", str(plain), *fmt)
        assert run(capsys, "extensions", str(marked), *fmt) == want
        assert want[0] == 0 and want[2] == ""


@pytest.mark.parametrize(
    "doc_text, argv_tail, fragment",
    [
        (None, ["--semantics", "bogus"], "invalid choice: 'bogus'"),
        ("arg(a.\n", [], "expected parenthesized arguments after 'arg'"),
    ],
)
def test_usage_and_parse_errors(capsys, tmp_path, doc_text, argv_tail, fragment):
    doc = write_doc(tmp_path, doc_text if doc_text else "arg(a).\n")
    code, out, err = run(capsys, "extensions", doc, *argv_tail)
    assert code == 1
    assert out == ""
    assert fragment in err


def test_missing_file_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, "extensions", str(tmp_path / "absent.facts"))
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_valid_parse_error_exits_one(capsys):
    code, _, err = run(capsys, "valid", "x |")
    assert code == 1
    assert "expected a formula, found 'end of input'" in err


def test_verify_refuses_instantiated_documents(capsys, inst_doc):
    code, out, err = run(capsys, "verify", inst_doc, "--claim", "prop")
    assert code == 1
    assert out == ""
    assert err == "error: verify does not apply to documents with inst facts\n"


def test_aaf_constraint_naming_an_undeclared_element_exits_one(capsys, tmp_path):
    doc = write_doc(tmp_path, 'arg(a). arg(b). psi "R(a,z)".\n')
    code, out, err = run(capsys, "aaf", doc)
    assert code == 1
    assert out == ""
    assert err == "error: the constraint mentions unknown element 'z'\n"


def test_hash_line_inside_a_wrapped_formula_exits_one(capsys, tmp_path):
    doc = write_doc(tmp_path, 'arg(a). arg(b).\nwff(w, "R(a,b) |\n# R(b,a)\nR(a,a)").\n')
    code, out, err = run(capsys, "translate", doc, "--mode", "higher")
    assert code == 1
    assert out == ""
    assert err == "error: unexpected character '#' (line 3, column 1)\n"


def test_formula_error_on_line_three_names_the_file_position(capsys, tmp_path):
    doc = write_doc(tmp_path, 'arg(a).\narg(b).\nwff(w, "R(a,b) | $").\n')
    code, out, err = run(capsys, "translate", doc, "--mode", "higher")
    assert code == 1
    assert out == ""
    assert err == "error: unexpected character '$' (line 3, column 18)\n"


@pytest.mark.parametrize(
    "condition,message",
    [
        ("ghost", "acceptance condition mentions undeclared 'ghost'"),
        ("~(a & a)", "acceptance conditions may negate atoms only"),
    ],
)
def test_acceptance_condition_errors_name_the_acc_fact(capsys, tmp_path, condition, message):
    doc = write_doc(tmp_path, f'arg(a).\nacc(a, "{condition}").\n')
    code, out, err = run(capsys, "encode", doc)
    assert code == 1
    assert out == ""
    assert err == f"error: {message} (line 2, column 1)\n"


def test_wrapped_formula_error_names_the_file_position(capsys, tmp_path):
    doc = write_doc(tmp_path, 'arg(a). arg(b).\npsi "R(a,b) &\n    ~R(b,a) &".\n')
    code, out, err = run(capsys, "aaf", doc)
    assert code == 1
    assert out == ""
    assert err == "error: expected a formula, found 'end of input' (line 3, column 14)\n"


def test_closed_stdout_exits_one_without_a_traceback():
    # the child imports the package under test, wherever it lives
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "g3arg.cli", "valid", "x | ~x"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": package_root},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_valid_rejects_runaway_nesting(capsys):
    code, out, err = run(capsys, "valid", "~" * 3000 + "x")
    assert code == 1
    assert out == ""
    assert err.startswith("error: formula nested deeper than 100 levels")
    assert err.count("\n") == 1


# Long flat chains: every formula walk runs on an explicit stack, so none of
# these may end in a RecursionError. Formulas are compared as text, because
# the dataclass == on trees this deep would itself recurse.


def line_value(out, prefix):
    (line,) = [x for x in out.splitlines() if x.startswith(prefix)]
    return line[len(prefix) :]


def test_translate_diagram_of_a_20_cycle(capsys, tmp_path):
    names = [f"a{i:02}" for i in range(20)]
    doc = write_doc(
        tmp_path,
        " ".join(f"arg({x})." for x in names)
        + " ".join(f"att({x},{y})." for x, y in zip(names, names[1:] + names[:1])),
    )
    code, out, err = run(capsys, "translate", doc, "--mode", "diagram")
    assert (code, err) == (0, "")
    text = line_value(out, "formula: ")
    assert format_formula(parse_pred(text)) == text
    assert text.startswith("exists X1 (exists X2 (")
    # 190 distinctness, 20 attack and 380 non-attack literals, one closure
    assert text.count(" & ") == 190 + 20 + 380
    assert text.count("!=") == 190


def test_valid_on_600_conjuncts(capsys):
    formula = " & ".join(["p"] * 600)
    code, out, err = run(capsys, "valid", formula)
    assert (code, err) == (0, "")
    text = line_value(out, "formula: ")
    assert text == formula
    assert format_formula(parse_prop(text)) == text
    assert out.endswith("verdict: INVALID\ncountermodel: p=(f,f)\n")


def higher_doc_text(copies):
    body = " & ".join(["In(a) & R(a,b)"] * copies)
    return f'arg(a). arg(b). att(a,b). wff(w, "{body}"). att(w, b).\n'


def test_higher_wff_with_1200_conjuncts(capsys, tmp_path):
    long_doc = write_doc(tmp_path, higher_doc_text(600))
    short_doc = str(tmp_path / "short.facts")
    (tmp_path / "short.facts").write_text(higher_doc_text(1))
    code, out, err = run(capsys, "translate", long_doc, "--mode", "higher")
    assert (code, err) == (0, "")
    clause = line_value(out, "  b2[w]: ")
    assert clause.count("In(a) & R(a,b)") == 600
    assert format_formula(parse_pred(clause)) == clause
    # p & p & ... & p is p: the solver must find the same models
    code, long_out, err = run(capsys, "solve-higher", long_doc)
    assert (code, err) == (0, "")
    assert run(capsys, "solve-higher", short_doc) == (0, long_out, "")


def test_aaf_psi_with_1200_conjuncts(capsys, tmp_path):
    psi = " & ".join(["~R(a,a)"] * 1200)
    long_doc = write_doc(tmp_path, f'arg(a). arg(b).\npsi "{psi}".\n')
    short_doc = str(tmp_path / "short.facts")
    (tmp_path / "short.facts").write_text('arg(a). arg(b).\npsi "~R(a,a)".\n')
    code, out, err = run(capsys, "aaf", long_doc)
    assert (code, err) == (0, "")
    assert out.startswith("8 admissible relation(s)\n")
    assert run(capsys, "aaf", short_doc) == (0, out, "")


def test_translate_und_free_on_520_arguments(capsys, tmp_path):
    names = sorted(f"a{i}" for i in range(520))
    doc = write_doc(tmp_path, " ".join(f"arg({x})." for x in names))
    code, out, err = run(capsys, "translate", doc, "--mode", "und-free")
    assert (code, err) == (0, "")
    definition = " & ".join(f"({x} | ~{x})" for x in names)
    assert line_value(out, "marker definition: ") == definition
    assert line_value(out, "  a1[a0]: ") == f"a0 -> {definition} | true"


def test_translate_prop_on_a_700_attacker_star(capsys, tmp_path):
    names = [f"a{i:03}" for i in range(700)]
    doc = write_doc(
        tmp_path,
        "arg(z). " + " ".join(f"arg({x}). att({x},z)." for x in names),
    )
    code, out, err = run(capsys, "translate", doc, "--mode", "prop")
    assert (code, err) == (0, "")
    all_out = " & ".join(f"~{x}" for x in names)
    assert line_value(out, "  a2[z]: ") == f"{all_out} -> #n | z"
    assert line_value(out, "  b2[z]: ") == " | ".join(names) + " -> ~z | #n"


def framework_doc(tmp_path, names, attacks):
    facts = [f"arg({x})." for x in names] + [f"att({u},{x})." for u, x in attacks]
    return write_doc(tmp_path, "\n".join(facts) + "\n")


def printed_labellings(out):
    """The labellings listed by a text `extensions` report."""
    return [
        {x: Label(v) for x, v in (pair.split("=") for pair in line.split())}
        for line in out.splitlines()[1:]
    ]


def test_extensions_on_a_14_cycle(capsys, tmp_path):
    names = [f"c{i:02d}" for i in range(14)]
    attacks = list(zip(names, names[1:] + names[:1]))
    code, out, err = run(capsys, "extensions", framework_doc(tmp_path, names, attacks))
    assert (code, err) == (0, "")
    rows = [
        " ".join(f"{x}={('in', 'out')[(i + k) % 2]}" for i, x in enumerate(names))
        for k in (0, 1)
    ]
    rows.append(" ".join(f"{x}=und" for x in names))
    assert out == "3 complete labelling(s)\n" + "".join(f"  {r}\n" for r in rows)
    f = Framework.make(names, attacks)
    assert all(check_complete(f, lab)[0] for lab in printed_labellings(out))


def test_extensions_on_a_sparse_40_argument_graph(capsys, tmp_path):
    """Eight interleaved five-argument components, so the oracle labels each
    component and the product of their labellings is the exact answer."""
    rng = random.Random(11)  # 24 labellings
    names = [f"a{i:02d}" for i in range(40)]
    shuffled = rng.sample(names, len(names))
    parts = [sorted(shuffled[i : i + 5]) for i in range(0, 40, 5)]
    attacks = {(rng.choice(p), rng.choice(p)) for p in parts for _ in range(5)}
    code, out, err = run(capsys, "extensions", framework_doc(tmp_path, names, attacks))
    assert (code, err) == (0, "")
    per_part = [
        oracle.enumerate_complete(
            Framework.make(p, [(u, x) for u, x in attacks if x in p])
        )
        for p in parts
    ]
    want = [
        {x: lab[x] for x in names}
        for lab in (
            {k: v for part in combo for k, v in part.items()}
            for combo in itertools.product(*per_part)
        )
    ]
    want.sort(key=lambda lab: [LABEL_ORDER.index(lab[x]) for x in names])
    got = printed_labellings(out)
    assert out.startswith(f"{len(want)} complete labelling(s)\n")
    assert got == want
    f = Framework.make(names, attacks)
    assert all(check_complete(f, lab)[0] for lab in got)


def test_aaf_on_five_arguments_exits_three_at_once(capsys, tmp_path):
    doc = write_doc(tmp_path, 'arg(a). arg(b). arg(c). arg(d). arg(e).\npsi "true".\n')
    code, out, err = run(capsys, "aaf", doc)
    assert (code, out) == (3, "")
    assert err == "error: 2^25 attack relations exceed the bound 65536\n"


def test_aaf_on_three_arguments_is_unchanged(capsys, tmp_path):
    """Every relation on three arguments; the digest pins the text output."""
    doc = write_doc(tmp_path, 'arg(a). arg(b). arg(c).\npsi "true".\n')
    code, out, err = run(capsys, "aaf", doc)
    assert (code, err) == (0, "")
    assert out.startswith("512 admissible relation(s)\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5c2343a6806018375366d633e10b45408f5fbbd3cd3accce048f194e8c6da09d"
    )


# Random small documents of every species and random formula strings: every
# command ends in exit 0-3 with no exception, and a failure is one line on
# stderr. Axiomatic frames stay at three arguments and higher networks at two
# nodes, because their scans (2^(n*n) relations, 3^unknowns candidates) take
# seconds beyond that.

_terms = st.sampled_from(["a", "b", "X", "Y", "zz"])
_atom_texts = st.one_of(
    st.sampled_from(["a", "b", "p", "#n", "true", "false"]),
    st.builds("In({})".format, _terms),
    st.builds("R({},{})".format, _terms, _terms),
    st.builds("{}={}".format, _terms, _terms),
    st.builds("{}!={}".format, _terms, _terms),
)
_formula_texts = st.one_of(
    st.recursive(
        _atom_texts,
        lambda sub: st.one_of(
            st.builds("~{}".format, sub),
            st.builds("({} & {})".format, sub, sub),
            st.builds("{} | {}".format, sub, sub),
            st.builds("{} -> {}".format, sub, sub),
            st.builds("{} <-> {}".format, sub, sub),
            st.builds("forall X ({})".format, sub),
            st.builds("exists Y {}".format, sub),
        ),
        max_leaves=6,
    ),
    st.text(alphabet="abpXR()~&|-<>#n=!, ", max_size=12),
)
_SPECIES = ("plain", "inst", "higher", "aaf", "conjunctive", "disjunctive", "adf")


@st.composite
def _documents(draw):
    species = draw(st.sampled_from(_SPECIES))
    limit = {"aaf": 3, "higher": 2}.get(species, 4)
    args = ["a", "b", "c", "d"][: draw(st.integers(1, limit))]
    facts = [f"arg({x})." for x in args]

    def add(template, items, max_size=3):
        drawn = draw(st.lists(items, max_size=max_size))
        facts.extend(template.format(*item) for item in drawn)

    name = st.sampled_from(args + ["zz"])  # now and then an undeclared one
    names = st.lists(name, min_size=1, max_size=3).map(",".join)
    if species in ("plain", "inst"):
        add("att({},{}).", st.tuples(name, name), 4)
    if species == "inst":
        add('inst({}, "{}").', st.tuples(name, _formula_texts), 2)
    if species == "higher":
        wffs = draw(st.lists(_formula_texts, max_size=2))
        facts += [f'wff(w{i}, "{t}").' for i, t in enumerate(wffs)]
        units = args + [f"w{i}" for i in range(len(wffs))] + ["r(a,a)", "r(a,b)"]
        add("att({},{}).", st.tuples(st.sampled_from(units), st.sampled_from(units)))
    if species == "aaf":
        facts.append(f'psi "{draw(_formula_texts)}".')
    if species == "conjunctive":
        add("catt([{}], {}).", st.tuples(names, name))
    if species == "disjunctive":
        add("datt({}, [{}]).", st.tuples(name, names))
    if species == "adf":
        facts += [f'acc({x}, "{draw(_formula_texts)}").' for x in args]
    return "\n".join(facts) + "\n"


_COMMANDS = [
    *(["extensions", "--semantics", s]
      for s in ("complete", "stable", "grounded", "preferred")),
    *(["translate", "--mode", m]
      for m in ("prop", "und-free", "pred", "diagram", "higher")),
    ["models"],
    *(["verify", "--claim", c] for c in ("prop", "und-free", "pred", "diagram")),
    ["solve-higher", "--format", "json"],
    ["aaf"],
    ["encode"],
    ["encode", "--project", "--format", "json"],
]


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3)
    if code in (1, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_documents())
def test_fuzzed_documents_never_crash_the_cli(capsys, tmp_path, text):
    doc = write_doc(tmp_path, text)
    for command in _COMMANDS:
        code, _, err = run(capsys, command[0], doc, *command[1:])
        assert_clean_exit(code, err)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_formula_texts)
def test_fuzzed_formulas_never_crash_valid(capsys, formula):
    code, _, err = run(capsys, "valid", formula)
    assert_clean_exit(code, err)
