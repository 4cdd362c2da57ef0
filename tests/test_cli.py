"""End-to-end tests for the command line entry point."""

import json

import pytest

from g3arg import cli
from g3arg.translate import CorrespondenceReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, text):
    path = tmp_path / "input.facts"
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
    code, out, err = run(capsys, "solve-higher", higher_doc, "--max-unknowns", "2")
    assert code == 3
    assert out == ""
    assert err == "error: 7 three-valued unknowns exceed the bound 2\n"


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


def test_encode_plain_document_is_usage_error(capsys, cycle_doc):
    code, _, err = run(capsys, "encode", cycle_doc)
    assert code == 1
    assert "cannot encode a plain document" in err


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


def test_json_output_is_byte_stable(capsys, cycle_doc):
    _, first, _ = run(capsys, "extensions", cycle_doc, "--format", "json")
    _, second, _ = run(capsys, "extensions", cycle_doc, "--format", "json")
    assert first == second


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


def test_valid_rejects_runaway_nesting(capsys):
    code, out, err = run(capsys, "valid", "~" * 3000 + "x")
    assert code == 1
    assert out == ""
    assert err.startswith("error: formula nested deeper than 100 levels")
    assert err.count("\n") == 1
