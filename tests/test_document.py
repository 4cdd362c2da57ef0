"""Fact-file parsing: species detection, validation, conversion, round trips."""

import time
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracle
import sweep_reader
from g3arg import document
from g3arg.document import InputDocument, parse_document, serialize_document
from g3arg.syntax import ParseError


def test_plain_document():
    doc = parse_document("arg(a). arg(b). att(a,b). att(b,a).")
    assert doc.species == "plain"
    assert doc.args == ("a", "b")
    assert doc.atts == (("a", "b"), ("b", "a"))
    f = doc.to_framework()
    assert f.arguments == ("a", "b")
    assert f.attacks == frozenset({("a", "b"), ("b", "a")})


def test_comments_and_whitespace():
    doc = parse_document(
        """
        # a two argument document
        arg(a).   arg(b).    # inline comment
        att(a, b).
        """
    )
    assert doc.atts == (("a", "b"),)


def test_hash_inside_quotes_is_not_a_comment():
    doc = parse_document('arg(x).\ninst(x, "x | #n").  # real comment\n')
    assert doc.insts == (("x", "x | #n"),)


def test_higher_document_with_formula_and_r_atom_units():
    doc = parse_document(
        'arg(a). arg(c). arg(d).\n'
        'wff(phi, "exists X (~R(X,X))").\n'
        'att(a, phi).\n'
        'att(a, r(c, d)).\n'
    )
    assert doc.species == "higher"
    assert doc.wffs == (("phi", "exists X (~R(X,X))"),)
    assert doc.atts == (("a", "phi"), ("a", "r(c,d)"))
    hn = doc.to_higher()
    assert hn.unit_names() == ("a", "c", "d", "phi", "r(c,d)")


def test_r_atom_attack_alone_makes_a_higher_document():
    doc = parse_document("arg(a). arg(c). arg(d). att(a, r(c,d)).")
    assert doc.species == "higher"
    assert doc.to_higher().wff("r(c,d)").is_r_atom


def test_disjunctive_and_conjunctive_documents():
    doc = parse_document("arg(a). arg(b). arg(c). datt(a, [b, c]).")
    assert doc.species == "disjunctive"
    assert doc.datts == (("a", ("b", "c")),)
    assert doc.to_disjunctive().dattacks == (("a", ("b", "c")),)

    doc = parse_document("arg(a). arg(b). arg(c). catt([a, b], c).")
    assert doc.species == "conjunctive"
    assert doc.catts == ((("a", "b"), "c"),)
    assert doc.to_conjunctive().cattacks == ((("a", "b"), "c"),)


def test_adf_document_expands_conditions_over_parents():
    doc = parse_document(
        'arg(a). arg(b). arg(c). arg(x).\n'
        'acc(a, "true"). acc(b, "true"). acc(c, "true").\n'
        'acc(x, "(a & ~b) | c").\n'
    )
    assert doc.species == "adf"
    net = doc.to_adf()
    assert net.parents("a") == () and net.rows("a") == ((),)
    assert net.parents("x") == ("a", "b", "c")
    assert net.rows("x") == (
        (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1),
    )


def test_adf_condition_edge_cases():
    assert parse_document('arg(a). acc(a, "false").').to_adf().rows("a") == ()
    # a contradictory condition keeps its parents but accepts nothing
    net = parse_document(
        'arg(a). arg(b). acc(a, "true"). acc(b, "a & ~a").'
    ).to_adf()
    assert net.parents("b") == ("a",) and net.rows("b") == ()
    # so does one that folds to false before its atom is compiled
    net = parse_document('arg(a). arg(b). acc(a, "b & false"). acc(b, "true").').to_adf()
    assert net.parents("a") == ("b",) and net.rows("a") == ()


def test_aaf_document():
    doc = parse_document('arg(a). arg(b). psi "~R(a,a) & ~R(b,b)".')
    assert doc.species == "aaf"
    assert doc.psi == "~R(a,a) & ~R(b,b)"
    assert doc.to_aaf().s0 == ("a", "b")


def test_instantiation_rides_with_plain_documents():
    doc = parse_document('arg(x). arg(y). att(x,y). inst(x, "p | ~p").')
    assert doc.species == "plain"
    subst = doc.to_substitution()
    assert sorted(subst) == ["x"]


def test_serialize_parse_round_trip():
    texts = [
        "arg(a). arg(b). att(a,b). att(b,a).",
        'arg(a). arg(c). arg(d). wff(phi, "exists X (~R(X,X))"). '
        "att(a, phi). att(a, r(c,d)).",
        "arg(a). arg(b). arg(c). datt(a, [b,c]). datt(b, [a]).",
        "arg(a). arg(b). catt([a,b], a).",
        'arg(a). arg(x). acc(a, "true"). acc(x, "a | ~a").',
        'arg(a). psi "~R(a,a)".',
        'arg(x). arg(y). att(x,y). inst(x, "p & q").',
    ]
    for text in texts:
        doc = parse_document(text)
        assert parse_document(serialize_document(doc)) == doc


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("arg(a).\nbogus(a).", "unknown fact 'bogus' (line 2, column 1)"),
        ("arg(a). att(a,a)", "fact missing final '.'"),
        ("arg(a). att(a,).", "empty item"),
        ("arg(a). att(a).", "expected 2 argument(s)"),
        ("arg(a). arg(b. att(a,b).", "expected parenthesized arguments"),
        ("att(a,a).", "needs at least one arg fact"),
        ('arg(a). inst(a, "p ").\ninst(a, "p").', "conflicting replacements"),
        ('arg(a). wff(w, "R(a,a)"). wff(w, "~R(a,a)").', "conflicting formulas"),
        ('arg(a). wff(a, "R(a,a)").', "collides with an argument"),
        ("arg(a). att(a, ghost).", "undeclared name 'ghost'"),
        ("arg(a). inst(ghost, \"p\").", "undeclared argument 'ghost'"),
        ("arg(a). datt(a, []).", "empty name list"),
        ("arg(a). datt(a, [ghost]).", "undeclared argument 'ghost'"),
        ('arg(a). acc(a, "true"). acc(a, "false").', "duplicate acceptance"),
        ('arg(a). arg(b). acc(a, "true").', "missing acceptance condition for 'b'"),
        ('arg(a). acc(a, "#n | a").', "not allowed in an acceptance condition"),
        ('arg(a). acc(a, "~(a & a)").', "negate atoms only"),
        ('arg(a). acc(a, "ghost").', "undeclared 'ghost'"),
        ('arg(a). psi "R(a,a)". psi "R(a,a)".', "duplicate psi fact"),
        ('arg(a). inst(a, p).', "expected a quoted formula"),
        ('arg(a). inst(a, "p | ").', "expected a formula"),
        ("arg(a). arg(b). att(a), b).", "unbalanced bracket"),
        ('arg(a). att(a, "a").', "not a valid name"),
        ('arg(a). psi "R(a,a).', "unterminated string"),
        ("arg(a). . arg(b).", "empty fact"),
    ],
)
def test_rejected_documents(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert fragment in str(exc.value)


def test_a_second_psi_fact_is_named_once():
    with pytest.raises(ParseError) as exc:
        parse_document('arg(a). psi "R(a,a)". psi "R(a,a)".')
    assert str(exc.value) == "duplicate psi fact (line 1, column 23)"


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        ('arg(a).\narg(b).\nwff(w, "R(a,b) | $").', "unexpected character '$'", 3, 18),
        ('arg(a). inst(a, "p | ").', "expected a formula, found 'end of input'", 1, 22),
        ('arg(a).\n  acc(a,\n "a & (a").',
         "expected a closing parenthesis, found 'end of input'", 3, 9),
        ('arg(a).\npsi   "exists X (R(X,a) & )".', "expected a formula, found ')'", 2, 27),
        # a wrapped formula: the error line is the file's, its column too
        ('arg(a). arg(b).\n  wff(w, "R(a,b) &\n   R(b,a) | $").',
         "unexpected character '$'", 3, 13),
        # a comment between the fact name and the quote shifts nothing
        ('arg(a). # one\nwff(w, # two\n    "R(a,a)\n  | ").',
         "expected a formula, found 'end of input'", 4, 5),
        ('arg(a). arg(b).\nwff(w, "R(a,b)").\nwff(v,"R(a,b) |\n# R(b,a)").',
         "unexpected character '#'", 4, 1),
        # a condition outside the fragment names its acc fact
        ('arg(a).\n  acc(a, "ghost").', "acceptance condition mentions undeclared 'ghost'",
         2, 3),
        ('arg(a).\nacc(a,\n "~(a & a)").', "acceptance conditions may negate atoms only", 2, 1),
    ],
)
def test_formula_errors_name_their_place_in_the_file(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    assert str(exc.value) == f"{message} (line {line}, column {col})"


def test_mixed_species_rejected():
    with pytest.raises(ParseError) as exc:
        parse_document('arg(a). acc(a, "true"). catt([a], a).')
    assert "mixed species: adf and conjunctive" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_document('arg(a). arg(b). datt(a, [b]). att(a,b).')
    assert "att facts do not apply to disjunctive" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_document('arg(a). arg(b). psi "~R(a,a)". inst(a, "p").')
    assert "inst facts apply to plain documents only" in str(exc.value)


def test_species_guards_on_conversion():
    doc = parse_document("arg(a). arg(b). att(a,b).")
    with pytest.raises(ValueError):
        doc.to_adf()
    with pytest.raises(ValueError):
        doc.to_aaf()
    aaf_doc = parse_document('arg(a). psi "~R(a,a)".')
    with pytest.raises(ValueError):
        aaf_doc.to_framework()


def test_duplicate_facts_collapse():
    doc = parse_document(
        "arg(a). arg(a). arg(b). att(a,b). att(a,b). att(a, b)."
    )
    assert doc.args == ("a", "b")
    assert doc.atts == (("a", "b"),)
    # same wff twice with identical text is accepted once
    doc = parse_document(
        'arg(a). wff(w, "R(a,a)"). wff(w, "R(a,a)"). att(a, w).'
    )
    assert doc.wffs == (("w", "R(a,a)"),)


def test_wrapped_formula_line_may_start_with_the_marker():
    doc = parse_document('arg(a). arg(b).\nwff(w, "R(a,b) |\n#n").\natt(a, w).\n')
    assert doc.wffs == (("w", "R(a,b) |\n#n"),)


def test_comment_after_a_wrapped_formula():
    doc = parse_document(
        'arg(a). arg(b).\nwff(w, "R(a,b) &\nR(b,a)"). # note\natt(a, w).\n'
    )
    assert doc.wffs == (("w", "R(a,b) &\nR(b,a)"),)
    assert doc.atts == (("a", "w"),)


def test_hash_line_inside_quotes_is_formula_text_not_a_comment():
    with pytest.raises(ParseError) as exc:
        parse_document('arg(a). arg(b).\nwff(w, "R(a,b) |\n# R(b,a)\nR(a,a)").\n')
    assert "unexpected character '#'" in str(exc.value)


def test_wrapped_formula_without_a_hash_reads_as_before():
    text = 'arg(a). arg(b).\nwff(w, "R(a,b) |\nR(b,a)").\natt(a, w).\n'
    doc = parse_document(text)
    assert doc == oracle.parse_document(text)
    assert doc.wffs == (("w", "R(a,b) |\nR(b,a)"),)
    assert parse_document(serialize_document(doc)) == doc


# Documents for the differential test against the character-loop reader:
# every fact kind, comments at line ends, `#` `.` `,` inside quotes, stray
# and unbalanced brackets, empty facts and items, a missing final `.` and an
# unterminated string on the last line. Quoted strings never hold a line
# break, because the old reader forgets an open quote at every line break.
_NAMES = st.sampled_from(["a", "b", "c", "w", "ghost", "a b", "r(a,b)", "r(b, ghost)"])
_QUOTED = st.one_of(
    st.sampled_from(
        [
            '"R(a,b) | #n"',
            '"exists X (R(X,a) & In(b))"',
            '"~R(a,a)"',
            '"a & ~b"',
            '"b | ~c"',
            '"true"',
            '"#n"',
        ]
    ),
    st.text(alphabet='ab R(),.#n|&~[] ', max_size=8).map('"{}"'.format),
)
_LISTS = st.lists(_NAMES, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]")
_ITEMS = st.one_of(
    _NAMES,
    _QUOTED,
    _LISTS,
    st.sampled_from(["", " ", "(", ")", "[", "]", "(a", "a]", ")(", "[a,b", "p"]),
)
_KINDS = st.sampled_from(["arg", "att", "wff", "inst", "datt", "catt", "acc", "bogus"])
_FACTS = st.one_of(
    st.builds(
        "{}({})".format, _KINDS, st.lists(_ITEMS, min_size=1, max_size=3).map(", ".join)
    ),
    _QUOTED.map("psi {}".format),
    st.sampled_from(["", "  ", "arg(a", "att a, b)", "(", ")", "1x(a)", "arg(a))"]),
)
_SEPARATORS = st.sampled_from(
    [" ", "\n", "\n\n", " # note\n", '\t# "q" . , #\n', "\n# a whole line\n"]
)
# well-formed facts of one species each, so that many documents parse
_SPECIES_FACTS = [
    ["att(a, b)", "att(b,a)", 'inst(a, "p & #n")', 'inst(c, "q | ~q")'],
    ['wff(w, "R(a,b) | #n")', "att(a, w)", "att(a, r(b,c))", "att(r( a , b ), c)"],
    ["datt(a, [b,c])", "datt(b, [a])", "datt(c, [ a , b ])"],
    ["catt([a,b], c)", "catt([c], a)"],
    ['acc(a, "b | ~c"). acc(b, "true"). acc(c, "a & b")', 'acc(b, "~a")'],
    ['psi "~R(a,a)"', 'psi "forall X (R(X,a) -> In(b))"'],
]


@st.composite
def documents(draw):
    species = st.sampled_from(draw(st.sampled_from(_SPECIES_FACTS)))
    extra = draw(st.lists(species, max_size=5)) + draw(st.lists(_FACTS, max_size=2))
    facts = draw(st.permutations(["arg(a)", "arg(b)", "arg(c)", *extra]))
    dots = ["."] * len(facts)
    if draw(st.integers(0, 5)) == 0:
        dots[-1] = ""
    text = "".join(fact + dot + draw(_SEPARATORS) for fact, dot in zip(facts, dots))
    return text + draw(st.sampled_from(["", "", "", "", ' psi "R(a,a). #', ' "open']))


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as e:
        return str(e), e.line, e.col


@settings(max_examples=500, deadline=None)
@given(documents())
def test_reader_matches_the_character_loop_reader(text):
    assert _outcome(parse_document, text) == _outcome(oracle.parse_document, text)


@settings(
    max_examples=2000, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(st.text(alphabet='abw R(),.#n|&~[]"\n\t psiargtdc', max_size=80))
def test_reader_matches_the_character_loop_reader_on_raw_text(text):
    # the character-loop reader forgets an open quote at a line break
    assume(all(line.count('"') % 2 == 0 for line in text.split("\n")))
    assert _outcome(parse_document, text) == _outcome(oracle.parse_document, text)


@pytest.mark.parametrize(
    "text",
    [
        'arg(a). arg(b).\nwff(w, "R(a,b) |\nR(b,a)").\natt(a, w). att(w, r(a,b)).\n',
        'arg(a). arg(b). acc(a, "b | ~b").\nacc(b, "true").',
        'arg(a). arg(b). psi "forall X (R(X,a) -> X = b)".',
        'arg(x). arg(y). att(x,y). inst(x, "p | ~p"). inst(y, "#n & q").',
    ],
)
def test_conversions_use_the_trees_read_with_the_document(text):
    doc = parse_document(text)
    # the same fields without the trees, as a document built by hand
    fields = [f for f in doc.__dataclass_fields__ if f != "trees"]
    fresh = InputDocument(**{f: getattr(doc, f) for f in fields})
    assert fresh == doc and hash(fresh) == hash(doc) and repr(fresh) == repr(doc)
    convert = {
        "higher": InputDocument.to_higher,
        "adf": InputDocument.to_adf,
        "aaf": InputDocument.to_aaf,
        "plain": InputDocument.to_substitution,
    }[doc.species]
    want = convert(fresh)
    with patch.object(document, "parse_prop", side_effect=AssertionError), patch.object(
        document, "parse_pred", side_effect=AssertionError
    ), patch.object(document, "_condition_error", side_effect=AssertionError):
        assert convert(doc) == want


def test_a_document_built_by_hand_checks_its_conditions():
    doc = InputDocument("adf", ("a",), (), (), (), (), (), (("a", "~(a & a)"),), None)
    with pytest.raises(ParseError, match="^acceptance conditions may negate atoms only$"):
        doc.to_adf()


# The one-pass reader of plain documents against the fact loop, on the
# generator of tests/sweep_reader.py (which runs 50,000 seeded documents).
@settings(max_examples=1000, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_pass_reader_matches_the_fact_loop(rng):
    text, plain = sweep_reader.random_document(rng)
    assert sweep_reader.check(text, plain) is None


@pytest.mark.parametrize(
    "text",
    [
        "arg(a).\r\narg(b).\r\natt(a,b).\r\n",
        "arg(a).\targ(b).\tatt( a ,\tb )\t.",
        "\u00a0arg\u00a0(\u00a0a\u00a0)\u00a0.\u3000att(a,a).\n",
        "\n\n\narg(a).\n\n\n\narg(b).\n\n",
        "arg(a). arg(a). att(a,b). att(a,b). arg(b).",
        "arg(a). att(a,a).",
        "arg(a). att(a,ghost).",
        "att(b,a).\narg(a).",
        "arg(a).att(a,a).",
        "arg(x_1). arg(9). att(9 , x_1).",
    ],
)
def test_plain_documents_are_read_in_one_pass(text):
    assert document._PLAIN_DOC_RE.fullmatch(text)
    assert sweep_reader.check(text, True) is None


@pytest.mark.parametrize(
    "text",
    [
        "arg(a). # a comment\natt(a,a).",
        "arg(a,b).",
        'arg(a). arg("b").',
        "arg(a). att(a,a)",
        "arg(a). . att(a,a).",
        "arg(a).. att(a,a).",
        "ARG(a).",
        "arg(a). arg(b). att(a, r(a,b)).",
        "",
        " \r\n\t",
        "arg(a). wff(w, \"R(a,a)\").",
        "arg(a-b).",
    ],
)
def test_near_misses_fall_back_to_the_fact_loop(text):
    assert document._PLAIN_DOC_RE.fullmatch(text) is None
    assert sweep_reader.check(text, False) is None


def test_one_pass_facts_keep_their_offsets_and_text():
    text = "arg(a).\r\n\t att ( a ,\tb )\t.arg(b)."
    args, wffs, others, markers = document._read_facts(text)
    assert args == [("arg", ["a"], 0, "arg(a)", text), ("arg", ["b"], 26, "arg(b)", text)]
    assert others == [("att", ["a", "b"], 11, "att ( a ,\tb )", text)]
    assert (wffs, markers) == ([], set())
    with pytest.raises(ParseError) as e:
        parse_document("arg(a).\n  att(a, ghost).")
    assert (e.value.message, e.value.line, e.value.col) == (
        "undeclared name 'ghost' in att fact", 2, 3)


def test_the_one_pass_gate_stays_linear_on_a_late_bad_character():
    facts = "".join(f"arg(a{i}). att(a{i}, a{i // 2}).\n" for i in range(10_000))
    # a quadratic gate would take seconds here; a linear one takes milliseconds
    for text in (facts, facts + "!"):
        start = time.perf_counter()
        document._PLAIN_DOC_RE.fullmatch(text)
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ParseError) as e:
        parse_document(facts + "!")
    assert (e.value.message, e.value.line, e.value.col) == (
        "fact missing final '.'", 10_001, 1)
