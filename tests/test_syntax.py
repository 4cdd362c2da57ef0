"""Formula grammar: precedence, both parse modes, formatting round trips."""

import pytest
from hypothesis import given, strategies as st

from g3arg.pred import (
    Constant,
    EqAtom,
    Exists,
    Forall,
    InAtom,
    RAtom,
    StatusRef,
    Variable,
)
from g3arg.prop import And, Atom, Bot, Imp, Neg, Or, Top, UndConst
from g3arg.syntax import MAX_NESTING, ParseError, format_formula, parse_pred, parse_prop


def test_precedence_ladder():
    f = parse_prop("x | y & z -> w")
    assert f == Imp(Or(Atom("x"), And(Atom("y"), Atom("z"))), Atom("w"))


def test_implication_right_associative():
    f = parse_prop("x -> y -> z")
    assert f == Imp(Atom("x"), Imp(Atom("y"), Atom("z")))


def test_negation_binds_tightest():
    assert parse_prop("~x & y") == And(Neg(Atom("x")), Atom("y"))
    assert parse_prop("~~x") == Neg(Neg(Atom("x")))
    assert parse_prop("~(x & y)") == Neg(And(Atom("x"), Atom("y")))


def test_biimplication_expands():
    f = parse_prop("x <-> y")
    assert f == And(Imp(Atom("x"), Atom("y")), Imp(Atom("y"), Atom("x")))


def test_constants_and_marker():
    assert parse_prop("#n") == UndConst()
    assert parse_prop("true") == Top()
    assert parse_prop("false") == Bot()
    assert parse_prop("#n | ~#n") == Or(UndConst(), Neg(UndConst()))


def test_chained_connectives_nest_right():
    assert parse_prop("x & y & z") == And(Atom("x"), And(Atom("y"), Atom("z")))
    assert parse_prop("x | y | z") == Or(Atom("x"), Or(Atom("y"), Atom("z")))


def test_predicate_atoms():
    assert parse_pred("In(a)") == InAtom(Constant("a"))
    assert parse_pred("In(X)") == InAtom(Variable("X"))
    assert parse_pred("R(a,B)") == RAtom(Constant("a"), Variable("B"))
    assert parse_pred("a = b") == EqAtom(Constant("a"), Constant("b"))
    assert parse_pred("X != a") == Neg(EqAtom(Variable("X"), Constant("a")))


def test_quantifiers_take_maximal_scope():
    f = parse_pred("forall X In(X) -> false")
    assert f == Forall("X", Imp(InAtom(Variable("X")), Bot()))
    g = parse_pred("(forall X In(X)) -> false")
    assert g == Imp(Forall("X", InAtom(Variable("X"))), Bot())
    nested = parse_pred("exists X forall Y (R(X,Y))")
    assert nested == Exists("X", Forall("Y", RAtom(Variable("X"), Variable("Y"))))


@pytest.mark.parametrize(
    "text",
    [
        "x &",
        "(x | y",
        "x y",
        "-> x",
        "x ? y",
        "",
        "x)",
    ],
)
def test_prop_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_prop(text)


@pytest.mark.parametrize(
    "text",
    [
        "forall x (In(x))",  # lowercase quantified variable
        "In",  # reserved word used bare
        "a",  # bare term without equality
        "R(a)",  # arity
        "In(forall)",
        "a = In",
    ],
)
def test_pred_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_pred(text)


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_prop("x &\n& y")
    assert exc.value.line == 2
    assert exc.value.col == 1


def test_format_minimal_parens():
    f = parse_prop("x | y & z -> w")
    assert format_formula(f) == "x | y & z -> w"
    g = parse_prop("(x | y) & z")
    assert format_formula(g) == "(x | y) & z"
    h = parse_prop("(x -> y) -> z")
    assert format_formula(h) == "(x -> y) -> z"
    assert format_formula(parse_pred("X != a")) == "X!=a"
    assert format_formula(parse_pred("~(X = a)")) == "X!=a"


def test_format_quantifier_bodies_parenthesized():
    f = parse_pred("forall X In(X) & R(X,X)")
    assert format_formula(f) == "forall X (In(X) & R(X,X))"


def test_status_reference_renders_but_never_parses():
    assert format_formula(StatusRef("phi")) == "<phi>"
    with pytest.raises(ParseError):
        parse_prop("<phi>")


_prop_leaves = st.sampled_from(
    [Atom("x"), Atom("y"), UndConst(), Top(), Bot()]
)
_prop_trees = st.recursive(
    _prop_leaves,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(sub, sub).map(lambda p: Imp(*p)),
    ),
    max_leaves=14,
)


@given(_prop_trees)
def test_prop_format_parse_round_trip(f):
    assert parse_prop(format_formula(f)) == f


_terms = st.sampled_from(
    [Constant("a"), Constant("b"), Variable("X"), Variable("Y")]
)
_pred_leaves = st.one_of(
    _terms.map(InAtom),
    st.tuples(_terms, _terms).map(lambda p: RAtom(*p)),
    st.tuples(_terms, _terms).map(lambda p: EqAtom(*p)),
    st.sampled_from([UndConst(), Top(), Bot()]),
)
_pred_trees = st.recursive(
    _pred_leaves,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(sub, sub).map(lambda p: Imp(*p)),
        sub.map(lambda b: Forall("X", b)),
        sub.map(lambda b: Exists("Y", b)),
    ),
    max_leaves=12,
)


@given(_pred_trees)
def test_pred_format_parse_round_trip(f):
    assert parse_pred(format_formula(f)) == f


def test_nesting_limit_raises_parse_error():
    assert parse_prop("~" * MAX_NESTING + "x") is not None
    assert parse_prop("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == Atom("x")
    for text in [
        "~" * (MAX_NESTING + 1) + "x",
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "x -> " * (MAX_NESTING + 1) + "x",
        "~" * 3000 + "x",
    ]:
        with pytest.raises(ParseError, match="nested deeper"):
            parse_prop(text)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_pred("forall X (" * MAX_NESTING + "In(X)" + ")" * MAX_NESTING)
