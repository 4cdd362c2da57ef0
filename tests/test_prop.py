"""Two-world propositional semantics: profiles, evaluation, models, validity."""

import pytest
from hypothesis import given, strategies as st

from g3arg.prop import (
    And,
    Atom,
    Bot,
    EvalError,
    Imp,
    Neg,
    Or,
    Top,
    UndConst,
    atoms_of,
    conj,
    disj,
    enumerate_models,
    eval_world,
    iff,
    is_valid,
    replace_und,
    select_assignments,
    substitute,
    value,
)
from g3arg.threeval import DECIDED_ORDER, VALUE_ORDER, ThreeVal, World


def test_profile_accessors():
    assert ThreeVal.FT.here is False
    assert ThreeVal.FT.there is True
    assert ThreeVal.TT.at(World.HERE) and ThreeVal.TT.at(World.THERE)
    assert ThreeVal.FF.decided and ThreeVal.TT.decided
    assert not ThreeVal.FT.decided


def test_inadmissible_profile_rejected():
    with pytest.raises(ValueError):
        ThreeVal.from_pair(True, False)
    assert ThreeVal.from_pair(False, True) is ThreeVal.FT


def test_world_order():
    assert World.HERE.and_above() == (World.HERE, World.THERE)
    assert World.THERE.and_above() == (World.THERE,)


def test_negation_blocked_by_upper_world():
    # q true at THERE blocks ~q at HERE even though q is false there
    assert eval_world(World.HERE, Neg(Atom("q")), {"q": ThreeVal.FT}) is False
    assert value(Neg(Atom("q")), {"q": ThreeVal.FT}) is ThreeVal.FF
    assert value(Neg(Atom("q")), {"q": ThreeVal.FF}) is ThreeVal.TT
    assert value(Neg(Atom("q")), {"q": ThreeVal.TT}) is ThreeVal.FF


def test_und_constant_profile():
    n = UndConst()
    assert value(n, {}) is ThreeVal.FT
    assert eval_world(World.HERE, Or(n, Neg(n)), {}) is False
    assert eval_world(World.HERE, Imp(Neg(Neg(n)), n), {}) is False
    assert eval_world(World.THERE, n, {}) is True


def test_excluded_middle_profile():
    f = Or(Atom("q"), Neg(Atom("q")))
    assert value(f, {"q": ThreeVal.FT}) is ThreeVal.FT
    assert value(f, {"q": ThreeVal.FF}) is ThreeVal.TT
    assert value(Top(), {}) is ThreeVal.TT
    assert value(Bot(), {}) is ThreeVal.FF


def test_implication_value_table():
    # x -> y is fully true when x is at most y, otherwise it falls to y
    order = {ThreeVal.FF: 0, ThreeVal.FT: 1, ThreeVal.TT: 2}
    f = Imp(Atom("x"), Atom("y"))
    for vx in VALUE_ORDER:
        for vy in VALUE_ORDER:
            got = value(f, {"x": vx, "y": vy})
            want = ThreeVal.TT if order[vx] <= order[vy] else vy
            assert got is want, (vx, vy)


def test_missing_atom_is_an_error():
    with pytest.raises(EvalError):
        eval_world(World.HERE, Atom("q"), {})
    with pytest.raises(EvalError):
        atoms_of(object())  # type: ignore[arg-type]


_formulas = st.recursive(
    st.sampled_from(
        [Atom("x"), Atom("y"), Atom("z"), UndConst(), Top(), Bot()]
    ),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(sub, sub).map(lambda p: Imp(*p)),
    ),
    max_leaves=12,
)

_values = st.sampled_from(VALUE_ORDER)


@given(_formulas, _values, _values, _values)
def test_persistence(f, vx, vy, vz):
    h = {"x": vx, "y": vy, "z": vz}
    if eval_world(World.HERE, f, h):
        assert eval_world(World.THERE, f, h)


@given(_formulas, _values, _values, _values)
def test_value_agrees_with_eval(f, vx, vy, vz):
    h = {"x": vx, "y": vy, "z": vz}
    v = value(f, h)
    assert v.here == eval_world(World.HERE, f, h)
    assert v.there == eval_world(World.THERE, f, h)


def test_monotone_on_lattice_fragment():
    # and/or formulas respect the pointwise FF < FT < TT order
    f = Or(And(Atom("x"), Atom("y")), Atom("z"))
    order = {v: i for i, v in enumerate(VALUE_ORDER)}
    points = [
        {"x": a, "y": b, "z": c}
        for a in VALUE_ORDER
        for b in VALUE_ORDER
        for c in VALUE_ORDER
    ]
    for h1 in points:
        for h2 in points:
            if all(order[h1[k]] <= order[h2[k]] for k in h1):
                assert order[value(f, h1)] <= order[value(f, h2)]


def test_enumerate_models_basics():
    q = Atom("q")
    assert enumerate_models([q], ["q"]) == [{"q": ThreeVal.TT}]
    assert enumerate_models([Neg(q)], ["q"]) == [{"q": ThreeVal.FF}]


def test_denying_excluded_middle_has_no_models():
    # q | ~q never evaluates fully false, so its denial is unsatisfiable
    theory = [Imp(Or(Atom("q"), Neg(Atom("q"))), Bot())]
    assert enumerate_models(theory, ["q"]) == []


def test_enumerate_models_order_and_extra_atoms():
    models = enumerate_models([Or(Atom("q"), Neg(Atom("q")))], ["q", "r"])
    assert [m["q"] for m in models[:3]] == [ThreeVal.FF] * 3
    assert len(models) == 6  # q decided, r free
    assert all(m["q"] in DECIDED_ORDER for m in models)


def test_assignments_respect_given_order():
    got = list(select_assignments(["b", "a"], lambda table, full: full))
    assert got[0] == {"b": ThreeVal.FF, "a": ThreeVal.FF}
    assert got[1] == {"b": ThreeVal.FF, "a": ThreeVal.FT}
    assert len(got) == 9


def test_validity_verdicts():
    x, y = Atom("x"), Atom("y")
    ok, counter = is_valid(Or(Imp(x, y), Imp(y, x)))
    assert ok and counter is None
    ok, counter = is_valid(Or(x, Neg(x)))
    assert not ok
    assert counter == {"x": ThreeVal.FT}
    ok, counter = is_valid(Imp(Neg(Neg(x)), x))
    assert not ok
    assert counter == {"x": ThreeVal.FT}


def test_substitute_and_replace_und():
    f = Imp(Atom("x"), Or(UndConst(), Neg(Atom("y"))))
    g = substitute(f, {"x": And(Atom("p"), Atom("q"))})
    assert atoms_of(g) == {"p", "q", "y"}
    h = replace_und(f, Bot())
    assert h == Imp(Atom("x"), Or(Bot(), Neg(Atom("y"))))


def test_connective_builders():
    x, y, z = Atom("x"), Atom("y"), Atom("z")
    assert conj([]) == Top()
    assert disj([]) == Bot()
    assert conj([x]) == x
    assert conj([x, y, z]) == And(x, And(y, z))
    assert disj([x, y]) == Or(x, y)
    assert iff(x, y) == And(Imp(x, y), Imp(y, x))
