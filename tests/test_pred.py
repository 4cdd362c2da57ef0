"""Predicate layer: quantifier semantics, interpretation search, meta formulas."""

import itertools
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from g3arg import meta, pred
from g3arg.af import Framework
from g3arg.pred import (
    Constant,
    EqAtom,
    Exists,
    Forall,
    InAtom,
    PredInterp,
    RAtom,
    StatusRef,
    Variable,
    build_meta,
    classical_eval,
    enumerate_interps,
    free_vars,
    grounding,
    is_closed,
    pred_value,
    relation_to_r_val,
    walk,
)
from g3arg.prop import (
    TRUE, And, Atom, Bot, EvalError, Imp, Neg, Or, Program, Top, UndConst, conj, disj, link, scan,
)
from g3arg.syntax import format_formula
from g3arg.threeval import ThreeVal, VALUE_ORDER, World
from g3arg.translate import verify_pred_theory
from oracle import ac_normal_form

A = Constant("a")
B = Constant("b")
X = Variable("X")


def interp(in_val, r_pairs=(), domain=("a", "b")):
    """Build an interpretation with TT on r_pairs and FF elsewhere."""
    return PredInterp(
        tuple(domain),
        dict(in_val),
        relation_to_r_val(domain, r_pairs),
    )


def test_free_vars_and_closure():
    f = Forall("X", Imp(RAtom(X, A), InAtom(Variable("Y"))))
    assert free_vars(f) == {"Y"}
    assert not is_closed(f)
    assert is_closed(Forall("X", Exists("Y", RAtom(X, Variable("Y")))))
    assert free_vars(EqAtom(A, B)) == set()


def test_walk_covers_every_node():
    f = Forall("X", Imp(InAtom(X), Neg(RAtom(X, X))))
    kinds = [type(n).__name__ for n in walk(f)]
    assert kinds == ["Forall", "Imp", "InAtom", "Neg", "RAtom"]


def test_atoms_read_their_profiles():
    m = interp({"a": ThreeVal.FT, "b": ThreeVal.TT}, [("b", "a")])
    assert not pred_value(InAtom(A), m).at(World.HERE)
    assert pred_value(InAtom(A), m).at(World.THERE)
    assert pred_value(RAtom(B, A), m).at(World.HERE)
    assert not pred_value(RAtom(A, B), m).at(World.HERE)


def test_equality_is_name_identity():
    m = interp({"a": ThreeVal.FF, "b": ThreeVal.FF})
    assert pred_value(EqAtom(A, A), m).at(World.HERE)
    assert not pred_value(EqAtom(A, B), m).at(World.HERE)
    assert pred_value(EqAtom(X, B), m, v={"X": "b"}).at(World.HERE)


def test_term_resolution_errors():
    m = interp({"a": ThreeVal.FF, "b": ThreeVal.FF})
    with pytest.raises(EvalError):
        pred_value(InAtom(Variable("Z")), m)
    with pytest.raises(EvalError):
        pred_value(InAtom(Constant("zz")), m)


def test_negation_consults_the_upper_world():
    # In(a) undetermined: false here, yet its negation is not true here.
    m = interp({"a": ThreeVal.FT, "b": ThreeVal.FF})
    assert not pred_value(InAtom(A), m).at(World.HERE)
    assert not pred_value(Neg(InAtom(A)), m).at(World.HERE)
    assert pred_value(Neg(InAtom(B)), m).at(World.HERE)


def test_forall_spans_both_worlds():
    m = interp({"a": ThreeVal.TT, "b": ThreeVal.FT})
    f = Forall("X", Or(InAtom(X), Neg(InAtom(X))))
    # b is undetermined, so the excluded-middle body fails here but not there.
    assert pred_value(f, m) is ThreeVal.FT


def test_exists_stays_at_the_current_world():
    m = interp({"a": ThreeVal.FF, "b": ThreeVal.FT})
    g = Exists("X", InAtom(X))
    assert pred_value(g, m) is ThreeVal.FT
    assert pred_value(Exists("X", Neg(InAtom(X))), m) is ThreeVal.TT


def test_status_ref_reads_the_table():
    m = interp({"a": ThreeVal.FF, "b": ThreeVal.FF})
    ref = StatusRef("unit")
    assert pred_value(ref, m, {"unit": ThreeVal.FT}) is ThreeVal.FT
    assert not pred_value(ref, m, {"unit": ThreeVal.FT}).at(World.HERE)
    with pytest.raises(EvalError):
        pred_value(ref, m)
    with pytest.raises(EvalError):
        pred_value(ref, m, {"other": ThreeVal.TT})


def test_pred_value_requires_closed_formula():
    m = interp({"a": ThreeVal.TT, "b": ThreeVal.TT})
    with pytest.raises(EvalError):
        pred_value(InAtom(X), m)


terms = st.sampled_from([A, B, X])
pred_leaves = st.one_of(
    st.builds(InAtom, terms),
    st.builds(RAtom, terms, terms),
    st.builds(EqAtom, terms, terms),
    st.just(UndConst()),
    st.just(Top()),
    st.just(Bot()),
)
pred_formulas = st.recursive(
    pred_leaves,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Imp, inner, inner),
        st.builds(Exists, st.just("X"), inner),
        st.builds(Forall, st.just("X"), inner),
    ),
    max_leaves=10,
)
closed_formulas = st.builds(Forall, st.just("X"), pred_formulas)
profiles = st.sampled_from(VALUE_ORDER)
interps = st.builds(
    lambda ia, ib, rvals: PredInterp(
        ("a", "b"),
        {"a": ia, "b": ib},
        dict(zip([(u, x) for u in "ab" for x in "ab"], rvals)),
    ),
    profiles,
    profiles,
    st.tuples(profiles, profiles, profiles, profiles),
)


@given(closed_formulas, interps)
def test_truth_persists_upward(f, m):
    if pred_value(f, m).at(World.HERE):
        assert pred_value(f, m).at(World.THERE)


@given(closed_formulas, interps)
def test_pred_value_is_the_pair_of_world_checks(f, m):
    """At each world, ``forall X g`` holds exactly when ``g`` holds there
    under every valuation of X, each instance read through ``v``."""
    instances = [pred_value(f.body, m, v={"X": d}) for d in m.domain]
    for w in World:
        assert pred_value(f, m).at(w) == all(g.at(w) for g in instances)


def test_interp_is_unhashable():
    m = PredInterp(
        ("a", "b"),
        {"a": ThreeVal.FF, "b": ThreeVal.FF},
        {
            ("a", "a"): ThreeVal.TT,
            ("a", "b"): ThreeVal.FT,
            ("b", "a"): ThreeVal.FF,
            ("b", "b"): ThreeVal.TT,
        },
    )
    with pytest.raises(TypeError):
        hash(m)


def test_relation_to_r_val_spreads_over_all_pairs():
    r = relation_to_r_val(("a", "b"), [("a", "b")])
    assert set(r) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
    assert r[("a", "b")] is ThreeVal.TT
    assert r[("b", "a")] is ThreeVal.FF


def test_enumerate_interps_r_modes():
    empty = enumerate_interps(("a",), [])
    assert len(empty) == 9
    assert len(enumerate_interps(("a",), [], r_decided=True)) == 6

    pinned = enumerate_interps(("a",), [RAtom(A, A)], fixed_r=[("a", "a")])
    assert len(pinned) == 3
    assert all(m.r_val[("a", "a")] is ThreeVal.TT for m in pinned)

    # a true negation pins the profile to FF, not merely false-here
    denial = enumerate_interps(("a",), [Neg(RAtom(A, A))])
    assert len(denial) == 3
    assert all(m.r_val[("a", "a")] is ThreeVal.FF for m in denial)


def test_pinned_relation_pairs_must_name_domain_elements():
    with pytest.raises(ValueError, match=r"\('a', 'zz'\)"):
        enumerate_interps(("a",), [], fixed_r=[("a", "a"), ("a", "zz")])
    with pytest.raises(ValueError, match="outside the domain"):
        relation_to_r_val(("a", "b"), [("c", "a")])


def test_classical_eval_rejects_a_pair_outside_the_domain():
    """The pair is named, with the message every pinned relation gives."""
    X = Variable("X")
    message = r"relation pair \('zz', 'zz'\) names an element outside the domain"
    with pytest.raises(ValueError, match=message):
        classical_eval(Exists("X", RAtom(X, X)), ("a", "b"), [("zz", "zz")])
    with pytest.raises(ValueError, match=message):
        relation_to_r_val(("a", "b"), [("zz", "zz")])
    with pytest.raises(ValueError, match=r"\('a', 'c'\)"):
        relation_to_r_val(("a", "b"), [("a", "b"), ("a", "c")])


def test_a_domain_listing_an_element_twice_is_refused():
    """Two positions of one name would list each model more than once."""
    message = r"domain element 'a' is listed twice"
    with pytest.raises(ValueError, match=message):
        enumerate_interps(("a", "a"), [InAtom(A)], fixed_r=[])
    with pytest.raises(ValueError, match=message):
        enumerate_interps(("a", "b", "a"), [], r_decided=True)
    m = PredInterp(("a", "a"), {"a": ThreeVal.TT}, {("a", "a"): ThreeVal.FF})
    with pytest.raises(ValueError, match=message):
        pred_value(InAtom(A), m)
    with pytest.raises(ValueError, match=message):
        grounding(("b", "a", "a"))


def test_grounding_rejects_propositional_atoms():
    for pins in ({}, {("a", "a"): TRUE}):
        with pytest.raises(EvalError, match="not a predicate formula node"):
            program = Program([And(RAtom(A, A), Atom("x"))], grounding(("a",)))
            link([(program, lambda key: pins.get(key, key))])


def test_a_pinned_relation_does_not_hide_an_unknown_constant():
    """The constant is refused while compiling, before the pins fold R(a,a)."""
    f = Or(RAtom(A, A), InAtom(Constant("zz")))
    for fixed_r in (None, [], [("a", "a")]):
        with pytest.raises(EvalError, match="constant 'zz' names no domain element"):
            enumerate_interps(("a",), [f], fixed_r=fixed_r)


def test_no_scan_has_a_one_choice_dimension():
    """A pinned relation is linked in, not scanned as one-choice dimensions."""

    def checked(dims, parts):
        assert all(len(choices) > 1 for _, choices in dims), dims
        return scan(dims, parts)

    theory = [Forall("X", Imp(RAtom(X, A), Or(UndConst(), Neg(InAtom(X)))))]
    with patch.object(pred, "scan", checked), patch.object(meta, "scan", checked):
        assert len(enumerate_interps(("a", "b"), theory, fixed_r=[("b", "a")])) == 3
        assert enumerate_interps(("a", "b"), theory, r_decided=True)
        hn = meta.HigherNetwork.make(["a", "b"], [], [("a", "b")])
        assert meta.solve_higher(hn, fixed_r=[("a", "b")])
        assert verify_pred_theory(Framework.make(["a", "b"], [("a", "b")])).ok


def test_enumerate_interps_matches_direct_search():
    dom = ("a", "b")
    theory = [
        Imp(InAtom(A), Or(UndConst(), RAtom(A, B))),
        Neg(RAtom(B, B)),
        Forall("X", Imp(RAtom(X, A), Or(UndConst(), Neg(InAtom(X))))),
    ]
    pairs = [(u, x) for u in dom for x in dom]
    direct = []
    for rcombo in itertools.product(VALUE_ORDER, repeat=len(pairs)):
        r_val = dict(zip(pairs, rcombo))
        for icombo in itertools.product(VALUE_ORDER, repeat=len(dom)):
            m = PredInterp(dom, dict(zip(dom, icombo)), r_val)
            if all(pred_value(f, m).at(World.HERE) for f in theory):
                direct.append(m)
    assert enumerate_interps(dom, theory) == direct
    assert len(direct) == 119


def test_classical_eval_over_relation_and_equality():
    dom = ("a", "b")
    rel = [("a", "b")]
    assert classical_eval(RAtom(A, B), dom, rel)
    assert classical_eval(Neg(RAtom(B, A)), dom, rel)
    assert classical_eval(Exists("X", RAtom(A, X)), dom, rel)
    assert not classical_eval(Forall("X", RAtom(A, X)), dom, rel)
    assert classical_eval(
        Forall("X", Imp(RAtom(X, B), EqAtom(X, A))), dom, rel
    )


def test_classical_eval_rejects_modal_vocabulary():
    with pytest.raises(EvalError):
        classical_eval(InAtom(A), ("a",), [])
    with pytest.raises(EvalError):
        classical_eval(Or(UndConst(), RAtom(A, A)), ("a",), [])


def test_meta_formula_builders():
    assert format_formula(build_meta("attacks_all_others", "a")) == (
        "forall X (X!=a -> R(a,X))"
    )
    assert format_formula(build_meta("attacked_by_all_others", "a")) == (
        "forall X (X!=a -> R(X,a))"
    )
    assert format_formula(build_meta("same_targets", "a", "b")) == (
        "forall X ((R(a,X) -> R(b,X)) & (R(b,X) -> R(a,X)))"
    )
    assert format_formula(build_meta("attacks_self_attackers", "a")) == (
        "forall X ((R(a,X) -> R(X,X)) & (R(X,X) -> R(a,X)))"
    )
    with pytest.raises(ValueError):
        build_meta("attacks_everything", "a")


def test_meta_formulas_say_what_they_mean():
    dom = ("a", "b", "c")
    hub = [("a", "b"), ("a", "c")]
    assert classical_eval(build_meta("attacks_all_others", "a"), dom, hub)
    assert not classical_eval(build_meta("attacks_all_others", "b"), dom, hub)
    assert classical_eval(
        build_meta("attacked_by_all_others", "b"), dom, [("a", "b"), ("c", "b")]
    )
    assert classical_eval(
        build_meta("same_targets", "a", "b"), dom, [("a", "c"), ("b", "c")]
    )
    assert classical_eval(
        build_meta("attacks_self_attackers", "a"), dom, [("b", "b"), ("a", "b")]
    )


def test_ac_normal_form_identifies_reordered_chains():
    p, q, r = InAtom(A), RAtom(A, B), EqAtom(A, B)
    assert ac_normal_form(And(p, And(q, r))) == ac_normal_form(
        And(And(r, q), p)
    )
    assert ac_normal_form(Or(p, Or(q, r))) == ac_normal_form(Or(r, Or(p, q)))
    assert ac_normal_form(And(p, q)) != ac_normal_form(Or(p, q))
    # normalization reaches under negation, implication and quantifiers
    assert ac_normal_form(Neg(And(p, q))) == ac_normal_form(Neg(And(q, p)))
    assert ac_normal_form(Imp(Or(p, q), r)) == ac_normal_form(Imp(Or(q, p), r))
    assert ac_normal_form(Forall("X", And(p, q))) == ac_normal_form(
        Forall("X", And(q, p))
    )


@given(st.sampled_from([(And, conj), (Or, disj)]), st.lists(pred_formulas, min_size=1, max_size=6),
       st.data())
def test_ac_normal_form_identifies_reassociated_and_reordered_chains(chain, parts, data):
    """Any bracketing of any order of ``parts`` under one of And and Or has
    the normal form of their right-nested chain in the given order."""
    kind, nest = chain

    def bracket(items):
        if len(items) == 1:
            return items[0]
        cut = data.draw(st.integers(1, len(items) - 1))
        return kind(bracket(items[:cut]), bracket(items[cut:]))

    shuffled = data.draw(st.permutations(parts))
    assert ac_normal_form(bracket(shuffled)) == ac_normal_form(nest(parts))


@given(pred_formulas)
def test_ac_normal_form_is_idempotent(f):
    g = ac_normal_form(f)
    assert ac_normal_form(g) == g
