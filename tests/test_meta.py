"""Higher networks: unit declaration, starred clauses, generalized models."""

import pytest

from g3arg.meta import (
    GeneralizedModel,
    HigherNetwork,
    SearchSpaceExceeded,
    WffUnit,
    attack_formula,
    solve_higher,
    star_theory,
)
from g3arg.pred import Constant, Exists, InAtom, RAtom, Variable
from g3arg.prop import Neg
from g3arg.syntax import format_formula, parse_pred
from g3arg.translate import serialize_theory

A = Constant("a")
X = Variable("X")


def worked_network():
    """Four nodes, three plain attacks, one attack in each higher direction."""
    return HigherNetwork.make(
        ["a", "b", "c", "d"],
        [],
        [("a", "b"), ("a", "c"), ("c", "d"), ("a", "r(c,d)"), ("r(a,b)", "d")],
    )


def loop_network():
    """One node plus its own attack atom as an undeclared-attack unit."""
    return HigherNetwork.make(["a"], [("r(a,a)", RAtom(A, A))], [])


def formula_target_network():
    """A single node attacking `some element does not attack itself`."""
    return HigherNetwork.make(
        ["a"], [("phi", Exists("X", Neg(RAtom(X, X))))], [("a", "phi")]
    )


def test_make_auto_declares_relation_atom_endpoints():
    hn = worked_network()
    assert hn.nodes == ("a", "b", "c", "d")
    assert [u.name for u in hn.wffs] == ["r(a,b)", "r(c,d)"]
    assert all(u.is_r_atom for u in hn.wffs)
    assert hn.unit_names() == ("a", "b", "c", "d", "r(a,b)", "r(c,d)")
    assert hn.is_node("a") and not hn.is_node("r(a,b)")
    assert hn.wff("r(c,d)").formula == RAtom(Constant("c"), Constant("d"))
    with pytest.raises(KeyError):
        hn.wff("r(b,a)")


def test_is_r_atom_needs_constant_endpoints():
    assert WffUnit("u", RAtom(A, A)).is_r_atom
    assert not WffUnit("u", RAtom(A, X)).is_r_atom
    assert not WffUnit("u", Neg(RAtom(A, A))).is_r_atom


def test_make_validation():
    with pytest.raises(ValueError):
        HigherNetwork.make([])
    with pytest.raises(ValueError):
        HigherNetwork.make(["a"], [("u", RAtom(A, A)), ("u", InAtom(A))])
    with pytest.raises(ValueError):
        HigherNetwork.make(["a"], [("a", RAtom(A, A))])
    with pytest.raises(ValueError):
        HigherNetwork.make(["a"], [("u", InAtom(X))])
    with pytest.raises(ValueError):
        HigherNetwork.make(["a"], [("u", InAtom(Constant("b")))])
    with pytest.raises(ValueError):
        HigherNetwork.make(["a"], [], [("a", "ghost")])
    with pytest.raises(ValueError, match="unknown element 'zz'"):
        HigherNetwork.make(["a"], [("u", parse_pred("exists X (X = zz)"))])


def test_attack_formula_conventions():
    hn = worked_network()
    assert format_formula(attack_formula(hn, "a", "b")) == (
        "In(a) & R(a,b) -> ~In(b)"
    )
    assert format_formula(attack_formula(hn, "a", "r(c,d)")) == (
        "In(a) -> ~R(c,d)"
    )
    assert format_formula(attack_formula(hn, "r(a,b)", "d")) == (
        "R(a,b) -> ~In(d)"
    )
    pair = HigherNetwork.make(
        ["a"],
        [("phi", Neg(InAtom(A))), ("psi", Exists("X", InAtom(X)))],
        [("phi", "psi")],
    )
    assert format_formula(attack_formula(pair, "phi", "psi")) == (
        "~In(a) -> ~(exists X (In(X)))"
    )


def test_per_attack_clause_display():
    t = star_theory(worked_network(), implicit=False)
    assert serialize_theory(t) == "\n".join([
        "a1[b<-a]: In(b) -> #n | ~In(a) | ~R(a,b)",
        "a1[c<-a]: In(c) -> #n | ~In(a) | ~R(a,c)",
        "a1[r(c,d)<-a]: R(c,d) -> #n | ~In(a)",
        "a1[d<-c]: In(d) -> #n | ~In(c) | ~R(c,d)",
        "a1[d<-r(a,b)]: In(d) -> #n | ~R(a,b)",
        "a2[b<-a]: ~In(a) | ~R(a,b) -> #n | In(b)",
        "a2[c<-a]: ~In(a) | ~R(a,c) -> #n | In(c)",
        "a2[r(c,d)<-a]: ~In(a) -> #n | R(c,d)",
        "a2[d<-c]: ~In(c) | ~R(c,d) -> #n | In(d)",
        "a2[d<-r(a,b)]: ~R(a,b) -> #n | In(d)",
        "b1[b<-a]: ~In(b) -> #n | In(a) & R(a,b)",
        "b1[c<-a]: ~In(c) -> #n | In(a) & R(a,c)",
        "b1[r(c,d)<-a]: ~R(c,d) -> #n | In(a)",
        "b1[d<-c]: ~In(d) -> #n | In(c) & R(c,d)",
        "b1[d<-r(a,b)]: ~In(d) -> #n | R(a,b)",
        "b2[b<-a]: In(a) & R(a,b) -> #n | ~In(b)",
        "b2[c<-a]: In(a) & R(a,c) -> #n | ~In(c)",
        "b2[r(c,d)<-a]: In(a) -> #n | ~R(c,d)",
        "b2[d<-c]: In(c) & R(c,d) -> #n | ~In(d)",
        "b2[d<-r(a,b)]: R(a,b) -> #n | ~In(d)",
    ])


def test_per_unit_clauses_for_undeclared_attack_atom():
    t = star_theory(loop_network())
    # the attacker-less relation atom keeps its bounds except the forcing a2
    assert serialize_theory(t) == "\n".join([
        "a1[a]: In(a) -> #n | ~In(a) | ~R(a,a)",
        "a2[a]: ~In(a) | ~R(a,a) -> #n | In(a)",
        "b1[a]: ~In(a) -> #n | In(a) & R(a,a)",
        "b2[a]: In(a) & R(a,a) -> #n | ~In(a)",
        "a1[r(a,a)]: R(a,a) -> #n | true",
        "b1[r(a,a)]: ~R(a,a) -> #n | false",
        "b2[r(a,a)]: false -> #n | ~R(a,a)",
    ])


def test_per_unit_clauses_for_attacked_formula():
    t = star_theory(formula_target_network())
    assert serialize_theory(t) == "\n".join([
        "a1[a]: In(a) -> #n | ~In(a) | ~R(a,a)",
        "a2[a]: ~In(a) | ~R(a,a) -> #n | In(a)",
        "b1[a]: ~In(a) -> #n | In(a) & R(a,a)",
        "b2[a]: In(a) & R(a,a) -> #n | ~In(a)",
        "a1[phi]: (exists X (~R(X,X))) -> #n | ~In(a)",
        "a2[phi]: ~In(a) -> #n | (exists X (~R(X,X)))",
        "b1[phi]: ~(exists X (~R(X,X))) -> #n | In(a)",
        "b2[phi]: In(a) -> #n | ~(exists X (~R(X,X)))",
    ])


def test_per_unit_regime_already_contains_node_attacks():
    declared = HigherNetwork.make(["a", "b"], [], [("a", "b")])
    plain = HigherNetwork.make(["a", "b"])
    assert serialize_theory(star_theory(declared)) == serialize_theory(
        star_theory(plain)
    )


def test_solver_on_the_undeclared_attack_atom():
    models = solve_higher(loop_network())
    assert [
        (m.in_value("a").name, m.status("r(a,a)").name) for m in models
    ] == [("FT", "FT"), ("FT", "TT")]
    with pytest.raises(KeyError):
        models[0].status("zz")


def test_solver_on_the_attacked_formula():
    models = solve_higher(formula_target_network())
    assert [
        (m.in_value("a").name, m.status("phi").name,
         m.interp.r_val[("a", "a")].name)
        for m in models
    ] == [("FT", "FT", "FT"), ("FT", "FT", "TT")]


def test_solver_on_a_single_free_node():
    models = solve_higher(HigherNetwork.make(["a"]))
    assert [
        (m.in_value("a").name, m.interp.r_val[("a", "a")].name)
        for m in models
    ] == [("FT", "FT"), ("FT", "TT"), ("TT", "FF")]


def test_pinned_relation_reduces_to_plain_labellings():
    one = HigherNetwork.make(["a"])
    assert [
        m.in_value("a").name for m in solve_higher(one, fixed_r=[])
    ] == ["TT"]
    assert [
        m.in_value("a").name for m in solve_higher(one, fixed_r=[("a", "a")])
    ] == ["FT"]
    two = HigherNetwork.make(["a", "b"])
    cycle = solve_higher(two, fixed_r=[("a", "b"), ("b", "a")])
    assert [
        (m.in_value("a").name, m.in_value("b").name) for m in cycle
    ] == [("FF", "TT"), ("FT", "FT"), ("TT", "FF")]


def test_pinned_decided_relation_can_starve_an_attacked_atom():
    # with r crisp, the attacked relation atom r(c,d) has no admissible
    # standing: it holds at both worlds yet its attacker cannot be in
    models = solve_higher(
        worked_network(), fixed_r=[("a", "b"), ("a", "c"), ("c", "d")]
    )
    assert models == []


def test_search_guard():
    with pytest.raises(SearchSpaceExceeded) as exc:
        solve_higher(worked_network())
    assert "22 three-valued unknowns exceed the bound 14" in str(exc.value)
    # pinning the relation brings the same network under the bound
    solve_higher(worked_network(), fixed_r=[])
    with pytest.raises(SearchSpaceExceeded):
        solve_higher(HigherNetwork.make(["a", "b"]), max_unknowns=5)


def test_generalized_model_accessors():
    (m, _) = solve_higher(loop_network())
    assert isinstance(m, GeneralizedModel)
    assert m.in_value("a") is m.interp.in_val["a"]
    assert dict(m.statuses)["r(a,a)"] is m.status("r(a,a)")
