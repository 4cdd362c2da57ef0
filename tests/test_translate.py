"""Translation routes: clause theories, marker elimination, instantiation,
quantified clauses and the domain diagram."""

import functools
import itertools
import operator
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from g3arg import prop, translate
from g3arg.aaf import AxiomaticFrame, aaf_extensions
from g3arg.af import Framework, Label, canonical
from g3arg.corpus import all_frameworks, random_framework
from g3arg.prop import ALL, LEAF, Atom, Program, link, scan, select_assignments
from g3arg.syntax import parse_pred, parse_prop
from g3arg.pred import grounding, is_closed, relation_to_r_val
from g3arg.threeval import DECIDED_ORDER, VALUE_ORDER, ThreeVal
from g3arg.translate import (
    CorrespondenceReport,
    Theory,
    assignment_to_labelling,
    clause_parts,
    domain_diagram,
    framework_key,
    instantiate,
    instantiated_models,
    instantiation_patterns,
    labelling_to_assignment,
    pred_theory,
    prop_theory,
    serialize_theory,
    stable_theory,
    und_definition,
    und_free_theories,
    verify_domain_diagram,
    verify_pred_theory,
    verify_prop_theory,
    verify_und_free,
)


def labels(lab):
    return {k: v.value for k, v in lab.items()}


TWO_CYCLE = Framework.make(["a", "b"], [("a", "b"), ("b", "a")])
SINGLE = Framework.make(["a"], [])
LOOP = Framework.make(["a"], [("a", "a")])


def test_theory_clause_access():
    t = prop_theory(SINGLE)
    assert [name for name, _ in t.clauses] == [
        "a1[a]", "a2[a]", "b1[a]", "b2[a]",
    ]
    assert t.clause("b1[a]") is t.clauses[2][1]
    with pytest.raises(KeyError):
        t.clause("a1[zz]")
    with pytest.raises(ValueError):
        Theory("t", (("c", Atom("x")), ("c", Atom("y"))))


def test_prop_theory_two_cycle_rendering():
    assert serialize_theory(prop_theory(TWO_CYCLE)) == "\n".join([
        "a1[a]: a -> #n | ~b",
        "a2[a]: ~b -> #n | a",
        "b1[a]: ~a -> #n | b",
        "b2[a]: b -> ~a | #n",
        "a1[b]: b -> #n | ~a",
        "a2[b]: ~a -> #n | b",
        "b1[b]: ~b -> #n | a",
        "b2[b]: a -> ~b | #n",
    ])


def test_prop_theory_keeps_empty_boundaries_literal():
    # no attackers: conjunction collapses to true, disjunction to false
    assert serialize_theory(prop_theory(SINGLE)) == "\n".join([
        "a1[a]: a -> #n | true",
        "a2[a]: true -> #n | a",
        "b1[a]: ~a -> #n | false",
        "b2[a]: false -> ~a | #n",
    ])


def test_framework_key():
    assert framework_key(TWO_CYCLE) == "a,b|a>b,b>a"
    assert framework_key(SINGLE) == "a|-"


def test_labelling_assignment_round_trip():
    lab = {"a": Label.IN, "b": Label.OUT, "c": Label.UND}
    h = labelling_to_assignment(lab)
    assert h == {"a": ThreeVal.TT, "b": ThreeVal.FF, "c": ThreeVal.FT}
    assert assignment_to_labelling(h) == lab


@pytest.mark.parametrize(
    "f",
    [
        SINGLE,
        LOOP,
        TWO_CYCLE,
        Framework.make(["a", "b"], [("a", "b")]),
        Framework.make(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]),
        Framework.make(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "b")]),
    ],
)
def test_prop_models_are_the_complete_labellings(f):
    report = verify_prop_theory(f)
    assert report.ok
    assert report.model_count == report.labelling_count == report.matched


def test_prop_verification_counts_on_two_cycle():
    report = verify_prop_theory(TWO_CYCLE)
    assert (report.model_count, report.labelling_count) == (3, 3)
    assert report.subject == "a,b|a>b,b>a"
    assert report.extra_models == () and report.extra_labellings == ()


def test_report_flags_disagreements():
    bad = CorrespondenceReport(
        subject="x|-",
        model_count=1,
        labelling_count=0,
        matched=0,
        extra_models=((("x", "in"),),),
        extra_labellings=(),
    )
    assert not bad.ok


def test_every_verifier_reports_a_labelling_the_search_missed():
    """The search misses the und labelling of a fresh two-cycle: each verifier
    finds it as its one extra model, with every count."""
    search, und = translate.enumerate_complete, (("a", "und"), ("b", "und"))
    with patch.object(translate, "enumerate_complete", lambda f: search(f)[:-1]):
        f = Framework.make("ab", [("a", "b"), ("b", "a")])
        key = framework_key(f)
        for report in (verify_prop_theory(f), verify_pred_theory(f)):
            assert report == CorrespondenceReport(key, 3, 2, 2, (und,), ())
        und_free = verify_und_free(f)
        assert und_free.stable.ok and not und_free.union_ok
        assert und_free.non_stable == CorrespondenceReport(
            key + " (undecided case)", 1, 0, 0, (und,), ()
        )
        both = (("a", "b"), ("b", "a"))
        assert verify_domain_diagram(f) == translate.DiagramReport(
            key, 3, 2, 2, ((both, und),), ()
        )


def test_und_definition_rendering():
    from g3arg.syntax import format_formula

    assert format_formula(und_definition(TWO_CYCLE)) == "(a | ~a) & (b | ~b)"


def test_und_free_theories_on_single_argument():
    stable, free = und_free_theories(SINGLE)
    assert stable.tag == "stable" and free.tag == "und-free"
    assert serialize_theory(stable) == "fix[a]: (a -> true) & (true -> a)"
    assert serialize_theory(free) == "\n".join([
        "a1[a]: a -> (a | ~a) | true",
        "a2[a]: true -> (a | ~a) | a",
        "b1[a]: ~a -> (a | ~a) | false",
        "b2[a]: false -> ~a | a | ~a",
    ])


def test_marker_elimination_splits_complete_into_two_cases():
    report = verify_und_free(TWO_CYCLE)
    assert report.ok
    assert report.stable.model_count == 2
    assert report.non_stable.model_count == 1
    assert report.union_ok


def test_marker_elimination_with_no_stable_labelling():
    report = verify_und_free(LOOP)
    assert report.ok
    assert report.stable.model_count == 0
    assert report.non_stable.model_count == 1


def test_instantiate_rewrites_attacker_occurrences_too():
    cyc = Framework.make(["x", "y"], [("x", "y"), ("y", "x")])
    t = instantiate(cyc, {"x": parse_prop("p & q")})
    assert serialize_theory(t) == "\n".join([
        "a1[x]: p & q -> #n | ~y",
        "a2[x]: ~y -> #n | p & q",
        "b1[x]: ~(p & q) -> #n | y",
        "b2[x]: y -> ~(p & q) | #n",
        "a1[y]: y -> #n | ~(p & q)",
        "a2[y]: ~(p & q) -> #n | y",
        "b1[y]: ~y -> #n | p & q",
        "b2[y]: p & q -> ~y | #n",
    ])


def test_instantiate_name_rules():
    cyc = Framework.make(["x", "y"], [("x", "y"), ("y", "x")])
    # the replaced argument may appear in its own replacement
    instantiate(cyc, {"x": parse_prop("x | p")})
    with pytest.raises(ValueError):
        instantiate(cyc, {"x": parse_prop("y | p")})
    with pytest.raises(ValueError):
        instantiate(cyc, {"z": parse_prop("p")})
    with pytest.raises(ValueError):
        instantiated_models(cyc, {"z": parse_prop("p")})
    # the model scan applies the same rules: y here would be read as argument y
    assert instantiated_models(cyc, {"x": parse_prop("x | p")})
    for route in (instantiate, instantiated_models, instantiation_patterns):
        with pytest.raises(ValueError, match=r"replacement for x reuses argument names \['y'\]"):
            route(cyc, {"x": parse_prop("~y")})


def test_instantiation_models_and_patterns():
    cyc = Framework.make(["x", "y"], [("x", "y"), ("y", "x")])
    subst = {"x": parse_prop("p | ~p")}
    models = instantiated_models(cyc, subst)
    assert [
        (h["x"].name, h["y"].name, h["p"].name) for h in models
    ] == [
        ("FF", "TT", "FT"),
        ("FT", "FT", "FT"),
        ("TT", "FF", "FF"),
        ("TT", "FF", "TT"),
    ]
    assert [labels(p) for p in instantiation_patterns(cyc, subst)] == [
        {"x": "out", "y": "in"},
        {"x": "und", "y": "und"},
        {"x": "in", "y": "out"},
    ]


def test_instantiated_models_build_no_clause_tree():
    """The clause theory is scanned from its per-shape groups: no ``prop_theory`` call."""
    f = Framework.make("xyz", [("x", "y"), ("y", "x"), ("y", "z"), ("z", "z")])
    subst = {"x": parse_prop("p | ~p"), "z": parse_prop("q -> #n")}
    want = oracle.instantiated_models(f, subst)
    assert want

    def refuse(f):
        raise AssertionError("prop_theory was called")

    with patch.object(translate, "prop_theory", refuse):
        assert instantiated_models(f, subst) == want


def test_instantiation_by_a_theorem_forces_the_argument_in():
    cyc = Framework.make(["x", "y"], [("x", "y"), ("y", "x")])
    pats = instantiation_patterns(cyc, {"x": parse_prop("true")})
    assert [labels(p) for p in pats] == [{"x": "in", "y": "out"}]


def test_pred_theory_is_framework_independent():
    t = pred_theory()
    assert [name for name, _ in t.clauses] == [
        "a1", "a2", "b1", "b2", "decided-r",
    ]
    assert serialize_theory(t) == "\n".join([
        "a1: forall X (In(X) -> #n | (forall Y (R(Y,X) -> ~In(Y))))",
        "a2: forall X ((forall Y (R(Y,X) -> ~In(Y))) -> #n | In(X))",
        "b1: forall X (~In(X) -> #n | (exists Y (R(Y,X) & In(Y))))",
        "b2: forall X ((exists Y (R(Y,X) & In(Y))) -> #n | ~In(X))",
        "decided-r: forall X (forall Y (R(X,Y) | ~R(X,Y)))",
    ])
    assert all(is_closed(g) for g in t.formulas())


@pytest.mark.parametrize(
    "f,count",
    [
        (TWO_CYCLE, 3),
        (Framework.make(["a", "b"], [("a", "b")]), 1),
        (LOOP, 1),
    ],
)
def test_pred_route_with_pinned_relation(f, count):
    report = verify_pred_theory(f)
    assert report.ok
    assert report.model_count == count


def test_pinned_relation_folds_the_quantified_clauses():
    dom = ("a", "b")
    theory = pred_theory()
    # decided-r holds of any pinned relation: every instance folds to true
    decided = relation_to_r_val(dom, [("a", "b")])
    assert _pinned([theory.clause("decided-r")], decided).code == [(ALL, ())]
    # with no attacks, R(Y,X) -> ~In(Y) folds to true, and so does a1
    a1 = _pinned([theory.clause("a1")], relation_to_r_val(dom, []))
    assert {op for op, _ in a1.code} == {ALL}
    pinned = _pinned(theory.formulas(), decided)
    assert all(type(key) is str for op, key in pinned.code if op == LEAF)  # In leaves only


def _pinned(formulas, r_val):
    """``formulas`` compiled over ``r_val``'s domain, linked with each R pair's
    key sent to TRUE or FALSE as ``r_val`` decides it."""
    dom = list(dict.fromkeys(u for u, _ in r_val))
    pins = {p: prop.TRUE if v.here else prop.FALSE for p, v in r_val.items()}
    return link([(Program(formulas, grounding(dom)), lambda key: pins.get(key, key))])


@st.composite
def skewed_domains(draw):
    """1-3 elements in any order, with R profiles that are not symmetric.

    A rename that looked ``R(i,j)`` up as the pair of the j-th and i-th
    element would read a different profile somewhere.
    """
    dom = tuple(draw(st.permutations("cba"))[: draw(st.integers(1, 3))])
    pairs = [(u, x) for u in dom for x in dom]
    profiles = st.fixed_dictionaries({p: st.sampled_from(VALUE_ORDER) for p in pairs})
    r_val = draw(profiles.filter(
        lambda r: len(dom) == 1 or any(r[u, x] is not r[x, u] for u, x in pairs)
    ))
    return dom, r_val


@settings(max_examples=100, deadline=None)
@given(skewed_domains(), st.sampled_from([prop.BATCH_BITS, 1, 3, 9]))
# three elements, so each column must stand for its own element
@example((("a", "b", "c"), dict.fromkeys(itertools.product("abc", repeat=2), ThreeVal.FF)), 1)
def test_delta_columns_and_together_match_delta_compiled_over_the_names(case, batch):
    """Every root, HERE and THERE, on every In candidate, the R profiles bound
    in the table: the AND over the n Delta columns, each read through the
    leaf list that puts its own element last, then the pairs of that order,
    equals Delta compiled over the names."""
    dom, r_val = case
    column = translate._delta_column(len(dom))
    direct = Program(pred_theory().formulas(), grounding(dom))
    dims = [(d, VALUE_ORDER) for d in dom]
    orders = [[*(y for y in dom if y != x), x] for x in dom]
    lists = [[*order, *itertools.product(order, repeat=2)] for order in orders]

    def bound(t, full):
        profiles = {v: (full if v.here else 0, full if v.there else 0) for v in VALUE_ORDER}
        return {**t, **{p: profiles[v] for p, v in r_val.items()}}

    def columns(t, full, i, half):
        table = bound(t, full)
        return functools.reduce(operator.and_, (
            column.run([table[k] for k in leaves], full)[i][half] for leaves in lists))

    with patch.object(prop, "BATCH_BITS", batch):
        for i in range(len(direct.roots)):
            for half in (0, 1):
                got = list(oracle.scan_keep(dims, lambda t, full: columns(t, full, i, half)))
                want = list(oracle.scan_keep(
                    dims, lambda t, full: direct.run(bound(t, full), full)[i][half]))
                assert got == want


def test_delta_is_compiled_once_per_domain_size():
    """pred's Delta groups are compiled once per attacker count, from Delta's
    clause bodies, and shared by frameworks of any size and names. The
    domain diagram compiles only its template, once per domain size, and
    reads pred's groups under each relation it admits. aaf reads the Delta
    column that pred's group of one attacker fewer than its size links, so
    it compiles only its psi."""
    compiled = []
    init = Program.__init__
    bodies = [g.body for g in pred_theory().formulas()]

    def counting(self, formulas, *args):
        compiled.append(list(formulas))
        init(self, formulas, *args)

    translate._delta_group.cache_clear()
    translate._delta_column.cache_clear()
    assert verify_pred_theory(Framework.make("abc", [("a", "b")])).ok
    with patch.object(Program, "__init__", counting):
        assert verify_pred_theory(Framework.make("pqr", [("q", "p"), ("r", "r")])).ok
        assert verify_pred_theory(Framework.make("wxyz", [("x", "y"), ("y", "z")])).ok
        assert compiled == []
        assert verify_pred_theory(Framework.make("abcd", [("b", "a"), ("d", "a")])).ok
        assert compiled == [bodies]
        # the diagram compiles once per domain size, its attacks left open, and
        # reads pred's groups (attacker counts 1, then 2 and 0) without compiling
        compiled.clear()
        translate._diagram_over_positions.cache_clear()
        hits = translate._delta_group.cache_info().hits
        cycle = Framework.make("uvw", [("u", "v"), ("v", "w"), ("w", "u")])
        assert verify_domain_diagram(cycle).ok
        [(template,)] = compiled
        assert translate._delta_group.cache_info().hits > hits
        assert verify_domain_diagram(Framework.make("pqr", [("p", "q"), ("q", "q")])).ok
        assert len(compiled) == 1
        # a new size compiles its diagram alone
        assert verify_domain_diagram(Framework.make("ab", [("b", "a")])).ok
        assert len(compiled) == 2 and compiled[1] != pred_theory().formulas()
        assert translate._delta_group.cache_info().currsize == 3
        # aaf reads the column of pred's 2-attacker group and compiles its own formula
        compiled.clear()
        hits = translate._delta_column.cache_info().hits
        frame = AxiomaticFrame(("a", "b", "c"), parse_pred("forall X ~R(X,X)"))
        assert aaf_extensions(frame)
        assert compiled == [[frame.psi]]
        assert translate._delta_column.cache_info().hits == hits + 1
        compiled.clear()
        assert aaf_extensions(AxiomaticFrame(("p", "q", "r"), frame.psi))
        assert compiled == [[frame.psi]]
    assert translate._delta_group.cache_info().currsize == 3
    assert translate._delta_column.cache_info().currsize == 3
    assert translate._diagram_over_positions.cache_info().currsize == 2
    # the template names no argument; over positions, R(i,j) is leaf 3i + j, A(i,j) 9 + 3i + j
    assert is_closed(template) and template != domain_diagram(cycle)
    positions = translate._diagram_over_positions(3)
    assert len(Program([template], grounding(range(3))).code) == len(positions.code)
    assert {key for op, key in positions.code if op == LEAF} == set(range(18))
    # a group reads In at the positions 0..k alone: every R atom is decided
    assert {key for op, key in translate._delta_group(2).code if op == LEAF} == {0, 1, 2}
    # a column's In(i) is leaf i and R(i,j) 3 + 3i + j: it reads R(i,2) and R(2,j)
    column = translate._delta_column(3)
    assert {key for op, key in column.code if op == LEAF} == {0, 1, 2, 5, 8, 9, 10, 11}
    # a folded copy shares no list with the cached program
    leaves = [*itertools.product(range(3), repeat=2), *translate._attacks(cycle)]
    mine = link([(positions, leaves.__getitem__)])
    mine.code.clear()
    mine.roots.clear()
    assert positions.code and positions.roots


def _pred_corpus():
    """All 512 three-argument graphs, then at 4-7 arguments the empty and the
    full relation and seeded ones at two densities, self-attacks included."""
    yield from all_frameworks(3)
    for n in range(4, 8):
        names = "abcdefg"[:n]
        yield Framework.make(names)
        yield Framework.make(names, itertools.product(names, repeat=2))
        for seed, density in itertools.product(range(3), (0.2, 0.5)):
            yield random_framework(n, Random(100 * n + seed), density)


def test_delta_groups_keep_what_delta_compiled_over_the_framework_keeps():
    """Each argument's Delta group, read through its attackers and itself,
    keeps exactly the In candidates that Delta_A compiled over the
    framework's own names, its relation decided, keeps."""
    seen_self_attack = False
    for f in _pred_corpus():
        dom = f.arguments
        seen_self_attack |= any(u == x for u, x in f.attacks)
        direct = _pinned(pred_theory().formulas(), relation_to_r_val(dom, f.attacks))
        table = f.attacker_table()
        groups = [(translate._delta_group(len(table[x])), (*table[x], x)) for x in dom]
        dims = [(x, VALUE_ORDER) for x in dom]
        assert list(scan(dims, groups)) == list(scan(dims, [(direct, None)])), framework_key(f)
    assert seen_self_attack


def test_folded_diagram_matches_the_direct_compile_on_every_three_graph():
    """Each graph's copy of the diagram over positions, linked through the leaf
    list of the pairs and the graph's attacks, has the direct compile's
    (HERE, THERE) root on all 2^9 decided relations, one batch, and as many
    instructions. So does the diagram over positions read through the list."""
    positions = translate._diagram_over_positions(3)
    pairs = list(itertools.product(range(3), repeat=2))
    for f in all_frameworks(3):
        direct = Program([domain_diagram(f)], grounding(range(3)))
        leaves = [*pairs, *translate._attacks(f)]
        folded = link([(positions, leaves.__getitem__)])
        assert len(folded.code) == len(direct.code)

        def agree(table, full):
            assert full == (1 << 2**9) - 1
            want = direct.run(table, full)
            assert folded.run(table, full) == want
            assert positions.run([table[k] for k in leaves], full) == want
            return 0

        assert list(oracle.scan_keep([(p, DECIDED_ORDER) for p in pairs], agree)) == []


def test_aaf_under_a_domain_diagram_matches_the_oracle_on_every_three_graph():
    """psi = the diagram of each 3-graph admits exactly its renamed copies.

    Each is labelled by the oracle's filter over all 27 labellings.
    """
    names = ("a", "b", "c")
    for f in all_frameworks(3):
        renamed = set()
        for perm in itertools.permutations(names):
            sigma = dict(zip(names, perm))
            renamed.add(tuple(sorted((sigma[u], sigma[x]) for u, x in f.attacks)))
        want = [
            (rel, tuple(oracle.enumerate_complete(Framework.make(names, rel))))
            for rel in sorted(renamed)
        ]
        assert aaf_extensions(AxiomaticFrame(names, domain_diagram(f))) == want, f


def test_domain_diagram_rendering():
    from g3arg.syntax import format_formula

    assert format_formula(domain_diagram(SINGLE)) == (
        "exists X1 (~R(X1,X1) & (forall Y (Y=X1)))"
    )
    assert format_formula(domain_diagram(TWO_CYCLE)) == (
        "exists X1 (exists X2 (X1!=X2 & R(X1,X2) & R(X2,X1)"
        " & ~R(X1,X1) & ~R(X2,X2) & (forall Y (Y=X1 | Y=X2))))"
    )
    assert is_closed(domain_diagram(TWO_CYCLE))


def test_diagram_recovers_framework_up_to_renaming():
    report = verify_domain_diagram(SINGLE)
    assert report.ok
    assert (report.interp_count, report.expected_count) == (1, 1)

    report = verify_domain_diagram(TWO_CYCLE)
    assert report.ok
    # the two renamings of a symmetric cycle coincide
    assert (report.interp_count, report.expected_count) == (3, 3)

    chain = Framework.make(["a", "b"], [("a", "b")])
    report = verify_domain_diagram(chain)
    assert report.ok
    # here the renamings differ, so both directed copies are expected
    assert (report.interp_count, report.expected_count) == (2, 2)


def test_quantified_counts_agree_on_every_three_graph():
    """Beyond ``ok``: every model found is counted once and matched, as
    bench/workloads.py checks its quantified and verify-corpus items."""
    for f in all_frameworks(3):
        free = verify_domain_diagram(f)
        assert free.interp_count == free.matched == free.expected_count, free
        pinned = verify_pred_theory(f)
        assert pinned.model_count == pinned.labelling_count == pinned.matched, pinned


def test_five_argument_diagram_compiles_small():
    """Folded equalities leave the diagram's n^n instances mostly false.

    Only compiles: scanning 2^25 relations is out of a unit test's reach.
    """
    f = random_framework(5, Random(5))
    formulas = [pred_theory().clause("decided-r"), domain_diagram(f)]
    assert len(Program(formulas, grounding(f.arguments)).code) <= 5000


@st.composite
def frameworks(draw, max_args=4):
    n = draw(st.integers(min_value=1, max_value=max_args))
    names = [f"x{i}" for i in range(n)]
    attacks = [
        (u, x)
        for u in names
        for x in names
        if draw(st.booleans())
    ]
    return Framework.make(names, attacks)


@given(frameworks())
@settings(max_examples=40, deadline=None)
def test_prop_and_marker_free_routes_agree_everywhere(f):
    assert verify_prop_theory(f).ok
    assert verify_und_free(f).ok


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_defined_marker_program_has_the_displayed_theory_s_models(n, seed):
    """The defined-marker program and the printed und-free theory cannot drift apart."""
    f = random_framework(n, Random(seed))
    hooked = Program(prop_theory(f).formulas(), oracle.defined_marker(und_definition(f)))
    rebuilt = Program(und_free_theories(f)[1].formulas())
    assert list(select_assignments(f.arguments, [(hooked, None)])) == list(
        select_assignments(f.arguments, [(rebuilt, None)])
    )


# a, b and c share their attackers a, b, at positions 0, 1 and none, and one shape group
SELF_SHAPES = Framework.make(
    "abc", [("a", "a"), ("b", "a"), ("a", "b"), ("b", "b"), ("a", "c"), ("b", "c")]
)


@settings(max_examples=60, deadline=None)
@given(frameworks(max_args=6), st.sampled_from([prop.BATCH_BITS, 1, 3, 9]))
@example(SELF_SHAPES, 1)
@example(Framework.make("abc", [("a", "b"), ("b", "c"), ("c", "a")]), 3)
@example(Framework.make("pqrs", [("q", "p"), ("p", "q"), ("s", "s"), ("r", "s")]), 9)
def test_linked_programs_match_direct_compiles(f, batch):
    """HERE and THERE of every root on every candidate, linked against direct.

    The clause groups are linked through their leaf lists, as ``scan``
    links them, and the definition over positions runs through the list of
    the arguments; its THERE root is ``full`` on every batch. And ``scan``
    keeps from ``clause_parts``, in the tier that the width picks, what it
    keeps from the direct compiles: with the definition tied to FALSE in
    front, what the rebuilt und-free theory keeps where ``und_definition``
    fails at HERE.
    """
    defn = und_definition(f)
    definition = translate._und_over_positions(len(f.arguments))
    direct_clauses = Program(prop_theory(f).formulas())
    direct_stable = Program(stable_theory(f).formulas())
    direct_und_free = Program(und_free_theories(f)[1].formulas())
    linked, linked_stable = (
        link([(group, names.__getitem__) for group, names in clause_parts(f, stable)])
        for stable in (False, True)
    )

    def over_positions(table, full):
        roots = definition.run([table[x] for x in f.arguments], full)
        assert roots[0][1] == full
        return roots

    pairs = [
        (linked.run, [direct_clauses]),
        (linked_stable.run, [direct_stable]),
        (over_positions, [Program([defn])]),
    ]

    def agree(table, full):
        for run, direct in pairs:
            assert run(table, full) == [r for p in direct for r in p.run(table, full)]
        return 0

    dims = [(x, VALUE_ORDER) for x in f.arguments]
    undecided = (definition, f.arguments, [prop.FALSE])
    with patch.object(prop, "BATCH_BITS", batch):
        assert list(oracle.scan_keep(dims, agree)) == []
        assert list(scan(dims, clause_parts(f))) == list(scan(dims, [(direct_clauses, None)]))
        assert list(scan(dims, [undecided, *clause_parts(f)])) == list(scan(dims, [
            (Program([defn]), None, [prop.FALSE]), (direct_und_free, None)]))
        assert list(scan(dims, clause_parts(f, stable=True))) == list(
            scan(dims, [(direct_stable, None)]))


def test_the_three_verifiers_share_one_search_and_one_clause_program():
    """prop, und-free and pred on one Framework search its labellings once.

    At the default width its 3^4 candidates are one batch, and nothing is
    linked. Below 3^4 they are three batches, fewer than HOT_RUNS (patched
    to 4): the clause groups and pred's Delta groups, whose leaf lists only
    rename, still run unlinked. From HOT_RUNS batches (patched to 3) every
    scan links its groups anew (prop's, und-free's undecided case and
    pred's; the stable case's 2^4 candidates still fit), and no link is
    kept on the Framework, which keeps its key, labellings and clause
    parts. An equal Framework built afresh searches again."""
    searches, clause_links, delta_links = [], [], []
    search, link = translate.enumerate_complete, prop.link
    groups = {id(translate._shape_group(translate._argument_clauses, k)) for k in range(4)}
    delta = {id(translate._delta_group(k)) for k in range(4)}

    def counting_search(f):
        searches.append(f)
        return search(f)

    def counting_link(parts):
        if any(id(program) in groups for program, _ in parts):
            clause_links.append(parts)
        if any(id(program) in delta for program, _ in parts):
            delta_links.append(parts)
        return link(parts)

    def verify(f):
        reports = verify_prop_theory(f), verify_und_free(f), verify_pred_theory(f)
        assert all(r.ok for r in reports)

    attacks = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "d")]
    f = Framework.make("abcd", attacks)
    fields = repr(f), hash(f)
    with patch.object(translate, "enumerate_complete", counting_search), \
            patch.object(prop, "link", counting_link):
        verify(f)
        verify(f)
        assert searches == [f] and clause_links == delta_links == []
        with patch.object(prop, "BATCH_BITS", 3**4 - 1), patch.object(prop, "HOT_RUNS", 4):
            verify(f)
            assert len(searches) == 1 and clause_links == delta_links == []
            with patch.object(prop, "HOT_RUNS", 3):
                verify(f)
                assert len(searches) == 1 and len(clause_links) == 2 and len(delta_links) == 1
                verify(f)
                assert len(searches) == 1 and len(clause_links) == 4 and len(delta_links) == 2
                fresh = Framework.make("abcd", attacks)
                verify(fresh)
                assert len(searches) == 2 and searches[1] is fresh
                assert len(clause_links) == 6 and len(delta_links) == 3
    assert set(vars(f)) == set(vars(fresh)) == {
        "arguments", "attacks", "_attackers", "_complete", "_key", "_masks", "_clause_parts",
        "_stable_parts"}
    assert (repr(f), hash(f)) == fields == (repr(fresh), hash(fresh))
    assert f == fresh == Framework.make("abcd", attacks)


def _tier_results(f):
    """Every verifier's report on ``f``, and the clause theories' model lists."""
    return (
        verify_prop_theory(f),
        verify_und_free(f),
        verify_pred_theory(f),
        list(select_assignments(f.arguments, clause_parts(f))),
        list(scan([(x, DECIDED_ORDER) for x in f.arguments], clause_parts(f, stable=True))),
    )


@settings(max_examples=60, deadline=None)
@given(frameworks(max_args=6), st.sampled_from([1, 3, 9]))
@example(SELF_SHAPES, 9)
def test_the_one_batch_and_linked_tiers_agree(f, batch):
    """Up to 6 arguments the default width takes the one-batch tier, which runs
    each argument's shape group unlinked; a width of 1, 3 or 9 loops over
    batches, where Delta is linked and the clause groups from HOT_RUNS
    batches on. With HOT_RUNS patched to 1 the groups are linked whenever
    the scan loops, so links that only rename run at every width too.
    Reports, model lists and their order are the same."""
    assert prop._plan((VALUE_ORDER,) * len(f.arguments), prop.BATCH_BITS)[0] == 0
    one_batch = _tier_results(f)
    for hot_runs in (prop.HOT_RUNS, 1):
        with patch.object(prop, "BATCH_BITS", batch), patch.object(prop, "HOT_RUNS", hot_runs):
            looped = _tier_results(Framework.make(f.arguments, f.attacks))
        assert looped == one_batch


def test_the_linked_tier_matches_the_oracle_at_the_default_width():
    """3^9 candidates span three batches at the default width. Below HOT_RUNS
    batches (patched to 4) the clause groups run as given; with HOT_RUNS
    patched to 3 the scan links them. Either way the models and both
    verifiers match the oracle."""
    f = random_framework(9, Random(10))
    assert prop._plan((VALUE_ORDER,) * 9, prop.BATCH_BITS)[0] == 1
    groups = clause_parts(f)  # each shape group compiled first
    expected = [canonical(lab) for lab in oracle.enumerate_complete(f)]
    stable = [lab for lab in expected if all(v != Label.UND.value for _, v in lab)]
    assert len(expected) == 9 and len(stable) == 2
    for hot_runs, link_count in ((4, 0), (3, 1)):
        links = []
        with patch.object(prop, "HOT_RUNS", hot_runs), \
                patch.object(prop, "link", lambda parts: links.append(parts) or link(parts)):
            models = list(select_assignments(f.arguments, groups))
            assert len(links) == link_count
            found = [canonical(assignment_to_labelling(h)) for h in models]
            assert sorted(found) == sorted(expected)
            fresh = Framework.make(f.arguments, f.attacks)
            report = verify_prop_theory(fresh)
            assert report.ok and report.model_count == report.labelling_count == 9
            und = verify_und_free(fresh)
            assert und.ok and und.stable.model_count == 2 and und.non_stable.model_count == 7


def test_clause_groups_are_compiled_once_per_shape():
    """Frameworks of the same shapes share their groups whatever their names."""
    compiled = []
    init = Program.__init__

    def counting(self, formulas, *args):
        compiled.append(list(formulas))
        init(self, compiled[-1], *args)

    def verify(f):
        assert verify_prop_theory(f).ok and verify_und_free(f).ok

    translate._shape_group.cache_clear()
    translate._und_over_positions.cache_clear()
    verify(Framework.make("abc", [("a", "b"), ("b", "a"), ("a", "c"), ("c", "c")]))
    with patch.object(Program, "__init__", counting):
        verify(Framework.make("pqr", [("p", "q"), ("q", "p"), ("p", "r"), ("r", "r")]))
        assert compiled == []
        # x is attacked by itself and y, at position 0, r by p and itself: one shape
        assert verify_prop_theory(Framework.make(
            "xyz", [("x", "x"), ("y", "x"), ("x", "y"), ("y", "z")])).ok
        assert compiled == []
        # an unattacked x: the one new shape
        new_shape = Framework.make("xyz", [("x", "y"), ("y", "z")])
        assert verify_und_free(new_shape).ok
        assert [len(formulas) for formulas in compiled] == [1, 4]  # fix[x], then a1..b2[x]
        assert verify_prop_theory(new_shape).ok
        assert len(compiled) == 2
    assert translate._shape_group.cache_info().currsize == 6  # 0, 1, 2 attackers, 2 theories
    assert translate._und_over_positions.cache_info().currsize == 1
