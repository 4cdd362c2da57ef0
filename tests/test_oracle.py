"""The bit-parallel evaluator, every scan built on it and the labelling search
against the oracle.

The oracle (tests/oracle.py) walks formula trees one assignment at a time
and scans candidates with itertools.product; it finds complete labellings
by filtering all 3^n labellings. Every comparison is exact and ordered. Scans are also run with tiny batch widths, so the loop over leading
dimensions is exercised as well as the single-batch path.
"""

import itertools
import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from g3arg import aaf, af, prop
from g3arg.aaf import (
    AxiomaticFrame,
    aaf_extensions,
    encode_adf,
    encode_conjunctive,
)
from g3arg.af import Framework, enumerate_complete, enumerate_complete_determined
from g3arg.corpus import (
    all_adf_nets_2,
    all_conjunctive_nets,
    all_frameworks,
    argument_names,
    random_framework,
    shaped_framework,
)
from g3arg.meta import HigherNetwork, solve_higher
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
    pred_value,
    relation_to_r_val,
)
from g3arg.prop import (
    And,
    Atom,
    Bot,
    Imp,
    Neg,
    Or,
    Program,
    Top,
    UndConst,
    conj,
    enumerate_models,
    is_valid,
    link,
    replace_und,
    substitute,
    value,
    walk,
)
from g3arg.syntax import format_formula
from g3arg.threeval import VALUE_ORDER, ThreeVal, World
from g3arg.translate import instantiated_models

A, B, X, Y = Constant("a"), Constant("b"), Variable("X"), Variable("Y")
BATCHES = st.sampled_from([prop.BATCH_BITS, 1, 3, 9])
profiles = st.sampled_from(VALUE_ORDER)


def tree(leaves, quantified=False, max_leaves=10):
    def grow(inner):
        shapes = [
            st.builds(Neg, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Imp, inner, inner),
        ]
        if quantified:
            var = st.sampled_from(["X", "Y"])
            shapes += [st.builds(Forall, var, inner), st.builds(Exists, var, inner)]
        return st.one_of(*shapes)

    return st.recursive(leaves, grow, max_leaves=max_leaves)


constants = st.sampled_from([UndConst(), Top(), Bot()])
prop_formulas = tree(st.one_of(st.sampled_from([Atom("x"), Atom("y"), Atom("z")]), constants))


def pred_formulas(terms, status=False, modal=True):
    """Closed formulas: the body sits under forall X and exists Y."""
    leaves = [st.builds(RAtom, terms, terms), st.builds(EqAtom, terms, terms)]
    leaves.append(st.sampled_from([Top(), Bot()]))
    if modal:
        leaves += [st.builds(InAtom, terms), st.just(UndConst())]
    if status:
        leaves.append(st.just(StatusRef("u")))
    body = tree(st.one_of(*leaves), quantified=True, max_leaves=8)
    return body.map(lambda f: Forall("X", Exists("Y", f)))


ab_terms = st.sampled_from([A, B, X, Y])
relations = st.sets(st.sampled_from([(u, x) for u in "ab" for x in "ab"]))


def kept(dims, program, half):
    """Candidates whose HERE (half 0) or THERE (half 1) bit is set."""
    return list(oracle.scan_keep(dims, lambda table, full: program.run(table, full)[0][half]))


@given(prop_formulas, BATCHES)
def test_prop_pairs_match_the_oracle_on_every_candidate(f, batch):
    names = ("x", "y", "z")
    program = Program([f])
    with patch.object(prop, "BATCH_BITS", batch):
        here = kept([(x, VALUE_ORDER) for x in names], program, 0)
        there = kept([(x, VALUE_ORDER) for x in names], program, 1)
    candidates = list(itertools.product(range(3), repeat=3))
    want = [
        oracle.value(f, {x: VALUE_ORDER[c] for x, c in zip(names, index)})
        for index in candidates
    ]
    assert here == [i for i, v in zip(candidates, want) if v.here]
    assert there == [i for i, v in zip(candidates, want) if v.there]


@settings(deadline=None)
@given(pred_formulas(ab_terms, status=True), profiles, profiles, profiles, BATCHES)
def test_pred_pairs_match_the_oracle_on_every_candidate(f, raa, rba, rbb, batch):
    pinned = {("a", "a"): raa, ("b", "a"): rba, ("b", "b"): rbb}
    dims = [("a", VALUE_ORDER), ("b", VALUE_ORDER)]
    dims += [(("a", "b"), VALUE_ORDER), (StatusRef("u"), VALUE_ORDER)]
    dims += [(p, (v,)) for p, v in pinned.items()]
    program = Program([f], grounding(("a", "b")))
    with patch.object(prop, "BATCH_BITS", batch):
        here, there = kept(dims, program, 0), kept(dims, program, 1)
    candidates = list(itertools.product(range(3), range(3), range(3), range(3), [0], [0], [0]))
    want = []
    for ia, ib, rab, u, *_ in candidates:
        r_val = {**pinned, ("a", "b"): VALUE_ORDER[rab]}
        m = PredInterp(("a", "b"), {"a": VALUE_ORDER[ia], "b": VALUE_ORDER[ib]}, r_val)
        want.append(oracle.pred_value(f, m, {"u": VALUE_ORDER[u]}))
    assert here == [i for i, v in zip(candidates, want) if v.here]
    assert there == [i for i, v in zip(candidates, want) if v.there]


_x, _y, T, F = Atom("x"), Atom("y"), Top(), Bot()
FOLDS = [
    Neg(T), Neg(F), And(Neg(Neg(F)), _x), Or(Neg(T), _x),
    Imp(T, _x), Imp(F, _x), Imp(_x, T), Imp(_x, F), Imp(Imp(_x, F), _y),
    Imp(UndConst(), F), Imp(T, UndConst()), Imp(Neg(_x), F),
    And(T, _x), And(_x, T), And(F, _x), And(_x, F), And(_x, And(T, _y)),
    Or(T, _x), Or(_x, T), Or(F, _x), Or(_x, F), Or(_x, Or(F, _y)),
    Or(And(_x, F), Imp(_y, F)), Imp(And(_x, T), Or(_y, F)),
]


@pytest.mark.parametrize("f", FOLDS, ids=format_formula)
def test_constant_folds_match_the_oracle(f):
    program = Program([f])
    for vx, vy in itertools.product(VALUE_ORDER, repeat=2):
        h = {"x": vx, "y": vy}
        here, there = program.run({k: v.value for k, v in h.items()}, 1)[0]
        assert ThreeVal.from_pair(bool(here), bool(there)) is oracle.value(f, h), h


def test_dead_operands_are_not_compiled():
    # no operand after a decided one is compiled, so its atoms need no value
    assert value(And(Bot(), Atom("q")), {}) is ThreeVal.FF
    assert value(Or(Top(), Atom("q")), {}) is ThreeVal.TT
    assert value(Imp(Bot(), Atom("q")), {}) is ThreeVal.TT
    with pytest.raises(prop.EvalError):
        value(Imp(Top(), Atom("q")), {})  # the right operand of true -> q is live
    assert Program([And(Bot(), Atom("x"))]).code == [(prop.ANY, ())]


def test_operands_before_a_zero_are_dropped():
    # compiled before the deciding operand, then swept: no root reaches them
    assert value(And(Atom("q"), Bot()), {}) is ThreeVal.FF
    assert value(Or(Atom("q"), Top()), {}) is ThreeVal.TT
    assert value(Imp(Atom("q"), Top()), {}) is ThreeVal.TT
    assert Program([And(Atom("x"), Bot())]).code == [(prop.ANY, ())]
    # the survivors move up over x's leaf, their operands renumbered
    program = Program([And(Atom("x"), Bot()), Or(Atom("y"), Atom("z"))])
    assert program.code == [(prop.LEAF, "y"), (prop.LEAF, "z"), (prop.ANY, (0, 1)),
                            (prop.ANY, ())]
    assert program.roots == [3, 2]


asymmetric_relations = relations.filter(lambda r: any((x, u) not in r for u, x in r))


@settings(max_examples=150, deadline=None)
@given(pred_formulas(ab_terms, status=True), asymmetric_relations, relations, BATCHES)
def test_pinned_grounding_matches_the_relation_bound_in_the_table(f, relation, pinned, batch):
    """Linking some R pairs' keys to TRUE or FALSE equals reading them from the table.

    The pairs in ``pinned`` take their TT or FF profile from ``relation``;
    the other pairs are scan dimensions. The relation is asymmetric, so a
    pair looked up as (x, u) for (u, x) gives a different answer somewhere.
    """
    r_val = relation_to_r_val(("a", "b"), relation)
    decided = {p: v for p, v in r_val.items() if p in pinned}
    dims = [("a", VALUE_ORDER), ("b", VALUE_ORDER), (StatusRef("u"), VALUE_ORDER)]
    dims += [(p, VALUE_ORDER) for p in r_val if p not in decided]
    free = Program([f], grounding(("a", "b")))
    pins = {p: prop.TRUE if v.here else prop.FALSE for p, v in decided.items()}
    compiled = link([(free, lambda key: pins.get(key, key))])

    def pinned(t):
        """The scan's table with each decided pair reading the scan's TRUE or FALSE."""
        return {**t, **{p: t[prop.TRUE if v.here else prop.FALSE] for p, v in decided.items()}}

    with patch.object(prop, "BATCH_BITS", batch):
        for half in (0, 1):
            got = list(oracle.scan_keep(dims, lambda t, full: compiled.run(t, full)[0][half]))
            want = list(oracle.scan_keep(dims, lambda t, full: free.run(pinned(t), full)[0][half]))
            assert got == want
    assert not any(op == prop.LEAF and key in decided for op, key in compiled.code)


def assert_roots_match_the_oracle(formulas, batch, pinned=None):
    """Each root of one program over {a, b}, HERE and THERE, on every candidate.

    In and R profiles range over all three values, bar the R pairs ``pinned``.
    """
    pinned = pinned or {}
    dims = [("a", VALUE_ORDER), ("b", VALUE_ORDER)]
    dims += [(p, (pinned[p],) if p in pinned else VALUE_ORDER)
             for p in itertools.product("ab", repeat=2)]
    program = Program(formulas, grounding(("a", "b")))
    candidates = list(itertools.product(*(range(len(c)) for _, c in dims)))
    want = []
    for index in candidates:
        val = {key: choices[c] for (key, choices), c in zip(dims, index)}
        m = PredInterp(("a", "b"), {"a": val.pop("a"), "b": val.pop("b")}, val)
        want.append([oracle.pred_value(f, m) for f in formulas])
    with patch.object(prop, "BATCH_BITS", batch):
        for i in range(len(formulas)):
            for half in (0, 1):
                got = list(oracle.scan_keep(dims, lambda t, full: program.run(t, full)[i][half]))
                assert got == [c for c, w in zip(candidates, want) if w[i].value[half]]


@pytest.mark.parametrize("batch", [prop.BATCH_BITS, 1, 3, 9])
def test_one_subformula_object_under_several_bindings(batch):
    """The compiler memo keys on the node and its bindings, never the node alone."""
    r = Imp(RAtom(X, Y), InAtom(Y))
    formulas = [
        Forall("X", Exists("Y", r)),
        Exists("Y", Forall("X", r)),  # the same bindings, made in the other order
        # deeper: Y rebound under a binding of Y, r at two depths of one formula
        Forall("X", Exists("Y", And(r, Forall("Y", Or(r, Neg(r)))))),
        Exists("X", Forall("Y", Imp(EqAtom(X, Y), r))),
    ]
    assert_roots_match_the_oracle(formulas, batch)


@st.composite
def shared_formulas(draw):
    """Closed formulas over {a, b} whose subtree objects recur, within and across them."""
    leaves = [st.builds(RAtom, ab_terms, ab_terms), st.builds(EqAtom, ab_terms, ab_terms),
              st.builds(InAtom, ab_terms), st.sampled_from([Top(), Bot(), UndConst()])]
    pool = draw(st.lists(st.one_of(*leaves), min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 10))):
        part = st.sampled_from(list(pool))
        kind = draw(st.sampled_from([Neg, And, Or, Imp, Forall, Exists]))
        if kind is Neg:
            pool.append(Neg(draw(part)))
        elif kind in (Forall, Exists):
            pool.append(kind(draw(st.sampled_from(["X", "Y"])), draw(part)))
        else:
            pool.append(kind(draw(part), draw(part)))
    roots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    if draw(st.booleans()):
        return [Forall("X", Exists("Y", f)) for f in roots]
    return [Exists("Y", Forall("X", f)) for f in roots]


@settings(max_examples=100, deadline=None)
@given(shared_formulas(), st.sampled_from([1, 3, 9]), profiles, profiles)
def test_shared_subtrees_match_the_oracle_on_every_candidate(formulas, batch, rba, rbb):
    assert_roots_match_the_oracle(formulas, batch, {("b", "a"): rba, ("b", "b"): rbb})


@given(prop_formulas, profiles, profiles, profiles)
def test_batch_of_one_calls_match_the_oracle(f, vx, vy, vz):
    h = {"x": vx, "y": vy, "z": vz}
    assert value(f, h) is oracle.value(f, h)
    for w in World:
        assert value(f, h).at(w) == oracle.eval_world(w, f, h)


@given(pred_formulas(ab_terms, status=True), profiles, profiles, profiles, profiles)
def test_pred_batch_of_one_calls_match_the_oracle(f, ia, ib, rab, u):
    r_val = {("a", "a"): ThreeVal.FF, ("a", "b"): rab, ("b", "a"): ThreeVal.TT,
             ("b", "b"): ThreeVal.FT}
    m = PredInterp(("a", "b"), {"a": ia, "b": ib}, r_val)
    assert pred_value(f, m, {"u": u}) is oracle.pred_value(f, m, {"u": u})


@given(pred_formulas(ab_terms, modal=False), relations)
def test_classical_eval_matches_the_oracle(f, relation):
    assert classical_eval(f, ("a", "b"), relation) == oracle.classical_eval(
        f, ("a", "b"), relation
    )


@given(st.lists(prop_formulas, min_size=1, max_size=3), BATCHES)
def test_enumerate_models_matches_the_oracle_scan(theory, batch):
    atoms = ["x", "y", "z", "w"]
    with patch.object(prop, "BATCH_BITS", batch):
        got = enumerate_models(theory, atoms)
    assert got == oracle.enumerate_models(theory, atoms)


@given(prop_formulas, BATCHES)
def test_is_valid_countermodel_is_the_first_in_scan_order(f, batch):
    with patch.object(prop, "BATCH_BITS", batch):
        ok, counter = is_valid(f)
    falsifiers = [
        h for h in oracle.enumerate_models([], sorted(prop.atoms_of(f)))
        if not oracle.eval_world(World.HERE, f, h)
    ]
    assert (ok, counter) == (not falsifiers, falsifiers[0] if falsifiers else None)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(pred_formulas(ab_terms), min_size=1, max_size=3),
    st.sampled_from(["fixed", "decided", "free"]),
    relations,
    BATCHES,
)
def test_enumerate_interps_matches_the_oracle_scan(theory, mode, relation, batch):
    options = {
        "fixed": {"fixed_r": relation},
        "decided": {"r_decided": True},
        "free": {},
    }[mode]
    with patch.object(prop, "BATCH_BITS", batch):
        got = enumerate_interps(("a", "b"), theory, **options)
    assert got == oracle.enumerate_interps(("a", "b"), theory, **options)


@st.composite
def higher_networks(draw):
    """One node with a free relation, or two with a pinned one."""
    nodes = draw(st.sampled_from([("a",), ("a", "b")]))
    terms = st.sampled_from([Constant(n) for n in nodes] + [X, Y])
    formulas = draw(st.lists(pred_formulas(terms), max_size=2))
    wffs = [(f"w{i}", f) for i, f in enumerate(formulas)]
    ends = list(nodes) + [name for name, _ in wffs] + [f"r({nodes[-1]},a)"]
    attacks = draw(st.lists(st.tuples(st.sampled_from(ends), st.sampled_from(ends)),
                            max_size=3))
    hn = HigherNetwork.make(nodes, wffs, attacks)
    fixed = None if len(nodes) == 1 else draw(relations)
    return hn, fixed


@st.composite
def free_two_node_networks(draw):
    """The quantified workload's shape: two nodes, all four R pairs free and
    up to two units, each a formula or an r(u,v) unit, attacked at random,
    self-attacks included."""
    nodes = ("a", "b")
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    wffs = {}
    for i, unit in enumerate(draw(st.lists(st.one_of(pair, pred_formulas(ab_terms)), max_size=2))):
        if type(unit) is tuple:
            wffs[f"r({unit[0]},{unit[1]})"] = RAtom(Constant(unit[0]), Constant(unit[1]))
        else:
            wffs[f"w{i}"] = unit
    ends = st.sampled_from([*nodes, *wffs])
    attacks = draw(st.lists(st.tuples(ends, ends), max_size=4))
    return HigherNetwork.make(nodes, wffs.items(), attacks), None


W0 = ("w0", Exists("X", And(InAtom(X), Neg(RAtom(X, B)))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(higher_networks(), free_two_node_networks()), BATCHES)
# a self-attacking unit; an r(u,v) unit attacking a formula unit; a formula unit
# that nothing attacks, so it has no a2 clause
@example((HigherNetwork.make("ab", [W0], [("r(a,b)", "r(a,b)"), ("r(a,b)", "w0")]), None), 9)
@example((HigherNetwork.make("ab", [W0], [("w0", "b"), ("r(b,a)", "r(b,a)")]), None), 3)
# a formula unit that reads a pinned pair, so its tie formula is linked with the pin
@example((HigherNetwork.make("ab", [W0], [("w0", "b")]), {("a", "b")}), 1)
def test_solve_higher_matches_the_oracle_scan(network, batch):
    hn, fixed = network
    with patch.object(prop, "BATCH_BITS", batch):
        got = solve_higher(hn, fixed_r=fixed)
    assert got == oracle.solve_higher(hn, fixed_r=fixed)


@settings(max_examples=40, deadline=None)
@given(pred_formulas(ab_terms, modal=False), st.sampled_from(["ab", "abc"]), BATCHES)
# at 3 arguments a Delta column compiled for the wrong element leaves one
# argument without its clauses; at 2 the columns only swap
@example(Forall("X", Exists("Y", Top())), "abc", 1 << 13)
def test_aaf_extensions_matches_the_oracle_scan(psi, arguments, batch):
    frame = AxiomaticFrame(tuple(arguments), psi)
    with patch.object(prop, "BATCH_BITS", batch):
        got = aaf_extensions(frame)
    # the oracle labels each relation by its own scan, never by the search
    with patch.object(af, "_search", side_effect=AssertionError):
        want = oracle.aaf_extensions(frame)
    assert got == want


@pytest.mark.parametrize(
    "kind,args",
    [
        ("true", ()),
        ("attacks_all_others", ("a",)),
        ("attacked_by_all_others", ("b",)),
        ("same_targets", ("a", "c")),
        ("attacks_self_attackers", ("c",)),
    ],
)
def test_aaf_extensions_match_the_oracle_on_three_arguments(kind, args):
    """2^9 relations times 3^3 profiles: more than one batch of 1 << 13."""
    psi = Top() if kind == "true" else build_meta(kind, *args)
    frame = AxiomaticFrame(("a", "b", "c"), psi)
    # one scan and no labelling search
    with patch.object(prop, "BATCH_BITS", 1 << 13), \
            patch.object(aaf, "scan", wraps=prop.scan) as scans, \
            patch.object(af, "_search", side_effect=AssertionError):
        got = aaf_extensions(frame)
        want = oracle.aaf_extensions(frame)
    assert scans.call_count == 1
    assert got == want


def test_complete_labellings_match_the_oracle_on_the_corpus():
    """All 512 three-argument graphs and 200 seeded five-argument ones."""
    rng = random.Random(12345)
    corpus = [*all_frameworks(3), *(random_framework(5, rng) for _ in range(200))]
    for f in corpus:
        assert enumerate_complete(f) == oracle.enumerate_complete(f), f


def test_complete_labellings_match_the_oracle_at_seven_to_nine_arguments():
    """24 seeded frameworks of the labelling benchmark's sizes and shapes.
    The oracle scans 3^n labellings, so nine arguments are the fewest."""
    rng = random.Random(2024)
    for shape in ("acyclic", "even cycle", "odd cycle", "random"):
        for n in (7, 7, 7, 8, 8, 9):
            f = shaped_framework(n, shape, rng.choice((0.15, 0.35, 0.6)), rng)
            assert enumerate_complete(f) == oracle.enumerate_complete(f), f


def test_complete_labellings_match_the_oracle_on_dense_graphs_with_self_attacks():
    """30 seeded frameworks of 6-8 arguments, each with 0.6 of all ordered
    pairs as attacks, self-attacks included: the graphs on which the
    search's backward rules fire most."""
    rng = random.Random(28)
    for n in (6, 7, 8) * 10:
        names = argument_names(n)
        pairs = [(u, x) for u in names for x in names]
        f = Framework.make(names, rng.sample(pairs, round(0.6 * len(pairs))))
        assert enumerate_complete(f) == oracle.enumerate_complete(f), f


def test_six_disjoint_two_cycles_come_in_the_oracle_order():
    """3^6 = 729 labellings, six choices deep. Each cycle's two names sort
    next to each other, so the lexicographic order over all twelve is the
    product of the cycles' own oracle orders (the oracle's 3^12 scan is too
    slow for the suite)."""
    cycles = [(f"c{i}a", f"c{i}b") for i in range(6)]
    f = Framework.make(
        [x for pair in cycles for x in pair],
        [edge for u, x in cycles for edge in ((u, x), (x, u))],
    )
    each = [oracle.enumerate_complete(Framework.make(p, [p, p[::-1]])) for p in cycles]
    want = [{x: v for lab in combo for x, v in lab.items()} for combo in itertools.product(*each)]
    got = enumerate_complete(f)
    assert len(got) == 729
    assert got == want


def test_backtracking_unlabels_what_a_dead_branch_labelled():
    """Three 2-cycles and a self-attacker ``z`` share the targets ``s`` and
    ``t``. ``z`` sorts last, so under every combination of cycle labels, and
    of the labels tried at ``s`` and ``t`` while ``z`` leaves them open,
    its in and out branches both contradict themselves before und is tried.
    A label a refuted branch leaves behind changes what the next one
    derives."""
    f = Framework.make(
        ["a", "b", "c", "d", "e", "g", "s", "t", "z"],
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("e", "g"), ("g", "e"),
         ("z", "z"), ("z", "s"), ("z", "t"), ("a", "s"), ("c", "s"), ("e", "t"),
         ("b", "t")],
    )
    labs = enumerate_complete(f)
    assert labs == oracle.enumerate_complete(f)
    assert len(labs) == 27


@st.composite
def frameworks(draw, max_size=7):
    names = "abcdefg"[: draw(st.integers(1, max_size))]
    pairs = [(u, x) for u in names for x in names]  # self-attacks included
    return Framework.make(names, draw(st.sets(st.sampled_from(pairs))))


@settings(max_examples=150, deadline=None)
@given(frameworks())
def test_complete_labellings_match_the_oracle_on_random_graphs(f):
    assert enumerate_complete(f) == oracle.enumerate_complete(f)


def _classified(labs):
    try:
        return af.classify(labs)
    except ValueError as e:
        return str(e)


def _oracle_classified(labs):
    try:
        return oracle.classify(labs)
    except ValueError as e:
        return str(e)


def test_classify_matches_the_pairwise_oracle_on_the_corpus():
    for f in all_frameworks(3):
        labs = enumerate_complete(f)
        expected = oracle.classify(labs)
        assert af.classify(labs) == expected, f
        # repeated labellings other than the grounded one are all kept
        doubled = labs + [lab for lab in labs if lab != expected.grounded]
        assert af.classify(doubled) == oracle.classify(doubled), f


@settings(max_examples=150, deadline=None)
@given(frameworks(), st.data())
def test_classify_matches_the_pairwise_oracle_on_random_graphs(f, data):
    labs = enumerate_complete(f)
    assert af.classify(labs) == oracle.classify(labs)
    # a sublist is no complete set; both refuse it or both split it alike
    part = data.draw(st.lists(st.sampled_from(labs), max_size=len(labs) + 1))
    assert _classified(part) == _oracle_classified(part)


def test_determined_labellings_match_the_oracle_on_encoded_nets():
    """Every conjunctive and two-argument ADF net whose encoding has at most
    seven arguments, each labelled through its base."""
    encoded = [
        *(encode_conjunctive(net) for net in all_conjunctive_nets()),
        *(encode_adf(net) for net in all_adf_nets_2()),
    ]
    checked = 0
    for fw, base in encoded:
        if len(fw.arguments) <= 7:
            got = enumerate_complete_determined(fw, sorted(base))
            assert got == oracle.enumerate_complete(fw), fw
            checked += 1
    assert checked > 300


substitution_formulas = tree(
    st.one_of(st.sampled_from([Atom("p"), Atom("q")]), constants), max_leaves=5
)


@settings(max_examples=50, deadline=None)
@given(
    st.sets(st.sampled_from([(u, x) for u in "abc" for x in "abc"])),
    st.dictionaries(st.sampled_from("abc"), substitution_formulas, max_size=2),
    BATCHES,
)
def test_instantiated_models_match_the_oracle_scan(attacks, subst, batch):
    f = Framework.make("abc", attacks)
    with patch.object(prop, "BATCH_BITS", batch):
        got = instantiated_models(f, subst)
    assert got == oracle.instantiated_models(f, subst)


def test_deep_formulas_evaluate_without_recursion():
    f, g = Atom("x"), RAtom(A, A)
    for _ in range(3000):
        f, g = Neg(f), Neg(g)
    h = {"x": ThreeVal.FT}
    assert value(f, h) is ThreeVal.TT
    assert value(f, h).at(World.HERE)
    assert is_valid(f) == (False, {"x": ThreeVal.FF})
    assert len(enumerate_models([f], ["x"])) == 2
    m = PredInterp(("a",), {"a": ThreeVal.FF}, {("a", "a"): ThreeVal.FT})
    assert pred_value(g, m) is ThreeVal.TT
    assert pred_value(g, m).at(World.HERE)
    assert classical_eval(g, ("a",), [("a", "a")])
    chain = Atom("x")
    for _ in range(3000):
        chain = And(Atom("y"), Or(chain, Bot()))
    assert enumerate_models([chain], ["x", "y"]) == [{"x": ThreeVal.TT, "y": ThreeVal.TT}]


# Open formulas of both layers: free variables, a!=b, status references.
r_eq_leaves = [st.builds(RAtom, ab_terms, ab_terms), st.builds(EqAtom, ab_terms, ab_terms)]
open_pred_formulas = tree(
    st.one_of(
        st.builds(InAtom, ab_terms),
        *r_eq_leaves,
        st.builds(lambda s, t: Neg(EqAtom(s, t)), ab_terms, ab_terms),
        st.sampled_from([StatusRef("u"), UndConst(), Top(), Bot()]),
    ),
    quantified=True,
)
open_formulas = st.one_of(prop_formulas, open_pred_formulas)
open_classical_formulas = tree(
    st.one_of(*r_eq_leaves, st.sampled_from([Top(), Bot()])), quantified=True
)
domains = st.sampled_from([("a", "b"), ("a", "b", "c")])


@st.composite
def interpretations(draw):
    """A two- or three-element domain with random In and R profiles."""
    dom = draw(domains)
    in_val = {d: draw(profiles) for d in dom}
    r_val = {p: draw(profiles) for p in itertools.product(dom, repeat=2)}
    return PredInterp(dom, in_val, r_val)


def valuations(f, dom):
    """Every valuation of the free variables of ``f`` over ``dom``."""
    names = sorted(oracle.free_vars(f))
    return [dict(zip(names, c)) for c in itertools.product(dom, repeat=len(names))]


@settings(deadline=None)
@given(open_pred_formulas, interpretations(), profiles)
# a free variable that only the valuation binds
@example(InAtom(X), PredInterp(("a", "b"), {"a": ThreeVal.TT, "b": ThreeVal.FF},
                               dict.fromkeys(itertools.product("ab", repeat=2), ThreeVal.FF)),
         ThreeVal.FF)
def test_valuations_reach_pred_value_as_in_the_oracle(f, m, u):
    for v in valuations(f, m.domain):
        got = pred_value(f, m, {"u": u}, v=v)
        for w in World:
            assert got.at(w) == oracle.eval_pred(w, f, m, v, {"u": u}), (v, w)


@settings(deadline=None)
@given(open_classical_formulas, domains, st.data())
def test_valuations_reach_classical_eval_as_in_the_oracle(f, dom, data):
    relation = data.draw(st.sets(st.sampled_from(list(itertools.product(dom, repeat=2)))))
    for v in valuations(f, dom):
        assert classical_eval(f, dom, relation, v) == oracle.classical_eval(
            f, dom, relation, v
        ), v


@given(open_formulas)
def test_structural_walks_match_the_recursive_references(f):
    assert format_formula(f) == oracle.format_formula(f)
    assert free_vars(f) == oracle.free_vars(f)
    assert [id(n) for n in walk(f)] == [id(n) for n in oracle.walk(f)]


@given(prop_formulas, prop_formulas)
def test_leaf_replacement_matches_the_recursive_reference(f, g):
    mapping = {"x": g, "z": Neg(Atom("x"))}
    assert substitute(f, mapping) == oracle.substitute(f, mapping)
    assert replace_und(f, g) == oracle.replace_und(f, g)


def test_deep_formulas_walk_without_recursion():
    body = conj([Neg(EqAtom(X, A))] * 5000)
    prop_body = conj([Atom("x"), UndConst()] * 2500)
    for _ in range(5000):
        body, prop_body = Neg(body), Neg(prop_body)
    f = Forall("X", body)
    text = "forall X (" + "~" * 5000 + "(" + " & ".join(["X!=a"] * 5000) + "))"
    assert format_formula(f) == text
    assert free_vars(body) == {"X"} and free_vars(f) == set()
    assert sum(1 for _ in walk(f)) == 1 + 5000 + 4999 + 2 * 5000
    text = format_formula(prop_body)
    assert format_formula(replace_und(prop_body, Top())) == text.replace("#n", "true")
    assert format_formula(substitute(prop_body, {"x": Atom("y")})) == text.replace("x", "y")
