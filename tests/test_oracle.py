"""The bit-parallel evaluator and every scan built on it against the oracle.

The oracle (tests/oracle.py) walks formula trees one assignment at a time
and scans candidates with itertools.product. Every comparison is exact and
ordered. Scans are also run with tiny batch widths, so the loop over leading
dimensions is exercised as well as the single-batch path.
"""

import itertools
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import oracle
from g3arg import prop
from g3arg.aaf import AxiomaticFrame, aaf_extensions
from g3arg.af import Framework
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
    classical_eval,
    enumerate_interps,
    eval_pred,
    grounding,
    pred_value,
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
    enumerate_models,
    eval_world,
    is_valid,
    scan,
    value,
)
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
    return list(scan(dims, lambda table, full: program.run(table, full)[0][half]))


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


@given(prop_formulas, profiles, profiles, profiles)
def test_batch_of_one_calls_match_the_oracle(f, vx, vy, vz):
    h = {"x": vx, "y": vy, "z": vz}
    assert value(f, h) is oracle.value(f, h)
    for w in World:
        assert eval_world(w, f, h) == oracle.eval_world(w, f, h)


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


@settings(max_examples=40, deadline=None)
@given(higher_networks(), BATCHES)
def test_solve_higher_matches_the_oracle_scan(network, batch):
    hn, fixed = network
    with patch.object(prop, "BATCH_BITS", batch):
        got = solve_higher(hn, fixed_r=fixed)
    assert got == oracle.solve_higher(hn, fixed_r=fixed)


@settings(max_examples=40, deadline=None)
@given(pred_formulas(ab_terms, modal=False), BATCHES)
def test_aaf_extensions_matches_the_oracle_scan(psi, batch):
    frame = AxiomaticFrame(("a", "b"), psi)
    with patch.object(prop, "BATCH_BITS", batch):
        got = aaf_extensions(frame)
    assert got == oracle.aaf_extensions(frame)


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
    assert eval_world(World.HERE, f, h)
    assert is_valid(f) == (False, {"x": ThreeVal.FF})
    assert len(enumerate_models([f], ["x"])) == 2
    m = PredInterp(("a",), {"a": ThreeVal.FF}, {("a", "a"): ThreeVal.FT})
    assert pred_value(g, m) is ThreeVal.TT
    assert eval_pred(World.HERE, g, m)
    assert classical_eval(g, ("a",), [("a", "a")])
    chain = Atom("x")
    for _ in range(3000):
        chain = And(Atom("y"), Or(chain, Bot()))
    assert enumerate_models([chain], ["x", "y"]) == [{"x": ThreeVal.TT, "y": ThreeVal.TT}]
