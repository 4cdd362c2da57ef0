"""Two-world propositional semantics: profiles, evaluation, models, validity."""

import itertools
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from g3arg import prop
from g3arg.prop import (
    ALL,
    ANY,
    LEAF,
    And,
    Atom,
    Bot,
    EvalError,
    Imp,
    Neg,
    Or,
    Program,
    Top,
    UndConst,
    atoms_of,
    conj,
    disj,
    enumerate_models,
    eval_world,
    iff,
    is_valid,
    link,
    reader,
    replace_und,
    scan,
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


def test_true_and_false_read_as_constants_in_every_table():
    """Through a leaf list, TRUE reads as TT and FALSE as FF, in the batch and
    in every table of the dimensions looped outside it."""
    program = link([(Program([Imp(Atom("c"), Atom("a"))]), {"c": 0, "a": 1}.__getitem__)])
    dims = [("b", DECIDED_ORDER), ("a", VALUE_ORDER)]

    def constants(table, full):
        assert (table[prop.TRUE], table[prop.FALSE]) == ((full, full), (0, 0))
        return full

    for batch in (1, 3, prop.BATCH_BITS):
        with patch.object(prop, "BATCH_BITS", batch):
            assert len(list(scan(dims, constants))) == 6
            assert list(scan(dims, reader([(program, [prop.TRUE, "a"])]))) == [(0, 2), (1, 2)]
            assert len(list(scan(dims, reader([(program, [prop.FALSE, "a"])])))) == 6


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


# A dimension ranges over 2 or 3 distinct profiles in any order, given as a
# list or a tuple; a bound key holds one profile, which keep binds in the table.
_orders = st.lists(st.sampled_from(VALUE_ORDER), min_size=2, max_size=3, unique=True)
_shapes = st.lists(st.one_of(_orders, _orders.map(tuple)), max_size=6)
_bound = st.dictionaries(st.sampled_from(["b0", "b1"]), st.sampled_from(VALUE_ORDER))


@st.composite
def _scans(draw):
    """Dimensions, bound keys and a keep rule: a disjunction of literal terms.

    A literal (key, half, negated) asks the key's profile at HERE (half 0) or
    THERE (half 1) to be true, or false when negated.
    """
    orders = draw(_shapes)
    dims = [(f"d{i}", choices) for i, choices in enumerate(orders)]
    bound = draw(_bound)
    keys = [key for key, _ in dims] + sorted(bound)
    literal = st.tuples(st.sampled_from(keys), st.sampled_from([0, 1]), st.booleans())
    terms = st.lists(st.lists(literal, max_size=3), max_size=3) if keys else st.just([[]])
    return dims, bound, draw(terms)


def _keep(terms, bound, rename=lambda key: key):
    def keep(table, full):
        table = {**table, **{
            rename(key): (full if v.here else 0, full if v.there else 0) for key, v in bound.items()
        }}
        mask = 0
        for term in terms:
            m = full
            for key, half, negated in term:
                m &= table[rename(key)][half] ^ (full if negated else 0)
            mask |= m
        return mask

    return keep


@settings(deadline=None)
@given(_scans(), st.sampled_from([1, 3, 9, 8192]))
def test_scan_is_the_filtered_product(case, batch):
    """Kept candidates in product order, from a fresh plan, a cached one and renamed keys."""
    dims, bound, terms = case
    want = []
    for index in itertools.product(*[range(len(choices)) for _, choices in dims]):
        profile = {**bound, **{key: choices[c] for (key, choices), c in zip(dims, index)}}
        if any(all(profile[k].value[half] != neg for k, half, neg in t) for t in terms):
            want.append(index)
    renamed = [(("other", key), choices) for key, choices in dims]
    with patch.object(prop, "BATCH_BITS", batch):
        misses = prop._plan.cache_info().misses
        assert list(scan(dims, _keep(terms, bound))) == want
        assert list(scan(dims, _keep(terms, bound))) == want
        keep = _keep(terms, bound, lambda key: ("other", key))
        assert list(scan(renamed, keep)) == want
        assert prop._plan.cache_info().misses - misses <= 1  # one plan per shape
        # nothing the scans kept went into the cached plan
        shape = tuple(tuple(choices) for _, choices in dims)
        assert prop._plan(shape, batch) == prop._plan.__wrapped__(shape, batch)


@settings(deadline=None)
@given(
    st.lists(_formulas, min_size=1, max_size=4),
    st.integers(0, 4),
    st.dictionaries(st.sampled_from("xyz"), st.booleans()),
    st.sampled_from([1, 3, 9, prop.BATCH_BITS]),
)
@example([Imp(Atom("x"), Atom("y"))], 1, {"y": False}, 1)  # a -> false is ~a
@example([Imp(Atom("x"), Atom("y")), Neg(Atom("y"))], 1, {"x": True}, 3)  # true -> b is b
def test_folding_decided_leaves_matches_compiling_the_constants(formulas, split, decided, batch):
    """A leaf list that mixes table keys with TRUE and FALSE gives the same
    roots read through, linked, and compiled with Top or Bot in place.

    The formulas are split over one or two parts, each numbering its leaves
    x, y, z as 0, 1, 2; every linked instruction is a root or read by a
    later one.
    """
    parts = [link([(Program(fs), "xyz".index)])
             for fs in (formulas[:split], formulas[split:]) if fs]
    leaves = [(prop.TRUE if decided[x] else prop.FALSE) if x in decided else x for x in "xyz"]
    folded = link([(p, leaves.__getitem__) for p in parts])
    constants = {x: Top() if v else Bot() for x, v in decided.items()}
    direct = Program([substitute(f, constants) for f in formulas])

    def agree(table, full):
        want = direct.run(table, full)
        read = [r for p in parts for r in p.run([table[k] for k in leaves], full)]
        assert folded.run(table, full) == read == want
        mask = full
        for h, _ in want:
            mask &= h
        assert reader([(p, leaves) for p in parts])(table, full) == mask
        assert reader([(folded, None)])(table, full) == mask
        return 0

    with patch.object(prop, "BATCH_BITS", batch):
        dims = [(x, VALUE_ORDER) for x in "xyz" if x not in decided]
        assert list(scan(dims, agree)) == []
    read = {a for op, args in folded.code if op != LEAF for a in args}
    assert read | set(folded.roots) == set(range(len(folded.code)))
    assert not any(op == LEAF and key in decided for op, key in folded.code)


def test_plans_are_bounded_and_keyed_on_the_shape_alone():
    assert prop._plan.cache_parameters()["maxsize"] == prop.PLAN_CACHE
    order = [ThreeVal.TT, ThreeVal.FF]
    assert prop._plan((tuple(order),), 8) is prop._plan((tuple(order),), 8)
    assert prop._plan((VALUE_ORDER,), 8) is not prop._plan((VALUE_ORDER,), 9)


@pytest.mark.parametrize("batch", [1, 3, 9, 80, 81, prop.BATCH_BITS])
def test_one_batch_is_exactly_a_plan_with_nothing_outside_the_batch(batch):
    with patch.object(prop, "BATCH_BITS", batch):
        for order in (DECIDED_ORDER, VALUE_ORDER):
            for count in range(11):
                split = prop._plan.__wrapped__((order,) * count, batch)[0]
                assert prop.fits_one_batch(len(order), count) == (split == 0)


@pytest.mark.parametrize("k", [2, 3, 40])
def test_a_chain_compiles_to_one_n_ary_instruction(k):
    atoms = [Atom(f"x{i}") for i in range(k)]
    leaves = [(LEAF, f"x{i}") for i in range(k)]
    assert Program([conj(atoms)]).code == leaves + [(ALL, tuple(range(k)))]
    assert Program([disj(atoms)]).code == leaves + [(ANY, tuple(range(k)))]
    # constants fold inside the chain, and a zero ends it before later links compile
    assert Program([conj([atoms[0], Top(), atoms[1]])]).code == leaves[:2] + [(ALL, (0, 1))]
    assert value(conj([Top(), Bot(), Atom("q"), Atom("r")]), {}) is ThreeVal.FF
    assert Program([disj([atoms[0], Top()] + atoms[1:])]).code == [(ALL, ())]
    # a left-nested conjunction is an operand of its own
    assert Program([And(And(atoms[0], atoms[1]), atoms[0])]).code == [
        (LEAF, "x0"), (LEAF, "x1"), (ALL, (0, 1)), (ALL, (2, 0))
    ]


def test_a_chain_stops_at_a_compiled_link():
    x, y, z = Atom("x"), Atom("y"), Atom("z")
    suffix = And(y, z)
    program = Program([suffix, And(x, suffix)])
    assert program.code == [(LEAF, "y"), (LEAF, "z"), (ALL, (0, 1)), (LEAF, "x"), (ALL, (3, 2))]
    assert program.roots == [2, 4]


def test_a_shared_chain_suffix_compiles_in_linear_steps():
    """Each link's suffix is compiled first under a negation, then reached by the spine.

    Walking on into a compiled suffix would take quadratic steps; a step is a
    memo lookup, counted through ``id``.
    """

    def steps(depth: int) -> int:
        f = Atom("x")
        for _ in range(depth):
            f = And(Neg(f), f)
        count = 0

        def counted(obj):
            nonlocal count
            count += 1
            return id(obj)

        with patch.object(prop, "id", counted, create=True):
            program = Program([f])
        assert len(program.code) == 2 * depth + 1  # a NEG and an ALL per link
        return count

    assert steps(400) <= 2 * steps(200) + 8
