"""Two-world propositional semantics: profiles, evaluation, models, validity."""

import functools
import itertools
import operator
import re
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from g3arg import prop, translate
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
    iff,
    is_valid,
    link,
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
    assert value(Neg(Atom("q")), {"q": ThreeVal.FT}).at(World.HERE) is False
    assert value(Neg(Atom("q")), {"q": ThreeVal.FT}) is ThreeVal.FF
    assert value(Neg(Atom("q")), {"q": ThreeVal.FF}) is ThreeVal.TT
    assert value(Neg(Atom("q")), {"q": ThreeVal.TT}) is ThreeVal.FF


def test_und_constant_profile():
    n = UndConst()
    assert value(n, {}) is ThreeVal.FT
    assert value(Or(n, Neg(n)), {}).at(World.HERE) is False
    assert value(Imp(Neg(Neg(n)), n), {}).at(World.HERE) is False
    assert value(n, {}).at(World.THERE) is True


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
        value(Atom("q"), {})
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
    if value(f, h).at(World.HERE):
        assert value(f, h).at(World.THERE)


@given(_formulas)
def test_value_agrees_with_eval(f):
    """``value``, a batch of one, agrees at both worlds with the batch
    evaluation of every assignment in a scan: ``f`` holds at HERE where the
    scan keeps ``f``, and at THERE where it keeps ``~~f``."""
    hs = [dict(zip("xyz", c)) for c in itertools.product(VALUE_ORDER, repeat=3)]
    for g, w in ((f, World.HERE), (Neg(Neg(f)), World.THERE)):
        kept = [h for h in hs if value(f, h).at(w)]
        assert list(select_assignments("xyz", [(Program([g]), None)])) == kept


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
    got = list(select_assignments(["b", "a"], []))
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
            assert len(list(oracle.scan_keep(dims, constants))) == 6
            assert list(scan(dims, [(program, [prop.TRUE, "a"])])) == [(0, 2), (1, 2)]
            assert len(list(scan(dims, [(program, [prop.FALSE, "a"])]))) == 6


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
        assert list(oracle.scan_keep(dims, _keep(terms, bound))) == want
        assert list(oracle.scan_keep(dims, _keep(terms, bound))) == want
        keep = _keep(terms, bound, lambda key: ("other", key))
        assert list(oracle.scan_keep(renamed, keep)) == want
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
    roots read through, linked, and compiled with Top or Bot in place, and
    ``scan`` keeps the same candidates from the parts and from the link.

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
        return 0

    def holds(table, full):
        mask = full
        for h, _ in direct.run(table, full):
            mask &= h
        return mask

    with patch.object(prop, "BATCH_BITS", batch):
        dims = [(x, VALUE_ORDER) for x in "xyz" if x not in decided]
        assert list(oracle.scan_keep(dims, agree)) == []
        kept = list(oracle.scan_keep(dims, holds))
        assert list(scan(dims, [(p, leaves) for p in parts])) == kept
        assert list(scan(dims, [(folded, None)])) == kept
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
    """A plan keeps every dimension in the batch exactly when the candidates
    fit in it, and then ``scan`` runs a part with a leaf list as given.
    Otherwise it links the part before the first batch when its leaf list
    folds (reads TRUE or FALSE) or when the plan loops over at least
    HOT_RUNS batches, as generated code at once in the second case; a leaf
    list that only renames runs as given below HOT_RUNS batches."""
    program = link([(Program([Atom("x")]), {"x": 0}.__getitem__)])
    linked = []

    def spy(parts):
        linked.append(link(parts))
        return linked[-1]

    with patch.object(prop, "BATCH_BITS", batch), patch.object(prop, "link", spy):
        for order in (DECIDED_ORDER, VALUE_ORDER):
            for count in range(11):
                split = prop._plan.__wrapped__((order,) * count, batch)[0]
                assert (len(order) ** count <= batch) == (split == 0)
                hot = split > 0 and len(order) ** split >= prop.HOT_RUNS
                for leaves, folds in (([prop.TRUE], True), ([0], False)):
                    if not count and not folds:
                        continue  # no dimension for leaf 0 to read
                    linked.clear()
                    next(scan([(i, order) for i in range(count)], [(program, leaves)]))
                    assert len(linked) == (split > 0 and (folds or hot))
                    if linked:
                        assert bool(linked[0]._filters) == hot


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


def _raw(code, roots):
    """A Program of the instructions ``code`` as given, not compiled, and ``roots``."""
    program = object.__new__(Program)
    program.code, program.roots = code, roots
    return program


@st.composite
def _raw_programs(draw):
    """Instructions drawn directly, not compiled: any operand counts and repeats."""
    code = []
    for i in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from([ALL, ANY, prop.NEG, prop.IMP, LEAF, prop.UND]))
        if op in (ALL, ANY):
            args = tuple(draw(st.lists(st.integers(0, i - 1), max_size=4))) if i else ()
        elif op in (prop.NEG, prop.IMP) and i:
            arity = 1 if op == prop.NEG else 2
            args = tuple(draw(st.lists(st.integers(0, i - 1), min_size=arity, max_size=arity)))
        else:
            op, args = (op, ()) if op == prop.UND else (LEAF, draw(st.sampled_from("xyz")))
        code.append((op, args))
    return _raw(code, draw(st.lists(st.integers(0, len(code) - 1), min_size=1)))


@st.composite
def _programs(draw):
    """A compiled Program, a linked copy that folds some leaves, or raw instructions."""
    kind = draw(st.sampled_from(["compiled", "linked", "raw"]))
    if kind == "raw":
        return draw(_raw_programs())
    program = Program(draw(st.lists(_formulas, min_size=1, max_size=4)))
    if kind == "linked":
        decided = draw(st.dictionaries(st.sampled_from("xyz"), st.sampled_from([prop.TRUE, prop.FALSE])))
        program = link([(program, lambda key: decided.get(key, key))])
    return program


def _one_root(program, r):
    """``program`` with its r-th root alone, sharing its code."""
    return _raw(program.code, [program.roots[r]])


@settings(deadline=None)
@given(_programs(), st.sampled_from([1, 3, 9, 8192]))
@example(Program([Imp(Atom("x"), Atom("y")), Neg(Atom("z")), Or(Atom("x"), And(Atom("y"), Atom("z")))]),
         9)  # each connective, on every profile of its operands
@example(Program([Top()]), 1)  # the empty ALL
@example(Program([Bot(), UndConst()]), 3)  # the empty ANY, #n
# the folds: x | full at THERE, full ^ (full ^ x) read at THERE, x & 0, and
# roots that fold to full and to 0
@example(Program([Imp(Atom("x"), Or(UndConst(), Atom("y")))]), 9)
@example(Program([Neg(Neg(Atom("x")))]), 3)
@example(Program([And(UndConst(), UndConst())]), 1)
@example(Program([Imp(Neg(UndConst()), Atom("x")), Neg(UndConst())]), 3)
# a raw program that reads the leaf x at two instructions: one pair of locals
@example(_raw([(LEAF, "x"), (LEAF, "y"), (LEAF, "x"), (prop.IMP, (2, 1)), (prop.NEG, (0,))],
              [3, 4]), 9)
def test_generated_code_matches_the_interpreter(program, batch):
    """Each root's HERE bitset on every batch, from the generated filter of the
    program with that root alone and from the interpreter; the generated
    filter of the whole program is their AND."""
    alone = [prop._generate(_one_root(program, r), False) for r in range(len(program.roots))]
    whole = prop._generate(program, False)

    def agree(table, full):
        here = [h for h, _ in program.run(table, full)]
        assert [holds(table, None, full) for holds in alone] == here
        assert whole(table, None, full) == functools.reduce(operator.and_, here, full)
        return 0

    with patch.object(prop, "BATCH_BITS", batch):
        assert list(oracle.scan_keep([(x, VALUE_ORDER) for x in "xyz"], agree)) == []


_KEYS = st.sampled_from(["x", "y", "z", prop.TRUE, prop.FALSE])


@st.composite
def _filter_cases(draw):
    """A program over the names x, y, z, a leaf list of three table keys for
    its copy over positions (a name may come twice, TRUE and FALSE too) and
    0-2 tie keys, at most one per root."""
    program = draw(_programs())
    leaves = draw(st.lists(_KEYS, min_size=3, max_size=3))
    ties = draw(st.lists(_KEYS, max_size=min(2, len(program.roots))))
    return program, leaves, ties


def _mask(roots, ties, table, full):
    """A part's mask from ``run``'s roots: the last ``len(ties)`` agree at HERE
    with their tie key's table entry, every other root holds at HERE."""
    free = len(roots) - len(ties)
    mask = full
    for h, _ in roots[:free]:
        mask &= h
    for (h, _), key in zip(roots[free:], ties):
        mask &= ~(h ^ table[key][0]) & full
    return mask


@settings(deadline=None)
@given(_filter_cases(), st.sampled_from([1, 3, 9, 8192]))
# a name read at two leaves, TRUE at the third, and a tied root
@example((Program([Imp(Atom("x"), Atom("y")), Atom("z")]), ["x", "x", prop.TRUE], ["y"]), 9)
# two tied roots, one of them tied to FALSE, and #n
@example((Program([Neg(Atom("x")), Or(Atom("y"), UndConst()), Atom("z")]), [prop.FALSE, "z", "z"],
          ["x", prop.FALSE]), 3)
# the folds: x | full at THERE, full ^ (full ^ x) read at THERE under a tie,
# x & 0, and roots that fold to full (free) and to 0 (tied)
@example((Program([Imp(Atom("x"), Or(UndConst(), Atom("y")))]), ["x", "y", "z"], []), 9)
@example((Program([Neg(Neg(Atom("x")))]), ["z", "y", "x"], ["y"]), 3)
@example((Program([And(UndConst(), UndConst())]), ["x", "y", "z"], []), 1)
@example((Program([Imp(Neg(UndConst()), Atom("x")), Neg(UndConst()), Atom("y")]),
          ["x", prop.TRUE, "z"], ["z", "y"]), 3)
def test_generated_filters_match_the_mask_from_run(case, batch):
    """Both forms of a part, read through the leaf list and by the leaves' own
    keys: the generated filter and the filter of the cold program give the
    mask computed from ``run`` on every batch."""
    named, leaves, ties = case
    forms = [(link([(named, "xyz".index)]), True), (named, False)]
    generated = [prop._generate(program, listed, ties) for program, listed in forms]

    def agree(table, full):
        for (program, listed), holds in zip(forms, generated):
            want = _mask(program.run([table[k] for k in leaves] if listed else table, full),
                         ties, table, full)
            assert holds(table, leaves, full) == want
            assert program.filter(listed, ties)(table, leaves, full) == want
        return 0

    with patch.object(prop, "BATCH_BITS", batch):
        assert list(oracle.scan_keep([(x, VALUE_ORDER) for x in "xyz"], agree)) == []


_A, _B = Atom("a"), Atom("b")


@pytest.mark.parametrize("op, formula", [
    (prop.NEG, Neg(_A)), (prop.IMP, Imp(_A, _B)), (ALL, And(_A, _B)), (ANY, Or(_A, _B)),
    (ALL, Top()), (ANY, Bot()), (prop.UND, UndConst()),
], ids=["neg", "imp", "all", "any", "empty-all", "empty-any", "und"])
def test_the_interpreter_agrees_with_the_oracle_on_every_operand_profile(op, formula):
    """One ``op`` instruction over leaves that take every profile tuple of its
    operands (3 for NEG, 9 for IMP and a binary ALL or ANY, 1 for the empty
    ones and ``#n``), one candidate each: ``run`` gives each candidate the
    profile that the oracle's scalar walk gives ``formula``, the connective
    over the atoms a and b."""
    names = [getattr(formula, field).name for field in formula.subformulas]
    combos = list(itertools.product(VALUE_ORDER, repeat=len(names)))
    table = {x: (sum(1 << c for c, combo in enumerate(combos) if combo[j].here),
                 sum(1 << c for c, combo in enumerate(combos) if combo[j].there))
             for j, x in enumerate(names)}
    program = _raw([(LEAF, x) for x in names] + [(op, tuple(range(len(names))))], [len(names)])
    [(here, there)] = program.run(table, (1 << len(combos)) - 1)
    assert [ThreeVal.from_pair(bool(here >> c & 1), bool(there >> c & 1))
            for c in range(len(combos))] == [oracle.value(formula, dict(zip(names, combo)))
                                             for combo in combos]


def _generated_sources(*forms):
    """The source ``_generate`` emits for each (program, listed, ties) form."""
    sources = []

    def spy(source, filename, *args):
        if filename == "<generated Program filter>":
            sources.append(source)
        return compile(source, filename, *args)

    with patch.object(prop, "compile", spy, create=True):
        for form in forms:
            prop._generate(*form)
    return sources


def test_generated_source_of_a_program_with_every_instruction_kind():
    """Pinned, read by the leaves' own keys with one tie and through a leaf
    list with two, so that an edit of the interpreter, of the folds or of
    the filter that changes the emitted code shows here: ``#n`` and the
    units fold away, no THERE half is computed that the mask does not read,
    ``Top`` leaves the mask and ``Bot`` is tied."""
    x, y, z = Atom("x"), Atom("y"), Atom("z")
    program = Program([Imp(x, y), Neg(z), Or(x, And(y, UndConst())), Top(), Bot()])
    assert _generated_sources(
        (program, False, ["s"]), (link([(program, "xyz".index)]), True, ["s", "s"]),
    ) == ["""def holds(table, leaves, full):
 h0, t0 = table[k0]
 h1, t1 = table[k1]
 h3, t3 = table[k3]
 return (full ^ h0 | h1) & (full ^ t0 | t1) & (full ^ t3) & h0 & (full ^ table[j0][0])""",
          """def holds(table, leaves, full):
 h0, t0 = table[leaves[0]]
 h1, t1 = table[leaves[1]]
 h3, t3 = table[leaves[2]]
 return (full ^ h0 | h1) & (full ^ t0 | t1) & (full ^ t3) & h0 & table[j0][0] & (full ^ table[j1][0])"""]


def test_generated_source_of_a_clause_shape_group_and_a_delta_group():
    """Pinned: the clause group of an argument with two attackers and pred's
    Delta group of the same shape, read through a leaf list, fold to the
    same filter. No statement reads ``#n``, no THERE half is computed that
    the mask does not read, and no decided root is ANDed into it."""
    assert _generated_sources(
        (translate._shape_group(translate._argument_clauses, 2), True, ()),
        (translate._delta_group(2), True, ()),
    ) == ["""def holds(table, leaves, full):
 h0, t0 = table[leaves[2]]
 h2, t2 = table[leaves[0]]
 h4, t4 = table[leaves[1]]
 b0 = (full ^ t2) & (full ^ t4)
 b1 = h2 | h4
 return (full ^ h0 | b0) & (full ^ b0 | h0) & (t0 | b1) & (full ^ b1 | full ^ t0)"""] * 2


@pytest.mark.parametrize("batch", [1, 3, prop.BATCH_BITS])
def test_a_tied_root_agrees_with_its_leaf_at_here(batch):
    """The last roots of a part with ties are tied, each to the scan's leaf
    that its tie keys, and agree with it at HERE whatever either is at
    THERE; every other root holds at HERE. A leaf list maps the program's
    leaves but not the ties."""
    FF, FT, TT = VALUE_ORDER
    listed = link([(Program([Atom("p"), Atom("r")]), "pr".index)])
    for parts in ([(Program([Atom("p"), Atom("r")]), None, ["s"])],
                  [(listed, ["p", "r"], ["s"])]):
        with patch.object(prop, "BATCH_BITS", batch):
            kept = [tuple(VALUE_ORDER[c] for c in index)
                    for index in scan([(x, VALUE_ORDER) for x in "prs"], parts)]
        assert (TT, FT, FF) in kept  # both false at HERE
        assert (TT, TT, FF) not in kept
        assert kept == [v for v in itertools.product(VALUE_ORDER, repeat=3)
                        if v[0] is TT and v[1].here == v[2].here]


def test_a_program_and_its_linked_copy_run_generated_code_from_the_hot_run():
    """A program counts its filter calls: the first HOT_RUNS - 1 compute the
    mask from ``run``, the next generates the filter of its form, and a
    filter handed out before then runs it from that call on."""
    program = Program([Imp(Atom("x"), Atom("y"))])
    copy = link([(program, str.upper)])
    with patch.object(prop, "HOT_RUNS", 3):
        for p, x, y in ((program, "x", "y"), (copy, "X", "Y")):
            holds = p.filter(False)
            for runs in range(1, 6):
                # x -> y fails at HERE when x is undecided and y false
                assert holds({x: (0, 1), y: (runs % 2, runs % 2)}, None, 1) == runs % 2
                assert bool(p._filters) == (runs >= 3)
            assert p._runs == 3 and p.filter(False) is p._filters[False]


@pytest.mark.parametrize("chain", [conj, disj])
def test_a_long_chain_runs_generated_past_the_hot_run(chain):
    """20,000 operands in one ALL or ANY: the generated source nests no deeper
    than a statement's share of them, so compiling it does not recurse too far."""
    names = [f"x{i}" for i in range(20000)]
    program = Program([chain(map(Atom, names))])
    table = {x: (i % 7 and 0b111, 0b111) for i, x in enumerate(names)}
    [(want, _)] = program.run(table, 0b111)
    for _ in range(prop.HOT_RUNS):
        assert program.filter(False)(table, None, 0b111) == want
    assert program._filters
    assert program.filter(False)(table, None, 0b111) == want == (0 if chain is conj else 0b111)


@pytest.mark.parametrize("name", ["q", "it's", 'say "no"', "a\\'b", "k0", "x\n)"])
def test_generated_code_reads_leaf_keys_from_its_namespace(name):
    """No leaf or tie key enters the generated source, and a missing one is an
    EvalError."""
    sources = []

    def spy(source, filename, *args):
        if filename == "<generated Program filter>":
            sources.append(source)
        return compile(source, filename, *args)

    program = Program([Imp(Atom(name), Atom("p"))])
    with patch.object(prop, "compile", spy, create=True), patch.object(prop, "HOT_RUNS", 1):
        assert program.filter(False)({name: (0, 1), "p": (0, 0)}, None, 1) == 0
        # tied to the name, the root agrees with it: both fail at HERE
        assert program.filter(False, [name])({name: (0, 1), "p": (0, 0)}, None, 1) == 1
        with pytest.raises(EvalError, match=re.escape(f"no value assigned to {'p'!r}")):
            list(scan([(name, VALUE_ORDER)], [(program, None)]))
        with pytest.raises(EvalError, match=re.escape(f"no value assigned to {name!r}")):
            list(scan([("p", VALUE_ORDER)], [(program, None)]))
    assert len(sources) == 2
    for source in sources:
        assert set(source) <= set("abcdefghijklmnopqrstuvwxyz0123456789_ ,:=()[]&|^\n")
