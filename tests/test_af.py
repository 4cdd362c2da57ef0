"""Framework construction, labelling checks, enumeration, classification."""

import pickle

import pytest
from hypothesis import given, strategies as st

import oracle
from g3arg.af import (
    Framework,
    Label,
    canonical,
    check_complete,
    classify,
    determined_layers,
    enumerate_complete,
    enumerate_complete_determined,
    restrict,
)


def labels(lab):
    return {k: v.value for k, v in lab.items()}


def complete_sets(f):
    return [labels(lab) for lab in enumerate_complete(f)]


def test_make_sorts_and_dedupes():
    f = Framework.make(["b", "a", "b"], [("b", "a"), ("b", "a")])
    assert f.arguments == ("a", "b")
    assert f.attacks == frozenset({("b", "a")})
    assert f.attacker_table() == {"a": ("b",), "b": ()}


def test_attacker_table_is_kept_read_only_and_leaves_equality_alone():
    f = Framework.make(["a", "b"], [("b", "a"), ("a", "a")])
    with pytest.raises(TypeError):
        f.attacker_table()["b"] = ("a",)
    assert f.attacker_table() == {"a": ("a", "b"), "b": ()}
    g = pickle.loads(pickle.dumps(f))
    assert g == f and hash(g) == hash(f)
    assert g.attacker_table() == f.attacker_table()


def test_validation_errors():
    with pytest.raises(ValueError):
        Framework.make([], [])
    with pytest.raises(ValueError):
        Framework.make(["a"], [("a", "zz ")])
    with pytest.raises(ValueError):
        Framework.make(["a!"], [])
    with pytest.raises(ValueError):
        Framework.make(["a"], [("a", "b")])


def test_check_complete_conditions():
    f = Framework.make("ab", [("a", "b")])
    ok, reasons = check_complete(f, {"a": Label.IN, "b": Label.OUT})
    assert ok and reasons == []
    ok, reasons = check_complete(f, {"a": Label.IN, "b": Label.IN})
    assert not ok
    assert reasons == [("b", "in requires every attacker out")]
    ok, reasons = check_complete(f, {"a": Label.UND, "b": Label.OUT})
    assert not ok
    assert ("a", "und requires an undecided attacker and none in") in reasons
    assert ("b", "out requires some attacker in") in reasons


def test_check_complete_requires_total_labelling():
    f = Framework.make("ab", [])
    with pytest.raises(ValueError):
        check_complete(f, {"a": Label.IN})


def test_check_complete_refuses_labels_that_are_no_label_member():
    f = Framework.make("ab", [("a", "b")])
    with pytest.raises(ValueError, match=r"^argument a has label 'in', which is not a Label member$"):
        check_complete(f, {"a": "in", "b": "out"})
    with pytest.raises(ValueError, match="argument b has label None"):
        check_complete(f, {"a": Label.IN, "b": None})


def test_classify_refuses_labels_that_are_no_label_member():
    with pytest.raises(ValueError, match="argument a has label 'in'"):
        classify([{"a": "in"}])
    # one stray label anywhere in the set is enough
    f = Framework.make("ab", [("a", "b"), ("b", "a")])
    labs = enumerate_complete(f)
    with pytest.raises(ValueError, match="argument b has label 'und'"):
        classify([*labs[:2], {"a": Label.UND, "b": "und"}])


def test_unattacked_arguments_are_in():
    f = Framework.make("ab", [])
    assert complete_sets(f) == [{"a": "in", "b": "in"}]


def test_self_attack_forces_undecided():
    f = Framework.make("a", [("a", "a")])
    assert complete_sets(f) == [{"a": "und"}]


def test_two_cycle():
    f = Framework.make("ab", [("a", "b"), ("b", "a")])
    assert complete_sets(f) == [
        {"a": "in", "b": "out"},
        {"a": "out", "b": "in"},
        {"a": "und", "b": "und"},
    ]


def test_three_cycle_only_undecided():
    f = Framework.make("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert complete_sets(f) == [{"a": "und", "b": "und", "c": "und"}]


def test_chain_fully_determined():
    f = Framework.make("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert complete_sets(f) == [
        {"a": "in", "b": "out", "c": "in", "d": "out"}
    ]


def test_classification_on_two_cycle():
    f = Framework.make("ab", [("a", "b"), ("b", "a")])
    split = classify(enumerate_complete(f))
    assert labels(split.grounded) == {"a": "und", "b": "und"}
    assert [labels(lab) for lab in split.stable] == [
        {"a": "in", "b": "out"},
        {"a": "out", "b": "in"},
    ]
    assert [labels(lab) for lab in split.preferred] == [
        {"a": "in", "b": "out"},
        {"a": "out", "b": "in"},
    ]
    with pytest.raises(ValueError):
        classify([])


def test_stable_absent_on_self_attack():
    f = Framework.make("a", [("a", "a")])
    split = classify(enumerate_complete(f))
    assert split.stable == ()
    assert labels(split.grounded) == {"a": "und"}


def test_restrict():
    f = Framework.make(
        ["a1", "a2", "a3", "a4", "a5"],
        [("a4", "a3"), ("a3", "a1"), ("a1", "a2"), ("a2", "a3"),
         ("a3", "a5"), ("a5", "a4")],
    )
    sub = restrict(f, ["a1", "a2", "a3"])
    assert sub.arguments == ("a1", "a2", "a3")
    assert sub.attacks == frozenset(
        {("a3", "a1"), ("a1", "a2"), ("a2", "a3")}
    )
    with pytest.raises(ValueError):
        restrict(f, [])
    with pytest.raises(ValueError):
        restrict(f, ["a1", "zz"])


def test_determined_layers():
    f = Framework.make("abc", [("a", "b"), ("b", "c")])
    assert determined_layers(f, ["a"]) == ["b", "c"]
    with pytest.raises(ValueError):
        determined_layers(
            Framework.make("ab", [("a", "b"), ("b", "a")]), []
        )


def test_determined_layers_refuses_unknown_base_names():
    f = Framework.make("ab", [("a", "b")])
    message = r"^base mentions unknown arguments \['y', 'zz'\]$"
    with pytest.raises(ValueError, match=message):
        determined_layers(f, ["zz", "a", "y"])
    with pytest.raises(ValueError, match=message):
        enumerate_complete_determined(f, ["zz", "a", "y"])


def test_determined_enumeration_matches_brute_force():
    f = Framework.make(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    via_base = enumerate_complete_determined(f, ["a"])
    assert via_base == oracle.enumerate_complete(f)
    everything = enumerate_complete_determined(f, list(f.arguments))
    assert everything == oracle.enumerate_complete(f)


def test_search_runs_without_recursion():
    names = [f"x{i:04d}" for i in range(3000)]
    loops = Framework.make(names, [(x, x) for x in names])
    assert enumerate_complete(loops) == [dict.fromkeys(names, Label.UND)]
    chain = Framework.make(names, zip(names, names[1:]))
    assert enumerate_complete(chain) == [
        {x: (Label.IN, Label.OUT)[i % 2] for i, x in enumerate(names)}
    ]


def test_canonical_is_sorted():
    lab = {"b": Label.IN, "a": Label.UND}
    assert canonical(lab) == (("a", "und"), ("b", "in"))


@st.composite
def _frameworks(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    names = [chr(ord("a") + i) for i in range(n)]
    pairs = [(u, x) for u in names for x in names]
    chosen = draw(st.sets(st.sampled_from(pairs)))
    return Framework.make(names, chosen)


@given(_frameworks())
def test_every_enumerated_labelling_checks_out(f):
    labs = enumerate_complete(f)
    assert labs, "the grounded labelling always exists"
    for lab in labs:
        ok, reasons = check_complete(f, lab)
        assert ok, reasons
    split = classify(labs)
    grounded_in = {x for x, v in split.grounded.items() if v is Label.IN}
    for lab in labs:
        assert grounded_in <= {x for x, v in lab.items() if v is Label.IN}
