"""Axiomatic frames, disjunctive/conjunctive/acceptance-table encodings."""

import random

import pytest

from g3arg.aaf import (
    ADFNet,
    AxiomaticFrame,
    ConjunctiveNet,
    DisjunctiveNet,
    EncodingError,
    adf_two_valued_models,
    aaf_extensions,
    encode_adf,
    encode_conjunctive,
    encode_disjunctive,
)
from g3arg.af import Framework, Label, check_complete, enumerate_complete, \
    enumerate_complete_determined
from g3arg.corpus import (
    all_adf_nets_2,
    all_conjunctive_nets,
    all_frameworks,
    argument_names,
    random_adf_net,
    random_framework,
)
from g3arg.pred import InAtom, Constant, RAtom, classical_eval
from g3arg.prop import And, Atom, Bot, SearchSpaceExceeded, Top, UndConst, Or
from g3arg.syntax import format_formula, parse_pred


def labels(lab):
    return {k: v.value for k, v in lab.items()}


def two_element_constraint():
    return parse_pred(
        "(forall X (X = a | X = b)) & a != b"
        " & (exists X (forall Y (~R(Y,X)))) & ~R(a,a) & ~R(b,b)"
    )


def test_frame_validation():
    with pytest.raises(ValueError):
        AxiomaticFrame.make([], Top())
    with pytest.raises(ValueError):
        AxiomaticFrame.make(["a"], parse_pred("R(X,a)"))
    with pytest.raises(ValueError):
        AxiomaticFrame.make(["a"], InAtom(Constant("a")))
    with pytest.raises(ValueError):
        AxiomaticFrame.make(["a"], Or(UndConst(), Top()))
    # a propositional atom is no relation atom either
    a = Constant("a")
    with pytest.raises(ValueError, match="R and = only, found Atom"):
        AxiomaticFrame.make(["a"], And(Atom("p"), RAtom(a, a)))
    # constants must name arguments, as in higher networks
    with pytest.raises(ValueError, match="unknown element 'z'"):
        AxiomaticFrame.make(["a", "b"], parse_pred("R(a,z)"))
    with pytest.raises(ValueError, match="unknown element 'c'"):
        AxiomaticFrame.make(["a"], parse_pred("exists X (X = c)"))


def test_an_axiomatic_frame_refuses_a_repeated_element():
    """``aaf_extensions`` keys its scan by positions, so each name must have one."""
    with pytest.raises(ValueError, match="arguments must be unique and sorted"):
        aaf_extensions(AxiomaticFrame(("a", "b", "b"), Top()))


def test_an_axiomatic_frame_refuses_unsorted_arguments():
    """Unsorted arguments would give relations as unsorted pair tuples."""
    with pytest.raises(ValueError, match="arguments must be unique and sorted"):
        AxiomaticFrame(("b", "a"), Top())
    assert AxiomaticFrame.make(("b", "a"), Top()).s0 == ("a", "b")


def test_two_element_constraint_family():
    af = AxiomaticFrame.make(["a", "b"], two_element_constraint())
    fam = aaf_extensions(af)
    assert [(rel, [labels(l) for l in labs]) for rel, labs in fam] == [
        ((), [{"a": "in", "b": "in"}]),
        ((("a", "b"),), [{"a": "in", "b": "out"}]),
        ((("b", "a"),), [{"a": "out", "b": "in"}]),
    ]


def test_family_soundness():
    af = AxiomaticFrame.make(["a", "b"], two_element_constraint())
    for rel, labs in aaf_extensions(af):
        assert classical_eval(af.psi, af.s0, set(rel))
        f = Framework.make(af.s0, rel)
        for lab in labs:
            assert check_complete(f, lab) == (True, [])


def test_one_element_and_unsatisfiable_families():
    psi = parse_pred("~(exists X R(X,X)) & (exists Y (forall Z ~R(Z,Y)))")
    fam = aaf_extensions(AxiomaticFrame.make(["a"], psi))
    assert [(rel, [labels(l) for l in labs]) for rel, labs in fam] == [
        ((), [{"a": "in"}]),
    ]
    assert aaf_extensions(AxiomaticFrame.make(["a", "b"], Bot())) == []


def test_relation_scan_stops_at_four_arguments():
    psi = parse_pred("forall X (forall Y (~R(X,Y)))")
    assert aaf_extensions(AxiomaticFrame.make("abcd", psi)) == [
        ((), (dict.fromkeys("abcd", Label.IN),))
    ]
    with pytest.raises(SearchSpaceExceeded, match="2\\^25 attack relations"):
        aaf_extensions(AxiomaticFrame.make("abcde", psi))


def test_four_arguments_under_true_admit_every_relation():
    fam = aaf_extensions(AxiomaticFrame.make("abcd", Top()))
    assert len(fam) == 2**16
    assert sum(len(labs) for _, labs in fam) == 103064
    assert [rel for rel, _ in fam] == sorted(rel for rel, _ in fam)
    for rel, labs in random.Random(6).sample(fam, 200):
        assert list(labs) == enumerate_complete(Framework.make("abcd", rel))


def test_disjunctive_net_validation():
    with pytest.raises(ValueError):
        DisjunctiveNet.make(["a"], [("a", ())])
    with pytest.raises(ValueError):
        DisjunctiveNet.make(["a"], [("a", ("zz",))])
    with pytest.raises(ValueError):
        DisjunctiveNet.make(["a"], [("zz", ("a",))])
    dn = DisjunctiveNet.make(["b", "a"], [("a", ["b", "b"]), ("a", ("b",))])
    assert dn.s == ("a", "b")
    assert dn.dattacks == (("a", ("b",)),)


def test_disjunctive_encoding_realizes_each_attack():
    dn = DisjunctiveNet.make(["z", "y1", "y2"], [("z", ("y1", "y2"))])
    af = encode_disjunctive(dn)
    assert af.s0 == ("y1", "y2", "z")
    assert format_formula(af.psi) == (
        "(R(z,y1) | R(z,y2)) & ~R(y1,y1) & ~R(y1,y2) & ~R(y1,z)"
        " & ~R(y2,y1) & ~R(y2,y2) & ~R(y2,z) & ~R(z,z)"
    )
    fam = aaf_extensions(af)
    assert [(rel, [labels(l) for l in labs]) for rel, labs in fam] == [
        ((("z", "y1"),), [{"y1": "out", "y2": "in", "z": "in"}]),
        ((("z", "y1"), ("z", "y2")), [{"y1": "out", "y2": "out", "z": "in"}]),
        ((("z", "y2"),), [{"y1": "in", "y2": "out", "z": "in"}]),
    ]
    # the source never ends up attacked, so one target is always out
    for _, labs in fam:
        for lab in labs:
            assert lab["z"] is Label.IN
            assert Label.OUT in (lab["y1"], lab["y2"])


def test_disjunctive_encoding_with_no_attacks_pins_the_empty_relation():
    af = encode_disjunctive(DisjunctiveNet.make(["a", "b"]))
    fam = aaf_extensions(af)
    assert [(rel, [labels(l) for l in labs]) for rel, labs in fam] == [
        ((), [{"a": "in", "b": "in"}]),
    ]


def test_conjunctive_net_validation():
    with pytest.raises(ValueError):
        ConjunctiveNet.make(["a"], [((), "a")])
    with pytest.raises(ValueError):
        ConjunctiveNet.make(["a"], [(("zz",), "a")])
    with pytest.raises(ValueError):
        ConjunctiveNet.make(["a"], [(("a",), "zz")])
    cn = ConjunctiveNet.make(["b", "a"], [(["b", "b"], "a")])
    assert cn.cattacks == ((("b",), "a"),)


def test_group_lowering_shape():
    cn = ConjunctiveNet.make(["y1", "y2", "z"], [(("y1", "y2"), "z")])
    f, base = encode_conjunctive(cn)
    assert base == frozenset({"y1", "y2", "z"})
    assert f.arguments == (
        "aux_and__y1_y2__z",
        "aux_not__y1__y1_y2__z",
        "aux_not__y2__y1_y2__z",
        "y1",
        "y2",
        "z",
    )
    assert f.attacks == frozenset({
        ("y1", "aux_not__y1__y1_y2__z"),
        ("y2", "aux_not__y2__y1_y2__z"),
        ("aux_not__y1__y1_y2__z", "aux_and__y1_y2__z"),
        ("aux_not__y2__y1_y2__z", "aux_and__y1_y2__z"),
        ("aux_and__y1_y2__z", "z"),
    })
    # free sources are in, so the collector fires and the target is out
    assert [labels(l) for l in enumerate_complete(f)] == [{
        "y1": "in",
        "y2": "in",
        "aux_not__y1__y1_y2__z": "out",
        "aux_not__y2__y1_y2__z": "out",
        "aux_and__y1_y2__z": "in",
        "z": "out",
    }]


def test_group_attack_disarmed_by_attacking_one_source():
    cn = ConjunctiveNet.make(
        ["w", "y1", "y2", "z"], [(("y1", "y2"), "z"), (("w",), "y1")]
    )
    f, _ = encode_conjunctive(cn)
    # the singleton group is a plain edge, no gadget points for it
    assert ("w", "y1") in f.attacks
    assert not any("aux" in name and "w" in name for name in f.arguments)
    assert [labels(l) for l in enumerate_complete(f)] == [{
        "w": "in",
        "y1": "out",
        "y2": "in",
        "aux_not__y1__y1_y2__z": "in",
        "aux_not__y2__y1_y2__z": "out",
        "aux_and__y1_y2__z": "out",
        "z": "in",
    }]


def test_auxiliary_name_hygiene():
    clash = ConjunctiveNet.make(
        ["a", "b", "c", "aux_and__a_b__c"], [(("a", "b"), "c")]
    )
    with pytest.raises(EncodingError):
        encode_conjunctive(clash)
    # distinct groups whose joined names coincide are refused, not merged
    ambiguous = ConjunctiveNet.make(
        ["a", "b_c", "a_b", "c", "x"],
        [(("a", "b_c"), "x"), (("a_b", "c"), "x")],
    )
    with pytest.raises(EncodingError):
        encode_conjunctive(ambiguous)


def test_conjunctive_projection_properties():
    cn = ConjunctiveNet.make(
        ["w", "y1", "y2", "z"], [(("y1", "y2"), "z"), (("w",), "y1")]
    )
    f, base = encode_conjunctive(cn)
    for lab in enumerate_complete(f):
        for group, z in cn.cattacks:
            if all(lab[y] is Label.IN for y in group):
                assert lab[z] is Label.OUT
        for z in base:
            if lab[z] is Label.OUT:
                assert any(
                    all(lab[y] is Label.IN for y in group)
                    for group, target in cn.cattacks
                    if target == z
                )


def test_adf_net_validation():
    with pytest.raises(ValueError):
        ADFNet.make(["a", "b"], {"a": ((), [])})
    with pytest.raises(ValueError):
        ADFNet.make(["a"], {"a": (("a", "a"), [])})
    with pytest.raises(ValueError):
        ADFNet.make(["a"], {"a": (("zz",), [])})
    with pytest.raises(ValueError):
        ADFNet.make(["a"], {"a": (("a",), [(1, 0)])})
    with pytest.raises(ValueError):
        ADFNet.make(["a"], {"a": (("a",), [(2,)])})
    net = ADFNet.make(["a"], {"a": (("a",), [(1,), (0,), (1,)])})
    assert net.parents("a") == ("a",)
    assert net.rows("a") == ((0,), (1,))


def test_adf_unconditional_acceptance_needs_no_gadget():
    f, base = encode_adf(ADFNet.make(["x"], {"x": ((), [()])}))
    assert f.arguments == ("x",) and f.attacks == frozenset()
    assert base == frozenset({"x"})
    assert adf_two_valued_models(ADFNet.make(["x"], {"x": ((), [()])})) == [
        {"x": 1}
    ]


def test_adf_empty_condition_keeps_an_unattacked_off_switch():
    net = ADFNet.make(["x"], {"x": ((), [])})
    f, _ = encode_adf(net)
    assert f.arguments == ("aux_off__x", "x")
    assert f.attacks == frozenset({("aux_off__x", "x")})
    assert adf_two_valued_models(net) == [{"x": 0}]
    assert [labels(l) for l in enumerate_complete(f)] == [
        {"aux_off__x": "in", "x": "out"}
    ]


def test_adf_negated_parent_goes_through_an_inverter():
    net = ADFNet.make(
        ["a", "b", "x"],
        {"a": ((), [()]), "b": ((), [()]), "x": (("a", "b"), [(1, 0)])},
    )
    f, base = encode_adf(net)
    assert ("aux_off__x", "x") in f.attacks
    assert ("b", "aux_not__b__x__d0") in f.attacks
    assert adf_two_valued_models(net) == [{"a": 1, "b": 1, "x": 0}]
    assert projected_two_valued(f, base) == as_vector_set(
        adf_two_valued_models(net)
    )


def test_adf_self_negation_has_no_two_valued_model():
    net = ADFNet.make(["x"], {"x": (("x",), [(0,)])})
    assert adf_two_valued_models(net) == []
    f, base = encode_adf(net)
    assert projected_two_valued(f, base) == set()


def test_adf_mutual_support_has_two():
    net = ADFNet.make(
        ["a", "b"], {"a": (("b",), [(1,)]), "b": (("a",), [(1,)])}
    )
    assert adf_two_valued_models(net) == [{"a": 0, "b": 0}, {"a": 1, "b": 1}]
    f, base = encode_adf(net)
    assert projected_two_valued(f, base) == as_vector_set(
        adf_two_valued_models(net)
    )


def projected_two_valued(framework, base):
    """Decided projections of the encoding's complete labellings."""
    out = set()
    for lab in enumerate_complete_determined(framework, sorted(base)):
        if any(lab[x] is Label.UND for x in base):
            continue
        out.add(tuple(sorted((x, int(lab[x] is Label.IN)) for x in base)))
    return out


def as_vector_set(models):
    return {tuple(sorted(h.items())) for h in models}


def test_dnf_condition_expansion_instance():
    net = ADFNet.make(
        ["a", "b", "c", "x"],
        {
            "a": ((), [()]),
            "b": ((), [()]),
            "c": ((), [()]),
            "x": (
                ("a", "b", "c"),
                [(1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 1), (1, 1, 1)],
            ),
        },
    )
    assert adf_two_valued_models(net) == [{"a": 1, "b": 1, "c": 1, "x": 1}]
    f, base = encode_adf(net)
    assert len(f.arguments) == 31
    assert projected_two_valued(f, base) == as_vector_set(
        adf_two_valued_models(net)
    )


def test_corpus_sizes():
    assert argument_names(3) == ("a", "b", "c")
    with pytest.raises(ValueError):
        argument_names(0)
    with pytest.raises(ValueError):
        argument_names(27)
    assert len(list(all_frameworks(2))) == 16
    assert len(list(all_conjunctive_nets())) == 256
    assert len(list(all_adf_nets_2())) == 441


def test_random_generators_are_seed_deterministic():
    assert random_framework(5, random.Random(7)) == random_framework(
        5, random.Random(7)
    )
    names = argument_names(3)
    assert random_adf_net(names, random.Random(7)) == random_adf_net(
        names, random.Random(7)
    )
