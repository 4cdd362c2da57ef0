"""Framework-to-theory translations and their verification oracles.

Four routes are covered: the propositional clause theory whose models are
exactly the complete labellings, its two undecidedness-free variants (one
capturing stable labellings classically, one with the marker constant
replaced by its definition), instantiation of arguments by formulas, and
the quantified predicate route with an optional domain diagram that pins
the attack relation only up to renaming.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .af import (
    Framework,
    Label,
    LABEL_TO_VALUE,
    VALUE_TO_LABEL,
    Labelling,
    canonical,
    distinct_projections,
    enumerate_complete,
)
from .prop import (
    And,
    Atom,
    Formula,
    Imp,
    Neg,
    Or,
    Program,
    UndConst,
    atoms_of,
    conj,
    disj,
    iff,
    link,
    replace_und,
    select_assignments,
    substitute,
)
from .pred import (
    EqAtom,
    Exists,
    Forall,
    InAtom,
    RAtom,
    Variable,
    distinct_domain,
    grounding,
    relation_to_r_val,
)
from .syntax import HASH_N, MarkerText, format_formula
from .threeval import DECIDED_ORDER, ThreeVal


@dataclass(frozen=True)
class Theory:
    """A named, ordered clause list with a small routing tag."""

    tag: str
    clauses: tuple[tuple[str, Formula], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.clauses]
        if len(names) != len(set(names)):
            raise ValueError("clause names must be unique")

    def formulas(self) -> list[Formula]:
        return [g for _, g in self.clauses]

    def clause(self, name: str) -> Formula:
        for clause_name, g in self.clauses:
            if clause_name == name:
                return g
        raise KeyError(name)


def serialize_theory(t: Theory) -> str:
    return "\n".join(f"{name}: {format_formula(g)}" for name, g in t.clauses)


def framework_key(f: Framework) -> str:
    arrows = ",".join(f"{u}>{x}" for u, x in sorted(f.attacks))
    return ",".join(f.arguments) + ("|" + arrows if arrows else "|-")


@dataclass(frozen=True)
class CorrespondenceReport:
    """Evidence that a theory's models match a labelling set, or how not."""

    subject: str
    model_count: int
    labelling_count: int
    matched: int
    extra_models: tuple[tuple[tuple[str, str], ...], ...]
    extra_labellings: tuple[tuple[tuple[str, str], ...], ...]

    @property
    def ok(self) -> bool:
        return not self.extra_models and not self.extra_labellings


def _compare(
    subject: str,
    model_side: set[tuple[tuple[str, str], ...]],
    lab_side: set[tuple[tuple[str, str], ...]],
    model_count: int | None = None,
) -> CorrespondenceReport:
    return CorrespondenceReport(
        subject=subject,
        model_count=len(model_side) if model_count is None else model_count,
        labelling_count=len(lab_side),
        matched=len(model_side & lab_side),
        extra_models=tuple(sorted(model_side - lab_side)),
        extra_labellings=tuple(sorted(lab_side - model_side)),
    )


def _argument_clauses(x: str, ys: Sequence[str]) -> list[tuple[str, Formula]]:
    """``prop_theory``'s clauses of an argument x with the attackers ys."""
    all_out = conj([Neg(Atom(y)) for y in ys])
    some_in = disj([Atom(y) for y in ys])
    return [
        (f"a1[{x}]", Imp(Atom(x), Or(UndConst(), all_out))),
        (f"a2[{x}]", Imp(all_out, Or(UndConst(), Atom(x)))),
        (f"b1[{x}]", Imp(Neg(Atom(x)), Or(UndConst(), some_in))),
        (f"b2[{x}]", Imp(some_in, Or(Neg(Atom(x)), UndConst()))),
    ]


def prop_theory(f: Framework) -> Theory:
    """The four propositional clause families, one group per argument.

    For an argument x with attackers y1..yk:
        a1[x]: x -> (#n | ~y1 & .. & ~yk)
        a2[x]: (~y1 & .. & ~yk) -> (#n | x)
        b1[x]: ~x -> (#n | y1 | .. | yk)
        b2[x]: (y1 | .. | yk) -> (~x | #n)
    The empty conjunction is true, the empty disjunction false, both kept
    literally in the clauses.
    """
    table = f.attacker_table()
    return Theory("prop", tuple(
        clause for x in f.arguments for clause in _argument_clauses(x, table[x])
    ))


@functools.cache
def _shape_group(clauses, k: int, p: int) -> Program:
    """``clauses`` of an argument with k attackers, itself at position p (-1: none).

    Compiled over positions: the atoms "-1", "0", "1", .. become the leaves
    -1, 0, 1, ..; leaf i reads the i-th attacker and leaf -1 the argument,
    so a self-attack shares the argument's leaf.
    """
    return link([(Program(g for _, g in clauses(str(p), [*map(str, range(k))])), int)])


def _linked(f: Framework, clauses, und: bool = False) -> Program:
    """The shape group of ``clauses`` for each argument, linked in argument order.

    With ``und``, each ``#n`` reads ``und_definition(f)``, whose root comes last.
    """
    parts = []
    for x, ys in f.attacker_table().items():
        p = ys.index(x) if x in ys else -1
        parts.append((_shape_group(clauses, len(ys), p), (*ys, x).__getitem__))
    if not und:
        return link(parts)
    return link(parts, (_und_over_positions(len(f.arguments)), f.arguments.__getitem__))


@functools.cache
def _shape_texts(clauses, k: int, prec: int) -> tuple[tuple[str, str], ...]:
    """``clauses`` of an argument with k attackers, rendered once over placeholders.

    ``{i}`` stands for the i-th attacker, ``{k}`` for the argument and
    ``{k+1}`` for each ``#n``, which binds as tightly as ``prec``. Names and
    texts alike are filled in with ``str.format``; no name holds a brace, by
    ``af.NAME_RE``. Unlike ``_shape_group``, the key needs no self-attack
    position: a text is filled in by name, so an argument that attacks
    itself reads the same name at ``{k}`` as at its attacker slot.
    """
    marker = MarkerText(f"{{{k + 1}}}", prec)
    group = clauses(f"{{{k}}}", [f"{{{i}}}" for i in range(k)])
    return tuple((name, format_formula(g, marker)) for name, g in group)


def clause_program(f: Framework) -> Program:
    """The Program of ``prop_theory(f).formulas()``, linked from per-shape groups.

    An argument's clauses depend only on how many attackers it has and on
    where it attacks itself, so each such shape is compiled once.
    """
    return _linked(f, _argument_clauses)


def labelling_to_assignment(lab: Mapping[str, Label]) -> dict[str, ThreeVal]:
    return {x: LABEL_TO_VALUE[v] for x, v in lab.items()}


def assignment_to_labelling(h: Mapping[str, ThreeVal]) -> Labelling:
    return {x: VALUE_TO_LABEL[v] for x, v in h.items()}


def verify_prop_theory(f: Framework) -> CorrespondenceReport:
    """Check that the clause theory's models are the complete labellings.

    The models are scanned with ``clause_program(f)``; no clause tree is built.
    """
    models = list(select_assignments(f.arguments, clause_program(f).holds))
    model_side = {canonical(assignment_to_labelling(h)) for h in models}
    lab_side = {canonical(lab) for lab in enumerate_complete(f)}
    return _compare(framework_key(f), model_side, lab_side, len(models))


def _decided(names: Sequence[str]) -> Formula:
    return conj([Or(Atom(x), Neg(Atom(x))) for x in names])


def und_definition(f: Framework) -> Formula:
    """The defined undecidedness marker: every argument is decided."""
    return _decided(f.arguments)


@functools.cache
def _und_over_positions(n: int) -> Program:
    return link([(Program([_decided([*map(str, range(n))])]), int)])


def _fix_clauses(x: str, ys: Sequence[str]) -> list[tuple[str, Formula]]:
    """``stable_theory``'s clause of an argument x with the attackers ys."""
    return [(f"fix[{x}]", iff(Atom(x), conj([Neg(Atom(y)) for y in ys])))]


def stable_theory(f: Framework) -> Theory:
    """Each argument equivalent to the conjunction of its attackers' negations."""
    table = f.attacker_table()
    return Theory("stable", tuple(
        clause for x in f.arguments for clause in _fix_clauses(x, table[x])
    ))


def clause_texts(
    f: Framework, stable: bool = False, und: MarkerText = HASH_N
) -> list[tuple[str, str]]:
    """``(name, format_formula(g, und))`` for each clause of ``prop_theory(f)``.

    With ``stable``, the clauses of ``stable_theory(f)``, which have no ``#n``.
    Each attacker shape is rendered once and its names filled in, so no
    clause tree of ``f`` is built.
    """
    clauses = _fix_clauses if stable else _argument_clauses
    texts = []
    for x, ys in f.attacker_table().items():
        names = (*ys, x, und.text)
        texts += (
            (name.format(*names), text.format(*names))
            for name, text in _shape_texts(clauses, len(ys), und.prec)
        )
    return texts


def und_free_theories(f: Framework) -> tuple[Theory, Theory]:
    """Two marker-free theories.

    The first has classical two-valued models exactly at the stable
    labellings (each argument is equivalent to the conjunction of its
    attackers' negations). The second is the clause theory with the marker
    constant textually replaced by its definition; its models with the
    defined marker undecided cover the non-stable complete labellings.
    ``verify_und_free`` links the clause program to the definition, and the
    CLI prints both theories with ``clause_texts``; neither builds them.
    """
    defn = und_definition(f)
    free_clauses = tuple(
        (name, replace_und(g, defn)) for name, g in prop_theory(f).clauses
    )
    return stable_theory(f), Theory("und-free", free_clauses)


@dataclass(frozen=True)
class UndFreeReport:
    stable: CorrespondenceReport
    non_stable: CorrespondenceReport
    union_ok: bool

    @property
    def ok(self) -> bool:
        return self.stable.ok and self.non_stable.ok and self.union_ok


def verify_und_free(f: Framework) -> UndFreeReport:
    """Check the two-case elimination of the marker constant.

    Stable labellings must equal the two-valued models of the first theory
    of ``und_free_theories``; non-stable complete labellings must equal the
    models of the second in which the defined marker is undecided; together
    the two sides must rebuild the complete set. Both theories run as
    programs linked from per-shape groups, like ``clause_program``; no
    clause tree is built. Each ``#n`` of the clause program reads the root
    of ``und_definition``, compiled once per number of arguments, which has
    the same models as the rebuilt clauses. That root is one more root of
    the program, so each batch runs the code once.
    """
    subject = framework_key(f)

    stable_models = list(
        select_assignments(f.arguments, _linked(f, _fix_clauses).holds, DECIDED_ORDER)
    )
    stable_side = {canonical(assignment_to_labelling(h)) for h in stable_models}

    free = _linked(f, _argument_clauses, und=True)

    def undecided(table: Mapping, full: int) -> int:
        *clauses, (decided, _) = free.run(table, full)
        mask = full ^ decided
        for h, _ in clauses:
            mask &= h
        return mask

    partial_models = list(select_assignments(f.arguments, undecided))
    partial_side = {canonical(assignment_to_labelling(h)) for h in partial_models}

    complete = {canonical(lab) for lab in enumerate_complete(f)}
    stable_labs = {
        lab for lab in complete if all(v != Label.UND.value for _, v in lab)
    }

    return UndFreeReport(
        stable=_compare(subject + " (stable case)", stable_side, stable_labs,
                        len(stable_models)),
        non_stable=_compare(subject + " (undecided case)", partial_side,
                            complete - stable_labs, len(partial_models)),
        union_ok=(stable_side | partial_side) == complete,
    )


def _check_substitution(f: Framework, subst: Mapping[str, Formula]) -> None:
    """ValueError for a key that names no argument, or for a replacement that
    mentions an argument other than the one it replaces."""
    unknown = set(subst) - set(f.arguments)
    if unknown:
        raise ValueError(f"substitution for unknown arguments {sorted(unknown)}")
    for x, g in subst.items():
        clash = (atoms_of(g) & set(f.arguments)) - {x}
        if clash:
            raise ValueError(
                f"replacement for {x} reuses argument names {sorted(clash)}"
            )


def instantiate(f: Framework, subst: Mapping[str, Formula]) -> Theory:
    """Replace arguments by formulas throughout the clause theory.

    Replacement formulas must be built from fresh atoms; the only argument
    name a replacement may mention is the one it replaces (so the identity
    substitution stays legal).
    """
    _check_substitution(f, subst)
    base = prop_theory(f)
    mapping = dict(subst)
    return Theory(
        base.tag,
        tuple((name, substitute(g, mapping)) for name, g in base.clauses),
    )


def instantiated_models(
    f: Framework, subst: Mapping[str, Formula]
) -> list[dict[str, ThreeVal]]:
    """Models of the clause theory constrained by the substitution.

    The argument atoms are kept, the replacement formulas' atoms are added,
    and a substituted argument must agree with its replacement at the
    actual world. Requiring agreement at both worlds instead would be
    expressible inside the logic, but it would force replacements that are
    never false up there (such as excluded-middle instances) to rule the
    argument's profile FF out, and the out case would vanish. The
    actual-world reading reproduces the intended extension patterns.
    ``subst`` must meet ``instantiate``'s conditions.
    """
    _check_substitution(f, subst)
    extra = sorted(
        {a for g in subst.values() for a in atoms_of(g)} - set(f.arguments)
    )
    names = list(f.arguments) + extra
    program = Program(prop_theory(f).formulas() + list(subst.values()))
    ties = list(subst)
    return list(
        select_assignments(names, lambda table, full: program.holds(table, full, ties))
    )


def instantiation_patterns(
    f: Framework, subst: Mapping[str, Formula]
) -> list[Labelling]:
    """Distinct argument-label patterns among the instantiated models."""
    models = instantiated_models(f, subst)
    return distinct_projections(map(assignment_to_labelling, models), f.arguments)


def pred_theory() -> Theory:
    """The quantified clause theory; the framework enters via the relation.

    Same four families as the propositional route, stated once with
    quantifiers, plus the axiom that the attack relation is decided.
    """
    x = Variable("X")
    y = Variable("Y")
    all_attackers_out = Forall("Y", Imp(RAtom(y, x), Neg(InAtom(y))))
    some_attacker_in = Exists("Y", And(RAtom(y, x), InAtom(y)))
    clauses = (
        ("a1", Forall("X", Imp(InAtom(x), Or(UndConst(), all_attackers_out)))),
        ("a2", Forall("X", Imp(all_attackers_out, Or(UndConst(), InAtom(x))))),
        ("b1", Forall("X", Imp(Neg(InAtom(x)), Or(UndConst(), some_attacker_in)))),
        ("b2", Forall("X", Imp(some_attacker_in, Or(UndConst(), Neg(InAtom(x)))))),
        ("decided-r", Forall("X", Forall("Y", Or(RAtom(x, y), Neg(RAtom(x, y)))))),
    )
    return Theory("pred", clauses)


@functools.cache
def _delta_over_positions(n: int) -> Program:
    """Delta_A over 0..n-1: ``In(i)`` keyed ``i``, ``R(i,j)`` keyed ``(i, j)``."""
    return Program(pred_theory().formulas(), grounding(range(n)))


def delta_program(domain: Sequence[str]) -> Program:
    """The Program of ``pred_theory().formulas()`` over ``domain``.

    Delta_A names no element and depends on the framework only through R,
    so it is compiled once per domain size, over positions, and each call
    links it alone, renaming its leaves; bind R as data. Raises ValueError
    for a domain that lists an element twice.
    """
    dom = distinct_domain(domain)
    return link([(
        _delta_over_positions(len(dom)),
        lambda key: dom[key] if type(key) is int else (dom[key[0]], dom[key[1]]),
    )])


def verify_pred_theory(f: Framework) -> CorrespondenceReport:
    """Predicate route: ``delta_program`` scanned over In, the attacks bound as R."""
    r_val = relation_to_r_val(f.arguments, f.attacks)
    delta = delta_program(f.arguments).holds
    models = list(select_assignments(f.arguments, delta, bound=r_val))
    model_side = {canonical(assignment_to_labelling(h)) for h in models}
    lab_side = {canonical(lab) for lab in enumerate_complete(f)}
    return _compare(framework_key(f), model_side, lab_side, len(models))


def domain_diagram(f: Framework) -> Formula:
    """One closed formula listing the domain and the attack relation.

    Existentially names every argument, asserts pairwise distinctness, the
    presence of every attack, the absence of every non-attack, and that the
    named elements exhaust the domain. Satisfying relations are exactly the
    renamed copies of the framework's relation. Without the negative
    conjuncts any superset of a renamed copy would slip through, dragging
    in labellings of other frameworks.
    """
    names = f.arguments
    var_of = {name: Variable(f"X{i + 1}") for i, name in enumerate(names)}
    parts: list[Formula] = [
        Neg(EqAtom(var_of[a], var_of[b]))
        for a, b in itertools.combinations(names, 2)
    ]
    pairs = [(u, x) for u in names for x in names]
    parts.extend(
        RAtom(var_of[u], var_of[x]) for u, x in pairs if (u, x) in f.attacks
    )
    parts.extend(
        Neg(RAtom(var_of[u], var_of[x]))
        for u, x in pairs
        if (u, x) not in f.attacks
    )
    y = Variable("Y")
    parts.append(
        Forall("Y", disj([EqAtom(y, var_of[a]) for a in names]))
    )
    body = conj(parts)
    for name in reversed(names):
        body = Exists(var_of[name].name, body)
    return body


@dataclass(frozen=True)
class DiagramReport:
    """Free-relation recovery check, up to renaming of domain elements."""

    subject: str
    interp_count: int
    expected_count: int
    matched: int
    extra_found: tuple
    extra_expected: tuple

    @property
    def ok(self) -> bool:
        return not self.extra_found and not self.extra_expected


def verify_domain_diagram(f: Framework) -> DiagramReport:
    """Scan all decided relations; the diagram must recover the framework.

    The found side collects (relation, labelling) pairs from models of the
    quantified clauses plus the diagram, the relation ranging freely over
    decided values: ``delta_program`` is scanned under each relation that
    the diagram admits. The expected side is the framework's complete
    labellings pushed through every renaming of the arguments.
    """
    dom = f.arguments
    diagram = Program([domain_diagram(f)], grounding(dom))
    relations = select_assignments(itertools.product(dom, dom), diagram.holds, DECIDED_ORDER)
    delta = delta_program(dom).holds
    # r_val lists its pairs in product order over the sorted arguments: each relation is sorted
    interps = [
        (tuple(p for p, v in r_val.items() if v.here), canonical(assignment_to_labelling(h)))
        for r_val in relations
        for h in select_assignments(dom, delta, bound=r_val)
    ]
    found = set(interps)
    expected = set()
    complete = enumerate_complete(f)
    for perm in itertools.permutations(f.arguments):
        sigma = dict(zip(f.arguments, perm))
        rel = tuple(sorted((sigma[u], sigma[x]) for u, x in f.attacks))
        for lab in complete:
            expected.add(
                (rel, canonical({sigma[x]: lab[x] for x in f.arguments}))
            )
    return DiagramReport(
        subject=framework_key(f),
        interp_count=len(interps),
        expected_count=len(expected),
        matched=len(found & expected),
        extra_found=tuple(sorted(found - expected)),
        extra_expected=tuple(sorted(expected - found)),
    )
