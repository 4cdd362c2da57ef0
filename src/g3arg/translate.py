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
from typing import AbstractSet, Callable, Mapping, Sequence

from .af import (
    Framework,
    Label,
    LABEL_TO_VALUE,
    VALUE_TO_LABEL,
    Labelling,
    distinct_projections,
    enumerate_complete,
)
from .prop import (
    FALSE,
    TRUE,
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
    scan,
    select_assignments,
    substitute,
)
from .pred import (
    EqAtom,
    Exists,
    Forall,
    InAtom,
    RAtom,
    StatusRef,
    Variable,
    grounding,
)
from .syntax import MarkerText, format_formula
from .threeval import DECIDED_ORDER, VALUE_ORDER, ThreeVal


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
    """``f``'s arguments and sorted attacks as one line, built once and kept on ``f``."""
    return f.kept("_key", lambda f: ",".join(f.arguments) + "|" + (
        ",".join(f"{u}>{x}" for u, x in sorted(f.attacks)) or "-"))


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


def _compare(subject: str, found: Sequence, expected: AbstractSet, report=CorrespondenceReport):
    """``report`` (CorrespondenceReport or DiagramReport, whose fields match
    position by position) of the models ``found`` against the set ``expected``."""
    models = set(found)
    return report(
        subject, len(found), len(expected), len(models & expected),
        tuple(sorted(models - expected)), tuple(sorted(expected - models)),
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


def _theory(tag: str, clauses, f: Framework) -> Theory:
    """``clauses(x, ys)`` of each argument x of ``f`` with its attackers ys."""
    table = f.attacker_table()
    return Theory(tag, tuple(clause for x in f.arguments for clause in clauses(x, table[x])))


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
    return _theory("prop", _argument_clauses, f)


@functools.cache
def _shape_group(clauses, k: int) -> Program:
    """``clauses`` of an argument with k attackers, compiled over positions.

    The atoms "0", "1", .. become the leaves 0, 1, ..: leaf i reads the
    i-th attacker and leaf k the argument. A leaf list may read one name
    at two leaves, so an argument that attacks itself needs no shape of
    its own.
    """
    return link([(Program(g for _, g in clauses(str(k), [*map(str, range(k))])), int)])


@functools.cache
def _shape_texts(clauses, k: int, prec: int) -> tuple[tuple[str, str], ...]:
    """``clauses`` of an argument with k attackers, rendered once over placeholders.

    ``{i}`` stands for the i-th attacker, ``{k}`` for the argument and
    ``{k+1}`` for each ``#n``, which binds as tightly as ``prec``. Names and
    texts alike are filled in with ``str.format``; no name holds a brace, by
    ``af.NAME_RE``. As with ``_shape_group``, the attacker count is the
    whole key: an argument that attacks itself fills in the same name at
    ``{k}`` as at its attacker slot.
    """
    marker = MarkerText(f"{{{k + 1}}}", prec)
    group = clauses(f"{{{k}}}", [f"{{{i}}}" for i in range(k)])
    return tuple((name, format_formula(replace_und(g, marker))) for name, g in group)


def clause_parts(f: Framework, stable: bool = False) -> list[tuple[Program, tuple[str, ...]]]:
    """The clause theory as ``scan`` parts, for a scan keyed by ``f.arguments``.

    Each argument's shape group of ``prop_theory(f)``'s clauses, and the
    names its leaves read: every clause holds at HERE on the candidates
    ``scan`` keeps, each ``#n`` reading the scan's ``und``. With
    ``stable``, the clauses of ``stable_theory(f)``, to be scanned over
    DECIDED_ORDER. Nothing is built for ``f``; a scan of at least
    HOT_RUNS batches links the groups (see ``prop.scan``).
    """
    clauses = _fix_clauses if stable else _argument_clauses
    return [(_shape_group(clauses, len(ys)), (*ys, x)) for x, ys in f.attacker_table().items()]


# Each label's text, read without the Python-level ``Enum.value`` descriptor.
_TEXT = {label: label.value for label in Label}


def _complete_labellings(f: Framework) -> frozenset[tuple[tuple[str, str], ...]]:
    """The canonical complete labellings of ``f``, searched once and kept on it."""
    return f.kept("_complete", lambda f: frozenset(
        tuple(zip(lab, map(_TEXT.__getitem__, lab.values()))) for lab in enumerate_complete(f)))


def labelling_to_assignment(lab: Mapping[str, Label]) -> dict[str, ThreeVal]:
    return {x: LABEL_TO_VALUE[v] for x, v in lab.items()}


def assignment_to_labelling(h: Mapping[str, ThreeVal]) -> Labelling:
    return {x: VALUE_TO_LABEL[v] for x, v in h.items()}


def _labellings(
    args: Sequence[str], parts: Sequence[tuple], order: Sequence[ThreeVal] = VALUE_ORDER,
    und: tuple | None = None,
) -> list[tuple[tuple[str, str], ...]]:
    """The canonical labellings of the candidates ``scan`` keeps, in scan order.

    Each of ``args`` ranges over ``order``, its dimension keyed by itself. A
    model is ``tuple(zip(args, labels))``: canonical with no dict and no
    sort only because ``args`` is sorted, as ``Framework.arguments`` is.
    """
    labels = [_TEXT[VALUE_TO_LABEL[v]] for v in order]
    return [
        tuple(zip(args, map(labels.__getitem__, index)))
        for index in scan([(x, order) for x in args], parts, und)
    ]


def verify_prop_theory(f: Framework) -> CorrespondenceReport:
    """Check that the clause theory's models are the complete labellings.

    The models are scanned with ``clause_parts(f)``; no clause tree is built.
    """
    models = _labellings(f.arguments, clause_parts(f))
    return _compare(framework_key(f), models, _complete_labellings(f))


def _decided(names: Sequence[str]) -> Formula:
    return conj([Or(Atom(x), Neg(Atom(x))) for x in names])


def und_definition(f: Framework) -> Formula:
    """The defined undecidedness marker: every argument is decided."""
    return _decided(f.arguments)


@functools.cache
def _und_over_positions(n: int) -> Program:
    return link([(Program([_decided([*map(str, range(n))])]), int)])


# the marker alone: tied to FALSE, it keeps where the bound #n fails at HERE
_UNDECIDED = (Program([UndConst()]), None, [FALSE])


def _fix_clauses(x: str, ys: Sequence[str]) -> list[tuple[str, Formula]]:
    """``stable_theory``'s clause of an argument x with the attackers ys."""
    return [(f"fix[{x}]", iff(Atom(x), conj([Neg(Atom(y)) for y in ys])))]


def stable_theory(f: Framework) -> Theory:
    """Each argument equivalent to the conjunction of its attackers' negations."""
    return _theory("stable", _fix_clauses, f)


def clause_texts(
    f: Framework, stable: bool = False, und: MarkerText = MarkerText("#n", 5)
) -> list[tuple[str, str]]:
    """``(name, format_formula(replace_und(g, und)))`` for each clause of ``prop_theory(f)``.

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
    ``verify_und_free`` runs the clause program with ``#n`` bound to the
    definition, and the CLI prints both theories with ``clause_texts``;
    neither builds them.
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
    the two sides must rebuild the complete set. Both theories are scanned
    as ``clause_parts``, from per-shape groups; no clause tree is built.
    The second is the clause theory itself, with ``#n`` bound at run time
    to ``und_definition``, compiled once per number of arguments and read
    through the list of ``f.arguments``: the scan's ``und``, which gives
    the rebuilt clauses' models. One more part, the marker alone tied to
    FALSE, keeps them where the defined marker fails at HERE, without
    running the definition again. The complete labellings are those kept
    on ``f``, so the other verifiers share them.
    """
    subject = framework_key(f)
    args = f.arguments

    stable_models = _labellings(args, clause_parts(f, stable=True), DECIDED_ORDER)
    defn = (_und_over_positions(len(args)), args)
    partial_models = _labellings(args, [_UNDECIDED, *clause_parts(f)], und=defn)

    complete, und_text = _complete_labellings(f), _TEXT[Label.UND]
    stable_labs = {lab for lab in complete if all(v != und_text for _, v in lab)}

    return UndFreeReport(
        stable=_compare(subject + " (stable case)", stable_models, stable_labs),
        non_stable=_compare(subject + " (undecided case)", partial_models,
                            complete - stable_labs),
        union_ok={*stable_models, *partial_models} == complete,
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
    ``subst`` must meet ``instantiate``'s conditions. The scan reads
    ``clause_parts`` and the replacements tied to their arguments.
    """
    _check_substitution(f, subst)
    extra = sorted(
        {a for g in subst.values() for a in atoms_of(g)} - set(f.arguments)
    )
    names = list(f.arguments) + extra
    tied = (Program(list(subst.values())), None, list(subst))
    return list(select_assignments(names, [*clause_parts(f), tied]))


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
    """Delta_A over 0..n-1: ``In(i)`` is leaf ``i`` and ``R(i,j)`` leaf ``n + n*i + j``."""
    return link([(
        Program(pred_theory().formulas(), grounding(range(n))),
        lambda key: key if type(key) is int else n + n * key[0] + key[1],
    )])


def _attacks(f: Framework) -> list[int]:
    """``f``'s attacks as a leaf list: TRUE or FALSE per argument pair, in product order."""
    return [TRUE if p in f.attacks else FALSE for p in itertools.product(f.arguments, repeat=2)]


@functools.cache
def _delta_group(k: int) -> Program:
    """``pred_theory``'s clause bodies at X = k over 0..k, R(i,k) true for i < k, other R false.

    So it reads In alone: leaf i the i-th attacker and leaf k the argument;
    an argument that attacks itself reads its own name at two leaves.
    """
    decided = {(i, j): ThreeVal.TT if j == k and i < k else ThreeVal.FF
               for i, j in itertools.product(range(k + 1), repeat=2)}
    bodies = [g.body for g in pred_theory().formulas()]
    return Program(bodies, grounding(range(k + 1), decided), {"X": k})


def verify_pred_theory(f: Framework) -> CorrespondenceReport:
    """Predicate route: Delta_A with R decided as ``f``'s attacks, one instance of its
    clauses per argument, read through the names of its attackers and itself."""
    parts = [(_delta_group(len(ys)), (*ys, x)) for x, ys in f.attacker_table().items()]
    return _compare(framework_key(f), _labellings(f.arguments, parts), _complete_labellings(f))


def _diagram(n: int, literals: Callable[[list], list[Formula]]) -> Formula:
    """A diagram naming n elements X1..Xn, with ``literals(atoms)`` on R.

    ``atoms`` lists R(Xi+1,Xj+1) for each position pair (i, j), in product
    order. The named elements are pairwise distinct and exhaust the domain.
    """
    xs = [Variable(f"X{i + 1}") for i in range(n)]
    atoms = [RAtom(a, b) for a, b in itertools.product(xs, repeat=2)]
    parts = [Neg(EqAtom(a, b)) for a, b in itertools.combinations(xs, 2)]
    parts += literals(atoms)
    y = Variable("Y")
    parts.append(Forall("Y", disj([EqAtom(y, x) for x in xs])))
    body = conj(parts)
    for x in reversed(xs):
        body = Exists(x.name, body)
    return body


def domain_diagram(f: Framework) -> Formula:
    """One closed formula listing the domain and the attack relation.

    Existentially names every argument, asserts pairwise distinctness, the
    presence of every attack, the absence of every non-attack, and that the
    named elements exhaust the domain. Satisfying relations are exactly the
    renamed copies of the framework's relation. Without the negative
    conjuncts any superset of a renamed copy would slip through, dragging
    in labellings of other frameworks.
    """
    attacks = _attacks(f)
    return _diagram(len(f.arguments), lambda atoms: [
        *(atom for atom, a in zip(atoms, attacks) if a == TRUE),
        *(Neg(atom) for atom, a in zip(atoms, attacks) if a == FALSE),
    ])


@functools.cache
def _diagram_over_positions(n: int) -> Program:
    """The domain diagram over 0..n-1 with the attacks left open, its leaves numbered.

    Each pair's literal is R(Xi,Xj) <-> A(i,j): ``R(i,j)`` is leaf
    ``n*i + j`` and ``A(i,j)`` leaf ``n*n + n*i + j``. A leaf list that
    sends A(i,j) to TRUE or FALSE makes the literal R(Xi,Xj) or its
    negation, which is ``domain_diagram``'s conjunct.
    """
    diagram = _diagram(n, lambda atoms: [
        iff(atom, StatusRef(str(k))) for k, atom in enumerate(atoms)
    ])
    return link([(
        Program([diagram], grounding(range(n))),
        lambda key: n * key[0] + key[1] if type(key) is tuple else n * n + int(key.name),
    )])


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
    decided values: Delta_A over positions is scanned under each relation
    that the diagram admits, read through the arguments and that relation's
    TRUE and FALSE leaves in product order. The relation scan is keyed by
    position pairs. The diagram is the one compiled per domain size, read
    through the leaf list that sends its A leaves to ``f``'s attacks; from
    4 arguments its 2^(n^2) relations span more than one batch, so ``scan``
    links the list into a copy, the smaller program (256 instructions
    against 1,106 at 5 arguments; 2.1x faster at 4, 5x at 5, ``BENCH_25.json``).
    The expected side is the complete labellings kept on ``f`` pushed
    through every renaming of the arguments. Both sides are compared as
    ``verify_pred_theory``'s are.
    """
    dom, n = f.arguments, len(f.arguments)
    pairs = list(itertools.product(range(n), repeat=2))
    diagram = (_diagram_over_positions(n), [*pairs, *_attacks(f)])
    delta, truth = _delta_over_positions(n), [TRUE if v.here else FALSE for v in DECIDED_ORDER]
    found = []
    for index in scan([(p, DECIDED_ORDER) for p in pairs], [diagram]):
        relation = [truth[c] for c in index]
        # pairs come in product order over the sorted arguments: each relation is sorted
        named = tuple((dom[i], dom[j]) for (i, j), r in zip(pairs, relation) if r == TRUE)
        found += ((named, lab) for lab in _labellings(dom, [(delta, [*dom, *relation])]))
    complete, expected = _complete_labellings(f), set()
    for perm in itertools.permutations(dom):
        sigma = dict(zip(dom, perm))
        rel = tuple(sorted((sigma[u], sigma[x]) for u, x in f.attacks))
        expected.update((rel, tuple(sorted((sigma[x], v) for x, v in lab))) for lab in complete)
    return _compare(framework_key(f), found, expected, DiagramReport)
