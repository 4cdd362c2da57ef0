"""Higher-level networks: attacks on attacks and on formulas.

Units are plain nodes plus named closed predicate formulas; an attack may
run between any two units. A formula unit whose body is a single relation
atom stands for the attack it mentions. Clause generation follows the
conventions for reading an attack as an implication toward a negation, and
the solver enumerates generalized models in which the relation itself is
three-valued.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .prop import (
    FALSE, TRUE, And, Atom, Formula, Imp, Neg, Or, Program, SearchSpaceExceeded, UndConst,
    conj, disj, link, reader, scan,
)
from .pred import (
    Constant,
    EqAtom,
    InAtom,
    PredInterp,
    RAtom,
    StatusRef,
    constants_of,
    free_vars,
    grounding,
    is_closed,
    relation_to_r_val,
)
from .syntax import MarkerText, format_formula
from .threeval import VALUE_ORDER, ThreeVal
from .translate import Theory

# solve_higher's default bound on its scan dimensions, three values each
MAX_UNKNOWNS = 14

R_UNIT_RE = re.compile(r"r\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)\Z")


@dataclass(frozen=True)
class WffUnit:
    """A named closed formula taking part in a higher network."""

    name: str
    formula: Formula

    @property
    def is_r_atom(self) -> bool:
        return (
            isinstance(self.formula, RAtom)
            and isinstance(self.formula.left, Constant)
            and isinstance(self.formula.right, Constant)
        )


@dataclass(frozen=True)
class HigherNetwork:
    nodes: tuple[str, ...]
    wffs: tuple[WffUnit, ...]
    hattacks: tuple[tuple[str, str], ...]

    @classmethod
    def make(
        cls,
        nodes: Iterable[str],
        wffs: Iterable[WffUnit | tuple[str, Formula]] = (),
        hattacks: Iterable[tuple[str, str]] = (),
    ) -> "HigherNetwork":
        """Normalize and validate; relation-atom endpoints are auto-declared.

        An attack endpoint written ``r(u,v)`` that names no declared unit
        becomes a formula unit with body R(u,v). A repeated attack is kept
        once, as ``parse_document`` keeps a repeated ``att`` fact.
        """
        node_tuple = tuple(sorted(set(nodes)))
        units: dict[str, WffUnit] = {}
        for w in wffs:
            unit = w if isinstance(w, WffUnit) else WffUnit(w[0], w[1])
            if unit.name in units:
                raise ValueError(f"duplicate formula unit {unit.name!r}")
            units[unit.name] = unit
        attack_list = []
        for s, t in hattacks:
            pair = []
            for end in (s, t):
                m = R_UNIT_RE.match(end)
                if m and end not in units and end not in node_tuple:
                    u, v = m.group(1), m.group(2)
                    name = f"r({u},{v})"
                    units.setdefault(
                        name, WffUnit(name, RAtom(Constant(u), Constant(v)))
                    )
                    pair.append(name)
                else:
                    pair.append(end)
            attack_list.append((pair[0], pair[1]))
        hn = cls(
            node_tuple,
            tuple(sorted(units.values(), key=lambda u: u.name)),
            tuple(sorted(set(attack_list))),
        )
        hn._validate()
        return hn

    def _validate(self) -> None:
        if not self.nodes:
            raise ValueError("a higher network needs at least one node")
        names = set(self.nodes)
        for unit in self.wffs:
            if unit.name in names:
                raise ValueError(f"unit name {unit.name!r} declared twice")
            names.add(unit.name)
            if not is_closed(unit.formula):
                raise ValueError(
                    f"unit {unit.name!r} has free variables "
                    f"{sorted(free_vars(unit.formula))}"
                )
            unknown = sorted(constants_of(unit.formula) - set(self.nodes))
            if unknown:
                raise ValueError(
                    f"unit {unit.name!r} mentions unknown element {unknown[0]!r}"
                )
        for s, t in self.hattacks:
            for end in (s, t):
                if end not in names:
                    raise ValueError(f"attack endpoint {end!r} is not declared")

    def is_node(self, name: str) -> bool:
        return name in self.nodes

    def wff(self, name: str) -> WffUnit:
        for unit in self.wffs:
            if unit.name == name:
                return unit
        raise KeyError(name)

    def unit_names(self) -> tuple[str, ...]:
        return self.nodes + tuple(u.name for u in self.wffs)


def attack_formula(hn: HigherNetwork, source: str, target: str) -> Formula:
    """The implication a single attack contributes, formulas written out.

    node -> node:      (In(s) & R(s,t)) -> ~In(t)
    node -> formula:   In(s) -> ~body
    formula -> node:   body -> ~In(t)
    formula -> formula: body -> ~body
    """
    s_in, _ = _source_forms(hn, source, target, _inline)
    return Imp(s_in, _unit_forms(hn, target, _inline)[1])


def _inline(unit: WffUnit) -> Formula:
    return unit.formula


def _forms(body: Formula) -> tuple[Formula, Formula]:
    return body, Neg(body)


def _edge_forms(source: str, target: str) -> tuple[Formula, Formula]:
    """(holds, fails) of a node attacking a node, jointly with the attack atom."""
    return _joint_forms(InAtom(Constant(source)), RAtom(Constant(source), Constant(target)))


def _joint_forms(member: Formula, edge: Formula) -> tuple[Formula, Formula]:
    return And(member, edge), Or(Neg(member), Neg(edge))


def _unit_forms(
    hn: HigherNetwork, name: str, wff_form: Callable[[WffUnit], Formula]
) -> tuple[Formula, Formula]:
    """(holds, fails) of a unit: its membership if a node, else its formula."""
    return _forms(InAtom(Constant(name)) if hn.is_node(name) else wff_form(hn.wff(name)))


def _source_forms(
    hn: HigherNetwork,
    source: str,
    target: str,
    wff_form: Callable[[WffUnit], Formula],
) -> tuple[Formula, Formula]:
    """(holds, fails) forms of an attacker, relative to its target's kind.

    A node attacking a node acts jointly with the attack atom between them;
    a node attacking a formula acts through its membership alone; a formula
    acts through itself.
    """
    if hn.is_node(source) and hn.is_node(target):
        return _edge_forms(source, target)
    return _unit_forms(hn, source, wff_form)


_UND = UndConst()


def _unit_clauses(
    name: str, holds: Formula, fails: Formula, attackers: list[tuple[Formula, Formula]]
) -> list[tuple[str, Formula]]:
    """One unit's a1, a2 (only when attacked), b1 and b2, from its attackers' forms."""
    outs = conj([fail for _, fail in attackers])
    ins = disj([hold for hold, _ in attackers])
    clauses = [(f"a1[{name}]", Imp(holds, Or(_UND, outs)))]
    if attackers:
        clauses.append((f"a2[{name}]", Imp(outs, Or(_UND, holds))))
    clauses.append((f"b1[{name}]", Imp(fails, Or(_UND, ins))))
    clauses.append((f"b2[{name}]", Imp(ins, Or(_UND, fails))))
    return clauses


def _extra_attackers(hn: HigherNetwork) -> dict[str, list[str]]:
    """Each unit's declared attackers in ``hattacks`` order, but for node -> node,
    which the implicit attacks of every node on every node cover."""
    extra: dict[str, list[str]] = {name: [] for name in hn.unit_names()}
    for s, t in hn.hattacks:
        if not (hn.is_node(s) and hn.is_node(t)):
            extra[t].append(s)
    return extra


def _star_clauses(
    hn: HigherNetwork,
    implicit: bool,
    wff_form: Callable[[WffUnit], Formula],
) -> tuple[tuple[str, Formula], ...]:
    clauses: list[tuple[str, Formula]] = []
    if implicit:
        for name, sources in _extra_attackers(hn).items():
            implied = hn.nodes if hn.is_node(name) else ()
            attackers = [_edge_forms(y, name) for y in implied]
            attackers += [_unit_forms(hn, s, wff_form) for s in sources]  # never node -> node
            clauses += _unit_clauses(name, *_unit_forms(hn, name, wff_form), attackers)
        return tuple(clauses)
    for s, t in hn.hattacks:
        clauses += _unit_clauses(
            f"{t}<-{s}", *_unit_forms(hn, t, wff_form), [_source_forms(hn, s, t, wff_form)]
        )
    # stable on the family: a1, a2, b1, b2, each in attack order
    return tuple(sorted(clauses, key=lambda clause: clause[0][:2]))


def star_theory(hn: HigherNetwork, implicit: bool = True) -> Theory:
    """The starred clause families for a higher network.

    With ``implicit`` set (the default), clauses are generated per unit:
    every node is jointly attacked by every node through the relation atom
    between them, whether or not that attack is declared, while formula
    units are attacked only as declared. A formula unit with no attackers
    gets no lower-bound clause (its standing is not forced up), but keeps
    the clause forbidding it to fail outright. ``star_texts`` renders these
    clauses without building them.

    With ``implicit`` off, clauses are generated one per declared attack,
    the display form used for worked examples.
    """
    return Theory("higher", _star_clauses(hn, implicit, _inline))


@functools.cache
def _unit_shape_texts(
    target: str | int, n: int, extras: tuple[str | int, ...]
) -> tuple[tuple[str, str], ...]:
    """A unit's clauses of ``star_theory``, rendered once over placeholders.

    A kind is "node", or how a formula unit's body binds: "eq" for a bare
    equality, which stays an equality so that its negation prints as
    ``a!=b``, else the body's precedence, which a ``MarkerText`` leaf
    parenthesizes by. ``{0}`` stands for the unit's name. A node target
    (n nodes) reads the nodes at ``{1}``..``{n}``; a formula target reads
    its body next (two slots for an equality, one otherwise). Then each
    extra attacker of kind ``extras[i]`` takes its slots in turn.
    """
    slots = map("{{{}}}".format, itertools.count(1))

    def placeholder(kind: str | int) -> Formula:
        if kind == "node":
            return InAtom(Constant(next(slots)))
        if kind == "eq":
            return EqAtom(Constant(next(slots)), Constant(next(slots)))
        return MarkerText(next(slots), kind)  # type: ignore[return-value]

    if target == "node":
        holds = InAtom(Constant("{0}"))
        attackers = [_edge_forms(next(slots), "{0}") for _ in range(n)]
    else:
        holds = placeholder(target)
        attackers = []
    attackers += [_forms(placeholder(kind)) for kind in extras]
    clauses = _unit_clauses("{0}", *_forms(holds), attackers)
    return tuple((name, format_formula(g)) for name, g in clauses)


def star_texts(hn: HigherNetwork) -> list[tuple[str, str]]:
    """``(name, format_formula(g))`` for each clause of ``star_theory(hn)``.

    Each unit shape (its kind, its node count if a node, and its extra
    attackers' kinds in order) is rendered once, and each formula body
    once per call; the names and body texts are filled in with
    ``str.format``, so no clause tree of ``hn`` is built.
    """
    kinds: dict[str, str | int] = dict.fromkeys(hn.nodes, "node")
    fills = {x: (x,) for x in hn.nodes}
    for unit in hn.wffs:
        f = unit.formula
        if type(f) is EqAtom:
            kinds[unit.name], fills[unit.name] = "eq", (f.left.name, f.right.name)
        else:
            marker = MarkerText.of(f)
            kinds[unit.name], fills[unit.name] = marker.prec, (marker.text,)
    texts = []
    for name, sources in _extra_attackers(hn).items():
        n = len(hn.nodes) if kinds[name] == "node" else 0
        names = [name, *(hn.nodes if n else fills[name])]
        for s in sources:
            names += fills[s]
        shape = _unit_shape_texts(kinds[name], n, tuple(kinds[s] for s in sources))
        texts += ((c.format(*names), t.format(*names)) for c, t in shape)
    return texts


@dataclass(frozen=True)
class GeneralizedModel:
    """A solver result: interpretation plus the standing of each unit."""

    interp: PredInterp
    statuses: tuple[tuple[str, ThreeVal], ...]

    def status(self, name: str) -> ThreeVal:
        for unit_name, v in self.statuses:
            if unit_name == name:
                return v
        raise KeyError(name)

    def in_value(self, node: str) -> ThreeVal:
        return self.interp.in_val[node]


@functools.cache
def _unit_group(node: bool, n: int, extras: int) -> Program:
    """A unit's clauses of ``star_theory``, compiled once over positions.

    Leaf 0 is the unit's own form. A node (of n) reads ``In(y)`` at leaves
    1..n and ``R(y, x)`` at leaves n+1..2n, for each node y in order; then
    each of the ``extras`` extra attackers' forms takes one leaf. A formula
    unit passes n = 0, as its clauses do not read the nodes.
    """
    leaves = [Atom(str(i)) for i in range(1 + 2 * n + extras)]
    attackers = [_joint_forms(leaves[1 + i], leaves[1 + n + i]) for i in range(n)]
    attackers += [_forms(leaf) for leaf in leaves[1 + 2 * n :]]
    clauses = _unit_clauses("", *_forms(leaves[0]), attackers)
    return link([(Program(g for _, g in clauses), int)])


def solve_higher(
    hn: HigherNetwork,
    fixed_r: Iterable[tuple[str, str]] | None = None,
    max_unknowns: int = MAX_UNKNOWNS,
) -> list[GeneralizedModel]:
    """Enumerate generalized models of the starred clauses.

    Membership profiles range over all three values per node, the relation
    over all three values per pair unless ``fixed_r`` pins it; a pinned
    pair is no scan dimension, and a pair outside the nodes raises
    ValueError. Formula-unit standings are unknowns too, restricted as
    follows: a relation-atom unit stands exactly as its relation pair, and
    any other unit must agree with its formula at the actual world, the
    upper world being constrained only by the clauses. Anchoring the upper
    world semantically as well would leave negated formulas no middle value
    and the worked fixtures without models; leaving the actual world free
    would admit models the clause analysis rules out.

    Each unit's clauses come from its shape group (``_unit_group``), shared
    by every unit of the same kind, node count and number of extra
    attackers, and read through the unit's leaf list (see ``prop.reader``):
    a node's form is keyed by its name, a relation-atom unit's by its pair
    and any other unit's by its status reference. A pinned pair is read as
    TRUE or FALSE. The formulas of the other formula units, which their
    standings must agree with, are compiled per call, their pinned pairs
    decided while compiling (see ``grounding``).

    Raises SearchSpaceExceeded when the scan dimensions (nodes, open
    relation pairs, formula units other than relation atoms) outnumber
    ``max_unknowns``.
    """
    nodes, n = hn.nodes, len(hn.nodes)
    decided = {} if fixed_r is None else relation_to_r_val(nodes, fixed_r)
    pairs = [p for p in itertools.product(nodes, nodes) if p not in decided]
    # An R-atom unit is its own R atom; a general unit's standing is a scan
    # dimension that must agree with its formula at the actual world.
    general_units = [u for u in hn.wffs if not u.is_r_atom]
    ties = [StatusRef(u.name) for u in general_units]
    dims = [(d, VALUE_ORDER) for d in [*nodes, *pairs, *ties]]
    if len(dims) > max_unknowns:
        raise SearchSpaceExceeded(
            f"{len(dims)} three-valued unknowns exceed the bound {max_unknowns}"
        )
    # the key each R pair's leaf reads: the pair while open, TRUE or FALSE when pinned
    edge = {p: TRUE if v is ThreeVal.TT else FALSE for p, v in decided.items()}
    edge.update((p, p) for p in pairs)
    key: dict[str, object] = {x: x for x in nodes}
    position = {u.name: i for i, u in enumerate(general_units, n + len(pairs))}
    sources = []  # each formula unit's standing, in name order: its R pair's or its scan position's
    for u in sorted(hn.wffs, key=lambda u: u.name):
        pair = (u.formula.left.name, u.formula.right.name) if u.is_r_atom else None
        key[u.name] = edge[pair] if pair else StatusRef(u.name)
        sources.append((u.name, pair or position[u.name]))
    parts = []
    for name, attackers in _extra_attackers(hn).items():
        node = hn.is_node(name)
        own = [*nodes, *(edge[y, name] for y in nodes)] if node else []
        group = _unit_group(node, n if node else 0, len(attackers))
        parts.append((group, [key[name], *own, *map(key.__getitem__, attackers)]))
    clauses = reader(parts)
    tied = Program([u.formula for u in general_units], grounding(nodes, decided))

    def keep(table: dict, full: int) -> int:
        return clauses(table, full) & tied.holds(table, full, ties)

    models: list[GeneralizedModel] = []
    for index in scan(dims, keep):
        values = [VALUE_ORDER[c] for c in index]
        r_val = {**decided, **dict(zip(pairs, values[n:]))}
        statuses = tuple([
            (name, r_val[src] if type(src) is tuple else values[src]) for name, src in sources
        ])
        models.append(GeneralizedModel(PredInterp(nodes, dict(zip(nodes, values)), r_val), statuses))
    return models
