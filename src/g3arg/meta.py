"""Higher-level networks: attacks on attacks and on formulas.

Units are plain nodes plus named closed predicate formulas; an attack may
run between any two units. A formula unit whose body is a single relation
atom stands for the attack it mentions. Clause generation follows the
conventions for reading an attack as an implication toward a negation, and
the solver enumerates generalized models in which the relation itself is
three-valued.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .prop import (
    And, Formula, Imp, Neg, Or, Program, SearchSpaceExceeded, UndConst, conj, disj, scan
)
from .pred import (
    Constant,
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
from .threeval import VALUE_ORDER, ThreeVal
from .translate import Theory

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
        becomes a formula unit with body R(u,v).
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
            tuple(sorted(attack_list)),
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
    t_in = (
        InAtom(Constant(target))
        if hn.is_node(target)
        else hn.wff(target).formula
    )
    return Imp(s_in, Neg(t_in))


def _inline(unit: WffUnit) -> Formula:
    return unit.formula


def _as_status(unit: WffUnit) -> Formula:
    return unit.formula if unit.is_r_atom else StatusRef(unit.name)


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
    if hn.is_node(source):
        member = InAtom(Constant(source))
        if hn.is_node(target):
            edge = RAtom(Constant(source), Constant(target))
            return And(member, edge), Or(Neg(member), Neg(edge))
        return member, Neg(member)
    body = wff_form(hn.wff(source))
    return body, Neg(body)


def _target_forms(
    hn: HigherNetwork, target: str, wff_form: Callable[[WffUnit], Formula]
) -> tuple[Formula, Formula]:
    if hn.is_node(target):
        member = InAtom(Constant(target))
        return member, Neg(member)
    body = wff_form(hn.wff(target))
    return body, Neg(body)


def _star_clauses(
    hn: HigherNetwork,
    implicit: bool,
    wff_form: Callable[[WffUnit], Formula],
) -> tuple[tuple[str, Formula], ...]:
    und = UndConst()
    clauses: list[tuple[str, Formula]] = []
    if implicit:
        for name in hn.unit_names():
            holds, fails = _target_forms(hn, name, wff_form)
            if hn.is_node(name):
                attackers = [
                    _source_forms(hn, y, name, wff_form) for y in hn.nodes
                ]
            else:
                attackers = []
            attackers.extend(
                _source_forms(hn, s, name, wff_form)
                for s, t in hn.hattacks
                if t == name and not (hn.is_node(s) and hn.is_node(name))
            )
            outs = conj([fail for _, fail in attackers])
            ins = disj([hold for hold, _ in attackers])
            clauses.append((f"a1[{name}]", Imp(holds, Or(und, outs))))
            if attackers:
                clauses.append((f"a2[{name}]", Imp(outs, Or(und, holds))))
            clauses.append((f"b1[{name}]", Imp(fails, Or(und, ins))))
            clauses.append((f"b2[{name}]", Imp(ins, Or(und, fails))))
        return tuple(clauses)
    for family in ("a1", "a2", "b1", "b2"):
        for s, t in hn.hattacks:
            t_holds, t_fails = _target_forms(hn, t, wff_form)
            s_holds, s_fails = _source_forms(hn, s, t, wff_form)
            if family == "a1":
                g = Imp(t_holds, Or(und, s_fails))
            elif family == "a2":
                g = Imp(s_fails, Or(und, t_holds))
            elif family == "b1":
                g = Imp(t_fails, Or(und, s_holds))
            else:
                g = Imp(s_holds, Or(und, t_fails))
            clauses.append((f"{family}[{t}<-{s}]", g))
    return tuple(clauses)


def star_theory(hn: HigherNetwork, implicit: bool = True) -> Theory:
    """The starred clause families for a higher network.

    With ``implicit`` set (the default), clauses are generated per unit:
    every node is jointly attacked by every node through the relation atom
    between them, whether or not that attack is declared, while formula
    units are attacked only as declared. A formula unit with no attackers
    gets no lower-bound clause (its standing is not forced up), but keeps
    the clause forbidding it to fail outright.

    With ``implicit`` off, clauses are generated one per declared attack,
    the display form used for worked examples.
    """
    return Theory("higher", _star_clauses(hn, implicit, _inline))


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


def solve_higher(
    hn: HigherNetwork,
    fixed_r: Iterable[tuple[str, str]] | None = None,
    max_unknowns: int = 14,
) -> list[GeneralizedModel]:
    """Enumerate generalized models of the starred clauses.

    Membership profiles range over all three values per node, the relation
    over all three values per pair unless ``fixed_r`` pins it; a pinned
    relation is decided while compiling (see ``grounding``) and is no scan
    dimension, and a pair outside the nodes raises ValueError. Formula-unit
    standings are unknowns too, restricted as follows: a relation-atom unit
    stands exactly as its relation pair, and any other unit must agree with
    its formula at the actual world, the upper world being constrained only
    by the clauses. Anchoring the upper world semantically as well would
    leave negated formulas no middle value and the worked fixtures without
    models; leaving the actual world free would admit models the clause
    analysis rules out.

    Raises SearchSpaceExceeded when the unknown count (nodes, relation
    pairs when free, formula units) exceeds ``max_unknowns``.
    """
    nodes = hn.nodes
    pairs = [(u, v) for u in nodes for v in nodes]
    relation = None if fixed_r is None else list(fixed_r)
    r_dims = [(p, VALUE_ORDER) for p in pairs] if relation is None else []
    unknowns = len(nodes) + len(r_dims) + len(hn.wffs)
    if unknowns > max_unknowns:
        raise SearchSpaceExceeded(
            f"{unknowns} three-valued unknowns exceed the bound {max_unknowns}"
        )
    clauses = [g for _, g in _star_clauses(hn, True, _as_status)]
    r_units = [
        (u.name, (u.formula.left.name, u.formula.right.name))
        for u in hn.wffs
        if u.is_r_atom
    ]
    general_units = [u for u in hn.wffs if not u.is_r_atom]
    program = Program(
        clauses + [u.formula for u in general_units], grounding(nodes, relation)
    )
    # An R-atom unit is its own R atom; a general unit's standing is a scan
    # dimension that must agree with its formula at the actual world.
    ties = [StatusRef(u.name) for u in general_units]
    dims = [(n, VALUE_ORDER) for n in nodes] + r_dims
    dims += [(ref, VALUE_ORDER) for ref in ties]
    pinned = None if relation is None else relation_to_r_val(nodes, relation)
    models: list[GeneralizedModel] = []
    for index in scan(dims, lambda table, full: program.holds(table, full, ties)):
        values = [choices[c] for (_, choices), c in zip(dims, index)]
        r_val = dict(zip(pairs, values[len(nodes) :])) if pinned is None else pinned
        statuses = {name: r_val[pair] for name, pair in r_units}
        statuses.update(
            zip((u.name for u in general_units), values[len(nodes) + len(r_dims) :])
        )
        interp = PredInterp(nodes, dict(zip(nodes, values)), r_val)
        models.append(GeneralizedModel(interp, tuple(sorted(statuses.items()))))
    return models
