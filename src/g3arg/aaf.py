"""Axiomatic frames and the three richer network encodings.

An axiomatic frame fixes the arguments but constrains the attack relation
by a classical first-order sentence psi over the domain of the quantified
theory Delta_A; its extensions are the models of Delta_A and psi, each a
decided relation with one of its complete labellings. Disjunctive attacks
(one source, a target set) are encoded as such a frame. Conjunctive group
attacks and acceptance-table networks are lowered to plain frameworks with
fresh auxiliary arguments and a projection back to the base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .af import LABEL_ORDER, LABEL_TO_VALUE, Framework, Labelling
from .prop import Formula, Neg, Program, SearchSpaceExceeded, conj, disj, scan
from .pred import (
    Constant,
    RAtom,
    constants_of,
    grounding,
    is_closed,
    non_classical_node,
)
from .threeval import DECIDED_ORDER
from .translate import _delta_over_positions


# The scan covers 2^(|s0|^2) relations by 3^|s0| profiles: 4 arguments pass, 5 not.
MAX_RELATIONS = 2**16


class EncodingError(Exception):
    """An encoding could not be built (name clash or malformed input)."""


@dataclass(frozen=True)
class AxiomaticFrame:
    """Arguments plus a classical constraint on the attack relation."""

    s0: tuple[str, ...]
    psi: Formula

    def __post_init__(self) -> None:
        if not self.s0:
            raise ValueError("an axiomatic frame needs at least one argument")
        if list(self.s0) != sorted(set(self.s0)):
            raise ValueError("arguments must be unique and sorted")
        if not is_closed(self.psi):
            raise ValueError("the constraint must be a closed formula")
        found = non_classical_node(self.psi)
        if found:
            raise ValueError(f"the constraint may mention R and = only, found {found}")
        unknown = sorted(constants_of(self.psi) - set(self.s0))
        if unknown:
            raise ValueError(f"the constraint mentions unknown element {unknown[0]!r}")

    @classmethod
    def make(cls, s0: Iterable[str], psi: Formula) -> "AxiomaticFrame":
        return cls(tuple(sorted(set(s0))), psi)


def aaf_extensions(
    af: AxiomaticFrame,
) -> list[tuple[tuple[tuple[str, str], ...], tuple[Labelling, ...]]]:
    """The models of Delta_A and psi, grouped by relation.

    One scan, keyed by the argument names, covers the decided relation
    pairs and every argument's In profile, keeping where Delta_A over
    positions, read through the arguments and their pairs, and psi hold. Relations
    come as sorted pair tuples in lexicographic order, their labellings in
    lexicographic in < out < und order. Raises SearchSpaceExceeded when
    there are more than MAX_RELATIONS.
    """
    n = len(af.s0)
    pairs, m = list(itertools.product(af.s0, repeat=2)), n * n
    if 2**m > MAX_RELATIONS:
        raise SearchSpaceExceeded(f"2^{m} attack relations exceed the bound {MAX_RELATIONS}")
    labels = [LABEL_TO_VALUE[label] for label in LABEL_ORDER]
    dims = [(p, DECIDED_ORDER) for p in pairs] + [(x, labels) for x in af.s0]
    delta = (_delta_over_positions(n), [*af.s0, *pairs])
    psi = (Program([af.psi], grounding(af.s0)), None)
    family: dict[tuple[int, ...], list[Labelling]] = {}
    for index in scan(dims, [delta, psi]):
        lab = dict(zip(af.s0, map(LABEL_ORDER.__getitem__, index[m:])))
        family.setdefault(index[:m], []).append(lab)
    return sorted(
        (tuple(itertools.compress(pairs, r)), tuple(labs)) for r, labs in family.items()
    )


@dataclass(frozen=True)
class DisjunctiveNet:
    """Attacks from one argument toward a nonempty set of targets."""

    s: tuple[str, ...]
    dattacks: tuple[tuple[str, tuple[str, ...]], ...]

    @classmethod
    def make(
        cls,
        s: Iterable[str],
        dattacks: Iterable[tuple[str, Iterable[str]]] = (),
    ) -> "DisjunctiveNet":
        args = tuple(sorted(set(s)))
        declared = set(args)
        normalized = []
        for z, targets in dattacks:
            tset = tuple(sorted(set(targets)))
            if not tset:
                raise ValueError("a disjunctive attack needs a nonempty target set")
            for name in (z, *tset):
                if name not in declared:
                    raise ValueError(f"undeclared argument {name!r}")
            normalized.append((z, tset))
        return cls(args, tuple(sorted(set(normalized))))


def encode_disjunctive(dn: DisjunctiveNet) -> AxiomaticFrame:
    """Constrain the relation to realize every disjunctive attack.

    Each attack contributes "some target is attacked by the source"; on top
    of that the relation is confined to pairs some attack can realize,
    since the disjunctive reading says nothing about other pairs and
    leaving them free would admit arbitrary extra attacks.
    """
    realizable = {
        (z, y) for z, targets in dn.dattacks for y in targets
    }
    parts: list[Formula] = [
        disj([RAtom(Constant(z), Constant(y)) for y in targets])
        for z, targets in dn.dattacks
    ]
    parts.extend(
        Neg(RAtom(Constant(u), Constant(x)))
        for u in dn.s
        for x in dn.s
        if (u, x) not in realizable
    )
    return AxiomaticFrame.make(dn.s, conj(parts))


@dataclass(frozen=True)
class ConjunctiveNet:
    """Group attacks: a nonempty source set jointly attacking one target."""

    s0: tuple[str, ...]
    cattacks: tuple[tuple[tuple[str, ...], str], ...]

    @classmethod
    def make(
        cls,
        s0: Iterable[str],
        cattacks: Iterable[tuple[Iterable[str], str]] = (),
    ) -> "ConjunctiveNet":
        args = tuple(sorted(set(s0)))
        declared = set(args)
        normalized = []
        for group, z in cattacks:
            gset = tuple(sorted(set(group)))
            if not gset:
                raise ValueError("a group attack needs a nonempty source set")
            for name in (*gset, z):
                if name not in declared:
                    raise ValueError(f"undeclared argument {name!r}")
            normalized.append((gset, z))
        return cls(args, tuple(sorted(set(normalized))))


def _check_fresh(base: Iterable[str], fresh: Sequence[str]) -> None:
    taken = set(base)
    seen = set()
    for name in fresh:
        if name in taken:
            raise EncodingError(f"auxiliary name {name!r} collides with an argument")
        if name in seen:
            raise EncodingError(f"auxiliary name {name!r} generated twice")
        seen.add(name)


def _lower_group(
    group: Sequence[str],
    target: str,
    attacks: list[tuple[str, str]],
    fresh: list[str],
) -> None:
    """Lower a joint attack to plain edges through inverter/collector points.

    Each source gets an inverter (out exactly when the source is in); the
    collector is in exactly when every inverter is out, and it carries the
    attack on the target. A single-source group is already a plain attack.
    """
    if len(group) == 1:
        attacks.append((group[0], target))
        return
    tag = "_".join(group) + "__" + target
    collector = f"aux_and__{tag}"
    fresh.append(collector)
    for y in group:
        inverter = f"aux_not__{y}__{tag}"
        fresh.append(inverter)
        attacks.append((y, inverter))
        attacks.append((inverter, collector))
    attacks.append((collector, target))


def encode_conjunctive(cn: ConjunctiveNet) -> tuple[Framework, frozenset[str]]:
    """Lower every group attack; returns the framework and the base set."""
    attacks: list[tuple[str, str]] = []
    fresh: list[str] = []
    for group, z in cn.cattacks:
        _lower_group(group, z, attacks, fresh)
    _check_fresh(cn.s0, fresh)
    return (
        Framework.make(tuple(cn.s0) + tuple(fresh), attacks),
        frozenset(cn.s0),
    )


@dataclass(frozen=True)
class ADFNet:
    """Acceptance-table network: per argument, parents and accepting rows.

    ``table[x]`` is a pair (parents, rows): an ordered parent tuple and a
    set of 0/1 vectors over it. An argument is meant to be accepted exactly
    when its parents' memberships match some row.
    """

    s: tuple[str, ...]
    table: tuple[tuple[str, tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]], ...]

    @classmethod
    def make(
        cls,
        s: Iterable[str],
        table: dict[str, tuple[Sequence[str], Iterable[Sequence[int]]]],
    ) -> "ADFNet":
        args = tuple(sorted(set(s)))
        declared = set(args)
        if set(table) != declared:
            raise ValueError("the acceptance table must cover every argument")
        normalized = []
        for x in args:
            parents, rows = table[x]
            parents = tuple(parents)
            if len(set(parents)) != len(parents):
                raise ValueError(f"duplicate parents for {x!r}")
            for p in parents:
                if p not in declared:
                    raise ValueError(f"undeclared parent {p!r}")
            row_set = set()
            for row in rows:
                row = tuple(int(b) for b in row)
                if len(row) != len(parents) or any(b not in (0, 1) for b in row):
                    raise ValueError(f"malformed acceptance row {row} for {x!r}")
                row_set.add(row)
            normalized.append((x, (parents, tuple(sorted(row_set)))))
        return cls(args, tuple(normalized))

    def parents(self, x: str) -> tuple[str, ...]:
        return dict(self.table)[x][0]

    def rows(self, x: str) -> tuple[tuple[int, ...], ...]:
        return dict(self.table)[x][1]


def encode_adf(adf: ADFNet) -> tuple[Framework, frozenset[str]]:
    """Lower acceptance tables to a plain framework plus a projection.

    Each argument x with at least one row over at least one parent gets an
    off-switch point attacking it; every accepting row jointly attacks the
    off-switch, positive parents in person and negative parents through a
    row-specific inverter. An argument whose single row is empty (accepted
    unconditionally) gets no off-switch; an argument with no rows keeps an
    unattacked off-switch and is always out.
    """
    attacks: list[tuple[str, str]] = []
    fresh: list[str] = []
    for x in adf.s:
        parents = adf.parents(x)
        rows = adf.rows(x)
        if rows == ((),):
            continue
        off = f"aux_off__{x}"
        fresh.append(off)
        attacks.append((off, x))
        for k, row in enumerate(rows):
            group = []
            for parent, bit in zip(parents, row):
                if bit:
                    group.append(parent)
                else:
                    inverter = f"aux_not__{parent}__{x}__d{k}"
                    fresh.append(inverter)
                    attacks.append((parent, inverter))
                    group.append(inverter)
            _lower_group(sorted(group), off, attacks, fresh)
    _check_fresh(adf.s, fresh)
    return (
        Framework.make(tuple(adf.s) + tuple(fresh), attacks),
        frozenset(adf.s),
    )


def adf_two_valued_models(adf: ADFNet) -> list[dict[str, int]]:
    """Boolean assignments where each argument equals its acceptance value.

    The independent oracle for the encoding: brute force over all 0/1
    assignments to the arguments.
    """
    out = []
    for combo in itertools.product((0, 1), repeat=len(adf.s)):
        h = dict(zip(adf.s, combo))
        ok = True
        for x in adf.s:
            parents = adf.parents(x)
            accepted = any(
                all(h[p] == bit for p, bit in zip(parents, row))
                for row in adf.rows(x)
            )
            if h[x] != int(accepted):
                ok = False
                break
        if ok:
            out.append(h)
    return out
