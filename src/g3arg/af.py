"""Attack graphs and their complete labellings.

A labelling is legal (complete) when every argument satisfies the three
local conditions: an argument is in exactly when all of its attackers are
out (vacuously for unattacked arguments), out exactly when some attacker is
in, undecided exactly when no attacker is in but some attacker is
undecided. Everything here is brute force by design; the package targets
desk-scale exhaustive verification.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .threeval import ThreeVal

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class Label(enum.Enum):
    IN = "in"
    OUT = "out"
    UND = "und"


# Lexicographic base for labelling enumeration.
LABEL_ORDER = (Label.IN, Label.OUT, Label.UND)

LABEL_TO_VALUE = {
    Label.IN: ThreeVal.TT,
    Label.OUT: ThreeVal.FF,
    Label.UND: ThreeVal.FT,
}
VALUE_TO_LABEL = {v: k for k, v in LABEL_TO_VALUE.items()}

Labelling = dict[str, Label]


@dataclass(frozen=True)
class Framework:
    """A finite directed attack graph. Arguments are kept sorted by name."""

    arguments: tuple[str, ...]
    attacks: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.arguments:
            raise ValueError("a framework needs at least one argument")
        if list(self.arguments) != sorted(set(self.arguments)):
            raise ValueError("arguments must be unique and sorted")
        for name in self.arguments:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad argument name {name!r}")
        declared = set(self.arguments)
        for u, x in self.attacks:
            if u not in declared or x not in declared:
                raise ValueError(f"attack ({u},{x}) mentions an undeclared argument")

    @classmethod
    def make(
        cls,
        arguments: Iterable[str],
        attacks: Iterable[tuple[str, str]] = (),
    ) -> "Framework":
        return cls(
            tuple(sorted(set(arguments))),
            frozenset((u, x) for u, x in attacks),
        )

    def attackers_of(self, x: str) -> tuple[str, ...]:
        return tuple(sorted(u for u, t in self.attacks if t == x))

    def attacker_table(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {x: [] for x in self.arguments}
        for u, x in sorted(self.attacks):
            table[x].append(u)
        return {x: tuple(ys) for x, ys in table.items()}


def check_complete(
    f: Framework, lab: Mapping[str, Label]
) -> tuple[bool, list[tuple[str, str]]]:
    """Test labelling legality; returns (ok, violations).

    Each violation is an (argument, broken condition) pair. The labelling
    must cover exactly the framework's arguments.
    """
    if set(lab) != set(f.arguments):
        raise ValueError("labelling must be total over the framework's arguments")
    table = f.attacker_table()
    violations: list[tuple[str, str]] = []
    for x in f.arguments:
        mine = lab[x]
        attackers = [lab[y] for y in table[x]]
        if mine is Label.IN:
            if not all(a is Label.OUT for a in attackers):
                violations.append((x, "in requires every attacker out"))
        elif mine is Label.OUT:
            if not any(a is Label.IN for a in attackers):
                violations.append((x, "out requires some attacker in"))
        else:
            if any(a is Label.IN for a in attackers) or not any(
                a is Label.UND for a in attackers
            ):
                violations.append(
                    (x, "und requires an undecided attacker and none in")
                )
    return (not violations, violations)


def all_labellings(f: Framework):
    for combo in itertools.product(LABEL_ORDER, repeat=len(f.arguments)):
        yield dict(zip(f.arguments, combo))


def enumerate_complete(f: Framework) -> list[Labelling]:
    """All complete labellings, in lexicographic IN < OUT < UND order."""
    return [lab for lab in all_labellings(f) if check_complete(f, lab)[0]]


@dataclass(frozen=True)
class Classified:
    """The complete-labelling set split by the classical refinements."""

    stable: tuple[Labelling, ...]
    grounded: Labelling
    preferred: tuple[Labelling, ...]


def classify(labs: Sequence[Labelling]) -> Classified:
    """Split a complete-labelling set into stable, grounded and preferred.

    Stable labellings have no undecided argument; the grounded labelling is
    the unique one with the smallest in-set; preferred labellings have
    maximal in-sets.
    """
    if not labs:
        raise ValueError("complete semantics never yields zero labellings")
    in_sets = [frozenset(x for x, v in lab.items() if v is Label.IN) for lab in labs]
    stable = tuple(
        lab for lab in labs if all(v is not Label.UND for v in lab.values())
    )
    grounded = [
        lab
        for lab, mine in zip(labs, in_sets)
        if all(mine <= other for other in in_sets)
    ]
    if len(grounded) != 1:
        raise ValueError("input is not the complete set of one framework")
    preferred = tuple(
        lab
        for lab, mine in zip(labs, in_sets)
        if not any(mine < other for other in in_sets)
    )
    return Classified(stable, grounded[0], preferred)


def restrict(f: Framework, subset: Iterable[str]) -> Framework:
    """The induced subframework on ``subset``."""
    chosen = set(subset)
    if not chosen:
        raise ValueError("cannot restrict to an empty argument set")
    foreign = chosen - set(f.arguments)
    if foreign:
        raise ValueError(f"unknown arguments {sorted(foreign)}")
    return Framework.make(
        chosen,
        ((u, x) for u, x in f.attacks if u in chosen and x in chosen),
    )


def determined_layers(f: Framework, base: Sequence[str]) -> list[str]:
    """Order the non-base arguments so attackers always come earlier.

    Raises if no such order exists (some non-base argument cycle).
    """
    placed = set(base)
    pending = [x for x in f.arguments if x not in placed]
    table = f.attacker_table()
    order: list[str] = []
    while pending:
        ready = [x for x in pending if all(y in placed for y in table[x])]
        if not ready:
            raise ValueError(
                "arguments not determined by the base: " + ", ".join(sorted(pending))
            )
        for x in ready:
            placed.add(x)
            order.append(x)
        pending = [x for x in pending if x not in placed]
    return order


def enumerate_complete_determined(
    f: Framework, base: Sequence[str]
) -> list[Labelling]:
    """Complete labellings found by guessing only the ``base`` arguments.

    Sound whenever every non-base argument depends on earlier layers only;
    in a complete labelling such an argument's label is a function of its
    attackers' labels, so propagation loses nothing. Every propagated
    candidate is still validated in full. Output order matches
    enumerate_complete.
    """
    base = tuple(sorted(set(base)))
    unknown = set(base) - set(f.arguments)
    if unknown:
        raise ValueError(f"base mentions unknown arguments {sorted(unknown)}")
    order = determined_layers(f, base)
    table = f.attacker_table()
    found: list[Labelling] = []
    for combo in itertools.product(LABEL_ORDER, repeat=len(base)):
        lab: Labelling = dict(zip(base, combo))
        for x in order:
            attackers = [lab[y] for y in table[x]]
            if all(a is Label.OUT for a in attackers):
                lab[x] = Label.IN
            elif any(a is Label.IN for a in attackers):
                lab[x] = Label.OUT
            else:
                lab[x] = Label.UND
        if check_complete(f, lab)[0]:
            found.append({x: lab[x] for x in f.arguments})
    found.sort(
        key=lambda lab: tuple(LABEL_ORDER.index(lab[x]) for x in f.arguments)
    )
    return found


def canonical(lab: Mapping[str, Label]) -> tuple[tuple[str, str], ...]:
    """Hashable normal form of a labelling, for set comparisons."""
    return tuple(sorted((x, v.value) for x, v in lab.items()))


def distinct_projections(
    labs: Iterable[Mapping[str, Label]], names: Iterable[str]
) -> list[Labelling]:
    """The restrictions of ``labs`` to ``names``, each once, in first-seen order."""
    names = sorted(names)
    seen: dict[tuple[tuple[str, str], ...], Labelling] = {}
    for lab in labs:
        shadow = {x: lab[x] for x in names}
        seen.setdefault(canonical(shadow), shadow)
    return list(seen.values())
