"""Attack graphs and their complete labellings.

A labelling is legal (complete) when every argument satisfies the three
local conditions: an argument is in exactly when all of its attackers are
out (vacuously for unattacked arguments), out exactly when some attacker is
in, undecided exactly when no attacker is in but some attacker is
undecided. The complete labellings are found by a depth-first search that
labels the first unlabelled argument (in sorted order) in, out, then und,
and after each choice propagates the three conditions to a fixpoint; a
labelled argument whose attackers can no longer support its label cuts the
branch. Propagation from the empty labelling alone yields the grounded
in/out core, so acyclic graphs need no choice at all.
"""

from __future__ import annotations

import enum
import re
import types
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .threeval import ThreeVal

# An argument name, and any other name a document declares.
NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


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
T = TypeVar("T")


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
            if not NAME_RE.match(name):
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

    def kept(self, name: str, build: Callable[[Framework], T]) -> T:
        """``build(self)``, built on the first call for ``name`` and kept on the
        instance. A kept value is no field: ``==``, ``hash`` and ``repr`` never see it."""
        if name not in self.__dict__:
            object.__setattr__(self, name, build(self))
        return self.__dict__[name]

    def attacker_table(self) -> Mapping[str, tuple[str, ...]]:
        """Each argument's sorted attackers: a read-only view of one table per framework."""
        return types.MappingProxyType(self.kept("_attackers", _attackers))


def _attackers(f: Framework) -> dict[str, tuple[str, ...]]:
    table: dict[str, list[str]] = {x: [] for x in f.arguments}
    for u, x in sorted(f.attacks):
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


def enumerate_complete(f: Framework) -> list[Labelling]:
    """All complete labellings, in lexicographic IN < OUT < UND order."""
    return _search(f)


def _search(f: Framework) -> list[Labelling]:
    """The propagation search behind enumerate_complete and
    enumerate_complete_determined.

    It sits apart from both so that a wrapper around either public name (a
    tracing span, say) sees one search per call. The rules read the
    labelling as three bit sets, ``ins``, ``outs`` and ``unds`` (bit i for
    argument i), against each argument's attacker mask; ``lab`` holds the
    same labels as LABEL_ORDER members, for the leaves. Branching on the
    first unlabelled argument, with every earlier one labelled, yields the
    labellings in lexicographic order without a sort. The stack holds one
    frame per open choice: [argument, next label index, trail length before
    the choice]; unlabelling the arguments trailed since, and clearing their
    bits, restores the labelling the choice was made in.
    """
    names = f.arguments
    n = len(names)
    index = {x: i for i, x in enumerate(names)}
    attackers = [0] * n
    targets: list[list[int]] = [[] for _ in names]
    for u, x in f.attacks:
        attackers[index[x]] |= 1 << index[u]
        targets[index[u]].append(index[x])
    everyone = (1 << n) - 1
    IN, OUT, UND = LABEL_ORDER
    lab: list[Label | None] = [None] * n
    ins = outs = unds = 0
    trail: list[int] = []
    found: list[Labelling] = []
    stack: list[list[int]] = []
    queue = list(range(n))
    while True:
        # Label what the rules force; a break is a conflict.
        while queue:
            x = queue.pop()
            att = attackers[x]
            if not att & ~outs:
                forced = IN
            elif att & ins:
                forced = OUT
            elif not att & ~(ins | outs | unds):
                forced = UND
            elif att & unds and ins >> x & 1:
                break
            else:
                continue
            if lab[x] is None:
                lab[x] = forced
                if forced is IN:
                    ins |= 1 << x
                elif forced is OUT:
                    outs |= 1 << x
                else:
                    unds |= 1 << x
                trail.append(x)
                queue.extend(targets[x])
            elif lab[x] is not forced:
                break
        else:
            free = everyone & ~(ins | outs | unds)
            if free:
                stack.append([(free & -free).bit_length() - 1, 0, len(trail)])
            else:
                found.append(dict(zip(names, lab)))
        while stack:
            frame = stack[-1]
            x, choice, mark = frame
            gone = 0
            while len(trail) > mark:
                y = trail.pop()
                lab[y] = None
                gone |= 1 << y
            ins &= ~gone
            outs &= ~gone
            unds &= ~gone
            if choice < len(LABEL_ORDER):
                break
            stack.pop()
        else:
            return found
        frame[1] = choice + 1
        lab[x] = LABEL_ORDER[choice]
        if choice == 0:
            ins |= 1 << x
        elif choice == 1:
            outs |= 1 << x
        else:
            unds |= 1 << x
        trail.append(x)
        queue = [x, *targets[x]]


@dataclass(frozen=True)
class Classified:
    """The complete-labelling set split by the classical refinements."""

    stable: tuple[Labelling, ...]
    grounded: Labelling
    preferred: tuple[Labelling, ...]


def classify(labs: Sequence[Labelling]) -> Classified:
    """Split a complete-labelling set into stable, grounded and preferred.

    Stable labellings have no undecided argument; the grounded labelling is
    the unique one whose in-set lies below every other; preferred labellings
    have maximal in-sets, found by a sweep from the largest in-set to the
    smallest that keeps each set no kept set strictly contains.
    """
    if not labs:
        raise ValueError("complete semantics never yields zero labellings")
    in_sets = [frozenset(x for x, v in lab.items() if v is Label.IN) for lab in labs]
    stable = tuple(
        lab for lab in labs if all(v is not Label.UND for v in lab.values())
    )
    least = min(in_sets, key=len)
    if in_sets.count(least) != 1 or not all(least <= other for other in in_sets):
        raise ValueError("input is not the complete set of one framework")
    kept: list[int] = []
    for i in sorted(range(len(labs)), key=lambda i: len(in_sets[i]), reverse=True):
        if not any(in_sets[i] < in_sets[j] for j in kept):
            kept.append(i)
    preferred = tuple(labs[i] for i in sorted(kept))
    return Classified(stable, labs[in_sets.index(least)], preferred)


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
    """Complete labellings of a framework whose ``base`` determines the rest.

    Every non-base argument must depend on earlier layers only (see
    determined_layers), as the conjunctive and acceptance-table encodings
    guarantee; a base that does not determine the rest raises ValueError.
    The labellings are those of enumerate_complete, in the same order.
    """
    unknown = set(base) - set(f.arguments)
    if unknown:
        raise ValueError(f"base mentions unknown arguments {sorted(unknown)}")
    determined_layers(f, base)
    return _search(f)


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
