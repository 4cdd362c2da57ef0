"""Attack graphs and their complete labellings.

A labelling is legal (complete) when every argument satisfies the three
local conditions: an argument is in exactly when all of its attackers are
out (vacuously for unattacked arguments), out exactly when some attacker is
in, undecided exactly when no attacker is in but some attacker is
undecided. The complete labellings are found by a depth-first search over
bit masks that labels the first unlabelled argument (in sorted order) in,
out, then und, and after each choice propagates to a fixpoint. The forward
rules label an argument from its attackers; the backward rules label
attackers from an argument: an in argument's attackers are out, and an out
(und) argument's last attacker that could still be in (und) must be. A
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


def _masks(f: Framework) -> tuple[dict[str, int], list[int], list[int]]:
    """Each argument's index, and for each index the bit masks of its
    attackers and of its targets (bit i for argument i)."""
    index = {x: i for i, x in enumerate(f.arguments)}
    attackers = [0] * len(index)
    targets = [0] * len(index)
    for u, x in f.attacks:
        i, j = index[u], index[x]
        attackers[j] |= 1 << i
        targets[i] |= 1 << j
    return index, attackers, targets


def _require_labels(lab: Mapping[str, Label]) -> None:
    """Raise ValueError naming the first argument whose label is no Label member."""
    if not {*map(type, lab.values())} <= {Label}:
        x, v = next((x, v) for x, v in lab.items() if type(v) is not Label)
        raise ValueError(f"argument {x} has label {v!r}, which is not a Label member")


def check_complete(
    f: Framework, lab: Mapping[str, Label]
) -> tuple[bool, list[tuple[str, str]]]:
    """Test labelling legality; returns (ok, violations).

    Each violation is an (argument, broken condition) pair. The labelling
    must cover exactly the framework's arguments, each with a Label member.
    """
    if set(lab) != set(f.arguments):
        raise ValueError("labelling must be total over the framework's arguments")
    _require_labels(lab)
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
    tracing span, say) sees one search per call. The labelling is three bit
    sets, ``ins``, ``outs`` and ``unds`` (bit i for argument i), read against
    the framework's attacker masks; ``lab`` holds the same labels as
    LABEL_ORDER members, for the leaves. ``dirty`` holds the arguments to
    re-check: the targets of each argument that gets a label, and the
    argument itself when a choice or a backward rule labelled it (a forward
    rule's label agrees with the attackers it was read from). Re-checking
    an unlabelled argument applies the forward rules; a labelled one is
    held to its label, and the backward rules label its attackers: an in
    argument's attackers are out, and an out (und) argument without an
    attacker in (und) whose last possible supporter is unlabelled forces it
    in (und). Branching on the first unlabelled argument, with every
    earlier one labelled, yields the labellings in lexicographic order
    without a sort. The stack holds one frame per open choice: [argument,
    next label index, ins, outs, unds, lab], the labelling the choice was
    made in, so backtracking is one assignment.
    """
    names = f.arguments
    _, attackers, targets = f.kept("_masks", _masks)
    IN, OUT, UND = LABEL_ORDER
    lab: list[Label | None] = [None] * len(names)
    ins = outs = unds = 0
    dirty = everyone = (1 << len(names)) - 1
    found: list[Labelling] = []
    stack: list[list] = []
    while True:
        # Label what the rules force; a break is a conflict.
        while dirty:
            x = dirty.bit_length() - 1
            dirty ^= 1 << x
            att = attackers[x]
            free = att & ~(ins | outs | unds)
            mine = lab[x]
            if mine is None:
                if not att & ~outs:
                    lab[x] = IN
                    ins |= 1 << x
                elif att & ins:
                    lab[x] = OUT
                    outs |= 1 << x
                elif not free:
                    lab[x] = UND
                    unds |= 1 << x
                else:
                    continue
                dirty |= targets[x]
            elif mine is IN:
                # every attacker is out
                if att & (ins | unds):
                    break
                outs |= free
                dirty |= free
                while free:
                    y = free.bit_length() - 1
                    free ^= 1 << y
                    lab[y] = OUT
                    dirty |= targets[y]
            elif att & ins:
                # an out argument is settled, an und one refuted
                if mine is UND:
                    break
            elif not (mine is UND and att & unds):
                # needs a supporter, and only the free attackers are left
                if not free:
                    break
                if not free & (free - 1):
                    y = free.bit_length() - 1
                    if mine is OUT:
                        lab[y] = IN
                        ins |= free
                    else:
                        lab[y] = UND
                        unds |= free
                    dirty |= free | targets[y]
        else:
            free = everyone & ~(ins | outs | unds)
            if free:
                stack.append([(free & -free).bit_length() - 1, 0, ins, outs, unds, lab])
            else:
                found.append(dict(zip(names, lab)))
        if not stack:
            return found
        frame = stack[-1]
        x, choice, ins, outs, unds, lab = frame
        if choice == 2:
            # the last branch takes the frame's own list
            stack.pop()
            unds |= 1 << x
        else:
            frame[1] = choice + 1
            lab = lab[:]
            if choice:
                outs |= 1 << x
            else:
                ins |= 1 << x
        lab[x] = LABEL_ORDER[choice]
        dirty = 1 << x | targets[x]


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
    smallest that keeps each set no kept set strictly contains. Every label
    must be a Label member.
    """
    if not labs:
        raise ValueError("complete semantics never yields zero labellings")
    for lab in labs:
        _require_labels(lab)
    in_sets = [frozenset([x for x, v in lab.items() if v is Label.IN]) for lab in labs]
    stable = tuple(lab for lab in labs if Label.UND not in lab.values())
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

    Raises if ``base`` names an unknown argument, or if no such order exists
    (some non-base argument cycle).
    """
    names = f.arguments
    index, attackers, _ = f.kept("_masks", _masks)
    unknown = set(base).difference(index)
    if unknown:
        raise ValueError(f"base mentions unknown arguments {sorted(unknown)}")
    placed = 0
    for x in base:
        placed |= 1 << index[x]
    pending = [i for i in range(len(names)) if not placed >> i & 1]
    order: list[str] = []
    while pending:
        ready = [i for i in pending if not attackers[i] & ~placed]
        if not ready:
            raise ValueError(
                "arguments not determined by the base: "
                + ", ".join(names[i] for i in pending)
            )
        for i in ready:
            placed |= 1 << i
            order.append(names[i])
        pending = [i for i in pending if not placed >> i & 1]
    return order


def enumerate_complete_determined(
    f: Framework, base: Sequence[str]
) -> list[Labelling]:
    """Complete labellings of a framework whose ``base`` determines the rest.

    Every non-base argument must depend on earlier layers only (see
    determined_layers), as the conjunctive and acceptance-table encodings
    guarantee; a base that names an unknown argument or does not determine
    the rest raises ValueError. The labellings are those of
    enumerate_complete, in the same order.
    """
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
