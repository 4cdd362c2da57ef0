"""Propositional formulas over the two-world frame and their model theory.

Formula nodes are small frozen dataclasses sharing the ``Formula`` marker
base. The connective nodes (Neg, And, Or, Imp) are reused by the predicate
layer, so the evaluator here rejects anything it does not know rather than
guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .threeval import VALUE_ORDER, ThreeVal, World


class EvalError(Exception):
    """A formula was evaluated outside its contract (missing atom, wrong AST)."""


class Formula:
    """Marker base class for every formula node, propositional or predicate."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class UndConst(Formula):
    """The distinguished constant holding at THERE but never at HERE.

    Concrete syntax ``#n``. It is a dedicated node rather than a reserved
    atom name, so user atoms can never collide with it.
    """


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


PropAssignment = Mapping[str, ThreeVal]

# A formula is evaluated on a whole batch of candidates at once: each half
# of its (HERE, THERE) pair is an int bitset with bit i set when candidate i
# satisfies it at that world. The widest batch one run covers is BATCH_BITS;
# wider scans loop over their leading dimensions.
BATCH_BITS = 1 << 13

# Instruction kinds. Program's ``expand`` hook maps each node the connectives
# do not cover to (LEAF, table key) or to (ALL or ANY, [(subformula, env)]).
LEAF, ALL, ANY, NEG, IMP, UND = range(6)
_BINARY = {And: ALL, Or: ANY, Imp: IMP}
_CONSTANT = {Top: ALL, Bot: ANY, UndConst: UND}  # Top is the empty AND


def _shape(f: Formula, env, expand) -> tuple[int, object]:
    kind = type(f)
    if kind in _BINARY:
        return _BINARY[kind], ((f.left, env), (f.right, env))
    if kind is Neg:
        return NEG, ((f.body, env),)
    if kind in _CONSTANT:
        return _CONSTANT[kind], ()
    if expand is not None:
        return expand(f, env)
    if kind is Atom:
        return LEAF, f.name
    raise EvalError(f"not a propositional formula node: {f!r}")


class Program:
    """Formulas compiled to straight-line code over (HERE, THERE) bitsets.

    Each instruction reads a leaf from the table or applies one connective
    to earlier results; equal subformulas share one instruction. The
    connective semantics lives in ``run`` and nowhere else. Compiling and
    running use explicit stacks, so formula depth is not bounded by
    recursion.
    """

    def __init__(self, formulas: Iterable[Formula], expand=None, env=None):
        code: dict[tuple, int] = {}
        refs: list[int] = []  # indices of the finished operands
        stack: list = [(f, env or {}) for f in reversed(list(formulas))]
        while stack:
            node, env = stack.pop()
            if node is None:  # the operands are on refs: emit the instruction
                op, n = env
                args = tuple(refs[len(refs) - n :])
                del refs[len(refs) - n :]
                if n == 1 and op in (ALL, ANY):
                    refs.extend(args)
                else:
                    refs.append(code.setdefault((op, args), len(code)))
                continue
            op, payload = _shape(node, env, expand)
            if op == LEAF:
                refs.append(code.setdefault((LEAF, payload), len(code)))
            else:
                stack.append((None, (op, len(payload))))
                stack.extend(reversed(payload))
        self.code = list(code)
        self.roots = refs

    def run(self, table: Mapping, full: int) -> list[tuple[int, int]]:
        """The (HERE, THERE) bitsets of every formula over a batch.

        ``table`` maps each leaf key to its pair of bitsets; ``full`` has a
        bit set for every candidate of the batch.
        """
        here: list[int] = []
        there: list[int] = []
        try:
            for op, args in self.code:
                if op == ALL:
                    h = t = full
                    for a in args:
                        h &= here[a]
                        t &= there[a]
                elif op == ANY:
                    h = t = 0
                    for a in args:
                        h |= here[a]
                        t |= there[a]
                elif op == IMP:
                    a, b = args
                    t = (full ^ there[a]) | there[b]
                    h = ((full ^ here[a]) | here[b]) & t
                elif op == NEG:
                    h = t = full ^ there[args[0]]
                elif op == LEAF:
                    h, t = table[args]
                else:
                    h, t = 0, full
                here.append(h)
                there.append(t)
        except KeyError as e:
            raise EvalError(f"no value assigned to {e.args[0]!r}") from None
        return [(here[r], there[r]) for r in self.roots]

    def holds(self, table: Mapping, full: int, ties: Sequence = ()) -> int:
        """Candidates satisfying every formula at HERE.

        The last ``len(ties)`` formulas are tied instead: each must agree at
        HERE with the leaf that its entry in ``ties`` keys.
        """
        roots = self.run(table, full)
        free = len(roots) - len(ties)
        mask = full
        for h, _ in roots[:free]:
            mask &= h
        for (h, _), key in zip(roots[free:], ties):
            mask &= full ^ h ^ table[key][0]
        return mask


def scan(
    dims: Sequence[tuple[object, Sequence[ThreeVal]]],
    keep: Callable[[dict, int], int],
) -> Iterator[tuple[int, ...]]:
    """Choice indices of the kept candidates of a product scan, in order.

    ``dims`` lists (leaf key, choices) pairs, most significant first, so
    the candidates come in ``itertools.product`` order. ``keep(table,
    full)`` receives a batch's leaf table, each key bound to the bitsets of
    its dimension, and returns the bitset of candidates to keep. The
    trailing dimensions that fit in BATCH_BITS form one batch; the leading
    ones are looped over, their keys bound to constant bitsets.
    """
    sizes = [len(choices) for _, choices in dims]
    split, width = len(dims), 1
    while split and width * sizes[split - 1] <= BATCH_BITS:
        split -= 1
        width *= sizes[split]
    full = (1 << width) - 1
    table: dict = {}
    stride = 1
    for key, choices in reversed(dims[split:]):
        # choice c fills bits [c * stride, (c + 1) * stride) of each period
        period = stride * len(choices)
        repunit = full // ((1 << period) - 1)
        block = (1 << stride) - 1
        h = sum(block << c * stride for c, v in enumerate(choices) if v.here)
        t = sum(block << c * stride for c, v in enumerate(choices) if v.there)
        table[key] = (h * repunit, t * repunit)
        stride = period
    inner = sizes[split:][::-1]  # least significant first
    for outer in itertools.product(*map(range, sizes[:split])):
        for (key, choices), c in zip(dims, outer):
            table[key] = (full if choices[c].here else 0, full if choices[c].there else 0)
        mask = keep(table, full)
        while mask:
            low = mask & -mask
            mask ^= low
            index, digits = low.bit_length() - 1, []
            for n in inner:
                index, c = divmod(index, n)
                digits.append(c)
            yield outer + tuple(reversed(digits))


def select_assignments(
    names: Sequence[str],
    keep: Callable[[dict, int], int],
    order: Sequence[ThreeVal] = VALUE_ORDER,
) -> Iterator[dict[str, ThreeVal]]:
    """Assignments over ``names``, each ranging over ``order``, that ``keep`` marks."""
    names = list(dict.fromkeys(names))
    for index in scan([(x, order) for x in names], keep):
        yield dict(zip(names, (order[c] for c in index)))


def value(f: Formula, h: PropAssignment) -> ThreeVal:
    """The (HERE, THERE) truth profile of ``f`` under ``h``: a batch of one."""
    here, there = Program([f]).run({x: v.value for x, v in h.items()}, 1)[0]
    return ThreeVal.from_pair(bool(here), bool(there))


def eval_world(w: World, f: Formula, h: PropAssignment) -> bool:
    """Satisfaction of ``f`` at world ``w`` under the atom assignment ``h``."""
    return value(f, h).at(w)


def atoms_of(f: Formula) -> set[str]:
    """Names of all atoms occurring in ``f``: the leaves of its program."""
    return {key for op, key in Program([f]).code if op == LEAF}


def _rebuild(f: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """``f`` with every atom and constant replaced by ``leaf(node)``."""
    if isinstance(f, (Atom, UndConst, Top, Bot)):
        return leaf(f)
    if isinstance(f, Neg):
        return Neg(_rebuild(f.body, leaf))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_rebuild(f.left, leaf), _rebuild(f.right, leaf))
    raise EvalError(f"not a propositional formula node: {f!r}")


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace atoms by formulas, uniformly and simultaneously."""
    return _rebuild(f, lambda g: mapping.get(g.name, g) if isinstance(g, Atom) else g)


def replace_und(f: Formula, replacement: Formula) -> Formula:
    """Swap every occurrence of the ``#n`` constant for ``replacement``."""
    return _rebuild(f, lambda g: replacement if isinstance(g, UndConst) else g)


def _fold(kind: type, parts: Iterable[Formula], empty: Formula) -> Formula:
    items = list(parts)
    out = items.pop() if items else empty
    for p in reversed(items):
        out = kind(p, out)
    return out


def conj(parts: Iterable[Formula]) -> Formula:
    """Right-nested conjunction of ``parts``; the empty conjunction is Top."""
    return _fold(And, parts, Top())


def disj(parts: Iterable[Formula]) -> Formula:
    """Right-nested disjunction of ``parts``; the empty disjunction is Bot."""
    return _fold(Or, parts, Bot())


def iff(a: Formula, b: Formula) -> Formula:
    """Biconditional, kept out of the AST: a conjunction of two implications."""
    return And(Imp(a, b), Imp(b, a))


def assignments(atoms: Sequence[str]) -> Iterator[dict[str, ThreeVal]]:
    """All assignments over ``atoms`` in lexicographic FF < FT < TT order.

    The given atom order is respected; pass a sorted sequence for the
    canonical scan.
    """
    return select_assignments(atoms, lambda table, full: full)


def enumerate_models(
    theory: Iterable[Formula], atoms: Sequence[str]
) -> list[dict[str, ThreeVal]]:
    """Assignments satisfying every theory member at the actual world.

    ``atoms`` must cover every atom of the theory; extra names are allowed
    and simply enlarge the search space.
    """
    return list(select_assignments(atoms, Program(theory).holds))


def is_valid(f: Formula) -> tuple[bool, dict[str, ThreeVal] | None]:
    """Decide validity semantically over all assignments to the atoms of ``f``.

    Returns (True, None), or (False, countermodel) with the first falsifying
    assignment in scan order. The ``#n`` constant keeps its fixed profile, so
    formulas containing it are checked with that value pinned.
    """
    program = Program([f])
    counter = next(
        select_assignments(
            sorted(atoms_of(f)), lambda table, full: full ^ program.holds(table, full)
        ),
        None,
    )
    return counter is None, counter
