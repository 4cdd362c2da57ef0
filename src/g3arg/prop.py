"""Propositional formulas over the two-world frame and their model theory.

Formula nodes are small frozen dataclasses sharing the ``Formula`` marker
base. The connective nodes (Neg, And, Or, Imp) are reused by the predicate
layer, so the evaluator here rejects anything it does not know rather than
guessing. Each node class declares which of its fields hold subformulas;
``walk`` and ``fold`` traverse any formula through that declaration alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence, TypeVar

from .threeval import VALUE_ORDER, ThreeVal, World


class EvalError(Exception):
    """A formula was evaluated outside its contract (missing atom, wrong AST)."""


class Formula:
    """Marker base class for every formula node, propositional or predicate.

    ``subformulas`` names the fields of a node class that hold subformulas,
    left to right; a leaf class has none.
    """

    __slots__ = ()
    subformulas: ClassVar[tuple[str, ...]] = ()


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
    subformulas = ("body",)


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula
    subformulas = ("left", "right")


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula
    subformulas = ("left", "right")


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula
    subformulas = ("left", "right")


PropAssignment = Mapping[str, ThreeVal]

# A formula is evaluated on a whole batch of candidates at once: each half
# of its (HERE, THERE) pair is an int bitset with bit i set when candidate i
# satisfies it at that world. The widest batch one run covers is BATCH_BITS;
# wider scans loop over their leading dimensions.
BATCH_BITS = 1 << 13
# Scan plans kept, one per dimension shape (see ``scan``).
PLAN_CACHE = 32

# Instruction kinds. Program's ``expand`` hook maps each node the connectives
# do not cover to (LEAF, table key), to (UND, ()) or to (ALL or ANY,
# [(subformula, env)]); the compiler's memo keys on node ids, so each such
# subformula must live as long as the compile (a part of the node, or an
# object the hook holds).
LEAF, ALL, ANY, NEG, IMP, UND = range(6)
_BINARY = {And: ALL, Or: ANY, Imp: IMP}
CONSTANTS = {Top: ALL, Bot: ANY, UndConst: UND}  # Top is the empty AND
# Operand references of the compiler: an instruction index, or a constant
# folded away while compiling.
TRUE, FALSE = -1, -2


def propositional(f: Formula, env) -> tuple[int, object]:
    """Program's default ``expand`` hook: the constants, and atoms as leaves."""
    kind = type(f)
    if kind in CONSTANTS:
        return CONSTANTS[kind], ()
    if kind is Atom:
        return LEAF, f.name
    raise EvalError(f"not a propositional formula node: {f!r}")


def _combine(op: int, args: list, ref: int, todo: object, emit) -> int | None:
    """Take operand ``ref`` of an ``op`` node whose earlier operands are ``args``.

    ``todo`` is true while operands after ``ref`` remain: the compiler
    passes its list of them, ``link`` a flag. Returns the node's reference
    once it is decided, or None while it still needs an operand. Constants
    fold away here. The IMP folds rely on every leaf profile being
    persistent (HERE implies THERE), so TRUE -> b is b and a -> FALSE is ~a.
    """
    if op == NEG:
        return FALSE if ref == TRUE else TRUE if ref == FALSE else emit(NEG, (ref,))
    if op == IMP:
        if not args:  # ref is the left operand
            if ref == FALSE:
                return TRUE
            args.append(ref)
            return None
        if args[0] == TRUE or ref == TRUE:
            return ref
        return emit(NEG, (args[0],)) if ref == FALSE else emit(IMP, (args[0], ref))
    unit, zero = (TRUE, FALSE) if op == ALL else (FALSE, TRUE)
    if ref == zero:
        return zero
    if ref != unit:
        args.append(ref)
    if todo:
        return None
    return unit if not args else args[0] if len(args) == 1 else emit(op, tuple(args))


class Program:
    """Formulas compiled to straight-line code over (HERE, THERE) bitsets.

    Each instruction reads a leaf from the table or applies one connective
    to earlier results; equal instructions are emitted once. A subformula
    object is compiled once per binding of its variables: a memo keyed on
    the node and its (interned) environment hands back the first result.
    A right-nested And chain compiles to one ALL over its conjuncts, an Or
    chain to one ANY, and only its head enters the memo. The spine is
    walked one link per operand and stops at a link the memo holds (a
    suffix compiled on its own, say under a negation), which becomes the
    last operand, so a compiled suffix is never walked again; a suffix
    that only chains share is walked by each of them.
    Constants fold while compiling: true, false and whatever the ``expand``
    hook decides (an equality, a pinned relation atom) vanish into their ALL
    or ANY, a zero absorbs the whole node, and NEG and IMP of a constant
    reduce. Operands are compiled left to right and those after a decided
    result are never compiled; instructions no root reaches are dropped
    afterwards, so an atom in a dead operand, on either side of the zero,
    needs no table entry. The ``#n`` constant stays an instruction unless
    the hook compiles it otherwise. The connective semantics lives in
    ``run`` and nowhere else. Compiling and running use explicit stacks, so
    formula depth is not bounded by recursion.
    """

    def __init__(self, formulas: Iterable[Formula], expand=propositional, env=None):
        formulas = list(formulas)  # holds every node, so the ids below stay unique
        code: dict[tuple, int] = {}
        memo: dict[tuple[int, int], int] = {}  # (id(node), id(env)) -> reference
        envs: dict[frozenset, Mapping] = {}  # bindings -> their one env object

        def emit(op: int, args) -> int:
            return code.setdefault((op, args), len(code))

        def intern(bindings: Mapping) -> Mapping:
            return envs.setdefault(frozenset(bindings.items()), bindings)

        roots = []
        top = intern(env or {})
        for f in formulas:
            # (op, operands to go, operand refs, memo key, chain kind or None)
            frames: list[tuple] = []
            node, env = f, top
            while True:
                key = (id(node), id(env))
                ref = memo.get(key)
                if ref is None:
                    kind = type(node)
                    if kind in _BINARY:
                        chain = None if kind is Imp else kind
                        frames.append((_BINARY[kind], [(node.right, env)], [], key, chain))
                        node = node.left
                        continue
                    if kind is Neg:
                        frames.append((NEG, [], [], key, None))
                        node = node.body
                        continue
                    op, payload = expand(node, env)
                    if op == LEAF or op == UND:
                        ref = emit(op, payload)
                    elif payload:
                        todo = [(g, e if e is env else intern(e))
                                for g, e in reversed(payload)]
                        frames.append((op, todo, [], key, None))
                        node, env = todo.pop()
                        continue
                    else:  # true, false, a decided equality
                        ref = TRUE if op == ALL else FALSE
                    memo[key] = ref
                # hand the result up until some node still needs an operand
                while frames:
                    op, todo, args, key, chain = frames[-1]
                    ref = _combine(op, args, ref, todo, emit)
                    if ref is None:
                        break
                    frames.pop()
                    memo[key] = ref
                if ref is None:
                    node, env = todo.pop()
                    # walk the chain's spine one link per operand, up to a compiled node
                    while type(node) is chain and (id(node), id(env)) not in memo:
                        todo.append((node.right, env))
                        node = node.left
                    continue
                roots.append(ref)
                break
        # an operand compiled before a later zero is dead
        self.code, self.roots = _live(code, roots)

    def run(self, table: Mapping, full: int, und: tuple | None = None) -> list[tuple[int, int]]:
        """The (HERE, THERE) bitsets of every formula over a batch.

        ``table`` maps each leaf key to its pair of bitsets; ``full`` has a
        bit set for every candidate of the batch. Each ``#n`` reads ``und``,
        by default the constant's own pair (0, full): a defined marker binds
        it to its definition's bitsets.
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
                    h, t = und or (0, full)
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


def _live(code: dict[tuple, int], roots: list[int]) -> tuple[list, list[int]]:
    """The instructions of ``code`` that ``roots`` reach, renumbered, and the roots.

    A constant root is emitted first: TRUE as the empty ALL, FALSE as the
    empty ANY.
    """
    roots = [r if r >= 0 else code.setdefault((ALL if r == TRUE else ANY, ()), len(code))
             for r in roots]
    program = list(code)
    live = [False] * len(program)
    for r in roots:
        live[r] = True
    for i in range(len(program) - 1, -1, -1):
        if live[i]:
            op, args = program[i]
            if op != LEAF:
                for a in args:
                    live[a] = True
    if all(live):
        return program, roots
    index = list(itertools.accumulate(live, initial=-1))[1:]  # new positions
    program = [
        (op, args if op == LEAF else tuple(index[a] for a in args))
        for (op, args), keep in zip(program, live)
        if keep
    ]
    return program, [index[r] for r in roots]


def link(parts: Sequence[tuple[Program, Callable]]) -> Program:
    """One Program running the code of ``parts``, with their roots in order.

    Each part is a Program and a map from its leaf keys to the keys the
    linked Program reads, one-to-one but for the leaves it sends to TRUE
    or FALSE: those are decided, and each instruction that reads one is
    folded again by ``_combine``, as when compiling; instructions no root
    reaches any more are dropped. Equal instructions are emitted once, in
    topological order.
    """
    linked = object.__new__(Program)
    code: dict[tuple, int] = {}
    folded = False

    def emit(op: int, args) -> int:
        return code.setdefault((op, args), len(code))

    def place(program: Program, key) -> list[int]:
        nonlocal folded
        index = []  # the part's instruction -> its linked reference
        for op, args in program.code:
            if op == LEAF:
                args = key(args)
                if args == TRUE or args == FALSE:
                    folded = True
                    index.append(args)
                    continue
            else:
                args = tuple(map(index.__getitem__, args))
                if folded and args and min(args) < 0:
                    last, done = len(args) - 1, []
                    for i, a in enumerate(args):
                        ref = _combine(op, done, a, i < last, emit)
                        if ref is not None:
                            break
                    index.append(ref)
                    continue
            # emit, inlined: a call per instruction slows a renaming link by ~15 %
            index.append(code.setdefault((op, args), len(code)))
        return [index[r] for r in program.roots]

    roots = [r for program, key in parts for r in place(program, key)]
    linked.code, linked.roots = _live(code, roots) if folded else (list(code), roots)
    return linked


def reader(parts: Sequence[tuple[Program, Sequence | None]]) -> Callable[..., int]:
    """``keep(table, full, und=None)``: the candidates where every root of ``parts`` holds at HERE.

    Each part is a Program and its leaf list, or None to read the table by
    the leaves' own keys: leaf i reads ``table[leaves[i]]``, where ``scan``
    binds TRUE and FALSE to constants. Each ``#n`` reads ``und``.
    """

    def keep(table: Mapping, full: int, und: tuple | None = None) -> int:
        mask = full
        for program, leaves in parts:
            for h, _ in program.run(table if leaves is None else [table[k] for k in leaves],
                                    full, und):
                mask &= h
        return mask

    return keep


class SearchSpaceExceeded(Exception):
    """A brute-force search refused an instance as too large."""


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(shape: tuple[tuple[ThreeVal, ...], ...], batch_bits: int) -> tuple:
    """``scan``'s plan for one dimension shape, built from the shape alone.

    Returns (split, full, profiles, patterns, p, high, low): the dimensions
    from ``split`` on form a batch of ``full``'s bits and the others are
    looped over; ``profiles`` maps each profile to its constant bitsets and
    ``patterns`` holds each inner dimension's; a kept bit decodes to
    ``high[bit // p] + low[bit % p]``. Every scan of the shape shares the
    plan, so nothing may change it.
    """
    sizes = [len(choices) for choices in shape]
    split, width = len(shape), 1
    while split and width * sizes[split - 1] <= batch_bits:
        split -= 1
        width *= sizes[split]
    full = (1 << width) - 1
    profiles = {v: (full if v.here else 0, full if v.there else 0) for v in ThreeVal}
    patterns = []
    stride = 1
    for choices in reversed(shape[split:]):
        # choice c fills bits [c * stride, (c + 1) * stride) of each period
        period = stride * len(choices)
        repunit = full // ((1 << period) - 1)
        block = (1 << stride) - 1
        h = sum(block << c * stride for c, v in enumerate(choices) if v.here)
        t = sum(block << c * stride for c, v in enumerate(choices) if v.there)
        patterns.append((h * repunit, t * repunit))
        stride = period
    # the low half takes trailing dimensions until it spans about sqrt(width)
    cut, p = len(shape), 1
    while cut > split and p * p < width:
        cut -= 1
        p *= sizes[cut]
    high = tuple(itertools.product(*map(range, sizes[split:cut])))
    low = tuple(itertools.product(*map(range, sizes[cut:])))
    return split, full, profiles, tuple(reversed(patterns)), p, high, low


def fits_one_batch(choices: int, count: int) -> bool:
    """Whether ``count`` dimensions of ``choices`` choices each scan as one batch.

    This is exactly when ``_plan`` at BATCH_BITS puts every dimension in the
    batch (its split is 0). A program that serves a single batch runs once,
    so building a private copy of it for the scan does not pay.
    """
    return choices**count <= BATCH_BITS


def scan(
    dims: Sequence[tuple[object, Sequence[ThreeVal]]], keep: Callable[[dict, int], int]
) -> Iterator[tuple[int, ...]]:
    """Choice indices of the kept candidates of a product scan, in order.

    ``dims`` lists (leaf key, choices) pairs, most significant first, so
    the candidates come in ``itertools.product`` order. ``keep(table,
    full)`` receives a batch's leaf table, each key bound to the bitsets of
    its dimension, and returns the bitset of candidates to keep. The
    trailing dimensions that fit in BATCH_BITS form one batch; the leading
    ones are looped over, their keys bound to constant bitsets. Every table
    binds TRUE to ``(full, full)`` and FALSE to ``(0, 0)``, so a leaf list
    (see ``reader``) may send a leaf to either.

    What depends on the dimensions' shape alone comes from a plan (see
    ``_plan``), cached on each dimension's choice order and BATCH_BITS and
    on nothing else, PLAN_CACHE plans at most, least recently used out
    first: the split, the inner dimensions' bitsets, and two mixed-radix
    decode tables. A kept bit decodes to the choice indices of the leading
    inner dimensions from one table and of the trailing ones from the other.
    """
    shape = tuple([tuple(choices) for _, choices in dims])
    split, full, profiles, patterns, p, high, low = _plan(shape, BATCH_BITS)
    table = {TRUE: (full, full), FALSE: (0, 0)}
    table.update(zip([key for key, _ in dims[split:]], patterns))
    outer_dims = dims[:split]
    for outer in itertools.product(*[range(len(choices)) for _, choices in outer_dims]):
        for (key, choices), c in zip(outer_dims, outer):
            table[key] = profiles[choices[c]]
        mask = keep(table, full)
        while mask:
            last = mask & -mask
            mask ^= last
            bit = last.bit_length() - 1
            yield outer + high[bit // p] + low[bit % p]


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
    """Names of all atoms occurring in ``f``, dead operands included."""
    names = set()
    for node in walk(f):
        kind = type(node)
        if kind is Atom:
            names.add(node.name)
        elif kind not in _BINARY and kind is not Neg and kind not in CONSTANTS:
            raise EvalError(f"not a propositional formula node: {node!r}")
    return names


def walk(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every formula node beneath it, in preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if node.subformulas:
            stack.extend([getattr(node, name) for name in reversed(node.subformulas)])


T = TypeVar("T")


def fold(f: Formula, combine: Callable[[Formula, list], T]) -> T:
    """Post-order fold: ``combine(node, results)`` at every node of ``f``.

    ``results`` holds what ``combine`` returned for the node's subformulas,
    in declaration order (none at a leaf); the result at ``f`` is returned.
    """
    # Reversed preorder visits each node after its subformulas, the last of
    # them first, so popping their results gives them in declaration order.
    results: list = []
    for node in reversed(list(walk(f))):
        results.append(combine(node, [results.pop() for _ in node.subformulas]))
    return results[0]


def with_subformulas(node: Formula, parts: Sequence[Formula]) -> Formula:
    """``node`` with its subformulas replaced by ``parts``, in order.

    Returns ``node`` itself when every part is already its subformula.
    """
    names = node.subformulas
    if all(getattr(node, name) is part for name, part in zip(names, parts)):
        return node
    return type(node)(**{**vars(node), **dict(zip(names, parts))})


def _map_leaves(f: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """``f`` with every leaf node replaced by ``leaf(node)``."""
    return fold(f, lambda g, parts: with_subformulas(g, parts) if parts else leaf(g))


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace atoms by formulas, uniformly and simultaneously."""
    return _map_leaves(
        f, lambda g: mapping.get(g.name, g) if isinstance(g, Atom) else g
    )


def replace_und(f: Formula, replacement: Formula) -> Formula:
    """Swap every occurrence of the ``#n`` constant for ``replacement``."""
    return _map_leaves(f, lambda g: replacement if isinstance(g, UndConst) else g)


def _chain(kind: type, parts: Iterable[Formula], empty: Formula) -> Formula:
    items = list(parts)
    out = items.pop() if items else empty
    for p in reversed(items):
        out = kind(p, out)
    return out


def conj(parts: Iterable[Formula]) -> Formula:
    """Right-nested conjunction of ``parts``; the empty conjunction is Top."""
    return _chain(And, parts, Top())


def disj(parts: Iterable[Formula]) -> Formula:
    """Right-nested disjunction of ``parts``; the empty disjunction is Bot."""
    return _chain(Or, parts, Bot())


def iff(a: Formula, b: Formula) -> Formula:
    """Biconditional, kept out of the AST: a conjunction of two implications."""
    return And(Imp(a, b), Imp(b, a))


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
