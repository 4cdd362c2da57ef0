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
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence, TypeVar

from .threeval import VALUE_ORDER, ThreeVal


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
# Filter calls after which a Program's scan filter runs as generated code
# (see ``Program.filter``). Generating a filter costs 7.5-9.8 us per
# instruction (Python 3.11, 2 shared vCPUs, medians of five timeit runs;
# Delta columns over 4 / 5 / 6 positions, 43 / 51 / 59 instructions:
# 0.42-0.58 ms) and makes a call over 243 candidates 5.2-9.8x faster (the
# columns, a clause shape group, a Delta group and the und definition of
# 16-18 instructions), so it breaks even after 28-51 calls. Generating on
# call 100 instead loses at most about 3.6x against the better choice in
# hindsight, whatever the number of calls (ski rental), and 100 is also the
# batch count from which ``scan`` links a copy: at 40, the 12-argument pred
# verify linked its Delta groups and ran 2.4x slower (1.9 -> 4.6 ms).
HOT_RUNS = 100
# Operators one generated statement nests at most (see ``_Terms.statements``).
_CHUNK = 64

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
    hook decides (the predicate layer's equality) vanish into their ALL
    or ANY, a zero absorbs the whole node, and NEG and IMP of a constant
    reduce. Operands are compiled left to right and those after a decided
    result are never compiled; instructions no root reaches are dropped
    afterwards, so an atom in a dead operand, on either side of the zero,
    needs no table entry. The ``#n`` constant stays an instruction unless
    the hook compiles it otherwise. The connective semantics lives in
    ``run`` alone, the interpreter and reference: ``_generate`` runs it on
    terms to write the filter that a scan part runs once the program is
    hot (see ``filter``). Compiling and running use explicit stacks or
    straight-line code, so formula depth is not bounded by recursion.
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

    # Filter calls so far, and the generated filters once hot, one per part
    # form (see ``filter``); ``link``'s copies, made without __init__, start
    # from these class defaults too.
    _runs = 0
    _filters = None

    def run(self, table: Mapping, full: int) -> list[tuple[int, int]]:
        """The (HERE, THERE) bitsets of every formula over a batch, by one
        loop over the instructions: the interpreter and reference semantics.

        ``table`` maps each leaf key to its pair of bitsets; ``full`` has a
        bit set for every candidate of the batch, and every bitset read is a
        subset of it. Each ``#n`` is the constant pair (0, full). A key
        missing from ``table`` is an EvalError. The loop uses only ``|``,
        ``&`` and ``^`` on the halves, so it runs alike on int bitsets and
        on the terms of a generated filter (see ``_generate``).
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

    def filter(self, listed: bool, ties: Sequence = ()) -> Callable[[Mapping, Sequence, int], int]:
        """The filter of a scan part that reads this program (see ``scan``).

        A function of ``(table, leaves, full)`` that returns the candidates
        of the batch where every root holds at HERE, but each of the last
        ``len(ties)`` roots agrees at HERE with the table entry its tie keys
        instead. With ``listed`` a leaf keyed k reads ``table[leaves[k]]``,
        else ``table[k]`` (``leaves`` is then unread). The first HOT_RUNS - 1
        filter calls of the program, over every form, compute the mask from
        ``run``. From the next one on the program is hot: each form's filter
        is generated (``_generate``) on its first call and kept, and every
        later call of that form runs it.
        """
        filters = self._filters
        if filters is not None:
            holds = filters.get((listed, *ties) if ties else listed)
            if holds is not None:
                return holds
        return functools.partial(self._cold, listed, tuple(ties))

    def _cold(self, listed: bool, ties: tuple, table: Mapping, leaves: Sequence, full: int) -> int:
        """A filter call of a program that was not hot when ``filter`` handed it out."""
        if self._runs >= HOT_RUNS - 1:
            self._runs = HOT_RUNS
            return self._generated(listed, ties)(table, leaves, full)
        self._runs += 1
        roots = self.run([table[k] for k in leaves] if listed else table, full)
        free = len(roots) - len(ties)
        mask = full
        for (h, _), key in zip(roots[free:], ties):
            mask &= full ^ h ^ table[key][0]
        for h, _ in roots[:free]:
            mask &= h
        return mask

    def _generated(self, listed: bool, ties: Sequence = ()) -> Callable[[Mapping, Sequence, int], int]:
        """The generated filter of the form, generated on the first call and
        kept under ``listed``, or ``(listed, *ties)`` for a part with ties."""
        form = (listed, *ties) if ties else listed
        if self._filters is None:
            self._filters = {}
        if form not in self._filters:
            self._filters[form] = _generate(self, listed, ties)
        return self._filters[form]


def _generate(program: Program, listed: bool, ties: Sequence = ()) -> Callable[[Mapping, Sequence, int], int]:
    """``program.filter(listed, ties)`` as one Python function of straight-line code.

    Each leaf key's read is a statement that assigns the locals ``hi`` and
    ``ti``, its HERE and THERE bitsets, where i is its first LEAF
    instruction; every leaf is read first, in order, so a missing key
    fails as in ``run``. ``run`` itself then runs on terms (see ``_Term``),
    each leaf key bound to its two locals and ``full`` to its name: every
    half it computes is ``0``, ``full``, a leaf's half, or an operator over
    terms. ``_Terms`` folds the units and zeros, double complements and
    repeated operands while they are built, and builds each term once. The
    filter's mask is the term ANDing the free roots' HERE halves and each
    tied root's agreement at HERE with its tie key, so a root that folds to
    ``full`` drops out; the function computes only the terms the mask
    reaches (see ``_Terms.statements``). The source holds only indices and
    operators: a leaf listed at position p reads ``leaves[p]``, and any
    other key, which may come from user input, is bound to the name ``ki``
    in the function's namespace, as tie j's key is to ``jj``.
    """
    terms = _Terms()
    full = terms.full
    namespace: dict[str, object] = {}
    lines = ["def holds(table, leaves, full):"]
    reads: dict = {}  # leaf key -> its (HERE, THERE) locals
    for i, (op, key) in enumerate(program.code):
        if op == LEAF and key not in reads:
            if listed and type(key) is int:
                read = f"leaves[{key}]"
            else:
                namespace[f"k{i}"] = key
                read = f"leaves[k{i}]" if listed else f"k{i}"
            lines.append(f" h{i}, t{i} = table[{read}]")
            reads[key] = terms.atom(f"h{i}"), terms.atom(f"t{i}")
    roots = program.run(reads, full)
    free = len(roots) - len(ties)
    mask = full
    for h, _ in roots[:free]:
        mask &= h
    for j, ((h, _), key) in enumerate(zip(roots[free:], ties)):
        namespace[f"j{j}"] = key
        mask &= full ^ h ^ terms.atom(f"table[j{j}][0]")
    lines += terms.statements(mask)
    exec(compile("\n".join(lines), "<generated Program filter>", "exec"), namespace)
    return namespace["holds"]


# How tightly Python binds each bitwise operator; a name binds tightest.
_BINDING = {"|": 1, "^": 2, "&": 3}
_NAME = 4


class _Term:
    """A bitset of a generated filter: a name (``op`` None, ``text`` its
    source) or ``op`` over the terms ``left`` and ``right``. Python's
    ``|``, ``&`` and ``^`` on a term build another through its ``_Terms``,
    so ``Program.run`` runs on terms, and on the int ``0`` it writes for
    an empty half. ``_Terms.statements`` sets the other slots."""

    __slots__ = ("terms", "op", "left", "right", "text", "binding", "depth", "uses")

    def __init__(self, terms: "_Terms", op: str | None, left, right, text: str = ""):
        self.terms, self.op, self.left, self.right, self.text = terms, op, left, right, text
        self.binding, self.depth, self.uses = _NAME, 0, 0

    def __or__(self, other):
        return self.terms.apply("|", self, other)

    def __ror__(self, other):
        return self.terms.apply("|", other, self)

    def __and__(self, other):
        return self.terms.apply("&", self, other)

    def __rand__(self, other):
        return self.terms.apply("&", other, self)

    def __xor__(self, other):
        return self.terms.apply("^", self, other)

    def __rxor__(self, other):
        return self.terms.apply("^", other, self)


class _Terms:
    """The terms of one generated filter, each built once (see ``_generate``)."""

    def __init__(self):
        self.made: dict[tuple, _Term] = {}  # (op, left, right) -> term, operands first
        self.full = self.atom("full")

    def atom(self, text: str) -> _Term:
        return _Term(self, None, None, None, text)

    def apply(self, op: str, a, b):
        """``a op b``, folded where an operand is ``0`` or ``full`` (every
        operand is a subset of it) or both are one term, and else the one
        term made for it."""
        full = self.full
        if op == "|":
            if a is full or b is full:
                return full
            if b == 0 or a is b:
                return a
            if a == 0:
                return b
        elif op == "&":
            if a == 0 or b == 0:
                return 0
            if b is full or a is b:
                return a
            if a is full:
                return b
        else:
            if b == 0:
                return a
            if a == 0:
                return b
            if a is b:
                return 0
            if a is full and b.op == "^" and b.left is full:
                return b.right
        key = (op, a, b)
        made = self.made.get(key)
        if made is None:
            made = self.made[key] = _Term(self, op, a, b)
        return made

    def statements(self, mask) -> list[str]:
        """The statements that compute ``mask``, the last one returning it.

        Only the terms that ``mask`` reaches are computed. A term read more
        than once is assigned to a local, as is one whose operators would
        nest _CHUNK deep, so no statement nests the compiler's recursion
        deeply; every other term is written out where it is read.
        """
        made = list(self.made.values())
        # every term refers to this table: without its entries they are
        # freed as soon as they are read, not left to the cycle collector
        self.made.clear()
        if mask == 0:
            return [" return 0"]
        mask.uses = 1
        for term in reversed(made):  # a term is made after its operands
            if term.uses:
                term.left.uses += 1
                term.right.uses += 1
        lines = []
        for term in made:
            if term.uses:
                binding = _BINDING[term.op]
                a, b = term.left, term.right
                left = a.text if a.binding >= binding else f"({a.text})"
                right = b.text if b.binding > binding else f"({b.text})"
                term.text = f"{left} {term.op} {right}"
                term.binding, term.depth = binding, 1 + max(a.depth, b.depth)
                if term.uses > 1 or term.depth >= _CHUNK:
                    lines.append(f" b{len(lines)} = {term.text}")
                    term.text, term.binding, term.depth = f"b{len(lines) - 1}", _NAME, 0
        lines.append(f" return {mask.text}")
        return lines


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


def scan(
    dims: Sequence[tuple[object, Sequence[ThreeVal]]], parts: Sequence[tuple]
) -> Iterator[tuple[int, ...]]:
    """Choice indices of the candidates where every part's roots hold, in order.

    ``dims`` lists (leaf key, choices) pairs, most significant first, so
    the candidates come in ``itertools.product`` order. The trailing
    dimensions that fit in BATCH_BITS form one batch; the leading ones are
    looped over, their keys bound to constant bitsets. Each batch's table
    binds every key to its dimension's bitsets, TRUE to ``(full, full)``
    and FALSE to ``(0, 0)``. Each part is a Program and its leaf list, or
    None to read the table by the leaves' own keys: leaf i reads
    ``table[leaves[i]]``. A root holds when it is true at HERE, but a part
    may add ties, ``(program, leaves, ties)``: its last ``len(ties)`` roots
    are tied instead, each agreeing at HERE with the leaf that its entry in
    ``ties`` keys in the table.

    Each part runs as its program's filter (see ``Program.filter``), which
    ANDs the roots' HERE bitsets, and ``scan`` ANDs the parts' masks. A scan
    of one batch runs the parts as given: a program that serves a single
    batch runs once, so a private copy of it does not pay. A scan of more
    batches links every part that has a leaf list and no ties into one
    program, which shares instructions and folds TRUE and FALSE leaves, when
    some such list holds TRUE or FALSE or the scan runs at least HOT_RUNS
    batches, the copy's filter generated at once in the second case.
    Otherwise those parts run as given, each filter generated at once: a
    program read through a leaf list is compiled once per shape and shared
    by every scan, and a rare shape would reach HOT_RUNS filter calls only
    after many scans.

    What depends on the dimensions' shape alone comes from a plan (see
    ``_plan``), cached on each dimension's choice order and BATCH_BITS and
    on nothing else, PLAN_CACHE plans at most, least recently used out
    first: the split, the inner dimensions' bitsets, and two mixed-radix
    decode tables. A kept bit decodes to the choice indices of the leading
    inner dimensions from one table and of the trailing ones from the other.
    """
    shape = tuple([tuple(choices) for _, choices in dims])
    split, full, profiles, patterns, p, high, low = _plan(shape, BATCH_BITS)
    if split:
        listed = [part for part in parts if len(part) == 2 and part[1] is not None]
        hot = math.prod(map(len, shape[:split])) >= HOT_RUNS
        if listed and (hot or any(TRUE in leaves or FALSE in leaves for _, leaves in listed)):
            linked = link([(program, leaves.__getitem__) for program, leaves in listed])
            if hot:
                linked._generated(False)
            parts = [(linked, None), *(part for part in parts if len(part) > 2 or part[1] is None)]
        else:
            for program, _ in listed:
                program._generated(True)
    filters = [(part[0].filter(part[1] is not None, part[2] if len(part) > 2 else ()), part[1])
               for part in parts]
    table = {TRUE: (full, full), FALSE: (0, 0)}
    table.update(zip([key for key, _ in dims[split:]], patterns))
    outer_dims = dims[:split]
    for outer in itertools.product(*[range(len(choices)) for _, choices in outer_dims]):
        for (key, choices), c in zip(outer_dims, outer):
            table[key] = profiles[choices[c]]
        mask = _holds(filters, table, full)
        while mask:
            last = mask & -mask
            mask ^= last
            bit = last.bit_length() - 1
            yield outer + high[bit // p] + low[bit % p]


def _holds(filters: Sequence[tuple[Callable, Sequence | None]], table: Mapping, full: int) -> int:
    """The candidates of one batch where every part's filter holds (see ``scan``).

    ``filters`` pairs each part's filter with its leaf list; a key missing
    from the table is an EvalError.
    """
    mask = full
    try:
        for holds, leaves in filters:
            mask &= holds(table, leaves, full)
    except KeyError as e:
        raise EvalError(f"no value assigned to {e.args[0]!r}") from None
    return mask


def select_assignments(
    names: Sequence[str], parts: Sequence[tuple]
) -> Iterator[dict[str, ThreeVal]]:
    """Assignments over ``names``, each ranging over VALUE_ORDER, where every
    one of ``parts`` holds (see ``scan``)."""
    names = list(dict.fromkeys(names))
    for index in scan([(x, VALUE_ORDER) for x in names], parts):
        yield dict(zip(names, map(VALUE_ORDER.__getitem__, index)))


def value(f: Formula, h: PropAssignment) -> ThreeVal:
    """The (HERE, THERE) truth profile of ``f`` under ``h``, a batch of one; ``.at(w)`` reads w."""
    here, there = Program([f]).run({x: v.value for x, v in h.items()}, 1)[0]
    return ThreeVal.from_pair(bool(here), bool(there))


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
    return list(select_assignments(atoms, [(Program(theory), None)]))


def is_valid(f: Formula) -> tuple[bool, dict[str, ThreeVal] | None]:
    """Decide validity semantically over all assignments to the atoms of ``f``.

    Returns (True, None), or (False, countermodel) with the first falsifying
    assignment in scan order. The ``#n`` constant keeps its fixed profile, so
    formulas containing it are checked with that value pinned.
    """
    # f tied to FALSE: the candidates where f fails at HERE
    counter = next(select_assignments(sorted(atoms_of(f)), [(Program([f]), None, [FALSE])]), None)
    return counter is None, counter
