"""Fact-file input format: parsing, validation, and network conversion.

A document is a list of `.`-terminated facts. A quoted formula runs to its
closing quote and may span lines; outside quotes, `#` starts a comment that
runs to the end of its line. Exactly one network species per file, detected
from the facts present:

  plain         arg/att only, every att endpoint a declared argument
  higher        wff facts, or att endpoints naming wffs or r(X,Y) units
  disjunctive   datt facts
  conjunctive   catt facts
  adf           acc facts, exactly one per argument
  aaf           a psi fact

inst facts (per-argument replacement formulas) ride along with plain
documents only. Formula texts are kept verbatim so parse and serialize
round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .aaf import ADFNet, AxiomaticFrame, ConjunctiveNet, DisjunctiveNet
from .af import NAME_RE, Framework
from .meta import R_UNIT_RE, HigherNetwork
from .prop import And, Atom, Bot, Formula, Neg, Or, Program, Top, atoms_of, scan, walk
from .syntax import ParseError, parse_pred, parse_prop
from .threeval import DECIDED_ORDER

# each fact's arity, and the species its presence marks
_FACTS = {
    "arg": (1, None),
    "att": (2, None),
    "wff": (2, "higher"),
    "inst": (2, None),
    "datt": (2, "disjunctive"),
    "catt": (2, "conjunctive"),
    "acc": (2, "adf"),
    "psi": (1, "aaf"),
}

# One findall cuts the text into (blanks and comments, body, terminator)
# triples. A quoted string runs to its closing quote, across line breaks;
# outside quotes `#` opens a comment to the end of its line. A body ends at
# its terminator: a `.`, a quote that is never closed, or the end of the
# text. After the greedy body only a terminator can follow, so the match
# never backtracks.
_FACT_RE = re.compile(r'((?:\s+|#[^\n]*)*)((?:[^"#.]+|"[^"]*"|#[^\n]*)*)(\.|"|\Z)')
# a comment in a body; a quoted string matches as group 1, which the sub keeps
_COMMENT_RE = re.compile(r'("[^"]*")|#[^\n]*')
_HEAD_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*")
# a fact whose parenthesized items hold no quote and no bracket
_PLAIN_FACT_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)\s*\(([^"()\[\]]*)\)\Z')
# a catt or datt fact whose name list holds no quote, paren or bracket, and
# whose other item no comma either: the list is one item, the other is plain
_LIST_FACT_RE = re.compile(
    r'catt\s*\(\s*(\[[^"()\[\]]*\])\s*,([^"()\[\],]*)\)\Z'
    r'|datt\s*\(([^"()\[\],]*),\s*(\[[^"()\[\]]*\])\s*\)\Z'
)
# a name list that ``_plain_items`` splits as the piece loop would
_PLAIN_LIST_RE = re.compile(r'[^"()\[\]]*\Z')
_ITEM_PIECE_RE = re.compile(r'"[^"]*"|"|[(\[]|[)\]]|,|[^"(\[)\],]+')
# A document of plain `arg(x).` and `att(x,y).` facts alone, names in
# NAME_RE's class, with any whitespace between tokens and around facts. Each
# fact has one reading, so the match fails or succeeds in one linear pass.
_PLAIN_DOC_RE = re.compile(
    r"(?:\s*(?:arg\s*\(\s*[A-Za-z0-9_]+|att\s*\(\s*[A-Za-z0-9_]+\s*,\s*[A-Za-z0-9_]+)"
    r"\s*\)\s*\.)+\s*"
)
# one fact of such a document: its text, name and one or two items
_PLAIN_ARG_ATT_RE = re.compile(
    r"((arg|att)\s*\(\s*([A-Za-z0-9_]+)\s*(?:,\s*([A-Za-z0-9_]+)\s*)?\))\s*\."
)

# A fact is read into (name, items, start, text, document): its text runs
# from its first character, at offset start in the document, comments
# dropped.
_Fact = tuple[str, list[str], int, str, str]


def _position(document: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``, worked out for an error."""
    line_start = document.rfind("\n", 0, offset) + 1
    return document.count("\n", 0, offset) + 1, offset - line_start + 1


def _place(fact: _Fact) -> tuple[int, int]:
    return _position(fact[4], fact[2])


def _fail(fact: _Fact, message: str) -> ParseError:
    return ParseError(f"{message} in {fact[0]} fact", *_place(fact))


def _bodies(text: str) -> Iterator[tuple[int, str]]:
    """Yield each fact's start offset and text, comments dropped.

    A `.` with no fact before it, a quote never closed and a fact with no
    final `.` raise here, in the order they occur.
    """
    pos = 0
    for blank, body, end in _FACT_RE.findall(text):
        start = pos + len(blank)
        pos = start + len(body) + len(end)
        if end != ".":
            if end:
                raise ParseError("unterminated string", *_position(text, len(text)))
            if body:
                raise ParseError("fact missing final '.'", *_position(text, start))
            return
        if not body:
            raise ParseError("empty fact", *_position(text, start))
        if "#" in body:
            body = _COMMENT_RE.sub(r"\1", body)
        yield start, body.rstrip()


def _plain_items(body: str, text: str, start: int) -> list[str]:
    """``_split_items`` for a body with no quote, paren or bracket."""
    items = [item.strip() for item in body.split(",")]
    if not all(items):
        raise ParseError("empty item in fact arguments", *_position(text, start))
    return items


def _split_items(body: str, text: str, start: int) -> list[str]:
    """Split on top-level commas, respecting parens, brackets and quotes."""
    items = []
    buf: list[str] = []
    depth = 0
    for piece in _ITEM_PIECE_RE.findall(body):
        if piece == "," and depth == 0:
            items.append("".join(buf).strip())
            buf = []
            continue
        if piece == "(" or piece == "[":
            depth += 1
        elif piece == ")" or piece == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", *_position(text, start))
        buf.append(piece)
    items.append("".join(buf).strip())
    if not all(items):
        raise ParseError("empty item in fact arguments", *_position(text, start))
    return items


def _read_items(chunk: str, text: str, start: int) -> tuple[str, list[str]]:
    """A fact's name and items, through the piece loop for quotes and brackets."""
    head = _HEAD_RE.match(chunk)
    if head is None:
        raise ParseError("expected a fact name", *_position(text, start))
    name = head.group(1)
    if name not in _FACTS:
        raise ParseError(f"unknown fact {name!r}", *_position(text, start))
    rest = chunk[head.end() :].strip()
    if name == "psi":
        return name, [rest]
    if not (rest.startswith("(") and rest.endswith(")")):
        raise ParseError(
            f"expected parenthesized arguments after {name!r}", *_position(text, start)
        )
    return name, _split_items(rest[1:-1], text, start)


def _read_facts(text: str) -> tuple[list[_Fact], list[_Fact], list[_Fact], set[str]]:
    """Read every fact in one pass.

    Returns the arg facts, the wff facts, the other facts in document order
    and the species the facts mark. A document of plain arg and att facts
    alone is read by one regular-expression pass; any other goes through
    ``_read_fact_loop``, which reports every error.
    """
    if not _PLAIN_DOC_RE.fullmatch(text):
        return _read_fact_loop(text)
    arg_facts: list[_Fact] = []
    att_facts: list[_Fact] = []
    for m in _PLAIN_ARG_ATT_RE.finditer(text):
        body, name, x, y = m.groups()
        if y is None:
            arg_facts.append((name, [x], m.start(), body, text))
        else:
            att_facts.append((name, [x, y], m.start(), body, text))
    return arg_facts, [], att_facts, set()


def _read_fact_loop(text: str) -> tuple[list[_Fact], list[_Fact], list[_Fact], set[str]]:
    """``_read_facts`` for any text, fact by fact."""
    arg_facts: list[_Fact] = []
    wff_facts: list[_Fact] = []
    others: list[_Fact] = []
    markers: set[str] = set()
    bodies = _bodies(text)
    try:
        for start, chunk in bodies:
            plain = _PLAIN_FACT_RE.match(chunk)
            if plain and plain[1] != "psi" and plain[1] in _FACTS:
                name, items = plain[1], _plain_items(plain[2], text, start)
            elif listed := _LIST_FACT_RE.match(chunk):
                if listed[1]:
                    name = "catt"
                    items = [listed[1], *_plain_items(listed[2], text, start)]
                else:
                    name = "datt"
                    items = [*_plain_items(listed[3], text, start), listed[4]]
            else:
                name, items = _read_items(chunk, text, start)
                if name == "att" and any(R_UNIT_RE.match(t) for t in items):
                    markers.add("higher")
            fact = (name, items, start, chunk, text)
            arity, marker = _FACTS[name]
            if len(items) != arity:
                raise _fail(fact, f"expected {arity} argument(s)")
            if marker:
                markers.add(marker)
            if name == "arg":
                arg_facts.append(fact)
            elif name == "wff":
                wff_facts.append(fact)
            else:
                others.append(fact)
    except ParseError:
        # a misplaced `.` or quote anywhere in the text is reported first
        for _ in bodies:
            pass
        raise
    return arg_facts, wff_facts, others, markers


def _as_id(token: str, fact: _Fact) -> str:
    if not NAME_RE.match(token):
        raise _fail(fact, f"{token!r} is not a valid name")
    return token


def _as_unit(token: str, fact: _Fact) -> str:
    m = R_UNIT_RE.match(token)
    if m:
        return f"r({m.group(1)},{m.group(2)})"
    return _as_id(token, fact)


def _as_quoted(token: str, fact: _Fact) -> str:
    if not (len(token) >= 2 and token.startswith('"') and token.endswith('"')):
        raise _fail(fact, f"expected a quoted formula, got {token!r}")
    return token[1:-1]


def _parse_formula(
    parse: Callable[[str], Formula], token: str, fact: _Fact
) -> Formula:
    """Parse a quoted formula; a ParseError names its place in the file."""
    try:
        return parse(token[1:-1])
    except ParseError as e:
        # find the error in the fact text, padded to start at the fact's column
        line, col = _place(fact)
        text = " " * (col - 1) + fact[3]
        at = text.index(token)
        for _ in range(e.line - 1):
            at = text.index("\n", at + 1)
        lines, col = _position(text, at + e.col)
        raise ParseError(e.message, line + lines - 1, col) from None


def _as_list(token: str, fact: _Fact) -> tuple[str, ...]:
    if not (token.startswith("[") and token.endswith("]")):
        raise _fail(fact, f"expected a bracketed name list, got {token!r}")
    body = token[1:-1].strip()
    if not body:
        raise _fail(fact, "empty name list")
    split = _plain_items if _PLAIN_LIST_RE.match(body) else _split_items
    return tuple(_as_id(item, fact) for item in split(body, fact[4], fact[2]))


def _check_declared(fact: _Fact, args: set[str], names: Iterable[str]) -> None:
    for name in names:
        if name not in args:
            raise _fail(fact, f"undeclared argument {name!r}")


@dataclass(frozen=True)
class InputDocument:
    """A validated fact file; fields are sorted and formula texts verbatim.

    ``trees`` maps each formula text to its tree as `parse_document` read
    it, so the conversions parse nothing again; it takes no part in
    equality. One document's formulas are all predicate (`wff`, `psi`) or
    all propositional (`inst`, `acc`).
    """

    species: str
    args: tuple[str, ...]
    atts: tuple[tuple[str, str], ...]
    wffs: tuple[tuple[str, str], ...]
    insts: tuple[tuple[str, str], ...]
    datts: tuple[tuple[str, tuple[str, ...]], ...]
    catts: tuple[tuple[tuple[str, ...], str], ...]
    accs: tuple[tuple[str, str], ...]
    psi: str | None
    trees: Mapping[str, Formula] = field(
        default_factory=dict, compare=False, repr=False
    )

    def to_framework(self) -> Framework:
        self._expect("plain")
        return Framework.make(self.args, self.atts)

    def to_higher(self) -> HigherNetwork:
        self._expect("higher")
        wffs = [(name, self._tree(parse_pred, text)) for name, text in self.wffs]
        return HigherNetwork.make(self.args, wffs, self.atts)

    def to_disjunctive(self) -> DisjunctiveNet:
        self._expect("disjunctive")
        return DisjunctiveNet.make(self.args, self.datts)

    def to_conjunctive(self) -> ConjunctiveNet:
        self._expect("conjunctive")
        return ConjunctiveNet.make(self.args, self.catts)

    def to_adf(self) -> ADFNet:
        self._expect("adf")
        table = {}
        for x, text in self.accs:
            condition = self.trees.get(text)
            if condition is None:
                condition = parse_prop(text)
                message = _condition_error(condition, set(self.args))
                if message:
                    raise ParseError(message)
            parents = tuple(sorted(atoms_of(condition)))
            # a row is a 0/1 vector over the parents, the indices of a
            # decided-order scan
            rows = list(
                scan([(p, DECIDED_ORDER) for p in parents], Program([condition]).holds)
            )
            table[x] = (parents, rows)
        return ADFNet.make(self.args, table)

    def to_aaf(self) -> AxiomaticFrame:
        self._expect("aaf")
        assert self.psi is not None
        return AxiomaticFrame.make(self.args, self._tree(parse_pred, self.psi))

    def to_substitution(self) -> dict[str, Formula]:
        self._expect("plain")
        return {x: self._tree(parse_prop, text) for x, text in self.insts}

    def _tree(self, parse: Callable[[str], Formula], text: str) -> Formula:
        tree = self.trees.get(text)
        return parse(text) if tree is None else tree

    def _expect(self, species: str) -> None:
        if self.species != species:
            article = "an" if species[0] in "aeiou" else "a"
            raise ValueError(
                f"this operation needs {article} {species} document, got {self.species}"
            )


def _condition_error(f: Formula, declared: set[str]) -> str | None:
    """What keeps ``f`` from being an acceptance condition, if anything.

    Acceptance conditions are and/or over literals, true and false.
    """
    for node in walk(f):
        if isinstance(node, Atom) and node.name not in declared:
            return f"acceptance condition mentions undeclared {node.name!r}"
        if isinstance(node, Neg) and not isinstance(node.body, Atom):
            return "acceptance conditions may negate atoms only"
        if not isinstance(node, (Atom, Neg, And, Or, Top, Bot)):
            return f"{type(node).__name__} is not allowed in an acceptance condition"
    return None


def parse_document(text: str) -> InputDocument:
    """Parse and validate a fact file into a single-species document."""
    arg_facts, wff_facts, others, markers = _read_facts(text)
    if len(markers) > 1:
        raise ParseError(f"mixed species: {' and '.join(sorted(markers))}")
    species = markers.pop() if markers else "plain"

    args = {_as_id(fact[1][0], fact) for fact in arg_facts}
    if not args:
        raise ParseError("a document needs at least one arg fact")

    atts: set[tuple[str, str]] = set()
    wffs: dict[str, str] = {}
    insts: dict[str, str] = {}
    datts: set[tuple[str, tuple[str, ...]]] = set()
    catts: set[tuple[tuple[str, ...], str]] = set()
    accs: dict[str, str] = {}
    psi: str | None = None
    trees: dict[str, Formula] = {}

    for fact in wff_facts:
        token, quoted = fact[1]
        name = _as_id(token, fact)
        text_ = _as_quoted(quoted, fact)
        if name in args:
            raise _fail(fact, f"wff name {name!r} collides with an argument")
        if wffs.get(name, text_) != text_:
            raise _fail(fact, f"conflicting formulas for wff {name!r}")
        trees[text_] = _parse_formula(parse_pred, quoted, fact)
        wffs[name] = text_

    for fact in others:
        kind, items = fact[0], fact[1]
        if kind == "att":
            if species not in ("plain", "higher"):
                raise _fail(fact, f"att facts do not apply to {species} documents")
            u, x = items
            if u in args and x in args:
                atts.add((u, x))
                continue
            endpoints = []
            for token in items:
                unit = _as_unit(token, fact)
                m = R_UNIT_RE.match(unit)
                if m:
                    _check_declared(fact, args, m.groups())
                elif unit not in args and unit not in wffs:
                    raise _fail(fact, f"undeclared name {unit!r}")
                endpoints.append(unit)
            atts.add((endpoints[0], endpoints[1]))
        elif kind == "inst":
            if species != "plain":
                raise _fail(fact, "inst facts apply to plain documents only")
            x = _as_id(items[0], fact)
            _check_declared(fact, args, (x,))
            text_ = _as_quoted(items[1], fact)
            if insts.get(x, text_) != text_:
                raise _fail(fact, f"conflicting replacements for {x!r}")
            trees[text_] = _parse_formula(parse_prop, items[1], fact)
            insts[x] = text_
        elif kind == "datt":
            z = _as_id(items[0], fact)
            targets = _as_list(items[1], fact)
            _check_declared(fact, args, (z, *targets))
            datts.add((z, tuple(sorted(set(targets)))))
        elif kind == "catt":
            group = _as_list(items[0], fact)
            z = _as_id(items[1], fact)
            _check_declared(fact, args, (*group, z))
            catts.add((tuple(sorted(set(group))), z))
        elif kind == "acc":
            x = _as_id(items[0], fact)
            _check_declared(fact, args, (x,))
            text_ = _as_quoted(items[1], fact)
            if x in accs:
                raise _fail(fact, f"duplicate acceptance condition for {x!r}")
            condition = _parse_formula(parse_prop, items[1], fact)
            message = _condition_error(condition, args)
            if message:
                # an error in a condition names where its acc fact starts
                raise ParseError(message, *_place(fact))
            trees[text_] = condition
            accs[x] = text_
        elif kind == "psi":
            if psi is not None:
                raise ParseError("duplicate psi fact", *_place(fact))
            psi = _as_quoted(items[0], fact)
            trees[psi] = _parse_formula(parse_pred, items[0], fact)

    if species == "adf" and set(accs) != args:
        missing = sorted(args - set(accs))
        raise ParseError(f"missing acceptance condition for {missing[0]!r}")

    return InputDocument(
        species=species,
        args=tuple(sorted(args)),
        atts=tuple(sorted(atts)),
        wffs=tuple(sorted(wffs.items())),
        insts=tuple(sorted(insts.items())),
        datts=tuple(sorted(datts)),
        catts=tuple(sorted(catts)),
        accs=tuple(sorted(accs.items())),
        psi=psi,
        trees=trees,
    )


def serialize_document(doc: InputDocument) -> str:
    """Render facts in canonical order; parsing the result is an identity."""
    lines = [f"arg({a})." for a in doc.args]
    lines.extend(f"att({u},{x})." for u, x in doc.atts)
    lines.extend(f'wff({name}, "{text}").' for name, text in doc.wffs)
    lines.extend(f'inst({x}, "{text}").' for x, text in doc.insts)
    lines.extend(
        f"datt({z}, [{','.join(targets)}])." for z, targets in doc.datts
    )
    lines.extend(
        f"catt([{','.join(group)}], {z})." for group, z in doc.catts
    )
    lines.extend(f'acc({x}, "{text}").' for x, text in doc.accs)
    if doc.psi is not None:
        lines.append(f'psi "{doc.psi}".')
    return "\n".join(lines) + "\n"
