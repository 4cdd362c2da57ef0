"""Fact-file input format: parsing, validation, and network conversion.

A document is a list of `.`-terminated facts (`#` starts a comment outside
quotes). Exactly one network species per file, detected from the facts
present:

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
from dataclasses import dataclass

from .aaf import ADFNet, AxiomaticFrame, ConjunctiveNet, DisjunctiveNet
from .af import Framework
from .meta import R_UNIT_RE, HigherNetwork
from .pred import walk
from .prop import And, Atom, Bot, Formula, Neg, Or, Program, Top, atoms_of, scan
from .syntax import ParseError, parse_pred, parse_prop
from .threeval import DECIDED_ORDER

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")

_FACT_ARITY = {
    "arg": 1,
    "att": 2,
    "wff": 2,
    "inst": 2,
    "datt": 2,
    "catt": 2,
    "acc": 2,
    "psi": 1,
}


@dataclass(frozen=True)
class _Fact:
    name: str
    args: tuple[str, ...]
    line: int
    col: int

    def fail(self, message: str) -> "ParseError":
        return ParseError(f"{message} in {self.name} fact", self.line, self.col)


def _strip_comment(line: str) -> str:
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _split_facts(text: str) -> list[tuple[str, int, int]]:
    """Cut the text at `.` terminators outside quotes, tracking positions."""
    stripped = "\n".join(_strip_comment(line) for line in text.split("\n"))
    facts = []
    buf: list[str] = []
    line, col = 1, 1
    start: tuple[int, int] | None = None
    quoted = False
    for ch in stripped:
        if ch == "." and not quoted:
            chunk = "".join(buf).strip()
            if not chunk:
                raise ParseError("empty fact", line, col)
            assert start is not None
            facts.append((chunk, *start))
            buf, start = [], None
        else:
            if ch == '"':
                quoted = not quoted
            if start is None and not ch.isspace():
                start = (line, col)
            buf.append(ch)
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    if quoted:
        raise ParseError("unterminated string", line, col)
    if "".join(buf).strip():
        assert start is not None
        raise ParseError("fact missing final '.'", *start)
    return facts


def _split_items(body: str, line: int, col: int) -> list[str]:
    """Split on top-level commas, respecting parens, brackets and quotes."""
    items = []
    depth = 0
    quoted = False
    buf: list[str] = []
    for ch in body:
        if ch == '"':
            quoted = not quoted
            buf.append(ch)
        elif quoted:
            buf.append(ch)
        elif ch in "([":
            depth += 1
            buf.append(ch)
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", line, col)
            buf.append(ch)
        elif ch == "," and depth == 0:
            items.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    items.append("".join(buf).strip())
    if any(not item for item in items):
        raise ParseError("empty item in fact arguments", line, col)
    return items


def _parse_fact(chunk: str, line: int, col: int) -> _Fact:
    head = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*", chunk)
    if head is None:
        raise ParseError("expected a fact name", line, col)
    name = head.group(1)
    if name not in _FACT_ARITY:
        raise ParseError(f"unknown fact {name!r}", line, col)
    rest = chunk[head.end() :].strip()
    if name == "psi":
        fact = _Fact(name, (rest,), line, col)
    else:
        if not (rest.startswith("(") and rest.endswith(")")):
            raise ParseError(f"expected parenthesized arguments after {name!r}", line, col)
        fact = _Fact(name, tuple(_split_items(rest[1:-1], line, col)), line, col)
    if len(fact.args) != _FACT_ARITY[name]:
        raise fact.fail(f"expected {_FACT_ARITY[name]} argument(s)")
    return fact


def _as_id(token: str, fact: _Fact) -> str:
    if not _ID_RE.match(token):
        raise fact.fail(f"{token!r} is not a valid name")
    return token


def _as_unit(token: str, fact: _Fact) -> str:
    m = R_UNIT_RE.match(token)
    if m:
        return f"r({m.group(1)},{m.group(2)})"
    return _as_id(token, fact)


def _as_quoted(token: str, fact: _Fact) -> str:
    if not (len(token) >= 2 and token.startswith('"') and token.endswith('"')):
        raise fact.fail(f"expected a quoted formula, got {token!r}")
    return token[1:-1]


def _as_list(token: str, fact: _Fact) -> tuple[str, ...]:
    if not (token.startswith("[") and token.endswith("]")):
        raise fact.fail(f"expected a bracketed name list, got {token!r}")
    body = token[1:-1].strip()
    if not body:
        raise fact.fail("empty name list")
    return tuple(_as_id(item, fact) for item in _split_items(body, fact.line, fact.col))


@dataclass(frozen=True)
class InputDocument:
    """A validated fact file; fields are sorted and formula texts verbatim."""

    species: str
    args: tuple[str, ...]
    atts: tuple[tuple[str, str], ...]
    wffs: tuple[tuple[str, str], ...]
    insts: tuple[tuple[str, str], ...]
    datts: tuple[tuple[str, tuple[str, ...]], ...]
    catts: tuple[tuple[tuple[str, ...], str], ...]
    accs: tuple[tuple[str, str], ...]
    psi: str | None

    def to_framework(self) -> Framework:
        self._expect("plain")
        return Framework.make(self.args, self.atts)

    def to_higher(self) -> HigherNetwork:
        self._expect("higher")
        wffs = [(name, parse_pred(text)) for name, text in self.wffs]
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
            condition = parse_prop(text)
            _check_condition(condition, set(self.args))
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
        return AxiomaticFrame.make(self.args, parse_pred(self.psi))

    def to_substitution(self) -> dict[str, Formula]:
        self._expect("plain")
        return {x: parse_prop(text) for x, text in self.insts}

    def _expect(self, species: str) -> None:
        if self.species != species:
            raise ValueError(
                f"this operation needs a {species} document, got {self.species}"
            )


def _check_condition(f: Formula, declared: set[str]) -> None:
    """Acceptance conditions: and/or over literals, true, false."""
    for node in walk(f):
        if isinstance(node, Atom) and node.name not in declared:
            raise ParseError(f"acceptance condition mentions undeclared {node.name!r}")
        if isinstance(node, Neg) and not isinstance(node.body, Atom):
            raise ParseError("acceptance conditions may negate atoms only")
        if not isinstance(node, (Atom, Neg, And, Or, Top, Bot)):
            raise ParseError(
                f"{type(node).__name__} is not allowed in an acceptance condition"
            )


def _detect_species(facts: list[_Fact]) -> str:
    markers = set()
    for fact in facts:
        if fact.name == "datt":
            markers.add("disjunctive")
        elif fact.name == "catt":
            markers.add("conjunctive")
        elif fact.name == "acc":
            markers.add("adf")
        elif fact.name == "psi":
            markers.add("aaf")
        elif fact.name == "wff":
            markers.add("higher")
        elif fact.name == "att" and any(R_UNIT_RE.match(t.strip()) for t in fact.args):
            markers.add("higher")
    if len(markers) > 1:
        raise ParseError(f"mixed species: {' and '.join(sorted(markers))}")
    return markers.pop() if markers else "plain"


def parse_document(text: str) -> InputDocument:
    """Parse and validate a fact file into a single-species document."""
    facts = [_parse_fact(*chunk) for chunk in _split_facts(text)]
    species = _detect_species(facts)

    args: set[str] = set()
    for fact in facts:
        if fact.name == "arg":
            args.add(_as_id(fact.args[0], fact))
    if not args:
        raise ParseError("a document needs at least one arg fact")

    atts: set[tuple[str, str]] = set()
    wffs: dict[str, str] = {}
    insts: dict[str, str] = {}
    datts: set[tuple[str, tuple[str, ...]]] = set()
    catts: set[tuple[tuple[str, ...], str]] = set()
    accs: dict[str, str] = {}
    psi: str | None = None

    for fact in facts:
        if fact.name == "wff":
            name = _as_id(fact.args[0], fact)
            text_ = _as_quoted(fact.args[1], fact)
            if name in args:
                raise fact.fail(f"wff name {name!r} collides with an argument")
            if wffs.get(name, text_) != text_:
                raise fact.fail(f"conflicting formulas for wff {name!r}")
            parse_pred(text_)
            wffs[name] = text_

    for fact in facts:
        if fact.name == "arg":
            continue
        if fact.name == "att":
            if species not in ("plain", "higher"):
                raise fact.fail(f"att facts do not apply to {species} documents")
            endpoints = []
            for token in fact.args:
                unit = _as_unit(token, fact)
                m = R_UNIT_RE.match(unit)
                if m:
                    for inner in m.groups():
                        if inner not in args:
                            raise fact.fail(f"undeclared argument {inner!r}")
                elif unit not in args and unit not in wffs:
                    raise fact.fail(f"undeclared name {unit!r}")
                endpoints.append(unit)
            atts.add((endpoints[0], endpoints[1]))
        elif fact.name == "inst":
            if species != "plain":
                raise fact.fail("inst facts apply to plain documents only")
            x = _as_id(fact.args[0], fact)
            if x not in args:
                raise fact.fail(f"undeclared argument {x!r}")
            text_ = _as_quoted(fact.args[1], fact)
            if insts.get(x, text_) != text_:
                raise fact.fail(f"conflicting replacements for {x!r}")
            parse_prop(text_)
            insts[x] = text_
        elif fact.name == "datt":
            z = _as_id(fact.args[0], fact)
            targets = _as_list(fact.args[1], fact)
            for name in (z, *targets):
                if name not in args:
                    raise fact.fail(f"undeclared argument {name!r}")
            datts.add((z, tuple(sorted(set(targets)))))
        elif fact.name == "catt":
            group = _as_list(fact.args[0], fact)
            z = _as_id(fact.args[1], fact)
            for name in (*group, z):
                if name not in args:
                    raise fact.fail(f"undeclared argument {name!r}")
            catts.add((tuple(sorted(set(group))), z))
        elif fact.name == "acc":
            x = _as_id(fact.args[0], fact)
            if x not in args:
                raise fact.fail(f"undeclared argument {x!r}")
            text_ = _as_quoted(fact.args[1], fact)
            if x in accs:
                raise fact.fail(f"duplicate acceptance condition for {x!r}")
            _check_condition(parse_prop(text_), args)
            accs[x] = text_
        elif fact.name == "psi":
            if psi is not None:
                raise fact.fail("duplicate psi fact")
            psi = _as_quoted(fact.args[0], fact)
            parse_pred(psi)

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
