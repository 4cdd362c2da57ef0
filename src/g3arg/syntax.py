"""Concrete syntax for formulas: tokenizer, parsers, and the formatter.

Shared grammar                               node
    atoms           identifiers              Atom (propositional mode)
    ``In(t)``       unary predicate          InAtom (predicate mode)
    ``R(t,u)``      binary predicate         RAtom (predicate mode)
    ``t=u  t!=u``   decided equality         EqAtom / Neg(EqAtom)
    ``#n``          undecidedness constant   UndConst
    ``true false``  lattice bounds           Top / Bot
    ``~ & | ->``    connectives, precedence  ~ > & > | > ->, -> right-assoc
    ``<->``         sugar, expanded at parse time into two implications
    ``forall X (...)  exists X (...)``       quantifiers, maximal scope

Variables start uppercase, constants lowercase. ``In``, ``R``, ``true``,
``false``, ``forall``, ``exists`` are reserved in predicate mode.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .prop import (
    And,
    Atom,
    Bot,
    Formula,
    Imp,
    Neg,
    Or,
    Top,
    UndConst,
    conj,
    disj,
    iff,
)
from .pred import (
    Constant,
    EqAtom,
    Exists,
    Forall,
    InAtom,
    RAtom,
    StatusRef,
    Term,
    Variable,
)


class ParseError(Exception):
    """Syntax trouble, optionally carrying a 1-based line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        suffix = f" (line {line}, column {col})" if line else ""
        super().__init__(message + suffix)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<darrow><->)
      | (?P<arrow>->)
      | (?P<neq>!=)
      | (?P<und>\#n)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<tilde>~)
      | (?P<amp>&)
      | (?P<pipe>\|)
      | (?P<eq>=)
    """,
    re.VERBOSE,
)

_QUANT_WORDS = {"forall": Forall, "exists": Exists}
# Deepest nesting of negations, parentheses, quantifiers and right operands
# of -> and <-> that the recursive-descent parser accepts.
MAX_NESTING = 100
_KEYWORDS = {"true", "false"}


def _scan(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        lexeme = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, predicate: bool):
        self.tokens = _scan(text)
        self.i = 0
        self.predicate = predicate
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.take()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def nested(self, parse: Callable[[], Formula]) -> Formula:
        if self.depth == MAX_NESTING:
            raise self.fail(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # Precedence ladder, lowest first.

    def parse_full(self) -> Formula:
        f = self.parse_biimp()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.col
            )
        return f

    def parse_biimp(self) -> Formula:
        left = self.parse_imp()
        if self.peek().kind == "darrow":
            self.take()
            return iff(left, self.nested(self.parse_biimp))
        return left

    def parse_imp(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "arrow":
            self.take()
            return Imp(left, self.nested(self.parse_imp))
        return left

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek().kind == "pipe":
            self.take()
            parts.append(self.parse_and())
        return disj(parts)

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek().kind == "amp":
            self.take()
            parts.append(self.parse_unary())
        return conj(parts)

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "tilde":
            self.take()
            return Neg(self.nested(self.parse_unary))
        if (
            self.predicate
            and tok.kind == "ident"
            and tok.text in _QUANT_WORDS
        ):
            return self.parse_quantifier()
        return self.parse_atom()

    def parse_quantifier(self) -> Formula:
        node = _QUANT_WORDS[self.take().text]
        var = self.expect("ident", "a quantified variable")
        if not var.text[0].isupper():
            raise ParseError(
                f"quantified variables start uppercase, found {var.text!r}",
                var.line,
                var.col,
            )
        return node(var.text, self.nested(self.parse_biimp))

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lpar":
            self.take()
            inner = self.nested(self.parse_biimp)
            self.expect("rpar", "a closing parenthesis")
            return inner
        if tok.kind == "und":
            self.take()
            return UndConst()
        if tok.kind == "ident" and tok.text in _KEYWORDS:
            self.take()
            return Top() if tok.text == "true" else Bot()
        if tok.kind != "ident":
            raise self.fail(
                f"expected a formula, found {tok.text or 'end of input'!r}"
            )
        if not self.predicate:
            self.take()
            return Atom(tok.text)
        return self.parse_pred_atom()

    def parse_pred_atom(self) -> Formula:
        tok = self.take()
        if tok.text == "In" and self.peek().kind == "lpar":
            self.take()
            term = self.parse_term()
            self.expect("rpar", "a closing parenthesis")
            return InAtom(term)
        if tok.text == "R" and self.peek().kind == "lpar":
            self.take()
            left = self.parse_term()
            self.expect("comma", "a comma")
            right = self.parse_term()
            self.expect("rpar", "a closing parenthesis")
            return RAtom(left, right)
        if tok.text in ("In", "R"):
            raise ParseError(
                f"{tok.text!r} is a reserved predicate name", tok.line, tok.col
            )
        left = self.term_from(tok)
        nxt = self.peek()
        if nxt.kind == "eq":
            self.take()
            return EqAtom(left, self.parse_term())
        if nxt.kind == "neq":
            self.take()
            return Neg(EqAtom(left, self.parse_term()))
        raise ParseError(
            "expected '=' or '!=' after a bare term", nxt.line, nxt.col
        )

    def parse_term(self) -> Term:
        tok = self.expect("ident", "a term")
        if tok.text in _QUANT_WORDS or tok.text in _KEYWORDS or tok.text in ("In", "R"):
            raise ParseError(f"{tok.text!r} cannot be a term", tok.line, tok.col)
        return self.term_from(tok)

    def term_from(self, tok: _Token) -> Term:
        if tok.text in _QUANT_WORDS or tok.text in _KEYWORDS:
            raise ParseError(f"{tok.text!r} cannot be a term", tok.line, tok.col)
        if tok.text[0].isupper():
            return Variable(tok.text)
        return Constant(tok.text)


def parse_prop(text: str) -> Formula:
    """Parse a propositional formula."""
    return _Parser(text, predicate=False).parse_full()


def parse_pred(text: str) -> Formula:
    """Parse a predicate formula over In, R and equality."""
    return _Parser(text, predicate=True).parse_full()


def _prec(f: Formula) -> int:
    if isinstance(f, (Forall, Exists)):
        return 0
    if isinstance(f, Imp):
        return 1
    if isinstance(f, Or):
        return 2
    if isinstance(f, And):
        return 3
    if isinstance(f, Neg):
        return 5 if isinstance(f.body, EqAtom) else 4
    return 5


def format_formula(f: Formula) -> str:
    """Render a formula in the shared grammar with minimal parentheses.

    Quantifier bodies are always parenthesized, so parsing the output gives
    back the same tree.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, UndConst):
        return "#n"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, InAtom):
        return f"In({f.term.name})"  # type: ignore[attr-defined]
    if isinstance(f, RAtom):
        return f"R({f.left.name},{f.right.name})"  # type: ignore[attr-defined]
    if isinstance(f, EqAtom):
        return f"{f.left.name}={f.right.name}"  # type: ignore[attr-defined]
    if isinstance(f, StatusRef):
        return f"<{f.name}>"
    if isinstance(f, Neg):
        if isinstance(f.body, EqAtom):
            eq = f.body
            return f"{eq.left.name}!={eq.right.name}"  # type: ignore[attr-defined]
        return "~" + _wrap(f.body, 4, tight=True)
    if isinstance(f, And):
        return _wrap(f.left, 3) + " & " + _wrap(f.right, 3, tight=True)
    if isinstance(f, Or):
        return _wrap(f.left, 2) + " | " + _wrap(f.right, 2, tight=True)
    if isinstance(f, Imp):
        return _wrap(f.left, 1) + " -> " + _wrap(f.right, 1, tight=True)
    if isinstance(f, Forall):
        return f"forall {f.var} ({format_formula(f.body)})"
    if isinstance(f, Exists):
        return f"exists {f.var} ({format_formula(f.body)})"
    raise TypeError(f"cannot format {f!r}")


def _wrap(f: Formula, parent_prec: int, tight: bool = False) -> str:
    # tight: equal precedence is fine (right operand of a right-associative
    # connective, or the body of a negation)
    p = _prec(f)
    text = format_formula(f)
    if p < parent_prec or (p == parent_prec and not tight):
        return f"({text})"
    return text
