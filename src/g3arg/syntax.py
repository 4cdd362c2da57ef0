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
from typing import Callable, NamedTuple

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
        self.message = message
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
_NOT_TERMS = {*_QUANT_WORDS, *_KEYWORDS, "In", "R"}


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
        return self.term_from(self.expect("ident", "a term"))

    def term_from(self, tok: _Token) -> Term:
        if tok.text in _NOT_TERMS:
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


# How tightly each connective binds; every other node, a!=b included, binds
# tightest (5). An operand binding more loosely than its context is
# parenthesized, and so is one binding equally unless it sits in a tight
# position: the right operand of a right-nested connective, or the body of a
# negation.
_PREC = {Forall: 0, Exists: 0, Imp: 1, Or: 2, And: 3, Neg: 4}
_INFIX = {Imp: " -> ", Or: " | ", And: " & "}
# The text of every other node but an atom; a quantifier's body follows in
# parentheses, and a negation takes this form only over an equality.
_TEXT = {
    UndConst: "#n",
    Top: "true",
    Bot: "false",
    InAtom: "In({0.term.name})",
    RAtom: "R({0.left.name},{0.right.name})",
    EqAtom: "{0.left.name}={0.right.name}",
    StatusRef: "<{0.name}>",
    Neg: "{0.body.left.name}!={0.body.right.name}",
    Forall: "forall {0.var} (",
    Exists: "exists {0.var} (",
}


class MarkerText(NamedTuple):
    """Text that ``format_formula`` prints as a leaf, and how tightly it binds.

    It sits in a tree as a placeholder for a formula rendered elsewhere,
    put there by ``replace_und`` or built in its place.
    """

    text: str
    prec: int

    @classmethod
    def of(cls, defn: Formula) -> MarkerText:
        """``defn`` rendered once, to stand in its place in later trees."""
        return cls(format_formula(defn), _binding(defn))


def _binding(g: Formula) -> int:
    """How tightly ``g`` binds (see _PREC): a marker by its own ``prec``, a!=b tightest."""
    kind = type(g)
    if kind is MarkerText:
        return g.prec
    return 5 if kind is Neg and type(g.body) is EqAtom else _PREC.get(kind, 5)


def format_formula(f: Formula) -> str:
    """Render a formula in the shared grammar with minimal parentheses.

    Quantifier bodies are always parenthesized, so parsing the output gives
    back the same tree. A ``MarkerText`` leaf prints its text, parenthesized
    by its precedence: ``f`` with ``MarkerText.of(defn)`` at some leaves
    prints as ``f`` with ``defn`` there, without rendering ``defn`` again.
    Tokens are emitted from an explicit stack of pending (node, context
    precedence, tight) operands and literal text, so depth and length are
    not bounded by recursion.
    """
    out: list[str] = []
    stack: list = [(f, 0, True)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item[0]) is Atom:  # the commonest node; never parenthesized
            out.append(item[0].name)
            continue
        g, outer, tight = item
        kind, p = type(g), _binding(g)
        if p < outer or (p == outer and not tight):
            out.append("(")
            stack.append(")")
        if kind in _INFIX:
            stack += ((g.right, p, True), _INFIX[kind], (g.left, p, False))
        elif kind is MarkerText:
            out.append(g.text)
        elif p == 4:  # a negation, other than a!=b
            out.append("~")
            stack.append((g.body, 4, True))
        elif kind in _TEXT:
            out.append(_TEXT[kind].format(g))
            if p == 0:  # a quantifier, whose body follows
                stack += (")", (g.body, 0, True))
        else:
            raise TypeError(f"cannot format {g!r}")
    return "".join(out)
