"""Finite-domain predicate formulas over the two-world frame.

The language has one unary predicate ``In``, one binary predicate ``R``,
decided equality, and the connectives shared with the propositional layer.
Domains are constant across both worlds; ``In`` and ``R`` atoms carry
three-valued truth profiles, equality is identity on element names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .prop import (
    ALL,
    ANY,
    CONSTANTS,
    LEAF,
    And,
    Bot,
    EvalError,
    Formula,
    Imp,
    Neg,
    Or,
    Program,
    Top,
    fold,
    iff,
    scan,
    walk,
)
from .threeval import DECIDED_ORDER, VALUE_ORDER, ThreeVal


class Term:
    """Marker base for terms; the language has no function symbols."""

    __slots__ = ()


@dataclass(frozen=True)
class Variable(Term):
    name: str


@dataclass(frozen=True)
class Constant(Term):
    name: str


@dataclass(frozen=True)
class InAtom(Formula):
    term: Term


@dataclass(frozen=True)
class RAtom(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class EqAtom(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula
    subformulas = ("body",)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula
    subformulas = ("body",)


@dataclass(frozen=True)
class StatusRef(Formula):
    """Internal placeholder that evaluates through a named status table.

    Used by the higher-network solver, where the standing of a formula unit
    is an unknown of the search rather than a derived value, and for the
    attacks left open in the domain diagram compiled over positions. Never
    produced by the parsers.
    """

    name: str


@dataclass(frozen=True, eq=True)
class PredInterp:
    """A two-world interpretation: fixed domain, In and R truth profiles."""

    domain: tuple[str, ...]
    in_val: Mapping[str, ThreeVal]
    r_val: Mapping[tuple[str, str], ThreeVal]

    __hash__ = None  # type: ignore[assignment]


def _terms(f: Formula) -> tuple[Term, ...]:
    if isinstance(f, InAtom):
        return (f.term,)
    if isinstance(f, (RAtom, EqAtom)):
        return (f.left, f.right)
    return ()


def free_vars(f: Formula) -> set[str]:
    """Names of the variables occurring free in ``f``."""

    def combine(node: Formula, parts: list[set[str]]) -> set[str]:
        if isinstance(node, (Forall, Exists)):
            return parts[0] - {node.var}
        return {t.name for t in _terms(node) if isinstance(t, Variable)}.union(*parts)

    return fold(f, combine)


def is_closed(f: Formula) -> bool:
    return not free_vars(f)


def constants_of(f: Formula) -> set[str]:
    """Names of the constants occurring in ``f``."""
    return {
        t.name
        for node in walk(f)
        for t in _terms(node)
        if isinstance(t, Constant)
    }


def _resolve(t: Term, domain: Sequence[str], env: Mapping[str, str]) -> str:
    if isinstance(t, Variable):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Constant):
        if t.name not in domain:
            raise EvalError(f"constant {t.name!r} names no domain element")
        return t.name
    raise EvalError(f"not a term: {t!r}")


def grounding(
    domain: Sequence[str], decided: Mapping[tuple[str, str], ThreeVal] | None = None
):
    """The predicate layer's ``expand`` hook for Program over ``domain``.

    ``In(d)`` is a leaf keyed by the element ``d``, ``R(u,x)`` by the pair
    ``(u, x)``, a status reference by the node itself. Equality is decided
    while compiling, and so is each R atom whose pair ``decided`` maps to
    TT or FF (see ``relation_to_r_val``): the compiler's folds take it from
    there, and a pair left out stays a leaf. ``forall`` is the pointwise
    AND of its instances over the domain, ``exists`` the pointwise OR.
    Raises ValueError for a domain that lists an element twice.
    """
    dom = distinct_domain(domain)
    decided = decided or {}

    def expand(f: Formula, env: Mapping[str, str]) -> tuple[int, object]:
        kind = type(f)
        if kind in CONSTANTS:
            return CONSTANTS[kind], ()
        if kind is InAtom:
            return LEAF, _resolve(f.term, dom, env)
        if kind is RAtom:
            pair = (_resolve(f.left, dom, env), _resolve(f.right, dom, env))
            if pair not in decided:
                return LEAF, pair
            return (ALL if decided[pair] is ThreeVal.TT else ANY), ()
        if kind is EqAtom:
            same = _resolve(f.left, dom, env) == _resolve(f.right, dom, env)
            return (ALL if same else ANY), ()
        if kind is StatusRef:
            return LEAF, f
        if kind is Forall or kind is Exists:
            return (ALL if kind is Forall else ANY), [
                (f.body, {**env, f.var: d}) for d in dom
            ]
        raise EvalError(f"not a predicate formula node: {f!r}")

    return expand


def pred_value(
    f: Formula, m: PredInterp, statuses: Mapping[str, ThreeVal] | None = None,
    v: Mapping[str, str] | None = None,
) -> ThreeVal:
    """The truth profile of ``f`` in ``m`` under the valuation ``v``, a batch of one.

    ``.at(w)`` is satisfaction at ``w``: universal quantification ranges over
    the (constant) domain at every world at or above ``w``, existential
    quantification stays at ``w``. A variable ``v`` leaves free raises EvalError.
    """
    table = {key: x.value for key, x in [*m.in_val.items(), *m.r_val.items()]}
    table.update((StatusRef(n), x.value) for n, x in (statuses or {}).items())
    here, there = Program([f], grounding(m.domain), v).run(table, 1)[0]
    return ThreeVal.from_pair(bool(here), bool(there))


def distinct_domain(domain: Iterable[str]) -> tuple[str, ...]:
    """``domain`` as a tuple; ValueError names an element it lists twice."""
    dom = tuple(domain)
    if len(set(dom)) < len(dom):
        repeated = next(d for i, d in enumerate(dom) if d in dom[:i])
        raise ValueError(f"domain element {repeated!r} is listed twice")
    return dom


def relation_to_r_val(
    domain: Sequence[str], relation: Iterable[tuple[str, str]]
) -> dict[tuple[str, str], ThreeVal]:
    """Spread a crisp relation over all domain pairs as TT/FF profiles.

    Raises ValueError for a pair naming an element outside the domain.
    """
    rel, dom = set(relation), set(domain)
    outside = sorted(p for p in rel if not set(p) <= dom)
    if outside:
        raise ValueError(f"relation pair {outside[0]!r} names an element outside the domain")
    return {
        (u, x): (ThreeVal.TT if (u, x) in rel else ThreeVal.FF)
        for u in domain
        for x in domain
    }


def enumerate_interps(
    domain: Sequence[str],
    theory: Iterable[Formula],
    *,
    r_decided: bool = False,
    fixed_r: Iterable[tuple[str, str]] | None = None,
) -> list[PredInterp]:
    """All interpretations satisfying every theory member at the actual world.

    R profiles range over all three values unless ``r_decided`` limits them
    to the classical two, or ``fixed_r`` pins the relation outright. In
    profiles always range over all three values. The pinned pairs are
    decided while compiling (see ``grounding``); one scan runs over the open
    R pairs, then the In profiles. A pair outside the domain raises
    ValueError.
    """
    dom = tuple(domain)
    decided = {} if fixed_r is None else relation_to_r_val(dom, fixed_r)
    order = DECIDED_ORDER if r_decided else VALUE_ORDER
    pairs = [p for p in itertools.product(dom, dom) if p not in decided]
    dims = [(p, order) for p in pairs] + [(d, VALUE_ORDER) for d in dom]
    program = Program(theory, grounding(dom, decided))
    k = len(pairs)
    interps = []
    # the scan runs through each relation's In profiles in a row: one R dict each
    for r_index, kept in itertools.groupby(scan(dims, [(program, None)]), lambda i: i[:k]):
        r_val = {**decided, **{p: order[c] for p, c in zip(pairs, r_index)}}
        interps += [
            PredInterp(dom, {d: VALUE_ORDER[c] for d, c in zip(dom, i[k:])}, r_val)
            for i in kept
        ]
    return interps


def non_classical_node(f: Formula) -> str | None:
    """The kind of the first node of ``f`` that no classical formula has.

    Classical formulas are R and = atoms under connectives and quantifiers.
    """
    classical = (RAtom, EqAtom, Top, Bot, Neg, And, Or, Imp, Forall, Exists)
    for node in walk(f):
        if not isinstance(node, classical):
            return type(node).__name__
    return None


def classical_eval(
    f: Formula,
    domain: Sequence[str],
    relation: Iterable[tuple[str, str]],
    v: Mapping[str, str] | None = None,
) -> bool:
    """Single-world classical satisfaction for formulas over R and = only.

    This is two-world evaluation with every relation atom decided. Raises
    ValueError for a relation pair naming an element outside the domain.
    """
    found = non_classical_node(f)
    if found:
        raise EvalError(
            f"classical evaluation accepts formulas over R and = only, found {found}"
        )
    dom = tuple(domain)
    r_val = relation_to_r_val(dom, relation)
    return pred_value(f, PredInterp(dom, {}, r_val), v=v).here


def attacks_all_others(a: str) -> Formula:
    """a attacks every element other than itself."""
    x = Variable("X")
    return Forall(
        "X", Imp(Neg(EqAtom(x, Constant(a))), RAtom(Constant(a), x))
    )


def attacked_by_all_others(a: str) -> Formula:
    """Every element other than a attacks a."""
    x = Variable("X")
    return Forall(
        "X", Imp(Neg(EqAtom(x, Constant(a))), RAtom(x, Constant(a)))
    )


def same_targets(a: str, b: str) -> Formula:
    """a and b attack exactly the same elements."""
    x = Variable("X")
    return Forall("X", iff(RAtom(Constant(a), x), RAtom(Constant(b), x)))


def attacks_self_attackers(a: str) -> Formula:
    """a attacks exactly the self-attacking elements."""
    x = Variable("X")
    return Forall("X", iff(RAtom(Constant(a), x), RAtom(x, x)))


_META_BUILDERS = {
    "attacks_all_others": attacks_all_others,
    "attacked_by_all_others": attacked_by_all_others,
    "same_targets": same_targets,
    "attacks_self_attackers": attacks_self_attackers,
}


def build_meta(kind: str, *args: str) -> Formula:
    """Construct one of the named quantified attack properties.

    Kinds: attacks_all_others(a), attacked_by_all_others(a),
    same_targets(a, b), attacks_self_attackers(a).
    """
    try:
        builder = _META_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown meta formula kind {kind!r}; "
            f"expected one of {sorted(_META_BUILDERS)}"
        ) from None
    return builder(*args)
