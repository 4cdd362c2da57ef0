"""Finite-domain predicate formulas over the two-world frame.

The language has one unary predicate ``In``, one binary predicate ``R``,
decided equality, and the connectives shared with the propositional layer.
Domains are constant across both worlds; ``In`` and ``R`` atoms carry
three-valued truth profiles, equality is identity on element names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .prop import (
    ALL,
    ANY,
    LEAF,
    And,
    Atom,
    Bot,
    EvalError,
    Formula,
    Imp,
    Neg,
    Or,
    Program,
    Top,
    UndConst,
    conj,
    disj,
    iff,
    scan,
)
from .threeval import DECIDED_ORDER, VALUE_ORDER, ThreeVal, World


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


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class StatusRef(Formula):
    """Internal placeholder that evaluates through a named status table.

    Used by the higher-network solver, where the standing of a formula unit
    is an unknown of the search rather than a derived value. Never produced
    by the parsers.
    """

    name: str


@dataclass(frozen=True, eq=True)
class PredInterp:
    """A two-world interpretation: fixed domain, In and R truth profiles."""

    domain: tuple[str, ...]
    in_val: Mapping[str, ThreeVal]
    r_val: Mapping[tuple[str, str], ThreeVal]

    __hash__ = None  # type: ignore[assignment]

    @property
    def r_is_decided(self) -> bool:
        return all(v.decided for v in self.r_val.values())

    @property
    def relation(self) -> frozenset[tuple[str, str]]:
        """The pairs whose R profile is true at the actual world."""
        return frozenset(p for p, v in self.r_val.items() if v.here)


def walk(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every formula node beneath it, in preorder."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Neg, Forall, Exists)):
            stack.append(node.body)
        elif isinstance(node, (And, Or, Imp)):
            stack += (node.right, node.left)


def _terms(f: Formula) -> tuple[Term, ...]:
    if isinstance(f, InAtom):
        return (f.term,)
    if isinstance(f, (RAtom, EqAtom)):
        return (f.left, f.right)
    return ()


def free_vars(f: Formula) -> set[str]:
    if isinstance(f, (InAtom, RAtom, EqAtom)):
        return {t.name for t in _terms(f) if isinstance(t, Variable)}
    if isinstance(f, (Atom, UndConst, Top, Bot, StatusRef)):
        return set()
    if isinstance(f, Neg):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Imp)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise EvalError(f"not a predicate formula node: {f!r}")


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


def grounding(domain: Sequence[str]):
    """The predicate layer's ``expand`` hook for Program over ``domain``.

    ``In(d)`` is a leaf keyed by the element ``d``, ``R(u,x)`` by the pair
    ``(u, x)``, a status reference by the node itself. Equality is decided
    while compiling; ``forall`` is the pointwise AND of its instances over
    the domain, ``exists`` the pointwise OR.
    """
    dom = tuple(domain)

    def expand(f: Formula, env: Mapping[str, str]) -> tuple[int, object]:
        if isinstance(f, InAtom):
            return LEAF, _resolve(f.term, dom, env)
        if isinstance(f, RAtom):
            return LEAF, (_resolve(f.left, dom, env), _resolve(f.right, dom, env))
        if isinstance(f, EqAtom):
            same = _resolve(f.left, dom, env) == _resolve(f.right, dom, env)
            return (ALL if same else ANY), ()
        if isinstance(f, StatusRef):
            return LEAF, f
        if isinstance(f, (Forall, Exists)):
            return (ALL if isinstance(f, Forall) else ANY), [
                (f.body, {**env, f.var: d}) for d in dom
            ]
        raise EvalError(f"not a predicate formula node: {f!r}")

    return expand


def _pair(
    f: Formula,
    m: PredInterp,
    v: Mapping[str, str] | None,
    statuses: Mapping[str, ThreeVal] | None,
) -> ThreeVal:
    """The truth profile of ``f`` in ``m``: a batch of one."""
    table = {key: x.value for key, x in [*m.in_val.items(), *m.r_val.items()]}
    table.update((StatusRef(n), x.value) for n, x in (statuses or {}).items())
    here, there = Program([f], grounding(m.domain), v).run(table, 1)[0]
    return ThreeVal.from_pair(bool(here), bool(there))


def eval_pred(
    w: World,
    f: Formula,
    m: PredInterp,
    v: Mapping[str, str] | None = None,
    statuses: Mapping[str, ThreeVal] | None = None,
) -> bool:
    """Satisfaction of ``f`` at ``w`` in ``m`` under the valuation ``v``.

    Universal quantification ranges over the (constant) domain at every
    world at or above ``w``; existential quantification stays at ``w``.
    """
    return _pair(f, m, v, statuses).at(w)


def pred_value(
    f: Formula, m: PredInterp, statuses: Mapping[str, ThreeVal] | None = None
) -> ThreeVal:
    """Truth profile of a closed formula; free variables raise EvalError."""
    return _pair(f, m, None, statuses)


def relation_to_r_val(
    domain: Sequence[str], relation: Iterable[tuple[str, str]]
) -> dict[tuple[str, str], ThreeVal]:
    """Spread a crisp relation over all domain pairs as TT/FF profiles."""
    rel = set(relation)
    return {
        (u, x): (ThreeVal.TT if (u, x) in rel else ThreeVal.FF)
        for u in domain
        for x in domain
    }


def mentions_in(f: Formula) -> bool:
    return any(isinstance(node, InAtom) for node in walk(f))


def relation_dims(
    domain: Sequence[str],
    fixed_r: Iterable[tuple[str, str]] | None,
    order: Sequence[ThreeVal],
) -> list[tuple[tuple[str, str], Sequence[ThreeVal]]]:
    """Scan dimensions of the R profiles: over ``order``, or pinned to ``fixed_r``."""
    if fixed_r is None:
        return [((u, x), order) for u in domain for x in domain]
    return [(p, (v,)) for p, v in relation_to_r_val(domain, fixed_r).items()]


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
    profiles always range over all three values. A first scan over the R
    choices alone keeps those satisfying the formulas that never mention
    ``In``; the In profiles are scanned only under the survivors.
    """
    dom = tuple(domain)
    formulas = list(theory)
    expand = grounding(dom)
    in_free = Program([f for f in formulas if not mentions_in(f)], expand)
    in_dependent = Program([f for f in formulas if mentions_in(f)], expand)
    r_dims = relation_dims(dom, fixed_r, DECIDED_ORDER if r_decided else VALUE_ORDER)
    found: list[PredInterp] = []
    for r_index in scan(r_dims, in_free.holds):
        r_val = {p: choices[c] for (p, choices), c in zip(r_dims, r_index)}
        pinned = [(p, (v,)) for p, v in r_val.items()]
        in_dims = [(d, VALUE_ORDER) for d in dom]
        for index in scan(pinned + in_dims, in_dependent.holds):
            in_val = {d: VALUE_ORDER[c] for d, c in zip(dom, index[len(pinned) :])}
            found.append(PredInterp(dom, in_val, r_val))
    return found


def classical_eval(
    f: Formula,
    domain: Sequence[str],
    relation: Iterable[tuple[str, str]],
    v: Mapping[str, str] | None = None,
) -> bool:
    """Single-world classical satisfaction for formulas over R and = only.

    This is two-world evaluation with every relation atom decided.
    """
    for node in walk(f):
        if isinstance(node, (Atom, InAtom, UndConst, StatusRef)):
            raise EvalError(
                "classical evaluation accepts formulas over R and = only, "
                f"found {type(node).__name__}"
            )
    dom = tuple(domain)
    r_val = relation_to_r_val(dom, relation)
    return eval_pred(World.HERE, f, PredInterp(dom, {}, r_val), v)


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


def ac_normal_form(f: Formula) -> Formula:
    """Canonical form modulo associativity and commutativity of And/Or.

    Chains of the same connective are flattened, the parts normalized and
    sorted structurally, then refolded to the right. Used to compare
    generated clause sets against reference renderings.
    """
    if isinstance(f, (And, Or)):
        parts = sorted((ac_normal_form(p) for p in _spine(type(f), f)), key=repr)
        return conj(parts) if isinstance(f, And) else disj(parts)
    if isinstance(f, Neg):
        return Neg(ac_normal_form(f.body))
    if isinstance(f, Imp):
        return Imp(ac_normal_form(f.left), ac_normal_form(f.right))
    if isinstance(f, Forall):
        return Forall(f.var, ac_normal_form(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, ac_normal_form(f.body))
    return f


def _spine(kind: type, f: Formula) -> Iterator[Formula]:
    if isinstance(f, kind):
        yield from _spine(kind, f.left)  # type: ignore[attr-defined]
        yield from _spine(kind, f.right)  # type: ignore[attr-defined]
    else:
        yield f
