"""Reference semantics for the tests: scalar tree walks and one-at-a-time scans.

The package evaluates formulas bit-parallel over whole scans. The functions
here evaluate one formula under one assignment at a time by walking the
tree, world by world, straight from the Kripke definitions: negation and
implication look at every world at or above the current one, and so does
the universal quantifier. The scans enumerate candidates with
itertools.product in the canonical order and keep those the walks accept;
complete labellings likewise come from all 3^n labellings, each tested
against the three local conditions by check_complete, where the package
runs a propagation search.
classify compares every pair of in-sets, where the package takes the least
in-set and sweeps for the maximal ones.
The structural walks (formatting, free variables, leaf replacement, AC
normal form) are the recursive definitions that the package's explicit-stack
traversals must agree with. defined_marker compiles each #n as a reference
to its definition, the direct compile that linked programs are checked against.
The fact reader at the end is a character-loop reader with the fact
parsing, species detection and validation passes the package's one-pass
reader replaced; it patches nothing in the package. It forgets an open quote
at every line break, so it is the reference only for documents whose quoted
strings stay on one line.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from g3arg.af import LABEL_ORDER, NAME_RE, Classified, Framework, Label, check_complete
from g3arg.document import InputDocument
from g3arg.meta import R_UNIT_RE, GeneralizedModel, _star_clauses
from g3arg.pred import (
    EqAtom,
    Exists,
    Forall,
    InAtom,
    PredInterp,
    RAtom,
    StatusRef,
    Variable,
    relation_to_r_val,
)
from g3arg.prop import (
    ALL,
    And,
    Atom,
    Bot,
    EvalError,
    Imp,
    Neg,
    Or,
    Top,
    UndConst,
    atoms_of,
    conj,
    disj,
    propositional,
)
from g3arg.syntax import ParseError, parse_pred, parse_prop
from g3arg.threeval import DECIDED_ORDER, VALUE_ORDER, ThreeVal, World
from g3arg.translate import prop_theory


def eval_world(w, f, h):
    """Propositional satisfaction of ``f`` at ``w`` under ``h``."""
    if isinstance(f, Atom):
        try:
            return h[f.name].at(w)
        except KeyError:
            raise EvalError(f"atom {f.name!r} has no assigned value") from None
    if isinstance(f, UndConst):
        return w is World.THERE
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return eval_world(w, f.left, h) and eval_world(w, f.right, h)
    if isinstance(f, Or):
        return eval_world(w, f.left, h) or eval_world(w, f.right, h)
    if isinstance(f, Neg):
        return all(not eval_world(u, f.body, h) for u in w.and_above())
    if isinstance(f, Imp):
        return all(
            not eval_world(u, f.left, h) or eval_world(u, f.right, h)
            for u in w.and_above()
        )
    raise EvalError(f"not a propositional formula node: {f!r}")


def value(f, h):
    return ThreeVal.from_pair(
        eval_world(World.HERE, f, h), eval_world(World.THERE, f, h)
    )


def _resolve(t, m, v):
    if isinstance(t, Variable):
        return v[t.name]
    if t.name not in m.domain:
        raise EvalError(f"constant {t.name!r} names no domain element")
    return t.name


def eval_pred(w, f, m, v=None, statuses=None):
    """Predicate satisfaction of ``f`` at ``w`` in ``m`` under ``v``."""
    v = v or {}
    if isinstance(f, InAtom):
        return m.in_val[_resolve(f.term, m, v)].at(w)
    if isinstance(f, RAtom):
        return m.r_val[(_resolve(f.left, m, v), _resolve(f.right, m, v))].at(w)
    if isinstance(f, EqAtom):
        return _resolve(f.left, m, v) == _resolve(f.right, m, v)
    if isinstance(f, StatusRef):
        return statuses[f.name].at(w)
    if isinstance(f, UndConst):
        return w is World.THERE
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return eval_pred(w, f.left, m, v, statuses) and eval_pred(
            w, f.right, m, v, statuses
        )
    if isinstance(f, Or):
        return eval_pred(w, f.left, m, v, statuses) or eval_pred(
            w, f.right, m, v, statuses
        )
    if isinstance(f, Neg):
        return all(not eval_pred(u, f.body, m, v, statuses) for u in w.and_above())
    if isinstance(f, Imp):
        return all(
            not eval_pred(u, f.left, m, v, statuses)
            or eval_pred(u, f.right, m, v, statuses)
            for u in w.and_above()
        )
    if isinstance(f, Forall):
        return all(
            eval_pred(u, f.body, m, {**v, f.var: d}, statuses)
            for u in w.and_above()
            for d in m.domain
        )
    if isinstance(f, Exists):
        return any(
            eval_pred(w, f.body, m, {**v, f.var: d}, statuses) for d in m.domain
        )
    raise EvalError(f"not a predicate formula node: {f!r}")


def pred_value(f, m, statuses=None):
    return ThreeVal.from_pair(
        eval_pred(World.HERE, f, m, None, statuses),
        eval_pred(World.THERE, f, m, None, statuses),
    )


def classical_eval(f, domain, relation, v=None):
    """Single-world classical satisfaction over R and = only."""
    v = v or {}

    def res(t):
        return v[t.name] if isinstance(t, Variable) else t.name

    if isinstance(f, RAtom):
        return (res(f.left), res(f.right)) in relation
    if isinstance(f, EqAtom):
        return res(f.left) == res(f.right)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not classical_eval(f.body, domain, relation, v)
    if isinstance(f, And):
        return classical_eval(f.left, domain, relation, v) and classical_eval(
            f.right, domain, relation, v
        )
    if isinstance(f, Or):
        return classical_eval(f.left, domain, relation, v) or classical_eval(
            f.right, domain, relation, v
        )
    if isinstance(f, Imp):
        return not classical_eval(f.left, domain, relation, v) or classical_eval(
            f.right, domain, relation, v
        )
    if isinstance(f, (Forall, Exists)):
        test = all if isinstance(f, Forall) else any
        return test(
            classical_eval(f.body, domain, relation, {**v, f.var: d}) for d in domain
        )
    raise EvalError(f"not a classical formula node: {f!r}")


def all_labellings(f):
    for combo in itertools.product(LABEL_ORDER, repeat=len(f.arguments)):
        yield dict(zip(f.arguments, combo))


def enumerate_complete(f):
    """Every legal labelling, in lexicographic IN < OUT < UND order."""
    return [lab for lab in all_labellings(f) if check_complete(f, lab)[0]]


def classify(labs):
    """Stable, grounded and preferred by comparing every pair of in-sets."""
    if not labs:
        raise ValueError("complete semantics never yields zero labellings")
    in_sets = [frozenset(x for x, v in lab.items() if v is Label.IN) for lab in labs]
    stable = tuple(
        lab for lab in labs if all(v is not Label.UND for v in lab.values())
    )
    grounded = [
        lab
        for lab, mine in zip(labs, in_sets)
        if all(mine <= other for other in in_sets)
    ]
    if len(grounded) != 1:
        raise ValueError("input is not the complete set of one framework")
    preferred = tuple(
        lab
        for lab, mine in zip(labs, in_sets)
        if not any(mine < other for other in in_sets)
    )
    return Classified(stable, grounded[0], preferred)


def enumerate_models(theory, atoms):
    names = list(dict.fromkeys(atoms))
    found = []
    for combo in itertools.product(VALUE_ORDER, repeat=len(names)):
        h = dict(zip(names, combo))
        if all(eval_world(World.HERE, f, h) for f in theory):
            found.append(h)
    return found


def enumerate_interps(domain, theory, *, r_decided=False, fixed_r=None):
    dom = tuple(domain)
    pairs = [(u, x) for u in dom for x in dom]
    if fixed_r is not None:
        r_choices = [relation_to_r_val(dom, fixed_r)]
    else:
        order = DECIDED_ORDER if r_decided else VALUE_ORDER
        r_choices = [
            dict(zip(pairs, combo))
            for combo in itertools.product(order, repeat=len(pairs))
        ]
    found = []
    for r_val in r_choices:
        for combo in itertools.product(VALUE_ORDER, repeat=len(dom)):
            m = PredInterp(dom, dict(zip(dom, combo)), r_val)
            if all(eval_pred(World.HERE, f, m) for f in theory):
                found.append(m)
    return found


def _as_status(unit):
    """Every unit, a relation-atom unit too, evaluates through its status."""
    return StatusRef(unit.name)


def solve_higher(hn, fixed_r=None):
    """Every (In, R, standing) candidate in product order, filtered."""
    nodes = hn.nodes
    pairs = [(u, v) for u in nodes for v in nodes]
    clauses = [g for _, g in _star_clauses(hn, True, _as_status)]
    general = [u for u in hn.wffs if not u.is_r_atom]
    if fixed_r is not None:
        r_choices = [relation_to_r_val(nodes, fixed_r)]
    else:
        r_choices = [
            dict(zip(pairs, combo))
            for combo in itertools.product(VALUE_ORDER, repeat=len(pairs))
        ]
    models = []
    for in_combo in itertools.product(VALUE_ORDER, repeat=len(nodes)):
        for r_val in r_choices:
            interp = PredInterp(nodes, dict(zip(nodes, in_combo)), r_val)
            for combo in itertools.product(VALUE_ORDER, repeat=len(general)):
                table = {
                    u.name: r_val[(u.formula.left.name, u.formula.right.name)]
                    for u in hn.wffs
                    if u.is_r_atom
                }
                table.update((u.name, s) for u, s in zip(general, combo))
                if any(
                    table[u.name].here != eval_pred(World.HERE, u.formula, interp)
                    for u in general
                ):
                    continue
                if all(eval_pred(World.HERE, c, interp, None, table) for c in clauses):
                    models.append(
                        GeneralizedModel(interp, tuple(sorted(table.items())))
                    )
    return models


def aaf_extensions(af):
    pairs = [(u, x) for u in af.s0 for x in af.s0]
    relations = sorted(
        tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        for mask in range(2 ** len(pairs))
    )
    return [
        (rel, tuple(enumerate_complete(Framework.make(af.s0, rel))))
        for rel in relations
        if classical_eval(af.psi, af.s0, set(rel))
    ]



def instantiated_models(f, subst):
    extra = sorted({a for g in subst.values() for a in atoms_of(g)} - set(f.arguments))
    found = []
    for h in enumerate_models([], list(f.arguments) + extra):
        if all(eval_world(World.HERE, g, h) for g in prop_theory(f).formulas()) and all(
            h[x].here == eval_world(World.HERE, g, h) for x, g in subst.items()
        ):
            found.append(h)
    return found


def _terms(f):
    if isinstance(f, InAtom):
        return (f.term,)
    if isinstance(f, (RAtom, EqAtom)):
        return (f.left, f.right)
    return ()


def free_vars(f):
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


def _rebuild(f, leaf):
    """``f`` with every atom and constant replaced by ``leaf(node)``."""
    if isinstance(f, (Atom, UndConst, Top, Bot)):
        return leaf(f)
    if isinstance(f, Neg):
        return Neg(_rebuild(f.body, leaf))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_rebuild(f.left, leaf), _rebuild(f.right, leaf))
    raise EvalError(f"not a propositional formula node: {f!r}")


def substitute(f, mapping):
    return _rebuild(f, lambda g: mapping.get(g.name, g) if isinstance(g, Atom) else g)


def replace_und(f, replacement):
    return _rebuild(f, lambda g: replacement if isinstance(g, UndConst) else g)


def defined_marker(defn):
    """Program's ``expand`` hook that compiles each ``#n`` as a reference to ``defn``.

    The hook-side counterpart of ``replace_und``: the definition is compiled
    once, where ``#n`` first occurs, and shared by every later occurrence.
    """

    def expand(g, env):
        if type(g) is UndConst:
            return ALL, [(defn, env)]
        return propositional(g, env)

    return expand


def ac_normal_form(f):
    """Flatten And/Or chains, normalize and sort the parts by repr, refold."""
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


def _spine(kind, f):
    if isinstance(f, kind):
        yield from _spine(kind, f.left)
        yield from _spine(kind, f.right)
    else:
        yield f


def walk(f):
    """Preorder, recursively: the node, then its subformulas left to right."""
    yield f
    if isinstance(f, (Neg, Forall, Exists)):
        yield from walk(f.body)
    elif isinstance(f, (And, Or, Imp)):
        yield from walk(f.left)
        yield from walk(f.right)


def _prec(f):
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


def format_formula(f):
    """The shared grammar with minimal parentheses, rendered recursively."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, UndConst):
        return "#n"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, InAtom):
        return f"In({f.term.name})"
    if isinstance(f, RAtom):
        return f"R({f.left.name},{f.right.name})"
    if isinstance(f, EqAtom):
        return f"{f.left.name}={f.right.name}"
    if isinstance(f, StatusRef):
        return f"<{f.name}>"
    if isinstance(f, Neg):
        if isinstance(f.body, EqAtom):
            eq = f.body
            return f"{eq.left.name}!={eq.right.name}"
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


def _wrap(f, parent_prec, tight=False):
    # tight: equal precedence is fine (right operand of a right-associative
    # connective, or the body of a negation)
    p = _prec(f)
    text = format_formula(f)
    if p < parent_prec or (p == parent_prec and not tight):
        return f"({text})"
    return text


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


# What follows is the fact parsing, species detection and validation of the
# reader the one-pass reader replaced, reading the facts cut by the
# character loop above.

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
    text: str  # as read from its first character on, comments dropped

    def fail(self, message: str) -> ParseError:
        return ParseError(f"{message} in {self.name} fact", self.line, self.col)


def _parse_fact(chunk: str, line: int, col: int) -> _Fact:
    head = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*", chunk)
    if head is None:
        raise ParseError("expected a fact name", line, col)
    name = head.group(1)
    if name not in _FACT_ARITY:
        raise ParseError(f"unknown fact {name!r}", line, col)
    rest = chunk[head.end() :].strip()
    if name == "psi":
        fact = _Fact(name, (rest,), line, col, chunk)
    else:
        if not (rest.startswith("(") and rest.endswith(")")):
            raise ParseError(f"expected parenthesized arguments after {name!r}", line, col)
        items = tuple(_split_items(rest[1:-1], line, col))
        fact = _Fact(name, items, line, col, chunk)
    if len(fact.args) != _FACT_ARITY[name]:
        raise fact.fail(f"expected {_FACT_ARITY[name]} argument(s)")
    return fact


def _as_id(token, fact):
    if not NAME_RE.match(token):
        raise fact.fail(f"{token!r} is not a valid name")
    return token


def _as_unit(token, fact):
    m = R_UNIT_RE.match(token)
    if m:
        return f"r({m.group(1)},{m.group(2)})"
    return _as_id(token, fact)


def _as_quoted(token, fact):
    if not (len(token) >= 2 and token.startswith('"') and token.endswith('"')):
        raise fact.fail(f"expected a quoted formula, got {token!r}")
    return token[1:-1]


def _parse_formula(parse, token, fact):
    """Parse a quoted formula; a ParseError names its place in the file."""
    try:
        return parse(token[1:-1])
    except ParseError as e:
        # find the error in the fact text, padded to start at the fact's column
        text = " " * (fact.col - 1) + fact.text
        at = text.index(token)
        for _ in range(e.line - 1):
            at = text.index("\n", at + 1)
        at += e.col
        line = fact.line + text.count("\n", 0, at)
        raise ParseError(e.message, line, at - text.rfind("\n", 0, at)) from None


def _as_list(token, fact):
    if not (token.startswith("[") and token.endswith("]")):
        raise fact.fail(f"expected a bracketed name list, got {token!r}")
    body = token[1:-1].strip()
    if not body:
        raise fact.fail("empty name list")
    return tuple(_as_id(item, fact) for item in _split_items(body, fact.line, fact.col))


def _check_declared(fact, args, names):
    for name in names:
        if name not in args:
            raise fact.fail(f"undeclared argument {name!r}")


def _check_condition(f, declared, line=0, col=0):
    """Acceptance conditions: and/or over literals, true, false."""
    for node in walk(f):
        if isinstance(node, Atom) and node.name not in declared:
            raise ParseError(
                f"acceptance condition mentions undeclared {node.name!r}", line, col
            )
        if isinstance(node, Neg) and not isinstance(node.body, Atom):
            raise ParseError("acceptance conditions may negate atoms only", line, col)
        if not isinstance(node, (Atom, Neg, And, Or, Top, Bot)):
            raise ParseError(
                f"{type(node).__name__} is not allowed in an acceptance condition",
                line,
                col,
            )


def _detect_species(facts):
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


def parse_document(text):
    """Parse and validate a fact file, reading facts with the loops above."""
    facts = [_parse_fact(*chunk) for chunk in _split_facts(text)]
    species = _detect_species(facts)

    args = set()
    for fact in facts:
        if fact.name == "arg":
            args.add(_as_id(fact.args[0], fact))
    if not args:
        raise ParseError("a document needs at least one arg fact")

    atts = set()
    wffs = {}
    insts = {}
    datts = set()
    catts = set()
    accs = {}
    psi = None

    for fact in facts:
        if fact.name == "wff":
            name = _as_id(fact.args[0], fact)
            text_ = _as_quoted(fact.args[1], fact)
            if name in args:
                raise fact.fail(f"wff name {name!r} collides with an argument")
            if wffs.get(name, text_) != text_:
                raise fact.fail(f"conflicting formulas for wff {name!r}")
            _parse_formula(parse_pred, fact.args[1], fact)
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
                    _check_declared(fact, args, m.groups())
                elif unit not in args and unit not in wffs:
                    raise fact.fail(f"undeclared name {unit!r}")
                endpoints.append(unit)
            atts.add((endpoints[0], endpoints[1]))
        elif fact.name == "inst":
            if species != "plain":
                raise fact.fail("inst facts apply to plain documents only")
            x = _as_id(fact.args[0], fact)
            _check_declared(fact, args, (x,))
            text_ = _as_quoted(fact.args[1], fact)
            if insts.get(x, text_) != text_:
                raise fact.fail(f"conflicting replacements for {x!r}")
            _parse_formula(parse_prop, fact.args[1], fact)
            insts[x] = text_
        elif fact.name == "datt":
            z = _as_id(fact.args[0], fact)
            targets = _as_list(fact.args[1], fact)
            _check_declared(fact, args, (z, *targets))
            datts.add((z, tuple(sorted(set(targets)))))
        elif fact.name == "catt":
            group = _as_list(fact.args[0], fact)
            z = _as_id(fact.args[1], fact)
            _check_declared(fact, args, (*group, z))
            catts.add((tuple(sorted(set(group))), z))
        elif fact.name == "acc":
            x = _as_id(fact.args[0], fact)
            _check_declared(fact, args, (x,))
            text_ = _as_quoted(fact.args[1], fact)
            if x in accs:
                raise fact.fail(f"duplicate acceptance condition for {x!r}")
            condition = _parse_formula(parse_prop, fact.args[1], fact)
            _check_condition(condition, args, fact.line, fact.col)
            accs[x] = text_
        elif fact.name == "psi":
            if psi is not None:
                raise ParseError("duplicate psi fact", fact.line, fact.col)
            psi = _as_quoted(fact.args[0], fact)
            _parse_formula(parse_pred, fact.args[0], fact)

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
