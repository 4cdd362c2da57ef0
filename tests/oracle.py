"""Reference semantics for the tests: scalar tree walks and one-at-a-time scans.

The package evaluates formulas bit-parallel over whole scans. The functions
here evaluate one formula under one assignment at a time by walking the
tree, world by world, straight from the Kripke definitions: negation and
implication look at every world at or above the current one, and so does
the universal quantifier. The scans enumerate candidates with
itertools.product in the canonical order and keep those the walks accept.
"""

from __future__ import annotations

import itertools

from g3arg.af import Framework, enumerate_complete
from g3arg.meta import GeneralizedModel, _as_status, _star_clauses
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
from g3arg.prop import And, Atom, Bot, EvalError, Imp, Neg, Or, Top, UndConst, atoms_of
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
