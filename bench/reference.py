"""Reference semantics the benchmark checks the program's outputs against.

Nothing here imports g3arg. Labels are the strings "in", "out" and "und";
a labelling is a dict from argument name to label. The definitions follow
the package's documentation: complete labellings by their three local
conditions, the grounded labelling as a least fixpoint, and two-world truth
values as persistent (HERE, THERE) pairs under the connective table
  a & b, a | b   pointwise
  ~a             (not t, not t)
  a -> b         ((not h or h') and (not t or t'), not t or t')
with the marker constant #n fixed at (false, true).
"""

from __future__ import annotations

import itertools

LABELS = ("in", "out", "und")
_RANK = {label: i for i, label in enumerate(LABELS)}


def attackers(args, attacks):
    table = {x: [] for x in args}
    for u, x in attacks:
        table[x].append(u)
    return table


def _allowed(label, known, unknown):
    """Can an argument keep ``label`` given some of its attackers' labels?"""
    if label == "in":
        return all(k == "out" for k in known)
    if label == "out":
        return unknown > 0 or "in" in known
    return "in" not in known and (unknown > 0 or "und" in known)


def _search_order(args, table):
    """Place arguments after as many of their attackers as possible."""
    order, remaining = [], sorted(args)
    while remaining:
        placed = set(order)
        best = max(
            remaining,
            key=lambda x: (all(y in placed for y in table[x]),
                           sum(y in placed for y in table[x])),
        )
        order.append(best)
        remaining.remove(best)
    return order


def complete_labellings(args, attacks):
    """All complete labellings, sorted lexicographically with in < out < und.

    A depth-first search that checks every argument whose attackers are
    partly labelled; independent of the package's exhaustive scan.
    """
    args = tuple(sorted(args))
    table = attackers(args, attacks)
    targets = {x: [] for x in args}
    for u, x in set(attacks):
        targets[u].append(x)
    order = _search_order(args, table)
    lab: dict[str, str] = {}
    found = []

    def consistent(x):
        known = [lab[y] for y in table[x] if y in lab]
        return _allowed(lab[x], known, len(table[x]) - len(known))

    def extend(i):
        if i == len(order):
            found.append(dict(lab))
            return
        x = order[i]
        for label in LABELS:
            lab[x] = label
            if consistent(x) and all(consistent(t) for t in targets[x] if t in lab):
                extend(i + 1)
            del lab[x]

    extend(0)
    found.sort(key=lambda m: [_RANK[m[x]] for x in args])
    return found


def grounded(args, attacks):
    """Least fixpoint: in when every attacker is out, out when one is in."""
    table = attackers(args, attacks)
    lab: dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for x in args:
            if x in lab:
                continue
            if all(lab.get(y) == "out" for y in table[x]):
                lab[x] = "in"
            elif any(lab.get(y) == "in" for y in table[x]):
                lab[x] = "out"
            else:
                continue
            changed = True
    return {x: lab.get(x, "und") for x in args}


def stable(labs):
    return [m for m in labs if "und" not in m.values()]


def preferred(labs):
    ins = [frozenset(x for x, v in m.items() if v == "in") for m in labs]
    return [m for m, mine in zip(labs, ins) if not any(mine < other for other in ins)]


def diagram_pairs(args, attacks, labs):
    """(relation, labelling) pairs reachable by renaming the arguments."""
    out = set()
    for perm in itertools.permutations(args):
        sigma = dict(zip(args, perm))
        rel = tuple(sorted((sigma[u], sigma[x]) for u, x in attacks))
        for m in labs:
            out.add((rel, tuple(sorted((sigma[x], v) for x, v in m.items()))))
    return out


# Named relation properties, mirroring the package's quantified builders.
META_PROPERTIES = {
    "attacks_all_others": lambda d, r, a: all((a, x) in r for x in d if x != a),
    "attacked_by_all_others": lambda d, r, a: all((x, a) in r for x in d if x != a),
    "same_targets": lambda d, r, a, b: all(((a, x) in r) == ((b, x) in r) for x in d),
    "attacks_self_attackers": lambda d, r, a: all(((a, x) in r) == ((x, x) in r) for x in d),
}


def aaf_family(args, conjuncts):
    """Relations satisfying every (kind, *names) conjunct, with their labellings."""
    args = tuple(sorted(args))
    pairs = [(u, x) for u in args for x in args]
    relations = sorted(
        tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        for mask in range(2 ** len(pairs))
    )
    out = []
    for rel in relations:
        r = set(rel)
        if all(META_PROPERTIES[kind](args, r, *names) for kind, *names in conjuncts):
            out.append((rel, complete_labellings(args, rel)))
    return out


def adf_two_valued(args, table):
    """0/1 assignments where each argument equals its acceptance value."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(args)):
        h = dict(zip(args, bits))
        if all(
            h[x] == int(any(all(h[p] == b for p, b in zip(parents, row)) for row in rows))
            for x, (parents, rows) in table.items()
        ):
            out.append(h)
    return out


# Two-world propositional formulas as tuples: ("atom", name), ("und",),
# ("top",), ("bot",), ("not", f), ("and", f, g), ("or", f, g), ("imp", f, g).

PROFILES = ((False, False), (False, True), (True, True))


def atoms(f):
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(atoms(g) for g in f[1:])) if len(f) > 1 else set()


def two_world(f, h):
    kind = f[0]
    if kind == "atom":
        return h[f[1]]
    if kind == "und":
        return (False, True)
    if kind == "top":
        return (True, True)
    if kind == "bot":
        return (False, False)
    if kind == "not":
        _, t = two_world(f[1], h)
        return (not t, not t)
    (h1, t1), (h2, t2) = two_world(f[1], h), two_world(f[2], h)
    if kind == "and":
        return (h1 and h2, t1 and t2)
    if kind == "or":
        return (h1 or h2, t1 or t2)
    return ((not h1 or h2) and (not t1 or t2), not t1 or t2)


def countermodel(f):
    """First assignment, FF < FT < TT over sorted atoms, where f fails at HERE."""
    names = sorted(atoms(f))
    for combo in itertools.product(PROFILES, repeat=len(names)):
        h = dict(zip(names, combo))
        if not two_world(f, h)[0]:
            return h
    return None


def render(f):
    """Concrete syntax with every compound parenthesized."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind in ("und", "top", "bot"):
        return {"und": "#n", "top": "true", "bot": "false"}[kind]
    if kind == "not":
        return "~" + _paren(f[1])
    op = {"and": " & ", "or": " | ", "imp": " -> "}[kind]
    return _paren(f[1]) + op + _paren(f[2])


def _paren(f):
    text = render(f)
    return f"({text})" if f[0] in ("and", "or", "imp") else text
