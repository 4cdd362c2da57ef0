"""Run solve_higher on a seeded sample of higher networks against the oracle.

Usage: PYTHONPATH=src python3 tests/sweep_higher.py

Each of the 300 networks has one or two nodes, a free relation and one or
two units, each a closed formula or an r(u,v) unit; every unit attacks a
unit of its choice, itself included, and up to two more attacks join any
two units. The oracle (tests/oracle.py) filters every candidate of the
product one by one. The sweep is too slow for the test suite, so it runs
as a step of its own; it prints the network count and the time taken, and
exits 1 naming each network whose models differ from the oracle's.
"""

import sys
import time
from random import Random

import oracle

from g3arg.meta import HigherNetwork, solve_higher
from g3arg.pred import Constant, EqAtom, Exists, Forall, InAtom, RAtom, Variable
from g3arg.prop import And, Bot, Imp, Neg, Or, Top, UndConst
from g3arg.syntax import format_formula

NETWORKS = 300
SEED = 26


def formula(rng, nodes, bound=(), depth=3):
    """A random formula whose free variables are among ``bound``."""
    terms = [*map(Constant, nodes), *map(Variable, bound)]
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(6)
        if kind == 0:
            return InAtom(rng.choice(terms))
        if kind == 1:
            return RAtom(rng.choice(terms), rng.choice(terms))
        if kind == 2:
            return EqAtom(rng.choice(terms), rng.choice(terms))
        return [Top(), Bot(), UndConst()][kind - 3]
    kind = rng.randrange(6)
    if kind == 0:
        return Neg(formula(rng, nodes, bound, depth - 1))
    if kind < 4:
        parts = [formula(rng, nodes, bound, depth - 1) for _ in range(2)]
        return [And, Or, Imp][kind - 1](*parts)
    var = "XY"[len(bound) % 2]
    body = formula(rng, nodes, (*bound, var), depth - 1)
    return (Forall if kind == 4 else Exists)(var, body)


def network(rng):
    nodes = ["a", "b"][: rng.randint(1, 2)]
    wffs = {}
    for i in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            u, v = rng.choice(nodes), rng.choice(nodes)
            wffs[f"r({u},{v})"] = RAtom(Constant(u), Constant(v))
        else:
            wffs[f"w{i}"] = formula(rng, nodes)
    ends = [*nodes, *wffs]
    attacks = [(u, rng.choice(ends)) for u in wffs]
    attacks += [tuple(rng.sample(ends, 2)) for _ in range(rng.randint(0, 2))]
    return HigherNetwork.make(nodes, wffs.items(), attacks)


def describe(hn):
    wffs = ", ".join(f"{u.name} = {format_formula(u.formula)}" for u in hn.wffs)
    return f"nodes {list(hn.nodes)}; {wffs}; attacks {list(hn.hattacks)}"


def main() -> int:
    rng = Random(SEED)
    start = time.perf_counter()
    failed = [hn for hn in (network(rng) for _ in range(NETWORKS))
              if solve_higher(hn) != oracle.solve_higher(hn)]
    print(f"{NETWORKS} networks, {len(failed)} failed, "
          f"{time.perf_counter() - start:.1f} s")
    for hn in failed:
        print(f"MISMATCH {describe(hn)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
