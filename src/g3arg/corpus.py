"""Generators for the framework families the verification suite sweeps.

Exhaustive families stay small by construction; anything larger is drawn
from a caller-seeded random.Random so runs are reproducible.
"""

from __future__ import annotations

import itertools
import random
import string
from typing import Iterator, Sequence

from .aaf import ADFNet, ConjunctiveNet
from .af import Framework


def argument_names(n: int) -> tuple[str, ...]:
    """The first n single-letter argument names."""
    if not 1 <= n <= 26:
        raise ValueError("n must be between 1 and 26")
    return tuple(string.ascii_lowercase[:n])


def all_frameworks(n: int) -> Iterator[Framework]:
    """Every framework on n arguments, self-attacks included."""
    names = argument_names(n)
    pairs = [(u, x) for u in names for x in names]
    for mask in range(2 ** len(pairs)):
        attacks = [p for i, p in enumerate(pairs) if mask >> i & 1]
        yield Framework.make(names, attacks)


def random_framework(
    n: int, rng: random.Random, edge_prob: float = 0.3
) -> Framework:
    """One framework on n arguments with independently sampled attacks."""
    names = argument_names(n)
    attacks = [
        (u, x) for u in names for x in names if rng.random() < edge_prob
    ]
    return Framework.make(names, attacks)


def shaped_framework(
    n: int, shape: str, density: float, rng: random.Random
) -> Framework:
    """n arguments and round(density * n * n / 2) attacks: an ``"acyclic"``
    graph, a ring of ``"even cycle"`` or ``"odd cycle"`` length with chords,
    or ``"random"`` pairs with self-attacks allowed."""
    names = argument_names(n)
    m = round(density * n * n / 2)
    if shape == "acyclic":
        order = rng.sample(names, n)
        pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
        return Framework.make(names, rng.sample(pairs, m))
    if shape == "random":
        pairs = [(u, x) for u in names for x in names]
        return Framework.make(names, rng.sample(pairs, m))
    k = rng.choice(range(2 if shape == "even cycle" else 3, n + 1, 2))
    ring = rng.sample(names, k)
    edges = {(ring[i], ring[(i + 1) % k]) for i in range(k)}
    chords = [(u, x) for u in names for x in names if u != x and (u, x) not in edges]
    return Framework.make(names, edges.union(rng.sample(chords, max(m - k, 0))))


def all_conjunctive_nets(
    max_size: int = 3, max_attacks: int = 2
) -> Iterator[ConjunctiveNet]:
    """Every small group-attack net, up to max_attacks distinct attacks."""
    for n in range(1, max_size + 1):
        names = argument_names(n)
        groups = [
            tuple(sorted(g))
            for k in range(1, n + 1)
            for g in itertools.combinations(names, k)
        ]
        possible = [(g, z) for g in groups for z in names]
        for count in range(max_attacks + 1):
            for combo in itertools.combinations(possible, count):
                yield ConjunctiveNet.make(names, combo)


def _row_options(
    parents: tuple[str, ...], max_rows: int
) -> list[tuple[tuple[int, ...], ...]]:
    vectors = list(itertools.product((0, 1), repeat=len(parents)))
    out = []
    for k in range(min(max_rows, len(vectors)) + 1):
        out.extend(itertools.combinations(vectors, k))
    return out


def all_adf_nets_2() -> Iterator[ADFNet]:
    """Every acceptance-table net on two arguments with at most two rows."""
    names = argument_names(2)
    options = []
    for k in range(len(names) + 1):
        for parents in itertools.combinations(names, k):
            for rows in _row_options(parents, 2):
                options.append((parents, rows))
    for choice in itertools.product(options, repeat=len(names)):
        yield ADFNet.make(names, dict(zip(names, choice)))


def random_adf_net(
    names: Sequence[str], rng: random.Random, max_disjuncts: int = 2
) -> ADFNet:
    """One acceptance-table net with randomly drawn parents and rows."""
    table = {}
    for x in names:
        parents = tuple(sorted(rng.sample(list(names), rng.randint(0, len(names)))))
        vectors = list(itertools.product((0, 1), repeat=len(parents)))
        count = rng.randint(0, min(max_disjuncts, len(vectors)))
        rows = rng.sample(vectors, count)
        table[x] = (parents, rows)
    return ADFNet.make(names, table)
