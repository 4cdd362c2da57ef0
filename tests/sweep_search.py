"""Run the labelling search on seeded frameworks against the oracle's scan.

Usage: PYTHONPATH=src python3 tests/sweep_search.py

The 1,000 frameworks have 7 or 8 arguments and come in the labelling
benchmark's four shapes (acyclic, even and odd rings with chords, random
pairs with self-attacks) at its three densities (0.15, 0.35 and 0.6 times
n * n / 2 attacks), in turn. The oracle (tests/oracle.py) filters all 3^n
labellings through check_complete. enumerate_complete must give the same
labellings in the same order. The sweep is too slow for the test suite, so
it runs as a step of its own; it prints the framework count, the labelling
count and the time taken, and exits 1 naming each framework on which the
two differ.
"""

import itertools
import sys
import time
from random import Random

import oracle

from g3arg.af import enumerate_complete
from g3arg.corpus import shaped_framework

FRAMEWORKS = 1_000
SEED = 28
SHAPES = ("acyclic", "even cycle", "odd cycle", "random")
DENSITIES = (0.15, 0.35, 0.6)


def main() -> int:
    rng = Random(SEED)
    kinds = itertools.cycle(itertools.product(SHAPES, DENSITIES))
    start = time.perf_counter()
    labellings = failed = 0
    for _ in range(FRAMEWORKS):
        shape, density = next(kinds)
        f = shaped_framework(rng.choice((7, 8)), shape, density, rng)
        got = enumerate_complete(f)
        labellings += len(got)
        if got != oracle.enumerate_complete(f):
            failed += 1
            print(f"differs from the oracle: {shape}, density {density}: {f}")
    print(f"{FRAMEWORKS} frameworks, {labellings} labellings, {failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
