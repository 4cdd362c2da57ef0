"""Run the verifiers on seeded frameworks of 9-14 arguments at the default width.

Usage: PYTHONPATH=src python3 tests/sweep_long.py

Their 3^9 to 3^14 candidates span 3 to 729 batches of prop.BATCH_BITS, so
from HOT_RUNS batches on (13 arguments) prop.scan links the clause groups
of prop and und-free and pred's Delta groups, generating the linked copy at
once; below that it runs the groups as given,
each generated at once. Tier-1 reaches these tiers only at 9 arguments or
at patched batch widths and HOT_RUNS. Each size gets ROUNDS rounds of a random framework
at each of three attack densities and one of n/2 disjoint mutual attacks
between randomly paired arguments (one argument of an odd n unattacked),
whose 3^(n/2) complete labellings make the longest model lists. Every
report of verify_prop_theory, verify_und_free and verify_pred_theory must
match af.enumerate_complete. The sweep takes about 30 s, too long for the
test suite, so it runs as a step of its own; it prints the framework count,
the model count and the time taken, and exits 1 naming each framework whose
reports fail.
"""

import sys
import time
from random import Random

from g3arg.af import Framework
from g3arg.corpus import argument_names, random_framework
from g3arg.translate import verify_pred_theory, verify_prop_theory, verify_und_free

SEED = 30
ROUNDS = 40
SIZES = range(9, 15)
DENSITIES = (0.1, 0.2, 0.35)


def mutual_pairs(n: int, rng: Random) -> Framework:
    names = rng.sample(argument_names(n), n)
    attacks = [(names[i], names[i + 1]) for i in range(0, n - 1, 2)]
    return Framework.make(names, attacks + [(x, u) for u, x in attacks])


def frameworks(rng: Random):
    for n in SIZES:
        for _ in range(ROUNDS):
            yield from (random_framework(n, rng, p) for p in DENSITIES)
            yield mutual_pairs(n, rng)


def main() -> int:
    rng = Random(SEED)
    start = time.perf_counter()
    count = models = failed = 0
    for f in frameworks(rng):
        count += 1
        prop, und, pred = verify_prop_theory(f), verify_und_free(f), verify_pred_theory(f)
        models += prop.model_count
        if not (prop.ok and und.ok and pred.ok):
            failed += 1
            print(f"MISMATCH {f}")
    print(f"{count} frameworks, {models} complete labellings, {failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
