"""Run verify_domain_diagram on every four-argument isomorphism class,
then on one seeded five-argument framework.

Usage: PYTHONPATH=src python3 tests/sweep_diagram.py

The classes come from tests/test_four_arguments.py; the five-argument
framework is ``random_framework(5, Random(5))``, whose 2^25 relations are
scanned in full. The sweep is too slow for the test suite, so it runs as a
step of its own; it prints the class count and the time taken for each
part, and exits 1 naming each framework that fails.
"""

import sys
import time
from random import Random

from test_four_arguments import four_argument_classes, framework

from g3arg.corpus import random_framework
from g3arg.translate import framework_key, verify_domain_diagram


def main() -> int:
    start = time.perf_counter()
    classes = four_argument_classes()
    failed = [framework_key(f) for f in map(framework, classes)
              if not verify_domain_diagram(f).ok]
    print(f"{len(classes)} classes, {len(failed)} failed, "
          f"{time.perf_counter() - start:.1f} s")
    start = time.perf_counter()
    five = random_framework(5, Random(5))
    ok = verify_domain_diagram(five).ok
    print(f"5 arguments, {framework_key(five)}: {'ok' if ok else 'failed'}, "
          f"{time.perf_counter() - start:.1f} s")
    failed += [] if ok else [framework_key(five)]
    for key in failed:
        print(f"MISMATCH {key}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
