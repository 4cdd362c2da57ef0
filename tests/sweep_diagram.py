"""Run verify_domain_diagram on every four-argument isomorphism class.

Usage: PYTHONPATH=src python3 tests/sweep_diagram.py

The classes come from tests/test_four_arguments.py. The sweep is too slow
for the test suite, so it runs as a step of its own; it prints the class
count and the time taken, and exits 1 naming each class that fails.
"""

import sys
import time

from test_four_arguments import four_argument_classes, framework

from g3arg.translate import framework_key, verify_domain_diagram


def main() -> int:
    start = time.perf_counter()
    classes = four_argument_classes()
    failed = [framework_key(f) for f in map(framework, classes)
              if not verify_domain_diagram(f).ok]
    for key in failed:
        print(f"MISMATCH {key}")
    print(f"{len(classes)} classes, {len(failed)} failed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
