"""The benchmark's span list names functions that exist.

``bench/spans.py`` wraps the public functions it lists in ``TRACED`` by
name. A deleted or renamed function would otherwise surface only in a
traced benchmark run, so tier-1 loads the list by path and checks it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module():
    spans = _spans()
    missing = [
        f"g3arg.{module_name}.{name}"
        for module_name, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"g3arg.{module_name}"), name, None))
    ]
    assert missing == []
    traced = {name for names in spans.TRACED.values() for name in names}
    assert spans.RECURSIVE <= traced
