"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

They check that a wrong output stops a run, that an item which raises is
counted as failed without stopping it, that a 90th percentile resting on
fewer than ten samples beyond it is refused, and that the metric names in
BENCHMARK.json are the ones the harness prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

run.import_g3arg(run.ROOT)

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CYCLE = ("ab", [("a", "b"), ("b", "a")])


def labelling_item():
    """An acyclic 7-argument framework from the labelling workload."""
    return workloads.labelling_item(7, "acyclic", 0.35, random.Random(1), 0)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.workdir = run.OUT / f"selftest-{os.getpid()}"
        self.workdir.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def planted(self, item, corrupt):
        return workloads.Item(item.kind, lambda: corrupt(item.call()), item.check)

    def test_planted_wrong_labellings_are_caught(self):
        item = labelling_item()
        run.run_items([item])
        wrong = self.planted(item, lambda out: (out[0][1:], out[1]))
        with self.assertRaises(workloads.WrongOutput):
            run.run_items([wrong])

    def test_planted_wrong_cli_bytes_are_caught(self):
        call = workloads.cli_pool(1)["valid"][0]
        item = workloads.cli_item("valid", call, self.workdir)
        run.run_items([item])
        wrong = self.planted(item, lambda out: (out[0], out[1] + " ", out[2]))
        with self.assertRaises(workloads.WrongOutput):
            run.run_items([wrong])

    def test_copies_are_renamed_and_checked(self):
        template = next(workloads.stream("quantified", 7, self.workdir))
        first, second = template.copy(0), template.copy(1)
        loop = run.run_items([first, second])
        self.assertEqual((loop.attempted, loop.failed), (2, 0))
        self.assertNotEqual(first.call(), second.call())

    def test_wrong_output_ends_the_run_with_exit_code_two(self):
        item = labelling_item()
        wrong = self.planted(item, lambda out: (out[0][1:], out[1]))
        stream = [workloads.Template(lambda rng, copy, i=i: i, 0) for i in (item, wrong)]
        stdout = io.StringIO()
        with mock.patch.object(workloads, "stream", lambda *a: iter(stream * 200)), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "labelling", "--seed", "1",
                             "--seconds", "0", "--trace", "1"])
        self.assertEqual(code, 2)
        self.assertFalse(json.loads(stdout.getvalue().splitlines()[-1])["correct"])

    def test_raising_items_count_as_failed(self):
        def boom():
            raise RuntimeError("planted")

        good = labelling_item()
        raising = workloads.Item("planted", boom, good.check)
        bad_exit = workloads.cli_item(
            "bad", workloads.Call(("valid", "a -> "), None, 0), self.workdir)
        loop = run.run_items([good, raising, good, bad_exit])
        self.assertEqual((loop.attempted, loop.failed, len(loop.latencies)), (4, 2, 2))
        self.assertEqual(loop.errors, {"planted: RuntimeError": 1,
                                       "cli-bad: UnexpectedExit": 1})

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.percentile(range(100), 0.9), 89)
        self.assertEqual(run.percentile(range(100), 0.5), 49)
        with self.assertRaises(run.TooFewSamples):
            run.percentile(range(99), 0.9)

    def test_refuses_a_tree_without_the_package(self):
        with tempfile.TemporaryDirectory() as empty, self.assertRaises(run.Refused):
            run.import_g3arg(Path(empty))

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class ReferenceTest(unittest.TestCase):
    def test_two_cycle(self):
        labs = reference.complete_labellings(*CYCLE)
        self.assertEqual(labs, [{"a": "in", "b": "out"}, {"a": "out", "b": "in"},
                                {"a": "und", "b": "und"}])
        self.assertEqual(reference.grounded(*CYCLE), {"a": "und", "b": "und"})
        self.assertEqual(reference.preferred(labs), labs[:2])

    def test_self_attack_is_undecided(self):
        self.assertEqual(reference.complete_labellings("a", [("a", "a")]), [{"a": "und"}])

    def test_excluded_middle_fails_where_the_atom_is_undecided(self):
        f = ("or", ("atom", "x"), ("not", ("atom", "x")))
        self.assertEqual(reference.countermodel(f), {"x": (False, True)})
        directedness = ("or", ("imp", ("atom", "p"), ("atom", "q")),
                        ("imp", ("atom", "q"), ("atom", "p")))
        self.assertIsNone(reference.countermodel(directedness))


if __name__ == "__main__":
    unittest.main()
