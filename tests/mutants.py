"""Run named mutants of the package and check that the suite kills each one.

Usage: python3 tests/mutants.py

Each mutant in MUTANTS is one exact replacement of text in a file of the
package (or of the test oracle), together with the test ids that must fail
on it. For each mutant the script copies src/, tests/ and pyproject.toml
into a temporary directory, makes the replacement there (the old text must
occur exactly once, or the run fails: a refactor that moves the text must
update its mutant), and runs pytest on the listed ids in a fresh process
with the copy's src on PYTHONPATH, under a time limit of TIMEOUT seconds.
A mutant is killed when every listed id fails or errors. First the listed
ids run once on an unchanged copy, where pytest must exit 0 and report
each one as passed (not failed, errored, skipped or missing), so that a
test that fails anyway kills nothing. A listed id should fail on its
mutant in every run: a plain or parametrized test, or a hypothesis test
whose @example kills it. The script prints one line per mutant, with its
time, and exits 1 when the unchanged copy is broken, or a mutant
survives, times out or no longer applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds allowed per pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = [
    Mutant(
        "und-reads-full-at-here", "src/g3arg/prop.py",
        "h, t = 0, full",
        "h, t = full, full",
        ("tests/test_prop.py::test_the_interpreter_agrees_with_the_oracle_on_every_operand_profile[und]",
         "tests/test_oracle.py::test_constant_folds_match_the_oracle[true -> #n]",
         "tests/test_acceptance.py::test_a01_clause_models_match_complete_labellings_exhaustively",
         "tests/test_prop.py::test_generated_source_of_a_program_with_every_instruction_kind"),
    ),
    Mutant(
        "neg-reads-here", "src/g3arg/prop.py",
        "h = t = full ^ there[args[0]]",
        "h, t = full ^ here[args[0]], full ^ there[args[0]]",
        ("tests/test_prop.py::test_the_interpreter_agrees_with_the_oracle_on_every_operand_profile[neg]",
         "tests/test_oracle.py::test_constant_folds_match_the_oracle[x -> false]",
         "tests/test_acceptance.py::test_a01_clause_models_match_complete_labellings_exhaustively"),
    ),
    Mutant(
        "und-free-tie-to-true", "src/g3arg/translate.py",
        "undecided = (_und_over_positions(len(args)), args, [FALSE])",
        "undecided = (_und_over_positions(len(args)), args, [TRUE])",
        ("tests/test_acceptance.py::test_a02_marker_elimination_splits_stable_and_nonstable",
         "tests/test_translate.py::test_marker_elimination_splits_complete_into_two_cases"),
    ),
    Mutant(
        "delta-column-at-x-0", "src/g3arg/translate.py",
        'grounding(range(n)), {"X": n - 1})',
        'grounding(range(n)), {"X": 0})',
        ("tests/test_translate.py::test_delta_columns_and_together_match_delta_compiled_over_the_names",
         "tests/test_translate.py::test_delta_groups_keep_what_delta_compiled_over_the_framework_keeps",
         "tests/test_oracle.py::test_aaf_extensions_match_the_oracle_on_three_arguments[true-args0]",
         "tests/test_oracle.py::test_aaf_extensions_matches_the_oracle_scan"),
    ),
    Mutant(
        "imp-here-reads-there", "src/g3arg/prop.py",
        "h = ((full ^ here[a]) | here[b]) & t",
        "h = ((full ^ there[a]) | there[b]) & t",
        ("tests/test_prop.py::test_the_interpreter_agrees_with_the_oracle_on_every_operand_profile[imp]",
         "tests/test_oracle.py::test_constant_folds_match_the_oracle[(x -> false) -> y]",
         "tests/test_acceptance.py::test_a01_clause_models_match_complete_labellings_exhaustively"),
    ),
    Mutant(
        "b2-dropped-from-two-attackers", "src/g3arg/meta.py",
        '    clauses.append((f"b2[{name}]", Imp(ins, Or(_UND, fails))))',
        '    if len(attackers) < 2:\n'
        '        clauses.append((f"b2[{name}]", Imp(ins, Or(_UND, fails))))',
        ("tests/test_meta.py::test_pinned_plain_attacks_give_the_complete_labellings_on_every_three_graph",
         "tests/test_cli.py::test_translate_higher_covers_nodes_and_relation_atom"),
    ),
    Mutant(
        "pred-value-drops-v", "src/g3arg/pred.py",
        "Program([f], grounding(m.domain), v)",
        "Program([f], grounding(m.domain))",
        ("tests/test_pred.py::test_equality_is_name_identity",
         "tests/test_oracle.py::test_valuations_reach_pred_value_as_in_the_oracle"),
    ),
    Mutant(
        "delta-group-pins-r-k-k", "src/g3arg/translate.py",
        "TRUE if j == k and i < k else FALSE",
        "TRUE if j == k and i <= k else FALSE",
        ("tests/test_translate.py::test_delta_groups_keep_what_delta_compiled_over_the_framework_keeps",
         "tests/test_translate.py::test_pred_route_with_pinned_relation[f1-1]"),
    ),
    Mutant(
        "tie-pins-flipped", "src/g3arg/meta.py",
        "lambda k: edge.get(k, k)",
        "lambda k: TRUE + FALSE - edge[k] if k in edge else k",
        ("tests/test_oracle.py::test_solve_higher_matches_the_oracle_scan",),
    ),
    Mutant(
        "single-supporter-forced-among-two", "src/g3arg/af.py",
        "if not free & (free - 1):\n                    y = free.bit_length() - 1",
        "if free:\n                    free &= -free\n                    y = free.bit_length() - 1",
        ("tests/test_oracle.py::test_complete_labellings_match_the_oracle_on_the_corpus",
         "tests/test_acceptance.py::test_a01_clause_models_match_complete_labellings_exhaustively"),
    ),
    Mutant(
        "arg-fact-offset-moved", "src/g3arg/document.py",
        "arg_facts.append((name, [x], m.start(), body, text))",
        "arg_facts.append((name, [x], m.start() + 1, body, text))",
        ("tests/test_document.py::test_one_pass_facts_keep_their_offsets_and_text",
         "tests/test_document.py::test_plain_documents_are_read_in_one_pass[arg(a).att(a,a).]",
         "tests/test_document.py::test_plain_documents_are_read_in_one_pass[arg(a). att(a,a).]"),
    ),
    Mutant(
        "delta-numbering-transposed", "src/g3arg/translate.py",
        "n + n * key[0] + key[1]",
        "n + n * key[1] + key[0]",
        ("tests/test_aaf.py::test_two_element_constraint_family",
         "tests/test_oracle.py::test_aaf_extensions_match_the_oracle_on_three_arguments[attacks_all_others-args1]"),
    ),
    Mutant(
        "filter-tie-flipped", "src/g3arg/prop.py",
        'mask &= full ^ h ^ terms.atom(f"table[j{j}][0]")',
        'mask &= h ^ terms.atom(f"table[j{j}][0]")',
        ("tests/test_prop.py::test_generated_filters_match_the_mask_from_run",
         "tests/test_prop.py::test_generated_source_of_a_program_with_every_instruction_kind",
         "tests/test_acceptance.py::test_a02_marker_elimination_splits_stable_and_nonstable"),
    ),
    Mutant(
        "fold-or-full-to-operand", "src/g3arg/prop.py",
        "            if a is full or b is full:\n                return full",
        "            if a is full or b is full:\n                return b if a is full else a",
        ("tests/test_prop.py::test_generated_code_matches_the_interpreter",
         "tests/test_prop.py::test_generated_filters_match_the_mask_from_run",
         "tests/test_prop.py::test_generated_source_of_a_clause_shape_group_and_a_delta_group"),
    ),
    Mutant(
        "fold-and-zero-to-operand", "src/g3arg/prop.py",
        "            if a == 0 or b == 0:\n                return 0",
        "            if a == 0 or b == 0:\n                return b if a == 0 else a",
        ("tests/test_prop.py::test_generated_code_matches_the_interpreter",
         "tests/test_prop.py::test_generated_filters_match_the_mask_from_run"),
    ),
    Mutant(
        "code-map-swaps-in-and-out", "src/g3arg/translate.py",
        "_CODE = {label: VALUE_ORDER.index(v) for",
        "_CODE = {label: 2 - VALUE_ORDER.index(v) for",
        ("tests/test_translate.py::test_prop_models_are_the_complete_labellings[f3]",
         "tests/test_acceptance.py::test_a01_clause_models_match_complete_labellings_exhaustively"),
    ),
    Mutant(
        "normal-form-keeps-chains", "tests/oracle.py",
        "for p in _spine(type(f), f)",
        "for p in (f.left, f.right)",
        ("tests/test_pred.py::test_ac_normal_form_identifies_reordered_chains",),
    ),
]


def _copy(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", into / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", into)


def _outcomes(work: Path, ids: tuple[str, ...]) -> tuple[int, dict[str, str]] | None:
    """pytest's exit code on ``ids`` in ``work``, and the outcome (PASSED,
    FAILED or ERROR) of each of ``ids`` that pytest reports, or None when the
    run times out. A skipped id, or one that names no test, has no outcome.
    An id may hold spaces: a summary line names it in full, followed by the
    end of the line or by " - " and the failure's message."""
    env = {**os.environ, "PYTHONPATH": str(work / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-rpfE", "-p", "no:cacheprovider",
               "-o", "addopts=", *ids]
    try:
        out = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    outcomes = {}
    for line in out.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            for i in ids:
                if rest == i or rest.startswith(i + " - "):
                    outcomes[i] = word
    return out.returncode, outcomes


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        ids = tuple(dict.fromkeys(i for m in MUTANTS for i in m.killers))
        start = time.perf_counter()
        run = _outcomes(base, ids)
        if run is None:
            print(f"unchanged source: TIMED OUT after {TIMEOUT} s")
            return 1
        code, outcomes = run
        broken = [i for i in ids if outcomes.get(i) != "PASSED"]
        if code or broken:
            print(f"unchanged source: pytest exit code {code}; broken "
                  f"(failed, errored, skipped or not found): {broken}")
            return 1
        print(f"unchanged source: {len(ids)} tests pass ({time.perf_counter() - start:.1f} s)")
        for m in MUTANTS:
            start = time.perf_counter()
            work = Path(tmp) / m.name
            shutil.copytree(base, work)
            target = work / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times in {m.path}")
                bad += 1
                continue
            target.write_text(text.replace(m.old, m.new))
            run = _outcomes(work, m.killers)
            seconds = f"{time.perf_counter() - start:.1f} s"
            if run is None:
                print(f"{m.name}: TIMED OUT after {TIMEOUT} s")
                bad += 1
                continue
            survivors = [i for i in m.killers if run[1].get(i) not in ("FAILED", "ERROR")]
            if survivors:
                print(f"{m.name}: SURVIVED {survivors} ({seconds})")
                bad += 1
            else:
                print(f"{m.name}: killed by {len(m.killers)} of {len(m.killers)} ({seconds})")
            shutil.rmtree(work)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
