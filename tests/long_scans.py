"""Time a fixed list of calls whose scans span more than one batch.

Usage:
    python3 tests/long_scans.py [--src DIR] [--repeats K] [--only NAME ...]
    python3 tests/long_scans.py --pair PARENT_SRC CHANGE_SRC --rounds N [--repeats K]

The benchmark's items each fit one scan batch, so the link rule, the folded
diagram and the linked Delta never run there. This script times the calls
in CALLS instead. Each call runs in a fresh process that imports g3arg from
the given src directory (by default this checkout's), makes one untimed
warm-up call, and then reports the median of K timed calls (each call's
own repeat count by default). Each call's inputs are built before its timer
starts, and each call checks its result against a stored model or
labelling count (COUNTS), so the script is a correctness check too: a wrong
count exits 1 naming the call.

With --pair, the two src directories (say, two `git archive` copies of the
parent and of a change) take turns for N rounds: within a round each call
runs on both sides in a row, the parent first on odd rounds, each time in
a fresh process, so a slow spell of the machine lands on both sides of a
call rather than on one side's block of calls. The last line of
standard output is one JSON object: the milliseconds per call of each side,
or with --pair every round and, per call, both sides' values, ranges and
medians, the rounds in which the change was faster, and
slower_beyond_spread, which is true when the change's median exceeds the
parent's slowest round by more than the parent's whole range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


def _g3arg(src: str):
    """Import g3arg from ``src`` and refuse any other copy of it."""
    sys.path.insert(0, src)
    import g3arg

    home = Path(g3arg.__file__).resolve().parent.parent
    if home != Path(src).resolve():
        sys.exit(f"g3arg imported from {home}, not from {src}")
    return g3arg


# Each builder takes the imported g3arg and returns (make, run): make builds
# one call's inputs untimed, run(inputs) is timed and returns the count.


def _pred(n):
    def build(g):
        from g3arg.corpus import random_framework
        from g3arg.translate import verify_pred_theory

        f = random_framework(n, Random(n))

        def run(fresh):
            report = verify_pred_theory(fresh)
            assert report.ok
            return report.model_count

        return lambda: g.Framework(f.arguments, f.attacks), run

    return build


def _prop_und_free(n):
    def build(g):
        from g3arg import translate
        from g3arg.corpus import random_framework

        f = random_framework(n, Random(100 + n))

        def make():
            fresh = g.Framework(f.arguments, f.attacks)
            translate._complete_labellings(fresh)  # the search stays outside the timer
            return fresh

        def run(fresh):
            prop, und = translate.verify_prop_theory(fresh), translate.verify_und_free(fresh)
            assert prop.ok and und.ok
            return prop.model_count

        return make, run

    return build


def _solve_higher(dims):
    def build(g):
        if dims == 12:
            hn = g.HigherNetwork.make("abc")
        else:
            w = g.parse_pred("exists X (In(X) & ~R(X,X))")
            hn = g.HigherNetwork.make("abc", [("w", w)], [("w", "a"), ("c", "w")])
        return lambda: hn, lambda hn: len(g.solve_higher(hn, max_unknowns=dims))

    return build


def _diagram(n):
    """The diagram on every 3-argument graph (the quantified workload's size),
    or on one framework of 4 or 5 arguments; the count sums ``interp_count``."""
    def build(g):
        from g3arg.corpus import all_frameworks, random_framework

        if n == 3:
            made = list(all_frameworks(3))
        elif n == 4:
            made = [g.Framework.make("abcd", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "d")])]
        else:
            made = [random_framework(5, Random(5))]  # tests/sweep_diagram.py's

        def run(fresh):
            reports = [g.verify_domain_diagram(f) for f in fresh]
            assert all(report.ok for report in reports)
            return sum(report.interp_count for report in reports)

        return lambda: [g.Framework(f.arguments, f.attacks) for f in made], run

    return build


def _aaf(frames):
    def build(g):
        made = [g.AxiomaticFrame.make(s0, psi(g)) for s0, psi in frames]
        return lambda: made, lambda made: sum(
            len(labs) for frame in made for _, labs in g.aaf_extensions(frame))

    return build


def _meta(kind, *choices):
    """3-argument frames constrained by ``build_meta(kind, *args)``, each of
    ``choices`` a string of one-letter arguments."""
    return _aaf([("abc", lambda g, args=args: g.build_meta(kind, *args)) for args in choices])


def _valid(shape, k):
    """``is_valid`` on one of three shapes over the k atoms p00, p01, ..: the
    conjunction of all implying the first or the last atom in scan order, or
    the conjunction of every atom's excluded middle. The count is 0 for a
    valid formula, else 1 + the countermodel's index in scan order."""
    def build(g):
        from g3arg.threeval import VALUE_ORDER

        names = [f"p{i:02d}" for i in range(k)]
        text = {
            "first": f"({' & '.join(names)}) -> {names[0]}",
            "last": f"({' & '.join(names)}) -> {names[-1]}",
            "excluded_middles": " & ".join(f"({p} | ~{p})" for p in names),
        }[shape]
        f = g.parse_prop(text)

        def run(f):
            ok, counter = g.is_valid(f)
            if ok:
                return 0
            index = 0
            for p in names:
                index = 3 * index + VALUE_ORDER.index(counter[p])
            return 1 + index

        return lambda: f, run

    return build


def _instantiated(n):
    def build(g):
        from g3arg.corpus import all_frameworks, random_framework

        subst = {"a": g.parse_prop("p | ~p"), "c": g.parse_prop("q -> #n")}
        frameworks = list(all_frameworks(3)) if n == 3 else [random_framework(n, Random(n))]
        return lambda: frameworks, lambda fs: sum(
            len(g.instantiated_models(f, subst)) for f in fs)

    return build


# name -> (builder, timed calls per process)
CALLS = {
    "pred_10_args_ms": (_pred(10), 5),
    "pred_11_args_ms": (_pred(11), 5),
    "pred_12_args_ms": (_pred(12), 5),
    "pred_14_args_ms": (_pred(14), 5),
    "pred_17_args_ms": (_pred(17), 3),
    **{f"prop_und_free_{n}_args_ms": (_prop_und_free(n), 3 if n >= 15 else 5)
       for n in (9, 10, 11, 12, 13, 14, 15, 16, 17)},
    "solve_higher_12_dims_ms": (_solve_higher(12), 5),
    "solve_higher_13_dims_ms": (_solve_higher(13), 5),
    "diagram_3_args_all_graphs_ms": (_diagram(3), 5),
    "diagram_4_args_ms": (_diagram(4), 5),
    "diagram_5_args_ms": (_diagram(5), 3),
    "aaf_4_args_true_ms": (_aaf([("abcd", lambda g: g.Top())]), 3),
    "aaf_4_args_no_attack_ms": (
        _aaf([("abcd", lambda g: g.parse_pred("forall X (forall Y ~R(X,Y))"))]), 5),
    "aaf_3_args_attacks_all_others_ms": (_meta("attacks_all_others", "a", "b", "c"), 5),
    "aaf_3_args_attacked_by_all_others_ms": (_meta("attacked_by_all_others", "a", "b", "c"), 5),
    "aaf_3_args_same_targets_ms": (_meta("same_targets", "ab", "ac", "bc", "ba"), 5),
    "aaf_3_args_attacks_self_attackers_ms": (_meta("attacks_self_attackers", "a", "b", "c"), 5),
    "instantiated_models_3_args_ms": (_instantiated(3), 5),
    "instantiated_models_9_args_ms": (_instantiated(9), 5),
    **{f"valid_14_atoms_{shape}_ms": (_valid(shape, 14), 5)
       for shape in ("first", "last", "excluded_middles")},
}

# The model, labelling or relation-labelling count each call must return
# (for is_valid, 0 or one more than the countermodel's index; see _valid).
COUNTS = {
    "pred_10_args_ms": 2,
    "pred_11_args_ms": 2,
    "pred_12_args_ms": 2,
    "pred_14_args_ms": 2,
    "pred_17_args_ms": 5,
    "prop_und_free_9_args_ms": 2,
    "prop_und_free_10_args_ms": 3,
    "prop_und_free_11_args_ms": 1,
    "prop_und_free_12_args_ms": 2,
    "prop_und_free_13_args_ms": 2,
    "prop_und_free_14_args_ms": 1,
    "prop_und_free_15_args_ms": 3,
    "prop_und_free_16_args_ms": 2,
    "prop_und_free_17_args_ms": 2,
    "solve_higher_12_dims_ms": 23499,
    "solve_higher_13_dims_ms": 20439,
    "diagram_3_args_all_graphs_ms": 3966,
    "diagram_4_args_ms": 36,
    "diagram_5_args_ms": 120,
    "aaf_4_args_true_ms": 103064,
    "aaf_4_args_no_attack_ms": 1,
    "aaf_3_args_attacks_all_others_ms": 666,
    "aaf_3_args_attacked_by_all_others_ms": 606,
    "aaf_3_args_same_targets_ms": 312,
    "aaf_3_args_attacks_self_attackers_ms": 522,
    "instantiated_models_3_args_ms": 1072,
    "instantiated_models_9_args_ms": 1,
    "valid_14_atoms_first_ms": 0,
    "valid_14_atoms_last_ms": 0,
    "valid_14_atoms_excluded_middles_ms": 2,
}


def child(name: str, src: str, repeats: int | None) -> None:
    """Time one call in this process and print its JSON result."""
    g = _g3arg(src)
    build, default = CALLS[name]
    make, run = build(g)
    count = run(make())  # warm-up
    times = []
    for _ in range(repeats or default):
        inputs = make()
        start = time.perf_counter()
        got = run(inputs)
        times.append((time.perf_counter() - start) * 1e3)
        assert got == count
    print(json.dumps({"name": name, "ms": statistics.median(times), "count": count}))


def run_side(src: str, names: list[str], repeats: int | None) -> dict:
    """Each call in a fresh process against ``src``: name -> (ms, count)."""
    results = {}
    for name in names:
        command = [sys.executable, __file__, "--child", name, "--src", src]
        if repeats:
            command += ["--repeats", str(repeats)]
        out = subprocess.run(command, capture_output=True, text=True)
        if out.returncode:
            sys.exit(f"{name} against {src} failed:\n{out.stderr}")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        results[name] = (line["ms"], line["count"])
    return results


def check_counts(src: str, results: dict) -> list[str]:
    wrong = [f"{name}: {count} against {COUNTS[name]}"
             for name, (_, count) in results.items() if count != COUNTS[name]]
    for line in wrong:
        print(f"WRONG COUNT ({src}) {line}", file=sys.stderr)
    return wrong


def pair(parent: str, change: str, rounds: int, names: list[str], repeats: int | None) -> dict:
    record = []
    failed = False
    for r in range(1, rounds + 1):
        order = [("parent", parent), ("change", change)]
        turns = order if r % 2 else order[::-1]
        times: dict[str, dict] = {side: {} for side, _ in turns}
        for name in names:
            for side, src in turns:
                results = run_side(src, [name], repeats)
                failed |= bool(check_counts(src, results))
                times[side][name] = results[name][0]
        record += [{"round": r, "side": side, "calls": times[side]} for side, _ in turns]
    calls = {}
    for name in names:
        sides = {side: [rnd["calls"][name] for rnd in record if rnd["side"] == side]
                 for side in ("parent", "change")}
        low, high = min(sides["parent"]), max(sides["parent"])
        parent_median = statistics.median(sides["parent"])
        change_median = statistics.median(sides["change"])
        calls[name] = {
            **sides,
            "parent_range": [low, high],
            "change_range": [min(sides["change"]), max(sides["change"])],
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_over_change": parent_median / change_median,
            "change_faster_rounds": sum(
                c < p for p, c in zip(sides["parent"], sides["change"])),
            "slower_beyond_spread": change_median > high + (high - low),
        }
    return {"rounds": record, "calls": calls, "counts_ok": not failed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(DEFAULT_SRC))
    parser.add_argument("--pair", nargs=2, metavar=("PARENT_SRC", "CHANGE_SRC"))
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--only", nargs="+", choices=sorted(CALLS), default=list(CALLS),
                        metavar="NAME", help="calls to run (default: all of CALLS)")
    parser.add_argument("--child", choices=sorted(CALLS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.src, args.repeats)
        return 0
    if args.pair:
        result = pair(*args.pair, args.rounds, args.only, args.repeats)
        print(json.dumps(result))
        return 0 if result["counts_ok"] else 1
    results = run_side(args.src, args.only, args.repeats)
    wrong = check_counts(args.src, results)
    print(json.dumps({"src": args.src, "calls": {
        name: {"ms": ms, "count": count} for name, (ms, count) in results.items()}}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
