"""Benchmark for g3arg: one closed-loop client calling the package in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
src/ directory and from nowhere else. One process calls one item at a time
and waits for it, and every output is checked (see workloads.py). The last
line of standard output is a JSON object with the keys correct, attempted,
failed and metrics.

With --trace 0 the metrics are the end-to-end ones. Set-up time is the
median over several fresh interpreters of importing g3arg plus one warm-up
pass (probe.py). Then an in-process warm-up of at least a second, untimed,
precedes the timed loop. The loop takes the workload's inputs in rounds and
runs every input of a round as renamed copies, one pass of the round apart
(workloads.COPIES); an item's latency and CPU time are the least over its
copies, which keeps out the slow phases of a shared machine. Rounds go on
until S seconds have passed and at least 100 items were timed.

With --trace 1 the metrics are per layer: a fixed list of items is run in
alternating passes without and with the span wrappers of spans.py, and the
medians over the passes, scaled to nominal speed, are reported. The spans of the first traced pass
are written to bench/out/.

A wrong output ends the run with exit code 2; an item that raises, or a
command line call that exits with a code its input does not call for,
counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify-corpus", "labelling", "quantified", "cli-mix")
MIN_ITEMS = 100
WARMUP_SECONDS = 1.0
SETUP_REPEATS = 5
CALIBRATION_S = 0.001

END_TO_END = (
    ("throughput_items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("cpu_ms_per_item", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Refused(Exception):
    """The run cannot measure the intended program."""


class TooFewSamples(Exception):
    """A percentile would rest on fewer than ten samples beyond it."""


def import_g3arg(root: Path):
    """Import g3arg from root/src, refusing any other copy of the package."""
    src = (root / "src").resolve()
    if not (src / "g3arg" / "__init__.py").is_file():
        raise Refused(f"no g3arg package under {src}")
    sys.path.insert(0, str(src))
    import g3arg

    where = Path(g3arg.__file__).resolve()
    if src not in where.parents:
        raise Refused(f"g3arg resolves to {where}, not under {src}")
    return g3arg


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(root: Path, g3arg) -> dict:
    h = hashlib.sha256()
    for path in sorted(Path(g3arg.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "g3arg": str(Path(g3arg.__file__).resolve().parent),
        "commit": git_commit(root),
        "source_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def percentile(samples, q: float):
    """Nearest-rank percentile; refused unless ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        raise TooFewSamples(
            f"{q:.0%} percentile of {len(ordered)} samples has "
            f"{max(len(ordered) - rank, 0)} beyond it, fewer than 10")
    return ordered[rank - 1]


class Loop(NamedTuple):
    latencies: list[float]
    busy_s: float
    cpu_s: float
    attempted: int
    failed: int
    errors: dict[str, int]


def timed_call(item, errors: dict, tracer=None, index: int = 0):
    """(wall s, CPU s, output) of one call, output None if the call raised.

    An exception from the call is counted in ``errors`` and the run goes
    on; WrongOutput from the check propagates.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = tracer.item(index, item.kind, item.call) if tracer else item.call()
    except Exception as e:  # a failing item is counted, the run goes on
        name = f"{item.kind}: {type(e).__name__}"
        errors[name] = errors.get(name, 0) + 1
        return time.perf_counter() - t0, time.process_time() - c0, None
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    item.check(out)
    return wall, cpu, out


def run_items(items, seconds: float = math.inf, min_items: int = 0,
              tracer=None, counts=None) -> Loop:
    """Call items one at a time until both limits are met; check each output."""
    latencies, errors = [], {}
    busy = cpu = 0.0
    start = time.perf_counter()
    for index, item in enumerate(items):
        if time.perf_counter() - start >= seconds and index >= min_items:
            break
        wall, cpu_s, out = timed_call(item, errors, tracer, index)
        busy += wall
        cpu += cpu_s
        if out is None:
            continue
        latencies.append(wall)
        if counts is not None and item.kind.startswith("cli-"):
            counts["cli.output_bytes"] += len(out[1].encode())
            counts["cli.exit_nonzero"] += out[0] != 0
    attempted = len(latencies) + sum(errors.values())
    return Loop(latencies, busy, cpu, attempted, sum(errors.values()), errors)


def calibration_kernel() -> int:
    """Fixed pure-Python work of about a millisecond, independent of g3arg."""
    total = 0
    for combo in itertools.product((0, 1, 2), repeat=6):
        row = dict(zip("abcdef", combo))
        total += sum(1 for k, v in row.items() if v == 1 and k != "a")
    return total


class Speed:
    """The machine's current speed, sampled with the calibration kernel.

    A shared machine runs the same code up to twice as slowly for
    stretches of seconds to minutes. Scaling each item's times by the
    kernel's times measured just before and just after it reports them at
    the speed CALIBRATION_S stands for.
    """

    def __init__(self) -> None:
        self.last = self.sample()

    @staticmethod
    def sample() -> tuple[float, float]:
        best = (math.inf, math.inf)
        for _ in range(3):
            c0, t0 = time.process_time(), time.perf_counter()
            calibration_kernel()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            best = (min(best[0], wall), min(best[1], cpu))
        return best

    def factor(self) -> tuple[float, float]:
        """Wall and CPU scale to nominal speed for the work since the last sample."""
        before, self.last = self.last, self.sample()
        return (2 * CALIBRATION_S / (before[0] + self.last[0]),
                2 * CALIBRATION_S / (before[1] + self.last[1]))


def run_rounds(templates, seconds: float, min_items: int, round_items: int,
               copies: int) -> Loop:
    """Time rounds of templates, each as renamed copies one pass apart.

    Times are scaled to nominal speed (Speed). An item's wall and CPU time
    are the least over its copies; an item with a failing copy is left out
    of the latencies.
    """
    latencies, errors = [], {}
    busy = cpu = 0.0
    timed = 0
    speed = Speed()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or timed < min_items:
        batch = list(itertools.islice(templates, round_items))
        best: list = [(math.inf, math.inf)] * len(batch)
        for copy in range(copies):
            for j, template in enumerate(batch):
                wall, cpu_s, out = timed_call(template.copy(copy), errors)
                scale = speed.factor()
                wall, cpu_s = wall * scale[0], cpu_s * scale[1]
                if out is None:
                    best[j] = None
                elif best[j] is not None:
                    best[j] = (min(best[j][0], wall), min(best[j][1], cpu_s))
        timed += len(batch)
        for b in filter(None, best):
            latencies.append(b[0])
            busy += b[0]
            cpu += b[1]
    failed = sum(errors.values())
    return Loop(latencies, busy, cpu, timed * copies, failed, errors)


def warm_up(workload: str, seed: int, workdir: Path) -> None:
    import workloads

    stream = workloads.stream(workload, f"warmup:{seed}", workdir)
    run_items((t.copy(workloads.WARMUP_COPY) for t in stream), WARMUP_SECONDS,
              workloads.WARMUP_ITEMS[workload])


def measure_setup(workload: str, seed: int) -> float:
    import workloads

    totals = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode == 2:
            raise workloads.WrongOutput(f"in the set-up probe: {proc.stderr.strip()}")
        if proc.returncode != 0:
            raise Refused(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        totals.append(probe["import_s"] + probe["warmup_s"])
    return statistics.median(totals)


def timed_run(workload: str, seed: int, seconds: float, workdir: Path):
    import workloads

    setup_s = measure_setup(workload, seed)
    warm_up(workload, seed, workdir)
    gc.collect()
    loop = run_rounds(workloads.stream(workload, seed, workdir), seconds, MIN_ITEMS,
                      workloads.ROUND_ITEMS[workload], workloads.COPIES)
    done = len(loop.latencies)
    metrics = {
        "throughput_items_per_s": done / loop.busy_s,
        "item_p50_ms": percentile(loop.latencies, 0.5) * 1e3,
        "item_p90_ms": percentile(loop.latencies, 0.9) * 1e3,
        "cpu_ms_per_item": loop.cpu_s * 1e3 / max(done, 1),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = done - math.ceil(0.9 * done)
    print(f"{done} items timed as {workloads.COPIES} copies each, "
          f"{beyond} beyond the 90th percentile; "
          f"failed_ratio {loop.failed / loop.attempted:.4f} ratio "
          f"({loop.failed} of {loop.attempted} attempted) {loop.errors or ''}")
    return loop, {name: (metrics[name], unit) for name, unit in END_TO_END}


def traced_run(workload: str, seed: int, seconds: float, workdir: Path, prov: dict):
    import spans
    import workloads

    warm_up(workload, seed, workdir)
    items = workloads.items(workload, seed, workdir, workloads.ROUND_ITEMS[workload])
    plain_s, traced_s, passes, loops = [], [], [], []
    units = dict(spans.PER_LAYER)
    speed = Speed()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        loops.append(run_items(items))
        plain_s.append(loops[-1].busy_s * speed.factor()[0])
        tracer = spans.Tracer()
        tracer.install()
        try:
            loops.append(run_items(items, tracer=tracer, counts=tracer.counts))
        finally:
            tracer.uninstall()
        scale = speed.factor()[0]
        traced_s.append(loops[-1].busy_s * scale)
        if not passes:
            write_spans(workload, seed, prov, tracer)
        passes.append({name: value * scale if units[name] == "ms" else value
                       for name, value in tracer.layer_metrics().items()})
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    total = sum(metrics[f"{m}.self_ms"] for m in spans.MODULES)
    shares = {m: round(metrics[f"{m}.self_ms"] / total, 3) for m in spans.MODULES}
    print(f"{len(passes)} traced passes of {len(items)} items; "
          f"self-time shares {json.dumps(shares)}")
    loop = Loop([], 0.0, 0.0, sum(x.attempted for x in loops),
                sum(x.failed for x in loops), {})
    return loop, {name: (metrics[name], unit) for name, unit in spans.PER_LAYER}


def write_spans(workload: str, seed: int, prov: dict, tracer) -> None:
    path = OUT / f"spans-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "provenance": prov,
        "fields": ["name", "start_ns", "end_ns", "parent", "item"],
        "spans": tracer.spans,
    }))


def result_line(correct: bool, loop, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": loop.attempted if loop else 0,
        "failed": loop.failed if loop else 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (metrics or {}).items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        g3arg = import_g3arg(ROOT)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    prov = provenance(ROOT, g3arg)
    print("provenance " + json.dumps(prov))
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            loop, metrics = traced_run(args.workload, args.seed, args.seconds, workdir, prov)
        else:
            loop, metrics = timed_run(args.workload, args.seed, args.seconds, workdir)
    except workloads.WrongOutput as e:
        print(f"wrong output: {e}", file=sys.stderr)
        print(result_line(False, None, None))
        return 2
    except (Refused, TooFewSamples) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:14.4f} {unit}")
    print(result_line(True, loop, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
