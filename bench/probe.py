"""Set-up cost of the program in a fresh interpreter, for run.py's setup_s.

    python3 bench/probe.py WORKLOAD SEED

Times importing g3arg (and g3arg.cli, for the cli-mix workload), then one
warm-up pass over the workload's warm-up items, and prints both as JSON,
scaled to nominal speed as run.Speed does.
"""

import json
import os
import shutil
import sys
import time

import run


def main() -> None:
    workload, seed = sys.argv[1], sys.argv[2]
    speed = run.Speed()
    t0 = time.perf_counter()
    run.import_g3arg(run.ROOT)
    if workload == "cli-mix":
        import g3arg.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads

    workdir = run.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        items = workloads.items(workload, f"warmup:{seed}", workdir,
                                workloads.WARMUP_ITEMS[workload], workloads.WARMUP_COPY)
        t2 = time.perf_counter()
        outputs = [item.call() for item in items]
        t3 = time.perf_counter()
        for item, out in zip(items, outputs):
            item.check(out)
    except workloads.WrongOutput as e:
        print(f"wrong output: {e}", file=sys.stderr)
        sys.exit(2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scale = speed.factor()[0]
    print(json.dumps({"import_s": (t1 - t0) * scale, "warmup_s": (t3 - t2) * scale}))


if __name__ == "__main__":
    main()
