"""Record digests of the outputs that workloads.py checks byte for byte.

    python3 bench/make_digests.py

Runs solve_higher on every network of the higher pool and the command line
tool on every call of the cli pool, and writes bench/digests.json. Record
them from a commit whose outputs are known to be right: the benchmark treats
any later difference as a wrong output.
"""

import itertools
import json
import os
import shutil

import run


def main() -> None:
    run.import_g3arg(run.ROOT)
    import workloads
    from g3arg import meta

    copies = range(workloads.COPIES + 1)
    table = {"higher": {}, "cli": {}}
    for seed, copy in itertools.product(workloads.higher_pool(), copies):
        spec, hn = workloads.higher_network(seed, copy)
        table["higher"][workloads.digest(spec)] = workloads.higher_digest(meta.solve_higher(hn))
    workdir = run.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for copy in copies:
            for c in itertools.chain(*workloads.cli_pool(copy).values()):
                code, stdout, stderr = workloads.run_cli(workloads.cli_argv(c, workdir))
                if code != c.code:
                    raise SystemExit(f"{c.argv} on {c.doc!r} exited {code}: {stderr}")
                if code == 0:
                    table["cli"][c.key] = workloads.digest(stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table['higher'])} higher and {len(table['cli'])} cli digests")


if __name__ == "__main__":
    main()
