#!/usr/bin/env python3
"""Record the outputs the benchmark compares against at the default seed.

    python3 perfbench/record_reference.py [--jobs 32]

Runs the first ``--jobs`` timed jobs of every workload at the default
seed, checks them, and writes their records (set bitmasks with masses,
values, image digests) to ``perfbench/reference/<workload>.json``.  Run
it only on a commit whose outputs are known good: afterwards every run
at the default seed must reproduce these masses within 1e-9 and these
images byte for byte.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--jobs", type=int, default=32)
    opts = p.parse_args()
    sys.path[:0] = [run.SRC, run.HERE]
    import workloads

    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = os.path.join(run.OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    runner = run.Runner(workdir)
    try:
        for workload in workloads.WORKLOADS:
            _, failures = run.set_up(workloads, runner, workload, run.DEFAULT_SEED)
            if failures:
                raise SystemExit("\n".join(failures))
            import checks

            records = []

            def keep(j, job, record, failure):
                if failure is not None:
                    raise SystemExit(f"{workload} job {j} ({job.kind}): {failure}")
                records.append(record)

            args = argparse.Namespace(workload=workload, seed=run.DEFAULT_SEED,
                                      seconds=None, jobs=opts.jobs)
            run.run_loop(workloads, checks, runner, args, on_record=keep)
            path = os.path.join(run.HERE, "reference", f"{workload}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"seed": run.DEFAULT_SEED, "jobs": records}, fh,
                          separators=(",", ":"))
                fh.write("\n")
            print(f"{workload}: {len(records)} records in {os.path.relpath(path, run.ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
