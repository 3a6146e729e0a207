#!/usr/bin/env python3
"""Regenerate ``references.json``, the expected output of every op.

Usage, from the root of a checkout::

    python3 perfbench/record_references.py --seeds 64 [--workloads longrun]

Records the ``SimStats`` digest of every ``kernel`` run and the exact
SimPoint IPC / sharded-run digest of every ``longrun`` op for workload
seeds ``0 .. seeds-1``, and the SHA-256 of each report artifact.  The
references pin simulated results: regenerate them only with a change
that means to alter those results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument(
        "--workloads", nargs="+", default=["report-cold", "kernel", "longrun"],
        choices=["report-cold", "kernel", "longrun"],
        help="re-record these; keep the other stored references",
    )
    args = parser.parse_args()
    work = run.bootstrap()
    path = run.HERE / "references.json"
    references = workloads.load_references(path)
    try:
        jobs = [
            (name, seed)
            for name in args.workloads
            for seed in (range(1) if name == "report-cold" else
                         range(args.seeds))
        ]
        for name, seed in jobs:
            workload = workloads.make(
                name, seed, workloads.FULL, work / f"{name}-{seed}"
            )
            workload.setup_round()
            ops = workload.run_round()
            workload.end_round()
            for op in ops:
                if op.error is not None:
                    sys.stderr.write(f"{name} seed {seed}: {op.error}\n")
                    return 1
            references[workload.reference_key()] = {
                op.name: op.digest for op in ops
            }
            print(f"recorded {workload.reference_key()}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
