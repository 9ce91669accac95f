#!/usr/bin/env python
"""Campaign benchmark: sharded sweep throughput, jobs=1 vs jobs=4.

Runs the same preemption-bounded explore sweep (bank workload, k=2)
twice — serially and sharded across 4 worker processes — and compares
wall time and schedules/second.  The two runs are asserted to produce
the identical report digest first: speed means nothing if sharding
changed the answer.

Usage:

    PYTHONPATH=src python benchmarks/bench_campaign.py            # full
    PYTHONPATH=src python benchmarks/bench_campaign.py --quick    # smaller sweep
    PYTHONPATH=src python benchmarks/bench_campaign.py --check    # CI smoke

The full run writes ``BENCH_campaign.json`` at the repo root.

``--check`` enforces a speedup floor that depends on the host: on a
machine with >= 4 CPUs (the CI runners) jobs=4 must be at least 2.5x
faster than jobs=1; on smaller hosts a 4-worker sweep cannot beat the
serial one, so the floor degrades to an overhead-sanity check — the
sharded run must still reach at least half the serial throughput
(process scaffolding must not dominate the work).  For the same reason
a host with fewer than 4 CPUs records the speedup as not applicable
(``null``, with the CPU count) and reports the throughput ratio instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import run_explore_campaign  # noqa: E402
from repro.vm.machine import VMConfig  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_campaign.json"
WORKLOAD = "bank"
BOUND = 2
SEED = 0
HEAP = 60_000
BUDGET_FULL = 480
BUDGET_QUICK = 160
#: jobs=4 vs jobs=1 speedup floor on hosts with >= 4 CPUs
SPEEDUP_FLOOR = 2.5
#: on smaller hosts: sharded throughput must stay >= this fraction of serial
OVERHEAD_FLOOR = 0.5


def _sweep(budget: int, jobs: int):
    config = VMConfig(semispace_words=HEAP)
    t0 = time.perf_counter()
    report = run_explore_campaign(
        WORKLOAD, bound=BOUND, budget=budget, seed=SEED, jobs=jobs, config=config
    )
    return report, time.perf_counter() - t0


def measure(budget: int, reps: int) -> dict:
    best = {1: float("inf"), 4: float("inf")}
    digests = {}
    schedules = None
    for _ in range(reps):
        for jobs in (1, 4):
            report, elapsed = _sweep(budget, jobs)
            best[jobs] = min(best[jobs], elapsed)
            digests[jobs] = report.digest()
            schedules = report.schedules_run
    assert digests[1] == digests[4], (
        f"sharding changed the sweep result: {digests[1]} != {digests[4]}"
    )
    cpus = os.cpu_count() or 1
    row = {
        "budget": budget,
        "schedules_run": schedules,
        "report_digest": digests[1],
        "jobs1_s": round(best[1], 4),
        "jobs4_s": round(best[4], 4),
        "jobs1_schedules_per_s": round(schedules / best[1], 1),
        "jobs4_schedules_per_s": round(schedules / best[4], 1),
        "jobs4_vs_jobs1_throughput": round(best[1] / best[4], 2),
        "speedup": round(best[1] / best[4], 2) if cpus >= 4 else None,
    }
    if cpus < 4:
        row["speedup_not_applicable"] = (
            f"{cpus} CPU(s): 4 workers need >= 4 CPUs to run in parallel"
        )
    return row


def _print(row: dict) -> None:
    print(
        f"{WORKLOAD} k={BOUND}, {row['schedules_run']} schedules "
        f"(digest {row['report_digest']})"
    )
    speedup = (
        f"speedup {row['speedup']:.2f}x"
        if row["speedup"] is not None
        else f"speedup n/a ({row['speedup_not_applicable']}); "
        f"throughput {row['jobs4_vs_jobs1_throughput']:.2f}x of serial"
    )
    print(
        f"  jobs=1: {row['jobs1_s']:.2f}s ({row['jobs1_schedules_per_s']:.0f}/s)  "
        f"jobs=4: {row['jobs4_s']:.2f}s ({row['jobs4_schedules_per_s']:.0f}/s)  "
        + speedup
    )


def cmd_measure(args) -> int:
    row = measure(args.budget, args.reps)
    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "config": {
            "workload": WORKLOAD,
            "bound": BOUND,
            "seed": SEED,
            "semispace_words": HEAP,
            "reps": args.reps,
        },
        "results": row,
    }
    _print(row)
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


def cmd_check(args) -> int:
    """CI smoke: determinism always, the 2.5x speedup floor where the
    host can physically deliver it (>= 4 CPUs)."""
    row = measure(args.budget, args.reps)
    _print(row)
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        if row["speedup"] < SPEEDUP_FLOOR:
            print(
                f"FAIL: speedup {row['speedup']:.2f}x < {SPEEDUP_FLOOR}x floor "
                f"({cpus} CPUs)"
            )
            return 1
        print(f"ok: speedup {row['speedup']:.2f}x >= {SPEEDUP_FLOOR}x ({cpus} CPUs)")
        return 0
    # not enough CPUs for parallel speedup — check overhead, not speedup
    ratio = row["jobs4_schedules_per_s"] / row["jobs1_schedules_per_s"]
    if ratio < OVERHEAD_FLOOR:
        print(
            f"FAIL: jobs=4 throughput is {ratio:.2f}x of serial "
            f"< {OVERHEAD_FLOOR}x overhead floor ({cpus} CPU host — "
            f"the {SPEEDUP_FLOOR}x speedup floor needs >= 4 CPUs)"
        )
        return 1
    print(
        f"ok: jobs=4 throughput {ratio:.2f}x of serial on a {cpus}-CPU host "
        f"(the {SPEEDUP_FLOOR}x speedup floor applies at >= 4 CPUs)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and fail below the speedup/overhead floor",
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions per sweep")
    parser.add_argument("--quick", action="store_true", help="smaller sweep, 1 rep")
    parser.add_argument(
        "--no-write", action="store_true", help="measure but do not write the JSON"
    )
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.quick else 2
    args.budget = BUDGET_QUICK if args.quick else BUDGET_FULL
    return cmd_check(args) if args.check else cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
