#!/usr/bin/env python
"""Remote campaign benchmark: loopback serve daemons vs local fork.

Runs the same explore sweep (bank workload, k=2) twice — sharded across
2 local fork workers and sharded across 2 `repro serve` daemons on
loopback, one ``campaign-item`` job per schedule — and compares wall
time and schedules/second.  The two runs
are asserted to produce the identical report digest first: a distributed
backend means nothing if distribution changed the answer.

Usage:

    PYTHONPATH=src python benchmarks/bench_remote.py            # full
    PYTHONPATH=src python benchmarks/bench_remote.py --quick    # smaller sweep
    PYTHONPATH=src python benchmarks/bench_remote.py --check    # CI smoke

The full run writes ``BENCH_remote.json`` at the repo root.

``--check`` enforces an overhead floor: on loopback the framed protocol
(a CRC-checked round trip and a supervisor hand-off per item) must cost
less than half the throughput — remote schedules/second must stay
>= 0.5x of the local fork backend.  The ratio is measured as
interleaved (local, remote) sweep pairs, their order alternating, and
gated on the median of the per-pair ratios with the interquartile range
printed beside it, so a burst of host noise moves one pair rather than
the verdict.  Daemons are spawned once and reused across pairs, so the
warm-runner cache amortises baselines exactly as it would on a real
cluster.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import RemoteWorkerPool, run_explore_campaign  # noqa: E402
from repro.serve import spawn_serve_process  # noqa: E402
from repro.vm.machine import VMConfig  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_remote.json"
WORKLOAD = "bank"
BOUND = 2
SEED = 0
HEAP = 60_000
JOBS = 2
HOSTS = 2
BUDGET_FULL = 320
BUDGET_QUICK = 120
#: loopback remote throughput must stay >= this fraction of local fork
REMOTE_FLOOR = 0.5
#: (local, remote) pairs ``--check`` gates on: one sweep is a fraction
#: of a second, so one pair is noise on a shared host
CHECK_PAIRS = 9


def _sweep(budget: int, backend):
    config = VMConfig(semispace_words=HEAP)
    t0 = time.perf_counter()
    report = run_explore_campaign(
        WORKLOAD,
        bound=BOUND,
        budget=budget,
        seed=SEED,
        jobs=JOBS,
        config=config,
        backend=backend,
    )
    return report, time.perf_counter() - t0


def quartiles(xs: list) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def measure(budget: int, pairs: int) -> dict:
    """*pairs* interleaved (local, remote) sweeps, the order
    alternating: the best time of each backend and the per-pair
    remote÷local throughput ratios."""
    daemons = [spawn_serve_process() for _ in range(HOSTS)]
    addresses = [address for _, address in daemons]
    try:
        best = {"local": float("inf"), "remote": float("inf")}
        digests = {}
        incidents = 0
        schedules = None
        ratios = []
        for i in range(pairs):
            order = ("local", "remote") if i % 2 == 0 else ("remote", "local")
            elapsed = {}
            for backend in order:
                pool = RemoteWorkerPool(addresses) if backend == "remote" else None
                report, elapsed[backend] = _sweep(budget, pool)
                best[backend] = min(best[backend], elapsed[backend])
                digests[backend] = report.digest()
                if backend == "remote":
                    incidents += len(report.incidents)
                schedules = report.schedules_run
            # same schedules both ways: the throughput ratio is a time ratio
            ratios.append(elapsed["local"] / elapsed["remote"])
    finally:
        for proc, _ in daemons:
            proc.terminate()  # SIGTERM: graceful drain, exit 0
            proc.wait(timeout=30)
            proc.stdout.close()
    assert digests["local"] == digests["remote"], (
        f"the remote backend changed the sweep result: "
        f"{digests['local']} != {digests['remote']}"
    )
    assert incidents == 0, f"{incidents} incident(s) on healthy loopback daemons"
    q1, median, q3 = quartiles(ratios)
    return {
        "budget": budget,
        "schedules_run": schedules,
        "report_digest": digests["local"],
        "pairs": pairs,
        "local_s": round(best["local"], 4),
        "remote_s": round(best["remote"], 4),
        "local_schedules_per_s": round(schedules / best["local"], 1),
        "remote_schedules_per_s": round(schedules / best["remote"], 1),
        "remote_vs_local": round(median, 3),
        "remote_vs_local_iqr": round(q3 - q1, 3),
    }


def _print(row: dict) -> None:
    print(
        f"{WORKLOAD} k={BOUND}, {row['schedules_run']} schedules, "
        f"jobs={JOBS} (digest {row['report_digest']})"
    )
    print(
        f"  local fork : {row['local_s']:.2f}s "
        f"({row['local_schedules_per_s']:.0f}/s)"
    )
    print(
        f"  remote x{HOSTS} : {row['remote_s']:.2f}s "
        f"({row['remote_schedules_per_s']:.0f}/s)"
    )
    print(
        f"  remote/local throughput over {row['pairs']} pairs: median "
        f"{row['remote_vs_local']:.3f}x  IQR {row['remote_vs_local_iqr']:.3f}"
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
            "jobs": JOBS,
            "hosts": HOSTS,
            "pairs": args.reps,
        },
        "results": row,
    }
    _print(row)
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


def cmd_check(args) -> int:
    """CI smoke: determinism always, plus the protocol-overhead floor on
    the median per-pair throughput ratio."""
    row = measure(args.budget, args.reps)
    _print(row)
    ratio, spread = row["remote_vs_local"], row["remote_vs_local_iqr"]
    if ratio < REMOTE_FLOOR:
        print(
            f"FAIL: loopback remote throughput median is {ratio:.3f}x of local "
            f"fork (IQR {spread:.3f}) < {REMOTE_FLOOR}x floor "
            f"(protocol overhead dominates)"
        )
        return 1
    print(
        f"ok: loopback remote throughput median {ratio:.3f}x of local fork "
        f"(IQR {spread:.3f}, {row['pairs']} pairs)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and fail below the overhead floor",
    )
    parser.add_argument(
        "--reps", type=int, default=None, help="interleaved (local, remote) pairs"
    )
    parser.add_argument("--quick", action="store_true", help="smaller sweep")
    parser.add_argument(
        "--no-write", action="store_true", help="measure but do not write the JSON"
    )
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = CHECK_PAIRS if args.check else 1 if args.quick else 2
    args.budget = BUDGET_QUICK if args.quick else BUDGET_FULL
    return cmd_check(args) if args.check else cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
