#!/usr/bin/env python
"""Checkpoint benchmark: late seeks and resumes, from-zero vs checkpointed.

Records the ``server`` workload once, then measures two uses of the
periodic checkpoints, each against its from-zero equivalent:

* a late backward seek (``goto_cycles`` to ~90% of the run) on a plain
  :class:`TimeTravelSession` (every seek replays the whole prefix) and on
  a checkpoint-accelerated one (restore the nearest earlier snapshot,
  replay at most one interval);
* a full replay (``api.replay``) and a resume from the sealed sidecar
  (``api.resume_replay``: load and verify the sidecar, restore the newest
  snapshot, replay the tail).

Both paths are asserted to land on the identical machine state or
result — checkpoints change cost, never the state seen.  The snapshot
layer is broken down too: sidecar bytes per snapshot, and the time to
load the sidecar (a CRC scan: snapshots decode on first use), restore
the newest snapshot (decoding it and the event log it indexes) and
capture one.  Every timing is a median over ``--reps`` with its
interquartile range.

Usage:

    PYTHONPATH=src python benchmarks/bench_checkpoint.py            # full
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --quick    # 1 rep
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --check    # CI smoke

The full run writes ``BENCH_checkpoint.json`` at the repo root;
``--check`` re-measures and fails (exit 1) if the checkpointed seek is
less than 5x faster than the from-zero seek, or if resuming from the
newest snapshot is not faster than a full replay.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import record, replay, resume_replay  # noqa: E402
from repro.core.checkpoint import (  # noqa: E402
    CheckpointStore,
    capture_snapshot,
    machine_digest,
    restore_vm,
)
from repro.debugger.timetravel import TimeTravelSession  # noqa: E402
from repro.vm.machine import Environment, VMConfig  # noqa: E402
from repro.vm.timerdev import SeededJitterClock, SeededJitterTimer  # noqa: E402
from repro.workloads import server  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_checkpoint.json"
SEED = 7
HEAP = 400_000

#: sized so a full from-zero replay takes whole seconds — late seeks and
#: resumes are exactly the case where O(trace) hurts and O(interval) pays
WORKLOADS = {
    "server": lambda: server(4, 600, 5, work_scale=600),
}


def _config() -> VMConfig:
    return VMConfig(semispace_words=HEAP)


def _record_trace(name: str, out: Path):
    return record(
        WORKLOADS[name](),
        config=_config(),
        timer=SeededJitterTimer(SEED, 40, 200),
        clock=SeededJitterClock(SEED),
        env=Environment(SEED),
        out=out,
    )


def _session(name: str, trace, every: int | None) -> TimeTravelSession:
    return TimeTravelSession(
        WORKLOADS[name](), trace, config=_config(), checkpoint_every=every
    )


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _summary(samples: list[float], scale: float = 1.0, digits: int = 4) -> dict:
    """Median and interquartile range of *samples* (times *scale*)."""
    xs = sorted(x * scale for x in samples)
    if len(xs) > 1:
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    else:
        q1 = q3 = xs[0]
    return {
        "median": round(statistics.median(xs), digits),
        "iqr": [round(q1, digits), round(q3, digits)],
        "n": len(xs),
    }


def _seek_rows(name: str, recorded, every: int, reps: int) -> dict:
    end = recorded.result.cycles
    target = end * 9 // 10
    # checkpointed session, warmed by one travel to the end (this is
    # where the snapshots are captured — the one-time cost a debugging
    # session pays anyway on its first pass over the trace)
    fast = _session(name, recorded.trace, every)
    _, warm_s = _timed(lambda: fast.goto_cycles(end + 1))
    assert fast._snapshots, "no checkpoints captured while travelling"

    zero_s, ckpt_s = [], []
    digest_zero = digest_ckpt = None
    for _ in range(reps):
        plain = _session(name, recorded.trace, None)
        point_zero, dt = _timed(lambda: plain.goto_cycles(target))
        zero_s.append(dt)
        digest_zero = machine_digest(plain.session.vm)

        restores_before = fast.restores
        point_ckpt, dt = _timed(lambda: fast.goto_cycles(target))
        ckpt_s.append(dt)
        digest_ckpt = machine_digest(fast.session.vm)
        assert fast.restores == restores_before + 1, (
            f"{name}: seek was not checkpoint-accelerated"
        )
        assert point_ckpt == point_zero, (
            f"{name}: checkpointed seek landed on a different timepoint"
        )
    assert digest_ckpt == digest_zero, (
        f"{name}: checkpointed seek reached a different machine state"
    )
    return {
        "target_cycles": target,
        "warmup_s": round(warm_s, 4),
        "seek_from_zero_s": _summary(zero_s),
        "seek_checkpointed_s": _summary(ckpt_s),
        "seek_speedup": round(
            statistics.median(zero_s) / statistics.median(ckpt_s), 2
        ),
    }


def _resume_rows(name: str, recorded, trace_path: Path, every: int, reps: int) -> dict:
    sidecar = Path(str(trace_path) + ".ckpt")
    trace = recorded.trace
    _, ckpt_replay_s = _timed(
        lambda: replay(
            WORKLOADS[name](), trace, config=_config(),
            checkpoint_every=every, checkpoint_out=sidecar,
        )
    )
    replay_s, resume_s, load_ms, restore_ms, capture_ms = [], [], [], [], []
    for _ in range(reps):
        result, dt = _timed(lambda: replay(WORKLOADS[name](), trace, config=_config()))
        replay_s.append(dt)
        resumed, dt = _timed(
            lambda: resume_replay(
                WORKLOADS[name](), trace, checkpoints=sidecar, config=_config()
            )
        )
        resume_s.append(dt)
        assert resumed.result.heap_digest == result.heap_digest
        assert resumed.result.output_text == result.output_text

        store, dt = _timed(lambda: CheckpointStore.load(sidecar))
        load_ms.append(dt)
        newest = store.newest_first()[0]
        assert resumed.resumed_from == newest.cycles, resumed.attempts
        vm, dt = _timed(
            lambda: restore_vm(newest, WORKLOADS[name](), trace, config=_config())
        )
        restore_ms.append(dt)
        snap, dt = _timed(lambda: capture_snapshot(vm))
        capture_ms.append(dt)
        assert snap.digest == newest.digest, "restore did not reproduce the snapshot"
    n = len(store.snapshots)
    return {
        "n_snapshots": n,
        "snapshot_words": len(newest.words),
        "sidecar_bytes": sidecar.stat().st_size,
        "sidecar_bytes_per_snapshot": sidecar.stat().st_size // n,
        "checkpointed_replay_s": round(ckpt_replay_s, 4),
        "replay_s": _summary(replay_s),
        "resume_s": _summary(resume_s),
        "resumed_from_cycles": newest.cycles,
        "resume_speedup": round(
            statistics.median(replay_s) / statistics.median(resume_s), 2
        ),
        "load_ms": _summary(load_ms, 1000.0, 2),
        "restore_ms": _summary(restore_ms, 1000.0, 2),
        "capture_ms": _summary(capture_ms, 1000.0, 2),
    }


def measure(reps: int) -> dict:
    results: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            trace_path = Path(tmp) / f"{name}.djv"
            recorded = _record_trace(name, trace_path)
            end = recorded.result.cycles
            every = max(500, end // 20)
            row = {"cycles": end, "checkpoint_every": every}
            row.update(_seek_rows(name, recorded, every, reps))
            row.update(_resume_rows(name, recorded, trace_path, every, reps))
            results[name] = row
    return results


def _print(results: dict) -> None:
    for name, row in results.items():
        print(
            f"{name} ({row['cycles']} cycles, interval {row['checkpoint_every']}, "
            f"{row['n_snapshots']} snapshots of {row['snapshot_words']} words, "
            f"{row['sidecar_bytes_per_snapshot']} sidecar bytes each)"
        )
        zero, ckpt = row["seek_from_zero_s"], row["seek_checkpointed_s"]
        print(
            f"  seek to {row['target_cycles']}: from-zero {zero['median']:.3f}s "
            f"{zero['iqr']}  checkpointed {ckpt['median']:.3f}s {ckpt['iqr']}  "
            f"speedup {row['seek_speedup']:.1f}x"
        )
        rep, res = row["replay_s"], row["resume_s"]
        print(
            f"  full replay {rep['median']:.3f}s {rep['iqr']}  resume from "
            f"@{row['resumed_from_cycles']} {res['median']:.3f}s {res['iqr']}  "
            f"speedup {row['resume_speedup']:.1f}x"
        )
        print(
            "  per snapshot: "
            + "  ".join(
                f"{k} {row[k]['median']:.1f}ms {row[k]['iqr']}"
                for k in ("load_ms", "restore_ms", "capture_ms")
            )
            + f"  (load scans all {row['n_snapshots']} snapshots; restore decodes one)"
        )


def cmd_measure(args) -> int:
    results = measure(args.reps)
    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "dont_write_bytecode": sys.dont_write_bytecode,
        },
        "config": {
            "semispace_words": HEAP,
            "seed": SEED,
            "timer": [40, 200],
            "reps": args.reps,
            "workloads": {"server": [4, 600, 5, 600]},
        },
        "results": results,
    }
    _print(results)
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


def cmd_check(args) -> int:
    """CI smoke: the checkpointed late seek must stay at least 5x faster
    than the from-zero seek, and a resume from the newest snapshot must
    beat a full replay (the claims, not host-speed pins)."""
    results = measure(args.reps)
    _print(results)
    failed = False
    for name, row in results.items():
        if row["seek_speedup"] < 5.0:
            print(f"FAIL {name}: seek speedup {row['seek_speedup']:.1f}x < 5x floor")
            failed = True
        else:
            print(f"ok {name}: seek speedup {row['seek_speedup']:.1f}x >= 5x floor")
        if row["resume_speedup"] <= 1.0:
            print(
                f"FAIL {name}: resume {row['resume_s']['median']:.3f}s is not "
                f"faster than full replay {row['replay_s']['median']:.3f}s"
            )
            failed = True
        else:
            print(f"ok {name}: resume beats full replay ({row['resume_speedup']:.1f}x)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and fail if the checkpointed seek is < 5x faster "
        "or a resume is not faster than a full replay",
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions per timing")
    parser.add_argument("--quick", action="store_true", help="single repetition")
    parser.add_argument(
        "--no-write", action="store_true", help="measure but do not write the JSON"
    )
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.quick else 5
    return cmd_check(args) if args.check else cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
