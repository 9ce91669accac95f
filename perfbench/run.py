#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Human-readable lines (host record, the
workload's own metrics, layer self times, any failures) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402

WORKLOADS = ("record_replay", "hooked_tools", "serve_mix", "explore_campaign")
#: the metric lists a run reports: ``end_to_end`` with ``--trace 0``,
#: ``per_layer`` with ``--trace 1``
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: ``op_cost.N`` is the cost of the workload's N-th operation kind
OP_COSTS = [m["name"] for m in SPEC["end_to_end"] if m["name"].startswith("op_cost.")]
#: fresh-interpreter set-ups per run; setup_s is the median of their
#: seconds, each scaled to the reference yardstick time
SETUP_REPS = 10


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(args, tmp: Path) -> dict:
    import layers

    module = importlib.import_module(args.workload)
    if len(module.KINDS) != len(OP_COSTS):
        raise SystemExit(f"{args.workload} has {len(module.KINDS)} operation kinds "
                         f"for {len(OP_COSTS)} op_cost metrics")
    r = harness.Run(args.seed, args.seconds, bool(args.trace), tmp)
    # half the set-ups before the workload and half after it
    setups = [harness.setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPS // 2)]
    module.run(r)
    setups += [harness.setup_seconds(args.workload, args.seed)
               for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    ops = r.ops.all()
    e2e = {
        "setup_s": harness.median(
            seconds * harness.REFERENCE_YARDSTICK_S / yardstick for seconds, yardstick in setups
        ),
        "peak_rss_mb": r.peak_rss_mb,
        "trace_bytes": r.trace_bytes,
    }
    for name, kind in zip(OP_COSTS, module.KINDS):
        e2e[name] = r.ops.cost(kind)
    if r.traced:
        layers.probe_cli(r)
        layers.finish(r)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("host " + json.dumps(harness.host_record(), sort_keys=True))
    print(f"operations: {len(ops)} in {r.wall:.2f} s, {len(ops) / r.wall:.4g}/s")
    for name, kind in zip(OP_COSTS, module.KINDS):
        samples = r.ops.of(kind)
        print(f"  {name} {kind:<20} p50 {harness.median(samples) * 1000:9.1f} ms  "
              f"p90 {harness.p90(samples) * 1000:9.1f} ms  {harness.tail_label(samples)}")
    print("set-up samples (s @ yardstick ms): "
          + " ".join(f"{seconds:.4f}@{yardstick * 1000:.2f}" for seconds, yardstick in setups))
    for m in SPEC["end_to_end"]:
        print(f"  {m['name']:<34} {_fmt(e2e[m['name']]):>14} {m['unit']}")
    print(f"  {'error_rate':<34} {_fmt(r.checks.failed / max(r.checks.attempted, 1)):>14} "
          f"failed/attempted ({r.checks.failed}/{r.checks.attempted})")
    print("workload metrics:")
    for name, (value, unit) in r.extra.items():
        print(f"  {name:<34} {_fmt(value):>14} {unit}")
    if r.traced:
        print("per-layer metrics:")
        for name, (value, unit) in r.layers.items():
            print(f"  {name:<34} {_fmt(value):>14} {unit}")
        roots = r.tracer.root_seconds()
        print(f"layer self time (sum of layers vs {roots:.3f} s of workload spans):")
        for layer, seconds in sorted(r.self_times.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<34} {seconds:>10.3f} s  {seconds / roots:7.1%}")
    for failure in r.checks.failures:
        print(f"FAILED: {failure}")

    if r.traced:
        metrics = {m["name"]: {"value": r.layers[m["name"]][0], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    return {
        "correct": not r.checks.failures,
        "attempted": r.checks.attempted,
        "failed": r.checks.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp = harness.SCRATCH / str(os.getpid())
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        result = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            harness.SCRATCH.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
