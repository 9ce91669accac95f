"""Per-layer measurements for the traced run.

Every call into a module of the program is wrapped in a span named
``"<layer>:<call>"`` from the benchmark's own files; the functions here
add the probes a traced run makes on the workload's own programs and
turn spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import time

from harness import Run, fresh_python_s, median, span_cost_s
from repro import api
from repro.core.tracelog import TraceLog, trace_stats
from repro.vm.machine import VMConfig

#: layers every workload reports self time for
COMMON_LAYERS = ("workloads", "vm", "api", "core.tracelog")


def probe_common(r: Run, programs) -> None:
    """Build, run (full and baseline engine), record, save and load each
    ``(label, factory, seed)`` program; report the vm, controller and
    tracelog layer metrics from it."""
    knobs = api.standard_knobs
    baseline = VMConfig(engine=api.ENGINE_PRESETS["baseline"])
    full = {"cycles": 0, "s": 0.0, "dispatches": 0, "ic_hits": 0, "ic_misses": 0}
    base = {"cycles": 0, "s": 0.0}
    controller = {"switch_records": 0, "clock_records": 0, "native_records": 0}
    streams = {"switch": 0, "value": 0, "raw": 0}
    for label, factory, seed in programs:
        with r.span("bench:layer-probe"):
            with r.span("workloads:build"):
                program = factory()
            with r.span("vm:build_vm"):
                vm = api.build_vm(program, **knobs(seed))
            with r.span("vm:run"):
                t0 = time.perf_counter()
                result = vm.run(program.main)
                full["s"] += time.perf_counter() - t0
            full["cycles"] += result.cycles
            stats = vm.engine_stats()
            for key in ("dispatches", "ic_hits", "ic_misses"):
                full[key] += stats[key]

            program = factory()
            with r.span("vm:build_vm"):
                vm = api.build_vm(program, baseline, **knobs(seed))
            with r.span("vm:run"):
                t0 = time.perf_counter()
                result = vm.run(program.main)
                base["s"] += time.perf_counter() - t0
            base["cycles"] += result.cycles

            with r.span("api:record"):
                rec = api.record(factory(), **knobs(seed))
            for key in controller:
                controller[key] += rec.stats[key]
            path = r.tmp / f"probe-{label}.djv"
            with r.span("core.tracelog:TraceLog.save"):
                rec.trace.save(path)
            with r.span("core.tracelog:TraceLog.load"):
                TraceLog.load(path)
            with r.span("core.tracelog:trace_stats"):
                st = trace_stats(path)
            for name in ("switch", "value"):
                streams[name] += st["streams"][name]["encoded_bytes"]
                streams["raw"] += st["streams"][name]["raw_bytes"]

    ms = 1000.0
    r.layer("workloads.build_ms", median(r.tracer.durations("workloads:build")) * ms, "ms")
    r.layer("vm.build_ms", median(r.tracer.durations("vm:build_vm")) * ms, "ms")
    r.layer("vm.run_mops", full["cycles"] / full["s"] / 1e6, "Mcycles/s")
    r.layer("vm.baseline_run_mops", base["cycles"] / base["s"] / 1e6, "Mcycles/s")
    r.layer("vm.dispatches_per_cycle", full["dispatches"] / full["cycles"], "ratio")
    lookups = full["ic_hits"] + full["ic_misses"]
    r.layer("vm.ic_hit_ratio", full["ic_hits"] / lookups if lookups else 1.0, "ratio")
    for key, value in controller.items():
        r.layer(f"controller.{key}", value, "count")
    r.layer("tracelog.save_ms", median(r.tracer.durations("core.tracelog:TraceLog.save")) * ms, "ms")
    r.layer("tracelog.load_ms", median(r.tracer.durations("core.tracelog:TraceLog.load")) * ms, "ms")
    r.layer("tracelog.switch_bytes", streams["switch"], "bytes")
    r.layer("tracelog.value_bytes", streams["value"], "bytes")
    r.layer(
        "tracelog.codec_ratio",
        streams["raw"] / (streams["switch"] + streams["value"]), "ratio",
    )


def probe_checkpoint(r: Run, programs) -> None:
    """Time ``CheckpointStore.load`` and ``restore_vm`` from outside,
    on sidecars the workload wrote for each program."""
    from repro.core.checkpoint import CheckpointStore, restore_vm

    snapshots = 0
    for label, factory, _ in programs:
        trace = TraceLog.load(r.tmp / f"{label}.djv")
        with r.span("bench:layer-probe"):
            with r.span("core.checkpoint:CheckpointStore.load"):
                store = CheckpointStore.load(r.tmp / f"{label}.djv.ckpt")
            newest = store.newest_first()
            snapshots += len(newest)
            with r.span("core.checkpoint:restore_vm"):
                restore_vm(newest[0], factory(), trace)
    ms = 1000.0
    r.layer(
        "checkpoint.store_load_ms",
        median(r.tracer.durations("core.checkpoint:CheckpointStore.load")) * ms, "ms",
    )
    r.layer(
        "checkpoint.restore_ms",
        median(r.tracer.durations("core.checkpoint:restore_vm")) * ms, "ms",
    )
    r.layer("checkpoint.snapshots", snapshots, "count")


def probe_cli(r: Run, reps: int = 3) -> None:
    """Fresh-interpreter start, and ``import repro.cli`` on top of it."""
    bare = median([fresh_python_s("pass") for _ in range(reps)])
    cli = median([fresh_python_s("import repro.cli") for _ in range(reps)])
    r.layer("cli.python_start_ms", bare * 1000.0, "ms")
    r.layer("cli.import_ms", (cli - bare) * 1000.0, "ms")


def finish(r: Run) -> None:
    """Self time per layer, the share of workload time no layer span
    covers, and the share the spans themselves cost."""
    selfs = r.tracer.self_times()
    roots = r.tracer.root_seconds()
    for layer in COMMON_LAYERS:
        r.layer(f"self_s.{layer}", selfs.get(layer, 0.0), "s")
    r.self_times = selfs
    r.layer("bench.unattributed_share", selfs.get("bench", 0.0) / roots, "ratio")
    r.layer(
        "bench.trace_overhead_share",
        len(r.tracer.spans) * span_cost_s() / roots, "ratio",
    )
