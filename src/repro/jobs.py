"""The job executors: ``record``, ``replay``, ``explore``, ``doctor`` and
``trace-stats``, each written once for ``repro <command>`` and
``repro serve`` alike, so daemon output equals one-shot output by
construction.

A body runs on a job dict (the shape
:func:`repro.serve.protocol.validate_job` checks), prints its report on
``out`` and returns its exit status.  ``programs`` supplies the inputs
through ``program(job, trace=None)`` (None when the job names no
program) and ``load_trace(path)``: the CLI's program-file/``--workload``
resolver, or the daemon's warm
:class:`~repro.serve.sessions.SessionPool`.  ``path`` is the trace file
the job writes (record, explore) or reads.  ``hook`` is the optional
cooperative cancellation (``install`` as the ``vm_hook``, ``check`` per
explored schedule); keyword arguments after it are CLI-only options.
This module must not import :mod:`repro.serve`.
"""

from __future__ import annotations

from repro import api
from repro.vm.errors import TraceFormatError, UsageError, VMError
from repro.vm.machine import VMConfig


def print_result(result, out) -> None:
    print(result.output_text, file=out)
    print(
        f"-- cycles={result.cycles} switches={result.switches} "
        f"gc={result.gc_count} threads={len(result.yieldpoints)}",
        file=out,
    )
    if result.deadlocked:
        print(f"-- DEADLOCK: threads {list(result.deadlocked)}", file=out)
    for tid, kind, detail in result.traps:
        print(f"-- trap in thread {tid}: {detail}", file=out)


def error_exit(exc: VMError, err) -> int:
    """Print *exc*'s ``error:`` line on *err* and return its exit tier:
    2 for unusable input (bad usage, an unreadable trace), 1 for a
    finding."""
    print(f"error: {exc}", file=err)
    return 2 if isinstance(exc, (UsageError, TraceFormatError)) else 1


def vm_config(job: dict) -> VMConfig:
    """The job's VM config: its heap; the engine is the default."""
    return VMConfig(semispace_words=job["heap"])


def resolve_workload(job: dict, trace=None, *, explore: bool = False):
    """``(spec, kwargs)`` for the job's workload.  The build kwargs are
    the defaults (plus the explore defaults), then the kwargs *trace*
    recorded for this workload, so a replay rebuilds the recorded
    program, then the job's explicit overrides."""
    from repro.workloads.registry import get_workload

    spec = get_workload(job["workload"])
    recorded = {}
    if trace is not None and trace.meta.get("workload") == spec.name:
        recorded = dict(trace.meta.get("workload_kwargs") or {})
    kwargs = spec.merged_kwargs({**recorded, **job["workload_args"]}, explore=explore)
    return spec, kwargs


def require_program(programs, job: dict, trace=None):
    program = programs.program(job, trace)
    if program is None:
        raise UsageError("need a program file or --workload NAME")
    return program


def _workload_meta(spec, kwargs) -> dict:
    return {"workload": spec.name, "workload_kwargs": kwargs}


# ---------------------------------------------------------------------------
# the bodies, one per job kind


def record(job, out, programs, path, hook=None) -> int:
    program = require_program(programs, job)
    meta = _workload_meta(*resolve_workload(job)) if job.get("workload") else {}
    session = api.record(
        program,
        config=vm_config(job),
        out=path,
        extra_meta=meta,
        slim=job["slim"],
        vm_hook=hook.install if hook else None,
        **api.standard_knobs(job["seed"]),
    )
    trace = session.trace
    print_result(session.result, out)
    print(
        f"-- trace: {trace.n_switch_records} switch records, "
        f"{trace.n_value_words} value words, "
        f"{trace.encoded_size_bytes} bytes -> {job['out_name']}",
        file=out,
    )
    slim_info = trace.slim_info
    if slim_info is not None:
        print(
            f"-- slim: kept {slim_info['kept']} switch delta(s), "
            f"dropped {slim_info['dropped']} (model "
            f"{slim_info['model'][0]}, {slim_info['sync_total']} sync events)",
            file=out,
        )
    elif job["slim"]:
        reason = trace.meta.get("slim_fallback", "?")
        print(f"-- slim: fell back to full recording ({reason})", file=out)
    return 0


def replay(
    job, out, programs, path, hook=None, *, resume=False, checkpoint_every=None
) -> int:
    from repro.core.checkpoint import sidecar_path

    trace = programs.load_trace(path)
    program = require_program(programs, job, trace)
    config = vm_config(job)
    if resume:
        resumed = api.resume_replay(
            program, trace, checkpoints=sidecar_path(path), config=config
        )
        for step in resumed.attempts:
            print(f"-- {step}", file=out)
        result, checkpoint_out = resumed.result, None
    else:
        checkpoint_out = sidecar_path(path) if checkpoint_every else None
        result = api.replay(
            program,
            trace,
            config=config,
            checkpoint_every=checkpoint_every or None,
            checkpoint_out=checkpoint_out,
            vm_hook=hook.install if hook else None,
        )
    print_result(result, out)
    print("-- replay verified against the recorded END witnesses", file=out)
    if checkpoint_out is not None:
        print(f"-- checkpoints -> {checkpoint_out}", file=out)
    return 0


def explore(job, out, programs, path, hook=None, *, races=True) -> int:
    """Explore schedules; on failure, save the ddmin-minimized failing
    schedule to *path* as a standard replayable trace."""
    from repro.explore import Explorer, detect_races

    if job.get("workload"):
        spec, kwargs = resolve_workload(job, explore=True)
        factory = spec.program_factory(kwargs)
        oracle = spec.oracle(kwargs)
        meta = _workload_meta(spec, kwargs)
    else:
        factory = lambda: require_program(programs, job)  # noqa: E731
        oracle = None
        meta = {}
    config = vm_config(job)
    explorer = Explorer(
        factory,
        oracle=oracle,
        bound=job["bound"],
        budget=job["budget"],
        seed=job["seed"] or 0,
        config=config,
        check=hook.check if hook else None,
    )
    report = explorer.run()
    print(report.format(), file=out)
    if report.minimized is None:
        return 0
    trace = report.minimized.trace
    trace.meta.update(meta)
    trace.save(path)
    print(f"-- minimized failing trace -> {job['out_name']}", file=out)
    if races:
        print(detect_races(explorer.program, trace, config=config).format(), file=out)
    return 0


def doctor(job, out, programs, path, hook=None) -> int:
    """Diagnose why the trace at *path* fails (or would fail) to replay;
    the exit status follows the classification."""
    from repro.core.doctor import diagnose

    workload_kwargs = None
    if job.get("workload"):
        # the intended build: defaults plus explicit overrides, NOT the
        # trace meta — diffing them against the recording is the
        # doctor's job
        workload_kwargs = resolve_workload(job)[1]
    report = diagnose(
        path,
        program=programs.program(job),
        config=vm_config(job),
        workload_kwargs=workload_kwargs,
    )
    print(report.format(), file=out)
    return report.exit_code


def trace_stats(job, out, programs, path, hook=None) -> int:
    """Per-stream encoding statistics of the trace at *path*."""
    from repro.core.tracelog import trace_stats as stats_of

    stats = stats_of(path)
    major, minor = divmod(stats["format_version"], 256)
    print(f"format version: {major}.{minor}", file=out)
    print(f"file bytes:     {stats['file_bytes']}", file=out)
    for name in ("switch", "value", "slim"):
        st = stats["streams"].get(name)
        if st is None:
            continue
        modes = ", ".join(f"{mode} {n}" for mode, n in st["modes"].items())
        print(f"{name} stream:", file=out)
        print(f"  entries:       {st['entries']}", file=out)
        print(f"  segments:      {st['segments']}", file=out)
        print(f"  encoded bytes: {st['encoded_bytes']}", file=out)
        print(f"  varint bytes:  {st['raw_bytes']}", file=out)
        print(f"  ratio:         {st['ratio']:.3f}x", file=out)
        print(f"  group modes:   {modes}", file=out)
    slim = stats.get("slim")
    if slim is not None:
        print(
            f"slim recording: kept {slim['kept']} switch delta(s), "
            f"dropped {slim['dropped']}",
            file=out,
        )
    return 0


EXECUTORS = {
    "record": record,
    "replay": replay,
    "explore": explore,
    "doctor": doctor,
    "trace-stats": trace_stats,
}
