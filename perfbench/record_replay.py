"""record_replay: the paper's core loop on the full engine, no hooks.

For each program: a plain run, ``api.record(out=...)`` to a sealed
file, ``TraceLog.load``, ``api.replay``, a checkpointed replay, and
``api.resume_replay`` from the sealed sidecar.  This loads the
threaded/fused dispatch loop, the controller's yield points, trace
encode/seal/load and checkpoint capture/store/restore, and bypasses
hooks, serve and framing.  Only this workload shows the cost of
``CheckpointStore.load`` inside a resume.
"""

from __future__ import annotations

import random
import time

from harness import Run, fresh_recording, median, peak_rss_mb
from repro import api
from repro.core.tracelog import TraceLog
from repro.workloads import server, sorter

import checks
import layers

#: 4 snapshots over sorter's ~1.46M cycles and server's ~1.48M; an
#: interval dividing either count would make the snapshot count, and
#: with it the resume's cost, flip with the seed
CHECKPOINT_EVERY = 340_000

#: half the cycles of sorter(4,400) and server(4,400,5,work_scale=400),
#: so that a run holds three or four rounds of the chain, not one or two
PROGRAMS = (
    ("sorter", lambda: sorter(4, 280)),
    ("server", lambda: server(4, 200, 5, work_scale=400)),
)
#: operation kinds, in the order of the ``op_cost.N`` metrics
KINDS = ("run", "record", "load", "replay", "checkpointed_replay", "resume")


def record_to(label: str, seed: int, out) -> None:
    api.record(dict(PROGRAMS)[label](), out=out, **api.standard_knobs(seed))


def prepare(seed: int):
    for _, factory in PROGRAMS:
        factory()
    return lambda: None


def _build(r: Run, factory):
    with r.span("workloads:build"):
        return factory()


def _chain(r: Run, label: str, factory, seed: int, acc: dict) -> None:
    knobs = api.standard_knobs
    program = _build(r, factory)
    with r.op("run", "vm:run", label) as t:
        with r.span("vm:build_vm"):
            vm = api.build_vm(program, **knobs(seed))
        plain = vm.run(program.main)
    acc["run_s"].append(t.seconds)

    path = r.tmp / f"{label}.djv"
    program = _build(r, factory)
    with r.op("record", "api:record", label) as t:
        rec = api.record(program, out=path, **knobs(seed))
    acc["record_s"].append(t.seconds)
    acc["cycles"].append(rec.result.cycles)
    blob = path.read_bytes()
    first = acc["blobs"].setdefault(label, blob)
    with r.span("bench.checks:verify"):
        checks.same_trace(r.checks, first, blob, f"{label} repeated recording")
    r.checks.expect(
        plain.cycles == rec.result.cycles
        and plain.output_text == rec.result.output_text,
        f"{label}: recording changed the guest's cycles or output",
    )

    with r.op("load", "core.tracelog:TraceLog.load", label):
        trace = TraceLog.load(path)

    program = _build(r, factory)
    with r.op("replay", "api:replay", label) as t:
        replayed = api.replay(program, trace)
    acc["replay_s"].append(t.seconds)
    with r.span("bench.checks:verify"):
        checks.faithful(r.checks, rec.result, replayed, f"{label} replay")

    sidecar = r.tmp / f"{label}.djv.ckpt"
    program = _build(r, factory)
    with r.op("checkpointed_replay", "api:replay", label) as t:
        ckpt_replayed = api.replay(
            program, trace,
            checkpoint_every=CHECKPOINT_EVERY, checkpoint_out=sidecar,
        )
    acc["ckpt_replay_s"].append(t.seconds)
    acc["sidecar_bytes"][label] = sidecar.stat().st_size
    with r.span("bench.checks:verify"):
        checks.faithful(r.checks, rec.result, ckpt_replayed, f"{label} checkpointed replay")

    program = _build(r, factory)
    with r.op("resume", "api:resume_replay", label) as t:
        resumed = api.resume_replay(program, trace, checkpoints=sidecar)
    acc["resume_s"].append(t.seconds)
    r.checks.expect(
        resumed.resumed_from is not None,
        f"{label}: resume fell back to cycle zero: {resumed.attempts}",
    )
    with r.span("bench.checks:verify"):
        checks.faithful(r.checks, rec.result, resumed.result, f"{label} resume")


def run(r: Run) -> None:
    rng = random.Random(r.seed)
    seeds = {label: rng.randrange(1, 1 << 30) for label, _ in PROGRAMS}
    acc = {k: [] for k in (
        "run_s", "record_s", "replay_s", "ckpt_replay_s", "resume_s",
        "cycles",
    )}
    acc["blobs"] = {}
    acc["sidecar_bytes"] = {}

    # rounds of both chains, while the next one would end less than
    # half a round past the time asked for
    t0 = time.perf_counter()
    last = 0.0
    while not last or time.perf_counter() - t0 + last / 2 < r.seconds:
        start = time.perf_counter()
        with r.span("bench:record_replay"):
            for label, factory in PROGRAMS:
                _chain(r, label, factory, seeds[label], acc)
        last = time.perf_counter() - start
    r.wall = time.perf_counter() - t0

    # outside every timed region: a recording of each program made in a
    # fresh interpreter, without the benchmark's tracer, must be
    # byte-identical to the timed ones
    for label, _ in PROGRAMS:
        again = fresh_recording("record_replay", label, seeds[label], r.tmp / f"{label}.again.djv")
        checks.same_trace(r.checks, acc["blobs"][label], again, f"{label} fresh re-recording")
    checks.self_check(r, acc["blobs"]["sorter"])

    cycles = sum(acc["cycles"])
    r.trace_bytes = sum(len(b) for b in acc["blobs"].values())
    r.metric("record_mops", cycles / sum(acc["record_s"]) / 1e6, "Mcycles/s")
    r.metric("replay_mops", cycles / sum(acc["replay_s"]) / 1e6, "Mcycles/s")
    r.metric("record_overhead_x", sum(acc["record_s"]) / sum(acc["run_s"]), "x")
    r.metric("trace_bytes", r.trace_bytes, "bytes")
    r.metric("trace digest", checks.digest_of(acc["blobs"]), "")
    r.metric("resume_s", median(acc["resume_s"]), "s")
    r.metric(
        "checkpoint.capture_overhead_x",
        sum(acc["ckpt_replay_s"]) / sum(acc["replay_s"]), "x",
    )
    r.metric("checkpoint.sidecar_bytes", sum(acc["sidecar_bytes"].values()), "bytes")

    if r.traced:
        programs = [(label, factory, seeds[label]) for label, factory in PROGRAMS]
        layers.probe_common(r, programs)
        layers.probe_checkpoint(r, programs)
    r.peak_rss_mb = peak_rss_mb()
