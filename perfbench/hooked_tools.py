"""hooked_tools: the tools that run on the baseline dispatch loop.

Slim recording and slim replay (``api.record(slim=True)``) on
``readers_writers``, ``synced_bank`` and ``server``; ``detect_races``
on a racy and a race-free recording; and a checkpointed
``TimeTravelSession`` over ``sorter(4, 400)`` driven by seeded
``goto_cycles`` seeks.  Every one of these forces the baseline engine
through ``with_baseline_engine``, so this is where a faster hooked
dispatch loop must show.
"""

from __future__ import annotations

import random
import time

from harness import Run, fresh_recording, median, p90, peak_rss_mb, tail_label
from repro import api
from repro.core.tracelog import TraceLog
from repro.debugger.timetravel import TimeTravelSession
from repro.explore.detector import detect_races
from repro.workloads import sorter
from repro.workloads.registry import get_workload

import checks
import layers

SLIM_PROGRAMS = (
    ("readers_writers", dict(n_readers=3, n_writers=2, rounds=60)),
    ("synced_bank", dict(tellers=3, deposits=400)),
    ("server", dict(n_workers=3, n_requests=200, work_scale=40)),
)
#: detect_races inputs: (label, workload, kwargs, races expected)
DETECT_PROGRAMS = (
    ("racy", "racy_bank", dict(tellers=3, deposits=400), True),
    ("race_free", "synced_bank", dict(tellers=3, deposits=400), False),
)
CHECKPOINT_EVERY = 100_000
SEEKS_PER_ROUND = 8
#: operation kinds, in the order of the ``op_cost.N`` metrics: a
#: backward seek restores the nearest earlier checkpoint, a forward one
#: runs on from the current position
KINDS = (
    "slim_record", "slim_replay", "detect_racy", "detect_race_free",
    "seek_back", "seek_forward",
)


def _factory(name: str, kwargs: dict):
    spec = get_workload(name)
    resolved = spec.merged_kwargs(kwargs)
    return lambda: spec.build(resolved)


def _travel():
    return sorter(4, 400)


def record_to(label: str, seed: int, out) -> None:
    api.record(
        _factory(label, dict(SLIM_PROGRAMS)[label])(), out=out, slim=True,
        **api.standard_knobs(seed),
    )


def prepare(seed: int):
    for name, kwargs in SLIM_PROGRAMS:
        _factory(name, kwargs)()
    for _, name, kwargs, _ in DETECT_PROGRAMS:
        _factory(name, kwargs)()
    _travel()
    return lambda: None


def _slim_round(r: Run, seeds: dict, acc: dict) -> None:
    for name, kwargs in SLIM_PROGRAMS:
        factory = _factory(name, kwargs)
        path = r.tmp / f"slim-{name}.djv"
        with r.span("workloads:build"):
            program = factory()
        with r.op("slim_record", "api:record", name) as t:
            rec = api.record(program, out=path, slim=True, **api.standard_knobs(seeds[name]))
        acc["record_s"].append(t.seconds)
        acc["record_cycles"].append(rec.result.cycles)
        blob = path.read_bytes()
        first = acc["blobs"].setdefault(name, (blob, rec.trace.slim_info))[0]
        with r.span("bench.checks:verify"):
            checks.same_trace(r.checks, first, blob, f"{name} slim re-recording")
        with r.span("core.tracelog:TraceLog.load"):
            trace = TraceLog.load(path)
        with r.span("workloads:build"):
            program = factory()
        with r.op("slim_replay", "api:replay", name) as t:
            replayed = api.replay(program, trace)
        acc["replay_s"].append(t.seconds)
        with r.span("bench.checks:verify"):
            checks.faithful(r.checks, rec.result, replayed, f"{name} slim replay")


def _detect_round(r: Run, traces: dict, acc: dict) -> None:
    for label, name, kwargs, racy in DETECT_PROGRAMS:
        trace, cycles = traces[label]
        with r.span("workloads:build"):
            program = _factory(name, kwargs)()
        with r.op(f"detect_{label}", "explore.detector:detect_races", name) as t:
            report = detect_races(program, trace)
        acc["detect_s"].append(t.seconds)
        acc["detect_cycles"].append(cycles)
        count = len(report.races)
        first = acc["races"].setdefault(label, count)
        r.checks.expect(count == first, f"{label}: {count} races, first rep found {first}")
        r.checks.expect(
            (count > 0) == racy, f"{label}: race count {count} contradicts the program"
        )


def _seek(r: Run, session: TimeTravelSession, target: int, acc: dict) -> None:
    kind = "seek_back" if target < session.now else "seek_forward"
    with r.op(kind, "debugger.timetravel:goto_cycles", "sorter") as t:
        landed = session.goto_cycles(target)
    acc["seek_s"].append(t.seconds)
    r.checks.expect(
        landed.cycles >= target or session.session.finished,
        f"seek to {target} landed at {landed.cycles}",
    )


def run(r: Run) -> None:
    rng = random.Random(r.seed)
    seeds = {name: rng.randrange(1, 1 << 30) for name, _ in SLIM_PROGRAMS}
    detect_seed = rng.randrange(1, 1 << 30)
    travel_seed = rng.randrange(1, 1 << 30)
    acc = {k: [] for k in (
        "record_s", "record_cycles", "replay_s", "detect_s", "detect_cycles", "seek_s",
    )}
    acc["blobs"] = {}
    acc["races"] = {}

    # inputs: the recordings the detector and the time-travel session read
    traces = {}
    for label, name, kwargs, _ in DETECT_PROGRAMS:
        rec = api.record(_factory(name, kwargs)(), **api.standard_knobs(detect_seed))
        traces[label] = (rec.trace, rec.result.cycles)
    travel_rec = api.record(_travel(), **api.standard_knobs(travel_seed))
    end = travel_rec.result.cycles

    # the session's first pass runs forward to the end, capturing the
    # checkpoints later seeks restore from; it is timed on its own
    with r.span("bench:hooked_tools"):
        with r.span("debugger.timetravel:TimeTravelSession"):
            session = TimeTravelSession(
                _travel(), travel_rec.trace, checkpoint_every=CHECKPOINT_EVERY
            )
        t0 = time.perf_counter()
        with r.span("debugger.timetravel:goto_cycles"):
            session.goto_cycles(end)
        forward_s = time.perf_counter() - t0
    restores_before = session.restores
    t0 = time.perf_counter()
    seeks = 0
    # each round steps back through the recording by a seeded one or two
    # checkpoint intervals at a time, then forward again by one interval
    # at a time, turning round at either end.  Whole intervals keep the
    # offset from the nearest checkpoint the same for every seek, so a
    # backward seek always restores and then runs the same number of
    # cycles, and a forward one runs one interval and passes one
    # checkpoint: how long a seek takes does not depend on the seed
    while not seeks or time.perf_counter() - t0 < r.seconds - forward_s:
        with r.span("bench:hooked_tools"):
            _slim_round(r, seeds, acc)
            _detect_round(r, traces, acc)
            for i in range(SEEKS_PER_ROUND):
                direction = -1 if i < SEEKS_PER_ROUND // 2 else 1
                step = CHECKPOINT_EVERY * (rng.choice((1, 2)) if direction < 0 else 1)
                if not 0 < session.now + direction * step < end:
                    direction = -direction
                _seek(r, session, session.now + direction * step, acc)
                seeks += 1
    r.wall = time.perf_counter() - t0

    # outside every timed region: a recording of each program made in a
    # fresh interpreter, without the benchmark's tracer, must be
    # byte-identical to the timed ones
    for name, _ in SLIM_PROGRAMS:
        again = fresh_recording("hooked_tools", name, seeds[name], r.tmp / f"slim-{name}.again.djv")
        checks.same_trace(r.checks, acc["blobs"][name][0], again, f"{name} fresh slim re-recording")
    checks.self_check(r, acc["blobs"]["server"][0])

    record_cycles = sum(acc["record_cycles"])
    r.trace_bytes = sum(len(blob) for blob, _ in acc["blobs"].values())
    r.metric("record_mops", record_cycles / sum(acc["record_s"]) / 1e6, "Mcycles/s")
    r.metric("replay_mops", record_cycles / sum(acc["replay_s"]) / 1e6, "Mcycles/s")
    r.metric("trace_bytes", r.trace_bytes, "bytes")
    r.metric("trace digest", checks.digest_of({n: b for n, (b, _) in acc["blobs"].items()}), "")
    r.metric("detect_mops", sum(acc["detect_cycles"]) / sum(acc["detect_s"]) / 1e6, "Mcycles/s")
    r.metric("seek_ms_p50", median(acc["seek_s"]) * 1000.0, "ms")
    r.metric("seek_ms_p90", p90(acc["seek_s"]) * 1000.0, "ms")
    r.metric("seek tail", tail_label(acc["seek_s"]), "")
    kept = sum(info["kept"] for _, info in acc["blobs"].values() if info)
    dropped = sum(info["dropped"] for _, info in acc["blobs"].values() if info)
    r.metric("slim.kept", kept, "count")
    r.metric("slim.dropped", dropped, "count")
    r.metric("slim.kept_ratio", kept / (kept + dropped) if kept + dropped else 1.0, "ratio")
    r.metric("detector.races", acc["races"]["racy"], "count")
    r.metric("detector.ms", median(acc["detect_s"]) * 1000.0, "ms")
    r.metric("timetravel.forward_mops", end / forward_s / 1e6, "Mcycles/s")
    r.metric("timetravel.restore_share", (session.restores - restores_before) / seeks, "ratio")

    if r.traced:
        programs = [
            (name, _factory(name, kwargs), seeds[name]) for name, kwargs in SLIM_PROGRAMS
        ]
        programs.append(("racy_bank", _factory("racy_bank", DETECT_PROGRAMS[0][2]), detect_seed))
        layers.probe_common(r, programs)
    r.peak_rss_mb = peak_rss_mb()
