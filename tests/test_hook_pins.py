"""Golden pins for every hooked tool.

Debuggers, time travel, the profiler, coverage, slim recording and the
race detector observe a replay through the engine's ``debug`` and
``mem_hook`` slots.  These tests pin what each of them reports for fixed
seeds — where a cycle-addressed seek lands, where a breakpoint or a
``step`` stops, the exact profile and coverage, the slim-trace bytes and
the race reports — so any change to how hooks are dispatched must keep
the tools' results bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro import api
from repro.debugger.control import STEP_INTO, STEP_OUT, STEP_OVER
from repro.debugger.session import ReplaySession
from repro.core.controller import MODE_RECORD, MODE_REPLAY, DejaVu
from repro.debugger.timetravel import TimeTravelSession, _CycleStop
from repro.explore.detector import RaceDetector, detect_races
from repro.tools import ReplayCoverage, ReplayProfiler
from repro.vm.engineconfig import EngineConfig
from repro.vm.machine import VMConfig
from repro.vm.timerdev import slim_model_of
from repro.workloads import gc_churn, racy_bank, server, sorter, synced_bank

SEED = 11


def _sha(obj) -> str:
    blob = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.fixture(scope="module")
def sorter_rec():
    return api.record(sorter(3, 120), **api.standard_knobs(SEED))


@pytest.fixture(scope="module")
def bank_rec():
    return api.record(racy_bank(3, 40), **api.standard_knobs(SEED))


def _seek_sequence(rec, checkpoint_every):
    """Land a seeded mix of long and one-cycle-scale seeks, both ways."""
    tt = TimeTravelSession(sorter(3, 120), rec.trace, checkpoint_every=checkpoint_every)
    end = rec.result.cycles
    rng = random.Random(SEED)
    landed = []
    for _ in range(40):
        if rng.random() < 0.5:
            target = rng.randrange(1, end)
        else:
            target = max(1, min(end - 1, tt.now + rng.randrange(-300, 300)))
        p = tt.goto_cycles(target)
        landed.append((target, p.cycles, p.tid, p.method, p.bci))
    return landed, tt.restores


def test_timetravel_landings(sorter_rec):
    landed, _ = _seek_sequence(sorter_rec, None)
    assert _sha(landed) == PINS["timetravel"], landed[:5]


def test_timetravel_landings_with_checkpoints(sorter_rec):
    landed, restores = _seek_sequence(sorter_rec, 50_000)
    assert restores > 0
    assert _sha(landed) == PINS["timetravel"], landed[:5]


def test_cycle_stops_on_the_fused_engine(sorter_rec):
    """A controller attached straight to a fused engine is consulted at
    superinstruction heads; its cycle-addressed stops are pinned too."""
    vm = api.build_vm(sorter(3, 120))
    DejaVu(vm, MODE_REPLAY, trace=sorter_rec.trace)
    vm.start("Main.main()V")
    rng = random.Random(SEED)
    targets = sorted(rng.randrange(1, sorter_rec.result.cycles) for _ in range(60))
    landed = []
    for target in targets:
        vm.engine.debug = _CycleStop(target, vm.engine)
        vm.engine.run()
        thread = vm.scheduler.current
        frame = thread.frames[-1]
        landed.append((target, vm.engine.cycles, thread.tid, frame.pc))
    vm.engine.debug = None
    vm.engine.run()
    assert vm.finish().cycles == sorter_rec.result.cycles
    assert _sha(landed) == PINS["fused_cycle_stops"], landed[:5]


def _stop(session):
    frames = session.where()
    top = frames[0] if frames else None
    thread = session.current_thread()
    return (
        session.control.reason[0] if session.paused else "done",
        session.vm.engine.cycles,
        thread.tid if thread else -1,
        f"{top.class_name}.{top.method_name}" if top else "",
        top.bci if top else -1,
    )


def test_breakpoint_stops(bank_rec):
    session = ReplaySession(racy_bank(3, 40), bank_rec.trace)
    session.add_breakpoint("Teller.run()V", 4)
    stops = []
    for _ in range(12):
        session.resume()
        stops.append(_stop(session))
    assert _sha(stops) == PINS["breakpoints"], stops[:3]


def test_step_stops(bank_rec):
    session = ReplaySession(racy_bank(3, 40), bank_rec.trace)
    session.add_breakpoint("Teller.run()V", 0)
    session.resume()
    session.clear_breakpoints()
    stops = [_stop(session)]
    for mode in [STEP_INTO] * 40 + [STEP_OVER] * 20 + [STEP_OUT]:
        session.step(mode)
        stops.append(_stop(session))
    assert _sha(stops) == PINS["steps"], stops[:3]


def test_profiler_report(bank_rec):
    report = ReplayProfiler(racy_bank(3, 40), bank_rec.trace).run()
    observed = {
        "total": report.total_cycles,
        "methods": {q: (m.cycles, m.invocations) for q, m in report.methods.items()},
        "threads": report.thread_cycles,
        "switches": report.switches,
    }
    assert _sha(observed) == PINS["profiler"], observed


def test_coverage_report(bank_rec):
    report = ReplayCoverage(racy_bank(3, 40), bank_rec.trace).run()
    observed = {q: sorted(m.hit_bcis) for q, m in report.methods.items()}
    assert _sha(observed) == PINS["coverage"], observed


SLIM_PROGRAMS = {
    "synced_bank": lambda: synced_bank(3, 60),
    "racy_bank": lambda: racy_bank(3, 60),
    "server": lambda: server(3, 40, 5, work_scale=40),
}


@pytest.mark.parametrize("name", sorted(SLIM_PROGRAMS))
def test_slim_trace_and_race_report(name, tmp_path):
    out = tmp_path / f"{name}.djv"
    api.record(SLIM_PROGRAMS[name](), out=out, slim=True, **api.standard_knobs(SEED))
    full = api.record(SLIM_PROGRAMS[name](), **api.standard_knobs(SEED))
    report = detect_races(SLIM_PROGRAMS[name](), full.trace)
    races = sorted(r.describe() for r in report.races)
    observed = {"slim": _sha(out.read_bytes()), "races": _sha(races), "stats": report.stats}
    assert observed == PINS[f"slim:{name}"]



@pytest.mark.parametrize("name", sorted(SLIM_PROGRAMS))
def test_race_report_order(name):
    """The race list in report order — the order ``repro races`` prints."""
    full = api.record(SLIM_PROGRAMS[name](), **api.standard_knobs(SEED))
    report = detect_races(SLIM_PROGRAMS[name](), full.trace)
    assert _sha([r.describe() for r in report.races]) == PINS[f"order:{name}"]


@pytest.mark.parametrize("name", sorted(SLIM_PROGRAMS))
def test_slim_detector_regions(name):
    """What the slim recorder's detector hands the seal-time partition:
    the final ``racy_regions`` and every window's access count."""
    program = SLIM_PROGRAMS[name]()
    config = VMConfig(engine=EngineConfig(fusion=False))
    vm = api.build_vm(program, config, **api.standard_knobs(SEED))
    detector = RaceDetector(vm)
    dejavu = DejaVu(
        vm, MODE_RECORD, slim_spec=slim_model_of(vm.timer), slim_detector=detector
    )
    vm.run(program.main)
    dejavu.trace()
    observed = {
        "racy_regions": _sha(sorted(detector.racy_regions)),
        "n_accesses": _sha([r.n_accesses for r in detector.regions]),
    }
    assert observed == PINS[f"regions:{name}"]


#: two workers race, unsynchronized, on a static field, an instance
#: field and the elements of an int array
SHARED_CELLS = """
.class Box
.field n I

.class Worker
.super Thread
.method run ()V
    iconst 0
    istore 1
loop:
    iload 1
    iconst 20
    if_icmpge done
    getstatic Main.count I
    iconst 1
    iadd
    putstatic Main.count I
    getstatic Main.box LBox;
    getstatic Main.box LBox;
    getfield Box.n I
    iconst 1
    iadd
    putfield Box.n I
    getstatic Main.cells [I
    iload 1
    iconst 3
    irem
    getstatic Main.cells [I
    iload 1
    iconst 3
    irem
    iaload
    iconst 1
    iadd
    iastore
    iinc 1 1
    goto loop
done:
    return
.end

.class Main
.field static count I
.field static box LBox;
.field static cells [I
.field static workers [LThread;
.method static main ()V
    new Box
    putstatic Main.box LBox;
    iconst 3
    newarray
    putstatic Main.cells [I
    iconst 2
    anewarray LThread;
    putstatic Main.workers [LThread;
    iconst 0
    istore 0
spawn:
    iload 0
    iconst 2
    if_icmpge started
    getstatic Main.workers [LThread;
    iload 0
    new Worker
    aastore
    getstatic Main.workers [LThread;
    iload 0
    aaload
    invokestatic Thread.start(LThread;)V
    iinc 0 1
    goto spawn
started:
    iconst 0
    istore 0
join:
    iload 0
    iconst 2
    if_icmpge joined
    getstatic Main.workers [LThread;
    iload 0
    aaload
    invokestatic Thread.join(LThread;)V
    iinc 0 1
    goto join
joined:
    getstatic Main.count I
    invokestatic System.printInt(I)V
    return
.end
"""


def test_races_on_each_location_kind():
    """Each way of naming a location: a static, an instance field, an
    array element."""
    program = lambda: api.GuestProgram.from_source(SHARED_CELLS, name="shared_cells")  # noqa: E731
    full = api.record(program(), **api.standard_knobs(SEED))
    report = detect_races(program(), full.trace)
    locations = {r.location for r in report.races}
    assert {"Main.count", "Box.n", "[I[0]"} <= locations
    observed = {"races": _sha([r.describe() for r in report.races]), "stats": report.stats}
    assert observed == PINS["locations:shared_cells"]


def test_detection_across_collections():
    """A semispace small enough to collect: the detector drops its
    address-keyed state at each collection and keeps detecting after."""
    config = VMConfig(semispace_words=6_000)
    full = api.record(gc_churn(), config=config, **api.standard_knobs(SEED))
    report = detect_races(gc_churn(), full.trace, config=config)
    assert report.stats["gc_invalidations"] > 0
    observed = {"races": _sha([r.describe() for r in report.races]), "stats": report.stats}
    assert observed == PINS["gc:gc_churn"]

#: sha256 prefixes (and detector stats) of each tool's observations,
#: recorded on the per-micro-op switch loop these hooks used to run on
PINS = {
    "timetravel": "4462b7dd95b43244",
    "fused_cycle_stops": "5e3a82b56949cf19",
    "breakpoints": "907f2f47621483a5",
    "steps": "6afdb524058830cc",
    "profiler": "47d7e3117fd744d0",
    "coverage": "6909c36b4ebb0470",
    "slim:synced_bank": {
        "slim": "bcea50eda81dbb10",
        "races": "4f53cda18c2baa0c",
        "stats": {"accesses": 741, "gc_invalidations": 0, "sync_edges": 185},
    },
    "slim:racy_bank": {
        # slimming falls back here ("no droppable deltas"): the file is
        # the v3.1 bytes of TraceLog.to_bytes (it was a 798-byte v3.2
        # file before the version was settled at seal; now 736 bytes)
        "slim": "06cff37a2490a27c",
        "races": "c7d51d8dfedc85d6",
        "stats": {"accesses": 381, "gc_invalidations": 0, "sync_edges": 6},
    },
    "slim:server": {
        "slim": "36d2cf04f1cb71de",
        "races": "cc80e00fa3ef8280",
        "stats": {"accesses": 1076, "gc_invalidations": 0, "sync_edges": 94},
    },
    "order:racy_bank": "04ea3f02a5bdf304",
    "order:server": "cc80e00fa3ef8280",
    "order:synced_bank": "4f53cda18c2baa0c",
    "regions:racy_bank": {"racy_regions": "4e398a6bc1eda4af", "n_accesses": "15cf0d3c2f6cb60e"},
    "regions:server": {"racy_regions": "30300b6f5398ec0a", "n_accesses": "ce46e90260695b5b"},
    "regions:synced_bank": {"racy_regions": "4f53cda18c2baa0c", "n_accesses": "39aeed7861b31b87"},
    "locations:shared_cells": {
        "races": "70c2ee1229955b0f",
        "stats": {"accesses": 416, "gc_invalidations": 0, "sync_edges": 4},
    },
    "gc:gc_churn": {
        "races": "11a35dcc0d7e0dc6",
        "stats": {"accesses": 478, "gc_invalidations": 2, "sync_edges": 4},
    },
}
