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
from repro.core.controller import MODE_REPLAY, DejaVu
from repro.debugger.timetravel import TimeTravelSession, _CycleStop
from repro.explore.detector import detect_races
from repro.tools import ReplayCoverage, ReplayProfiler
from repro.workloads import racy_bank, server, sorter, synced_bank

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
        "slim": "4f2be2bb418407e9",
        "races": "c7d51d8dfedc85d6",
        "stats": {"accesses": 381, "gc_invalidations": 0, "sync_edges": 6},
    },
    "slim:server": {
        "slim": "36d2cf04f1cb71de",
        "races": "cc80e00fa3ef8280",
        "stats": {"accesses": 1076, "gc_invalidations": 0, "sync_edges": 94},
    },
}
