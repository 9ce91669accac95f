"""The one yield-point test: the logical clock against ``Engine.yp_limit``.

A yield point reaches ``DejaVu.at_yieldpoint`` only where a switch fires
or the stack grows eagerly, and it does so at the same (thread, logical
clock) points in record and in replay.  Sessions that must see every
yield point — a schedule policy, the liveclock and eager-growth
ablations, the Russinovich & Cogswell baseline — keep the limit at "now".
The shadow call stack is indexed in place, so a recording never goes
through the object model's checked array accessors for it.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.api import build_vm, record, replay
from repro.baselines import rc_record, rc_replay
from repro.baselines.russinovich import RussinovichCogswell
from repro.core import MODE_RECORD, MODE_REPLAY, DejaVu, SymmetryConfig
from repro.debugger.core import Debugger
from repro.debugger.session import ReplaySession
from repro.explore.policy import DeltaSchedule
from repro.vm.errors import ReplayDivergenceError
from repro.vm.layout import ObjectModel
from repro.vm.machine import Environment, VMConfig
from repro.vm.timerdev import FixedClock, NeverTimer
from repro.workloads import REGISTRY, racy_bank, server
from tests.conftest import jitter_knobs

CFG = VMConfig(semispace_words=60_000)


def _trace_entries(monkeypatch, cls=DejaVu):
    """Log (mode, tid, clock, fired, grew) at every at_yieldpoint entry."""
    log = []
    orig = cls.at_yieldpoint

    def traced(self, thread, tag):
        engine = self.vm.engine
        sym = self.sym
        grows = sym.eager_grows + sym.overflow_grows
        entry = [self.mode, thread.tid, engine.yp_clock(), False, False]
        log.append(entry)
        orig(self, thread, tag)
        entry[3] = engine.switch_pending
        entry[4] = sym.eager_grows + sym.overflow_grows > grows

    monkeypatch.setattr(cls, "at_yieldpoint", traced)
    return log


def _of(log, mode):
    return [tuple(e[1:]) for e in log if e[0] == mode]


@pytest.mark.parametrize("name", sorted(REGISTRY))
@pytest.mark.parametrize("slim", [False, True], ids=["full", "slim"])
def test_entered_only_where_a_switch_fires_or_the_stack_grows(name, slim, monkeypatch):
    log = _trace_entries(monkeypatch)
    program = REGISTRY[name].build()
    rec = record(program, config=CFG, slim=slim, **jitter_knobs(9))
    replay(program, rec.trace, config=CFG)
    recorded, replayed = _of(log, MODE_RECORD), _of(log, MODE_REPLAY)
    assert all(fired or grew for _, _, fired, grew in recorded + replayed)
    assert replayed == recorded
    fires = sum(1 for _, _, fired, _ in recorded if fired)
    assert fires == dict(rec.trace.meta["stats"])["switch_records"]


def _total_yieldpoints(vm) -> int:
    return sum(t.yieldpoints for t in vm.scheduler.threads)


def test_schedule_policy_recording_sees_every_yield_point(monkeypatch):
    log = _trace_entries(monkeypatch)
    policy = DeltaSchedule.at_positions([5, 40, 41, 300])
    session = record(
        racy_bank(), config=CFG, timer=NeverTimer(), clock=FixedClock(),
        env=Environment(seed=0), schedule=policy,
    )
    total = sum(session.result.yieldpoints.values())
    assert len(log) == total == policy.consulted
    assert policy.fired == 4


@pytest.mark.parametrize(
    "symmetry",
    [SymmetryConfig(liveclock=False), SymmetryConfig(eager_stack_growth=False)],
    ids=["liveclock", "eager_stack_growth"],
)
@pytest.mark.parametrize("mode", [MODE_RECORD, MODE_REPLAY])
def test_yieldpoint_ablations_see_every_yield_point(symmetry, mode, monkeypatch):
    """The B5 ablations of the two mechanisms that act at yield points."""
    rec = record(racy_bank(), config=CFG, symmetry=symmetry, **jitter_knobs(3))
    log = _trace_entries(monkeypatch)
    program = racy_bank()
    if mode == MODE_RECORD:
        vm = build_vm(program, CFG, **jitter_knobs(3))
        DejaVu(vm, MODE_RECORD, symmetry=symmetry)
    else:
        vm = build_vm(program, CFG)
        DejaVu(vm, MODE_REPLAY, trace=rec.trace, symmetry=symmetry)
    try:
        vm.run(program.main)
    except ReplayDivergenceError:
        pass  # an ablated replay may diverge: count what ran
    assert len(log) == _total_yieldpoints(vm) > 0


def test_russinovich_cogswell_sees_every_yield_point(monkeypatch):
    log = _trace_entries(monkeypatch, RussinovichCogswell)
    result, trace, _ = rc_record(racy_bank(), config=CFG, **jitter_knobs(4))
    assert len(log) == sum(result.yieldpoints.values())
    del log[:]
    replayed, _ = rc_replay(racy_bank(), trace, config=CFG)
    assert len(log) == sum(replayed.yieldpoints.values())


class _Traced(DejaVu):
    """Logs the DejaVu attributes the dispatch loop itself reads or writes."""

    def __getattribute__(self, name):
        if sys._getframe(1).f_code.co_name == "_execute":
            object.__getattribute__(self, "loop_touched").append(name)
        return object.__getattribute__(self, name)

    def __setattr__(self, name, value):
        if sys._getframe(1).f_code.co_name == "_execute":
            object.__getattribute__(self, "loop_touched").append(name)
        object.__setattr__(self, name, value)


@pytest.mark.parametrize("mode", [MODE_RECORD, MODE_REPLAY])
def test_quiet_yield_points_touch_no_dejavu_attribute(mode, monkeypatch):
    """At a yield point that neither switches nor grows the stack, the
    loop reads and writes nothing of the controller: its only access is
    the ``at_yieldpoint`` call at the yield points that need one."""
    rec = record(racy_bank(), config=CFG, **jitter_knobs(6))
    program = racy_bank()
    if mode == MODE_RECORD:
        vm = build_vm(program, CFG, **jitter_knobs(6))
        dv = _Traced.__new__(_Traced)
        object.__setattr__(dv, "loop_touched", [])
        dv.__init__(vm, MODE_RECORD)
    else:
        vm = build_vm(program, CFG)
        dv = _Traced.__new__(_Traced)
        object.__setattr__(dv, "loop_touched", [])
        dv.__init__(vm, MODE_REPLAY, trace=rec.trace)
    log = _trace_entries(monkeypatch)
    vm.run(program.main)
    touched = object.__getattribute__(dv, "loop_touched")
    assert set(touched) == {"at_yieldpoint"}
    assert len(touched) == len(log) < _total_yieldpoints(vm)


def test_shadow_stack_skips_the_object_model(monkeypatch):
    """A server recording reaches ``ObjectModel.array_get``/``array_put``
    from the thread package not once: its shadow stack and thread table
    index the heap words in place."""
    from_threads = []

    def spy(orig):
        def wrapper(self, *args):
            if sys._getframe(1).f_globals.get("__name__") == "repro.vm.threads":
                from_threads.append(sys._getframe(1).f_code.co_name)
            return orig(self, *args)
        return wrapper

    monkeypatch.setattr(ObjectModel, "array_get", spy(ObjectModel.array_get))
    monkeypatch.setattr(ObjectModel, "array_put", spy(ObjectModel.array_put))
    rec = record(server(), config=CFG, **jitter_knobs(5))
    assert rec.result.switches > 0
    assert from_threads == []


def test_remote_backtraces_unchanged():
    """Backtrace and thread-viewer output over a server replay, read from
    the guest shadow stacks, match a pinned digest."""
    rec = record(server(), config=CFG, **jitter_knobs(5))
    dbg = Debugger(ReplaySession(server(), rec.trace, config=CFG))
    for method in ("Queue.push(I)V", "Queue.pop()I", "Main.netStats(II)V"):
        dbg.break_(method, 0)
    seen = []
    for _ in range(25):
        if dbg.cont()["status"] != "breakpoint":
            break
        seen.append((dbg.backtrace(), dbg.threads()))
        seen.append((dbg.step("into"), dbg.backtrace()))
    assert len(seen) == 50
    blob = json.dumps(seen, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "d84cac3dc8ba96b3"
