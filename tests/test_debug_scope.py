"""Debug controllers pay only where they can stop.

A cycle-addressed stop (``goto_cycles``) is *armed* on unfused code: the
plain handler tables run until the loop's local count reaches the target,
and only then is the stopper attached.  A ``DebugController`` wraps only
the methods holding a breakpoint (every method while a step is armed,
none when no breakpoint is set).  These tests pin that both choices are
exact — every landing equals the per-op reference's — and that the cost
actually goes away.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.core.checkpoint import machine_digest
from repro.debugger import timetravel
from repro.debugger.control import DebugController
from repro.debugger.session import ReplaySession
from repro.debugger.timetravel import TimeTravelSession
from repro.vm.errors import ReplayDivergenceError, VMError
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank, sorter
from repro.workloads.registry import REGISTRY

SEED = 11
TARGETS = 50


class _PerOpStop(timetravel._CycleStop):
    """The reference: ``_CycleStop`` declaring no arm point, so the engine
    consults it before every op."""

    def __init__(self, target_cycles: int, engine):
        super().__init__(target_cycles, engine)
        del self.stops_from


def _wrapped(entries) -> bool:
    return any(
        fn is not None and fn.__qualname__.startswith("_consult_debug.")
        for fn in entries
    )


def _spy_binds(engine) -> list:
    """Record ``(qualname, wrapped)`` for every table *engine* binds."""
    seen = []
    bind = engine._bind

    def spy(rm):
        entries = bind(rm)
        seen.append((rm.qualname, _wrapped(entries)))
        return entries

    engine._bind = spy
    return seen


# ---------------------------------------------------------------------------
# armed ≡ per-op


@pytest.mark.parametrize("checkpoints", [0, 8], ids=["from_zero", "checkpointed"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_armed_seeks_land_where_per_op_stops_do(name, checkpoints, monkeypatch):
    spec = REGISTRY[name]
    kwargs = spec.merged_kwargs(explore=True)
    rec = api.record(spec.build(kwargs), **api.standard_knobs(SEED))
    end = rec.result.cycles
    interval = max(1, end // checkpoints) if checkpoints else None
    armed = TimeTravelSession(spec.build(kwargs), rec.trace, checkpoint_every=interval)
    reference = TimeTravelSession(spec.build(kwargs), rec.trace, checkpoint_every=interval)
    rng = random.Random(f"{SEED}:{name}")
    backward = 0
    for _ in range(TARGETS):
        if rng.random() < 0.5:
            target = rng.randrange(1, end)
        else:  # a short hop either way from where we are
            target = max(1, min(end - 1, armed.now + rng.randrange(-200, 200)))
        backward += target < armed.now
        with monkeypatch.context() as m:
            m.setattr(timetravel, "_CycleStop", _PerOpStop)
            expected = (reference.goto_cycles(target), machine_digest(reference.session.vm))
        assert (armed.goto_cycles(target), machine_digest(armed.session.vm)) == expected, target
    assert backward >= TARGETS // 5
    if checkpoints:
        assert armed.restores > 0 and armed.restores == reference.restores


class _Everywhere(DebugController):
    """The reference: a controller the engine consults before every op."""

    def wraps(self, rm) -> bool:
        return True


def _stops(session, n: int, step_at: int | None = None) -> list:
    """Resume *n* times (stepping instead at index *step_at*).

    A pause publishes the paused frame's bci into its guest shadow stack,
    so a replay that ends right after one fails its end-of-run heap
    check; that outcome is compared like any other."""
    out = []
    for i in range(n):
        try:
            status = session.step() if i == step_at else session.resume()
        except ReplayDivergenceError as exc:
            return out + [type(exc).__name__]
        thread = session.current_thread()
        out.append((status, session.vm.engine.cycles, thread.tid if thread else -1))
        if status == "done":
            break
    return out


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_scoped_breakpoints_stop_where_per_op_ones_do(name):
    """A breakpoint at every bci of every program method: the scoped
    controller stops where one consulted before every op does, including
    re-pausing at a breakpoint's bytecode after another thread ran
    mid-bytecode (a resume token must clear at any op, anywhere)."""
    spec = REGISTRY[name]
    kwargs = spec.merged_kwargs(explore=True)
    program = spec.build(kwargs)
    rec = api.record(program, **api.standard_knobs(SEED))
    classes = {cd.name for cd in program.classdefs}
    probe = ReplaySession(program, rec.trace)
    methods = [
        rm for rm in probe.vm.loader.method_by_id if rm.owner.name in classes and not rm.native
    ]
    for rm in methods:
        for bci in range(len(rm.mdef.code)):
            observed = []
            for controller in (None, _Everywhere()):
                session = ReplaySession(program, rec.trace)
                if controller is not None:
                    session.control = controller
                    session.vm.engine.debug = controller
                session.add_breakpoint(rm.qualname, bci)
                observed.append(_stops(session, 6, step_at=1))
            assert observed[0] == observed[1], (rm.qualname, bci)


# ---------------------------------------------------------------------------
# what the armed stop and scoped breakpoints cost

#: ops one cycle stop may check: from the op whose local count reaches the
#: target to the next clock commit (a yield point, call, park or deadline
#: crossing), plus the stopping op itself; the seek below checks about ten
MAX_STOP_CHECKS = 64


@pytest.fixture(scope="module")
def sorter_rec():
    return api.record(sorter(4, 400), **api.standard_knobs(SEED))


def test_a_forward_seek_checks_only_from_its_target(sorter_rec, monkeypatch):
    tt = TimeTravelSession(sorter(4, 400), sorter_rec.trace)
    tt.goto_cycles(sorter_rec.result.cycles // 2)
    engine = tt.session.vm.engine
    checks = []

    class Counting(timetravel._CycleStop):
        def check(self, thread, frame, pc):
            checks.append(engine.cycles)
            return super().check(thread, frame, pc)

    monkeypatch.setattr(timetravel, "_CycleStop", Counting)
    binds = _spy_binds(engine)
    start = tt.now
    landed = tt.goto_cycles(start + 100_000)
    assert start + 100_000 <= landed.cycles < start + 100_000 + MAX_STOP_CHECKS
    assert 1 <= len(checks) <= MAX_STOP_CHECKS, len(checks)
    assert all(c < start + 100_000 for c in checks[:-1])
    # every wrapped table was bound after the stop attached, at the target
    wrapped = [i for i, (_, w) in enumerate(binds) if w]
    assert wrapped and all(not w for _, w in binds[: wrapped[0]])

    # the per-op reference pays a check for every op of the seek
    calls = []

    class CountingPerOp(_PerOpStop):
        def check(self, thread, frame, pc):
            calls.append(pc)
            return super().check(thread, frame, pc)

    monkeypatch.setattr(timetravel, "_CycleStop", CountingPerOp)
    reference = TimeTravelSession(sorter(4, 400), sorter_rec.trace)
    reference.goto_cycles(start)
    calls.clear()
    assert reference.goto_cycles(start + 100_000) == landed
    assert len(calls) > 100_000


def test_a_breakpoint_wraps_only_its_own_method():
    rec = api.record(racy_bank(3, 40), **api.standard_knobs(SEED))
    session = ReplaySession(racy_bank(3, 40), rec.trace)
    binds = _spy_binds(session.vm.engine)
    session.add_breakpoint("Teller.run()V", 4)
    assert session.resume() == "breakpoint"
    assert {q for q, w in binds if w} == {"Teller.run()V"}
    assert {q for q, w in binds if not w}  # the rest ran plain


def test_run_to_completion_binds_no_wrapped_table():
    rec = api.record(racy_bank(3, 40), **api.standard_knobs(SEED))
    session = ReplaySession(racy_bank(3, 40), rec.trace)
    session.add_breakpoint("Teller.run()V", 4)
    assert session.resume() == "breakpoint"
    binds = _spy_binds(session.vm.engine)
    result = session.run_to_completion()
    assert binds and not any(w for _, w in binds)
    assert result.output_text == rec.result.output_text


# ---------------------------------------------------------------------------
# a seek that raises


def test_a_seek_over_the_budget_restores_the_controller(sorter_rec):
    config = VMConfig(max_cycles=50_000)
    tt = TimeTravelSession(sorter(4, 400), sorter_rec.trace, config=config)
    with pytest.raises(VMError, match="budget"):
        tt.goto_cycles(80_000)
    assert tt.session.vm.engine.debug is tt.session.control


def test_breakpoints_work_after_a_seek_raised(sorter_rec):
    """An error from inside the seek's run (here a safe-point hook that
    fails once, leaving the machine resumable) must not leave the stopper
    attached: the session's breakpoints stop exactly where a fresh
    session's do."""
    fresh = ReplaySession(sorter(4, 400), sorter_rec.trace)
    fresh.add_breakpoint("SortWorker.run()V", 0)
    expected = _stops(fresh, 5)
    assert [s for s, _, _ in expected] == ["breakpoint"] * 4 + ["done"]

    tt = TimeTravelSession(sorter(4, 400), sorter_rec.trace)
    engine = tt.session.vm.engine
    safepoints = []

    def fail_once(eng):
        safepoints.append(eng.cycles)
        if len(safepoints) == 3:
            raise VMError("injected safe-point failure")

    engine.safepoint_hook = fail_once
    with pytest.raises(VMError, match="injected"):
        tt.goto_cycles(sorter_rec.result.cycles // 2)
    assert engine.debug is tt.session.control
    assert tt.now < expected[0][1]
    tt.session.add_breakpoint("SortWorker.run()V", 0)
    assert _stops(tt.session, 5) == expected
