"""Russinovich & Cogswell-style replay: log and steer every thread switch.

Their system (modified Mach kernel, PLDI '96) is notified on **each**
thread switch and logs which thread was scheduled.  "Since they do not
replay the thread package itself, their replay mechanism must tell the
thread package which thread to schedule at each thread switch.  This
entails maintaining a mapping between the thread executing during record
and during replay.  This is a significant execution cost that DejaVu does
not incur."

Concretely, versus DejaVu this baseline

* writes a ``(yield-point delta, thread id)`` pair for **every dispatch**
  — synchronization switches included — where DejaVu writes a single
  delta only for *preemptive* switches;
* on replay, overrides the scheduler's choice with the mapped thread and
  maintains the record↔replay thread-id map at run time (``map_ops``
  counts that work).

Wall-clock and native values are logged exactly as DejaVu does (the
paper's footnote 7: every replay scheme needs that stream).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api import GuestProgram, build_vm
from repro.core.controller import MODE_RECORD, MODE_REPLAY, DejaVu
from repro.core.tracelog import TraceLog
from repro.vm.errors import ReplayDivergenceError
from repro.vm.machine import _DEFAULT, VMConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.threads import GreenThread


class RussinovichCogswell(DejaVu):
    """DejaVu's value logging + per-dispatch switch logging + steering."""

    DISPATCH_NATURAL = 0
    DISPATCH_PREEMPTIVE = 1
    #: its yield-point instrumentation counts every yield point
    EVERY_YIELDPOINT = True

    def __init__(self, vm, mode, trace=None, **kwargs):
        super().__init__(vm, mode, trace=trace, **kwargs)
        self._yp_at_last_dispatch = 0
        self._last_was_preempt = False
        self._countdown: int | None = None
        self._expected_tid: int | None = None
        self._expected_kind: int | None = None
        #: record thread id -> replay thread object (maintained per spawn)
        self.thread_map: dict[int, "GreenThread"] = {}
        self.map_ops = 0
        self.stats["dispatch_records"] = 0
        if self.recording:
            vm.scheduler.on_dispatch = self._record_dispatch
        else:
            vm.scheduler.dispatch_override = self._steer_dispatch
            vm.scheduler.on_dispatch = self._replay_dispatched

    # ------------------------------------------------------------------
    # record side

    def _record_dispatch(self, thread: "GreenThread") -> None:
        clock = self.vm.engine.yp_clock()  # it sees every yield point
        delta = clock - self._yp_at_last_dispatch
        self._yp_at_last_dispatch = clock
        kind = (
            self.DISPATCH_PREEMPTIVE if self._last_was_preempt else self.DISPATCH_NATURAL
        )
        self._last_was_preempt = False
        with self._clock_paused():
            self._put_switch(delta)
            self._put_switch(thread.tid)
            self._put_switch(kind)
        self.stats["dispatch_records"] += 1

    # ------------------------------------------------------------------
    # the yield-point instrumentation (replaces Figure 2's)

    def at_yieldpoint(self, thread: "GreenThread", tag: int) -> None:
        self.sym.stack_check(thread)
        if self.recording:
            engine = self.vm.engine
            if engine.hw_bit:
                engine.hw_bit = False
                self._last_was_preempt = True
                self.vm.scheduler.preempt()  # dispatch hook logs it
        else:
            if self._countdown is not None:
                self._countdown -= 1
                if (
                    self._countdown == 0
                    and self._expected_kind == self.DISPATCH_PREEMPTIVE
                    and not self.vm.engine.switch_pending
                ):
                    # the record run was preempted at this yield point;
                    # force the same switch (natural dispatches happen by
                    # themselves — deterministic blocking)
                    self.vm.scheduler.preempt()

    def internal_yieldpoint(self) -> None:  # no logical clock to protect
        self.stats["internal_yieldpoints"] += 1

    # ------------------------------------------------------------------
    # replay side

    def on_run_start(self) -> None:
        self.sym.init_actions()
        if self.replaying:
            self.vm.engine.timer_enabled = False
            self._advance_log()

    def _advance_log(self) -> None:
        delta = self._take_switch()
        if delta is None:
            self._countdown = None
            self._expected_tid = None
            self._expected_kind = None
            return
        tid = self._take_switch()
        kind = self._take_switch()
        if tid is None or kind is None:
            raise ReplayDivergenceError("truncated dispatch record")
        self._countdown = delta
        self._expected_tid = tid
        self._expected_kind = kind

    def _steer_dispatch(self, ready):
        """Tell the thread package which thread to schedule (their cost)."""
        if self._expected_tid is None:
            return None
        self.map_ops += 1  # one map lookup per dispatch
        target = self.thread_map.get(self._expected_tid)
        if target is None:
            # map threads as they appear; tids are assigned in spawn order
            for t in self.vm.scheduler.threads:
                if t.tid == self._expected_tid:
                    self.thread_map[self._expected_tid] = t
                    self.map_ops += 1
                    target = t
                    break
        if target is None or target not in ready:
            raise ReplayDivergenceError(
                f"recorded thread {self._expected_tid} is not ready "
                f"(ready: {[t.tid for t in ready]})"
            )
        return target

    def _replay_dispatched(self, thread: "GreenThread") -> None:
        if self._expected_tid is not None and thread.tid != self._expected_tid:
            raise ReplayDivergenceError(
                f"dispatched thread {thread.tid}, recorded {self._expected_tid}"
            )
        self._advance_log()

    def _verify_end(self) -> str:
        # the END witnesses still apply; leftover-switch accounting differs
        assert self._trace is not None
        want = dict(self._trace.meta.get("end") or ())
        got = self._make_end_meta()
        for key, expected in want.items():
            if got.get(key) != expected:
                raise ReplayDivergenceError(
                    f"end-of-run mismatch on {key}: recorded {expected!r}, "
                    f"replayed {got.get(key)!r}"
                )
        return got["heap_digest"]


def rc_record(program: GuestProgram, *, config: VMConfig | None = None, timer=_DEFAULT, clock=None, env=None):
    """Record under the R&C scheme; returns (RunResult, TraceLog, stats)."""
    vm = build_vm(program, config, timer=timer, clock=clock, env=env)
    controller = RussinovichCogswell(vm, MODE_RECORD)
    result = vm.run(program.main)
    trace = controller.trace()
    trace.meta["scheme"] = "russinovich-cogswell"
    return result, trace, dict(controller.stats)


def rc_replay(program: GuestProgram, trace: TraceLog, *, config: VMConfig | None = None):
    """Replay an R&C trace; returns (RunResult, map_ops)."""
    vm = build_vm(program, config)
    controller = RussinovichCogswell(vm, MODE_REPLAY, trace=trace)
    result = vm.run(program.main)
    return result, controller.map_ops
