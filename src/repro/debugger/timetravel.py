"""Time-travel debugging on top of deterministic replay.

The paper's §5 surveys checkpoint-based reverse executors (Igor, Recap,
Boothe's bidirectional debugger).  DejaVu makes the capability almost
free: because a trace pins the *entire* execution, "going back" is just
replaying the same trace and stopping earlier.  This module adds that
tool: a :class:`TimeTravelSession` that addresses execution positions by
**cycle count** (the deterministic logical time of the engine) and can
jump to any of them, forwards or backwards, by re-replaying.

Without checkpoints every backwards jump re-replays from cycle zero —
the degenerate single-checkpoint scheme.  With ``checkpoint_every`` set
the session snapshots the machine at safe points as it travels
(:mod:`repro.core.checkpoint`) and a backwards jump restores the nearest
snapshot *strictly before* the target instead, making seeks O(interval)
rather than O(trace length).  Checkpoints only ever accelerate: a
snapshot that fails its digest or refuses to restore is dropped and the
seek falls back to the next earlier one, then to cycle zero, landing on
the identical machine state either way (the seek-equivalence tests pin
TimePoint *and* machine digest against the from-zero path).

Positions are stable: cycle N denotes the same machine state in every
replay of the same trace (that is exactly DejaVu's accuracy guarantee, and
the replay verifier enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.debugger.session import ReplaySession
from repro.vm.errors import VMError
from repro.vm.machine import VMConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.core.checkpoint import Snapshot
    from repro.core.tracelog import TraceLog


@dataclass
class TimePoint:
    """One remembered moment of the execution."""

    cycles: int
    tid: int
    method: str
    bci: int
    line: int


class _CycleStop:
    """A debug controller that pauses once a cycle target is reached.

    It declares ``stops_from``, so on unfused code the engine arms it and
    runs the plain handlers until the clock reaches the target."""

    def __init__(self, target_cycles: int, engine):
        self.target = target_cycles
        self.stops_from = target_cycles
        self.engine = engine
        self.paused = False

    def check(self, thread, frame, pc) -> bool:
        if self.engine.cycles >= self.target:
            self.paused = True
            self.target = 1 << 62  # one-shot
            return True
        return False


class TimeTravelSession:
    """Forward/backward navigation over one recorded execution.

    The session owns a *current* :class:`ReplaySession` positioned at some
    cycle count; travelling backwards discards it and replays a fresh one
    up to the earlier position — resumed from the nearest usable
    checkpoint when ``checkpoint_every`` (or a pre-captured *checkpoints*
    list) provides one.
    """

    def __init__(
        self,
        program: "GuestProgram",
        trace: "TraceLog",
        config: VMConfig | None = None,
        *,
        checkpoint_every: int | None = None,
        checkpoints: "list[Snapshot] | None" = None,
        session: ReplaySession | None = None,
    ):
        self.program = program
        self.trace = trace
        self.config = config
        self.checkpoint_every = checkpoint_every
        self._snapshots: "dict[int, Snapshot]" = {
            s.cycles: s for s in (checkpoints or [])
        }
        #: how many seeks were checkpoint-accelerated (observability)
        self.restores = 0
        self.session = (
            session
            if session is not None
            else ReplaySession(program, trace, config=config)
        )
        self._attach_recorder()
        self.history: list[TimePoint] = []

    # ------------------------------------------------------------------
    # checkpoint plumbing

    def _attach_recorder(self) -> None:
        if not self.checkpoint_every:
            return
        from repro.core.checkpoint import CheckpointRecorder

        CheckpointRecorder(
            self.session.vm,
            self.checkpoint_every,
            sink=self._remember,
            keep=False,
        )

    def _remember(self, snapshot: "Snapshot") -> None:
        self._snapshots.setdefault(snapshot.cycles, snapshot)

    def _rewind_session(self, target: int) -> ReplaySession:
        """A session positioned somewhere ≤ *target*: restored from the
        nearest snapshot strictly before it (strictly — the from-zero
        stopper can pause mid-dispatch *at* a boundary cycle, which a
        restore exactly at that cycle would skip past), walking the
        fallback ladder down to a plain from-zero replay."""
        candidates = sorted(
            (s for c, s in self._snapshots.items() if c < target),
            key=lambda s: s.cycles,
            reverse=True,
        )
        for snap in candidates:
            try:
                fresh = ReplaySession(
                    self.program, self.trace, config=self.config, resume_from=snap
                )
            except VMError:
                # corrupt / mismatched snapshot: out of the ladder it goes
                del self._snapshots[snap.cycles]
                continue
            self.restores += 1
            return fresh
        return ReplaySession(self.program, self.trace, config=self.config)

    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.session.vm.engine.cycles

    def here(self) -> TimePoint:
        """Describe the current position (remote-reflection data only)."""
        frames = self.session.where()
        thread = self.session.current_thread()
        if frames:
            top = frames[0]
            return TimePoint(
                cycles=self.now,
                tid=thread.tid if thread else -1,
                method=f"{top.class_name}.{top.method_name}",
                bci=top.bci,
                line=top.line,
            )
        return TimePoint(cycles=self.now, tid=-1, method="<no frame>", bci=-1, line=0)

    def mark(self) -> TimePoint:
        """Remember the current position for later travel."""
        point = self.here()
        self.history.append(point)
        return point

    # ------------------------------------------------------------------
    # travel

    def run_to_breakpoint(self, method_ref: str, bci: int = 0) -> str:
        self.session.clear_breakpoints()
        self.session.add_breakpoint(method_ref, bci)
        return self.session.resume()

    def goto_cycles(self, target: int) -> TimePoint:
        """Stop the session before the first op after the committed clock
        reaches *target*, travelling backwards by re-replaying when needed.

        The session's own controller is back in place when this returns or
        raises, so a failed seek leaves its breakpoints working."""
        if target < 0:
            raise VMError(f"bad time target {target}")
        if target < self.now or self.session.finished:
            # backwards (or past the end): fresh replay, checkpoint-
            # accelerated when a snapshot before the target survives
            self.session = self._rewind_session(target)
            self._attach_recorder()
        if target > 0:
            engine = self.session.vm.engine
            stopper = _CycleStop(target, engine)
            saved = self.session.control
            engine.debug = stopper
            try:
                engine.run()
            finally:
                engine.debug = saved  # also drops a stop still armed
            saved.paused = stopper.paused
            if not stopper.paused and not self.session.vm.completed:
                raise VMError("replay stalled before reaching the time target")
            if self.session.vm.completed and self.session.result is None:
                self.session.result = self.session.vm.finish()
        return self.here()

    def back(self, cycles: int = 1) -> TimePoint:
        """Travel *cycles* backwards (reverse-step at machine granularity)."""
        return self.goto_cycles(max(0, self.now - cycles))

    def goto(self, point: TimePoint) -> TimePoint:
        """Return to a previously marked moment."""
        landed = self.goto_cycles(point.cycles)
        return landed

    def reverse_to_last_mark(self) -> TimePoint:
        if not self.history:
            raise VMError("no marked time points")
        return self.goto(self.history[-1])

    # ------------------------------------------------------------------
    # inspection passthrough (all perturbation-free)

    def read_static(self, class_name: str, field: str):
        return self.session.read_static(class_name, field)

    def where(self):
        return self.session.where()

    def finish(self):
        return self.session.run_to_completion()
