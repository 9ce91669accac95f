"""Execution control: breakpoints and stepping over a paused engine.

The engine consults the controller before the ops of the methods it
``wraps``: every method while a step is armed (or while a pause's resume
token still needs clearing), only the methods holding a breakpoint
otherwise, and none when no breakpoint is set.  Everywhere else the
plain handlers run, because ``check`` could not stop there.  The
controller is purely host-side state — attaching it changes nothing the
guest can observe (cycle counts, scheduling, heap), so replay accuracy
is preserved whether or not a debugger is watching.  Tests verify
exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.interp import Engine
    from repro.vm.loader import RuntimeMethod
    from repro.vm.threads import Frame, GreenThread

STEP_INTO = "into"
STEP_OVER = "over"
STEP_OUT = "out"


class DebugController:
    def __init__(self) -> None:
        #: (method_id, bci) pairs
        self.breakpoints: set[tuple[int, int]] = set()
        self.paused = False
        #: why we last paused: ("breakpoint", mid, bci) or ("step",) ...
        self.reason: tuple | None = None
        self._resume_token: tuple | None = None
        self._step_mode: str | None = None
        self._step_tid: int | None = None
        self._step_frame_depth = 0
        self._step_origin: tuple | None = None
        #: the engine this controller was last attached to, told when
        #: ``_scope`` changes so it rebinds its handler tables
        self._engine: "Engine | None" = None
        #: the method ids ``wraps`` names, or None for every method
        self._scope: frozenset | None = frozenset()

    # ------------------------------------------------------------------
    # where the engine consults ``check``

    def attached(self, engine: "Engine") -> None:
        self._engine = engine

    def wraps(self, rm: "RuntimeMethod") -> bool:
        return self._scope is None or rm.method_id in self._scope

    def _rescope(self) -> None:
        """Recompute the wrapped methods; rebind the engine on a change.

        A step can stop anywhere.  A resume token is cleared by the first
        op, anywhere, off the paused bytecode, so while one is set every
        method is wrapped too (it only matters while a breakpoint could
        fire).  Otherwise only a breakpoint's method can stop."""
        if self._step_mode is not None or (
            self._resume_token is not None and self.breakpoints
        ):
            scope = None
        else:
            scope = frozenset(mid for mid, _ in self.breakpoints)
        if scope != self._scope:
            self._scope = scope
            if self._engine is not None:
                self._engine.rebind()

    # ------------------------------------------------------------------
    # configuration

    def add_breakpoint(self, method_id: int, bci: int) -> None:
        self.breakpoints.add((method_id, bci))
        self._rescope()

    def clear_breakpoints(self) -> None:
        self.breakpoints.clear()
        self._rescope()

    # ------------------------------------------------------------------
    # resume / step requests (called by the session before engine.run())

    def resume(self) -> None:
        self.paused = False
        self._step_mode = None
        self._rescope()

    def step(self, thread: "GreenThread", mode: str = STEP_INTO) -> None:
        """Arm a single step of *thread* at bytecode granularity."""
        self.paused = False
        self._step_mode = mode
        self._step_tid = thread.tid
        self._step_frame_depth = len(thread.frames)
        frame = thread.frames[-1] if thread.frames else None
        self._step_origin = (id(frame), frame.bci if frame else -1)
        self._rescope()

    # ------------------------------------------------------------------
    # the engine-side check

    def check(self, thread: "GreenThread", frame: "Frame", pc: int) -> bool:
        """True ⇒ the engine parks the thread and returns to the session."""
        bci = frame.code.xbci_of[pc]
        token = (thread.tid, id(frame), bci)
        if token == self._resume_token:
            # still on the bytecode we just paused at (a bci spans several
            # micro-ops); don't immediately re-pause.
            return False
        if self._resume_token is not None:
            self._resume_token = None
            self._rescope()
        if self._step_mode is not None and thread.tid == self._step_tid:
            depth = len(thread.frames)
            at_new_spot = (id(frame), bci) != self._step_origin
            if at_new_spot and self._should_stop_step(depth):
                self._pause(token, ("step", thread.tid, frame.method.method_id, bci))
                return True

        if (frame.method.method_id, bci) in self.breakpoints:
            self._pause(token, ("breakpoint", frame.method.method_id, bci))
            return True
        return False

    def _should_stop_step(self, depth: int) -> bool:
        if self._step_mode == STEP_INTO:
            return True
        if self._step_mode == STEP_OVER:
            return depth <= self._step_frame_depth
        if self._step_mode == STEP_OUT:
            return depth < self._step_frame_depth
        return False

    def _pause(self, token: tuple, reason: tuple) -> None:
        self.paused = True
        self.reason = reason
        self._resume_token = token
        self._step_mode = None
        self._rescope()
