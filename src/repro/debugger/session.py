"""A replay session under debugger control.

``ReplaySession`` owns the three pieces of Figure 4's bottom two tiers:
the **application VM** (replaying a trace under DejaVu), the **tool VM**
(same classes, used by remote reflection and the extended interpreter),
and the :class:`~repro.debugger.control.DebugController` that pauses the
application engine at breakpoints.

Perturbation-freedom in practice: while paused, every inspection goes
through the read-only :class:`~repro.remote.ptrace.DebugPort`; resuming
continues the replay, and when it completes, DejaVu's END verification
still passes — inspection left no trace in the guest.

The application VM runs unfused code, unlike every other tool's: a
breakpoint can sit at a bci inside a superinstruction, and fused carries
fold the clock late, so stops and seeks address canonical micro-ops.
A session can resume from any replay's snapshot, fused or not:
snapshots store canonical micro-op pcs (:mod:`repro.core.checkpoint`).
The controller is consulted before every op only in the methods it can
stop in: the methods holding a breakpoint, or all of them while a step
is armed.  ``run_to_completion`` clears the breakpoints, so it runs the
plain handler tables throughout.  A pause writes nothing to the heap.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.controller import MODE_REPLAY, DejaVu
from repro.debugger.control import STEP_INTO, DebugController
from repro.remote.interp_ext import ToolInterpreter
from repro.remote.mapping import default_mappings
from repro.remote.ptrace import DebugPort
from repro.remote.reflector import RemoteReflector
from repro.vm.errors import VMError
from repro.vm.engineconfig import EngineConfig
from repro.vm.machine import VirtualMachine, VMConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.core.checkpoint import Snapshot
    from repro.core.tracelog import TraceLog
    from repro.vm.scheduler_types import RunResult
    from repro.vm.threads import GreenThread


class ReplaySession:
    def __init__(
        self,
        program: "GuestProgram",
        trace: "TraceLog",
        config: VMConfig | None = None,
        symmetry=None,
        resume_from: "Snapshot | None" = None,
    ):
        from repro.api import build_vm

        self.program = program
        self.trace = trace
        #: the caller's config, before the session picks its engine —
        #: what a rebuilt or checkpoint-restored session is built from
        self.base_config = config
        # breakpoints and steps address canonical micro-ops: unfused code
        app_config = replace(config or VMConfig(), engine=EngineConfig.baseline())
        if resume_from is not None:
            from repro.core.checkpoint import restore_vm

            self.vm = restore_vm(
                resume_from, program, trace, config=app_config, symmetry=symmetry
            )
            self.dejavu = self.vm.dejavu
        else:
            self.vm = build_vm(program, app_config)
            self.dejavu = DejaVu(self.vm, MODE_REPLAY, trace=trace, symmetry=symmetry)
        self.control = DebugController()
        self.vm.engine.debug = self.control

        # tool tier: its own VM with the same classes, plus remote access
        self.tool_vm = VirtualMachine(config)
        self.tool_vm.declare(program.classdefs)
        self.port = DebugPort(self.vm)
        self.reflector = RemoteReflector(self.port, self.tool_vm)
        self.interp = ToolInterpreter(self.tool_vm, self.port, default_mappings())

        self.result: "RunResult | None" = None
        if resume_from is None:
            self.vm.start(program.main)

    # ------------------------------------------------------------------
    # breakpoint management (resolution is host-side metadata only)

    def resolve_method(self, method_ref: str):
        return self.vm.loader.resolve_method_any(method_ref)

    def add_breakpoint(self, method_ref: str, bci: int = 0) -> tuple[int, int]:
        rm = self.resolve_method(method_ref)
        if rm.native:
            raise VMError(f"cannot break in native {rm.qualname}")
        if not (0 <= bci < len(rm.mdef.code)):
            raise VMError(f"bci {bci} out of range for {rm.qualname}")
        self.control.add_breakpoint(rm.method_id, bci)
        return rm.method_id, bci

    def add_line_breakpoint(self, method_ref: str, line: int) -> tuple[int, int]:
        """Break at the first bci whose source line is *line*."""
        rm = self.resolve_method(method_ref)
        for bci in sorted(rm.mdef.line_table):
            if rm.mdef.line_table[bci] == line:
                return self.add_breakpoint(method_ref, bci)
        raise VMError(f"no code at line {line} of {rm.qualname}")

    def clear_breakpoints(self) -> None:
        self.control.clear_breakpoints()

    # ------------------------------------------------------------------
    # execution control

    @property
    def paused(self) -> bool:
        return self.control.paused

    @property
    def finished(self) -> bool:
        return self.result is not None

    def resume(self) -> str:
        """Continue the replay; returns 'breakpoint', 'step', or 'done'."""
        if self.finished:
            return "done"
        self.control.resume()
        return self._drive()

    def step(self, mode: str = STEP_INTO) -> str:
        if self.finished:
            return "done"
        thread = self.current_thread()
        if thread is None:
            return self.resume()
        self.control.step(thread, mode)
        return self._drive()

    def _drive(self) -> str:
        self.vm.engine.run()
        if self.control.paused:
            assert self.control.reason is not None
            return self.control.reason[0]
        self.result = self.vm.finish()
        return "done"

    def run_to_completion(self) -> "RunResult":
        while not self.finished:
            self.control.clear_breakpoints()
            self.resume()
        assert self.result is not None
        return self.result

    # ------------------------------------------------------------------
    # inspection (all remote / read-only)

    def current_thread(self) -> "GreenThread | None":
        return self.vm.scheduler.current

    def where(self):
        """Remote stack trace of the paused thread (via shadow stacks)."""
        thread = self.current_thread()
        if thread is None:
            return []
        remote_thread = self.reflector.object_at(thread.guest_addr)
        return self.reflector.stack_trace(remote_thread)

    def threads(self):
        return self.reflector.threads()

    def read_static(self, class_name: str, field: str):
        statics = self.reflector.statics_of(class_name)
        if statics is None:
            raise VMError(f"{class_name} has no statics")
        return statics.field(field)

    def line_number_of(self, method_number: int, offset: int) -> int:
        """Figure 3, executed as guest bytecode on the tool VM."""
        self._ensure_debugger_class()
        return self.interp.call(
            "Debugger.lineNumberOf(II)I", [method_number, offset]
        )

    def _ensure_debugger_class(self) -> None:
        if "Debugger" not in self.tool_vm.loader.classdefs:
            from repro.debugger.guestlib import debugger_classdefs

            self.tool_vm.declare(debugger_classdefs())
        self.tool_vm.loader.load("Debugger")

    # ------------------------------------------------------------------
    # simulated stack reads (see docstring caveat in DESIGN.md)

    def read_locals(self, tid: int | None = None) -> list:
        """Read the paused thread's top-frame locals.

        Jalapeño keeps activation stacks in heap arrays, so dbx-style raw
        reads reach them; our frames are host objects (a documented
        substitution), so this is a host-side — still strictly read-only —
        access.
        """
        thread = (
            self.vm.scheduler.threads[tid]
            if tid is not None
            else self.current_thread()
        )
        if thread is None or not thread.frames:
            return []
        return list(thread.frames[-1].locals)
