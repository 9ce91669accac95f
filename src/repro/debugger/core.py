"""The debugger core: command-level operations over a replay session.

Every query returns plain JSON-shaped data — dicts with string keys,
lists (never tuples), strings, ints, bools and None — so the TCP
frontend ships it as small packets and a client sees the same shapes
whichever codec carries them.  The GUI features the paper lists map to:

* source/machine view with breakpoints & stepping — ``source``, ``break_``,
  ``step``, ``cont``;
* instance/static inspection through a tree-based viewer — ``inspect``,
  ``print_static``;
* call-stack view — ``backtrace`` (via remote shadow stacks);
* thread viewer — ``threads``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.debugger.session import ReplaySession
from repro.remote.remote_object import RemoteObject
from repro.vm.bytecode import format_instr
from repro.vm.errors import VMError
from repro.vm.threads import thread_state_name

if TYPE_CHECKING:  # pragma: no cover
    pass

_MAX_TREE_DEPTH = 4


class Debugger:
    def __init__(self, session: ReplaySession):
        self.session = session
        self._timetravel = None  # lazy: created by the first jump

    # ------------------------------------------------------------------
    # control

    def break_(self, method: str, bci: int | None = None, line: int | None = None) -> dict:
        if line is not None:
            mid, at = self.session.add_line_breakpoint(method, line)
        else:
            mid, at = self.session.add_breakpoint(method, bci or 0)
        return {"method_id": mid, "bci": at}

    def cont(self) -> dict:
        status = self.session.resume()
        return self._status(status)

    def step(self, mode: str = "into") -> dict:
        status = self.session.step(mode)
        return self._status(status)

    def jump(self, cycles: int) -> dict:
        """Checkpoint-accelerated time travel to a cycle count.

        Forward jumps drive the current session; backward jumps restore
        the nearest snapshot captured while travelling (falling back to
        replay-from-zero when none survives).  The debugger's session is
        swapped for the time-travel session's, so subsequent commands
        (backtrace, locals, cont, …) operate at the new position.
        """
        from repro.core.checkpoint import DEFAULT_CHECKPOINT_INTERVAL
        from repro.debugger.timetravel import TimeTravelSession

        if self._timetravel is None:
            self._timetravel = TimeTravelSession(
                self.session.program,
                self.session.trace,
                config=self.session.base_config,
                checkpoint_every=DEFAULT_CHECKPOINT_INTERVAL,
                session=self.session,
            )
        point = self._timetravel.goto_cycles(cycles)
        self.session = self._timetravel.session
        return {
            "status": "done" if self.session.finished else "timepoint",
            "cycles": point.cycles,
            "tid": point.tid,
            "method": point.method,
            "bci": point.bci,
            "line": point.line,
            "restores": self._timetravel.restores,
        }

    def finish(self) -> dict:
        result = self.session.run_to_completion()
        return {
            "status": "done",
            "output": result.output_text,
            "cycles": result.cycles,
            "switches": result.switches,
        }

    def _status(self, status: str) -> dict:
        out = {"status": status}
        if status in ("breakpoint", "step") and self.session.control.reason:
            reason = self.session.control.reason
            out["reason"] = list(reason)
            frames = self.backtrace()
            if frames:
                out["top"] = frames[0]
        return out

    # ------------------------------------------------------------------
    # inspection

    def backtrace(self) -> list[dict]:
        return [
            {
                "method": f"{f.class_name}.{f.method_name}",
                "method_id": f.method_id,
                "bci": f.bci,
                "line": f.line,
            }
            for f in self.session.where()
        ]

    def threads(self) -> list[dict]:
        return [
            {
                "tid": t.tid,
                "state": thread_state_name(t.state),
                "frames": [
                    f"{f.class_name}.{f.method_name}@{f.bci} (line {f.line})"
                    for f in t.frames
                ],
            }
            for t in self.session.threads()
        ]

    def print_static(self, class_name: str, field: str) -> dict:
        value = self.session.read_static(class_name, field)
        return {"value": self._render(value, depth=0)}

    def inspect(self, addr: int) -> dict:
        """Tree-render the remote object at *addr* (the class viewer)."""
        obj = self.session.reflector.object_at(addr)
        return {"object": self._render(obj, depth=0)}

    def _render(self, value, depth: int):
        if value is None:
            return None
        if isinstance(value, int):
            return value
        assert isinstance(value, RemoteObject)
        if value.layout.name == "String":
            return {"class": "String", "addr": value.addr, "value": value.as_string()}
        node: dict = {"class": value.layout.name, "addr": value.addr}
        if depth >= _MAX_TREE_DEPTH:
            node["truncated"] = True
            return node
        if value.layout.is_array:
            n = value.length
            node["length"] = n
            shown = min(n, 16)
            node["elements"] = [
                self._render(value.elem(i), depth + 1) for i in range(shown)
            ]
            if shown < n:
                node["truncated"] = True
        else:
            node["fields"] = {
                slot.name: self._render(value.field(slot.name), depth + 1)
                for slot in value.layout.instance_fields
            }
        return node

    def locals(self) -> dict:
        return {"locals": self.session.read_locals()}

    def line_number_of(self, method_id: int, offset: int) -> dict:
        """Figure 3 through the tool VM's extended interpreter."""
        return {"line": self.session.line_number_of(method_id, offset)}

    def source(self, method: str) -> dict:
        """Machine-instruction view with source-line annotations."""
        rm = self.session.resolve_method(method)
        if rm.native:
            raise VMError(f"{rm.qualname} is native")
        listing = []
        for bci, instr in enumerate(rm.mdef.code):
            listing.append(
                {
                    "bci": bci,
                    "instr": format_instr(instr),
                    "line": rm.mdef.line_table.get(bci, 0),
                }
            )
        return {"method": rm.qualname, "method_id": rm.method_id, "code": listing}

    def output(self) -> dict:
        return {"output": self.session.vm.output_text}

    def info(self) -> dict:
        return {
            "paused": self.session.paused,
            "finished": self.session.finished,
            "breakpoints": [list(bp) for bp in sorted(self.session.control.breakpoints)],
            "port_reads": self.session.port.reads,
            "cycles": self.session.vm.engine.cycles,
        }
