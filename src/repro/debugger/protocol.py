"""Wire protocol between debugger core and frontend: typed messages over TCP.

The paper's GUI runs on a third JVM and talks to the debugger JVM over
TCP, minimising bandwidth by "transmitting small packets of data rather
than large images".  Our packets are message dicts::

    → {"id": 7, "cmd": "backtrace", "args": {}}
    ← {"id": 7, "ok": True, "result": [...]}
    ← {"id": 8, "ok": False, "error": "no such method"}

carried on the platform's one wire, :mod:`repro.core.framing`, which
the serve protocol shares: a length-prefixed frame holding a CRC32 and
the message in the typed tagged codec.  A frame that fails its CRC, does
not decode, or is not a dict is answered in-band with ``ok: False``; a
frame whose *length* is invalid is a transport-level error (the
connection cannot be resynchronised and closes).  Results are the
debugger core's plain data — dicts, lists, strings, ints, bools, None.
"""

from __future__ import annotations

from typing import Callable

from repro.debugger.core import Debugger


#: command name -> (method name on Debugger, allowed argument names)
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "break": ("break_", ("method", "bci", "line")),
    "cont": ("cont", ()),
    "step": ("step", ("mode",)),
    "jump": ("jump", ("cycles",)),
    "finish": ("finish", ()),
    "backtrace": ("backtrace", ()),
    "threads": ("threads", ()),
    "print_static": ("print_static", ("class_name", "field")),
    "inspect": ("inspect", ("addr",)),
    "locals": ("locals", ()),
    "line_number_of": ("line_number_of", ("method_id", "offset")),
    "source": ("source", ("method",)),
    "output": ("output", ()),
    "info": ("info", ()),
}

#: handled at the transport layer, without touching the Debugger: the
#: keepalive probe both sides use to tell "slow" from "dead"
PING_COMMAND = "ping"


def dispatch(debugger: Debugger, request: dict) -> dict:
    """Execute one request against the debugger core."""
    req_id = request.get("id")
    cmd = request.get("cmd")
    args = request.get("args") or {}
    if cmd == PING_COMMAND:
        return {"id": req_id, "ok": True, "result": "pong"}
    spec = COMMANDS.get(cmd) if isinstance(cmd, str) else None
    if spec is None:
        return {"id": req_id, "ok": False, "error": f"unknown command {cmd!r}"}
    if not isinstance(args, dict):
        return {"id": req_id, "ok": False, "error": "args must be a dict"}
    method_name, allowed = spec
    unknown = set(args) - set(allowed)
    if unknown:
        return {"id": req_id, "ok": False, "error": f"bad arguments {sorted(unknown)}"}
    fn: Callable = getattr(debugger, method_name)
    try:
        result = fn(**args)
    except Exception as exc:  # the server must survive bad queries
        return {"id": req_id, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"id": req_id, "ok": True, "result": result}
