"""The third tier: a TCP server around the debugger core, plus a client.

``DebuggerServer`` accepts one frontend connection at a time and serves
framed protocol requests against its :class:`~repro.debugger.core.Debugger`.
``DebuggerClient`` is the thin frontend side — what the paper's Swing GUI
would be built on — exposing each protocol command as a method.

Hardening posture: the server must survive **any** single bad client — a
frame split across sends, an oversized length prefix, garbage bytes, a
peer that vanishes mid-request — because killing the serve loop kills the
replay session it is inspecting.  The client, for its part, retries the
initial connect with capped exponential backoff + jitter (servers take a
moment to come up), applies a per-request timeout so a dead server cannot
hang it, and exposes a transport-level keepalive ``ping``.  Both sides
are the platform's shared wire pieces: the receive loop of
:class:`~repro.core.server.SocketServer` and the round trip of
:class:`~repro.core.framing.FramedClient`, which the serve daemon and
its client use too.

The server runs on a background (host) thread; the guest VM only executes
inside request handling, so the session stays single-threaded from the
guest's point of view.
"""

from __future__ import annotations

import logging
import socket

from repro.core.framing import FramedClient, TransportError
from repro.core.server import SocketServer
from repro.debugger.core import Debugger
from repro.debugger.protocol import COMMANDS, dispatch


logger = logging.getLogger(__name__)


class DebuggerServer(SocketServer):
    """One-connection-at-a-time framed server on the shared
    :class:`~repro.core.server.SocketServer` accept and receive loops.

    One bad client must never take down the serve loop (and with it the
    replay session it is observing): the base loop logs the drop and
    goes back to accepting.  ``log`` defaults to the module logger
    (tests pass a capturing callable); ``connections_served`` /
    ``frame_errors`` let tests assert the loop *survived* a hostile
    client, not just that it didn't crash.
    """

    def __init__(
        self,
        debugger: Debugger,
        host: str = "127.0.0.1",
        port: int = 0,
        log=None,
    ):
        super().__init__(
            host,
            port,
            log=log if log is not None else logger.info,
            concurrency=1,
            name="repro-debugger",
        )
        self.debugger = debugger

    def error_message(self, detail: str) -> dict:
        return {"ok": False, "error": detail}

    def handle_message(self, conn: socket.socket, message: dict) -> bool:
        return self.send(conn, dispatch(self.debugger, message))


class DebuggerClient(FramedClient):
    """Thin frontend: one method per protocol command.

    ``timeout`` bounds every request round trip.  Construction connects
    immediately; use :meth:`connect` for retry-with-backoff semantics
    when the server may not be accepting yet.
    """

    peer = "debugger"
    #: the id of the last request sent; replies must echo it
    _next_id = 0

    def ping(self) -> bool:
        """Transport keepalive: round-trip a ping without touching the
        debugger session.  True iff the server answered."""
        try:
            return self.request("ping") == "pong"
        except TransportError:
            return False

    def request(self, cmd: str, timeout: float | None = None, **args):
        self._next_id += 1
        response = super().request(
            {"id": self._next_id, "cmd": cmd, "args": args}, timeout
        )
        if response.get("id") != self._next_id:
            raise TransportError("out-of-order debugger response")
        if not response.get("ok"):
            raise TransportError(f"debugger error: {response.get('error')}")
        return response.get("result")

    def __getattr__(self, name: str):
        if name in COMMANDS:
            return lambda **args: self.request(name, **args)
        raise AttributeError(name)
