"""The `repro serve` daemon: a long-lived, supervised replay service.

Built on the shared :class:`~repro.core.server.SocketServer` accept
loop with per-connection handler threads: each framed connection may
submit jobs sequentially; concurrency comes from concurrent
connections.  Every job passes through the robustness envelope — typed
validation (:func:`~repro.serve.protocol.validate_job`), bounded
admission, deadline tokens, warm→cold degradation — implemented by the
:class:`~repro.serve.supervisor.Supervisor` over a shared
:class:`~repro.serve.sessions.SessionPool`.

**Drain state machine.**  ``ready`` —SIGTERM/``drain`` op→ ``draining``
—all accepted jobs delivered→ exit 0:

* :meth:`request_stop` (signal-safe; wired to SIGTERM by the CLI) stops
  the accept loop; new connections get connection-refused, new submits
  on live connections get a typed ``draining`` rejection.
* The base loop then calls :meth:`on_draining`, which waits until the
  supervisor is idle *and* every in-flight response has been written to
  its socket — graceful drain loses zero accepted jobs.
* Only then are surviving (idle) connections closed, workers joined,
  and the process exits 0.

A hostile client — garbage frames, a vanish mid-response, a poison job
— costs exactly its own connection: the base loop survives, the
``frame_errors`` / ``handler_errors`` counters tick, and every other
client's results are unaffected (the concurrent-clients differential
test pins byte-identity against serial runs).

**Campaign hosts.**  The daemon also runs the ``campaign-item`` jobs
of multi-host campaigns, and carries their LAYER_REMOTE fault seam:
``sabotage`` (``repro serve --sabotage``, testing only) arms one
one-shot fault on the Nth campaign-item reply (or on the next hello,
for slow-connect) that the pool's ladder must absorb.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.core.framing import CRC_BYTES, LEN_BYTES, TransportError
from repro.core.server import SocketServer
from repro.serve.protocol import (
    MAX_SERVE_FRAME_BYTES,
    SERVE_PROTOCOL_VERSION,
    ServeError,
    encode_serve_message,
    error_reply,
    validate_job,
)
from repro.serve.sessions import SessionPool
from repro.serve.supervisor import Supervisor

#: the sabotage kinds the daemon understands (the LAYER_REMOTE family)
SABOTAGE_KINDS = (
    "remote-drop-frame",
    "remote-truncate-frame",
    "remote-corrupt-frame",
    "remote-kill-worker",
    "remote-stall-heartbeat",
    "remote-slow-connect",
)


def parse_sabotage(text: str) -> dict:
    """Parse the ``--sabotage`` arming syntax ``kind[:position[:extra]]``.

    ``position`` is the daemon-wide index of the campaign-item reply the
    fault hits (default 0); ``extra`` is the bit index for corrupt-frame
    or the delay in seconds for slow-connect.
    """
    kind, *rest = text.split(":")
    if kind not in SABOTAGE_KINDS:
        raise TransportError(
            f"unknown sabotage kind {kind!r} (known: {', '.join(SABOTAGE_KINDS)})"
        )
    sabotage: dict = {"kind": kind}
    if rest and rest[0]:
        sabotage["position"] = int(rest[0])
    if len(rest) > 1 and rest[1]:
        if kind == "remote-corrupt-frame":
            sabotage["bit"] = int(rest[1])
        else:
            sabotage["delay"] = float(rest[1])
    return sabotage


#: open client connections served at once (one handler thread each):
#: a bound on threads, not on work — admission bounds the work — so it
#: is generous, since clients hold their connection across jobs
MAX_CONNECTIONS = 64


class ServeDaemon(SocketServer):
    """The serve daemon; see the module docstring for the contract."""

    max_frame_bytes = MAX_SERVE_FRAME_BYTES

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        queue_limit: int = 8,
        retry_after: float = 0.25,
        default_deadline: "float | None" = None,
        drain_grace: float = 60.0,
        warm: bool = True,
        log=None,
        executor=None,
        max_connection_seconds: "float | None" = None,
        sabotage: "dict | None" = None,
    ):
        super().__init__(
            host,
            port,
            log=log,
            concurrency=MAX_CONNECTIONS,
            name="repro-serve",
            max_connection_seconds=max_connection_seconds,
        )
        #: warm=False runs every job on a throwaway cold pool — the
        #: bench's cold-session baseline and a degradation diagnostic
        self.warm = warm
        self.pool = SessionPool() if warm else None
        self.supervisor = Supervisor(
            self.pool,
            workers=workers,
            queue_limit=queue_limit,
            retry_after=retry_after,
            default_deadline=default_deadline,
            log=self.log,
            executor=executor,
        )
        self.drain_grace = drain_grace
        self.jobs_served = 0
        #: responses admitted but not yet written to their socket — the
        #: quantity drain waits on (zero accepted-job loss)
        self._busy = 0
        self._busy_lock = threading.Lock()
        #: the armed one-shot fault (consumed when it fires) and the
        #: count of campaign-item replies it is positioned against
        self._sabotage = dict(sabotage) if sabotage else None
        self._campaign_replies = 0

    # ------------------------------------------------------------------
    # connection handling

    def error_message(self, detail: str) -> dict:
        return {"op": "error", "detail": detail}

    def handle_message(self, conn: socket.socket, message: dict) -> bool:
        """Dispatch one message; False closes the connection."""
        op = message.get("op")
        if op == "hello":
            sabotage = self._take_sabotage(hello=True)
            if sabotage is not None:
                # slow-loris: hold the answer past the client's hello
                # timeout (one-shot, so the client's retry succeeds)
                self.log("sabotage firing: remote-slow-connect")
                time.sleep(sabotage.get("delay", 5.0))
            if message.get("version") != SERVE_PROTOCOL_VERSION:
                self.send(
                    conn,
                    self.error_message(
                        f"protocol version mismatch: daemon speaks "
                        f"{SERVE_PROTOCOL_VERSION}, client sent "
                        f"{message.get('version')!r}"
                    ),
                )
                return False
            return self.send(
                conn,
                {
                    "op": "hello-ok",
                    "version": SERVE_PROTOCOL_VERSION,
                    "pid": os.getpid(),
                },
            )
        if op == "ping":
            return self.send(conn, {"op": "pong"})
        if op == "health":
            return self.send(conn, self._health())
        if op == "submit":
            return self._handle_submit(conn, message)
        if op in ("drain", "shutdown"):
            # stop accepting *before* replying: a client that has read
            # the reply must find the listener closed.  The reply counts
            # as an in-flight response, so the drain window cannot tear
            # this connection down before it is written.
            with self._busy_lock:
                self._busy += 1
            try:
                self.request_stop()
                self.send(conn, {"op": "draining" if op == "drain" else "bye"})
            finally:
                with self._busy_lock:
                    self._busy -= 1
            return False
        return self.send(conn, self.error_message(f"unknown op {op!r}"))

    def _handle_submit(self, conn: socket.socket, message: dict) -> bool:
        with self._busy_lock:
            self._busy += 1
        try:
            try:
                job = validate_job(message.get("job"))
                pending = self.supervisor.submit(job)
            except ServeError as exc:
                # poison payloads and overload land here: a typed in-band
                # answer, the connection stays usable
                return self.send(conn, error_reply(exc))
            budget = job["deadline"] or self.supervisor.default_deadline
            # generous envelope over the cooperative deadline: the token
            # fires first in any live run; this only catches a dead seam
            wait = (budget + 30.0) if budget is not None else 600.0
            reply = pending.wait(wait)
            self.jobs_served += 1
            frame = encode_serve_message(reply)
            sabotage = (
                self._take_sabotage() if job["kind"] == "campaign-item" else None
            )
            if sabotage is not None:
                return self._sabotage_reply(conn, sabotage, frame)
            return self.send_raw(conn, frame)
        finally:
            with self._busy_lock:
                self._busy -= 1

    # ------------------------------------------------------------------
    # the one-shot LAYER_REMOTE fault seam

    def _take_sabotage(self, *, hello: bool = False) -> "dict | None":
        """Consume the armed fault if it fires now: on a hello for
        slow-connect, else on the campaign-item reply at its position."""
        with self._busy_lock:
            sabotage = self._sabotage
            if not hello:
                position = self._campaign_replies
                self._campaign_replies += 1
            if sabotage is None:
                return None
            if (sabotage["kind"] == "remote-slow-connect") != hello:
                return None
            if not hello and sabotage.get("position", 0) != position:
                return None
            self._sabotage = None
            return sabotage

    def _sabotage_reply(self, conn: socket.socket, sabotage: dict, frame: bytes) -> bool:
        """Enact the armed fault on one reply frame; False closes the
        connection."""
        kind = sabotage["kind"]
        self.log(f"sabotage firing: {kind}")
        if kind == "remote-drop-frame":
            # the reply never leaves: the client's watchdog must fire
            return True
        if kind == "remote-corrupt-frame":
            # flip one bit past the length and CRC prefixes: framing
            # stays intact, the CRC does not — detection, not corruption
            corrupted = bytearray(frame)
            corrupted[(len(frame) + LEN_BYTES + CRC_BYTES) // 2] ^= 1 << (
                sabotage.get("bit", 0) % 8
            )
            return self.send_raw(conn, bytes(corrupted))
        if kind == "remote-truncate-frame":
            # half a frame, then a dead connection
            self.send_raw(conn, frame[: max(1, len(frame) // 2)])
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return False
        if kind == "remote-kill-worker":
            # deliver the reply, then die: the crash path end to end
            self.send_raw(conn, frame)
            os._exit(13)
        # the stall kind: alive but mute until the daemon stops
        while not self.stopping:
            time.sleep(0.1)
        return False

    def _health(self) -> dict:
        health = {
            "op": "health-ok",
            "state": "draining" if self.stopping else "ready",
            "warm": self.warm,
            "pid": os.getpid(),
            "jobs_served": self.jobs_served,
            "frame_errors": self.frame_errors,
            "connections_served": self.connections_served,
            "handler_errors": self.handler_errors,
            "supervisor": self.supervisor.stats(),
        }
        if self.pool is not None:
            health["sessions"] = self.pool.stats()
        # health doubles as the supervision check: a crashed worker
        # is replaced the next time anyone asks whether we are healthy
        self.supervisor.ensure_workers()
        return health

    # ------------------------------------------------------------------
    # drain

    def on_draining(self) -> None:
        """The drain window: every accepted job completes and delivers
        its response before any connection is torn down."""
        self.supervisor.drain(self.drain_grace)
        deadline = time.monotonic() + min(self.drain_grace, 30.0)
        while time.monotonic() < deadline:
            with self._busy_lock:
                if self._busy == 0:
                    return
            time.sleep(0.02)

    def on_stopped(self) -> None:
        self.supervisor.shutdown(grace=1.0)
        if self.pool is not None:
            self.pool.close()


def spawn_serve_process(
    host: str = "127.0.0.1",
    *,
    workers: int = 2,
    queue_limit: int = 8,
    deadline: "float | None" = None,
    cold: bool = False,
    extra_args: "list[str] | None" = None,
):
    """Launch ``repro serve`` as a subprocess; return ``(proc, (host,
    port))`` once the daemon announces its listening address on its
    first stdout line — the only rendezvous needed: no port race, no
    sleep-and-hope."""
    import subprocess
    import sys

    import repro

    args = [
        "serve", "--host", host, "--port", "0",
        "--workers", str(workers), "--queue", str(queue_limit),
    ]
    if deadline is not None:
        args += ["--deadline", str(deadline)]
    if cold:
        args += ["--cold"]
    # the daemon must find the same `repro` the parent runs, however the
    # parent got it onto sys.path (installed, PYTHONPATH, or a test rig)
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args, *(extra_args or [])],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    marker = "listening on "
    if marker not in line:
        proc.kill()
        raise TransportError(f"serve daemon failed to start: {line!r}")
    host, _, port = line.split(marker, 1)[1].rpartition(":")
    return proc, (host, int(port))
