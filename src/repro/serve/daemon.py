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
"""

from __future__ import annotations

import os
import socket
import threading

from repro.core.server import SocketServer
from repro.serve.protocol import (
    MAX_SERVE_FRAME_BYTES,
    SERVE_PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ServeError,
    decode_serve_payload,
    encode_serve_message,
    error_reply,
    validate_job,
)
from repro.serve.sessions import SessionPool
from repro.serve.supervisor import Supervisor


class ServeDaemon(SocketServer):
    """The serve daemon; see the module docstring for the contract."""

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
    ):
        super().__init__(
            host,
            port,
            log=log,
            concurrency=max(4, workers * 4),
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
        self.frame_errors = 0
        self.jobs_served = 0
        #: responses admitted but not yet written to their socket — the
        #: quantity drain waits on (zero accepted-job loss)
        self._busy = 0
        self._busy_lock = threading.Lock()

    # ------------------------------------------------------------------
    # connection handling

    def handle_connection(self, conn: socket.socket) -> None:
        decoder = FrameDecoder(MAX_SERVE_FRAME_BYTES)
        conn.settimeout(0.2)
        while not self.stopping:
            try:
                chunk = conn.recv(65536)
            except TimeoutError:
                continue
            except OSError:
                return  # client vanished: tear down this connection only
            if not chunk:
                return  # orderly client disconnect
            try:
                payloads = decoder.feed(chunk)
                messages = [decode_serve_payload(p) for p in payloads]
            except FrameError as exc:
                self.frame_errors += 1
                self.log(f"unframeable client stream: {exc}")
                self._send(conn, {"op": "error", "detail": str(exc)})
                return
            for message in messages:
                if not self._handle_message(conn, message):
                    return

    def _handle_message(self, conn: socket.socket, message: dict) -> bool:
        """Dispatch one message; False closes the connection."""
        if not isinstance(message, dict):
            # a CRC-valid frame whose payload is no message at all: a
            # typed in-band answer, never a handler traceback
            return self._send(
                conn,
                {
                    "op": "error",
                    "detail": (
                        f"message must be a dict, "
                        f"got {type(message).__name__}"
                    ),
                },
            )
        op = message.get("op")
        if op == "hello":
            if message.get("version") != SERVE_PROTOCOL_VERSION:
                self._send(
                    conn,
                    {
                        "op": "error",
                        "detail": (
                            f"protocol version mismatch: daemon speaks "
                            f"{SERVE_PROTOCOL_VERSION}, client sent "
                            f"{message.get('version')!r}"
                        ),
                    },
                )
                return False
            return self._send(
                conn,
                {
                    "op": "hello-ok",
                    "version": SERVE_PROTOCOL_VERSION,
                    "pid": os.getpid(),
                },
            )
        if op == "ping":
            return self._send(conn, {"op": "pong"})
        if op == "health":
            return self._send(conn, self._health())
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
                self._send(conn, {"op": "draining" if op == "drain" else "bye"})
            finally:
                with self._busy_lock:
                    self._busy -= 1
            return False
        return self._send(conn, {"op": "error", "detail": f"unknown op {op!r}"})

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
                return self._send(conn, error_reply(exc))
            budget = job["deadline"] or self.supervisor.default_deadline
            # generous envelope over the cooperative deadline: the token
            # fires first in any live run; this only catches a dead seam
            wait = (budget + 30.0) if budget is not None else 600.0
            reply = pending.wait(wait)
            self.jobs_served += 1
            return self._send(conn, reply)
        finally:
            with self._busy_lock:
                self._busy -= 1

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
        # health doubles as the supervision heartbeat: a crashed worker
        # is replaced the next time anyone asks whether we are healthy
        self.supervisor.ensure_workers()
        return health

    # ------------------------------------------------------------------
    # drain

    def on_draining(self) -> None:
        """The drain window: every accepted job completes and delivers
        its response before any connection is torn down."""
        self.supervisor.drain(self.drain_grace)
        import time

        deadline = time.monotonic() + min(self.drain_grace, 30.0)
        while time.monotonic() < deadline:
            with self._busy_lock:
                if self._busy == 0:
                    return
            time.sleep(0.02)

    def on_stopped(self) -> None:
        self.supervisor.shutdown(grace=1.0)

    # ------------------------------------------------------------------
    # send helper

    def _send(self, conn: socket.socket, message: dict) -> bool:
        try:
            conn.sendall(encode_serve_message(message))
            return True
        except OSError:
            return False


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
    port))`` once the daemon announces its listening address (the same
    rendezvous discipline as :func:`repro.campaign.remote
    .spawn_worker_process`)."""
    from repro.core.server import spawn_cli_daemon

    args = [
        "serve", "--host", host, "--port", "0",
        "--workers", str(workers), "--queue", str(queue_limit),
    ]
    if deadline is not None:
        args += ["--deadline", str(deadline)]
    if cold:
        args += ["--cold"]
    return spawn_cli_daemon(args + list(extra_args or []), "serve daemon")
