"""Shared accept/serve-loop plumbing for the platform's daemons.

Two daemons speak the :mod:`repro.core.framing` wire — the debugger
server and the `repro serve` replay service, which is also the host of
multi-host campaigns — and :class:`SocketServer` is the accept loop,
the framed receive loop and the hardening posture they share:

* a hostile or vanished client tears down *its connection*, never the
  accept loop — killing the loop kills the session/state it serves;
* one framing policy for every protocol: a bad length prefix gets one
  error frame and the connection closes (the stream cannot be
  resynchronised); a payload that fails its CRC or does not decode, or
  decodes to something other than a dict, gets one typed in-band error
  and the connection stays usable;
* every survived failure is observable through the ``log`` seam and the
  ``connections_served`` / ``frame_errors`` / ``handler_errors``
  counters (a hostile client must be *observable*, not just non-fatal);
* connection lifetime is bounded: with ``max_connection_seconds`` set, a
  connection that overstays is shut down from the accept loop, so one
  slow-loris client cannot pin a handler slot forever;
* shutdown is graceful and signal-safe: :meth:`request_stop` only sets
  a flag and closes the listening socket (both safe inside a signal
  handler), and :meth:`stop` joins every thread the server started, so
  a TERM'd daemon exits with no orphaned threads.

``concurrency=1`` handles connections inline on the accept thread (the
debugger serialises on one session); ``concurrency>1`` gives each
connection its own named handler thread (the serve daemon multiplexes
clients).  Either way a semaphore of ``concurrency`` slots bounds the
connections in service: while every slot is busy the accept loop stops
accepting, so new clients wait in the listen backlog, and it keeps
polling :attr:`stopping` and reaping overstayers meanwhile.
"""

from __future__ import annotations

import signal
import socket
import threading
import time

from repro.core.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    decode_message,
    encode_message,
)


class SocketServer:
    """A hardened TCP accept loop around a per-connection handler.

    A daemon implements :meth:`handle_message` (one decoded message
    dict) and :meth:`error_message` (its protocol's in-band error), and
    the framed loop of :meth:`handle_connection` does the rest.  A raw
    ``handler`` callable instead owns the whole connection until it
    returns — it should loop on short ``recv`` timeouts and poll
    :attr:`stopping` so shutdown is prompt.  The server closes the
    connection afterwards.
    """

    #: the largest frame a client may send
    max_frame_bytes = MAX_FRAME_BYTES

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        handler=None,
        log=None,
        concurrency: int = 1,
        max_connection_seconds: "float | None" = None,
        name: str = "daemon",
    ):
        self.log = log if log is not None else (lambda message: None)
        self.name = name
        self._handler = handler
        self.concurrency = max(1, concurrency)
        self.max_connection_seconds = max_connection_seconds
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(self.concurrency)
        self.address = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        #: live (thread, conn, started_at) records, for reaping + joining
        self._live: "list[tuple[threading.Thread | None, socket.socket, float]]" = []
        self._live_lock = threading.Lock()
        #: one slot per connection in service; released as its handler ends
        self._slots = threading.BoundedSemaphore(self.concurrency)
        self.connections_served = 0
        self.handler_errors = 0
        self.frame_errors = 0

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def start(self):
        """Serve on a named background thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name=f"{self.name}-accept"
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        try:
            self._sock.settimeout(0.2)
        except OSError:
            # request_stop() closed the listener before the serving
            # thread got here; fall through to the drain hooks
            self._stop.set()
        have_slot = False
        while not self._stop.is_set():
            self._reap_overstayers()
            if not have_slot:
                have_slot = self._slots.acquire(timeout=0.2)
                if not have_slot:
                    continue  # every slot busy: the next client waits in the backlog
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            except OSError:
                break  # listening socket closed: shutdown path
            have_slot = False  # the slot is the connection's now
            self.connections_served += 1
            serial = self.connections_served
            if self.concurrency == 1:
                self._handle(conn, serial)
            else:
                thread = threading.Thread(
                    target=self._handle,
                    args=(conn, serial),
                    daemon=True,
                    name=f"{self.name}-conn-{serial}",
                )
                with self._live_lock:
                    self._live.append((thread, conn, time.monotonic()))
                thread.start()
        self.on_draining()
        self._join_connections()
        self.on_stopped()

    def _handle(self, conn: socket.socket, serial: int) -> None:
        if self.concurrency == 1 and self.max_connection_seconds is not None:
            with self._live_lock:
                self._live.append((None, conn, time.monotonic()))
        try:
            with conn:
                self.handle_connection(conn)
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            self.handler_errors += 1
            self.log(
                f"connection #{serial} dropped: {type(exc).__name__}: {exc}"
            )
        finally:
            with self._live_lock:
                self._live = [rec for rec in self._live if rec[1] is not conn]
            self._slots.release()

    def handle_connection(self, conn: socket.socket) -> None:
        if self._handler is not None:
            self._handler(conn)
            return
        decoder = FrameDecoder(self.max_frame_bytes)
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
            except FrameError as exc:
                # no next frame boundary to find: answer once, then close
                self.frame_errors += 1
                self.log(f"unframeable client stream: {exc}")
                self.send(conn, self.error_message(str(exc)))
                return
            for payload in payloads:
                if not self._handle_payload(conn, payload):
                    return

    def _handle_payload(self, conn: socket.socket, payload: bytes) -> bool:
        """Decode and handle one frame payload; False closes the
        connection."""
        try:
            message = decode_message(payload)
        except FrameError as exc:
            self.frame_errors += 1
            self.log(f"undecodable frame payload: {exc}")
            return self.send(conn, self.error_message(str(exc)))
        if isinstance(message, dict):
            return self.handle_message(conn, message)
        detail = f"message must be a dict, got {type(message).__name__}"
        return self.send(conn, self.error_message(detail))

    def handle_message(self, conn: socket.socket, message: dict) -> bool:
        """Handle one decoded message dict; False closes the connection."""
        raise NotImplementedError("override handle_message or pass handler=")

    def error_message(self, detail: str) -> dict:
        """The protocol's in-band error message carrying *detail*."""
        raise NotImplementedError("override error_message or pass handler=")

    def send(self, conn: socket.socket, message: dict) -> bool:
        """Send one message frame; False means the client is gone."""
        return self.send_raw(conn, encode_message(message, self.max_frame_bytes))

    @staticmethod
    def send_raw(conn: socket.socket, data: bytes) -> bool:
        """Send ready-made bytes; False means the client is gone (stop
        this connection, never the loop)."""
        try:
            conn.sendall(data)
            return True
        except OSError:
            return False

    def _reap_overstayers(self) -> None:
        """Bound per-connection lifetime: shut down connections past the
        limit so their handler's next recv fails and the slot frees."""
        limit = self.max_connection_seconds
        if limit is None:
            return
        now = time.monotonic()
        with self._live_lock:
            over = [conn for _, conn, started in self._live if now - started > limit]
        for conn in over:
            self.log(f"connection exceeded {limit}s lifetime; shutting it down")
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _join_connections(self) -> None:
        with self._live_lock:
            live = list(self._live)
        for thread, conn, _ in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            if thread is not None:
                thread.join(timeout=2)

    def on_draining(self) -> None:
        """Subclass hook: runs once after the accept loop exits but
        *before* live connections are shut down — the drain window where
        a daemon lets accepted work finish and deliver its results."""

    def on_stopped(self) -> None:
        """Subclass hook: runs once after the accept loop exits (on the
        serving thread), before :meth:`stop` returns to its caller."""

    def request_stop(self) -> None:
        """Signal-safe graceful-stop request: stop accepting and let
        :meth:`serve_forever` unwind.  Safe to call from a SIGTERM
        handler or any thread; never blocks, never joins."""
        self._stop.set()
        # shutdown before close: close alone is *deferred* while the
        # serving thread sits inside its current accept() window, and a
        # still-listening kernel socket would accept one more client;
        # shutdown wakes the in-flight accept and refuses new SYNs now
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def stop(self) -> None:
        """Full shutdown: request a stop, then join every thread the
        server started so no orphans outlive it."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=5)
        else:
            # serve_forever ran on the caller's thread; it already
            # unwound (or was never started) — still reap connections
            self._join_connections()


def install_term_handler(callback) -> bool:
    """Install *callback* as the SIGTERM handler for graceful drain.

    Returns False (and installs nothing) when not on the main thread —
    Python only allows signal handlers there — so daemons embedded in
    tests or other hosts degrade to explicit ``stop()`` calls.  The
    callback runs inside the signal handler: it must only do signal-safe
    work (``request_stop`` / setting events), never joins.
    """
    if threading.current_thread() is not threading.main_thread():
        return False
    signal.signal(signal.SIGTERM, lambda signum, frame: callback())
    return True
