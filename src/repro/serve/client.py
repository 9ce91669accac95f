"""The serve client: framed job submission with overload-aware retry.

``ServeClient`` is the thin, well-behaved frontend the daemon's
contract is written for: it connects with the shared
:class:`~repro.core.framing.BackoffPolicy` (seeded jitter, injectable
sleep), performs the version handshake, bounds every round trip with a
timeout, and — the part the admission-control story depends on —
honors the daemon's ``retry_after`` hint in
:meth:`ServeClient.submit_with_retry`: an ``overloaded`` rejection
sleeps at least ``retry_after`` (never less, even if the backoff
schedule says so) before trying again, so a storm of clients converges
instead of hammering a full queue.
"""

from __future__ import annotations

import socket
import time

from repro.core.framing import BackoffPolicy
from repro.serve.protocol import (
    MAX_SERVE_FRAME_BYTES,
    SERVE_PROTOCOL_VERSION,
    FrameDecoder,
    JobDeadlineExceeded,
    JobCancelled,
    JobRejected,
    ServeError,
    TransportError,
    TransportTimeout,
    decode_serve_payload,
    encode_serve_message,
)

#: error types the daemon sends that map back to typed client raises
_ERROR_TYPES = {
    "JobRejected": JobRejected,
    "JobDeadlineExceeded": JobDeadlineExceeded,
    "JobCancelled": JobCancelled,
}


class ServeClient:
    """One framed connection to a serve daemon."""

    def __init__(self, address: "tuple[str, int]", timeout: float = 120.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self.timeout = timeout
        self._decoder = FrameDecoder(MAX_SERVE_FRAME_BYTES)
        self.bytes_sent = 0
        self.bytes_received = 0
        try:
            reply = self.request({"op": "hello", "version": SERVE_PROTOCOL_VERSION})
            if reply.get("op") != "hello-ok":
                raise TransportError(
                    f"serve handshake refused: {reply.get('detail', reply)}"
                )
        except BaseException:
            self._sock.close()
            raise
        self.daemon_pid = reply.get("pid")

    @classmethod
    def connect(
        cls,
        address: "tuple[str, int]",
        *,
        timeout: float = 120.0,
        policy: "BackoffPolicy | None" = None,
        sleep=time.sleep,
    ) -> "ServeClient":
        """Connect and handshake with capped, seeded exponential backoff
        + jitter.  A handshake that times out is retried like a refused
        connect: a daemon that accepts but never answers hello is a
        connect failure, not a hang."""
        policy = policy or BackoffPolicy()
        return policy.call(
            lambda: cls(address, timeout=timeout),
            retry_on=(OSError, TransportError),
            sleep=sleep,
            describe=f"could not connect to serve daemon at "
            f"{address[0]}:{address[1]}",
        )

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport

    def request(self, message: dict, timeout: "float | None" = None) -> dict:
        """One round trip.  *timeout* (default: the connection's) bounds
        the wait for the reply; running out raises
        :class:`TransportTimeout`, every other transport failure a plain
        :class:`TransportError` (:class:`FrameError` for a bad frame)."""
        timeout = timeout if timeout is not None else self.timeout
        data = encode_serve_message(message)
        self._sock.settimeout(timeout)
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.bytes_sent += len(data)
        return decode_serve_payload(self._read_frame(timeout))

    def _read_frame(self, timeout: float) -> bytes:
        frames: list[bytes] = []
        while not frames:
            try:
                chunk = self._sock.recv(65536)
            except TimeoutError as exc:
                raise TransportTimeout(
                    f"serve request timed out after {timeout:g}s"
                ) from exc
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                raise TransportError("serve daemon closed the connection")
            self.bytes_received += len(chunk)
            frames = self._decoder.feed(chunk)
        return frames[0]

    # ------------------------------------------------------------------
    # the ops

    def ping(self) -> bool:
        try:
            return self.request({"op": "ping"}).get("op") == "pong"
        except TransportError:
            return False

    def health(self) -> dict:
        reply = self.request({"op": "health"})
        if reply.get("op") != "health-ok":
            raise TransportError(f"bad health reply: {reply}")
        return reply

    def drain(self) -> None:
        """Ask the daemon to drain gracefully (the signal-free SIGTERM)."""
        self.request({"op": "drain"})

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})

    def submit(self, job: dict, timeout: "float | None" = None) -> dict:
        """Submit one job; return its result dict or raise the typed
        serve error the daemon reported."""
        if timeout is None and job.get("deadline") is not None:
            timeout = float(job["deadline"]) + 60.0
        reply = self.request({"op": "submit", "job": job}, timeout=timeout)
        if reply.get("op") == "error":
            raise TransportError(f"protocol error: {reply.get('detail')}")
        if reply.get("op") != "result":
            raise TransportError(f"unexpected reply {reply.get('op')!r}")
        if reply.get("ok"):
            return reply["result"]
        error = reply.get("error") or {}
        kind = _ERROR_TYPES.get(error.get("type"))
        detail = error.get("detail", "unknown serve failure")
        if kind is JobRejected:
            raise JobRejected(
                detail,
                reason=error.get("reason", "overloaded"),
                retry_after=float(error.get("retry_after", 0.25)),
            )
        if kind is not None:
            raise kind(detail)
        raise ServeError(f"{error.get('type', 'ServeError')}: {detail}")

    def submit_with_retry(
        self,
        job: dict,
        *,
        policy: "BackoffPolicy | None" = None,
        sleep=time.sleep,
        timeout: "float | None" = None,
    ) -> dict:
        """Submit, honoring ``retry_after`` on typed rejections.

        Each rejection sleeps ``max(retry_after, scheduled_backoff)`` —
        the daemon's hint is a floor, the client's own capped jitter
        schedule decorrelates a fleet.  Raises the final
        :class:`JobRejected` once attempts are exhausted."""
        policy = policy or BackoffPolicy()
        delays = policy.delays()
        last: "JobRejected | None" = None
        for attempt in range(max(1, policy.attempts)):
            try:
                return self.submit(job, timeout=timeout)
            except JobRejected as exc:
                last = exc
                if attempt >= len(delays):
                    break
                sleep(max(exc.retry_after, delays[attempt]))
        raise last
