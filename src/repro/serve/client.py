"""The serve client: framed job submission with overload-aware retry.

``ServeClient`` is the thin, well-behaved frontend the daemon's
contract is written for: it is a :class:`~repro.core.framing.FramedClient`
(connect under the shared :class:`~repro.core.framing.BackoffPolicy`,
seeded jitter and injectable sleep; every round trip bounded by a
timeout) that performs the version handshake and — the part the
admission-control story depends on — honors the daemon's
``retry_after`` hint in :meth:`ServeClient.submit_with_retry`: an
``overloaded`` rejection sleeps at least ``retry_after`` (never less,
even if the backoff schedule says so) before trying again, so a storm
of clients converges instead of hammering a full queue.
"""

from __future__ import annotations

import time

from repro.core.framing import BackoffPolicy, FramedClient, TransportError
from repro.serve.protocol import (
    MAX_SERVE_FRAME_BYTES,
    SERVE_PROTOCOL_VERSION,
    JobDeadlineExceeded,
    JobCancelled,
    JobRejected,
    ServeError,
)

#: error types the daemon sends that map back to typed client raises
_ERROR_TYPES = {
    "JobRejected": JobRejected,
    "JobDeadlineExceeded": JobDeadlineExceeded,
    "JobCancelled": JobCancelled,
}


class ServeClient(FramedClient):
    """One framed connection to a serve daemon; construction connects
    and handshakes (:meth:`connect` retries both under backoff)."""

    peer = "serve daemon"
    default_timeout = 120.0
    max_frame_bytes = MAX_SERVE_FRAME_BYTES

    def __init__(self, address: "tuple[str, int]", timeout: "float | None" = None):
        super().__init__(address, timeout)
        try:
            reply = self.request({"op": "hello", "version": SERVE_PROTOCOL_VERSION})
            if reply.get("op") != "hello-ok":
                raise TransportError(
                    f"serve handshake refused: {reply.get('detail', reply)}"
                )
        except BaseException:
            self.close()
            raise
        self.daemon_pid = reply.get("pid")

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
