"""Length-framed transport primitives shared across the platform.

The debugger wire protocol (PR 3) introduced u32-big-endian
length-prefixed frames as the platform's one framing discipline: length
prefixes make partial reads a non-event (the decoder simply waits for
the rest) and make garbage *detectable* — random bytes parse as an
implausible length, which is rejected up front with a bounded read, so
the receiver never tries to buffer gigabytes on a bad prefix.  The
serve protocol (:mod:`repro.serve.protocol`, which also carries remote
campaign items) rides the same carrier, so the framing layer lives
here, under ``repro.core``, and both protocols import it;
:mod:`repro.debugger.protocol` re-exports every name for backward
compatibility.

This module also holds :class:`BackoffPolicy` — the capped, seeded
exponential-backoff-with-jitter schedule the network clients (the
debugger frontend and the serve client) retry connects with.  The
policy is a value object: ``delays()`` returns the *exact* schedule as
concrete numbers, and ``call`` takes an injectable ``sleep``, so tests
assert full backoff sequences against a fake clock without ever
sleeping for real, and a fleet of coordinated clients stays
deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.vm.errors import VMError

#: frames larger than this are rejected without reading the payload —
#: debugger responses are "small packets", so 1 MiB is generous.  The
#: serve protocol raises the cap per-decoder (jobs and results can carry
#: sealed trace blobs).
MAX_FRAME_BYTES = 1 << 20
#: length prefix size (u32 big-endian)
LEN_BYTES = 4
#: CRC32 prefix size inside checksummed pickle frames
CRC_BYTES = 4


class TransportError(VMError):
    """A framed connection itself failed: unframeable bytes, an
    oversized length prefix, a timeout, or a peer that vanished."""


class TransportTimeout(TransportError):
    """A framed request got no reply within its timeout: the peer is
    alive enough to hold the connection open but silent — a hang, as
    opposed to the EOF or reset of a peer that is gone."""


class FrameError(TransportError):
    """The byte stream cannot be parsed as frames; resync is impossible
    and the connection must be torn down."""


def frame_payload(payload: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame: u32-BE length prefix + *payload*."""
    if len(payload) > max_frame_bytes:  # pragma: no cover - defensive
        raise FrameError(f"outgoing frame of {len(payload)} bytes exceeds cap")
    return len(payload).to_bytes(LEN_BYTES, "big") + payload


def encode_pickle_message(message: dict, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame carrying a **u32-BE CRC32 + pickled message dict**.

    This is the payload discipline the trusted-host serve protocol
    rides on the length frames: the checksum makes a corrupted frame
    *deterministically detectable* — a bit flipped in flight fails the
    CRC and the receiver tears the connection down with a typed
    :class:`FrameError` instead of unpickling garbage into a
    silently-wrong result.
    """
    import pickle
    import zlib

    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    return frame_payload(crc.to_bytes(CRC_BYTES, "big") + blob, max_frame_bytes)


def decode_pickle_payload(payload: bytes) -> dict:
    """Check the CRC and unpickle one frame payload.

    Raises :class:`FrameError` on a checksum mismatch, an unpicklable
    blob, or a message that is not a dict with an ``"op"`` — all mean
    the stream is untrustworthy and the connection must close.
    """
    import pickle
    import zlib

    if len(payload) < CRC_BYTES:
        raise FrameError("checksummed frame too short to carry a CRC32")
    crc = int.from_bytes(payload[:CRC_BYTES], "big")
    blob = payload[CRC_BYTES:]
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise FrameError("frame failed its CRC32 (corrupted in flight)")
    try:
        message = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - anything here is a bad frame
        raise FrameError(f"frame does not unpickle: {exc}") from exc
    if not isinstance(message, dict) or "op" not in message:
        raise FrameError("message must be a dict with an 'op'")
    return message


class FrameDecoder:
    """Incremental frame reassembly over arbitrary byte chunks.

    ``feed`` never blocks and never over-buffers: the declared length is
    validated *before* any payload accumulates, so an adversarial or
    corrupted prefix costs at most ``LEN_BYTES`` of buffered data plus
    one :class:`FrameError`.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buf = b""

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> list[bytes]:
        """Buffer *data*; return every complete frame payload now available.

        Raises :class:`FrameError` on an oversized or absurd length
        prefix — the caller must close the connection (there is no way to
        find the next frame boundary in a stream with a broken prefix).
        """
        self._buf += data
        payloads: list[bytes] = []
        while len(self._buf) >= LEN_BYTES:
            length = int.from_bytes(self._buf[:LEN_BYTES], "big")
            if length > self.max_frame_bytes:
                raise FrameError(
                    f"frame length {length} exceeds the {self.max_frame_bytes}"
                    f"-byte cap (garbage or hostile prefix); closing"
                )
            if len(self._buf) < LEN_BYTES + length:
                break  # partial frame: wait for more bytes
            payloads.append(self._buf[LEN_BYTES:LEN_BYTES + length])
            self._buf = self._buf[LEN_BYTES + length:]
        return payloads


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff + jitter, as a deterministic schedule.

    The delay before retry *i* is ``min(max_delay, base_delay * 2**i)``
    scaled by a jitter factor in [0.5, 1.0) drawn from a RNG seeded with
    ``jitter_seed`` — the same policy object always produces the same
    schedule, so tests (and coordinated fleets of clients) can assert it
    exactly.  ``attempts`` counts tries, so ``attempts - 1`` delays
    separate them.
    """

    attempts: int = 6
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter_seed: "int | None" = 0

    def delays(self) -> "list[float]":
        """The concrete inter-attempt sleeps, in order."""
        rng = random.Random(self.jitter_seed)
        return [
            min(self.max_delay, self.base_delay * (2 ** attempt))
            * (0.5 + rng.random() / 2)
            for attempt in range(max(1, self.attempts) - 1)
        ]

    def call(
        self,
        fn,
        *,
        retry_on: tuple = (OSError,),
        sleep=time.sleep,
        describe: str = "operation",
    ):
        """Run *fn* under this retry schedule; *sleep* is injectable so
        backoff tests run against a fake clock.  Raises
        :class:`TransportError` (chaining the last error) once the final
        attempt fails."""
        delays = self.delays()
        last_error: "Exception | None" = None
        for attempt in range(max(1, self.attempts)):
            try:
                return fn()
            except retry_on as exc:  # noqa: PERF203 - retry loop
                last_error = exc
                if attempt >= len(delays):
                    break
                sleep(delays[attempt])
        raise TransportError(
            f"{describe} after {max(1, self.attempts)} attempts: {last_error}"
        ) from last_error
