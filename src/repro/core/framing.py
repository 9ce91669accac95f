"""The platform's one wire: framed, checksummed, typed messages.

Every network peer (the serve daemon, which also carries remote
campaign items, and the debugger) speaks ``u32-BE length | u32-BE CRC32
of the body | body``.  A length prefix makes partial reads a non-event
and garbage detectable (an implausible length is rejected before
anything is buffered); the CRC makes a bit flipped in flight fail
instead of decoding into a silently-wrong message.

The body is one value in a tagged codec: a tag byte, then the value.
A *size* (length or count) is one byte below 255, else 0xFF + u32-BE.

=======  ==========================================================
``N``    None; ``T`` / ``F``: True / False (a bool never becomes an int)
``i``    int, any precision: size + big-endian two's complement
``f``    float: 8-byte big-endian IEEE 754 double
``s``    str: size + UTF-8 (``surrogatepass``)
``b``    bytes (a bytearray encodes as bytes): size + raw bytes
``l``    list / ``t`` tuple (stays a tuple): count + values
``d``    dict: count + key, value pairs
=======  ==========================================================

Nothing else encodes (:class:`TypeError`).  Decoding runs no code and
allocates no more than the payload holds: every size is checked against
the bytes left, nesting stops at :data:`MAX_NESTING`, trailing bytes are
an error, and every malformed payload ends in :class:`FrameError`.

Also here: :class:`FramedClient`, the one client round trip, and
:class:`BackoffPolicy`, the capped, seeded exponential-backoff-with-
jitter schedule clients connect with — a value object whose
``delays()`` is the exact schedule and whose ``call`` takes an
injectable ``sleep``, so tests assert it against a fake clock.
"""

from __future__ import annotations

import random
import struct
import time
import zlib
from dataclasses import dataclass

from repro.vm.errors import VMError

#: frames larger than this are rejected without reading the payload —
#: debugger responses are "small packets", so 1 MiB is generous.  The
#: serve protocol raises the cap per-decoder (jobs and results can carry
#: sealed trace blobs).
MAX_FRAME_BYTES = 1 << 20
#: length prefix size (u32 big-endian)
LEN_BYTES = 4
#: CRC32 prefix size at the head of every frame payload
CRC_BYTES = 4
#: containers may nest this deep; deeper is a malformed message
MAX_NESTING = 64

_U32 = struct.Struct(">I")
_HEADER = struct.Struct(">II")
_SHORT = struct.Struct(">cB")
_LONG = struct.Struct(">cBI")
_FLOAT = struct.Struct(">cd")
_CONSTANTS = {ord("N"): None, ord("T"): True, ord("F"): False}


class TransportError(VMError):
    """A framed connection itself failed: unframeable bytes, an
    oversized length prefix, a timeout, or a peer that vanished."""


class TransportTimeout(TransportError):
    """A framed request got no reply within its timeout: the peer is
    alive enough to hold the connection open but silent — a hang, as
    opposed to the EOF or reset of a peer that is gone."""


class FrameError(TransportError):
    """Bytes that are not a well-formed frame or message: a bad length
    prefix, a CRC mismatch, or a body the codec cannot decode."""


# ---------------------------------------------------------------------------
# the codec


def encode_value(value) -> bytes:
    """The codec bytes of *value* (see the module docstring)."""
    out = bytearray()
    _encode(value, out, 0)
    return bytes(out)


def _head(out: bytearray, tag: bytes, size: int) -> None:
    out += _SHORT.pack(tag, size) if size < 0xFF else _LONG.pack(tag, 0xFF, size)


def _encode(value, out: bytearray, depth: int) -> None:
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8", "surrogatepass")
        _head(out, b"s", len(data))
        out += data
    elif kind is int:
        size = value.bit_length() // 8 + 1
        _head(out, b"i", size)
        out += value.to_bytes(size, "big", signed=True)
    elif value is None:
        out += b"N"
    elif kind is bool:
        out += b"T" if value else b"F"
    elif kind is dict or kind is list or kind is tuple:
        if depth >= MAX_NESTING:
            raise ValueError(f"message nests deeper than {MAX_NESTING} containers")
        if kind is dict:
            _head(out, b"d", len(value))
            for key, item in value.items():
                _encode(key, out, depth + 1)
                _encode(item, out, depth + 1)
        else:
            _head(out, b"l" if kind is list else b"t", len(value))
            for item in value:
                _encode(item, out, depth + 1)
    elif kind is bytes or kind is bytearray:
        _head(out, b"b", len(value))
        out += value
    elif kind is float:
        out += _FLOAT.pack(b"f", value)
    else:
        raise TypeError(f"{kind.__name__} values cannot travel on the wire")


def decode_value(data: bytes, start: int = 0):
    """The one value encoded in ``data[start:]``; :class:`FrameError`
    on anything malformed, trailing bytes included."""
    value, end = _decode(data, start, 0)
    if end != len(data):
        raise FrameError(f"{len(data) - end} trailing byte(s) after the message")
    return value


def _sized(data: bytes, pos: int, unit: int) -> "tuple[int, int]":
    """Read a size at *pos*; it must fit the bytes left when each
    counted element takes at least *unit* bytes."""
    if pos >= len(data):
        raise FrameError("message truncated before a size")
    size = data[pos]
    pos += 1
    if size == 0xFF:
        if pos + 4 > len(data):
            raise FrameError("message truncated inside a size")
        (size,) = _U32.unpack_from(data, pos)
        pos += 4
    if size * unit > len(data) - pos:
        raise FrameError(f"size {size} runs past the end of the message")
    return size, pos


def _decode(data: bytes, pos: int, depth: int):
    if pos >= len(data):
        raise FrameError("message truncated before a value")
    tag = data[pos]
    pos += 1
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], pos
    if tag in b"sib":
        size, pos = _sized(data, pos, 1)
        raw = data[pos:pos + size]
        if tag == 0x69:  # i
            return int.from_bytes(raw, "big", signed=True), pos + size
        if tag == 0x62:  # b
            return raw, pos + size
        try:
            return str(raw, "utf-8", "surrogatepass"), pos + size
        except UnicodeDecodeError as exc:
            raise FrameError(f"string is not UTF-8: {exc}") from None
    if tag in b"ltd":
        if depth >= MAX_NESTING:
            raise FrameError(f"message nests deeper than {MAX_NESTING} containers")
        width = 2 if tag == 0x64 else 1  # d: a key and a value per entry
        size, pos = _sized(data, pos, width)
        items = []
        for _ in range(size * width):
            item, pos = _decode(data, pos, depth + 1)
            items.append(item)
        if tag == 0x6C:  # l
            return items, pos
        if tag == 0x74:  # t
            return tuple(items), pos
        try:
            return dict(zip(items[::2], items[1::2])), pos
        except TypeError as exc:
            raise FrameError(f"dict key is unhashable: {exc}") from None
    if tag == 0x66:  # f
        if pos + 8 > len(data):
            raise FrameError("message truncated inside a float")
        return _FLOAT.unpack_from(data, pos - 1)[1], pos + 8
    raise FrameError(f"unknown value tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# frames


def encode_message(message, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame: length prefix + CRC32 + the codec body of
    *message*."""
    body = encode_value(message)
    if CRC_BYTES + len(body) > max_frame_bytes:
        raise FrameError(
            f"outgoing frame of {CRC_BYTES + len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte cap"
        )
    return _HEADER.pack(CRC_BYTES + len(body), zlib.crc32(body)) + body


def decode_message(payload: bytes):
    """Check the CRC of one frame payload and decode its body.

    Raises :class:`FrameError` on a checksum mismatch or a body the
    codec rejects; the value may be of any encodable type (a protocol
    decides what a message must be).
    """
    if len(payload) < CRC_BYTES:
        raise FrameError("frame too short to carry a CRC32")
    (crc,) = _U32.unpack_from(payload)
    if zlib.crc32(memoryview(payload)[CRC_BYTES:]) != crc:
        raise FrameError("frame failed its CRC32 (corrupted in flight)")
    return decode_value(payload, CRC_BYTES)


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


# ---------------------------------------------------------------------------
# the client round trip


class FramedClient:
    """One framed connection to a daemon: connect (optionally under a
    :class:`BackoffPolicy`), bounded request/reply round trips, byte
    counters, and a context manager.

    Subclasses name their ``peer`` (it appears in every error) and may
    raise ``default_timeout`` and ``max_frame_bytes``.  A reply that
    does not arrive within the round trip's timeout raises
    :class:`TransportTimeout`; every other transport failure a plain
    :class:`TransportError` (:class:`FrameError` for a bad frame).
    """

    peer = "peer"
    default_timeout = 10.0
    max_frame_bytes = MAX_FRAME_BYTES

    def __init__(self, address: "tuple[str, int]", timeout: "float | None" = None):
        import socket

        self.timeout = self.default_timeout if timeout is None else timeout
        self._sock = socket.create_connection(address, timeout=self.timeout)
        self._decoder = FrameDecoder(self.max_frame_bytes)
        self.bytes_sent = 0
        self.bytes_received = 0

    @classmethod
    def connect(
        cls,
        address: "tuple[str, int]",
        *,
        timeout: "float | None" = None,
        policy: "BackoffPolicy | None" = None,
        sleep=time.sleep,
        **backoff,
    ):
        """Connect with capped, seeded exponential backoff + jitter:
        *policy*, or one built from the :class:`BackoffPolicy` fields
        passed as keywords.  A constructor that fails with a transport
        error (a handshake that times out) is retried like a refused
        connect."""
        policy = policy or BackoffPolicy(**backoff)
        return policy.call(
            lambda: cls(address, timeout=timeout),
            retry_on=(OSError, TransportError),
            sleep=sleep,
            describe=f"could not connect to {cls.peer} at {address[0]}:{address[1]}",
        )

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, message: dict, timeout: "float | None" = None) -> dict:
        """One round trip; *timeout* (default: the connection's) bounds
        the wait for the reply."""
        return self.send_frame(encode_message(message, self.max_frame_bytes), timeout)

    def send_frame(self, wire: bytes, timeout: "float | None" = None) -> dict:
        """Send ready-made frame bytes and return the decoded reply."""
        timeout = self.timeout if timeout is None else timeout
        self._sock.settimeout(timeout)
        try:
            self._sock.sendall(wire)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.bytes_sent += len(wire)
        frames: list[bytes] = []
        while not frames:
            try:
                chunk = self._sock.recv(65536)
            except TimeoutError as exc:
                raise TransportTimeout(
                    f"{self.peer} request timed out after {timeout:g}s"
                ) from exc
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                raise TransportError(f"{self.peer} closed the connection")
            self.bytes_received += len(chunk)
            frames = self._decoder.feed(chunk)
        reply = decode_message(frames[0])
        if not isinstance(reply, dict):
            raise FrameError(f"{self.peer} reply is a {type(reply).__name__}, not a dict")
        return reply


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
