"""The one segment container behind trace files and checkpoint sidecars.

Both are a magic and a u16 version, then length-framed, CRC32-checked
segments closed by a footer segment::

    magic | u16 version | segment* | footer-segment
    segment := kind(1B) [codec(1B)] payload_len(u32le) crc32(u32le) payload

This host-side I/O, which the guest never sees, is written, sealed and
scanned here; each format owns what its payloads mean and turns a
:class:`Stop` into its own typed error.  A :class:`Layout` is fixed by a
format and its version: traces (v3.1/v3.2) carry a codec byte and the
sidecar has none.  A crash leaves nothing at the final name and
a tmp file that is a prefix of whole segments, which :func:`scan`
keeps; it stops at the first damage, because after a broken length
field the next segment boundary cannot be trusted.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

from repro.vm.errors import VMError

#: why :func:`scan` stopped (:attr:`Stop.reason`)
TRAILING = "trailing data"
TORN_HEADER = "torn header"
UNKNOWN_KIND = "unknown kind"
BAD_CODEC = "bad codec"
TOO_LONG = "implausible length"
TORN_PAYLOAD = "torn payload"
BAD_CRC = "CRC mismatch"


class Layout(NamedTuple):
    """How one format version frames its segments."""

    magic: bytes
    version: int
    kinds: frozenset
    footer: bytes  # the kind that closes the container
    max_payload: int  # so a corrupted length cannot demand a giant read
    codec_byte: bool = False
    #: ``(kind, codec) -> bool``: the codecs the format accepts per kind
    codec_ok: Callable[[bytes, int], bool] | None = None

    @property
    def start(self) -> int:
        """Offset of the first segment."""
        return len(self.magic) + 2

    @property
    def header_bytes(self) -> int:
        return 10 if self.codec_byte else 9

    def header(self) -> bytes:
        return self.magic + self.version.to_bytes(2, "little")

    def frame(self, kind: bytes, payload: bytes, codec: int = 0) -> bytes:
        head = kind + bytes([codec]) if self.codec_byte else kind
        return b"".join((head, len(payload).to_bytes(4, "little"),
                         zlib.crc32(payload).to_bytes(4, "little"), payload))


class Segment(NamedTuple):
    kind: bytes
    codec: int
    payload: bytes
    offset: int  # where its header starts
    end: int  # just past its payload


class Stop(NamedTuple):
    """Where and why :func:`scan` stopped short of the end of the data."""

    reason: str
    offset: int  # where the damaged segment (or the trailing data) starts
    index: int  # intact segments before it
    kind: bytes = b""
    codec: int = 0
    length: int = 0  # the declared payload length
    have: int = 0  # bytes present of the header, the payload or the trailer


def scan(data: bytes, layout: Layout) -> "tuple[list[Segment], Stop | None]":
    """The intact segments of *data* in order, and why the scan stopped
    before the end of the data (None: it did not).  The magic and
    version are the format's to check first."""
    hdr = layout.header_bytes
    len_at = hdr - 8
    pos = layout.start
    found: list[Segment] = []
    while pos < len(data):
        if found and found[-1].kind == layout.footer:
            return found, Stop(TRAILING, pos, len(found), have=len(data) - pos)
        if pos + hdr > len(data):
            return found, Stop(TORN_HEADER, pos, len(found), have=len(data) - pos)
        kind = data[pos:pos + 1]
        codec = data[pos + 1] if layout.codec_byte else 0
        length = int.from_bytes(data[pos + len_at:pos + len_at + 4], "little")
        payload = b""
        if kind not in layout.kinds:
            reason = UNKNOWN_KIND
        elif layout.codec_ok is not None and not layout.codec_ok(kind, codec):
            reason = BAD_CODEC
        elif length > layout.max_payload:
            reason = TOO_LONG
        else:
            payload = data[pos + hdr:pos + hdr + length]
            crc = int.from_bytes(data[pos + len_at + 4:pos + hdr], "little")
            reason = (TORN_PAYLOAD if len(payload) != length
                      else BAD_CRC if zlib.crc32(payload) != crc else None)
        if reason is not None:
            return found, Stop(reason, pos, len(found), kind, codec, length, len(payload))
        found.append(Segment(kind, codec, payload, pos, pos + hdr + length))
        pos += hdr + length
    return found, None


def boundaries(data: bytes, layout: Layout) -> list[int]:
    """Byte offsets just after each intact segment: where a tmp file can
    end when its writer dies between two appends."""
    return [segment.end for segment in scan(data, layout)[0]]


class SegmentWriter:
    """Streams segments to ``<path>.tmp`` and seals them at *path*.

    Each :meth:`append` reaches the OS before it returns, on the
    caller's thread, so a file error raises there.  Appending or sealing
    after the seal is an error.  As a context manager the writer
    abandons the tmp file on the way out unless it was sealed.
    """

    def __init__(self, path: str | Path, layout: Layout):
        self.path = Path(path)
        self.tmp_path = Path(f"{path}.tmp")
        self.layout = layout
        self.sealed = False
        self._file = self.tmp_path.open("wb")
        self._file.write(layout.header())
        self._file.flush()

    def append(self, kind: bytes, payload: bytes, codec: int = 0) -> None:
        if self.sealed:
            raise VMError(f"{self.path} is already sealed")
        self._file.write(self.layout.frame(kind, payload, codec))
        self._file.flush()

    def retag(self, layout: Layout) -> None:
        """Rewrite the tmp file's version for *layout*, another version
        of the same framing: for a format whose version depends on what
        the stream turned out to hold, settled before the seal."""
        if (layout.magic, layout.codec_byte) != (self.layout.magic, self.layout.codec_byte):
            raise VMError(f"cannot retag {self.path} to a different framing")
        self._file.seek(0)
        self._file.write(layout.header())
        self._file.seek(0, os.SEEK_END)
        self.layout = layout

    def seal(self) -> None:
        """fsync, close and rename onto the final path, which therefore
        never holds a torn file."""
        if self.sealed:
            raise VMError(f"{self.path} is already sealed")
        os.fsync(self._file.fileno())
        self._file.close()
        os.replace(self.tmp_path, self.path)
        self.sealed = True

    def abandon(self) -> None:
        """Close without sealing: the tmp file keeps every appended
        segment (the crash outcome)."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.abandon()
