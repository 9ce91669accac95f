"""Trace encoding, crash-consistent persistence, and the guest-heap buffers.

A trace has **two independent word streams**, mirroring the paper's
footnote 7 ("logging data for non-reproducible events such as reading the
wall clock need be done independently of thread switch information"):

* the **switch stream** — bare ``nyp`` yield-point deltas, one per
  preemptive thread switch (Figure 2);
* the **value stream** — tagged records for wall-clock reads, native-call
  results and callback parameters (see :mod:`repro.core.events`).

Each stream is cut into segments, each stored under the **group codec**
(see below).  In-flight words pass through **guest heap ``[I`` buffers**
— the same array objects, allocated at the same points, in both record
mode (instrumentation *writes*, flushes to the host when full) and
replay mode (instrumentation *reads*, refills from the host when
empty).  That is the paper's "symmetry in allocation": the buffers are
DejaVu's biggest heap side effect, and making them identical in both
modes keeps the allocation stream — hence GC timing, object addresses,
and identity hashes — reproducible.

Persistence: **format v3.1** (see DESIGN.md).  The file is a header
followed by length-framed, CRC32-checksummed segments and a sealed
footer::

    "DJVU" u16=769 | segment* | footer-segment
    segment := kind(1B) codec(1B) payload_len(u32le) crc32(u32le) payload

The codec byte is fixed per segment kind: stream segments are always
group-coded (``0x01``) and meta and footer segments are always raw
literals (``0x00``); anything else is refused.  The group codec keeps
the smallest of three sub-encodings per segment — plain zig-zag
varints, frame-of-reference bit packing and canonical Huffman — so
narrow or repetitive delta streams shrink while adversarial streams
never inflate by more than one mode byte.

Record mode streams segments to ``trace.djv.tmp`` and atomically renames
on a clean end, so an interrupted record leaves either nothing or a
salvageable prefix (:meth:`TraceLog.salvage`).  The framing, the seal
and the prefix scan are :mod:`repro.core.segments`, the one container
traces share with checkpoint sidecars; this module owns what the
payloads mean.  Each segment is encoded, framed and written on the
recording thread when its sink fills: under the GIL a second thread
could not overlap the pure-Python encoder with guest execution anyway.

Segment framing is pure host-side I/O: the guest-heap buffers, their
capacities and their flush points are identical in both modes and
unaware of it, preserving the allocation symmetry.  Only v3.1 and v3.2
files load; the older v2 and v3 headers are refused as an unsupported
version.
"""

from __future__ import annotations

import ast
import heapq
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core import segments
from repro.core.segments import Layout, SegmentWriter, Stop, scan
from repro.vm.errors import TraceFormatError, VMError
from repro.vm.layout import HEADER_WORDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import VirtualMachine

MAGIC = b"DJVU"
#: the version this build writes: v3.1, stored as (major << 8) | minor
FORMAT_VERSION = (3 << 8) | 1
#: v3.2 — written only for slim traces: same framing as v3.1 plus the
#: SEG_SLIM sidecar stream and slim footer fields
FORMAT_VERSION_SLIM = (3 << 8) | 2
#: versions this build can read: v3.1 and the v3.2 slim sidecar
READABLE_VERSIONS = (FORMAT_VERSION, FORMAT_VERSION_SLIM)

#: segment kinds
SEG_META = b"M"
SEG_SWITCH = b"S"
SEG_VALUE = b"V"
SEG_SLIM = b"L"
SEG_FOOTER = b"F"
_SEGMENT_KINDS = (SEG_META, SEG_SWITCH, SEG_VALUE, SEG_SLIM, SEG_FOOTER)
#: sanity bound so a corrupted length field cannot demand a giant read
MAX_SEGMENT_BYTES = 1 << 26
#: record-mode words per on-disk segment (host-side knob; guest-invisible)
SEGMENT_WORDS = 4096

#: the segment codec byte, fixed per kind
CODEC_RAW = 0  # meta and footer: the literal bytes
CODEC_GROUP = 1  # stream segments: the group codec

_STREAM_OF_KIND = {SEG_SWITCH: "switch", SEG_VALUE: "value",
                   SEG_SLIM: "slim", SEG_META: "meta", SEG_FOOTER: "footer"}


def _codec_ok(kind: bytes, codec: int) -> bool:
    """Stream segments are group-coded; meta and footer are raw."""
    return codec == (CODEC_RAW if kind in (SEG_META, SEG_FOOTER) else CODEC_GROUP)


#: the segment layout of each readable version
LAYOUTS = {
    version: Layout(MAGIC, version, frozenset(_SEGMENT_KINDS), SEG_FOOTER,
                    MAX_SEGMENT_BYTES, codec_byte=True, codec_ok=_codec_ok)
    for version in READABLE_VERSIONS
}


def config_fingerprint(config) -> str:
    """The behaviour-affecting VM sizing as a short comparable string.

    Heap and stack sizing change GC timing and stack-growth events, so a
    replay under a different fingerprint can diverge for reasons that have
    nothing to do with the trace.  Engine toggles are deliberately
    excluded: the EngineConfig contract makes them guest-invisible.
    """
    return (
        f"heap={config.semispace_words}"
        f";stack={config.initial_stack_words}/{config.max_stack_words}"
        f";maxcycles={config.max_cycles}"
    )


# ---------------------------------------------------------------------------
# varint primitives


def zigzag(n: int) -> int:
    # Bit-identical to the classic `(n << 1) ^ (n >> 63)` for every value
    # that fits a 64-bit word, but correct for arbitrary-precision ints
    # too: the shift form assumes `n >> 63 == -1` for negatives, which
    # fails below -(2**63) and yields a negative "unsigned" code that
    # write_varint can never terminate on.
    return -2 * n - 1 if n < 0 else 2 * n


def unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def write_varint(out: bytearray, n: int) -> None:
    z = zigzag(n)
    while True:
        b = z & 0x7F
        z >>= 7
        if z:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_varint(data: bytes, pos: int, stream: str = "trace") -> tuple[int, int]:
    z = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise TraceFormatError(
                "truncated varint (continuation bit set at end of data)",
                stream=stream,
                offset=start,
            )
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not (b & 0x80):
            return unzigzag(z), pos
        shift += 7


def _write_uvarint(out: bytearray, n: int) -> None:
    """Unsigned varint (no zigzag) — counts, widths, run lengths."""
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_uvarint(data: bytes, pos: int, stream: str = "group") -> tuple[int, int]:
    z = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise TraceFormatError(
                "truncated varint (continuation bit set at end of data)",
                stream=stream,
                offset=start,
            )
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not (b & 0x80):
            return z, pos
        shift += 7


def encode_words(words: list[int]) -> bytes:
    out = bytearray()
    for w in words:
        write_varint(out, w)
    return bytes(out)


def decode_words(data: bytes, stream: str = "trace") -> list[int]:
    words = []
    pos = 0
    while pos < len(data):
        w, pos = read_varint(data, pos, stream)
        words.append(w)
    return words


# ---------------------------------------------------------------------------
# the group codec
#
# One segment's words, encoded as a 1-byte sub-mode tag plus the mode's
# payload.  The encoder tries every applicable mode and keeps the
# smallest (ties break toward the lower mode number), so the choice is
# deterministic and a segment never inflates by more than the tag byte.
# All modes accept arbitrary-precision ints — including the zigzag class
# below -(2**63) that fixed-width shifts mishandle.

GROUP_RAW = 0  # plain zigzag varints
# mode 1 is unassigned: modes keep their numbers so stored payloads stay valid
GROUP_PACK = 2  # frame-of-reference fixed-width bit packing
GROUP_HUFF = 3  # canonical Huffman over the distinct word values
#: decoder table width cap; the encoder falls back when a code exceeds it
MAX_HUFF_CODE_LEN = 32
#: ceiling on the declared word count of one group (matches the segment cap)
_MAX_GROUP_WORDS = MAX_SEGMENT_BYTES


def _encode_group_pack(words: list[int]) -> bytes:
    """``n, base, width, packed-bits`` — frame-of-reference packing.

    Every word is stored as ``w - min(words)`` in ``width`` fixed bits,
    MSB first.  ``base`` and ``width`` are varints, so arbitrary
    magnitudes (and the below ``-(2**63)`` zigzag class) pack fine.
    """
    out = bytearray([GROUP_PACK])
    n = len(words)
    _write_uvarint(out, n)
    if n == 0:
        return bytes(out)
    base = min(words)
    width = max((w - base).bit_length() for w in words)
    write_varint(out, base)
    _write_uvarint(out, width)
    acc = 0
    nacc = 0
    for w in words:
        acc = (acc << width) | (w - base)
        nacc += width
        while nacc >= 8:
            nacc -= 8
            out.append((acc >> nacc) & 0xFF)
            acc &= (1 << nacc) - 1
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out)


def _decode_group_pack(data: bytes, pos: int, n: int, stream: str) -> list[int]:
    base, pos = read_varint(data, pos, stream)
    width, pos = _read_uvarint(data, pos, stream)
    if width > 8 * len(data):
        raise TraceFormatError(
            f"implausible pack width {width} bits", stream=stream, offset=pos
        )
    words = []
    acc = 0
    nacc = 0
    mask = (1 << width) - 1
    for _ in range(n):
        while nacc < width:
            if pos >= len(data):
                raise TraceFormatError(
                    "truncated packed group (bitstream ends early)",
                    stream=stream, offset=pos,
                )
            acc = (acc << 8) | data[pos]
            pos += 1
            nacc += 8
        shift = nacc - width
        words.append(base + ((acc >> shift) & mask))
        acc &= (1 << shift) - 1
        nacc = shift
    return words


def _huffman_code_lengths(freqs: "list[tuple[int, int]]") -> "dict[int, int]":
    """Code length per symbol for ``(symbol, count)`` pairs (len >= 2)."""
    heap = []
    for tiebreak, (sym, count) in enumerate(freqs):
        heap.append((count, tiebreak, [sym]))
    heapq.heapify(heap)
    lengths = {sym: 0 for sym, _ in freqs}
    tiebreak = len(heap)
    while len(heap) > 1:
        ca, _, syms_a = heapq.heappop(heap)
        cb, _, syms_b = heapq.heappop(heap)
        merged = syms_a + syms_b
        for s in merged:
            lengths[s] += 1
        heapq.heappush(heap, (ca + cb, tiebreak, merged))
        tiebreak += 1
    return lengths


def _canonical_codes(lengths: "dict[int, int]") -> "dict[int, tuple[int, int]]":
    """Canonical (length, code) per symbol from code lengths."""
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes = {}
    code = 0
    prev_len = ordered[0][1]
    for sym, length in ordered:
        code <<= length - prev_len
        prev_len = length
        codes[sym] = (length, code)
        code += 1
    return codes


def _encode_group_huff(words: list[int]) -> "bytes | None":
    """``n, n_syms, sorted-symbol-deltas, code-lengths, bitstream``.

    Canonical Huffman over the distinct word values: the header carries
    the sorted symbol alphabet (delta-coded) and one length byte per
    symbol, which determines the codes uniquely.  Returns ``None`` when
    a code would exceed :data:`MAX_HUFF_CODE_LEN` (the pick-best caller
    just skips the mode).
    """
    n = len(words)
    if n == 0:
        return None
    counts: dict[int, int] = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    syms = sorted(counts)
    out = bytearray([GROUP_HUFF])
    _write_uvarint(out, n)
    _write_uvarint(out, len(syms))
    prev = 0
    for i, s in enumerate(syms):
        if i == 0:
            write_varint(out, s)
        else:
            _write_uvarint(out, s - prev)  # strictly ascending, so >= 1
        prev = s
    if len(syms) == 1:
        return bytes(out)  # zero-bit codes: the count alone decodes it
    lengths = _huffman_code_lengths([(s, counts[s]) for s in syms])
    if max(lengths.values()) > MAX_HUFF_CODE_LEN:
        return None
    for s in syms:
        out.append(lengths[s])
    codes = _canonical_codes(lengths)
    acc = 0
    nacc = 0
    for w in words:
        length, code = codes[w]
        acc = (acc << length) | code
        nacc += length
        while nacc >= 8:
            nacc -= 8
            out.append((acc >> nacc) & 0xFF)
            acc &= (1 << nacc) - 1
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out)


def _decode_group_huff(data: bytes, pos: int, n: int, stream: str) -> list[int]:
    n_syms, pos = _read_uvarint(data, pos, stream)
    if n_syms == 0 or n_syms > n:
        raise TraceFormatError(
            f"undecodable Huffman group ({n_syms} symbols for {n} words)",
            stream=stream, offset=pos, format_class=TraceFormatError.CORRUPT_SEGMENT,
        )
    syms = []
    for i in range(n_syms):
        if i == 0:
            s, pos = read_varint(data, pos, stream)
        else:
            d, pos = _read_uvarint(data, pos, stream)
            if d == 0:
                raise TraceFormatError(
                    "undecodable Huffman group (duplicate symbol)",
                    stream=stream, offset=pos,
                    format_class=TraceFormatError.CORRUPT_SEGMENT,
                )
            s = syms[-1] + d
        syms.append(s)
    if n_syms == 1:
        return [syms[0]] * n
    if pos + n_syms > len(data):
        raise TraceFormatError(
            "truncated Huffman group (code-length table ends early)",
            stream=stream, offset=pos,
        )
    lengths = {}
    for s in syms:
        length = data[pos]
        pos += 1
        if length == 0 or length > MAX_HUFF_CODE_LEN:
            raise TraceFormatError(
                f"undecodable Huffman group (code length {length})",
                stream=stream, offset=pos - 1,
                format_class=TraceFormatError.CORRUPT_SEGMENT,
            )
        lengths[s] = length
    by_code = {lc: s for s, lc in _canonical_codes(lengths).items()}
    if len(by_code) != n_syms:
        raise TraceFormatError(
            "undecodable Huffman group (code lengths collide)",
            stream=stream, offset=pos, format_class=TraceFormatError.CORRUPT_SEGMENT,
        )
    words = []
    acc = 0
    nacc = 0
    length = 0
    code = 0
    while len(words) < n:
        if nacc == 0:
            if pos >= len(data):
                raise TraceFormatError(
                    "truncated Huffman group (bitstream ends early)",
                    stream=stream, offset=pos,
                )
            acc = data[pos]
            pos += 1
            nacc = 8
        nacc -= 1
        code = (code << 1) | ((acc >> nacc) & 1)
        length += 1
        if length > MAX_HUFF_CODE_LEN:
            raise TraceFormatError(
                "undecodable Huffman group (no code matches)",
                stream=stream, offset=pos,
                format_class=TraceFormatError.CORRUPT_SEGMENT,
            )
        sym = by_code.get((length, code))
        if sym is not None:
            words.append(sym)
            length = 0
            code = 0
    return words


def encode_group(words: list[int]) -> bytes:
    """Encode one segment's words: the smallest of the three sub-modes."""
    best = bytes([GROUP_RAW]) + encode_words(words)
    for candidate in (_encode_group_pack(words), _encode_group_huff(words)):
        if candidate is not None and len(candidate) < len(best):
            best = candidate
    return best


def decode_group(data: bytes, stream: str = "trace") -> list[int]:
    """Decode a group-codec payload (mode byte + mode payload)."""
    if not data:
        raise TraceFormatError("empty group payload", stream=stream, offset=0)
    mode = data[0]
    if mode == GROUP_RAW:
        return decode_words(data[1:], stream)
    if mode not in (GROUP_PACK, GROUP_HUFF):
        raise TraceFormatError(
            f"unknown group-codec mode {mode}", stream=stream, offset=0,
            format_class=TraceFormatError.CODEC_MISMATCH,
        )
    n, pos = _read_uvarint(data, 1, stream)
    if n > _MAX_GROUP_WORDS:
        raise TraceFormatError(
            f"implausible group length {n} (cap is {_MAX_GROUP_WORDS})",
            stream=stream, offset=pos,
        )
    if n == 0:
        return []
    decode = _decode_group_pack if mode == GROUP_PACK else _decode_group_huff
    return decode(data, pos, n, stream)


# ---------------------------------------------------------------------------
# meta encoding (repr of sorted items, parsed back as a Python literal —
# never evaluated, so a planted segment runs no code)


def _encode_meta(meta: dict) -> bytes:
    return repr(sorted(meta.items())).encode()


def _decode_meta(blob: bytes, stream: str = "meta") -> dict:
    try:
        return dict(ast.literal_eval(blob.decode()))
    except Exception as exc:
        raise TraceFormatError(
            f"undecodable {stream} blob: {exc}", stream=stream, offset=0,
            format_class=TraceFormatError.CORRUPT_SEGMENT,
        ) from exc


# ---------------------------------------------------------------------------
# the persisted trace


@dataclass
class SalvageReport:
    """What :meth:`TraceLog.salvage` found in a torn file."""

    intact_segments: int = 0
    switch_segments: int = 0
    value_segments: int = 0
    slim_segments: int = 0
    sealed: bool = False
    stopped_at: int | None = None  # byte offset of the first damage
    error: str | None = None  # why scanning stopped (None = clean EOF)

    def describe(self) -> str:
        if self.sealed:
            return "file is sealed and intact (no salvage needed)"
        where = f" at byte {self.stopped_at}" if self.stopped_at is not None else ""
        why = f": {self.error}" if self.error else " (file ends mid-record)"
        slim = f", {self.slim_segments} slim" if self.slim_segments else ""
        return (
            f"salvaged {self.intact_segments} intact segments "
            f"({self.switch_segments} switch, {self.value_segments} value{slim}), "
            f"stopped{where}{why}"
        )


@dataclass
class TraceLog:
    """A complete recorded execution, ready to drive a replay."""

    switches: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: v3.2 slim sidecar: drop-run triples, empty for full traces
    slim: list[int] = field(default_factory=list)
    #: set by :meth:`salvage` — None for cleanly loaded traces
    salvage_report: "SalvageReport | None" = None

    @property
    def encoded_size_bytes(self) -> int:
        return (len(encode_words(self.switches))
                + len(encode_words(self.values))
                + len(encode_words(self.slim)))

    @property
    def n_switch_records(self) -> int:
        return len(self.switches)

    @property
    def n_value_words(self) -> int:
        return len(self.values)

    @property
    def truncated(self) -> bool:
        return bool(self.meta.get("truncated"))

    @property
    def slim_info(self) -> dict | None:
        """The ``meta["slim"]`` block as a dict, or None for full traces.

        Present iff the switch stream is slimmed: keys ``model`` (the
        timer reconstruction spec), ``kept``/``dropped`` (delta counts)
        and ``sync_total`` (the end-of-run sync-order witness).
        """
        block = self.meta.get("slim")
        return dict(block) if block is not None else None

    # -- writing -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The sealed v3.1 (v3.2 when slim) bytes a :class:`TraceWriter`
        fed these streams writes: each stream's full segments in turn,
        then the partial tails, meta and footer.  Deterministic in the
        streams and meta: equal traces give equal bytes."""
        layout = self._layout()
        out = [layout.header()]
        self._write_segments(lambda *segment: out.append(layout.frame(*segment)), layout)
        return b"".join(out)

    def save(self, path: str | Path) -> None:
        """Persist :meth:`to_bytes` atomically: tmp file, fsync, rename."""
        layout = self._layout()
        with SegmentWriter(path, layout) as out:
            self._write_segments(out.append, layout)
            out.seal()

    def _layout(self) -> Layout:
        slim = bool(self.slim) or "slim" in self.meta
        return LAYOUTS[FORMAT_VERSION_SLIM if slim else FORMAT_VERSION]

    def _write_segments(self, append: Callable, layout: Layout) -> None:
        segs = _Segments(append)
        streams = {SEG_SWITCH: self.switches, SEG_VALUE: self.values, SEG_SLIM: self.slim}
        for kind, words in streams.items():
            for lo in range(0, len(words) - len(words) % SEGMENT_WORDS, SEGMENT_WORDS):
                segs.stream(kind, words[lo:lo + SEGMENT_WORDS])
        for kind, words in streams.items():
            if len(words) % SEGMENT_WORDS:
                segs.stream(kind, words[len(words) - len(words) % SEGMENT_WORDS:])
        segs.seal(self.meta, {kind: len(words) for kind, words in streams.items()},
                  layout.version == FORMAT_VERSION_SLIM)

    # -- reading -----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "TraceLog":
        """Load a sealed trace; any damage raises :class:`TraceFormatError`."""
        log, report = cls._read(path, salvage=False)
        return log

    @classmethod
    def salvage(cls, path: str | Path) -> "TraceLog":
        """Recover every intact segment from a (possibly torn) trace file.

        Returns a :class:`TraceLog` whose streams hold the surviving
        prefix.  If the file turns out to be sealed and intact, the result
        equals :meth:`load`; otherwise ``meta["truncated"]`` is set and
        ``salvage_report`` says where scanning stopped.  Files that are
        not DejaVu traces at all (bad magic, unreadable version) are not
        salvageable and still raise :class:`TraceFormatError`.
        """
        log, report = cls._read(path, salvage=True)
        log.salvage_report = report
        if not report.sealed:
            log.meta["truncated"] = True
        return log

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceLog":
        """Parse sealed trace bytes (the inverse of :meth:`to_bytes`); any
        damage raises :class:`TraceFormatError`, exactly as :meth:`load`."""
        return cls._parse(data, salvage=False)[0]

    @classmethod
    def _read(cls, path: str | Path, *, salvage: bool) -> "tuple[TraceLog, SalvageReport]":
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise TraceFormatError(f"cannot read trace: {exc}", stream="header") from exc
        return cls._parse(data, salvage=salvage, name=path.name)

    @classmethod
    def _parse(cls, data: bytes, *, salvage: bool,
               name: str = "trace bytes") -> "tuple[TraceLog, SalvageReport]":
        if len(data) == 0:
            raise TraceFormatError("empty file (not a DejaVu trace)",
                                   stream="header", offset=0,
                                   format_class=TraceFormatError.NOT_A_TRACE)
        if data[:4] != MAGIC:
            raise TraceFormatError(
                f"not a DejaVu trace: {name} (bad magic {data[:4]!r})",
                stream="header", offset=0, format_class=TraceFormatError.NOT_A_TRACE,
            )
        if len(data) < 6:
            raise TraceFormatError("header torn before version field",
                                   stream="header", offset=4)
        version = int.from_bytes(data[4:6], "little")
        if version not in READABLE_VERSIONS:
            raise TraceFormatError(
                f"unsupported trace version {version} "
                f"(this build reads {', '.join(map(str, READABLE_VERSIONS))})",
                stream="header", offset=4, format_class=TraceFormatError.VERSION_SKEW,
            )
        return cls._read_segments(data, version=version, salvage=salvage)

    @classmethod
    def _read_segments(cls, data: bytes, *, version: int,
                       salvage: bool) -> "tuple[TraceLog, SalvageReport]":
        streams: dict[bytes, list[int]] = {SEG_SWITCH: [], SEG_VALUE: [], SEG_SLIM: []}
        meta: dict = {}
        footer: dict | None = None
        report = SalvageReport()
        stream_crcs = {SEG_SWITCH: 0, SEG_VALUE: 0, SEG_SLIM: 0}
        seg_counts = {SEG_SWITCH: 0, SEG_VALUE: 0, SEG_SLIM: 0}
        error: TraceFormatError | None = None
        layout = LAYOUTS[version]
        found, stop = scan(data, layout)
        for kind, _, payload, _, _ in found:
            try:
                if kind in streams:
                    streams[kind].extend(decode_group(payload, _STREAM_OF_KIND[kind]))
                    stream_crcs[kind] = zlib.crc32(payload, stream_crcs[kind])
                    seg_counts[kind] += 1
                elif kind == SEG_META:
                    meta.update(_decode_meta(payload))
                else:  # footer
                    footer = _decode_meta(payload, "footer")
            except TraceFormatError as exc:
                error = exc
                break
            report.intact_segments += 1
        if error is None and stop is not None:
            error = _scan_error(stop, layout)

        switches, values, slim = streams.values()
        report.switch_segments, report.value_segments, report.slim_segments = (
            seg_counts.values()
        )
        if error is not None:
            report.stopped_at = error.offset
            report.error = str(error)
            if not salvage:
                raise error
        if footer is None:
            if not salvage:
                raise TraceFormatError(
                    "trace has no footer: the file is unsealed "
                    "(recorder died mid-run?) — try salvage",
                    stream="footer", offset=len(data),
                )
        else:
            cls._check_footer(footer, switches, values, slim, report, stream_crcs)
            report.sealed = error is None
        return cls(switches=switches, values=values, slim=slim, meta=meta), report

    @staticmethod
    def _check_footer(footer, switches, values, slim, report, stream_crcs) -> None:
        checks = [
            ("n_switch_words", len(switches)),
            ("n_value_words", len(values)),
            ("n_switch_segments", report.switch_segments),
            ("n_value_segments", report.value_segments),
            ("switch_crc", stream_crcs[SEG_SWITCH]),
            ("value_crc", stream_crcs[SEG_VALUE]),
        ]
        if "n_slim_words" in footer or report.slim_segments:
            checks += [
                ("n_slim_words", len(slim)),
                ("n_slim_segments", report.slim_segments),
                ("slim_crc", stream_crcs[SEG_SLIM]),
            ]
        for key, got in checks:
            want = footer.get(key)
            if want != got:
                raise TraceFormatError(
                    f"footer mismatch on {key}: footer says {want!r}, "
                    f"file holds {got!r}",
                    stream="footer", format_class=TraceFormatError.CORRUPT_SEGMENT,
                )


_TORN, _CORRUPT = TraceFormatError.TORN_TAIL, TraceFormatError.CORRUPT_SEGMENT

#: what the reader says where :func:`~repro.core.segments.scan` stopped,
#: and the doctor's class for it: damage to bytes that are there is
#: corruption, bytes that stop early are a torn tail
_SCAN_ERRORS = {
    segments.TRAILING: ("{have} bytes of trailing data after the footer", _CORRUPT),
    segments.TORN_HEADER: (
        "torn segment header (segment {index}: {have} of {hdr} header bytes)", _TORN),
    segments.UNKNOWN_KIND: ("unknown segment kind {kind!r} (segment {index})", _CORRUPT),
    segments.BAD_CODEC: (
        "unknown segment codec 0x{codec:02x} (segment {index}, {stream} stream)",
        TraceFormatError.CODEC_MISMATCH),
    segments.TOO_LONG: (
        "implausible segment length {length} (segment {index}; cap is {cap})", _CORRUPT),
    segments.TORN_PAYLOAD: (
        "torn segment payload (segment {index}, {stream}: {have} of {length} bytes)", _TORN),
    segments.BAD_CRC: ("segment CRC mismatch (segment {index}, {stream} stream)", _CORRUPT),
}


def _scan_error(stop: Stop, layout: Layout) -> TraceFormatError:
    """The typed error for the damage :func:`~repro.core.segments.scan`
    stopped at: the codec error points at the codec byte, a torn payload
    at the payload, everything else at the segment."""
    stream = ("footer" if stop.reason == segments.TRAILING
              else _STREAM_OF_KIND.get(stop.kind, "segment"))
    offset = stop.offset + {segments.BAD_CODEC: 1,
                            segments.TORN_PAYLOAD: layout.header_bytes}.get(stop.reason, 0)
    message, format_class = _SCAN_ERRORS[stop.reason]
    message = message.format(
        stream=stream, hdr=layout.header_bytes, cap=layout.max_payload, **stop._asdict()
    )
    return TraceFormatError(message, stream=stream, offset=offset, format_class=format_class)


# ---------------------------------------------------------------------------
# trace-stats scanner


#: the group-codec sub-modes by mode byte, as ``trace-stats`` names them
GROUP_MODE_NAMES = {GROUP_RAW: "raw", GROUP_PACK: "pack", GROUP_HUFF: "huff"}


def trace_stats(path: str | Path) -> dict:
    """Per-stream encoding statistics for a sealed trace file.

    Returns a dict with ``format_version``, ``file_bytes`` and a
    ``streams`` mapping; each stream reports its entry count, segment
    count, stored (encoded) bytes, the plain-varint baseline bytes, the
    resulting compression ratio, and how many of its segments each
    group-codec mode won.  Damage raises :class:`TraceFormatError`,
    matching :meth:`TraceLog.load`.
    """
    path = Path(path)
    data = path.read_bytes()
    # validate wholesale first: stats on a damaged file would be fiction;
    # the load decodes each segment once and the counts come from its
    # streams, the sizes and modes from the framed payloads
    log, _ = TraceLog._parse(data, salvage=False, name=path.name)
    version = int.from_bytes(data[4:6], "little")
    streams = {
        name: {"entries": len(words), "segments": 0, "encoded_bytes": 0,
               # varints concatenate: the whole stream's bytes are the
               # sum of its segments'
               "raw_bytes": len(encode_words(words)),
               "modes": dict.fromkeys(GROUP_MODE_NAMES.values(), 0)}
        for name, words in (("switch", log.switches), ("value", log.values),
                            ("slim", log.slim))
    }
    for kind, _, payload, _, _ in scan(data, LAYOUTS[version])[0]:
        st = streams.get(_STREAM_OF_KIND[kind])
        if st is not None:
            st["segments"] += 1
            st["encoded_bytes"] += len(payload)
            st["modes"][GROUP_MODE_NAMES[payload[0]]] += 1
    if not streams["slim"]["segments"]:
        del streams["slim"]  # full traces report the two classic streams
    for st in streams.values():
        st["ratio"] = (
            st["raw_bytes"] / st["encoded_bytes"] if st["encoded_bytes"] else 1.0
        )
    stats = {
        "format_version": version,
        "file_bytes": len(data),
        "streams": streams,
    }
    slim_block = log.slim_info
    if slim_block is not None:
        stats["slim"] = {
            "kept": slim_block.get("kept"),
            "dropped": slim_block.get("dropped"),
            "model": slim_block.get("model"),
        }
    return stats


# ---------------------------------------------------------------------------
# crash-consistent streaming writer


class _SpillList(list):
    """A word sink that spills full segments to the writer as it grows.

    It *is* the host-side word list (``DejaVu`` appends flushed guest
    buffers into it and ``trace()`` reads it back whole); the spill is a
    side channel to disk and never mutates the list, so attaching a writer
    changes nothing the controller — let alone the guest — can observe.
    """

    def __init__(self, segments: "_Segments", kind: bytes, segment_words: int):
        super().__init__()
        self._segments = segments
        self._kind = kind
        self._segment_words = segment_words
        self._spilled = 0  # words already written to disk

    def append(self, word: int) -> None:
        super().append(word)
        if len(self) - self._spilled >= self._segment_words:
            self.spill()

    def extend(self, words) -> None:
        # spill exactly the segments word-by-word appends would have, so
        # the trace bytes do not depend on how the words arrived
        super().extend(words)
        size = self._segment_words
        while len(self) - self._spilled >= size:
            end = self._spilled + size
            self._segments.stream(self._kind, self[self._spilled:end])
            self._spilled = end

    def spill(self) -> None:
        pending = self[self._spilled:]
        if not pending:
            return
        self._segments.stream(self._kind, pending)
        self._spilled = len(self)


class _Segments:
    """Encodes one trace's segments onto *append* (``(kind, payload,
    codec)``) and keeps what its footer seals: each stream's segment
    count and running payload CRC."""

    def __init__(self, append: Callable[[bytes, bytes, int], object]):
        self.append = append
        self.crcs = {SEG_SWITCH: 0, SEG_VALUE: 0, SEG_SLIM: 0}
        self.counts = {SEG_SWITCH: 0, SEG_VALUE: 0, SEG_SLIM: 0}

    def stream(self, kind: bytes, words: list[int]) -> None:
        payload = encode_group(words)
        self.crcs[kind] = zlib.crc32(payload, self.crcs[kind])
        self.counts[kind] += 1
        self.append(kind, payload, CODEC_GROUP)

    def seal(self, meta: dict, lengths: dict, slim: bool) -> None:
        """The meta segment (when there is meta) and the footer, for
        streams of *lengths* words (keyed by segment kind)."""
        footer = {
            "n_switch_words": lengths[SEG_SWITCH],
            "n_value_words": lengths[SEG_VALUE],
            "n_switch_segments": self.counts[SEG_SWITCH],
            "n_value_segments": self.counts[SEG_VALUE],
            "switch_crc": self.crcs[SEG_SWITCH],
            "value_crc": self.crcs[SEG_VALUE],
            "config": meta.get("config"),
        }
        if slim:
            footer["n_slim_words"] = lengths[SEG_SLIM]
            footer["n_slim_segments"] = self.counts[SEG_SLIM]
            footer["slim_crc"] = self.crcs[SEG_SLIM]
        if meta:
            self.append(SEG_META, _encode_meta(meta), CODEC_RAW)
        self.append(SEG_FOOTER, _encode_meta(footer), CODEC_RAW)


class TraceWriter:
    """Streams a recording to ``<path>.tmp`` and seals it atomically.

    The execution path appends words to the in-memory sinks.  When a
    segment's worth accumulates, the sink group-codes it and appends it
    to a :class:`~repro.core.segments.SegmentWriter` on the same thread,
    so segments reach the OS in spill order, a crash mid-record leaves a
    prefix of intact segments that :meth:`TraceLog.salvage` can recover,
    and an encoding or file error raises from the append that spilled.
    :meth:`seal` writes the remaining words, the meta segment and the
    footer, settles the version (v3.2 when the trace turned out slim, as
    :meth:`TraceLog.to_bytes` decides it), fsyncs, and ``os.replace``\\ s
    the tmp file onto the final path — the final name never holds a torn
    file.
    """

    def __init__(self, path: str | Path, *, segment_words: int = SEGMENT_WORDS):
        if segment_words <= 0:
            raise VMError(f"segment_words must be positive, got {segment_words}")
        self._out = SegmentWriter(path, LAYOUTS[FORMAT_VERSION])
        self.tmp_path = self._out.tmp_path
        self._segments = _Segments(self._out.append)
        self.switch_sink, self.value_sink, self.slim_sink = (
            _SpillList(self._segments, kind, segment_words)
            for kind in (SEG_SWITCH, SEG_VALUE, SEG_SLIM)
        )

    def seal(self, meta: dict) -> None:
        """Flush remaining words, write meta + footer, rename into place."""
        self.switch_sink.spill()
        self.value_sink.spill()
        self.slim_sink.spill()
        lengths = {SEG_SWITCH: len(self.switch_sink), SEG_VALUE: len(self.value_sink),
                   SEG_SLIM: len(self.slim_sink)}
        slim = bool(lengths[SEG_SLIM]) or "slim" in meta
        if slim:
            self._out.retag(LAYOUTS[FORMAT_VERSION_SLIM])
        self._segments.seal(meta, lengths, slim)
        self._out.seal()

    def abandon(self) -> None:
        """Stop writing, leaving the tmp file as-is (the crash outcome):
        every segment spilled so far is already on disk."""
        self._out.abandon()


# ---------------------------------------------------------------------------
# the guest-heap buffers


class TraceBuffer:
    """Word FIFO staged through a guest heap int array.

    Record mode: ``put`` words; when the array fills, its contents drain to
    the host-side word list (a "flush", which fires the lazy-class-load and
    internal-yield-point side effects the symmetry rules govern).

    Replay mode: ``take`` words; when the array empties, the next chunk of
    the trace refills it (a "refill", the mirror-image side effect).

    The words are staged in place in the VM's ``Memory.words`` list (one
    list for life, and allocation materialised the whole array), bypassing
    the object model's per-element checks.  A collection may move the
    array, so its base is recomputed from ``addr`` on every call.
    """

    def __init__(self, vm: "VirtualMachine", capacity_words: int, *, boot_slot: int | None = None):
        self.vm = vm
        self.capacity = capacity_words
        self.boot_slot = boot_slot
        self.addr = 0
        self._fill = 0  # valid words in the guest array
        self._pos = 0  # read cursor (replay)
        self.flushes = 0
        self.refills = 0
        #: side-effect hook invoked on every flush/refill (symmetry module)
        self.on_drain: Callable[[str], None] | None = None

    def allocate(self) -> None:
        """Allocate the guest array (the 'symmetry in allocation' event)."""
        if self.addr:
            return
        self.addr = self.vm.om.new_array("[I", self.capacity)
        if self.boot_slot is not None:
            self.vm.memory.boot_write(self.boot_slot, self.addr)

    @property
    def allocated(self) -> bool:
        return self.addr != 0

    # -- record side -------------------------------------------------------

    def put(self, word: int, sink: list[int]) -> None:
        if not self.addr:
            self.allocate()
        if self._fill >= self.capacity:
            self.flush(sink)
        self.vm.memory.words[self.addr + HEADER_WORDS + self._fill] = word
        self._fill += 1

    def flush(self, sink: list[int]) -> None:
        base = self.addr + HEADER_WORDS
        sink.extend(self.vm.memory.words[base : base + self._fill])
        self._fill = 0
        self.flushes += 1
        if self.on_drain is not None:
            self.on_drain("flush")

    # -- replay side -------------------------------------------------------

    def take(self, source: list[int], cursor: int) -> tuple[int | None, int]:
        """Pop the next word; returns (word | None-when-exhausted, cursor)."""
        if not self.addr:
            self.allocate()
        if self._pos >= self._fill:
            cursor = self._refill(source, cursor)
            if self._fill == 0:
                return None, cursor
        word = self.vm.memory.words[self.addr + HEADER_WORDS + self._pos]
        self._pos += 1
        return word, cursor

    def _refill(self, source: list[int], cursor: int) -> int:
        n = min(self.capacity, len(source) - cursor)
        base = self.addr + HEADER_WORDS
        self.vm.memory.words[base : base + n] = source[cursor : cursor + n]
        self._fill = n
        self._pos = 0
        self.refills += 1
        if self.on_drain is not None:
            self.on_drain("refill")
        return cursor + n

    # -- shared -------------------------------------------------------------

    def zero(self) -> None:
        """Erase buffer contents (end of run) so record and replay leave
        byte-identical heaps behind — the END heap-digest check depends
        on this."""
        if not self.addr:
            return
        om = self.vm.om
        om.memory.zero(self.addr + HEADER_WORDS, om.array_length(self.addr))
        self._fill = 0
        self._pos = 0

    def visit_roots(self, fwd: Callable[[int], int]) -> None:
        if self.addr:
            self.addr = fwd(self.addr)
