"""The one segment container (:mod:`repro.core.segments`).

Traces and checkpoint sidecars share one frame, one writer and one
prefix scan.  These tests pin the scan against reference walks that
restate, check for check, the two loops the formats used to carry (the
trace reader's and the sidecar store's): at every truncation and under
seeded bit flips, ``scan`` must keep the same intact prefix and stop at
the same offset with the same message.  They also pin the writer:
errors surface on the caller's thread, ``abandon`` keeps the spilled
prefix, and a second seal is an error for both formats.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.api import record, replay, standard_knobs
from repro.core import checkpoint, tracelog
from repro.core.checkpoint import SIDECAR, CheckpointWriter
from repro.core.segments import SegmentWriter, boundaries, scan
from repro.core.tracelog import LAYOUTS, MAX_SEGMENT_BYTES, TraceLog, TraceWriter
from repro.vm.errors import TraceFormatError, VMError
from repro.workloads import REGISTRY

TRACE_KINDS = (b"M", b"S", b"V", b"L", b"F")
STREAM_OF_KIND = {b"S": "switch", b"V": "value", b"L": "slim", b"M": "meta", b"F": "footer"}
SIDECAR_KINDS = (b"E", b"C", b"M", b"F")


# ---------------------------------------------------------------------------
# the reference walks: the container checks of the former per-format loops


def _reference_trace_walk(data: bytes):
    """``(segment ends, (message, stream, offset) or None)``."""
    hdr = 10
    pos, index, footer, ends = 6, 0, False, []

    def stop(message, stream, offset):
        err = TraceFormatError(message, stream=stream, offset=offset)
        return ends, (str(err), err.stream, err.offset)

    while pos < len(data):
        if footer:
            return stop(f"{len(data) - pos} bytes of trailing data after the footer",
                        "footer", pos)
        if pos + hdr > len(data):
            return stop(f"torn segment header (segment {index}: "
                        f"{len(data) - pos} of {hdr} header bytes)", "segment", pos)
        kind, codec = data[pos:pos + 1], data[pos + 1]
        length = int.from_bytes(data[pos + 2:pos + 6], "little")
        crc = int.from_bytes(data[pos + 6:pos + 10], "little")
        if kind not in TRACE_KINDS:
            return stop(f"unknown segment kind {kind!r} (segment {index})", "segment", pos)
        stream = STREAM_OF_KIND[kind]
        if codec != (0 if kind in (b"M", b"F") else 1):
            return stop(f"unknown segment codec 0x{codec:02x} (segment {index}, "
                        f"{stream} stream)", stream, pos + 1)
        if length > MAX_SEGMENT_BYTES:
            return stop(f"implausible segment length {length} (segment {index}; "
                        f"cap is {MAX_SEGMENT_BYTES})", stream, pos)
        payload = data[pos + hdr:pos + hdr + length]
        if len(payload) != length:
            return stop(f"torn segment payload (segment {index}, {stream}: "
                        f"{len(payload)} of {length} bytes)", stream, pos + hdr)
        if zlib.crc32(payload) != crc:
            return stop(f"segment CRC mismatch (segment {index}, {stream} stream)",
                        stream, pos)
        footer = kind == b"F"
        index += 1
        pos += hdr + length
        ends.append(pos)
    return ends, None


def _reference_sidecar_walk(blob: bytes):
    """``(segment ends, store error or None)``."""
    pos, footer, ends = 6, False, []
    while pos < len(blob):
        if footer:
            return ends, f"trailing data after footer at byte {pos}"
        if len(blob) - pos < 9:
            return ends, f"torn segment header at byte {pos}"
        kind = blob[pos:pos + 1]
        length = int.from_bytes(blob[pos + 1:pos + 5], "little")
        crc = int.from_bytes(blob[pos + 5:pos + 9], "little")
        if kind not in SIDECAR_KINDS:
            return ends, f"unknown segment kind {kind!r} at byte {pos}"
        if length > checkpoint.MAX_SNAPSHOT_BYTES:
            return ends, f"implausible segment length {length} at byte {pos}"
        payload = blob[pos + 9:pos + 9 + length]
        if len(payload) < length:
            return ends, f"torn segment payload at byte {pos}"
        if zlib.crc32(payload) != crc:
            return ends, f"segment CRC mismatch at byte {pos}"
        footer = kind == b"F"
        pos += 9 + length
        ends.append(pos)
    return ends, None


def _trace_scan(data: bytes, version: int):
    layout = LAYOUTS[version]
    found, stop = scan(data, layout)
    if stop is None:
        return [s.end for s in found], None
    err = tracelog._scan_error(stop, layout)
    return [s.end for s in found], (str(err), err.stream, err.offset)


def _sidecar_scan(blob: bytes):
    found, stop = scan(blob, SIDECAR)
    if stop is None:
        return [s.end for s in found], None
    message = checkpoint._SCAN_ERRORS[stop.reason].format(**stop._asdict())
    return [s.end for s in found], f"{message} at byte {stop.offset}"


# ---------------------------------------------------------------------------
# inputs


def _synthetic(path, layout, segments) -> bytes:
    writer = SegmentWriter(path, layout)
    for segment in segments:
        writer.append(*segment)
    writer.seal()
    return path.read_bytes()


TRACE_SEGMENTS = [(b"S", b"\x02\x04\x06", 1), (b"V", b"", 1), (b"L", b"\x00" * 5, 1),
                  (b"M", b"[('k', 1)]", 0), (b"F", b"[('n', 2)]", 0)]
SIDECAR_SEGMENTS = [(b"E", b"[[1,2]]"), (b"C", bytes(range(40))), (b"E", b"[]"),
                    (b"C", b""), (b"M", b'{"every":5}'), (b"F", b'{"n_snapshots":2}')]


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """``(version, bytes)`` of a recorded v3.1 trace and a recorded v3.2
    (slim) trace; the sidecar covers the layout without a codec byte."""
    tmp = tmp_path_factory.mktemp("traces")
    full, slim = tmp / "full.djv", tmp / "slim.djv"
    record(REGISTRY["racy_bank"].build(), out=full, **standard_knobs(2))
    record(REGISTRY["readers_writers"].build(), out=slim, slim=True, **standard_knobs(1))
    return [(0x301, full.read_bytes()), (0x302, slim.read_bytes())]


@pytest.fixture(scope="module")
def sidecar(tmp_path_factory):
    return _synthetic(tmp_path_factory.mktemp("sidecar") / "s.ckpt", SIDECAR,
                      SIDECAR_SEGMENTS)


# ---------------------------------------------------------------------------
# round trips


class TestRoundTrip:
    @pytest.mark.parametrize("version", [None, 0x301, 0x302])
    def test_trace_layouts(self, tmp_path, version):
        """None: the sidecar, the layout without a codec byte."""
        layout = SIDECAR if version is None else LAYOUTS[version]
        segments = ([(k, p, 0) for k, p in SIDECAR_SEGMENTS] if version is None
                    else TRACE_SEGMENTS)
        data = _synthetic(tmp_path / "t.djv", layout, segments)
        assert data == layout.header() + b"".join(layout.frame(*s) for s in segments)
        found, stop = scan(data, layout)
        assert stop is None
        assert [(s.kind, s.payload, s.codec) for s in found] == segments
        assert boundaries(data, layout) == [s.end for s in found]
        assert found[-1].end == len(data)
        assert [s.offset for s in found] == [layout.start] + [s.end for s in found[:-1]]

    def test_sidecar_layout(self, sidecar):
        found, stop = scan(sidecar, SIDECAR)
        assert stop is None
        assert [(s.kind, s.payload) for s in found] == SIDECAR_SEGMENTS
        assert all(s.codec == 0 for s in found)
        assert boundaries(sidecar, SIDECAR) == [s.end for s in found]

    def test_recorded_files(self, traces, tmp_path):
        for version, data in traces:
            found, stop = scan(data, LAYOUTS[version])
            assert stop is None and found[-1].end == len(data)
        sidecar = tmp_path / "t.ckpt"
        program = REGISTRY["racy_bank"].build()
        run = record(program, **standard_knobs(2))
        replay(program, run.trace, checkpoint_every=2_000, checkpoint_out=sidecar)
        blob = sidecar.read_bytes()
        found, stop = scan(blob, SIDECAR)
        assert stop is None and found[-1].end == len(blob)
        assert _sidecar_scan(blob) == _reference_sidecar_walk(blob)

    def test_trailing_data_after_the_footer(self, traces, sidecar):
        version, data = traces[0]
        ends, (message, stream, offset) = _trace_scan(data + b"xyz", version)
        assert "3 bytes of trailing data" in message and offset == len(data)
        assert _sidecar_scan(sidecar + b"\0")[1] == (
            f"trailing data after footer at byte {len(sidecar)}"
        )


# ---------------------------------------------------------------------------
# the scan stops where the former loops stopped, for the same reason


class TestSameStopAsTheFormerLoops:
    def test_every_truncation(self, traces, sidecar):
        for version, data in traces:
            for cut in range(6, len(data) + 1):
                assert _trace_scan(data[:cut], version) == _reference_trace_walk(data[:cut]), (
                    version, cut)
        for cut in range(6, len(sidecar) + 1):
            assert _sidecar_scan(sidecar[:cut]) == _reference_sidecar_walk(sidecar[:cut])

    def test_every_header_byte_flip(self, traces, sidecar):
        """Every bit of every segment header: kinds, codecs, lengths, CRCs."""
        for version, data in [*traces, (None, sidecar)]:
            layout = SIDECAR if version is None else LAYOUTS[version]
            for segment in scan(data, layout)[0]:
                for pos in range(segment.offset, segment.offset + layout.header_bytes):
                    for bit in range(8):
                        damaged = bytearray(data)
                        damaged[pos] ^= 1 << bit
                        damaged = bytes(damaged)
                        if version is None:
                            assert _sidecar_scan(damaged) == _reference_sidecar_walk(damaged)
                        else:
                            assert _trace_scan(damaged, version) == _reference_trace_walk(
                                damaged), (version, pos, bit)

    def test_checks_run_in_the_former_order(self, traces, sidecar):
        """Two faults in one header: the check that ran first still wins
        (kind, then codec, then length, then the payload)."""
        for version, data in [*traces, (None, sidecar)]:
            layout = SIDECAR if version is None else LAYOUTS[version]
            header = range(layout.start, layout.start + layout.header_bytes)
            for a in header:
                for b in header:
                    if a >= b:
                        continue
                    damaged = bytearray(data)
                    damaged[a] ^= 0x80
                    damaged[b] ^= 0x80
                    damaged = bytes(damaged)
                    if version is None:
                        assert _sidecar_scan(damaged) == _reference_sidecar_walk(damaged)
                    else:
                        assert _trace_scan(damaged, version) == _reference_trace_walk(
                            damaged), (version, a, b)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_bit_flips(self, traces, sidecar, seed):
        rng = random.Random(seed)
        for version, data in [*traces, (None, sidecar)]:
            for _ in range(1000):
                damaged = bytearray(data)
                for _ in range(rng.choice((1, 1, 2, 3))):
                    damaged[rng.randrange(6, len(data))] ^= 1 << rng.randrange(8)
                damaged = bytes(damaged[:rng.randrange(6, len(data) + 1)])
                if version is None:
                    assert _sidecar_scan(damaged) == _reference_sidecar_walk(damaged)
                else:
                    assert _trace_scan(damaged, version) == _reference_trace_walk(damaged)


# ---------------------------------------------------------------------------
# the writer


class _FailingFile:
    """A file whose writes fail with ENOSPC after *ok* more of them."""

    def __init__(self, f, ok: int):
        self._f = f
        self._ok = ok

    def write(self, data):
        if self._ok == 0:
            raise OSError(28, "No space left on device")
        self._ok -= 1
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)


class TestWriter:
    def test_spill_error_raises_from_the_append_then_abandon_keeps_prefix(self, tmp_path):
        path = tmp_path / "t.djv"
        writer = TraceWriter(path, segment_words=4)
        writer._out._file = _FailingFile(writer._out._file, ok=2)
        for w in range(8):  # two segments spill and reach the file
            writer.switch_sink.append(w)
        for w in range(8, 11):
            writer.switch_sink.append(w)
        with pytest.raises(OSError, match="No space left"):
            writer.switch_sink.append(11)  # the third spill fails, here
        writer.abandon()
        assert not path.exists()
        trace = TraceLog.salvage(writer.tmp_path)
        assert trace.switches == list(range(8))
        assert trace.salvage_report.error is None  # cut at a segment end
        assert trace.salvage_report.switch_segments == 2

    def test_encoder_error_raises_on_the_callers_thread(self, tmp_path, monkeypatch):
        writer = TraceWriter(tmp_path / "t.djv", segment_words=2)

        def boom(words):
            raise ValueError("encoder failed")

        monkeypatch.setattr(tracelog, "encode_group", boom)
        writer.value_sink.append(1)
        with pytest.raises(ValueError, match="encoder failed"):
            writer.value_sink.append(2)
        writer.abandon()

    def test_trace_writer_seals_once(self, tmp_path):
        path = tmp_path / "t.djv"
        writer = TraceWriter(path)
        writer.switch_sink.append(3)
        writer.seal({"program": "p"})
        sealed = path.read_bytes()
        with pytest.raises(VMError, match="already sealed"):
            writer.seal({"program": "p"})
        writer.abandon()
        assert path.read_bytes() == sealed
        assert TraceLog.load(path).switches == [3]

    def test_checkpoint_writer_seals_once(self, tmp_path):
        program = REGISTRY["racy_bank"].build()
        run = record(program, **standard_knobs(2))
        source = tmp_path / "source.ckpt"
        replay(program, run.trace, checkpoint_every=2_000, checkpoint_out=source)
        snapshots = checkpoint.CheckpointStore.load(source).snapshots
        path = tmp_path / "t.ckpt"
        writer = CheckpointWriter(path)
        for snap in snapshots:
            writer.add(snap)
        writer.seal({"every": 2_000})
        sealed = path.read_bytes()
        with pytest.raises(VMError, match="already sealed"):
            writer.seal({"every": 2_000})
        writer.abandon()
        assert path.read_bytes() == sealed
        store = checkpoint.CheckpointStore.load(path)
        assert store.sealed and store.error is None
        assert len(store.snapshots) == len(snapshots) > 0

    def test_append_after_seal_and_context_exit(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with SegmentWriter(path, SIDECAR) as writer:
            writer.append(b"F", b"{}")
            writer.seal()
        with pytest.raises(VMError, match="already sealed"):
            writer.append(b"F", b"{}")
        with pytest.raises(VMError, match="already sealed"):
            writer.seal()
        with SegmentWriter(tmp_path / "u.ckpt", SIDECAR) as writer:
            writer.append(b"E", b"[]")
        assert not (tmp_path / "u.ckpt").exists()
        assert boundaries((tmp_path / "u.ckpt.tmp").read_bytes(), SIDECAR) == [6 + 9 + 2]

