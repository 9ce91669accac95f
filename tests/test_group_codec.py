"""The v3.1 group codec and its fixed-per-kind segment codec byte.

Covers the four contracts the codec layer adds on top of the segment
framing:

* **round-trip** — every sub-mode (raw varint, frame-of-reference
  packing, canonical Huffman) decodes back to the exact word sequence,
  including the arbitrary-precision zigzag class below ``-(2**63)`` that
  fixed-width codecs mishandle;
* **determinism** — pick-best encoding is a pure function of the words,
  so recordings stay byte-identical across engine combinations;
* **statistics** — ``trace-stats`` reports each stream's sizes and the
  group modes its segments use, from one decode of the file;
* **diagnosability** — a codec byte other than the one fixed for the
  segment's kind, or an unknown group mode, is a typed
  :class:`TraceFormatError` that the doctor classifies as
  ``codec-mismatch`` (exit 2).
"""

import random
import zlib

import pytest

from repro.api import record, standard_knobs
from repro.core import tracelog
from repro.core.doctor import CLASS_CODEC, diagnose
from repro.core.tracelog import (
    GROUP_HUFF,
    GROUP_PACK,
    GROUP_RAW,
    MAGIC,
    SEGMENT_WORDS,
    TraceLog,
    _encode_group_huff,
    _encode_group_pack,
    decode_group,
    encode_group,
    encode_words,
    trace_stats,
)
from repro.faults.inject import segment_boundaries
from repro.vm import SeededJitterTimer
from repro.vm.errors import TraceFormatError
from repro.vm.machine import VMConfig
from repro.workloads import REGISTRY, racy_bank

CFG = VMConfig(semispace_words=60_000)
_HEADER = len(MAGIC) + 2


def _program():
    return racy_bank(tellers=2, deposits=8)


def _record_to(path):
    return record(
        _program(),
        config=CFG,
        timer=SeededJitterTimer(5, 40, 160),
        out=path,
    )


# ---------------------------------------------------------------------------
# the group codec in isolation


class TestGroupCodecRoundTrip:
    CASES = [
        [],
        [0],
        [-1],
        [5] * 100,  # one symbol — Huffman's zero-bit special case
        list(range(1000)),  # perfectly linear
        [3, 7] * 50,  # alternating — small Huffman alphabet
        [1, 2, 4, 8, 1, 2, 4, 8, 300],
        [-(1 << 70), 1 << 70, 0, -1, 1],  # beyond any fixed width
        [-(1 << 63) - 1, -(1 << 63), -(1 << 63) + 1],  # the zigzag class
    ]

    @pytest.mark.parametrize("words", CASES, ids=range(len(CASES)))
    def test_pick_best_roundtrips(self, words):
        blob = encode_group(words)
        assert decode_group(blob) == words

    @pytest.mark.parametrize("words", CASES, ids=range(len(CASES)))
    def test_every_mode_roundtrips(self, words):
        candidates = [
            bytes([GROUP_RAW]) + encode_words(words),
            _encode_group_pack(words),
            _encode_group_huff(words),
        ]
        for blob in candidates:
            if blob is None:  # Huffman declined (empty / over-length codes)
                continue
            assert decode_group(blob) == words

    def test_encoding_is_deterministic(self):
        words = [17, -4, 17, 17, 0, 1 << 40]
        assert encode_group(words) == encode_group(list(words))

    def test_constant_deltas_collapse(self):
        # a steady preemption phase: constant switch deltas collapse to a
        # handful of bytes under any of the structured modes
        words = [40] * 500
        blob = encode_group(words)
        assert blob[0] != GROUP_RAW
        assert len(blob) < len(encode_words(words)) // 10

    def test_never_inflates_beyond_the_tag_byte(self):
        rng = random.Random(99)
        words = [rng.randrange(-(1 << 62), 1 << 62) for _ in range(64)]
        assert len(encode_group(words)) <= 1 + len(encode_words(words))


@pytest.mark.fuzz
class TestGroupCodecFuzz:
    def test_random_sequences_roundtrip_every_mode(self):
        rng = random.Random(4242)
        for _ in range(200):
            shape = rng.randrange(4)
            n = rng.randrange(0, 300)
            if shape == 0:  # uniform random, huge magnitudes
                words = [rng.randrange(-(1 << 80), 1 << 80) for _ in range(n)]
            elif shape == 1:  # small alphabet (Huffman territory)
                alpha = [rng.randrange(-50, 50) for _ in range(4)]
                words = [rng.choice(alpha) for _ in range(n)]
            elif shape == 2:  # noisy ramp (PACK territory)
                base = rng.randrange(-1000, 1000)
                words = [base + i * 3 + rng.randrange(2) for i in range(n)]
            else:  # tight range (PACK territory)
                words = [rng.randrange(100, 130) for _ in range(n)]
            blob = encode_group(words)
            assert decode_group(blob) == words


class TestGroupCodecMalformed:
    def test_unknown_mode_byte(self):
        with pytest.raises(TraceFormatError, match="unknown group-codec mode"):
            decode_group(bytes([47, 1, 2, 3]))

    def test_empty_payload(self):
        with pytest.raises(TraceFormatError):
            decode_group(b"")

    def test_truncated_pack(self):
        blob = _encode_group_pack(list(range(100)))
        with pytest.raises(TraceFormatError):
            decode_group(blob[:-1])

    def test_truncated_huffman(self):
        blob = _encode_group_huff([1, 2, 3] * 20)
        assert blob is not None
        with pytest.raises(TraceFormatError):
            decode_group(blob[:-1])

    def test_implausible_group_length(self):
        # mode PACK claiming 2**40 words must be rejected, not allocated
        payload = bytearray([GROUP_PACK])
        from repro.core.tracelog import _write_uvarint

        _write_uvarint(payload, 1 << 40)
        with pytest.raises(TraceFormatError, match="implausible group length"):
            decode_group(bytes(payload))


# ---------------------------------------------------------------------------
# the codec byte on sealed files


class TestUnknownCodecByte:
    """A stream segment whose codec byte is not the group codec's, or
    whose payload names an unassigned group mode, is refused."""

    #: (byte offset in the file, patched value, expected message); the
    #: first segment is a stream segment, its payload starts with the mode
    CASES = {
        "codec-0x00": (_HEADER + 1, 0x00, "unknown segment codec 0x00"),
        "codec-0x02": (_HEADER + 1, 0x02, "unknown segment codec 0x02"),
        "codec-0x03": (_HEADER + 1, 0x03, "unknown segment codec 0x03"),
        "codec-0x04": (_HEADER + 1, 0x04, "unknown segment codec 0x04"),
        "group-mode-1": (_HEADER + 10, 1, "unknown group-codec mode 1"),
    }

    def _patched(self, tmp_path, case):
        at, value, _ = self.CASES[case]
        path = tmp_path / "t.djv"
        _record_to(path)
        blob = bytearray(path.read_bytes())
        assert blob[_HEADER:_HEADER + 1] in (b"S", b"V")
        blob[at] = value
        length = int.from_bytes(blob[_HEADER + 2:_HEADER + 6], "little")
        payload = bytes(blob[_HEADER + 10:_HEADER + 10 + length])
        # a payload patch keeps the segment CRC whole: the bytes are intact
        blob[_HEADER + 6:_HEADER + 10] = zlib.crc32(payload).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        return path

    @pytest.mark.parametrize("case", CASES)
    def test_load_rejects_unknown_codec(self, tmp_path, case):
        path = self._patched(tmp_path, case)
        with pytest.raises(TraceFormatError, match=self.CASES[case][2]):
            TraceLog.load(path)

    @pytest.mark.parametrize("case", CASES)
    def test_doctor_classifies_codec_mismatch(self, tmp_path, case):
        path = self._patched(tmp_path, case)
        report = diagnose(path, program=_program(), config=CFG)
        assert report.classification == CLASS_CODEC
        assert report.exit_code == 2


# ---------------------------------------------------------------------------
# trace-stats


class TestTraceStats:
    def test_stats_report_shape_and_ratio(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        stats = trace_stats(path)
        assert stats["format_version"] == (3 << 8) | 1
        assert stats["file_bytes"] == path.stat().st_size
        switch = stats["streams"]["switch"]
        assert switch["entries"] > 0
        assert switch["encoded_bytes"] > 0
        # group coding never loses to raw varints by more than the tag
        assert switch["encoded_bytes"] <= switch["raw_bytes"] + switch["segments"]
        assert switch["ratio"] == pytest.approx(
            switch["raw_bytes"] / switch["encoded_bytes"]
        )
        # every segment is counted under the group mode that won it
        assert set(switch["modes"]) == {"raw", "pack", "huff"}
        assert sum(switch["modes"].values()) == switch["segments"]

    def test_stats_decode_each_segment_once(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        trace = TraceLog(
            switches=[rng.randrange(1, 300) for _ in range(2 * SEGMENT_WORDS + 9)],
            values=[rng.randrange(-(1 << 40), 1 << 40) for _ in range(SEGMENT_WORDS + 1)],
            meta={"program": "synthetic"},
        )
        path = tmp_path / "t.djv"
        trace.save(path)
        decoded = []

        def counting(data, stream="trace"):
            decoded.append(bytes(data))
            return decode_group(data, stream)

        monkeypatch.setattr(tracelog, "decode_group", counting)
        stats = trace_stats(path)
        assert len(decoded) == len(set(decoded)) == 5  # 3 switch + 2 value segments
        for name, words in (("switch", trace.switches), ("value", trace.values)):
            st = stats["streams"][name]
            assert st["entries"] == len(words)
            assert st["raw_bytes"] == len(encode_words(words))
        assert stats["streams"]["switch"]["segments"] == 3

    def test_cli_trace_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.djv"
        _record_to(path)
        assert main(["trace-stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "switch" in out and "value" in out
        assert "format version: 3.1" in out
        assert "group modes:   raw " in out

    def test_cli_trace_stats_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "x.djv"
        path.write_bytes(b"definitely not a trace")
        assert main(["trace-stats", str(path)]) == 2

    @pytest.mark.parametrize("slim", [False, True])
    def test_stats_walk_matches_segment_boundaries(self, tmp_path, slim):
        path = tmp_path / "t.djv"
        if slim:  # a v3.2 trace with a slim-stream segment before meta
            record(REGISTRY["readers_writers"].build(), out=path, slim=True,
                   **standard_knobs(1))
        else:
            _record_to(path)
        stats = trace_stats(path)
        assert ("slim" in stats["streams"]) == slim
        n_segments = sum(s["segments"] for s in stats["streams"].values())
        # stream segments + meta + footer == every framed segment
        assert n_segments + 2 == len(segment_boundaries(path.read_bytes()))
