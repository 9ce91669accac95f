"""The v3.1 group codec and codec-flagged segments.

Covers the four contracts the codec layer adds on top of the v3 framing:

* **round-trip** — every sub-mode (raw varint, delta-RLE, frame-of-
  reference packing, canonical Huffman) decodes back to the exact word
  sequence, including the arbitrary-precision zigzag class below
  ``-(2**63)`` that fixed-width codecs mishandle;
* **determinism** — pick-best encoding is a pure function of the words,
  so recordings stay byte-identical across engine combinations;
* **compatibility** — all four codec-flag combinations (group and zlib
  bits) seal files that load and replay identically, and undamaged v3/v2
  traces still load;
* **diagnosability** — an unknown codec byte or malformed group payload
  is a typed :class:`TraceFormatError`, the doctor classifies it as
  ``codec-mismatch`` (exit 2), and a torn compressed recording still
  salvages to a replayable prefix.
"""

import random

import pytest

from repro.api import record, replay, replay_prefix, standard_knobs
from repro.core.doctor import CLASS_CODEC, diagnose
from repro.core.tracelog import (
    CODEC_GROUP,
    CODEC_GROUP_ZLIB,
    CODEC_RAW,
    CODEC_ZLIB,
    GROUP_HUFF,
    GROUP_PACK,
    GROUP_RAW,
    GROUP_RLE,
    MAGIC,
    TraceLog,
    TraceWriter,
    _encode_group_huff,
    _encode_group_pack,
    _encode_group_rle,
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


def _record_to(path, compress=False):
    return record(
        _program(),
        config=CFG,
        timer=SeededJitterTimer(5, 40, 160),
        out=path,
        compress=compress,
    )


# ---------------------------------------------------------------------------
# the group codec in isolation


class TestGroupCodecRoundTrip:
    CASES = [
        [],
        [0],
        [-1],
        [5] * 100,  # one symbol — Huffman's zero-bit special case
        list(range(1000)),  # perfectly linear — one RLE pair
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
            _encode_group_rle(words),
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

    def test_noisy_ramp_prefers_rle(self):
        # linear with jitter: delta-of-delta RLE territory
        words = [i * 37 for i in range(400)]
        blob = encode_group(words)
        assert blob[0] == GROUP_RLE
        assert decode_group(blob) == words

    def test_never_inflates_beyond_the_tag_byte(self):
        rng = random.Random(99)
        words = [rng.randrange(-(1 << 62), 1 << 62) for _ in range(64)]
        assert len(encode_group(words)) <= 1 + len(encode_words(words))

    def test_run_boundaries(self):
        # runs that end exactly at the sequence tail, and length-2 runs
        for words in ([1, 2, 3, 10], [1, 2], [7, 7, 7], [0, 5, 10, 10]):
            blob = _encode_group_rle(words)
            assert decode_group(blob) == words


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
            elif shape == 2:  # noisy ramp (RLE/PACK territory)
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

    def test_truncated_rle(self):
        blob = _encode_group_rle(list(range(100)))
        with pytest.raises(TraceFormatError):
            decode_group(blob[:-1])

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
        # mode RLE claiming 2**40 words must be rejected, not allocated
        payload = bytearray([GROUP_RLE])
        from repro.core.tracelog import _write_uvarint

        _write_uvarint(payload, 1 << 40)
        with pytest.raises(TraceFormatError, match="implausible group length"):
            decode_group(bytes(payload))


# ---------------------------------------------------------------------------
# codec flags on sealed files


class TestCodecFlagCombos:
    @pytest.mark.parametrize(
        "codec,compress",
        [
            (CODEC_RAW, False),
            (CODEC_RAW, True),
            (CODEC_GROUP, False),
            (CODEC_GROUP, True),
        ],
        ids=["raw", "raw+zlib", "group", "group+zlib"],
    )
    def test_all_codec_combos_roundtrip(self, tmp_path, codec, compress):
        session = record(
            _program(), config=CFG, timer=SeededJitterTimer(5, 40, 160)
        )
        path = tmp_path / "t.djv"
        writer = TraceWriter(path, codec=codec, compress=compress)
        writer.switch_sink.extend(session.trace.switches)
        writer.value_sink.extend(session.trace.values)
        writer.seal(session.trace.meta)
        loaded = TraceLog.load(path)
        assert loaded.switches == session.trace.switches
        assert loaded.values == session.trace.values
        result = replay(_program(), loaded, config=CFG)
        assert result.heap_digest == session.result.heap_digest

    def test_compressed_recording_replays_identically(self, tmp_path):
        plain, packed = tmp_path / "p.djv", tmp_path / "z.djv"
        a = _record_to(plain, compress=False)
        b = _record_to(packed, compress=True)
        assert a.result.heap_digest == b.result.heap_digest
        ta, tb = TraceLog.load(plain), TraceLog.load(packed)
        assert ta.switches == tb.switches and ta.values == tb.values
        ra = replay(_program(), ta, config=CFG)
        rb = replay(_program(), tb, config=CFG)
        assert ra.heap_digest == rb.heap_digest == a.result.heap_digest

    def test_torn_compressed_recording_salvages(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path, compress=True)
        blob = path.read_bytes()
        torn = tmp_path / "torn.djv"
        for num, den in ((1, 2), (9, 10)):  # cut mid-file and late
            torn.write_bytes(blob[: len(blob) * num // den])
            trace = TraceLog.salvage(torn)
            assert trace.truncated
            prefix = replay_prefix(_program(), trace, config=CFG)
            assert prefix.result is not None


class TestUnknownCodecByte:
    def _patch_first_segment_codec(self, path, value):
        blob = bytearray(path.read_bytes())
        blob[_HEADER + 1] = value  # codec byte of the first (stream) segment
        path.write_bytes(bytes(blob))

    def test_load_rejects_unknown_codec(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        self._patch_first_segment_codec(path, 0x04)  # outside _CODEC_MASK
        with pytest.raises(TraceFormatError, match="unknown segment codec"):
            TraceLog.load(path)

    def test_doctor_classifies_codec_mismatch(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        self._patch_first_segment_codec(path, 0x04)
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

    def test_cli_trace_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.djv"
        _record_to(path)
        assert main(["trace-stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "switch" in out and "value" in out
        assert "3.1" in out

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
