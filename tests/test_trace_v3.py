"""The v3 on-disk trace format: framing, crash consistency, compatibility.

Covers the format's three contracts:

* **integrity** — every byte of a sealed trace is covered by a segment
  CRC or the header/footer checks, so any single-byte damage is detected
  at load;
* **crash consistency** — a recording that dies mid-run leaves a tmp
  file whose intact segment prefix salvages into a replayable trace;
* **invisibility** — the framing is a host-side concern: recordings are
  deterministic and byte-identical across engine toggle combinations.

The seeded fuzz sweeps (marked ``fuzz``) run in the CI faults-smoke job.
"""

import random
import zlib

import pytest

from repro.api import record, replay, replay_prefix
from repro.core.tracelog import (
    CODEC_RAW,
    FORMAT_VERSION,
    MAGIC,
    TraceLog,
    TraceWriter,
    decode_words,
    encode_words,
    read_varint,
    write_varint,
)
from repro.faults.inject import segment_boundaries
from repro.vm import SeededJitterTimer
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import TraceFormatError
from repro.vm.machine import VMConfig
from repro.workloads import REGISTRY, racy_bank

CFG = VMConfig(semispace_words=60_000)
_HEADER = len(MAGIC) + 2


def _program():
    return racy_bank(tellers=2, deposits=8)


def _record_to(path, config=CFG):
    return record(
        _program(), config=config, timer=SeededJitterTimer(5, 40, 160), out=path
    )


class TestV3Layout:
    def test_sealed_file_walks_as_segments_with_footer_last(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:6], "little") == FORMAT_VERSION
        bounds = segment_boundaries(blob)
        assert bounds and bounds[-1] == len(blob)  # footer closes the file
        assert blob[bounds[-2] if len(bounds) > 1 else _HEADER : bounds[-1]][:1] == b"F"

    def test_no_tmp_left_after_clean_seal(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_trace_info_meta_round_trips(self, tmp_path):
        path = tmp_path / "t.djv"
        session = _record_to(path)
        loaded = TraceLog.load(path)
        assert loaded.switches == session.trace.switches
        assert loaded.values == session.trace.values
        assert loaded.meta["config"] == session.trace.meta["config"]
        assert not loaded.truncated


class TestReadVarintErrors:
    def test_truncated_final_varint_names_stream_and_offset(self):
        words = [7, -3, 1 << 40]  # the last one needs several bytes
        blob = encode_words(words)
        with pytest.raises(TraceFormatError) as exc_info:
            decode_words(blob[:-1], stream="value")
        exc = exc_info.value
        assert exc.stream == "value"
        assert exc.offset is not None
        assert f"@byte {exc.offset}" in str(exc)
        # the offset points at the varint that got torn, inside the blob
        assert 0 <= exc.offset < len(blob)

    def test_read_varint_offset_is_varint_start(self):
        out = bytearray()
        write_varint(out, 300)  # two bytes
        with pytest.raises(TraceFormatError) as exc_info:
            read_varint(bytes(out[:1]), 0, stream="switch")
        assert exc_info.value.offset == 0
        assert exc_info.value.stream == "switch"


class TestCrashConsistency:
    def test_abandoned_writer_leaves_salvageable_tmp(self, tmp_path):
        path = tmp_path / "t.djv"
        writer = TraceWriter(path, segment_words=4)
        for w in range(10):  # two full segments spill, 2 words stay buffered
            writer.switch_sink.append(w)
        writer.abandon()
        assert not path.exists()
        trace = TraceLog.salvage(writer.tmp_path)
        assert trace.truncated
        assert trace.switches == list(range(8))  # the flushed prefix
        assert not trace.salvage_report.sealed

    def test_salvaged_prefix_is_replayable(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        blob = path.read_bytes()
        # cut mid-way through the file, like a crash or torn copy
        torn = tmp_path / "torn.djv"
        torn.write_bytes(blob[: len(blob) * 2 // 3])
        trace = TraceLog.salvage(torn)
        assert trace.truncated
        prefix = replay_prefix(_program(), trace, config=CFG)
        assert prefix.result is not None

    def test_salvage_of_sealed_trace_is_not_truncated(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        trace = TraceLog.salvage(path)
        assert not trace.truncated
        assert trace.salvage_report.sealed


class TestEngineComboSymmetry:
    """The acceptance bar: v3 recording is deterministic and engine
    toggles never leak into the trace."""

    def test_recording_is_byte_deterministic_per_combo(self, tmp_path):
        for i, engine in enumerate(EngineConfig.all_combinations()):
            config = VMConfig(semispace_words=60_000, engine=engine)
            a, b = tmp_path / f"a{i}.djv", tmp_path / f"b{i}.djv"
            _record_to(a, config)
            _record_to(b, config)
            assert a.read_bytes() == b.read_bytes(), engine.describe()

    def test_files_identical_across_all_combos_and_replay(self, tmp_path):
        reference = None
        for i, engine in enumerate(EngineConfig.all_combinations()):
            config = VMConfig(semispace_words=60_000, engine=engine)
            path = tmp_path / f"c{i}.djv"
            session = _record_to(path, config)
            blob = path.read_bytes()
            if reference is None:
                reference = blob
            else:
                # the whole file, framing and footer included, is
                # byte-identical: engine toggles never leak into a trace
                assert blob == reference, engine.describe()
            # and the combo replays its own recording faithfully
            trace = TraceLog.load(path)
            result = replay(_program(), trace, config=config)
            assert result.heap_digest == session.result.heap_digest


# ---------------------------------------------------------------------------
# meta and footer segments are parsed as literals, never evaluated


def _with_segment_payload(blob: bytes, kind: bytes, payload: bytes) -> bytes:
    """*blob* with every *kind* segment's payload replaced by *payload*
    under a valid v3.1 header (raw codec, correct CRC)."""
    starts = [_HEADER] + segment_boundaries(blob)[:-1]
    out = bytearray(blob[:_HEADER])
    for start, end in zip(starts, segment_boundaries(blob)):
        if blob[start:start + 1] == kind:
            out += kind + bytes([CODEC_RAW]) + len(payload).to_bytes(4, "little")
            out += zlib.crc32(payload).to_bytes(4, "little") + payload
        else:
            out += blob[start:end]
    return bytes(out)


class TestMetaIsData:
    @pytest.mark.parametrize("kind", [b"M", b"F"])
    def test_planted_code_raises_typed_without_running(self, tmp_path, kind):
        path = tmp_path / "t.djv"
        _record_to(path)
        marker = tmp_path / "ran"
        code = f"__import__('os').system('touch {marker}')".encode()
        path.write_bytes(_with_segment_payload(path.read_bytes(), kind, code))
        with pytest.raises(TraceFormatError, match="undecodable"):
            TraceLog.load(path)
        assert not marker.exists()

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registry_traces_load_byte_identically(self, tmp_path, name):
        spec = REGISTRY[name]
        path, again = tmp_path / "t.djv", tmp_path / "again.djv"
        session = record(
            spec.build(), config=CFG, timer=SeededJitterTimer(5, 40, 160), out=path
        )
        loaded = TraceLog.load(path)
        assert loaded.meta == session.trace.meta
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# seeded fuzz sweeps (CI faults-smoke job: pytest -m fuzz)


@pytest.mark.fuzz
class TestFuzzSweeps:
    def test_random_sequences_roundtrip(self, tmp_path):
        rng = random.Random(1234)
        for case in range(50):
            switches = [
                rng.randrange(-(1 << 34), 1 << 34)
                for _ in range(rng.randrange(0, 200))
            ]
            values = [
                rng.randrange(-(1 << 62), 1 << 62)
                for _ in range(rng.randrange(0, 200))
            ]
            trace = TraceLog(switches=switches, values=values, meta={"case": case})
            path = tmp_path / "fuzz.djv"
            trace.save(path)
            loaded = TraceLog.load(path)
            assert loaded.switches == switches
            assert loaded.values == values

    def test_single_byte_corruption_at_every_segment_boundary(self, tmp_path):
        path = tmp_path / "t.djv"
        _record_to(path)
        blob = path.read_bytes()
        bounds = segment_boundaries(blob)
        positions = set()
        for b in bounds:
            positions.update(p for p in (b - 1, b, b + 1) if 0 <= p < len(blob))
        positions.update((_HEADER - 1, _HEADER, _HEADER + 1))
        bad = tmp_path / "bad.djv"
        for pos in sorted(positions):
            damaged = bytearray(blob)
            damaged[pos] ^= 0x41
            bad.write_bytes(bytes(damaged))
            with pytest.raises(TraceFormatError):
                TraceLog.load(bad)

    def test_truncation_at_every_17th_byte_salvages_replayable_prefix(
        self, tmp_path
    ):
        path = tmp_path / "t.djv"
        _record_to(path)
        blob = path.read_bytes()
        torn = tmp_path / "torn.djv"
        for cut in range(_HEADER, len(blob), 17):
            torn.write_bytes(blob[:cut])
            trace = TraceLog.salvage(torn)
            assert trace.truncated
            prefix = replay_prefix(_program(), trace, config=CFG)
            assert prefix.result is not None
