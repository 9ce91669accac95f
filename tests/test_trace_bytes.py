"""Trace bytes in memory: :meth:`TraceLog.to_bytes` and
:meth:`TraceLog.from_bytes` against the file route.

``to_bytes`` must produce exactly the sealed file a streaming
:class:`TraceWriter` writes for the same streams (the route traces took
through a temp file before), for every registry workload under every
engine combination, full and slim, and for streams longer than one
segment.  ``from_bytes`` must undo it and refuse damage with the same
typed :class:`TraceFormatError` as :meth:`TraceLog.load`.
"""

from __future__ import annotations

import random

import pytest

from repro.api import record, trace_from_bytes, trace_to_bytes
from repro.core.tracelog import (
    FORMAT_VERSION,
    FORMAT_VERSION_SLIM,
    LAYOUTS,
    SEGMENT_WORDS,
    TraceLog,
    TraceWriter,
)
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import TraceFormatError
from repro.vm.machine import VMConfig
from repro.workloads import REGISTRY
from tests.conftest import jitter_knobs

COMBOS = EngineConfig.all_combinations()


def _file_bytes(trace: TraceLog, path) -> bytes:
    """The reference: *trace*'s streams through a streaming writer into a
    sealed file, read back."""
    writer = TraceWriter(path)
    for w in trace.switches:
        writer.switch_sink.append(w)
    for w in trace.values:
        writer.value_sink.append(w)
    for w in trace.slim:
        writer.slim_sink.append(w)
    writer.seal(trace.meta)
    data = path.read_bytes()
    path.unlink()
    return data


def _same_streams(a: TraceLog, b: TraceLog) -> bool:
    return (a.switches, a.values, a.slim, a.meta) == (b.switches, b.values, b.slim, b.meta)


class TestToBytesEqualsTheFile:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_workload_combo_full_and_slim(self, name, tmp_path):
        program = REGISTRY[name].build()
        for engine in COMBOS:
            for slim in (False, True):
                trace = record(
                    program, config=VMConfig(engine=engine), slim=slim, **jitter_knobs(7)
                ).trace
                where = (name, engine.describe(), slim)
                data = trace.to_bytes()
                assert data == _file_bytes(trace, tmp_path / "t.djv"), where
                assert trace_to_bytes(trace) == data, where
                assert _same_streams(TraceLog.from_bytes(data), trace), where

    @pytest.mark.parametrize("slim", [False, True], ids=["full", "slim"])
    def test_streams_longer_than_one_segment(self, tmp_path, slim):
        rng = random.Random(1)
        meta = {"program": "synthetic", "config": "x"}
        if slim:
            meta["slim"] = (("kept", 3),)
        trace = TraceLog(
            switches=[rng.randrange(1, 300) for _ in range(3 * SEGMENT_WORDS + 17)],
            values=[rng.randrange(-(1 << 40), 1 << 40) for _ in range(2 * SEGMENT_WORDS)],
            slim=[rng.randrange(0, 50) for _ in range(SEGMENT_WORDS + 1)] if slim else [],
            meta=meta,
        )
        data = trace.to_bytes()
        assert data.startswith(LAYOUTS[FORMAT_VERSION_SLIM if slim else FORMAT_VERSION].header())
        assert data == _file_bytes(trace, tmp_path / "t.djv")
        assert _same_streams(TraceLog.from_bytes(data), trace)
        trace.save(tmp_path / "saved.djv")
        assert (tmp_path / "saved.djv").read_bytes() == trace.to_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_chunked_extends_spill_the_segments_appends_do(self, tmp_path):
        """A trace buffer flush extends a sink by a whole chunk; the sink
        must still spill SEGMENT_WORDS-sized segments, word-by-word or
        not, so the file bytes do not depend on the buffer size."""
        rng = random.Random(2)
        trace = TraceLog(
            switches=[rng.randrange(1, 300) for _ in range(3 * SEGMENT_WORDS + 17)],
            values=[rng.randrange(-(1 << 40), 1 << 40) for _ in range(2 * SEGMENT_WORDS)],
            meta={"program": "synthetic", "config": "x"},
        )
        path = tmp_path / "chunked.djv"
        writer = TraceWriter(path)
        for sink, words in ((writer.switch_sink, trace.switches), (writer.value_sink, trace.values)):
            at = 0
            while at < len(words):
                step = rng.choice((1, 7, 64, SEGMENT_WORDS - 1, SEGMENT_WORDS + 5))
                sink.extend(words[at : at + step])
                at += step
        writer.seal(trace.meta)
        assert path.read_bytes() == _file_bytes(trace, tmp_path / "t.djv")

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_slim_recording_file_equals_to_bytes(self, name, tmp_path):
        """``record(slim=True, out=...)`` writes exactly ``to_bytes()``,
        whether slimming kept a sidecar (v3.2) or fell back at seal
        (v3.1: slim never costs bytes on disk either)."""
        spec = REGISTRY[name]
        versions = set()
        for explore in (False, True):
            program = spec.build(spec.merged_kwargs(explore=explore))
            for seed in (1, 2):
                out = tmp_path / "t.djv"
                trace = record(program, slim=True, out=out, **jitter_knobs(seed)).trace
                data = out.read_bytes()
                where = (name, explore, seed, trace.meta.get("slim_fallback"))
                assert data == trace.to_bytes(), where
                version = FORMAT_VERSION if "slim_fallback" in trace.meta else FORMAT_VERSION_SLIM
                assert data[:6] == LAYOUTS[version].header(), where
                versions.add(version)
        if name.startswith("figure1"):
            assert FORMAT_VERSION in versions  # these fall back

    def test_empty_trace_without_meta(self, tmp_path):
        trace = TraceLog()
        assert trace.to_bytes() == _file_bytes(trace, tmp_path / "t.djv")
        assert _same_streams(trace_from_bytes(trace.to_bytes()), trace)


def _error(fn) -> "tuple | None":
    try:
        fn()
    except TraceFormatError as exc:
        return type(exc), exc.stream, exc.offset, str(exc)
    return None


class TestFromBytesDamage:
    @pytest.fixture(scope="class")
    def sealed(self) -> bytes:
        program = REGISTRY["server"].build(REGISTRY["server"].explore_kwargs)
        return record(program, **jitter_knobs(3)).trace.to_bytes()

    def _check(self, data: bytes, path) -> "tuple | None":
        path.write_bytes(data)
        from_file = _error(lambda: TraceLog.load(path))
        from_bytes = _error(lambda: TraceLog.from_bytes(data))
        if from_file is not None:
            # only the bad-magic message names its source: file or bytes
            from_file = from_file[:3] + (from_file[3].replace(path.name, "trace bytes"),)
        assert from_bytes == from_file, len(data)
        return from_bytes

    def test_every_truncation(self, sealed, tmp_path):
        for cut in range(0, len(sealed), 5):
            assert self._check(sealed[:cut], tmp_path / "cut.djv") is not None, cut

    def test_bit_flips(self, sealed, tmp_path):
        rng = random.Random(11)
        positions = [0, 4, 5, 6, 7, 12, len(sealed) - 1] + rng.sample(range(len(sealed)), 60)
        refused = 0
        for pos in positions:
            damaged = bytearray(sealed)
            damaged[pos] ^= 1 << rng.randrange(8)
            refused += self._check(bytes(damaged), tmp_path / "flip.djv") is not None
        # the codec byte is fixed per segment kind, so every flip is caught
        assert refused == len(positions)
