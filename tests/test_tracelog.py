"""Trace encoding, persistence, and the guest-heap buffers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vm import VirtualMachine
from repro.vm.errors import VMError
from repro.core.tracelog import (
    TraceBuffer,
    TraceLog,
    decode_words,
    encode_words,
    read_varint,
    unzigzag,
    write_varint,
    zigzag,
)
from tests.conftest import TEST_CONFIG

words_lists = st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40), max_size=200)


class TestVarints:
    @given(st.integers(min_value=-(1 << 62), max_value=1 << 62))
    def test_zigzag_roundtrip(self, n):
        assert unzigzag(zigzag(n)) == n

    def test_zigzag_small_values_small(self):
        assert zigzag(0) == 0
        assert zigzag(-1) == 1
        assert zigzag(1) == 2
        assert zigzag(-2) == 3

    @given(st.integers(min_value=-(1 << 62), max_value=1 << 62))
    def test_varint_roundtrip(self, n):
        out = bytearray()
        write_varint(out, n)
        value, pos = read_varint(bytes(out), 0)
        assert value == n and pos == len(out)

    def test_small_values_one_byte(self):
        for n in range(-63, 64):
            out = bytearray()
            write_varint(out, n)
            assert len(out) == 1

    def test_truncated_raises(self):
        out = bytearray()
        write_varint(out, 1 << 40)
        with pytest.raises(VMError):
            read_varint(bytes(out[:-1]), 0)

    @given(words_lists)
    def test_stream_roundtrip(self, ws):
        assert decode_words(encode_words(ws)) == ws


#: every power-of-two boundary a word-width encoder could trip over
_BOUNDARIES = sorted(
    {
        sign * ((1 << bits) + delta)
        for bits in (31, 32, 62, 63, 64)
        for delta in (-2, -1, 0, 1, 2)
        for sign in (1, -1)
    }
    | {0, 1, -1}
)


class TestVarintBoundaries:
    """Word-width edges.  The classic ``(n << 1) ^ (n >> 63)`` zig-zag is
    only correct on a machine that wraps at 64 bits; in Python it goes
    negative for ``n < -(1 << 63)`` and ``write_varint`` then never
    terminates.  These tests pin the arbitrary-precision-safe encoding."""

    @pytest.mark.parametrize("n", _BOUNDARIES)
    def test_boundary_roundtrip(self, n):
        out = bytearray()
        write_varint(out, n)
        value, pos = read_varint(bytes(out), 0)
        assert value == n and pos == len(out)

    @pytest.mark.parametrize("n", _BOUNDARIES)
    def test_zigzag_code_is_nonnegative(self, n):
        # the property whose violation made write_varint spin forever
        code = zigzag(n)
        assert code >= 0
        assert unzigzag(code) == n

    def test_regression_just_below_word_min(self):
        # the exact first value the old shift-based zigzag mangled
        n = -(1 << 63) - 1
        assert zigzag(n) == 2 * (1 << 63) + 1
        assert unzigzag(zigzag(n)) == n

    def test_matches_shift_form_within_word_range(self):
        # inside the 64-bit word range the encoding must stay identical
        # to the classic form — traces written before the fix still load
        for n in (0, 1, -1, 5, -5, (1 << 63) - 1, -(1 << 63)):
            assert zigzag(n) == ((n << 1) ^ (n >> 63)) & ((1 << 64) - 1)

    @given(st.integers(min_value=-(1 << 70), max_value=1 << 70))
    def test_wide_roundtrip(self, n):
        out = bytearray()
        write_varint(out, n)
        value, pos = read_varint(bytes(out), 0)
        assert value == n and pos == len(out)


class TestTraceLog:
    @given(words_lists, words_lists)
    def test_save_load_roundtrip(self, switches, values):
        import tempfile, os

        log = TraceLog(switches=switches, values=values)
        log.meta["end"] = (("cycles", 42),)
        fd, path = tempfile.mkstemp(suffix=".djv")
        os.close(fd)
        try:
            log.save(path)
            loaded = TraceLog.load(path)
            assert loaded.switches == switches
            assert loaded.values == values
            assert dict(loaded.meta["end"]) == {"cycles": 42}
        finally:
            os.unlink(path)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.djv"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(VMError):
            TraceLog.load(p)

    def test_size_accounting(self):
        log = TraceLog(switches=[1, 2, 3], values=[100])
        assert log.n_switch_records == 3
        assert log.n_value_words == 1
        assert log.encoded_size_bytes == len(encode_words([1, 2, 3])) + len(
            encode_words([100])
        )


class TestTraceBuffer:
    def make(self, capacity=4):
        vm = VirtualMachine(TEST_CONFIG)
        return vm, TraceBuffer(vm, capacity)

    def test_put_flush_roundtrip(self):
        vm, buf = self.make(4)
        sink: list[int] = []
        for w in [5, -3, 7, 9, 11]:  # fifth put forces a flush
            buf.put(w, sink)
        assert sink == [5, -3, 7, 9]
        buf.flush(sink)
        assert sink == [5, -3, 7, 9, 11]
        assert buf.flushes == 2

    def test_take_refills(self):
        vm, buf = self.make(3)
        source = [1, 2, 3, 4, 5]
        cursor = 0
        out = []
        for _ in range(5):
            w, cursor = buf.take(source, cursor)
            out.append(w)
        assert out == source
        assert buf.refills == 2

    def test_take_exhausted_returns_none(self):
        vm, buf = self.make(3)
        w, cursor = buf.take([], 0)
        assert w is None

    def test_buffer_lives_in_guest_heap(self):
        vm, buf = self.make(8)
        buf.allocate()
        assert vm.om.array_length(buf.addr) == 8
        layout = vm.om.layout_of(buf.addr)
        assert layout.is_array and layout.elem_desc == "I"

    def test_zero_erases(self):
        vm, buf = self.make(4)
        sink: list[int] = []
        buf.put(99, sink)
        buf.zero()
        assert vm.om.array_get(buf.addr, 0) == 0

    def test_survives_gc(self):
        vm, buf = self.make(4)
        sink: list[int] = []
        buf.put(42, sink)
        vm.extra_root_visitors.append(buf.visit_roots)
        old = buf.addr
        vm.collect()
        assert buf.addr != old
        buf.put(43, sink)
        buf.flush(sink)
        assert sink == [42, 43]

    def test_drain_hook_fires(self):
        vm, buf = self.make(2)
        kinds = []
        buf.on_drain = kinds.append
        sink: list[int] = []
        for w in range(5):
            buf.put(w, sink)
        assert kinds == ["flush", "flush"]  # puts 3 and 5 hit a full buffer
        buf.flush(sink)
        cursor = 0
        buf2 = TraceBuffer(vm, 2)
        buf2.on_drain = kinds.append
        for _ in range(5):
            _, cursor = buf2.take(sink, cursor)
        assert kinds.count("refill") == 3

    def test_guest_array_holds_the_staged_words(self):
        vm, buf = self.make(4)
        sink: list[int] = []
        for w in (7, -8, 9):
            buf.put(w, sink)
        assert [vm.om.array_get(buf.addr, i) for i in range(4)] == [7, -8, 9, 0]
        buf2 = TraceBuffer(vm, 3)
        assert buf2.take([1, 2, 3, 4], 0) == (1, 3)
        assert [vm.om.array_get(buf2.addr, i) for i in range(3)] == [1, 2, 3]

    def test_recording_stages_words_without_the_object_model(self, monkeypatch):
        """Trace words move through ``Memory.words`` directly: neither a
        recording nor its replay calls the object model's checked
        per-element accessors from the trace buffer."""
        import sys

        from repro.api import record, replay
        from repro.vm.layout import ObjectModel
        from repro.workloads import racy_bank
        from tests.conftest import jitter_knobs

        calls = []
        for name in ("array_put", "array_get"):
            original = getattr(ObjectModel, name)

            def spy(self, *args, _original=original, _name=name):
                if sys._getframe(1).f_code.co_filename.endswith("tracelog.py"):
                    calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(ObjectModel, name, spy)
        program = racy_bank()
        session = record(
            program, config=TEST_CONFIG, switch_buffer_words=8, **jitter_knobs(3)
        )
        assert len(session.trace.switches) > 2 * 8  # the buffer drained
        replay(program, session.trace, config=TEST_CONFIG, switch_buffer_words=8)
        assert calls == []
