"""Flat memory, semispaces, boot record, and the materialised frontier."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import build_vm, record, trace_to_bytes
from repro.core import MODE_REPLAY, DejaVu
from repro.core.checkpoint import CheckpointRecorder, restore_vm
from repro.vm import SeededJitterTimer
from repro.vm.errors import VMError
from repro.vm.machine import VMConfig
from repro.vm.memory import (
    BOOT_DICTIONARY,
    BOOT_MAGIC,
    BOOT_WORDS,
    MAGIC,
    Memory,
    MemoryFault,
)
from repro.workloads import gc_churn


class TestLayout:
    def test_magic_at_zero(self):
        mem = Memory(100)
        assert mem.read(0) == MAGIC
        assert mem.boot_read(BOOT_MAGIC) == MAGIC

    def test_null_is_never_allocatable(self):
        mem = Memory(100)
        addr = mem.alloc(1)
        assert addr is not None and addr >= BOOT_WORDS

    def test_semispace_bases(self):
        mem = Memory(100)
        assert mem.base == (BOOT_WORDS, BOOT_WORDS + 100)
        assert mem.space_of(BOOT_WORDS) == 0
        assert mem.space_of(BOOT_WORDS + 100) == 1
        assert mem.space_of(0) is None

    def test_too_small_rejected(self):
        with pytest.raises(VMError):
            Memory(10)


class TestAccess:
    def test_read_write(self):
        mem = Memory(100)
        mem.write(20, -5)
        assert mem.read(20) == -5

    def test_out_of_range(self):
        mem = Memory(100)
        with pytest.raises(MemoryFault):
            mem.read(BOOT_WORDS + 200)
        with pytest.raises(MemoryFault):
            mem.read(-1)
        with pytest.raises(MemoryFault):
            mem.write(BOOT_WORDS + 200, 1)

    def test_read_range(self):
        mem = Memory(100)
        for i in range(5):
            mem.write(20 + i, i * 10)
        assert mem.read_range(20, 5) == [0, 10, 20, 30, 40]

    def test_read_range_bounds(self):
        mem = Memory(100)
        with pytest.raises(MemoryFault):
            mem.read_range(BOOT_WORDS + 150, 100)

    def test_boot_magic_is_readonly(self):
        mem = Memory(100)
        with pytest.raises(MemoryFault):
            mem.boot_write(0, 1)
        mem.boot_write(BOOT_DICTIONARY, 99)
        assert mem.boot_read(BOOT_DICTIONARY) == 99


class TestAllocation:
    def test_bump_sequence(self):
        mem = Memory(100)
        a = mem.alloc(10)
        b = mem.alloc(5)
        assert b == a + 10

    def test_exhaustion_returns_none(self):
        mem = Memory(100)
        assert mem.alloc(90) is not None
        assert mem.alloc(20) is None
        assert mem.alloc(10) is not None  # exactly fits

    def test_bad_size(self):
        mem = Memory(100)
        with pytest.raises(MemoryFault):
            mem.alloc(0)

    def test_free_and_used(self):
        mem = Memory(100)
        mem.alloc(30)
        assert mem.used_words == 30
        assert mem.free_words == 70

    @given(st.lists(st.integers(min_value=1, max_value=10), max_size=30))
    def test_allocations_are_disjoint(self, sizes):
        mem = Memory(200)
        spans = []
        for size in sizes:
            addr = mem.alloc(size)
            if addr is None:
                break
            spans.append((addr, addr + size))
        for i, (lo1, hi1) in enumerate(spans):
            for lo2, hi2 in spans[i + 1 :]:
                assert hi1 <= lo2 or hi2 <= lo1
        for lo, hi in spans:
            assert mem.in_active(lo) and mem.in_active(hi - 1)


class TestFlip:
    def test_flip_swaps_active(self):
        mem = Memory(100)
        mem.alloc(10)
        to_base = mem.begin_flip()
        assert to_base == mem.base[1]
        mem.words[to_base] = 42
        mem.finish_flip(to_base + 1)
        assert mem.active == 1
        assert mem.used_words == 1
        assert mem.read(to_base) == 42

    def test_flip_zeroes_old_space(self):
        mem = Memory(100)
        addr = mem.alloc(3)
        mem.write(addr, 7)
        to = mem.begin_flip()
        mem.finish_flip(to)
        assert mem.read(addr) == 0

    def test_double_flip_returns_home(self):
        mem = Memory(100)
        mem.finish_flip(mem.begin_flip())
        mem.finish_flip(mem.begin_flip())
        assert mem.active == 0
        assert mem.bump == mem.base[0]


class TestFrontier:
    """Only the used prefix of the address space is a Python list; every
    word past its end is zero, and the address-space bounds still hold."""

    def test_fresh_memory_materialises_only_the_boot_record(self):
        mem = Memory(100_000)
        assert len(mem.words) == BOOT_WORDS
        assert mem.size == BOOT_WORDS + 200_000

    def test_read_past_the_prefix_is_zero(self):
        mem = Memory(1_000)
        assert mem.read(mem.size - 1) == 0
        assert mem.read(len(mem.words)) == 0
        assert len(mem.words) == BOOT_WORDS  # reads never grow

    def test_write_past_the_prefix_grows_it(self):
        mem = Memory(1_000)
        addr = mem.base[1] + 7
        mem.write(addr, -9)
        assert len(mem.words) > addr
        assert mem.read(addr) == -9
        assert not any(mem.words[BOOT_WORDS:addr])

    def test_alloc_grows_the_prefix_to_the_bump(self):
        mem = Memory(10_000)
        addr = mem.alloc(3_000)
        assert len(mem.words) >= mem.bump == addr + 3_000
        mem.write(mem.bump - 1, 5)  # in the prefix: no fault, no growth
        assert mem.read(mem.bump - 1) == 5

    def test_read_range_pads_with_zeros(self):
        mem = Memory(1_000)
        start = len(mem.words) - 2
        mem.write(start, 4)
        assert mem.read_range(start, 5) == [4, 0, 0, 0, 0]
        assert mem.read_range(mem.size - 3, 3) == [0, 0, 0]

    def test_out_of_range_is_still_a_fault(self):
        mem = Memory(1_000)
        for bad in (mem.size, mem.size + 50, -1):
            with pytest.raises(MemoryFault):
                mem.read(bad)
            with pytest.raises(MemoryFault):
                mem.write(bad, 1)
        with pytest.raises(MemoryFault):
            mem.read_range(mem.size - 2, 3)
        assert len(mem.words) == BOOT_WORDS  # a fault never grows

    def test_flip_into_semispace_one_and_back(self):
        mem = Memory(5_000)
        addr = mem.alloc(40)
        mem.write(addr, 11)
        to = mem.begin_flip()
        assert len(mem.words) >= to + 40  # room for every survivor
        mem.words[to] = 11
        mem.finish_flip(to + 1)
        assert mem.read(addr) == 0 and mem.read(to) == 11
        back = mem.begin_flip()
        mem.words[back] = 12
        mem.finish_flip(back + 1)
        # the evacuated tail semispace is dropped, not zeroed in place
        assert len(mem.words) == mem.base[1]
        assert mem.read(to) == 0 and mem.read(back) == 12


#: sha256 of gc_churn's recording on a 6,000-word heap (seeded jitter
#: timer 5/40/160), pinned from the flat full-size memory it replaced
GC_CHURN_6K_TRACE = "6b47c209f874ea70b26d704d857ef679b3d90cd99e2287456ead3d2b3789b995"
GC_CHURN_6K_HEAP = "8267cadd488141fd1d7551f146f92b4d"


class TestFrontierMachine:
    CFG = VMConfig(semispace_words=6_000)

    def _record(self):
        return record(gc_churn(), config=self.CFG, timer=SeededJitterTimer(5, 40, 160))

    def test_gc_churn_flips_both_ways_with_the_pinned_trace(self):
        recorded = self._record()
        assert recorded.result.gc_count >= 2  # 0 -> 1 and 1 -> 0
        digest = hashlib.sha256(trace_to_bytes(recorded.trace)).hexdigest()
        assert digest == GC_CHURN_6K_TRACE
        assert recorded.result.heap_digest == GC_CHURN_6K_HEAP

    def test_snapshot_in_semispace_one_restores_into_a_fresh_vm(self):
        recorded = self._record()
        program = gc_churn()
        vm = build_vm(program, self.CFG)
        DejaVu(vm, MODE_REPLAY, trace=recorded.trace)
        rec = CheckpointRecorder(vm, 500)
        clean = vm.run(program.main)
        in_one = [s for s in rec.snapshots if s.header["active"] == 1]
        assert in_one, "no safe point fell while semispace 1 was active"
        snap = in_one[len(in_one) // 2]
        restored = restore_vm(snap, gc_churn(), recorded.trace, config=self.CFG)
        assert restored.memory.active == 1
        assert restored.engine.cycles == snap.cycles
        restored.engine.run()
        result = restored.finish()
        assert result.heap_digest == clean.heap_digest
        assert result.output_text == clean.output_text
        assert result.cycles == clean.cycles
