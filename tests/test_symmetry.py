"""Symmetric instrumentation (§2.4): each mechanism, and its ablation.

The structure of every test pair: with the mechanism ON the replay is
faithful; with it OFF (all other mechanisms still on) the replay diverges
— caught either online (ReplayDivergenceError) or by the end-of-run
witnesses.  This is the paper's §2.4 turned into executable claims.
"""

import pytest

from repro.api import record, replay
from repro.core import SymmetryConfig, compare_runs
from repro.core.symmetry import (
    FLUSH_INTERNAL_YIELDPOINTS,
    RECORD_STACK_WORDS,
    REFILL_INTERNAL_YIELDPOINTS,
    REPLAY_STACK_WORDS,
    SymmetryManager,
)
from repro.vm.errors import ReplayDivergenceError
from repro.vm.machine import VMConfig
from repro.workloads import gc_churn, server
from tests.conftest import jitter_knobs

CHURN_CFG = VMConfig(semispace_words=9_000, initial_stack_words=128)
SERVER_CFG = VMConfig(semispace_words=60_000)
TINY_BUFFERS = dict(switch_buffer_words=16, value_buffer_words=32)


def roundtrip(program_factory, config, symmetry, seed=3, **kwargs):
    session = record(
        program_factory(), config=config, symmetry=symmetry, **jitter_knobs(seed), **kwargs
    )
    replayed = replay(
        program_factory(), session.trace, config=config, symmetry=symmetry, **kwargs
    )
    return compare_runs(session.result, replayed)


class TestSymmetricControl:
    def test_all_mechanisms_on_is_faithful(self):
        report = roundtrip(lambda: gc_churn(iters=600), CHURN_CFG, SymmetryConfig())
        assert report.faithful

    def test_tiny_buffers_with_symmetry_faithful(self):
        report = roundtrip(
            lambda: server(seed=3), SERVER_CFG, SymmetryConfig(), **TINY_BUFFERS
        )
        assert report.faithful


class TestAllocationSymmetry:
    """Pre-allocated trace buffers vs lazy allocation at first use."""

    def test_ablation_diverges(self):
        sym = SymmetryConfig(preallocate_buffers=False)
        with pytest.raises(ReplayDivergenceError):
            roundtrip(lambda: gc_churn(iters=600), CHURN_CFG, sym)


class TestLoadingSymmetry:
    """Pre-loaded DejaVu support classes vs lazy loading at first drain."""

    def test_ablation_diverges(self):
        sym = SymmetryConfig(preload_classes=False)
        with pytest.raises(ReplayDivergenceError):
            roundtrip(lambda: gc_churn(iters=600), CHURN_CFG, sym)

    def test_preload_loads_both_mode_classes(self):
        from repro.api import build_vm
        from repro.core import MODE_RECORD, DejaVu

        vm = build_vm(gc_churn(), CHURN_CFG)
        DejaVu(vm, MODE_RECORD)
        vm.run()
        # record mode nonetheless loaded the *replay* I/O class
        assert vm.loader.classes["DejaVuReplayIO"].linked
        assert vm.loader.classes["DejaVuRecordIO"].linked


class TestStackSymmetry:
    """Eager growth below a mode-independent threshold vs on-demand."""

    def test_ablation_diverges(self):
        sym = SymmetryConfig(eager_stack_growth=False)
        with pytest.raises(ReplayDivergenceError):
            roundtrip(lambda: gc_churn(iters=600), CHURN_CFG, sym)

    def test_instrumentation_costs_differ_by_mode(self):
        # the asymmetry the eager rule neutralises must actually exist
        assert RECORD_STACK_WORDS != REPLAY_STACK_WORDS


class TestLogicalClockSymmetry:
    """liveclock: instrumentation-internal yield points are not counted."""

    def test_ablation_diverges(self):
        sym = SymmetryConfig(liveclock=False)
        with pytest.raises(ReplayDivergenceError):
            roundtrip(lambda: server(seed=3), SERVER_CFG, sym, **TINY_BUFFERS)

    def test_flush_and_refill_paths_differ(self):
        # the write and read paths run different amounts of code (paper:
        # "one might entail more yield points than the other")
        assert FLUSH_INTERNAL_YIELDPOINTS != REFILL_INTERNAL_YIELDPOINTS

    def test_internal_yieldpoints_counted_in_stats(self):
        session = record(
            server(seed=3), config=SERVER_CFG, **jitter_knobs(3), **TINY_BUFFERS
        )
        assert session.stats["internal_yieldpoints"] > 0


class TestIOWarmup:
    def test_warmup_runs_in_both_modes(self):
        from repro.api import build_vm
        from repro.core import MODE_RECORD, MODE_REPLAY, DejaVu

        vm = build_vm(gc_churn(iters=10), CHURN_CFG)
        dv = DejaVu(vm, MODE_RECORD)
        vm.run()
        assert dv.sym.io_warmups == 1

        vm2 = build_vm(gc_churn(iters=10), CHURN_CFG)
        dv2 = DejaVu(vm2, MODE_REPLAY, trace=dv.trace())
        vm2.run()
        assert dv2.sym.io_warmups == 1

    def test_warmup_can_be_disabled(self):
        from repro.api import build_vm
        from repro.core import MODE_RECORD, DejaVu

        vm = build_vm(gc_churn(iters=10), CHURN_CFG)
        dv = DejaVu(vm, MODE_RECORD, symmetry=SymmetryConfig(io_warmup=False))
        vm.run()
        assert dv.sym.io_warmups == 0

    def test_file_round_trip_runs_once_per_process(self, monkeypatch):
        """The host I/O path is the process's: over many recordings and
        replays one temp file is made, and every session still counts
        its own warm-up."""
        import tempfile

        from repro.api import build_vm
        from repro.core import MODE_RECORD, MODE_REPLAY, DejaVu
        from repro.core import symmetry

        made = []
        real = tempfile.mkstemp

        def mkstemp(*args, **kwargs):
            made.append(args or kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        symmetry._warm_host_io.cache_clear()
        for _ in range(3):
            vm = build_vm(gc_churn(iters=10), CHURN_CFG)
            dv = DejaVu(vm, MODE_RECORD)
            vm.run()
            assert dv.sym.io_warmups == 1
            vm = build_vm(gc_churn(iters=10), CHURN_CFG)
            again = DejaVu(vm, MODE_REPLAY, trace=dv.trace())
            vm.run()
            assert again.sym.io_warmups == 1
        assert len(made) == 1


class TestBuffersLeaveIdenticalHeaps:
    def test_buffers_zeroed_at_end(self):
        from repro.api import build_vm
        from repro.core import MODE_RECORD, DejaVu

        vm = build_vm(server(seed=1), SERVER_CFG)
        dv = DejaVu(vm, MODE_RECORD, switch_buffer_words=16, value_buffer_words=16)
        vm.run()
        for buf in (dv.switch_buf, dv.value_buf):
            for i in range(buf.capacity):
                assert vm.om.array_get(buf.addr, i) == 0

    def test_all_off_config_helper(self):
        off = SymmetryConfig.all_off()
        assert not any(
            (
                off.preallocate_buffers,
                off.preload_classes,
                off.io_warmup,
                off.eager_stack_growth,
                off.liveclock,
            )
        )
