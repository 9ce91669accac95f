"""DejaVu record/replay: accuracy across workloads, online divergence checks."""

import pytest

from repro.api import GuestProgram, record, record_and_replay, replay
from repro.core import MODE_RECORD, MODE_REPLAY, DejaVu, TraceLog
from repro.core import compare_runs
from repro.vm.errors import ReplayDivergenceError, VMError
from repro.vm.machine import VirtualMachine, VMConfig
from repro.workloads import ALL_WORKLOADS, racy_bank, server
from tests.conftest import jitter_knobs

CFG = VMConfig(semispace_words=70_000)


class TestFaithfulReplay:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    @pytest.mark.parametrize("seed", [1, 17])
    def test_workload_replays_exactly(self, name, seed):
        factory = ALL_WORKLOADS[name]
        session, replayed, report = record_and_replay(
            factory(), config=CFG, **jitter_knobs(seed, 30, 150)
        )
        assert report.faithful, report.detail

    def test_replay_of_saved_trace_file(self, tmp_path):
        session = record(racy_bank(), config=CFG, **jitter_knobs(3))
        path = tmp_path / "run.djv"
        session.trace.save(path)
        loaded = TraceLog.load(path)
        replayed = replay(racy_bank(), loaded, config=CFG)
        assert compare_runs(session.result, replayed).faithful

    def test_replay_is_repeatable(self):
        session = record(racy_bank(), config=CFG, **jitter_knobs(5))
        r1 = replay(racy_bank(), session.trace, config=CFG)
        r2 = replay(racy_bank(), session.trace, config=CFG)
        assert r1.behavior_key() == r2.behavior_key()

    def test_cycle_counts_identical(self):
        session, replayed, report = record_and_replay(
            racy_bank(), config=CFG, **jitter_knobs(9)
        )
        assert session.result.cycles == replayed.cycles
        assert session.result.yieldpoints == replayed.yieldpoints

    def test_heap_digest_identical(self):
        session, replayed, _ = record_and_replay(
            racy_bank(), config=CFG, **jitter_knobs(9)
        )
        assert session.result.heap_digest == replayed.heap_digest

    def test_deterministic_switch_events_not_logged(self):
        """synced_bank switches mostly via monitors; the trace only holds
        the preemptive ones."""
        from repro.workloads import synced_bank

        session = record(synced_bank(), config=CFG, **jitter_knobs(2))
        assert session.trace.n_switch_records < session.result.switches

    def test_native_results_replayed(self):
        session, replayed, report = record_and_replay(
            server(seed=5), config=CFG, **jitter_knobs(5)
        )
        assert report.faithful
        rec_natives = [e for e in session.result.events if e[0] == "native"]
        rep_natives = [e for e in replayed.events if e[0] == "native"]
        assert rec_natives == rep_natives and rec_natives

    def test_callback_parameters_regenerated(self):
        session, replayed, report = record_and_replay(
            server(seed=6), config=CFG, **jitter_knobs(6)
        )
        assert report.faithful
        assert session.stats["upcall_records"] > 0
        # the guest-visible statistics came from callbacks
        assert "packets=" in replayed.output_text

    def test_clock_values_replayed(self):
        session, replayed, report = record_and_replay(
            server(seed=8), config=CFG, **jitter_knobs(8)
        )
        rec_clocks = [e for e in session.result.events if e[0] == "clock"]
        rep_clocks = [e for e in replayed.events if e[0] == "clock"]
        assert rec_clocks == rep_clocks and rec_clocks

    def test_small_buffers_still_faithful(self):
        session = record(
            server(seed=4),
            config=CFG,
            **jitter_knobs(4),
            switch_buffer_words=8,
            value_buffer_words=8,
        )
        replayed = replay(
            server(seed=4),
            session.trace,
            config=CFG,
            switch_buffer_words=8,
            value_buffer_words=8,
        )
        assert compare_runs(session.result, replayed).faithful

    def test_gc_heavy_replay(self):
        from repro.workloads import gc_churn

        cfg = VMConfig(semispace_words=9_000)
        session, replayed, report = record_and_replay(
            gc_churn(iters=600), config=cfg, **jitter_knobs(3)
        )
        assert session.result.gc_count >= 2
        assert report.faithful

    def test_deadlock_replays(self):
        """A recorded deadlock is itself deterministic behaviour."""
        from repro.workloads import figure1_cd

        # seeds known to hit the lost-notify deadlock, plus a search margin
        for seed in (49, 55, 57, *range(60, 120)):
            session = record(figure1_cd(), config=CFG, **jitter_knobs(seed, 5, 120))
            if session.result.deadlocked:
                replayed = replay(figure1_cd(), session.trace, config=CFG)
                assert replayed.deadlocked == session.result.deadlocked
                assert compare_runs(session.result, replayed).faithful
                return
        pytest.fail("no seed produced a deadlock")


class TestOnlineDivergenceDetection:
    def test_truncated_switch_stream(self):
        session = record(racy_bank(), config=CFG, **jitter_knobs(7))
        if session.trace.n_switch_records < 3:
            pytest.skip("not enough switches")
        bad = TraceLog(
            switches=session.trace.switches[:2],
            values=list(session.trace.values),
            meta=dict(session.trace.meta),
        )
        with pytest.raises(ReplayDivergenceError):
            replay(racy_bank(), bad, config=CFG)

    def test_tampered_switch_delta(self):
        session = record(racy_bank(), config=CFG, **jitter_knobs(7))
        switches = list(session.trace.switches)
        switches[0] += 3  # shift the first preemption later
        bad = TraceLog(switches=switches, values=list(session.trace.values), meta=dict(session.trace.meta))
        with pytest.raises(ReplayDivergenceError):
            replay(racy_bank(), bad, config=CFG)

    def test_wrong_program_for_trace(self):
        from repro.workloads import philosophers

        session = record(server(seed=2), config=CFG, **jitter_knobs(2))
        with pytest.raises((ReplayDivergenceError, VMError)):
            replay(philosophers(), session.trace, config=CFG)

    def test_value_kind_mismatch(self):
        session = record(server(seed=2), config=CFG, **jitter_knobs(2))
        values = list(session.trace.values)
        # corrupt the first record's kind tag
        values[0] = 99
        bad = TraceLog(switches=list(session.trace.switches), values=values, meta=dict(session.trace.meta))
        with pytest.raises(ReplayDivergenceError):
            replay(server(seed=2), bad, config=CFG)


class TestControllerContract:
    def test_replay_requires_trace(self):
        from repro.api import build_vm

        vm = build_vm(racy_bank(), CFG)
        with pytest.raises(VMError):
            DejaVu(vm, MODE_REPLAY)

    def test_one_controller_per_vm(self):
        from repro.api import build_vm

        vm = build_vm(racy_bank(), CFG)
        DejaVu(vm, MODE_RECORD)
        with pytest.raises(VMError):
            DejaVu(vm, MODE_RECORD)

    def test_bad_mode(self):
        from repro.api import build_vm

        vm = build_vm(racy_bank(), CFG)
        with pytest.raises(VMError):
            DejaVu(vm, "observe")

    def test_trace_only_after_run(self):
        from repro.api import build_vm

        vm = build_vm(racy_bank(), CFG)
        dv = DejaVu(vm, MODE_RECORD)
        with pytest.raises(VMError):
            dv.trace()

    def test_trace_only_in_record_mode(self):
        session = record(racy_bank(), config=CFG, **jitter_knobs(1))
        from repro.api import build_vm

        vm = build_vm(racy_bank(), CFG)
        dv = DejaVu(vm, MODE_REPLAY, trace=session.trace)
        vm.run()
        with pytest.raises(VMError):
            dv.trace()

    def test_stats_populated(self):
        session = record(server(seed=1), config=CFG, **jitter_knobs(1))
        assert session.stats["clock_records"] > 0
        assert session.stats["native_records"] > 0
        assert session.stats["switch_records"] == session.trace.n_switch_records

    def test_end_meta_in_trace(self):
        session = record(racy_bank(), config=CFG, **jitter_knobs(1))
        end = dict(session.trace.meta["end"])
        assert end["cycles"] == session.result.cycles
        assert end["heap_digest"] == session.result.heap_digest

    def test_heap_digested_once_per_run(self, monkeypatch):
        """The END witness and the run result share one heap digest."""
        calls = []
        digest = VirtualMachine.heap_digest

        def counting(vm):
            calls.append(vm)
            return digest(vm)

        monkeypatch.setattr(VirtualMachine, "heap_digest", counting)
        session = record(racy_bank(), config=CFG, **jitter_knobs(1))
        assert len(calls) == 1
        replayed = replay(racy_bank(), session.trace, config=CFG)
        assert len(calls) == 2
        assert replayed.heap_digest == session.result.heap_digest
        assert dict(session.trace.meta["end"])["heap_digest"] == session.result.heap_digest
