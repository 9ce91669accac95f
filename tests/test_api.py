"""The high-level API, the observer, and the replay verifier."""

import pytest

from repro.api import GuestProgram, build_vm, record, record_and_replay, replay
from repro.core.verify import ReplayReport, compare_runs
from repro.vm.errors import VMError
from repro.vm.observer import ExecutionObserver, first_divergence
from repro.vm.scheduler_types import RunResult
from repro.workloads import racy_bank
from tests.conftest import TEST_CONFIG, jitter_knobs


class TestGuestProgram:
    def test_from_source(self):
        program = GuestProgram.from_source(
            ".class Main\n.method static main ()V\n    return\n.end\n", name="t"
        )
        assert [cd.name for cd in program.classdefs] == ["Main"]
        assert program.main == "Main.main()V"

    def test_custom_main(self):
        src = ".class App\n.method static go ()V\n    return\n.end\n"
        program = GuestProgram.from_source(src, main="App.go()V")
        vm = build_vm(program, TEST_CONFIG)
        result = vm.run(program.main)
        assert not result.traps

    def test_main_signature_checked(self):
        src = ".class Main\n.method static main (I)V\n    return\n.end\n"
        program = GuestProgram.from_source(src, main="Main.main(I)V")
        vm = build_vm(program, TEST_CONFIG)
        with pytest.raises(VMError, match="main must be"):
            vm.run(program.main)

    def test_vm_single_run(self):
        vm = build_vm(racy_bank(), TEST_CONFIG)
        vm.run()
        with pytest.raises(VMError):
            vm.run()


class TestRecordReplayApi:
    def test_record_and_replay_tuple(self):
        session, replayed, report = record_and_replay(
            racy_bank(), config=TEST_CONFIG, **jitter_knobs(1)
        )
        assert isinstance(report, ReplayReport)
        assert report.faithful
        assert session.trace.meta["program"] == "racy_bank"

    def test_behavior_key_equality(self):
        session, replayed, _ = record_and_replay(
            racy_bank(), config=TEST_CONFIG, **jitter_knobs(2)
        )
        assert session.result.behavior_key() == replayed.behavior_key()

    def test_output_text_property(self):
        session = record(racy_bank(), config=TEST_CONFIG, **jitter_knobs(2))
        assert session.result.output_text == "".join(session.result.output)


class TestObserver:
    def test_of_kind_filters(self):
        obs = ExecutionObserver()
        obs.emit("a", 1)
        obs.emit("b", 2)
        obs.emit("a", 3)
        assert obs.of_kind("a") == [("a", 1), ("a", 3)]

    def test_first_divergence(self):
        a = [("x", 1), ("y", 2)]
        assert first_divergence(a, list(a)) is None
        assert first_divergence(a, [("x", 1), ("y", 3)]) == 1
        assert first_divergence(a, [("x", 1)]) == 1
        assert first_divergence([], []) is None


class TestVerifier:
    def make_results(self):
        base = RunResult(
            output=["x"],
            cycles=10,
            switches=1,
            gc_count=0,
            traps=[],
            yieldpoints={0: 5},
            heap_digest="abc",
            events=[("output", "x")],
        )
        import copy

        return base, copy.deepcopy(base)

    def test_identical_is_faithful(self):
        a, b = self.make_results()
        assert compare_runs(a, b).faithful

    def test_event_divergence_located(self):
        a, b = self.make_results()
        b.events = [("output", "y")]
        report = compare_runs(a, b)
        assert not report.faithful
        assert report.first_event_divergence == 0
        assert report.record_event == ("output", "x")

    def test_each_witness_checked(self):
        for field, value in [
            ("output", ["y"]),
            ("cycles", 11),
            ("heap_digest", "zzz"),
            ("yieldpoints", {0: 6}),
            ("traps", [(0, "X", "x")]),
        ]:
            a, b = self.make_results()
            setattr(b, field, value)
            assert not compare_runs(a, b).faithful, field

    def test_assert_helper_raises(self):
        from repro.core import assert_faithful_replay
        from repro.vm.errors import ReplayDivergenceError

        a, b = self.make_results()
        assert_faithful_replay(a, b)
        b.cycles = 99
        with pytest.raises(ReplayDivergenceError):
            assert_faithful_replay(a, b)


class TestEventsModule:
    def test_kind_names(self):
        from repro.core import events as ev

        assert ev.kind_name(ev.K_SWITCH) == "SWITCH"
        assert ev.kind_name(ev.K_CLOCK) == "CLOCK"
        assert ev.kind_name(999) == "?999"

    def test_expect_kind_raises_with_position(self):
        from repro.core import events as ev
        from repro.vm.errors import ReplayDivergenceError

        ev.expect_kind(ev.K_CLOCK, ev.K_CLOCK, 5)  # ok
        with pytest.raises(ReplayDivergenceError) as exc:
            ev.expect_kind(ev.K_NATIVE, ev.K_CLOCK, 7)
        assert "position 7" in str(exc.value)
        assert "CLOCK" in str(exc.value) and "NATIVE" in str(exc.value)
