"""``repro.explore``: schedule policies, systematic exploration,
happens-before race detection, and schedule minimization."""

import hashlib
import itertools
import json
import signal

import pytest

from repro.api import build_vm, record, replay
from repro.core.controller import MODE_RECORD, MODE_REPLAY, DejaVu
from repro.explore import (
    DeltaSchedule,
    Explorer,
    RaceDetector,
    ddmin,
    deltas_from_positions,
    detect_races,
    explore,
    positions_from_deltas,
)
from repro.vm.errors import VMError
from repro.vm.machine import Environment, VMConfig
from repro.vm.timerdev import FixedClock, NeverTimer
from repro.workloads import get_workload, racy_bank, server, synced_bank
from tests.conftest import TEST_CONFIG

CFG = VMConfig(semispace_words=60_000)


def bank_factory():
    return racy_bank(tellers=2, deposits=6)


def bank_oracle(result):
    return None if result.output_text.strip() == "balance=12" else "lost update"


def _controlled_record(factory, positions, config=CFG):
    """Record under an explorer-style schedule: the policy is the only
    preemption source."""
    policy = DeltaSchedule.at_positions(positions)
    session = record(
        factory(),
        config=config,
        timer=NeverTimer(),
        clock=FixedClock(),
        env=Environment(seed=0),
        schedule=policy,
    )
    return session, policy


class TestPolicy:
    def test_positions_deltas_roundtrip(self):
        positions = [3, 5, 11, 12]
        assert positions_from_deltas(deltas_from_positions(positions)) == positions
        assert deltas_from_positions([3, 5, 11, 12]) == [3, 2, 6, 1]

    def test_positions_must_increase(self):
        with pytest.raises(VMError):
            deltas_from_positions([3, 3])
        with pytest.raises(VMError):
            deltas_from_positions([5, 2])

    def test_delta_schedule_fires_at_positions(self):
        sched = DeltaSchedule.at_positions([2, 5])
        fired = [i for i in range(1, 9) if sched.should_preempt(None, i)]
        assert fired == [2, 5]
        assert sched.consulted == 8
        assert sched.fired == 2
        assert sched.exhausted

    def test_schedule_only_valid_in_record_mode(self):
        session, _ = _controlled_record(bank_factory, ())
        vm = build_vm(bank_factory(), CFG)
        with pytest.raises(VMError, match="record mode"):
            DejaVu(
                vm,
                MODE_REPLAY,
                trace=session.trace,
                schedule=DeltaSchedule([1]),
            )


class TestScheduleIsTheSwitchLog:
    """The tentpole invariant: a chosen schedule and the recorded switch
    stream are the same object."""

    def test_recorded_deltas_equal_schedule_deltas(self):
        positions = (4, 9, 17)
        session, policy = _controlled_record(bank_factory, positions)
        assert session.trace.switches == deltas_from_positions(positions)
        assert policy.fired == len(positions)

    def test_controlled_record_is_deterministic(self):
        a, _ = _controlled_record(bank_factory, (5, 12))
        b, _ = _controlled_record(bank_factory, (5, 12))
        assert a.result.output_text == b.result.output_text
        assert a.result.heap_digest == b.result.heap_digest
        assert a.trace.switches == b.trace.switches
        assert a.trace.values == b.trace.values

    def test_trace_replays_through_standard_path(self):
        session, _ = _controlled_record(bank_factory, (5,))
        replayed = replay(bank_factory(), session.trace, config=CFG)
        assert replayed.output_text == session.result.output_text
        assert replayed.heap_digest == session.result.heap_digest


class TestDdmin:
    def test_finds_the_two_relevant_positions(self):
        relevant = {3, 7}
        tested = []

        def still_fails(candidate):
            tested.append(candidate)
            return relevant <= set(candidate)

        minimal, tests = ddmin(tuple(range(1, 21)), still_fails)
        assert set(minimal) == relevant
        assert tests == len(tested) <= 200

    def test_single_position_is_already_minimal(self):
        minimal, _ = ddmin((5,), lambda c: 5 in c)
        assert minimal == (5,)

    def test_respects_test_budget(self):
        minimal, tests = ddmin(tuple(range(1, 50)), lambda c: len(c) > 40, max_tests=3)
        assert tests <= 3


def _candidates(bound, horizon, seed=0, cap=None):
    """The explorer's schedule sequence; the factory is never run."""
    gen = Explorer(lambda: None, bound=bound, seed=seed).candidates(horizon)
    return list(itertools.islice(gen, cap))


class TestCandidates:
    def test_stops_once_every_drawable_size_is_exhausted(self):
        # bound 1, horizon 5: 5 single preemptions, then every 2-, 3- and
        # 4-subset (10 + 10 + 5) at random; the generator must then end
        # even though no drawable size ever reaches the horizon
        def hung(signum, frame):
            raise TimeoutError("candidates() did not stop")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            schedules = _candidates(1, 5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(schedules) == 30
        assert len(set(schedules)) == 30
        assert schedules[:5] == [(1,), (2,), (3,), (4,), (5,)]

    @pytest.mark.parametrize(
        "bound,horizon,seed,cap,count,digest",
        [
            (1, 4, 7, 50, 6, "61bc106935d90d6b"),
            (2, 5, 3, 60, 16, "dc351ada7e5feec4"),
            (1, 12, 42, 300, 300, "cbe2dda8a9ea0d0e"),
            (3, 40, 1, 300, 300, "8bcb1572bba1f8ad"),
        ],
    )
    def test_sequence_is_unchanged(self, bound, horizon, seed, cap, count, digest):
        """Campaign corpora are built from this sequence: it is pinned."""
        schedules = _candidates(bound, horizon, seed, cap)
        blob = json.dumps([list(s) for s in schedules]).encode()
        assert len(schedules) == count
        assert hashlib.sha256(blob).hexdigest()[:16] == digest


class TestExplorerOnBank:
    def test_finds_the_lost_update_deterministically(self):
        report = explore(
            bank_factory, oracle=bank_oracle, bound=2, budget=250, seed=42, config=CFG
        )
        assert report.found
        assert report.schedules_to_first_failure is not None
        # one preemption inside the read-stall-write window suffices
        assert len(report.minimized.positions) == 1
        again = explore(
            bank_factory, oracle=bank_oracle, bound=2, budget=250, seed=42, config=CFG
        )
        assert again.minimized.positions == report.minimized.positions
        assert again.schedules_to_first_failure == report.schedules_to_first_failure

    def test_minimized_trace_replays_byte_identically(self):
        report = explore(
            bank_factory, oracle=bank_oracle, bound=1, budget=200, seed=42, config=CFG
        )
        replayed = replay(bank_factory(), report.minimized.trace, config=CFG)
        assert replayed.output_text == report.minimized.output
        assert replayed.output_text != "balance=12"  # still the failure

    def test_minimized_trace_drives_the_debugger(self):
        from repro.debugger import Debugger, ReplaySession

        report = explore(
            bank_factory, oracle=bank_oracle, bound=1, budget=200, seed=42, config=CFG
        )
        session = ReplaySession(bank_factory(), report.minimized.trace, config=CFG)
        dbg = Debugger(session)
        dbg.break_("Teller.run()V", bci=0)
        assert dbg.cont()["status"] == "breakpoint"
        fin = dbg.finish()
        assert fin["output"] == report.minimized.output

    def test_synced_bank_survives_the_same_exploration(self):
        report = explore(
            lambda: synced_bank(tellers=2, deposits=6),
            oracle=lambda r: None
            if r.output_text.strip() == "balance=12"
            else "lost update",
            bound=1,
            budget=60,
            seed=42,
            config=CFG,
        )
        assert not report.found
        assert report.schedules_run == 60  # budget exhausted, nothing found


class TestExplorerOnServer:
    def test_seeded_atomicity_bug_found(self):
        spec = get_workload("server")
        kwargs = spec.merged_kwargs(explore=True)
        assert kwargs["served_window"] > 0
        report = Explorer(
            spec.program_factory(kwargs),
            oracle=spec.oracle(kwargs),
            bound=2,
            budget=250,
            seed=42,
            config=CFG,
        ).run()
        assert report.found
        assert "served" in report.failures[0].reason
        replayed = replay(
            spec.program_factory(kwargs)(), report.minimized.trace, config=CFG
        )
        assert replayed.output_text == report.minimized.output

    def test_unseeded_server_has_no_served_bug(self):
        # without the window the increment is preemption-atomic: the same
        # exploration budget finds nothing
        spec = get_workload("server")
        kwargs = spec.merged_kwargs({"served_window": 0}, explore=True)
        report = Explorer(
            spec.program_factory(kwargs),
            oracle=spec.oracle(kwargs),
            bound=1,
            budget=90,
            seed=42,
            config=CFG,
        ).run()
        assert not report.found


class TestRaceDetector:
    def test_flags_bank_race_with_sites(self):
        report = explore(
            bank_factory, oracle=bank_oracle, bound=1, budget=200, seed=42, config=CFG
        )
        races = detect_races(bank_factory(), report.minimized.trace, config=CFG)
        assert races.races
        race = races.races[0]
        assert race.location == "Main.balance"
        for side in (race.first, race.second):
            assert side.method == "Teller.run()V"
            assert side.bci >= 0
            assert side.kind in ("read", "write")
        assert {race.first.kind, race.second.kind} & {"write"}
        assert race.first.tid != race.second.tid

    def test_synced_bank_is_race_free(self):
        session, _ = _controlled_record(
            lambda: synced_bank(tellers=2, deposits=6), (5, 11)
        )
        races = detect_races(
            synced_bank(tellers=2, deposits=6), session.trace, config=CFG
        )
        assert races.races == []
        assert races.stats["accesses"] > 0
        assert races.stats["sync_edges"] > 0

    def test_server_served_race_flagged_without_manifesting(self):
        # HB detection is stronger than failure observation: with
        # served_window=0 the unsynchronized served++ can never lose an
        # update (no yield point splits it), yet once a preemption makes
        # both workers serve, the detector flags the latent race anyway
        factory = lambda: server(  # noqa: E731
            n_workers=2, n_requests=6, work_scale=1, served_window=0
        )
        _, policy = _controlled_record(factory, ())
        found = False
        for pos in range(1, policy.consulted + 1):
            session, _ = _controlled_record(factory, (pos,))
            last = session.result.output_text.splitlines()[-1]
            assert last.startswith("served=6")  # never manifests
            races = detect_races(factory(), session.trace, config=CFG)
            if any(r.location == "Main.served" for r in races.races):
                found = True
                break
        assert found

    def test_detection_runs_on_replay_not_record(self):
        session, _ = _controlled_record(bank_factory, (5,))
        races = detect_races(bank_factory(), session.trace, config=CFG)
        # the replayed result matches the recorded one exactly
        assert races.result.output_text == session.result.output_text
        assert races.result.heap_digest == session.result.heap_digest


class TestPerturbationFreedom:
    """The acceptance property: a recording with the detector attached is
    bit-identical to one without."""

    @staticmethod
    def _record_bank(with_detector: bool):
        program = racy_bank(tellers=2, deposits=6)
        vm = build_vm(
            program,
            CFG,
            timer=NeverTimer(),
            clock=FixedClock(),
            env=Environment(seed=0),
        )
        dejavu = DejaVu(vm, MODE_RECORD, schedule=DeltaSchedule.at_positions((5, 9)))
        detector = RaceDetector(vm) if with_detector else None
        result = vm.run(program.main)
        return result, dejavu.trace(), detector

    def test_detector_leaves_recording_bit_identical(self):
        plain_result, plain_trace, _ = self._record_bank(with_detector=False)
        hooked_result, hooked_trace, detector = self._record_bank(with_detector=True)
        assert detector.races  # it did observe the race...
        assert hooked_result.output_text == plain_result.output_text
        assert hooked_result.heap_digest == plain_result.heap_digest
        assert hooked_result.cycles == plain_result.cycles
        assert hooked_result.switches == plain_result.switches
        # ...while the trace stayed bit-for-bit the recording without it
        assert hooked_trace.switches == plain_trace.switches
        assert hooked_trace.values == plain_trace.values


class TestCliIntegration:
    def test_explore_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "failure.djv"
        rc = main(
            [
                "explore",
                "--workload",
                "bank",
                "--bound",
                "2",
                "--seed",
                "42",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "FAILURE" in printed
        assert "race on Main.balance" in printed
        assert out.exists()
        # the CLI-written trace replays through the CLI, rebuilding the
        # workload from the trace's recorded build kwargs
        rc = main(["replay", "--workload", "bank", str(out)])
        assert rc == 0
        assert "replay verified" in capsys.readouterr().out

    def test_races_command_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "failure.djv"
        main(["explore", "--workload", "bank", "--seed", "42", "-o", str(out)])
        capsys.readouterr()
        assert main(["races", "--workload", "bank", str(out)]) == 1
        assert "race on Main.balance" in capsys.readouterr().out

    def test_registry_workloads_runnable_from_cli(self, capsys):
        # the registry satellites: gc_churn and philosophers are CLI-visible
        from repro.cli import main

        assert main(["workloads"]) == 0
        listing = capsys.readouterr().out
        assert "gc_churn" in listing and "philosophers" in listing
        assert (
            main(
                [
                    "run",
                    "--workload",
                    "gc_churn",
                    "--seed",
                    "7",
                    "-W",
                    "iters=5",
                    "-W",
                    "depth=6",
                ]
            )
            == 0
        )
        assert main(["run", "--workload", "philosophers", "-W", "rounds=2", "--seed", "1"]) == 0
