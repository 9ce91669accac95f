"""The three-tier debugger: control, inspection, TCP protocol, perturbation."""

import json
from pathlib import Path

import pytest

from repro.api import record, replay, standard_knobs
from repro.core import compare_runs
from repro.debugger import (
    DebugController,
    Debugger,
    DebuggerClient,
    DebuggerServer,
    ReplaySession,
)
from repro.vm import SeededJitterTimer
from repro.vm.errors import VMError
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank
from repro.workloads.registry import REGISTRY
from tests.conftest import jitter_knobs

CFG = VMConfig(semispace_words=60_000)


@pytest.fixture
def recorded():
    return record(racy_bank(), config=CFG, timer=SeededJitterTimer(5, 40, 160))


@pytest.fixture
def session(recorded):
    return ReplaySession(racy_bank(), recorded.trace, config=CFG)


class TestBreakpoints:
    def test_break_and_continue(self, session):
        session.add_breakpoint("Teller.run()V", bci=0)
        status = session.resume()
        assert status == "breakpoint"
        frames = session.where()
        assert frames[0].method_name == "run"
        assert frames[0].class_name == "Teller"
        assert frames[0].bci == 0

    def test_line_breakpoint(self, session):
        rm = session.resolve_method("Teller.run()V")
        some_line = rm.mdef.line_table[2]
        mid, bci = session.add_line_breakpoint("Teller.run()V", some_line)
        assert bci == 2
        assert session.resume() == "breakpoint"
        assert session.where()[0].line == some_line

    def test_bad_breakpoints_rejected(self, session):
        with pytest.raises(VMError):
            session.add_breakpoint("Teller.run()V", bci=9999)
        with pytest.raises(VMError):
            session.add_line_breakpoint("Teller.run()V", 424242)
        with pytest.raises(VMError):
            session.add_breakpoint("System.print(LString;)V")  # native

    def test_run_to_completion_after_breaks(self, session, recorded):
        session.add_breakpoint("Teller.run()V", bci=0)
        hits = 0
        while session.resume() == "breakpoint" and hits < 3:
            hits += 1
        result = session.run_to_completion()
        assert hits == 3
        assert result.output_text == recorded.result.output_text


class TestStepping:
    def test_step_into_advances_one_bci(self, session):
        session.add_breakpoint("Teller.run()V", bci=0)
        session.resume()
        trail = []
        for _ in range(3):
            assert session.step() == "step"
            top = session.where()[0]
            trail.append(top.bci)
        assert trail == [1, 2, 3]

    def test_step_over_skips_callee(self, recorded):
        src_session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        src_session.add_breakpoint("Main.main()V", bci=0)
        src_session.resume()
        depth_before = len(src_session.current_thread().frames)
        status = src_session.step(mode="over")
        assert status in ("step", "breakpoint")
        assert len(src_session.current_thread().frames) <= depth_before

    def test_locals_visible(self, session):
        session.add_breakpoint("Teller.run()V", bci=2)
        session.resume()
        locals_ = session.read_locals()
        assert isinstance(locals_, list) and locals_


class TestInspection:
    def test_static_read_midway(self, session):
        session.add_breakpoint("Teller.run()V", bci=0)
        session.resume()
        balance = session.read_static("Main", "balance")
        assert balance == 0  # nothing deposited yet at first teller entry

    def test_threads_viewer(self, session):
        session.add_breakpoint("Teller.run()V", bci=0)
        session.resume()
        infos = session.threads()
        assert any(t.frames for t in infos)

    def test_line_number_of_via_tool_vm(self, session):
        session.add_breakpoint("Teller.run()V", bci=0)
        session.resume()
        rm = session.resolve_method("Teller.run()V")
        line = session.line_number_of(rm.method_id, 0)
        assert line == rm.mdef.line_table[0]


class TestPerturbationFreedom:
    def test_debugged_replay_is_faithful(self, recorded):
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        session.add_breakpoint("Teller.run()V", bci=4)
        stops = 0
        while session.resume() == "breakpoint" and stops < 5:
            session.read_static("Main", "balance")
            session.where()
            session.threads()
            stops += 1
        session.clear_breakpoints()
        result = session.run_to_completion()
        assert stops == 5
        report = compare_runs(recorded.result, result)
        assert report.faithful, report.detail

    def test_plain_and_debugged_replays_agree(self, recorded):
        plain = replay(racy_bank(), recorded.trace, config=CFG)
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        session.add_breakpoint("Teller.run()V", bci=0)
        session.resume()
        session.where()
        session.clear_breakpoints()
        debugged = session.run_to_completion()
        assert plain.behavior_key() == debugged.behavior_key()

    def test_a_pause_leaves_the_heap_as_an_undebugged_replay(self):
        """A pause writes nothing to the guest heap.  The breakpoint sits
        after ``main``'s last backedge, so no later exit rewrites the
        paused frame's shadow-stack slot: a pause that published its bci
        there ended the replay with a heap the recording never had.
        Backtraces while paused still show the paused bci."""
        spec = REGISTRY["sorter"]
        kwargs = spec.merged_kwargs(explore=True)
        rec = record(spec.build(kwargs), **standard_knobs(11))
        session = ReplaySession(spec.build(kwargs), rec.trace)
        session.add_breakpoint("Main.main()V", 90)
        assert session.resume() == "breakpoint"
        top = session.where()[0]
        assert (top.class_name, top.method_name, top.bci) == ("Main", "main", 90)
        tid = session.current_thread().tid
        (info,) = [t for t in session.threads() if t.tid == tid]
        assert info.frames[0].bci == 90
        result = session.run_to_completion()
        assert result.cycles == rec.result.cycles == 1646
        assert result.heap_digest == rec.result.heap_digest

    def test_in_process_reflection_breaks_replay(self, recorded):
        """The contrast the paper draws in §3: running reflective queries
        *inside* the application VM (allocating, counting yield points)
        destroys the symmetry and the replay diverges."""
        from repro.core.controller import MODE_REPLAY, DejaVu
        from repro.api import build_vm
        from repro.vm.errors import ReplayDivergenceError

        vm = build_vm(racy_bank(), CFG)
        dejavu = DejaVu(vm, MODE_REPLAY, trace=recorded.trace)
        controller = DebugController()
        vm.engine.debug = controller
        vm.start("Main.main()V")
        rm = vm.loader.resolve_method_any("Teller.run()V")
        controller.add_breakpoint(rm.method_id, 0)
        vm.engine.run()
        assert controller.paused
        # in-process "reflection": allocate a query result in the app heap
        vm.loader.make_string("who is waiting on what?")
        controller.resume()
        controller.clear_breakpoints()
        with pytest.raises(ReplayDivergenceError):
            vm.engine.run()
            vm.finish()


class TestProtocolAndFrontend:
    def test_full_tcp_session(self, recorded):
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        server = DebuggerServer(Debugger(session)).start()
        try:
            with DebuggerClient(server.address) as client:
                bp = client.request("break", method="Teller.run()V", bci=0)
                assert bp["bci"] == 0
                status = client.request("cont")
                assert status["status"] == "breakpoint"
                bt = client.request("backtrace")
                assert bt[0]["method"] == "Teller.run"
                threads = client.request("threads")
                assert any(t["state"] == "RUNNING" for t in threads)
                listing = client.request("source", method="Teller.run()V")
                assert listing["code"][0]["bci"] == 0
                info = client.request("info")
                assert info["paused"] is True
                fin = client.request("finish")
                assert fin["output"] == recorded.result.output_text
        finally:
            server.stop()

    def test_unknown_command_is_error(self, recorded):
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        server = DebuggerServer(Debugger(session)).start()
        try:
            with DebuggerClient(server.address) as client:
                with pytest.raises(VMError, match="unknown command"):
                    client.request("selfdestruct")
                with pytest.raises(VMError, match="bad arguments"):
                    client.request("cont", bogus=1)
                # server survives errors
                assert client.request("info")["finished"] is False
        finally:
            server.stop()

    def test_inspect_tree_rendering(self, recorded):
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        dbg = Debugger(session)
        dbg.break_("Main.main()V", bci=3)
        dbg.cont()
        tree = dbg.print_static("Main", "tellers")
        # may be null or an array node depending on progress; both render
        assert "value" in tree
        out = dbg.finish()
        assert out["status"] == "done"

    def test_protocol_encoding_roundtrip(self):
        from repro.core.framing import FrameDecoder, decode_message, encode_message

        msg = {"id": 1, "cmd": "break", "args": {"method": "X.y()V"}}
        assert decode_message(FrameDecoder().feed(encode_message(msg))[0]) == msg

    def test_every_command_keeps_its_wire_shape(self):
        """Each command's result, as the client sees it over TCP, equals
        the pinned value the JSON-framed protocol returned before the
        typed codec: lists stay lists (never tuples), keys stay strings."""
        from repro.debugger.protocol import COMMANDS

        pins = json.loads(
            (Path(__file__).parent / "data" / "debugger_wire_pins.json").read_text()
        )
        assert {cmd for cmd, _, _ in pins} == set(COMMANDS) | {"ping"}
        program = racy_bank(tellers=2, deposits=10)
        run = record(program, config=CFG, timer=SeededJitterTimer(5, 40, 160))
        session = ReplaySession(racy_bank(tellers=2, deposits=10), run.trace, config=CFG)
        server = DebuggerServer(Debugger(session)).start()
        try:
            with DebuggerClient(server.address) as client:
                for cmd, args, expected in pins:
                    assert client.request(cmd, **args) == expected, (cmd, args)
        finally:
            server.stop()
