"""Verified checkpoint/restore: capture, sidecar framing, resume ladder.

The contract under test (the robustness tentpole): a snapshot restores
to *exactly* the machine state the from-zero replay passes through — the
restore either reproduces the from-zero digests at every later boundary
and the identical final result, or it is refused with a typed error.  A
damaged sidecar may cost seek acceleration, never correctness.
"""

import hashlib
import json
import zlib

import pytest

from repro.api import (
    build_vm,
    record,
    replay,
    resume_replay,
)
from repro.core import MODE_REPLAY, DejaVu
from repro.cli import main as cli_main
from repro.core.checkpoint import (
    CKPT_MAGIC,
    CheckpointRecorder,
    CheckpointStore,
    CheckpointWriter,
    Snapshot,
    _digest_of,
    capture_snapshot,
    restore_vm,
    sidecar_path,
)
from repro.core.doctor import CLASS_CKPT_CORRUPT, diagnose
from repro.core.tracelog import TraceLog
from repro.faults import FaultPlan, run_campaign
from repro.faults.plan import LAYER_CHECKPOINT
from repro.vm import SeededJitterTimer
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import (
    CheckpointConfigMismatch,
    CheckpointError,
    CheckpointFormatError,
)
from repro.vm.machine import VMConfig
from repro.vm.memory import BOOT_WORDS
from repro.workloads import REGISTRY, racy_bank

CFG = VMConfig(semispace_words=60_000)
EVERY = 700  # small enough that the short bank run crosses several boundaries


@pytest.fixture(scope="module")
def recorded():
    return record(racy_bank(), config=CFG, timer=SeededJitterTimer(5, 40, 160))


def _replay_with_recorder(trace, config=CFG, every=EVERY):
    """From-zero replay with an in-memory recorder attached; returns
    (snapshots, result)."""
    program = racy_bank()
    vm = build_vm(program, config)
    DejaVu(vm, MODE_REPLAY, trace=trace)
    rec = CheckpointRecorder(vm, every)
    result = vm.run(program.main)
    return rec.snapshots, result


class _StopAt:
    """Minimal debug controller that pauses the engine at a cycle count
    (the shape :class:`repro.debugger.timetravel._CycleStop` has)."""

    def __init__(self, target, engine):
        self.target = target
        self.engine = engine
        self.paused = False
        self.reason = None
        self.breakpoints = set()

    def resume(self):
        self.paused = False

    def check(self, thread, frame, pc):
        if self.engine.cycles >= self.target:
            self.paused = True
            self.target = 1 << 62
            return True
        return False


class TestCaptureRestore:
    def test_restore_reproduces_every_later_boundary(self, recorded):
        """From each snapshot, the restored run must hit the same later
        boundaries with the same digests and finish with the same result
        as the from-zero replay — the definition of a verified restore."""
        snapshots, clean = _replay_with_recorder(recorded.trace)
        assert len(snapshots) >= 3
        witness = [(s.cycles, s.digest) for s in snapshots]
        for i, snap in enumerate(snapshots):
            vm = restore_vm(snap, racy_bank(), recorded.trace, config=CFG)
            assert vm.engine.cycles == snap.cycles
            rec = CheckpointRecorder(vm, EVERY)
            vm.engine.run()
            result = vm.finish()
            assert [(s.cycles, s.digest) for s in rec.snapshots] == witness[i + 1:]
            assert result.heap_digest == clean.heap_digest
            assert result.output_text == clean.output_text
            assert result.cycles == clean.cycles

    def test_boundaries_identical_across_all_engine_combos(self, recorded):
        """Cycle counting is deterministic under every engine config,
        so all 4 combos snapshot at identical boundaries — and each
        combo's restore reproduces its own later digests exactly.  (The
        digests themselves are per-combo: the snapshot header carries
        engine statistics, which differ by engine configuration.)"""
        reference_cycles = None
        for combo in EngineConfig.all_combinations():
            cfg = VMConfig(semispace_words=60_000, engine=combo)
            snapshots, _ = _replay_with_recorder(recorded.trace, config=cfg)
            witness = [(s.cycles, s.digest) for s in snapshots]
            cycles = [c for c, _ in witness]
            if reference_cycles is None:
                reference_cycles = cycles
            else:
                assert cycles == reference_cycles, combo.describe()
            # restore the middle snapshot under the same combo
            mid = len(snapshots) // 2
            vm = restore_vm(snapshots[mid], racy_bank(), recorded.trace, config=cfg)
            rec = CheckpointRecorder(vm, EVERY)
            vm.engine.run()
            vm.finish()
            digests = [(s.cycles, s.digest) for s in rec.snapshots]
            assert digests == witness[mid + 1:], combo.describe()

    def test_recording_byte_identical_with_checkpointing(self, tmp_path):
        """The capture hook is guest-invisible: recording with and
        without checkpoints produces byte-identical trace files."""
        plain, ckpt = tmp_path / "plain.djv", tmp_path / "ckpt.djv"
        record(racy_bank(), config=CFG, timer=SeededJitterTimer(5, 40, 160), out=plain)
        record(
            racy_bank(),
            config=CFG,
            timer=SeededJitterTimer(5, 40, 160),
            out=ckpt,
            checkpoint_every=500,
        )
        assert plain.read_bytes() == ckpt.read_bytes()
        assert sidecar_path(ckpt).exists()

    def test_machine_digest_changes_with_execution(self, recorded):
        snapshots, _ = _replay_with_recorder(recorded.trace)
        digests = [s.digest for s in snapshots]
        assert len(set(digests)) == len(digests)

    def test_record_mode_snapshot_refuses_restore(self, tmp_path):
        out = tmp_path / "r.djv"
        box = {}

        def grab(vm):
            rec = CheckpointRecorder(vm, EVERY)
            box["rec"] = rec

        session = record(
            racy_bank(),
            config=CFG,
            timer=SeededJitterTimer(5, 40, 160),
            out=out,
            vm_hook=grab,
        )
        snap = box["rec"].snapshots[0]
        assert snap.mode == "record"
        with pytest.raises(CheckpointError):
            restore_vm(snap, racy_bank(), session.trace, config=CFG)

    def test_snapshot_verify_catches_tampering(self, recorded):
        snapshots, _ = _replay_with_recorder(recorded.trace)
        snap = snapshots[0]
        words = list(snap.words)
        words[len(words) // 2] ^= 1
        tampered = Snapshot(dict(snap.header), words)
        with pytest.raises(CheckpointFormatError):
            tampered.verify()


def _first_segment(blob: bytes) -> tuple[int, int]:
    """(offset, payload length) of a sidecar's first segment."""
    pos = len(CKPT_MAGIC) + 2
    return pos, int.from_bytes(blob[pos + 1 : pos + 5], "little")


def _with_first_payload(blob: bytes, payload: bytes) -> bytes:
    """*blob* with its first segment's payload replaced, CRC made valid —
    damage the segment framing cannot see."""
    pos, length = _first_segment(blob)
    segment = (
        blob[pos : pos + 1]
        + len(payload).to_bytes(4, "little")
        + zlib.crc32(payload).to_bytes(4, "little")
        + payload
    )
    return blob[:pos] + segment + blob[pos + 9 + length :]


class TestSidecar:
    @pytest.fixture
    def sealed(self, recorded, tmp_path):
        trace_path = tmp_path / "t.djv"
        recorded.trace.save(trace_path)
        replay(
            racy_bank(),
            TraceLog.load(trace_path),
            config=CFG,
            checkpoint_every=EVERY,
            checkpoint_out=sidecar_path(trace_path),
        )
        return trace_path

    def test_roundtrip(self, recorded, sealed):
        store = CheckpointStore.load(sidecar_path(sealed))
        assert store.sealed and not store.damaged
        assert store.meta["every"] == EVERY
        assert store.meta["mode"] == "replay"
        snapshots, _ = _replay_with_recorder(recorded.trace)
        assert [(s.cycles, s.digest) for s in store.snapshots] == [
            (s.cycles, s.digest) for s in snapshots
        ]

    def test_tmp_fallback_after_crash(self, recorded, tmp_path):
        """An abandoned (unsealed) writer leaves a tmp the store loads."""
        sidecar = tmp_path / "x.ckpt"
        snapshots, _ = _replay_with_recorder(recorded.trace)
        writer = CheckpointWriter(sidecar)
        for snap in snapshots[:2]:
            writer.add(snap)
        writer.abandon()
        assert not sidecar.exists()
        store = CheckpointStore.load(sidecar)
        assert store.source == "tmp" and not store.sealed and store.damaged
        assert [s.cycles for s in store.snapshots] == [
            s.cycles for s in snapshots[:2]
        ]

    def test_corrupt_tail_drops_only_the_tail(self, sealed):
        sidecar = sidecar_path(sealed)
        n_clean = len(CheckpointStore.load(sidecar).snapshots)
        blob = bytearray(sidecar.read_bytes())
        blob[len(blob) // 2] ^= 1
        sidecar.write_bytes(bytes(blob))
        store = CheckpointStore.load(sidecar)
        assert store.error is not None and store.damaged
        assert 0 < len(store.snapshots) < n_clean

    def test_digest_failing_snapshot_is_skipped(self, recorded, tmp_path):
        sidecar = tmp_path / "x.ckpt"
        snapshots, _ = _replay_with_recorder(recorded.trace)
        words = list(snapshots[0].words)
        words[len(words) // 2] ^= 1
        writer = CheckpointWriter(sidecar)
        writer.add(Snapshot(dict(snapshots[0].header), words))
        writer.add(snapshots[1])
        writer.seal({})
        store = CheckpointStore.load(sidecar)
        assert store.skipped == 1
        assert [s.cycles for s in store.snapshots] == [snapshots[1].cycles]

    def test_missing_sidecar_raises_typed(self, tmp_path):
        with pytest.raises(CheckpointFormatError):
            CheckpointStore.load(tmp_path / "nope.ckpt")

    def test_nearest_is_strictly_before(self, recorded, sealed):
        store = CheckpointStore.load(sidecar_path(sealed))
        cycles = [s.cycles for s in store.snapshots]
        # exactly at a boundary: must pick the *previous* one
        assert store.nearest(cycles[1]).cycles == cycles[0]
        assert store.nearest(cycles[0]) is None
        assert store.nearest(10**9).cycles == cycles[-1]

    def _first_payload(self, sidecar) -> tuple[bytes, bytes, list]:
        """(digest + header-length prefix + header JSON, words JSON, words)."""
        blob = sidecar.read_bytes()
        pos, length = _first_segment(blob)
        payload = blob[pos + 9 : pos + 9 + length]
        header_end = 20 + int.from_bytes(payload[16:20], "little")
        return payload[:header_end], payload[header_end:], json.loads(payload[header_end:])

    def test_header_is_canonical_json_with_frontier(self, sealed):
        head, words_blob, words = self._first_payload(sidecar_path(sealed))
        header = json.loads(head[20:])
        assert head[20:] == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert header["format"] == 2 and "digest" not in header
        lo = BOOT_WORDS + header["active"] * header["semi"]
        assert len(words) == BOOT_WORDS + header["bump"] - lo
        digest = hashlib.blake2b(head[20:] + words_blob, digest_size=16).digest()
        assert head[:16] == digest

    def test_tampered_stored_word_fails_digest_at_load(self, sealed):
        sidecar = sidecar_path(sealed)
        n_clean = len(CheckpointStore.load(sidecar).snapshots)
        head, _, words = self._first_payload(sidecar)
        words[len(words) // 2] ^= 1
        tampered = head + json.dumps(words, separators=(",", ":")).encode()
        sidecar.write_bytes(_with_first_payload(sidecar.read_bytes(), tampered))
        store = CheckpointStore.load(sidecar)
        assert store.skipped == 1 and store.damaged
        assert "digest mismatch" in store.notes[0]
        assert len(store.snapshots) == n_clean - 1

    def test_planted_code_in_header_is_data_not_code(self, sealed, tmp_path):
        """Even under a matching digest, a header is parsed as JSON only."""
        sidecar = sidecar_path(sealed)
        marker = tmp_path / "ran"
        code = f"__import__('os').system('touch {marker}')".encode()
        _, words_blob, _ = self._first_payload(sidecar)
        digest = hashlib.blake2b(code + words_blob, digest_size=16).digest()
        payload = digest + len(code).to_bytes(4, "little") + code + words_blob
        sidecar.write_bytes(_with_first_payload(sidecar.read_bytes(), payload))
        store = CheckpointStore.load(sidecar)
        assert store.skipped == 1
        assert "undecodable snapshot header" in store.notes[0]
        assert not marker.exists()

    @pytest.fixture
    def v1_sidecar(self, sealed):
        """A sidecar whose file header says version 1 — the format that
        stored every heap word under a Python-repr header."""
        sidecar = sidecar_path(sealed)
        blob = bytearray(sidecar.read_bytes())
        blob[len(CKPT_MAGIC) : len(CKPT_MAGIC) + 2] = (1).to_bytes(2, "little")
        sidecar.write_bytes(bytes(blob))
        return sidecar

    def test_v1_load_names_the_version(self, v1_sidecar):
        with pytest.raises(CheckpointFormatError, match="version 1"):
            CheckpointStore.load(v1_sidecar)

    def test_v1_resume_falls_back_to_zero(self, recorded, sealed, v1_sidecar):
        resumed = resume_replay(
            racy_bank(), TraceLog.load(sealed), checkpoints=v1_sidecar, config=CFG
        )
        assert resumed.from_zero
        assert any("version 1" in a for a in resumed.attempts)
        assert resumed.result.heap_digest == recorded.result.heap_digest

    def test_v1_cli_verify_exits_2(self, sealed, v1_sidecar, capsys):
        assert cli_main(["checkpoint", "verify", str(sealed)]) == 2
        assert "version 1" in capsys.readouterr().err

    def test_v1_doctor_says_regenerate(self, sealed, v1_sidecar):
        report = diagnose(sealed, program=racy_bank(), config=CFG)
        assert report.classification == CLASS_CKPT_CORRUPT
        assert "version 1" in report.detail
        assert "regenerate with --checkpoint-every" in report.detail


class TestResumeReplay:
    @pytest.fixture
    def sealed(self, recorded, tmp_path):
        trace_path = tmp_path / "t.djv"
        recorded.trace.save(trace_path)
        replay(
            racy_bank(),
            TraceLog.load(trace_path),
            config=CFG,
            checkpoint_every=EVERY,
            checkpoint_out=sidecar_path(trace_path),
        )
        return trace_path

    def _assert_matches_clean(self, resumed, recorded):
        assert resumed.result.heap_digest == recorded.result.heap_digest
        assert resumed.result.output_text == recorded.result.output_text
        assert resumed.result.cycles == recorded.result.cycles

    def test_resume_from_newest_checkpoint(self, recorded, sealed):
        sidecar = sidecar_path(sealed)
        newest = max(s.cycles for s in CheckpointStore.load(sidecar).snapshots)
        resumed = resume_replay(
            racy_bank(), TraceLog.load(sealed), checkpoints=sidecar, config=CFG
        )
        assert resumed.resumed_from == newest and not resumed.from_zero
        self._assert_matches_clean(resumed, recorded)

    def test_corrupt_sidecar_falls_back_to_earlier_checkpoint(
        self, recorded, sealed
    ):
        sidecar = sidecar_path(sealed)
        blob = bytearray(sidecar.read_bytes())
        blob[len(blob) // 2] ^= 1
        sidecar.write_bytes(bytes(blob))
        resumed = resume_replay(
            racy_bank(), TraceLog.load(sealed), checkpoints=sidecar, config=CFG
        )
        assert any("scan stopped" in a for a in resumed.attempts)
        self._assert_matches_clean(resumed, recorded)

    def test_missing_sidecar_replays_from_zero(self, recorded, sealed):
        sidecar = sidecar_path(sealed)
        sidecar.unlink()
        resumed = resume_replay(
            racy_bank(), TraceLog.load(sealed), checkpoints=sidecar, config=CFG
        )
        assert resumed.from_zero
        assert any("from cycle zero" in a for a in resumed.attempts)
        self._assert_matches_clean(resumed, recorded)

    def test_crash_mid_replay_resumes_from_tmp(self, recorded, tmp_path):
        """The crash-resume story end to end: a replay dies mid-run, its
        checkpoint writer abandoned; resume finishes from the tmp."""
        trace_path = tmp_path / "t.djv"
        recorded.trace.save(trace_path)
        sidecar = sidecar_path(trace_path)
        program = racy_bank()
        vm = build_vm(program, CFG)
        DejaVu(vm, MODE_REPLAY, trace=TraceLog.load(trace_path))
        writer = CheckpointWriter(sidecar)
        rec = CheckpointRecorder(vm, EVERY, writer=writer)
        vm.start(program.main)
        vm.engine.debug = _StopAt(recorded.result.cycles * 3 // 4, vm.engine)
        vm.engine.run()  # pauses mid-replay: the "crash" point
        assert not vm.completed
        rec.abandon()
        assert not sidecar.exists()
        resumed = resume_replay(
            racy_bank(), TraceLog.load(trace_path), checkpoints=sidecar, config=CFG
        )
        assert not resumed.from_zero
        self._assert_matches_clean(resumed, recorded)

    def test_config_mismatch_is_typed_not_repaired(self, recorded, sealed):
        with pytest.raises(CheckpointConfigMismatch):
            resume_replay(
                racy_bank(),
                TraceLog.load(sealed),
                checkpoints=sidecar_path(sealed),
                config=VMConfig(semispace_words=80_000),
            )

    def test_engine_combo_mismatch_is_typed(self, recorded, sealed):
        store = CheckpointStore.load(sidecar_path(sealed))
        snap = store.snapshots[0]
        baseline = VMConfig(semispace_words=60_000, engine=EngineConfig.baseline())
        with pytest.raises(CheckpointConfigMismatch):
            restore_vm(snap, racy_bank(), TraceLog.load(sealed), config=baseline)

    def test_retired_switch_engine_sidecar_falls_back_to_zero(
        self, recorded, sealed, tmp_path
    ):
        """A sidecar tagged with the retired per-micro-op loop's engine
        ("switch") is refused at restore with the typed mismatch, and a
        resumed replay walks down the ladder instead of restoring it."""
        store = CheckpointStore.load(sidecar_path(sealed))
        trace_path = tmp_path / "old.djv"
        recorded.trace.save(trace_path)
        writer = CheckpointWriter(sidecar_path(trace_path))
        for snap in store.snapshots:
            header = dict(snap.header, engine="switch")
            header["digest"] = _digest_of(header, snap.words)
            writer.add(Snapshot(header, snap.words))
        writer.seal(dict(store.meta, engine="switch"))
        old = CheckpointStore.load(sidecar_path(trace_path))
        assert len(old.snapshots) == len(store.snapshots) > 1 and not old.skipped
        with pytest.raises(CheckpointConfigMismatch, match="'switch'"):
            restore_vm(old.snapshots[0], racy_bank(), TraceLog.load(trace_path), config=CFG)
        resumed = resume_replay(
            racy_bank(), TraceLog.load(trace_path),
            checkpoints=sidecar_path(trace_path), config=CFG,
        )
        assert resumed.from_zero
        unusable = [a for a in resumed.attempts if "unusable" in a]
        assert len(unusable) == len(old.snapshots)
        assert resumed.attempts[-1] == "replayed from cycle zero"
        self._assert_matches_clean(resumed, recorded)


class TestLiveExtent:
    """Snapshots store the boot record plus ``words[base[active]:bump]``;
    that is lossless only because every other heap word is zero."""

    @pytest.mark.parametrize(
        "name,heap",
        [(name, 10_000) for name in sorted(REGISTRY)] + [("gc_churn", 6_000)],
    )
    def test_outside_extent_is_zero_at_every_safe_point(self, name, heap):
        """Capture at *every* safe point of every registry workload
        (gc_churn at 6k words also crosses semispace flips)."""
        spec = REGISTRY[name]
        cfg = VMConfig(semispace_words=heap)
        recorded = record(spec.build(), config=cfg, timer=SeededJitterTimer(5, 40, 160))
        seen = []

        def attach(vm):
            def check(snap):
                mem = vm.memory
                lo = mem.base[mem.active]
                assert not any(mem.words[BOOT_WORDS:lo])
                assert not any(mem.words[mem.bump:])
                assert snap.words == mem.words[:BOOT_WORDS] + mem.words[lo:mem.bump]
                seen.append(snap.cycles)

            CheckpointRecorder(vm, 1, sink=check, keep=False)

        result = replay(spec.build(), recorded.trace, config=cfg, vm_hook=attach)
        assert len(seen) >= 4
        if heap == 6_000:
            assert result.gc_count > 0

    @pytest.mark.parametrize("where", ["past_bump", "idle_semispace", "last_word"])
    def test_stray_word_outside_extent_refuses_capture(self, recorded, where):
        program = racy_bank()
        vm = build_vm(program, CFG)
        DejaVu(vm, MODE_REPLAY, trace=recorded.trace)
        vm.start(program.main)
        capture_snapshot(vm)  # clean machine: fine
        mem = vm.memory
        addr = {
            "past_bump": mem.bump + 3,
            "idle_semispace": mem.base[1 - mem.active] + 5,
            "last_word": mem.size - 1,
        }[where]
        mem.write(addr, 7)
        with pytest.raises(CheckpointError, match=f"heap word {addr} .*live extent"):
            capture_snapshot(vm)

    def test_snapshot_size_follows_live_heap_not_semispace(self):
        counts = {}
        for heap in (400_000, 4_000_000):
            box = {}
            record(
                racy_bank(),
                config=VMConfig(semispace_words=heap),
                timer=SeededJitterTimer(5, 40, 160),
                vm_hook=lambda vm: box.setdefault("rec", CheckpointRecorder(vm, EVERY)),
            )
            counts[heap] = [len(s.words) for s in box["rec"].snapshots]
        assert counts[400_000] and counts[400_000] == counts[4_000_000]
        assert max(counts[400_000]) < 400_000 // 20


class TestCheckpointFaultCampaign:
    def test_small_campaign_recovers(self, tmp_path):
        plan = FaultPlan.generate(11, 8, layers=(LAYER_CHECKPOINT,))
        report = run_campaign(
            plan,
            workload="bank",
            workload_kwargs={"tellers": 2, "deposits": 10},
            config=CFG,
            workdir=tmp_path,
        )
        assert report.ok, report.format()
        assert len(report.outcomes) == 8

    @pytest.mark.fuzz
    def test_acceptance_campaign(self, tmp_path):
        plan = FaultPlan.generate(42, 50, layers=(LAYER_CHECKPOINT,))
        report = run_campaign(plan, workload="bank", config=CFG, workdir=tmp_path)
        assert report.ok, report.format()


class TestWatchdog:
    def test_hung_fault_is_classified_not_waited_on(self, tmp_path, monkeypatch):
        """A fault runner that never returns must surface as ``hang``
        within the configured watchdog — the harness may not block."""
        import time

        import repro.faults.campaign as campaign_mod

        monkeypatch.setattr(
            campaign_mod, "_run_one", lambda spec, **ctx: time.sleep(30)
        )
        plan = FaultPlan.generate(1, 1, layers=("trace",))
        report = run_campaign(
            plan,
            workload="bank",
            workload_kwargs={"tellers": 2, "deposits": 8},
            config=CFG,
            workdir=tmp_path,
            fault_timeout=0.3,
        )
        assert report.outcomes[0].outcome == "hang"
        assert "0.3" in report.outcomes[0].detail
        assert not report.ok
