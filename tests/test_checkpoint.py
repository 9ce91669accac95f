"""Verified checkpoint/restore: capture, sidecar framing, resume ladder.

The contract under test (the robustness tentpole): a snapshot restores
to *exactly* the machine state the from-zero replay passes through — the
restore either reproduces the from-zero digests at every later boundary
and the identical final result, or it is refused with a typed error.  A
damaged sidecar may cost seek acceleration, never correctness.
"""

import hashlib
import itertools
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
    SEG_CKPT_FOOTER,
    SEG_CKPT_META,
    SEG_EVENTS,
    SEG_SNAPSHOT,
    CheckpointRecorder,
    CheckpointStore,
    CheckpointWriter,
    Snapshot,
    _digest_of,
    _EventsDigest,
    capture_snapshot,
    machine_digest,
    restore_vm,
    sidecar_path,
)
from repro.core.doctor import CLASS_CKPT_CORRUPT, diagnose
from repro.core.tracelog import TraceLog
from repro.campaign import run_faults_campaign
from repro.faults import FaultPlan, FaultRunContext
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
#: a snapshot payload's binary prefix: digest, cycles, event count, header length
PREFIX = 16 + 8 + 8 + 4
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


def _sealed_sidecar(recorded, tmp_path):
    """A sealed trace plus the sidecar of a checkpointed replay of it."""
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
        """A snapshot describes the machine, not the engine: both combos
        snapshot at identical boundaries with identical digests, and each
        combo's restore reproduces the later digests exactly."""
        reference = None
        for combo in EngineConfig.all_combinations():
            cfg = VMConfig(semispace_words=60_000, engine=combo)
            snapshots, _ = _replay_with_recorder(recorded.trace, config=cfg)
            witness = [(s.cycles, s.digest) for s in snapshots]
            if reference is None:
                reference = witness
            else:
                assert witness == reference, combo.describe()
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

    def test_frame_pc_inside_a_superinstruction_is_refused(self, recorded):
        """A frame's stored pc is canonical; restore maps it to an
        executable op of the restoring engine's code, and a pc that falls
        inside a superinstruction is a typed format error, never a frame
        parked mid-group."""
        snapshots, _ = _replay_with_recorder(recorded.trace)
        snap = snapshots[len(snapshots) // 2]
        methods = restore_vm(snap, racy_bank(), recorded.trace, config=CFG).loader.method_by_id

        def inside(frame):
            """A canonical pc inside a superinstruction of the frame's method."""
            xs = methods[frame[0]].code.xstart
            return next((a + 1 for a, b in zip(xs, xs[1:]) if b - a > 1), None)

        threads = [list(t) for t in snap.header["threads"]]
        ti, fi, pc = next(
            (ti, fi, inside(f))
            for ti, t in enumerate(threads)
            for fi, f in enumerate(t[16])
            if inside(f) is not None
        )
        frames = [list(f) for f in threads[ti][16]]
        frames[fi][1] = pc
        threads[ti][16] = frames
        header = dict(snap.header, threads=threads)
        header["digest"] = _digest_of(header, snap.words, snap.events)
        forged = Snapshot(header, snap.words, snap.events)
        with pytest.raises(CheckpointFormatError, match="inside a superinstruction"):
            restore_vm(forged, racy_bank(), recorded.trace, config=CFG)

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
        tampered = Snapshot(dict(snap.header), words, snap.events)
        with pytest.raises(CheckpointFormatError, match="digest mismatch"):
            tampered.verify()


def _segments(blob: bytes) -> list[tuple[bytes, int, int]]:
    """(kind, offset, payload length) of every segment of a sidecar."""
    out = []
    pos = len(CKPT_MAGIC) + 2
    while pos < len(blob):
        length = int.from_bytes(blob[pos + 1 : pos + 5], "little")
        out.append((blob[pos : pos + 1], pos, length))
        pos += 9 + length
    return out


def _segment_at(blob: bytes, kind: bytes = SEG_SNAPSHOT, which: int = 0) -> tuple[int, int]:
    """(offset, payload length) of a sidecar's *which*-th segment of
    *kind* (a Python index)."""
    return [(pos, n) for k, pos, n in _segments(blob) if k == kind][which]


def _with_payload(
    blob: bytes, payload: bytes, kind: bytes = SEG_SNAPSHOT, which: int = 0
) -> bytes:
    """*blob* with the payload of its *which*-th *kind* segment replaced,
    CRC made valid — damage the segment framing cannot see."""
    pos, length = _segment_at(blob, kind, which)
    segment = (
        kind
        + len(payload).to_bytes(4, "little")
        + zlib.crc32(payload).to_bytes(4, "little")
        + payload
    )
    return blob[:pos] + segment + blob[pos + 9 + length :]


class TestSidecar:
    @pytest.fixture
    def sealed(self, recorded, tmp_path):
        return _sealed_sidecar(recorded, tmp_path)

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
        writer.add(Snapshot(dict(snapshots[0].header), words, snapshots[0].events))
        writer.add(snapshots[1])
        writer.seal({})
        store = CheckpointStore.load(sidecar)
        assert [s.cycles for s in store.snapshots] == [snapshots[1].cycles]
        assert store.skipped == 1

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
        """(binary prefix + header JSON, words JSON, words) of the first
        snapshot segment."""
        blob = sidecar.read_bytes()
        pos, length = _segment_at(blob)
        payload = blob[pos + 9 : pos + 9 + length]
        header_end = PREFIX + int.from_bytes(payload[PREFIX - 4 : PREFIX], "little")
        return payload[:header_end], payload[header_end:], json.loads(payload[header_end:])

    def _first_events(self, sidecar) -> bytes:
        blob = sidecar.read_bytes()
        pos, length = _segment_at(blob, SEG_EVENTS)
        return blob[pos + 9 : pos + 9 + length]

    def test_header_is_canonical_json_with_frontier(self, sealed):
        sidecar = sidecar_path(sealed)
        head, words_blob, words = self._first_payload(sidecar)
        header = json.loads(head[PREFIX:])
        assert head[PREFIX:] == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert header["format"] == 4 and "digest" not in header
        # the machine, not the engine that ran it: no engine tag or
        # engine counters, nor a derived counter that restore ignores
        assert not {"engine", "fstat"} & header.keys()
        dv = dict(header["dv"])
        assert "nyp" not in dv and "replay_nyp" in dv
        lo = BOOT_WORDS + header["active"] * header["semi"]
        assert len(words) == BOOT_WORDS + header["bump"] - lo
        # the prefix repeats the cycle and event count the header holds
        assert int.from_bytes(head[16:24], "little") == header["cycles"]
        assert int.from_bytes(head[24:32], "little") == header["events"]
        # the first snapshot's event delta is the whole prefix, and the
        # digest covers it through the events digest
        events_blob = self._first_events(sidecar)
        assert len(json.loads(events_blob)) == header["events"] > 0
        events_digest = hashlib.blake2b(events_blob[1:-1], digest_size=16).digest()
        digest = hashlib.blake2b(
            head[PREFIX:] + words_blob + events_digest, digest_size=16
        ).digest()
        assert head[:16] == digest

    def test_tampered_stored_word_fails_digest_at_load(self, sealed):
        sidecar = sidecar_path(sealed)
        n_clean = len(CheckpointStore.load(sidecar).snapshots)
        head, _, words = self._first_payload(sidecar)
        words[len(words) // 2] ^= 1
        tampered = head + json.dumps(words, separators=(",", ":")).encode()
        sidecar.write_bytes(_with_payload(sidecar.read_bytes(), tampered))
        store = CheckpointStore.load(sidecar)
        assert store.damaged and store.skipped == 1
        assert "digest mismatch" in store.notes[0]
        assert len(store.snapshots) == n_clean - 1

    def test_planted_code_in_header_is_data_not_code(self, sealed, tmp_path):
        """Even under a matching digest, a header is parsed as JSON only."""
        sidecar = sidecar_path(sealed)
        marker = tmp_path / "ran"
        code = f"__import__('os').system('touch {marker}')".encode()
        head, words_blob, _ = self._first_payload(sidecar)
        events_blob = self._first_events(sidecar)
        events_digest = hashlib.blake2b(events_blob[1:-1], digest_size=16).digest()
        digest = hashlib.blake2b(code + words_blob + events_digest, digest_size=16).digest()
        payload = digest + head[16:32] + len(code).to_bytes(4, "little") + code + words_blob
        sidecar.write_bytes(_with_payload(sidecar.read_bytes(), payload))
        store = CheckpointStore.load(sidecar)
        assert store.damaged and store.skipped == 1
        assert "undecodable snapshot header" in store.notes[0]
        assert not marker.exists()

    @staticmethod
    def _as_version(sealed, version: int):
        """*sealed*'s sidecar with its file header saying *version*."""
        sidecar = sidecar_path(sealed)
        blob = bytearray(sidecar.read_bytes())
        blob[len(CKPT_MAGIC) : len(CKPT_MAGIC) + 2] = version.to_bytes(2, "little")
        sidecar.write_bytes(bytes(blob))
        return sidecar

    @pytest.fixture
    def v1_sidecar(self, sealed):
        """A sidecar whose file header says version 1 — the format that
        stored every heap word under a Python-repr header."""
        return self._as_version(sealed, 1)

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

    @pytest.fixture
    def v2_sidecar(self, sealed):
        """A sidecar whose file header says version 2 — the format whose
        every snapshot header repeated the whole event log."""
        return self._as_version(sealed, 2)

    def test_v2_load_names_the_version(self, v2_sidecar):
        with pytest.raises(CheckpointFormatError, match="version 2"):
            CheckpointStore.load(v2_sidecar)

    def test_v2_resume_falls_back_to_zero(self, recorded, sealed, v2_sidecar):
        resumed = resume_replay(
            racy_bank(), TraceLog.load(sealed), checkpoints=v2_sidecar, config=CFG
        )
        assert resumed.from_zero
        assert any("version 2" in a for a in resumed.attempts)
        assert resumed.result.heap_digest == recorded.result.heap_digest

    def test_v2_cli_verify_exits_2(self, sealed, v2_sidecar, capsys):
        assert cli_main(["checkpoint", "verify", str(sealed)]) == 2
        assert "version 2" in capsys.readouterr().err

    def test_v2_doctor_says_regenerate(self, sealed, v2_sidecar):
        report = diagnose(sealed, program=racy_bank(), config=CFG)
        assert report.classification == CLASS_CKPT_CORRUPT
        assert "version 2" in report.detail
        assert "regenerate with --checkpoint-every" in report.detail

    @pytest.fixture
    def v3_sidecar(self, sealed):
        """A sidecar whose file header says version 3 — the format whose
        frames stored executable (engine-specific) pcs under an engine
        tag."""
        return self._as_version(sealed, 3)

    def test_v3_load_names_the_version(self, v3_sidecar):
        with pytest.raises(CheckpointFormatError, match="version 3"):
            CheckpointStore.load(v3_sidecar)

    def test_v3_resume_falls_back_to_zero(self, recorded, sealed, v3_sidecar):
        resumed = resume_replay(
            racy_bank(), TraceLog.load(sealed), checkpoints=v3_sidecar, config=CFG
        )
        assert resumed.from_zero
        assert any("version 3" in a for a in resumed.attempts)
        assert resumed.result.heap_digest == recorded.result.heap_digest

    def test_v3_cli_verify_exits_2(self, sealed, v3_sidecar, capsys):
        assert cli_main(["checkpoint", "verify", str(sealed)]) == 2
        assert "version 3" in capsys.readouterr().err

    def test_v3_doctor_says_regenerate(self, sealed, v3_sidecar):
        report = diagnose(sealed, program=racy_bank(), config=CFG)
        assert report.classification == CLASS_CKPT_CORRUPT
        assert "version 3" in report.detail
        assert "regenerate with --checkpoint-every" in report.detail


class TestResumeReplay:
    @pytest.fixture
    def sealed(self, recorded, tmp_path):
        return _sealed_sidecar(recorded, tmp_path)

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


def _tamper_snapshot_words(sidecar, which: int) -> None:
    """Flip one stored word of the *which*-th snapshot segment (Python
    index), with its CRC made valid: only the machine digest can tell."""
    blob = sidecar.read_bytes()
    pos, length = _segment_at(blob, SEG_SNAPSHOT, which)
    payload = blob[pos + 9 : pos + 9 + length]
    header_end = PREFIX + int.from_bytes(payload[PREFIX - 4 : PREFIX], "little")
    words = json.loads(payload[header_end:])
    words[len(words) // 2] ^= 1
    payload = payload[:header_end] + json.dumps(words, separators=(",", ":")).encode()
    sidecar.write_bytes(_with_payload(blob, payload, SEG_SNAPSHOT, which))


class TestEventLog:
    """Format 3 stores the observer events once, as deltas the snapshots
    index by count, and digests them independently of the split."""

    def test_standalone_digest_equals_recorder_digest(self, recorded):
        program = racy_bank()
        vm = build_vm(program, CFG)
        DejaVu(vm, MODE_REPLAY, trace=recorded.trace)
        pairs = []
        CheckpointRecorder(
            vm, EVERY, sink=lambda snap: pairs.append((snap.digest, machine_digest(vm)))
        )
        vm.run(program.main)
        assert len(pairs) >= 3
        assert all(recorder == standalone for recorder, standalone in pairs)

    def test_events_digest_ignores_where_the_deltas_split(self, recorded):
        events = recorded.result.events
        assert len(events) > 10
        whole = _EventsDigest()
        whole.update(json.dumps(events, separators=(",", ":")).encode(), len(events))
        for cuts in ([0, 3, 3, 7], [1, 2, len(events) - 1], [len(events)]):
            split = _EventsDigest()
            bounds = [0, *cuts, len(events)]
            for lo, hi in zip(bounds, bounds[1:]):
                part = events[lo:hi]
                split.update(json.dumps(part, separators=(",", ":")).encode(), len(part))
            assert split.count == whole.count and split.digest() == whole.digest()

    def test_changing_one_event_row_changes_the_digest(self, recorded):
        snapshots, _ = _replay_with_recorder(recorded.trace)
        snap = snapshots[-1]
        events = list(snap.events)
        kind, *rest = events[len(events) // 2]
        events[len(events) // 2] = (kind, *rest, 0)
        changed = Snapshot(dict(snap.header), snap.words, events)
        assert changed.computed_digest() != snap.digest
        with pytest.raises(CheckpointFormatError, match="digest mismatch"):
            changed.verify()
        dropped = Snapshot(dict(snap.header), snap.words, events[:-1])
        with pytest.raises(CheckpointFormatError, match="events"):
            dropped.verify()

    def test_sidecar_logs_each_event_once(self, recorded, tmp_path):
        sidecar = sidecar_path(_sealed_sidecar(recorded, tmp_path))
        blob = sidecar.read_bytes()
        deltas = [
            json.loads(blob[pos + 9 : pos + 9 + n])
            for k, pos, n in _segments(blob) if k == SEG_EVENTS
        ]
        store = CheckpointStore.load(sidecar)
        newest = store.newest_first()[0]
        assert sum(len(d) for d in deltas) == newest.header["events"]
        assert [tuple(e) for d in deltas for e in d] == list(newest.events)
        assert list(newest.events) == recorded.result.events[: len(newest.events)]

    def test_tampered_event_delta_fails_the_snapshots_after_it(self, recorded, tmp_path):
        sidecar = sidecar_path(_sealed_sidecar(recorded, tmp_path))
        n_clean = len(CheckpointStore.load(sidecar).snapshots)
        blob = sidecar.read_bytes()
        pos, length = _segment_at(blob, SEG_EVENTS)
        rows = json.loads(blob[pos + 9 : pos + 9 + length])
        rows[0][0] = rows[0][0] + "x"
        sidecar.write_bytes(_with_payload(
            blob, json.dumps(rows, separators=(",", ":")).encode(), SEG_EVENTS
        ))
        store = CheckpointStore.load(sidecar)
        # the first delta is every snapshot's prefix: none survives
        assert store.snapshots == [] and store.skipped == n_clean
        assert all("digest mismatch" in note for note in store.notes)

    def test_writer_refuses_snapshots_out_of_capture_order(self, recorded, tmp_path):
        snapshots, _ = _replay_with_recorder(recorded.trace)
        writer = CheckpointWriter(tmp_path / "x.ckpt")
        writer.add(snapshots[1])
        with pytest.raises(CheckpointError, match="capture order"):
            writer.add(snapshots[0])
        writer.abandon()

    def test_prune_gives_the_first_kept_snapshot_the_full_prefix(
        self, recorded, tmp_path, capsys
    ):
        trace_path = _sealed_sidecar(recorded, tmp_path)
        sidecar = sidecar_path(trace_path)
        before = CheckpointStore.load(sidecar).snapshots
        assert cli_main(["checkpoint", "prune", str(trace_path), "--keep", "2"]) == 0
        assert cli_main(["checkpoint", "verify", str(trace_path)]) == 0
        store = CheckpointStore.load(sidecar)
        assert [(s.cycles, s.digest) for s in store.snapshots] == [
            (s.cycles, s.digest) for s in before[-2:]
        ]
        blob = sidecar.read_bytes()
        pos, length = _segment_at(blob, SEG_EVENTS)
        first = json.loads(blob[pos + 9 : pos + 9 + length])
        assert len(first) == before[-2].header["events"]
        resumed = resume_replay(
            racy_bank(), TraceLog.load(trace_path), checkpoints=sidecar, config=CFG
        )
        assert resumed.resumed_from == before[-1].cycles
        assert resumed.result.behavior_key() == recorded.result.behavior_key()


class TestLazyResume:
    """A resume decodes only the snapshot it restores; full verification
    stays with the doctor and ``repro checkpoint``."""

    @pytest.fixture
    def sealed(self, recorded, tmp_path):
        return _sealed_sidecar(recorded, tmp_path)

    def _resume(self, sealed):
        return resume_replay(
            racy_bank(), TraceLog.load(sealed), checkpoints=sidecar_path(sealed),
            config=CFG,
        )

    def test_tampered_older_snapshot_does_not_stop_resume_from_newest(
        self, recorded, sealed, capsys
    ):
        cycles = [s.cycles for s in CheckpointStore.load(sidecar_path(sealed)).snapshots]
        _tamper_snapshot_words(sidecar_path(sealed), 0)
        resumed = self._resume(sealed)
        assert resumed.resumed_from == cycles[-1]
        assert not any("unusable" in a for a in resumed.attempts)
        assert resumed.result.behavior_key() == recorded.result.behavior_key()
        assert cli_main(["checkpoint", "verify", str(sealed)]) == 1
        out = capsys.readouterr().out
        assert "snapshot #0: machine digest mismatch" in out
        assert "1 failed digest verification" in out

    def test_tampered_newest_snapshot_falls_back_to_the_next(
        self, recorded, sealed, capsys
    ):
        cycles = [s.cycles for s in CheckpointStore.load(sidecar_path(sealed)).snapshots]
        _tamper_snapshot_words(sidecar_path(sealed), -1)
        resumed = self._resume(sealed)
        assert resumed.resumed_from == cycles[-2]
        named = [a for a in resumed.attempts if f"@{cycles[-1]} unusable" in a]
        assert len(named) == 1 and "digest mismatch" in named[0]
        assert resumed.result.behavior_key() == recorded.result.behavior_key()
        assert cli_main(["checkpoint", "verify", str(sealed)]) == 1
        assert f"snapshot #{len(cycles) - 1}: machine digest mismatch" in capsys.readouterr().out

    def test_doctor_still_verifies_every_snapshot(self, sealed):
        _tamper_snapshot_words(sidecar_path(sealed), 0)
        report = diagnose(sealed, program=racy_bank(), config=CFG)
        assert report.classification == CLASS_CKPT_CORRUPT
        assert "1 snapshot(s) failed digest verification" in report.detail

    def test_resume_decodes_one_snapshot_and_restore_encodes_nothing(
        self, recorded, sealed, monkeypatch
    ):
        import repro.core.checkpoint as ckpt

        calls = {"decode": 0, "encode": 0}
        decode, encode = ckpt._decode_snapshot_payload, ckpt._encode_json

        def counting_decode(*args):
            calls["decode"] += 1
            return decode(*args)

        def counting_encode(*args):
            calls["encode"] += 1
            return encode(*args)

        monkeypatch.setattr(ckpt, "_decode_snapshot_payload", counting_decode)
        resumed = self._resume(sealed)
        assert not resumed.from_zero and calls["decode"] == 1

        # restore_vm re-encodes nothing for a decoded snapshot ...
        monkeypatch.setattr(ckpt, "_encode_json", counting_encode)
        newest = CheckpointStore.load(sidecar_path(sealed)).newest_first()[0]
        restore_vm(newest, racy_bank(), recorded.trace, config=CFG)
        assert calls["encode"] == 0
        # ... nor for one captured in this process ...
        monkeypatch.setattr(ckpt, "_encode_json", encode)
        snapshots, _ = _replay_with_recorder(recorded.trace)
        monkeypatch.setattr(ckpt, "_encode_json", counting_encode)
        restore_vm(snapshots[-1], racy_bank(), recorded.trace, config=CFG)
        assert calls["encode"] == 0
        # ... but verifies a hand-built one in full
        snap = snapshots[-1]
        restore_vm(
            Snapshot(dict(snap.header), list(snap.words), snap.events),
            racy_bank(), recorded.trace, config=CFG,
        )
        assert calls["encode"] > 0


class TestMalformedHeader:
    """The machine digest is not a MAC: a header edited and re-digested
    verifies, so restore checks its shape as it unpacks it and refuses a
    malformed one with a typed error the resume ladder walks past."""

    @staticmethod
    def _forge(sidecar, edit) -> Snapshot:
        """Rewrite the newest snapshot of *sidecar* with *edit* applied
        to its header and the digest recomputed; returns the forgery."""
        store = CheckpointStore.load(sidecar)
        snaps = store.snapshots
        newest = snaps[-1]
        header = {k: v for k, v in newest.header.items() if k != "digest"}
        edit(header)
        header["digest"] = _digest_of(header, newest.words, newest.events)
        forged = Snapshot(header, list(newest.words), newest.events)
        forged.verify()  # digest-valid
        writer = CheckpointWriter(sidecar)
        for snap in [*snaps[:-1], forged]:
            writer.add(snap)
        writer.seal(store.meta)
        return forged

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("threads"),
        lambda h: h.pop("dv"),
        lambda h: h.update(threads=7),
        lambda h: h.update(gc=[1]),
        lambda h: h.update(class_addrs=[["Main"]]),
        lambda h: h.update(ready=[999]),
    ], ids=["no-threads", "no-dv", "threads-int", "gc-short", "class-addrs-short",
            "ready-unknown-tid"])
    def test_redigested_header_walks_down_the_ladder(self, recorded, tmp_path, edit):
        trace_path = _sealed_sidecar(recorded, tmp_path)
        sidecar = sidecar_path(trace_path)
        cycles = [s.cycles for s in CheckpointStore.load(sidecar).snapshots]
        forged = self._forge(sidecar, edit)
        with pytest.raises(CheckpointFormatError, match="malformed header"):
            restore_vm(forged, racy_bank(), recorded.trace, config=CFG)
        resumed = resume_replay(
            racy_bank(), TraceLog.load(trace_path), checkpoints=sidecar, config=CFG
        )
        assert resumed.resumed_from == cycles[-2]
        named = [a for a in resumed.attempts if f"@{cycles[-1]}" in a]
        assert len(named) == 1 and "malformed header" in named[0]
        assert resumed.result.behavior_key() == recorded.result.behavior_key()


class TestRecorderAfterRestore:
    """A recorder attached to a restored VM continues the snapshot's
    events digest: its first capture encodes only the rows since."""

    def test_first_capture_encodes_only_new_rows(self, recorded, tmp_path, monkeypatch):
        import repro.core.checkpoint as ckpt

        from_zero, _ = _replay_with_recorder(recorded.trace)
        want = {s.cycles: s.digest for s in from_zero}
        stored = CheckpointStore.load(sidecar_path(_sealed_sidecar(recorded, tmp_path)))
        sources = {
            "captured": from_zero[-3],
            "stored": next(s for s in stored.newest_first() if s.cycles == from_zero[-3].cycles),
        }
        encode = ckpt._encode_events
        for where, start in sources.items():
            vm = restore_vm(start, racy_bank(), recorded.trace, config=CFG)
            encoded: list[int] = []

            def counting(events):
                encoded.append(len(events))
                return encode(events)

            monkeypatch.setattr(ckpt, "_encode_events", counting)
            captured: list[Snapshot] = []
            CheckpointRecorder(vm, EVERY, sink=captured.append)
            vm.engine.run()
            vm.finish()
            monkeypatch.setattr(ckpt, "_encode_events", encode)
            first = captured[0]
            new_rows = first.header["events"] - start.header["events"]
            assert encoded[0] == new_rows < first.header["events"], where
            # every digest equals the from-zero recorder's at that cycle
            assert [s.digest for s in captured] == [want[s.cycles] for s in captured], where


def _resume_cases():
    for name in sorted(REGISTRY):
        for combo in EngineConfig.all_combinations():
            yield pytest.param(name, combo, id=f"{name}-{combo.describe()}")


class TestResumeEqualsReplay:
    @pytest.mark.parametrize("name,combo", list(_resume_cases()))
    def test_resumed_replay_equals_full_replay(self, name, combo, tmp_path):
        """Full and slim recordings of every registry workload, under
        every engine combination: a resume from the newest snapshot ends
        exactly where the full replay does, restored under the capturing
        engine and under the other one."""
        from tests.conftest import jitter_knobs

        program = REGISTRY[name].build()
        cfg = VMConfig(semispace_words=60_000, engine=combo)
        other = VMConfig(
            semispace_words=60_000,
            engine=next(c for c in EngineConfig.all_combinations() if c != combo),
        )
        for slim in (False, True):
            rec = record(program, config=cfg, slim=slim, **jitter_knobs(9))
            full = replay(program, rec.trace, config=cfg)
            sidecar = tmp_path / f"{slim}.ckpt"
            replay(
                program, rec.trace, config=cfg,
                checkpoint_every=max(1, rec.result.cycles // 3),
                checkpoint_out=sidecar,
            )
            for restore_cfg in (cfg, other):
                where = (slim, restore_cfg.engine.describe())
                resumed = resume_replay(
                    program, rec.trace, checkpoints=sidecar, config=restore_cfg
                )
                assert not resumed.from_zero, (where, resumed.attempts)
                got, want = resumed.result, full
                assert got.output_text == want.output_text, where
                assert got.cycles == want.cycles, where
                assert got.heap_digest == want.heap_digest, where
                assert got.events == want.events, where


class TestResumeMidCountdown:
    """Resumes from snapshots taken while a countdown is under way — a
    classic replay's, and a slim replay's in its explicit phase and in
    its model phase (inside a drop run) — end exactly where the from-zero
    replay does, events included.  ``philosophers`` at seed 2 keeps some
    switch deltas explicit and drops others, so its slim replay has both
    phases."""

    @pytest.fixture(scope="class")
    def runs(self):
        from tests.conftest import jitter_knobs

        program = REGISTRY["philosophers"].build()
        full = record(program, config=CFG, **jitter_knobs(2))
        slim = record(program, config=CFG, slim=True, **jitter_knobs(2))
        assert slim.trace.slim_info is not None
        # logical-clock positions of every recorded preemption
        fires = set(itertools.accumulate(full.trace.switches))
        return program, fires, full.trace, slim.trace

    @staticmethod
    def _phase(snap, fires):
        dv = dict(snap.header["dv"])
        if sum(t[15] for t in snap.header["threads"]) in fires:
            return None  # taken at a preemption: the countdown just re-armed
        slim = dict(dv.get("slim", ()))
        if dv["replay_nyp"] is not None:
            return "explicit" if slim else "classic"
        # a drop run under way, the model timer's next firing still ahead
        if slim and slim["remaining"] and slim["deadline"] > snap.header["cycles"]:
            return "model"
        return None

    @pytest.mark.parametrize("phase", ["classic", "explicit", "model"])
    def test_resume_mid_countdown_equals_full_replay(self, runs, phase):
        program, fires, full, slim = runs
        trace = full if phase == "classic" else slim
        want = replay(program, trace, config=CFG)
        vm = build_vm(program, CFG)
        DejaVu(vm, MODE_REPLAY, trace=trace)
        rec = CheckpointRecorder(vm, 150)
        assert vm.run(program.main) == want
        picked = [snap for snap in rec.snapshots if self._phase(snap, fires) == phase]
        assert picked
        for snap in picked:
            resumed = restore_vm(snap, program, trace, config=CFG)
            resumed.engine.run()
            assert resumed.finish() == want, snap.cycles


@pytest.mark.fuzz
class TestSidecarFuzz:
    """Seeded bit flips and truncations in each segment kind of a
    format-3 sidecar: every case ends in a typed error, a skipped
    snapshot, or a resume that equals the clean replay — never an
    untyped exception."""

    def test_seeded_damage_to_every_segment_kind(self, recorded, tmp_path):
        import random

        trace_path = _sealed_sidecar(recorded, tmp_path)
        sidecar = sidecar_path(trace_path)
        clean = sidecar.read_bytes()
        segments = _segments(clean)
        by_kind = {}
        for kind, pos, length in segments:
            by_kind.setdefault(kind, []).append((pos, length))
        assert set(by_kind) == {SEG_EVENTS, SEG_SNAPSHOT, SEG_CKPT_META, SEG_CKPT_FOOTER}
        trace = TraceLog.load(trace_path)
        want = recorded.result.behavior_key()
        rng = random.Random(2024)
        outcomes = {}
        for case in range(160):
            kind = sorted(by_kind)[case % len(by_kind)]
            pos, length = rng.choice(by_kind[kind])
            damaged = bytearray(clean)
            mode = rng.choice(("flip", "flip-recrc", "truncate"))
            if mode == "truncate":
                damaged = damaged[: rng.randrange(pos, pos + 9 + length)]
            else:
                at = rng.randrange(pos, pos + 9 + length)
                damaged[at] ^= 1 << rng.randrange(8)
                if mode == "flip-recrc" and at >= pos + 9:
                    payload = bytes(damaged[pos + 9 : pos + 9 + length])
                    damaged[pos + 5 : pos + 9] = zlib.crc32(payload).to_bytes(4, "little")
            sidecar.write_bytes(bytes(damaged))
            try:
                store = CheckpointStore.load(sidecar)
                store.describe()
                resumed = resume_replay(racy_bank(), trace, checkpoints=sidecar, config=CFG)
            except CheckpointError:
                outcomes["typed"] = outcomes.get("typed", 0) + 1
                continue
            assert resumed.result.behavior_key() == want, (case, kind, mode)
            key = "skipped" if store.skipped else (
                "resumed" if not resumed.from_zero else "from-zero"
            )
            outcomes[key] = outcomes.get(key, 0) + 1
        assert outcomes.get("skipped") and outcomes.get("resumed"), outcomes


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
    def test_small_campaign_recovers(self):
        plan = FaultPlan.generate(11, 8, layers=(LAYER_CHECKPOINT,))
        report = run_faults_campaign(
            plan,
            workload="bank",
            workload_kwargs={"tellers": 2, "deposits": 10},
            config=CFG,
            jobs=1,
        )
        assert report.ok, report.format()
        assert len(report.outcomes) == 8

    @pytest.mark.fuzz
    def test_acceptance_campaign(self):
        plan = FaultPlan.generate(42, 50, layers=(LAYER_CHECKPOINT,))
        report = run_faults_campaign(plan, workload="bank", config=CFG, jobs=1)
        assert report.ok, report.format()


class TestWatchdog:
    def test_hung_fault_is_classified_not_waited_on(self, monkeypatch):
        """A fault runner that never returns must surface as ``hang``
        within the configured watchdog — the harness may not block."""
        import time

        monkeypatch.setattr(
            FaultRunContext, "_run_one", lambda self, spec: time.sleep(30)
        )
        plan = FaultPlan.generate(1, 1, layers=("trace",))
        report = run_faults_campaign(
            plan,
            workload="bank",
            workload_kwargs={"tellers": 2, "deposits": 8},
            config=CFG,
            jobs=1,
            fault_timeout=0.3,
        )
        assert report.outcomes[0].outcome == "hang"
        assert "0.3" in report.outcomes[0].detail
        assert not report.ok
