"""The replay-divergence doctor: *why* did this trace fail?

A raw :class:`~repro.vm.errors.ReplayDivergenceError` tells you *that*
replay diverged; a :class:`~repro.vm.errors.TraceFormatError` tells you a
byte was wrong somewhere.  Neither tells you what to do next.  The doctor
runs the whole differential diagnosis offline — validation, salvage,
configuration comparison, then an instrumented replay — and classifies
the failure into one actionable bucket:

==========================  ================================================
classification              meaning / the fix
==========================  ================================================
``clean``                   trace loads sealed and (given a program) replays
                            faithfully — nothing is wrong
``not-a-trace``             empty file or bad magic: wrong file entirely
``version-skew``            a DejaVu trace, but a version this build cannot
                            read — use the build that wrote it
``codec-mismatch``          a segment carries a codec byte (or group-codec
                            mode) this build does not implement — use a
                            newer build; the bytes themselves are intact
``truncated-tail``          the recorder died mid-run; the intact prefix was
                            salvaged and replays to the point of death
``corrupt-segment``         storage damage (CRC/footer mismatch) at a known
                            segment — restore from a good copy
``slim-underdetermined``    a slim (v3.2) trace whose dropped schedule cannot
                            be reconstructed: the sidecar is missing,
                            truncated, or inconsistent with its meta, or the
                            replayed sync order disagrees with the recorded
                            witness — restore an intact copy, or re-record
                            without ``--slim``
``engine-config-mismatch``  the replay VM is sized differently from the
                            recording VM (heap/stack/cycle budget) — replay
                            under the recorded fingerprint
``workload-kwargs-mismatch``the program being replayed was built with
                            different parameters than the recorded one
``nondeterminism``          file and configuration are fine, yet replay
                            diverges: an unlogged source of nondeterminism
                            (or the wrong program) — a genuine bug
``corrupt-checkpoint``      the trace is fine but its ``.ckpt`` sidecar is
                            damaged, unsealed or of an older format — resume
                            degrades gracefully;
                            regenerate the sidecar for full acceleration
``checkpoint-config-mismatch``  the sidecar's snapshots were captured under
                            a different VM config than the replay — they
                            cannot restore; re-capture under this config
==========================  ================================================

``repro doctor trace.djv`` drives :func:`diagnose` from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.tracelog import SalvageReport, TraceLog, config_fingerprint
from repro.vm.errors import (
    CheckpointError,
    ReplayDivergenceError,
    SlimReconstructError,
    TraceFormatError,
    VMError,
)

CLASS_CLEAN = "clean"
CLASS_NOT_A_TRACE = TraceFormatError.NOT_A_TRACE
CLASS_VERSION_SKEW = TraceFormatError.VERSION_SKEW
CLASS_TRUNCATED = TraceFormatError.TORN_TAIL
CLASS_CORRUPT = TraceFormatError.CORRUPT_SEGMENT
CLASS_CONFIG_MISMATCH = "engine-config-mismatch"
CLASS_KWARGS_MISMATCH = "workload-kwargs-mismatch"
CLASS_NONDETERMINISM = "nondeterminism"
CLASS_CKPT_CORRUPT = "corrupt-checkpoint"
CLASS_CKPT_CONFIG = "checkpoint-config-mismatch"
CLASS_CODEC = TraceFormatError.CODEC_MISMATCH
CLASS_SLIM = "slim-underdetermined"

#: classifications that mean "the file itself is not usable as input"
#: (a slim trace without a usable sidecar cannot drive any replay: the
#: dropped schedule is unrecoverable, so it sits in this tier too)
FORMAT_CLASSES = (CLASS_NOT_A_TRACE, CLASS_VERSION_SKEW, CLASS_CODEC, CLASS_SLIM)

#: words of context shown on each side of a stream cursor
STREAM_NEIGHBORHOOD = 5


def _stream_window(words: list[int], cursor: int, radius: int = STREAM_NEIGHBORHOOD) -> str:
    """±radius words around *cursor*, cursor marked — the word-stream
    analogue of the event neighborhood in :mod:`repro.core.verify`."""
    lo = max(0, cursor - radius)
    hi = min(len(words), cursor + radius + 1)
    if lo >= hi:
        return "  (stream empty)"
    parts = []
    for i in range(lo, hi):
        mark = ">" if i == cursor else " "
        parts.append(f" {mark}[{i}]={words[i]}")
    return " ".join(parts)


@dataclass
class DoctorReport:
    """The structured outcome of one :func:`diagnose` run."""

    classification: str
    detail: str
    path: str
    #: every check the doctor ran, in order, with its verdict
    checks: list[str] = field(default_factory=list)
    salvage: "SalvageReport | None" = None
    #: where replay stopped/diverged (value-stream word cursor)
    divergence_position: int | None = None
    thread: int | None = None
    method: str | None = None
    bci: int | None = None
    #: ±N-word windows of the switch and value streams at the cursors
    switch_neighborhood: str = ""
    value_neighborhood: str = ""
    #: whether a salvaged prefix replayed cleanly (None: none was replayed)
    prefix_replays: bool | None = None

    @property
    def ok(self) -> bool:
        return self.classification == CLASS_CLEAN

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 clean, 1 finding, 2 unusable input."""
        if self.ok:
            return 0
        return 2 if self.classification in FORMAT_CLASSES else 1

    def format(self) -> str:
        lines = [f"doctor: {self.path}",
                 f"classification: {self.classification}",
                 f"detail: {self.detail}"]
        for check in self.checks:
            lines.append(f"  - {check}")
        if self.salvage is not None:
            lines.append(f"salvage: {self.salvage.describe()}")
        if self.divergence_position is not None:
            lines.append(f"first divergent record: value-stream word "
                         f"{self.divergence_position}")
        if self.thread is not None:
            where = f"thread {self.thread}"
            if self.method is not None:
                where += f" in {self.method}"
                if self.bci is not None:
                    where += f" @bci {self.bci}"
            lines.append(f"replay stopped at: {where}")
        if self.value_neighborhood:
            lines.append("value stream at cursor:")
            lines.append(self.value_neighborhood)
        if self.switch_neighborhood:
            lines.append("switch stream at cursor:")
            lines.append(self.switch_neighborhood)
        return "\n".join(lines)


def classify_format_error(exc: TraceFormatError) -> str:
    """Map a load failure to its doctor classification: the class the
    raising decoder typed it with."""
    return exc.format_class


def diagnose(
    path,
    *,
    program=None,
    config=None,
    workload_kwargs: dict | None = None,
) -> DoctorReport:
    """Validate + salvage + replay-diagnose a trace file, offline.

    *program* (a :class:`~repro.api.GuestProgram`) enables the replay
    stage; without it the doctor stops after the static checks.  *config*
    is the VM configuration the replay would run under — its fingerprint
    is compared against the recorded one.  *workload_kwargs* are the build
    parameters the caller intends to rebuild the program with (the CLI
    passes the resolved ``--workload``/``-W`` set).
    """
    path = str(path)
    report = DoctorReport(classification=CLASS_CLEAN, detail="", path=path)

    # -- stage 1: load, salvaging if the sealed load fails ----------------
    trace: TraceLog
    try:
        trace = TraceLog.load(path)
        report.checks.append("load: sealed trace, all segment CRCs verify")
    except TraceFormatError as exc:
        classification = classify_format_error(exc)
        report.checks.append(f"load: FAILED ({exc})")
        if classification in FORMAT_CLASSES:
            report.classification = classification
            report.detail = str(exc)
            return report
        try:
            trace = TraceLog.salvage(path)
        except TraceFormatError as exc2:  # pragma: no cover - defensive
            report.classification = CLASS_NOT_A_TRACE
            report.detail = str(exc2)
            report.checks.append(f"salvage: FAILED ({exc2})")
            return report
        report.salvage = trace.salvage_report
        report.checks.append(f"salvage: {trace.salvage_report.describe()}")
        report.classification = classification
        report.detail = str(exc)

    # -- stage 1b: slim sidecar consistency (static) ----------------------
    # run only when the framing itself survived (clean or torn-tail): CRC
    # damage keeps its corrupt-segment verdict, which names the real cause
    slim_evidence = (
        trace.slim_info is not None
        or bool(trace.slim)
        or bool(getattr(trace, "salvage_report", None)
                and trace.salvage_report.slim_segments)
    )
    if slim_evidence and report.classification in (CLASS_CLEAN, CLASS_TRUNCATED):
        from repro.core.controller import ScheduleReconstructor

        try:
            if trace.slim_info is None:
                raise SlimReconstructError(
                    "slim sidecar segments survive but the slim meta "
                    "(timer model, kept/dropped counts) was lost"
                )
            ScheduleReconstructor(None, trace)
        except SlimReconstructError as exc:
            report.checks.append(f"slim sidecar: UNUSABLE ({exc})")
            report.classification = CLASS_SLIM
            report.detail = (
                f"slim trace cannot drive reconstruction: {exc} — the "
                "dropped schedule is underdetermined without an intact "
                "sidecar; restore a good copy or re-record without --slim"
            )
            return report
        report.checks.append("slim sidecar: drop runs consistent with meta")

    # -- stage 2: configuration fingerprints ------------------------------
    recorded_fp = trace.meta.get("config")
    if config is not None and recorded_fp is not None:
        replay_fp = config_fingerprint(config)
        if replay_fp != recorded_fp:
            report.checks.append(
                f"config: MISMATCH (recorded {recorded_fp}, replaying {replay_fp})"
            )
            if report.classification == CLASS_CLEAN:
                report.classification = CLASS_CONFIG_MISMATCH
                report.detail = (
                    f"trace was recorded under '{recorded_fp}' but the replay "
                    f"VM is configured '{replay_fp}' — heap/stack sizing "
                    "changes GC timing and stack-growth events, so this "
                    "replay can diverge for configuration reasons alone"
                )
            return report
        report.checks.append(f"config: fingerprints match ({recorded_fp})"
                             if recorded_fp else "config: no recorded fingerprint")
    elif recorded_fp is None:
        report.checks.append("config: trace carries no fingerprint")

    # -- stage 3: workload build parameters -------------------------------
    recorded_kwargs = dict(trace.meta.get("workload_kwargs") or {})
    if workload_kwargs is not None and recorded_kwargs:
        intended = dict(workload_kwargs)
        if intended != recorded_kwargs:
            diffs = sorted(
                k for k in set(intended) | set(recorded_kwargs)
                if intended.get(k) != recorded_kwargs.get(k)
            )
            report.checks.append(f"workload kwargs: MISMATCH on {diffs}")
            if report.classification == CLASS_CLEAN:
                report.classification = CLASS_KWARGS_MISMATCH
                report.detail = (
                    f"trace records workload kwargs {recorded_kwargs} but the "
                    f"program would be rebuilt with {intended} (differs on "
                    f"{', '.join(diffs)}) — a differently-built program is a "
                    "different execution"
                )
            return report
        report.checks.append("workload kwargs: match the recording")

    # -- stage 4: instrumented replay -------------------------------------
    if program is None:
        report.checks.append("replay: skipped (no program given; static checks only)")
        if report.classification == CLASS_CLEAN:
            report.detail = (
                "trace is sealed and intact; pass a program or --workload "
                "for the replay stage"
            )
    else:
        _replay_stage(report, trace, program, config)

    # -- stage 5: checkpoint sidecar, if one sits next to the trace -------
    _checkpoint_stage(report, trace, config)
    return report


def _replay_stage(report: DoctorReport, trace: TraceLog, program, config) -> None:
    # local imports: repro.api imports repro.core, so importing it at
    # module top would be circular
    from repro.api import build_vm, replay_prefix
    from repro.core.controller import MODE_REPLAY, DejaVu

    if trace.truncated:
        try:
            prefix = replay_prefix(program, trace, config=config)
        except SlimReconstructError as exc:
            report.checks.append(f"prefix replay: SLIM RECONSTRUCTION FAILED ({exc})")
            report.classification = CLASS_SLIM
            report.detail = (
                f"salvaged slim trace cannot replay: {exc} — the dropped "
                "schedule is underdetermined without an intact sidecar"
            )
            return
        except VMError as exc:
            # the prefix itself misbehaves — keep the truncation verdict
            # but record that even the surviving prefix is suspect
            report.prefix_replays = False
            report.checks.append(
                f"prefix replay: FAILED ({type(exc).__name__}: {exc})"
            )
            report.detail = f"{report.detail} — and the salvaged prefix does " \
                            f"not replay ({exc})"
            return
        report.prefix_replays = True
        report.checks.append(
            f"prefix replay: consumed {prefix.words_consumed} value words, "
            + ("ran to completion" if prefix.complete
               else "stopped cleanly at the end of the prefix")
        )
        report.detail = (
            f"{report.detail} — salvaged prefix replays "
            f"({prefix.words_consumed} value words consumed)"
        )
        return

    vm = build_vm(program, config)
    try:
        DejaVu(vm, MODE_REPLAY, trace=trace)
        vm.run(program.main)
    except SlimReconstructError as exc:
        report.checks.append(f"replay: SLIM RECONSTRUCTION FAILED ({exc})")
        report.classification = CLASS_SLIM
        report.detail = (
            f"slim schedule reconstruction failed: {exc} — the model timer "
            "or sync-order witness disagrees with the recorded schedule; "
            "the replay refused to continue rather than silently diverge"
        )
        _capture_failure_context(report, vm, trace, exc)
        return
    except ReplayDivergenceError as exc:
        report.checks.append(f"replay: DIVERGED ({exc})")
        report.classification = CLASS_NONDETERMINISM
        report.detail = (
            f"the file and configuration are sound, yet replay diverged: "
            f"{exc} — an unlogged nondeterminism source, or the wrong "
            "program for this trace"
        )
        _capture_failure_context(report, vm, trace, exc)
        return
    except VMError as exc:
        report.checks.append(f"replay: FAILED ({type(exc).__name__}: {exc})")
        report.classification = CLASS_NONDETERMINISM
        report.detail = f"replay failed outright: {exc}"
        _capture_failure_context(report, vm, trace, exc)
        return
    report.checks.append("replay: faithful (END witnesses verified)")
    report.detail = "trace is sealed, intact, and replays faithfully"


def _checkpoint_stage(report: DoctorReport, trace: TraceLog, config) -> None:
    """Vet the ``<trace>.ckpt`` sidecar when one exists.

    A damaged or mismatched sidecar never blocks replay — the fallback
    ladder bottoms out at replay-from-zero — so this stage only *adds* a
    finding to an otherwise-clean report; the trace's own verdict wins.
    """
    from repro.core.checkpoint import CheckpointStore, sidecar_path

    sidecar = sidecar_path(report.path)
    tmp = Path(str(sidecar) + ".tmp")
    if not sidecar.exists() and not tmp.exists():
        return
    try:
        store = CheckpointStore.load(sidecar)
    except CheckpointError as exc:
        report.checks.append(f"checkpoints: FAILED to load ({exc})")
        if report.classification == CLASS_CLEAN:
            report.classification = CLASS_CKPT_CORRUPT
            report.detail = (
                f"checkpoint sidecar is unreadable ({exc}) — resume and "
                "time-travel seeks fall back to replay-from-zero; delete "
                "the sidecar or regenerate with --checkpoint-every "
                "('repro replay --checkpoint-every N')"
            )
        return
    report.checks.append(f"checkpoints: {store.describe()}")

    # every snapshot in a sidecar shares one config fingerprint; compare
    # it against the replay config (or the trace's own, absent a config)
    ckpt_fp = store.meta.get("config")
    if ckpt_fp is None and store.snapshots:
        ckpt_fp = store.snapshots[0].header.get("config")
    expected = (
        config_fingerprint(config)
        if config is not None
        else trace.meta.get("config")
    )
    if ckpt_fp is not None and expected is not None and ckpt_fp != expected:
        report.checks.append(
            f"checkpoint config: MISMATCH (sidecar {ckpt_fp}, replay {expected})"
        )
        if report.classification == CLASS_CLEAN:
            report.classification = CLASS_CKPT_CONFIG
            report.detail = (
                f"checkpoints were captured under '{ckpt_fp}' but replay "
                f"runs under '{expected}' — snapshots index config-compiled "
                "state and cannot restore; re-capture under the replay config"
            )
        return

    if store.damaged:
        what = store.error or (
            f"{store.skipped} snapshot(s) failed digest verification"
            if store.skipped
            else f"sidecar never sealed (reading {store.source})"
        )
        report.checks.append(f"checkpoint integrity: DAMAGED ({what})")
        if report.classification == CLASS_CLEAN:
            report.classification = CLASS_CKPT_CORRUPT
            report.detail = (
                f"trace is fine but its checkpoint sidecar is damaged: "
                f"{what} — {len(store.snapshots)} usable snapshot(s) remain, "
                "resume degrades gracefully; regenerate the sidecar to "
                "restore full seek acceleration"
            )
        return
    report.checks.append("checkpoint integrity: sealed, all digests verify")


def _capture_failure_context(report, vm, trace: TraceLog, exc) -> None:
    dv = vm.dejavu
    if dv is not None:
        report.divergence_position = getattr(exc, "position", None)
        if report.divergence_position is None:
            report.divergence_position = dv._value_cursor
        report.value_neighborhood = _stream_window(trace.values, dv._value_cursor)
        report.switch_neighborhood = _stream_window(trace.switches, dv._switch_cursor)
    thread = vm.scheduler.current
    if thread is not None:
        report.thread = thread.tid
        if thread.frames:
            frame = thread.frames[-1]
            report.method = frame.method.qualname
            report.bci = frame.bci
