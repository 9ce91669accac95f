"""DejaVu: the deterministic record/replay platform (the paper's core).

Public surface:

* :class:`repro.core.controller.DejaVu` — the record/replay controller
  attached to a :class:`repro.vm.VirtualMachine`;
* :class:`repro.core.controller.SymmetryConfig` — the symmetric-
  instrumentation knobs (each individually ablatable, §2.4);
* :class:`repro.core.tracelog.TraceLog` — a recorded execution;
* :mod:`repro.core.checkpoint` — digest-verified machine snapshots for
  crash-resumable replay and O(interval) time-travel seeks;
* :mod:`repro.core.verify` — replay accuracy checking.

The convenience API (record a program / replay a trace in one call) lives
in :mod:`repro.api`.
"""

from repro.core.checkpoint import (
    CheckpointRecorder,
    CheckpointStore,
    CheckpointWriter,
    Snapshot,
    capture_snapshot,
    machine_digest,
    restore_vm,
    sidecar_path,
)
from repro.core.controller import MODE_RECORD, MODE_REPLAY, DejaVu, SymmetryConfig
from repro.core.doctor import DoctorReport, diagnose
from repro.core.tracelog import TraceLog, TraceWriter, config_fingerprint
from repro.core.verify import ReplayReport, assert_faithful_replay, compare_runs

__all__ = [
    "CheckpointRecorder",
    "CheckpointStore",
    "CheckpointWriter",
    "DejaVu",
    "DoctorReport",
    "MODE_RECORD",
    "MODE_REPLAY",
    "ReplayReport",
    "Snapshot",
    "SymmetryConfig",
    "TraceLog",
    "TraceWriter",
    "assert_faithful_replay",
    "capture_snapshot",
    "compare_runs",
    "config_fingerprint",
    "diagnose",
    "machine_digest",
    "restore_vm",
    "sidecar_path",
]
