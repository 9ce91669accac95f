"""Error taxonomy for the VM, the assembler and the replay platform."""

from __future__ import annotations


class VMError(Exception):
    """Base class for all VM-level errors (host-visible, not guest traps)."""


class AssemblyError(VMError):
    """Raised by the assembler for malformed assembly input."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        where = ""
        if source is not None:
            where += f"{source}:"
        if line is not None:
            where += f"{line}: "
        super().__init__(f"{where}{message}")


class VerifyError(VMError):
    """Raised by the bytecode verifier / reference-map builder."""

    def __init__(self, message: str, method: str | None = None, offset: int | None = None):
        self.method = method
        self.offset = offset
        where = ""
        if method is not None:
            where = f"{method}"
            if offset is not None:
                where += f"@{offset}"
            where += ": "
        super().__init__(f"{where}{message}")


class LinkError(VMError):
    """Raised at class-load/link time: missing classes, fields, methods."""


class HeapExhaustedError(VMError):
    """Raised when a semispace cannot satisfy an allocation even after GC."""


class VMTrap(VMError):
    """A guest-level trap (null dereference, bounds, div-by-zero, ...).

    Traps terminate the offending guest thread deterministically.  ``kind``
    is a short symbolic name used in trap reports so record and replay runs
    can be compared event-by-event.
    """

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {message}" if message else kind)


class UsageError(VMError):
    """The user asked for something malformed (CLI arguments, missing
    files, unknown workloads).  Distinct from runtime failures so the CLI
    can map it to exit status 2."""


class TraceFormatError(VMError):
    """A persisted trace is unreadable: bad magic, unsupported version,
    failed CRC, torn segment, or a truncated varint.

    ``stream`` names which part of the file broke (``"switch"``,
    ``"value"``, ``"meta"``, ``"footer"``, ``"header"``, or a segment
    label) and ``offset`` is the byte offset into that stream/file where
    decoding stopped — the two facts a salvage or a doctor report needs.
    ``format_class`` is the doctor's classification of the damage, set
    where the error is raised: a torn tail (the default: the bytes stop
    early, as a mid-run death leaves them), altered bytes, an encoding
    this build does not implement, a version it cannot read, or not a
    trace at all.
    """

    TORN_TAIL = "truncated-tail"
    CORRUPT_SEGMENT = "corrupt-segment"
    CODEC_MISMATCH = "codec-mismatch"
    VERSION_SKEW = "version-skew"
    NOT_A_TRACE = "not-a-trace"

    def __init__(
        self,
        message: str,
        *,
        stream: str | None = None,
        offset: int | None = None,
        format_class: str = TORN_TAIL,
    ):
        self.stream = stream
        self.offset = offset
        self.format_class = format_class
        where = ""
        if stream is not None:
            where = f"[{stream}"
            if offset is not None:
                where += f" @byte {offset}"
            where += "] "
        elif offset is not None:
            where = f"[@byte {offset}] "
        super().__init__(f"{where}{message}")


class CheckpointError(VMError):
    """Base class for checkpoint/restore failures.  Consumers treat any
    ``CheckpointError`` as "this checkpoint is unusable" and walk the
    fallback ladder: nearest earlier checkpoint, then replay-from-zero.
    """


class CheckpointFormatError(CheckpointError):
    """A checkpoint sidecar (or one snapshot inside it) is unreadable:
    bad magic, unsupported version, failed CRC, torn segment, or a
    machine-digest mismatch after decode (tampering the CRC missed)."""


class CheckpointConfigMismatch(CheckpointError):
    """A checkpoint was captured under a different VM configuration (heap,
    stack or cycle budget) than the restore target: a different machine.
    Engine toggles are not part of it — snapshots store canonical
    micro-op pcs, which restore under either engine.  Unlike other
    checkpoint errors this is not repaired by an earlier checkpoint (they
    all share the config), so it propagates as a typed diagnostic rather
    than falling back."""


class ReplayDivergenceError(VMError):
    """Replay observed state inconsistent with the recorded execution.

    This is the accuracy check failing: either the trace ran dry / had a
    record of the wrong type at the consumption point, or the replay
    verifier found differing event streams.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"at trace position {position}: {message}"
        super().__init__(message)


class SlimReconstructError(ReplayDivergenceError):
    """A slim (v3.2) trace could not drive schedule reconstruction.

    Slim traces omit sync-inferable switch deltas and re-derive them at
    replay from the modelled timer device plus the logged synchronization
    order.  When the sidecar is missing/truncated, the model timer fires
    outside the recorded schedule, or the sync-order witness disagrees,
    the reconstruction is *underdetermined* — raising this typed error is
    the contract, never a silently divergent replay.  Subclasses
    :class:`ReplayDivergenceError` so existing catch sites keep working;
    the doctor maps it to its own ``slim-underdetermined`` class.
    """


class TracePrefixEnd(VMError):
    """A replay of a *salvaged* (truncated) trace consumed the whole
    surviving prefix.  Not a divergence: the recording simply stops here,
    because the recorder died mid-run.  Raised only when the controller
    runs with ``tolerate_truncation`` (set automatically for traces whose
    meta carries ``truncated: True``); harness code catches it to report
    how far the prefix carried the re-execution.
    """

    def __init__(self, message: str, *, words_consumed: int = 0):
        self.words_consumed = words_consumed
        super().__init__(message)
