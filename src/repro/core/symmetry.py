"""Symmetric instrumentation machinery (§2.4 of the paper).

DejaVu cannot replay its own instrumentation — it *writes* in record mode
and *reads* in replay mode.  Where transparency is impossible, every side
effect that could touch the VM is made **identical in both modes**:

* **allocation** — the trace buffers are pre-allocated at initialisation
  (same objects, same addresses) instead of lazily at first use;
* **class loading & compilation** — DejaVu's own support classes (the
  record-side *and* replay-side I/O helpers) are pre-loaded and
  pre-compiled before the application starts, so neither mode triggers a
  class load the other doesn't;
* **I/O warm-up** — DejaVu writes a temporary file and immediately reads
  it back during initialisation in *both* modes, forcing both the input
  and the output paths to be exercised (and, in Jalapeño, compiled)
  symmetrically; the host path it warms is process-wide, so the file
  round trip runs once per process, and every session counts its
  warm-up;
* **stack overflow** — instrumentation transiently consumes guest stack
  words (more in replay than in record, as the paper notes), so the stack
  is grown *eagerly* whenever headroom falls below a mode-independent
  threshold, making growth points identical;
* **logical clock** — yield points executed inside instrumentation code
  (buffer flush/refill I/O) are not counted, via the ``liveclock`` flag of
  Figure 2.

Every mechanism can be individually disabled through
:class:`SymmetryConfig` — the ablation benchmarks show each one's absence
producing a replay divergence.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.vm.builder import ClassBuilder
from repro.vm.threads import EAGER_STACK_HEADROOM, GreenThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import DejaVu
    from repro.vm.classfile import ClassDef

#: transient guest-stack words an instrumentation activation consumes.
#: Replay reads, decodes and validates — it needs more frames than the
#: record-side write path ("the result can be unequal runtime activation-
#: stack increments at corresponding invocations of a DejaVu method").
RECORD_STACK_WORDS = 8
REPLAY_STACK_WORDS = 40

#: instrumentation-internal yield points executed per buffer drain
#: (the write path and the read path run different amounts of code).
FLUSH_INTERNAL_YIELDPOINTS = 3
REFILL_INTERNAL_YIELDPOINTS = 5


@dataclass
class SymmetryConfig:
    """The §2.4 mechanisms; disable one to reproduce the failure it prevents."""

    preallocate_buffers: bool = True
    preload_classes: bool = True
    io_warmup: bool = True
    eager_stack_growth: bool = True
    liveclock: bool = True

    @classmethod
    def all_off(cls) -> "SymmetryConfig":
        return cls(
            preallocate_buffers=False,
            preload_classes=False,
            io_warmup=False,
            eager_stack_growth=False,
            liveclock=False,
        )


def _record_io_classdef():
    """DejaVu's record-side I/O support class (guest code).

    The bodies are tiny but real: loading this class allocates metadata,
    line tables and interned strings in the guest heap — exactly the side
    effect the pre-loading rule exists to symmetrise.
    """
    cb = ClassBuilder("DejaVuRecordIO")
    m = cb.method("writeWord", "(I)I", static=True)
    m.iload(0).iconst(1).iadd().ireturn()
    m = cb.method("flushBlock", "(I)I", static=True)
    m.iload(0).istore(1)
    m.iconst(0).istore(2)
    m.label("loop")
    m.iload(2).iload(1).if_icmpge("done")
    m.iinc(2, 1).goto("loop")
    m.label("done").iload(2).ireturn()
    return cb.build()


def _replay_io_classdef():
    cb = ClassBuilder("DejaVuReplayIO")
    m = cb.method("readWord", "(I)I", static=True)
    m.iload(0).iconst(1).isub().ireturn()
    m = cb.method("refillBlock", "(I)I", static=True)
    m.iload(0).istore(1)
    m.iconst(0).istore(2)
    m.label("loop")
    m.iload(2).iload(1).if_icmpge("done")
    m.iinc(2, 2).goto("loop")
    m.label("done").iload(2).ireturn()
    return cb.build()


@functools.cache
def _support_classdefs() -> "tuple[ClassDef, ...]":
    """The support classes, built once per process: like any declared
    program class, a ClassDef is never written after it is built."""
    return _record_io_classdef(), _replay_io_classdef()


@functools.cache
def _warm_host_io() -> None:
    """Write a temp file then immediately read it back.  The host I/O
    path is the process's, so this runs once per process (a failed
    round trip raises and runs again next time)."""
    fd, path = tempfile.mkstemp(prefix="dejavu-warmup-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(b"\x00" * 64)
        with open(path, "rb") as f:
            data = f.read()
        assert len(data) == 64
    finally:
        os.unlink(path)


class SymmetryManager:
    """Executes the symmetry actions for one DejaVu session."""

    def __init__(self, dejavu: "DejaVu", config: SymmetryConfig):
        self.dejavu = dejavu
        self.config = config
        self._io_classes_loaded = False
        self.io_warmups = 0
        self.eager_grows = 0
        self.overflow_grows = 0

    # ------------------------------------------------------------------
    # initialisation-time actions

    def support_classes(self) -> "tuple[tuple[ClassDef, ...], bool]":
        """DejaVu's support classes, and whether they are pre-loaded.

        :meth:`VirtualMachine.start <repro.vm.machine.VirtualMachine.start>`
        declares them and, under the preload rule, loads them right after
        the main class, in a fixed order, whichever mode we are in (the
        paper: "pre-loading all the classes of DejaVu, whether needed
        only for record or replay").  Linking also compiles every method
        (symmetry in compilation).
        """
        return _support_classdefs(), self.config.preload_classes

    def init_actions(self) -> None:
        """Run before the application starts — identical in both modes."""
        self._io_classes_loaded = self.config.preload_classes
        if self.config.preallocate_buffers:
            self.dejavu.switch_buf.allocate()
            self.dejavu.value_buf.allocate()
        if self.config.io_warmup:
            _warm_host_io()
            self.io_warmups += 1

    # ------------------------------------------------------------------
    # drain-time actions (buffer flush in record / refill in replay)

    def on_drain(self, kind: str) -> None:
        if not self._io_classes_loaded:
            # lazy loading: the asymmetric behaviour the preload rule
            # prevents — record loads the writer class at first flush,
            # replay loads the reader class at first refill, shifting the
            # allocation streams apart.
            loader = self.dejavu.vm.loader
            if kind == "flush":
                loader.load("DejaVuRecordIO")
            else:
                loader.load("DejaVuReplayIO")
            self._io_classes_loaded = True
        n = FLUSH_INTERNAL_YIELDPOINTS if kind == "flush" else REFILL_INTERNAL_YIELDPOINTS
        for _ in range(n):
            self.dejavu.internal_yieldpoint()

    # ------------------------------------------------------------------
    # per-yield-point stack discipline

    def stack_check(self, thread: GreenThread) -> None:
        """Grow the thread stack before 'calling into DejaVu'.

        Symmetric: grow eagerly below a mode-independent threshold.
        Ablated: grow only when this mode's transient cost actually
        overflows — record and replay then grow at different points.
        """
        eager = self.config.eager_stack_growth
        if eager:
            need = EAGER_STACK_HEADROOM
        else:
            need = RECORD_STACK_WORDS if self.dejavu.recording else REPLAY_STACK_WORDS
        if thread.stack_capacity - thread.stack_used >= need:
            return
        self.dejavu.vm.scheduler.grow_stack(thread, need)
        if eager:
            self.eager_grows += 1
        else:
            self.overflow_grows += 1
