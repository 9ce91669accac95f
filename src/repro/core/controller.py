"""The DejaVu controller: record and replay of non-deterministic events.

The controller attaches to a :class:`~repro.vm.machine.VirtualMachine` and
interposes on exactly three funnels:

1. **yield points** — a compiled yield point calls
   :meth:`DejaVu.at_yieldpoint`, the Figure-2 instrumentation
   (structurally identical in record and replay mode), once the logical
   clock reaches the engine's limit (see :meth:`DejaVu._set_limit`);
2. **wall-clock reads** — :meth:`clock_read` records/replays every value;
3. **non-deterministic natives** — :meth:`native_call` records/replays
   return values and callback (upcall) parameters, per §2.5.

Everything else — synchronization, GC, allocation, monitor hand-offs —
replays because the thread package and heap are themselves deterministic
state machines once these three funnels are pinned.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

from repro.core import events as ev
from repro.core.symmetry import SymmetryConfig, SymmetryManager
from repro.core.tracelog import TraceBuffer, TraceLog, TraceWriter, encode_words
from repro.vm.errors import (
    ReplayDivergenceError,
    SlimReconstructError,
    TracePrefixEnd,
    VMError,
)
from repro.vm.interp import NEVER
from repro.vm.memory import BOOT_DEJAVU
from repro.vm.native import BLOCK, NativeCall, NativeResult
from repro.vm.timerdev import timer_from_model

if TYPE_CHECKING:  # pragma: no cover
    from repro.explore.policy import SchedulePolicy
    from repro.vm.loader import RuntimeMethod
    from repro.vm.machine import VirtualMachine
    from repro.vm.native import NativeDef
    from repro.vm.threads import GreenThread

MODE_RECORD = "record"
MODE_REPLAY = "replay"

#: default guest-buffer capacities (words)
SWITCH_BUFFER_WORDS = 256
VALUE_BUFFER_WORDS = 512


# ---------------------------------------------------------------------------
# trace-v3.2 slim mode
#
# A switch delta's information content is the timer device's interval
# stream: when the timer is reconstructible from a compact spec
# (FixedTimer, a pristine SeededJitterTimer, NeverTimer), replay can
# install a fresh model device and the engine's own deadline arithmetic
# re-raises the preemptive hardware bit at exactly the recorded cycles —
# identical op stream, identical per-op cycle accounting, identical
# deadline crossings.  Those switches need zero log bytes.  The FastTrack
# detector classifies each inter-switch window; deltas adjacent to a racy
# window stay *explicit* in the switch stream as pinned defense-in-depth
# (reconstruction is never trusted near a data race), the rest are
# dropped and described by drop-run triples in the SEG_SLIM sidecar:
#
#     (kept_before, run_len, sync_delta)
#
# kept_before explicit switches separate this run from the previous one,
# run_len consecutive switches are model-driven, and sync_delta is the
# sync-order witness (monitor acquire/release + spawn + wakeup count)
# across the run — checked during reconstruction so a wrong schedule
# surfaces as a typed SlimReconstructError, never a silent divergence.


class SyncWitness:
    """Counts synchronization-order events (host-side, guest-invisible).

    Attached at run start in *both* modes by chaining onto whatever
    monitor/scheduler hooks are already installed (e.g. a race detector's),
    so the count is the same total order either way.
    """

    def __init__(self):
        self.count = 0
        self._attached = False

    def attach(self, vm) -> None:
        if self._attached:
            return
        self._attached = True
        self._chain(vm.monitors, "on_acquire")
        self._chain(vm.monitors, "on_release")
        self._chain(vm.scheduler, "on_spawn")
        self._chain(vm.scheduler, "on_wakeup")

    def _chain(self, owner, name: str) -> None:
        prev = getattr(owner, name, None)

        def hook(*args, _prev=prev):
            if _prev is not None:
                _prev(*args)
            self.count += 1

        setattr(owner, name, hook)


class SlimRecorder:
    """Record-side companion: marks every firing, classifies at seal.

    During the run it only closes detector regions and samples the sync
    witness — the guest-visible record path is *bit-identical* to a
    non-slim record.  The keep/drop partition happens after the run, in
    :func:`slim_partition`, where races can pin their earlier window
    retroactively.
    """

    def __init__(self, model: tuple, detector=None):
        self.model = model
        self.detector = detector
        self.witness = SyncWitness()
        #: witness count sampled at each firing (host list)
        self.marks: list[int] = []
        self.total_sync = 0

    def on_switch(self) -> None:
        if self.detector is not None:
            self.detector.end_region()
        self.marks.append(self.witness.count)

    def finish(self) -> None:
        if self.detector is not None:
            self.detector.end_region()  # close the tail window
        self.total_sync = self.witness.count

    def racy_regions(self) -> "set[int]":
        if self.detector is None:
            # no analysis, no inference: every window counts as racy, so
            # every delta stays explicit (the caller then degrades)
            return set(range(len(self.marks) + 1))
        return set(self.detector.racy_regions)


def slim_partition(
    deltas: list[int], marks: list[int], racy_regions: "set[int]"
) -> "tuple[list[int], list[int], int]":
    """Partition a full switch stream into (kept, sidecar, dropped).

    Window ``i`` is the execution between firing ``i-1`` and firing ``i``
    (window ``len(deltas)`` is the tail after the last firing).  Delta
    ``i`` is *kept* iff either window it bounds is race-adjacent;
    everything else becomes drop-run triples in the sidecar.
    """
    n = len(deltas)
    kept: list[int] = []
    sidecar: list[int] = []
    dropped = 0
    kept_since = 0
    i = 0
    while i < n:
        if i in racy_regions or (i + 1) in racy_regions:
            kept.append(deltas[i])
            kept_since += 1
            i += 1
            continue
        a = i
        while i < n and i not in racy_regions and (i + 1) not in racy_regions:
            i += 1
        anchor = marks[a - 1] if a > 0 else 0
        run_len = i - a
        sidecar.extend((kept_since, run_len, marks[i - 1] - anchor))
        dropped += run_len
        kept_since = 0
    return kept, sidecar, dropped


class _CountingTimer:
    """Wraps the replay-side model timer so checkpoints can record how
    many intervals were consumed (restore rebuilds a pristine device from
    the spec and burns that many)."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def next_interval(self) -> int:
        self.count += 1
        return self.inner.next_interval()


class ScheduleReconstructor:
    """Replay-side authority for slim traces: the phase machine.

    *Explicit phase* — the next recorded delta counts down exactly like a
    classic replay; at zero the firing is cross-checked against the model
    timer's hardware bit.  *Model phase* — inside a drop run there is no
    countdown at all (``_replay_at`` is None); the model timer raises the
    hardware bit, which drops the engine's yield-point limit, and the
    next yield point lands in :meth:`model_fire`.  Any firing the
    schedule cannot account for, and any sync-witness mismatch, raises
    :class:`SlimReconstructError`.
    """

    def __init__(self, dv: "DejaVu", trace: TraceLog):
        info = trace.slim_info
        assert info is not None
        if trace.truncated:
            raise SlimReconstructError(
                "slim trace is a salvaged prefix: without its sidecar tail "
                "the dropped schedule is underdetermined"
            )
        words = trace.slim
        if len(words) % 3:
            raise SlimReconstructError(
                f"slim sidecar holds {len(words)} words (not drop-run triples)"
            )
        self.runs = [tuple(words[i:i + 3]) for i in range(0, len(words), 3)]
        self.kept_total = info.get("kept")
        self.dropped_total = info.get("dropped")
        self.sync_total = info.get("sync_total")
        self.model = info.get("model")
        if self.model is None or self.kept_total is None:
            raise SlimReconstructError(
                "slim meta lacks the timer model / kept count — "
                "reconstruction is underdetermined"
            )
        if len(trace.switches) != self.kept_total:
            raise SlimReconstructError(
                f"slim trace holds {len(trace.switches)} explicit deltas "
                f"but meta promises {self.kept_total}"
            )
        if sum(r[1] for r in self.runs) != self.dropped_total:
            raise SlimReconstructError(
                "slim sidecar run lengths do not sum to the dropped count"
            )
        for j, (kept_before, run_len, sync_delta) in enumerate(self.runs):
            if run_len < 1 or kept_before < 0 or sync_delta < 0 or (
                j > 0 and kept_before < 1
            ):
                raise SlimReconstructError(
                    f"malformed slim drop-run triple #{j}: "
                    f"({kept_before}, {run_len}, {sync_delta})"
                )
        if sum(r[0] for r in self.runs) > self.kept_total:
            raise SlimReconstructError(
                "slim sidecar places drop runs beyond the explicit stream"
            )
        # cursors
        self._next_run = 0
        self._remaining = 0  # model firings left in the current run
        self._sync_want = 0
        self._anchor = 0
        self._kept_since_run = 0
        self.kept_done = 0
        self.dropped_done = 0

    # -- phase transitions ------------------------------------------------

    def _arm(self, dv: "DejaVu") -> int | None:
        """Arm the next firing: enter a drop run (None), or prefetch a delta."""
        if (
            self._next_run < len(self.runs)
            and self.runs[self._next_run][0] == self._kept_since_run
        ):
            _, run_len, sync_delta = self.runs[self._next_run]
            self._next_run += 1
            self._remaining = run_len
            self._sync_want = sync_delta
            self._anchor = dv._slim_witness.count
            return None
        return dv._take_switch()

    def explicit_fire(self, dv: "DejaVu") -> int | None:
        """An explicit countdown hit zero (a kept delta fired)."""
        if not dv.vm.engine.hw_bit:
            raise SlimReconstructError(
                "explicit switch not confirmed by the model timer "
                f"(after {self.kept_done} kept / {self.dropped_done} dropped)"
            )
        self.kept_done += 1
        self._kept_since_run += 1
        return self._arm(dv)

    def model_fire(self, dv: "DejaVu") -> int | None:
        """The model timer raised the hardware bit with no countdown armed."""
        if self._remaining == 0:
            raise SlimReconstructError(
                "model timer fired beyond the recorded schedule "
                f"(after {self.kept_done} kept / {self.dropped_done} dropped)"
            )
        self._remaining -= 1
        self.dropped_done += 1
        if self._remaining == 0:
            got = dv._slim_witness.count - self._anchor
            if got != self._sync_want:
                raise SlimReconstructError(
                    f"sync-order witness mismatch across drop run "
                    f"#{self._next_run - 1}: recorded {self._sync_want} "
                    f"events, replay saw {got}"
                )
            self._kept_since_run = 0
            return self._arm(dv)
        return None

    def finish(self, dv: "DejaVu") -> None:
        """End-of-run exhaustion checks (before the END witness compare)."""
        if self._remaining:
            raise SlimReconstructError(
                f"run ended inside a drop run ({self._remaining} model "
                "firings never happened)"
            )
        if self._next_run < len(self.runs):
            raise SlimReconstructError(
                f"{len(self.runs) - self._next_run} drop runs never reached"
            )
        if self.kept_done < self.kept_total:
            raise SlimReconstructError(
                f"{self.kept_total - self.kept_done} explicit switches "
                "never fired"
            )
        if self.sync_total is not None and dv._slim_witness.count != self.sync_total:
            raise SlimReconstructError(
                f"end-of-run sync-order witness mismatch: recorded "
                f"{self.sync_total} events, replay saw {dv._slim_witness.count}"
            )


class DejaVu:
    """One record or replay session bound to one VM."""

    def __init__(
        self,
        vm: "VirtualMachine",
        mode: str,
        trace: TraceLog | None = None,
        symmetry: SymmetryConfig | None = None,
        switch_buffer_words: int = SWITCH_BUFFER_WORDS,
        value_buffer_words: int = VALUE_BUFFER_WORDS,
        schedule: "SchedulePolicy | None" = None,
        writer: TraceWriter | None = None,
        slim_spec: tuple | None = None,
        slim_detector=None,
    ):
        if mode not in (MODE_RECORD, MODE_REPLAY):
            raise VMError(f"bad DejaVu mode {mode!r}")
        if mode == MODE_REPLAY and trace is None:
            raise VMError("replay mode requires a trace")
        if schedule is not None and mode != MODE_RECORD:
            raise VMError("a schedule policy only applies in record mode")
        if writer is not None and mode != MODE_RECORD:
            raise VMError("a trace writer only applies in record mode")
        if slim_spec is not None and mode != MODE_RECORD:
            raise VMError("slim_spec only applies in record mode")
        if slim_spec is not None and schedule is not None:
            raise VMError("slim recording and a schedule policy are exclusive")
        if vm.dejavu is not None:
            raise VMError("VM already has a DejaVu attached")
        self.vm = vm
        self.mode = mode
        self.recording = mode == MODE_RECORD
        self.replaying = mode == MODE_REPLAY
        #: optional record-side schedule source (repro.explore): when set,
        #: it — not the timer's hardware bit — decides preemption at each
        #: yield point, so a chosen schedule becomes an ordinary switch
        #: log that replays through the unchanged replay path.
        self.schedule = schedule
        self.symmetry_config = symmetry or SymmetryConfig()
        self.sym = SymmetryManager(self, self.symmetry_config)

        self.switch_buf = TraceBuffer(vm, switch_buffer_words)
        self.value_buf = TraceBuffer(vm, value_buffer_words, boot_slot=BOOT_DEJAVU)
        self.switch_buf.on_drain = self.sym.on_drain
        self.value_buf.on_drain = self.sym.on_drain

        # record-side sinks; a TraceWriter's sinks ARE lists, so attaching
        # one streams full segments to disk without the controller (or the
        # guest-heap buffers feeding it) behaving any differently.  A slim
        # record keeps its switch words in a plain host list instead: the
        # keep/drop partition happens at seal time, after which the caller
        # pushes the slimmed stream into the writer.
        self.writer = writer
        self._switch_sink: list[int] = (
            writer.switch_sink if writer is not None and slim_spec is None else []
        )
        self._value_sink: list[int] = (
            writer.value_sink if writer is not None else []
        )
        # replay-side sources and cursors
        self._trace = trace
        self._switch_cursor = 0
        self._value_cursor = 0
        #: a salvaged trace is a prefix, not a divergence: run to the end
        #: of the prefix and stop cleanly instead of raising divergence
        self.tolerate_truncation = bool(trace is not None and trace.truncated)

        # Figure 2 state, on the logical clock (Engine.yp_clock): a
        # recorded nyp is the clock's distance from _nyp_origin, and a
        # replay countdown reaches zero when the clock reaches _replay_at
        self._nyp_origin = 0
        self._replay_at: int | None = None
        self.liveclock = True
        self.threadswitch_bit = False
        #: see every yield point: a schedule policy decides at each, and
        #: the liveclock and eager-growth ablations act at each
        self._every_yp = (
            self.EVERY_YIELDPOINT
            or schedule is not None
            or not self.symmetry_config.liveclock
            or not self.symmetry_config.eager_stack_growth
        )

        self.stats = {
            "switch_records": 0,
            "clock_records": 0,
            "native_records": 0,
            "upcall_records": 0,
            "internal_yieldpoints": 0,
        }
        self._finished = False
        #: the running events digest of the snapshot this VM was restored
        #: from (:func:`repro.core.checkpoint.restore_vm`), or None: a
        #: checkpoint recorder attached later continues it rather than
        #: encoding the restored event prefix again
        self.restored_events = None

        # -- trace-v3.2 slim mode state
        self._slim_rec: SlimRecorder | None = None
        self._slim_replay: ScheduleReconstructor | None = None
        self._slim_witness: SyncWitness | None = None
        self._slim_timer: _CountingTimer | None = None
        if slim_spec is not None:
            self._slim_rec = SlimRecorder(slim_spec, slim_detector)
            self._slim_witness = self._slim_rec.witness
        elif self.replaying and trace is not None and trace.slim_info is not None:
            self._slim_witness = SyncWitness()
            self._slim_replay = ScheduleReconstructor(self, trace)
            inner = timer_from_model(self._slim_replay.model)
            self._slim_timer = _CountingTimer(inner) if inner is not None else None
        vm.dejavu = self
        self._set_limit()

    # ------------------------------------------------------------------
    # the logical clock and the engine's yield-point limit

    #: set by a subclass whose instrumentation acts at every yield point
    EVERY_YIELDPOINT = False

    def _set_limit(self) -> None:
        """Point the engine's yield-point limit at the next yield point
        this session must see."""
        engine = self.vm.engine
        if self._replay_at is not None and not self._every_yp:
            engine.yp_limit = self._replay_at
        else:
            engine.yp_limit = 0 if self._every_yp or engine.hw_bit else NEVER

    def _arm_countdown(self, delta: int | None) -> None:
        """Arm the replay countdown *delta* yield points ahead (None: none,
        as in a slim model phase)."""
        self._replay_at = None if delta is None else self.vm.engine.yp_clock() + delta

    @property
    def replay_nyp(self) -> int | None:
        """Yield points left on the replay countdown (None: none armed)."""
        at = self._replay_at
        return None if at is None else at - self.vm.engine.yp_clock()

    @contextmanager
    def _clock_paused(self):
        """Figure 2's ``liveclock = false`` around DejaVu's own work."""
        prev = self.liveclock
        self.liveclock = False
        try:
            yield
        finally:
            self.liveclock = prev

    # ------------------------------------------------------------------
    # raw word I/O (always with the logical clock paused)

    def _put_switch(self, word: int) -> None:
        self.switch_buf.put(word, self._switch_sink)

    def _put_value(self, word: int) -> None:
        self.value_buf.put(word, self._value_sink)

    def _take_switch(self) -> int | None:
        assert self._trace is not None
        word, self._switch_cursor = self.switch_buf.take(
            self._trace.switches, self._switch_cursor
        )
        return word

    def _take_value(self) -> int:
        assert self._trace is not None
        word, self._value_cursor = self.value_buf.take(
            self._trace.values, self._value_cursor
        )
        if word is None:
            if self.tolerate_truncation:
                raise TracePrefixEnd(
                    "salvaged value stream exhausted (end of the surviving "
                    "prefix)",
                    words_consumed=self._value_cursor,
                )
            raise ReplayDivergenceError(
                "value trace exhausted", position=self._value_cursor
            )
        return word

    # ------------------------------------------------------------------
    # lifecycle

    def on_run_start(self) -> None:
        """DejaVu initialisation, before the application's first event."""
        self.sym.init_actions()
        if self._slim_witness is not None:
            # chain onto whatever sync hooks are installed by now (a race
            # detector's, usually) — identical attach point in both modes
            self._slim_witness.attach(self.vm)
        if self.replaying:
            with self._clock_paused():
                if self._slim_replay is not None:
                    # slim replay: the modelled timer device re-raises the
                    # hardware bit at exactly the recorded cycles, so the
                    # timer stays LIVE (classic replay disables it)
                    self.vm.timer = self._slim_timer
                    self._arm_countdown(self._slim_replay._arm(self))
                else:
                    self.vm.engine.timer_enabled = False  # hw bit is ignored anyway
                    self._arm_countdown(self._take_switch())
            self._set_limit()

    def on_run_end(self) -> "str | None":
        """Seal the run: flush (record) or check (replay) the END record.

        Returns the heap digest the END witness took, so the VM's result
        reuses it instead of digesting the heap a second time; None when
        no witness was taken."""
        if self._finished:
            return None
        self._finished = True
        with self._clock_paused():
            if self.recording:
                self.switch_buf.flush(self._switch_sink)
                self.value_buf.flush(self._value_sink)
                if self._slim_rec is not None:
                    self._slim_rec.finish()
        # leave byte-identical heaps behind in both modes
        self.switch_buf.zero()
        self.value_buf.zero()
        if self.recording:
            self._end_meta = self._make_end_meta()
            return self._end_meta["heap_digest"]
        return self._verify_end()

    def _make_end_meta(self) -> dict:
        vm = self.vm
        return {
            "cycles": vm.engine.cycles,
            "switches": vm.scheduler.switch_count,
            "yieldpoints": tuple(
                (t.tid, t.yieldpoints) for t in vm.scheduler.threads
            ),
            "heap_digest": vm.heap_digest(),
            "output_len": len(vm.output),
            "gc_count": vm.collector.collections,
        }

    def _verify_end(self) -> "str | None":
        """Replay-side accuracy check against the recorded END witnesses;
        returns the replayed heap digest when it was taken."""
        assert self._trace is not None
        if self.tolerate_truncation:
            return None  # a prefix has no END witnesses to check against
        if self._slim_replay is not None:
            # slim exhaustion first: an underdetermined sidecar should
            # surface as the typed error, not a generic END mismatch
            self._slim_replay.finish(self)
        want = self._trace.meta.get("end")
        if want is None:
            return None
        want = dict(want)
        got = self._make_end_meta()
        for key, expected in want.items():
            actual = got.get(key)
            if actual != expected:
                raise ReplayDivergenceError(
                    f"end-of-run mismatch on {key}: recorded {expected!r}, "
                    f"replayed {actual!r}"
                )
        leftover_switches = len(self._trace.switches) - self._switch_cursor
        in_buffer = self.switch_buf._fill - self.switch_buf._pos
        # one pre-fetched delta that never fired is fine (the run ended
        # before the next preemption); more than that means lost events —
        # but _replay_at holds the prefetched one, so any unconsumed
        # buffered/stream words are a divergence.
        if leftover_switches > 0 or in_buffer > 0:
            raise ReplayDivergenceError(
                f"{leftover_switches + in_buffer} switch records never consumed"
            )
        return got["heap_digest"]

    def trace(self) -> TraceLog:
        """The recorded trace (record mode, after the run completes).

        For a slim record this is where the keep/drop partition runs: the
        full delta list, the detector's (retroactively pinned) racy
        windows and the per-firing sync-witness marks turn into a kept
        stream plus a drop-run sidecar.  If slimming would not actually
        shrink the encoding (e.g. everything is race-adjacent), the trace
        degrades to a full switch stream with ``meta["slim_fallback"]``
        saying why — slim never costs bytes.
        """
        if not self.recording:
            raise VMError("trace() is only available in record mode")
        if not self._finished:
            raise VMError("trace() is only available after the run completes")
        log = TraceLog(
            switches=list(self._switch_sink),
            values=list(self._value_sink),
        )
        if self._slim_rec is not None:
            rec = self._slim_rec
            kept, sidecar, dropped = slim_partition(
                log.switches, rec.marks, rec.racy_regions()
            )
            slim_bytes = len(encode_words(kept)) + len(encode_words(sidecar))
            full_bytes = len(encode_words(log.switches))
            if dropped == 0 or slim_bytes >= full_bytes:
                log.meta["slim_fallback"] = (
                    "no droppable deltas" if dropped == 0 else "no savings"
                )
            else:
                log.switches = kept
                log.slim = sidecar
                log.meta["slim"] = tuple(sorted({
                    "model": rec.model,
                    "kept": len(kept),
                    "dropped": dropped,
                    "sync_total": rec.total_sync,
                }.items()))
        log.meta["end"] = tuple(sorted(self._end_meta.items()))
        log.meta["stats"] = tuple(sorted(self.stats.items()))
        return log

    # ------------------------------------------------------------------
    # Figure 2: the yield-point instrumentation

    def at_yieldpoint(self, thread: "GreenThread", tag: int) -> None:
        """Executed where a switch fires or the stack grows eagerly (at
        every yield point for ``_every_yp``); elsewhere it changes nothing.

        The two halves below are transliterations of Figure 2-(A) and
        2-(B); note they are *structurally identical* — same guard, same
        clock pause, same switch-bit epilogue — which is the symmetric-
        instrumentation property.  ``nyp`` is read off the logical clock,
        which already counts this yield point."""
        self.sym.stack_check(thread)
        engine = self.vm.engine
        live = self.liveclock if self.symmetry_config.liveclock else True
        clock = engine.yp_base + thread.yieldpoints
        if self.recording:
            if live:
                self.liveclock = False  # pause the clock
                nyp = clock - self._nyp_origin
                if self.schedule is not None:
                    # a schedule policy replaces the interrupt bit: the
                    # recorded delta is the policy's decision, verbatim
                    fire = self.schedule.should_preempt(thread, nyp)
                else:
                    fire = engine.hw_bit  # preemption required by system clock
                if fire:
                    self._record_thread_switch(nyp)
                    self._nyp_origin = clock  # initialize the counter for the next switch
                    self.threadswitch_bit = True  # set the software switch bit
                self.liveclock = True  # resume the clock
        else:
            if live:
                self.liveclock = False  # pause the clock
                if self._replay_at is not None:
                    if clock == self._replay_at:  # preemption performed during record
                        self._arm_countdown(self._replay_thread_switch())
                        self.threadswitch_bit = True  # set the software switch bit
                elif self._slim_replay is not None:
                    if engine.hw_bit:
                        # model phase of a slim replay: no countdown is armed,
                        # the modelled timer device re-created this preemption
                        self._arm_countdown(self._slim_replay.model_fire(self))
                        self.threadswitch_bit = True
                self.liveclock = True  # resume the clock
        if self.threadswitch_bit:
            self.threadswitch_bit = False
            self._perform_thread_switch()
        if not self._every_yp:
            self._set_limit()

    def _record_thread_switch(self, nyp: int) -> None:
        self._put_switch(nyp)
        self.stats["switch_records"] += 1
        if self._slim_rec is not None:
            self._slim_rec.on_switch()

    def _replay_thread_switch(self) -> int | None:
        if self._slim_replay is not None:
            return self._slim_replay.explicit_fire(self)
        return self._take_switch()

    def _perform_thread_switch(self) -> None:
        self.vm.engine.hw_bit = False  # cleared by performThreadSwitch() (Figure 2)
        self.vm.scheduler.preempt()

    def internal_yieldpoint(self) -> None:
        """A yield point inside DejaVu's own instrumentation (buffer I/O).

        With the ``liveclock`` mechanism on, these never touch the logical
        clock (the flag is False whenever we are inside instrumentation).
        Ablated, they corrupt the nyp counts — record inflates deltas by
        the write path's yield points, replay burns the countdown on the
        read path's — and replay diverges."""
        self.stats["internal_yieldpoints"] += 1
        if self.symmetry_config.liveclock and not self.liveclock:
            return
        if self.recording:  # one more tick: move the origin / target back
            self._nyp_origin -= 1
        elif self._replay_at is not None:
            self._replay_at -= 1
            if self._replay_at == self.vm.engine.yp_clock():
                self._arm_countdown(self._replay_thread_switch())
                self.threadswitch_bit = True

    # ------------------------------------------------------------------
    # wall-clock funnel

    def clock_read(self) -> int:
        with self._clock_paused():
            if self.recording:
                value = self.vm.clock.read()
                self._put_value(ev.K_CLOCK)
                self._put_value(value)
                self.stats["clock_records"] += 1
            else:
                kind = self._take_value()
                ev.expect_kind(kind, ev.K_CLOCK, self._value_cursor)
                value = self._take_value()
        self.vm.observer.emit("clock", value)
        return value

    # ------------------------------------------------------------------
    # non-deterministic native funnel (§2.5)

    def native_call(self, thread: "GreenThread", rm: "RuntimeMethod", nd: "NativeDef", args: list[int]):
        if self.recording:
            ctx = NativeCall(self.vm, thread, rm, args)
            try:
                raw = nd.fn(ctx)
            finally:
                ctx.release()
            if raw is BLOCK:
                raise VMError(
                    f"non-deterministic native {rm.qualname} may not block"
                )
            result = raw if isinstance(raw, NativeResult) else NativeResult(
                value=raw if isinstance(raw, int) else None
            )
            self._record_native(rm, result)
        else:
            result = self._replay_native(rm)
        value = result.value if result.value is not None else 0
        self.vm.observer.emit("native", rm.method_id, value, len(result.upcalls))
        return result

    def _record_native(self, rm: "RuntimeMethod", result: NativeResult) -> None:
        with self._clock_paused():
            if result.string_value is not None:
                has_value = 2
            elif result.value is not None:
                has_value = 1
            else:
                has_value = 0
            self._put_value(ev.K_NATIVE)
            self._put_value(rm.method_id)
            self._put_value(has_value)
            if has_value == 2:
                text = result.string_value
                self._put_value(len(text))
                for ch in text:
                    self._put_value(ord(ch))
            else:
                self._put_value(result.value if result.value is not None else 0)
            self._put_value(len(result.upcalls))
            self.stats["native_records"] += 1
            for ref, up_args in result.upcalls:
                up_rm = self.vm.loader.resolve_static_method(ref)
                self._put_value(ev.K_UPCALL)
                self._put_value(up_rm.method_id)
                self._put_value(len(up_args))
                for a in up_args:
                    self._put_value(a)
                self.stats["upcall_records"] += 1

    def _replay_native(self, rm: "RuntimeMethod") -> NativeResult:
        with self._clock_paused():
            kind = self._take_value()
            ev.expect_kind(kind, ev.K_NATIVE, self._value_cursor)
            mid = self._take_value()
            if mid != rm.method_id:
                raise ReplayDivergenceError(
                    f"native call mismatch: recorded method id {mid}, "
                    f"replay reached {rm.qualname} (id {rm.method_id})",
                    position=self._value_cursor,
                )
            has_value = self._take_value()
            string_value = None
            value = 0
            if has_value == 2:
                n_chars = self._take_value()
                string_value = "".join(
                    chr(self._take_value()) for _ in range(n_chars)
                )
            else:
                value = self._take_value()
            n_upcalls = self._take_value()
            upcalls = []
            for _ in range(n_upcalls):
                kind = self._take_value()
                ev.expect_kind(kind, ev.K_UPCALL, self._value_cursor)
                up_mid = self._take_value()
                n_args = self._take_value()
                up_args = tuple(self._take_value() for _ in range(n_args))
                up_rm = self.vm.loader.method_by_id[up_mid]
                upcalls.append((f"{up_rm.owner.name}.{up_rm.key}", up_args))
            return NativeResult(
                value=value if has_value == 1 else None,
                string_value=string_value,
                upcalls=upcalls,
            )

    # ------------------------------------------------------------------
    # checkpoint support (slim replay has live timer/reconstructor state)

    def _slim_snapshot_state(self) -> tuple | None:
        """Slim-replay state a snapshot must carry, or None (classic)."""
        if self._slim_replay is None:
            return None
        r = self._slim_replay
        engine = self.vm.engine
        return tuple(sorted({
            "next_run": r._next_run,
            "remaining": r._remaining,
            "sync_want": r._sync_want,
            "anchor": r._anchor,
            "kept_since_run": r._kept_since_run,
            "kept_done": r.kept_done,
            "dropped_done": r.dropped_done,
            "witness": self._slim_witness.count,
            "intervals": self._slim_timer.count if self._slim_timer else 0,
            "deadline": engine._deadline,
            "timer_armed": engine._timer_armed,
            "timer_enabled": engine.timer_enabled,
        }.items()))

    def _slim_restore_state(self, state: tuple) -> None:
        """Rebuild the model timer (burning consumed intervals) and the
        reconstructor cursors from a snapshot's slim block."""
        if self._slim_replay is None:
            raise VMError(
                "snapshot carries slim replay state but the trace is not slim"
            )
        d = dict(state)
        r = self._slim_replay
        inner = timer_from_model(r.model)
        wrapper = _CountingTimer(inner) if inner is not None else None
        if inner is not None:
            for _ in range(d["intervals"]):
                inner.next_interval()
            wrapper.count = d["intervals"]
        self._slim_timer = wrapper
        self.vm.timer = wrapper
        engine = self.vm.engine
        engine.timer_enabled = d["timer_enabled"]
        engine._deadline = d["deadline"]
        engine._timer_armed = d["timer_armed"]
        r._next_run = d["next_run"]
        r._remaining = d["remaining"]
        r._sync_want = d["sync_want"]
        r._anchor = d["anchor"]
        r._kept_since_run = d["kept_since_run"]
        r.kept_done = d["kept_done"]
        r.dropped_done = d["dropped_done"]
        self._slim_witness.count = d["witness"]

    # ------------------------------------------------------------------
    # GC support

    def visit_roots(self, fwd: Callable[[int], int]) -> None:
        self.switch_buf.visit_roots(fwd)
        self.value_buf.visit_roots(fwd)
