"""Verified checkpoint/restore: the recovery primitive for replay.

The paper gets time travel "for free" by re-replaying from cycle zero —
the degenerate single-checkpoint scheme.  This module adds the periodic-
checkpoint scheme of rr/iReplayer on top of the deterministic replayer:

* :func:`capture_snapshot` — a complete, digest-verified copy of machine
  state (heap words, thread stacks, scheduler/monitor queues, trace
  cursors, logical clocks) taken at a *safe point*;
* :func:`restore_vm` — rehydrate a snapshot into a fresh VM whose
  continued replay is bit-identical to the original run's continuation;
* :class:`CheckpointWriter` / :class:`CheckpointStore` — the
  ``<trace>.ckpt`` sidecar file, in the segment container traces use
  (:mod:`repro.core.segments`: CRC-checksummed length-framed segments,
  atomic-rename seal, salvage by prefix scan);
* :class:`CheckpointRecorder` — the safe-point hook that captures every
  N cycles during replay (or record, for digests/listing only).

Safe-point rule
---------------
A snapshot is taken only where ``Engine.run()`` finds no current thread:
every frame pc and shadow bci is committed, no native call or allocation
is in flight, and the next action is ``scheduler.schedule()``.  Capture
happens *before* schedule() runs, so a restored run re-executes the
dispatch — including any replayed clock reads ``_wake_timed`` performs —
exactly as the original did.  The hook is host-side and guest-invisible:
recordings are byte-identical with checkpointing on or off.

Live extent
-----------
Every heap word outside the boot record and the active semispace's
allocated prefix ``[base[active], bump)`` is zero by construction:
``Memory`` starts zeroed, bump allocation only hands out words below the
new bump, and ``finish_flip`` zeroes the evacuated semispace.  A snapshot
therefore stores the boot record plus that *live extent* — its size
follows the live heap, not the semispace size — and capture refuses
(:class:`CheckpointError`) rather than write a lossy snapshot if the
invariant ever fails.

Restore strategy
----------------
Heap words are written back wholesale (boot record plus live extent over
a zeroed heap), so restore only needs to rebuild the *host-side*
structures that mirror them.  The class table is replayed
through the real loader in class-id order (ids are assigned append-only
and supers/element-classes always precede their dependents, so this
reproduces layouts, method ids and compiled code exactly), then every
other host structure — threads, frames, monitors, queues, cursors — is
patched from the snapshot.  Only replay-mode snapshots are restorable:
replay funnels clocks, natives and the environment through the trace, so
no host timer/RNG state needs to be rewound.  The one exception is a
*slim* (trace v3.2) replay, whose model timer device is live host state:
its snapshot carries a ``dv``/``slim`` block (reconstructor cursors,
sync-witness count, intervals consumed, engine deadline), and restore
rebuilds a pristine model timer and burns the consumed intervals so the
interval stream continues exactly where the snapshot left it.

Event log
---------
The observer's event list only grows, so a sidecar stores it once:
before each snapshot, a ``SEG_EVENTS`` segment holds the events since
the previous one, and the snapshot header carries only the event
*count*.  The machine digest covers the events through an *events
digest* — blake2b over the canonical JSON of the rows, joined by commas
— which is the same however the log was split into deltas, so a
standalone :func:`machine_digest` equals the recorder's digest at the
same point.

Lazy load, verify once
----------------------
:meth:`CheckpointStore.load` CRC-scans every segment but decodes a
snapshot (and the event prefix it needs) only when it is used, so a
resume from the newest snapshot decodes that one alone.  A snapshot
decoded from digest-checked bytes, or captured in this process, is
marked ``verified`` and :func:`restore_vm` does not re-encode it; a
:class:`Snapshot` built by hand is verified in full.  The doctor and
``repro checkpoint`` read :attr:`CheckpointStore.snapshots`, which
decodes and verifies every snapshot.

Failure ladder
--------------
Every consumer degrades gracefully.  A damaged sidecar tail is dropped
by the prefix scan (CRC); a tampered snapshot body fails its machine
digest and is skipped; a restore or resumed replay that errors falls
back to the next earlier checkpoint; and when nothing survives, replay
starts from cycle zero.  Only :class:`CheckpointConfigMismatch` refuses
to fall back — all checkpoints share the config, and a different heap
or budget is a different machine.

Engine-free snapshots
---------------------
A snapshot describes the machine, not the engine that ran it: each
frame stores its *canonical* micro-op pc (``MachineCode.xstart`` of its
executable pc), and restore maps it back into whatever program the
restoring VM executes.  At a safe point every parked frame sits at a
superinstruction boundary, so a snapshot taken with fusion on or off
has the same digest and restores under either; a pc inside a
superinstruction is a :class:`CheckpointFormatError`.  Engine
statistics are not machine state: a restored VM counts them from the
restore.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.core import segments
from repro.core.segments import Layout, SegmentWriter, scan
from repro.core.tracelog import config_fingerprint
from repro.vm.errors import (
    CheckpointConfigMismatch,
    CheckpointError,
    CheckpointFormatError,
)
from repro.vm.memory import BOOT_WORDS
from repro.vm.threads import Frame, GreenThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.core.tracelog import TraceLog
    from repro.vm.machine import VMConfig, VirtualMachine

CKPT_MAGIC = b"DJVC"
CKPT_VERSION = 4

SEG_EVENTS = b"E"
SEG_SNAPSHOT = b"C"
SEG_CKPT_META = b"M"
SEG_CKPT_FOOTER = b"F"

_DIGEST_BYTES = 16  # raw machine digest leading each snapshot payload
#: a snapshot payload's binary prefix: digest, cycles, event count and
#: header length — what a lazy store sorts and indexes by undecoded
_SNAP_PREFIX = struct.Struct(f"<{_DIGEST_BYTES}sQQI")
#: sanity bound used by the prefix scan to reject garbage lengths
MAX_SNAPSHOT_BYTES = 1 << 28
#: the sidecar's segments: no codec byte
SIDECAR = Layout(CKPT_MAGIC, CKPT_VERSION,
                 frozenset((SEG_EVENTS, SEG_SNAPSHOT, SEG_CKPT_META, SEG_CKPT_FOOTER)),
                 SEG_CKPT_FOOTER, MAX_SNAPSHOT_BYTES)

#: default capture interval (cycles) for checkpoint-accelerated jumps
DEFAULT_CHECKPOINT_INTERVAL = 25_000


def sidecar_path(trace_path) -> Path:
    """The checkpoint sidecar belonging to *trace_path* (``<trace>.ckpt``)."""
    return Path(str(trace_path) + ".ckpt")


# ---------------------------------------------------------------------------
# snapshots


def _encode_json(obj, what: str = "snapshot header") -> bytes:
    """Canonical JSON: sorted keys, compact separators, ASCII, no NaN —
    equal values always encode to equal bytes, which the digest needs."""
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{what} is not JSON-encodable: {exc}") from exc


def _decode_json_object(blob: bytes, what: str) -> dict:
    """A JSON object; its arrays stay lists (the digest encodes tuples and
    lists alike, and restore converts what the VM keeps as tuples)."""
    try:
        obj = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"undecodable {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CheckpointFormatError(f"{what} is not a JSON object")
    return obj


class Snapshot:
    """One captured machine state: a header dict, the heap words and the
    observer events so far.

    The header is everything host-side (scheduler, monitors, cursors,
    counters — see :func:`capture_snapshot`) plus the heap frontier
    (``semi``, ``active``, ``bump``) and the event count ``events``;
    ``words`` is the boot record followed by the live extent
    ``Memory.words[base[active]:bump]`` — every other heap word is zero.
    ``header["digest"]`` is a blake2b over the canonical JSON header
    (digest key excluded), the canonical JSON words and the events
    digest (see :class:`_EventsDigest`): equal digests mean equal
    machine states.

    A snapshot from a :class:`CheckpointStore` is decoded on first use
    of its header, words or events; a digest failure then raises
    :class:`CheckpointFormatError`.  ``verified`` is true for snapshots
    decoded from digest-checked bytes or captured in this process, and
    :func:`restore_vm` verifies only the others.  Build a new snapshot
    rather than mutate one of those in place.
    """

    __slots__ = ("_header", "_words", "_events", "_events_digest", "_cycles",
                 "_source", "verified")

    def __init__(self, header: dict, words: list, events=()):
        self._header = header
        self._words = words
        self._events = events
        #: the running events digest over ``events`` when known (captured
        #: or decoded), which a VM restored from this snapshot continues
        self._events_digest: "_EventsDigest | None" = None
        self._cycles = None
        self._source = None
        self.verified = False

    @classmethod
    def _stored(cls, cycles: int, source: "Callable[[], tuple]") -> "Snapshot":
        """A snapshot decoded on demand by *source*, which returns
        ``(header, words, events, events digest)`` after checking the
        digest."""
        snap = cls({}, [])
        snap._cycles = cycles
        snap._source = source
        snap.verified = True
        return snap

    def _load(self) -> None:
        if self._source is not None:
            self._header, self._words, self._events, self._events_digest = (
                self._source()
            )
            self._source = None

    @property
    def header(self) -> dict:
        self._load()
        return self._header

    @property
    def words(self) -> list:
        self._load()
        return self._words

    @property
    def events(self):
        self._load()
        return self._events

    @property
    def cycles(self) -> int:
        if self._source is not None:
            return self._cycles
        return self._header["cycles"]

    @property
    def mode(self) -> str:
        return self.header["mode"]

    @property
    def digest(self) -> str:
        return self.header["digest"]

    def computed_digest(self) -> str:
        return _digest_of(self.header, self.words, self.events)

    def verify(self) -> None:
        """Recompute the machine digest; raises on any mismatch (tamper
        the segment CRC missed, or a decoder bug)."""
        h = self.header
        if h.get("events") != len(self.events):
            raise CheckpointFormatError(
                f"snapshot @cycle {h.get('cycles', '?')}: header counts "
                f"{h.get('events')!r} events but holds {len(self.events)}"
            )
        want = h.get("digest")
        got = self.computed_digest()
        if want != got:
            raise CheckpointFormatError(
                f"snapshot @cycle {h.get('cycles', '?')}: machine "
                f"digest mismatch (stored {want}, computed {got})"
            )

    def describe(self) -> str:
        h = self.header
        return (
            f"@cycle {h['cycles']:<10} mode={h['mode']} "
            f"threads={len(h['threads'])} events={h['events']} "
            f"words={len(self.words)} digest={h['digest'][:12]}…"
        )


class _EventsDigest:
    """Running blake2b over the canonical JSON of the event rows, joined
    by commas — the bytes between the brackets of the canonical list of
    all rows.  Fed the canonical encodings of consecutive deltas, it
    reaches the same digest however the log was split."""

    __slots__ = ("count", "_hash")

    def __init__(self):
        self.count = 0
        self._hash = hashlib.blake2b(digest_size=_DIGEST_BYTES)

    def update(self, blob: bytes, n: int) -> None:
        """Fold in *blob*, the canonical JSON list of the next *n* rows."""
        if n:
            if self.count:
                self._hash.update(b",")
            self._hash.update(memoryview(blob)[1:-1])
            self.count += n

    def digest(self) -> bytes:
        return self._hash.digest()

    def copy(self) -> "_EventsDigest":
        twin = _EventsDigest.__new__(_EventsDigest)
        twin.count = self.count
        twin._hash = self._hash.copy()
        return twin


def _encode_events(events) -> bytes:
    return _encode_json(events, "observer events")


def _events_digest(events) -> bytes:
    digest = _EventsDigest()
    digest.update(_encode_events(events), len(events))
    return digest.digest()


def _blobs(header: dict, words: list) -> tuple[bytes, bytes]:
    """The canonical header (digest key excluded) and words encodings:
    what the digest covers and what the sidecar stores."""
    canonical = {k: v for k, v in header.items() if k != "digest"}
    return _encode_json(canonical), _encode_json(words, "snapshot words")


def _digest_bytes(header_blob: bytes, words_blob: bytes, events_digest: bytes) -> str:
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    h.update(header_blob)
    h.update(words_blob)
    h.update(events_digest)
    return h.hexdigest()


def _digest_of(header: dict, words: list, events) -> str:
    return _digest_bytes(*_blobs(header, words), _events_digest(events))


def _live_words(mem) -> list:
    """The boot record plus the live extent of *mem*, after checking that
    every other word is zero (a whole-list ``count`` — C speed)."""
    words = mem.words
    live = words[:BOOT_WORDS] + words[mem.base[mem.active] : mem.bump]
    if words.count(0) - live.count(0) != len(words) - len(live):
        lo, hi = mem.base[mem.active], mem.bump
        addr = next(
            a for a in range(BOOT_WORDS, len(words))
            if words[a] != 0 and not lo <= a < hi
        )
        raise CheckpointError(
            f"heap word {addr} = {words[addr]} lies outside the live extent "
            f"[{lo}, {hi}) but is not zero; refusing a lossy snapshot"
        )
    return live


def _pack_thread(t: GreenThread) -> tuple:
    return (
        t.tid,
        t.guest_addr,
        t.state,
        t.stack_addr,
        t.stack_capacity,
        t.stack_used,
        t.stack_grows,
        t.shadow_addr,
        t.wakeup_time,
        t.waiting_on,
        t.wait_recursion,
        t.pending_recursion,
        t.interrupted,
        tuple(j.tid for j in t.joiners),
        t.name,
        t.yieldpoints,
        tuple(
            (f.method.method_id, f.code.xstart[f.pc], tuple(f.locals), tuple(f.stack))
            for f in t.frames
        ),
    )


def _pack_buffer(buf) -> tuple:
    return (buf.addr, buf._fill, buf._pos, buf.flushes, buf.refills)


def capture_snapshot(vm: "VirtualMachine") -> Snapshot:
    """A complete machine snapshot.  Read-only: capturing perturbs
    nothing the guest (or the recorder) can observe.

    Capture is legal at any point — a paused debugger uses the digest to
    compare machine states mid-run — but only snapshots taken at a safe
    point (``scheduler.current is None``, i.e. ``current == -1`` in the
    header) can be restored.
    """
    return _capture(vm)[0]


class _Encoded(NamedTuple):
    """The encodings a capture's digest covered, which a
    :class:`CheckpointWriter` stores without encoding again:
    ``events_blob`` is the canonical JSON list of the events from index
    ``events_from`` up to the snapshot's count."""

    header_blob: bytes
    words_blob: bytes
    events_blob: bytes
    events_from: int


def _capture(
    vm: "VirtualMachine", log: "_EventsDigest | None" = None
) -> "tuple[Snapshot, _Encoded]":
    """:func:`capture_snapshot` plus the encodings its digest covered.

    *log* is a running events digest over the events a previous capture
    of this VM already covered (a :class:`CheckpointRecorder` keeps one);
    it is advanced in place, so only the new events are encoded.
    Without one, every event is encoded."""
    if log is None:
        log = _EventsDigest()
    events = vm.observer.events
    if len(events) < log.count:
        raise CheckpointError(
            f"observer events shrank from {log.count} to {len(events)} "
            "since the previous checkpoint; the event log only grows"
        )
    dv = vm.dejavu
    if dv is None:
        raise CheckpointError(
            "checkpoints require an attached DejaVu controller "
            "(trace cursors are part of the machine state)"
        )
    engine = vm.engine
    sched = vm.scheduler
    mem = vm.memory
    loader = vm.loader
    sym = dv.sym
    header = {
        "format": CKPT_VERSION,
        "mode": dv.mode,
        "config": config_fingerprint(vm.config),
        "cycles": engine.cycles,
        "current": sched.current.tid if sched.current is not None else -1,
        # memory frontier (the live words travel alongside the header)
        "semi": mem.semi,
        "active": mem.active,
        "bump": mem.bump,
        # engine
        "hw_bit": engine.hw_bit,
        "switch_pending": engine.switch_pending,
        # scheduler / thread package
        "threads": tuple(_pack_thread(t) for t in sched.threads),
        "ready": tuple(t.tid for t in sched.ready),
        "timed": tuple(t.tid for t in sched.timed),
        "last_running": (
            sched._last_running.tid if sched._last_running is not None else -1
        ),
        "switch_count": sched.switch_count,
        "table_addr": sched._table_addr,
        # monitors (insertion order is GC-visitation order: preserve it)
        "monitors": tuple(
            (addr, tuple(t.tid for t in m.entry), tuple(t.tid for t in m.waiters))
            for addr, m in vm.monitors.monitors.items()
        ),
        "mon_stats": (
            vm.monitors.acquisitions,
            vm.monitors.contentions,
            vm.monitors.notifies,
        ),
        # loader (replayed through the real loader on restore)
        "class_table": tuple(
            ("A" if lay.is_array else "S" if lay.name.startswith("Statics$") else "C",
             lay.name)
            for lay in loader.class_table
        ),
        "linked": tuple(
            rc.name
            for rc in sorted(loader.classes.values(), key=lambda c: c.class_id)
            if rc.linked
        ),
        "class_addrs": tuple(
            (rc.name, rc.statics_addr, rc.constants_addr)
            for rc in sorted(loader.classes.values(), key=lambda c: c.class_id)
        ),
        "interned": tuple(loader.interned.items()),
        "n_methods": len(loader.method_by_id),
        "alloc_count": vm.om.alloc_count,
        # collector
        "gc": (vm.collector.collections, vm.collector.total_evacuated_words),
        # run-visible VM state
        "output": tuple(vm.output),
        "traps": tuple(vm.trap_reports),
        "deadlocked": vm.deadlocked,
        # the rows themselves travel as the sidecar's event deltas
        "events": len(events),
        # DejaVu controller (trace cursors + guest-heap buffer positions)
        "dv": (
            ("liveclock", dv.liveclock),
            ("replay_nyp", dv.replay_nyp),
            ("stats", tuple(sorted(dv.stats.items()))),
            ("switch_buf", _pack_buffer(dv.switch_buf)),
            ("switch_cursor", dv._switch_cursor),
            ("sym", (sym._io_classes_loaded, sym.io_warmups,
                     sym.eager_grows, sym.overflow_grows)),
            ("threadswitch_bit", dv.threadswitch_bit),
            ("value_buf", _pack_buffer(dv.value_buf)),
            ("value_cursor", dv._value_cursor),
        ),
    }
    slim_state = dv._slim_snapshot_state()
    if slim_state is not None:
        header["dv"] = tuple(sorted(header["dv"] + (("slim", slim_state),)))
    words = _live_words(mem)
    events_from = log.count
    events_blob = _encode_events(events[events_from:])
    log.update(events_blob, len(events) - events_from)
    header_blob, words_blob = _blobs(header, words)
    header["digest"] = _digest_bytes(header_blob, words_blob, log.digest())
    snap = Snapshot(header, words, tuple(events))
    snap._events_digest = log.copy()
    snap.verified = True
    return snap, _Encoded(header_blob, words_blob, events_blob, events_from)


def machine_digest(vm: "VirtualMachine") -> str:
    """Digest of the complete machine state (heap *and* host mirrors) —
    a much stronger equality witness than ``vm.heap_digest()``."""
    return capture_snapshot(vm).digest


# ---------------------------------------------------------------------------
# restore


def restore_vm(
    snapshot: Snapshot,
    program: "GuestProgram",
    trace: "TraceLog",
    *,
    config: "VMConfig | None" = None,
    symmetry=None,
) -> "VirtualMachine":
    """Rehydrate *snapshot* into a fresh VM ready to continue replaying
    *trace* from the snapshot's cycle.  Drive it with ``vm.engine.run()``
    and ``vm.finish()`` — not ``vm.run()`` (the program is already
    mid-flight)."""
    from repro.core.controller import MODE_REPLAY

    h = snapshot.header
    if h.get("format") != CKPT_VERSION:
        raise CheckpointFormatError(
            f"unsupported snapshot format {h.get('format')!r}"
        )
    if h.get("mode") != MODE_REPLAY:
        raise CheckpointError(
            f"only replay-mode snapshots are restorable (snapshot is "
            f"{h.get('mode')!r}: record-side host state — timers, RNG — "
            f"is not captured)"
        )
    if h.get("current", -1) != -1:
        raise CheckpointError(
            "snapshot was not taken at a scheduler safe point "
            f"(thread {h['current']} was running)"
        )
    if not snapshot.verified:
        snapshot.verify()
    try:
        return _restore(snapshot, program, trace, config, symmetry)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # the machine digest is not a MAC: a header edited and re-digested
        # passes verification, so its shape is checked here, as it unpacks
        raise CheckpointFormatError(
            f"snapshot @cycle {h.get('cycles', '?')}: malformed header "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _restore(snapshot: Snapshot, program, trace, config, symmetry) -> "VirtualMachine":
    """:func:`restore_vm` once the snapshot is verified."""
    from repro.api import build_vm
    from repro.core.controller import MODE_REPLAY, DejaVu

    h = snapshot.header
    vm = build_vm(program, config)
    fp = config_fingerprint(vm.config)
    if fp != h["config"]:
        raise CheckpointConfigMismatch(
            f"checkpoint captured under [{h['config']}] but the restore "
            f"VM is [{fp}]"
        )

    dv = DejaVu(vm, MODE_REPLAY, trace=trace, symmetry=symmetry)
    vm.start(program.main)

    _replay_class_table(vm.loader, h)

    # -- memory: zero the fresh VM's live words (every other word is zero
    # already), then lay down the boot record and the snapshot's extent
    mem = vm.memory
    live = snapshot.words
    active, bump = h["active"], h["bump"]
    lo = mem.base[active] if active in (0, 1) else -1
    if not (
        h["semi"] == mem.semi
        and lo <= bump <= lo + mem.semi
        and len(live) == BOOT_WORDS + bump - lo
    ):
        raise CheckpointFormatError(
            f"snapshot frontier (semi {h['semi']}, active {active}, bump "
            f"{bump}) does not fit its {len(live)} words or this heap"
        )
    mem.grow(bump)
    words = mem.words
    fresh_lo = mem.base[mem.active]
    words[fresh_lo : mem.bump] = [0] * (mem.bump - fresh_lo)
    words[:BOOT_WORDS] = live[:BOOT_WORDS]
    words[lo:bump] = live[BOOT_WORDS:]
    mem.active = active
    mem.bump = bump
    mem.limit = lo + mem.semi

    # -- loader heap pointers (the words were overwritten above)
    loader = vm.loader
    for name, statics_addr, constants_addr in h["class_addrs"]:
        rc = loader.classes[name]
        rc.statics_addr = statics_addr
        rc.constants_addr = constants_addr
    loader.interned = dict(h["interned"])
    loader.temp_roots.clear()
    vm.om.alloc_count = h["alloc_count"]

    # -- thread package
    sched = vm.scheduler
    threads = [_unpack_thread(packed, loader) for packed in h["threads"]]
    by_tid = {t.tid: t for t in threads}
    for t, packed in zip(threads, h["threads"]):
        t.joiners = [by_tid[tid] for tid in packed[13]]
    sched.threads = threads
    sched.ready = deque(by_tid[tid] for tid in h["ready"])
    sched.timed = [by_tid[tid] for tid in h["timed"]]
    sched.current = None
    last = h["last_running"]
    sched._last_running = by_tid[last] if last >= 0 else None
    sched.switch_count = h["switch_count"]
    sched._table_addr = h["table_addr"]

    # -- monitors
    mt = vm.monitors
    mt.monitors = {}
    for addr, entry_tids, waiter_tids in h["monitors"]:
        from repro.vm.monitors import Monitor

        mon = Monitor(addr)
        mon.entry = deque(by_tid[tid] for tid in entry_tids)
        mon.waiters = [by_tid[tid] for tid in waiter_tids]
        mt.monitors[addr] = mon
    mt.acquisitions, mt.contentions, mt.notifies = h["mon_stats"]

    # -- engine (classic replay keeps the timer off: replay clocks come
    # from the trace; slim replay's live timer is restored further down)
    d = dict(h["dv"])
    slim_state = d.get("slim")
    engine = vm.engine
    engine.cycles = h["cycles"]
    engine.hw_bit = h["hw_bit"]
    engine.switch_pending = h["switch_pending"]
    if slim_state is None:
        engine.timer_enabled = False
        engine._timer_armed = True
        engine._deadline = 1 << 62
    engine._thread = None
    engine.yp_base = sum(t.yieldpoints for t in threads)  # the logical clock
    engine._frame = None
    engine._call = None

    # -- collector / run-visible VM state
    vm.collector.collections, vm.collector.total_evacuated_words = h["gc"]
    vm.output[:] = list(h["output"])
    vm.trap_reports[:] = map(tuple, h["traps"])
    vm.deadlocked = tuple(h["deadlocked"])
    # flat rows: the one nested event ("deadlock") is emitted inside
    # schedule(), after the last safe point, so no snapshot holds it
    vm.observer.events[:] = map(tuple, snapshot.events)
    dv.restored_events = snapshot._events_digest

    # -- DejaVu controller
    dv._switch_cursor = d["switch_cursor"]
    dv._value_cursor = d["value_cursor"]
    dv.liveclock = d["liveclock"]
    dv.threadswitch_bit = d["threadswitch_bit"]
    # the replay countdown, against the restored logical clock
    at = d["replay_nyp"]
    dv._replay_at = None if at is None else engine.yp_base + at
    dv._set_limit()
    dv.stats = dict(d["stats"])
    _unpack_buffer(dv.switch_buf, d["switch_buf"])
    _unpack_buffer(dv.value_buf, d["value_buf"])
    (dv.sym._io_classes_loaded, dv.sym.io_warmups,
     dv.sym.eager_grows, dv.sym.overflow_grows) = d["sym"]
    if slim_state is not None:
        dv._slim_restore_state(slim_state)
    elif dv._slim_replay is not None:
        raise CheckpointError(
            "trace is slim (v3.2) but the snapshot carries no slim replay "
            "state — it was captured replaying a different (full) trace"
        )
    return vm


def _replay_class_table(loader, h: dict) -> None:
    """Reproduce the snapshot's class table — layouts, class ids, method
    ids, compiled code — by replaying creation through the real loader
    in class-id order.  Ids are append-only and every dependency (super,
    array element class, statics layout) was created *before* its
    dependent got an id, so this order always works."""
    for idx, (tag, name) in enumerate(h["class_table"]):
        if idx < len(loader.class_table):
            got = loader.class_table[idx]
            if got.is_array != (tag == "A") or got.name != name:
                raise CheckpointError(
                    f"class table diverged at id {idx}: snapshot has "
                    f"{tag}/{name!r}, fresh VM built {got.name!r}"
                )
            continue
        if tag == "A":
            loader.array_layout(name)  # for arrays, name IS the descriptor
        elif tag == "C":
            loader.ensure_layout(name)
        # tag == "S": Statics$X layouts are appended by X's ensure_layout
        if idx >= len(loader.class_table):
            raise CheckpointError(
                f"class table replay stalled at id {idx} ({tag}/{name!r})"
            )
        got = loader.class_table[idx]
        if got.is_array != (tag == "A") or got.name != name:
            raise CheckpointError(
                f"class table diverged at id {idx}: snapshot has "
                f"{tag}/{name!r}, replayed loader built {got.name!r}"
            )
    if len(loader.class_table) != len(h["class_table"]):
        raise CheckpointError(
            f"class table length mismatch after rebuild: snapshot has "
            f"{len(h['class_table'])}, loader built {len(loader.class_table)}"
        )
    for name in h["linked"]:
        loader.link(name)
    if len(loader.method_by_id) != h["n_methods"]:
        raise CheckpointError(
            f"method table mismatch after rebuild: snapshot has "
            f"{h['n_methods']} methods, loader built {len(loader.method_by_id)}"
        )


def _unpack_thread(packed: tuple, loader) -> GreenThread:
    t = GreenThread(packed[0], packed[1], packed[14])
    (t.state, t.stack_addr, t.stack_capacity, t.stack_used, t.stack_grows,
     t.shadow_addr, t.wakeup_time, t.waiting_on, t.wait_recursion,
     t.pending_recursion, t.interrupted) = packed[2:13]
    t.yieldpoints = packed[15]
    frames = []
    for method_id, pc, locals_, stack in packed[16]:
        rm = loader.method_by_id[method_id]
        code = rm.code
        if code is None:
            raise CheckpointError(
                f"frame references uncompiled method {rm.qualname}"
            )
        try:
            xpc = code.xstart.index(pc)  # canonical pc -> executable pc
        except ValueError:
            raise CheckpointFormatError(
                f"frame of {rm.qualname} is at canonical pc {pc}, inside a "
                "superinstruction (or past the end) of this engine's code"
            ) from None
        frame = Frame.__new__(Frame)
        frame.method = rm
        frame.code = code
        frame.pc = xpc
        frame.locals = list(locals_)
        frame.stack = list(stack)
        frames.append(frame)
    t.frames = frames
    return t


def _unpack_buffer(buf, packed: tuple) -> None:
    buf.addr, buf._fill, buf._pos, buf.flushes, buf.refills = packed


# ---------------------------------------------------------------------------
# the sidecar file


class CheckpointWriter:
    """Streams snapshots to ``<path>.tmp``; :meth:`seal` writes META and
    FOOTER segments, fsyncs, and atomically renames into place (the
    shared :class:`~repro.core.segments.SegmentWriter`).  A crash
    mid-replay leaves a tmp file whose complete-segment prefix is every
    checkpoint that was fully flushed.

    Each snapshot is preceded by an event-delta segment holding the
    observer events since the previous snapshot (the first snapshot
    written gets the full prefix), so snapshots must arrive in capture
    order.
    """

    def __init__(self, path):
        self._out = SegmentWriter(path, SIDECAR)
        self.n_snapshots = 0
        self.n_events = 0

    def add(self, snapshot: Snapshot, encoded: "_Encoded | None" = None) -> None:
        """Append *snapshot*; *encoded* holds its encodings when the
        caller already has them (see :func:`_capture`)."""
        n_events = snapshot.header["events"]
        if n_events < self.n_events:
            raise CheckpointError(
                f"snapshot @cycle {snapshot.cycles} holds {n_events} events "
                f"but the sidecar already logs {self.n_events}; add "
                "snapshots in capture order"
            )
        if encoded is not None:
            header_blob, words_blob = encoded.header_blob, encoded.words_blob
        else:
            header_blob, words_blob = _blobs(snapshot.header, snapshot.words)
        if n_events > self.n_events:
            if encoded is not None and encoded.events_from == self.n_events:
                events_blob = encoded.events_blob
            else:
                events_blob = _encode_events(snapshot.events[self.n_events:n_events])
            self._out.append(SEG_EVENTS, events_blob)
            self.n_events = n_events
        prefix = _SNAP_PREFIX.pack(
            bytes.fromhex(snapshot.digest), snapshot.cycles, n_events, len(header_blob)
        )
        self._out.append(SEG_SNAPSHOT, prefix + header_blob + words_blob)
        self.n_snapshots += 1

    def seal(self, meta: dict | None = None) -> None:
        """Write META (when given) and FOOTER, then seal; sealing twice
        is an error."""
        if meta:
            self._out.append(SEG_CKPT_META, _encode_json(dict(meta), "sidecar meta"))
        self._out.append(
            SEG_CKPT_FOOTER,
            _encode_json({"n_snapshots": self.n_snapshots}, "sidecar footer"),
        )
        self._out.seal()

    def abandon(self) -> None:
        """Close without sealing (crash simulation / error paths): the
        tmp file keeps every fully-flushed checkpoint."""
        self._out.abandon()


#: what the store says where :func:`~repro.core.segments.scan` stopped
_SCAN_ERRORS = {
    segments.TRAILING: "trailing data after footer",
    segments.TORN_HEADER: "torn segment header",
    segments.UNKNOWN_KIND: "unknown segment kind {kind!r}",
    segments.TOO_LONG: "implausible segment length {length}",
    segments.TORN_PAYLOAD: "torn segment payload",
    segments.BAD_CRC: "segment CRC mismatch",
}


def _decode_event_rows(blob: bytes) -> list:
    """An event-delta payload as a list of row tuples."""
    try:
        rows = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"undecodable event delta: {exc}") from exc
    if not isinstance(rows, list) or not all(type(r) is list for r in rows):
        raise CheckpointFormatError("event delta is not a list of event rows")
    return [tuple(r) for r in rows]


class _EventLog:
    """A sidecar's event deltas, decoded in order on first use.  Each
    delta's end is a *mark*: an event count a snapshot may index, with
    the events digest of the prefix it ends."""

    def __init__(self):
        self._blobs: list[bytes] = []
        self._decoded = 0  # deltas decoded so far
        self._rows: list[tuple] = []
        self._digest = _EventsDigest()
        self._marks = {0: self._digest.copy()}
        self._error: str | None = None

    def append(self, blob: bytes) -> None:
        self._blobs.append(blob)

    def prefix(self, n: int) -> "tuple[list[tuple], _EventsDigest]":
        """The first *n* events and the running events digest over them."""
        while (
            n > self._digest.count
            and self._error is None
            and self._decoded < len(self._blobs)
        ):
            blob = self._blobs[self._decoded]
            try:
                rows = _decode_event_rows(blob)
            except CheckpointFormatError as exc:
                self._error = f"event delta #{self._decoded}: {exc}"
                break
            self._decoded += 1
            self._rows.extend(rows)
            self._digest.update(blob, len(rows))
            self._marks[self._digest.count] = self._digest.copy()
        mark = self._marks.get(n)
        if mark is None:
            raise CheckpointFormatError(
                self._error
                or f"no event delta ends at event {n} (the log holds "
                f"{self._digest.count} decoded events)"
            )
        return self._rows[:n], mark


def _decode_snapshot_payload(payload: bytes, log: _EventLog) -> tuple:
    """``prefix | header JSON | words JSON`` plus the event prefix from
    *log*, as ``(header, words, events, events digest)``.  The digest is
    checked over the stored bytes and the events digest before anything
    of the snapshot is decoded; they are the canonical encodings, so
    this is the machine digest."""
    want, cycles, n_events, header_len = _SNAP_PREFIX.unpack_from(payload)
    start = _SNAP_PREFIX.size
    header_blob = payload[start : start + header_len]
    words_blob = payload[start + header_len :]
    events, events_digest = log.prefix(n_events)
    got = _digest_bytes(header_blob, words_blob, events_digest.digest())
    if want.hex() != got:
        raise CheckpointFormatError(
            f"machine digest mismatch (stored {want.hex()}, computed {got})"
        )
    header = _decode_json_object(header_blob, "snapshot header")
    try:
        words = json.loads(words_blob)
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"undecodable snapshot words: {exc}") from exc
    if not isinstance(words, list) or not all(type(w) is int for w in words):
        raise CheckpointFormatError("snapshot words are not a list of integers")
    if header.get("cycles") != cycles or header.get("events") != n_events:
        raise CheckpointFormatError(
            f"snapshot header (cycle {header.get('cycles')!r}, "
            f"{header.get('events')!r} events) disagrees with its segment "
            f"prefix (cycle {cycles}, {n_events} events)"
        )
    header["digest"] = want.hex()
    return header, words, events, events_digest


class CheckpointStore:
    """A parsed sidecar: its CRC-intact snapshots plus everything a
    doctor needs to classify the damage.

    Loading is *salvage by default*: a torn/corrupt tail stops the scan
    (``error``), a snapshot that fails its digest is skipped
    (``skipped``, with a line in ``notes``), and whatever survives is
    usable — the fallback ladder in action.  Snapshots are decoded on
    first use: :meth:`newest_first` hands them out undecoded, while
    :attr:`snapshots`, :attr:`damaged` and :meth:`describe` decode and
    verify them all.
    """

    def __init__(self, path: str, source: str = "sidecar"):
        self.path = path
        self.source = source  # "sidecar" (sealed) or "tmp" (crash leftovers)
        self.meta: dict = {}
        self.sealed = False
        self.error: str | None = None
        #: (index, snapshot) of every CRC-intact snapshot, in file order
        self._entries: list[tuple[int, Snapshot]] = []
        self._failures: dict[int, str] = {}  # snapshot index -> why it failed
        self._log = _EventLog()

    @classmethod
    def load(cls, path) -> "CheckpointStore":
        """Parse ``path``, falling back to ``path.tmp`` (a crashed
        writer's leftovers).  Raises :class:`CheckpointFormatError` only
        when no readable sidecar exists at all."""
        sealed = Path(str(path))
        tmp = Path(str(path) + ".tmp")
        if sealed.exists():
            return cls._parse(sealed.read_bytes(), str(sealed), "sidecar")
        if tmp.exists():
            return cls._parse(tmp.read_bytes(), str(tmp), "tmp")
        raise CheckpointFormatError(f"no checkpoint sidecar at {path}")

    @classmethod
    def _parse(cls, blob: bytes, path: str, source: str) -> "CheckpointStore":
        if len(blob) < SIDECAR.start or blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
            raise CheckpointFormatError(
                f"{path}: not a checkpoint sidecar (bad magic)"
            )
        version = int.from_bytes(blob[len(CKPT_MAGIC) : SIDECAR.start], "little")
        if version != CKPT_VERSION:
            raise CheckpointFormatError(
                f"{path}: unsupported checkpoint version {version} (this "
                f"build reads version {CKPT_VERSION})"
            )
        store = cls(path, source)
        n_seen = 0
        footer = None
        found, stop = scan(blob, SIDECAR)
        for kind, _, payload, pos, _ in found:
            if kind in (SEG_CKPT_META, SEG_CKPT_FOOTER):
                try:
                    obj = _decode_json_object(payload, "sidecar meta/footer")
                except CheckpointFormatError as exc:
                    store.error = f"{exc} at byte {pos}"
                    break
            if kind == SEG_SNAPSHOT:
                store._add_snapshot(n_seen, payload)
                n_seen += 1
            elif kind == SEG_EVENTS:
                store._log.append(payload)
            elif kind == SEG_CKPT_META:
                store.meta.update(obj)
            else:
                footer = obj
        if store.error is None and stop is not None:
            store.error = (
                _SCAN_ERRORS[stop.reason].format(**stop._asdict())
                + f" at byte {stop.offset}"
            )
        if store.error is None and footer is not None:
            if footer.get("n_snapshots") != n_seen:
                store.error = (
                    f"footer claims {footer.get('n_snapshots')} snapshots, "
                    f"scanned {n_seen}"
                )
            else:
                store.sealed = True
        return store

    def _add_snapshot(self, index: int, payload: bytes) -> None:
        """Index a CRC-intact snapshot segment by its binary prefix; the
        body waits for :meth:`_decode`."""
        if len(payload) < _SNAP_PREFIX.size:
            self._failures[index] = "snapshot payload shorter than its prefix"
            return
        _, cycles, _, header_len = _SNAP_PREFIX.unpack_from(payload)
        if _SNAP_PREFIX.size + header_len > len(payload):
            self._failures[index] = (
                f"snapshot header length {header_len} overruns the payload"
            )
            return
        self._entries.append(
            (index, Snapshot._stored(cycles, lambda: self._decode(index, payload)))
        )

    def _decode(self, index: int, payload: bytes) -> tuple:
        failure = self._failures.get(index)
        if failure is None:
            try:
                return _decode_snapshot_payload(payload, self._log)
            except CheckpointFormatError as exc:
                failure = self._failures[index] = str(exc)
        raise CheckpointFormatError(f"snapshot #{index}: {failure}")

    @staticmethod
    def _usable(snap: Snapshot) -> bool:
        try:
            snap._load()
        except CheckpointFormatError:
            return False
        return True

    def _decode_all(self) -> list[Snapshot]:
        return [s for _, s in self._entries if self._usable(s)]

    @property
    def snapshots(self) -> list[Snapshot]:
        """Every snapshot that decodes and passes its digest, in file
        order — decoding all of them (full verification)."""
        return self._decode_all()

    @property
    def skipped(self) -> int:
        """Snapshots found failing so far (all of them once
        :attr:`snapshots` has been read)."""
        return len(self._failures)

    @property
    def notes(self) -> list[str]:
        return [f"snapshot #{i}: {why}" for i, why in sorted(self._failures.items())]

    @property
    def damaged(self) -> bool:
        self._decode_all()
        return bool(self.error or self.skipped or not self.sealed)

    def nearest(self, target_cycles: int) -> Snapshot | None:
        """The latest usable snapshot strictly before *target_cycles*
        (strict, so a seek restored here still re-executes the dispatch
        a from-zero stopper would pause inside)."""
        for snap in self.newest_first():
            if snap.cycles < target_cycles and self._usable(snap):
                return snap
        return None

    def newest_first(self) -> list[Snapshot]:
        """The snapshots not yet known to fail, newest first and still
        undecoded: a caller that uses only the first decodes only it."""
        return sorted(
            (s for i, s in self._entries if i not in self._failures),
            key=lambda s: s.cycles,
            reverse=True,
        )

    def describe(self) -> str:
        state = "sealed" if self.sealed else f"unsealed ({self.source})"
        parts = [f"{len(self._decode_all())} snapshot(s), {state}"]
        if self.skipped:
            parts.append(f"{self.skipped} failed digest verification")
        if self.error:
            parts.append(f"scan stopped: {self.error}")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# the recorder


class CheckpointRecorder:
    """Captures a snapshot at the first safe point at or past every
    multiple of *every* cycles.  The threshold is derived from the
    current cycle count, so a run restored from a checkpoint captures at
    exactly the boundaries the from-zero run would have — the property
    the restore-verification test pins.
    """

    def __init__(
        self,
        vm: "VirtualMachine",
        every: int = DEFAULT_CHECKPOINT_INTERVAL,
        *,
        writer: CheckpointWriter | None = None,
        sink: "Callable[[Snapshot], None] | None" = None,
        keep: bool | None = None,
    ):
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {every}")
        self.vm = vm
        self.every = every
        self.writer = writer
        self.sink = sink
        #: retain snapshots in memory (default: only when not writing)
        self.keep = keep if keep is not None else writer is None
        self.snapshots: list[Snapshot] = []
        #: the events digest so far: each capture encodes only new events
        #: (on a VM restored from a snapshot, continued from the snapshot's)
        restored = vm.dejavu.restored_events if vm.dejavu is not None else None
        self._events = restored.copy() if restored is not None else _EventsDigest()
        self._next = (vm.engine.cycles // every + 1) * every
        # chain, don't clobber: a hook already installed (e.g. the serve
        # daemon's cooperative-cancellation check) keeps firing first
        self._chained_hook = vm.engine.safepoint_hook
        vm.engine.safepoint_hook = self._at_safepoint

    def _at_safepoint(self, engine) -> None:
        if self._chained_hook is not None:
            self._chained_hook(engine)
        cycles = engine.cycles
        if cycles < self._next:
            return
        snap, encoded = _capture(self.vm, self._events)
        self._next = (cycles // self.every + 1) * self.every
        if self.keep:
            self.snapshots.append(snap)
        if self.writer is not None:
            self.writer.add(snap, encoded)
        if self.sink is not None:
            self.sink(snap)

    def meta(self, **extra) -> dict:
        vm = self.vm
        meta = {
            "every": self.every,
            "config": config_fingerprint(vm.config),
            "mode": vm.dejavu.mode if vm.dejavu is not None else "?",
        }
        meta.update(extra)
        return meta

    def seal(self, **extra) -> None:
        if self.writer is not None:
            self.writer.seal(self.meta(**extra))

    def abandon(self) -> None:
        if self.writer is not None:
            self.writer.abandon()
