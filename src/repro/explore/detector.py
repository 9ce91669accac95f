"""Happens-before race detection over a deterministic execution.

The detector maintains vector clocks per green thread and watches every
shared-memory micro-op through the engine's ``mem_hook`` — field and
array reads and writes, keyed by heap word address.  Synchronized-with
edges come from the thread package's observation hooks:

* monitor hand-offs — ``MonitorTable.on_release`` publishes the
  releaser's clock into a per-lock clock, ``on_acquire`` joins it into
  the acquirer (this covers ``wait``/``notify`` too: a wait is a full
  release followed, on the far side, by a re-acquisition);
* thread creation — ``Scheduler.on_spawn`` seeds the child's clock from
  the parent's;
* thread join — ``Scheduler.on_wakeup("join", dead, joiner)`` joins the
  dead thread's final clock into the joiner.

Two accesses to the same word race when neither happens before the other
and at least one is a write.  Per word the detector keeps FastTrack-style
epochs — the last write and the reads since it, each an ``(tid, clock)``
pair plus its source site — so the happens-before test per access is a
single clock comparison, not a full vector join.  Almost every access is
race-free, so an access pays for FastTrack's work and nothing more: its
site is kept as the raw ``(RuntimeMethod, bci)`` and its location as a
deferred ``(tag, base-or-class, offset-or-index)`` triple.  The
:class:`AccessSite` objects and the location's name are built only when a
race is reported — at the second access, against the heap as it stands
then, so the names are the ones an eager detector would print.

**Perturbation-freedom.**  Every hook is host-side and read-only: the
detector allocates nothing in the guest heap, never blocks a thread, and
never touches the logical clocks.  Attached to a *replay*, it analyses
the recorded execution without the recorded execution being able to
tell; attached to a *record* run it leaves the trace bit-identical to an
undetected run (asserted by test).  Its memory hook is bound into the
engine's handler tables around the ops that end in a memory micro-op
only, and it rides the ordinary fused program: the engine hands it the
canonical access behind a superinstruction (op, bci and operand stack),
so the analysis sees exactly what it would see on unfused code.

Known blind spots, accepted and documented: memory touched only from
inside native methods (e.g. ``System.arraycopy``) bypasses the bytecode
funnel; and a garbage collection moves objects, so address-keyed state
is discarded at each collection — races whose two halves straddle a
collection are missed.  (Joins of already-finished threads *do* create
an edge: the join native reports them to ``on_wakeup`` directly.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.controller import MODE_REPLAY, DejaVu
from repro.vm.compiler import (
    M_AALOAD,
    M_AASTORE,
    M_GETFIELD,
    M_GETSTATIC,
    M_IALOAD,
    M_IASTORE,
    M_PUTFIELD,
    M_PUTSTATIC,
)
from repro.vm.layout import HEADER_AUX, HEADER_WORDS
from repro.vm.machine import VMConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.core.tracelog import TraceLog
    from repro.vm.machine import VirtualMachine
    from repro.vm.scheduler_types import RunResult
    from repro.vm.threads import GreenThread

READ = "read"
WRITE = "write"

# deferred location tags: (tag, x, y) is named only when a race is reported
_FIELD = 0  # x: object address, y: field offset
_STATIC = 1  # x: RuntimeClass, y: offset in its statics block
_ELEM = 2  # x: array address, y: index


@dataclass(frozen=True)
class AccessSite:
    """One side of a race: where a thread touched the word."""

    method: str  # qualified method name
    bci: int
    kind: str  # READ or WRITE
    tid: int

    def describe(self) -> str:
        return f"{self.kind} at {self.method} bci {self.bci} (thread {self.tid})"


@dataclass(frozen=True)
class Race:
    """An unordered conflicting pair: neither access happens before the other."""

    location: str  # "Main.balance", "Queue.count", "[I[3]", ...
    first: AccessSite  # the earlier access (program order of detection)
    second: AccessSite

    def describe(self) -> str:
        return (
            f"race on {self.location}: {self.first.describe()} "
            f"|| {self.second.describe()}"
        )


@dataclass(frozen=True)
class RegionSummary:
    """One closed race region: the window between two thread switches.

    ``racy`` is the verdict *at close time*; a race detected later can
    still pin this region retroactively (its earlier access lives here),
    which shows up in the detector's final ``racy_regions`` set — the
    set slim recording consults, since it classifies after the run.
    """

    index: int
    racy: bool
    n_accesses: int
    races: "tuple[Race, ...]"  # races first reported inside this region


class RaceDetector:
    """Attach to a VM before ``run``; read ``races`` after."""

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        self.races: list[Race] = []
        self._sync_edges = 0
        self._gc_invalidations = 0
        # accesses in closed regions (the open one counts _region_accesses)
        self._closed_accesses = 0
        self._seen: set[tuple] = set()
        # vector clocks: tid -> {tid: clock}
        self._vc: dict[int, dict[int, int]] = {}
        # per-lock published clocks: lock addr -> {tid: clock}
        self._lock_vc: dict[int, dict[int, int]] = {}
        # FastTrack state per word address: the last write as
        # (tid, clock, method, bci, region) and the reads since it as
        # {tid: (clock, method, bci, region)}; method is a RuntimeMethod
        self._write: dict[int, tuple] = {}
        self._reads: dict[int, dict[int, tuple]] = {}
        self._collector = vm.collector
        self._memory = vm.memory
        self._gc_seen = vm.collector.collections
        # incremental race-region summary: a region is the window between
        # two thread switches; the caller closes one with end_region()
        self.region_index = 0
        self.racy_regions: set[int] = set()
        self.regions: list[RegionSummary] = []
        self._region_accesses = 0
        self._region_new_races: list[Race] = []
        # words that ever raced: later windows touching one stay pinned
        self._racy_words: set[int] = set()
        vm.engine.mem_hook = self._on_mem
        vm.monitors.on_acquire = self._on_acquire
        vm.monitors.on_release = self._on_release
        vm.scheduler.on_spawn = self._on_spawn
        vm.scheduler.on_wakeup = self._on_wakeup

    @property
    def stats(self) -> dict:
        return {
            "accesses": self._closed_accesses + self._region_accesses,
            "sync_edges": self._sync_edges,
            "gc_invalidations": self._gc_invalidations,
        }

    # ------------------------------------------------------------------
    # vector clock plumbing

    def _clock(self, tid: int) -> dict[int, int]:
        vc = self._vc.get(tid)
        if vc is None:
            vc = {tid: 1}
            self._vc[tid] = vc
        return vc

    @staticmethod
    def _join(into: dict[int, int], other: dict[int, int]) -> None:
        for tid, clk in other.items():
            if clk > into.get(tid, 0):
                into[tid] = clk

    def _check_gc(self) -> None:
        collections = self._collector.collections
        if collections != self._gc_seen:
            # the collector moved every object: address-keyed state is
            # meaningless now (re-keying through the forwarder would keep
            # dead objects alive, i.e. perturb the heap — so we drop it)
            self._gc_seen = collections
            self._write.clear()
            self._reads.clear()
            self._lock_vc.clear()
            self._racy_words.clear()
            self._gc_invalidations += 1

    # ------------------------------------------------------------------
    # synchronized-with edges

    def _on_spawn(self, parent: "GreenThread | None", child: "GreenThread") -> None:
        child_vc = self._clock(child.tid)
        if parent is not None:
            self._join(child_vc, self._clock(parent.tid))
            parent_vc = self._clock(parent.tid)
            parent_vc[parent.tid] += 1
            self._sync_edges += 1

    def _on_wakeup(self, cause: str, source: "GreenThread", target: "GreenThread") -> None:
        self._join(self._clock(target.tid), self._clock(source.tid))
        self._sync_edges += 1

    def _on_acquire(self, addr: int, thread: "GreenThread") -> None:
        self._check_gc()
        lock_vc = self._lock_vc.get(addr)
        if lock_vc is not None:
            self._join(self._clock(thread.tid), lock_vc)
            self._sync_edges += 1

    def _on_release(self, addr: int, thread: "GreenThread") -> None:
        self._check_gc()
        vc = self._clock(thread.tid)
        self._lock_vc[addr] = dict(vc)
        vc[thread.tid] += 1

    # ------------------------------------------------------------------
    # memory accesses

    def _on_mem(self, thread, frame, bci, mop, a, b, stack) -> None:
        if mop == M_GETFIELD:
            x = stack[-1]
            if not x:
                return
            word, kind, tag, y = x + a, READ, _FIELD, a
        elif mop == M_PUTFIELD:
            x = stack[-2]
            if not x:
                return
            word, kind, tag, y = x + a, WRITE, _FIELD, a
        elif mop == M_GETSTATIC:
            if not a.statics_addr:
                return
            word, kind, tag, x, y = a.statics_addr + b, READ, _STATIC, a, b
        elif mop == M_PUTSTATIC:
            if not a.statics_addr:
                return
            word, kind, tag, x, y = a.statics_addr + b, WRITE, _STATIC, a, b
        elif mop == M_IALOAD or mop == M_AALOAD:
            x, y = stack[-2], stack[-1]
            if not self._index_ok(x, y):
                return
            word, kind, tag = x + HEADER_WORDS + y, READ, _ELEM
        else:  # M_IASTORE / M_AASTORE
            x, y = stack[-3], stack[-2]
            if not self._index_ok(x, y):
                return
            word, kind, tag = x + HEADER_WORDS + y, WRITE, _ELEM
        if self._collector.collections != self._gc_seen:
            self._check_gc()
        self._region_accesses += 1
        region = self.region_index
        if word in self._racy_words:
            # any later touch of a word that ever raced keeps its window
            self.racy_regions.add(region)

        tid = thread.tid
        vc = self._vc.get(tid) or self._clock(tid)
        clock = vc[tid]
        method = frame.method
        last_write = self._write.get(word)
        if last_write is not None:
            wt, wc, wmethod, wbci, wregion = last_write
            if wt != tid and wc > vc.get(wt, 0):
                self._report(
                    word, (tag, x, y), (wmethod, wbci, WRITE, wt),
                    (method, bci, kind, tid), wregion,
                )
        if kind == READ:
            reads = self._reads.get(word)
            if reads is None:
                self._reads[word] = {tid: (clock, method, bci, region)}
            else:
                reads[tid] = (clock, method, bci, region)
        else:
            reads = self._reads.pop(word, None)
            if reads:
                for rt, (rc, rmethod, rbci, rregion) in reads.items():
                    if rt != tid and rc > vc.get(rt, 0):
                        self._report(
                            word, (tag, x, y), (rmethod, rbci, READ, rt),
                            (method, bci, kind, tid), rregion,
                        )
            self._write[word] = (tid, clock, method, bci, region)

    def _report(
        self,
        word: int,
        location: tuple,
        first: tuple,
        second: tuple,
        first_region: int,
    ) -> None:
        """*location* is a deferred ``(tag, x, y)``; *first* and *second*
        are ``(RuntimeMethod, bci, kind, tid)``."""
        # region pinning happens before (site-pair) dedup: a race seen
        # again in a later window still marks that window racy, and the
        # first access pins its own — possibly much earlier — window
        # retroactively, which seal-time slimming honours
        self._racy_words.add(word)
        self.racy_regions.add(self.region_index)
        self.racy_regions.add(first_region)
        name = self._name(*location)
        fmethod, fbci, fkind, ftid = first
        smethod, sbci, skind, stid = second
        fqual, squal = fmethod.qualname, smethod.qualname
        key = (name, fqual, fbci, fkind, squal, sbci, skind)
        if key in self._seen:
            return
        self._seen.add(key)
        race = Race(
            location=name,
            first=AccessSite(method=fqual, bci=fbci, kind=fkind, tid=ftid),
            second=AccessSite(method=squal, bci=sbci, kind=skind, tid=stid),
        )
        self.races.append(race)
        self._region_new_races.append(race)

    def end_region(self) -> RegionSummary:
        """Close the current race region (called at each thread switch).

        Returns the closed region's summary and starts the next region.
        Safe to call with zero accesses (an empty window is never racy).
        """
        index = self.region_index
        summary = RegionSummary(
            index=index,
            racy=index in self.racy_regions,
            n_accesses=self._region_accesses,
            races=tuple(self._region_new_races),
        )
        self.regions.append(summary)
        self.region_index = index + 1
        self._closed_accesses += self._region_accesses
        self._region_accesses = 0
        self._region_new_races = []
        return summary

    # ------------------------------------------------------------------
    # naming (for reports only — never guest-visible)

    def _name(self, tag: int, x, y: int) -> str:
        if tag == _FIELD:
            return self._field_name(x, y)
        if tag == _STATIC:
            return self._static_name(x, y)
        return self._elem_name(x, y)

    def _field_name(self, base: int, offset: int) -> str:
        try:
            layout = self.vm.om.layout_of(base)
        except Exception:
            return f"?+{offset}"
        for f in layout.instance_fields:
            if f.offset == offset:
                return f"{layout.name}.{f.name}"
        return f"{layout.name}+{offset}"

    def _static_name(self, rc, offset: int) -> str:
        layout = rc.statics_layout
        if layout is not None:
            for f in layout.instance_fields:
                if f.offset == offset:
                    return f"{rc.name}.{f.name}"
        return f"{rc.name}+{offset}"

    def _elem_name(self, arr: int, idx: int) -> str:
        try:
            layout = self.vm.om.layout_of(arr)
        except Exception:
            return f"?[{idx}]"
        return f"{layout.name}[{idx}]"

    def _index_ok(self, arr: int, idx: int) -> bool:
        # the length word, read in place: a null array, a negative index,
        # or a header past the materialised words (length 0) or outside
        # the address space (a trap) is no access
        if not arr or idx < 0:
            return False
        at = arr + HEADER_AUX
        words = self._memory.words
        return 0 <= at < len(words) and idx < words[at]


@dataclass
class RaceReport:
    """Outcome of one detection replay."""

    races: list[Race]
    result: "RunResult"
    stats: dict

    def format(self) -> str:
        if not self.races:
            return "no races detected"
        lines = [f"{len(self.races)} race(s) detected:"]
        for race in self.races:
            lines.append("  " + race.describe())
        return "\n".join(lines)


def detect_races(
    program: "GuestProgram",
    trace: "TraceLog",
    *,
    config: VMConfig | None = None,
    symmetry=None,
) -> RaceReport:
    """Replay *trace* with the detector attached — perturbation-free by
    construction: replay is accurate, so the analysed execution is the
    recorded one, and the detector itself changes nothing observable."""
    from repro.api import build_vm

    vm = build_vm(program, config)
    DejaVu(vm, MODE_REPLAY, trace=trace, symmetry=symmetry)
    detector = RaceDetector(vm)
    result = vm.run(program.main)
    return RaceReport(races=detector.races, result=result, stats=dict(detector.stats))
