"""The green-thread package: frames, threads, and the scheduler.

This is the component the paper leans on hardest: because DejaVu *replays
the entire thread package* (ready queue, entry queues, wait sets, timed
queue, lock words), deterministic thread switches — those caused by
synchronization — need no trace records at all.  Only preemptive switches
(timer-driven) and wall-clock reads are non-deterministic, and both are
observed through well-defined funnels (`Engine` yield points and
:meth:`VirtualMachine.read_clock`).

Threads run on heap-allocated activation stacks (Jalapeño allocates stacks
in heap arrays): each thread owns a guest ``[I`` whose capacity bounds the
frame words in use, grown by reallocation when it overflows — a real,
GC-visible event that DejaVu's stack-overflow symmetry is about.  A second
guest array per thread is the *shadow call stack* (method id + bci per
frame), kept current at every call, return and yield point so a remote
debugger can compute stack traces from raw memory alone.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.vm import corelib
from repro.vm.errors import VMTrap
from repro.vm.layout import HEADER_AUX, HEADER_WORDS
from repro.vm.memory import BOOT_THREADS

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.loader import RuntimeMethod
    from repro.vm.machine import VirtualMachine

#: words of headroom DejaVu's eager stack growth maintains (heuristic from
#: the paper: grow "just before calling a DejaVu method when available
#: stack space falls below a heuristically determined value").
EAGER_STACK_HEADROOM = 64

_INITIAL_SHADOW_WORDS = 1 + 2 * 16


class Frame:
    """One activation: compiled code, machine pc, locals, operand stack."""

    __slots__ = ("method", "code", "pc", "locals", "stack")

    def __init__(self, method: "RuntimeMethod", args: list[int]):
        self.method = method
        code = method.code
        assert code is not None, f"{method.qualname} not compiled"
        self.code = code
        self.pc = 0
        self.locals: list[int] = args + [0] * (code.nlocals - len(args))
        self.stack: list[int] = []

    @property
    def bci(self) -> int:
        # frame pcs index the *executable* program (which may be fused)
        return self.code.xbci_of[self.pc]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Frame {self.method.qualname} pc={self.pc} bci={self.bci}>"


class GreenThread:
    """Host-side thread state; the guest half is a heap ``Thread`` object."""

    __slots__ = (
        "tid",
        "guest_addr",
        "frames",
        "state",
        "stack_addr",
        "stack_capacity",
        "stack_used",
        "stack_grows",
        "shadow_addr",
        "wakeup_time",
        "waiting_on",
        "wait_recursion",
        "pending_recursion",
        "interrupted",
        "joiners",
        "name",
        "yieldpoints",
    )

    def __init__(self, tid: int, guest_addr: int, name: str):
        self.tid = tid
        self.guest_addr = guest_addr
        self.frames: list[Frame] = []
        self.state = corelib.THREAD_NEW
        self.stack_addr = 0
        self.stack_capacity = 0
        self.stack_used = 0
        self.stack_grows = 0
        self.shadow_addr = 0
        self.wakeup_time: int | None = None
        self.waiting_on = 0
        self.wait_recursion = 0
        self.pending_recursion = 0
        self.interrupted = False
        self.joiners: list[GreenThread] = []
        self.name = name
        #: yield points run; their sum over threads is the logical clock
        self.yieldpoints = 0

    @property
    def alive(self) -> bool:
        return self.state != corelib.THREAD_TERMINATED

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GreenThread {self.tid} {self.name!r} state={self.state}>"


class Scheduler:
    """The thread package proper: dispatch queues and switch mechanics."""

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        self.threads: list[GreenThread] = []
        self.ready: deque[GreenThread] = deque()
        self.timed: list[GreenThread] = []  # sleepers + timed waiters
        self.current: GreenThread | None = None
        self._last_running: GreenThread | None = None
        self.switch_count = 0
        self._table_addr = 0  # guest Thread[] mirroring self.threads
        #: baseline hooks (see repro.baselines): replay-side dispatch
        #: steering and record-side dispatch observation.  DejaVu itself
        #: uses neither — it replays the package instead of steering it.
        self.dispatch_override: "Callable[[deque[GreenThread]], GreenThread | None] | None" = None
        self.on_dispatch: "Callable[[GreenThread], None] | None" = None
        #: observation hooks (repro.explore race detection): thread
        #: creation and cross-thread wakeups are the synchronized-with
        #: edges a happens-before analysis needs.  Host-side, read-only.
        self.on_spawn: "Callable[[GreenThread | None, GreenThread], None] | None" = None
        self.on_wakeup: "Callable[[str, GreenThread, GreenThread], None] | None" = None

    # ------------------------------------------------------------------
    # thread creation

    def _thread_layout_field(self, name: str):
        return self.vm.loader.classes["Thread"].layout.field_by_name[name]

    def spawn(self, guest_addr: int, entry: "RuntimeMethod", name: str) -> GreenThread:
        """Create a runnable thread whose first frame invokes *entry*.

        All allocations here (stack array, shadow array, table growth) are
        part of the deterministic allocation stream.
        """
        vm = self.vm
        om = vm.om
        thread = GreenThread(len(self.threads), guest_addr, name)
        self.threads.append(thread)

        depth = len(vm.loader.temp_roots)
        gi = vm.loader._tr_push(guest_addr)
        stack = om.new_array("[I", vm.config.initial_stack_words)
        si = vm.loader._tr_push(stack)
        shadow = om.new_array("[I", _INITIAL_SHADOW_WORDS)
        shi = vm.loader._tr_push(shadow)

        thread.guest_addr = vm.loader._tr_get(gi)
        thread.stack_addr = vm.loader._tr_get(si)
        thread.stack_capacity = vm.config.initial_stack_words
        thread.shadow_addr = vm.loader._tr_get(shi)

        ga = thread.guest_addr
        om.put_field(ga, self._thread_layout_field("tid").offset, thread.tid)
        om.put_field(ga, self._thread_layout_field("stack").offset, thread.stack_addr)
        om.put_field(ga, self._thread_layout_field("shadow").offset, thread.shadow_addr)
        self._table_append(thread)
        vm.loader._tr_reset(depth)

        args = [thread.guest_addr] if not entry.static else []
        frame = Frame(entry, args)
        thread.frames.append(frame)
        self._charge_stack(thread, frame)
        self._shadow_push(thread, entry.method_id)
        self._set_state(thread, corelib.THREAD_READY)
        self.ready.append(thread)
        self.vm.observer.emit("thread_start", thread.tid, name)
        if self.on_spawn is not None:
            self.on_spawn(self.current, thread)
        return thread

    def _table_append(self, thread: GreenThread) -> None:
        """Mirror the thread into the guest Thread[] table (BOOT_THREADS)."""
        om = self.vm.om
        words = om.memory.words
        if self._table_addr == 0:
            self._table_addr = om.new_array("[LThread;", 8)
            om.memory.boot_write(BOOT_THREADS, self._table_addr)
        cap = words[self._table_addr + HEADER_AUX]
        if thread.tid >= cap:
            new = om.new_array("[LThread;", cap * 2)  # may GC: take the old base after
            old = self._table_addr + HEADER_WORDS
            words[new + HEADER_WORDS : new + HEADER_WORDS + cap] = words[old : old + cap]
            self._table_addr = new
            om.memory.boot_write(BOOT_THREADS, new)
        words[self._table_addr + HEADER_WORDS + thread.tid] = thread.guest_addr

    def _set_state(self, thread: GreenThread, state: int) -> None:
        thread.state = state
        if thread.guest_addr:
            self.vm.om.put_field(
                thread.guest_addr, self._thread_layout_field("state").offset, state
            )

    # ------------------------------------------------------------------
    # stack accounting (heap-allocated, growable activation stacks)

    def _charge_stack(self, thread: GreenThread, frame: Frame) -> None:
        needed = frame.code.frame_words
        if thread.stack_used + needed > thread.stack_capacity:
            self.grow_stack(thread, needed)
        thread.stack_used += needed

    def grow_stack(self, thread: GreenThread, needed: int) -> None:
        """Reallocate the thread's stack array — the GC-visible overflow event."""
        vm = self.vm
        om = vm.om
        new_cap = max(thread.stack_capacity * 2, thread.stack_used + needed + 32)
        if new_cap > vm.config.max_stack_words:
            raise VMTrap(
                "StackOverflow",
                f"thread {thread.tid} needs {new_cap} stack words "
                f"(cap {vm.config.max_stack_words})",
            )
        new_stack = om.new_array("[I", new_cap)
        thread.stack_addr = new_stack
        thread.stack_capacity = new_cap
        thread.stack_grows += 1
        om.put_field(
            thread.guest_addr, self._thread_layout_field("stack").offset, new_stack
        )
        vm.observer.emit("stack_grow", thread.tid, new_cap)

    # ------------------------------------------------------------------
    # shadow call stacks (remote-debugger-readable stack traces)

    # Word 0 is the depth, then a (method id, bci) pair per frame, indexed
    # in place in ``Memory.words`` from a base recomputed per call (GC moves it).

    def _shadow_push(self, thread: GreenThread, method_id: int) -> None:
        om = self.vm.om
        words = om.memory.words
        depth = words[thread.shadow_addr + HEADER_WORDS]
        top = 1 + 2 * depth
        cap = words[thread.shadow_addr + HEADER_AUX]
        if top + 2 > cap:
            new = om.new_array("[I", cap * 2)  # may GC: take the old base after
            old = thread.shadow_addr + HEADER_WORDS
            words[new + HEADER_WORDS : new + HEADER_WORDS + top] = words[old : old + top]
            thread.shadow_addr = new
            om.put_field(thread.guest_addr, self._thread_layout_field("shadow").offset, new)
        base = thread.shadow_addr + HEADER_WORDS
        words[base + top : base + top + 2] = (method_id, 0)
        words[base] = depth + 1

    def _shadow_pop(self, thread: GreenThread) -> None:
        words = self.vm.om.memory.words
        base = thread.shadow_addr + HEADER_WORDS
        if words[base] > 0:
            words[base] -= 1

    def shadow_sync_bci(self, thread: GreenThread) -> None:
        """Record the running frame's bci so remote stack traces are exact."""
        if thread.frames:
            words = self.vm.om.memory.words
            base = thread.shadow_addr + HEADER_WORDS
            depth = words[base]
            if depth > 0:
                words[base + 2 * depth] = thread.frames[-1].bci

    # ------------------------------------------------------------------
    # call/return hooks used by the engine

    def push_frame(self, thread: GreenThread, frame: Frame) -> None:
        thread.frames.append(frame)
        self._charge_stack(thread, frame)
        self._shadow_push(thread, frame.method.method_id)
        vm = self.vm
        if vm.dejavu is not None and thread.stack_capacity - thread.stack_used < EAGER_STACK_HEADROOM:
            vm.engine.yp_limit = 0  # the callee's prologue yield point grows it eagerly

    def pop_frame(self, thread: GreenThread) -> Frame:
        frame = thread.frames.pop()
        thread.stack_used -= frame.code.frame_words
        self._shadow_pop(thread)
        return frame

    # ------------------------------------------------------------------
    # dispatch

    def preempt(self) -> None:
        """Timer-driven switch: current to the ready tail (round robin)."""
        thread = self.current
        assert thread is not None
        self._set_state(thread, corelib.THREAD_READY)
        self.ready.append(thread)
        self.current = None
        self.vm.engine.switch_pending = True

    def block_current(self, state: int, wakeup_time: int | None = None) -> None:
        """Park the current thread (monitor entry / wait / sleep / join)."""
        thread = self.current
        assert thread is not None
        self._set_state(thread, state)
        thread.wakeup_time = wakeup_time
        if wakeup_time is not None:
            self.timed.append(thread)
        self.current = None
        self.vm.engine.switch_pending = True

    def make_ready(self, thread: GreenThread) -> None:
        if thread.wakeup_time is not None:
            thread.wakeup_time = None
            if thread in self.timed:
                self.timed.remove(thread)
        self._set_state(thread, corelib.THREAD_READY)
        self.ready.append(thread)

    def on_terminate(self, thread: GreenThread) -> None:
        self._set_state(thread, corelib.THREAD_TERMINATED)
        for joiner in thread.joiners:
            self.make_ready(joiner)
            if self.on_wakeup is not None:
                self.on_wakeup("join", thread, joiner)
        thread.joiners.clear()
        self.current = None
        self.vm.engine.switch_pending = True
        self.vm.observer.emit("thread_end", thread.tid)

    def _wake_timed(self) -> None:
        """Wake expired sleepers/timed-waiters.  Reads the wall clock —
        a non-deterministic event recorded and replayed by DejaVu."""
        if not self.timed:
            return
        now = self.vm.read_clock()
        for thread in list(self.timed):
            if thread.wakeup_time is not None and thread.wakeup_time <= now:
                thread.wakeup_time = None
                self.timed.remove(thread)
                if thread.state == corelib.THREAD_SLEEPING:
                    self._set_state(thread, corelib.THREAD_READY)
                    self.ready.append(thread)
                elif thread.state == corelib.THREAD_WAITING:
                    # timed wait expired: rejoin the lock contenders
                    addr = thread.waiting_on
                    if self.vm.monitors.cancel_wait(addr, thread):
                        self._set_state(thread, corelib.THREAD_BLOCKED)
                        heir = self.vm.monitors.grant_if_free(addr)
                        if heir is not None:
                            self.make_ready(heir)

    def schedule(self) -> GreenThread | None:
        """Pick the next thread to run; None when every thread terminated.

        The choice is a pure function of thread-package state (plus the
        wall clock for timed wakeups), which is what makes synchronization
        switches replay for free.
        """
        while True:
            self._wake_timed()
            if self.ready:
                if self.dispatch_override is not None:
                    thread = self.dispatch_override(self.ready)
                    if thread is None:
                        thread = self.ready.popleft()
                    else:
                        self.ready.remove(thread)
                else:
                    thread = self.ready.popleft()
                self._set_state(thread, corelib.THREAD_RUNNING)
                self.current = thread
                if self._last_running is not thread:
                    self.switch_count += 1
                    self.vm.observer.emit(
                        "switch",
                        self._last_running.tid if self._last_running else -1,
                        thread.tid,
                        self.vm.engine.cycles,
                    )
                self._last_running = thread
                if self.on_dispatch is not None:
                    self.on_dispatch(thread)
                return thread
            if self.timed:
                pending = [t.wakeup_time for t in self.timed if t.wakeup_time is not None]
                if pending:
                    self.vm.clock_advance_hint(min(pending))
                continue
            blocked = [t.tid for t in self.threads if t.alive]
            if blocked:
                # Every live thread is parked on a monitor: the guest is
                # deadlocked.  This is a *deterministic* outcome — replay
                # reaches the identical configuration — so it ends the run
                # gracefully rather than raising, and is recorded as an
                # observable event for the accuracy check.
                self.vm.deadlocked = tuple(sorted(blocked))
                self.vm.observer.emit("deadlock", self.vm.deadlocked)
                return None
            return None

    # ------------------------------------------------------------------
    # GC support

    def visit_roots(self, fwd: Callable[[int], int]) -> None:
        if self._table_addr:
            self._table_addr = fwd(self._table_addr)
        for thread in self.threads:
            if thread.guest_addr:
                thread.guest_addr = fwd(thread.guest_addr)
            if thread.stack_addr:
                thread.stack_addr = fwd(thread.stack_addr)
            if thread.shadow_addr:
                thread.shadow_addr = fwd(thread.shadow_addr)
            if thread.waiting_on:
                thread.waiting_on = fwd(thread.waiting_on)
            for frame in thread.frames:
                maps = frame.method.maps
                assert maps is not None
                lrefs, srefs = maps.ref_map(frame.bci)
                locs = frame.locals
                stk = frame.stack
                for i in lrefs:
                    if i < len(locs) and locs[i]:
                        locs[i] = fwd(locs[i])
                depth = len(stk)
                for i in srefs:
                    # the engine may have popped operands mid-instruction;
                    # map entries beyond the live depth are dead by
                    # construction (see interp.py safe-point discipline).
                    if i < depth and stk[i]:
                        stk[i] = fwd(stk[i])


def thread_state_name(state: int) -> str:
    return {
        corelib.THREAD_NEW: "NEW",
        corelib.THREAD_READY: "READY",
        corelib.THREAD_RUNNING: "RUNNING",
        corelib.THREAD_BLOCKED: "BLOCKED",
        corelib.THREAD_WAITING: "WAITING",
        corelib.THREAD_SLEEPING: "SLEEPING",
        corelib.THREAD_TERMINATED: "TERMINATED",
    }.get(state, f"?{state}")
