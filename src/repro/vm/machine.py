"""The ``VirtualMachine`` facade: one uniprocessor guest world.

A VM owns memory, loader, object model, monitors, scheduler, engine,
collector, natives, and the (optional) attached DejaVu controller.  Two
VMs share no mutable state — which is what lets the tool VM of the
remote-reflection debugger observe an application VM without perturbing
it.  What they do share is immutable: the definitions and compiled-code
tables of the per-process boot and program images (:class:`BootImage`)
VMs are installed from.
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.vm.classfile import ClassDef
from repro.vm.compiler import compile_method
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import VMError
from repro.vm.gc import Collector
from repro.vm.interp import Engine
from repro.vm.layout import ObjectModel
from repro.vm.loader import Loader, LoaderImage, RuntimeMethod
from repro.vm.memory import (
    BOOT_DEJAVU,
    BOOT_DICTIONARY,
    BOOT_THREADS,
    Memory,
)
from repro.vm.monitors import MonitorTable
from repro.vm.native import NativeRegistry, install_core_natives
from repro.vm.observer import ExecutionObserver
from repro.vm.scheduler_types import RunResult  # re-exported convenience
from repro.vm.threads import Scheduler
from repro.vm.timerdev import FixedClock, FixedTimer, TimerSource, WallClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import DejaVu


@dataclass
class VMConfig:
    """Sizing and limits.  Defaults suit tests; benchmarks scale them up."""

    semispace_words: int = 400_000
    initial_stack_words: int = 512
    #: hard cap on one thread's activation stack; exceeding it is a
    #: deterministic StackOverflow trap (Java's StackOverflowError)
    max_stack_words: int = 65_536
    max_cycles: int = 200_000_000
    #: whether the engine fuses superinstructions; on or off produces
    #: bit-identical guest behavior (traces, clocks, heap digests) — only
    #: host-side speed differs
    engine: EngineConfig = field(default_factory=EngineConfig)


class Environment:
    """Host environment behind the non-deterministic natives.

    ``seed=None`` draws from host entropy (true non-determinism);
    a fixed seed gives reproducible pseudo-non-determinism for tests.
    """

    def __init__(
        self,
        seed: int | None = 0,
        inputs: Iterable[int] | None = None,
        lines: Iterable[str] | None = None,
    ):
        self._rng = random.Random(seed)
        self.inputs: deque[int] = deque(inputs or [])
        self.lines: deque[str] = deque(lines or [])

    def random_int(self, bound: int) -> int:
        return self._rng.randrange(bound)

    def read_int(self) -> int:
        return self.inputs.popleft() if self.inputs else -1

    def read_line(self) -> str:
        return self.lines.popleft() if self.lines else ""


_DEFAULT = object()

#: ``bytes.translate`` table: the top byte of a little-endian int64 to
#: the ninth, sign-extension byte of its 9-byte two's-complement form
_SIGN_BYTE = bytes(0 if b < 0x80 else 0xFF for b in range(256))


def _le9(words: list[int]) -> bytearray:
    """*words* as 9-byte little-endian two's-complement integers, back to
    back — ``b"".join(w.to_bytes(9, "little", signed=True) ...)`` in one
    pass at C speed."""
    try:
        packed = array("q", words)
    except OverflowError:
        bad = next(w for w in words if not -(1 << 63) <= w < 1 << 63)
        raise VMError(f"heap word {bad} does not fit in 64 bits") from None
    if sys.byteorder != "little":  # pragma: no cover - little-endian hosts
        packed.byteswap()
    raw = packed.tobytes()
    out = bytearray(9 * len(words))
    for k in range(8):
        out[k::9] = raw[k::8]
    out[8::9] = raw[7::8].translate(_SIGN_BYTE)
    return out


#: words per chunk of an image's encoded prefix (:meth:`BootImage.digest_into`)
DIGEST_CHUNK_WORDS = 128


class BootImage:
    """The state a fresh load leaves behind, cloned into every later VM.

    Two loads are imaged, both deterministic functions of their key:

    * **boot** (building the core library, linking and compiling it,
      writing the reflection metadata into the heap), keyed
      ``(semispace_words, EngineConfig)``;
    * a **program unit** (:meth:`VirtualMachine.start`: the main class's
      closure, then the controller's pre-loaded support classes), keyed
      ``(semispace_words, EngineConfig, program fingerprint, main class,
      preload)`` and loaded on top of a boot image.

    An image keeps the materialised word prefix, the allocation count,
    the loader tables (:class:`LoaderImage`), and its active extent
    ``[base, bump)`` in the heap digest's encoding, in chunks of
    :data:`DIGEST_CHUNK_WORDS` words.  A VM installed from an
    image is equal to one that loaded for real — same heap digest, class
    table, interned strings, method ids and engine statistics — which the
    boot-image tests check for every engine configuration and registry
    workload.
    """

    def __init__(self, vm: "VirtualMachine"):
        mem = vm.memory
        self.words = list(mem.words)
        self.active = mem.active
        self.bump = mem.bump
        self.limit = mem.limit
        self.alloc_count = vm.om.alloc_count
        self.loader = LoaderImage.capture(vm.loader)
        chunks = (
            self.words[a:min(a + DIGEST_CHUNK_WORDS, self.bump)]
            for a in range(mem.base[mem.active], self.bump, DIGEST_CHUNK_WORDS)
        )
        self._chunks = [(chunk, bytes(_le9(chunk))) for chunk in chunks]

    def install(self, vm: "VirtualMachine") -> None:
        mem = vm.memory
        # in place: handlers bound on this VM index the list they captured
        mem.words[:] = self.words
        mem.active = self.active
        mem.bump = self.bump
        mem.limit = self.limit
        vm.om.alloc_count = self.alloc_count
        self.loader.install(vm.loader)
        vm._image = self

    def digest_into(self, h, mem: Memory) -> None:
        """Feed *h* what :meth:`VirtualMachine.heap_digest` hashes of
        *mem* — the words of ``[base, bump)`` as :func:`_le9` bytes —
        reusing the bytes of every image chunk whose words *mem* still
        holds, and encoding only the rest.  *mem*'s active semispace
        must be this image's."""
        words, bump = mem.words, mem.bump
        a = mem.base[mem.active]
        for chunk, data in self._chunks:
            b = a + len(chunk)
            if b > bump:
                break
            seg = words[a:b]
            h.update(data if seg == chunk else _le9(seg))
            a = b
        h.update(_le9(words[a:bump]))

    def untouched(self, vm: "VirtualMachine") -> bool:
        """True while *vm* is exactly as this image left it: nothing
        allocated, written, laid out, collected or observed since, so a
        load into it is the load the image's own VM made.  (Interning a
        new string allocates, and linking a class lays it out, so those
        need no checks of their own.)"""
        mem, loader = vm.memory, vm.loader
        return (
            mem.bump == self.bump
            and vm.collector.collections == 0
            and not vm.observer.events
            and len(loader.class_table) == len(self.loader.template.class_table)
            and not loader.temp_roots
            and mem.words == self.words
        )


#: how many images (boot and program images together) a process keeps;
#: the busiest benchmark process uses 12, and one image retains
#: 0.1-0.2 MB (DESIGN.md, "VM construction")
IMAGE_CAPACITY = 16

#: this process's images, least recently used first: each built by the
#: first VM that loaded its key (fork children inherit the parent's)
_IMAGES: dict[tuple, BootImage] = {}
_IMAGES_LOCK = threading.Lock()


def _cached_image(key: tuple) -> BootImage | None:
    with _IMAGES_LOCK:
        image = _IMAGES.pop(key, None)
        if image is not None:
            _IMAGES[key] = image
        return image


def _keep_image(key: tuple, vm: "VirtualMachine") -> None:
    """Capture *vm* as the image for *key*, unless loading it collected or
    emitted observer events (a VM installed from the image would have
    neither), then evict beyond :data:`IMAGE_CAPACITY`."""
    if vm.collector.collections or vm.observer.events:
        return
    image = BootImage(vm)
    vm._image = image
    with _IMAGES_LOCK:
        _IMAGES.setdefault(key, image)
        while len(_IMAGES) > IMAGE_CAPACITY:
            del _IMAGES[next(iter(_IMAGES))]


def _install_boot_image(vm: "VirtualMachine") -> None:
    """Install *vm*'s boot image, booting for real (and keeping the
    result as the image) when this process has none."""
    key = (vm.config.semispace_words, vm.config.engine)
    image = _cached_image(key)
    if image is not None:
        image.install(vm)
        return
    vm.loader.bootstrap()
    _keep_image(key, vm)


class _BootOnTouch:
    """``memory``, ``loader`` and ``om`` of a VM whose boot is deferred:
    the first read boots the VM, which sets the real attribute.  As a
    non-data descriptor it is shadowed by that instance attribute from
    then on, so it costs a booted VM only the unspecialised loads of
    these three names (a class ``__getattr__`` would cost every
    attribute load its specialisation)."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, vm: "VirtualMachine | None", owner=None):
        if vm is None:
            return self
        vm._boot()
        return getattr(vm, self.name)


class VirtualMachine:
    memory = _BootOnTouch()
    loader = _BootOnTouch()
    om = _BootOnTouch()

    def __init__(
        self,
        config: VMConfig | None = None,
        *,
        timer: TimerSource | None | object = _DEFAULT,
        clock: WallClock | None = None,
        env: Environment | None = None,
        classdefs: Iterable[ClassDef] = (),
        fingerprint: str | None = None,
    ):
        """A VM with *classdefs* declared.  *fingerprint*, the content
        digest of exactly these classes (:attr:`GuestProgram.fingerprint
        <repro.api.GuestProgram.fingerprint>`), lets :meth:`start`
        install or capture a program image, and defers the boot to first
        need: a VM whose program image is cached is installed once, from
        that image alone."""
        self.config = config or VMConfig()
        self.timer: TimerSource | None
        if timer is _DEFAULT:
            self.timer = FixedTimer(1000)
        else:
            self.timer = timer  # type: ignore[assignment]
        self.clock: WallClock = clock or FixedClock()
        self.env = env or Environment(seed=0)
        self.observer = ExecutionObserver()

        memory = Memory(self.config.semispace_words)
        engine_config = self.config.engine
        loader = Loader(
            compile_fn=lambda loader, rc, rm: compile_method(
                loader, rc, rm, engine_config
            )
        )
        om = ObjectModel(memory, loader)
        loader.om = om
        self.monitors = MonitorTable(om)
        self.scheduler = Scheduler(self)
        self.engine = Engine(self)
        self.collector = Collector(self)
        om.gc_hook = self.collector.collect
        self.natives = NativeRegistry()
        install_core_natives(self)

        self.output: list[str] = []
        self.trap_reports: list[tuple[int, str, str]] = []
        self.deadlocked: tuple[int, ...] = ()
        self.dejavu: "DejaVu | None" = None
        #: extra GC root visitors (e.g. a ToolInterpreter's frames)
        self.extra_root_visitors: list[Callable[[Callable[[int], int]], None]] = []
        self._ran = False
        #: the image this VM was installed from or captured into (None
        #: when it booted without keeping one)
        self._image: BootImage | None = None
        #: (program fingerprint, classes declared once booted) when the
        #: program may come from a program image
        self._unit: tuple[str, int | None] | None = (
            None if fingerprint is None else (fingerprint, None)
        )
        #: memory, loader and object model, plus the program classes,
        #: until the boot (at first need: see :class:`_BootOnTouch`)
        self._unbooted = (memory, loader, om, list(classdefs))
        if fingerprint is None:
            self._boot()

    def _unpack(self) -> list[ClassDef]:
        """Give the VM its held-back memory, loader and object model;
        returns the program classes still to declare."""
        self.memory, self.loader, self.om, classdefs = self._unbooted
        self._unbooted = None
        return classdefs

    def _boot(self) -> None:
        """Install the boot image (or boot for real) and declare the
        program classes."""
        classdefs = self._unpack()
        _install_boot_image(self)
        self.loader.declare_all(classdefs)
        if self._unit is not None:
            # on a VM booted without keeping an image nothing can tell
            # whether it is still as booted: no program image for it
            self._unit = (
                (self._unit[0], len(self.loader.classdefs))
                if self._image is not None else None
            )

    # ------------------------------------------------------------------
    # program setup

    def declare(self, classdefs: Iterable[ClassDef]) -> None:
        """Declare (more) program classes.  A VM that declares classes
        after construction loads its program for real."""
        self.loader.declare_all(list(classdefs))

    def load(self, name: str) -> None:
        self.loader.load(name)

    def register_native(self, qualname: str, fn: Callable, *, nondet: bool = False) -> None:
        self.natives.register(qualname, fn, nondet=nondet)

    # ------------------------------------------------------------------
    # execution

    def start(self, main: str = "Main.main()V") -> None:
        """Prepare execution: load the main class, spawn the main thread.

        Debugger sessions call :meth:`start`, drive ``engine.run()`` in
        pieces, then :meth:`finish`; plain runs use :meth:`run`.
        """
        if self._ran:
            raise VMError("a VirtualMachine instance runs at most once")
        self._ran = True
        from repro.vm.refmaps import split_method_ref

        cls, _ = split_method_ref(main)
        self._load_unit(cls)
        entry = self.loader.resolve_static_method(main)
        if entry.mdef.signature.spell() != "()V":
            raise VMError(f"main must be ()V, got {entry.qualname}")
        if self.dejavu is not None:
            self.dejavu.on_run_start()
        guest = self.om.new_object(self.loader.classes["Thread"].layout)
        self.scheduler.spawn(guest, entry, name="main")

    def _load_unit(self, cls: str) -> None:
        """Load *cls*'s closure, then declare the controller's support
        classes and load them too when it pre-loads them — installed from
        this process's program image when there is one for the unit and
        this VM is untouched since boot, or has not booted at all (and
        kept as that image when there is none)."""
        support: tuple = ()
        preload: bool | None = None
        if self.dejavu is not None:
            support, preload = self.dejavu.sym.support_classes()
        key = None
        if (
            self._unit is not None
            and (
                self._unbooted is not None
                or len(self.loader.classdefs) == self._unit[1]
                and self._image.untouched(self)
            )
        ):
            config = self.config
            key = (config.semispace_words, config.engine, self._unit[0], cls, preload)
        image = None if key is None else _cached_image(key)
        if image is not None:
            if self._unbooted is not None:
                self._unpack()
            image.install(self)
            return
        loader = self.loader  # boots a VM whose boot is still deferred
        for cdef in support:
            if cdef.name not in loader.classdefs:
                loader.declare(cdef)
        self.load(cls)
        if preload:
            for cdef in support:
                self.load(cdef.name)
        if key is not None:
            _keep_image(key, self)

    def finish(self) -> RunResult:
        """End-of-run bookkeeping (DejaVu END record / verification)."""
        digest = None
        if self.dejavu is not None:
            digest = self.dejavu.on_run_end()
        return self.result(digest)

    @property
    def completed(self) -> bool:
        """True once every guest thread has terminated (or deadlocked)."""
        threads = self.scheduler.threads
        if not threads:
            return False
        return bool(self.deadlocked) or all(not t.alive for t in threads)

    def run(self, main: str = "Main.main()V") -> RunResult:
        """Load the main class, spawn the main thread, run to completion."""
        self.start(main)
        self.engine.run()
        return self.finish()

    def result(self, heap_digest: "str | None" = None) -> RunResult:
        """The run's outcome; *heap_digest* is the current heap's digest
        when the caller already took it."""
        return RunResult(
            output=list(self.output),
            cycles=self.engine.cycles,
            switches=self.scheduler.switch_count,
            gc_count=self.collector.collections,
            traps=list(self.trap_reports),
            yieldpoints={t.tid: t.yieldpoints for t in self.scheduler.threads},
            heap_digest=heap_digest or self.heap_digest(),
            events=list(self.observer.events),
            deadlocked=self.deadlocked,
        )

    def engine_stats(self) -> dict:
        """Host-side dispatch statistics (never part of RunResult: they
        describe how fast the host executed, not what the guest did)."""
        stats = self.engine.stats()
        stats["fused_sites"] = sum(
            rm.code.fused_groups
            for rm in self.loader.method_by_id
            if rm.code is not None
        )
        # read by perfbench/layers.py for vm.ic_hit_ratio until that metric goes
        stats["ic_hits"] = stats["ic_misses"] = 0
        return stats

    # ------------------------------------------------------------------
    # non-determinism funnels

    def read_clock(self) -> int:
        """Every wall-clock read in the VM goes through here (the paper's
        'reproducing wall-clock values' funnel)."""
        if self.dejavu is not None:
            return self.dejavu.clock_read()
        value = self.clock.read()
        self.observer.emit("clock", value)
        return value

    def clock_advance_hint(self, millis: int) -> None:
        """The scheduler is idle until *millis*; let the clock skip ahead.
        During replay this is a no-op — replayed clock values already
        embody the skip."""
        if self.dejavu is not None and self.dejavu.replaying:
            return
        self.clock.advance_to(millis)

    def call_native(self, thread, rm: RuntimeMethod, args: list[int]):
        from repro.vm.native import NativeCall

        nd = self.natives.lookup(rm.qualname)
        if self.dejavu is not None and nd.nondet:
            return self.dejavu.native_call(thread, rm, nd, args)
        ctx = NativeCall(self, thread, rm, args)
        try:
            return nd.fn(ctx)
        finally:
            ctx.release()

    # ------------------------------------------------------------------
    # services

    def write_output(self, text: str) -> None:
        self.output.append(text)
        self.observer.emit("output", text)

    def collect(self) -> None:
        self.collector.collect()

    def is_instance(self, addr: int, rc) -> bool:
        layout = self.om.layout_of(addr)
        if layout.is_array:
            return rc.name == "Object"
        walk = self.loader.rc_by_id.get(layout.class_id)
        while walk is not None:
            if walk is rc:
                return True
            walk = walk.super_rc
        return False

    def visit_all_roots(self, fwd: Callable[[int], int]) -> None:
        """Enumerate every root, in a fixed (deterministic) order."""
        mem = self.memory
        for slot in (BOOT_DICTIONARY, BOOT_THREADS, BOOT_DEJAVU):
            v = mem.boot_read(slot)
            if v:
                mem.boot_write(slot, fwd(v))
        self.loader.visit_roots(fwd)
        self.scheduler.visit_roots(fwd)
        self.monitors.visit_roots(fwd)
        if self.dejavu is not None:
            self.dejavu.visit_roots(fwd)
        for visitor in self.extra_root_visitors:
            visitor(fwd)

    def heap_digest(self) -> str:
        """Digest of the active semispace — a strong equality witness for
        'identical program state' between record and replay."""
        mem = self.memory
        h = hashlib.blake2b(digest_size=16)
        h.update(mem.bump.to_bytes(8, "little", signed=False))
        image = self._image
        if image is not None and mem.active == image.active:
            image.digest_into(h, mem)
        else:
            h.update(_le9(mem.words[mem.base[mem.active] : mem.bump]))
        return h.hexdigest()

    @property
    def output_text(self) -> str:
        return "".join(self.output)

