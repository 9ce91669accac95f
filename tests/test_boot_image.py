"""Boot and program images: a VM installed from one must equal a fresh
boot and load.

Each process boots once per ``(semispace_words, EngineConfig)``, loads
each program unit once per ``(semispace_words, EngineConfig, program
fingerprint, main class, preload)``, and clones the result into every
later VM of that key.  The symmetry rule is the gate: a clone's state,
and everything it then records or replays, is byte-identical to a fresh
boot and load.  The tests get fresh loads by emptying the private image
cache (restored afterwards).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
import threading
import types

import pytest

from repro.api import GuestProgram, build_vm, record, replay, trace_to_bytes
from repro.core import MODE_RECORD, MODE_REPLAY, DejaVu
from repro.core.symmetry import SymmetryConfig
from repro.vm import FixedTimer, SeededJitterTimer
from repro.vm import machine
from repro.vm.compiler import MachineCode
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import VMError
from repro.vm.interp import Engine
from repro.vm.layout import FORWARD_BIT
from repro.vm.loader import Loader, RuntimeClass, RuntimeMethod
from repro.vm.machine import VirtualMachine, VMConfig
from repro.workloads import REGISTRY
from tests.conftest import jitter_knobs

COMBOS = EngineConfig.all_combinations()
HEAP = 30_000


@pytest.fixture
def no_images(monkeypatch):
    """An empty image cache for the test: its first VM boots fresh."""
    monkeypatch.setattr(machine, "_IMAGES", {})
    return machine


def _cfg(engine: EngineConfig, heap: int = HEAP) -> VMConfig:
    return VMConfig(semispace_words=heap, engine=engine)


def _named(obj):
    """An operand with loader objects replaced by their names, and the
    closures fusion compiles (fresh objects per load) by their code and
    captured values."""
    if isinstance(obj, tuple):
        return tuple(_named(x) for x in obj)
    if isinstance(obj, list):
        return [_named(x) for x in obj]
    if isinstance(obj, types.FunctionType) and obj.__closure__:
        cells = tuple(_named(c.cell_contents) for c in obj.__closure__)
        return ("closure", obj.__code__, cells)
    if isinstance(obj, RuntimeMethod):
        return ("method", obj.qualname, obj.method_id)
    return obj


def _code_shape(code: MachineCode | None):
    if code is None:
        return None
    return (
        [(m, _named(a), _named(b)) for m, a, b in code.ops],
        [(m, _named(a), _named(b)) for m, a, b in code.xops],
        code.xops is code.ops,
        code.bci_of, code.xbci_of, code.xstart, code.pc_of_bci,
        code.nlocals, code.max_stack, code.frame_words, code.fused_groups,
    )


def post_boot_state(vm: VirtualMachine) -> dict:
    loader, mem = vm.loader, vm.memory
    return {
        "heap_digest": vm.heap_digest(),
        "memory": (mem.words, mem.active, mem.bump, mem.limit),
        "alloc_count": vm.om.alloc_count,
        "class_table": [(lay.class_id, lay.name) for lay in loader.class_table],
        "classes": [
            (rc.name, rc.class_id, rc.super_rc and rc.super_rc.name,
             rc.statics_addr, rc.constants_addr, rc.linked,
             list(rc.methods), {k: rm.qualname for k, rm in rc.vtable.items()})
            for rc in loader.classes.values()
        ],
        "rc_by_id": {cid: rc.name for cid, rc in loader.rc_by_id.items()},
        "array_layouts": sorted(loader.array_layouts),
        "interned": list(loader.interned.items()),
        "methods": [(rm.qualname, rm.method_id, rm.entries) for rm in loader.method_by_id],
        "code": [_code_shape(rm.code) for rm in loader.method_by_id],
        "engine_stats": vm.engine_stats(),
    }


def _mutable_ids(loader: Loader, vm: VirtualMachine | None = None) -> set[int]:
    """Identities of every mutable object a loader (and VM memory) holds;
    compiled code is immutable and shared (see TestSharedCode)."""
    objs: list = [
        loader.classdefs, loader.classes, loader.class_table, loader.rc_by_id,
        loader.array_layouts, loader.method_by_id, loader.interned,
        loader.temp_roots,
    ]
    for rc in loader.classes.values():
        objs += [rc, rc.methods, rc.vtable]
    objs += loader.method_by_id
    if vm is not None:
        objs.append(vm.memory.words)
    return {id(o) for o in objs}


class TestCloneEqualsFreshBoot:
    @pytest.mark.parametrize("engine", COMBOS, ids=lambda e: e.describe())
    def test_post_boot_state(self, no_images, engine):
        fresh = VirtualMachine(_cfg(engine))
        assert (HEAP, engine) in no_images._IMAGES
        clone = VirtualMachine(_cfg(engine))
        assert post_boot_state(clone) == post_boot_state(fresh)

    def test_bootstrap_runs_once_per_image(self, no_images, monkeypatch):
        calls = []
        real = Loader.bootstrap

        def counting(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(Loader, "bootstrap", counting)
        for _ in range(3):
            VirtualMachine(_cfg(EngineConfig()))
        VirtualMachine(_cfg(EngineConfig.baseline()))
        assert len(calls) == 2

    def test_two_semispace_sizes_get_two_images(self, no_images):
        small = VirtualMachine(_cfg(EngineConfig(), 9_000))
        large = VirtualMachine(_cfg(EngineConfig(), 12_000))
        images = no_images._IMAGES
        assert set(images) == {(9_000, EngineConfig()), (12_000, EngineConfig())}
        assert images[(9_000, EngineConfig())] is not images[(12_000, EngineConfig())]
        assert small.memory.limit == small.memory.base[0] + 9_000
        assert large.memory.limit == large.memory.base[0] + 12_000
        again = VirtualMachine(_cfg(EngineConfig(), 9_000))
        assert post_boot_state(again) == post_boot_state(small)


class TestClonesShareNothingMutable:
    def test_no_mutable_object_in_common(self, no_images):
        VirtualMachine(_cfg(EngineConfig()))
        a = VirtualMachine(_cfg(EngineConfig()))
        b = VirtualMachine(_cfg(EngineConfig()))
        template = no_images._IMAGES[(HEAP, EngineConfig())].loader.template
        ids_a, ids_b = _mutable_ids(a.loader, a), _mutable_ids(b.loader, b)
        ids_t = _mutable_ids(template)
        assert not ids_a & ids_b
        assert not ids_a & ids_t
        assert not ids_b & ids_t

    def test_mutating_one_clone_leaves_the_other_and_the_template(self, no_images):
        VirtualMachine(_cfg(EngineConfig()))
        a = VirtualMachine(_cfg(EngineConfig()))
        b = VirtualMachine(_cfg(EngineConfig()))
        template = no_images._IMAGES[(HEAP, EngineConfig())].loader.template
        before_b = post_boot_state(b)
        before_t = [
            (rc.statics_addr, rc.constants_addr) for rc in template.classes.values()
        ]

        a.loader.classes["VM_Dictionary"].statics_addr = 12_345
        for rm in a.loader.method_by_id:
            if rm.code is not None:
                a.engine._bind(rm)
        a.memory.write(a.memory.bump - 1, 77)
        a.loader.interned["mutated"] = 1

        assert post_boot_state(b) == before_b
        assert [
            (rc.statics_addr, rc.constants_addr) for rc in template.classes.values()
        ] == before_t
        assert all(rm.entries is None for rm in template.method_by_id)
        assert "mutated" not in template.interned
        c = VirtualMachine(_cfg(EngineConfig()))
        assert post_boot_state(c) == before_b


def _bound_objects(fn, seen=None) -> list:
    """Every loader, class and method a bound handler reaches through
    its closure cells (nested closures, tuples and the handler's own
    engine's loader included)."""
    seen = set() if seen is None else seen
    found: list = []
    if id(fn) in seen:
        return found
    seen.add(id(fn))
    if isinstance(fn, tuple):
        for x in fn:
            found += _bound_objects(x, seen)
    elif isinstance(fn, types.FunctionType):
        for cell in fn.__closure__ or ():
            found += _bound_objects(cell.cell_contents, seen)
    elif isinstance(fn, (Loader, RuntimeClass, RuntimeMethod)):
        found.append(fn)
    elif isinstance(fn, Engine):
        found.append(fn.vm.loader)
    return found


class TestSharedCode:
    """Compiled code names loader objects by index, so every VM of an
    image shares one immutable MachineCode per method, and each VM's
    handler tables are its own."""

    @pytest.mark.parametrize("engine", COMBOS, ids=lambda e: e.describe())
    def test_code_objects_are_shared_and_immutable(self, no_images, engine):
        program = REGISTRY["server"].build()
        fresh = _started(program, engine)
        a = _started(program, engine)
        b = _started(program, engine)
        template = no_images._IMAGES[_key(program, engine, 80_000, True)].loader.template
        loaders = (fresh.loader, a.loader, b.loader, template)
        compiled = 0
        for rms in zip(*(loader.method_by_id for loader in loaders)):
            codes = {id(rm.code) for rm in rms}
            assert len(codes) == 1, rms[0].qualname
            code = rms[0].code
            if code is None:
                continue
            compiled += 1
            assert isinstance(code.ops, tuple) and isinstance(code.xops, tuple)
            assert all(isinstance(op, tuple) for op in code.xops)
            with pytest.raises(dataclasses.FrozenInstanceError):
                code.ops = ()  # type: ignore[misc]
            for _, x, y in code.ops:
                for operand in (x, y):
                    assert not isinstance(
                        operand, (Loader, RuntimeClass, RuntimeMethod)
                    ), (code.qualname, operand)
        assert compiled > 20

    def test_handler_tables_are_per_vm(self, no_images):
        program = REGISTRY["server"].build()
        engine = EngineConfig()
        _started(program, engine)
        a = _started(program, engine)
        b = _started(program, engine)
        _finished(a)
        ran = [rm for rm in a.loader.method_by_id if rm.entries is not None]
        assert ran
        assert all(rm.entries is None for rm in b.loader.method_by_id)
        for rm in ran:
            b.engine._bind(b.loader.method_by_id[rm.method_id])
        assert not {id(rm.entries) for rm in ran} & {
            id(rm.entries) for rm in b.loader.method_by_id if rm.entries is not None
        }
        a.engine.debug = _Checker()  # attaching a hook drops a's tables only
        assert all(rm.entries is None for rm in a.loader.method_by_id)
        assert all(b.loader.method_by_id[rm.method_id].entries is not None for rm in ran)

    @pytest.mark.parametrize("engine", COMBOS, ids=lambda e: e.describe())
    def test_bound_handlers_resolve_to_their_own_loader(self, no_images, engine):
        program = REGISTRY["server"].build()
        _started(program, engine)
        vms = [_started(program, engine) for _ in range(2)]
        vms[1].engine.mem_hook = lambda *args: None
        vms[1].engine.debug = _Checker()
        for vm in vms:
            loader = vm.loader
            own = {id(o) for o in [loader, *loader.classes.values(), *loader.method_by_id]}
            reached = 0
            for rm in loader.method_by_id:
                if rm.code is None:
                    continue
                for fn in vm.engine._bind(rm):
                    for obj in _bound_objects(fn):
                        assert id(obj) in own, (rm.qualname, obj)
                        reached += 1
            assert reached > 100


class _Checker:
    """A debug controller that never pauses."""

    paused = False

    def check(self, thread, frame, pc) -> bool:
        return False


class TestConcurrentConstruction:
    def test_threads_racing_for_one_image_get_equal_vms(self, no_images):
        """More threads than cores build VMs of one shape at once, with
        a tiny switch interval so image building and installing interleave;
        every VM must still equal the others and one image must remain."""
        engine = EngineConfig()
        states: list = []
        errors: list = []

        def build():
            try:
                for _ in range(3):
                    vm = VirtualMachine(_cfg(engine))
                    states.append(post_boot_state(vm))
            except Exception as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(states) == 24
        assert all(state == states[0] for state in states)
        assert list(no_images._IMAGES) == [(HEAP, engine)]
        assert post_boot_state(VirtualMachine(_cfg(engine))) == states[0]


# ---------------------------------------------------------------------------
# program images: the main class's closure (plus DejaVu's pre-loaded
# support classes) loaded once per process and key, installed after that


def _key(program, engine, heap, preload):
    return (heap, engine, program.fingerprint, "Main", preload)


def _built(program, cfg, timer):
    """A VM with *program* declared without its fingerprint: it installs
    the boot image but always loads the program for real."""
    vm = VirtualMachine(cfg, timer=timer)
    vm.declare(program.classdefs)
    for qualname, make, nondet in program.natives:
        vm.register_native(qualname, make(), nondet=nondet)
    return vm


def _started(program, engine, trace=None, heap=80_000, *, program_image=True):
    """A VM past :meth:`start`: recording (seeded jitter) or replaying.
    With ``program_image=False`` it loads the program for real."""
    build = build_vm if program_image else _built
    cfg = _cfg(engine, heap)
    if trace is None:
        vm = build(program, cfg, timer=SeededJitterTimer(3, 20, 160))
        DejaVu(vm, MODE_RECORD)
    else:
        vm = build(program, cfg, timer=FixedTimer(1000))
        DejaVu(vm, MODE_REPLAY, trace=trace)
    vm.start(program.main)
    return vm


def _finished(vm):
    vm.engine.run()
    r = vm.finish()
    trace = vm.dejavu.trace() if vm.dejavu.recording else None
    blob = trace_to_bytes(trace) if trace is not None else None
    return trace, (blob, r.heap_digest, r.cycles, r.output_text, r.gc_count, r.events)


@pytest.fixture
def loads(no_images, monkeypatch):
    """Log every image install and capture as ``(kind, key)``; boot
    images are left out."""
    log: list = []
    # id -> (image, key): holding the image keeps a freed image's id from
    # being reused by a later boot image and logged under a stale key
    keys: dict[int, tuple] = {}
    real_install, real_keep = machine.BootImage.install, machine._keep_image

    def install(self, vm):
        image, key = keys.get(id(self), (None, None))
        if image is self:
            log.append(("install", key))
        real_install(self, vm)

    def keep(key, vm):
        real_keep(key, vm)
        if len(key) > 2 and machine._IMAGES.get(key) is vm._image:
            keys[id(vm._image)] = (vm._image, key)
            log.append(("capture", key))

    monkeypatch.setattr(machine.BootImage, "install", install)
    monkeypatch.setattr(machine, "_keep_image", keep)
    return log


class TestRecordingsOnClones:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_clone_records_what_a_fresh_boot_records(self, loads, name):
        """The first VM boots and loads the program for real (capturing
        both images); the second is installed from both; the third is
        installed from the boot image and loads the program for real, the
        path of every VM that may not use a program image.  All three
        have equal post-load state and byte-identical runs, in record and
        in replay."""
        program = REGISTRY[name].build()
        for engine in COMBOS:
            trace = None
            for mode in ("record", "replay"):
                where = (name, engine.describe(), mode)
                loads.clear()
                machine._IMAGES.clear()
                fresh = _started(program, engine, trace)
                clone = _started(program, engine, trace)
                booted = _started(program, engine, trace, program_image=False)
                key = _key(program, engine, 80_000, True)
                assert loads == [("capture", key), ("install", key)], where
                assert booted._image is machine._IMAGES[(80_000, engine)], where
                state = post_boot_state(fresh)
                assert post_boot_state(clone) == state, where
                assert post_boot_state(booted) == state, where
                fresh_trace, fresh_run = _finished(fresh)
                assert _finished(clone)[1] == fresh_run, where
                assert _finished(booted)[1] == fresh_run, where
                trace = fresh_trace


def _reference_digest_stream(words: list[int]) -> bytes:
    return b"".join(w.to_bytes(9, "little", signed=True) for w in words)


class TestHeapDigest:
    def test_bulk_encoding_matches_per_word_bytes(self):
        rng = random.Random(7)
        words = [0, 1, -1, 2**31 - 1, -(2**31), FORWARD_BIT, FORWARD_BIT | 12345,
                 2**63 - 1, -(2**63)]
        words += [rng.randrange(-(2**31), 2**31) for _ in range(500)]
        words += [rng.randrange(16, 800_016) for _ in range(200)]
        assert bytes(machine._le9(words)) == _reference_digest_stream(words)
        assert bytes(machine._le9([])) == b""

    def test_word_outside_int64_is_a_typed_error(self):
        with pytest.raises(VMError, match="64 bits"):
            machine._le9([1, 2**63, 3])
        with pytest.raises(VMError, match="64 bits"):
            machine._le9([-(2**63) - 1])

    def test_vm_digest_is_unchanged(self):
        vm = VirtualMachine(_cfg(EngineConfig()))
        mem = vm.memory
        h = hashlib.blake2b(digest_size=16)
        h.update(mem.bump.to_bytes(8, "little", signed=False))
        h.update(_reference_digest_stream(mem.words[mem.base[mem.active]:mem.bump]))
        assert vm.heap_digest() == h.hexdigest()


class TestProgramImages:
    @pytest.mark.parametrize("engine", COMBOS, ids=lambda e: e.describe())
    def test_clones_share_no_mutable_object(self, no_images, engine):
        program = REGISTRY["server"].build()
        _started(program, engine)
        a = _started(program, engine)
        b = _started(program, engine)
        template = no_images._IMAGES[_key(program, engine, 80_000, True)].loader.template
        ids_a, ids_b = _mutable_ids(a.loader, a), _mutable_ids(b.loader, b)
        ids_t = _mutable_ids(template)
        assert not ids_a & ids_b
        assert not (ids_a | ids_b) & ids_t

    def test_same_program_object_records_identically(self):
        """Programs are immutable: one GuestProgram recorded twice with one
        seed gives byte-identical traces, for every registry workload."""
        for name in sorted(REGISTRY):
            program = REGISTRY[name].build()
            blobs = [
                trace_to_bytes(record(program, **jitter_knobs(5)).trace)
                for _ in range(2)
            ]
            assert blobs[0] == blobs[1], name

    def test_plain_run_and_recording_keep_separate_images(self, loads):
        program = REGISTRY["racy_bank"].build()
        cfg = _cfg(EngineConfig(), 80_000)
        for _ in range(2):
            build_vm(program, cfg).run(program.main)
            record(program, config=cfg)
            record(program, config=cfg, symmetry=SymmetryConfig(preload_classes=False))
        plain, preload, lazy = (
            _key(program, EngineConfig(), 80_000, p) for p in (None, True, False)
        )
        assert [k for kind, k in loads if kind == "capture"] == [plain, preload, lazy]
        assert [k for kind, k in loads if kind == "install"] == [plain, preload, lazy]


class TestOneInstallPerVM:
    """A VM built for a program whose image is cached is installed once,
    from that image; the boot image is installed only where no program
    image applies, at the VM's first need."""

    @pytest.fixture
    def installs(self, monkeypatch):
        """Every image install, boot images included."""
        log: list = []
        real = machine.BootImage.install

        def install(self, vm):
            log.append(self)
            real(self, vm)

        monkeypatch.setattr(machine.BootImage, "install", install)
        return log

    def test_explore_schedules_install_once_each(self, installs):
        import itertools

        from repro.explore.explorer import Explorer
        from repro.workloads.registry import get_workload

        spec = get_workload("bank")
        kwargs = spec.merged_kwargs(explore=True)
        explorer = Explorer(
            spec.program_factory(kwargs), oracle=spec.oracle(kwargs), bound=2,
            budget=61, seed=1, env_seed=2, minimize=False,
        )
        _, horizon = explorer.baseline()  # a warm process: both images kept
        items = list(itertools.islice(explorer.candidates(horizon), 60))
        installs.clear()
        for positions in items:
            explorer.evaluate(positions)
        assert len(items) == 60 and len(installs) == 60

    def test_first_touch_boots_a_deferred_vm(self, installs):
        program = REGISTRY["racy_bank"].build()
        cfg = _cfg(EngineConfig(), 80_000)
        record(program, config=cfg)
        installs.clear()
        vm = build_vm(program, cfg)
        assert installs == [] and vm._unbooted is not None
        state = post_boot_state(vm)  # reads the memory: boots
        assert installs == [machine._IMAGES[(80_000, EngineConfig())]]
        assert state == post_boot_state(_built(program, cfg, FixedTimer(1000)))

    def test_hook_that_leaves_the_vm_alone_keeps_one_install(self, installs):
        program = REGISTRY["racy_bank"].build()
        cfg = _cfg(EngineConfig(), 80_000)
        reference = record(program, config=cfg)
        installs.clear()
        hooked = record(program, config=cfg, vm_hook=lambda vm: vm.natives)
        assert len(installs) == 1
        assert trace_to_bytes(hooked.trace) == trace_to_bytes(reference.trace)
        installs.clear()
        record(program, config=cfg, vm_hook=_writing_hook)
        assert len(installs) == 1  # the boot image; the program loads for real


def _allocating_hook(vm):
    vm.om.new_array("[I", 4)


def _loading_hook(vm):
    vm.load("Teller")


def _writing_hook(vm):
    vm.memory.write(vm.memory.bump - 1, vm.memory.read(vm.memory.bump - 1) + 1)


class TestOnlyUntouchedVMsUseImages:
    """A VM that is not exactly as its boot image left it neither
    installs nor captures a program image."""

    @pytest.mark.parametrize("hook", [_allocating_hook, _loading_hook, _writing_hook])
    def test_vm_hook_that_touches_the_vm(self, loads, hook):
        program = REGISTRY["racy_bank"].build()
        cfg = _cfg(EngineConfig(), 80_000)
        reference = record(program, config=cfg, vm_hook=hook)
        record(program, config=cfg)  # captures the untouched image
        loads.clear()
        again = record(program, config=cfg, vm_hook=hook)
        assert loads == []
        assert trace_to_bytes(again.trace) == trace_to_bytes(reference.trace)
        assert again.result.heap_digest == reference.result.heap_digest

    def test_debugger_session(self, loads):
        from repro.debugger import ReplaySession

        program = REGISTRY["racy_bank"].build()
        cfg = _cfg(EngineConfig(fusion=False), 80_000)
        trace = record(program, config=cfg).trace
        replay(program, trace, config=cfg)  # the replay unit's image
        loads.clear()
        session = ReplaySession(program, trace, config=cfg)
        # a debug controller does not keep a VM from its program image
        assert loads == [("install", _key(program, cfg.engine, 80_000, True))]
        assert session.run_to_completion().heap_digest == replay(program, trace, config=cfg).heap_digest

    def test_recap_transformed_program(self, loads):
        from repro.baselines.recap import recap_transform

        program = REGISTRY["racy_bank"].build()
        cfg = _cfg(EngineConfig(), 80_000)
        record(program, config=cfg)
        loads.clear()
        recap = recap_transform(program)
        assert recap.fingerprint != program.fingerprint
        record(recap, config=cfg)
        assert loads == [("capture", _key(recap, EngineConfig(), 80_000, True))]

    def test_program_differing_by_one_string_constant(self, loads):
        base = "Main.main()V"
        source = """.class Main
.method static main ()V
    ldc "%s"
    invokestatic System.print(LString;)V
    return
.end
"""
        one = GuestProgram.from_source(source % "hello")
        other = GuestProgram.from_source(source % "hellp")
        assert one.fingerprint != other.fingerprint
        cfg = _cfg(EngineConfig(), 80_000)
        assert build_vm(one, cfg).run(base).output_text == "hello"
        loads.clear()
        assert build_vm(other, cfg).run(base).output_text == "hellp"
        assert loads == [("capture", _key(other, EngineConfig(), 80_000, None))]


class TestImageCache:
    def test_capacity_bounds_boot_images_and_reruns_match(self, no_images):
        program = REGISTRY["racy_bank"].build()
        heaps = [20_000 + 1_000 * i for i in range(machine.IMAGE_CAPACITY + 1)]

        def run(heap):
            rec = record(program, config=_cfg(EngineConfig(), heap))
            return trace_to_bytes(rec.trace), rec.result.heap_digest

        first = run(heaps[0])
        for heap in heaps[1:]:
            VirtualMachine(_cfg(EngineConfig(), heap))
        assert len(no_images._IMAGES) == machine.IMAGE_CAPACITY
        assert (heaps[0], EngineConfig()) not in no_images._IMAGES
        assert run(heaps[0]) == first  # boots and loads for real again

    def test_least_recently_used_goes_first(self, no_images):
        a, b = (_cfg(EngineConfig(), h) for h in (20_000, 21_000))
        VirtualMachine(a)
        VirtualMachine(b)
        VirtualMachine(a)  # a hit refreshes a
        assert list(no_images._IMAGES) == [(21_000, EngineConfig()), (20_000, EngineConfig())]

    def test_threads_building_one_unit_get_equal_runs(self, no_images):
        """More threads than cores record one program at once, with a 1 µs
        switch interval so capture, install and eviction interleave."""
        program = REGISTRY["server"].build(REGISTRY["server"].explore_kwargs)
        cfg = _cfg(EngineConfig(), 30_000)
        runs: list = []
        errors: list = []

        def build():
            try:
                for _ in range(3):
                    rec = record(program, config=cfg, **jitter_knobs(4))
                    runs.append((trace_to_bytes(rec.trace), rec.result.heap_digest))
            except Exception as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(runs) == 24 and all(run == runs[0] for run in runs)
        assert list(no_images._IMAGES) == [
            (30_000, EngineConfig()),
            _key(program, EngineConfig(), 30_000, True),
        ]


class TestFreshMemoryIsZero:
    """``Memory.alloc`` hands out zeroed words (allocation writes only the
    header), so every word from ``bump`` to ``limit`` must read 0."""

    @staticmethod
    def _assert_zero_above_bump(vm):
        mem = vm.memory
        free = mem.read_range(mem.bump, mem.limit - mem.bump)
        assert free.count(0) == len(free)

    def test_after_boot_install_and_program_image(self, no_images):
        program = REGISTRY["gc_churn"].build()
        for _ in range(2):  # fresh, then installed
            vm = VirtualMachine(_cfg(EngineConfig()))
            self._assert_zero_above_bump(vm)
            vm = _started(program, EngineConfig())
            self._assert_zero_above_bump(vm)

    def test_after_gc_flips(self):
        program = REGISTRY["gc_churn"].build(dict(iters=200, depth=40, hash_every=3))
        vm = build_vm(program, _cfg(EngineConfig(), 6_000))
        flips = []
        real = vm.collector.collect

        def collect():
            real()
            self._assert_zero_above_bump(vm)
            flips.append(vm.memory.active)

        vm.om.gc_hook = collect
        vm.run(program.main)
        assert 0 in flips and 1 in flips

    def test_after_checkpoint_restore(self, tmp_path):
        from repro.core.checkpoint import CheckpointStore, restore_vm

        program = REGISTRY["gc_churn"].build(dict(iters=200, depth=40, hash_every=3))
        cfg = _cfg(EngineConfig(), 6_000)
        rec = record(program, config=cfg)
        sidecar = tmp_path / "t.ckpt"
        replay(program, rec.trace, config=cfg, checkpoint_every=2_000,
               checkpoint_out=sidecar)
        snaps = CheckpointStore.load(sidecar).newest_first()
        assert {s.header["active"] for s in snaps} == {0, 1}
        for snap in snaps:
            self._assert_zero_above_bump(restore_vm(snap, program, rec.trace, config=cfg))


class TestForkInheritance:
    def test_jobs2_campaign_from_an_empty_cache_equals_jobs1(self, no_images, tmp_path):
        from repro.campaign import run_explore_campaign

        def campaign(jobs):
            no_images._IMAGES.clear()
            corpus = tmp_path / f"corpus-{jobs}"
            report = run_explore_campaign(
                "bank", bound=2, budget=30, seed=3, jobs=jobs, corpus_dir=corpus
            )
            blobs = {p.name: p.read_bytes() for p in sorted(corpus.iterdir())}
            return report.digest(), blobs

        forked = campaign(2)
        serial = campaign(1)
        assert forked == serial
        assert len(forked[1]) > 1  # failing schedules were written
