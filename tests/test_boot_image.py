"""The boot image: a VM installed from it must equal a fresh boot.

Each process boots once per ``(semispace_words, EngineConfig)`` and
clones the result into every later VM of that shape.  The symmetry rule
is the gate: a clone's post-boot state, and everything it then records,
is byte-identical to a fresh boot's.  The tests get a fresh boot by
emptying the private image cache (restored afterwards).
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading
import types

import pytest

from repro.api import record, trace_to_bytes
from repro.vm import SeededJitterTimer
from repro.vm import machine
from repro.vm.compiler import InvokeSite, MachineCode
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import VMError
from repro.vm.layout import FORWARD_BIT
from repro.vm.loader import Loader, RuntimeClass, RuntimeMethod
from repro.vm.machine import VirtualMachine, VMConfig
from repro.workloads import REGISTRY

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
    closures fusion compiles (fresh objects per boot) by their code and
    captured values."""
    if isinstance(obj, tuple):
        return tuple(_named(x) for x in obj)
    if isinstance(obj, list):
        return [_named(x) for x in obj]
    if isinstance(obj, types.FunctionType) and obj.__closure__:
        cells = tuple(_named(c.cell_contents) for c in obj.__closure__)
        return ("closure", obj.__code__, cells)
    if isinstance(obj, RuntimeClass):
        return ("class", obj.name)
    if isinstance(obj, RuntimeMethod):
        return ("method", obj.qualname, obj.method_id)
    if isinstance(obj, InvokeSite):
        return ("site", obj.key, obj.proto.qualname, obj.cid, obj.target)
    return obj


def _code_shape(code: MachineCode | None):
    if code is None:
        return None
    return (
        [(m, _named(a), _named(b)) for m, a, b in code.ops],
        [(m, _named(a), _named(b)) for m, a, b in code.xops],
        code.xops is code.ops,
        code.bci_of, code.xbci_of, code.xweights, code.pc_of_bci,
        code.nlocals, code.max_stack, code.frame_words, code.fused_groups,
        code.entries,
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
        "methods": [(rm.qualname, rm.method_id) for rm in loader.method_by_id],
        "code": [_code_shape(rm.code) for rm in loader.method_by_id],
        "ic": [_named(site) for site in loader.ic_sites],
        "ic_invalidations": loader.ic_invalidations,
        "engine_stats": vm.engine_stats(),
    }


def _mutable_ids(loader: Loader, vm: VirtualMachine | None = None) -> set[int]:
    """Identities of every mutable object a loader (and VM memory) holds."""
    objs: list = [
        loader.classdefs, loader.classes, loader.class_table, loader.rc_by_id,
        loader.array_layouts, loader.method_by_id, loader.interned,
        loader.temp_roots, loader.ic_sites,
    ]
    for rc in loader.classes.values():
        objs += [rc, rc.methods, rc.vtable]
    for rm in loader.method_by_id:
        objs.append(rm)
        if rm.code is not None:
            objs += [rm.code, rm.code.ops, rm.code.xops]
    objs += loader.ic_sites
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

    @pytest.mark.parametrize("engine", COMBOS, ids=lambda e: e.describe())
    def test_operands_point_into_their_own_loader(self, no_images, engine):
        VirtualMachine(_cfg(engine))
        vm = VirtualMachine(_cfg(engine))
        own = {id(o) for o in [*vm.loader.classes.values(), *vm.loader.method_by_id,
                               *vm.loader.ic_sites]}
        for rm in vm.loader.method_by_id:
            if rm.code is None:
                continue
            for ops in (rm.code.ops, rm.code.xops):
                for _, a, b in ops:
                    for operand in (a, b):
                        if isinstance(operand, (RuntimeClass, RuntimeMethod, InvokeSite)):
                            assert id(operand) in own, (rm.qualname, operand)

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
        site = a.loader.ic_sites[0]
        site.cid, site.target = 3, a.loader.method_by_id[0]
        for rm in a.loader.method_by_id:
            if rm.code is not None:
                a.engine._bind(rm.code)
                rm.code.ops[0] = (0, None, None)
        a.memory.write(a.memory.bump - 1, 77)
        a.loader.interned["mutated"] = 1

        assert post_boot_state(b) == before_b
        assert [
            (rc.statics_addr, rc.constants_addr) for rc in template.classes.values()
        ] == before_t
        assert all(s.cid == -1 and s.target is None for s in template.ic_sites)
        assert all(
            rm.code is None or rm.code.entries is None for rm in template.method_by_id
        )
        assert "mutated" not in template.interned
        c = VirtualMachine(_cfg(EngineConfig()))
        assert post_boot_state(c) == before_b


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


class TestRecordingsOnClones:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_clone_records_what_a_fresh_boot_records(self, no_images, name):
        spec = REGISTRY[name]
        for engine in COMBOS:
            no_images._IMAGES.clear()
            runs = []
            for _ in range(2):  # first boots fresh, second is a clone
                rec = record(
                    spec.build(), config=_cfg(engine, 80_000),
                    timer=SeededJitterTimer(3, 20, 160),
                )
                r = rec.result
                runs.append(
                    (trace_to_bytes(rec.trace), r.heap_digest, r.cycles,
                     r.output_text, r.gc_count, r.events)
                )
            assert runs[0] == runs[1], (name, engine.describe())


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
