"""The image-seeded heap digest equals the full encode.

``VirtualMachine.heap_digest`` reuses the encoded bytes of every chunk of
its image's prefix whose words the heap still holds, and encodes only the
rest.  Every digest it returns must equal the reference: blake2b over the
bump pointer and the whole active extent ``[base, bump)`` through
:func:`repro.vm.machine._le9` (itself checked word by word against
``int.to_bytes`` in ``test_boot_image.py``).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api import GuestProgram, build_vm
from repro.core import MODE_RECORD, MODE_REPLAY, DejaVu
from repro.vm import FixedTimer, SeededJitterTimer
from repro.vm import machine
from repro.vm.engineconfig import EngineConfig
from repro.vm.machine import DIGEST_CHUNK_WORDS, VMConfig
from repro.workloads import REGISTRY

COMBOS = EngineConfig.all_combinations()
HEAP = 80_000


def reference_digest(vm) -> str:
    mem = vm.memory
    h = hashlib.blake2b(digest_size=16)
    h.update(mem.bump.to_bytes(8, "little", signed=False))
    h.update(machine._le9(mem.words[mem.base[mem.active]:mem.bump]))
    return h.hexdigest()


def _seeded(vm) -> bool:
    """True when *vm*'s digest takes the image-seeded path."""
    return vm._image is not None and vm.memory.active == vm._image.active


def _checked_run(vm) -> tuple[str, int]:
    """Run *vm* to the end, checking the digest at every safe point and
    at the end; returns the final digest and the safe points checked."""
    points = []

    def check(engine):
        assert vm.heap_digest() == reference_digest(vm)
        points.append(engine.cycles)

    vm.engine.safepoint_hook = check
    vm.engine.run()
    result = vm.finish()
    assert result.heap_digest == reference_digest(vm)
    assert vm.heap_digest() == result.heap_digest
    return result.heap_digest, len(points)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_workload_and_engine_in_record_and_replay(name):
    program = REGISTRY[name].build()
    cfg_of = {engine: VMConfig(semispace_words=HEAP, engine=engine) for engine in COMBOS}
    digests = set()
    for engine in COMBOS:
        vm = build_vm(program, cfg_of[engine], timer=SeededJitterTimer(3, 20, 160))
        dejavu = DejaVu(vm, MODE_RECORD)
        vm.start(program.main)
        assert _seeded(vm), (name, engine.describe())
        recorded, points = _checked_run(vm)
        assert points > 0
        vm = build_vm(program, cfg_of[engine], timer=FixedTimer(1000))
        DejaVu(vm, MODE_REPLAY, trace=dejavu.trace())
        vm.start(program.main)
        replayed, _ = _checked_run(vm)
        assert replayed == recorded, (name, engine.describe())
        digests.add(recorded)
    assert len(digests) == 1, name  # engine toggles are guest-invisible


def test_gc_churn_at_a_heap_size_that_collects():
    """Each collection flips the active semispace: the digest falls back
    to the full encode on the other semispace, and is seeded again (over
    a prefix the collector rewrote) once the heap flips back."""
    program = REGISTRY["gc_churn"].build(dict(iters=200, depth=40, hash_every=3))
    vm = build_vm(program, VMConfig(semispace_words=6_000))
    seen = []
    real = vm.collector.collect

    def collect():
        real()
        assert vm.heap_digest() == reference_digest(vm)
        seen.append((vm.memory.active, _seeded(vm)))

    vm.om.gc_hook = collect
    result = vm.run(program.main)
    assert result.heap_digest == reference_digest(vm)
    assert (0, True) in seen and (1, False) in seen


_STATICS = """.class Main
.field static a I
.field static b I
.method static main ()V
    iconst 7
    putstatic Main.a I
    iconst -3
    putstatic Main.b I
    return
.end
"""


def test_guest_writing_statics_inside_the_image_prefix():
    program = GuestProgram.from_source(_STATICS)
    cfg = VMConfig(semispace_words=HEAP)
    build_vm(program, cfg).run(program.main)  # captures the program image
    vm = build_vm(program, cfg)
    vm.start(program.main)
    image = vm._image
    rc = vm.loader.classes["Main"]
    slots = [rc.statics_addr + rc.statics_layout.field_by_name[f].offset for f in "ab"]
    assert all(slot < image.bump for slot in slots)  # inside the image's prefix
    assert [image.words[slot] for slot in slots] == [0, 0]
    vm.engine.run()
    result = vm.finish()
    assert [vm.memory.read(slot) for slot in slots] == [7, -3]
    assert _seeded(vm)
    assert result.heap_digest == reference_digest(vm)


def test_vm_without_an_image():
    program = REGISTRY["racy_bank"].build()
    vm = build_vm(program, VMConfig(semispace_words=HEAP))
    result = vm.run(program.main)
    assert _seeded(vm)
    vm._image = None
    assert vm.heap_digest() == reference_digest(vm) == result.heap_digest


def test_random_edits_and_bumps_around_chunk_edges():
    """Writes at and beside chunk boundaries, and bump pointers below,
    at and above the image's, against the full encode."""
    program = REGISTRY["racy_bank"].build()
    cfg = VMConfig(semispace_words=HEAP)
    build_vm(program, cfg).run(program.main)
    rng = random.Random(5)
    for _ in range(40):
        vm = build_vm(program, cfg)
        vm.start(program.main)
        mem, image = vm.memory, vm._image
        lo = mem.base[mem.active]
        edges = list(range(lo, image.bump, DIGEST_CHUNK_WORDS)) + [image.bump]
        for _ in range(rng.randrange(4)):
            at = rng.choice(edges) + rng.choice((-1, 0, 1))
            if lo <= at < mem.bump:
                mem.write(at, rng.randrange(-(1 << 40), 1 << 40))
        mem.bump = rng.choice(edges) + rng.randrange(-2, 3)
        mem.grow(mem.bump)
        assert vm.heap_digest() == reference_digest(vm)
