"""Object and array layout, and the object model (allocation + access).

Every heap entity starts with a three-word header::

    +0  class id           (index into the loader's class table)
    +1  status             (monitor word: (owner_tid + 1) << 8 | recursion)
    +2  aux                (arrays: length; objects: identity hash, 0 = unset)

Instance fields follow the header, superclass fields first, one word each.
During a collection the class-id word of an evacuated object is replaced by
``FORWARD_BIT | new_address`` — guests can never observe this because GC
only runs at safe points and completes atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.vm.descriptors import is_reference
from repro.vm.errors import HeapExhaustedError, VMTrap
from repro.vm.memory import Memory

HEADER_CLASS = 0
HEADER_STATUS = 1
HEADER_AUX = 2
HEADER_WORDS = 3

FORWARD_BIT = 1 << 62

NULL = 0

#: the NullPointer trap text of each kind of heap access
_NULL_ACCESS = {
    "getfield": "getfield on null",
    "putfield": "putfield on null",
    "array": "array access on null",
    "arraylength": "arraylength of null",
}


def access_trap(access: str, index: int | None = None, length: int = 0) -> VMTrap:
    """The trap of a failed heap *access* (``getfield``, ``putfield``,
    ``array`` or ``arraylength``): NullPointer on a null reference, or,
    given *index*, ArrayBounds for an index outside an array of *length*.
    :class:`ObjectModel` and the engine's in-place handlers both raise
    these, so each trap's text is defined here once."""
    if index is None:
        return VMTrap("NullPointer", _NULL_ACCESS[access])
    return VMTrap("ArrayBounds", f"index {index}, length {length}")


@dataclass
class FieldSlot:
    """One instance field: descriptor plus its word offset from the base."""

    name: str
    desc: str
    offset: int

    @property
    def is_ref(self) -> bool:
        return is_reference(self.desc)


@dataclass
class Layout:
    """Shape information for one class id (scalar class or array class)."""

    class_id: int
    name: str  # class name, or array descriptor for array classes
    super_id: int | None = None
    instance_fields: list[FieldSlot] = field(default_factory=list)
    is_array: bool = False
    elem_desc: str | None = None  # arrays only; "I" or a reference desc
    field_by_name: dict[str, FieldSlot] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.field_by_name = {f.name: f for f in self.instance_fields}

    @property
    def size_words(self) -> int:
        if self.is_array:
            raise VMTrap("internal", "array size depends on length")
        return HEADER_WORDS + len(self.instance_fields)

    @property
    def elem_is_ref(self) -> bool:
        return self.elem_desc is not None and is_reference(self.elem_desc)

    def ref_field_offsets(self) -> tuple[int, ...]:
        return tuple(f.offset for f in self.instance_fields if f.is_ref)


class LayoutSource(Protocol):
    """Where the object model looks up layouts (implemented by the loader)."""

    def layout_by_id(self, class_id: int) -> Layout: ...

    def array_layout(self, desc: str) -> Layout: ...


class ObjectModel:
    """Allocation and typed access to heap objects.

    ``gc_hook`` is invoked when a bump allocation fails; it must either
    free memory (collect) or leave the heap unchanged, after which the
    allocation is retried once.
    """

    def __init__(self, memory: Memory, layouts: LayoutSource):
        self.memory = memory
        self.layouts = layouts
        self.gc_hook: Callable[[], None] | None = None
        self.alloc_count = 0  # deterministic allocation sequence number

    # -- allocation ----------------------------------------------------------

    def _alloc(self, nwords: int) -> int:
        addr = self.memory.alloc(nwords)
        if addr is None:
            if self.gc_hook is not None:
                self.gc_hook()
            addr = self.memory.alloc(nwords)
            if addr is None:
                raise HeapExhaustedError(
                    f"cannot allocate {nwords} words "
                    f"({self.memory.free_words} free after GC)"
                )
        self.alloc_count += 1
        return addr

    def new_object(self, layout: Layout) -> int:
        if layout.is_array:
            raise VMTrap("internal", f"new_object on array layout {layout.name}")
        addr = self._alloc(layout.size_words)
        # Memory.alloc hands out zeroed, materialised words: only the
        # header needs writing
        self.memory.words[addr : addr + HEADER_WORDS] = (layout.class_id, 0, 0)
        return addr

    def new_array(self, desc: str, length: int) -> int:
        if length < 0:
            raise VMTrap("NegativeArraySize", str(length))
        layout = self.layouts.array_layout(desc)
        addr = self._alloc(HEADER_WORDS + length)
        self.memory.words[addr : addr + HEADER_WORDS] = (layout.class_id, 0, length)
        return addr

    # -- inspection ------------------------------------------------------------

    def layout_of(self, addr: int) -> Layout:
        if addr == NULL:
            raise VMTrap("NullPointer", "layout of null")
        return self.layouts.layout_by_id(self.memory.read(addr + HEADER_CLASS))

    def array_length(self, addr: int) -> int:
        if addr == NULL:
            raise access_trap("arraylength")
        return self.memory.read(addr + HEADER_AUX)

    def object_size_words(self, addr: int) -> int:
        """Total footprint in words of the object at *addr* (GC helper)."""
        layout = self.layout_of(addr)
        if layout.is_array:
            return HEADER_WORDS + self.memory.read(addr + HEADER_AUX)
        return layout.size_words

    def identity_hash(self, addr: int) -> int:
        """Lazy identity hash, stored in the header so GC copies preserve it.

        This is how heap-layout divergence becomes *guest-visible*: the
        first call stamps the object's current address into the header, so
        two runs that allocate in different orders observe different
        hashes — exactly the failure the paper's symmetric allocation rule
        prevents.
        """
        if addr == NULL:
            raise VMTrap("NullPointer", "identityHashCode of null")
        layout = self.layout_of(addr)
        if layout.is_array:
            raise VMTrap("Unsupported", "identityHashCode of array")
        h = self.memory.read(addr + HEADER_AUX)
        if h == 0:
            h = addr
            self.memory.write(addr + HEADER_AUX, h)
        return h

    # -- field access ------------------------------------------------------------

    def get_field(self, addr: int, offset: int) -> int:
        if addr == NULL:
            raise access_trap("getfield")
        return self.memory.read(addr + offset)

    def put_field(self, addr: int, offset: int, value: int) -> None:
        if addr == NULL:
            raise access_trap("putfield")
        self.memory.write(addr + offset, value)

    # -- array element access ------------------------------------------------------

    def _check_index(self, addr: int, index: int) -> None:
        if addr == NULL:
            raise access_trap("array")
        length = self.memory.read(addr + HEADER_AUX)
        if not (0 <= index < length):
            raise access_trap("array", index, length)

    def array_get(self, addr: int, index: int) -> int:
        self._check_index(addr, index)
        return self.memory.read(addr + HEADER_WORDS + index)

    def array_put(self, addr: int, index: int, value: int) -> None:
        self._check_index(addr, index)
        self.memory.write(addr + HEADER_WORDS + index, value)

    # -- heap walking -----------------------------------------------------------

    def walk_heap(self):
        """Iterate (address, layout) over every live object in the active
        semispace, in address order.  Only valid at a safe point (between
        micro-ops / after a run); used by thread-death monitor release and
        the heap-inspection tool."""
        mem = self.memory
        addr = mem.base[mem.active]
        while addr < mem.bump:
            layout = self.layouts.layout_by_id(mem.read(addr + HEADER_CLASS))
            yield addr, layout
            if layout.is_array:
                addr += HEADER_WORDS + mem.read(addr + HEADER_AUX)
            else:
                addr += layout.size_words

    # -- monitor word (used by the thread package) -----------------------------------

    def lock_word(self, addr: int) -> int:
        if addr == NULL:
            raise VMTrap("NullPointer", "monitor on null")
        return self.memory.read(addr + HEADER_STATUS)

    def set_lock_word(self, addr: int, value: int) -> None:
        self.memory.write(addr + HEADER_STATUS, value)
