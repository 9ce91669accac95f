"""Remote objects: typed proxies for objects in another VM (§3.1, §3.3).

"To implement the remote object, it was sufficient to record the type of
the object and its real address."  A :class:`RemoteObject` holds exactly
that — a :class:`~repro.vm.layout.Layout` and a remote address — plus the
port to read through.  Dereferencing a reference field or element yields
another remote object; dereferencing a primitive fetches the value.

Type resolution crosses the VM boundary through the *remote* VM's own
heap metadata: a class id peeked out of a remote header is looked up in
the remote ``VM_Dictionary`` (``classId`` → name), then resolved to the
tool VM's identical layout.  The tool loader can therefore describe any
remote object — including array classes the application created at run
time — without the remote VM running a single instruction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.remote.ptrace import DebugPort
from repro.vm.descriptors import is_reference
from repro.vm.errors import VMError
from repro.vm.layout import HEADER_AUX, HEADER_CLASS, HEADER_WORDS, Layout
from repro.vm.memory import BOOT_DICTIONARY

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.loader import Loader


class RemoteResolver:
    """Maps remote class ids to tool-VM layouts via remote metadata."""

    def __init__(self, port: DebugPort, tool_loader: "Loader"):
        self.port = port
        self.loader = tool_loader
        self._cache: dict[int, Layout] = {}

    # -- remote metadata walking ------------------------------------------

    def _dict_statics_layout(self) -> Layout:
        rc = self.loader.classes["VM_Dictionary"]
        assert rc.statics_layout is not None
        return rc.statics_layout

    def dictionary_addr(self) -> int:
        addr = self.port.boot(BOOT_DICTIONARY)
        if addr == 0:
            raise VMError("remote VM has no VM_Dictionary (not bootstrapped?)")
        return addr

    def remote_class_name(self, class_id: int) -> str:
        """Find the remote VM_Class with *class_id* and decode its name."""
        holder = self.dictionary_addr()
        slayout = self._dict_statics_layout()
        classes_arr = self.port.peek(holder + slayout.field_by_name["classes"].offset)
        count = self.port.peek(holder + slayout.field_by_name["classCount"].offset)
        vmc_layout = self.loader.classes["VM_Class"].layout
        id_off = vmc_layout.field_by_name["classId"].offset
        name_off = vmc_layout.field_by_name["name"].offset
        for i in range(count):
            vmc = self.port.peek(classes_arr + HEADER_WORDS + i)
            if vmc and self.port.peek(vmc + id_off) == class_id:
                return self.read_remote_string(self.port.peek(vmc + name_off))
        raise VMError(f"remote class id {class_id} not in remote dictionary")

    def read_remote_string(self, addr: int) -> str:
        """Decode a remote String via its chars array."""
        chars_off = self.loader.classes["String"].layout.field_by_name["chars"].offset
        chars = self.port.peek(addr + chars_off)
        length = self.port.peek(chars + HEADER_AUX)
        return "".join(chr(c) for c in self.port.peek_range(chars + HEADER_WORDS, length))

    # -- layout resolution ---------------------------------------------------

    def layout_for_remote(self, addr: int) -> Layout:
        """Layout of the remote object at *addr* (cached per class id).

        The class id from the remote header is translated to a *name* via
        the remote dictionary, then resolved against the tool VM's own
        classes (the tool JVM "loads the classes and executes the
        reflection methods" — §3).  If the tool VM was not given the
        application class, we degrade to the nearest ancestor it does
        know (walking the remote ``superId`` chain), which still exposes
        the inherited fields — e.g. a ``Thread`` subclass's tid/stack.
        """
        class_id = self.port.peek(addr + HEADER_CLASS)
        layout = self._cache.get(class_id)
        if layout is not None:
            return layout
        name = self.remote_class_name(class_id)
        if name.startswith("["):
            layout = self.loader.array_layout(name)
        elif name.startswith("Statics$"):
            rc = self.loader.ensure_layout(name[len("Statics$") :])
            if rc.statics_layout is None:
                raise VMError(f"tool VM has no statics layout for {name}")
            layout = rc.statics_layout
        else:
            layout = self._resolve_scalar(class_id, name)
        self._cache[class_id] = layout
        return layout

    def _resolve_scalar(self, class_id: int, name: str) -> Layout:
        walk_id, walk_name = class_id, name
        while True:
            if self.loader.class_exists(walk_name):
                return self.loader.ensure_layout(walk_name).layout
            walk_id = self._remote_super_id(walk_id)
            if walk_id < 0:
                raise VMError(f"tool VM knows no ancestor of remote class {name}")
            walk_name = self.remote_class_name(walk_id)

    def _remote_super_id(self, class_id: int) -> int:
        holder = self.dictionary_addr()
        slayout = self._dict_statics_layout()
        classes_arr = self.port.peek(holder + slayout.field_by_name["classes"].offset)
        count = self.port.peek(holder + slayout.field_by_name["classCount"].offset)
        vmc_layout = self.loader.classes["VM_Class"].layout
        id_off = vmc_layout.field_by_name["classId"].offset
        super_off = vmc_layout.field_by_name["superId"].offset
        for i in range(count):
            vmc = self.port.peek(classes_arr + HEADER_WORDS + i)
            if vmc and self.port.peek(vmc + id_off) == class_id:
                return self.port.peek(vmc + super_off)
        return -1


class RemoteObject:
    """A proxy for one object in the remote VM."""

    __slots__ = ("resolver", "addr", "layout")

    def __init__(self, resolver: RemoteResolver, addr: int, layout: Layout | None = None):
        if addr == 0:
            raise VMError("remote null has no proxy — use 0/None")
        self.resolver = resolver
        self.addr = addr
        self.layout = layout if layout is not None else resolver.layout_for_remote(addr)

    # -- scalars and references ----------------------------------------------

    def _wrap(self, desc: str, word: int):
        if not is_reference(desc):
            return word
        if word == 0:
            return None
        return RemoteObject(self.resolver, word)

    def field(self, name: str):
        """Read an instance field; returns int, None, or RemoteObject."""
        slot = self.layout.field_by_name.get(name)
        if slot is None:
            raise VMError(f"no field {name!r} in {self.layout.name}")
        word = self.resolver.port.peek(self.addr + slot.offset)
        return self._wrap(slot.desc, word)

    # -- arrays ---------------------------------------------------------------

    def _require_array(self) -> str:
        if not self.layout.is_array:
            raise VMError(f"{self.layout.name} is not an array")
        assert self.layout.elem_desc is not None
        return self.layout.elem_desc

    @property
    def length(self) -> int:
        self._require_array()
        return self.resolver.port.peek(self.addr + HEADER_AUX)

    def elem(self, index: int):
        elem_desc = self._require_array()
        n = self.length
        if not (0 <= index < n):
            raise VMError(f"remote array index {index} out of range {n}")
        word = self.resolver.port.peek(self.addr + HEADER_WORDS + index)
        return self._wrap(elem_desc, word)

    def clone_primitive_array(self) -> list[int]:
        """Copy a remote ``[I`` wholesale (§3.3: natives on the tool VM get
        clones of remote primitive arrays)."""
        elem_desc = self._require_array()
        if is_reference(elem_desc):
            raise VMError("clone_primitive_array on a reference array")
        n = self.length
        return self.resolver.port.peek_range(self.addr + HEADER_WORDS, n)

    # -- conveniences -----------------------------------------------------------

    def as_string(self) -> str:
        if self.layout.name != "String":
            raise VMError(f"{self.layout.name} is not a String")
        return self.resolver.read_remote_string(self.addr)

    @property
    def class_name(self) -> str:
        return self.layout.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RemoteObject {self.layout.name}@{self.addr}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RemoteObject)
            and other.addr == self.addr
            and other.resolver is self.resolver
        )

    def __hash__(self) -> int:
        return hash((id(self.resolver), self.addr))
