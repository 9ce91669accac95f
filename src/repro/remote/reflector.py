"""Host-side remote reflection facade (what the debugger core uses).

Everything here reads the application VM purely through the
:class:`~repro.remote.ptrace.DebugPort`; the structure (dictionary,
methods, classes, threads, shadow stacks) mirrors what the guest's own
reflection methods would compute — and the :class:`ToolInterpreter` path
actually computes it *with* those guest methods (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.remote.mapping import MappedMethods, default_mappings, remote_thread_table
from repro.remote.ptrace import DebugPort
from repro.remote.remote_object import RemoteObject, RemoteResolver
from repro.vm.errors import VMError
from repro.vm.monitors import unpack_lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import VirtualMachine


@dataclass
class RemoteFrameInfo:
    """One remote stack frame, decoded from a shadow call stack."""

    method_id: int
    method_name: str
    class_name: str
    bci: int
    line: int


@dataclass
class RemoteThreadInfo:
    tid: int
    state: int
    frames: list[RemoteFrameInfo]


class RemoteReflector:
    """Queries over a remote VM, via raw memory reads only."""

    def __init__(self, port: DebugPort, tool_vm: "VirtualMachine", mappings: MappedMethods | None = None):
        self.port = port
        self.tool_vm = tool_vm
        self.resolver = RemoteResolver(port, tool_vm.loader)
        self.mappings = mappings if mappings is not None else default_mappings()

    # ------------------------------------------------------------------
    # dictionary / methods / classes

    def methods(self) -> RemoteObject:
        fn = self.mappings.lookup("VM_Dictionary.getMethods()[LVM_Method;")
        assert fn is not None
        result = fn(self.resolver)
        if not isinstance(result, RemoteObject):
            raise VMError("remote dictionary has no methods array")
        return result

    def method(self, method_id: int) -> RemoteObject:
        mtable = self.methods()
        obj = mtable.elem(method_id)
        if not isinstance(obj, RemoteObject):
            raise VMError(f"no remote method with id {method_id}")
        return obj

    def method_name(self, method_id: int) -> str:
        vmm = self.method(method_id)
        name = vmm.field("name")
        declaring = vmm.field("declaring")
        assert isinstance(name, RemoteObject) and isinstance(declaring, RemoteObject)
        cls = declaring.field("name")
        assert isinstance(cls, RemoteObject)
        return f"{cls.as_string()}.{name.as_string()}"

    def line_number_of(self, method_number: int, offset: int) -> int:
        """Figure 3's ``Debugger.lineNumberOf``, host-side flavour:
        select ``mtable[methodNumber]`` and read its line table."""
        vmm = self.method(method_number)
        table = vmm.field("lineTable")
        if table is None:
            return 0
        assert isinstance(table, RemoteObject)
        if not (0 <= offset < table.length):
            return 0
        value = table.elem(offset)
        assert isinstance(value, int)
        return value

    def classes(self) -> RemoteObject:
        fn = self.mappings.lookup("VM_Dictionary.getClasses()[LVM_Class;")
        assert fn is not None
        result = fn(self.resolver)
        if not isinstance(result, RemoteObject):
            raise VMError("remote dictionary has no classes array")
        return result

    def class_names(self) -> list[str]:
        arr = self.classes()
        names = []
        for i in range(arr.length):
            vmc = arr.elem(i)
            if isinstance(vmc, RemoteObject):
                name = vmc.field("name")
                assert isinstance(name, RemoteObject)
                names.append(name.as_string())
        return names

    # ------------------------------------------------------------------
    # threads and stacks

    def threads(self) -> list[RemoteThreadInfo]:
        table = remote_thread_table(self.resolver)
        infos = []
        for i in range(table.length):
            t = table.elem(i)
            if isinstance(t, RemoteObject):
                infos.append(self.thread_info(t))
        return infos

    def thread_info(self, thread: RemoteObject) -> RemoteThreadInfo:
        tid = thread.field("tid")
        state = thread.field("state")
        assert isinstance(tid, int) and isinstance(state, int)
        return RemoteThreadInfo(tid=tid, state=state, frames=self.stack_trace(thread))

    def stack_trace(self, thread: RemoteObject) -> list[RemoteFrameInfo]:
        """Decode the thread's heap-resident shadow call stack (the
        innermost bci from its saved pc: a pause does not publish it)."""
        shadow = thread.field("shadow")
        if shadow is None:
            return []
        assert isinstance(shadow, RemoteObject)
        depth = shadow.elem(0)
        assert isinstance(depth, int)
        top = self.port.top_bci(thread.field("tid"))
        frames = []
        for level in range(depth):
            mid = shadow.elem(1 + 2 * level)
            bci = top if level == depth - 1 and top is not None else shadow.elem(2 + 2 * level)
            assert isinstance(mid, int) and isinstance(bci, int)
            qual = self.method_name(mid)
            cls, _, name = qual.rpartition(".")
            frames.append(
                RemoteFrameInfo(
                    method_id=mid,
                    method_name=name,
                    class_name=cls,
                    bci=bci,
                    line=self.line_number_of(mid, bci),
                )
            )
        frames.reverse()  # innermost first
        return frames

    # ------------------------------------------------------------------
    # objects

    def object_at(self, addr: int) -> RemoteObject:
        return RemoteObject(self.resolver, addr)

    def lock_state(self, obj: RemoteObject) -> tuple[int | None, int]:
        """(owner tid, recursion) straight from the remote header word."""
        from repro.vm.layout import HEADER_STATUS

        return unpack_lock(self.port.peek(obj.addr + HEADER_STATUS))

    def statics_of(self, class_name: str) -> RemoteObject | None:
        arr = self.classes()
        for i in range(arr.length):
            vmc = arr.elem(i)
            if isinstance(vmc, RemoteObject):
                name = vmc.field("name")
                assert isinstance(name, RemoteObject)
                if name.as_string() == class_name:
                    statics = vmc.field("statics")
                    return statics if isinstance(statics, RemoteObject) else None
        raise VMError(f"no remote class {class_name}")
