"""The tool VM's interpreter, extended for remote reflection (§3.2, §3.4).

The paper extends "a standard Java interpreter" so that

* ``invokestatic`` / ``invokevirtual`` are checked against the mapped-
  method list; mapped invocations are intercepted and return a remote
  object (or a primitive fetched from the remote VM) instead of executing;
* every bytecode that operates on a reference (23 of them in Java) is
  extended to accept a remote object: primitive results are fetched from
  the remote address space and pushed; reference results are pushed as new
  remote objects.

This module is exactly that: a direct bytecode interpreter (the tool VM
runs bytecode, while the application VM runs compiled code — Figure 4)
whose reference ops dispatch on whether the value at hand is a local heap
address (plain int) or a :class:`RemoteObject` proxy.  Writes through
remote references are refused — the debugger only queries (§3.2).

The interpreter allocates in the *tool* VM's heap (local ``new``,
``StringBuilder`` use, array clones for natives), and registers its
frames as GC roots with the tool VM so local collections stay safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.remote.mapping import MappedMethods
from repro.remote.remote_object import RemoteObject, RemoteResolver
from repro.vm import words
from repro.vm.bytecode import Op
from repro.vm.errors import VMError, VMTrap
from repro.vm.layout import access_trap
from repro.vm.refmaps import field_ref

if TYPE_CHECKING:  # pragma: no cover
    from repro.remote.ptrace import DebugPort
    from repro.vm.loader import Loader, RuntimeMethod
    from repro.vm.machine import VirtualMachine

_MAX_STEPS = 5_000_000


class _ToolFrame:
    __slots__ = ("method", "bci", "locals", "stack")

    def __init__(self, method: "RuntimeMethod", args: list):
        self.method = method
        self.bci = 0
        nlocals = method.mdef.max_locals or method.mdef.compute_max_locals()
        self.locals: list = list(args) + [0] * (nlocals - len(args))
        self.stack: list = []


class ToolInterpreter:
    """Interprets tool-VM bytecode with remote-object support."""

    def __init__(
        self,
        tool_vm: "VirtualMachine",
        port: "DebugPort",
        mappings: MappedMethods | None = None,
    ):
        self.vm = tool_vm
        self.port = port
        self.resolver = RemoteResolver(port, tool_vm.loader)
        self.mappings = mappings if mappings is not None else MappedMethods()
        self.frames: list[_ToolFrame] = []
        self.steps = 0
        self.remote_fetches = 0

    # ------------------------------------------------------------------
    # public entry

    def call(self, method_ref: str, args: list | None = None):
        """Interpret ``Class.name(sig)ret`` with *args*; returns the result
        (int, 0-as-null, local address, or RemoteObject)."""
        loader: Loader = self.vm.loader
        rm = loader.resolve_method_any(method_ref)
        loader.load(rm.owner.name)
        base_depth = len(self.frames)
        self.vm.extra_root_visitors.append(self._visit_roots)
        try:
            return self._run(rm, list(args or []), base_depth)
        finally:
            self.vm.extra_root_visitors.remove(self._visit_roots)
            del self.frames[base_depth:]

    # ------------------------------------------------------------------
    # GC cooperation (tool-VM collections while interpreting)

    def _visit_roots(self, fwd: Callable[[int], int]) -> None:
        for frame in self.frames:
            maps = frame.method.maps
            if maps is None:
                continue
            lrefs, srefs = maps.ref_map(frame.bci)
            for i in lrefs:
                v = frame.locals[i]
                if isinstance(v, int) and v:
                    frame.locals[i] = fwd(v)
            depth = len(frame.stack)
            for i in srefs:
                if i < depth:
                    v = frame.stack[i]
                    if isinstance(v, int) and v:
                        frame.stack[i] = fwd(v)

    # ------------------------------------------------------------------
    # core loop

    def _run(self, rm: "RuntimeMethod", args: list, base_depth: int):
        self._push_frame(rm, args)
        result: object = None
        while len(self.frames) > base_depth:
            frame = self.frames[-1]
            result = self._step(frame)
        return result

    def _push_frame(self, rm: "RuntimeMethod", args: list) -> None:
        if rm.native:
            raise VMError(f"tool interpreter cannot enter native {rm.qualname}")
        if rm.maps is None:
            self.vm.loader.load(rm.owner.name)
        self.frames.append(_ToolFrame(rm, args))

    def _invoke(self, rm: "RuntimeMethod", args: list):
        """Dispatch a (non-mapped) invocation: native or bytecode."""
        if rm.native:
            value = self._call_native(rm, args)
            if rm.mdef.signature.ret != "V":
                self.frames[-1].stack.append(value if value is not None else 0)
            return
        self._push_frame(rm, args)

    def _call_native(self, rm: "RuntimeMethod", args: list):
        """Tool-VM natives get remote primitives cloned locally (§3.3)."""
        local_args: list[int] = []
        depth = len(self.vm.loader.temp_roots)
        for a in args:
            if isinstance(a, RemoteObject):
                if a.layout.is_array and a.layout.elem_desc == "I":
                    values = a.clone_primitive_array()
                    clone = self.vm.om.new_array("[I", len(values))
                    self.vm.loader._tr_push(clone)
                    for i, v in enumerate(values):
                        self.vm.om.array_put(clone, i, v)
                    local_args.append(clone)
                elif a.layout.name == "String":
                    s = self.vm.loader.make_string(a.as_string())
                    self.vm.loader._tr_push(s)
                    local_args.append(s)
                else:
                    raise VMError(
                        f"cannot pass remote {a.layout.name} to native {rm.qualname}"
                    )
            else:
                local_args.append(a)
        try:
            raw = self.vm.call_native(self.vm.scheduler.current or _FakeThread(), rm, local_args)
        finally:
            self.vm.loader._tr_reset(depth)
        from repro.vm.native import BLOCK, NativeResult

        if raw is BLOCK:
            raise VMError(f"native {rm.qualname} blocked in tool interpreter")
        if isinstance(raw, NativeResult):
            if raw.upcalls:
                raise VMError("tool interpreter does not support upcalls")
            if raw.string_value is not None:
                return self.vm.loader.make_string(raw.string_value)
            return raw.value
        return raw

    # ------------------------------------------------------------------
    # remote helpers

    def _remote_field(self, obj: RemoteObject, ref) -> object:
        name = field_ref(ref)[0].split(".", 1)[1]
        self.remote_fetches += 1
        return obj.field(name)

    def _is_null(self, v) -> bool:
        return v == 0 or v is None

    def _refs_equal(self, a, b) -> bool:
        if self._is_null(a) and self._is_null(b):
            return True
        if isinstance(a, RemoteObject) or isinstance(b, RemoteObject):
            return (
                isinstance(a, RemoteObject)
                and isinstance(b, RemoteObject)
                and a.addr == b.addr
            )
        return a == b

    # ------------------------------------------------------------------

    def _step(self, frame: _ToolFrame):  # noqa: C901 - the dispatch
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise VMError("tool interpreter step budget exceeded")
        vm = self.vm
        om = vm.om
        loader = vm.loader
        code = frame.method.mdef.code
        instr = code[frame.bci]
        op = instr.op
        stack = frame.stack
        next_bci = frame.bci + 1

        if op is Op.NOP:
            pass
        elif op is Op.ICONST:
            stack.append(instr.arg)
        elif op is Op.LDC:
            rc = frame.method.owner
            stack.append(om.array_get(rc.constants_addr, instr.arg))
        elif op is Op.ACONST_NULL:
            stack.append(0)
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.POP:
            stack.pop()
        elif op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op in (Op.ILOAD, Op.ALOAD):
            stack.append(frame.locals[instr.arg])
        elif op in (Op.ISTORE, Op.ASTORE):
            frame.locals[instr.arg] = stack.pop()
        elif op is Op.IINC:
            slot, delta = instr.arg
            frame.locals[slot] = words.to_i32(frame.locals[slot] + delta)
        elif op is Op.IADD:
            b = stack.pop()
            stack[-1] = words.iadd(stack[-1], b)
        elif op is Op.ISUB:
            b = stack.pop()
            stack[-1] = words.isub(stack[-1], b)
        elif op is Op.IMUL:
            b = stack.pop()
            stack[-1] = words.imul(stack[-1], b)
        elif op is Op.IDIV:
            b = stack.pop()
            try:
                stack[-1] = words.idiv(stack[-1], b)
            except ZeroDivisionError:
                raise VMTrap("ArithmeticDivByZero") from None
        elif op is Op.IREM:
            b = stack.pop()
            try:
                stack[-1] = words.irem(stack[-1], b)
            except ZeroDivisionError:
                raise VMTrap("ArithmeticDivByZero") from None
        elif op is Op.INEG:
            stack[-1] = words.ineg(stack[-1])
        elif op is Op.ISHL:
            b = stack.pop()
            stack[-1] = words.ishl(stack[-1], b)
        elif op is Op.ISHR:
            b = stack.pop()
            stack[-1] = words.ishr(stack[-1], b)
        elif op is Op.IUSHR:
            b = stack.pop()
            stack[-1] = words.iushr(stack[-1], b)
        elif op is Op.IAND:
            b = stack.pop()
            stack[-1] = words.iand(stack[-1], b)
        elif op is Op.IOR:
            b = stack.pop()
            stack[-1] = words.ior(stack[-1], b)
        elif op is Op.IXOR:
            b = stack.pop()
            stack[-1] = words.ixor(stack[-1], b)

        elif op is Op.GOTO:
            next_bci = instr.arg
        elif op is Op.IFEQ:
            next_bci = instr.arg if stack.pop() == 0 else next_bci
        elif op is Op.IFNE:
            next_bci = instr.arg if stack.pop() != 0 else next_bci
        elif op is Op.IFLT:
            next_bci = instr.arg if stack.pop() < 0 else next_bci
        elif op is Op.IFLE:
            next_bci = instr.arg if stack.pop() <= 0 else next_bci
        elif op is Op.IFGT:
            next_bci = instr.arg if stack.pop() > 0 else next_bci
        elif op is Op.IFGE:
            next_bci = instr.arg if stack.pop() >= 0 else next_bci
        elif op is Op.IF_ICMPEQ:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if a == b else next_bci
        elif op is Op.IF_ICMPNE:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if a != b else next_bci
        elif op is Op.IF_ICMPLT:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if a < b else next_bci
        elif op is Op.IF_ICMPLE:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if a <= b else next_bci
        elif op is Op.IF_ICMPGT:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if a > b else next_bci
        elif op is Op.IF_ICMPGE:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if a >= b else next_bci
        elif op is Op.IF_ACMPEQ:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if self._refs_equal(a, b) else next_bci
        elif op is Op.IF_ACMPNE:
            b, a = stack.pop(), stack.pop()
            next_bci = instr.arg if not self._refs_equal(a, b) else next_bci
        elif op is Op.IFNULL:
            next_bci = instr.arg if self._is_null(stack.pop()) else next_bci
        elif op is Op.IFNONNULL:
            next_bci = instr.arg if not self._is_null(stack.pop()) else next_bci

        elif op is Op.NEW:
            frame.bci = frame.bci  # bci is current: safe point for _visit_roots
            rc = loader.ensure_layout(str(instr.arg))
            loader.load(rc.name)
            stack.append(om.new_object(rc.layout))
        elif op is Op.GETFIELD:
            obj = stack.pop()
            if self._is_null(obj):
                raise access_trap("getfield")
            if isinstance(obj, RemoteObject):
                stack.append(self._remote_field(obj, instr.arg))
            else:
                ref, _ = field_ref(instr.arg)
                slot = loader.resolve_instance_field(ref)
                stack.append(om.get_field(obj, slot.offset))
        elif op is Op.PUTFIELD:
            value = stack.pop()
            obj = stack.pop()
            if isinstance(obj, RemoteObject) or isinstance(value, RemoteObject):
                raise VMError("remote reflection is read-only: putfield refused")
            ref, _ = field_ref(instr.arg)
            slot = loader.resolve_instance_field(ref)
            om.put_field(obj, slot.offset, value)
        elif op is Op.GETSTATIC:
            ref, _ = field_ref(instr.arg)
            holder_rc, slot = loader.resolve_static_field(ref)
            loader.load(holder_rc.name)
            stack.append(om.get_field(holder_rc.statics_addr, slot.offset))
        elif op is Op.PUTSTATIC:
            value = stack.pop()
            if isinstance(value, RemoteObject):
                raise VMError("remote reflection is read-only: putstatic refused")
            ref, _ = field_ref(instr.arg)
            holder_rc, slot = loader.resolve_static_field(ref)
            om.put_field(holder_rc.statics_addr, slot.offset, value)
        elif op is Op.NEWARRAY:
            length = stack.pop()
            stack.append(om.new_array("[I", length))
        elif op is Op.ANEWARRAY:
            length = stack.pop()
            stack.append(om.new_array("[" + str(instr.arg), length))
        elif op in (Op.IALOAD, Op.AALOAD):
            index = stack.pop()
            arr = stack.pop()
            if self._is_null(arr):
                raise access_trap("array")
            if isinstance(arr, RemoteObject):
                self.remote_fetches += 1
                stack.append(arr.elem(index))
            else:
                stack.append(om.array_get(arr, index))
        elif op in (Op.IASTORE, Op.AASTORE):
            value = stack.pop()
            index = stack.pop()
            arr = stack.pop()
            if isinstance(arr, RemoteObject) or isinstance(value, RemoteObject):
                raise VMError("remote reflection is read-only: array store refused")
            om.array_put(arr, index, value)
        elif op is Op.ARRAYLENGTH:
            arr = stack.pop()
            if self._is_null(arr):
                raise access_trap("arraylength")
            if isinstance(arr, RemoteObject):
                stack.append(arr.length)
            else:
                stack.append(om.array_length(arr))
        elif op is Op.INSTANCEOF:
            obj = stack.pop()
            target = loader.ensure_layout(str(instr.arg))
            stack.append(1 if self._instance_of(obj, target) else 0)
        elif op is Op.CHECKCAST:
            obj = stack[-1]
            target = loader.ensure_layout(str(instr.arg))
            if not self._is_null(obj) and not self._instance_of(obj, target):
                raise VMTrap("ClassCast", f"not a {target.name}")

        elif op in (Op.INVOKESTATIC, Op.INVOKEVIRTUAL):
            ref = str(instr.arg)
            rm = loader.resolve_method_any(ref)
            # §3.4: check the target against the mapping list first
            if rm.static and rm.qualname in self.mappings:
                fn = self.mappings.lookup(rm.qualname)
                assert fn is not None
                for _ in range(rm.mdef.signature.nargs):
                    stack.pop()
                result = fn(self.resolver)
                if rm.mdef.signature.ret != "V":
                    stack.append(0 if result is None else result)
            else:
                nargs = rm.mdef.signature.nargs + (0 if rm.static else 1)
                args = stack[-nargs:] if nargs else []
                if nargs:
                    del stack[-nargs:]
                if not rm.static:
                    receiver = args[0]
                    if self._is_null(receiver):
                        raise VMTrap("NullPointer", f"invokevirtual {ref} on null")
                    if isinstance(receiver, RemoteObject):
                        # virtual dispatch on the *remote* object's class,
                        # resolved through the tool VM's identical classes
                        rc = loader.classes.get(receiver.layout.name)
                        if rc is None:
                            raise VMError(
                                f"tool VM lacks class {receiver.layout.name}"
                            )
                        rm = rc.vtable.get(rm.key) or rm
                    else:
                        layout = om.layout_of(receiver)
                        rm = loader.vtable_lookup(layout.class_id, rm.key)
                frame.bci = next_bci - 1  # safe point while callee may allocate
                self._invoke(rm, args)
                frame.bci = next_bci
                return None
        elif op is Op.RETURN:
            self.frames.pop()
            return None
        elif op in (Op.IRETURN, Op.ARETURN):
            value = stack.pop()
            self.frames.pop()
            if self.frames:
                self.frames[-1].stack.append(value)
                return None
            return value
        elif op in (Op.MONITORENTER, Op.MONITOREXIT):
            obj = stack.pop()
            if isinstance(obj, RemoteObject):
                raise VMError("cannot lock a remote object")
            # single-threaded tool interpretation: monitors are no-ops
        else:  # pragma: no cover
            raise VMError(f"tool interpreter: unhandled opcode {op.name}")

        frame.bci = next_bci
        return None

    def _instance_of(self, obj, target_rc) -> bool:
        if self._is_null(obj):
            return False
        if isinstance(obj, RemoteObject):
            if obj.layout.is_array:
                return target_rc.name == "Object"
            walk = self.vm.loader.classes.get(obj.layout.name)
            while walk is not None:
                if walk is target_rc:
                    return True
                walk = walk.super_rc
            return False
        return self.vm.is_instance(obj, target_rc)


class _FakeThread:
    """Stands in for a green thread when tool natives run host-side."""

    tid = -1
    guest_addr = 0
