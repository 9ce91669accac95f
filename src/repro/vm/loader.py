"""Class loading, linking, and heap-resident reflection metadata.

The loader owns the class table (class id → :class:`Layout`) and performs,
per class: layout (field offsets, vtable), verification (reference maps via
:mod:`repro.vm.refmaps`), baseline compilation, and *metadata
materialisation* — building genuine guest-heap ``VM_Class`` / ``VM_Method``
objects (with line tables) registered in the ``VM_Dictionary``, exactly the
structures the paper's remote reflection walks (Figure 3).

Class loading allocates heap objects, which is why DejaVu must pre-load its
classes symmetrically: a class loaded lazily at different points in record
and replay shifts every subsequent allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Callable

from repro.vm import memory as mem_mod
from repro.vm.classfile import ClassDef, MethodDef
from repro.vm.descriptors import (
    Signature,
    element_type,
    is_reference,
)
from repro.vm.errors import LinkError, VMError
from repro.vm.layout import FieldSlot, HEADER_WORDS, Layout, ObjectModel
from repro.vm.refmaps import CodeMaps, analyze_method, split_field_ref, split_method_ref

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.compiler import MachineCode

_DICT_INITIAL_CAPACITY = 64


@dataclass
class RuntimeMethod:
    """A linked method: definition + maps + compiled code + global id.

    ``code`` is shared by every VM installed from the same image;
    ``entries``, the handler table the VM's engine bound for it (None
    until the first frame runs it), is this VM's own."""

    owner: "RuntimeClass"
    mdef: MethodDef
    method_id: int
    maps: CodeMaps | None = None
    code: "MachineCode | None" = None
    entries: list | None = dc_field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        return self.mdef.key

    @property
    def native(self) -> bool:
        return self.mdef.native

    @property
    def static(self) -> bool:
        return self.mdef.static

    @property
    def qualname(self) -> str:
        return f"{self.owner.name}.{self.mdef.key}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RuntimeMethod {self.qualname} id={self.method_id}>"


@dataclass
class RuntimeClass:
    """A loaded class: layout, vtable, statics holder, constants pool."""

    name: str
    cdef: ClassDef
    layout: Layout
    super_rc: "RuntimeClass | None"
    methods: dict[str, RuntimeMethod] = dc_field(default_factory=dict)
    vtable: dict[str, RuntimeMethod] = dc_field(default_factory=dict)
    statics_layout: Layout | None = None
    statics_addr: int = 0
    constants_addr: int = 0
    linked: bool = False

    @property
    def class_id(self) -> int:
        return self.layout.class_id

    def find_method(self, key: str) -> RuntimeMethod | None:
        rc: RuntimeClass | None = self
        while rc is not None:
            rm = rc.methods.get(key)
            if rm is not None:
                return rm
            rc = rc.super_rc
        return None

    def find_static_slot(self, name: str) -> tuple["RuntimeClass", FieldSlot] | None:
        rc: RuntimeClass | None = self
        while rc is not None:
            if rc.statics_layout is not None:
                slot = rc.statics_layout.field_by_name.get(name)
                if slot is not None:
                    return rc, slot
            rc = rc.super_rc
        return None


class Loader:
    """Implements both the ``LayoutSource`` (for the object model / GC) and
    the ``Resolver`` (for the verifier) protocols."""

    def __init__(self, compile_fn: "Callable[[Loader, RuntimeClass, RuntimeMethod], MachineCode]"):
        self.compile_fn = compile_fn
        self.om: ObjectModel | None = None  # wired by the machine after construction
        self.classdefs: dict[str, ClassDef] = {}
        self.classes: dict[str, RuntimeClass] = {}
        self.class_table: list[Layout] = []
        self.rc_by_id: dict[int, RuntimeClass] = {}
        self.array_layouts: dict[str, Layout] = {}
        self.method_by_id: list[RuntimeMethod] = []
        self.interned: dict[str, int] = {}
        self.temp_roots: list[int] = []
        self.bootstrapped = False

    # ------------------------------------------------------------------
    # declaration

    def declare(self, cdef: ClassDef) -> None:
        if cdef.name in self.classdefs:
            raise LinkError(f"class {cdef.name} already declared")
        self.classdefs[cdef.name] = cdef

    def declare_all(self, cdefs: list[ClassDef]) -> None:
        for cd in cdefs:
            self.declare(cd)

    # ------------------------------------------------------------------
    # LayoutSource protocol

    def layout_by_id(self, class_id: int) -> Layout:
        try:
            return self.class_table[class_id]
        except IndexError:
            raise VMError(f"bad class id {class_id}") from None

    def array_layout(self, desc: str) -> Layout:
        layout = self.array_layouts.get(desc)
        if layout is None:
            elem = element_type(desc)
            if is_reference(elem) and not elem.startswith("["):
                # force the element class to exist (and be laid out)
                from repro.vm.descriptors import class_name

                self.ensure_layout(class_name(elem))
            layout = Layout(
                class_id=len(self.class_table),
                name=desc,
                super_id=self.classes["Object"].class_id if "Object" in self.classes else None,
                is_array=True,
                elem_desc=elem,
            )
            self.class_table.append(layout)
            self.array_layouts[desc] = layout
            if self.bootstrapped:
                self._materialize_array_metadata(layout)
        return layout

    # ------------------------------------------------------------------
    # Resolver protocol (verification support)

    def class_exists(self, name: str) -> bool:
        return name in self.classes or name in self.classdefs

    def is_subclass(self, name: str, ancestor: str) -> bool:
        if ancestor == "Object":
            return True
        rc: RuntimeClass | None = self.ensure_layout(name)
        while rc is not None:
            if rc.name == ancestor:
                return True
            rc = rc.super_rc
        return False

    def common_super(self, a: str, b: str) -> str:
        if a == b:
            return a
        ancestors = set()
        rc: RuntimeClass | None = self.ensure_layout(a)
        while rc is not None:
            ancestors.add(rc.name)
            rc = rc.super_rc
        rc = self.ensure_layout(b)
        while rc is not None:
            if rc.name in ancestors:
                return rc.name
            rc = rc.super_rc
        return "Object"

    def field_desc(self, ref: str) -> tuple[str, bool]:
        cls, fld = split_field_ref(ref)
        rc = self.ensure_layout(cls)
        slot = rc.layout.field_by_name.get(fld)
        if slot is not None:
            return slot.desc, False
        found = rc.find_static_slot(fld)
        if found is not None:
            return found[1].desc, True
        raise LinkError(f"unresolved field {ref}")

    def method_sig(self, ref: str) -> Signature:
        return self.resolve_method_any(ref).mdef.signature

    # ------------------------------------------------------------------
    # execution-time resolution (used by the compiler)

    def resolve_instance_field(self, ref: str) -> FieldSlot:
        cls, fld = split_field_ref(ref)
        rc = self.ensure_layout(cls)
        slot = rc.layout.field_by_name.get(fld)
        if slot is None:
            raise LinkError(f"unresolved instance field {ref}")
        return slot

    def resolve_static_field(self, ref: str) -> tuple[RuntimeClass, FieldSlot]:
        cls, fld = split_field_ref(ref)
        rc = self.ensure_layout(cls)
        found = rc.find_static_slot(fld)
        if found is None:
            raise LinkError(f"unresolved static field {ref}")
        return found

    def resolve_method_any(self, ref: str) -> RuntimeMethod:
        cls, key = split_method_ref(ref)
        rc = self.ensure_layout(cls)
        rm = rc.find_method(key)
        if rm is None:
            raise LinkError(f"unresolved method {ref}")
        return rm

    def resolve_static_method(self, ref: str) -> RuntimeMethod:
        rm = self.resolve_method_any(ref)
        if not rm.static:
            raise LinkError(f"{ref} is not static")
        return rm

    def resolve_virtual(self, ref: str) -> tuple[str, RuntimeMethod]:
        """Return (dispatch key, statically-resolved method for its shape)."""
        rm = self.resolve_method_any(ref)
        if rm.static:
            raise LinkError(f"{ref} is static, not virtual")
        return rm.key, rm

    def vtable_lookup(self, class_id: int, key: str) -> RuntimeMethod:
        rc = self.rc_by_id.get(class_id)
        if rc is None:
            raise VMError(f"virtual dispatch on non-class id {class_id}")
        rm = rc.vtable.get(key)
        if rm is None:
            raise VMError(f"no vtable entry {key} in {rc.name}")
        return rm

    # ------------------------------------------------------------------
    # layout phase

    def ensure_layout(self, name: str) -> RuntimeClass:
        rc = self.classes.get(name)
        if rc is not None:
            return rc
        cdef = self.classdefs.get(name)
        if cdef is None:
            raise LinkError(f"unknown class {name}")
        super_rc: RuntimeClass | None = None
        if cdef.super_name is not None:
            super_rc = self.ensure_layout(cdef.super_name)

        fields: list[FieldSlot] = list(super_rc.layout.instance_fields) if super_rc else []
        offset = HEADER_WORDS + len(fields)
        for fd in cdef.fields:
            if not fd.static:
                fields.append(FieldSlot(fd.name, fd.desc, offset))
                offset += 1
        layout = Layout(
            class_id=len(self.class_table),
            name=name,
            super_id=super_rc.class_id if super_rc else None,
            instance_fields=fields,
        )
        self.class_table.append(layout)
        rc = RuntimeClass(name=name, cdef=cdef, layout=layout, super_rc=super_rc)
        self.classes[name] = rc
        self.rc_by_id[layout.class_id] = rc

        static_fields = [fd for fd in cdef.fields if fd.static]
        if static_fields:
            slots = [
                FieldSlot(fd.name, fd.desc, HEADER_WORDS + i)
                for i, fd in enumerate(static_fields)
            ]
            statics_layout = Layout(
                class_id=len(self.class_table),
                name=f"Statics${name}",
                super_id=None,
                instance_fields=slots,
            )
            self.class_table.append(statics_layout)
            rc.statics_layout = statics_layout
            if self.om is not None:
                rc.statics_addr = self.om.new_object(statics_layout)

        # methods get their global ids in declaration order — this makes
        # VM_Dictionary.methods[methodId] the paper's mtable lookup.
        for mdef in cdef.methods:
            rm = RuntimeMethod(owner=rc, mdef=mdef, method_id=len(self.method_by_id))
            mdef.compute_max_locals()
            self.method_by_id.append(rm)
            rc.methods[rm.key] = rm

        rc.vtable = dict(super_rc.vtable) if super_rc else {}
        for key, rm in rc.methods.items():
            if not rm.static:
                rc.vtable[key] = rm
        return rc

    # ------------------------------------------------------------------
    # link phase

    def link(self, name: str) -> RuntimeClass:
        rc = self.ensure_layout(name)
        if rc.linked:
            return rc
        if rc.super_rc is not None and not rc.super_rc.linked:
            self.link(rc.super_rc.name)
        if rc.linked:  # super link may have recursed back
            return rc
        rc.linked = True  # set early: legal self/mutual references
        assert self.om is not None, "loader not wired to an object model"

        for rm in rc.methods.values():
            if rm.native:
                continue
            rm.maps = analyze_method(rc.name, rm.mdef, self)
            rm.code = self.compile_fn(self, rc, rm)

        self._materialize_constants(rc)
        if self.bootstrapped:
            self._materialize_class_metadata(rc)
        return rc

    def load(self, name: str) -> RuntimeClass:
        """Load *name* and everything it pulled in (layout + link closure)."""
        rc = self.link(name)
        # linking may have laid out classes it referenced; link those too,
        # in deterministic (class id) order.
        while True:
            pending = [
                c
                for c in sorted(self.classes.values(), key=lambda c: c.class_id)
                if not c.linked
            ]
            if not pending:
                break
            for c in pending:
                self.link(c.name)
        return rc

    # ------------------------------------------------------------------
    # bootstrap

    def bootstrap(self) -> None:
        """Load the core library and build the VM_Dictionary.

        Runs once per boot image (see :class:`LoaderImage`): every other
        loader of the same configuration is installed from that image.
        """
        from repro.vm.corelib import CORE_CLASS_ORDER, core_classdefs

        assert self.om is not None
        for name, cdef in core_classdefs().items():
            if name not in self.classdefs:
                self.declare(cdef)
        for name in CORE_CLASS_ORDER:
            self.ensure_layout(name)
        for name in CORE_CLASS_ORDER:
            self.link(name)
        self._init_dictionary()
        self.bootstrapped = True
        # Materialise metadata for everything loaded pre-dictionary,
        # in class-id order (deterministic).
        for layout in list(self.class_table):
            if layout.is_array:
                self._materialize_array_metadata(layout)
            elif layout.name.startswith("Statics$"):
                continue
            else:
                rc = self.classes.get(layout.name)
                if rc is not None and rc.linked:
                    self._materialize_class_metadata(rc)

    # ------------------------------------------------------------------
    # guest-heap helpers

    def _tr_push(self, addr: int) -> int:
        self.temp_roots.append(addr)
        return len(self.temp_roots) - 1

    def _tr_get(self, idx: int) -> int:
        return self.temp_roots[idx]

    def _tr_reset(self, depth: int) -> None:
        del self.temp_roots[depth:]

    def make_string(self, text: str) -> int:
        """Allocate a fresh guest String (not interned)."""
        assert self.om is not None
        om = self.om
        depth = len(self.temp_roots)
        chars = om.new_array("[I", len(text))
        ci = self._tr_push(chars)
        for i, ch in enumerate(text):
            om.array_put(self._tr_get(ci), i, ord(ch))
        s = om.new_object(self.classes["String"].layout)
        si = self._tr_push(s)
        slot = self.classes["String"].layout.field_by_name["chars"]
        om.put_field(self._tr_get(si), slot.offset, self._tr_get(ci))
        result = self._tr_get(si)
        self._tr_reset(depth)
        return result

    def intern(self, text: str) -> int:
        addr = self.interned.get(text)
        if addr is None:
            addr = self.make_string(text)
            self.interned[text] = addr
        return self.interned[text]

    def read_string(self, addr: int) -> str:
        """Host-side decode of a guest String (for output natives, tests)."""
        assert self.om is not None
        om = self.om
        slot = self.classes["String"].layout.field_by_name["chars"]
        chars = om.get_field(addr, slot.offset)
        n = om.array_length(chars)
        return "".join(chr(om.array_get(chars, i)) for i in range(n))

    def _materialize_constants(self, rc: RuntimeClass) -> None:
        """Build the per-class [LString; constant pool in the guest heap."""
        assert self.om is not None
        if not rc.cdef.strings:
            return
        om = self.om
        depth = len(self.temp_roots)
        arr = om.new_array("[LString;", len(rc.cdef.strings))
        ai = self._tr_push(arr)
        for i, text in enumerate(rc.cdef.strings):
            s = self.intern(text)
            om.array_put(self._tr_get(ai), i, s)
        rc.constants_addr = self._tr_get(ai)
        self._tr_reset(depth)

    # ------------------------------------------------------------------
    # VM_Dictionary and metadata materialisation

    def _dict_statics(self) -> tuple[RuntimeClass, Layout]:
        rc = self.classes["VM_Dictionary"]
        assert rc.statics_layout is not None
        return rc, rc.statics_layout

    def _init_dictionary(self) -> None:
        assert self.om is not None
        om = self.om
        rc, slayout = self._dict_statics()
        methods = om.new_array("[LVM_Method;", _DICT_INITIAL_CAPACITY)
        om.put_field(rc.statics_addr, slayout.field_by_name["methods"].offset, methods)
        classes = om.new_array("[LVM_Class;", _DICT_INITIAL_CAPACITY)
        om.put_field(rc.statics_addr, slayout.field_by_name["classes"].offset, classes)
        om.memory.boot_write(mem_mod.BOOT_DICTIONARY, rc.statics_addr)

    def _dict_append(self, field_name: str, count_name: str, addr: int) -> int:
        """Append *addr* to a VM_Dictionary array, growing it if needed.

        Returns the index.  Growth is itself a (deterministic) allocation —
        one of the class-loading side effects the paper's symmetry rules
        are about.
        """
        assert self.om is not None
        om = self.om
        depth = len(self.temp_roots)
        ai = self._tr_push(addr)
        rc, slayout = self._dict_statics()
        arr_off = slayout.field_by_name[field_name].offset
        cnt_off = slayout.field_by_name[count_name].offset
        count = om.get_field(rc.statics_addr, cnt_off)
        arr = om.get_field(rc.statics_addr, arr_off)
        cap = om.array_length(arr)
        if count >= cap:
            elem = "LVM_Method;" if field_name == "methods" else "LVM_Class;"
            bigger = om.new_array("[" + elem, cap * 2)
            bi = self._tr_push(bigger)
            arr = om.get_field(rc.statics_addr, arr_off)  # re-read: GC may have run
            for i in range(count):
                om.array_put(self._tr_get(bi), i, om.array_get(arr, i))
            om.put_field(rc.statics_addr, arr_off, self._tr_get(bi))
            arr = self._tr_get(bi)
        om.array_put(arr, count, self._tr_get(ai))
        om.put_field(rc.statics_addr, cnt_off, count + 1)
        self._tr_reset(depth)
        return count

    def _materialize_class_metadata(self, rc: RuntimeClass) -> None:
        assert self.om is not None
        om = self.om
        vmc_rc = self.classes["VM_Class"]
        fb = vmc_rc.layout.field_by_name
        depth = len(self.temp_roots)

        vmc = om.new_object(vmc_rc.layout)
        ci = self._tr_push(vmc)
        name_s = self.intern(rc.name)
        om.put_field(self._tr_get(ci), fb["name"].offset, name_s)
        om.put_field(self._tr_get(ci), fb["classId"].offset, rc.class_id)
        om.put_field(
            self._tr_get(ci),
            fb["superId"].offset,
            rc.super_rc.class_id if rc.super_rc else -1,
        )
        om.put_field(self._tr_get(ci), fb["statics"].offset, rc.statics_addr)

        own = sorted(rc.methods.values(), key=lambda rm: rm.method_id)
        marr = om.new_array("[LVM_Method;", len(own))
        mi = self._tr_push(marr)
        om.put_field(self._tr_get(ci), fb["methods"].offset, self._tr_get(mi))
        for i, rm in enumerate(own):
            vmm = self._materialize_method_metadata(rm, ci)
            vi = self._tr_push(vmm)
            om.array_put(self._tr_get(mi), i, self._tr_get(vi))
            self._dict_append("methods", "methodCount", self._tr_get(vi))

        self._dict_append("classes", "classCount", self._tr_get(ci))
        self._tr_reset(depth)
        if rc.statics_layout is not None:
            self._materialize_synthetic_metadata(
                rc.statics_layout, super_id=-1
            )

    def _materialize_method_metadata(self, rm: RuntimeMethod, class_ti: int) -> int:
        assert self.om is not None
        om = self.om
        vmm_rc = self.classes["VM_Method"]
        fb = vmm_rc.layout.field_by_name
        depth = len(self.temp_roots)

        vmm = om.new_object(vmm_rc.layout)
        vi = self._tr_push(vmm)
        om.put_field(self._tr_get(vi), fb["name"].offset, self.intern(rm.mdef.name))
        om.put_field(
            self._tr_get(vi),
            fb["descriptor"].offset,
            self.intern(rm.mdef.signature.spell()),
        )
        om.put_field(self._tr_get(vi), fb["declaring"].offset, self._tr_get(class_ti))
        om.put_field(self._tr_get(vi), fb["methodId"].offset, rm.method_id)
        n = len(rm.mdef.code)
        om.put_field(self._tr_get(vi), fb["codeSize"].offset, n)
        lt = om.new_array("[I", n)
        li = self._tr_push(lt)
        for bci, line in rm.mdef.line_table.items():
            if 0 <= bci < n:
                om.array_put(self._tr_get(li), bci, line)
        om.put_field(self._tr_get(vi), fb["lineTable"].offset, self._tr_get(li))
        result = self._tr_get(vi)
        self._tr_reset(depth)
        return result

    def _materialize_array_metadata(self, layout: Layout) -> None:
        """Array classes get VM_Class entries too, so a remote debugger can
        map any class id it reads out of a header back to a type."""
        self._materialize_synthetic_metadata(
            layout, super_id=self.classes["Object"].class_id
        )

    def _materialize_synthetic_metadata(self, layout: Layout, super_id: int) -> None:
        """A minimal VM_Class entry for a layout with no ClassDef (arrays,
        statics holders) — every class id in an object header must be
        resolvable through the remote dictionary."""
        assert self.om is not None
        om = self.om
        vmc_rc = self.classes["VM_Class"]
        fb = vmc_rc.layout.field_by_name
        depth = len(self.temp_roots)
        vmc = om.new_object(vmc_rc.layout)
        ci = self._tr_push(vmc)
        om.put_field(self._tr_get(ci), fb["name"].offset, self.intern(layout.name))
        om.put_field(self._tr_get(ci), fb["classId"].offset, layout.class_id)
        om.put_field(self._tr_get(ci), fb["superId"].offset, super_id)
        self._dict_append("classes", "classCount", self._tr_get(ci))
        self._tr_reset(depth)

    # ------------------------------------------------------------------
    # GC support

    def visit_roots(self, fwd: Callable[[int], int]) -> None:
        """Forward every heap address the loader holds host-side."""
        for rc in sorted(self.classes.values(), key=lambda c: c.class_id):
            if rc.statics_addr:
                rc.statics_addr = fwd(rc.statics_addr)
            if rc.constants_addr:
                rc.constants_addr = fwd(rc.constants_addr)
        for text in list(self.interned):
            self.interned[text] = fwd(self.interned[text])
        for i, addr in enumerate(self.temp_roots):
            if addr:
                self.temp_roots[i] = fwd(addr)


# ----------------------------------------------------------------------
# boot image


def _copy_tables(src: Loader, dst: Loader) -> None:
    """Give *dst* a copy of *src*'s tables that shares no mutable object.

    Shared (immutable once booted): ClassDef, MethodDef, CodeMaps,
    Layout and MachineCode, whose operands name loader objects by index.
    Copied: RuntimeClass, RuntimeMethod (with no bound handler table),
    and every dict and list of the loader.
    """
    rcs: dict[str, RuntimeClass] = {
        name: RuntimeClass(
            name=rc.name,
            cdef=rc.cdef,
            layout=rc.layout,
            super_rc=None,
            statics_layout=rc.statics_layout,
            statics_addr=rc.statics_addr,
            constants_addr=rc.constants_addr,
            linked=rc.linked,
        )
        for name, rc in src.classes.items()
    }
    # positional: keyword arguments cost ~1.5x, once per method per VM
    methods = [
        RuntimeMethod(rcs[rm.owner.name], rm.mdef, rm.method_id, rm.maps, rm.code)
        for rm in src.method_by_id
    ]
    for rc in src.classes.values():
        new = rcs[rc.name]
        if rc.super_rc is not None:
            new.super_rc = rcs[rc.super_rc.name]
        new.methods = {key: methods[rm.method_id] for key, rm in rc.methods.items()}
        new.vtable = {key: methods[rm.method_id] for key, rm in rc.vtable.items()}

    dst.classdefs = dict(src.classdefs)
    dst.classes = rcs
    dst.class_table = list(src.class_table)
    dst.rc_by_id = {cid: rcs[rc.name] for cid, rc in src.rc_by_id.items()}
    dst.array_layouts = dict(src.array_layouts)
    dst.method_by_id = methods
    dst.interned = dict(src.interned)
    dst.temp_roots = list(src.temp_roots)
    dst.bootstrapped = src.bootstrapped


class LoaderImage:
    """The loader tables of a VM that just booted (or just loaded a
    program unit on top of a boot image), kept pristine.

    :meth:`capture` copies the loader into a detached template (no
    object model, never linked against again); :meth:`install` copies
    the template into a new loader.  Both are :func:`_copy_tables`, so a
    loader installed from the image holds exactly what a fresh
    ``bootstrap()`` (and load) would have built — and installing never
    mutates the template, so concurrent installs need no lock.
    """

    def __init__(self, template: Loader):
        self.template = template

    @classmethod
    def capture(cls, booted: Loader) -> "LoaderImage":
        template = Loader(compile_fn=None)  # type: ignore[arg-type] - never compiles
        _copy_tables(booted, template)
        return cls(template)

    def install(self, loader: Loader) -> None:
        _copy_tables(self.template, loader)
