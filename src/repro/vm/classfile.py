"""Class-file model: the loader-facing representation of guest classes.

A :class:`ClassDef` is the unit the assembler and builder produce and the
loader consumes.  All references between classes are symbolic; resolution
happens at link time (see :mod:`repro.vm.loader`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.vm.bytecode import Instr, Op, OPERAND_KIND, OperandKind
from repro.vm.descriptors import Signature, validate
from repro.vm.errors import VMError


@dataclass
class FieldDef:
    """A field declaration.  ``static`` fields live in the class's static
    area; instance fields are laid out after the object header."""

    name: str
    desc: str
    static: bool = False

    def __post_init__(self) -> None:
        validate(self.desc)


@dataclass
class MethodDef:
    """A method declaration plus (for non-native methods) its bytecode."""

    name: str
    signature: Signature
    code: list[Instr] = field(default_factory=list)
    static: bool = False
    native: bool = False
    #: bci -> source line, for the line tables exposed through reflection.
    line_table: dict[int, int] = field(default_factory=dict)
    max_locals: int = 0

    @property
    def key(self) -> str:
        """Overload-resolving key: ``name(sig)ret``."""
        return f"{self.name}{self.signature.spell()}"

    def compute_max_locals(self) -> int:
        """Locals frame size: parameters (plus ``this``) and every slot used."""
        nargs = self.signature.nargs + (0 if self.static else 1)
        high = nargs
        for instr in self.code:
            kind = OPERAND_KIND[instr.op]
            if kind is OperandKind.LOCAL:
                high = max(high, int(instr.arg) + 1)  # type: ignore[arg-type]
            elif kind is OperandKind.LOCAL_INT:
                slot, _ = instr.arg  # type: ignore[misc]
                high = max(high, int(slot) + 1)
        self.max_locals = high
        return high


@dataclass
class ClassDef:
    """A guest class: fields, methods, string constants, superclass name."""

    name: str
    super_name: str | None = "Object"
    fields: list[FieldDef] = field(default_factory=list)
    methods: list[MethodDef] = field(default_factory=list)
    #: String constant pool; LDC operands index into this list.
    strings: list[str] = field(default_factory=list)
    source: str | None = None

    def __post_init__(self) -> None:
        if self.name == "Object":
            self.super_name = None

    def field_def(self, name: str) -> FieldDef:
        for f in self.fields:
            if f.name == name:
                return f
        raise VMError(f"no field {name!r} in class {self.name}")

    def method_def(self, key: str) -> MethodDef:
        """Look up a method by overload key or (if unambiguous) bare name."""
        matches = [m for m in self.methods if m.key == key or m.name == key]
        if not matches:
            raise VMError(f"no method {key!r} in class {self.name}")
        if len(matches) > 1:
            exact = [m for m in matches if m.key == key]
            if len(exact) == 1:
                return exact[0]
            raise VMError(f"ambiguous method {key!r} in class {self.name}")
        return matches[0]

    def intern_string(self, text: str) -> int:
        """Add *text* to the constant pool (dedup); return its index."""
        try:
            return self.strings.index(text)
        except ValueError:
            self.strings.append(text)
            return len(self.strings) - 1


def content_digest(classdefs: list[ClassDef]) -> str:
    """A digest of everything the loader reads from *classdefs*, in order:
    equal digests load to equal classes, heap words and compiled code."""
    h = hashlib.blake2b(digest_size=16)
    for cd in classdefs:
        fields = [(f.name, f.desc, f.static) for f in cd.fields]
        methods = [
            (m.name, m.signature.spell(), m.static, m.native, m.max_locals,
             m.code, sorted(m.line_table.items()))
            for m in cd.methods
        ]
        h.update(repr((cd.name, cd.super_name, cd.source, fields, methods, cd.strings)).encode())
    return h.hexdigest()


def validate_classdef(cd: ClassDef) -> None:
    """Structural checks that don't need other classes (link checks later)."""
    seen_fields: set[str] = set()
    for f in cd.fields:
        if f.name in seen_fields:
            raise VMError(f"duplicate field {f.name!r} in class {cd.name}")
        seen_fields.add(f.name)
    seen_methods: set[str] = set()
    for m in cd.methods:
        if m.key in seen_methods:
            raise VMError(f"duplicate method {m.key!r} in class {cd.name}")
        seen_methods.add(m.key)
        if m.native:
            if m.code:
                raise VMError(f"native method {cd.name}.{m.key} has code")
            continue
        n = len(m.code)
        if n == 0:
            raise VMError(f"method {cd.name}.{m.key} has empty body")
        for bci, instr in enumerate(m.code):
            kind = OPERAND_KIND[instr.op]
            if kind is OperandKind.TARGET:
                target = int(instr.arg)  # type: ignore[arg-type]
                if not (0 <= target < n):
                    raise VMError(
                        f"branch target {target} out of range in {cd.name}.{m.key}@{bci}"
                    )
            elif kind is OperandKind.STRING:
                idx = int(instr.arg)  # type: ignore[arg-type]
                if not (0 <= idx < len(cd.strings)):
                    raise VMError(
                        f"string index {idx} out of range in {cd.name}.{m.key}@{bci}"
                    )
        last = m.code[-1].op
        if last not in (Op.RETURN, Op.IRETURN, Op.ARETURN, Op.GOTO):
            raise VMError(
                f"method {cd.name}.{m.key} can fall off the end (last op {last.name})"
            )
