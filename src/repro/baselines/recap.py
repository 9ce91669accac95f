"""Recap (Pan & Linton): capture every read of shared memory.

"Recap ... handles non-determinism in multithreaded applications by
capturing the effect of every read of shared memory locations, which is
quite expensive."  We reproduce the scheme with a **bytecode-rewriting
pass**: every instruction that reads potentially-shared int data
(``getfield``/``getstatic`` of int fields, ``iaload``) is suffixed with a
call to a value-logging native, ``Recap.read(I)I`` — identity in record
mode, with the value recorded; substituted from the log in replay mode.

Riding on the same record/replay carrier as DejaVu keeps the comparison
honest: the *delta* between a Recap trace and a DejaVu trace for the same
execution is exactly the cost of read logging, and the *overhead* delta
is exactly the inserted instrumentation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.api import GuestProgram, RecordedRun, record, replay
from repro.core.tracelog import TraceLog
from repro.vm.builder import ClassBuilder
from repro.vm.bytecode import Instr, Op, OPERAND_KIND, OperandKind
from repro.vm.classfile import ClassDef
from repro.vm.corelib import core_classdefs
from repro.vm.errors import VMError
from repro.vm.machine import _DEFAULT, VMConfig
from repro.vm.refmaps import field_ref, split_field_ref
from repro.vm.scheduler_types import RunResult

_READ_NATIVE = "Recap.read(I)I"


def _recap_classdef() -> ClassDef:
    cb = ClassBuilder("Recap")
    cb.native_method("read", "(I)I")
    return cb.build()


def _read_native(ctx):
    """Identity — the record/replay machinery does the capturing."""
    return ctx.arg(0)


def _int_field_index(classdefs: list[ClassDef]) -> dict[tuple[str, str], str]:
    """(class, field) -> descriptor over the whole program + core library."""
    index: dict[tuple[str, str], str] = {}
    universe = list(core_classdefs().values()) + classdefs
    for cd in universe:
        for fd in cd.fields:
            index[(cd.name, fd.name)] = fd.desc
    return index


def _field_is_int(index, classdefs, ref: str) -> bool:
    cls, fld = split_field_ref(ref)
    # walk the (single-inheritance) super chain in the classdef universe
    by_name = {cd.name: cd for cd in list(core_classdefs().values()) + classdefs}
    walk = cls
    while walk is not None:
        desc = index.get((walk, fld))
        if desc is not None:
            return desc == "I"
        cd = by_name.get(walk)
        walk = cd.super_name if cd is not None else None
    return False  # unresolved here: the loader will complain later anyway


def recap_transform(program: GuestProgram) -> GuestProgram:
    """Insert a ``Recap.read`` call after every shared-int read."""
    if any(cd.name == "Recap" for cd in program.classdefs):
        raise VMError("program already defines a class named Recap")
    index = _int_field_index(program.classdefs)
    new_defs: list[ClassDef] = []
    for cd in program.classdefs:
        cd = copy.deepcopy(cd)
        for m in cd.methods:
            if m.native:
                continue
            _transform_method(m, index, program.classdefs)
        new_defs.append(cd)
    new_defs.append(_recap_classdef())
    return GuestProgram(
        classdefs=new_defs,
        main=program.main,
        natives=list(program.natives) + [(_READ_NATIVE, lambda: _read_native, True)],
        name=program.name + "+recap",
    )


def _transform_method(m, index, classdefs) -> None:
    insert_after: set[int] = set()
    for bci, instr in enumerate(m.code):
        if instr.op is Op.IALOAD:
            insert_after.add(bci)
        elif instr.op in (Op.GETFIELD, Op.GETSTATIC):
            ref, _ = field_ref(instr.arg)
            if _field_is_int(index, classdefs, ref):
                insert_after.add(bci)
    if not insert_after:
        m.compute_max_locals()
        return

    new_code: list[Instr] = []
    new_lines: dict[int, int] = {}
    remap: list[int] = []
    for bci, instr in enumerate(m.code):
        remap.append(len(new_code))
        new_code.append(instr)
        if bci in m.line_table:
            new_lines[len(new_code) - 1] = m.line_table[bci]
        if bci in insert_after:
            new_code.append(Instr(Op.INVOKESTATIC, _READ_NATIVE))
    for i, instr in enumerate(new_code):
        if OPERAND_KIND[instr.op] is OperandKind.TARGET:
            new_code[i] = Instr(instr.op, remap[int(instr.arg)])
    m.code = new_code
    m.line_table = new_lines
    m.compute_max_locals()


@dataclass
class RecapSession:
    result: RunResult
    trace: TraceLog
    read_records: int
    transformed: GuestProgram


def recap_record(
    program: GuestProgram,
    *,
    config: VMConfig | None = None,
    timer=_DEFAULT,
    clock=None,
    env=None,
    symmetry=None,
) -> RecapSession:
    transformed = recap_transform(program)
    session: RecordedRun = record(
        transformed, config=config, timer=timer, clock=clock, env=env, symmetry=symmetry
    )
    return RecapSession(
        result=session.result,
        trace=session.trace,
        read_records=session.stats.get("native_records", 0),
        transformed=transformed,
    )


def recap_replay(
    session: RecapSession, *, config: VMConfig | None = None, symmetry=None
) -> RunResult:
    return replay(session.transformed, session.trace, config=config, symmetry=symmetry)
