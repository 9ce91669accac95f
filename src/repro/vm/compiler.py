"""The baseline compiler: bytecode → machine code (micro-ops).

Like Jalapeño's baseline compiler, this pass translates each bytecode into
a short, fully resolved machine sequence and — the paper's central
"cross-optimization" property — *inlines yield points into the compiled
code*: one in every method prologue and one before every backward branch
(loop backedge).  When DejaVu is attached, the yield-point micro-op IS the
record/replay instrumentation site of Figure 2; there is no separate
instrumentation layer that could be compiled differently between modes.

Machine code is a tuple of ``(mop, a, b)`` tuples dispatched by the
engine in :mod:`repro.vm.interp`.  Symbolic operands are resolved at
compile time to offsets, vtable keys, or indices into the compiling
loader's tables — a class id, a method id — which the engine turns into
that VM's objects when it binds a method.  Compiled code therefore holds
no loader object, and one :class:`MachineCode` serves every VM installed
from an image.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.vm import words
from repro.vm.bytecode import BRANCHES, Instr, Op
from repro.vm.engineconfig import EngineConfig
from repro.vm.errors import VMError, VMTrap
from repro.vm.refmaps import field_ref
from repro.vm.words import I32_MAX, I32_MIN

# -- micro-op codes ----------------------------------------------------------

M_NOP = 0
M_ICONST = 1
M_LDC = 2
M_ACONST_NULL = 3
M_DUP = 4
M_POP = 5
M_SWAP = 6
M_ILOAD = 7
M_ISTORE = 8
M_ALOAD = 9
M_ASTORE = 10
M_IINC = 11

M_IADD = 12
M_ISUB = 13
M_IMUL = 14
M_IDIV = 15
M_IREM = 16
M_INEG = 17
M_ISHL = 18
M_ISHR = 19
M_IUSHR = 20
M_IAND = 21
M_IOR = 22
M_IXOR = 23

M_GOTO = 24
M_IFEQ = 25
M_IFNE = 26
M_IFLT = 27
M_IFLE = 28
M_IFGT = 29
M_IFGE = 30
M_IF_ICMPEQ = 31
M_IF_ICMPNE = 32
M_IF_ICMPLT = 33
M_IF_ICMPLE = 34
M_IF_ICMPGT = 35
M_IF_ICMPGE = 36
M_IF_ACMPEQ = 37
M_IF_ACMPNE = 38
M_IFNULL = 39
M_IFNONNULL = 40

M_NEW = 41
M_GETFIELD = 42
M_PUTFIELD = 43
M_GETSTATIC = 44
M_PUTSTATIC = 45
M_NEWARRAY = 46
M_ANEWARRAY = 47
M_IALOAD = 48
M_IASTORE = 49
M_AALOAD = 50
M_AASTORE = 51
M_ARRAYLENGTH = 52
M_INSTANCEOF = 53
M_CHECKCAST = 54

M_INVOKESTATIC = 55
M_INVOKEVIRTUAL = 56
M_RETURN = 57
M_IRETURN = 58
M_ARETURN = 59

M_MONITORENTER = 60
M_MONITOREXIT = 61

M_YIELDPOINT = 62

# -- fused micro-ops (superinstructions) -------------------------------------
#
# Emitted only into the *executable* program (``MachineCode.xops``) by the
# peephole pass below; the canonical listing ``MachineCode.ops`` never
# contains them.  Each fused op charges exactly as many cycles as the
# micro-ops it replaces (its span of ``xstart``).  Legality rules:
#
#   * a group never contains an *interior* yield point (logical clocks
#     are sacred); the one exception is :data:`F_YP_GROUP`, whose
#     terminal op IS a yield point — the group carries its own cycle and
#     yield accounting so the controller observes the yield point at the
#     exact canonical cycle and pc it would have unfused;
#   * no interior op of a group is a branch target (control can only
#     enter at the group head);
#   * only the *terminal* op of a group may trap or branch — so a trap
#     charges the same cycles fused or unfused, and partial execution of
#     a group is impossible;
#   * no op of a group allocates, invokes, returns, or touches monitors
#     (safe points and scheduling points keep their exact positions).

F_PUSH2 = 70  # a=(s1, s2)           two local loads
F_PUSH_LC = 71  # a=(slot, const)      local load + iconst
F_CONST_STORE = 72  # a=(const, slot)      iconst + store
F_MOVE = 73  # a=(src, dst)         local-to-local copy
F_LL_BIN = 74  # a=(s1, s2), b=fn     load, load, binop
F_LC_BIN = 75  # a=(slot, const), b=fn
F_C_BIN = 76  # a=const, b=fn        iconst + binop against stack top
F_BIN_STORE = 77  # a=slot, b=fn         binop + store
F_LL_CMPBR = 78  # a=(s1, s2), b=(cmp, target)
F_LC_CMPBR = 79  # a=(slot, const), b=(cmp, target)
F_SL_CMPBR = 80  # a=slot, b=(cmp, target)   stack top vs local
F_SC_CMPBR = 81  # a=const, b=(cmp, target)  stack top vs const
F_L_BR = 82  # a=slot, b=(test, target)  local load + unary branch
F_AL_GETFIELD = 83  # a=(slot, offset)     aload + getfield
F_ALL_PUTFIELD = 85  # a=(objslot, valslot), b=offset
F_ALC_PUTFIELD = 86  # a=(objslot, const), b=offset
F_ALL_ALOAD = 87  # a=(arrslot, idxslot) load, load, array element load
F_YP_GROUP = 89  # a=tag, b=(pre_fn, n_pre)   pure ops + terminal yield point

#: yield-point location tags (carried so tests/traces can tell them apart)
YP_PROLOGUE = 0
YP_BACKEDGE = 1

_SIMPLE = {
    Op.NOP: M_NOP,
    Op.ACONST_NULL: M_ACONST_NULL,
    Op.DUP: M_DUP,
    Op.POP: M_POP,
    Op.SWAP: M_SWAP,
    Op.IADD: M_IADD,
    Op.ISUB: M_ISUB,
    Op.IMUL: M_IMUL,
    Op.IDIV: M_IDIV,
    Op.IREM: M_IREM,
    Op.INEG: M_INEG,
    Op.ISHL: M_ISHL,
    Op.ISHR: M_ISHR,
    Op.IUSHR: M_IUSHR,
    Op.IAND: M_IAND,
    Op.IOR: M_IOR,
    Op.IXOR: M_IXOR,
    Op.NEWARRAY: M_NEWARRAY,
    Op.IALOAD: M_IALOAD,
    Op.IASTORE: M_IASTORE,
    Op.AALOAD: M_AALOAD,
    Op.AASTORE: M_AASTORE,
    Op.ARRAYLENGTH: M_ARRAYLENGTH,
    Op.RETURN: M_RETURN,
    Op.IRETURN: M_IRETURN,
    Op.ARETURN: M_ARETURN,
    Op.MONITORENTER: M_MONITORENTER,
    Op.MONITOREXIT: M_MONITOREXIT,
}

_BRANCH = {
    Op.GOTO: M_GOTO,
    Op.IFEQ: M_IFEQ,
    Op.IFNE: M_IFNE,
    Op.IFLT: M_IFLT,
    Op.IFLE: M_IFLE,
    Op.IFGT: M_IFGT,
    Op.IFGE: M_IFGE,
    Op.IF_ICMPEQ: M_IF_ICMPEQ,
    Op.IF_ICMPNE: M_IF_ICMPNE,
    Op.IF_ICMPLT: M_IF_ICMPLT,
    Op.IF_ICMPLE: M_IF_ICMPLE,
    Op.IF_ICMPGT: M_IF_ICMPGT,
    Op.IF_ICMPGE: M_IF_ICMPGE,
    Op.IF_ACMPEQ: M_IF_ACMPEQ,
    Op.IF_ACMPNE: M_IF_ACMPNE,
    Op.IFNULL: M_IFNULL,
    Op.IFNONNULL: M_IFNONNULL,
}

#: fixed per-frame overhead charged against the thread stack, in words
#: (saved pc, method pointer, monitor bookkeeping, spill margin).
FRAME_OVERHEAD_WORDS = 6


# -- superinstruction fusion -------------------------------------------------


def idiv_trapping(x: int, y: int) -> int:
    try:
        return words.idiv(x, y)
    except ZeroDivisionError:
        raise VMTrap("ArithmeticDivByZero") from None


def irem_trapping(x: int, y: int) -> int:
    try:
        return words.irem(x, y)
    except ZeroDivisionError:
        raise VMTrap("ArithmeticDivByZero") from None


#: binops fusable as a group terminal (division traps, which is legal
#: terminally — the whole group is charged before the trap either way).
BIN_FNS = {
    M_IADD: words.iadd,
    M_ISUB: words.isub,
    M_IMUL: words.imul,
    M_IDIV: idiv_trapping,
    M_IREM: irem_trapping,
    M_ISHL: words.ishl,
    M_ISHR: words.ishr,
    M_IUSHR: words.iushr,
    M_IAND: words.iand,
    M_IOR: words.ior,
    M_IXOR: words.ixor,
}

#: two-operand compare-and-branch predicates (acmp compares addresses,
#: which are plain ints here, so the int predicates serve both).
CMP2_FNS = {
    M_IF_ICMPEQ: operator.eq,
    M_IF_ICMPNE: operator.ne,
    M_IF_ICMPLT: operator.lt,
    M_IF_ICMPLE: operator.le,
    M_IF_ICMPGT: operator.gt,
    M_IF_ICMPGE: operator.ge,
    M_IF_ACMPEQ: operator.eq,
    M_IF_ACMPNE: operator.ne,
}


def _eq0(x: int) -> bool:
    return x == 0


def _ne0(x: int) -> bool:
    return x != 0


def _lt0(x: int) -> bool:
    return x < 0


def _le0(x: int) -> bool:
    return x <= 0


def _gt0(x: int) -> bool:
    return x > 0


def _ge0(x: int) -> bool:
    return x >= 0


CMP1_FNS = {
    M_IFEQ: _eq0,
    M_IFNE: _ne0,
    M_IFLT: _lt0,
    M_IFLE: _le0,
    M_IFGT: _gt0,
    M_IFGE: _ge0,
    M_IFNULL: _eq0,
    M_IFNONNULL: _ne0,
}

_BRANCH_MOPS = frozenset(_BRANCH.values())
_FUSED_BRANCH_MOPS = frozenset((F_LL_CMPBR, F_LC_CMPBR, F_SL_CMPBR, F_SC_CMPBR, F_L_BR))
_LOADS = (M_ILOAD, M_ALOAD)
_STORES = (M_ISTORE, M_ASTORE)


def _match_group(ops: list, i: int, n: int, targets: frozenset):
    """Longest fusable group starting at *i*, or None.

    Returns ``((mop, a, b), width)``.  Greedy: triples before pairs.
    Interior positions must not be branch targets; the pattern tables
    guarantee only terminal ops may trap or branch.
    """
    m0, a0, _ = ops[i]
    if m0 in _LOADS:
        if i + 1 >= n or (i + 1) in targets:
            return None
        m1, a1, _ = ops[i + 1]
        if (m1 in _LOADS or m1 == M_ICONST) and i + 2 < n and (i + 2) not in targets:
            m2, a2, _ = ops[i + 2]
            fn = BIN_FNS.get(m2)
            if fn is not None:
                return ((F_LL_BIN if m1 != M_ICONST else F_LC_BIN, (a0, a1), fn), 3)
            fn = CMP2_FNS.get(m2)
            if fn is not None:
                mop = F_LL_CMPBR if m1 != M_ICONST else F_LC_CMPBR
                return ((mop, (a0, a1), (fn, a2)), 3)
            if m2 == M_PUTFIELD and m0 == M_ALOAD:
                mop = F_ALL_PUTFIELD if m1 != M_ICONST else F_ALC_PUTFIELD
                return ((mop, (a0, a1), a2), 3)
            if (m2 == M_IALOAD or m2 == M_AALOAD) and m1 != M_ICONST:
                return ((F_ALL_ALOAD, (a0, a1), None), 3)
        if m1 in _LOADS:
            return ((F_PUSH2, (a0, a1), None), 2)
        if m1 == M_ICONST:
            return ((F_PUSH_LC, (a0, a1), None), 2)
        if m1 in _STORES:
            return ((F_MOVE, (a0, a1), None), 2)
        if m1 == M_GETFIELD and m0 == M_ALOAD:
            return ((F_AL_GETFIELD, (a0, a1), None), 2)
        fn = CMP2_FNS.get(m1)
        if fn is not None:
            return ((F_SL_CMPBR, a0, (fn, a1)), 2)
        fn = CMP1_FNS.get(m1)
        if fn is not None:
            return ((F_L_BR, a0, (fn, a1)), 2)
        return None
    if m0 == M_ICONST:
        if i + 1 >= n or (i + 1) in targets:
            return None
        m1, a1, _ = ops[i + 1]
        if m1 in _STORES:
            return ((F_CONST_STORE, (a0, a1), None), 2)
        fn = BIN_FNS.get(m1)
        if fn is not None:
            return ((F_C_BIN, a0, fn), 2)
        fn = CMP2_FNS.get(m1)
        if fn is not None:
            return ((F_SC_CMPBR, a0, (fn, a1)), 2)
        return None
    fn = BIN_FNS.get(m0)
    if fn is not None:
        if i + 1 < n and (i + 1) not in targets:
            m1, a1, _ = ops[i + 1]
            if m1 in _STORES:
                return ((F_BIN_STORE, a1, fn), 2)
        return None
    return None


#: ops pure enough to ride in front of a yield point: no traps, no
#: branches, no heap access, no allocation — replaying the prefix is
#: indistinguishable from executing it unfused.
_YP_PURE = (M_ILOAD, M_ALOAD, M_ICONST, M_IINC)
_MAX_YP_PREFIX = 3


def _yp_prefix_fn(pre: list):
    """Executor closure for the pure ops preceding a fused yield point.

    The one prefix programs form is a lone ``iinc`` (a loop counter bumped
    just before its backedge), which gets its own closure; anything else
    falls back to a generic loop.  Both mutate ``stack``/``locals_``
    exactly as the unfused micro-ops would.
    """
    to_i32 = words.to_i32
    if len(pre) == 1 and pre[0][0] == M_IINC:
        _, a0, b0 = pre[0]

        def h(stack, locals_):
            v = locals_[a0] + b0
            locals_[a0] = v if I32_MIN <= v <= I32_MAX else to_i32(v)
        return h

    def h(stack, locals_):
        for m, a, b in pre:
            if m == M_ICONST:
                stack.append(a)
            elif m == M_IINC:
                v = locals_[a] + b
                locals_[a] = v if I32_MIN <= v <= I32_MAX else to_i32(v)
            else:
                stack.append(locals_[a])
    return h


def _match_yp_group(ops: list, i: int, n: int, targets: frozenset):
    """Record-aware group: up to :data:`_MAX_YP_PREFIX` pure ops ending
    at a yield point, or None.

    Matched *before* the ordinary pattern tables so instrumented yield
    points stop breaking fusion around loop heads and backedges.  The
    yield point itself is the group terminal; interior positions (and
    the yield point) must not be branch targets — the compiler never
    makes a yield point a target, but the pure ops in front could be.
    """
    if ops[i][0] not in _YP_PURE:
        return None
    j = i
    while j < n and j - i < _MAX_YP_PREFIX and ops[j][0] in _YP_PURE:
        j += 1
    if j >= n or ops[j][0] != M_YIELDPOINT:
        return None
    for k in range(i + 1, j + 1):
        if k in targets:
            return None
    pre = ops[i:j]
    tag = ops[j][1]
    return ((F_YP_GROUP, tag, (_yp_prefix_fn(pre), j - i)), j - i + 1)


def _fuse(ops: tuple, bci_of: tuple) -> tuple:
    """The fused executable program of *ops*: ``(xops, xbci_of,
    xstart, fused_groups)``.

    Branch targets (which, by legality, can only name group heads) are
    remapped from canonical to executable pc space at the end.
    """
    n = len(ops)
    targets = set()
    for mop, a, _ in ops:
        if mop in _BRANCH_MOPS:
            targets.add(a)
    targets = frozenset(targets)

    xops: list[tuple] = []
    xbci: list[int] = []
    xstart: list[int] = []
    old2new = [-1] * (n + 1)
    groups = 0
    i = 0
    while i < n:
        old2new[i] = len(xops)
        xstart.append(i)
        match = _match_yp_group(ops, i, n, targets)
        if match is None:
            match = _match_group(ops, i, n, targets)
        if match is None:
            xops.append(ops[i])
            xbci.append(bci_of[i])
            i += 1
        else:
            (mop, a, b), width = match
            xops.append((mop, a, b))
            xbci.append(bci_of[i])
            groups += 1
            i += width

    for idx, (mop, a, b) in enumerate(xops):
        if mop in _BRANCH_MOPS:
            assert old2new[a] >= 0, "branch into the interior of a fused group"
            xops[idx] = (mop, old2new[a], b)
        elif mop in _FUSED_BRANCH_MOPS:
            fn, t = b
            assert old2new[t] >= 0, "branch into the interior of a fused group"
            xops[idx] = (mop, a, (fn, old2new[t]))

    xstart.append(n)
    return tuple(xops), tuple(xbci), tuple(xstart), groups


@dataclass(frozen=True)
class MachineCode:
    """Compiled body of one method; immutable, so every VM installed from
    an image shares it (a VM's handler table lives on its
    :class:`~repro.vm.loader.RuntimeMethod`).

    ``ops`` is the *canonical* (unfused) micro-op listing — disasm, the
    invariant tests, and every per-bci artifact (reference maps, line
    numbers) are defined against it.  The engine executes the derived
    *executable* program ``xops`` instead, which the peephole pass may
    have rewritten with superinstructions; without fusion the executable
    program simply aliases the canonical one.  Frame pcs are executable
    pcs, so ``xbci_of`` (not ``bci_of``) maps a live frame to its bci.
    """

    qualname: str
    ops: tuple
    #: machine pc -> bytecode index (for GC maps, line numbers, debugger)
    bci_of: tuple
    #: bytecode index -> first machine pc
    pc_of_bci: tuple
    nlocals: int
    max_stack: int
    frame_words: int
    n_yieldpoints: int
    #: executable program (fused); aliases ops/bci_of when fusion is off
    xops: tuple
    xbci_of: tuple
    #: executable pc -> first canonical pc of the ops it stands for, plus
    #: ``len(ops)`` at the end: op ``pc`` runs canonical ops
    #: ``xstart[pc]:xstart[pc + 1]`` and charges that many cycles
    xstart: tuple | range
    #: number of superinstructions emitted (static count)
    fused_groups: int


def compile_method(loader, rc, rm, config: EngineConfig | None = None) -> MachineCode:
    """Baseline-compile *rm* of class *rc* (the loader's ``compile_fn``)."""
    mdef = rm.mdef
    if mdef.native:
        raise VMError(f"cannot compile native method {rm.qualname}")
    assert rm.maps is not None, "verify before compiling"

    ops: list[tuple] = []
    bci_of: list[int] = []

    def emit(bci: int, mop: int, a: object = None, b: object = None) -> None:
        ops.append((mop, a, b))
        bci_of.append(bci)

    # method-prologue yield point (Jalapeño puts one in every prologue)
    emit(0, M_YIELDPOINT, YP_PROLOGUE)
    n_yieldpoints = 1

    fixups: list[tuple[int, int]] = []  # (machine pc, target bci)
    pc_of_bci = [0] * len(mdef.code)

    for bci, instr in enumerate(mdef.code):
        # a backward branch gets a yield point in front of it (loop backedge)
        if instr.op in BRANCHES and int(instr.arg) <= bci:  # type: ignore[arg-type]
            emit(bci, M_YIELDPOINT, YP_BACKEDGE)
            n_yieldpoints += 1
        pc_of_bci[bci] = len(ops)
        _translate(loader, rc, instr, bci, ops, emit, fixups)

    for pc, target_bci in fixups:
        mop, _, b = ops[pc]
        ops[pc] = (mop, pc_of_bci[target_bci], b)

    canonical, bcis = tuple(ops), tuple(bci_of)
    if config is not None and config.fusion:
        xops, xbci_of, xstart, fused = _fuse(canonical, bcis)
    else:
        xops, xbci_of, xstart, fused = canonical, bcis, range(len(canonical) + 1), 0
    max_stack = rm.maps.max_stack
    return MachineCode(
        qualname=rm.qualname, ops=canonical, bci_of=bcis, pc_of_bci=tuple(pc_of_bci),
        nlocals=mdef.max_locals, max_stack=max_stack,
        frame_words=mdef.max_locals + max_stack + FRAME_OVERHEAD_WORDS,
        n_yieldpoints=n_yieldpoints, xops=xops, xbci_of=xbci_of, xstart=xstart,
        fused_groups=fused,
    )


def _translate(loader, rc, instr: Instr, bci: int, ops: list, emit, fixups) -> None:
    op = instr.op
    mop = _SIMPLE.get(op)
    if mop is not None:
        emit(bci, mop)
        return
    mop = _BRANCH.get(op)
    if mop is not None:
        fixups.append((len(ops), int(instr.arg)))  # type: ignore[arg-type]
        emit(bci, mop, -1)
        return
    if op is Op.ICONST:
        emit(bci, M_ICONST, int(instr.arg))  # type: ignore[arg-type]
    elif op is Op.LDC:
        emit(bci, M_LDC, rc.class_id, int(instr.arg))  # type: ignore[arg-type]
    elif op in (Op.ILOAD, Op.ALOAD):
        emit(bci, M_ILOAD if op is Op.ILOAD else M_ALOAD, int(instr.arg))  # type: ignore[arg-type]
    elif op in (Op.ISTORE, Op.ASTORE):
        emit(bci, M_ISTORE if op is Op.ISTORE else M_ASTORE, int(instr.arg))  # type: ignore[arg-type]
    elif op is Op.IINC:
        slot, delta = instr.arg  # type: ignore[misc]
        emit(bci, M_IINC, slot, delta)
    elif op is Op.NEW:
        emit(bci, M_NEW, loader.ensure_layout(str(instr.arg)).class_id)
    elif op in (Op.GETFIELD, Op.PUTFIELD):
        ref, _ = field_ref(instr.arg)
        slot = loader.resolve_instance_field(ref)
        emit(bci, M_GETFIELD if op is Op.GETFIELD else M_PUTFIELD, slot.offset)
    elif op in (Op.GETSTATIC, Op.PUTSTATIC):
        ref, _ = field_ref(instr.arg)
        holder_rc, slot = loader.resolve_static_field(ref)
        emit(
            bci,
            M_GETSTATIC if op is Op.GETSTATIC else M_PUTSTATIC,
            holder_rc.class_id,
            slot.offset,
        )
    elif op is Op.ANEWARRAY:
        emit(bci, M_ANEWARRAY, "[" + str(instr.arg))
    elif op in (Op.INSTANCEOF, Op.CHECKCAST):
        target = loader.ensure_layout(str(instr.arg))
        emit(bci, M_INSTANCEOF if op is Op.INSTANCEOF else M_CHECKCAST, target.class_id)
    elif op is Op.INVOKESTATIC:
        rm = loader.resolve_static_method(str(instr.arg))
        # b = precomputed arity, so the engine never chases signature.nargs
        emit(bci, M_INVOKESTATIC, rm.method_id, rm.mdef.signature.nargs)
    elif op is Op.INVOKEVIRTUAL:
        key, proto = loader.resolve_virtual(str(instr.arg))
        # b = precomputed arity including the receiver
        emit(bci, M_INVOKEVIRTUAL, key, proto.mdef.signature.nargs + 1)
    else:  # pragma: no cover - exhaustive over the ISA
        raise VMError(f"cannot compile opcode {op.name}")
