"""The execution engine: micro-op dispatch with safe-point discipline.

One engine drives all green threads of a VM.  The inner loop executes the
current thread's compiled code until something requests a switch (yield
point preemption, blocking, termination), then returns to the scheduler.

There is one dispatch loop, ``Engine._execute`` (see DESIGN.md, "Dispatch
architecture"): threaded code.  Each method a VM runs gets a handler
table (one pre-bound closure per executable op of ``MachineCode.xops``,
operands baked in), so the per-op work is one indexed load and one call.
The compiled code is shared by the VMs of an image; the table, held by
the VM's own ``RuntimeMethod``, is not.
With ``EngineConfig.fusion`` the program contains superinstructions,
each charging exactly the cycles of the micro-ops it replaces.

Hooks are bound into the handler tables, not run on a second loop: with
a debug controller or memory hook attached, ``Engine._bind`` wraps the
handlers in closures that call the hook before the op — the memory hook
around the ops that end in a memory micro-op, a debug controller around
every op of the methods it can stop in — and an unhooked table holds the
plain handlers.  Hooks see the canonical ops behind a superinstruction
(``MachineCode.xstart``; ``_observe_mem``).

A debug controller declares where it can stop, and pays only there:

* ``wraps(rm)`` (optional): False promises ``check`` stays False, with
  no effect, before every op of *rm*, so *rm*'s table stays plain.  A
  controller whose answers change calls ``Engine.rebind``, and one
  defining ``attached(engine)`` is told the engine it was attached to.
* ``stops_from`` (optional): ``check`` stays False, with no effect,
  while the committed clock is below it.  On unfused code the engine
  arms such a controller instead of wrapping: the plain tables run, the
  loop's batched ``limit`` folds in the target, and when the local count
  reaches it the slow path attaches the controller (the committed clock
  never runs ahead of the local count, so no stop is missed).  Fused
  carries fold late, so on fused code the controller is wrapped from
  the start.

Cycle accounting is batched: instead of comparing against the timer
deadline and the cycle budget on every op, the loop keeps a single
``limit`` (min of both) and takes a slow path only when the local cycle
counter reaches it.  The slow path replays every deadline crossing the
per-op scheme would have seen — rearming from the *old* deadline — so the
``preemptive_hardware_bit`` is raised at the exact same cycles, and the
budget is tested first, so the budget trap consumes no timer interval and
leaves ``cycles == max_cycles + 1`` (the seed engine could run one op past
an armed deadline reset before noticing the budget).

``Engine.cycles`` is the *committed* clock, stored from the loop's local
count at calls, parks, traps and yield-point slow paths.  A wrapped op's
debug controller sees it exactly as the per-micro-op seed loop exposed
it (consulted before its op is counted; commits at every debugged yield
point and, held until after the check, at each deadline crossing), so
cycle-addressed stops land where they always did.

Safe-point discipline (what makes the type-accurate GC sound):

* a collection can only start inside an allocating micro-op or native;
* every allocating handler stores the live ``pc`` into the frame *before*
  allocating, so the reference maps consulted by the GC describe exactly
  the operand stack the frame holds at that moment;
* handlers never keep a popped reference in a Python temporary across an
  allocation (natives get their reference arguments pinned as temp roots);
* fused handlers never allocate, so a superinstruction is atomic with
  respect to GC and scheduling.

The timer device is folded into the loop: each micro-op is one cycle, and
when the cycle counter passes the armed deadline the
``preemptive_hardware_bit`` is set — observed at the next yield point,
exactly Jalapeño's quasi-preemption.

Yield points are batched the same way.  Each thread counts the yield
points it runs; the sum is the logical clock (``Engine.yp_clock``) that
DejaVu reads Figure 2's ``nyp`` off.  A yield point makes one comparison,
the clock against ``Engine.yp_limit``, and only at the limit runs the
controller's ``at_yieldpoint`` (or, with no controller, the hw-bit
check).  The limit drops to 0 ("now") when a deadline crossing raises
the hw bit and when a frame push or a switch-in leaves a controlled
thread below ``EAGER_STACK_HEADROOM`` (every method opens with a yield
point); the controller sets it to its replay countdown's target, or
keeps it at 0 when it must see every yield point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.vm import words
from repro.vm.compiler import (
    CMP1_FNS,
    CMP2_FNS,
    F_AL_GETFIELD,
    F_ALC_PUTFIELD,
    F_ALL_ALOAD,
    F_ALL_PUTFIELD,
    F_BIN_STORE,
    F_C_BIN,
    F_CONST_STORE,
    F_L_BR,
    F_LC_BIN,
    F_LC_CMPBR,
    F_LL_BIN,
    F_LL_CMPBR,
    F_MOVE,
    F_PUSH2,
    F_PUSH_LC,
    F_SC_CMPBR,
    F_SL_CMPBR,
    F_YP_GROUP,
    M_AALOAD,
    M_AASTORE,
    M_ACONST_NULL,
    M_ALOAD,
    M_ANEWARRAY,
    M_ARETURN,
    M_ARRAYLENGTH,
    M_ASTORE,
    M_CHECKCAST,
    M_DUP,
    M_GETFIELD,
    M_GETSTATIC,
    M_GOTO,
    M_IADD,
    M_IALOAD,
    M_IAND,
    M_IASTORE,
    M_ICONST,
    M_IDIV,
    M_IFEQ,
    M_IFGE,
    M_IFGT,
    M_IFLE,
    M_IFLT,
    M_IFNE,
    M_IFNONNULL,
    M_IFNULL,
    M_IF_ACMPEQ,
    M_IF_ACMPNE,
    M_IF_ICMPEQ,
    M_IF_ICMPGE,
    M_IF_ICMPGT,
    M_IF_ICMPLE,
    M_IF_ICMPLT,
    M_IF_ICMPNE,
    M_IINC,
    M_ILOAD,
    M_IMUL,
    M_INEG,
    M_INSTANCEOF,
    M_INVOKESTATIC,
    M_INVOKEVIRTUAL,
    M_IOR,
    M_IREM,
    M_IRETURN,
    M_ISHL,
    M_ISHR,
    M_ISTORE,
    M_ISUB,
    M_IUSHR,
    M_IXOR,
    M_LDC,
    M_MONITORENTER,
    M_MONITOREXIT,
    M_NEW,
    M_NEWARRAY,
    M_NOP,
    M_POP,
    M_PUTFIELD,
    M_PUTSTATIC,
    M_RETURN,
    M_SWAP,
    M_YIELDPOINT,
    idiv_trapping,
    irem_trapping,
)
from repro.vm import corelib
from repro.vm.errors import VMError, VMTrap
from repro.vm.layout import HEADER_AUX, HEADER_WORDS, NULL, access_trap
from repro.vm.native import BLOCK, NativeResult
from repro.vm.threads import EAGER_STACK_HEADROOM, Frame, GreenThread
from repro.vm.words import I32_MAX, I32_MIN

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import VirtualMachine

#: a deadline or yield-point limit no clock reaches
NEVER = 1 << 62

#: the ops whose last canonical op touches guest shared memory — the
#: accesses the engine's ``mem_hook`` observes (repro.explore race
#: detection); fusion makes a memory op a group's terminal, never interior
_MEM_OPS = frozenset((
    M_GETFIELD, M_PUTFIELD, M_GETSTATIC, M_PUTSTATIC,
    M_IALOAD, M_IASTORE, M_AALOAD, M_AASTORE,
    F_AL_GETFIELD, F_ALL_PUTFIELD, F_ALC_PUTFIELD, F_ALL_ALOAD,
))

# Sentinel returns from threaded handlers (real pcs are >= 0).  A handler
# that returns one of these has left the fast path: the loop folds pending
# fused-cycle carries, commits the cycle counter, and acts.
_PARK = -1  # the current thread must stop running (handler stored frame.pc)
_RELOAD = -2  # the frame stack changed; rebind loop state from the top frame
_CALL = -3  # an invoke resolved its target into engine._call
_YIELD = -4  # a hooked yield point passed its hook; the loop runs the yield
_STOP = -5  # the debug controller paused before this op was executed


# -- threaded-code handler factories -----------------------------------------
#
# One factory per micro-op.  ``Engine._bind`` calls ``factory(eng, a, b,
# pc, pc + 1)`` for every executable op of a method and stores the
# resulting closure in ``RuntimeMethod.entries``; operands, resolved
# call targets, and hot bound methods are baked into the closure's cells,
# so executing an op is ``entries[pc](stack, locals_)`` and nothing else.
# Handlers return the next pc (or a negative sentinel).
#
# Baking rules: an operand that names a loader object by index (class
# id, method id) is resolved against this VM's loader here, at bind
# time.  Anything the GC can move (statics/constants arrays) or the
# loader can rewrite is read through its holder at call time, never
# captured by address.  Allocating handlers store ``pc`` into the frame
# before allocating (safe-point discipline).
#
# Heap handlers index the VM's ``Memory.words`` list, captured here, in
# place: a VM keeps that one list for life (image installs, collections
# and checkpoint restores all write into it), and every object's words
# lie inside it.  They check null and bounds inline and raise the same
# traps as ``ObjectModel`` (``layout.access_trap``).


def _array_trap(heap: list, addr: int, index: int) -> VMTrap:
    """The trap of an array element access whose inline check failed."""
    if addr == NULL:
        return access_trap("array")
    return access_trap("array", index, heap[addr + HEADER_AUX])


def _f_nop(eng, a, b, pc, np):
    def h(stack, locals_):
        return np

    return h


def _f_iconst(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(a)
        return np

    return h


def _f_iload(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(locals_[a])
        return np

    return h


def _f_istore(eng, a, b, pc, np):
    def h(stack, locals_):
        locals_[a] = stack.pop()
        return np

    return h


def _f_iinc(eng, a, b, pc, np):
    to_i32 = words.to_i32

    def h(stack, locals_):
        v = locals_[a] + b
        locals_[a] = v if I32_MIN <= v <= I32_MAX else to_i32(v)
        return np

    return h


def _f_ldc(eng, a, b, pc, np):
    heap = eng.vm.memory.words
    rc = eng.vm.loader.rc_by_id[a]

    def h(stack, locals_):
        addr = rc.constants_addr
        if addr and 0 <= b < heap[addr + HEADER_AUX]:
            stack.append(heap[addr + HEADER_WORDS + b])
            return np
        raise _array_trap(heap, addr, b)

    return h


def _f_aconst_null(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(0)
        return np

    return h


def _f_dup(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.append(stack[-1])
        return np

    return h


def _f_pop(eng, a, b, pc, np):
    def h(stack, locals_):
        stack.pop()
        return np

    return h


def _f_swap(eng, a, b, pc, np):
    def h(stack, locals_):
        stack[-1], stack[-2] = stack[-2], stack[-1]
        return np

    return h


def _f_goto(eng, a, b, pc, np):
    def h(stack, locals_):
        return a

    return h


def _f_ifeq(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() == 0 else np

    return h


def _f_ifne(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() != 0 else np

    return h


def _f_iflt(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() < 0 else np

    return h


def _f_ifle(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() <= 0 else np

    return h


def _f_ifgt(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() > 0 else np

    return h


def _f_ifge(eng, a, b, pc, np):
    def h(stack, locals_):
        return a if stack.pop() >= 0 else np

    return h


def _f_if_icmpeq(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() == y else np

    return h


def _f_if_icmpne(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() != y else np

    return h


def _f_if_icmplt(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() < y else np

    return h


def _f_if_icmple(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() <= y else np

    return h


def _f_if_icmpgt(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() > y else np

    return h


def _f_if_icmpge(eng, a, b, pc, np):
    def h(stack, locals_):
        y = stack.pop()
        return a if stack.pop() >= y else np

    return h


def _mk_bin(fn):
    def factory(eng, a, b, pc, np):
        def h(stack, locals_):
            y = stack.pop()
            stack[-1] = fn(stack[-1], y)
            return np

        return h

    return factory


def _f_ineg(eng, a, b, pc, np):
    ineg = words.ineg

    def h(stack, locals_):
        stack[-1] = ineg(stack[-1])
        return np

    return h


def _f_getfield(eng, a, b, pc, np):
    heap = eng.vm.memory.words

    def h(stack, locals_):
        addr = stack[-1]
        if addr:
            stack[-1] = heap[addr + a]
            return np
        raise access_trap("getfield")

    return h


def _f_putfield(eng, a, b, pc, np):
    heap = eng.vm.memory.words

    def h(stack, locals_):
        value = stack.pop()
        addr = stack.pop()
        if addr:
            heap[addr + a] = value
            return np
        raise access_trap("putfield")

    return h


def _f_getstatic(eng, a, b, pc, np):
    heap = eng.vm.memory.words
    rc = eng.vm.loader.rc_by_id[a]

    def h(stack, locals_):
        addr = rc.statics_addr
        if addr:
            stack.append(heap[addr + b])
            return np
        raise access_trap("getfield")

    return h


def _f_putstatic(eng, a, b, pc, np):
    heap = eng.vm.memory.words
    rc = eng.vm.loader.rc_by_id[a]

    def h(stack, locals_):
        value = stack.pop()
        addr = rc.statics_addr
        if addr:
            heap[addr + b] = value
            return np
        raise access_trap("putfield")

    return h


def _f_iaload(eng, a, b, pc, np):
    heap = eng.vm.memory.words

    def h(stack, locals_):
        idx = stack.pop()
        addr = stack[-1]
        if addr and 0 <= idx < heap[addr + HEADER_AUX]:
            stack[-1] = heap[addr + HEADER_WORDS + idx]
            return np
        raise _array_trap(heap, addr, idx)

    return h


def _f_iastore(eng, a, b, pc, np):
    heap = eng.vm.memory.words

    def h(stack, locals_):
        value = stack.pop()
        idx = stack.pop()
        addr = stack.pop()
        if addr and 0 <= idx < heap[addr + HEADER_AUX]:
            heap[addr + HEADER_WORDS + idx] = value
            return np
        raise _array_trap(heap, addr, idx)

    return h


def _f_arraylength(eng, a, b, pc, np):
    heap = eng.vm.memory.words

    def h(stack, locals_):
        addr = stack[-1]
        if addr:
            stack[-1] = heap[addr + HEADER_AUX]
            return np
        raise access_trap("arraylength")

    return h


def _f_new(eng, a, b, pc, np):
    om = eng.vm.om
    layout = eng.vm.loader.rc_by_id[a].layout

    def h(stack, locals_):
        eng._frame.pc = pc  # safe point: allocation may collect
        stack.append(om.new_object(layout))
        return np

    return h


def _f_newarray(eng, a, b, pc, np):
    om = eng.vm.om

    def h(stack, locals_):
        length = stack.pop()
        eng._frame.pc = pc
        stack.append(om.new_array("[I", length))
        return np

    return h


def _f_anewarray(eng, a, b, pc, np):
    om = eng.vm.om

    def h(stack, locals_):
        length = stack.pop()
        eng._frame.pc = pc
        stack.append(om.new_array(a, length))
        return np

    return h


def _f_instanceof(eng, a, b, pc, np):
    is_instance = eng.vm.is_instance
    rc = eng.vm.loader.rc_by_id[a]

    def h(stack, locals_):
        ref = stack.pop()
        stack.append(1 if ref and is_instance(ref, rc) else 0)
        return np

    return h


def _f_checkcast(eng, a, b, pc, np):
    vm = eng.vm
    rc = vm.loader.rc_by_id[a]

    def h(stack, locals_):
        ref = stack[-1]
        if ref and not vm.is_instance(ref, rc):
            raise VMTrap(
                "ClassCast",
                f"{vm.om.layout_of(ref).name} is not a {rc.name}",
            )
        return np

    return h


def _f_invokestatic(eng, a, b, pc, np):
    rm = eng.vm.loader.method_by_id[a]
    nargs = b
    if nargs:

        def h(stack, locals_):
            args = stack[-nargs:]
            del stack[-nargs:]
            eng._call = (rm, args)
            return _CALL

    else:

        def h(stack, locals_):
            eng._call = (rm, [])
            return _CALL

    return h


def _f_invokevirtual(eng, a, b, pc, np):
    key = a
    nargs = b  # arity including the receiver
    ridx = -nargs  # receiver slot, from stack top
    loader = eng.vm.loader
    mem_read = eng.vm.om.memory.read

    def h(stack, locals_):
        receiver = stack[ridx]
        if receiver == 0:
            raise VMTrap("NullPointer", f"invokevirtual {key} on null")
        args = stack[-nargs:]
        del stack[-nargs:]
        eng._call = (loader.vtable_lookup(mem_read(receiver), key), args)
        return _CALL

    return h


def _f_return(eng, a, b, pc, np):
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        thread = eng._thread
        scheduler.pop_frame(thread)
        if not thread.frames:
            scheduler.on_terminate(thread)
            return _PARK
        return _RELOAD

    return h


def _f_ireturn(eng, a, b, pc, np):
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        thread = eng._thread
        value = stack.pop()
        scheduler.pop_frame(thread)
        if not thread.frames:
            scheduler.on_terminate(thread)
            return _PARK
        thread.frames[-1].stack.append(value)
        return _RELOAD

    return h


def _f_monitorenter(eng, a, b, pc, np):
    monitors = eng.vm.monitors
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        ref = stack.pop()
        if ref == 0:
            raise VMTrap("NullPointer", "monitorenter on null")
        thread = eng._thread
        if not monitors.try_enter(ref, thread):
            # contended: park on the entry queue; the lock is handed to us
            # by a future monitorexit, and we resume *after* this
            # instruction already owning the lock.
            eng._frame.pc = np
            monitors.enqueue_contender(ref, thread)
            scheduler.block_current(corelib.THREAD_BLOCKED)
            return _PARK
        return np

    return h


def _f_monitorexit(eng, a, b, pc, np):
    monitors = eng.vm.monitors
    scheduler = eng.vm.scheduler

    def h(stack, locals_):
        ref = stack.pop()
        if ref == 0:
            raise VMTrap("NullPointer", "monitorexit on null")
        heir = monitors.exit(ref, eng._thread)
        if heir is not None:
            scheduler.make_ready(heir)
        return np

    return h


# -- fused (superinstruction) handlers.  Each bumps the engine's fused
# execution counter — pairs in _fstat[0], triples in _fstat[1] — which the
# loop folds into the cycle counter at the next accounting point, charging
# exactly the cycles of the micro-ops the group replaced.


def _f_push2(eng, a, b, pc, np):
    s1, s2 = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        stack.append(locals_[s1])
        stack.append(locals_[s2])
        return np

    return h


def _f_push_lc(eng, a, b, pc, np):
    slot, const = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        stack.append(locals_[slot])
        stack.append(const)
        return np

    return h


def _f_const_store(eng, a, b, pc, np):
    const, slot = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        locals_[slot] = const
        return np

    return h


def _f_move(eng, a, b, pc, np):
    src, dst = a
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        locals_[dst] = locals_[src]
        return np

    return h


def _f_ll_bin(eng, a, b, pc, np):
    s1, s2 = a
    fn = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        stack.append(fn(locals_[s1], locals_[s2]))
        return np

    return h


def _f_lc_bin(eng, a, b, pc, np):
    slot, const = a
    fn = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        stack.append(fn(locals_[slot], const))
        return np

    return h


#: the sign a constant takes when ``iadd``/``isub`` of it becomes an add
_ADD_SIGN = {words.iadd: 1, words.isub: -1}


def _f_c_bin(eng, a, b, pc, np):
    fn = b
    fstat = eng._fstat
    sign = _ADD_SIGN.get(fn)
    if sign is not None:
        delta = sign * a
        to_i32 = words.to_i32

        def h(stack, locals_):
            fstat[0] += 1
            v = stack[-1] + delta
            stack[-1] = v if I32_MIN <= v <= I32_MAX else to_i32(v)
            return np

        return h

    def h(stack, locals_):
        fstat[0] += 1
        stack[-1] = fn(stack[-1], a)
        return np

    return h


def _f_bin_store(eng, a, b, pc, np):
    fn = b
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        y = stack.pop()
        locals_[a] = fn(stack.pop(), y)
        return np

    return h


# Fused compare-branches compare inline.  Each shape has one closure
# maker per comparison ``<``, ``<=`` and ``==``, called with the branch's
# outcomes ``(yes, no)``; the other three comparisons are their negations,
# bound by swapping the outcomes.  The fusion pass names the comparison
# by its predicate (``compiler.CMP2_FNS`` / ``CMP1_FNS``), which keys the
# shape's table, so binding one is a dict lookup.


#: the branches naming the predicates <, >=, <=, >, ==, != of each arity
_CMP2_OPS = (M_IF_ICMPLT, M_IF_ICMPGE, M_IF_ICMPLE, M_IF_ICMPGT, M_IF_ICMPEQ, M_IF_ICMPNE)
_CMP1_OPS = (M_IFLT, M_IFGE, M_IFLE, M_IFGT, M_IFEQ, M_IFNE)


def _cmp_table(fns: dict, ops: tuple, lt, le, eq) -> dict:
    """predicate -> (closure maker, negated) for one compare-branch shape."""
    makers = ((lt, False), (lt, True), (le, False), (le, True), (eq, False), (eq, True))
    return {fns[op]: maker for op, maker in zip(ops, makers)}


def _bind_cmpbr(table: dict, b, np, fstat, x, y):
    """Bind compare-branch ``b = (predicate, target)`` of one shape."""
    cmp, target = b
    make, negated = table[cmp]
    if negated:
        return make(fstat, x, y, np, target)
    return make(fstat, x, y, target, np)


def _ll_lt(fstat, s1, s2, yes, no):
    def h(stack, locals_):
        fstat[1] += 1
        return yes if locals_[s1] < locals_[s2] else no

    return h


def _ll_le(fstat, s1, s2, yes, no):
    def h(stack, locals_):
        fstat[1] += 1
        return yes if locals_[s1] <= locals_[s2] else no

    return h


def _ll_eq(fstat, s1, s2, yes, no):
    def h(stack, locals_):
        fstat[1] += 1
        return yes if locals_[s1] == locals_[s2] else no

    return h


def _lc_lt(fstat, slot, const, yes, no):
    def h(stack, locals_):
        fstat[1] += 1
        return yes if locals_[slot] < const else no

    return h


def _lc_le(fstat, slot, const, yes, no):
    def h(stack, locals_):
        fstat[1] += 1
        return yes if locals_[slot] <= const else no

    return h


def _lc_eq(fstat, slot, const, yes, no):
    def h(stack, locals_):
        fstat[1] += 1
        return yes if locals_[slot] == const else no

    return h


def _sl_lt(fstat, _, slot, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if stack.pop() < locals_[slot] else no

    return h


def _sl_le(fstat, _, slot, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if stack.pop() <= locals_[slot] else no

    return h


def _sl_eq(fstat, _, slot, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if stack.pop() == locals_[slot] else no

    return h


def _sc_lt(fstat, _, const, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if stack.pop() < const else no

    return h


def _sc_le(fstat, _, const, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if stack.pop() <= const else no

    return h


def _sc_eq(fstat, _, const, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if stack.pop() == const else no

    return h


def _l_lt(fstat, _, slot, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if locals_[slot] < 0 else no

    return h


def _l_le(fstat, _, slot, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if locals_[slot] <= 0 else no

    return h


def _l_eq(fstat, _, slot, yes, no):
    def h(stack, locals_):
        fstat[0] += 1
        return yes if locals_[slot] == 0 else no

    return h


# (``if_acmp*`` share the ``if_icmp*`` predicates and ``ifnull``/
# ``ifnonnull`` the ``ifeq``/``ifne`` ones, so the tables cover them too)
_LL_CMPBR = _cmp_table(CMP2_FNS, _CMP2_OPS, _ll_lt, _ll_le, _ll_eq)
_LC_CMPBR = _cmp_table(CMP2_FNS, _CMP2_OPS, _lc_lt, _lc_le, _lc_eq)
_SL_CMPBR = _cmp_table(CMP2_FNS, _CMP2_OPS, _sl_lt, _sl_le, _sl_eq)
_SC_CMPBR = _cmp_table(CMP2_FNS, _CMP2_OPS, _sc_lt, _sc_le, _sc_eq)
_L_BR = _cmp_table(CMP1_FNS, _CMP1_OPS, _l_lt, _l_le, _l_eq)


def _f_ll_cmpbr(eng, a, b, pc, np):
    return _bind_cmpbr(_LL_CMPBR, b, np, eng._fstat, *a)


def _f_lc_cmpbr(eng, a, b, pc, np):
    return _bind_cmpbr(_LC_CMPBR, b, np, eng._fstat, *a)


def _f_sl_cmpbr(eng, a, b, pc, np):
    return _bind_cmpbr(_SL_CMPBR, b, np, eng._fstat, None, a)


def _f_sc_cmpbr(eng, a, b, pc, np):
    return _bind_cmpbr(_SC_CMPBR, b, np, eng._fstat, None, a)


def _f_l_br(eng, a, b, pc, np):
    return _bind_cmpbr(_L_BR, b, np, eng._fstat, None, a)


def _f_al_getfield(eng, a, b, pc, np):
    slot, offset = a
    heap = eng.vm.memory.words
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[0] += 1
        addr = locals_[slot]
        if addr:
            stack.append(heap[addr + offset])
            return np
        raise access_trap("getfield")

    return h


def _f_all_putfield(eng, a, b, pc, np):
    objslot, valslot = a
    heap = eng.vm.memory.words
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        addr = locals_[objslot]
        if addr:
            heap[addr + b] = locals_[valslot]
            return np
        raise access_trap("putfield")

    return h


def _f_alc_putfield(eng, a, b, pc, np):
    objslot, const = a
    heap = eng.vm.memory.words
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        addr = locals_[objslot]
        if addr:
            heap[addr + b] = const
            return np
        raise access_trap("putfield")

    return h


def _f_all_aload(eng, a, b, pc, np):
    arrslot, idxslot = a
    heap = eng.vm.memory.words
    fstat = eng._fstat

    def h(stack, locals_):
        fstat[1] += 1
        addr = locals_[arrslot]
        idx = locals_[idxslot]
        if addr and 0 <= idx < heap[addr + HEADER_AUX]:
            stack.append(heap[addr + HEADER_WORDS + idx])
            return np
        raise _array_trap(heap, addr, idx)

    return h


_FACTORIES = {
    M_NOP: _f_nop,
    M_ICONST: _f_iconst,
    M_LDC: _f_ldc,
    M_ACONST_NULL: _f_aconst_null,
    M_DUP: _f_dup,
    M_POP: _f_pop,
    M_SWAP: _f_swap,
    M_ILOAD: _f_iload,
    M_ALOAD: _f_iload,
    M_ISTORE: _f_istore,
    M_ASTORE: _f_istore,
    M_IINC: _f_iinc,
    M_IADD: _mk_bin(words.iadd),
    M_ISUB: _mk_bin(words.isub),
    M_IMUL: _mk_bin(words.imul),
    M_IDIV: _mk_bin(idiv_trapping),
    M_IREM: _mk_bin(irem_trapping),
    M_INEG: _f_ineg,
    M_ISHL: _mk_bin(words.ishl),
    M_ISHR: _mk_bin(words.ishr),
    M_IUSHR: _mk_bin(words.iushr),
    M_IAND: _mk_bin(words.iand),
    M_IOR: _mk_bin(words.ior),
    M_IXOR: _mk_bin(words.ixor),
    M_GOTO: _f_goto,
    M_IFEQ: _f_ifeq,
    M_IFNE: _f_ifne,
    M_IFLT: _f_iflt,
    M_IFLE: _f_ifle,
    M_IFGT: _f_ifgt,
    M_IFGE: _f_ifge,
    M_IF_ICMPEQ: _f_if_icmpeq,
    M_IF_ICMPNE: _f_if_icmpne,
    M_IF_ICMPLT: _f_if_icmplt,
    M_IF_ICMPLE: _f_if_icmple,
    M_IF_ICMPGT: _f_if_icmpgt,
    M_IF_ICMPGE: _f_if_icmpge,
    M_IF_ACMPEQ: _f_if_icmpeq,
    M_IF_ACMPNE: _f_if_icmpne,
    M_IFNULL: _f_ifeq,
    M_IFNONNULL: _f_ifne,
    M_NEW: _f_new,
    M_GETFIELD: _f_getfield,
    M_PUTFIELD: _f_putfield,
    M_GETSTATIC: _f_getstatic,
    M_PUTSTATIC: _f_putstatic,
    M_NEWARRAY: _f_newarray,
    M_ANEWARRAY: _f_anewarray,
    M_IALOAD: _f_iaload,
    M_IASTORE: _f_iastore,
    M_AALOAD: _f_iaload,
    M_AASTORE: _f_iastore,
    M_ARRAYLENGTH: _f_arraylength,
    M_INSTANCEOF: _f_instanceof,
    M_CHECKCAST: _f_checkcast,
    M_INVOKESTATIC: _f_invokestatic,
    M_INVOKEVIRTUAL: _f_invokevirtual,
    M_RETURN: _f_return,
    M_IRETURN: _f_ireturn,
    M_ARETURN: _f_ireturn,
    M_MONITORENTER: _f_monitorenter,
    M_MONITOREXIT: _f_monitorexit,
    F_PUSH2: _f_push2,
    F_PUSH_LC: _f_push_lc,
    F_CONST_STORE: _f_const_store,
    F_MOVE: _f_move,
    F_LL_BIN: _f_ll_bin,
    F_LC_BIN: _f_lc_bin,
    F_C_BIN: _f_c_bin,
    F_BIN_STORE: _f_bin_store,
    F_LL_CMPBR: _f_ll_cmpbr,
    F_LC_CMPBR: _f_lc_cmpbr,
    F_SL_CMPBR: _f_sl_cmpbr,
    F_SC_CMPBR: _f_sc_cmpbr,
    F_L_BR: _f_l_br,
    F_AL_GETFIELD: _f_al_getfield,
    F_ALL_PUTFIELD: _f_all_putfield,
    F_ALC_PUTFIELD: _f_alc_putfield,
    F_ALL_ALOAD: _f_all_aload,
}


# -- hook wrappers.  ``Engine._bind`` layers these over the plain handlers
# when hooks are attached; an unhooked table holds the plain handlers only.


def _observe_mem(eng, hook, fn, code, pc):
    """Call the memory hook before op *pc* of *code* as before its
    canonical memory op: with that op's ``(mop, a, b)``, its bci, and the
    stack it would see (a copy, with a fused op's pure loads and
    ``iconst``s pushed).  A static access passes its holder class."""
    start, last = code.xstart[pc], code.xstart[pc + 1] - 1
    mop, a, b = code.ops[last]
    bci = code.bci_of[last]
    if mop == M_GETSTATIC or mop == M_PUTSTATIC:
        a = eng.vm.loader.rc_by_id[a]
    if start == last:

        def h(stack, locals_):
            hook(eng._thread, eng._frame, bci, mop, a, b, stack)
            return fn(stack, locals_)

        return h

    pushes = [(m == M_ICONST, x) for m, x, _ in code.ops[start:last]]

    def h(stack, locals_):
        seen = stack[:]
        for const, x in pushes:
            seen.append(x if const else locals_[x])
        hook(eng._thread, eng._frame, bci, mop, a, b, seen)
        return fn(stack, locals_)

    return h


def _consult_debug(eng, check, fn, pc):
    """Ask the debug controller before the op (``fn`` None: a yield point).

    The loop counted this op's cycle before calling us, but the
    controller must see the clock as it stood before the op: a deadline
    crossing on this count held its clock commit (``Engine._held``) until
    the check has run, and a stop makes the loop take the count back."""

    def h(stack, locals_):
        if check(eng._thread, eng._frame, pc):
            return _STOP
        held = eng._held
        if held:
            eng._held = 0
            if held > eng.cycles:  # else stale: the clock moved past it
                eng.cycles = held
        return _YIELD if fn is None else fn(stack, locals_)

    return h


class Engine:
    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        self.cfg = vm.config.engine
        self.cycles = 0
        self.hw_bit = False  # preemptive_hardware_bit (Figure 2)
        self.timer_enabled = True
        self.switch_pending = False
        self._deadline = NEVER
        self._timer_armed = False
        #: a yield point reaches the controller (or the hw-bit check) only
        #: once the logical clock reaches this limit; see the module doc
        self.yp_limit = NEVER
        #: the clock is ``yp_base + thread.yieldpoints`` (rebased at switch-in)
        self.yp_base = 0
        #: optional debug controller (breakpoints, stepping, time travel,
        #: the profiler, coverage): ``check(thread, frame, pc)`` is called
        #: before every executable op of the methods it ``wraps`` (all by
        #: default) and returns True to pause; ``run`` returns while
        #: ``paused`` is set.  Host-side only — attaching one perturbs
        #: nothing the guest can observe.  Set through the ``debug``
        #: property, which rebinds the handler tables.
        self._debug = None
        #: while a controller with ``stops_from`` is armed (see the module
        #: doc), the local count at which the loop attaches it; else NEVER
        self._arm_at = NEVER
        #: optional shared-memory observation hook (repro.explore race
        #: detection): ``hook(thread, frame, bci, mop, a, b, stack)`` is
        #: called before every canonical memory micro-op executes, fused or
        #: not, with the operand stack holding the op's inputs.  Host-side
        #: and read-only.
        self._mem_hook = None
        #: the methods whose handler tables this engine bound, so
        #: attaching or detaching a hook can drop them for rebinding
        self._bound: list = []
        #: a deadline crossing's clock commit, held back while a debug
        #: controller is attached until that op's check has run
        self._held = 0
        #: optional safe-point hook (repro.core.checkpoint): called with
        #: this engine whenever the run loop finds no current thread —
        #: every frame pc and shadow bci is committed and no guest state
        #: is in flight, so the complete machine state is snapshottable.
        #: Fires *before* the scheduler picks the next thread, so a
        #: restored run re-executes schedule() (and its clock reads)
        #: exactly as the original did.  Host-side only.
        self.safepoint_hook = None
        # -- engine stats (host-side observability; never guest-visible).
        #: monotonic fused execution counters: [pairs, triples].  The
        #: loop derives pending cycle carries from deltas of these, so a
        #: fused handler costs exactly one counter bump.
        self._fstat = [0, 0]
        #: fused yield-point groups: [executions, extra cycles charged].
        #: Tracked apart from _fstat because YP groups charge their extra
        #: cycles inline (before the yield point observes the hw bit),
        #: never through the loop's carry-fold.
        self._ypstat = [0, 0]
        # dispatch plumbing: the current thread/frame (for heavy handlers
        # and hook wrappers) and the in-flight resolved call (rm, args).
        self._thread: GreenThread | None = None
        self._frame: Frame | None = None
        self._call = None

    # ------------------------------------------------------------------
    # hooks

    @property
    def debug(self):
        return self._debug

    @debug.setter
    def debug(self, controller) -> None:
        """Attach *controller* (None detaches), replacing any pending arm;
        on unfused code one declaring ``stops_from`` is armed, not wrapped."""
        if controller is self._debug:
            return
        self._debug = controller
        self._arm_at = NEVER
        if controller is not None:
            if not self.cfg.fusion:
                self._arm_at = getattr(controller, "stops_from", NEVER)
            attached = getattr(controller, "attached", None)
            if attached is not None:
                attached(self)
        self.rebind()

    @property
    def mem_hook(self):
        return self._mem_hook

    @mem_hook.setter
    def mem_hook(self, hook) -> None:
        if hook is not self._mem_hook:
            self._mem_hook = hook
            self.rebind()

    def rebind(self) -> None:
        """Drop every bound handler table; frames rebind on entry, under
        the hooks' current scope (a debug controller whose ``wraps``
        answers change calls this)."""
        for rm in self._bound:
            rm.entries = None
        self._bound.clear()

    # ------------------------------------------------------------------
    # stats

    @property
    def fused_ops_executed(self) -> int:
        """Superinstruction executions (each replaced 2-4 micro-ops)."""
        return self._fstat[0] + self._fstat[1] + self._ypstat[0]

    @property
    def fused_extra_cycles(self) -> int:
        """Cycles charged by fused handlers beyond their one dispatch."""
        return self._fstat[0] + 2 * self._fstat[1] + self._ypstat[1]

    @property
    def dispatches(self) -> int:
        """Host dispatch count: cycles minus the fused-away dispatches."""
        return self.cycles - self.fused_extra_cycles

    def stats(self) -> dict:
        return {
            "config": self.cfg.describe(),
            "cycles": self.cycles,
            "dispatches": self.dispatches,
            "fused_ops_executed": self.fused_ops_executed,
            "fused_extra_cycles": self.fused_extra_cycles,
        }

    # ------------------------------------------------------------------

    def arm_timer(self) -> None:
        timer = self.vm.timer
        if self.timer_enabled and timer is not None:
            self._deadline = self.cycles + timer.next_interval()
        else:
            self._deadline = NEVER

    def _check_limit(self, cycles: int) -> int:
        """Batched deadline/budget accounting; returns the next limit.

        Equivalent to the per-op checks of the seed engine, with two
        deliberate refinements:

        * the budget is tested *first*, so the budget trap cannot consume
          a timer interval or raise the hw bit (the seed's off-by-one
          window), and the trap cycle is pinned at ``max_cycles + 1``;
        * the deadline rearms relative to the *old* deadline, so every
          crossing the per-op scheme would have seen fires at its exact
          cycle even when a fused op advanced the counter by 2-3 at once.

        An armed debug controller is attached once the count reaches its
        ``stops_from``, after the budget test and before the deadline
        commit, which it then holds; the loop rebinds the current frame.

        With a debug controller attached the crossing's commit is held
        until the op's check has run (``_consult_debug``); the budget
        trap is not, so it pre-empts a stop at the budget-exhausting op.
        """
        vm = self.vm
        max_cycles = vm.config.max_cycles
        if cycles > max_cycles:
            self.cycles = max_cycles + 1
            raise VMError(f"cycle budget exceeded ({max_cycles})")
        if cycles >= self._arm_at:
            self._arm_at = NEVER
            self.rebind()
        d = self._deadline
        if d <= cycles:
            self.hw_bit = True
            self.yp_limit = 0  # the next yield point observes the bit
            if self._debug is None or self._arm_at != NEVER:
                self.cycles = cycles
            else:
                self._held = cycles
            timer = vm.timer
            if self.timer_enabled and timer is not None:
                while d <= cycles:
                    d += timer.next_interval()
            else:
                d = NEVER
            self._deadline = d
        limit = d if d <= max_cycles else max_cycles + 1
        return limit if limit <= self._arm_at else self._arm_at

    def yp_clock(self) -> int:
        """The logical clock: yield points executed so far, all threads."""
        t = self._thread
        return self.yp_base + (t.yieldpoints if t is not None else 0)

    def run(self) -> None:
        """Run until completion, deadlock, or a debug pause.

        With a debug controller attached, the loop returns whenever the
        controller pauses; calling run() again resumes the paused thread
        exactly where it stopped (``scheduler.current`` survives pauses).
        """
        vm = self.vm
        scheduler = vm.scheduler
        if not self._timer_armed:
            self.arm_timer()
            self._timer_armed = True
        while True:
            if self.debug is not None and self.debug.paused:
                return
            thread = scheduler.current
            if thread is None:
                hook = self.safepoint_hook
                if hook is not None:
                    hook(self)
                thread = scheduler.schedule()
            if thread is None:
                return
            self.switch_pending = False
            try:
                self._execute(thread)
                # every exit stored its frame's pc: publish the bci, but
                # not at a pause (a debugger reads the pc; DebugPort.top_bci)
                if self._debug is None or not self._debug.paused:
                    scheduler.shadow_sync_bci(thread)
            except VMTrap as trap:
                self._kill(thread, trap)

    def _kill(self, thread: GreenThread, trap: VMTrap) -> None:
        """A trap terminates the offending thread, deterministically.

        Monitors the thread held are force-released (Java unwinds
        ``synchronized`` sections when a thread dies), so one thread's
        death cannot deadlock the rest of the program."""
        vm = self.vm
        vm.observer.emit("trap", thread.tid, trap.kind)
        vm.trap_reports.append((thread.tid, trap.kind, str(trap)))
        while thread.frames:
            vm.scheduler.pop_frame(thread)
        for heir in vm.monitors.release_all_owned_by(thread):
            vm.scheduler.make_ready(heir)
        vm.scheduler.on_terminate(thread)

    # ------------------------------------------------------------------
    # the dispatch loop (threaded code: pre-bound handler tables)

    def _bind(self, rm) -> list:
        """Bind the handler table for one compiled method of this VM.

        Yield points stay inline in the loop (they need the loop-local
        cycle counter), marked by a ``None`` entry; fused yield-point
        groups (F_YP_GROUP) do too — the loop tells them apart by the
        op's ``b`` operand.  Everything else becomes a pre-bound
        closure.  Attached hooks are wrapped around the closures: the
        memory hook around the ops ending in a memory micro-op, an
        attached (not armed) debug controller around every op of a
        method it ``wraps``, yield points included (its wrapper returns
        ``_YIELD`` and the loop then runs the yield point inline)."""
        memhook = self._mem_hook
        debug = self._debug
        check = None
        if debug is not None and self._arm_at == NEVER:
            wraps = getattr(debug, "wraps", None)
            if wraps is None or wraps(rm):
                check = debug.check
        entries: list = []
        append = entries.append
        for pc, (mop, a, b) in enumerate(rm.code.xops):
            if mop == M_YIELDPOINT or mop == F_YP_GROUP:
                fn = None
            else:
                factory = _FACTORIES.get(mop)
                if factory is None:  # pragma: no cover - exhaustive
                    raise VMError(f"unknown micro-op {mop}")
                fn = factory(self, a, b, pc, pc + 1)
                if memhook is not None and mop in _MEM_OPS:
                    fn = _observe_mem(self, memhook, fn, rm.code, pc)
            if check is not None:
                fn = _consult_debug(self, check, fn, pc)
            append(fn)
        rm.entries = entries
        self._bound.append(rm)
        return entries

    def _execute(self, thread: GreenThread) -> None:  # noqa: C901 - the dispatch loop
        vm = self.vm
        loader = vm.loader
        scheduler = vm.scheduler
        max_cycles = vm.config.max_cycles
        fstat = self._fstat
        ypstat = self._ypstat

        if self._thread is not thread:  # switch-in: rebase the logical clock
            self.yp_base = self.yp_clock() - thread.yieldpoints
            self._thread = thread
        if vm.dejavu is not None and thread.stack_capacity - thread.stack_used < EAGER_STACK_HEADROOM:
            self.yp_limit = 0
        ypbase = self.yp_base
        frame = thread.frames[-1]
        self._frame = frame
        entries = frame.method.entries
        if entries is None:
            entries = self._bind(frame.method)
        xops = frame.code.xops
        pc = frame.pc
        stack = frame.stack
        locals_ = frame.locals
        cycles = self.cycles
        # fused-carry snapshots: cycles the fused counters have accrued
        # since the last fold (pairs carry 1 extra cycle, triples 2)
        ln2 = fstat[0]
        ln3 = fstat[1]
        d = self._deadline
        limit = d if d <= max_cycles else max_cycles + 1
        if self._arm_at < limit:
            limit = self._arm_at
        # the yield-point limit in this thread's own count
        yplimit = self.yp_limit - ypbase

        try:
            while True:
                cycles += 1
                if cycles >= limit:
                    x = fstat[0] - ln2 + 2 * (fstat[1] - ln3)
                    if x:
                        ln2 = fstat[0]
                        ln3 = fstat[1]
                        cycles += x
                    limit = self._check_limit(cycles)
                    yplimit = self.yp_limit - ypbase
                    if frame.method.entries is None:  # a debug controller attached
                        entries = self._bind(frame.method)

                fn = entries[pc]
                if fn is not None:
                    r = fn(stack, locals_)
                    if r >= 0:
                        pc = r
                        continue

                    # -- sentinel: fold fused carries, commit the clock, act.
                    x = fstat[0] - ln2 + 2 * (fstat[1] - ln3)
                    if x:
                        ln2 = fstat[0]
                        ln3 = fstat[1]
                        cycles += x

                    if r == _CALL:
                        rm, args = self._call
                        self._call = None
                        frame.pc = pc + 1  # resume after the call (also: safe point)
                        self.cycles = cycles
                        if rm.native:
                            result = vm.call_native(thread, rm, args)
                            if result is BLOCK:
                                return  # switch_pending is set
                            upcalls = ()
                            if isinstance(result, NativeResult):
                                if rm.mdef.signature.ret != "V":
                                    if result.string_value is not None:
                                        # materialise the guest String here, so
                                        # the allocation happens identically in
                                        # record and replay mode (§2.5 + symmetry)
                                        stack.append(loader.make_string(result.string_value))
                                    else:
                                        stack.append(
                                            words.to_i32(
                                                result.value if result.value is not None else 0
                                            )
                                        )
                                upcalls = result.upcalls
                                for ref, up_args in reversed(upcalls):
                                    up_rm = loader.resolve_static_method(ref)
                                    scheduler.shadow_sync_bci(thread)
                                    scheduler.push_frame(thread, Frame(up_rm, list(up_args)))
                            elif rm.mdef.signature.ret != "V":
                                stack.append(words.to_i32(result if result is not None else 0))
                            if self.switch_pending:
                                return
                            yplimit = self.yp_limit - ypbase
                            if not upcalls:
                                pc += 1
                                continue
                        else:
                            scheduler.shadow_sync_bci(thread)
                            scheduler.push_frame(thread, Frame(rm, args))
                            yplimit = self.yp_limit - ypbase  # a push may lower it
                        r = _RELOAD  # enter the frame now on top

                    if r == _RELOAD:
                        # a return handler popped back into the caller frame,
                        # or a call pushed a frame (no clock commit at a
                        # return: nothing reads it before the next commit,
                        # and a debugger must not see one here)
                        frame = thread.frames[-1]
                        self._frame = frame
                        entries = frame.method.entries
                        if entries is None:
                            entries = self._bind(frame.method)
                        xops = frame.code.xops
                        pc = frame.pc
                        stack = frame.stack
                        locals_ = frame.locals
                        continue

                    if r == _PARK:  # the handler stored frame.pc (or emptied frames)
                        self.cycles = cycles
                        return

                    if r == _STOP:
                        # the debugger paused before this op: take back its count
                        frame.pc = pc
                        self.cycles = cycles - 1
                        return

                    # _YIELD: a debugged yield point.  The clock is committed
                    # at every yield point (a fused group's prefix cycles
                    # included) for the cycle-addressed stops that read it.
                    bb = xops[pc][2]
                    self.cycles = cycles if bb is None else cycles + bb[1]

                # -- inlined yield point (plain, or the terminal of a fused
                # F_YP_GROUP).  Run any pure prefix and charge its cycles,
                # fold fused carries, and process any deadline crossing
                # *before* observing the hw bit, so the bit is exactly the
                # per-op scheme's at this cycle.
                _, tag, bb = xops[pc]
                if bb is not None:
                    bb[0](stack, locals_)
                    cycles += bb[1]
                    ypstat[0] += 1
                    ypstat[1] += bb[1]
                x = fstat[0] - ln2 + 2 * (fstat[1] - ln3)
                if x:
                    ln2 = fstat[0]
                    ln3 = fstat[1]
                    cycles += x
                if cycles >= limit:
                    limit = self._check_limit(cycles)
                    yplimit = self.yp_limit - ypbase
                # -- the one yield-point test (both sides offset by ypbase)
                yp = thread.yieldpoints + 1
                thread.yieldpoints = yp
                if yp >= yplimit:
                    dejavu = vm.dejavu
                    if dejavu is None:
                        self.yp_limit = NEVER
                        if self.hw_bit:
                            self.hw_bit = False
                            scheduler.preempt()
                    else:
                        frame.pc = pc  # instrumentation may grow the stack (alloc)
                        self.cycles = cycles
                        dejavu.at_yieldpoint(thread, tag)
                    yplimit = self.yp_limit - ypbase
                pc += 1
                if self.switch_pending:
                    frame.pc = pc
                    self.cycles = cycles
                    return
        except VMTrap:
            # the trapping op (and every op before it) has been counted
            self.cycles = cycles + fstat[0] - ln2 + 2 * (fstat[1] - ln3)
            raise
