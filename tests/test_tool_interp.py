"""Differential testing: the tool interpreter vs the compiled engine.

The tool VM "interprets the same reflection methods" the application VM
runs compiled (Figure 4).  For deterministic single-threaded code the two
execution engines must agree exactly — a strong cross-check on both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.remote import DebugPort, ToolInterpreter
from repro.vm import VirtualMachine, assemble
from repro.vm import words
from tests.conftest import TEST_CONFIG


def both_engines(src: str, call: str, args: list[int]):
    """Run Class.method via the compiled engine (through a main wrapper)
    and via the tool interpreter; return (engine_result, tool_result)."""
    # engine side: wrap in a main that prints the result
    arg_pushes = "\n".join(f"    iconst {a}" for a in args)
    wrapper = f"""
.class Main
.method static main ()V
{arg_pushes}
    invokestatic {call}
    invokestatic System.printInt(I)V
    return
.end
"""
    vm1 = VirtualMachine(TEST_CONFIG)
    vm1.declare(assemble(src + wrapper))
    engine_result = int(vm1.run().output_text)

    vm2 = VirtualMachine(TEST_CONFIG)
    vm2.declare(assemble(src))
    # self-inspection port: the tool interpreter needs *a* remote VM, but
    # these methods never touch remote objects
    tool = ToolInterpreter(vm2, DebugPort(vm2))
    tool_result = tool.call(call, list(args))
    return engine_result, words.to_i32(tool_result)


ARITH_SRC = """
.class F
.method static mix (II)I
    iload 0
    iload 1
    iadd
    iload 0
    iload 1
    isub
    imul
    iload 1
    iconst 3
    ior
    ixor
    ireturn
.end
.method static collatz (I)I
    iconst 0
    istore 1
loop:
    iload 0
    iconst 1
    if_icmple done
    iload 0
    iconst 2
    irem
    ifne odd
    iload 0
    iconst 2
    idiv
    istore 0
    goto next
odd:
    iload 0
    iconst 3
    imul
    iconst 1
    iadd
    istore 0
next:
    iinc 1 1
    iload 1
    iconst 200
    if_icmpge done
    goto loop
done:
    iload 1
    ireturn
.end
.method static arrays (I)I
    iload 0
    iconst 1
    iadd
    newarray
    astore 1
    iconst 0
    istore 2
fill:
    iload 2
    aload 1
    arraylength
    if_icmpge sum
    aload 1
    iload 2
    iload 2
    iload 2
    imul
    iastore
    iinc 2 1
    goto fill
sum:
    iconst 0
    istore 3
    iconst 0
    istore 2
add:
    iload 2
    aload 1
    arraylength
    if_icmpge out
    iload 3
    aload 1
    iload 2
    iaload
    iadd
    istore 3
    iinc 2 1
    goto add
out:
    iload 3
    ireturn
.end
"""


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=words.I32_MIN, max_value=words.I32_MAX),
        st.integers(min_value=words.I32_MIN, max_value=words.I32_MAX),
    )
    def test_mix_agrees(self, a, b):
        e, t = both_engines(ARITH_SRC, "F.mix(II)I", [a, b])
        assert e == t

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=10_000))
    def test_collatz_agrees(self, n):
        e, t = both_engines(ARITH_SRC, "F.collatz(I)I", [n])
        assert e == t

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=60))
    def test_arrays_agree(self, n):
        e, t = both_engines(ARITH_SRC, "F.arrays(I)I", [n])
        assert e == t

    def test_objects_and_virtual_calls_agree(self):
        src = """
.class Shape
.field scale I
.method area (I)I
    iload 1
    aload 0
    getfield Shape.scale I
    imul
    ireturn
.end
.class Square
.super Shape
.method area (I)I
    iload 1
    iload 1
    imul
    aload 0
    getfield Shape.scale I
    imul
    ireturn
.end
.class F
.method static go (I)I
    new Square
    astore 1
    aload 1
    iconst 3
    putfield Shape.scale I
    aload 1
    iload 0
    invokevirtual Shape.area(I)I
    ireturn
.end
"""
        e, t = both_engines(src, "F.go(I)I", [7])
        assert e == t == 7 * 7 * 3

    @pytest.mark.parametrize(
        "body",
        [
            "    aconst_null\n    getfield P.x I\n",
            "    aconst_null\n    iconst 0\n    iaload\n",
            "    aconst_null\n    arraylength\n",
        ],
        ids=["getfield", "iaload", "arraylength"],
    )
    def test_trap_parity_null_heap_access(self, body):
        """A null dereference traps with the same kind and message in
        the tool interpreter as in the compiled engine."""
        from repro.vm.errors import VMTrap

        src = f"""
.class P
.field x I
.class F
.method static boom ()I
{body}    ireturn
.end
"""
        wrapper = """
.class Main
.method static main ()V
    invokestatic F.boom()I
    pop
    return
.end
"""
        vm = VirtualMachine(TEST_CONFIG)
        vm.declare(assemble(src + wrapper))
        traps = vm.run().traps
        assert len(traps) == 1
        tool_vm = VirtualMachine(TEST_CONFIG)
        tool_vm.declare(assemble(src))
        tool = ToolInterpreter(tool_vm, DebugPort(tool_vm))
        with pytest.raises(VMTrap) as exc:
            tool.call("F.boom()I", [])
        assert (exc.value.kind, str(exc.value)) == traps[0][1:]

    def test_trap_parity_div_zero(self):
        from repro.vm.errors import VMTrap

        src = """
.class F
.method static boom ()I
    iconst 1
    iconst 0
    idiv
    ireturn
.end
"""
        vm = VirtualMachine(TEST_CONFIG)
        vm.declare(assemble(src))
        tool = ToolInterpreter(vm, DebugPort(vm))
        with pytest.raises(VMTrap):
            tool.call("F.boom()I", [])
