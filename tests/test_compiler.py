"""The baseline compiler: yield-point placement, branch fixups, frame sizing."""

import pytest

from repro.vm import VirtualMachine, assemble
from repro.vm.compiler import (
    FRAME_OVERHEAD_WORDS,
    M_GOTO,
    M_IF_ICMPGE,
    M_INVOKESTATIC,
    M_YIELDPOINT,
    YP_BACKEDGE,
    YP_PROLOGUE,
)
from tests.conftest import TEST_CONFIG


def compile_one(body: str, sig: str = "()V"):
    vm = VirtualMachine(TEST_CONFIG)
    vm.declare(
        assemble(
            f""".class T
.method static m {sig}
{body}
.end
"""
        )
    )
    vm.load("T")
    return vm.loader.resolve_method_any(f"T.m{sig}").code


class TestYieldPoints:
    def test_prologue_yieldpoint_always_first(self):
        mc = compile_one("    return")
        assert mc.ops[0][0] == M_YIELDPOINT
        assert mc.ops[0][1] == YP_PROLOGUE

    def test_backedge_yieldpoint_before_backward_branch(self):
        mc = compile_one(
            """
top:
    iconst 1
    ifeq top
    return
"""
        )
        yps = [(i, op) for i, op in enumerate(mc.ops) if op[0] == M_YIELDPOINT]
        assert len(yps) == 2
        backedge_pc = yps[1][0]
        assert mc.ops[backedge_pc][1] == YP_BACKEDGE
        # the very next op is the branch itself
        assert mc.ops[backedge_pc + 1][0] != M_YIELDPOINT

    def test_forward_branch_gets_no_yieldpoint(self):
        mc = compile_one(
            """
    iconst 1
    ifeq done
    nop
done:
    return
"""
        )
        assert mc.n_yieldpoints == 1  # prologue only

    def test_yieldpoint_count_recorded(self):
        mc = compile_one(
            """
a:
    iconst 1
    ifeq a
b:
    iconst 1
    ifeq b
    return
"""
        )
        assert mc.n_yieldpoints == 3


class TestBranchFixups:
    def test_backward_branch_target_skips_inserted_yieldpoint(self):
        mc = compile_one(
            """
    iconst 0
    istore 0
top:
    iload 0
    iconst 10
    if_icmpge out
    iinc 0 1
    goto top
out:
    return
"""
        )
        goto = next(op for op in mc.ops if op[0] == M_GOTO)
        # target must be the machine pc of bci 2 ('top'), i.e. the iload
        assert goto[1] == mc.pc_of_bci[2]
        cond = next(op for op in mc.ops if op[0] == M_IF_ICMPGE)
        assert cond[1] == mc.pc_of_bci[7]

    def test_bci_mapping_total(self):
        mc = compile_one("    iconst 1\n    pop\n    return")
        assert len(mc.bci_of) == len(mc.ops)
        # every machine pc maps to a valid bci
        assert all(0 <= b < len(mc.pc_of_bci) for b in mc.bci_of)


class TestFrameSizing:
    def test_frame_words_formula(self):
        mc = compile_one("    iconst 1\n    iconst 2\n    iadd\n    istore 3\n    return")
        assert mc.nlocals == 4
        assert mc.max_stack == 2
        assert mc.frame_words == 4 + 2 + FRAME_OVERHEAD_WORDS

    def test_params_counted_in_locals(self):
        mc = compile_one("    return", sig="(III)V")
        assert mc.nlocals == 3


class TestResolution:
    def test_static_call_resolved_to_runtime_method(self):
        vm = VirtualMachine(TEST_CONFIG)
        vm.declare(
            assemble(
                """
.class T
.method static callee ()V
    return
.end
.method static m ()V
    invokestatic T.callee()V
    return
.end
"""
            )
        )
        vm.load("T")
        mc = vm.loader.resolve_method_any("T.m()V").code
        call = next(op for op in mc.ops if op[0] == M_INVOKESTATIC)
        # operands name loader objects by index: a static call, its method id
        assert vm.loader.method_by_id[call[1]] is vm.loader.resolve_method_any("T.callee()V")

    def test_field_offsets_inlined(self):
        vm = VirtualMachine(TEST_CONFIG)
        vm.declare(
            assemble(
                """
.class T
.field a I
.field b I
.method static m (LT;)I
    aload 0
    getfield T.b I
    ireturn
.end
"""
            )
        )
        vm.load("T")
        from repro.vm.compiler import M_GETFIELD
        from repro.vm.layout import HEADER_WORDS

        mc = vm.loader.resolve_method_any("T.m(LT;)I").code
        get = next(op for op in mc.ops if op[0] == M_GETFIELD)
        assert get[1] == HEADER_WORDS + 1  # offset of b

    def test_native_cannot_be_compiled(self):
        from repro.vm.compiler import compile_method
        from repro.vm.errors import VMError

        vm = VirtualMachine(TEST_CONFIG)
        vm.declare(assemble(".class T\n.native static n ()I\n"))
        rc = vm.loader.ensure_layout("T")
        rm = vm.loader.resolve_method_any("T.n()I")
        with pytest.raises(VMError):
            compile_method(vm.loader, rc, rm)
