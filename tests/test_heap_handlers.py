"""Heap-access and int handlers: traps and wraparound pinned per handler.

The engine's field and array handlers index ``Memory.words`` in place
rather than going through :class:`~repro.vm.layout.ObjectModel`, and the
hot int ops skip the ``words`` helpers on their in-range path.  Each case
below drives one handler — plain, or a superinstruction under fusion —
into a null reference, an index of -1 or an index equal to the length,
or an i32 wraparound, and pins the trap (kind, message), the cycle it
lands on and the output, under every engine combination.  The expected
values were taken from the ``ObjectModel``-based handlers.

The memory identity tests pin what makes in-place access sound: once a
VM has bound code, ``vm.memory.words`` stays the list its handlers
captured, through image installs, collections, checkpoint restores and
time-travel rewinds.
"""

from __future__ import annotations

import pytest

from repro.api import GuestProgram, build_vm, record
from repro.core.checkpoint import CheckpointRecorder, restore_vm
from repro.core.controller import MODE_REPLAY, DejaVu
from repro.debugger.timetravel import TimeTravelSession
from repro.vm import compiler, interp
from repro.vm.engineconfig import EngineConfig
from repro.vm.interp import Engine
from repro.vm.machine import VMConfig
from repro.workloads import REGISTRY, racy_bank
from tests.conftest import jitter_knobs

ALL_ENGINES = EngineConfig.all_combinations()
ENGINE_IDS = [e.describe() for e in ALL_ENGINES]

_I32_MAX = 2147483647
_I32_MIN = -2147483648

_HEADER = """.class Box
.field v I
.class Main
.field static n I
.method static main ()V
"""


def _src(body: str) -> str:
    return _HEADER + body + "    return\n.end\n"


_NULL_LOCAL = "    aconst_null\n    astore 0\n"
_INT_ARRAY = "    iconst 3\n    newarray\n    astore 0\n"
_REF_ARRAY = "    iconst 3\n    anewarray LObject;\n    astore 0\n"

#: name -> (main body, fused opcode the handler is under fusion, or None
#: when the op stays a plain micro-op under every engine)
TRAP_CASES = {
    "getfield_null": ("    aconst_null\n    getfield Box.v I\n    pop\n", None),
    "putfield_null": ("    aconst_null\n    iconst 1\n    putfield Box.v I\n", None),
    "al_getfield_null": (
        _NULL_LOCAL + "    aload 0\n    getfield Box.v I\n    pop\n",
        compiler.F_AL_GETFIELD,
    ),
    "all_putfield_null": (
        _NULL_LOCAL + "    iconst 5\n    istore 1\n    aload 0\n    iload 1\n"
        "    putfield Box.v I\n",
        compiler.F_ALL_PUTFIELD,
    ),
    "alc_putfield_null": (
        _NULL_LOCAL + "    aload 0\n    iconst 5\n    putfield Box.v I\n",
        compiler.F_ALC_PUTFIELD,
    ),
    "iaload_null": ("    aconst_null\n    iconst 0\n    iaload\n    pop\n", None),
    "iastore_null": ("    aconst_null\n    iconst 0\n    iconst 1\n    iastore\n", None),
    "aaload_null": ("    aconst_null\n    iconst 0\n    aaload\n    pop\n", None),
    "aastore_null": (
        "    aconst_null\n    iconst 0\n    aconst_null\n    aastore\n", None
    ),
    "arraylength_null": ("    aconst_null\n    arraylength\n    pop\n", None),
    "all_aload_null": (
        _NULL_LOCAL + "    iconst 0\n    istore 1\n    aload 0\n    iload 1\n"
        "    iaload\n    pop\n",
        compiler.F_ALL_ALOAD,
    ),
    "iaload_neg": (_INT_ARRAY + "    aload 0\n    iconst -1\n    iaload\n    pop\n", None),
    "iaload_len": (_INT_ARRAY + "    aload 0\n    iconst 3\n    iaload\n    pop\n", None),
    "iastore_neg": (
        _INT_ARRAY + "    aload 0\n    iconst -1\n    iconst 7\n    iastore\n", None
    ),
    "iastore_len": (
        _INT_ARRAY + "    aload 0\n    iconst 3\n    iconst 7\n    iastore\n", None
    ),
    "aaload_neg": (_REF_ARRAY + "    aload 0\n    iconst -1\n    aaload\n    pop\n", None),
    "aaload_len": (_REF_ARRAY + "    aload 0\n    iconst 3\n    aaload\n    pop\n", None),
    "aastore_neg": (
        _REF_ARRAY + "    aload 0\n    iconst -1\n    aconst_null\n    aastore\n", None
    ),
    "aastore_len": (
        _REF_ARRAY + "    aload 0\n    iconst 3\n    aconst_null\n    aastore\n", None
    ),
    "all_iaload_neg": (
        _INT_ARRAY + "    iconst -1\n    istore 1\n    aload 0\n    iload 1\n"
        "    iaload\n    pop\n",
        compiler.F_ALL_ALOAD,
    ),
    "all_iaload_len": (
        _INT_ARRAY + "    iconst 3\n    istore 1\n    aload 0\n    iload 1\n"
        "    iaload\n    pop\n",
        compiler.F_ALL_ALOAD,
    ),
    "all_aaload_len": (
        _REF_ARRAY + "    iconst 3\n    istore 1\n    aload 0\n    iload 1\n"
        "    aaload\n    pop\n",
        compiler.F_ALL_ALOAD,
    ),
}

#: name -> (kind, message, cycle of the trap)
TRAP_EXPECTED = {
    "aaload_len": ("ArrayBounds", "ArrayBounds: index 3, length 3", 7),
    "aaload_neg": ("ArrayBounds", "ArrayBounds: index -1, length 3", 7),
    "aaload_null": ("NullPointer", "NullPointer: array access on null", 4),
    "aastore_len": ("ArrayBounds", "ArrayBounds: index 3, length 3", 8),
    "aastore_neg": ("ArrayBounds", "ArrayBounds: index -1, length 3", 8),
    "aastore_null": ("NullPointer", "NullPointer: array access on null", 5),
    "al_getfield_null": ("NullPointer", "NullPointer: getfield on null", 5),
    "alc_putfield_null": ("NullPointer", "NullPointer: putfield on null", 6),
    "all_aaload_len": ("ArrayBounds", "ArrayBounds: index 3, length 3", 9),
    "all_aload_null": ("NullPointer", "NullPointer: array access on null", 8),
    "all_iaload_len": ("ArrayBounds", "ArrayBounds: index 3, length 3", 9),
    "all_iaload_neg": ("ArrayBounds", "ArrayBounds: index -1, length 3", 9),
    "all_putfield_null": ("NullPointer", "NullPointer: putfield on null", 8),
    "arraylength_null": ("NullPointer", "NullPointer: arraylength of null", 3),
    "getfield_null": ("NullPointer", "NullPointer: getfield on null", 3),
    "iaload_len": ("ArrayBounds", "ArrayBounds: index 3, length 3", 7),
    "iaload_neg": ("ArrayBounds", "ArrayBounds: index -1, length 3", 7),
    "iaload_null": ("NullPointer", "NullPointer: array access on null", 4),
    "iastore_len": ("ArrayBounds", "ArrayBounds: index 3, length 3", 8),
    "iastore_neg": ("ArrayBounds", "ArrayBounds: index -1, length 3", 8),
    "iastore_null": ("NullPointer", "NullPointer: array access on null", 5),
    "putfield_null": ("NullPointer", "NullPointer: putfield on null", 4),
}

_PRINT = "    invokestatic System.printInt(I)V\n"
_SPACE = '    ldc " "\n    invokestatic System.print(LString;)V\n'

#: name -> (main body, fused opcodes the program must form under fusion)
VALUE_CASES = {
    # every heap handler on its non-trapping path: statics, constants,
    # fields (plain and fused), int and reference arrays
    "heap_roundtrip": (
        "    new Box\n    astore 0\n    iconst 4\n    newarray\n    astore 1\n"
        "    iconst 2\n    anewarray LObject;\n    astore 2\n"
        "    iconst 41\n    putstatic Main.n I\n"
        "    getstatic Main.n I\n    iconst 1\n    iadd\n    putstatic Main.n I\n"
        "    aload 0\n    getstatic Main.n I\n    putfield Box.v I\n"
        "    aload 0\n    iconst 9\n    putfield Box.v I\n"
        "    getstatic Main.n I\n    istore 3\n"
        "    aload 0\n    iload 3\n    putfield Box.v I\n"
        "    aload 0\n    getfield Box.v I\n" + _PRINT + _SPACE +
        "    aload 1\n    iconst 3\n    iload 3\n    iastore\n"
        "    iconst 3\n    istore 4\n"
        "    aload 1\n    iload 4\n    iaload\n" + _PRINT + _SPACE +
        "    aload 1\n    iconst 0\n    iaload\n" + _PRINT + _SPACE +
        "    aload 1\n    arraylength\n" + _PRINT + _SPACE +
        "    aload 2\n    iconst 1\n    aload 0\n    aastore\n"
        "    iconst 1\n    istore 4\n"
        "    aload 2\n    iload 4\n    aaload\n    ifnull out\n"
        '    ldc "ok"\n    invokestatic System.print(LString;)V\n'
        "out:\n",
        (compiler.F_AL_GETFIELD, compiler.F_ALL_PUTFIELD,
         compiler.F_ALC_PUTFIELD, compiler.F_ALL_ALOAD),
    ),
    "iinc_wrap": (
        f"    iconst {_I32_MAX}\n    istore 0\n    iinc 0 1\n    iload 0\n" + _PRINT
        + _SPACE
        + f"    iconst {_I32_MIN}\n    istore 0\n    iinc 0 -1\n    iload 0\n" + _PRINT,
        (),
    ),
    # iinc as the whole pure prefix of a fused backedge yield point
    "yp_iinc_wrap": (
        f"    iconst {_I32_MAX - 2}\n    istore 0\n"
        "top:\n    iload 0\n" + _PRINT + _SPACE +
        "    iload 0\n    iflt done\n    iinc 0 1\n    goto top\ndone:\n",
        (compiler.F_YP_GROUP,),
    ),
    # two iincs in front of the yield point (the generic prefix runner)
    "yp_iinc2_wrap": (
        f"    iconst {_I32_MAX - 2}\n    istore 0\n"
        f"    iconst {_I32_MIN + 2}\n    istore 1\n"
        "top:\n    iload 0\n" + _PRINT + _SPACE + "    iload 1\n" + _PRINT + _SPACE +
        "    iload 0\n    iflt done\n    iinc 0 1\n    iinc 1 -1\n    goto top\ndone:\n",
        (compiler.F_YP_GROUP,),
    ),
    "iadd_isub_wrap": (
        f"    iconst {_I32_MAX}\n    istore 0\n    iconst 1\n    istore 1\n"
        f"    iconst {_I32_MIN}\n    istore 2\n"
        "    iload 0\n    iload 1\n    iadd\n" + _PRINT + _SPACE +
        "    iload 2\n    iload 1\n    isub\n" + _PRINT + _SPACE +
        "    iload 0\n    iconst 1\n    iadd\n" + _PRINT + _SPACE +
        "    iload 2\n    iconst 1\n    isub\n" + _PRINT + _SPACE +
        f"    iconst {_I32_MAX}\n    iconst 1\n    iadd\n" + _PRINT + _SPACE +
        f"    iconst {_I32_MIN}\n    iconst 1\n    isub\n" + _PRINT + _SPACE +
        f"    iconst {_I32_MAX}\n    iload 1\n    iadd\n    istore 3\n"
        "    iload 3\n" + _PRINT + _SPACE +
        f"    iconst {_I32_MIN}\n    iload 1\n    isub\n    istore 3\n"
        "    iload 3\n" + _PRINT,
        (compiler.F_LL_BIN, compiler.F_LC_BIN, compiler.F_C_BIN,
         compiler.F_BIN_STORE),
    ),
}

#: name -> (output, cycles)
VALUE_EXPECTED = {
    "heap_roundtrip": ("42 42 0 4 ok", 67),
    "iadd_isub_wrap": (
        "-2147483648 2147483647 -2147483648 2147483647 "
        "-2147483648 2147483647 -2147483648 2147483647",
        58,
    ),
    "iinc_wrap": ("-2147483648 2147483647", 14),
    "yp_iinc2_wrap": (
        "2147483645 -2147483646 2147483646 -2147483647 "
        "2147483647 -2147483648 -2147483648 2147483647 ",
        58,
    ),
    "yp_iinc_wrap": ("2147483645 2147483646 2147483647 -2147483648 ", 37),
}

CFG_WORDS = 20_000


def _run(body: str, engine: EngineConfig):
    program = GuestProgram.from_source(_src(body))
    vm = build_vm(program, VMConfig(semispace_words=CFG_WORDS, engine=engine), timer=None)
    result = vm.run(program.main)
    main = vm.loader.resolve_static_method("Main.main()V")
    formed = {mop for mop, _, _ in main.code.xops}
    return result, formed


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=ENGINE_IDS)
@pytest.mark.parametrize("case", sorted(TRAP_CASES))
def test_trap_parity(case, engine):
    body, fused = TRAP_CASES[case]
    result, formed = _run(body, engine)
    if engine.fusion and fused is not None:
        assert fused in formed, "the case no longer forms its superinstruction"
    assert [(kind, msg) for _, kind, msg in result.traps] == [TRAP_EXPECTED[case][:2]]
    assert result.cycles == TRAP_EXPECTED[case][2]


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=ENGINE_IDS)
@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_value_parity(case, engine):
    body, fused = VALUE_CASES[case]
    result, formed = _run(body, engine)
    if engine.fusion:
        assert set(fused) <= formed, "the case no longer forms its superinstructions"
    assert not result.traps, result.traps
    assert (result.output_text, result.cycles) == VALUE_EXPECTED[case]


# -- Memory.words identity ---------------------------------------------------


@pytest.fixture
def first_bound(monkeypatch):
    """Engine -> the ``Memory.words`` list its VM held at its first bind;
    every later bind of the same engine must see that same list."""
    first: dict = {}
    bind = Engine._bind

    def _bind(self, rm):
        words = self.vm.memory.words
        assert first.setdefault(self, words) is words, "Memory.words was rebound"
        return bind(self, rm)

    monkeypatch.setattr(Engine, "_bind", _bind)
    return first


def _assert_kept(first: dict) -> None:
    assert first, "no code was bound"
    for engine, words in first.items():
        assert engine.vm.memory.words is words, "Memory.words was rebound"


def _bank_cfg(engine: EngineConfig) -> VMConfig:
    return VMConfig(semispace_words=60_000, engine=engine)


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=ENGINE_IDS)
class TestWordsIdentity:
    def test_image_install(self, engine, first_bound):
        vm = build_vm(racy_bank(), _bank_cfg(engine))
        vm.run()
        image = vm._image
        assert image is not None
        image.install(vm)
        _assert_kept(first_bound)
        assert vm.memory.words == image.words
        assert vm.memory.words is not image.words

    def test_gc_flips_both_ways(self, engine, first_bound):
        program = REGISTRY["gc_churn"].build(dict(iters=200, depth=40, hash_every=3))
        vm = build_vm(program, VMConfig(semispace_words=6_000, engine=engine))
        vm.run()
        assert vm.collector.collections >= 2  # to semispace 1 and back
        _assert_kept(first_bound)

    def test_checkpoint_restore(self, engine, first_bound):
        cfg = _bank_cfg(engine)
        recorded = record(racy_bank(), config=cfg, **jitter_knobs(5))
        vm = build_vm(racy_bank(), cfg)
        DejaVu(vm, MODE_REPLAY, trace=recorded.trace)
        snapshots = CheckpointRecorder(vm, 700).snapshots
        vm.run()
        assert len(snapshots) >= 2
        restored = restore_vm(snapshots[len(snapshots) // 2], racy_bank(),
                              recorded.trace, config=cfg)
        restored.engine.run()
        assert restored.finish().heap_digest == recorded.result.heap_digest
        _assert_kept(first_bound)

    def test_time_travel_rewind(self, engine, first_bound):
        cfg = _bank_cfg(engine)
        recorded = record(racy_bank(), config=cfg, **jitter_knobs(5))
        end = recorded.result.cycles
        session = TimeTravelSession(racy_bank(), recorded.trace, config=cfg,
                                    checkpoint_every=700)
        session.goto_cycles(end * 4 // 5)
        session.goto_cycles(end // 2)  # rewind from a checkpoint
        session.goto_cycles(300)  # before any checkpoint: from zero
        session.goto_cycles(end + 1)
        assert session.restores >= 1
        _assert_kept(first_bound)


# -- compare-branch closures -------------------------------------------------


class _Eng:
    def __init__(self):
        self._fstat = [0, 0]


_VALUES = (_I32_MIN, -2, -1, 0, 1, 2, _I32_MAX)
_TARGET, _NEXT = 7, 1


@pytest.mark.parametrize("mop", sorted(compiler.CMP2_FNS))
def test_two_operand_compare_branches(mop):
    """Every fused compare-branch shape, bound for every predicate,
    branches exactly when the predicate holds and pops what it should."""
    pred = compiler.CMP2_FNS[mop]
    b = (pred, _TARGET)
    for x in _VALUES:
        for y in _VALUES:
            want = _TARGET if pred(x, y) else _NEXT
            shapes = {
                compiler.F_LL_CMPBR: ((0, 1), [], [x, y]),
                compiler.F_LC_CMPBR: ((0, y), [], [x]),
                compiler.F_SL_CMPBR: (1, [x], [0, y]),
                compiler.F_SC_CMPBR: (y, [x], []),
            }
            for shape, (a, stack, locals_) in shapes.items():
                h = interp._FACTORIES[shape](_Eng(), a, b, 0, _NEXT)
                assert h(stack, locals_) == want, (shape, mop, x, y)
                assert stack == []


@pytest.mark.parametrize("mop", sorted(compiler.CMP1_FNS))
def test_local_branches_against_zero(mop):
    pred = compiler.CMP1_FNS[mop]
    for x in _VALUES:
        h = interp._FACTORIES[compiler.F_L_BR](_Eng(), 2, (pred, _TARGET), 0, _NEXT)
        assert h([], [0, 0, x]) == (_TARGET if pred(x) else _NEXT), (mop, x)
