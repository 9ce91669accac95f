"""Replay-based bytecode/line coverage.

Which code did the *recorded* execution actually run?  Replaying under a
host-side observer answers exactly, without instrumenting the guest —
coverage of a production recording, after the fact, with zero probe
effect.  Results map to source lines through the same line tables the
reflection interface (Figure 3) exposes.  The observer is a debug hook
the engine binds into its handler tables, consulted before every op of
the ordinary fused program; a superinstruction covers the bcis of every
canonical op it runs (``MachineCode.xstart``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.controller import MODE_REPLAY, DejaVu
from repro.vm.machine import VMConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.core.tracelog import TraceLog


@dataclass
class MethodCoverage:
    qualname: str
    total_bcis: int
    hit_bcis: set[int] = field(default_factory=set)
    line_table: dict[int, int] = field(default_factory=dict)

    @property
    def hit_count(self) -> int:
        return len(self.hit_bcis)

    @property
    def ratio(self) -> float:
        return self.hit_count / self.total_bcis if self.total_bcis else 1.0

    @property
    def missed_lines(self) -> list[int]:
        missed = {
            self.line_table[bci]
            for bci in range(self.total_bcis)
            if bci not in self.hit_bcis and bci in self.line_table
        }
        hit_lines = {self.line_table[b] for b in self.hit_bcis if b in self.line_table}
        return sorted(missed - hit_lines)


@dataclass
class CoverageReport:
    methods: dict[str, MethodCoverage]

    @property
    def total_ratio(self) -> float:
        total = sum(m.total_bcis for m in self.methods.values())
        hit = sum(m.hit_count for m in self.methods.values())
        return hit / total if total else 1.0

    def format(self) -> str:
        lines = [f"{'method':<44}{'covered':>10}{'missed lines':>20}"]
        for qual in sorted(self.methods):
            m = self.methods[qual]
            missed = ",".join(map(str, m.missed_lines[:8])) or "-"
            lines.append(
                f"{qual:<44}{m.hit_count:>4}/{m.total_bcis:<5}{missed:>20}"
            )
        lines.append(f"overall: {self.total_ratio:.1%}")
        return "\n".join(lines)


class _CoverageHook:
    """Engine debug-hook recording every executed bci; never pauses."""

    paused = False

    def __init__(self) -> None:
        self.hits: dict[str, set[int]] = {}

    def check(self, thread, frame, pc) -> bool:
        qual = frame.method.qualname
        bucket = self.hits.get(qual)
        if bucket is None:
            bucket = self.hits[qual] = set()
        code = frame.code
        bucket.update(code.bci_of[code.xstart[pc]:code.xstart[pc + 1]])
        return False


class ReplayCoverage:
    """Coverage of one recorded execution, by user (non-core) method."""

    def __init__(self, program: "GuestProgram", trace: "TraceLog", config: VMConfig | None = None):
        self.program = program
        self.trace = trace
        self.config = config

    def run(self) -> CoverageReport:
        from repro.api import build_vm

        vm = build_vm(self.program, self.config)
        DejaVu(vm, MODE_REPLAY, trace=self.trace)
        hook = _CoverageHook()
        vm.engine.debug = hook
        vm.run(self.program.main)

        program_classes = {cd.name for cd in self.program.classdefs}
        methods: dict[str, MethodCoverage] = {}
        for rm in vm.loader.method_by_id:
            if rm.owner.name not in program_classes or rm.native:
                continue
            cov = MethodCoverage(
                qualname=rm.qualname,
                total_bcis=len(rm.mdef.code),
                hit_bcis=hook.hits.get(rm.qualname, set()),
                line_table=dict(rm.mdef.line_table),
            )
            methods[rm.qualname] = cov
        return CoverageReport(methods=methods)
