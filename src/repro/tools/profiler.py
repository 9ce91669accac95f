"""Perturbation-free replay profiling.

A profiler normally distorts what it measures (the probe effect).  On a
replay platform it cannot: the profiler observes the engine host-side,
the guest executes the recorded instruction stream cycle for cycle, and —
because replay is accurate — the profile of run N equals the profile of
run N+1 exactly.  That determinism is itself asserted by the tests.

Implementation: the profiler attaches through the engine's debug-hook
slot (the same host-side seam the breakpoint controller uses), which the
engine binds into its handler tables of the ordinary fused program; its
``check`` is called before every executable op and attributes the
cycles of the canonical ops that op runs (``MachineCode.xstart``) to the
executing method and thread.  Switch/GC/monitor statistics come from
the observer stream and the monitor table after the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.controller import MODE_REPLAY, DejaVu
from repro.vm.machine import VMConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.core.tracelog import TraceLog


@dataclass
class MethodProfile:
    qualname: str
    cycles: int = 0
    invocations: int = 0

    @property
    def cycles_per_call(self) -> float:
        return self.cycles / self.invocations if self.invocations else 0.0


@dataclass
class ProfileReport:
    total_cycles: int
    methods: dict[str, MethodProfile]
    thread_cycles: dict[int, int]
    switches: int
    preemptive_switch_records: int
    gc_count: int
    gc_live_words: list[int]
    monitor_acquisitions: int
    monitor_contentions: int
    output_text: str

    def top_methods(self, n: int = 10) -> list[MethodProfile]:
        return sorted(self.methods.values(), key=lambda m: -m.cycles)[:n]

    def format(self, n: int = 10) -> str:
        lines = [
            f"total cycles: {self.total_cycles}   threads: {len(self.thread_cycles)}"
            f"   switches: {self.switches} ({self.preemptive_switch_records} preemptive)",
            f"gc: {self.gc_count} collections   monitors: "
            f"{self.monitor_acquisitions} acquisitions, "
            f"{self.monitor_contentions} contended",
            f"{'method':<40}{'cycles':>10}{'calls':>8}{'cyc/call':>10}{'%':>7}",
        ]
        for m in self.top_methods(n):
            pct = 100.0 * m.cycles / self.total_cycles if self.total_cycles else 0
            lines.append(
                f"{m.qualname:<40}{m.cycles:>10}{m.invocations:>8}"
                f"{m.cycles_per_call:>10.1f}{pct:>6.1f}%"
            )
        return "\n".join(lines)


class _ProfilerHook:
    """Engine debug-hook that attributes every cycle; never pauses."""

    paused = False

    def __init__(self) -> None:
        self.method_cycles: dict[str, int] = {}
        self.method_entries: dict[str, int] = {}
        self.thread_cycles: dict[int, int] = {}
        self._last_frame_id: int | None = None

    def check(self, thread, frame, pc) -> bool:
        qual = frame.method.qualname
        xstart = frame.code.xstart
        n = xstart[pc + 1] - xstart[pc]
        self.method_cycles[qual] = self.method_cycles.get(qual, 0) + n
        self.thread_cycles[thread.tid] = self.thread_cycles.get(thread.tid, 0) + n
        if pc == 0 and id(frame) != self._last_frame_id:
            self.method_entries[qual] = self.method_entries.get(qual, 0) + 1
        self._last_frame_id = id(frame)
        return False


class ReplayProfiler:
    """Profile one recorded execution by replaying it under observation."""

    def __init__(self, program: "GuestProgram", trace: "TraceLog", config: VMConfig | None = None):
        self.program = program
        self.trace = trace
        self.config = config

    def run(self) -> ProfileReport:
        from repro.api import build_vm

        vm = build_vm(self.program, self.config)
        DejaVu(vm, MODE_REPLAY, trace=self.trace)
        hook = _ProfilerHook()
        vm.engine.debug = hook
        result = vm.run(self.program.main)

        methods = {
            qual: MethodProfile(
                qualname=qual,
                cycles=cycles,
                invocations=hook.method_entries.get(qual, 0),
            )
            for qual, cycles in hook.method_cycles.items()
        }
        gc_events = [e for e in result.events if e[0] == "gc"]
        return ProfileReport(
            total_cycles=result.cycles,
            methods=methods,
            thread_cycles=dict(hook.thread_cycles),
            switches=result.switches,
            preemptive_switch_records=self.trace.n_switch_records,
            gc_count=result.gc_count,
            gc_live_words=[e[2] for e in gc_events],
            monitor_acquisitions=vm.monitors.acquisitions,
            monitor_contentions=vm.monitors.contentions,
            output_text=result.output_text,
        )


def profile(program: "GuestProgram", trace: "TraceLog", config: VMConfig | None = None) -> ProfileReport:
    """One-call convenience: replay *trace* and return its exact profile."""
    return ReplayProfiler(program, trace, config).run()
