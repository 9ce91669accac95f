"""Naive repeated execution — the non-solution the paper opens with.

"Repeated execution, however, fails to reproduce the same execution
behavior for non-deterministic applications."  This baseline quantifies
that: run the program N times under live (differently-seeded) timers and
report how many distinct behaviours appear.  Zero trace bytes, zero
reproduction guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import GuestProgram, build_vm
from repro.vm.machine import Environment, VMConfig
from repro.vm.timerdev import SeededJitterClock, SeededJitterTimer


@dataclass
class RepeatedExecutionReport:
    runs: int
    #: distinct (output, heap digest, switch count, cycles) behaviours
    distinct_outputs: int
    distinct_behaviors: int
    outputs: list[str] = field(default_factory=list)
    reproduced_first: int = 0  # how many later runs matched run #0's output

    @property
    def divergence_rate(self) -> float:
        if self.runs <= 1:
            return 0.0
        return 1.0 - self.reproduced_first / (self.runs - 1)


def repeated_execution(
    program_factory,
    runs: int = 10,
    config: VMConfig | None = None,
    base_seed: int = 0,
    timer_lo: int = 40,
    timer_hi: int = 400,
) -> RepeatedExecutionReport:
    """Run the program under varying timers; count behaviours.

    ``program_factory`` builds the program once; every run executes it
    on a fresh VM with its own natives.
    """
    outputs: list[str] = []
    behaviors: set[tuple] = set()
    program = program_factory()
    assert isinstance(program, GuestProgram)
    for i in range(runs):
        vm = build_vm(
            program,
            config,
            timer=SeededJitterTimer(base_seed + i, timer_lo, timer_hi),
            clock=SeededJitterClock(base_seed + i),
            env=Environment(seed=base_seed + i),
        )
        result = vm.run(program.main)
        outputs.append(result.output_text)
        behaviors.add((result.output_text, result.heap_digest, result.switches, result.cycles))
    reproduced = sum(1 for out in outputs[1:] if out == outputs[0])
    return RepeatedExecutionReport(
        runs=runs,
        distinct_outputs=len(set(outputs)),
        distinct_behaviors=len(behaviors),
        outputs=outputs,
        reproduced_first=reproduced,
    )
