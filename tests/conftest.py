"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.api import GuestProgram, build_vm
from repro.vm.machine import _DEFAULT
from repro.vm import VirtualMachine, VMConfig, assemble
from repro.vm.machine import Environment
from repro.vm.timerdev import FixedTimer, SeededJitterClock, SeededJitterTimer

#: small-but-comfortable heap for unit tests
TEST_CONFIG = VMConfig(semispace_words=40_000)
#: heap sized to force several collections in allocation-heavy tests
SMALL_HEAP = VMConfig(semispace_words=9_000)


def run_source(
    source: str,
    main: str = "Main.main()V",
    *,
    config: VMConfig | None = None,
    timer=_DEFAULT,
    clock=None,
    env: Environment | None = None,
    natives=None,
):
    """Assemble, run, return the RunResult (fresh VM)."""
    program = GuestProgram.from_source(source, main=main, natives=natives)
    vm = build_vm(
        program,
        config or TEST_CONFIG,
        timer=timer,
        clock=clock,
        env=env,
    )
    return vm.run(program.main)


def make_vm(source: str | None = None, *, config: VMConfig | None = None, **kwargs) -> VirtualMachine:
    vm = VirtualMachine(config or TEST_CONFIG, **kwargs)
    if source is not None:
        vm.declare(assemble(source))
    return vm


def jitter_knobs(seed: int, lo: int = 40, hi: int = 200) -> dict:
    """Standard non-determinism sources for record/replay tests."""
    return dict(
        timer=SeededJitterTimer(seed, lo, hi),
        clock=SeededJitterClock(seed),
        env=Environment(seed=seed),
    )


@pytest.fixture
def vm() -> VirtualMachine:
    return VirtualMachine(TEST_CONFIG, timer=FixedTimer(1000))


@pytest.fixture
def fault_seed(request) -> int:
    """The ``fault_seed(N)`` marker's seed (default 42)."""
    marker = request.node.get_closest_marker("fault_seed")
    return marker.args[0] if marker else 42


@pytest.fixture
def fault_plan(request, fault_seed):
    """A seeded fault plan; ``fault_count(N)`` sets its size (default 20)."""
    from repro.faults.plan import FaultPlan

    marker = request.node.get_closest_marker("fault_count")
    return FaultPlan.generate(fault_seed, marker.args[0] if marker else 20)
