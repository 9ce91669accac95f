"""B5 — symmetry ablations: each §2.4 mechanism, removed, breaks replay.

For every mechanism the table shows: symmetric (ON) replay faithful;
ablated (OFF) replay diverges, and *how* the divergence surfaced (the
online kind-check, the END heap digest, the GC count...).  This is the
design-choice evidence DESIGN.md calls out.
"""

import pytest

from repro.api import record, replay
from repro.core import SymmetryConfig, compare_runs
from repro.vm.errors import ReplayDivergenceError
from repro.vm.machine import VMConfig
from repro.workloads import gc_churn, server
from benchmarks.conftest import knobs

CHURN_CFG = VMConfig(semispace_words=9_000, initial_stack_words=128)
SERVER_CFG = VMConfig(semispace_words=60_000)
TINY = dict(switch_buffer_words=16, value_buffer_words=32)

ABLATIONS = [
    (
        "allocation (preallocate_buffers)",
        SymmetryConfig(preallocate_buffers=False),
        lambda: gc_churn(iters=600),
        CHURN_CFG,
        {},
    ),
    (
        "class loading (preload_classes)",
        SymmetryConfig(preload_classes=False),
        lambda: gc_churn(iters=600),
        CHURN_CFG,
        {},
    ),
    (
        "stack overflow (eager_stack_growth)",
        SymmetryConfig(eager_stack_growth=False),
        lambda: gc_churn(iters=600),
        CHURN_CFG,
        {},
    ),
    (
        "logical clock (liveclock)",
        SymmetryConfig(liveclock=False),
        lambda: server(seed=3),
        SERVER_CFG,
        TINY,
    ),
]


def run_pair(factory, config, symmetry, extra):
    session = record(
        factory(), config=config, symmetry=symmetry, **knobs(3), **extra
    )
    replayed = replay(
        factory(), session.trace, config=config, symmetry=symmetry, **extra
    )
    return compare_runs(session.result, replayed)


@pytest.mark.benchmark(group="B5-ablations")
def test_ablation_table(benchmark, report):
    report.row(f"{'mechanism':<38}{'symmetric':>10}{'ablated':>28}")
    for name, ablated_sym, factory, config, extra in ABLATIONS:
        on = run_pair(factory, config, SymmetryConfig(), extra)
        assert on.faithful, (name, on.detail)
        try:
            off = run_pair(factory, config, ablated_sym, extra)
            outcome = "diverged (verify)" if not off.faithful else "FAITHFUL?!"
            diverged = not off.faithful
        except ReplayDivergenceError as exc:
            outcome = f"diverged online: {str(exc)[:40]}"
            diverged = True
        report.row(f"{name:<38}{'faithful':>10}{outcome:>28}")
        assert diverged, f"ablating {name} should break replay"
    benchmark.pedantic(
        lambda: run_pair(lambda: gc_churn(iters=200), CHURN_CFG, SymmetryConfig(), {}),
        rounds=2,
        iterations=1,
    )


@pytest.mark.benchmark(group="B5-ablations")
def test_symmetry_cost_is_negligible(benchmark, report):
    """The mechanisms exist for accuracy, not speed — but they must not
    cost much either.  Compare record time with everything on vs the
    (unsound) everything-off configuration."""
    import time

    def timed(sym):
        t0 = time.perf_counter()
        for seed in range(3):
            record(
                gc_churn(iters=300), config=CHURN_CFG, symmetry=sym, **knobs(seed)
            )
        return time.perf_counter() - t0

    def measure():
        return timed(SymmetryConfig()), timed(SymmetryConfig.all_off())

    t_on, t_off = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = t_on / t_off
    # the measured ratio varies run to run, so it goes to stdout; the
    # tracked report holds only the claim, and stays put when it holds
    print(f"record time, all symmetry on/off ratio: {ratio:.2f}x")
    report.row("record time, all symmetry on/off ratio below 1.8x")
    assert ratio < 1.8
