"""B1/B4 — instrumentation precision: record and replay overhead.

The paper defines *precision* as the instrumented execution staying close
to the uninstrumented one.  We time the same workloads three ways —
uninstrumented, DejaVu record, DejaVu replay — under identical injected
non-determinism.  The claim to preserve is the *shape*: record overhead is
a modest constant factor (the instrumentation is inlined at yield points
and logs only rare events), and replay is comparable to record.
"""

import pytest

from repro.api import build_vm, record, replay
from repro.workloads import philosophers, server, sorter
from benchmarks.conftest import BENCH_CONFIG, knobs

WORKLOADS = {
    "server": lambda: server(n_workers=3, n_requests=40, seed=2),
    "sorter": lambda: sorter(n_workers=3, chunk=48),
    "philosophers": lambda: philosophers(n=4, rounds=10),
}


def _bare(factory):
    vm = build_vm(factory(), BENCH_CONFIG, **knobs(2))
    return vm.run()


def _record(factory):
    return record(factory(), config=BENCH_CONFIG, **knobs(2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.benchmark(group="B1-record-overhead")
def test_uninstrumented(benchmark, name):
    result = benchmark.pedantic(
        lambda: _bare(WORKLOADS[name]), rounds=5, iterations=1
    )
    assert not result.traps


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.benchmark(group="B1-record-overhead")
def test_dejavu_record(benchmark, name):
    session = benchmark.pedantic(
        lambda: _record(WORKLOADS[name]), rounds=5, iterations=1
    )
    assert session.trace.n_switch_records >= 0
    # accuracy sanity: the recorded run did the same guest work
    bare = _bare(WORKLOADS[name])
    assert session.result.output_text == bare.output_text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.benchmark(group="B4-replay-overhead")
def test_dejavu_replay(benchmark, name):
    session = _record(WORKLOADS[name])
    result = benchmark.pedantic(
        lambda: replay(WORKLOADS[name](), session.trace, config=BENCH_CONFIG),
        rounds=5,
        iterations=1,
    )
    assert result.output_text == session.result.output_text


@pytest.mark.benchmark(group="B1-record-overhead")
def test_record_overhead_is_bounded(benchmark, report):
    """Shape claim, asserted: record ≤ 4x uninstrumented wall time on every
    workload (the paper's precision goal; their measured slowdowns were
    small constants)."""
    import time

    def measure():
        ratios = {}
        for name, factory in sorted(WORKLOADS.items()):
            bare_t = rec_t = 0.0
            for _ in range(3):
                t0 = time.perf_counter()
                _bare(factory)
                bare_t += time.perf_counter() - t0
                t0 = time.perf_counter()
                _record(factory)
                rec_t += time.perf_counter() - t0
            ratios[name] = rec_t / bare_t
        return ratios

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    # measured ratios vary run to run: stdout only; the tracked report
    # holds the claim
    for name, ratio in ratios.items():
        print(f"{name}: record/uninstrumented wall-time ratio = {ratio:.2f}x")
        report.row(f"{name}: record/uninstrumented wall-time ratio below 4x")
        assert ratio < 4.0, f"{name} record overhead {ratio:.2f}x"
