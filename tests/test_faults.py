"""The fault-injection harness: plans, injectors, and campaigns.

The contract under test: a fault may cost data but never correctness —
every injected failure ends in clean recovery or a typed diagnostic.
The full 100-fault acceptance campaign is marked ``fuzz`` and runs in
the CI faults-smoke job; a small campaign runs in tier 1.
"""

import pytest

from repro.api import record, replay_prefix, standard_knobs
from repro.campaign import run_faults_campaign
from repro.core.tracelog import TraceLog
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    apply_trace_fault,
    arm_native_fault,
    segment_boundaries,
)
from repro.vm import SeededJitterTimer
from repro.vm.machine import VMConfig
from repro.workloads import REGISTRY, server

CFG = VMConfig(semispace_words=60_000)
SMALL_BANK = {"tellers": 2, "deposits": 8}


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        assert FaultPlan.generate(42, 30).specs == FaultPlan.generate(42, 30).specs

    def test_different_seed_different_plan(self):
        assert FaultPlan.generate(1, 30).specs != FaultPlan.generate(2, 30).specs

    def test_layer_filter(self):
        plan = FaultPlan.generate(7, 40, layers=("trace",))
        assert len(plan) == 40
        assert all(s.layer == "trace" for s in plan)

    @pytest.mark.fault_seed(7)
    @pytest.mark.fault_count(15)
    def test_fixture_honours_markers(self, fault_plan):
        assert fault_plan.seed == 7
        assert len(fault_plan) == 15


class TestTraceInjectors:
    @pytest.fixture
    def blob(self, tmp_path):
        path = tmp_path / "t.djv"
        record(
            server(n_workers=2, n_requests=6, seed=0, work_scale=1),
            config=CFG,
            timer=SeededJitterTimer(5, 40, 160),
            out=path,
        )
        return path.read_bytes()

    def test_bit_flip_changes_exactly_one_byte(self, blob):
        spec = FaultSpec(0, "bit-flip", (0.5, 3))
        damaged = apply_trace_fault(blob, spec)
        assert len(damaged) == len(blob)
        diffs = [i for i, (a, b) in enumerate(zip(blob, damaged)) if a != b]
        assert len(diffs) == 1

    def test_truncate_shortens(self, blob):
        damaged = apply_trace_fault(blob, FaultSpec(0, "truncate", (0.7,)))
        assert 0 < len(damaged) < len(blob)
        assert blob.startswith(damaged)

    def test_torn_write_cuts_at_a_segment_boundary(self, blob):
        header = 6
        candidates = {header, *segment_boundaries(blob)[:-1]}
        for frac in (0.0, 0.3, 0.6, 0.99):
            damaged = apply_trace_fault(blob, FaultSpec(0, "torn-write", (frac,)))
            assert len(damaged) in candidates


class TestSlimTornWrite:
    """A v3.2 (slim) trace frames a slim-stream ``L`` segment; every
    segment end is a place a crash can cut, including the ones after it."""

    @pytest.fixture
    def recording(self, tmp_path):
        path = tmp_path / "slim.djv"
        run = record(REGISTRY["readers_writers"].build(), out=path, slim=True,
                     **standard_knobs(1))
        return path.read_bytes(), run.trace

    def test_boundaries_reach_every_segment_end(self, recording):
        blob, _ = recording
        kinds, pos = [], 6
        for end in segment_boundaries(blob):
            kinds.append(blob[pos:pos + 1])
            pos = end
        assert kinds == [b"V", b"L", b"M", b"F"]
        assert pos == len(blob)

    def test_cut_after_the_slim_segment_salvages_it(self, recording, tmp_path):
        blob, trace = recording
        after_slim = segment_boundaries(blob)[1]
        # torn-write candidates: the header end, then the V, L and M ends
        damaged = apply_trace_fault(blob, FaultSpec(0, "torn-write", (0.5,)))
        assert len(damaged) == after_slim
        path = tmp_path / "torn.djv"
        path.write_bytes(damaged)
        salvaged = TraceLog.salvage(path)
        assert salvaged.salvage_report.slim_segments == 1
        assert salvaged.salvage_report.error is None
        assert salvaged.slim == trace.slim and salvaged.values == trace.values


class TestNativeInjector:
    def test_nth_nondet_call_raises_and_tmp_salvages(self, tmp_path):
        out = tmp_path / "t.djv"
        program = server(n_workers=2, n_requests=10, seed=0, work_scale=1)
        with pytest.raises(InjectedFault, match="call #5"):
            record(
                program,
                config=CFG,
                timer=SeededJitterTimer(5, 40, 160),
                out=out,
                vm_hook=lambda vm: arm_native_fault(vm, 5),
            )
        assert not out.exists()  # the seal never happened
        trace = TraceLog.salvage(out.with_name(out.name + ".tmp"))
        assert trace.truncated
        prefix = replay_prefix(
            server(n_workers=2, n_requests=10, seed=0, work_scale=1),
            trace,
            config=CFG,
        )
        assert prefix.result is not None

    def test_counter_reports_not_triggered(self, tmp_path):
        out = tmp_path / "t.djv"
        counters = []
        record(
            server(n_workers=2, n_requests=4, seed=0, work_scale=1),
            config=CFG,
            timer=SeededJitterTimer(5, 40, 160),
            out=out,
            vm_hook=lambda vm: counters.append(arm_native_fault(vm, 10_000)),
        )
        assert out.exists()
        assert 0 < counters[0]["calls"] < 10_000


class TestCampaign:
    def test_small_campaign_meets_the_contract(self):
        plan = FaultPlan.generate(11, 15)
        report = run_faults_campaign(
            plan,
            workload="bank",
            workload_kwargs=SMALL_BANK,
            config=CFG,
            jobs=1,
        )
        assert len(report.outcomes) == 15
        assert report.ok, report.format()
        assert "typed diagnostic" in report.format()

    def test_campaign_on_value_stream_workload(self):
        # the server workload records real value words, so trace faults
        # can land in the value stream too
        plan = FaultPlan.generate(23, 12, layers=("trace", "native"))
        report = run_faults_campaign(
            plan,
            workload="server",
            workload_kwargs={"n_workers": 2, "n_requests": 8, "work_scale": 1},
            config=CFG,
            jobs=1,
        )
        assert report.ok, report.format()

    @pytest.mark.fuzz
    def test_acceptance_campaign_seed42_100_faults(self):
        report = run_faults_campaign(
            FaultPlan.generate(42, 100),
            workload="bank",
            jobs=1,
        )
        assert len(report.outcomes) == 100
        assert report.ok, report.format()
        tally = report.tally()
        assert not any(k.startswith("unclassified") for k in tally)
        assert "hang" not in tally and "undetected" not in tally
