"""The campaign determinism contract: ``--jobs 1`` and ``--jobs N`` are
observably identical.

The runner's claim is that every item result is a pure function of
``(payload, item)`` and the parent merges by work-list index, so worker
count, shard assignment, and message arrival order can never leak into
the outcome.  These tests pin the claim end to end on the two campaign
kinds at k=1 and k=2: identical behaviour-digest sets, identical failure
lists, identical report digests, and **byte-identical** corpora.
"""

from pathlib import Path

import pytest

from repro.campaign import run_explore_campaign, run_faults_campaign
from repro.faults import FaultPlan
from repro.vm.machine import VMConfig

CFG = VMConfig(semispace_words=60_000)


def corpus_files(root) -> "dict[str, bytes]":
    """Every corpus file (entries + index) by name — the byte-level
    identity two equivalent campaigns must agree on."""
    return {
        p.name: p.read_bytes() for p in sorted(Path(root).iterdir()) if p.is_file()
    }


def run_pair(workload, tmp_path, *, bound, budget, jobs=4, **kwargs):
    d1 = tmp_path / "corpus-j1"
    dn = tmp_path / f"corpus-j{jobs}"
    serial = run_explore_campaign(
        workload,
        bound=bound,
        budget=budget,
        jobs=1,
        config=CFG,
        corpus_dir=d1,
        **kwargs,
    )
    sharded = run_explore_campaign(
        workload,
        bound=bound,
        budget=budget,
        jobs=jobs,
        config=CFG,
        corpus_dir=dn,
        **kwargs,
    )
    return serial, sharded, d1, dn


class TestExploreDifferential:
    @pytest.mark.parametrize("bound", [1, 2])
    def test_bank_jobs1_equals_jobs4(self, tmp_path, bound):
        serial, sharded, d1, dn = run_pair(
            "bank", tmp_path, bound=bound, budget=40
        )
        assert serial.behavior_set() == sharded.behavior_set()
        assert serial.unique_behaviors == sharded.unique_behaviors
        assert len(serial.failures) == len(sharded.failures)
        assert serial.digest() == sharded.digest()
        assert corpus_files(d1) == corpus_files(dn)

    def test_server_jobs1_equals_jobs4(self, tmp_path):
        serial, sharded, d1, dn = run_pair(
            "server", tmp_path, bound=1, budget=15
        )
        assert serial.digest() == sharded.digest()
        assert corpus_files(d1) == corpus_files(dn)

    @pytest.mark.fuzz
    def test_server_k2_jobs1_equals_jobs4(self, tmp_path):
        serial, sharded, d1, dn = run_pair(
            "server", tmp_path, bound=2, budget=80
        )
        assert serial.digest() == sharded.digest()
        assert corpus_files(d1) == corpus_files(dn)

    def test_failures_are_ordered_by_worklist(self, tmp_path):
        _, sharded, _, _ = run_pair("bank", tmp_path, bound=1, budget=40)
        schedules = [f.positions for f in sharded.failures]
        assert schedules == sorted(schedules)

    def test_jobs_is_not_part_of_the_identity(self, tmp_path):
        """jobs=2 and jobs=3 agree too — N is arbitrary, not just 1-vs-4."""
        a = run_explore_campaign("bank", bound=1, budget=30, jobs=2, config=CFG)
        b = run_explore_campaign("bank", bound=1, budget=30, jobs=3, config=CFG)
        assert a.digest() == b.digest()


class TestFaultsDifferential:
    def test_jobs1_equals_jobs4_and_serial(self):
        """jobs=1 runs the plan inline: the serial reference every
        sharding must reproduce."""
        plan = FaultPlan.generate(3, 8)
        serial = run_faults_campaign(plan, workload="bank", config=CFG, jobs=1)
        sharded = run_faults_campaign(plan, workload="bank", config=CFG, jobs=4)
        assert len(serial.outcomes) == len(plan)
        assert sharded.digest() == serial.digest()
        assert sharded.tally() == serial.tally()

    def test_outcomes_keep_plan_order(self):
        plan = FaultPlan.generate(5, 6, layers=("trace",))
        sweep = run_faults_campaign(
            plan, workload="bank", layers=("trace",), config=CFG, jobs=3
        )
        assert [o.spec.index for o in sweep.outcomes] == list(range(6))

    def test_unreproducible_plan_is_rejected(self):
        """A hand-edited plan can't silently shard: workers regenerate
        from (seed, count, layers), so the wrapper refuses up front."""
        from repro.faults.plan import FaultSpec
        from repro.vm.errors import VMError

        plan = FaultPlan.generate(5, 4, layers=("trace",))
        plan.specs[0] = FaultSpec(index=0, kind="truncate", params=(0.5,))
        with pytest.raises(VMError, match="not reproducible"):
            run_faults_campaign(
                plan, workload="bank", layers=("trace",), config=CFG, jobs=2
            )

    def test_configs_beyond_the_heap_are_refused(self):
        """A campaign payload carries the heap only: a config that varies
        the engine or the stack cannot travel as data."""
        from dataclasses import replace

        from repro.vm.engineconfig import EngineConfig
        from repro.vm.errors import VMError

        unfused = replace(CFG, engine=EngineConfig.baseline())
        for config in (unfused, replace(CFG, max_stack_words=1024)):
            with pytest.raises(VMError, match="may set only semispace_words"):
                run_explore_campaign("bank", bound=1, budget=4, jobs=1, config=config)
