"""Campaign worker-failure handling: a dead worker's shard is
reassigned, never dropped.

The runner ships its own fault-injection seam (``_sabotage``): worker W
calls ``os._exit(13)`` after its K-th completed item — exactly the
mid-shard ``kill -9`` the watchdog must survive.  The contract under
test: 100% work-list coverage, a typed :class:`WorkerIncident`
diagnostic, no hang, and a result identical to the undisturbed run.
"""

import pytest

from repro.campaign import (
    Campaign,
    WorkerIncident,
    run_explore_campaign,
    run_faults_campaign,
)
from repro.vm.errors import VMError
from repro.vm.machine import VMConfig

CFG = VMConfig(semispace_words=60_000)


class TestExploreWorkerCrash:
    def test_crash_mid_shard_is_reassigned(self):
        undisturbed = run_explore_campaign(
            "bank", bound=1, budget=30, jobs=1, config=CFG
        )
        survived = run_explore_campaign(
            "bank",
            bound=1,
            budget=30,
            jobs=2,
            config=CFG,
            watchdog=30.0,
            _sabotage={"worker": 0, "after": 2},
        )
        # typed diagnostic, not a silent retry
        crashes = [i for i in survived.incidents if i.kind == "crash"]
        assert crashes, survived.incidents
        assert isinstance(crashes[0], WorkerIncident)
        assert "exit code 13" in crashes[0].detail
        assert crashes[0].reassigned > 0
        # full coverage, identical outcome
        assert survived.schedules_run == undisturbed.schedules_run
        assert survived.digest() == undisturbed.digest()

    def test_crash_with_corpus_is_still_byte_identical(self, tmp_path):
        from tests.test_campaign_differential import corpus_files

        clean = tmp_path / "clean"
        crashed = tmp_path / "crashed"
        run_explore_campaign(
            "bank", bound=1, budget=30, jobs=1, config=CFG, corpus_dir=clean
        )
        run_explore_campaign(
            "bank",
            bound=1,
            budget=30,
            jobs=2,
            config=CFG,
            corpus_dir=crashed,
            watchdog=30.0,
            _sabotage={"worker": 1, "after": 1},
        )
        assert corpus_files(clean) == corpus_files(crashed)


class TestFaultsWorkerCrash:
    @pytest.mark.fault_seed(5)
    def test_crash_mid_shard_is_reassigned(self, fault_seed):
        from repro.faults import FaultPlan

        plan = FaultPlan.generate(fault_seed, 6, layers=("trace",))
        undisturbed = run_faults_campaign(
            plan, workload="bank", layers=("trace",), config=CFG, jobs=1
        )
        survived = run_faults_campaign(
            plan,
            workload="bank",
            layers=("trace",),
            config=CFG,
            jobs=2,
            watchdog=60.0,
            _sabotage={"worker": 0, "after": 1},
        )
        assert [i.kind for i in survived.incidents].count("crash") >= 1
        assert len(survived.outcomes) == len(plan)  # 100% coverage
        assert survived.digest() == undisturbed.digest()


class TestRunnerEdges:
    def test_restart_budget_exhaustion_falls_back_inline(self):
        """With a zero restart budget the parent itself runs the dead
        worker's items — coverage survives even the restart path."""
        report = run_explore_campaign(
            "bank",
            bound=1,
            budget=20,
            jobs=2,
            config=CFG,
            watchdog=30.0,
            max_restarts=0,
            _sabotage={"worker": 0, "after": 1},
        )
        reference = run_explore_campaign(
            "bank", bound=1, budget=20, jobs=1, config=CFG
        )
        assert report.digest() == reference.digest()
        assert any(i.kind == "crash" for i in report.incidents)

    def test_jobs_must_be_positive(self):
        with pytest.raises(VMError, match="jobs must be >= 1"):
            Campaign({"kind": "explore"}, [], jobs=0)

    def test_unknown_job_kind_is_typed(self):
        from repro.campaign import CampaignHarnessError

        with pytest.raises(CampaignHarnessError):
            Campaign({"kind": "nonsense"}, [(1,)], jobs=1).run()

    def test_empty_worklist_is_trivially_covered(self):
        outcome = Campaign({"kind": "explore"}, [], jobs=4).run()
        assert outcome.covered and outcome.results == {}
