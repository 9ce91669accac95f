"""Fleet-scale campaigns: shard a deterministic work-list across worker
processes and merge the results into one deterministic report.

The package has three layers:

* :mod:`repro.campaign.runner` — the generic sharded runner
  (:class:`Campaign`): round-robin shards, warm per-worker engines,
  watchdog with crash/hang reassignment, inline coverage fallback;
* :mod:`repro.campaign.jobs` — the job kinds (explore sweeps over
  schedules, fault-injection sweeps over plans) plus the parent-side
  merge into :class:`ExploreCampaignReport` / :class:`FaultsCampaignReport`;
* :mod:`repro.campaign.corpus` — the content-addressed failure corpus
  every sweep can stream its failing traces into;
* :mod:`repro.campaign.pool` — the multi-host rung: the fault-tolerant
  :class:`RemoteWorkerPool` backend, which runs items as ``repro serve``
  ``campaign-item`` jobs, with its remote→local degradation ladder.

The load-bearing property — pinned by
``tests/test_campaign_differential.py`` — is that ``jobs=1`` and
``jobs=N`` are observably identical: same behaviour-digest set, same
failures, byte-identical corpus.
"""

from repro.campaign.corpus import Corpus, CorpusEntry, entry_name
from repro.campaign.jobs import (
    ExploreCampaignReport,
    FaultsCampaignReport,
    SweepFailure,
    run_explore_campaign,
    run_faults_campaign,
)
from repro.campaign.pool import RemoteWorkerPool
from repro.campaign.runner import (
    Campaign,
    CampaignHarnessError,
    CampaignOutcome,
    ForkBackend,
    WorkerBackend,
    WorkerIncident,
)

__all__ = [
    "Campaign",
    "CampaignHarnessError",
    "CampaignOutcome",
    "Corpus",
    "CorpusEntry",
    "ExploreCampaignReport",
    "FaultsCampaignReport",
    "ForkBackend",
    "RemoteWorkerPool",
    "SweepFailure",
    "WorkerBackend",
    "WorkerIncident",
    "entry_name",
    "run_explore_campaign",
    "run_faults_campaign",
]
