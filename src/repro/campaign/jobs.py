"""Campaign job kinds: what one worker runs per item, and the
parent-side sweeps that shard, merge, and feed the corpus.

Two kinds convert the existing single-process engines onto the shared
:class:`~repro.campaign.runner.Campaign`:

* ``explore`` — one item is one schedule (a tuple of preemption
  positions); the worker holds a warm :class:`~repro.explore.Explorer`
  and calls :meth:`~repro.explore.Explorer.evaluate` per item;
* ``faults`` — one item is one fault index into a seeded
  :class:`~repro.faults.FaultPlan`; the worker holds a warm
  :class:`~repro.faults.FaultRunContext` (baseline recording, optional
  checkpoint baseline and transport server) and injects per item.

A campaign's *payload* is plain data — workload name and kwargs,
seeds, plan parameters, ``heap`` for the VM config — checked
by :func:`repro.serve.protocol.validate_campaign`.  Every backend (inline,
local fork, a remote ``repro serve`` daemon) builds its runner from that
same payload through :func:`make_item_runner`.

Item results are plain dicts; anything that should land in
the corpus travels as sealed trace bytes under ``"trace"`` with its
reproduction meta under ``"meta"`` — the parent ingests them in
work-list order, so the corpus a sweep leaves behind is independent of
worker count and message arrival order.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.campaign.corpus import Corpus
from repro.campaign.runner import Campaign, CampaignHarnessError, WorkerIncident
from repro.explore.digestset import DigestSet
from repro.explore.explorer import Explorer
from repro.faults.campaign import CampaignReport, FaultOutcome, FaultRunContext
from repro.faults.plan import FaultPlan
from repro.vm.errors import VMError


# ---------------------------------------------------------------------------
# the payload's VM config


def config_fields(config) -> dict:
    """*config* as campaign payload data: ``heap`` (None for None, the
    platform default).  A config that varies anything else — the
    engine included — cannot travel as data and is refused."""
    if config is None:
        return {"heap": None}
    fields = {"heap": config.semispace_words}
    if campaign_config(fields) != config:
        raise VMError("campaign VM configs may set only semispace_words")
    return fields


def campaign_config(payload: dict):
    """The VMConfig a payload's ``heap`` names (or None)."""
    from repro.jobs import vm_config

    return None if payload["heap"] is None else vm_config(payload)


# ---------------------------------------------------------------------------
# item runners (worker side)


class _ExploreRunner:
    """Warm per-worker explore engine: one Explorer, many schedules."""

    def __init__(self, payload: dict):
        from repro.workloads.registry import get_workload

        spec = get_workload(payload["workload"])
        kwargs = dict(payload["workload_kwargs"])
        self.spec = spec
        self.kwargs = kwargs
        self.explorer = Explorer(
            spec.program_factory(kwargs),
            oracle=spec.oracle(kwargs),
            bound=payload["bound"],
            budget=payload["budget"],
            seed=payload["seed"],
            env_seed=payload["env_seed"],
            config=campaign_config(payload),
            minimize=False,
        )
        self.heap = payload["heap"]

    def run(self, item) -> dict:
        evaluated = self.explorer.evaluate(tuple(item))
        result = {"digest": evaluated.digest, "reason": evaluated.reason}
        if evaluated.failed:
            evaluated.trace.meta["workload"] = self.spec.name
            evaluated.trace.meta["workload_kwargs"] = dict(self.kwargs)
            result["trace"] = evaluated.trace.to_bytes()
            result["meta"] = {
                "kind": "explore",
                "workload": self.spec.name,
                "workload_kwargs": dict(self.kwargs),
                "seed": self.explorer.seed,
                "env_seed": self.explorer.env_seed,
                "schedule": list(evaluated.positions),
                "reason": evaluated.reason,
                "behavior": evaluated.digest,
                "heap": self.heap,
            }
        return result

    def close(self) -> None:
        pass


class _FaultsRunner:
    """Warm per-worker fault harness: one baseline set, many injections."""

    def __init__(self, payload: dict):
        plan = FaultPlan.generate(
            payload["seed"], payload["count"], layers=tuple(payload["layers"])
        )
        self.spec_by_index = {s.index: s for s in plan}
        self.workload_kwargs = payload["workload_kwargs"]
        self.heap = payload["heap"]
        self.workdir = tempfile.mkdtemp(prefix="repro-campaign-faults-")
        self.context = FaultRunContext(
            seed=payload["seed"],
            layers={s.layer for s in plan},
            workload=payload["workload"],
            workload_kwargs=self.workload_kwargs,
            config=campaign_config(payload),
            workdir=self.workdir,
            fault_timeout=payload["fault_timeout"],
        )
        try:
            self.context.__enter__()
        except BaseException:
            self.close()
            raise

    def run(self, item) -> dict:
        spec = self.spec_by_index[int(item)]
        outcome = self.context.run_spec(spec)
        result = {"outcome": outcome.outcome, "detail": outcome.detail}
        if not outcome.ok:
            # a contract violation: ship the clean baseline (always a
            # replayable trace) plus the spec that broke the contract —
            # enough to re-run the injection exactly
            result["trace"] = self.context.baseline_blob
            result["meta"] = {
                "kind": "faults",
                "workload": self.context.workload_name,
                "workload_kwargs": self.workload_kwargs,
                "seed": self.context.seed,
                "fault": spec.describe(),
                "reason": outcome.outcome,
                "behavior": f"fault:{spec.index}:{spec.kind}:{outcome.outcome}",
                "heap": self.heap,
            }
        return result

    def close(self) -> None:
        self.context.__exit__(None, None, None)
        shutil.rmtree(self.workdir, ignore_errors=True)


_RUNNERS = {"explore": _ExploreRunner, "faults": _FaultsRunner}


def make_item_runner(payload: dict):
    """The warm item runner for a campaign payload (validated here)."""
    from repro.serve.protocol import ServeError, validate_campaign

    try:
        payload = validate_campaign(payload)
    except ServeError as exc:
        raise CampaignHarnessError(f"bad campaign payload: {exc}") from exc
    return _RUNNERS[payload["kind"]](payload)


def _resolve_backend(backend, hosts):
    """Sweep-level backend selection: an explicit backend wins, a host
    list builds a :class:`RemoteWorkerPool`, neither means local fork."""
    if backend is not None:
        return backend
    if hosts:
        from repro.campaign.pool import RemoteWorkerPool

        return RemoteWorkerPool(list(hosts))
    return None


# ---------------------------------------------------------------------------
# explore sweep (parent side)


@dataclass
class SweepFailure:
    """One failing schedule in a sweep's merged result."""

    positions: tuple
    reason: str
    behavior: str
    entry: "str | None" = None  # corpus entry name, when a corpus was given


@dataclass
class ExploreCampaignReport:
    workload: str
    horizon: int
    bound: int
    budget: int
    seed: int
    jobs: int
    schedules_run: int = 0
    behaviors: DigestSet = field(default_factory=DigestSet)
    failures: "list[SweepFailure]" = field(default_factory=list)
    errors: "list[tuple[tuple, str]]" = field(default_factory=list)
    incidents: "list[WorkerIncident]" = field(default_factory=list)
    corpus_dir: "str | None" = None
    corpus_new: int = 0
    corpus_dup: int = 0

    @property
    def unique_behaviors(self) -> int:
        return len(self.behaviors)

    @property
    def found(self) -> bool:
        return bool(self.failures)

    def behavior_set(self) -> tuple:
        """The merged distinct-behaviour identity, order-free: the
        sorted sampled keys plus the sampling level.  jobs=1 and jobs=N
        must produce this exact value."""
        return (self.behaviors.level, tuple(sorted(self.behaviors._keys)))

    def digest(self) -> str:
        """Order-insensitive digest of everything observable: behaviour
        set, failures, and errors — the jobs=1 ≡ jobs=N witness."""
        h = hashlib.sha256()
        level, keys = self.behavior_set()
        h.update(f"level={level}\n".encode())
        for key in keys:
            h.update(f"b:{key:016x}\n".encode())
        for f in sorted(self.failures, key=lambda f: f.positions):
            h.update(f"f:{list(f.positions)}:{f.reason}:{f.behavior}\n".encode())
        for positions, error in sorted(self.errors):
            h.update(f"e:{list(positions)}:{error}\n".encode())
        return h.hexdigest()[:16]

    def format(self) -> str:
        lines = [
            f"campaign: workload={self.workload} jobs={self.jobs} "
            f"bound={self.bound} budget={self.budget} seed={self.seed}",
            f"horizon: {self.horizon} yield points   "
            f"schedules run: {self.schedules_run}   "
            f"distinct behaviors: {self.unique_behaviors}"
            + ("" if self.behaviors.exact else " (estimated)"),
        ]
        if self.failures:
            lines.append(f"FAILURES: {len(self.failures)} failing schedule(s)")
            first = min(self.failures, key=lambda f: f.positions)
            lines.append(
                f"  first (by position): {list(first.positions)} — {first.reason}"
            )
        else:
            lines.append("no failing schedule found")
        for positions, error in self.errors:
            lines.append(f"  ERROR at {list(positions)}: {error}")
        for incident in self.incidents:
            lines.append(f"  incident: {incident.describe()}")
        if self.corpus_dir is not None:
            lines.append(
                f"corpus: {self.corpus_new} new, {self.corpus_dup} duplicate "
                f"entr{'y' if self.corpus_new + self.corpus_dup == 1 else 'ies'} "
                f"-> {self.corpus_dir}"
            )
        return "\n".join(lines)


def run_explore_campaign(
    workload: str,
    *,
    overrides: "dict | None" = None,
    bound: int = 2,
    budget: int = 250,
    seed: int = 0,
    env_seed: int = 0,
    jobs: int = 1,
    config=None,
    corpus_dir=None,
    watchdog: float = 300.0,
    max_restarts: "int | None" = None,
    behavior_cap: int = 65536,
    progress=None,
    hosts: "list[tuple[str, int]] | None" = None,
    backend=None,
    _sabotage: "dict | None" = None,
) -> ExploreCampaignReport:
    """A parallel (sharded) CHESS sweep over one workload.

    Unlike :meth:`Explorer.run`, a campaign evaluates its whole
    work-list — the budget-truncated candidate enumeration is fixed up
    front, so the result cannot depend on which worker found a failure
    first — and collects *every* failure instead of stopping at the
    first.  Failing traces stream into *corpus_dir* (content-addressed)
    when given.
    """
    from repro.workloads.registry import get_workload

    spec = get_workload(workload)
    kwargs = spec.merged_kwargs(overrides, explore=True)
    explorer = Explorer(
        spec.program_factory(kwargs),
        oracle=spec.oracle(kwargs),
        bound=bound,
        budget=budget,
        seed=seed,
        env_seed=env_seed,
        config=config,
        minimize=False,
        behavior_cap=behavior_cap,
    )
    base, horizon = explorer.baseline()
    items = [
        tuple(positions)
        for positions in itertools.islice(
            explorer.candidates(horizon), max(0, budget - 1)
        )
    ]
    payload = {
        "kind": "explore",
        "workload": spec.name,
        "workload_kwargs": kwargs,
        "bound": bound,
        "budget": budget,
        "seed": seed,
        "env_seed": env_seed,
        **config_fields(config),
    }
    outcome = Campaign(
        payload,
        items,
        jobs=jobs,
        watchdog=watchdog,
        max_restarts=max_restarts,
        progress=progress,
        backend=_resolve_backend(backend, hosts),
        _sabotage=_sabotage,
    ).run()

    report = ExploreCampaignReport(
        workload=spec.name,
        horizon=horizon,
        bound=bound,
        budget=budget,
        seed=seed,
        jobs=jobs,
        incidents=outcome.incidents,
        behaviors=DigestSet(behavior_cap),
    )
    corpus = Corpus(corpus_dir, create=True) if corpus_dir is not None else None
    report.corpus_dir = str(corpus_dir) if corpus_dir is not None else None

    # merge in work-list order (never arrival order): schedule #0 first
    report.schedules_run = 1
    report.behaviors.add(base.digest)
    pending_entries = []
    if base.failed:
        base.trace.meta["workload"] = spec.name
        base.trace.meta["workload_kwargs"] = dict(kwargs)
        failure = SweepFailure((), base.reason, base.digest)
        report.failures.append(failure)
        pending_entries.append(
            (
                failure,
                base.trace.to_bytes(),
                {
                    "kind": "explore",
                    "workload": spec.name,
                    "workload_kwargs": dict(kwargs),
                    "seed": seed,
                    "env_seed": env_seed,
                    "schedule": [],
                    "reason": base.reason,
                    "behavior": base.digest,
                    "heap": config.semispace_words if config is not None else None,
                },
            )
        )
    for index, positions in enumerate(items):
        result = outcome.results.get(index)
        if result is None:  # pragma: no cover - runner guarantees coverage
            report.errors.append((positions, "item result missing"))
            continue
        if "error" in result:
            report.errors.append((positions, result["error"]))
            continue
        report.schedules_run += 1
        report.behaviors.add(result["digest"])
        if result["reason"] is not None:
            failure = SweepFailure(positions, result["reason"], result["digest"])
            report.failures.append(failure)
            pending_entries.append((failure, result["trace"], result["meta"]))
    if corpus is not None:
        stored = corpus.ingest_many((blob, meta) for _, blob, meta in pending_entries)
        for (failure, _, _), (name, new) in zip(pending_entries, stored):
            failure.entry = name
        report.corpus_new = sum(new for _, new in stored)
        report.corpus_dup = len(stored) - report.corpus_new
    return report


# ---------------------------------------------------------------------------
# faults sweep (parent side)


@dataclass
class FaultsCampaignSweep:
    """A sharded fault campaign's merged outcome: the classic
    :class:`CampaignReport` plus the campaign-level bookkeeping."""

    report: CampaignReport
    jobs: int
    incidents: "list[WorkerIncident]" = field(default_factory=list)
    corpus_dir: "str | None" = None
    corpus_new: int = 0
    corpus_dup: int = 0

    @property
    def ok(self) -> bool:
        return self.report.ok

    def digest(self) -> str:
        return self.report.digest()

    def format(self) -> str:
        lines = [self.report.format()]
        lines[0:0] = [f"jobs: {self.jobs}"]
        for incident in self.incidents:
            lines.append(f"  incident: {incident.describe()}")
        if self.corpus_dir is not None:
            lines.append(
                f"corpus: {self.corpus_new} new, {self.corpus_dup} duplicate "
                f"-> {self.corpus_dir}"
            )
        return "\n".join(lines)


def run_faults_campaign(
    plan: FaultPlan,
    *,
    workload: str,
    workload_kwargs: "dict | None" = None,
    layers: "tuple[str, ...] | None" = None,
    config=None,
    jobs: int = 1,
    fault_timeout: float = 30.0,
    watchdog: float = 300.0,
    max_restarts: "int | None" = None,
    corpus_dir=None,
    progress=None,
    hosts: "list[tuple[str, int]] | None" = None,
    backend=None,
    _sabotage: "dict | None" = None,
) -> FaultsCampaignSweep:
    """Shard *plan* across *jobs* warm workers and merge the outcomes.

    The plan is regenerated inside each worker from ``(seed, count,
    layers)`` — cheaper to ship than the specs and reproducible by
    construction — so *layers* must name the layers *plan* was built
    with.  Outcomes merge by spec index; the merged report is identical
    to a serial :func:`repro.faults.run_campaign` run modulo the
    free-text details (which may name per-worker scratch paths).
    """
    from repro.workloads.registry import get_workload

    plan_layers = tuple(sorted({s.layer for s in plan})) if layers is None else layers
    payload = {
        "kind": "faults",
        "workload": workload,
        "workload_kwargs": dict(workload_kwargs or {}),
        "seed": plan.seed,
        "count": len(plan),
        "layers": list(plan_layers),
        "fault_timeout": fault_timeout,
        **config_fields(config),
    }
    check = FaultPlan.generate(plan.seed, len(plan), layers=tuple(plan_layers))
    if check.specs != plan.specs:
        raise VMError(
            "fault plan is not reproducible from (seed, count, layers) — "
            "pass the layers the plan was generated with"
        )
    items = [s.index for s in plan]
    outcome = Campaign(
        payload,
        items,
        jobs=jobs,
        watchdog=watchdog,
        max_restarts=max_restarts,
        progress=progress,
        backend=_resolve_backend(backend, hosts),
        _sabotage=_sabotage,
    ).run()

    spec_by_index = {s.index: s for s in plan}
    report = CampaignReport(seed=plan.seed, workload=get_workload(workload).name)
    sweep = FaultsCampaignSweep(
        report=report, jobs=jobs, incidents=outcome.incidents
    )
    corpus = Corpus(corpus_dir, create=True) if corpus_dir is not None else None
    sweep.corpus_dir = str(corpus_dir) if corpus_dir is not None else None
    pending_entries = []
    for position, index in enumerate(items):
        result = outcome.results.get(position)
        spec = spec_by_index[index]
        if result is None:  # pragma: no cover - runner guarantees coverage
            report.outcomes.append(
                FaultOutcome(spec, "unclassified:CampaignLost", "no result")
            )
            continue
        if "error" in result:
            report.outcomes.append(
                FaultOutcome(spec, "unclassified:CampaignItemError", result["error"])
            )
            continue
        report.outcomes.append(FaultOutcome(spec, result["outcome"], result["detail"]))
        if "trace" in result:
            pending_entries.append((result["trace"], result["meta"]))
    if corpus is not None:
        stored = corpus.ingest_many(pending_entries)
        sweep.corpus_new = sum(new for _, new in stored)
        sweep.corpus_dup = len(stored) - sweep.corpus_new
    return sweep
