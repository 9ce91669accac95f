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
worker count and message arrival order.  Both kinds share that parent
side (:func:`_sweep`); ``jobs=1`` runs the items inline, which is how
``repro faults`` runs a plan by default.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field

from repro.campaign.corpus import Corpus
from repro.campaign.runner import Campaign, CampaignHarnessError, WorkerIncident
from repro.explore.digestset import DigestSet
from repro.explore.explorer import Explorer
from repro.faults.campaign import FaultOutcome, FaultRunContext
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
        self.payload = dict(payload, workload=spec.name, workload_kwargs=kwargs)
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

    def run(self, item) -> dict:
        evaluated = self.explorer.evaluate(tuple(item))
        result = {"digest": evaluated.digest, "reason": evaluated.reason}
        if evaluated.failed:
            result["trace"], result["meta"] = _explore_entry(evaluated, self.payload)
        return result

    def close(self) -> None:
        pass


def _explore_entry(evaluated, payload: dict) -> "tuple[bytes, dict]":
    """A failing schedule as a corpus entry: its trace, tagged with the
    workload, and the meta that reproduces it from *payload*."""
    workload, kwargs = payload["workload"], payload["workload_kwargs"]
    evaluated.trace.meta["workload"] = workload
    evaluated.trace.meta["workload_kwargs"] = dict(kwargs)
    return evaluated.trace.to_bytes(), {
        "kind": "explore",
        "workload": workload,
        "workload_kwargs": dict(kwargs),
        "seed": payload["seed"],
        "env_seed": payload["env_seed"],
        "schedule": list(evaluated.positions),
        "reason": evaluated.reason,
        "behavior": evaluated.digest,
        "heap": payload["heap"],
    }


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
# the parent side every sweep shares


@dataclass(kw_only=True)
class SweepReport:
    """What every sweep reports besides its own merge: the worker
    count, the worker incidents the runner survived, and where the
    failures landed in the corpus."""

    jobs: int
    incidents: "list[WorkerIncident]" = field(default_factory=list)
    corpus_dir: "str | None" = None
    corpus_new: int = 0
    corpus_dup: int = 0

    def _campaign_lines(self) -> "list[str]":
        lines = [f"  incident: {incident.describe()}" for incident in self.incidents]
        if self.corpus_dir is not None:
            stored = self.corpus_new + self.corpus_dup
            lines.append(
                f"corpus: {self.corpus_new} new, {self.corpus_dup} duplicate "
                f"entr{'y' if stored == 1 else 'ies'} -> {self.corpus_dir}"
            )
        return lines


def _sweep(
    report: SweepReport,
    payload: dict,
    items: list,
    merge,
    *,
    pending=(),
    corpus_dir=None,
    hosts=None,
    backend=None,
    **campaign,
):
    """Run *items* as one :class:`Campaign` and merge into *report*.

    ``merge(item, result)`` folds one item's result into the report, in
    work-list order (never arrival order), and returns the corpus entry
    it yields — ``(trace bytes, meta, failure or None)`` — or None.
    Entries land in *corpus_dir* after *pending* (the parent's own), in
    that order, so the corpus is independent of worker count.
    """
    outcome = Campaign(
        payload, items, backend=_resolve_backend(backend, hosts), **campaign
    ).run()
    report.incidents = outcome.incidents
    entries = list(pending)
    for index, item in enumerate(items):
        entry = merge(item, outcome.results[index])
        if entry is not None:
            entries.append(entry)
    if corpus_dir is not None:
        corpus = Corpus(corpus_dir, create=True)
        report.corpus_dir = str(corpus_dir)
        stored = corpus.ingest_many((blob, meta) for blob, meta, _ in entries)
        for (_, _, failure), (name, _) in zip(entries, stored):
            if failure is not None:
                failure.entry = name
        report.corpus_new = sum(new for _, new in stored)
        report.corpus_dup = len(stored) - report.corpus_new
    return report


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
class ExploreCampaignReport(SweepReport):
    workload: str
    horizon: int
    bound: int
    budget: int
    seed: int
    schedules_run: int = 0
    behaviors: DigestSet = field(default_factory=DigestSet)
    failures: "list[SweepFailure]" = field(default_factory=list)
    errors: "list[tuple[tuple, str]]" = field(default_factory=list)

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

    def _add(self, positions, digest, reason) -> "SweepFailure | None":
        """Merge one judged schedule; its failure, if it failed."""
        self.schedules_run += 1
        self.behaviors.add(digest)
        if reason is None:
            return None
        failure = SweepFailure(positions, reason, digest)
        self.failures.append(failure)
        return failure

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
        return "\n".join(lines + self._campaign_lines())


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
    report = ExploreCampaignReport(
        workload=spec.name,
        horizon=horizon,
        bound=bound,
        budget=budget,
        seed=seed,
        jobs=jobs,
        behaviors=DigestSet(behavior_cap),
    )
    # schedule #0 merges first: the parent judged it before sharding
    pending = []
    failure = report._add((), base.digest, base.reason)
    if failure is not None:
        pending.append((*_explore_entry(base, payload), failure))

    def merge(positions, result):
        if "error" in result:
            report.errors.append((positions, result["error"]))
            return None
        failure = report._add(positions, result["digest"], result["reason"])
        if failure is None:
            return None
        return result["trace"], result["meta"], failure

    return _sweep(
        report,
        payload,
        items,
        merge,
        pending=pending,
        corpus_dir=corpus_dir,
        jobs=jobs,
        watchdog=watchdog,
        max_restarts=max_restarts,
        progress=progress,
        hosts=hosts,
        backend=backend,
        _sabotage=_sabotage,
    )


# ---------------------------------------------------------------------------
# faults sweep (parent side)


@dataclass
class FaultsCampaignReport(SweepReport):
    """A fault campaign's classified outcomes, in plan order."""

    seed: int
    workload: str
    outcomes: "list[FaultOutcome]" = field(default_factory=list)

    @property
    def bad(self) -> "list[FaultOutcome]":
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.bad

    def tally(self) -> "dict[str, int]":
        return dict(Counter(o.outcome for o in self.outcomes))

    def digest(self) -> str:
        """Order-insensitive digest of the classified outcomes: the thing
        a campaign must reproduce regardless of sharding.  The free-text
        ``detail`` is excluded on purpose — it may name worker scratch
        paths; the (index, kind, outcome) triple may not vary."""
        h = hashlib.sha256()
        for o in sorted(self.outcomes, key=lambda o: o.spec.index):
            h.update(f"{o.spec.index}:{o.spec.kind}:{o.outcome}\n".encode())
        return h.hexdigest()[:16]

    def format(self) -> str:
        lines = [
            f"jobs: {self.jobs}",
            f"fault campaign: workload={self.workload} seed={self.seed} "
            f"faults={len(self.outcomes)}",
        ]
        for outcome, n in sorted(self.tally().items()):
            lines.append(f"  {outcome:<36}{n}")
        if self.bad:
            lines.append("FINDINGS (contract violations):")
            for o in self.bad:
                lines.append(f"  {o.spec.describe()}: {o.outcome} — {o.detail}")
        else:
            lines.append("every fault ended in clean recovery or a typed diagnostic")
        return "\n".join(lines + self._campaign_lines())


def _fault_outcome(spec, result: dict) -> FaultOutcome:
    if "error" in result:
        return FaultOutcome(spec, "unclassified:CampaignItemError", result["error"])
    return FaultOutcome(spec, result["outcome"], result["detail"])


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
) -> FaultsCampaignReport:
    """Run every fault of *plan* on *jobs* warm workers (inline in this
    process at ``jobs=1``) and merge the classified outcomes.

    The plan is regenerated inside each worker from ``(seed, count,
    layers)`` — cheaper to ship than the specs and reproducible by
    construction — so *layers* must name the layers *plan* was built
    with.  Outcomes merge by spec index, so the report is the same for
    every *jobs*, modulo the free-text details (which may name
    per-worker scratch paths).  *progress*, if given, is called with
    each :class:`FaultOutcome` as it arrives.
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
    spec_by_index = {s.index: s for s in plan}
    report = FaultsCampaignReport(
        seed=plan.seed, workload=get_workload(workload).name, jobs=jobs
    )

    def merge(index, result):
        report.outcomes.append(_fault_outcome(spec_by_index[index], result))
        if "trace" not in result:
            return None
        return result["trace"], result["meta"], None

    def on_item(position, result):
        progress(_fault_outcome(spec_by_index[items[position]], result))

    return _sweep(
        report,
        payload,
        items,
        merge,
        corpus_dir=corpus_dir,
        jobs=jobs,
        watchdog=watchdog,
        max_restarts=max_restarts,
        progress=None if progress is None else on_item,
        hosts=hosts,
        backend=backend,
        _sabotage=_sabotage,
    )
