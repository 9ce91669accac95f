"""The parent side of multi-host campaigns: a fault-tolerant worker pool.

:class:`RemoteWorkerPool` is a :class:`~repro.campaign.runner.WorkerBackend`
that shards a campaign's work-list across ``repro serve`` daemons.  Each
item travels as one ``campaign-item`` job (see
:mod:`repro.serve.protocol`): the campaign payload as plain data plus
the item, submitted through :class:`~repro.serve.ServeClient` one item
at a time over a connection per shard.  The daemon keeps the warm item
runner in its session pool, so baselines amortise across every item a
host receives.  Its design centre is the **graceful-degradation
ladder**: work flows to the first rung that can take it, and a campaign
always reaches 100 % coverage —

1. **remote host** — a host thread pulls shards from a shared queue and
   submits their items over one connection per shard;
2. **another remote host** — the shared queue *is* the reassignment
   mechanism: a failed shard's unfinished remainder goes back on the
   queue, where any healthy host (including the same one, reconnected)
   steals it;
3. **local fork** — when every host is quarantined or the host list is
   exhausted, the leftovers run through the ordinary
   :class:`~repro.campaign.runner.ForkBackend` on the parent machine;
4. **inline in the parent** — :meth:`Campaign.run` itself re-runs
   anything still missing (shared bottom rung of all backends).

Reassignment is **idempotent by construction**: item results are pure
functions of ``(payload, item)``, the parent merges by work-list index
with first-write-wins dedup, and the failure corpus is
content-addressed (duplicate ingest is a no-op) — so replaying an item
on two hosts is wasteful at worst, never wrong.

Failure detection feeds the existing :class:`WorkerIncident` taxonomy
with remote-specific kinds:

====================  ===================================================
kind                  meaning
====================  ===================================================
``remote-connect``    connect/handshake failed after the backoff budget
``remote-transport``  the connection died mid-shard (EOF, reset, send)
``remote-hang``       no reply within the campaign watchdog
``remote-protocol``   a corrupt frame or a typed in-band daemon error
``quarantine``        circuit breaker opened: N consecutive incidents
``degraded-local``    leftovers ran on the local-fork rung
====================  ===================================================

Hang detection is the local fork rung's rule, "no progress within the
watchdog": the watchdog is each item's reply timeout.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.campaign.runner import (
    Campaign,
    CampaignOutcome,
    ForkBackend,
    WorkerBackend,
    WorkerIncident,
)
from repro.core.framing import (
    BackoffPolicy,
    FrameError,
    TransportError,
    TransportTimeout,
)


class _ShardFailure(Exception):
    """One shard attempt failed; carries the incident kind + detail."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


class _HostState:
    """Per-host bookkeeping: identity, breaker state, statistics."""

    def __init__(self, host_id: int, address: "tuple[str, int]"):
        self.host_id = host_id
        self.address = address
        self.consecutive_failures = 0
        self.quarantined = False

    @property
    def name(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class RemoteWorkerPool(WorkerBackend):
    def __init__(
        self,
        hosts: "list[tuple[str, int]]",
        *,
        backoff: "BackoffPolicy | None" = None,
        hello_timeout: float = 5.0,
        breaker_threshold: int = 3,
        log=None,
    ):
        if not hosts:
            raise TransportError("remote worker pool needs at least one host")
        self.hosts = list(hosts)
        #: the connect retry schedule — the same policy object the
        #: debugger and serve clients use, seeded so tests can assert it
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.hello_timeout = hello_timeout
        self.breaker_threshold = breaker_threshold
        self.log = log if log is not None else (lambda message: None)

    # ------------------------------------------------------------------

    def run(self, campaign: Campaign, indexed, outcome: CampaignOutcome) -> None:
        item_by_index = dict(indexed)
        jobs = campaign.jobs
        shards = deque(
            s for s in (indexed[i::jobs] for i in range(jobs)) if s
        )
        cond = threading.Condition()
        state = {"in_flight": 0}
        incidents_lock = threading.Lock()
        host_states = [_HostState(i, addr) for i, addr in enumerate(self.hosts)]

        def record(host: _HostState, kind: str, detail: str, reassigned: int) -> None:
            with incidents_lock:
                outcome.incidents.append(
                    WorkerIncident(host.host_id, kind, f"[{host.name}] {detail}", reassigned)
                )

        def requeue(shard) -> int:
            """Put a failed shard's unfinished remainder back on the
            queue (idempotent: finished indices are dropped here and
            deduped again at ``_accept``)."""
            remaining = [
                (index, item)
                for index, item in shard
                if index not in outcome.results
            ]
            if remaining:
                with cond:
                    shards.append(remaining)
                    cond.notify_all()
            return len(remaining)

        def host_loop(host: _HostState) -> None:
            while True:
                with cond:
                    while not shards and state["in_flight"] > 0:
                        cond.wait(0.1)
                    if not shards:
                        return  # queue drained and nothing can refill it
                    shard = shards.popleft()
                    state["in_flight"] += 1
                try:
                    self._run_shard(campaign, outcome, host, shard)
                    host.consecutive_failures = 0
                except _ShardFailure as failure:
                    host.consecutive_failures += 1
                    reassigned = requeue(shard)
                    record(host, failure.kind, failure.detail, reassigned)
                    self.log(
                        f"host {host.name}: {failure.kind}: {failure.detail} "
                        f"({reassigned} item(s) requeued)"
                    )
                    if host.consecutive_failures >= self.breaker_threshold:
                        host.quarantined = True
                        record(
                            host,
                            "quarantine",
                            f"circuit breaker open after "
                            f"{host.consecutive_failures} consecutive incidents",
                            0,
                        )
                finally:
                    with cond:
                        state["in_flight"] -= 1
                        cond.notify_all()
                if host.quarantined:
                    return

        threads = [
            threading.Thread(target=host_loop, args=(host,), daemon=True)
            for host in host_states
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # rung 3 of the ladder: every host quarantined (or the queue
        # outlived them) — run the leftovers through local fork workers
        leftovers = [
            (index, item_by_index[index])
            for index in sorted(set(item_by_index) - outcome.results.keys())
        ]
        if leftovers:
            outcome.incidents.append(
                WorkerIncident(
                    -1,
                    "degraded-local",
                    f"{len(leftovers)} item(s) degraded to local fork "
                    f"workers (hosts: "
                    f"{', '.join(h.name + (' quarantined' if h.quarantined else '') for h in host_states)})",
                    len(leftovers),
                )
            )
            self.log(
                f"degrading {len(leftovers)} item(s) to local fork workers"
            )
            sub = Campaign(
                campaign.payload,
                [item for _, item in leftovers],
                jobs=max(1, min(campaign.jobs, len(leftovers))),
                watchdog=campaign.watchdog,
                max_restarts=campaign.max_restarts,
                backend=ForkBackend(),
            )
            sub_outcome = sub.run()
            outcome.incidents.extend(sub_outcome.incidents)
            for position, (index, _) in enumerate(leftovers):
                result = sub_outcome.results.get(position)
                if result is not None:
                    campaign._accept(outcome, index, result)
        # rung 4 (inline in the parent) is Campaign.run's own fallback

    # ------------------------------------------------------------------
    # one shard over one connection

    def _run_shard(
        self,
        campaign: Campaign,
        outcome: CampaignOutcome,
        host: _HostState,
        shard,
    ) -> None:
        """Submit one shard's items, one at a time, over one connection.

        Raises :class:`_ShardFailure` with a typed kind on any failure —
        the caller requeues whatever has no result yet.
        """
        from repro.serve import ServeClient, ServeError

        try:
            client = ServeClient.connect(
                host.address, timeout=self.hello_timeout, policy=self.backoff
            )
        except TransportError as exc:
            raise _ShardFailure("remote-connect", str(exc)) from exc
        received = 0
        with client:
            for index, item in shard:
                job = {"kind": "campaign-item", "campaign": campaign.payload, "item": item}
                try:
                    result = client.submit(job, timeout=campaign.watchdog)
                except (TransportError, ServeError) as exc:
                    raise _ShardFailure(
                        _incident_kind(exc),
                        f"{exc} ({received} item(s) received first)",
                    ) from exc
                campaign._accept(outcome, index, result)
                received += 1


def _incident_kind(exc: Exception) -> str:
    """A failed submit's incident kind: a reply that never came within
    the watchdog is a hang, a bad frame or a typed daemon error a
    protocol failure, anything else (EOF, reset) a transport failure."""
    from repro.serve import ServeError

    if isinstance(exc, TransportTimeout):
        return "remote-hang"
    if isinstance(exc, (FrameError, ServeError)):
        return "remote-protocol"
    return "remote-transport"
