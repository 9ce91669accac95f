"""The warm-session pool: cached, generation-counted replay state.

The whole point of a long-lived daemon (iReplayer's lesson) is that the
expensive, *deterministic* setup work — assembling a guest program,
parsing a sealed trace, loading a checkpoint sidecar — happens once and
amortizes across every job that names the same content.  The pool
caches exactly that: pure functions of content, keyed by content
digest, so a warm hit cannot change a job's result, only its latency.
(VMs themselves are single-run and are never cached; a program holds
no native state — each VM instantiates its own natives — so one cached
program serves every job, concurrent ones included.)

Campaign items add the warm item runner of a campaign payload, keyed
by payload digest.  A runner is *leased* (out of the cache while it
runs an item, so it never serves two jobs at once), and the pool closes
— never just drops — every runner it evicts, invalidates or displaces.

Crash safety is generational: every cache entry carries the pool
generation it was built under.  When a job dies in a way that casts
doubt on shared state (a worker crash, an infrastructure error), the
supervisor calls :meth:`SessionPool.invalidate`, which bumps the
generation — every existing entry becomes stale and is *rebuilt on next
use*, never reused.  A crashed session is thus replaced by
construction, not trusted by optimism.

Entries are evicted LRU beyond ``max_entries`` so a long-lived daemon
serving many distinct programs/traces/campaigns stays bounded.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from pathlib import Path

from repro.api import GuestProgram, trace_from_bytes
from repro.jobs import resolve_workload


def _canonical(obj) -> str:
    """A canonical text encoding of validated job data: ``repr`` with
    dict keys sorted, so equal data always encodes equally."""
    if isinstance(obj, dict):
        items = sorted((_canonical(k), _canonical(v)) for k, v in obj.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        inner = ", ".join(_canonical(v) for v in obj)
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    return repr(obj)


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:24]


class SessionPool:
    """Content-addressed caches for programs and parsed traces, with a
    generation counter for crash-driven invalidation."""

    def __init__(self, max_entries: int = 64):
        self.max_entries = max(1, max_entries)
        self._lock = threading.Lock()
        self.generation = 0
        #: key -> (generation, value); insertion order is LRU order
        self._programs: dict[str, tuple[int, object]] = {}
        self._traces: dict[str, tuple[int, object]] = {}
        #: idle campaign item runners, all of the current generation
        #: (leased ones are out of the cache)
        self._runners: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # cache plumbing

    def _get(self, cache: dict, key: str, build):
        with self._lock:
            generation = self.generation
            entry = cache.get(key)
            if entry is not None and entry[0] == generation:
                self.hits += 1
                # refresh LRU position
                cache[key] = cache.pop(key)
                return entry[1]
            stale = entry is not None
        value = build()
        with self._lock:
            if stale:
                self.rebuilds += 1
            else:
                self.misses += 1
            cache[key] = (generation, value)
            while len(cache) > self.max_entries:
                cache.pop(next(iter(cache)))
        return value

    def invalidate(self) -> None:
        """Bump the generation: every cached entry is now stale and will
        be rebuilt (not reused) on its next lookup.  Idle runners own
        resources, so they are closed now; a leased one is closed when
        it comes back under its old generation."""
        with self._lock:
            self.generation += 1
            self.invalidations += 1
            runners, self._runners = self._runners, {}
        for runner in runners.values():
            runner.close()

    def close(self) -> None:
        """Close every idle runner: the daemon is stopping, or a
        throwaway pool is done."""
        self.invalidate()

    # ------------------------------------------------------------------
    # the cached artifacts

    def program(self, job: dict, trace=None):
        """The job's :class:`~repro.api.GuestProgram` (None when it names
        no program) — assembled once per distinct (workload, build
        kwargs) or source text, and shared by every job that names it
        (programs are immutable).  A *trace* that
        recorded the same workload lends its build kwargs, as for the
        CLI (see :func:`repro.jobs.resolve_workload`)."""
        if job.get("workload"):
            spec, kwargs = resolve_workload(job, trace)
            # key on the *resolved* build kwargs, so explicit defaults
            # and implicit defaults share one warm entry
            key = "w:" + _digest((spec.name, kwargs))
            return self._get(self._programs, key, lambda: spec.build(kwargs))
        if job.get("source"):
            key = "s:" + _digest((job["source"], job.get("main"), job.get("name")))
            return self._get(
                self._programs,
                key,
                lambda: GuestProgram.from_source(
                    job["source"],
                    main=job.get("main", "Main.main()V"),
                    name=job.get("name", "program"),
                ),
            )
        return None

    def trace(self, blob: bytes):
        """The parsed :class:`~repro.core.TraceLog` for sealed bytes.
        Replay cursors live in the controller, so one parsed trace is
        safe to share across concurrent jobs."""
        key = "t:" + hashlib.sha256(blob).hexdigest()[:24]
        return self._get(self._traces, key, lambda: trace_from_bytes(blob))

    def load_trace(self, path):
        return self.trace(Path(path).read_bytes())

    @contextmanager
    def campaign_runner(self, campaign: dict):
        """Lease the warm item runner for a validated campaign payload.

        The runner is out of the cache until the ``with`` block ends, so
        a concurrent job on the same payload builds its own.  A block
        that raises closes its runner instead of returning it."""
        from repro.campaign.jobs import make_item_runner

        key = "c:" + _digest(campaign)
        with self._lock:
            generation = self.generation
            runner = self._runners.pop(key, None)
            if runner is not None:
                self.hits += 1
            else:
                self.misses += 1
        if runner is None:
            runner = make_item_runner(campaign)
        try:
            yield runner
        except BaseException:
            runner.close()
            raise
        closing = []
        with self._lock:
            if generation != self.generation:
                closing.append(runner)
            else:
                parked = self._runners.pop(key, None)
                if parked is not None:
                    closing.append(parked)
                self._runners[key] = runner
                while len(self._runners) > self.max_entries:
                    closing.append(self._runners.pop(next(iter(self._runners))))
        for stale in closing:
            stale.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "generation": self.generation,
                "programs": len(self._programs),
                "traces": len(self._traces),
                "runners": len(self._runners),
                "hits": self.hits,
                "misses": self.misses,
                "rebuilds": self.rebuilds,
                "invalidations": self.invalidations,
            }

