"""The warm-session pool: cached, generation-counted replay state.

The whole point of a long-lived daemon (iReplayer's lesson) is that the
expensive, *deterministic* setup work — assembling a guest program,
parsing a sealed trace, loading a checkpoint sidecar — happens once and
amortizes across every job that names the same content.  The pool
caches exactly that: pure functions of content, keyed by content
digest, so a warm hit cannot change a job's result, only its latency.
(VMs themselves are single-run and are never cached, and neither is
native state: every job gets its own copy of a program's natives.)

Crash safety is generational: every cache entry carries the pool
generation it was built under.  When a job dies in a way that casts
doubt on shared state (a worker crash, an infrastructure error), the
supervisor calls :meth:`SessionPool.invalidate`, which bumps the
generation — every existing entry becomes stale and is *rebuilt on next
use*, never reused.  A crashed session is thus replaced by
construction, not trusted by optimism.

Entries are evicted LRU beyond ``max_entries`` so a long-lived daemon
serving many distinct programs/traces stays bounded.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import threading
from dataclasses import replace
from pathlib import Path

from repro.api import GuestProgram, trace_from_bytes
from repro.jobs import resolve_workload


def _digest(obj) -> str:
    return hashlib.sha256(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()[:24]


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
        be rebuilt (not reused) on its next lookup."""
        with self._lock:
            self.generation += 1
            self.invalidations += 1

    # ------------------------------------------------------------------
    # the cached artifacts

    def program(self, job: dict, trace=None):
        """The job's :class:`~repro.api.GuestProgram` (None when it names
        no program) — assembled once per distinct (workload, build
        kwargs) or source text, with fresh copies of its never-run
        natives (the ``server`` network stream).  A *trace* that
        recorded the same workload lends its build kwargs, as for the
        CLI (see :func:`repro.jobs.resolve_workload`)."""
        if job.get("workload"):
            spec, kwargs = resolve_workload(job, trace)
            # key on the *resolved* build kwargs, so explicit defaults
            # and implicit defaults share one warm entry
            key = "w:" + _digest((spec.name, sorted(kwargs.items())))
            program = self._get(self._programs, key, lambda: spec.build(kwargs))
        elif job.get("source"):
            key = "s:" + _digest((job["source"], job.get("main"), job.get("name")))
            program = self._get(
                self._programs,
                key,
                lambda: GuestProgram.from_source(
                    job["source"],
                    main=job.get("main", "Main.main()V"),
                    name=job.get("name", "program"),
                ),
            )
        else:
            return None
        return replace(program, natives=copy.deepcopy(program.natives))

    def trace(self, blob: bytes):
        """The parsed :class:`~repro.core.TraceLog` for sealed bytes.
        Replay cursors live in the controller, so one parsed trace is
        safe to share across concurrent jobs."""
        key = "t:" + hashlib.sha256(blob).hexdigest()[:24]
        return self._get(self._traces, key, lambda: trace_from_bytes(blob))

    def load_trace(self, path):
        return self.trace(Path(path).read_bytes())

    def stats(self) -> dict:
        with self._lock:
            return {
                "generation": self.generation,
                "programs": len(self._programs),
                "traces": len(self._traces),
                "hits": self.hits,
                "misses": self.misses,
                "rebuilds": self.rebuilds,
                "invalidations": self.invalidations,
            }

