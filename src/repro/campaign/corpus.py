"""The content-addressed failure corpus (``repro corpus ...``).

Every failing schedule a campaign finds ships as a standard replayable
``.trace``; the corpus is where they accumulate across sweeps.  Entries
are *content addressed*: an entry's file name is ``sha256(bytes)[:16]``
of its sealed trace bytes, so ingesting the same failure twice — from
two workers, two sweeps, or two machines — is a no-op by construction,
and a jobs=1 and a jobs=N campaign over the same work-list produce
byte-identical corpora.

On-disk layout (one directory)::

    corpus/
      index.json        # {"version": 1, "entries": {name: meta}}
      3fb2a1c4d5e6f708.djv   # sealed v3.1 trace bytes

Durability follows the trace-format conventions: blobs are written to a
``*.tmp*`` name and atomically renamed into place, the index is
rewritten atomically once per batch, after its blobs (a sweep ingests
all its failures as one batch, and a prune is one batch), and loading
ignores torn ``*.tmp*`` leftovers.  The index is a cache, not the truth
— an entry file that appears without an index row (a crash between the
blobs and the index) is re-adopted from the trace's own meta on the
next load.

Entry meta records how to reproduce: workload + build kwargs + seeds +
the schedule (or fault spec) plus the behaviour digest the campaign
deduplicates by.  ``prune`` thins per-behaviour groups but never removes
the last entry of a distinct behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.vm.errors import TraceFormatError, UsageError

INDEX_NAME = "index.json"
ENTRY_SUFFIX = ".djv"
#: content-address width: 64 bits of sha256 in hex
NAME_LEN = 16


def entry_name(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:NAME_LEN]


@dataclass
class CorpusEntry:
    name: str
    meta: dict
    path: Path

    @property
    def size(self) -> int:
        return self.path.stat().st_size

    def describe(self) -> str:
        workload = self.meta.get("workload", "?")
        schedule = self.meta.get("schedule")
        what = (
            f"schedule {list(schedule)}"
            if schedule is not None
            else self.meta.get("source", "?")
        )
        reason = self.meta.get("reason", "")
        return f"{self.name}  {workload:<18} {what}  — {reason}"


class Corpus:
    """One corpus directory.  The parent campaign process is the only
    writer during a sweep; readers tolerate everything a crash between
    blob write and index write can leave behind."""

    def __init__(self, root: "str | Path", *, create: bool = False):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        if not self.root.is_dir():
            raise UsageError(f"no corpus directory at {self.root}")
        self._index = self._load_index()
        self._reconcile()

    # -- loading -----------------------------------------------------------

    def _load_index(self) -> dict:
        path = self.root / INDEX_NAME
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return {}
        except (OSError, ValueError):
            return {}  # damaged index: rebuilt from the entries below
        entries = data.get("entries")
        return dict(entries) if isinstance(entries, dict) else {}

    def _reconcile(self) -> None:
        """Make the in-memory index agree with the directory: drop rows
        whose blob is gone, adopt blobs the index never heard of, and
        ignore torn ``*.tmp*`` files outright."""
        on_disk = {
            p.stem: p
            for p in self.root.iterdir()
            if p.suffix == ENTRY_SUFFIX and ".tmp" not in p.name
        }
        for name in list(self._index):
            if name not in on_disk:
                del self._index[name]
        adopted = False
        for name, path in on_disk.items():
            if name in self._index:
                continue
            self._index[name] = self._meta_from_blob(path)
            adopted = True
        if adopted:
            self._write_index()

    @staticmethod
    def _meta_from_blob(path: Path) -> dict:
        """Recover reproduction meta from the trace file itself (the
        index row that a crash lost)."""
        from repro.core.tracelog import TraceLog

        try:
            trace_meta = TraceLog.load(path).meta
        except TraceFormatError:
            return {"source": "unreadable", "reason": "entry does not load"}
        meta = {"source": "adopted"}
        for key in ("workload", "workload_kwargs", "schedule"):
            if key in trace_meta:
                value = trace_meta[key]
                meta[key] = list(value) if isinstance(value, tuple) else value
        return meta

    # -- writing -----------------------------------------------------------

    def _write_index(self) -> None:
        payload = {"version": 1, "entries": dict(sorted(self._index.items()))}
        tmp = self.root / f"{INDEX_NAME}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.root / INDEX_NAME)

    def ingest(self, blob: bytes, meta: dict) -> "tuple[str, bool]":
        """Store one failing trace; returns ``(name, new)``.  Duplicate
        content is a no-op (``new=False``) — the content address is the
        dedup."""
        return self.ingest_many([(blob, meta)])[0]

    def ingest_many(self, items) -> "list[tuple[str, bool]]":
        """Store each ``(blob, meta)`` of *items* in order, then write the
        index once; returns ``(name, new)`` per item, as :meth:`ingest`
        would.  A crash between the blobs and the index leaves blobs
        without rows, which the next load adopts."""
        results = []
        for blob, meta in items:
            digest = hashlib.sha256(blob).hexdigest()
            name = digest[:NAME_LEN]
            path = self.root / f"{name}{ENTRY_SUFFIX}"
            if path.exists():
                results.append((name, False))
                continue
            tmp = self.root / f"{name}{ENTRY_SUFFIX}.tmp.{os.getpid()}"
            tmp.write_bytes(blob)
            os.replace(tmp, path)
            row = dict(meta)
            row["bytes"] = len(blob)
            row["sha256"] = digest
            self._index[name] = _jsonable(row)
            results.append((name, True))
        if any(new for _, new in results):
            self._write_index()
        return results

    # -- reading -----------------------------------------------------------

    def entries(self) -> "list[CorpusEntry]":
        return [
            CorpusEntry(name, self._index[name], self.root / f"{name}{ENTRY_SUFFIX}")
            for name in sorted(self._index)
        ]

    def get(self, name: str) -> CorpusEntry:
        if name not in self._index:
            raise UsageError(f"no corpus entry {name!r} in {self.root}")
        return CorpusEntry(name, self._index[name], self.root / f"{name}{ENTRY_SUFFIX}")

    def blob(self, name: str) -> bytes:
        return self.get(name).path.read_bytes()

    def trace(self, name: str):
        from repro.core.tracelog import TraceLog

        return TraceLog.load(self.get(name).path)

    def __len__(self) -> int:
        return len(self._index)

    # -- maintenance -------------------------------------------------------

    def _behavior_groups(self) -> "dict[str, list[str]]":
        groups: dict[str, list[str]] = {}
        for name in sorted(self._index):
            behavior = self._index[name].get("behavior") or f"solo:{name}"
            groups.setdefault(behavior, []).append(name)
        return groups

    def prune(self, keep_per_behavior: int = 1) -> "tuple[int, int]":
        """Thin each distinct-behaviour group to at most
        *keep_per_behavior* entries (first names in sorted order — a
        deterministic choice).  The last copy of a behaviour is never
        deleted; returns ``(kept, removed)``."""
        keep = max(1, keep_per_behavior)
        removed = 0
        for names in self._behavior_groups().values():
            for name in names[keep:]:
                (self.root / f"{name}{ENTRY_SUFFIX}").unlink(missing_ok=True)
                del self._index[name]
                removed += 1
        if removed:
            self._write_index()
        return len(self._index), removed

    def stats(self) -> dict:
        from repro.workloads.registry import canonical_workload_key

        by_workload: dict[str, int] = {}
        total_bytes = 0
        for entry in self.entries():
            workload = entry.meta.get("workload")
            if workload is not None:
                key = canonical_workload_key(
                    workload, entry.meta.get("workload_kwargs") or {}
                )
            else:
                key = entry.meta.get("source", "?")
            by_workload[key] = by_workload.get(key, 0) + 1
            total_bytes += entry.meta.get("bytes", 0)
        return {
            "entries": len(self._index),
            "bytes": total_bytes,
            "behaviors": len(self._behavior_groups()),
            "by_workload": by_workload,
        }


def _jsonable(value):
    """Meta rows must survive a JSON round trip unchanged, or two
    campaigns ingesting the same failure would disagree with a reloaded
    index; normalise tuples eagerly."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
