"""Deterministic execution observer.

The observer records a canonical event stream (switches, outputs, clock
values, traps, GCs, ...) for an execution.  Replay *accuracy* — the paper's
absolute requirement — is checked by comparing the observer streams of a
record run and its replay event-by-event: identical streams mean identical
execution behaviour at the granularity the paper defines (same event
sequence, same program states at corresponding events, witnessed through
every guest-visible side effect).
"""

from __future__ import annotations


class ExecutionObserver:
    """Collects ``(kind, *details)`` tuples in execution order."""

    def __init__(self):
        self.events: list[tuple] = []

    def emit(self, kind: str, *details) -> None:
        self.events.append((kind, *details))

    def of_kind(self, kind: str) -> list[tuple]:
        return [e for e in self.events if e[0] == kind]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


def first_divergence(a: list[tuple], b: list[tuple]) -> int | None:
    """Index of the first differing event, or None if streams are identical."""
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None
