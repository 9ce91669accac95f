"""The shared workload registry: every CLI-visible workload in one place.

Before this module existed each consumer kept its own ad-hoc list —
``ALL_WORKLOADS`` for the tests, hand-written factories elsewhere — and
workloads like ``gc_churn`` and ``philosophers`` were invisible to the
CLI entirely.  A :class:`WorkloadSpec` bundles what every consumer needs:

* ``factory`` + ``defaults`` — build the program (``repro run
  --workload bank``);
* ``explore_kwargs`` — a deliberately small instance for systematic
  schedule exploration, where run count dominates run length;
* ``make_oracle`` — the workload's correctness condition as a function
  of the build kwargs, so ``repro explore`` knows a wrong answer when it
  sees one (trap/deadlock detection needs no oracle and always applies).

Specs are looked up by name or alias via :func:`get_workload`; the
mapping in :data:`REGISTRY` is keyed by canonical name only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.vm.errors import UsageError
from repro.workloads.bank import racy_bank, synced_bank
from repro.workloads.figure1 import figure1_ab, figure1_cd
from repro.workloads.gc_churn import gc_churn
from repro.workloads.philosophers import philosophers
from repro.workloads.producer_consumer import producer_consumer
from repro.workloads.readers_writers import readers_writers
from repro.workloads.server import server
from repro.workloads.sorter import sorter

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.vm.scheduler_types import RunResult

#: oracle over a finished run: None = pass, string = failure description
Oracle = Callable[["RunResult"], "str | None"]


@dataclass
class WorkloadSpec:
    """One registered workload: how to build it and how to judge it."""

    name: str
    factory: "Callable[..., GuestProgram]"
    description: str
    defaults: dict = field(default_factory=dict)
    #: overrides for exploration (small instances: many runs beat long runs)
    explore_kwargs: dict = field(default_factory=dict)
    #: build kwargs -> oracle; None when trap/deadlock is the only failure
    make_oracle: "Callable[[dict], Oracle] | None" = None
    aliases: tuple = ()

    def merged_kwargs(self, overrides: "dict | None" = None, *, explore: bool = False) -> dict:
        kwargs = dict(self.defaults)
        if explore:
            kwargs.update(self.explore_kwargs)
        if overrides:
            kwargs.update(overrides)
        return kwargs

    def _check_known(self, resolved: dict) -> None:
        unknown = set(resolved) - set(self.defaults) - set(self.explore_kwargs)
        if unknown:
            raise UsageError(
                f"workload {self.name!r} has no parameter "
                f"{', '.join(sorted(unknown))} (known: "
                f"{', '.join(sorted(set(self.defaults) | set(self.explore_kwargs)))})"
            )

    def build(self, kwargs: "dict | None" = None) -> "GuestProgram":
        resolved = kwargs or self.defaults
        self._check_known(resolved)
        return self.factory(**resolved)

    def program_factory(self, kwargs: "dict | None" = None):
        """A zero-arg factory that builds the program for *kwargs*.
        Programs are immutable, so a caller builds once and records,
        replays or explores that one program as often as it likes."""
        resolved = dict(kwargs) if kwargs is not None else dict(self.defaults)
        self._check_known(resolved)
        return lambda: self.factory(**resolved)

    def oracle(self, kwargs: "dict | None" = None) -> "Oracle | None":
        if self.make_oracle is None:
            return None
        return self.make_oracle(kwargs if kwargs is not None else dict(self.defaults))


# ---------------------------------------------------------------------------
# oracles


def _bank_oracle(kwargs: dict) -> Oracle:
    want = kwargs.get("tellers", 3) * kwargs.get("deposits", 40)

    def oracle(result: "RunResult") -> "str | None":
        got = result.output_text.strip()
        if got != f"balance={want}":
            return f"lost update: {got!r} (want balance={want})"
        return None

    return oracle


def _server_oracle(kwargs: dict) -> Oracle:
    want = kwargs.get("n_requests", 40)

    def oracle(result: "RunResult") -> "str | None":
        last = result.output_text.splitlines()[-1] if result.output_text else ""
        if not last.startswith("served="):
            return f"missing report line: {last!r}"
        served = int(last.split()[0].split("=", 1)[1])
        if served != want:
            return f"lost served update: served={served} (want {want})"
        return None

    return oracle


def _producer_consumer_oracle(kwargs: dict) -> Oracle:
    producers = kwargs.get("producers", 2)
    per = kwargs.get("items_per_producer", 30)
    want = sum(range(producers * per))  # items are 0..n-1, summed by consumers

    def oracle(result: "RunResult") -> "str | None":
        last = result.output_text.splitlines()[-1] if result.output_text else ""
        if last != f"sum={want}":
            return f"wrong sum: {last!r} (want sum={want})"
        return None

    return oracle


# ---------------------------------------------------------------------------
# the registry


_SPECS = [
    WorkloadSpec(
        name="racy_bank",
        factory=racy_bank,
        description="unsynchronized balance += 1 — the lost-update race",
        defaults=dict(tellers=3, deposits=40),
        explore_kwargs=dict(tellers=2, deposits=6),
        make_oracle=_bank_oracle,
        aliases=("bank",),
    ),
    WorkloadSpec(
        name="synced_bank",
        factory=synced_bank,
        description="the bank with the update inside a monitor (race-free)",
        defaults=dict(tellers=3, deposits=40),
        explore_kwargs=dict(tellers=2, deposits=6),
        make_oracle=_bank_oracle,
    ),
    WorkloadSpec(
        name="server",
        factory=server,
        description="request queue + worker pool over a nondet network native",
        defaults=dict(n_workers=3, n_requests=40, seed=0, work_scale=10),
        explore_kwargs=dict(
            n_workers=2, n_requests=6, work_scale=1, served_window=3
        ),
        make_oracle=_server_oracle,
    ),
    WorkloadSpec(
        name="producer_consumer",
        factory=producer_consumer,
        description="bounded buffer with wait/notify",
        defaults=dict(producers=2, consumers=2, items_per_producer=30, capacity=4),
        explore_kwargs=dict(producers=2, consumers=1, items_per_producer=4, capacity=2),
        make_oracle=_producer_consumer_oracle,
    ),
    WorkloadSpec(
        name="philosophers",
        factory=philosophers,
        description="dining philosophers over object monitors",
        defaults=dict(n=4, rounds=12, nap_every=5),
        explore_kwargs=dict(n=3, rounds=3, nap_every=2),
    ),
    WorkloadSpec(
        name="sorter",
        factory=sorter,
        description="parallel sort/merge: CPU + allocation pressure",
        defaults=dict(n_workers=3, chunk=48),
        explore_kwargs=dict(n_workers=2, chunk=8),
    ),
    WorkloadSpec(
        name="gc_churn",
        factory=gc_churn,
        description="allocation churn, deep recursion, identity hashes",
        defaults=dict(iters=80, depth=40, hash_every=3),
        explore_kwargs=dict(iters=10, depth=8, hash_every=3),
    ),
    WorkloadSpec(
        name="readers_writers",
        factory=readers_writers,
        description="writers-priority read/write lock (MiniJ)",
        defaults=dict(n_readers=3, n_writers=2, rounds=8),
        explore_kwargs=dict(n_readers=2, n_writers=1, rounds=2),
    ),
    WorkloadSpec(
        name="figure1_ab",
        factory=figure1_ab,
        description="paper Figure 1 scenarios A/B: switch-timing divergence",
    ),
    WorkloadSpec(
        name="figure1_cd",
        factory=figure1_cd,
        description="paper Figure 1 scenarios C/D: clock-steered divergence",
    ),
]

REGISTRY: dict[str, WorkloadSpec] = {spec.name: spec for spec in _SPECS}

_ALIASES: dict[str, str] = {
    alias: spec.name for spec in _SPECS for alias in spec.aliases
}


def workload_names() -> list[str]:
    """Canonical names plus aliases, for CLI choices/help."""
    return sorted(REGISTRY) + sorted(_ALIASES)


def canonical_workload_key(name: str, kwargs: "dict | None" = None) -> str:
    """A stable identity string for (workload, build kwargs) — the key the
    campaign corpus and results store group by.  Aliases resolve to the
    canonical name and kwargs are sorted, so the same build always maps
    to the same key no matter how it was spelled."""
    spec = get_workload(name)
    resolved = spec.merged_kwargs(kwargs)
    params = ",".join(f"{k}={resolved[k]}" for k in sorted(resolved))
    return f"{spec.name}({params})"


def get_workload(name: str) -> WorkloadSpec:
    spec = REGISTRY.get(_ALIASES.get(name, name))
    if spec is None:
        raise UsageError(
            f"unknown workload {name!r} (have: {', '.join(workload_names())})"
        )
    return spec
