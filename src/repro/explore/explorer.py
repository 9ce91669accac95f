"""Systematic schedule exploration with preemption bounding.

The explorer turns the replay platform into a concurrency-testing tool.
Each candidate schedule is a set of preemption *positions* (global live
yield-point indices); recording the workload under the corresponding
:class:`~repro.explore.policy.DeltaSchedule` realises the schedule
deterministically — same positions, same execution, bit for bit — and
produces an ordinary DejaVu trace as a side effect.

Enumeration is CHESS-style preemption-bounded: schedules with 1, 2, ...,
``bound`` preemptions are enumerated exhaustively (in lexicographic
position order) up to the run budget; any remaining budget is spent on
seeded-random schedules with more preemptions than the bound.  Outcomes
are deduplicated by a digest of the observable behaviour (output, heap
digest, traps, deadlock) — the deterministic substrate means two
schedules with equal digests produced *identical* executions.

A schedule **fails** when the run traps, deadlocks, or the workload's
oracle rejects the result.  Every failure is shipped as a replayable
trace; the first one is ddmin-minimised (each candidate re-validated by
re-recording) and the minimised trace is verified by an actual replay.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.api import record as api_record, replay as api_replay
from repro.core.tracelog import TraceLog
from repro.explore.digestset import DigestSet
from repro.explore.minimize import ddmin
from repro.explore.policy import DeltaSchedule, deltas_from_positions
from repro.vm.errors import VMError
from repro.vm.machine import Environment, VMConfig
from repro.vm.timerdev import FixedClock, NeverTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import GuestProgram
    from repro.vm.scheduler_types import RunResult

#: an oracle inspects a run result; None means "acceptable", a string
#: names the failure
Oracle = Callable[["RunResult"], "str | None"]


def default_oracle(result: "RunResult") -> "str | None":
    """Failure means a trap or a deadlock; any clean completion passes."""
    if result.traps:
        tid, kind, detail = result.traps[0]
        return f"trap in thread {tid}: {detail}"
    if result.deadlocked:
        return f"deadlock: threads {list(result.deadlocked)}"
    return None


@dataclass
class Failure:
    """One failing schedule, packaged for reproduction."""

    positions: tuple[int, ...]
    reason: str
    trace: TraceLog
    output: str
    schedule_index: int  # how many schedules had run when this one failed

    @property
    def deltas(self) -> list[int]:
        return deltas_from_positions(self.positions)


@dataclass
class EvaluatedSchedule:
    """One schedule's run, judged: the unit of campaign work."""

    positions: tuple[int, ...]
    digest: str
    reason: "str | None"
    output: str
    trace: TraceLog

    @property
    def failed(self) -> bool:
        return self.reason is not None


@dataclass
class ExploreReport:
    horizon: int
    bound: int
    budget: int
    seed: int
    schedules_run: int
    unique_behaviors: int
    failures: list[Failure] = field(default_factory=list)
    minimized: "Failure | None" = None
    minimization_tests: int = 0

    @property
    def found(self) -> bool:
        return bool(self.failures)

    @property
    def schedules_to_first_failure(self) -> "int | None":
        return self.failures[0].schedule_index if self.failures else None

    def format(self) -> str:
        lines = [
            f"horizon: {self.horizon} yield points   bound: {self.bound}   "
            f"budget: {self.budget}   seed: {self.seed}",
            f"schedules run: {self.schedules_run}   "
            f"distinct behaviors: {self.unique_behaviors}",
        ]
        if not self.failures:
            lines.append("no failing schedule found")
            return "\n".join(lines)
        first = self.failures[0]
        lines.append(
            f"FAILURE after {first.schedule_index} schedules: {first.reason}"
        )
        lines.append(f"  preemption positions: {list(first.positions)}")
        if self.minimized is not None:
            lines.append(
                f"  minimized to {len(self.minimized.positions)} preemption(s) "
                f"at {list(self.minimized.positions)} "
                f"({self.minimization_tests} validation runs)"
            )
        return "\n".join(lines)


class Explorer:
    """Enumerate schedules over one workload; collect failing traces.

    ``factory`` builds the program once, here; every schedule records
    that one immutable :class:`~repro.api.GuestProgram` (each VM gets its
    own natives), so after the first schedule each VM is installed from
    the process's program image instead of loading the program again.
    Every run uses the same deterministic knobs (NeverTimer, FixedClock,
    seeded Environment), so the schedule is the only variable.
    """

    def __init__(
        self,
        factory: "Callable[[], GuestProgram]",
        *,
        oracle: "Oracle | None" = None,
        bound: int = 2,
        budget: int = 250,
        seed: int = 0,
        env_seed: int = 0,
        config: VMConfig | None = None,
        max_failures: int = 1,
        minimize: bool = True,
        behavior_cap: int = 65536,
        check: "Callable[[], None] | None" = None,
    ):
        if bound < 1:
            raise VMError("preemption bound must be >= 1")
        self.program = factory()
        self.oracle = oracle or default_oracle
        self.bound = bound
        self.budget = budget
        self.seed = seed
        self.env_seed = env_seed
        self.config = config
        self.max_failures = max_failures
        self.minimize = minimize
        #: cooperative-cancellation seam: called once per schedule in
        #: :meth:`run`; raising a typed error there aborts the sweep at a
        #: schedule boundary (the serve daemon's deadline hook)
        self.check = check
        #: memory bound on the behaviour-digest dedup structure; beyond
        #: it ``unique_behaviors`` degrades to an unbiased estimate
        #: instead of the set growing without limit on long sweeps
        self.behavior_cap = behavior_cap

    # ------------------------------------------------------------------

    def _record(self, positions: tuple[int, ...]):
        program = self.program
        policy = DeltaSchedule.at_positions(positions)
        session = api_record(
            program,
            config=self.config,
            timer=NeverTimer(),
            clock=FixedClock(),
            env=Environment(seed=self.env_seed),
            schedule=policy,
        )
        session.trace.meta["program"] = program.name
        session.trace.meta["schedule"] = tuple(positions)
        return session, policy

    def _judge(self, result: "RunResult") -> "str | None":
        builtin = default_oracle(result)
        if builtin is not None:
            return builtin
        if self.oracle is not default_oracle:
            return self.oracle(result)
        return None

    @staticmethod
    def _digest(result: "RunResult") -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(result.output_text.encode())
        h.update(result.heap_digest.encode())
        h.update(repr(result.traps).encode())
        h.update(repr(result.deadlocked).encode())
        return h.hexdigest()

    def evaluate(self, positions: tuple[int, ...]) -> EvaluatedSchedule:
        """Record one schedule and judge it — the single-schedule unit
        both :meth:`run` and the parallel campaign worker execute."""
        session, _ = self._record(positions)
        return EvaluatedSchedule(
            positions=tuple(positions),
            digest=self._digest(session.result),
            reason=self._judge(session.result),
            output=session.result.output_text,
            trace=session.trace,
        )

    def candidates(self, horizon: int):
        """Exhaustive schedules for 1..bound preemptions, then seeded-
        random schedules beyond the bound (never repeating).  The random
        phase ends at the first drawn size that reaches the horizon, or
        once every drawable size below it is exhausted."""
        seen: set[tuple[int, ...]] = set()
        for k in range(1, self.bound + 1):
            for combo in itertools.combinations(range(1, horizon + 1), k):
                seen.add(combo)
                yield combo
        rng = random.Random(self.seed)
        sizes = range(self.bound + 1, min(self.bound + 3, horizon - 1) + 1)
        unseen = sum(math.comb(horizon, k) for k in sizes)
        while unseen:
            k = rng.randint(self.bound + 1, self.bound + 3)
            if k >= horizon:
                return
            combo = tuple(sorted(rng.sample(range(1, horizon + 1), k)))
            if combo in seen:
                continue
            seen.add(combo)
            unseen -= 1
            yield combo

    # ------------------------------------------------------------------

    def baseline(self) -> "tuple[EvaluatedSchedule, int]":
        """Schedule #0 — no preemptions — judged, plus the horizon it
        establishes (the campaign parent runs this once before sharding)."""
        session, policy = self._record(())
        return (
            EvaluatedSchedule(
                positions=(),
                digest=self._digest(session.result),
                reason=self._judge(session.result),
                output=session.result.output_text,
                trace=session.trace,
            ),
            policy.consulted,
        )

    def run(self) -> ExploreReport:
        base, horizon = self.baseline()
        behaviors = DigestSet(self.behavior_cap, seed_digests=(base.digest,))
        report = ExploreReport(
            horizon=horizon,
            bound=self.bound,
            budget=self.budget,
            seed=self.seed,
            schedules_run=1,
            unique_behaviors=1,
        )
        if base.failed:
            report.failures.append(
                Failure(
                    positions=(),
                    reason=base.reason,
                    trace=base.trace,
                    output=base.output,
                    schedule_index=1,
                )
            )

        for positions in self.candidates(horizon):
            if len(report.failures) >= self.max_failures:
                break
            if report.schedules_run >= self.budget:
                break
            if self.check is not None:
                self.check()
            evaluated = self.evaluate(positions)
            report.schedules_run += 1
            behaviors.add(evaluated.digest)
            if evaluated.failed:
                report.failures.append(
                    Failure(
                        positions=positions,
                        reason=evaluated.reason,
                        trace=evaluated.trace,
                        output=evaluated.output,
                        schedule_index=report.schedules_run,
                    )
                )
        report.unique_behaviors = len(behaviors)

        if report.failures and self.minimize and report.failures[0].positions:
            report.minimized, report.minimization_tests = self._minimize(
                report.failures[0]
            )
        elif report.failures:
            report.minimized = report.failures[0]
        return report

    # ------------------------------------------------------------------

    def _minimize(self, failure: Failure) -> tuple[Failure, int]:
        def still_fails(candidate: tuple[int, ...]) -> bool:
            session, _ = self._record(candidate)
            return self._judge(session.result) is not None

        minimal, tests = ddmin(failure.positions, still_fails)
        session, _ = self._record(minimal)
        reason = self._judge(session.result)
        assert reason is not None, "minimization lost the failure"
        minimized = Failure(
            positions=minimal,
            reason=reason,
            trace=session.trace,
            output=session.result.output_text,
            schedule_index=failure.schedule_index,
        )
        # the shipped artifact must actually reproduce: replay it
        replayed = api_replay(self.program, minimized.trace, config=self.config)
        if replayed.output_text != minimized.output:
            raise VMError("minimized trace did not replay to the failing output")
        return minimized, tests + 1


def explore(factory, **kwargs) -> ExploreReport:
    """One-call convenience around :class:`Explorer`."""
    return Explorer(factory, **kwargs).run()
