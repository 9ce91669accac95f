"""The virtual timer device and wall-clock sources.

These are the VM's two hardware-level sources of non-determinism:

* the **timer** fires an interrupt after a (varying) number of executed
  micro-ops; the interrupt sets ``preemptive_hardware_bit``, which the next
  yield point observes — exactly Jalapeño's quasi-preemption;
* the **wall clock** answers environmental queries (``currentTimeMillis``)
  and drives ``sleep`` / timed ``wait`` expiration.

Both come in a genuinely non-deterministic host flavour and a seeded
synthetic flavour.  The synthetic flavour is still *non-deterministic from
the guest's point of view* (the guest cannot predict it), but lets tests
inject reproducible schedules.
"""

from __future__ import annotations

import random
import time
from typing import Protocol

from repro.vm.errors import UsageError


class TimerSource(Protocol):
    """Yields the number of micro-ops until the next timer interrupt."""

    def next_interval(self) -> int: ...


class WallClock(Protocol):
    """A millisecond wall clock.  ``read`` may have side effects (advance)."""

    def read(self) -> int: ...

    def advance_to(self, millis: int) -> None:
        """Hint that the VM is idle until *millis* (sleep/timed-wait)."""
        ...


class FixedTimer:
    """Deterministic interrupts every *interval* micro-ops (for tests)."""

    def __init__(self, interval: int = 1000):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval

    def next_interval(self) -> int:
        return self.interval

    def slim_model(self) -> tuple | None:
        return ("fixed", self.interval)


class SeededJitterTimer:
    """Pseudo-random intervals in [lo, hi] from a private PRNG.

    Reproducible given the seed, but unpredictable to the guest — the
    standard way our tests model timer-interrupt non-determinism.
    """

    def __init__(self, seed: int, lo: int = 200, hi: int = 4000):
        if not (0 < lo <= hi):
            raise ValueError(f"bad interval bounds [{lo}, {hi}]")
        self.seed = seed
        self._rng = random.Random(seed)
        self.lo = lo
        self.hi = hi
        self._consumed = False

    def next_interval(self) -> int:
        self._consumed = True
        return self._rng.randint(self.lo, self.hi)

    def slim_model(self) -> tuple:
        # The PRNG stream is only reconstructible from the seed while the
        # timer is pristine.  A pre-used one is a knobs dict reused across
        # recordings: refuse it rather than silently record in full.
        if self._consumed:
            raise UsageError(
                f"SeededJitterTimer(seed={self.seed}) has already drawn "
                "intervals, so a slim recording cannot model it; build "
                "fresh knobs for each recording with standard_knobs(seed)"
            )
        return ("jitter", self.seed, self.lo, self.hi)


class NeverTimer:
    """A timer that never fires: preemption is someone else's job.

    Used by :mod:`repro.explore`, which drives preemption through a
    :class:`~repro.explore.policy.SchedulePolicy` at yield points instead
    of through the interrupt bit — the schedule, not the timer, is the
    only source of preemptive switches.  (Equivalent to ``timer=None``,
    but self-describing at call sites.)
    """

    #: far beyond any reachable cycle budget
    INTERVAL = 1 << 60

    def next_interval(self) -> int:
        return self.INTERVAL

    def slim_model(self) -> tuple | None:
        return ("never",)


def slim_model_of(timer) -> tuple | None:
    """The compact reconstruction spec of a timer device, or None.

    A spec is a small tuple from which :func:`timer_from_model` rebuilds a
    device whose interval stream is *identical* to what the original would
    have produced from this point on.  Host timers have no spec — slim
    recording then falls back to full switch logging; a pre-used jitter
    timer raises :class:`~repro.vm.errors.UsageError`.  ``timer=None`` (no preemption source) is modelled as
    ``("none",)``.
    """
    if timer is None:
        return ("none",)
    probe = getattr(timer, "slim_model", None)
    if probe is None:
        return None
    return probe()


def timer_from_model(spec: tuple):
    """Rebuild a pristine timer device from a :func:`slim_model_of` spec."""
    kind = spec[0]
    if kind == "fixed":
        return FixedTimer(int(spec[1]))
    if kind == "jitter":
        return SeededJitterTimer(int(spec[1]), int(spec[2]), int(spec[3]))
    if kind == "never":
        return NeverTimer()
    if kind == "none":
        return None
    raise ValueError(f"unknown slim timer model {spec!r}")


class HostTimer:
    """Interval derived from host-clock jitter: true non-determinism."""

    def __init__(self, lo: int = 200, hi: int = 4000):
        self.lo = lo
        self.hi = hi

    def next_interval(self) -> int:
        jitter = time.perf_counter_ns() % (self.hi - self.lo + 1)
        return self.lo + jitter


class FixedClock:
    """A clock that advances a fixed amount per read (fully deterministic).

    Useful as a *control*: with a fixed clock and a fixed timer the VM is
    deterministic even without DejaVu, which tests exploit.
    """

    def __init__(self, start: int = 0, step: int = 1):
        self._now = start
        self.step = step

    def read(self) -> int:
        self._now += self.step
        return self._now

    def advance_to(self, millis: int) -> None:
        if millis > self._now:
            self._now = millis


class SeededJitterClock:
    """Starts at *start*, advances by a pseudo-random amount per read."""

    def __init__(self, seed: int, start: int = 1_000_000, lo: int = 0, hi: int = 7):
        self._rng = random.Random(seed ^ 0x5EED_C10C)
        self._now = start
        self.lo = lo
        self.hi = hi

    def read(self) -> int:
        self._now += self._rng.randint(self.lo, self.hi)
        return self._now

    def advance_to(self, millis: int) -> None:
        if millis > self._now:
            self._now = millis


class HostClock:
    """The real host clock, scaled so guest workloads see time move."""

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self._origin = time.monotonic()

    def read(self) -> int:
        return int((time.monotonic() - self._origin) * 1000 * self.scale)

    def advance_to(self, millis: int) -> None:
        # Idle-wait until the host clock catches up (bounded politeness nap).
        while self.read() < millis:
            time.sleep(0.0005)
