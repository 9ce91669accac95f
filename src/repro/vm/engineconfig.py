"""Engine optimisation toggles.

The engine has one dispatch loop — threaded code: every compiled method
gets a table of pre-bound handler closures, with deadline/budget
accounting batched off the per-op path.  On top of it sit two
optimisation layers, each independently ablatable (so determinism can be
asserted across every combination, and perf can be attributed per
layer):

* ``fusion`` — the compiler's peephole pass fuses hot adjacent micro-op
  pairs/triples into superinstructions that charge exactly the cycles of
  the ops they replace and never straddle a branch target or safe
  point; a yield point may only appear as the *terminal* op of a
  record-aware ``F_YP_GROUP``, which charges its prefix cycles and
  re-checks the timer deadline before the yield point observes it;
* ``inline_caches`` — each ``invokevirtual`` site carries a monomorphic
  ``class_id → RuntimeMethod`` cache, invalidated by the loader whenever
  a class is linked.

Neither layer may change anything the guest (or DejaVu) can observe:
logical clocks, ``nyp`` deltas, cycle counts, traces, and event streams
are bit-identical for every toggle combination.  The toggles exist
precisely so tests can assert that.

Hook clients (debugger, time travel, profiler, coverage, the race
detector and slim recording) ask for ``EngineConfig(fusion=False)``: a
hook sees one call per executable op, and only unfused code makes those
the canonical micro-ops.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Which optimisation layers the engine/compiler pair enables."""

    fusion: bool = True
    inline_caches: bool = True

    @classmethod
    def baseline(cls) -> "EngineConfig":
        """The plain engine: no fusion, no inline caches."""
        return cls(fusion=False, inline_caches=False)

    @classmethod
    def all_combinations(cls) -> "list[EngineConfig]":
        """Every toggle combination, baseline first (for ablation tests)."""
        return [
            cls(fusion=fusion, inline_caches=ic)
            for fusion in (False, True)
            for ic in (False, True)
        ]

    def describe(self) -> str:
        # "threaded" names the dispatch loop; it stays in the tag so that
        # checkpoint headers written under the same engine keep matching
        parts = ["threaded"]
        if self.fusion:
            parts.append("fusion")
        if self.inline_caches:
            parts.append("ic")
        return "+".join(parts)
