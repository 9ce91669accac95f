"""Engine optimisation toggles.

The engine has one dispatch loop — threaded code: every compiled method
gets a table of pre-bound handler closures, with deadline/budget
accounting batched off the per-op path.  On top of it sits one
optimisation layer, ablatable so determinism can be asserted with and
without it and its speed attributed:

* ``fusion`` — the compiler's peephole pass fuses hot adjacent micro-op
  pairs/triples into superinstructions that charge exactly the cycles of
  the ops they replace and never straddle a branch target or safe
  point; a yield point may only appear as the *terminal* op of a
  record-aware ``F_YP_GROUP``, which charges its prefix cycles and
  re-checks the timer deadline before the yield point observes it.

Fusion may not change anything the guest (or DejaVu) can observe:
logical clocks, ``nyp`` deltas, cycle counts, traces, and event streams
are bit-identical with it on and off.  Fusion is therefore the engine's
decision, not a user option: a plain VM always fuses, and the toggle
exists only so tests and benchmarks can assert and attribute that.

The hooked replay analyses fuse too; only the replay debugger
(``ReplaySession``) runs unfused code, since a breakpoint can sit inside a
superinstruction and fused carries fold the clock late.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Which optimisation layer the engine/compiler pair enables."""

    fusion: bool = True

    @classmethod
    def baseline(cls) -> "EngineConfig":
        """The plain engine: no fusion."""
        return cls(fusion=False)

    @classmethod
    def all_combinations(cls) -> "list[EngineConfig]":
        """Every toggle combination, baseline first (for ablation tests)."""
        return [cls.baseline(), cls()]

    def describe(self) -> str:
        # "threaded" names the dispatch loop; it stays in the tag so that
        # checkpoint headers written under the same engine keep matching
        return "threaded+fusion" if self.fusion else "threaded"
