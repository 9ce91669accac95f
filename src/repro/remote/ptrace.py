"""The simulated OS debugging interface (Unix ``ptrace`` in the paper).

A :class:`DebugPort` gives a tool VM raw *read-only* word access to an
application VM's memory.  Two properties carry the paper's perturbation-
freedom argument:

1. the target VM **executes no code** in response to queries — the port
   reads memory words directly;
2. the port **cannot write** — there is no poke operation at all, so the
   debugger cannot perturb the application even by accident.  (The paper
   permits explicit user-initiated writes at the cost of replay accuracy;
   we surface that as a separate, loudly named escape hatch.)

Every read is counted, so tests can assert both that inspection happened
and that nothing else did.

Like ptrace it also reads a stopped thread's registers
(:meth:`DebugPort.top_bci`): a debugger pause writes nothing to the heap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.vm.errors import VMError
from repro.vm.memory import BOOT_WORDS, MAGIC

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import VirtualMachine


class DebugPort:
    """Read-only window into *target*'s memory, as an OS debugger would have."""

    def __init__(self, target: "VirtualMachine"):
        self._memory = target.memory
        if self._memory.boot_read(0) != MAGIC:
            raise VMError("target does not look like a VM (bad boot magic)")
        self._scheduler = target.scheduler
        self.reads = 0

    def peek(self, addr: int) -> int:
        """Read one word of remote memory."""
        self.reads += 1
        return self._memory.read(addr)

    def peek_range(self, addr: int, count: int) -> list[int]:
        """Read *count* consecutive words (cloning primitive arrays, §3.3)."""
        self.reads += count
        return self._memory.read_range(addr, count)

    def boot(self, slot: int) -> int:
        """Read a boot-record root slot (how the debugger finds everything)."""
        if not (0 <= slot < BOOT_WORDS):
            raise VMError(f"bad boot slot {slot}")
        self.reads += 1
        return self._memory.boot_read(slot)

    def top_bci(self, tid: int) -> int | None:
        """The bci of thread *tid*'s innermost frame (its saved pc), or None."""
        threads = self._scheduler.threads
        if 0 <= tid < len(threads) and threads[tid].frames:
            self.reads += 1
            return threads[tid].frames[-1].bci
        return None

    # NOTE deliberately absent: poke().  See module docstring.


class IntrusivePort(DebugPort):
    """The explicit escape hatch: a port that *can* write remote memory.

    Using it during a replay irrevocably breaks the symmetry between
    record and replay — the paper's footnote 3.  It exists so tests and
    examples can demonstrate exactly that breakage.
    """

    def __init__(self, target: "VirtualMachine"):
        super().__init__(target)
        self.writes = 0

    def poke(self, addr: int, value: int) -> None:
        self.writes += 1
        self._memory.write(addr, value)
