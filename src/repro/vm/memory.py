"""Flat word-addressable memory with two semispaces and a boot record.

Every guest-visible datum lives in this memory, which is what makes remote
reflection real: a debugger attached through :class:`repro.remote.ptrace.
DebugPort` reads these words and nothing else.

Address map::

    [0, BOOT_WORDS)                         boot record (GC roots, magic)
    [BOOT_WORDS, BOOT_WORDS + semi)         semispace 0
    [BOOT_WORDS + semi, BOOT_WORDS + 2semi) semispace 1

Address 0 holds the boot magic and is never a valid object address, so the
guest null reference is the integer 0.

Only the used prefix of the address space is materialised: ``words``
holds addresses ``[0, len(words))`` and every word past its end is zero
by definition.  Allocation, writes and collections grow the prefix;
reads past it return 0.  An address outside ``[0, size)`` is still a
:class:`MemoryFault`, whatever the prefix length.
"""

from __future__ import annotations

from repro.vm.errors import VMError

#: Boot-record slot indices.  The debugger reads these to find the roots.
BOOT_MAGIC = 0
BOOT_DICTIONARY = 1  # -> VM_Dictionary object
BOOT_THREADS = 2  # -> Thread[] table
BOOT_STRINGS = 3  # -> String[] intern table
BOOT_DEJAVU = 4  # -> DejaVu trace buffer ([I), 0 when DejaVu inactive
BOOT_GC_COUNT = 5  # number of collections performed
BOOT_CLASS_COUNT = 6  # number of loaded classes
BOOT_SHADOW = 7  # -> [I[] per-thread shadow stacks (parallel to threads)
BOOT_WORDS = 16

MAGIC = 0x7EC0_11AD  # "pequeño, 11AD" — checked by the debug port

#: the materialised prefix grows by at least this many words at a time
_GROW_WORDS = 1024


class MemoryFault(VMError):
    """Out-of-range or unmapped access (host-level bug, not a guest trap)."""


class Memory:
    """The raw word store plus semispace bookkeeping."""

    def __init__(self, semispace_words: int):
        if semispace_words < 64:
            raise VMError(f"semispace too small: {semispace_words}")
        self.semi = semispace_words
        #: words in the whole address space (boot record + both semispaces)
        self.size = BOOT_WORDS + 2 * semispace_words
        #: the materialised prefix of the address space
        self.words: list[int] = [0] * BOOT_WORDS
        self.base = (BOOT_WORDS, BOOT_WORDS + semispace_words)
        self.active = 0
        self.bump = self.base[0]
        self.limit = self.base[0] + semispace_words
        self.words[BOOT_MAGIC] = MAGIC
        self._from_end = 0

    def grow(self, end: int) -> None:
        """Materialise (as zeros) every address below *end*."""
        words = self.words
        have = len(words)
        if end > have:
            end = min(self.size, max(end, have + _GROW_WORDS))
            words.extend([0] * (end - have))

    # -- raw access --------------------------------------------------------

    def read(self, addr: int) -> int:
        try:
            if addr < 0:
                raise IndexError(addr)
            return self.words[addr]
        except IndexError:
            if 0 <= addr < self.size:
                return 0
            raise MemoryFault(f"read out of range: {addr}") from None

    def write(self, addr: int, value: int) -> None:
        words = self.words
        if not (0 <= addr < len(words)):
            if not (0 <= addr < self.size):
                raise MemoryFault(f"write out of range: {addr}")
            self.grow(addr + 1)
        words[addr] = value

    def read_range(self, addr: int, count: int) -> list[int]:
        if count < 0 or addr < 0 or addr + count > self.size:
            raise MemoryFault(f"range read out of range: {addr}+{count}")
        got = self.words[addr : addr + count]
        if len(got) < count:
            got.extend([0] * (count - len(got)))
        return got

    def zero(self, addr: int, count: int) -> None:
        """Zero ``[addr, addr + count)`` in one slice write."""
        if count < 0 or addr < 0 or addr + count > self.size:
            raise MemoryFault(f"range zero out of range: {addr}+{count}")
        words = self.words
        end = min(addr + count, len(words))  # past the prefix is zero
        if addr < end:
            words[addr:end] = [0] * (end - addr)

    # -- boot record --------------------------------------------------------

    def boot_read(self, slot: int) -> int:
        if not (0 <= slot < BOOT_WORDS):
            raise MemoryFault(f"boot slot out of range: {slot}")
        return self.words[slot]

    def boot_write(self, slot: int, value: int) -> None:
        if not (0 < slot < BOOT_WORDS):  # slot 0 (magic) is read-only
            raise MemoryFault(f"boot slot out of range: {slot}")
        self.words[slot] = value

    # -- allocation ---------------------------------------------------------

    def alloc(self, nwords: int) -> int | None:
        """Bump-allocate *nwords* in the active semispace; None when full."""
        if nwords <= 0:
            raise MemoryFault(f"bad allocation size: {nwords}")
        addr = self.bump
        if addr + nwords > self.limit:
            return None
        self.bump = end = addr + nwords
        # fresh memory is zero: past the prefix by definition, inside it
        # because finish_flip() zeroes an evacuated space
        if end > len(self.words):
            self.grow(end)
        return addr

    @property
    def free_words(self) -> int:
        return self.limit - self.bump

    @property
    def used_words(self) -> int:
        return self.bump - self.base[self.active]

    def space_of(self, addr: int) -> int | None:
        """Which semispace *addr* lies in (0/1), or None for the boot record."""
        for which in (0, 1):
            lo = self.base[which]
            if lo <= addr < lo + self.semi:
                return which
        return None

    def in_active(self, addr: int) -> bool:
        return self.space_of(addr) == self.active

    # -- GC support ----------------------------------------------------------

    def begin_flip(self) -> int:
        """Start a collection: return the to-space base for evacuation.

        The to-space is materialised as far as the collection can reach:
        survivors never take more words than the from-space has in use.
        """
        to_base = self.base[1 - self.active]
        self._from_end = min(len(self.words), self.base[self.active] + self.semi)
        self.grow(to_base + self.used_words)
        return to_base

    def finish_flip(self, new_bump: int) -> None:
        """Complete a collection: to-space becomes active, old space zeroed."""
        old = self.active
        self.active = 1 - self.active
        lo = self.base[self.active]
        self.bump = new_bump
        self.limit = lo + self.semi
        # Zero the evacuated space so stale data can never leak back in
        # (and so replay divergences show up as faults, not silent reads).
        # Semispace 1 is the tail of the address space: dropping it from
        # the prefix zeroes it.  Semispace 0 is zeroed as far as it was
        # materialised before the flip grew the prefix into semispace 1.
        words = self.words
        old_lo = self.base[old]
        if old == 1:
            del words[old_lo:]
        else:
            hi = self._from_end
            words[old_lo:hi] = [0] * (hi - old_lo)
