"""Output checks shared by the workloads, and the checker's self-test.

Every check feeds a :class:`harness.Checks`; a check that does not hold
is a failure counted against ``error_rate``, never a silent pass.
"""

from __future__ import annotations

import hashlib

from harness import Checks, Run
from repro.api import trace_from_bytes
from repro.core.verify import compare_runs
from repro.vm.errors import VMError


def faithful(checks: Checks, recorded, replayed, what: str) -> bool:
    report = compare_runs(recorded, replayed)
    return checks.expect(report.faithful, f"{what} is not faithful: {report.detail}")


def same_trace(checks: Checks, want: bytes, got: bytes, what: str) -> bool:
    """*got* must be byte-identical to *want* and load as a sealed trace."""
    if not checks.expect(want == got, f"{what}: trace bytes differ"):
        return False
    try:
        trace_from_bytes(got)
    except VMError as exc:
        checks.fail(f"{what}: trace does not load: {exc}")
        return False
    return True


def same_digest(checks: Checks, want: str, got: str, what: str) -> bool:
    return checks.expect(want == got, f"{what}: digest {got} != reference {want}")


def digest_of(blobs: "dict[str, bytes]") -> str:
    """One digest over named trace files, printed by every run so a
    traced and an untraced run of the same seed can be compared: the
    spans must not change a recorded byte."""
    h = hashlib.sha256()
    for name in sorted(blobs):
        h.update(name.encode() + b"\0" + blobs[name])
    return h.hexdigest()[:16]


def self_check(r: Run, blob: bytes) -> None:
    """Show that the checks above count a tampered trace and a wrong
    digest as failures; if they do not, the run itself fails."""
    probe = Checks()
    tampered = bytearray(blob)
    tampered[len(tampered) // 2] ^= 0x5A
    same_trace(probe, blob, bytes(tampered), "tampered trace")
    try:
        trace_from_bytes(bytes(tampered))
        probe.fail("unexpected: tampered trace loaded")
    except VMError:
        pass
    same_digest(probe, "0123456789abcdef", "fedcba9876543210", "wrong digest")
    r.checks.expect(
        len(probe.failures) == 2,
        f"checker self-check: expected 2 failures, saw {probe.failures}",
    )
