"""Fault injectors: the mechanics of making each surface misbehave.

Each injector either applies damage to an artifact (trace bytes), arms a
time bomb inside a VM (native layer), or performs one sabotaged exchange
against a live debugger server (transport layer).  Injectors are
mechanical — classification of what happened afterwards belongs to
:mod:`repro.faults.campaign`.
"""

from __future__ import annotations

import socket
import time
from typing import TYPE_CHECKING

from repro.core.framing import TransportError, encode_message
from repro.core.segments import Layout, boundaries
from repro.core.tracelog import FORMAT_VERSION, LAYOUTS
from repro.faults.plan import FaultSpec
from repro.vm.errors import VMError

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import VirtualMachine


class InjectedFault(VMError):
    """The typed error an armed native raises — what a failing syscall,
    exhausted fd table, or dead network looks like to the guest."""


# ---------------------------------------------------------------------------
# trace-file and checkpoint-sidecar faults


def segment_boundaries(blob: bytes) -> list[int]:
    """Byte offsets just *after* each complete segment — the positions a
    crash between flushes can leave a tmp file cut at — under the
    segment layout of the blob's version (v3.1 when it names none)."""
    return boundaries(blob, _trace_layout(blob))


def _trace_layout(blob: bytes) -> Layout:
    version = int.from_bytes(blob[4:6], "little") if len(blob) >= 6 else 0
    return LAYOUTS.get(version, LAYOUTS[FORMAT_VERSION])


def _damage(blob: bytes, damage: str, params: tuple, layout: Layout) -> bytes:
    """*blob* after one ``bit-flip``, ``truncate`` or ``torn-write``;
    fractional positions resolve against this blob.  A torn write is a
    crash between segment flushes: the tmp file ends exactly at a
    segment boundary (or right after the header, before any flush),
    with no footer."""
    if damage == "bit-flip":
        frac, bit = params
        pos = min(len(blob) - 1, int(frac * len(blob)))
        damaged = bytearray(blob)
        damaged[pos] ^= 1 << bit
        return bytes(damaged)
    (frac,) = params
    if damage == "truncate":
        return blob[:max(1, min(len(blob) - 1, int(frac * len(blob))))]
    candidates = [layout.start] + boundaries(blob, layout)[:-1]
    return blob[:candidates[min(len(candidates) - 1, int(frac * len(candidates)))]]


def apply_trace_fault(blob: bytes, spec: FaultSpec) -> bytes:
    """Damaged copy of *blob* per *spec* (``bit-flip`` / ``truncate`` /
    ``torn-write``)."""
    if spec.kind not in ("bit-flip", "truncate", "torn-write"):
        raise ValueError(f"not a trace fault: {spec.kind}")
    return _damage(blob, spec.kind, spec.params, _trace_layout(blob))


#: checkpoint fault kind -> (the damage it does, where the result belongs)
_CKPT_DAMAGE = {
    "ckpt-bit-flip": ("bit-flip", "sidecar"),
    "ckpt-truncate": ("truncate", "sidecar"),
    "ckpt-torn": ("torn-write", "tmp"),
}


def apply_checkpoint_fault(
    blob: bytes, spec: FaultSpec
) -> tuple[bytes | None, str]:
    """Damaged sidecar per *spec*; returns ``(bytes_or_None, destination)``.

    Destination says where the damaged artifact belongs on disk:
    ``"sidecar"`` — the sealed ``<trace>.ckpt`` itself is damaged;
    ``"tmp"`` — a crash mid-seal: only ``<trace>.ckpt.tmp`` exists, cut
    at a segment boundary; ``"absent"`` — no sidecar at all (bytes is
    ``None``).
    """
    from repro.core.checkpoint import SIDECAR

    if spec.kind == "ckpt-missing":
        return None, "absent"
    if spec.kind not in _CKPT_DAMAGE:
        raise ValueError(f"not a checkpoint fault: {spec.kind}")
    damage, destination = _CKPT_DAMAGE[spec.kind]
    return _damage(blob, damage, spec.params, SIDECAR), destination


# ---------------------------------------------------------------------------
# native-layer faults


def arm_native_fault(vm: "VirtualMachine", fail_at: int) -> dict:
    """Wrap every non-deterministic native so the *fail_at*-th call (over
    all of them, in call order) raises :class:`InjectedFault`.

    Returns a live ``{"calls": n}`` counter so the harness can tell a
    triggered fault from a run that never reached the n-th call.
    """
    from repro.vm.native import NativeDef

    state = {"calls": 0}

    def _wrap(nd):
        def faulty(ctx):
            state["calls"] += 1
            if state["calls"] == fail_at:
                raise InjectedFault(
                    f"injected environment failure in {nd.qualname} "
                    f"(non-deterministic native call #{fail_at})"
                )
            return nd.fn(ctx)

        return NativeDef(nd.qualname, faulty, nondet=True)

    for qualname, nd in list(vm.natives._natives.items()):
        if nd.nondet:
            vm.natives._natives[qualname] = _wrap(nd)
    return state


# ---------------------------------------------------------------------------
# transport-layer faults

_PROBE = {"id": 1, "cmd": "info", "args": {}}


def send_faulted_request(
    address: tuple[str, int], spec: FaultSpec, *, timeout: float = 2.0
) -> tuple[str, str]:
    """One debugger exchange with *spec*'s transport fault applied.

    Returns ``(outcome, detail)`` where outcome is ``"recovered"`` (the
    exchange still worked), ``"diagnosed:..."`` (a typed transport
    failure) or ``"undetected"`` (a garbled frame was served as if
    intact).  Anything else — a hang, an unexpected exception — escapes
    to the campaign's watchdog and is a harness failure.
    """
    from repro.debugger.frontend import DebuggerClient

    if spec.kind == "delay-frame":
        (delay,) = spec.params
        with DebuggerClient(address, timeout=timeout) as client:
            time.sleep(delay)  # the frame arrives late, but intact
            response = client.send_frame(encode_message(_PROBE))
        if response.get("ok"):
            return "recovered", f"frame delayed {delay}s; request still served"
        return "diagnosed:server-error", str(response.get("error"))

    if spec.kind == "drop-frame":
        with socket.create_connection(address, timeout=timeout) as sock:
            # the request frame vanishes in transit: send nothing, wait
            sock.settimeout(0.3)
            try:
                chunk = sock.recv(4096)
            except TimeoutError:
                return (
                    "diagnosed:timeout",
                    "dropped frame produced no response; timeout fired as designed",
                )
            if chunk == b"":
                return "diagnosed:closed", "server closed the idle connection"
            return "recovered", "server answered an unsent request?!"

    if spec.kind == "garble-frame":
        frac, bit = spec.params
        wire = bytearray(encode_message(_PROBE))
        wire[min(len(wire) - 1, int(frac * len(wire)))] ^= 1 << bit
        with DebuggerClient(address, timeout=timeout) as client:
            try:
                response = client.send_frame(bytes(wire), min(timeout, 1.0))
            except TransportError as exc:
                return "diagnosed:transport", str(exc)
        if response.get("ok"):
            # CRC32 catches every single-bit flip: serving one is a miss
            return "undetected", "garbled frame passed its CRC and was served"
        return "diagnosed:rejected", str(response.get("error"))

    raise ValueError(f"not a transport fault: {spec.kind}")


# ---------------------------------------------------------------------------
# remote-layer faults


def remote_sabotage(spec: FaultSpec, replies: int) -> str:
    """The ``repro serve --sabotage`` arming string for *spec*.

    The remote family is injected *inside the serve daemon* (its
    one-shot sabotage seam), so the injector here just serialises the
    planned fault into the daemon's arming syntax
    ``kind[:position[:extra]]``.  The plan stores where the fault lands
    as a fraction of the work; *replies* — how many campaign-item replies
    the sabotaged campaign gets from the daemon — turns it into the
    reply position, so seeded plans stay what they were.
    """
    if spec.kind == "remote-slow-connect":
        (delay,) = spec.params
        return f"{spec.kind}::{delay}"
    if spec.layer != "remote":
        raise ValueError(f"not a remote fault: {spec.kind}")
    position = min(max(0, replies - 1), int(spec.params[0] * replies))
    if spec.kind == "remote-corrupt-frame":
        return f"{spec.kind}:{position}:{spec.params[1]}"
    return f"{spec.kind}:{position}"
