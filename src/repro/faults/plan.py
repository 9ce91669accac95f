"""Deterministic fault plans.

A :class:`FaultPlan` is a seeded, reproducible list of :class:`FaultSpec`
entries across the platform's three fault surfaces:

* ``trace``     — damage to the bytes of a recorded trace file (a bit
  flip from bad storage, a truncated tail from a full disk, a torn write
  from a crash mid-flush);
* ``native``    — the host environment failing underneath the guest (the
  Nth non-deterministic native call raises);
* ``transport`` — the debugger wire misbehaving (a dropped, delayed, or
  garbled frame);
* ``checkpoint`` — damage to a ``<trace>.ckpt`` sidecar (bit flip,
  truncated tail, a torn write that left only the writer's tmp file, or
  a sidecar that is missing outright).  Opt-in: campaigns pass
  ``layers=`` explicitly because the checkpoint family needs a
  checkpointed baseline replay the default three layers don't build;
* ``remote``     — a `repro serve` campaign host misbehaving under a
  multi-host campaign (a dropped / truncated / corrupted campaign-item
  reply, a host killed mid-shard, a host gone mute, a slow-loris
  connect).  Also opt-in: each remote fault runs a small sabotaged
  loopback campaign and checks the merged report against a clean
  reference digest;
* ``serve``      — a `repro serve` daemon under attack (a client that
  vanishes mid-job, a poison job payload, a hung workload against a
  deadline, a queue-full storm, a kill mid-drain).  Opt-in like remote:
  each serve fault drives a loopback daemon and requires a concurrent
  well-formed job to return results identical to the clean reference.

Specs are *symbolic*: byte positions are stored as fractions in [0, 1)
and resolved against the actual artifact at injection time, so the same
plan applies to any workload while ``FaultPlan.generate(seed, count)``
stays byte-for-byte reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LAYER_TRACE = "trace"
LAYER_NATIVE = "native"
LAYER_TRANSPORT = "transport"
LAYER_CHECKPOINT = "checkpoint"
LAYER_REMOTE = "remote"
LAYER_SERVE = "serve"

#: every fault kind, with its layer (new kinds go at the END: generation
#: draws from the filtered kind list, so appending keeps every seeded
#: plan over the older layer sets byte-for-byte reproducible)
KINDS: dict[str, str] = {
    "bit-flip": LAYER_TRACE,
    "truncate": LAYER_TRACE,
    "torn-write": LAYER_TRACE,
    "native-error": LAYER_NATIVE,
    "drop-frame": LAYER_TRANSPORT,
    "delay-frame": LAYER_TRANSPORT,
    "garble-frame": LAYER_TRANSPORT,
    "ckpt-bit-flip": LAYER_CHECKPOINT,
    "ckpt-truncate": LAYER_CHECKPOINT,
    "ckpt-torn": LAYER_CHECKPOINT,
    "ckpt-missing": LAYER_CHECKPOINT,
    "remote-drop-frame": LAYER_REMOTE,
    "remote-truncate-frame": LAYER_REMOTE,
    "remote-corrupt-frame": LAYER_REMOTE,
    "remote-kill-worker": LAYER_REMOTE,
    "remote-stall-heartbeat": LAYER_REMOTE,
    "remote-slow-connect": LAYER_REMOTE,
    "serve-client-vanish": LAYER_SERVE,
    "serve-poison-job": LAYER_SERVE,
    "serve-hung-workload": LAYER_SERVE,
    "serve-deadline-exceeded": LAYER_SERVE,
    "serve-queue-storm": LAYER_SERVE,
    "serve-kill-during-drain": LAYER_SERVE,
}


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.  ``params`` meaning by kind:

    ========================  =============================================
    ``bit-flip``              ``(position_frac, bit)`` — flip bit *bit* of
                              the byte at ``frac * (size - 1)``
    ``truncate``              ``(position_frac,)`` — drop everything from
                              that byte on
    ``torn-write``            ``(boundary_frac,)`` — crash after the K-th
                              flushed segment (resolved against the
                              recording's segment boundaries)
    ``native-error``          ``(n,)`` — the n-th non-deterministic native
                              call raises
    ``drop-frame``            ``()`` — the request frame never arrives
    ``delay-frame``           ``(delay_s,)`` — the frame arrives late
    ``garble-frame``          ``(position_frac, bit)`` — flip one bit of
                              the encoded frame before sending
    ``ckpt-bit-flip``         ``(position_frac, bit)`` — flip one bit of
                              the sealed checkpoint sidecar
    ``ckpt-truncate``         ``(position_frac,)`` — drop the sidecar's
                              tail from that byte on
    ``ckpt-torn``             ``(boundary_frac,)`` — crash after the K-th
                              flushed snapshot segment: the sealed
                              sidecar never appears, only its tmp prefix
    ``ckpt-missing``          ``()`` — no sidecar exists at all
    ``remote-drop-frame``     ``(work_frac,)`` — the campaign-item reply at
                              that fraction of the work is never sent
    ``remote-truncate-frame``  ``(work_frac,)`` — half that reply, then a
                              dead connection
    ``remote-corrupt-frame``  ``(work_frac, bit)`` — flip one bit inside
                              that reply's payload (CRC must catch)
    ``remote-kill-worker``    ``(work_frac,)`` — the daemon dies
                              (``os._exit``) right after that reply
    ``remote-stall-heartbeat``  ``(work_frac,)`` — the daemon goes mute at
                              that reply: no answer, process alive
    ``remote-slow-connect``   ``(delay_s,)`` — the handshake answer is
                              held past the client's hello timeout
    ``serve-client-vanish``   ``(frac,)`` — a serve client disconnects
                              mid-job, at that fraction of its wait
    ``serve-poison-job``      ``(variant,)`` — a hostile submit: garbage
                              bytes (0), a CRC-valid non-job frame (1),
                              or a malformed job dict (2)
    ``serve-hung-workload``   ``(deadline_s,)`` — an infinite guest loop
                              submitted with that deadline: cooperative
                              cancellation must fire at a safe point
    ``serve-deadline-exceeded``  ``(deadline_s,)`` — a normal job with a
                              deadline too small to finish
    ``serve-queue-storm``     ``(burst,)`` — *burst* concurrent jobs
                              against a tiny admission queue: typed
                              overloaded rejections + retry must land
                              every job eventually
    ``serve-kill-during-drain``  ``(delay_s,)`` — SIGKILL that many
                              seconds after a SIGTERM drain began
    ========================  =============================================
    """

    index: int
    kind: str
    params: tuple = ()

    @property
    def layer(self) -> str:
        return KINDS[self.kind]

    def describe(self) -> str:
        return f"#{self.index:03d} {self.layer}/{self.kind}{self.params!r}"


@dataclass
class FaultPlan:
    seed: int
    specs: list[FaultSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @classmethod
    def generate(
        cls,
        seed: int,
        count: int,
        layers: tuple[str, ...] = (LAYER_TRACE, LAYER_NATIVE, LAYER_TRANSPORT),
    ) -> "FaultPlan":
        """*count* faults drawn uniformly over the kinds of *layers*."""
        rng = random.Random(seed)
        kinds = [k for k, layer in KINDS.items() if layer in layers]
        if not kinds:
            raise ValueError(f"no fault kinds in layers {layers!r}")
        specs = []
        for i in range(count):
            kind = rng.choice(kinds)
            if kind in ("bit-flip", "garble-frame", "ckpt-bit-flip",
                        "remote-corrupt-frame"):
                params = (rng.random(), rng.randrange(8))
            elif kind in (
                "truncate",
                "torn-write",
                "ckpt-truncate",
                "ckpt-torn",
                "remote-drop-frame",
                "remote-truncate-frame",
                "remote-kill-worker",
                "remote-stall-heartbeat",
            ):
                params = (rng.random(),)
            elif kind == "native-error":
                params = (rng.randrange(1, 9),)
            elif kind == "delay-frame":
                params = (round(rng.uniform(0.01, 0.08), 3),)
            elif kind == "remote-slow-connect":
                params = (round(rng.uniform(0.6, 1.2), 2),)
            elif kind == "serve-client-vanish":
                params = (rng.random(),)
            elif kind == "serve-poison-job":
                params = (rng.randrange(3),)
            elif kind == "serve-hung-workload":
                params = (round(rng.uniform(0.3, 0.8), 2),)
            elif kind == "serve-deadline-exceeded":
                params = (round(rng.uniform(0.005, 0.05), 3),)
            elif kind == "serve-queue-storm":
                params = (rng.randrange(6, 14),)
            elif kind == "serve-kill-during-drain":
                params = (round(rng.uniform(0.05, 0.3), 2),)
            else:  # drop-frame, ckpt-missing
                params = ()
            specs.append(FaultSpec(index=i, kind=kind, params=params))
        return cls(seed=seed, specs=specs)
