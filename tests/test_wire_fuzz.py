"""Seeded fuzzing of the one wire codec every network peer reaches.

Serve jobs, campaign items and debugger commands are all decoded by
:func:`repro.core.framing.decode_message`, so it is the trust boundary:
whatever bytes a peer sends, decoding ends in a value or in
:class:`FrameError` — never a ``RecursionError``, a ``MemoryError``,
any other exception, or an allocation sized by a declared length
instead of by the bytes that arrived.

Inputs, per representative message (a serve record job, a
``campaign-item`` result carrying trace bytes, a health probe and its
reply, a debugger request and two debugger replies):

* every truncation of the frame payload, and of its body under a
  recomputed CRC — always a :class:`FrameError` (the codec is
  self-delimiting, so no strict prefix is a whole message);
* 1,000 seeded single-bit flips: with the original CRC always a
  :class:`FrameError`; with a recomputed CRC a value or a
  :class:`FrameError`;
* hand-made hostile bodies (unknown tag, lengths past the end, 10,000
  levels of nesting, unhashable dict keys, trailing bytes), which must
  be :class:`FrameError` offline and a typed in-band error from both
  live daemons, whose connections then keep serving.
"""

import json
import random
import socket
import struct
import tracemalloc
import zlib
from pathlib import Path

import pytest

from repro.core.framing import (
    CRC_BYTES,
    LEN_BYTES,
    MAX_NESTING,
    FrameDecoder,
    FrameError,
    decode_message,
    encode_message,
    encode_value,
)

pytestmark = pytest.mark.fuzz

SEED = 28
FLIPS = 1000
#: per decode, on top of the payload already held: a generous
#: per-byte factor (Python objects outweigh their encodings), never
#: anything sized by a declared length
ALLOC_PER_BYTE = 32
ALLOC_SLACK = 64 << 10

_U32 = struct.Struct(">I")


def _checksummed(body: bytes) -> bytes:
    """A frame payload whose CRC32 is right for *body*."""
    return zlib.crc32(body).to_bytes(CRC_BYTES, "big") + body


def _pins() -> list:
    path = Path(__file__).parent / "data" / "debugger_wire_pins.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def messages() -> dict:
    from repro.campaign.jobs import make_item_runner
    from repro.serve import ServeClient, ServeDaemon

    explore = {
        "kind": "explore", "workload": "bank",
        "workload_kwargs": {"tellers": 2, "deposits": 6},
        "seed": 0, "env_seed": 0, "bound": 1, "budget": 12, "heap": 60_000,
    }
    item = make_item_runner(explore).run((5,))
    assert isinstance(item.get("trace"), bytes)  # a failing schedule
    daemon = ServeDaemon(workers=1, queue_limit=2).start()
    try:
        with ServeClient(daemon.address) as client:
            health = client.health()
    finally:
        daemon.stop()
    results = {cmd: result for cmd, _, result in _pins()}
    return {
        "serve-record-job": {
            "op": "submit",
            "job": {
                "kind": "record", "workload": "racy_bank",
                "workload_args": {"tellers": 2, "deposits": 10}, "seed": 7,
                "heap": 60_000, "deadline": 30.0,
                "out_name": "run.djv", "slim": False,
            },
        },
        "serve-campaign-item-result": {"op": "result", "ok": True, "result": item},
        "serve-health": {"op": "health"},
        "serve-health-ok": health,
        "debugger-request": {
            "id": 3, "cmd": "break", "args": {"method": "Teller.run()V", "bci": 4},
        },
        "debugger-inspect-reply": {"id": 12, "ok": True, "result": results["inspect"]},
        "debugger-info-reply": {"id": 5, "ok": True, "result": results["info"]},
    }


NAMES = [
    "serve-record-job",
    "serve-campaign-item-result",
    "serve-health",
    "serve-health-ok",
    "debugger-request",
    "debugger-inspect-reply",
    "debugger-info-reply",
]


def _decode_bounded(payload: bytes):
    """Decode *payload*; the value, or the :class:`FrameError` raised.
    Any other exception propagates (and fails the test), and so does
    an allocation out of proportion to the payload."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            outcome = decode_message(payload)
        except FrameError as exc:
            outcome = exc
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert extra <= ALLOC_PER_BYTE * len(payload) + ALLOC_SLACK, (
        f"decoding {len(payload)} bytes allocated {extra}"
    )
    return outcome


@pytest.mark.parametrize("name", NAMES)
def test_messages_round_trip(messages, name):
    wire = encode_message(messages[name], 64 << 20)
    assert decode_message(FrameDecoder(64 << 20).feed(wire)[0]) == messages[name]


@pytest.mark.parametrize("name", NAMES)
def test_every_truncation_is_a_frame_error(messages, name):
    payload = encode_message(messages[name], 64 << 20)[LEN_BYTES:]
    body = payload[CRC_BYTES:]
    for cut in range(len(payload)):
        with pytest.raises(FrameError):
            decode_message(payload[:cut])
    for cut in range(len(body)):
        assert isinstance(_decode_bounded(_checksummed(body[:cut])), FrameError), cut


@pytest.mark.parametrize("name", NAMES)
def test_seeded_bit_flips(messages, name):
    payload = encode_message(messages[name], 64 << 20)[LEN_BYTES:]
    rng = random.Random(f"{SEED}:{name}")
    decoded = 0
    for _ in range(FLIPS):
        bit = rng.randrange(len(payload) * 8)
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        # the CRC32 catches every single-bit error
        assert isinstance(_decode_bounded(bytes(flipped)), FrameError), bit
        # ... and with a matching CRC the codec itself must hold
        outcome = _decode_bounded(_checksummed(bytes(flipped[CRC_BYTES:])))
        decoded += not isinstance(outcome, FrameError)
    assert decoded < FLIPS  # the flips do reach the codec's checks


def _size(n: int) -> bytes:
    """A codec size: one byte below 255, else 0xFF and a u32."""
    return bytes([n]) if n < 0xFF else b"\xff" + _U32.pack(n)


def _nested(opener: bytes, depth: int) -> bytes:
    return opener * depth + b"N"


#: hostile bodies; each must decode to a FrameError and nothing else
HOSTILE = {
    "empty": b"",
    "unknown-tag": b"Z",
    "str-past-end": b"s" + _size(10) + b"abc",
    "str-max-length": b"s" + _size(0xFFFFFFFF) + b"abc",
    "bytes-past-end": b"b" + _size(0xFFFFFFFF) + b"x",
    "big-int-past-end": b"i" + _size(1 << 20) + b"\x01",
    "list-count-past-end": b"l" + _size(0xFFFFFFFF) + b"N",
    "dict-count-past-end": b"d" + _size(0x7FFFFFFF) + b"NN",
    "size-cut-short": b"s\xff\x00\x00",
    "list-nested-10000-deep": _nested(b"l" + _size(1), 10_000),
    "tuple-nested-10000-deep": _nested(b"t" + _size(1), 10_000),
    "dict-nested-10000-deep": _nested(b"d" + _size(1) + b"N", 10_000),
    "unhashable-list-key": b"d" + _size(1) + b"l" + _size(0) + b"N",
    "unhashable-dict-key": b"d" + _size(1) + b"d" + _size(0) + b"N",
    "unhashable-key-inside-tuple": (
        b"d" + _size(1) + b"t" + _size(1) + b"l" + _size(0) + b"N"
    ),
    "trailing-bytes": encode_value({"op": "ping"}) + b"\x00",
    "invalid-utf8": b"s" + _size(2) + b"\xff\xfe",
    "float-cut-short": b"f\x00",
}


def test_hostile_bodies_fail_for_their_own_reason():
    """Each hostile body trips the check it was built for, not an
    earlier one (a size test that only ever hit "trailing bytes" would
    pin nothing)."""
    expected = {
        "str-past-end": "runs past the end",
        "str-max-length": "runs past the end",
        "bytes-past-end": "runs past the end",
        "big-int-past-end": "runs past the end",
        "list-count-past-end": "runs past the end",
        "dict-count-past-end": "runs past the end",
        "size-cut-short": "truncated inside a size",
        "list-nested-10000-deep": "nests deeper",
        "tuple-nested-10000-deep": "nests deeper",
        "dict-nested-10000-deep": "nests deeper",
        "unhashable-list-key": "unhashable",
        "unhashable-dict-key": "unhashable",
        "unhashable-key-inside-tuple": "unhashable",
        "trailing-bytes": "trailing",
        "invalid-utf8": "not UTF-8",
        "unknown-tag": "unknown value tag",
        "float-cut-short": "truncated inside a float",
        "empty": "truncated before a value",
    }
    assert set(expected) == set(HOSTILE)
    for name, reason in expected.items():
        with pytest.raises(FrameError, match=reason):
            decode_message(_checksummed(HOSTILE[name]))


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_bodies_are_frame_errors(name):
    payload = _checksummed(HOSTILE[name])
    assert isinstance(_decode_bounded(payload), FrameError)


def test_encoder_refuses_what_the_decoder_would():
    def nest(depth):
        value = None
        for _ in range(depth):
            value = [value]
        return value

    deepest = nest(MAX_NESTING)
    assert decode_message(_checksummed(encode_value(deepest))) == deepest
    with pytest.raises(ValueError, match="nests deeper"):
        encode_value(nest(MAX_NESTING + 1))
    with pytest.raises(FrameError, match="nests deeper"):
        decode_message(_checksummed(b"l\x01" * (MAX_NESTING + 1) + b"N"))
    with pytest.raises(TypeError, match="cannot travel"):
        encode_value({"op": object()})


def _exchange(sock: socket.socket, payload: bytes) -> dict:
    sock.sendall(len(payload).to_bytes(LEN_BYTES, "big") + payload)
    decoder = FrameDecoder(64 << 20)
    while True:
        chunk = sock.recv(65536)
        assert chunk, "the daemon closed the connection"
        frames = decoder.feed(chunk)
        if frames:
            return decode_message(frames[0])


def test_live_daemons_answer_hostile_bodies_in_band():
    from repro.api import record
    from repro.debugger import Debugger, DebuggerServer, ReplaySession
    from repro.serve import ServeDaemon
    from repro.vm import SeededJitterTimer
    from repro.vm.machine import VMConfig
    from repro.workloads import racy_bank

    cfg = VMConfig(semispace_words=60_000)
    run = record(racy_bank(tellers=2, deposits=4), config=cfg,
                 timer=SeededJitterTimer(5, 40, 160))
    session = ReplaySession(racy_bank(tellers=2, deposits=4), run.trace, config=cfg)
    daemons = [
        (ServeDaemon(workers=1, queue_limit=2).start(), {"op": "ping"}, {"op": "pong"}),
        (
            DebuggerServer(Debugger(session), log=lambda line: None).start(),
            {"id": 1, "cmd": "ping"},
            {"id": 1, "ok": True, "result": "pong"},
        ),
    ]
    try:
        for daemon, ping, pong in daemons:
            with socket.create_connection(daemon.address, timeout=10) as sock:
                for name in sorted(HOSTILE):
                    reply = _exchange(sock, _checksummed(HOSTILE[name]))
                    detail = reply.get("detail", reply.get("error"))
                    assert reply == daemon.error_message(detail), (name, reply)
                assert _exchange(sock, encode_message(ping)[LEN_BYTES:]) == pong
            assert daemon.frame_errors == len(HOSTILE)
    finally:
        for daemon, _, _ in daemons:
            daemon.stop()
