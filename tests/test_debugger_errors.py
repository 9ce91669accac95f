"""Debugger TCP transport error paths, driven over raw sockets.

The frontend tests exercise the happy path through ``DebuggerClient``;
these go underneath it: frames split across sends, oversized length
prefixes, payloads that fail their CRC or do not decode,
protocol-shaped requests the dispatcher must reject, and connections
that die mid-response.  The invariant throughout is that the *server*
survives — a broken frontend must never take down the replay it is
inspecting.
"""

import socket
import time
import zlib

import pytest

from repro.api import record
from repro.core.framing import (
    LEN_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    TransportError,
    TransportTimeout,
    decode_message,
    encode_message,
    encode_value,
)
from repro.debugger import Debugger, DebuggerClient, DebuggerServer, ReplaySession
from repro.vm import SeededJitterTimer
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank

CFG = VMConfig(semispace_words=60_000)


@pytest.fixture
def server():
    recorded = record(racy_bank(), config=CFG, timer=SeededJitterTimer(5, 40, 160))
    session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
    srv = DebuggerServer(Debugger(session)).start()
    yield srv
    srv.stop()


def _connect(srv) -> socket.socket:
    return socket.create_connection(srv.address, timeout=5.0)


def _recv_frame(sock: socket.socket) -> dict:
    decoder = FrameDecoder()
    frames = []
    while not frames:
        chunk = sock.recv(4096)
        assert chunk, "server closed the connection"
        frames = decoder.feed(chunk)
    return decode_message(frames[0])


def _roundtrip(sock: socket.socket, message: dict) -> dict:
    sock.sendall(encode_message(message))
    return _recv_frame(sock)


def _send_raw(sock: socket.socket, raw: bytes) -> dict:
    """Frame arbitrary payload bytes (CRC included or not) and read the
    reply."""
    sock.sendall(len(raw).to_bytes(LEN_BYTES, "big") + raw)
    return _recv_frame(sock)


def _checksummed(body: bytes) -> bytes:
    """A frame payload whose CRC32 is right for *body*."""
    return zlib.crc32(body).to_bytes(4, "big") + body


class TestFrameDecoder:
    def test_frame_split_across_two_feeds(self):
        decoder = FrameDecoder()
        wire = encode_message({"id": 1, "cmd": "info", "args": {}})
        cut = len(wire) // 2
        assert decoder.feed(wire[:cut]) == []
        payloads = decoder.feed(wire[cut:])
        assert [decode_message(p) for p in payloads] == [
            {"id": 1, "cmd": "info", "args": {}}
        ]
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_feed(self):
        decoder = FrameDecoder()
        wire = b"".join(encode_message({"id": i}) for i in range(5))
        assert [decode_message(p)["id"] for p in decoder.feed(wire)] == [0, 1, 2, 3, 4]

    def test_byte_at_a_time_delivery(self):
        decoder = FrameDecoder()
        wire = encode_message({"id": 9, "cmd": "ping"})
        got = []
        for i in range(len(wire)):
            got.extend(decoder.feed(wire[i:i + 1]))
        assert decode_message(got[0])["id"] == 9

    def test_oversized_length_prefix_rejected_without_buffering(self):
        decoder = FrameDecoder()
        huge = (MAX_FRAME_BYTES + 1).to_bytes(LEN_BYTES, "big")
        with pytest.raises(FrameError):
            decoder.feed(huge + b"x" * 100)
        # the bounded read: nothing was accumulated beyond the bad prefix
        assert decoder.pending_bytes <= LEN_BYTES + 100

    def test_garbage_parses_as_implausible_length(self):
        # random ASCII bytes decode to a length around 2**30 — detected
        # up front instead of waiting for gigabytes that never arrive
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(b"GET / HTTP/1.1\r\n")


class TestMalformedInput:
    def test_undecodable_payload(self, server):
        # the CRC holds, but the body is no codec value
        with _connect(server) as sock:
            resp = _send_raw(sock, _checksummed(b"\x00\xff garbage"))
            assert resp == {"ok": False, "error": "unknown value tag 0x00"}
            # in-band: the connection keeps serving
            assert _roundtrip(sock, {"id": 2, "cmd": "info", "args": {}})["ok"]
        assert server.frame_errors == 1

    def test_crc_failing_payload(self, server):
        # a payload cut short no longer matches its CRC
        payload = encode_message({"id": 1, "cmd": "info"})[LEN_BYTES:]
        with _connect(server) as sock:
            resp = _send_raw(sock, payload[:-3])
            assert resp["ok"] is False
            assert "CRC32" in resp["error"]
            assert _roundtrip(sock, {"id": 2, "cmd": "info", "args": {}})["ok"]
        assert server.frame_errors == 1

    def test_non_dict_payload_is_handled(self, server):
        # a well-formed value that is not a protocol message must be
        # rejected in-band, not crash the serve loop
        with _connect(server) as sock:
            resp = _send_raw(sock, _checksummed(encode_value([1, 2, 3])))
            assert resp == {"ok": False, "error": "message must be a dict, got list"}
            assert _roundtrip(sock, {"id": 2, "cmd": "info", "args": {}})["ok"]
        assert server.frame_errors == 0  # well-framed: not a frame error

    def test_server_usable_after_bad_payload(self, server):
        with _connect(server) as sock:
            assert _send_raw(sock, b"\x00\xff garbage")["ok"] is False
            resp = _roundtrip(sock, {"id": 2, "cmd": "info", "args": {}})
            assert resp["ok"] is True
            assert resp["result"]["finished"] is False

    def test_oversized_length_prefix_closes_connection(self, server):
        with _connect(server) as sock:
            sock.sendall((MAX_FRAME_BYTES * 4).to_bytes(LEN_BYTES, "big"))
            # best-effort error frame, then the server closes this
            # connection (the stream cannot be resynchronised)
            resp = _recv_frame(sock)
            assert resp["ok"] is False
            assert "cap" in resp["error"]
            assert sock.recv(4096) == b""
        # ... but the serve loop is still alive for the next client
        with DebuggerClient(server.address) as client:
            assert client.request("info")["finished"] is False
        assert server.frame_errors == 1


class TestBadRequests:
    def test_unknown_command(self, server):
        with _connect(server) as sock:
            resp = _roundtrip(sock, {"id": 3, "cmd": "selfdestruct", "args": {}})
            assert resp["ok"] is False
            assert "unknown command" in resp["error"]
            assert resp["id"] == 3  # the error is correlated to the request

    def test_missing_cmd_field(self, server):
        with _connect(server) as sock:
            resp = _roundtrip(sock, {"id": 4})
            assert resp["ok"] is False
            assert "unknown command" in resp["error"]

    def test_unexpected_argument(self, server):
        with _connect(server) as sock:
            resp = _roundtrip(sock, {"id": 5, "cmd": "cont", "args": {"warp": 9}})
            assert resp["ok"] is False
            assert "bad arguments" in resp["error"]

    def test_handler_exception_reported_not_fatal(self, server):
        with _connect(server) as sock:
            resp = _roundtrip(
                sock, {"id": 6, "cmd": "break", "args": {"method": "No.such()V"}}
            )
            assert resp["ok"] is False
            assert "error" in resp
            # and the session is still alive
            assert _roundtrip(sock, {"id": 7, "cmd": "info", "args": {}})["ok"]


class TestDisconnects:
    def test_disconnect_mid_session_then_reconnect(self, server):
        with _connect(server) as sock:
            resp = _roundtrip(
                sock,
                {"id": 1, "cmd": "break", "args": {"method": "Teller.run()V", "bci": 0}},
            )
            assert resp["ok"] is True
            # vanish without a goodbye, mid-session
        with DebuggerClient(server.address) as client:
            # server went back to accepting; debugger state survived
            status = client.request("cont")
            assert status["status"] == "breakpoint"

    def test_disconnect_with_partial_frame_in_flight(self, server):
        with _connect(server) as sock:
            wire = encode_message({"id": 1, "cmd": "info", "args": {}})
            sock.sendall(wire[: len(wire) - 3])  # frame never completes, then gone
        with DebuggerClient(server.address) as client:
            assert client.request("info")["finished"] is False

    def test_client_vanishes_mid_response(self, server):
        # a response the server cannot deliver (peer reset the socket)
        # must not crash the serve loop
        with _connect(server) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")  # RST on close
            sock.sendall(encode_message({"id": 1, "cmd": "info", "args": {}}))
        time.sleep(0.1)  # let the server hit the dead socket
        with DebuggerClient(server.address) as client:
            assert client.request("info")["finished"] is False

    def test_client_reports_server_shutdown(self):
        recorded = record(racy_bank(), config=CFG, timer=SeededJitterTimer(5, 40, 160))
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        srv = DebuggerServer(Debugger(session)).start()
        client = DebuggerClient(srv.address)
        try:
            assert client.request("info")["paused"] is False
            srv.stop()
            with pytest.raises(TransportError):
                client.request("info")
        finally:
            client.close()
            srv.stop()


class TestClientHardening:
    def test_ping_keepalive(self, server):
        with DebuggerClient(server.address) as client:
            assert client.ping() is True

    def test_per_request_timeout_raises_transport_error(self, server):
        # connect directly to a socket that will never answer: a bound,
        # listening socket whose backlog accepts but nobody serves
        quiet = socket.socket()
        quiet.bind(("127.0.0.1", 0))
        quiet.listen(1)
        try:
            client = DebuggerClient(quiet.getsockname(), timeout=0.2)
            with pytest.raises(TransportError, match="timed out"):
                client.request("info")
            client.close()
        finally:
            quiet.close()

    def test_per_call_timeout_is_named_and_typed(self):
        # the call's own timeout bounds the wait and names itself, not
        # the connection's default, and a silent peer is a timeout
        quiet = socket.socket()
        quiet.bind(("127.0.0.1", 0))
        quiet.listen(1)
        try:
            with DebuggerClient(quiet.getsockname(), timeout=10) as client:
                start = time.monotonic()
                with pytest.raises(TransportTimeout, match=r"after 0\.2s"):
                    client.request("info", timeout=0.2)
                assert time.monotonic() - start < 5
        finally:
            quiet.close()

    def test_connect_retry_gives_up_with_typed_error(self):
        # grab a port with no listener
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()
        probe.close()
        start = time.monotonic()
        with pytest.raises(TransportError, match="could not connect"):
            DebuggerClient.connect(addr, attempts=3, base_delay=0.01, max_delay=0.05)
        # backoff actually waited between attempts
        assert time.monotonic() - start >= 0.01

    def test_reconnect_after_backoff_succeeds(self):
        recorded = record(racy_bank(), config=CFG, timer=SeededJitterTimer(5, 40, 160))
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        # reserve an address, but start the server only after a delay —
        # the client's backoff loop must ride it out and then connect
        placeholder = socket.socket()
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        placeholder.bind(("127.0.0.1", 0))
        host, port = placeholder.getsockname()
        placeholder.close()

        import threading

        srv_box: list[DebuggerServer] = []

        def bring_up():
            time.sleep(0.15)
            srv_box.append(DebuggerServer(Debugger(session), host=host, port=port).start())

        t = threading.Thread(target=bring_up)
        t.start()
        try:
            client = DebuggerClient.connect(
                (host, port), attempts=10, base_delay=0.05, max_delay=0.2
            )
            with client:
                assert client.ping() is True
                assert client.request("info")["finished"] is False
        finally:
            t.join()
            if srv_box:
                srv_box[0].stop()


class TestEncodeFrameSymmetry:
    def test_frame_roundtrip(self):
        msg = {"id": 42, "cmd": "step", "args": {"mode": "into"}}
        wire = encode_message(msg)
        assert int.from_bytes(wire[:LEN_BYTES], "big") == len(wire) - LEN_BYTES
        assert decode_message(FrameDecoder().feed(wire)[0]) == msg
