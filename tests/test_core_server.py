"""The shared daemon plumbing: :class:`repro.core.server.SocketServer`.

Two daemons ride this accept loop — the debugger server and the `repro
serve` replay service (also the host of multi-host campaigns) — so its
hardening posture is tested once, here: a hostile connection costs
itself (never the loop), every survived failure ticks an observable
counter, per-connection lifetime is bounded, and shutdown is graceful,
signal-safe, and orphan-free.  A SIGTERM'd `repro serve` subprocess
drains and exits 0 (``tests/test_serve.py``); a TERM'd `repro
debug-serve` does too (below).
"""

import signal
import socket
import threading
import time

import pytest

from repro.core.server import SocketServer, install_term_handler
from repro.debugger.frontend import DebuggerServer
from repro.serve import ServeDaemon


def _connect(server, timeout=5.0):
    return socket.create_connection(server.address, timeout=timeout)


def _echo_handler(conn):
    conn.settimeout(0.2)
    while True:
        try:
            chunk = conn.recv(4096)
        except TimeoutError:
            continue
        except OSError:
            return
        if not chunk:
            return
        conn.sendall(chunk)


class TestSocketServer:
    def test_echo_roundtrip_and_counters(self):
        server = SocketServer(handler=_echo_handler, concurrency=4).start()
        try:
            with _connect(server) as a, _connect(server) as b:
                a.sendall(b"ping-a")
                b.sendall(b"ping-b")
                assert a.recv(64) == b"ping-a"
                assert b.recv(64) == b"ping-b"
            deadline = time.monotonic() + 5
            while server.connections_served < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.connections_served == 2
            assert server.handler_errors == 0
        finally:
            server.stop()

    def test_handler_error_costs_only_its_connection(self):
        logged = []

        def hostile(conn):
            chunk = conn.recv(4096)
            if chunk == b"boom":
                raise RuntimeError("hostile payload")
            conn.sendall(chunk)

        server = SocketServer(
            handler=hostile, concurrency=2, log=logged.append
        ).start()
        try:
            with _connect(server) as bad:
                bad.sendall(b"boom")
                assert bad.recv(64) == b""  # connection torn down
            # the loop survived: a well-behaved client still gets served
            with _connect(server) as good:
                good.sendall(b"fine")
                assert good.recv(64) == b"fine"
            deadline = time.monotonic() + 5
            while server.handler_errors < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.handler_errors == 1
            assert any("RuntimeError" in line for line in logged)
        finally:
            server.stop()

    def test_overstayer_is_reaped(self):
        server = SocketServer(
            handler=_echo_handler, concurrency=2, max_connection_seconds=0.3
        ).start()
        try:
            with _connect(server) as idle:
                idle.settimeout(5)
                # the accept loop shuts the connection down once it
                # exceeds its lifetime; our recv sees the close
                assert idle.recv(64) == b""
        finally:
            server.stop()

    def test_concurrency_bounds_the_handler_threads(self):
        """With every slot busy the accept loop leaves the next client in
        the backlog; it is served once a slot frees, and stop() joins
        every handler."""
        before = {t.name for t in threading.enumerate()}
        server = SocketServer(
            handler=_echo_handler, concurrency=2, name="bounded"
        ).start()

        def handlers():
            return [t for t in threading.enumerate() if t.name.startswith("bounded-conn-")]

        try:
            first, second, third = (_connect(server) for _ in range(3))
            for conn in (first, second):
                conn.sendall(b"x")
                assert conn.recv(16) == b"x"
            third.sendall(b"waiting")
            third.settimeout(0.5)
            with pytest.raises(TimeoutError):
                third.recv(16)  # connected in the backlog, not served
            assert len(handlers()) == 2
            assert server.connections_served == 2
            first.close()
            third.settimeout(5)
            assert third.recv(16) == b"waiting"
            assert len(handlers()) <= 2
            second.close()
            third.close()
        finally:
            server.stop()
        leftover = {t.name for t in threading.enumerate()} - before
        assert not leftover, f"orphaned threads: {leftover}"

    def test_request_stop_is_prompt_and_stop_leaves_no_threads(self):
        before = {t.name for t in threading.enumerate()}
        server = SocketServer(handler=_echo_handler, concurrency=4).start()
        with _connect(server) as conn:
            conn.sendall(b"x")
            assert conn.recv(16) == b"x"
            server.request_stop()  # signal-safe: flag + closed listener
            assert server.stopping
        server.stop()
        with pytest.raises(OSError):
            _connect(server, timeout=0.5)
        leftover = {t.name for t in threading.enumerate()} - before
        assert not leftover, f"orphaned threads: {leftover}"

    def test_install_term_handler_refuses_off_main_thread(self):
        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_term_handler(lambda: None))
        )
        thread.start()
        thread.join()
        assert results == [False]


class TestRebasedDaemons:
    """The serve and debugger daemons subclass SocketServer: same
    hardened loop, same counters, same graceful stop."""

    def test_subclass_relationship(self):
        assert issubclass(ServeDaemon, SocketServer)
        assert issubclass(DebuggerServer, SocketServer)

    def test_serve_daemon_stop_leaves_no_threads(self):
        """Stopping joins the accept loop, every connection handler and
        the supervised job workers — and closes the warm runners."""
        from repro.campaign import run_explore_campaign
        from repro.campaign.pool import RemoteWorkerPool

        before = {t.name for t in threading.enumerate()}
        server = ServeDaemon().start()
        assert server.connections_served == 0
        report = run_explore_campaign(
            "bank", bound=1, budget=6, jobs=2, backend=RemoteWorkerPool([server.address])
        )
        assert not report.incidents
        assert server.pool.stats()["runners"] == 1
        server.stop()
        assert server.pool.stats()["runners"] == 0
        leftover = {t.name for t in threading.enumerate()} - before
        assert not leftover, f"orphaned threads: {leftover}"

    def test_terminated_debug_serve_exits_zero(self, tmp_path):
        """Same contract for the third daemon: a SIGTERM'd
        `repro debug-serve` stops its accept loop and exits 0."""
        import os
        import subprocess
        import sys

        import repro
        from repro.cli import main as cli_main

        trace = tmp_path / "t.djv"
        assert cli_main(
            ["record", "--workload", "bank", "--seed", "7", "-o", str(trace)]
        ) == 0
        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "debug-serve",
                "--workload", "bank", str(trace), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert "debugger serving on " in line, line
            host, port = line.split("serving on ", 1)[1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5):
                pass
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            proc.kill()
            proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()
