"""Multi-host campaigns: campaign items as `repro serve` jobs, the
fault-tolerant pool, and the equivalence contract.

The headline claim mirrors the jobs=1 ≡ jobs=N differential: running a
campaign over **remote serve daemons** — one host, three loopback hosts,
or a host list that is actively failing — produces the *same* report
digest and a **byte-identical** corpus as the local fork backend.  The
ladder (remote host → another host → local fork → inline) makes
coverage unconditional; these tests arm every sabotage kind and check
that the only observable difference is a typed :class:`WorkerIncident`.

Fast paths use in-process :class:`ServeDaemon` threads; kinds that must
kill a process (``remote-kill-worker``) use a real ``repro serve``
subprocess.  The slowest sabotage kinds (stall, slow-connect) are
``fuzz``-marked and run in the CI remote-smoke job.
"""

import glob
import os
import socket
import tempfile
import threading
from pathlib import Path

import pytest

from repro.campaign import RemoteWorkerPool, run_explore_campaign, run_faults_campaign
from repro.campaign.jobs import make_item_runner
from repro.core.framing import (
    BackoffPolicy,
    FrameDecoder,
    FrameError,
    TransportError,
    TransportTimeout,
    encode_value,
)
from repro.faults import KINDS, LAYER_REMOTE, FaultPlan
from repro.faults.inject import remote_sabotage
from repro.serve import ServeClient, ServeDaemon, ServeError, spawn_serve_process
from repro.serve.daemon import SABOTAGE_KINDS, parse_sabotage
from repro.serve.protocol import (
    MAX_SERVE_FRAME_BYTES,
    SERVE_PROTOCOL_VERSION,
    decode_serve_payload,
    encode_serve_message,
    validate_campaign,
    validate_job,
)
from repro.serve.sessions import SessionPool, _digest
from repro.vm.machine import VMConfig

CFG = VMConfig(semispace_words=60_000)
#: a tight schedule so failure-path tests spend milliseconds, not seconds
FAST = BackoffPolicy(attempts=3, base_delay=0.01, max_delay=0.05, jitter_seed=0)
#: a bank explore campaign payload, as run_explore_campaign ships it
EXPLORE = {
    "kind": "explore", "workload": "bank",
    "workload_kwargs": {"tellers": 2, "deposits": 6},
    "seed": 0, "env_seed": 0, "bound": 1, "budget": 12, "heap": 60_000,
}


def faults_payload(seed):
    return {
        "kind": "faults", "workload": "bank", "workload_kwargs": {},
        "seed": seed, "count": 2, "layers": ["trace"], "fault_timeout": 30.0,
        "heap": None,
    }


def corpus_files(root) -> "dict[str, bytes]":
    return {
        p.name: p.read_bytes() for p in sorted(Path(root).iterdir()) if p.is_file()
    }


def dead_address():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


@pytest.fixture
def server():
    daemon = ServeDaemon().start()
    yield daemon
    daemon.stop()


@pytest.fixture
def servers():
    started = []

    def make(count=1, sabotage=None):
        for _ in range(count):
            started.append(ServeDaemon(sabotage=sabotage).start())
        return started[-count:]

    yield make
    for daemon in started:
        daemon.stop()


def pool_for(daemons, **kwargs):
    kwargs.setdefault("backoff", FAST)
    kwargs.setdefault("hello_timeout", 2.0)
    return RemoteWorkerPool([d.address for d in daemons], **kwargs)


def incident_kinds(report):
    return {incident.kind for incident in report.incidents}


class RawClient:
    """A bare protocol speaker for poking the daemon directly."""

    def __init__(self, address, timeout=5.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.decoder = FrameDecoder(MAX_SERVE_FRAME_BYTES)

    def send(self, message):
        self.sock.sendall(encode_serve_message(message))

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv(self):
        """Next decoded message, or None on EOF."""
        while True:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            payloads = self.decoder.feed(chunk)
            if payloads:
                return decode_serve_payload(payloads[0])

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# wire protocol units: the serve codec campaign items ride


class TestWireProtocol:
    def test_encode_decode_round_trip(self):
        message = {
            "op": "result", "ok": True,
            "result": {"digest": "d", "trace": b"\x00" * 100},
        }
        decoder = FrameDecoder(MAX_SERVE_FRAME_BYTES)
        payloads = decoder.feed(encode_serve_message(message))
        assert len(payloads) == 1
        assert decode_serve_payload(payloads[0]) == message

    def test_round_trip_survives_arbitrary_chunking(self):
        messages = [
            {"op": "ping"},
            {"op": "submit", "job": {"kind": "campaign-item", "campaign": EXPLORE, "item": [3]}},
            {"op": "result", "ok": True, "result": {"digest": "d", "reason": None}},
        ]
        wire = b"".join(encode_serve_message(m) for m in messages)
        decoder = FrameDecoder(MAX_SERVE_FRAME_BYTES)
        seen = []
        for i in range(0, len(wire), 3):  # 3-byte dribble: worst-case reads
            seen.extend(decode_serve_payload(p) for p in decoder.feed(wire[i : i + 3]))
        assert seen == messages
        assert decoder.pending_bytes == 0

    def test_corrupted_frame_fails_its_crc(self):
        frame = bytearray(encode_serve_message({"op": "pong"}))
        frame[-1] ^= 0x01  # flip a bit inside the encoded body
        payloads = FrameDecoder(MAX_SERVE_FRAME_BYTES).feed(bytes(frame))
        with pytest.raises(FrameError, match="CRC32"):
            decode_serve_payload(payloads[0])

    def test_short_payload_rejected(self):
        with pytest.raises(FrameError, match="too short"):
            decode_serve_payload(b"\x00\x01")

    def test_unpicklable_payload_rejected(self):
        """A CRC-valid blob that is neither a pickle nor a codec value."""
        import zlib

        blob = b"not a pickle at all"
        crc = zlib.crc32(blob).to_bytes(4, "big")
        with pytest.raises(FrameError, match="unknown value tag"):
            decode_serve_payload(crc + blob)

    def test_non_dict_message_rejected(self):
        import zlib

        blob = encode_value(["op", "hello"])
        crc = zlib.crc32(blob).to_bytes(4, "big")
        with pytest.raises(FrameError, match="dict with an 'op'"):
            decode_serve_payload(crc + blob)

    def test_payload_key_is_stable_and_discriminating(self):
        """The warm-runner cache key: equal payload data gives one key
        whatever the dict order, any changed field another."""
        shuffled = dict(reversed(list(EXPLORE.items())))
        assert _digest(EXPLORE) == _digest(shuffled)
        assert _digest(EXPLORE) != _digest({**EXPLORE, "seed": 1})
        assert _digest(EXPLORE) != _digest({**EXPLORE, "heap": None})

    def test_parse_sabotage_forms(self):
        assert parse_sabotage("remote-drop-frame") == {"kind": "remote-drop-frame"}
        assert parse_sabotage("remote-kill-worker:5") == {
            "kind": "remote-kill-worker",
            "position": 5,
        }
        assert parse_sabotage("remote-corrupt-frame:2:3") == {
            "kind": "remote-corrupt-frame",
            "position": 2,
            "bit": 3,
        }
        assert parse_sabotage("remote-slow-connect::0.75") == {
            "kind": "remote-slow-connect",
            "delay": 0.75,
        }

    def test_parse_sabotage_rejects_unknown_kind(self):
        with pytest.raises(TransportError, match="unknown sabotage kind"):
            parse_sabotage("remote-set-on-fire")


class TestServeClientTimeout:
    """The pool tells a hang from a dead peer by exception type, and
    its incident names the timeout the call really used."""

    @staticmethod
    def _peer(after_hello):
        """A one-connection peer: answers hello, then *after_hello*."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _ = listener.accept()
            with conn:
                FrameDecoder(MAX_SERVE_FRAME_BYTES).feed(conn.recv(65536))
                conn.sendall(encode_serve_message({"op": "hello-ok", "pid": 0}))
                after_hello(conn)
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener.getsockname(), thread

    def test_per_call_timeout_is_reported_and_typed(self):
        release = threading.Event()
        address, thread = self._peer(lambda conn: release.wait(10))  # mute
        client = ServeClient(address, timeout=30.0)
        try:
            with pytest.raises(TransportTimeout, match=r"after 0\.2s"):
                client.request({"op": "ping"}, timeout=0.2)
        finally:
            client.close()
            release.set()
            thread.join(5)
        assert not thread.is_alive()

    def test_eof_is_not_a_timeout(self):
        address, thread = self._peer(lambda conn: None)  # hangs up
        client = ServeClient(address, timeout=30.0)
        try:
            with pytest.raises(TransportError) as raised:
                client.request({"op": "ping"}, timeout=5.0)
            assert not isinstance(raised.value, TransportTimeout)
        finally:
            client.close()
            thread.join(5)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# the campaign-item job kind


class TestCampaignItemJob:
    def test_validated_job_is_plain_data(self):
        job = validate_job({"kind": "campaign-item", "campaign": EXPLORE, "item": [0, 2]})
        assert job == {
            "kind": "campaign-item", "campaign": EXPLORE, "item": (0, 2), "deadline": None,
        }

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"workload": "bank"}, "unknown campaign-item key"),
            ({"campaign": {**EXPLORE, "config": None}}, "fields must be exactly"),
            ({"campaign": {**EXPLORE, "kind": "fuzz"}}, "unknown campaign kind"),
            ({"campaign": {**EXPLORE, "workload": "nope"}}, "unknown workload"),
            ({"campaign": {**EXPLORE, "bound": True}}, "bound"),
            ({"campaign": {**EXPLORE, "engine": None}}, "fields must be exactly"),
            ({"campaign": {**EXPLORE, "heap": 0}}, "heap must be None or an int >= 1"),
            ({"campaign": {**EXPLORE, "workload_kwargs": {"x": object()}}}, "workload_kwargs"),
            ({"item": "0,1"}, "list of positions"),
            ({"item": [-1]}, "list of positions"),
            ({"campaign": faults_payload(1), "item": 2}, "plan index"),
        ],
    )
    def test_malformed_items_are_typed(self, bad, match):
        job = {"kind": "campaign-item", "campaign": EXPLORE, "item": [0], **bad}
        with pytest.raises(ServeError, match=match):
            validate_job(job)

    def test_local_runners_refuse_the_same_payloads(self):
        from repro.campaign import CampaignHarnessError

        with pytest.raises(CampaignHarnessError, match="fields must be exactly"):
            make_item_runner({**EXPLORE, "config": CFG})

    def test_concurrent_connections_match_serial(self, server):
        """Two connections submit items of one payload at once: each
        result equals the serial runner's, and the pool ends with one
        warm runner (a runner never serves two jobs at once)."""
        items = [(position,) for position in range(1, 9)]
        serial = make_item_runner(EXPLORE)
        try:
            want = [serial.run(item) for item in items]
        finally:
            serial.close()
        got = {}

        def drive(indices):
            with ServeClient(server.address) as client:
                for i in indices:
                    job = {"kind": "campaign-item", "campaign": EXPLORE, "item": items[i]}
                    got[i] = client.submit(job)

        threads = [
            threading.Thread(target=drive, args=(range(k, len(items), 2),))
            for k in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert [got[i] for i in range(len(items))] == want
        assert server.pool.stats()["runners"] == 1

    def test_leases_under_thread_stress(self, monkeypatch):
        """Eight threads lease runners of two payloads from a pool that
        holds one: no runner is ever in two leases at once, and every
        runner built ends up parked or closed, never leaked."""
        import sys
        import time

        import repro.campaign.jobs as campaign_jobs

        built = []

        class Runner:
            def __init__(self, payload):
                self.busy = False
                self.closed = False
                built.append(self)

            def close(self):
                if self.busy:
                    overlaps.append(self)
                self.closed = True

        monkeypatch.setattr(campaign_jobs, "make_item_runner", Runner)
        pool = SessionPool(max_entries=1)
        payloads = [faults_payload(1), faults_payload(2)]
        overlaps = []

        def lease(k):
            for i in range(200):
                with pool.campaign_runner(payloads[(k + i) % 2]) as runner:
                    if runner.busy or runner.closed:
                        overlaps.append(runner)
                    runner.busy = True
                    time.sleep(0)  # let other threads run mid-lease
                    runner.busy = False

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lease, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not overlaps
        parked = [runner for runner in built if not runner.closed]
        assert len(parked) == pool.stats()["runners"] == 1

    def test_evicted_and_invalidated_faults_runners_leave_no_temp_dir(self):
        def workdirs():
            pattern = os.path.join(tempfile.gettempdir(), "repro-campaign-faults-*")
            return set(glob.glob(pattern))

        before = workdirs()
        pool = SessionPool(max_entries=1)
        with pool.campaign_runner(validate_campaign(faults_payload(1))) as first:
            assert os.path.isdir(first.workdir)
        with pool.campaign_runner(validate_campaign(faults_payload(2))) as second:
            pass
        # the LRU bound evicted the first runner: closed, not dropped
        assert not os.path.exists(first.workdir)
        assert os.path.isdir(second.workdir)
        pool.invalidate()
        assert not os.path.exists(second.workdir)
        assert workdirs() == before


# ---------------------------------------------------------------------------
# the daemon in its campaign-host role, poked directly


class TestWorkerServer:
    def test_handshake_ping_shutdown(self):
        daemon = ServeDaemon().start()
        client = RawClient(daemon.address)
        try:
            client.send({"op": "hello", "version": SERVE_PROTOCOL_VERSION})
            reply = client.recv()
            assert reply["op"] == "hello-ok"
            assert reply["version"] == SERVE_PROTOCOL_VERSION
            assert isinstance(reply["pid"], int)
            client.send({"op": "ping"})
            assert client.recv() == {"op": "pong"}
            client.send({"op": "shutdown"})
            assert client.recv() == {"op": "bye"}
        finally:
            client.close()
        daemon.stop()

    def test_version_mismatch_is_refused(self, server):
        client = RawClient(server.address)
        try:
            client.send({"op": "hello", "version": 999})
            reply = client.recv()
            assert reply["op"] == "error"
            assert "version mismatch" in reply["detail"]
            assert client.recv() is None  # connection closed after refusal
        finally:
            client.close()

    def test_unknown_op_is_an_error_frame_not_a_crash(self, server):
        client = RawClient(server.address)
        try:
            client.send({"op": "make-coffee"})
            reply = client.recv()
            assert reply["op"] == "error"
            assert "unknown op" in reply["detail"]
            client.send({"op": "ping"})  # connection survived the bad op
            assert client.recv() == {"op": "pong"}
        finally:
            client.close()

    def test_garbage_bytes_survive_and_count(self, server):
        client = RawClient(server.address)
        try:
            client.send_raw(b"\xff" * 64)  # absurd length prefix
            reply = client.recv()
            assert reply is None or reply["op"] == "error"
        finally:
            client.close()
        assert server.frame_errors == 1
        # the accept loop survived: a fresh connection still handshakes
        client = RawClient(server.address)
        try:
            client.send({"op": "hello", "version": SERVE_PROTOCOL_VERSION})
            assert client.recv()["op"] == "hello-ok"
        finally:
            client.close()
        assert server.connections_served == 2

    def test_crc_corrupt_request_counts_as_frame_error(self, server):
        frame = bytearray(encode_serve_message({"op": "ping"}))
        frame[-1] ^= 0x80
        client = RawClient(server.address)
        try:
            client.send_raw(bytes(frame))
            reply = client.recv()
            assert reply["op"] == "error" and "CRC32" in reply["detail"]
            # the error is in-band: the same connection keeps serving
            client.send({"op": "ping"})
            assert client.recv() == {"op": "pong"}
        finally:
            client.close()
        assert server.frame_errors == 1

    def test_warm_runner_is_cached_across_shards(self, server):
        report = run_explore_campaign(
            "bank",
            bound=1,
            budget=12,
            jobs=2,
            config=CFG,
            backend=pool_for([server]),
        )
        assert not report.errors
        stats = server.pool.stats()
        assert server.connections_served == 2  # one connection per shard...
        assert stats["runners"] == 1  # ...one warm runner for both
        assert stats["misses"] == 1 and stats["hits"] == 10


# ---------------------------------------------------------------------------
# the equivalence contract: remote ≡ local, even under fire


class TestRemoteDifferential:
    def test_one_host_equals_local(self, tmp_path, servers):
        (daemon,) = servers(1)
        local = run_explore_campaign(
            "bank", bound=1, budget=25, jobs=2, config=CFG,
            corpus_dir=tmp_path / "local",
        )
        remote = run_explore_campaign(
            "bank", bound=1, budget=25, jobs=2, config=CFG,
            corpus_dir=tmp_path / "remote",
            backend=pool_for([daemon]),
        )
        assert remote.digest() == local.digest()
        assert remote.behavior_set() == local.behavior_set()
        assert not remote.incidents
        assert corpus_files(tmp_path / "remote") == corpus_files(tmp_path / "local")

    def test_three_hosts_equal_one_host_equal_local(self, tmp_path, servers):
        trio = servers(3)
        (solo,) = servers(1)
        runs = {
            "serial": run_explore_campaign(
                "bank", bound=1, budget=30, jobs=1, config=CFG,
                corpus_dir=tmp_path / "serial",
            ),
            "local": run_explore_campaign(
                "bank", bound=1, budget=30, jobs=3, config=CFG,
                corpus_dir=tmp_path / "local",
            ),
            "one": run_explore_campaign(
                "bank", bound=1, budget=30, jobs=3, config=CFG,
                corpus_dir=tmp_path / "one", backend=pool_for([solo]),
            ),
            "three": run_explore_campaign(
                "bank", bound=1, budget=30, jobs=3, config=CFG,
                corpus_dir=tmp_path / "three", backend=pool_for(trio),
            ),
        }
        digests = {name: report.digest() for name, report in runs.items()}
        assert len(set(digests.values())) == 1, digests
        corpora = [corpus_files(tmp_path / name) for name in runs]
        assert corpora[0] and all(corpus == corpora[0] for corpus in corpora)

    def test_hosts_argument_builds_the_pool(self, servers):
        (daemon,) = servers(1)
        local = run_explore_campaign("bank", bound=1, budget=15, jobs=2, config=CFG)
        remote = run_explore_campaign(
            "bank", bound=1, budget=15, jobs=2, config=CFG,
            hosts=[daemon.address],
        )
        assert remote.digest() == local.digest()

    def test_faults_campaign_remote_equals_local(self, tmp_path, servers):
        plan = FaultPlan.generate(5, 6, layers=("trace",))

        def sweep(name, jobs, backend=None):
            return run_faults_campaign(
                plan, workload="bank", layers=("trace",), config=CFG, jobs=jobs,
                corpus_dir=tmp_path / name, backend=backend,
            )

        runs = {
            "serial": sweep("serial", 1),
            "local": sweep("local", 2),
            "one": sweep("one", 2, pool_for(servers(1))),
            "three": sweep("three", 3, pool_for(servers(3))),
        }
        digests = {name: run.digest() for name, run in runs.items()}
        assert len(set(digests.values())) == 1, digests
        tallies = [run.tally() for run in runs.values()]
        assert all(tally == tallies[0] for tally in tallies)
        assert not runs["one"].incidents and not runs["three"].incidents
        corpora = [corpus_files(tmp_path / name) for name in runs]
        assert all(corpus == corpora[0] for corpus in corpora)

    @pytest.mark.parametrize(
        "sabotage, expected_incident",
        [
            # a dropped reply is only ever seen as silence: the watchdog
            ("remote-drop-frame:3", "remote-hang"),
            ("remote-corrupt-frame:3:3", "remote-protocol"),
            ("remote-truncate-frame:3", "remote-transport"),
        ],
    )
    def test_armed_host_perturbs_nothing(
        self, tmp_path, servers, sabotage, expected_incident
    ):
        """One host misbehaves once, mid-shard; the report and corpus
        are byte-for-byte those of a clean local run, plus a typed
        incident."""
        armed = servers(1, sabotage=parse_sabotage(sabotage))
        clean = servers(1)
        local = run_explore_campaign(
            "bank", bound=1, budget=20, jobs=2, config=CFG,
            corpus_dir=tmp_path / "local",
        )
        remote = run_explore_campaign(
            "bank", bound=1, budget=20, jobs=2, config=CFG, watchdog=1.0,
            corpus_dir=tmp_path / "remote",
            backend=pool_for(armed + clean),
        )
        assert remote.digest() == local.digest()
        assert expected_incident in incident_kinds(remote)
        assert corpus_files(tmp_path / "remote") == corpus_files(tmp_path / "local")

    def test_killed_worker_degrades_without_perturbing(self, tmp_path):
        """The real crash path: a `repro serve` subprocess os._exits
        mid-shard; reconnects fail, the breaker opens, and the ladder
        carries the leftovers to local fork workers."""
        proc, address = spawn_serve_process(
            extra_args=["--sabotage", "remote-kill-worker:4"]
        )
        try:
            local = run_explore_campaign(
                "bank", bound=1, budget=16, jobs=2, config=CFG,
                corpus_dir=tmp_path / "local",
            )
            remote = run_explore_campaign(
                "bank", bound=1, budget=16, jobs=2, config=CFG,
                corpus_dir=tmp_path / "remote",
                backend=RemoteWorkerPool(
                    [address], backoff=FAST, hello_timeout=1.0, breaker_threshold=2
                ),
            )
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        assert remote.digest() == local.digest()
        kinds = incident_kinds(remote)
        assert "remote-transport" in kinds
        assert "quarantine" in kinds
        assert "degraded-local" in kinds
        assert corpus_files(tmp_path / "remote") == corpus_files(tmp_path / "local")

    def test_no_hosts_alive_degrades_to_local(self, tmp_path):
        """Rung 3 alone: nothing listens anywhere, yet coverage is 100%
        and the result is still the local result."""
        local = run_explore_campaign("bank", bound=1, budget=12, jobs=2, config=CFG)
        remote = run_explore_campaign(
            "bank", bound=1, budget=12, jobs=2, config=CFG,
            backend=RemoteWorkerPool(
                [dead_address()], backoff=FAST, hello_timeout=0.5, breaker_threshold=1
            ),
        )
        assert remote.digest() == local.digest()
        assert not remote.errors
        assert remote.schedules_run == local.schedules_run
        kinds = incident_kinds(remote)
        assert {"remote-connect", "quarantine", "degraded-local"} <= kinds

    @pytest.mark.fuzz
    def test_stalled_reply_trips_the_watchdog(self, tmp_path, servers):
        armed = servers(1, sabotage=parse_sabotage("remote-stall-heartbeat:4"))
        local = run_explore_campaign("bank", bound=1, budget=16, jobs=2, config=CFG)
        remote = run_explore_campaign(
            "bank", bound=1, budget=16, jobs=2, config=CFG, watchdog=1.0,
            backend=RemoteWorkerPool(
                [d.address for d in armed],
                backoff=FAST,
                hello_timeout=0.3,
                breaker_threshold=2,
            ),
        )
        assert remote.digest() == local.digest()
        hangs = [i for i in remote.incidents if i.kind == "remote-hang"]
        assert hangs and "timed out after 1s" in hangs[0].detail

    @pytest.mark.fuzz
    def test_slow_connect_is_absorbed_by_backoff(self, servers):
        """A slow-loris handshake costs one retry, not an incident: the
        hello timeout plus the backoff schedule absorb it entirely."""
        armed = servers(1, sabotage=parse_sabotage("remote-slow-connect::0.8"))
        local = run_explore_campaign("bank", bound=1, budget=12, jobs=2, config=CFG)
        remote = run_explore_campaign(
            "bank", bound=1, budget=12, jobs=2, config=CFG,
            backend=RemoteWorkerPool(
                [d.address for d in armed], backoff=FAST, hello_timeout=0.3
            ),
        )
        assert remote.digest() == local.digest()
        assert not remote.incidents


# ---------------------------------------------------------------------------
# daemon lifecycle


class TestWorkerLifecycle:
    def test_spawn_and_shutdown_subprocess(self):
        proc, address = spawn_serve_process()
        try:
            with ServeClient(address) as client:
                client.shutdown()
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
            proc.stdout.close()


# ---------------------------------------------------------------------------
# the LAYER_REMOTE fault family


class TestRemoteFaultPlan:
    def test_remote_kinds_are_registered(self):
        remote_kinds = [k for k, layer in KINDS.items() if layer == LAYER_REMOTE]
        assert remote_kinds == list(SABOTAGE_KINDS)

    def test_remote_plans_are_reproducible(self):
        a = FaultPlan.generate(11, 12, layers=(LAYER_REMOTE,))
        b = FaultPlan.generate(11, 12, layers=(LAYER_REMOTE,))
        assert a.specs == b.specs
        assert {s.layer for s in a} == {LAYER_REMOTE}

    def test_default_layers_exclude_remote(self):
        """Appending remote kinds must not disturb seeded default plans
        (the plan-reproducibility contract of old sweeps)."""
        plan = FaultPlan.generate(3, 40)
        assert all(s.layer != LAYER_REMOTE for s in plan)

    def test_remote_sabotage_arming_strings(self):
        plan = FaultPlan.generate(2, 30, layers=(LAYER_REMOTE,))
        for spec in plan:
            armed = remote_sabotage(spec, replies=7)
            parsed = parse_sabotage(armed)  # round-trips through the CLI syntax
            assert parsed["kind"] == spec.kind
            if spec.kind == "remote-slow-connect":
                assert parsed["delay"] == spec.params[0]
                continue
            assert parsed["position"] == min(6, int(spec.params[0] * 7))
            if spec.kind == "remote-corrupt-frame":
                assert parsed["bit"] == spec.params[1]

    def test_remote_sabotage_rejects_other_layers(self):
        plan = FaultPlan.generate(3, 1, layers=("trace",))
        with pytest.raises(ValueError):
            remote_sabotage(plan.specs[0], replies=7)

    @pytest.mark.fuzz
    def test_remote_fault_campaign_recovers(self):
        """The serial `repro faults --layers remote` path end to end:
        every injected remote fault is absorbed and classified."""
        report = run_faults_campaign(
            FaultPlan.generate(7, 3, layers=(LAYER_REMOTE,)),
            workload="bank",
            config=CFG,
            jobs=1,
        )
        assert report.ok, report.format()
        for outcome in report.outcomes:
            assert outcome.outcome in ("recovered", "degraded")
