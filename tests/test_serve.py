"""`repro serve`: the supervised, long-lived replay service.

The daemon's contract has three load-bearing claims, each pinned here:

* **Byte-identity**: a job served from the warm daemon returns stdout
  (and, for record, trace bytes) byte-identical to the CLI one-shot,
  identically warm or cold.  Warm sessions may change latency, never
  results.
* **Robustness envelope**: typed validation (poison jobs answer with a
  :class:`ServeError`, never a traceback), bounded admission (a full
  queue answers ``overloaded`` + ``retry_after``), cooperative deadlines
  (an infinite guest loop lands in :class:`JobDeadlineExceeded` at an
  engine safe point), warm→cold degradation, and worker supervision
  (``SystemExit`` kills a worker; the client still gets a typed answer
  and the fleet heals).
* **Graceful drain**: SIGTERM (or the ``drain`` op) stops admission,
  finishes and delivers every accepted job, and exits 0 — zero accepted
  jobs lost.
"""

import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.framing import BackoffPolicy, FrameDecoder, TransportError
from repro.serve import (
    JobDeadlineExceeded,
    JobRejected,
    ServeClient,
    ServeDaemon,
    ServeError,
    SessionPool,
    Supervisor,
    spawn_serve_process,
    validate_job,
)
from repro.serve.protocol import (
    MAX_SERVE_FRAME_BYTES,
    SERVE_PROTOCOL_VERSION,
    JobCancelled,
    decode_serve_payload,
    encode_serve_message,
    validate_campaign,
)
from repro.serve.supervisor import CancelToken

#: an infinite guest loop that still reaches engine safe points: the
#: loop *body* executes the backedge yield point every iteration (a bare
#: ``loop: goto loop`` would jump back past its own yield point and
#: never preempt — see the compiler's backedge emission order)
HUNG_SRC = """\
.class Main
.method static main ()V
    iconst 0
    istore 0
loop:
    iload 0
    iconst 1
    iadd
    istore 0
    goto loop
.end
"""

TINY_SRC = """\
.class Main
.method static main ()V
    ldc "{word}"
    invokestatic System.print(LString;)V
    return
.end
"""


def record_job(seed=7, out_name="run.djv", **extra):
    job = {
        "kind": "record",
        "workload": "bank",
        "workload_args": {},
        "seed": seed,
        "out_name": out_name,
    }
    job.update(extra)
    return job


@pytest.fixture(scope="module")
def daemon():
    d = ServeDaemon(workers=2, queue_limit=8).start()
    yield d
    d.stop()


@pytest.fixture(scope="module")
def reference(daemon):
    """One warm record run: the trace + stdout every differential
    test compares against."""
    with ServeClient(daemon.address) as client:
        result = client.submit(record_job())
    assert result["exit"] == 0
    return result


def run_cli(argv, capsys):
    code = cli_main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# protocol units


class TestValidateJob:
    def test_non_dict_is_typed(self):
        with pytest.raises(ServeError, match="must be a dict"):
            validate_job(["record"])

    def test_unknown_kind(self):
        with pytest.raises(ServeError, match="unknown job kind"):
            validate_job({"kind": "transmogrify"})

    def test_bad_seed_heap_deadline(self):
        with pytest.raises(ServeError, match="seed"):
            validate_job(record_job(seed="seven"))
        with pytest.raises(ServeError, match="heap"):
            validate_job(record_job(heap=0))
        with pytest.raises(ServeError, match="deadline"):
            validate_job(record_job(deadline=-1))
        with pytest.raises(ServeError, match="deadline"):
            validate_job(record_job(deadline="soon"))

    def test_record_needs_a_program(self):
        with pytest.raises(ServeError, match="'workload' name or 'source'"):
            validate_job({"kind": "record"})

    def test_replay_needs_trace_bytes(self):
        with pytest.raises(ServeError, match="sealed trace bytes"):
            validate_job({"kind": "replay", "workload": "bank"})
        with pytest.raises(ServeError, match="sealed trace bytes"):
            validate_job({"kind": "replay", "workload": "bank", "trace": ""})

    def test_unknown_engine_preset_and_flags(self):
        # fusion is the engine's decision: a job names no engine, in
        # either of the spellings it once had
        for engine in ("full", "baseline", {"fusion": True}, None):
            with pytest.raises(ServeError, match="unknown job key.*'engine'"):
                validate_job(record_job(engine=engine))

    def test_removed_engine_options_are_rejected(self):
        # nor does a campaign payload (it carries the heap only)
        campaign = {
            "kind": "explore", "workload": "bank", "workload_kwargs": {},
            "seed": 0, "env_seed": 0, "bound": 1, "budget": 4, "heap": 60_000,
        }
        assert validate_campaign(campaign)
        for engine in ({"fusion": True}, "full", None):
            with pytest.raises(ServeError, match="fields must be exactly"):
                validate_campaign({**campaign, "engine": engine})

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"sed": 7}, "unknown job key"),
            ({"heap": True}, "heap"),
            ({"seed": True}, "seed"),
            ({"deadline": True}, "deadline"),
            ({"workload": 3}, "workload must be a string"),
            ({"main": None}, "main must be a string"),
            ({"name": b"x"}, "name must be a string"),
            ({"out_name": 1}, "out_name must be a string"),
            ({"trace_name": 1}, "trace_name must be a string"),
            ({"slim": 1}, "slim must be a bool"),
            ({"engine": {"fusion": True}}, "unknown job key"),
            ({"trace": b"DJVU"}, "takes no 'trace'"),
        ],
    )
    def test_malformed_fields_are_typed(self, bad, match):
        with pytest.raises(ServeError, match=match):
            validate_job(record_job(**bad))

    def test_malformed_source_and_explore_ints_are_typed(self):
        with pytest.raises(ServeError, match="source must be a string"):
            validate_job({"kind": "record", "source": 123})
        with pytest.raises(ServeError, match="bound"):
            validate_job({"kind": "explore", "workload": "bank", "bound": True})
        with pytest.raises(ServeError, match="budget"):
            validate_job({"kind": "explore", "workload": "bank", "budget": False})
        with pytest.raises(ServeError, match="trace_name must be a string"):
            validate_job({"kind": "doctor", "trace": b"x", "trace_name": 7})

    def test_defaults_are_filled(self):
        job = validate_job({"kind": "record", "workload": "bank"})
        assert "engine" not in job
        assert job["heap"] == 400_000
        assert job["seed"] is None
        assert job["deadline"] is None
        assert job["out_name"] == "run.djv"


# ---------------------------------------------------------------------------
# the warm-session pool


class TestSessionPool:
    def test_explicit_and_implicit_defaults_share_one_entry(self):
        from repro.workloads.registry import get_workload

        pool = SessionPool()
        implicit = {"workload": "bank", "workload_args": {}}
        explicit = {
            "workload": "bank",
            "workload_args": dict(get_workload("bank").defaults),
        }
        a = pool.program(implicit)
        b = pool.program(explicit)
        # keyed on *resolved* kwargs, not the spelling: one assembly
        assert a.classdefs is b.classdefs
        stats = pool.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_invalidate_rebuilds_instead_of_reusing(self):
        pool = SessionPool()
        job = {"workload": "bank", "workload_args": {}}
        first = pool.program(job)
        pool.invalidate()
        second = pool.program(job)
        assert first.classdefs is not second.classdefs  # a crashed session is replaced
        stats = pool.stats()
        assert stats["generation"] == 1
        assert stats["rebuilds"] == 1
        assert stats["invalidations"] == 1

    def test_lru_eviction_is_bounded(self):
        pool = SessionPool(max_entries=2)
        jobs = [
            {"source": TINY_SRC.format(word=w), "main": "Main.main()V", "name": w}
            for w in ("alpha", "beta", "gamma")
        ]
        for job in jobs:
            pool.program(job)
        assert pool.stats()["programs"] == 2
        pool.program(jobs[0])  # evicted: a fresh miss, not a hit
        assert pool.stats()["misses"] == 4

    def test_trace_cache_hits_on_content(self, reference):
        pool = SessionPool()
        a = pool.trace(reference["trace"])
        b = pool.trace(bytes(reference["trace"]))
        assert a is b
        stats = pool.stats()
        assert stats["traces"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1


# ---------------------------------------------------------------------------
# cancellation tokens


class TestCancelToken:
    def test_deadline_fires_on_the_injected_clock(self):
        clk = [0.0]
        token = CancelToken(5.0, clock=lambda: clk[0])
        token.check()  # inside budget: silent
        clk[0] = 5.01
        with pytest.raises(JobDeadlineExceeded, match="5s deadline"):
            token.check()

    def test_cancel_wins_over_everything(self):
        token = CancelToken(None)
        token.check()
        token.cancel()
        with pytest.raises(JobCancelled):
            token.check()

    def test_install_is_the_safepoint_hook_seam(self):
        class Engine:
            safepoint_hook = None

        class VM:
            engine = Engine()

        vm = VM()
        token = CancelToken(1.0)
        token.install(vm)
        assert vm.engine.safepoint_hook == token.check


# ---------------------------------------------------------------------------
# the supervisor (stub executors: the envelope, isolated from the VM)


class TestSupervisor:
    def test_overloaded_rejection_is_typed_with_retry_hint(self):
        gate = threading.Event()

        def blocking(job, pool, token):
            gate.wait(10)
            return {"done": True}

        sup = Supervisor(None, workers=1, queue_limit=1, executor=blocking)
        try:
            first = sup.submit({"deadline": None})
            with pytest.raises(JobRejected) as exc:
                sup.submit({"deadline": None})
            assert exc.value.reason == "overloaded"
            assert exc.value.retry_after > 0
            assert sup.jobs_rejected == 1
            gate.set()
            assert first.wait(10)["ok"] is True
        finally:
            gate.set()
            sup.shutdown(grace=5)

    def test_draining_rejects_new_admissions(self):
        sup = Supervisor(None, workers=1, executor=lambda j, p, t: {})
        try:
            assert sup.drain(grace=5)
            with pytest.raises(JobRejected) as exc:
                sup.submit({"deadline": None})
            assert exc.value.reason == "draining"
        finally:
            sup.shutdown(grace=5)

    def test_warm_failure_degrades_to_cold_and_invalidates(self):
        warm = SessionPool()

        def flaky(job, pool, token):
            if pool is warm:
                raise RuntimeError("warm session state corrupt")
            return {"ran": "cold"}

        sup = Supervisor(warm, workers=1, executor=flaky)
        try:
            reply = sup.submit({"deadline": None}).wait(10)
            assert reply["ok"] is True
            assert reply["result"] == {"ran": "cold"}
            assert sup.degraded_cold == 1
            # the suspect warm state was invalidated, not trusted
            assert warm.stats()["invalidations"] == 1
            assert warm.stats()["generation"] == 1
        finally:
            sup.shutdown(grace=5)

    def test_two_strikes_is_a_typed_diagnostic(self):
        def doomed(job, pool, token):
            raise ValueError("bad everywhere")

        sup = Supervisor(SessionPool(), workers=1, executor=doomed)
        try:
            reply = sup.submit({"deadline": None}).wait(10)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ServeError"
            assert "failed warm and cold" in reply["error"]["detail"]
            assert "ValueError" in reply["error"]["detail"]
        finally:
            sup.shutdown(grace=5)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_systemexit_kills_the_worker_not_the_client(self):
        def crashy(job, pool, token):
            if job.get("die"):
                raise SystemExit(3)
            return {"alive": True}

        sup = Supervisor(None, workers=1, executor=crashy)
        try:
            reply = sup.submit({"deadline": None, "die": True}).wait(10)
            # the dying worker's finally block still delivered an answer
            assert reply["ok"] is False
            assert "worker crashed mid-job" in reply["error"]["detail"]
            # the reply is delivered from the dying worker's finally
            # block, so the thread may still be unwinding; poll until
            # ensure_workers observes the death
            deadline = time.monotonic() + 10
            while sup.worker_restarts < 1 and time.monotonic() < deadline:
                sup.ensure_workers()
                time.sleep(0.01)
            assert sup.worker_restarts >= 1
            healed = sup.submit({"deadline": None}).wait(10)
            assert healed["ok"] is True and healed["result"] == {"alive": True}
        finally:
            sup.shutdown(grace=5)

    def test_queued_job_past_deadline_never_runs(self):
        clk = [0.0]
        gate = threading.Event()

        def exec_(job, pool, token):
            if job.get("block"):
                gate.wait(10)
                return {}
            raise AssertionError("a dead-on-arrival job was executed")

        sup = Supervisor(
            None, workers=1, executor=exec_, clock=lambda: clk[0]
        )
        try:
            # the single worker is busy, so the doomed job sits queued
            # while the injected clock runs past its deadline
            blocker = sup.submit({"deadline": None, "block": True})
            doomed = sup.submit({"deadline": 0.001})
            clk[0] = 1.0
            gate.set()
            assert blocker.wait(10)["ok"] is True
            reply = doomed.wait(10)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "JobDeadlineExceeded"
        finally:
            gate.set()
            sup.shutdown(grace=5)

    def test_drain_finishes_every_accepted_job(self):
        def slow(job, pool, token):
            time.sleep(0.05)
            return {"n": job["n"]}

        sup = Supervisor(None, workers=2, queue_limit=8, executor=slow)
        try:
            pendings = [
                sup.submit({"deadline": None, "n": i}) for i in range(5)
            ]
            assert sup.drain(grace=30) is True
            replies = [p.wait(1) for p in pendings]
            assert [r["ok"] for r in replies] == [True] * 5
            assert sorted(r["result"]["n"] for r in replies) == list(range(5))
            assert sup.jobs_completed == 5
        finally:
            sup.shutdown(grace=5)


# ---------------------------------------------------------------------------
# daemon end-to-end: handshake, ops, byte-identity


class TestDaemonProtocol:
    def test_hello_version_mismatch_is_refused(self, daemon):
        # version 2 is the last protocol whose jobs carried an engine
        assert SERVE_PROTOCOL_VERSION == 3
        for version in (2, 999):
            with socket.create_connection(daemon.address, timeout=5) as sock:
                sock.sendall(encode_serve_message({"op": "hello", "version": version}))
                sock.settimeout(5)
                reply = _read_reply(sock)
                assert reply["op"] == "error"
                assert "protocol version mismatch" in reply["detail"]

    def test_pickle_hello_gets_a_typed_error_and_the_daemon_serves_on(self, daemon):
        """A client of the checksummed-pickle protocol (version 1): its
        hello passes the CRC but is no codec value, so it gets a typed
        in-band error, is counted, and nothing is unpickled."""
        import pickle
        import zlib

        blob = pickle.dumps({"op": "hello", "version": 1}, protocol=5)
        payload = zlib.crc32(blob).to_bytes(4, "big") + blob
        before = daemon.frame_errors
        with socket.create_connection(daemon.address, timeout=5) as sock:
            sock.sendall(len(payload).to_bytes(4, "big") + payload)
            reply = _read_reply(sock)
        assert reply == {"op": "error", "detail": "unknown value tag 0x80"}
        assert daemon.frame_errors == before + 1
        with ServeClient(daemon.address) as client:
            assert client.ping()

    def test_ping_health_and_unknown_op(self, daemon):
        with ServeClient(daemon.address) as client:
            assert client.daemon_pid is not None
            assert client.ping()
            health = client.health()
            assert health["state"] == "ready"
            assert health["warm"] is True
            assert health["supervisor"]["workers"] >= 1
            assert "sessions" in health
            reply = client.request({"op": "transmogrify"})
            assert reply["op"] == "error"
            assert "unknown op" in reply["detail"]

    def test_poison_submit_is_in_band_not_a_teardown(self, daemon):
        with ServeClient(daemon.address) as client:
            with pytest.raises(ServeError, match="unknown job kind"):
                client.submit({"kind": "transmogrify"})
            # same connection still serves real work afterwards
            assert client.ping()


def _read_reply(sock):
    decoder = FrameDecoder(MAX_SERVE_FRAME_BYTES)
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("daemon closed without replying")
        frames = decoder.feed(chunk)
        if frames:
            return decode_serve_payload(frames[0])


class TestByteIdentity:
    """The differential guarantee: daemon output == CLI one-shot output,
    byte for byte."""

    def test_record_matches_cli(self, daemon, tmp_path, capsys):
        out = str(tmp_path / "run.djv")
        code, cli_stdout, _ = run_cli(
            ["record", "--workload", "bank", "--seed", "7", "-o", out], capsys
        )
        assert code == 0
        result = _submit(daemon, record_job(out_name=out))
        assert result["exit"] == 0 and result["stderr"] == ""
        assert result["stdout"] == cli_stdout
        assert result["trace"] == Path(out).read_bytes()

    def test_replay_matches_cli(self, daemon, tmp_path, capsys):
        out = str(tmp_path / "run.djv")
        run_cli(["record", "--workload", "bank", "--seed", "7", "-o", out], capsys)
        code, cli_stdout, _ = run_cli(["replay", out, "--workload", "bank"], capsys)
        assert code == 0
        result = _submit(
            daemon,
            {"kind": "replay", "workload": "bank", "trace": Path(out).read_bytes()},
        )
        assert result["exit"] == 0
        assert result["stdout"] == cli_stdout

    def test_warm_server_program_keeps_no_native_state(
        self, daemon, tmp_path, capsys
    ):
        """The ``server`` workload's network native draws from a random
        stream: a warm program must not carry it from one job into the
        next, so the same job twice equals the CLI one-shot twice."""
        out = str(tmp_path / "server.djv")
        code, cli_stdout, _ = run_cli(
            ["record", "--workload", "server", "--seed", "7", "-o", out], capsys
        )
        assert code == 0
        job = record_job(workload="server", out_name=out)
        first = _submit(daemon, job)
        second = _submit(daemon, job)
        assert first["exit"] == second["exit"] == 0
        assert first["trace"] == second["trace"] == Path(out).read_bytes()
        assert first["stdout"] == second["stdout"] == cli_stdout

    def test_concurrent_server_records_share_one_program(self, daemon):
        """Both daemon workers record ``server`` at once from the one
        pooled program: each VM builds its own network stream, so the
        two traces are identical."""
        job = record_job(workload="server", seed=11)
        _submit(daemon, job)  # the pool now holds the program
        results: list = []
        errors: list = []

        def submit():
            try:
                results.append(_submit(daemon, job))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert [r["exit"] for r in results] == [0, 0]
        assert results[0]["trace"] == results[1]["trace"]
        assert results[0]["stdout"] == results[1]["stdout"]

    def test_warm_equals_oneshot(self, daemon):
        """A warm daemon run is identical to a cold one-shot executor
        run."""
        from repro.serve.jobs import run_job

        job = validate_job(record_job())
        oneshot = run_job(job, None, CancelToken(None))
        warm = _submit(daemon, record_job())
        assert warm["exit"] == oneshot["exit"] == 0
        assert warm["stdout"] == oneshot["stdout"]
        assert warm["trace"] == oneshot["trace"]
        replayed = _submit(
            daemon, {"kind": "replay", "workload": "bank", "trace": warm["trace"]}
        )
        assert replayed["exit"] == 0

    def test_warm_and_cold_daemons_agree(self, daemon, reference):
        cold = ServeDaemon(workers=1, warm=False).start()
        try:
            result = _submit(cold, record_job())
            assert result["stdout"] == reference["stdout"]
            assert result["trace"] == reference["trace"]
        finally:
            cold.stop()

    def test_warm_hits_do_not_change_results(self, daemon, reference):
        again = _submit(daemon, record_job())
        assert again["stdout"] == reference["stdout"]
        assert again["trace"] == reference["trace"]
        assert daemon.pool.stats()["hits"] >= 1

    def test_explore_matches_cli(self, daemon, tmp_path, capsys):
        out = str(tmp_path / "failure.djv")
        code, cli_stdout, _ = run_cli(
            ["explore", "--workload", "bank", "--seed", "3",
             "--bound", "2", "--budget", "30", "-o", out],
            capsys,
        )
        assert code == 0
        result = _submit(
            daemon,
            {
                "kind": "explore",
                "workload": "bank",
                "seed": 3,
                "bound": 2,
                "budget": 30,
                "out_name": out,
            },
        )
        assert result["exit"] == 0
        assert result["stdout"] == cli_stdout
        assert ("trace" in result) == Path(out).exists()
        if "trace" in result:
            assert result["trace"] == Path(out).read_bytes()

    def test_doctor_matches_cli(self, tmp_path, daemon, reference, capsys):
        path = tmp_path / "ref.djv"
        path.write_bytes(reference["trace"])
        code, cli_stdout, _ = run_cli(
            ["doctor", str(path), "--workload", "bank"], capsys
        )
        result = _submit(
            daemon,
            {
                "kind": "doctor",
                "workload": "bank",
                "trace": reference["trace"],
                "trace_name": str(path),
            },
        )
        assert result["exit"] == code
        assert result["stdout"] == cli_stdout

    def test_trace_stats_matches_cli(self, tmp_path, daemon, reference, capsys):
        path = tmp_path / "ref.djv"
        path.write_bytes(reference["trace"])
        code, cli_stdout, _ = run_cli(["trace-stats", str(path)], capsys)
        assert code == 0
        result = _submit(
            daemon, {"kind": "trace-stats", "trace": reference["trace"]}
        )
        assert result["exit"] == 0
        assert result["stdout"] == cli_stdout


class TestExitTiers:
    """A job's exit status and error line are the CLI's, tier for tier."""

    def test_unknown_workload_exits_2_like_the_cli(self, tmp_path, capsys):
        from repro.serve import run_job

        code, _, err = run_cli(
            ["record", "--workload", "nosuch", "-o", str(tmp_path / "x.djv")],
            capsys,
        )
        job = validate_job({"kind": "record", "workload": "nosuch"})
        result = run_job(job, None, CancelToken(None))
        assert code == result["exit"] == 2
        assert result["stderr"] == err
        assert err.startswith("error: unknown workload 'nosuch'")

    def test_unreadable_trace_exits_2_like_the_cli(self, tmp_path, capsys):
        from repro.serve import run_job

        junk = tmp_path / "junk.djv"
        junk.write_bytes(b"junk")
        code, _, err = run_cli(
            ["replay", str(junk), "--workload", "bank"], capsys
        )
        job = validate_job({"kind": "replay", "workload": "bank", "trace": b"junk"})
        result = run_job(job, None, CancelToken(None))
        assert code == result["exit"] == 2
        # the daemon parses a temp copy, so only the file name differs
        assert "bad magic" in err and "bad magic" in result["stderr"]
        assert result["stderr"].startswith("error: ")


def _submit(daemon, job, timeout=60):
    with ServeClient(daemon.address) as client:
        return client.submit(job, timeout=timeout)


# ---------------------------------------------------------------------------
# robustness end-to-end


class TestRobustness:
    def test_hung_workload_lands_in_a_typed_deadline(self, daemon):
        with ServeClient(daemon.address) as client:
            with pytest.raises(JobDeadlineExceeded, match="deadline"):
                client.submit(
                    {
                        "kind": "record",
                        "source": HUNG_SRC,
                        "name": "hung",
                        "seed": 1,
                        "deadline": 0.4,
                    }
                )
            # the daemon survived its hostile guest: still ready, still
            # serving on the very same connection
            assert client.health()["state"] == "ready"
            assert client.submit(record_job())["exit"] == 0

    def test_admission_storm_converges_with_retry(self):
        gate = threading.Event()
        started = threading.Event()

        def blocking(job, pool, token):
            started.set()
            gate.wait(10)
            return {"n": job.get("seed")}

        d = ServeDaemon(workers=1, queue_limit=1, executor=blocking).start()
        try:
            holder = ServeClient(d.address)
            result_box = {}
            filler = threading.Thread(
                target=lambda: result_box.update(
                    holder.submit(record_job(seed=0))
                )
            )
            filler.start()
            assert started.wait(10)
            with ServeClient(d.address) as client:
                with pytest.raises(JobRejected) as exc:
                    client.submit(record_job(seed=1))
                assert exc.value.reason == "overloaded"
                assert exc.value.retry_after > 0
                # retrying with the daemon's hint converges once the
                # queue frees; the injected sleep frees it
                slept = []

                def sleep(seconds):
                    slept.append(seconds)
                    gate.set()
                    time.sleep(0.02)

                retried = client.submit_with_retry(
                    record_job(seed=1),
                    policy=BackoffPolicy(
                        attempts=20, base_delay=0.01,
                        max_delay=0.05, jitter_seed=1,
                    ),
                    sleep=sleep,
                )
                assert retried == {"n": 1}
                # the daemon's retry_after floor was honored
                assert slept[0] >= exc.value.retry_after
            filler.join(timeout=10)
            holder.close()
            assert result_box.get("n") == 0
        finally:
            gate.set()
            d.stop()

    def test_concurrent_clients_match_serial(self, daemon):
        """Satellite: N well-formed clients interleaved with one
        vanisher and one garbage sender — every well-formed job is
        byte-identical to its serial run."""
        seeds = [11, 22, 33, 44]
        serial = {s: _submit(daemon, record_job(seed=s)) for s in seeds}

        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        def well_formed(seed):
            try:
                results[seed] = _submit(daemon, record_job(seed=seed))
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        def vanisher():
            sock = socket.create_connection(daemon.address, timeout=5)
            sock.sendall(
                encode_serve_message({"op": "submit", "job": record_job()})
            )
            time.sleep(0.01)
            sock.close()  # gone mid-job, response undeliverable

        def garbage():
            sock = socket.create_connection(daemon.address, timeout=5)
            # an impossible frame length: the decoder rejects it as a
            # typed FrameError, costing only this connection
            sock.sendall(b"\xff\xff\xff\xff" + b"\xa5" * 32)
            time.sleep(0.05)
            sock.close()

        threads = [
            threading.Thread(target=well_formed, args=(s,)) for s in seeds
        ]
        threads.append(threading.Thread(target=vanisher))
        threads.append(threading.Thread(target=garbage))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        for seed in seeds:
            assert results[seed]["stdout"] == serial[seed]["stdout"]
            assert results[seed]["trace"] == serial[seed]["trace"]
        assert daemon.frame_errors >= 1


class TestGracefulDrain:
    def test_drain_op_loses_zero_accepted_jobs(self):
        release = threading.Event()

        def slow(job, pool, token):
            release.wait(10)
            return {"n": job["seed"]}

        d = ServeDaemon(workers=2, queue_limit=8, executor=slow).start()
        try:
            results: dict[int, dict] = {}

            def submit(n):
                results[n] = _submit(d, record_job(seed=n))

            threads = [
                threading.Thread(target=submit, args=(n,)) for n in range(4)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while (
                d.supervisor.jobs_accepted < 4 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert d.supervisor.jobs_accepted == 4
            with ServeClient(d.address) as control:
                control.drain()
            release.set()
            for t in threads:
                t.join(timeout=30)
            # every accepted job completed AND delivered its response
            assert sorted(results) == [0, 1, 2, 3]
            assert [results[n]["n"] for n in range(4)] == [0, 1, 2, 3]
            # and the daemon refuses new connections now
            with pytest.raises(OSError):
                socket.create_connection(d.address, timeout=0.5)
        finally:
            release.set()
            d.stop()

    def test_sigterm_drains_and_exits_zero(self):
        """The acceptance gate: a TERM'd `repro serve` finishes what it
        accepted and exits 0."""
        proc, address = spawn_serve_process(workers=1, queue_limit=4)
        client = None
        try:
            client = ServeClient.connect(
                address,
                policy=BackoffPolicy(
                    attempts=6, base_delay=0.05, max_delay=0.4, jitter_seed=0
                ),
            )
            assert client.health()["state"] == "ready"
            result = client.submit(record_job(), timeout=60)
            assert result["exit"] == 0
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()
            if client is not None:
                client.close()
