"""The fault-injection harness: inject one planned fault, classify it.

:class:`FaultRunContext` holds a campaign's warm fixtures and classifies
one :class:`~repro.faults.plan.FaultSpec` at a time; a whole plan runs
through :func:`repro.campaign.run_faults_campaign` (``repro faults`` on
the CLI), inline at ``jobs=1``.  The platform's contract is that a
fault may cost data but never correctness: every run must end in

* ``recovered``        — the operation completed (salvage + prefix replay
                         succeeded; a delayed frame was still served);
* ``diagnosed:<what>`` — a *typed* diagnostic was produced (a doctor
                         classification, a :class:`TransportError`, …);
* ``not-triggered``    — the planned fault never fired (e.g. the run had
                         fewer non-deterministic native calls than the
                         plan's index).

Everything else is a harness finding: ``undetected`` (damage the format
layer failed to notice — a silent wrong answer waiting to happen),
``hang`` (no outcome within the watchdog), or ``unclassified:<Type>``
(a raw, untyped exception).  :attr:`FaultOutcome.ok` is False exactly
for such findings.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import record as api_record, replay_prefix, resume_replay
from repro.core.doctor import CLASS_CLEAN, CLASS_TRUNCATED, diagnose
from repro.core.tracelog import TraceLog
from repro.faults.inject import (
    InjectedFault,
    apply_checkpoint_fault,
    apply_trace_fault,
    arm_native_fault,
    remote_sabotage,
    send_faulted_request,
)
from repro.faults.plan import (
    LAYER_CHECKPOINT,
    LAYER_NATIVE,
    LAYER_REMOTE,
    LAYER_SERVE,
    LAYER_TRACE,
    LAYER_TRANSPORT,
    FaultSpec,
)
from repro.vm.errors import CheckpointConfigMismatch, VMError
from repro.vm.machine import VMConfig
from repro.vm.timerdev import SeededJitterTimer

#: outcomes that satisfy the recovery-or-typed-diagnostic contract
_OK_OUTCOMES = ("recovered", "not-triggered")

#: the tiny loopback campaign every remote fault runs: small enough to
#: finish in seconds, large enough to span several shards
_REMOTE_BOUND = 1
_REMOTE_BUDGET = 8
_REMOTE_JOBS = 2
#: aggressive client timings — the faults are armed to trip exactly these
_REMOTE_WATCHDOG = 2.0
_REMOTE_HELLO_TIMEOUT = 0.5


@dataclass
class FaultOutcome:
    spec: FaultSpec
    outcome: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in _OK_OUTCOMES or self.outcome.startswith("diagnosed:")


class FaultRunContext:
    """The warm per-process fixtures a fault campaign runs against, and
    the injection of one fault against them.

    Setting up a campaign is the expensive part — a clean baseline
    recording, optionally a checkpointed replay (for the checkpoint
    layer) and a live debugger server (for the transport layer).  Each
    campaign worker (the parent itself at ``jobs=1``) builds one context
    and amortises it across its shard instead of cold-starting per fault
    (the iReplayer warm-VM model applied to fault injection).  The
    program is built once too (:attr:`program`): programs are immutable,
    so every injection runs that one object on a VM of its own.
    Everything the context builds is deterministic in (*seed*, workload,
    config), so two contexts in two processes inject against
    byte-identical baselines.

    Use as a context manager; :meth:`run_spec` classifies one fault.
    """

    def __init__(
        self,
        *,
        seed: int,
        layers: "tuple[str, ...] | frozenset[str]",
        workload: str,
        workload_kwargs: dict | None = None,
        config: VMConfig | None = None,
        workdir: str | Path,
        fault_timeout: float = 30.0,
    ):
        from repro.workloads.registry import get_workload

        spec = get_workload(workload)
        #: the caller's build overrides: the remote and serve families
        #: hand them on, and each re-resolves the workload's defaults
        self.overrides = dict(workload_kwargs or {})
        kwargs = spec.merged_kwargs(self.overrides)
        self.program = spec.build(kwargs)
        self.workload_name = spec.name
        self._extra_meta = {"workload": spec.name, "workload_kwargs": kwargs}
        self.seed = seed
        self.layers = frozenset(layers)
        self.config = config or VMConfig(semispace_words=200_000)
        self.workdir = Path(workdir)
        self.fault_timeout = fault_timeout
        self.baseline_blob: bytes | None = None
        self._ckpt: "_CheckpointBaseline | None" = None
        self._server = None
        self._remote_ref: "str | None" = None
        self._serve: "_ServeFixture | None" = None

    def __enter__(self) -> "FaultRunContext":
        self.workdir.mkdir(parents=True, exist_ok=True)

        # one clean baseline recording: the artifact the trace faults damage
        baseline_path = self.workdir / "baseline.djv"
        baseline_run = api_record(
            self.program,
            config=self.config,
            timer=SeededJitterTimer(self.seed, 40, 160),
            out=baseline_path,
            extra_meta=self._extra_meta,
        )
        self.baseline_blob = baseline_path.read_bytes()

        # one clean checkpointed replay: the sidecar the checkpoint faults
        # damage, plus the known-good result every resumed run must match
        # (any mismatch is a silent wrong-state restore — the worst finding)
        if LAYER_CHECKPOINT in self.layers:
            self._ckpt = _build_checkpoint_baseline(
                baseline_path, baseline_run, self.program, self.config
            )

        # one debugger server, reused by every transport fault: surviving
        # all of them on a single serve loop IS the hardening claim
        if LAYER_TRANSPORT in self.layers:
            from repro.debugger import Debugger, DebuggerServer, ReplaySession

            session = ReplaySession(
                self.program,
                TraceLog.load(baseline_path),
                config=self.config,
            )
            self._server = DebuggerServer(Debugger(session)).start()

        # one clean reference digest for the remote family: the merged
        # report every sabotaged loopback campaign must reproduce exactly
        # (jobs=1 inline — no workers, nothing to perturb)
        if LAYER_REMOTE in self.layers:
            from repro.campaign.jobs import run_explore_campaign

            self._remote_ref = run_explore_campaign(
                self.workload_name,
                overrides=self.overrides,
                bound=_REMOTE_BOUND,
                budget=_REMOTE_BUDGET,
                seed=self.seed,
                config=self.config,
                jobs=1,
            ).digest()

        # one loopback serve daemon, attacked by every serve fault on a
        # single accept loop, plus the clean reference result every
        # follow-up well-formed job must reproduce byte-for-byte
        if LAYER_SERVE in self.layers:
            self._serve = _ServeFixture.start(
                self.workload_name, self.overrides, self.seed
            )
        return self

    def __exit__(self, *exc) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._serve is not None:
            self._serve.stop()
            self._serve = None

    def run_spec(self, fault_spec: FaultSpec) -> FaultOutcome:
        """Inject one planned fault (under the watchdog) and classify it."""
        if fault_spec.layer not in self.layers:
            raise ValueError(
                f"context built without layer {fault_spec.layer!r} "
                f"(have {sorted(self.layers)})"
            )
        return FaultOutcome(fault_spec, *self._run_one_guarded(fault_spec))

    def _run_one_guarded(self, spec: FaultSpec) -> tuple[str, str]:
        """One fault under the watchdog: a fault that produces no outcome
        in :attr:`fault_timeout` seconds is itself a finding (``hang``)."""
        box: dict = {}

        def _runner():
            try:
                box["outcome"] = self._run_one(spec)
            except VMError as exc:
                box["outcome"] = (f"diagnosed:{type(exc).__name__}", str(exc))
            except Exception as exc:  # noqa: BLE001 - the whole point
                box["outcome"] = (f"unclassified:{type(exc).__name__}", str(exc))

        thread = threading.Thread(target=_runner, daemon=True)
        thread.start()
        thread.join(self.fault_timeout)
        if thread.is_alive():
            return "hang", f"no outcome within {self.fault_timeout}s"
        return box["outcome"]

    def _run_one(self, spec: FaultSpec) -> tuple[str, str]:
        runner = {
            LAYER_TRACE: self._run_trace_fault,
            LAYER_NATIVE: self._run_native_fault,
            LAYER_CHECKPOINT: self._run_checkpoint_fault,
            LAYER_REMOTE: self._run_remote_fault,
            LAYER_SERVE: self._run_serve_fault,
            LAYER_TRANSPORT: self._run_transport_fault,
        }[spec.layer]
        return runner(spec)

    def _run_trace_fault(self, spec: FaultSpec) -> tuple[str, str]:
        damaged = apply_trace_fault(self.baseline_blob, spec)
        path = self.workdir / f"fault-{spec.index:03d}.djv"
        path.write_bytes(damaged)
        report = diagnose(path, program=self.program, config=self.config)
        path.unlink()
        if report.classification == CLASS_CLEAN:
            return (
                "undetected",
                f"{len(self.baseline_blob) - len(damaged) or 'bit'}-level damage "
                f"loaded and replayed as clean — silent corruption",
            )
        if report.classification == CLASS_TRUNCATED and report.prefix_replays:
            return "recovered", f"salvaged prefix replays ({report.detail})"
        return f"diagnosed:{report.classification}", report.detail

    def _run_checkpoint_fault(self, spec: FaultSpec) -> tuple[str, str]:
        """Damage a copy of the checkpoint sidecar per *spec* and resume
        the replay through the fallback ladder.  Contract: the resumed run
        either reproduces the clean result exactly (``recovered``, possibly
        from cycle zero) or dies with a typed checkpoint diagnostic — a
        resumed run that *completes with a different result* restored
        silently-wrong state, the one failure the digest verification
        exists to prevent."""
        from repro.core.checkpoint import sidecar_path

        trace_copy = self.workdir / f"ckpt-{spec.index:03d}.djv"
        trace_copy.write_bytes(self.baseline_blob)
        sidecar = sidecar_path(trace_copy)
        tmp = Path(str(sidecar) + ".tmp")
        damaged, destination = apply_checkpoint_fault(self._ckpt.blob, spec)
        if destination == "sidecar":
            sidecar.write_bytes(damaged)
        elif destination == "tmp":
            tmp.write_bytes(damaged)
        # "absent": neither file exists — resume must go from cycle zero
        try:
            resumed = resume_replay(
                self.program,
                TraceLog.load(trace_copy),
                checkpoints=sidecar,
                config=self.config,
            )
        except CheckpointConfigMismatch as exc:
            return "diagnosed:checkpoint-config-mismatch", str(exc)
        finally:
            for p in (trace_copy, sidecar, tmp):
                p.unlink(missing_ok=True)
        clean = self._ckpt.result
        got = resumed.result
        if (
            got.heap_digest != clean.heap_digest
            or got.output_text != clean.output_text
            or got.cycles != clean.cycles
        ):
            return (
                "undetected",
                f"resumed run diverged from the clean replay "
                f"(cycles {got.cycles} vs {clean.cycles}) — silent wrong-state "
                f"restore past the digest check",
            )
        origin = (
            "from cycle zero"
            if resumed.from_zero
            else f"from checkpoint @{resumed.resumed_from}"
        )
        return "recovered", f"resumed {origin}; result matches clean replay"

    def _run_remote_fault(self, spec: FaultSpec) -> tuple[str, str]:
        """Run the tiny loopback campaign against a serve daemon armed
        with *spec*.

        Contract: whatever the armed fault does — a dropped, truncated or
        corrupted reply, a killed or stalled daemon, a slow-loris
        handshake — the pool's reassignment/degradation ladder must
        deliver the exact reference report (``recovered``).  A diverging
        digest means a host fault leaked into merged results
        (``undetected``) — the one failure multi-host sharding must never
        introduce.
        """
        from repro.campaign.jobs import run_explore_campaign
        from repro.campaign.pool import RemoteWorkerPool
        from repro.core.framing import BackoffPolicy
        from repro.serve import spawn_serve_process

        # the one daemon answers every item of the budget-minus-baseline
        # work list, so that is the span a reply position falls in
        sabotage = remote_sabotage(spec, replies=_REMOTE_BUDGET - 1)
        proc, address = spawn_serve_process(extra_args=["--sabotage", sabotage])
        try:
            report = run_explore_campaign(
                self.workload_name,
                overrides=self.overrides,
                bound=_REMOTE_BOUND,
                budget=_REMOTE_BUDGET,
                seed=self.seed,
                config=self.config,
                jobs=_REMOTE_JOBS,
                watchdog=_REMOTE_WATCHDOG,
                backend=RemoteWorkerPool(
                    [address],
                    backoff=BackoffPolicy(attempts=4, base_delay=0.05, max_delay=0.3),
                    hello_timeout=_REMOTE_HELLO_TIMEOUT,
                    breaker_threshold=2,
                ),
            )
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        if report.digest() != self._remote_ref:
            return (
                "undetected",
                f"sabotaged remote campaign digest {report.digest()} diverged "
                f"from the clean reference {self._remote_ref} — a worker fault "
                f"perturbed merged results",
            )
        kinds = sorted({i.kind for i in report.incidents})
        how = (
            f"absorbed via {', '.join(kinds)}"
            if kinds
            else "absorbed without a recorded incident"
        )
        return "recovered", f"report digest matches the clean reference; {how}"

    def _run_native_fault(self, spec: FaultSpec) -> tuple[str, str]:
        (fail_at,) = spec.params
        out = self.workdir / f"native-{spec.index:03d}.djv"
        tmp = out.with_name(out.name + ".tmp")
        try:
            api_record(
                self.program,
                config=self.config,
                timer=SeededJitterTimer(self.seed, 40, 160),
                out=out,
                vm_hook=lambda vm: arm_native_fault(vm, fail_at),
            )
            return (
                "not-triggered",
                f"run completed before non-deterministic native call #{fail_at}",
            )
        except InjectedFault as exc:
            # the record run died exactly as a real environment failure
            # would; the crash-consistency contract says the tmp file
            # salvages
            trace = TraceLog.salvage(tmp)
            prefix = replay_prefix(self.program, trace, config=self.config)
            return (
                "recovered",
                f"{exc}; salvaged tmp replays "
                f"({prefix.words_consumed} value words consumed)",
            )
        finally:
            for p in (out, tmp):
                p.unlink(missing_ok=True)

    def _run_serve_fault(self, spec: FaultSpec) -> tuple[str, str]:
        """Attack the loopback serve daemon per *spec*.

        Contract: the hostile act costs at most its own job and
        connection — it is absorbed outright (``recovered``) or lands in a
        typed diagnostic the client can read (``diagnosed:<Type>``) — and
        a follow-up well-formed job still returns a result byte-identical
        to the clean reference.  Any divergence is ``undetected``: a
        hostile client perturbed an unrelated client's replay result.
        """
        runner = {
            "serve-client-vanish": _serve_client_vanish,
            "serve-poison-job": _serve_poison_job,
            "serve-hung-workload": _serve_hung_workload,
            "serve-deadline-exceeded": _serve_deadline_exceeded,
            "serve-queue-storm": _serve_queue_storm,
            "serve-kill-during-drain": _serve_kill_during_drain,
        }[spec.kind]
        return runner(spec, self._serve)

    def _run_transport_fault(self, spec: FaultSpec) -> tuple[str, str]:
        return send_faulted_request(self._server.address, spec)


@dataclass
class _CheckpointBaseline:
    """Shared fixtures for the checkpoint fault family: the sealed
    sidecar bytes every spec damages its own copy of, and the clean
    replay result every resumed run must reproduce exactly."""

    blob: bytes
    result: object  # RunResult
    every: int


def _build_checkpoint_baseline(
    baseline_path: Path, baseline_run, program, config
) -> _CheckpointBaseline:
    from repro.api import replay as api_replay
    from repro.core.checkpoint import sidecar_path

    sidecar = sidecar_path(baseline_path)
    # several checkpoints regardless of workload length, but never a
    # degenerate every-cycle cadence
    every = max(200, baseline_run.result.cycles // 6)
    result = api_replay(
        program,
        TraceLog.load(baseline_path),
        config=config,
        checkpoint_every=every,
        checkpoint_out=sidecar,
    )
    blob = sidecar.read_bytes()
    sidecar.unlink()  # each fault places its own damaged copy
    return _CheckpointBaseline(blob=blob, result=result, every=every)


# ---------------------------------------------------------------------------
# the serve fault family


@dataclass
class _ServeFixture:
    """Shared fixtures for the serve fault family: one loopback
    :class:`~repro.serve.ServeDaemon` that every armed fault attacks —
    surviving all of them on a single accept loop IS the robustness
    claim — plus the well-formed record job and its clean reference
    result.  After each attack the fixture re-submits the job; anything
    but a byte-identical answer means the hostile client perturbed
    other clients' replay results, the one failure a shared daemon must
    never allow."""

    daemon: object
    job: dict
    reference: dict
    seed: int

    @property
    def address(self) -> "tuple[str, int]":
        return self.daemon.address

    @classmethod
    def start(
        cls, workload: str, overrides: "dict | None", seed: int
    ) -> "_ServeFixture":
        from repro.serve import ServeClient, ServeDaemon

        daemon = ServeDaemon(workers=2, queue_limit=8).start()
        job = {
            "kind": "record",
            "workload": workload,
            "workload_args": dict(overrides or {}),
            "seed": seed,
            "out_name": "serve-ref.djv",
        }
        try:
            with ServeClient(daemon.address) as client:
                reference = client.submit(job, timeout=60)
        except BaseException:
            daemon.stop()
            raise
        return cls(daemon=daemon, job=job, reference=reference, seed=seed)

    def stop(self) -> None:
        self.daemon.stop()

    def check_clean(self) -> str:
        """Submit the well-formed job again; empty string when the
        result is byte-identical to the clean reference."""
        from repro.serve import ServeClient

        with ServeClient(self.address) as client:
            result = client.submit(self.job, timeout=60)
        for key in ("stdout", "stderr", "exit", "trace"):
            if result.get(key) != self.reference.get(key):
                return (
                    f"follow-up well-formed job diverged from the clean "
                    f"reference on {key!r} — the armed fault perturbed an "
                    f"unrelated job"
                )
        return ""


#: the infinite guest loop behind ``serve-hung-workload``: it never
#: finishes, but its backedge yield point keeps producing engine safe
#: points, so cooperative deadline cancellation gets its shot.  (The
#: loop needs a body: a bare ``loop: goto loop`` jumps back past its
#: own backedge yield point and would never reach a safe point.)
_HUNG_GUEST_SRC = """\
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


def _serve_client_vanish(
    spec: FaultSpec, serve: "_ServeFixture"
) -> tuple[str, str]:
    import socket

    from repro.serve.protocol import encode_serve_message

    (frac,) = spec.params
    with socket.create_connection(serve.address, timeout=10) as sock:
        sock.sendall(encode_serve_message({"op": "submit", "job": serve.job}))
        time.sleep(0.02 + frac * 0.2)
        # vanish: the reply is never read; the daemon's send must fail
        # quietly and cost exactly this connection
    mismatch = serve.check_clean()
    if mismatch:
        return "undetected", mismatch
    return (
        "recovered",
        "daemon absorbed a client that vanished mid-job; follow-up job "
        "matches the clean reference",
    )


def _serve_poison_job(
    spec: FaultSpec, serve: "_ServeFixture"
) -> tuple[str, str]:
    import socket

    from repro.serve import ServeClient, ServeError

    (variant,) = spec.params
    if variant == 0:
        # raw garbage: an impossible frame length followed by noise
        before = serve.daemon.frame_errors
        with socket.create_connection(serve.address, timeout=10) as sock:
            sock.sendall(b"\xff\xff\xff\xff" + b"\xa5" * 64)
            sock.recv(65536)  # the typed error frame (or a clean close)
        if serve.daemon.frame_errors == before:
            return (
                "undetected",
                "garbage bytes were accepted as a frame — the codec "
                "failed to notice",
            )
        how = "garbage bytes landed in a typed frame error"
    elif variant == 1:
        # a CRC-valid frame whose payload is not a message dict at all
        with ServeClient(serve.address) as client:
            reply = client.request(["not", "a", "message"])
        if reply.get("op") != "error":
            return "undetected", f"a non-dict frame was answered with {reply!r}"
        how = "a CRC-valid non-message frame got a typed in-band error"
    else:
        # a malformed job dict: validation must answer, never a worker
        # traceback
        with ServeClient(serve.address) as client:
            try:
                client.submit({"kind": "record"})  # names no program at all
                return "undetected", "a malformed job dict was accepted and ran"
            except ServeError as exc:
                how = f"malformed job dict rejected ({exc})"
    mismatch = serve.check_clean()
    if mismatch:
        return "undetected", mismatch
    return "recovered", f"{how}; follow-up job matches the clean reference"


def _serve_hung_workload(
    spec: FaultSpec, serve: "_ServeFixture"
) -> tuple[str, str]:
    from repro.serve import JobDeadlineExceeded, ServeClient

    (deadline_s,) = spec.params
    job = {
        "kind": "record",
        "source": _HUNG_GUEST_SRC,
        "name": "hung",
        "seed": serve.seed,
        "deadline": deadline_s,
        "out_name": "hung.djv",
    }
    with ServeClient(serve.address) as client:
        try:
            client.submit(job, timeout=deadline_s + 30)
            return (
                "undetected",
                "an infinite guest loop returned a result — the deadline "
                "never fired",
            )
        except JobDeadlineExceeded as exc:
            detail = str(exc)
    mismatch = serve.check_clean()
    if mismatch:
        return "undetected", mismatch
    return "diagnosed:JobDeadlineExceeded", detail


def _serve_deadline_exceeded(
    spec: FaultSpec, serve: "_ServeFixture"
) -> tuple[str, str]:
    from repro.serve import JobDeadlineExceeded, ServeClient

    (deadline_s,) = spec.params
    job = dict(serve.job)
    job["deadline"] = deadline_s
    with ServeClient(serve.address) as client:
        try:
            result = client.submit(job, timeout=30)
        except JobDeadlineExceeded as exc:
            detail = str(exc)
        else:
            if result.get("trace") != serve.reference.get("trace"):
                return (
                    "undetected",
                    "a job racing its deadline returned a non-reference "
                    "trace",
                )
            return (
                "not-triggered",
                f"the job finished inside its {deadline_s:g}s deadline",
            )
    mismatch = serve.check_clean()
    if mismatch:
        return "undetected", mismatch
    return "diagnosed:JobDeadlineExceeded", detail


def _serve_queue_storm(
    spec: FaultSpec, serve: "_ServeFixture"
) -> tuple[str, str]:
    from repro.core.framing import BackoffPolicy
    from repro.serve import ServeClient, ServeDaemon

    (burst,) = spec.params
    # a dedicated tiny daemon: one worker, two admission slots — the
    # storm must overflow admission, not merely queue up politely
    daemon = ServeDaemon(workers=1, queue_limit=2).start()
    try:
        job = {"kind": "trace-stats", "trace": serve.reference["trace"]}
        with ServeClient(daemon.address) as client:
            reference = client.submit(job, timeout=30)
        results: "list[dict | None]" = [None] * burst
        failures: list[str] = []
        barrier = threading.Barrier(burst)

        def _one_client(i: int) -> None:
            try:
                with ServeClient(daemon.address) as client:
                    barrier.wait(timeout=10)
                    results[i] = client.submit_with_retry(
                        job,
                        policy=BackoffPolicy(
                            attempts=10,
                            base_delay=0.02,
                            max_delay=0.3,
                            jitter_seed=i,
                        ),
                    )
            except Exception as exc:  # noqa: BLE001 - classified below
                failures.append(f"client {i}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=_one_client, args=(i,), daemon=True)
            for i in range(burst)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        rejected = daemon.supervisor.jobs_rejected
    finally:
        daemon.stop()
    if failures:
        return (
            "starved",
            f"{len(failures)}/{burst} storm clients never landed a job: "
            + "; ".join(failures[:3]),
        )
    if any(thread.is_alive() for thread in threads):
        return "hang", "storm clients still waiting after 20s"
    divergent = [i for i, r in enumerate(results) if r != reference]
    if divergent:
        return (
            "undetected",
            f"storm client(s) {divergent} got results diverging from the "
            f"serial reference — overload perturbed job results",
        )
    if rejected == 0:
        return (
            "not-triggered",
            f"a burst of {burst} never overflowed the 2-slot queue",
        )
    return (
        "recovered",
        f"{rejected} typed overloaded rejection(s); all {burst} storm "
        f"jobs landed on retry with the serial reference result",
    )


def _serve_kill_during_drain(
    spec: FaultSpec, serve: "_ServeFixture"
) -> tuple[str, str]:
    import signal

    from repro.core.framing import BackoffPolicy, TransportError
    from repro.serve import ServeClient, ServeError, spawn_serve_process

    (delay_s,) = spec.params
    # a subprocess daemon: the kill must take a whole process, and the
    # shared loopback fixture has to survive the rest of the campaign
    proc, address = spawn_serve_process(workers=1, queue_limit=4)
    box: dict = {}
    client = None
    try:
        client = ServeClient.connect(
            address,
            policy=BackoffPolicy(attempts=6, base_delay=0.05, max_delay=0.4),
        )

        def _inflight() -> None:
            try:
                box["result"] = client.submit(serve.job, timeout=30)
            except Exception as exc:  # noqa: BLE001 - classified below
                box["error"] = exc

        thread = threading.Thread(target=_inflight, daemon=True)
        thread.start()
        time.sleep(0.1)  # let the job reach admission
        proc.send_signal(signal.SIGTERM)  # the graceful drain begins
        time.sleep(delay_s)
        proc.kill()  # ... and the crash lands mid-drain
        thread.join(timeout=20)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
        if client is not None:
            client.close()
    if "result" in box:
        if box["result"].get("trace") != serve.reference.get("trace"):
            return (
                "undetected",
                "the draining daemon delivered a non-reference trace "
                "before the kill landed",
            )
        return (
            "recovered",
            f"the drain delivered the in-flight job before the kill "
            f"landed {delay_s:g}s later",
        )
    exc = box.get("error")
    if exc is None:
        return "hang", "in-flight client got neither a result nor an error"
    if isinstance(exc, (TransportError, ServeError)):
        return f"diagnosed:{type(exc).__name__}", str(exc)
    return f"unclassified:{type(exc).__name__}", str(exc)
