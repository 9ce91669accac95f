"""Job supervision: admission control, deadlines, and worker restart.

The supervisor is the robustness envelope around job execution.  Its
contract, in order of the failure ladder:

* **Admission** is bounded: at most ``queue_limit`` jobs may be pending
  (queued + running) at once.  Beyond that, :meth:`Supervisor.submit`
  raises a typed :class:`~repro.serve.protocol.JobRejected` carrying
  ``retry_after`` — overload is a *first-class answer*, never a hang or
  an unbounded queue.
* **Deadlines** are cooperative: each job gets a
  :class:`CancelToken`; executors install its check at engine safe
  points (``vm_hook``) and sweep boundaries (the explorer's ``check``
  seam), so even an infinite guest loop — which keeps hitting safe
  points thanks to the preemption timer — lands in a typed
  :class:`~repro.serve.protocol.JobDeadlineExceeded`, not a hang.
* **Degradation** is warm → cold → typed failure: a job that dies with
  an *unexpected* (non-VMError) exception invalidates the shared
  session pool — the crashed session is rebuilt, not reused — and is
  retried once against a throwaway cold pool.  Only if the cold run
  also dies does the client get a typed two-strikes diagnostic.
* **Supervision**: worker threads catch only ``Exception``.  Anything
  harsher (``SystemExit`` — the crash model) kills the thread; the
  supervisor notices on the next :meth:`ensure_workers` and starts a
  replacement (``worker_restarts`` counts them), after a ``finally``
  block has delivered a typed failure to the waiting client so no one
  blocks on a dead worker.
* **Drain** finishes what was admitted: :meth:`drain` stops admission
  (typed ``draining`` rejections) and waits for every accepted job to
  complete and deliver — graceful shutdown loses zero accepted jobs.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import closing

from repro.serve.protocol import (
    JobCancelled,
    JobDeadlineExceeded,
    JobRejected,
    ServeError,
)
from repro.serve.sessions import SessionPool


class CancelToken:
    """Cooperative cancellation: a check callable that raises typed
    errors once the deadline passes or a cancel lands.

    ``install`` is the ``vm_hook``: it puts :meth:`check` on the
    engine's safe-point hook, where the complete machine state is
    committed — cancellation can never tear a job mid-instruction.
    """

    def __init__(self, deadline: "float | None" = None, clock=time.monotonic):
        self.budget = deadline
        self.clock = clock
        self.deadline_at = None if deadline is None else clock() + deadline
        self._cancelled = threading.Event()

    def cancel(self) -> None:
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def check(self, engine=None) -> None:
        """Raise the typed cancellation error if one is due (the engine
        argument makes this directly usable as a safe-point hook)."""
        if self._cancelled.is_set():
            raise JobCancelled("job cancelled by the daemon")
        if self.deadline_at is not None and self.clock() > self.deadline_at:
            raise JobDeadlineExceeded(
                f"job exceeded its {self.budget:g}s deadline "
                f"(cancelled at an engine safe point)"
            )

    def install(self, vm) -> None:
        """The ``vm_hook`` seam: check at every engine safe point."""
        vm.engine.safepoint_hook = self.check


class PendingJob:
    """One admitted job: the waitable slot its result lands in."""

    def __init__(self, job: dict, token: CancelToken, on_done):
        self.job = job
        self.token = token
        self._on_done = on_done
        self._done = threading.Event()
        self.reply: "dict | None" = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def deliver(self, reply: dict) -> None:
        if self._done.is_set():  # pragma: no cover - single-delivery guard
            return
        self.reply = reply
        self._done.set()
        self._on_done()

    def wait(self, timeout: "float | None" = None) -> dict:
        if not self._done.wait(timeout):
            self.token.cancel()
            from repro.serve.protocol import error_reply

            return error_reply(
                ServeError(f"job produced no result within {timeout:g}s")
            )
        return self.reply


_SHUTDOWN = object()


class Supervisor:
    """A bounded queue feeding supervised worker threads."""

    def __init__(
        self,
        pool: "SessionPool | None",
        *,
        workers: int = 2,
        queue_limit: int = 8,
        retry_after: float = 0.25,
        default_deadline: "float | None" = None,
        log=None,
        executor=None,
        clock=time.monotonic,
    ):
        self.pool = pool
        self.workers = max(1, workers)
        self.queue_limit = max(1, queue_limit)
        self.retry_after = retry_after
        self.default_deadline = default_deadline
        self.log = log if log is not None else (lambda message: None)
        self.clock = clock
        if executor is None:
            from repro.serve.jobs import run_job

            executor = run_job
        self._executor = executor
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._pending = 0
        self._live: "list[PendingJob]" = []
        self._idle = threading.Event()
        self._idle.set()
        self.draining = False
        self._threads: list[threading.Thread] = []
        self._started = 0
        self.jobs_accepted = 0
        self.jobs_completed = 0
        self.jobs_rejected = 0
        self.worker_restarts = 0
        self.degraded_cold = 0
        self.ensure_workers()

    # ------------------------------------------------------------------
    # admission

    def submit(self, job: dict) -> PendingJob:
        """Admit one validated job or raise a typed
        :class:`JobRejected` (``draining`` / ``overloaded``)."""
        with self._lock:
            if self.draining:
                self.jobs_rejected += 1
                raise JobRejected(
                    "daemon is draining: no new jobs are admitted",
                    reason="draining",
                    retry_after=self.retry_after * 4,
                )
            if self._pending >= self.queue_limit:
                self.jobs_rejected += 1
                raise JobRejected(
                    f"admission queue full ({self._pending} job(s) pending, "
                    f"limit {self.queue_limit})",
                    reason="overloaded",
                    retry_after=self._retry_after_locked(),
                )
            self._pending += 1
            self._idle.clear()
            self.jobs_accepted += 1
        deadline = job.get("deadline")
        if deadline is None:
            deadline = self.default_deadline
        token = CancelToken(deadline, clock=self.clock)
        pending = PendingJob(job, token, self._job_done)
        with self._lock:
            self._live.append(pending)
        self.ensure_workers()
        self._queue.put(pending)
        return pending

    def _retry_after_locked(self) -> float:
        # scale the hint with depth: a storm backs off harder than a blip
        return self.retry_after * (1.0 + self._pending / self.workers)

    def _job_done(self) -> None:
        with self._lock:
            self._pending -= 1
            self.jobs_completed += 1
            self._live = [p for p in self._live if not p.done]
            if self._pending == 0:
                self._idle.set()

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    # ------------------------------------------------------------------
    # the worker fleet

    def ensure_workers(self) -> None:
        """Start missing workers; a dead one (SystemExit took it) is
        replaced, never resurrected."""
        with self._lock:
            if self.draining:
                return
            self._threads = [t for t in self._threads if t.is_alive()]
            missing = self.workers - len(self._threads)
            if missing > 0 and self._started > 0:
                self.worker_restarts += missing
                self.log(f"restarting {missing} crashed worker(s)")
            for _ in range(max(0, missing)):
                self._started += 1
                thread = threading.Thread(
                    target=self._worker_loop,
                    daemon=True,
                    name=f"repro-serve-worker-{self._started}",
                )
                self._threads.append(thread)
                thread.start()

    def _worker_loop(self) -> None:
        while True:
            pending = self._queue.get()
            if pending is _SHUTDOWN:
                return
            try:
                self._run_one(pending)
            finally:
                # even a SystemExit mid-job (which kills this thread and
                # trips the supervisor's restart path) leaves the client
                # a typed answer instead of a wait on a dead worker
                if not pending.done:
                    if self.pool is not None:
                        self.pool.invalidate()
                    from repro.serve.protocol import error_reply

                    pending.deliver(
                        error_reply(
                            ServeError(
                                "worker crashed mid-job; session pool "
                                "invalidated and the worker replaced"
                            )
                        )
                    )

    def _run_one(self, pending: PendingJob) -> None:
        from repro.serve.protocol import error_reply

        job, token = pending.job, pending.token
        try:
            # a job that aged out while queued is cancelled before any work
            token.check()
            result = self._executor(job, self.pool, token)
        except ServeError as exc:
            pending.deliver(error_reply(exc))
            return
        except Exception as exc:  # noqa: BLE001 - degradation ladder
            # warm session state is now suspect: rebuild it, retry cold
            if self.pool is not None:
                self.pool.invalidate()
            self.degraded_cold += 1
            self.log(
                f"warm run died ({type(exc).__name__}: {exc}); "
                f"retrying on a cold session"
            )
            try:
                with closing(SessionPool(max_entries=2)) as cold:
                    result = self._executor(job, cold, token)
            except ServeError as cold_exc:
                pending.deliver(error_reply(cold_exc))
                return
            except Exception as cold_exc:  # noqa: BLE001 - two strikes
                pending.deliver(
                    error_reply(
                        ServeError(
                            f"job failed warm and cold: "
                            f"{type(cold_exc).__name__}: {cold_exc}"
                        )
                    )
                )
                return
        pending.deliver({"op": "result", "ok": True, "result": result})

    # ------------------------------------------------------------------
    # drain / shutdown

    def drain(self, grace: float = 60.0) -> bool:
        """Stop admitting, wait for every accepted job to finish.

        True when the queue drained inside *grace* seconds; False means
        the grace period expired with jobs still pending (they were
        cancelled via their tokens so they land in typed errors)."""
        with self._lock:
            self.draining = True
        drained = self._idle.wait(grace)
        if not drained:
            # cancel stragglers cooperatively; their clients get typed
            # JobCancelled, not silence
            with self._lock:
                stragglers = list(self._live)
            for pending in stragglers:
                pending.token.cancel()
            drained = self._idle.wait(min(grace, 10.0))
        return drained

    def shutdown(self, grace: float = 60.0) -> None:
        """Drain, then stop and join every worker thread."""
        self.drain(grace)
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []

    def stats(self) -> dict:
        with self._lock:
            return {
                "pending": self._pending,
                "workers": sum(1 for t in self._threads if t.is_alive()),
                "queue_limit": self.queue_limit,
                "jobs_accepted": self.jobs_accepted,
                "jobs_completed": self.jobs_completed,
                "jobs_rejected": self.jobs_rejected,
                "worker_restarts": self.worker_restarts,
                "degraded_cold": self.degraded_cold,
                "draining": self.draining,
            }
