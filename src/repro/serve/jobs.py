"""The daemon's job adapter: run one validated job on the shared bodies.

Every job kind executes in :mod:`repro.jobs`, the same code the CLI
commands run, on the daemon's warm :class:`SessionPool` and with the
:class:`~repro.serve.supervisor.CancelToken` as the VM hook.  What is
left here is only what a network job needs and a CLI run does not:
trace bytes in and out through a temp file, the client's label for
that file in doctor output, and serve-typed errors (deadline, cancel)
propagated to the supervisor rather than reported as an exit status.

A ``campaign-item`` job runs in :mod:`repro.campaign.jobs` instead, on
the warm item runner the pool leases for its campaign payload.
"""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import closing
from pathlib import Path

from repro.jobs import EXECUTORS, error_exit
from repro.serve.protocol import ServeError
from repro.serve.sessions import SessionPool
from repro.vm.errors import VMError


def run_job(job: dict, pool: "SessionPool | None", token) -> dict:
    """Execute one validated job; return its result dict.

    The result always carries ``stdout`` (byte-identical to the CLI
    one-shot), ``stderr`` (the CLI's error line, empty on success) and
    ``exit`` (the CLI status tier); record/explore jobs that wrote a
    trace add its ``trace`` bytes.  A campaign item's result is its
    item runner's dict instead."""
    if pool is None:
        with closing(SessionPool(max_entries=2)) as cold:
            return run_job(job, cold, token)
    if job["kind"] == "campaign-item":
        return run_campaign_item(job, pool)
    out, err = io.StringIO(), io.StringIO()
    fd, path = tempfile.mkstemp(suffix=".djv")
    os.close(fd)
    try:
        # validate_job lets only the kinds that read a trace carry one;
        # the others (record, explore) write theirs to the same file
        reads_trace = "trace" in job
        if reads_trace:
            Path(path).write_bytes(job["trace"])
        try:
            code = EXECUTORS[job["kind"]](job, out, pool, path, token)
        except ServeError:
            raise
        except VMError as exc:
            code = error_exit(exc, err)
        written = b"" if reads_trace else Path(path).read_bytes()
    finally:
        Path(path).unlink(missing_ok=True)
        Path(path + ".tmp").unlink(missing_ok=True)
    stdout = out.getvalue()
    if job["kind"] == "doctor" and job.get("trace_name"):
        # the report names the trace by its path: print the client's
        stdout = stdout.replace(path, job["trace_name"])
    result = {"stdout": stdout, "stderr": err.getvalue(), "exit": code}
    if written:
        result["trace"] = written
    return result


def run_campaign_item(job: dict, pool: SessionPool) -> dict:
    """One campaign item on the leased warm runner.  An item that raises
    becomes an ``error`` result, exactly as in a local fork worker, so a
    remote host and a local fork report the same thing."""
    with pool.campaign_runner(job["campaign"]) as runner:
        try:
            return runner.run(job["item"])
        except Exception as exc:  # noqa: BLE001 - per-item containment
            return {"error": f"{type(exc).__name__}: {exc}"}
