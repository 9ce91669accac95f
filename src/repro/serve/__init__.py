"""`repro serve`: the supervised, long-lived replay service.

A daemon (:class:`ServeDaemon`) that keeps replay state warm across
requests (:class:`SessionPool`), wraps every job in a robustness
envelope (:class:`Supervisor`: bounded admission, per-job deadlines
with cooperative cancellation at engine safe points, warm→cold
degradation, graceful drain), and speaks the platform's length-framed
transport to a retry-aware client (:class:`ServeClient`).
"""

import importlib

#: each re-exported name and the submodule that defines it: imported on
#: first use (PEP 562), so ``import repro.serve.protocol`` — what a
#: campaign worker needs — loads neither the daemon nor the client
_EXPORTS = {
    "ServeDaemon": "daemon",
    "spawn_serve_process": "daemon",
    "ServeClient": "client",
    "SessionPool": "sessions",
    "Supervisor": "supervisor",
    "CancelToken": "supervisor",
    "run_job": "jobs",
    "ServeError": "protocol",
    "JobRejected": "protocol",
    "JobDeadlineExceeded": "protocol",
    "JobCancelled": "protocol",
    "JOB_KINDS": "protocol",
    "SERVE_PROTOCOL_VERSION": "protocol",
    "validate_job": "protocol",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
