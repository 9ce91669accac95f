"""The `repro serve` wire protocol: job schema, typed errors, codec.

The serve daemon rides the platform's one wire, :mod:`repro.core.framing`:
u32-big-endian length-prefixed frames whose payload is a CRC32 and one
message in the typed tagged codec (None, bools, ints, floats, strings,
bytes, lists, tuples and dicts — nothing that runs code when decoded).
A frame that fails its CRC or does not decode gets a typed in-band
``error`` and the connection stays usable; a bad length prefix closes
it.  Any peer that can reach the port can still submit jobs, which run
guest programs, so serve on hosts and networks you trust (a lab
cluster, loopback CI).

Message ops (every message is ``{"op": ..., ...}``):

====================  =========  =============================================
op                    direction  meaning
====================  =========  =============================================
``hello``             → daemon   handshake; carries the protocol version
``hello-ok``          ← daemon   handshake accepted; carries version + pid
``submit``            → daemon   one job dict (see :func:`validate_job`)
``result``            ← daemon   the job's outcome: ``ok`` + result or a
                                 typed error dict (``type``/``detail`` and,
                                 for rejections, ``retry_after``)
``health``            → daemon   readiness probe
``health-ok``         ← daemon   state (``ready``/``draining``) + counters
``drain``             → daemon   begin graceful drain (the signal-free
                                 equivalent of SIGTERM, for tests/CI)
``ping`` / ``pong``   both       transport keepalive
``shutdown``/``bye``  both       drain + terminate, like ``drain``
``error``             ← daemon   typed in-band protocol failure
====================  =========  =============================================

**Job schema.**  A job is a plain dict of the fields below; any other
key is rejected with a typed :class:`ServeError` (a misspelt ``seed``
must not silently record with the host timer).  Ints are never bools,
names and texts are strings.  Fields:

* ``kind`` — ``record`` | ``replay`` | ``explore`` | ``doctor`` |
  ``trace-stats`` | ``campaign-item`` (below)
* ``workload`` + ``workload_args`` — a registered workload build, or
* ``source`` (+ ``main``, ``name``) — inline ``.jasm`` text
* ``seed`` — the CLI ``--seed`` knob (None: host timer/clock)
* ``heap`` — semispace words (default 400 000, the CLI default)
* ``deadline`` — per-job wall-clock budget in seconds; exceeding it
  lands a typed ``JobDeadlineExceeded``, enforced cooperatively at
  engine safe points
* ``trace`` — sealed trace bytes (replay / doctor / trace-stats)
* ``bound`` / ``budget`` — explore parameters (CLI defaults 2 / 250)
* ``out_name`` — the label printed in record output (default
  ``run.djv``), so daemon stdout is byte-identical to the CLI's
* ``trace_name`` — the path label doctor output prints (the daemon
  diagnoses from a temp file; this substitutes the client's path so
  stdout matches the CLI one-shot)
* ``slim`` — record a slim trace (the CLI ``--slim``)

There is no engine field: the engine's optimisation layer is guest-
and trace-invisible, so it is the engine's decision, never the job's.

Results carry ``stdout`` (byte-identical to the CLI one-shot's stdout),
``exit`` (the CLI exit status), and for record jobs ``trace`` (sealed
trace bytes, byte-identical to the CLI-written file).

**Campaign items.**  A ``campaign-item`` job (only ``kind``,
``campaign``, ``item``, ``deadline``) runs one work-list item of a
multi-host campaign: ``campaign`` is the campaign payload as plain data
(see :func:`validate_campaign`), ``item`` one schedule or fault index.
Its result is the dict a local fork worker produces for the same
``(campaign, item)``.
"""

from __future__ import annotations

from repro.core.framing import FrameError, decode_message, encode_message
from repro.vm.errors import VMError

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "MAX_SERVE_FRAME_BYTES",
    "JOB_KINDS",
    "ServeError",
    "JobRejected",
    "JobDeadlineExceeded",
    "JobCancelled",
    "encode_serve_message",
    "decode_serve_payload",
    "validate_job",
    "validate_campaign",
    "error_reply",
]

#: serve protocol revision; bumped on any wire-incompatible change (3:
#: jobs and campaign payloads lost their ``engine`` field)
SERVE_PROTOCOL_VERSION = 3
#: jobs and results carry sealed trace blobs, so the cap is far above
#: the debugger's small packets
MAX_SERVE_FRAME_BYTES = 64 << 20

#: the job kinds the daemon executes
JOB_KINDS = ("record", "replay", "explore", "doctor", "trace-stats", "campaign-item")
#: every field a job may carry (see the module docstring)
JOB_KEYS = frozenset({
    "kind", "workload", "workload_args", "source", "main", "name", "seed",
    "heap", "deadline", "trace", "bound", "budget", "out_name", "trace_name",
    "slim",
})
_STRING_KEYS = ("workload", "source", "main", "name", "out_name", "trace_name")


class ServeError(VMError):
    """A serve-layer failure with a stable type name — the daemon's
    typed-diagnostic currency: every failure a client can cause maps to
    a subclass, never a raw traceback."""


class JobRejected(ServeError):
    """The daemon declined the job *before* running it: admission queue
    full (``reason='overloaded'``) or drain in progress
    (``reason='draining'``).  ``retry_after`` tells a client when a
    retry is worth attempting."""

    def __init__(self, detail: str, *, reason: str, retry_after: float):
        super().__init__(detail)
        self.reason = reason
        self.retry_after = retry_after


class JobDeadlineExceeded(ServeError):
    """The job ran past its deadline and was cancelled cooperatively at
    an engine safe point (or a sweep/stage boundary)."""


class JobCancelled(ServeError):
    """The job was cancelled by the daemon (drain hit its grace period
    or the client asked) before it could finish."""


def encode_serve_message(message: dict) -> bytes:
    """One wire frame: length prefix + CRC32 + the encoded message."""
    return encode_message(message, MAX_SERVE_FRAME_BYTES)


def decode_serve_payload(payload: bytes) -> dict:
    """Check the CRC and decode one frame payload; typed
    :class:`FrameError` on anything malformed or on a message that is
    not a dict with an ``"op"``."""
    message = decode_message(payload)
    if not isinstance(message, dict) or "op" not in message:
        raise FrameError("message must be a dict with an 'op'")
    return message


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_job(job) -> dict:
    """Normalize and validate one job dict; typed :class:`ServeError` on
    anything malformed (a poison payload must land in a diagnostic the
    client can read, never a worker traceback)."""
    if not isinstance(job, dict):
        raise ServeError(f"job must be a dict, got {type(job).__name__}")
    kind = job.get("kind")
    if kind not in JOB_KINDS:
        raise ServeError(
            f"unknown job kind {kind!r} (known: {', '.join(JOB_KINDS)})"
        )
    if kind == "campaign-item":
        return _validate_campaign_item(job)
    unknown = set(job) - JOB_KEYS
    if unknown:
        raise ServeError(
            f"unknown job key(s) {', '.join(sorted(map(repr, unknown)))} "
            f"(known: {', '.join(sorted(JOB_KEYS))})"
        )
    out = dict(job)
    out.setdefault("workload_args", {})
    out.setdefault("seed", None)
    out.setdefault("heap", 400_000)
    out.setdefault("deadline", None)
    out.setdefault("main", "Main.main()V")
    for key in _STRING_KEYS:
        if key in out and not isinstance(out[key], str):
            raise ServeError(f"job {key} must be a string, got {out[key]!r}")
    if not isinstance(out.get("slim", False), bool):
        raise ServeError(f"job slim must be a bool, got {out['slim']!r}")
    if out["seed"] is not None and not _is_int(out["seed"]):
        raise ServeError(f"job seed must be an int or None, got {out['seed']!r}")
    if not _is_int(out["heap"]) or out["heap"] <= 0:
        raise ServeError(f"job heap must be a positive int, got {out['heap']!r}")
    out["deadline"] = _deadline(out["deadline"])
    if not isinstance(out["workload_args"], dict):
        raise ServeError("job workload_args must be a dict")
    has_program = ("workload" in out and out["workload"]) or (
        "source" in out and out["source"]
    )
    if kind in ("record", "explore") and not has_program:
        raise ServeError(f"{kind} job needs a 'workload' name or 'source' text")
    if kind in ("record", "explore") and "trace" in out:
        raise ServeError(f"{kind} job takes no 'trace' (it writes one)")
    if kind in ("replay", "doctor", "trace-stats"):
        blob = out.get("trace")
        if not isinstance(blob, (bytes, bytearray)) or not blob:
            raise ServeError(f"{kind} job needs sealed trace bytes in 'trace'")
        out["trace"] = bytes(blob)
    if kind == "replay" and not has_program:
        raise ServeError("replay job needs a 'workload' name or 'source' text")
    if kind == "explore":
        out.setdefault("bound", 2)
        out.setdefault("budget", 250)
        out.setdefault("out_name", "failure.djv")
        if not _is_int(out["bound"]) or out["bound"] < 1:
            raise ServeError(f"explore bound must be >= 1, got {out['bound']!r}")
        if not _is_int(out["budget"]) or out["budget"] < 1:
            raise ServeError(f"explore budget must be >= 1, got {out['budget']!r}")
    if kind == "record":
        out.setdefault("out_name", "run.djv")
        out.setdefault("slim", False)
    return out


def _deadline(deadline):
    if deadline is None:
        return None
    number = isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
    if not number or not deadline > 0:
        raise ServeError(f"job deadline must be positive seconds, got {deadline!r}")
    return float(deadline)


# ---------------------------------------------------------------------------
# campaign items


def _is_count(minimum: int):
    return lambda value: _is_int(value) and value >= minimum


#: the fields of a campaign payload besides ``kind``, per campaign kind:
#: the check each value must pass and what that check means
_CAMPAIGN_COMMON = {
    "workload": (lambda v: isinstance(v, str), "a workload name"),
    "workload_kwargs": (
        lambda v: isinstance(v, dict) and all(
            isinstance(k, str) and isinstance(x, (int, float, str, bool, type(None)))
            for k, x in v.items()
        ),
        "a dict of names to scalars",
    ),
    "seed": (_is_int, "an int"),
    "heap": (lambda v: v is None or _is_count(1)(v), "None or an int >= 1"),
}
CAMPAIGN_FIELDS = {
    "explore": {
        **_CAMPAIGN_COMMON,
        "env_seed": (_is_int, "an int"),
        "bound": (_is_count(1), "an int >= 1"),
        "budget": (_is_count(1), "an int >= 1"),
    },
    "faults": {
        **_CAMPAIGN_COMMON,
        "count": (_is_count(0), "an int >= 0"),
        "layers": (
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
            "a list of layer names",
        ),
        "fault_timeout": (
            lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0,
            "positive seconds",
        ),
    },
}
_CAMPAIGN_ITEM_KEYS = frozenset({"kind", "campaign", "item", "deadline"})


def validate_campaign(payload) -> dict:
    """Check one campaign payload (see the module docstring) and return
    it; typed :class:`ServeError` on anything else.  Every campaign
    backend builds its item runner from a payload that passed here, so
    a remote host and a local fork run the same data."""
    if not isinstance(payload, dict):
        raise ServeError(f"campaign must be a dict, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in CAMPAIGN_FIELDS:
        raise ServeError(
            f"unknown campaign kind {kind!r} (known: {', '.join(CAMPAIGN_FIELDS)})"
        )
    fields = CAMPAIGN_FIELDS[kind]
    keys = {"kind", *fields}
    if set(payload) != keys:
        raise ServeError(
            f"{kind} campaign fields must be exactly {', '.join(sorted(keys))} "
            f"(got {', '.join(sorted(map(str, payload)))})"
        )
    for key, (check, meaning) in fields.items():
        if not check(payload[key]):
            raise ServeError(f"campaign {key} must be {meaning}, got {payload[key]!r}")
    from repro.workloads.registry import get_workload

    try:
        get_workload(payload["workload"])
    except VMError as exc:
        raise ServeError(str(exc)) from exc
    return payload


def _validate_campaign_item(job: dict) -> dict:
    unknown = set(job) - _CAMPAIGN_ITEM_KEYS
    if unknown:
        raise ServeError(
            f"unknown campaign-item key(s) {', '.join(sorted(map(repr, unknown)))} "
            f"(known: {', '.join(sorted(_CAMPAIGN_ITEM_KEYS))})"
        )
    campaign = validate_campaign(job.get("campaign"))
    item = job.get("item")
    if campaign["kind"] == "explore":
        if not isinstance(item, (list, tuple)) or not all(
            _is_int(p) and p >= 0 for p in item
        ):
            raise ServeError(f"explore item must be a list of positions, got {item!r}")
        item = tuple(item)
    elif not _is_int(item) or not 0 <= item < campaign["count"]:
        raise ServeError(f"faults item must be a plan index, got {item!r}")
    return {
        "kind": "campaign-item",
        "campaign": campaign,
        "item": item,
        "deadline": _deadline(job.get("deadline")),
    }


def error_reply(exc: Exception) -> dict:
    """The in-band ``result`` error dict for a typed failure."""
    error: dict = {"type": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, JobRejected):
        error["reason"] = exc.reason
        error["retry_after"] = exc.retry_after
    return {"op": "result", "ok": False, "error": error}
