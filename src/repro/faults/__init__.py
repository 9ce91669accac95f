"""Deterministic fault injection for the replay platform.

Four surfaces, one contract: a fault may cost data, never correctness —
every injected failure must end in clean recovery or a typed diagnostic,
and nothing may hang, crash with a raw traceback, or silently return a
wrong answer.

* :mod:`repro.faults.plan`     — seeded, reproducible fault plans;
* :mod:`repro.faults.inject`   — the injectors (trace bytes, native
  layer, debugger transport, checkpoint sidecars);
* :mod:`repro.faults.campaign` — the warm injection context and
  outcome classification; :func:`repro.campaign.run_faults_campaign`
  runs a whole plan (``repro faults`` on the CLI).
"""

from repro.faults.campaign import FaultOutcome, FaultRunContext
from repro.faults.inject import (
    InjectedFault,
    apply_checkpoint_fault,
    apply_trace_fault,
    arm_native_fault,
    segment_boundaries,
    send_faulted_request,
)
from repro.faults.plan import (
    KINDS,
    LAYER_CHECKPOINT,
    LAYER_NATIVE,
    LAYER_REMOTE,
    LAYER_TRACE,
    LAYER_TRANSPORT,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FaultOutcome",
    "FaultPlan",
    "FaultRunContext",
    "FaultSpec",
    "InjectedFault",
    "KINDS",
    "LAYER_CHECKPOINT",
    "LAYER_NATIVE",
    "LAYER_REMOTE",
    "LAYER_TRACE",
    "LAYER_TRANSPORT",
    "apply_checkpoint_fault",
    "apply_trace_fault",
    "arm_native_fault",
    "segment_boundaries",
    "send_faulted_request",
]
