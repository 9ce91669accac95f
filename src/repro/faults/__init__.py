"""Deterministic fault injection for the replay platform.

Four surfaces, one contract: a fault may cost data, never correctness —
every injected failure must end in clean recovery or a typed diagnostic,
and nothing may hang, crash with a raw traceback, or silently return a
wrong answer.

* :mod:`repro.faults.plan`     — seeded, reproducible fault plans;
* :mod:`repro.faults.inject`   — the injectors (trace bytes, native
  layer, debugger transport, checkpoint sidecars);
* :mod:`repro.faults.campaign` — the campaign runner and outcome
  classification (``repro faults`` on the CLI).

Pytest integration: ``from repro.faults.fixtures import *`` in a
conftest exposes the ``fault_plan`` fixture.
"""

from repro.faults.campaign import (
    CampaignReport,
    FaultOutcome,
    FaultRunContext,
    run_campaign,
)
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
    "CampaignReport",
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
    "run_campaign",
    "segment_boundaries",
    "send_faulted_request",
]
