"""The LAYER_SERVE fault family: a `repro serve` daemon under attack.

Each serve fault drives a loopback daemon and classifies the outcome
against the campaign contract — clean recovery or a typed diagnostic,
never a hang, a raw traceback, or silent corruption.  The family's
hardening claim is differential: after every fault, a concurrent
well-formed job must return results byte-identical to the clean
reference, on the *same* daemon the fault just attacked.

Plan stability matters as much as the faults: serve kinds were appended
to ``KINDS``, so every seeded plan over the older layer sets stays
byte-for-byte reproducible (the generator draws from the layer-filtered
kind list).

Fast kinds run in tier 1; the full seeded campaign is ``fuzz``-marked
and runs in the CI serve-smoke job.
"""

import pytest

from repro.campaign import run_faults_campaign
from repro.faults import FaultPlan
from repro.faults.plan import KINDS, LAYER_SERVE, FaultSpec
from repro.faults.campaign import FaultRunContext
from repro.vm.machine import VMConfig

CFG = VMConfig(semispace_words=60_000)

SERVE_KINDS = [k for k, layer in KINDS.items() if layer == LAYER_SERVE]


class TestPlanStability:
    def test_serve_kinds_are_registered(self):
        assert SERVE_KINDS == [
            "serve-client-vanish",
            "serve-poison-job",
            "serve-hung-workload",
            "serve-deadline-exceeded",
            "serve-queue-storm",
            "serve-kill-during-drain",
        ]

    def test_default_layers_never_draw_serve_kinds(self):
        plan = FaultPlan.generate(42, 50)
        assert all(s.layer != LAYER_SERVE for s in plan)

    def test_pre_serve_plans_are_byte_stable(self):
        """The append-only guarantee: adding the serve family did not
        move a single draw of the seeded default-layer plan."""
        plan = FaultPlan.generate(42, 6)
        assert [s.kind for s in plan] == [
            "delay-frame",
            "delay-frame",
            "truncate",
            "bit-flip",
            "drop-frame",
            "native-error",
        ]

    def test_serve_layer_draws_only_serve_kinds_with_sane_params(self):
        plan = FaultPlan.generate(11, 60, layers=(LAYER_SERVE,))
        assert len(plan) == 60
        seen = set()
        for spec in plan:
            assert spec.layer == LAYER_SERVE
            seen.add(spec.kind)
            if spec.kind == "serve-client-vanish":
                assert 0 <= spec.params[0] < 1
            elif spec.kind == "serve-poison-job":
                assert spec.params[0] in (0, 1, 2)
            elif spec.kind == "serve-hung-workload":
                assert 0.3 <= spec.params[0] <= 0.8
            elif spec.kind == "serve-deadline-exceeded":
                assert 0.005 <= spec.params[0] <= 0.05
            elif spec.kind == "serve-queue-storm":
                assert 6 <= spec.params[0] < 14
            elif spec.kind == "serve-kill-during-drain":
                assert 0.05 <= spec.params[0] <= 0.3
        assert seen == set(SERVE_KINDS)  # 60 draws cover all six kinds


@pytest.fixture(scope="module")
def serve_context(tmp_path_factory):
    """One warm context for every per-kind test: a single loopback
    daemon survives all of them on one accept loop — that persistence
    is the hardening claim, not an optimization."""
    context = FaultRunContext(
        seed=42,
        layers=(LAYER_SERVE,),
        workload="bank",
        config=CFG,
        workdir=tmp_path_factory.mktemp("serve-faults"),
    )
    with context:
        yield context


def run_kind(context, kind, params):
    return context.run_spec(FaultSpec(index=0, kind=kind, params=params))


class TestServeFaultOutcomes:
    def test_client_vanish_recovers(self, serve_context):
        outcome = run_kind(serve_context, "serve-client-vanish", (0.1,))
        assert outcome.outcome == "recovered", outcome.detail

    @pytest.mark.parametrize("variant", [0, 1, 2])
    def test_poison_job_recovers(self, serve_context, variant):
        outcome = run_kind(serve_context, "serve-poison-job", (variant,))
        assert outcome.outcome == "recovered", outcome.detail

    def test_hung_workload_is_a_typed_deadline(self, serve_context):
        outcome = run_kind(serve_context, "serve-hung-workload", (0.4,))
        assert outcome.outcome == "diagnosed:JobDeadlineExceeded", (
            outcome.detail
        )

    def test_deadline_exceeded_is_typed_or_not_triggered(self, serve_context):
        outcome = run_kind(serve_context, "serve-deadline-exceeded", (0.005,))
        assert outcome.outcome in (
            "diagnosed:JobDeadlineExceeded",
            "not-triggered",
        ), outcome.detail

    def test_queue_storm_converges(self, serve_context):
        outcome = run_kind(serve_context, "serve-queue-storm", (8,))
        assert outcome.outcome == "recovered", outcome.detail

    def test_kill_during_drain_is_recovery_or_typed(self, serve_context):
        outcome = run_kind(serve_context, "serve-kill-during-drain", (0.1,))
        assert outcome.ok, f"{outcome.outcome}: {outcome.detail}"

    def test_daemon_survived_the_whole_battery(self, serve_context):
        """After every fault above, the shared loopback daemon still
        reproduces the clean reference byte-for-byte."""
        assert serve_context._serve.check_clean() == ""


@pytest.mark.fuzz
def test_seeded_serve_campaign_recovers():
    """The acceptance gate: `repro faults --layers serve --seed 42` —
    100% of planned faults land in clean recovery or a typed
    diagnostic."""
    report = run_faults_campaign(
        FaultPlan.generate(42, 12, layers=(LAYER_SERVE,)),
        workload="bank",
        config=CFG,
        jobs=1,
    )
    assert report.ok, report.format()
    assert len(report.outcomes) == 12
    assert (
        "every fault ended in clean recovery or a typed diagnostic"
        in report.format()
    )
