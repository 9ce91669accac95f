"""Seek equivalence: checkpointed time travel lands on identical state.

The property under test: for any target T, a checkpoint-accelerated
``goto_cycles(T)`` observes the *same* TimePoint and the same machine
digest as the from-zero path — checkpoints change seek cost, never the
state seen.  This holds even when snapshots are corrupted away, because
the fallback ladder bottoms out at replay-from-zero.
"""

import pytest

from repro.api import record, replay
from repro.core.checkpoint import CheckpointStore, Snapshot, machine_digest
from repro.debugger import Debugger, ReplaySession
from repro.debugger.timetravel import TimeTravelSession
from repro.vm import SeededJitterTimer
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank

CFG = VMConfig(semispace_words=60_000)
EVERY = 600


@pytest.fixture(scope="module")
def recorded():
    return record(racy_bank(), config=CFG, timer=SeededJitterTimer(5, 40, 160))


def _sampled_targets(end):
    """Backward-seek targets spread over the run (descending, so every
    seek after the first is a rewind)."""
    return [
        end * 9 // 10,
        end * 3 // 5,
        end * 2 // 5,
        EVERY + EVERY // 2,  # just past the first checkpoint
        EVERY // 3,  # before any checkpoint: must come from zero
    ]


class TestSeekEquivalence:
    def test_checkpointed_seeks_match_from_zero(self, recorded):
        plain = TimeTravelSession(racy_bank(), recorded.trace, config=CFG)
        fast = TimeTravelSession(
            racy_bank(), recorded.trace, config=CFG, checkpoint_every=EVERY
        )
        end = recorded.result.cycles
        fast.goto_cycles(end + 1)  # travel to the end, capturing snapshots
        assert fast._snapshots, "no checkpoints captured while travelling"
        for target in _sampled_targets(end):
            slow_point = plain.goto_cycles(target)
            fast_point = fast.goto_cycles(target)
            assert fast_point == slow_point
            assert machine_digest(fast.session.vm) == machine_digest(
                plain.session.vm
            )
        assert fast.restores > 0, "no seek was checkpoint-accelerated"

    def test_plain_replay_sidecar_seeds_the_unfused_seeks(self, recorded, tmp_path):
        """Snapshots of a plain (fused) ``api.replay`` restore into the
        debugger's unfused session: frames store canonical micro-op pcs,
        so backward seeks restore them and land where from-zero does."""
        sidecar = tmp_path / "t.djv.ckpt"
        replay(
            racy_bank(), recorded.trace, config=CFG,
            checkpoint_every=EVERY, checkpoint_out=sidecar,
        )
        snapshots = CheckpointStore.load(sidecar).snapshots
        assert len(snapshots) > 2
        plain = TimeTravelSession(racy_bank(), recorded.trace, config=CFG)
        fast = TimeTravelSession(
            racy_bank(), recorded.trace, config=CFG, checkpoints=snapshots
        )
        end = recorded.result.cycles
        fast.goto_cycles(end + 1)
        for target in _sampled_targets(end):
            assert fast.goto_cycles(target) == plain.goto_cycles(target)
            assert machine_digest(fast.session.vm) == machine_digest(
                plain.session.vm
            )
        assert fast.restores >= len(_sampled_targets(end)) - 1
        assert len(fast._snapshots) == len(snapshots), "a snapshot was dropped"

    def test_corrupt_snapshot_falls_back_to_identical_state(self, recorded):
        """Tampering with a captured snapshot must not change where a
        seek lands — the damaged rung drops out of the ladder."""
        plain = TimeTravelSession(racy_bank(), recorded.trace, config=CFG)
        fast = TimeTravelSession(
            racy_bank(), recorded.trace, config=CFG, checkpoint_every=EVERY
        )
        end = recorded.result.cycles
        fast.goto_cycles(end + 1)
        target = end * 3 // 4
        # tamper with the snapshot the seek would restore (newest < target)
        victim_cycles = max(c for c in fast._snapshots if c < target)
        words = list(fast._snapshots[victim_cycles].words)
        words[len(words) // 2] ^= 1  # a live-extent word: digest must fail
        original = fast._snapshots[victim_cycles]
        victim = Snapshot(original.header, words, original.events)
        fast._snapshots[victim_cycles] = victim
        fast_point = fast.goto_cycles(target)
        slow_point = plain.goto_cycles(target)
        assert fast_point == slow_point
        assert machine_digest(fast.session.vm) == machine_digest(plain.session.vm)
        # the tampered snapshot was evicted from the ladder (the boundary
        # may hold a *fresh* snapshot re-captured by the fallback replay)
        assert fast._snapshots.get(victim_cycles) is not victim

    def test_seeks_are_o_interval_not_o_trace(self, recorded):
        """Observability check: a late backward seek restores a nearby
        checkpoint instead of replaying the whole prefix."""
        fast = TimeTravelSession(
            racy_bank(), recorded.trace, config=CFG, checkpoint_every=EVERY
        )
        end = recorded.result.cycles
        fast.goto_cycles(end + 1)
        before = fast.restores
        fast.goto_cycles(end * 9 // 10)
        assert fast.restores == before + 1
        # the restored session started at the nearest earlier boundary,
        # not at zero: it replayed at most ~one interval of cycles
        assert fast.now >= end * 9 // 10


class TestDebuggerJump:
    def test_jump_forward_and_back(self, recorded):
        session = ReplaySession(racy_bank(), recorded.trace, config=CFG)
        dbg = Debugger(session)
        end = recorded.result.cycles
        out = dbg.jump(end * 3 // 5)
        assert out["status"] == "timepoint"
        assert out["cycles"] >= end * 3 // 5
        back = dbg.jump(end // 5)
        assert back["cycles"] < out["cycles"]
        assert back["cycles"] >= end // 5
        # subsequent commands operate at the new position
        assert dbg.info()["cycles"] == back["cycles"]
        done = dbg.finish()
        assert done["status"] == "done"
        assert done["output"] == recorded.result.output_text

    def test_jump_bad_target_is_an_error(self, recorded):
        from repro.vm.errors import VMError

        dbg = Debugger(ReplaySession(racy_bank(), recorded.trace, config=CFG))
        with pytest.raises(VMError):
            dbg.jump(-1)
