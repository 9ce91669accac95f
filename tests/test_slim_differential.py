"""Differential replay matrix for race-guided trace slimming (v3.2).

The slimming contract has two halves, and this suite pins both:

1. **Record is unperturbed** — ``record(slim=True)`` runs the guest
   bit-identically to a classic full recording (classification is
   host-side, post-hoc), so the two recordings of the same seeded run
   have equal behaviour keys.
2. **Replay is exact** — the slim trace, with most switch deltas dropped
   and re-derived from the modelled timer plus the sync-order sidecar,
   replays to byte-identical event streams and heap digests under every
   one of the 4 ``EngineConfig.all_combinations()`` engines, with and
   without checkpointing, on sync-heavy, racy, and mixed workloads
   alike.

The mixed workload is the interesting case: three unsynchronized teller
threads race on ``Main.balance`` (those windows must keep their deltas)
followed by a long single-threaded tail (every delta there is
sync-inferable and dropped) — slimming must keep *some* and drop *most*
and still replay exactly.
"""

from __future__ import annotations

import pytest

from repro.api import (
    GuestProgram,
    record,
    replay,
    resume_replay,
    trace_from_bytes,
    trace_to_bytes,
)
from repro.vm.engineconfig import EngineConfig
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank, readers_writers, server, synced_bank

from .conftest import jitter_knobs

SEED = 13
CFG = VMConfig(semispace_words=60_000)

WORKLOADS = {
    "synced_bank": lambda: synced_bank(4, 60),
    "racy_bank": lambda: racy_bank(3, 30),
    "server": lambda: server(3, 20, 5, work_scale=20),
    "readers_writers": lambda: readers_writers(3, 2, 6),
}

ENGINES = EngineConfig.all_combinations()

# three unsynchronized tellers race on Main.balance (race-adjacent
# windows: deltas kept), then a long single-threaded tail on Main.tail
# (sync-inferable windows: deltas dropped)
MIXED_SRC = """
.class Teller
.super Thread
.method run ()V
    iconst 0
    istore 1
loop:
    iload 1
    iconst 30
    if_icmpge done
    getstatic Main.balance I
    iconst 1
    iadd
    putstatic Main.balance I
    iinc 1 1
    goto loop
done:
    return
.end

.class Main
.field static balance I
.field static tail I
.field static tellers [LThread;
.method static main ()V
    iconst 3
    anewarray LThread;
    putstatic Main.tellers [LThread;
    iconst 0
    istore 0
spawn:
    iload 0
    iconst 3
    if_icmpge started
    getstatic Main.tellers [LThread;
    iload 0
    new Teller
    aastore
    getstatic Main.tellers [LThread;
    iload 0
    aaload
    invokestatic Thread.start(LThread;)V
    iinc 0 1
    goto spawn
started:
    iconst 0
    istore 0
join:
    iload 0
    iconst 3
    if_icmpge joined
    getstatic Main.tellers [LThread;
    iload 0
    aaload
    invokestatic Thread.join(LThread;)V
    iinc 0 1
    goto join
joined:
    iconst 0
    istore 1
tail:
    iload 1
    iconst 4000
    if_icmpge out
    getstatic Main.tail I
    iconst 1
    iadd
    putstatic Main.tail I
    iinc 1 1
    goto tail
out:
    getstatic Main.balance I
    invokestatic System.printInt(I)V
    return
.end
"""


def mixed_program() -> GuestProgram:
    return GuestProgram.from_source(MIXED_SRC, name="mixed")


@pytest.fixture(scope="module")
def recordings():
    """Record every workload once, full and slim, with identical seeded
    knobs; cache the baseline replay of each as the reference."""
    cache = {}
    for name, factory in WORKLOADS.items():
        full = record(factory(), config=CFG, **jitter_knobs(SEED))
        slim = record(factory(), config=CFG, slim=True, **jitter_knobs(SEED))
        reference = replay(factory(), full.trace, config=CFG)
        cache[name] = (factory, full, slim, reference)
    return cache


def test_slim_record_is_guest_identical(recordings):
    """Slim recording must not perturb the execution it observes: the
    guest-visible behaviour of the slim-recorded run equals the full
    one's (same seeds, same schedule, same heap)."""
    for name, (_, full, slim, _) in recordings.items():
        assert slim.result.behavior_key() == full.result.behavior_key(), name


def test_slim_trace_never_larger(recordings):
    for name, (_, full, slim, _) in recordings.items():
        assert (
            slim.trace.encoded_size_bytes <= full.trace.encoded_size_bytes
        ), name


def test_sync_heavy_workloads_actually_drop(recordings):
    """The sync-heavy, race-free workloads are the point of the feature:
    their slim traces must drop deltas, not merely degrade to full."""
    for name in ("synced_bank", "readers_writers"):
        _, full, slim, _ = recordings[name]
        info = slim.trace.slim_info
        assert info is not None, f"{name}: fell back to full recording"
        assert info["dropped"] > 0, name
        assert info["kept"] + info["dropped"] == len(full.trace.switches), name


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.describe())
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_differential_replay_matrix(recordings, name, engine):
    """Every workload's slim trace replays byte-identically to the full
    trace under every engine combination: same event stream, same heap
    digest, same cycle count."""
    factory, full, slim, reference = recordings[name]
    cfg = VMConfig(semispace_words=60_000, engine=engine)
    r_slim = replay(factory(), slim.trace, config=cfg)
    r_full = replay(factory(), full.trace, config=cfg)
    assert r_slim.events == r_full.events, (name, engine.describe())
    assert r_slim.heap_digest == r_full.heap_digest, (name, engine.describe())
    assert r_slim.behavior_key() == reference.behavior_key(), (
        name,
        engine.describe(),
    )


def test_mixed_workload_keeps_racing_deltas(tmp_path):
    """Known-racy workload: slimming keeps the race-adjacent deltas
    (kept > 0), drops the sync-inferable tail (dropped > 0), and the
    replay is still exact under every engine."""
    prog = mixed_program()
    full = record(prog, config=CFG, **jitter_knobs(SEED))
    slim = record(prog, config=CFG, slim=True, **jitter_knobs(SEED))
    assert slim.result.behavior_key() == full.result.behavior_key()

    info = slim.trace.slim_info
    assert info is not None, "mixed workload fell back to full recording"
    assert info["kept"] > 0, "racing-adjacent deltas must stay explicit"
    assert info["dropped"] > 0, "the single-threaded tail must slim away"
    assert slim.trace.encoded_size_bytes <= full.trace.encoded_size_bytes

    reference = replay(prog, full.trace, config=CFG)
    for engine in ENGINES:
        cfg = VMConfig(semispace_words=60_000, engine=engine)
        r = replay(prog, slim.trace, config=cfg)
        assert r.behavior_key() == reference.behavior_key(), engine.describe()


def test_slim_replay_with_checkpointing(tmp_path):
    """The differential holds with checkpointing in the loop: a slim
    replay that captures snapshots, and a resume from the newest one,
    both land on the full-replay behaviour."""
    prog = mixed_program()
    full = record(prog, config=CFG, **jitter_knobs(SEED))
    slim = record(prog, config=CFG, slim=True, **jitter_knobs(SEED))
    reference = replay(prog, full.trace, config=CFG)

    ckpt = tmp_path / "mixed.djv.ckpt"
    r = replay(
        prog,
        slim.trace,
        config=CFG,
        checkpoint_every=5_000,
        checkpoint_out=ckpt,
    )
    assert r.behavior_key() == reference.behavior_key()

    resumed = resume_replay(prog, slim.trace, checkpoints=ckpt, config=CFG)
    assert resumed.resumed_from is not None, resumed.attempts
    assert resumed.result.behavior_key() == reference.behavior_key()


def test_slim_trace_file_roundtrip(recordings, tmp_path):
    """A slim trace survives the byte round-trip (v3.2 codec) and the
    reloaded copy replays identically."""
    factory, _, slim, reference = recordings["synced_bank"]
    data = trace_to_bytes(slim.trace)
    reloaded = trace_from_bytes(data)
    assert reloaded.slim == slim.trace.slim
    assert reloaded.slim_info == slim.trace.slim_info
    assert reloaded.switches == slim.trace.switches
    r = replay(factory(), reloaded, config=CFG)
    assert r.behavior_key() == reference.behavior_key()


def test_reused_knobs_refuse_a_slim_record():
    """A ``standard_knobs`` dict shared by two recordings hands the second
    a jitter timer that has already drawn intervals; a slim record then
    fails loudly, naming the fix, instead of silently recording in full.
    A host timer keeps its documented full-recording fallback."""
    from repro.api import standard_knobs
    from repro.vm.errors import UsageError
    from repro.vm.timerdev import HostTimer

    program = WORKLOADS["synced_bank"]()
    knobs = standard_knobs(3)
    first = record(program, config=CFG, slim=True, **knobs)
    assert first.trace.slim_info is not None
    with pytest.raises(UsageError, match=r"standard_knobs\(seed\)"):
        record(program, config=CFG, slim=True, **knobs)
    fresh = record(program, config=CFG, slim=True, **standard_knobs(3))
    assert fresh.trace.to_bytes() == first.trace.to_bytes()

    host = record(program, config=CFG, slim=True, timer=HostTimer())
    assert host.trace.meta["slim_fallback"] == "timer has no reconstruction model"
