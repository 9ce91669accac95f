"""The detector's incremental race-region API — the half of slimming
that decides which switch deltas matter.

``RaceDetector.end_region()`` closes the window between two thread
switches and appends a :class:`RegionSummary`; the final
``racy_regions`` set (close-time verdicts plus retroactive pins from
races whose earlier access lived in an older window) is what
``slim_partition`` consults.  These tests pin:

* region bookkeeping adds up (one region per switch plus the tail,
  access counts partition the total, per-region races partition the
  race list);
* the incremental verdicts agree with the batch ``detect_races`` pass
  over the same recorded execution;
* attaching the detector + slim machinery perturbs nothing — when zero
  deltas are droppable the slim recording is bit-identical to the full
  one (same switches, same values, same guest behaviour).
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import build_vm, record
from repro.core.controller import MODE_RECORD, DejaVu, slim_partition
from repro.explore.detector import RaceDetector, detect_races
from repro.vm.engineconfig import EngineConfig
from repro.vm.machine import VMConfig
from repro.vm.timerdev import slim_model_of
from repro.workloads import racy_bank, readers_writers, synced_bank

from .conftest import jitter_knobs

SEED = 13
CFG = VMConfig(semispace_words=60_000)


def _record_with_detector(factory):
    """Mirror api.record(slim=True) but keep a handle on the detector."""
    program = factory()
    vm = build_vm(program, replace(CFG, engine=EngineConfig(fusion=False)), **jitter_knobs(SEED))
    detector = RaceDetector(vm)
    dv = DejaVu(
        vm, MODE_RECORD, slim_spec=slim_model_of(vm.timer), slim_detector=detector
    )
    result = vm.run(program.main)
    trace = dv.trace()
    return program, detector, trace, result


def _race_key(race):
    return (
        race.location,
        (race.first.method, race.first.bci, race.first.kind, race.first.tid),
        (race.second.method, race.second.bci, race.second.kind, race.second.tid),
    )


def test_region_bookkeeping_partitions_the_run():
    """One region per switch firing plus the tail; access counts and
    per-region race lists partition the detector's totals exactly."""
    for factory in (lambda: racy_bank(3, 30), lambda: synced_bank(3, 30)):
        _, detector, trace, _ = _record_with_detector(factory)
        info = trace.slim_info
        n_firings = (
            (info["kept"] + info["dropped"]) if info else len(trace.switches)
        )
        assert len(detector.regions) == n_firings + 1
        assert [r.index for r in detector.regions] == list(range(n_firings + 1))
        assert (
            sum(r.n_accesses for r in detector.regions)
            == detector.stats["accesses"]
        )
        region_races = [race for r in detector.regions for race in r.races]
        assert sorted(map(_race_key, region_races)) == sorted(
            map(_race_key, detector.races)
        )


def test_racy_regions_cover_every_close_verdict():
    """``racy_regions`` is a superset of the close-time verdicts (it can
    only grow via retroactive pins) and every region that reported a
    race is in it."""
    _, detector, _, _ = _record_with_detector(lambda: racy_bank(3, 30))
    assert detector.races, "racy_bank must race"
    close_racy = {r.index for r in detector.regions if r.racy}
    reported = {r.index for r in detector.regions if r.races}
    assert close_racy <= detector.racy_regions
    assert reported <= detector.racy_regions
    assert detector.racy_regions <= {r.index for r in detector.regions}


def test_race_free_run_has_no_racy_regions():
    _, detector, trace, _ = _record_with_detector(lambda: synced_bank(3, 30))
    assert detector.races == []
    assert detector.racy_regions == set()
    # ... which is exactly why every delta slims away
    info = trace.slim_info
    if info is not None:
        assert info["kept"] == 0


def test_incremental_verdicts_match_batch_detector():
    """The region-tracked record-time pass and the batch replay-time
    ``detect_races`` pass analyse the same execution and must find the
    same races."""
    for factory in (lambda: racy_bank(3, 30), lambda: readers_writers(3, 2, 6)):
        program, detector, trace, _ = _record_with_detector(factory)
        report = detect_races(program, trace, config=CFG)
        assert sorted(map(_race_key, detector.races)) == sorted(
            map(_race_key, report.races)
        )
        assert detector.stats["accesses"] == report.stats["accesses"]


def test_partition_keeps_only_race_adjacent_deltas():
    """slim_partition's keep rule, checked against the detector's final
    region set on a run that actually races."""
    _, detector, trace, _ = _record_with_detector(lambda: racy_bank(3, 30))
    info = trace.slim_info
    if info is None:
        # every delta was race-adjacent: the recording degraded to full
        assert trace.meta.get("slim_fallback") == "no droppable deltas"
        deltas = trace.switches
        racy = detector.racy_regions
        kept, _, dropped = slim_partition(
            deltas, list(range(1, len(deltas) + 1)), racy
        )
        assert dropped == 0 and kept == deltas
    else:
        assert info["kept"] == len(trace.switches)


def test_zero_drop_slim_record_is_bit_identical():
    """When nothing is droppable the slim path must degrade to a
    recording indistinguishable from the full one: same switch stream,
    same value stream, same guest behaviour, same meta (modulo the
    fallback note)."""
    full = record(racy_bank(3, 30), config=CFG, **jitter_knobs(SEED))
    slim = record(racy_bank(3, 30), config=CFG, slim=True, **jitter_knobs(SEED))

    assert slim.result.behavior_key() == full.result.behavior_key()
    assert slim.trace.switches == full.trace.switches
    assert slim.trace.values == full.trace.values
    assert slim.trace.slim == []
    assert slim.trace.slim_info is None
    assert "slim_fallback" in slim.trace.meta

    slim_meta = dict(slim.trace.meta)
    slim_meta.pop("slim_fallback")
    assert slim_meta == dict(full.trace.meta)
