"""Replay analyses ride fused code and report what unfused code reports.

The memory hook, the profiler, coverage, race detection and slim
recording build their VMs from the caller's config, so they run the
ordinary fused program.  The engine hands each hook the canonical ops
behind a superinstruction (``MachineCode.xstart``).  The reference is the
same tool on ``VMConfig(engine=EngineConfig.baseline())``, where every
executable op is a canonical micro-op; on every registry workload the
two must agree exactly.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.controller import MODE_REPLAY, DejaVu
from repro.explore.detector import detect_races
from repro.tools import ReplayCoverage, ReplayProfiler
from repro.vm import machine
from repro.vm.compiler import (
    F_AL_GETFIELD,
    F_ALC_PUTFIELD,
    F_ALL_ALOAD,
    F_ALL_PUTFIELD,
    M_AALOAD,
    M_AASTORE,
    M_GETFIELD,
    M_GETSTATIC,
    M_IALOAD,
    M_IASTORE,
    M_PUTFIELD,
    M_PUTSTATIC,
)
from repro.vm.engineconfig import EngineConfig
from repro.vm.layout import HEADER_WORDS
from repro.vm.machine import VMConfig
from repro.workloads.registry import REGISTRY

SEED = 11
UNFUSED = VMConfig(engine=EngineConfig.baseline())
NAMES = sorted(REGISTRY)
_FUSED_MEM = (F_AL_GETFIELD, F_ALL_PUTFIELD, F_ALC_PUTFIELD, F_ALL_ALOAD)


def _word(mop, a, b, stack):
    """The heap word a canonical memory op touches (None: null base)."""
    if mop == M_GETFIELD:
        return stack[-1] + a if stack[-1] else None
    if mop == M_PUTFIELD:
        return stack[-2] + a if stack[-2] else None
    if mop == M_GETSTATIC or mop == M_PUTSTATIC:
        return a.statics_addr + b if a.statics_addr else None
    if mop == M_IALOAD or mop == M_AALOAD:
        return stack[-2] + HEADER_WORDS + stack[-1] if stack[-2] else None
    assert mop == M_IASTORE or mop == M_AASTORE, mop
    return stack[-3] + HEADER_WORDS + stack[-2] if stack[-3] else None


@pytest.fixture(scope="module", params=NAMES)
def recorded(request):
    spec = REGISTRY[request.param]
    kwargs = spec.merged_kwargs(explore=True)
    rec = api.record(spec.build(kwargs), **api.standard_knobs(SEED))
    return spec, kwargs, rec


def _accesses(spec, kwargs, trace, config):
    """Replay under a memory hook; return its access stream and the VM."""
    program = spec.build(kwargs)
    vm = api.build_vm(program, config)
    DejaVu(vm, MODE_REPLAY, trace=trace)
    seen = []

    def hook(thread, frame, bci, mop, a, b, stack):
        seen.append((thread.tid, frame.method.qualname, bci, mop, _word(mop, a, b, stack)))

    vm.engine.mem_hook = hook
    vm.run(program.main)
    return seen, vm


def test_memory_hook_sees_the_unfused_access_stream(recorded):
    spec, kwargs, rec = recorded
    fused, _ = _accesses(spec, kwargs, rec.trace, None)
    unfused, _ = _accesses(spec, kwargs, rec.trace, UNFUSED)
    assert fused and fused == unfused


def test_profiles_match_unfused(recorded):
    spec, kwargs, rec = recorded
    fused = ReplayProfiler(spec.build(kwargs), rec.trace).run()
    unfused = ReplayProfiler(spec.build(kwargs), rec.trace, UNFUSED).run()
    assert fused == unfused


def test_coverage_matches_unfused(recorded):
    spec, kwargs, rec = recorded
    fused = ReplayCoverage(spec.build(kwargs), rec.trace).run()
    unfused = ReplayCoverage(spec.build(kwargs), rec.trace, UNFUSED).run()
    assert fused == unfused


def test_race_reports_match_unfused(recorded):
    spec, kwargs, rec = recorded
    fused = detect_races(spec.build(kwargs), rec.trace)
    unfused = detect_races(spec.build(kwargs), rec.trace, config=UNFUSED)
    assert fused.races == unfused.races
    assert fused.stats == unfused.stats
    assert fused.result.behavior_key() == unfused.result.behavior_key()


def test_slim_traces_match_unfused(recorded):
    spec, kwargs, _ = recorded
    fused = api.record(spec.build(kwargs), slim=True, **api.standard_knobs(SEED)).trace
    unfused = api.record(
        spec.build(kwargs), slim=True, config=UNFUSED, **api.standard_knobs(SEED)
    ).trace
    assert fused.to_bytes() == unfused.to_bytes()


def test_a_fused_access_carries_its_memory_ops_bci():
    """The hook call of a superinstruction names the bci of its memory
    constituent (the group's terminal), never that of the group's head."""
    spec = REGISTRY["server"]
    kwargs = spec.merged_kwargs(explore=True)
    rec = api.record(spec.build(kwargs), **api.standard_knobs(SEED))
    seen, vm = _accesses(spec, kwargs, rec.trace, None)
    sites = {(qual, bci) for _, qual, bci, _, _ in seen}
    checked = 0
    for rm in vm.loader.method_by_id:
        code = rm.code
        if code is None or not any(site[0] == rm.qualname for site in sites):
            continue
        for pc, (mop, _, _) in enumerate(code.xops):
            if mop not in _FUSED_MEM:
                continue
            head = code.xbci_of[pc]
            last = code.bci_of[code.xstart[pc + 1] - 1]
            assert head != last
            if (rm.qualname, last) in sites:
                assert (rm.qualname, head) not in sites
                checked += 1
    assert checked


def test_analyses_build_no_unfused_image(monkeypatch):
    monkeypatch.setattr(machine, "_IMAGES", {})
    spec = REGISTRY["server"]
    kwargs = spec.merged_kwargs(explore=True)
    rec = api.record(spec.build(kwargs), **api.standard_knobs(SEED))
    runs = {
        "slim record": lambda: api.record(
            spec.build(kwargs), slim=True, **api.standard_knobs(SEED)
        ),
        "detect_races": lambda: detect_races(spec.build(kwargs), rec.trace),
        "profiler": lambda: ReplayProfiler(spec.build(kwargs), rec.trace).run(),
        "coverage": lambda: ReplayCoverage(spec.build(kwargs), rec.trace).run(),
    }
    for tool, run in runs.items():
        run()
        engines = {key[1] for key in machine._IMAGES}
        assert EngineConfig.baseline() not in engines, tool
        assert EngineConfig() in engines, tool
