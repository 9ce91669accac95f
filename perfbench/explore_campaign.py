"""explore_campaign: parallel schedule-exploration campaigns.

``run_explore_campaign`` on ``bank`` (preemption bound 2), ``server``,
``producer_consumer`` and ``philosophers`` (bound 1) with fixed
budgets, ``jobs=2`` on the fork backend, and a corpus directory; and a
serial ``Explorer.evaluate`` over the start of bank's and server's
work lists.  Every schedule builds and compiles a fresh small VM, so
the time goes to VM build, campaign sharding and merge — layers no
other workload weights.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from harness import Run, median, peak_rss_mb
from repro.campaign import run_explore_campaign
from repro.explore.explorer import Explorer
from repro.workloads.registry import get_workload

import checks
import layers

#: (workload, preemption bound, schedule budget); server's budget runs
#: past its 80 exhaustive one-preemption schedules, so seeded random
#: schedules beyond the bound are part of the work
CAMPAIGNS = (
    ("bank", 2, 60), ("server", 1, 100),
    ("producer_consumer", 1, 40), ("philosophers", 1, 40),
)
JOBS = 2
#: campaigns whose work list a serial ``Explorer.evaluate`` also runs,
#: SERIAL_SAMPLE schedules per operation
SERIAL = ("bank", "server")
SERIAL_SAMPLE = 20
#: operation kinds, in the order of the ``op_cost.N`` metrics: six
#: cheap kinds, so a run holds five or six rounds of each
KINDS = tuple(f"{w}.campaign" for w, _, _ in CAMPAIGNS) + tuple(f"{w}.evaluate" for w in SERIAL)


def prepare(seed: int):
    for workload, _, _ in CAMPAIGNS:
        spec = get_workload(workload)
        spec.build(spec.merged_kwargs(explore=True))
    return lambda: None


def _campaign(workload, bound, budget, seeds, jobs, corpus):
    return run_explore_campaign(
        workload, bound=bound, budget=budget, seed=seeds[0], env_seed=seeds[1],
        jobs=jobs, corpus_dir=corpus,
    )


def _corpus_bytes(path) -> "dict[str, bytes]":
    return {
        name: open(os.path.join(path, name), "rb").read()
        for name in sorted(os.listdir(path))
    }


def _serial_sample(workload, bound, budget, seeds):
    """An explorer for the campaign and the first items of its work list."""
    spec = get_workload(workload)
    kwargs = spec.merged_kwargs(explore=True)
    explorer = Explorer(
        spec.program_factory(kwargs), oracle=spec.oracle(kwargs), bound=bound,
        budget=budget, seed=seeds[0], env_seed=seeds[1], minimize=False,
    )
    _, horizon = explorer.baseline()
    return explorer, [positions for _, positions in zip(range(SERIAL_SAMPLE), explorer.candidates(horizon))]


def _timed_campaign(r: Run, workload, bound, budget, seeds, corpus, reference):
    with r.op(f"{workload}.campaign", "campaign:run_explore_campaign", workload, width=JOBS) as t:
        report = _campaign(workload, bound, budget, seeds, JOBS, corpus)
    want_digest, want_corpus = reference
    checks.same_digest(r.checks, want_digest, report.digest(), f"{workload} campaign")
    r.checks.expect(
        _corpus_bytes(corpus) == want_corpus,
        f"{workload} corpus differs from the jobs=1 reference",
    )
    shutil.rmtree(corpus, ignore_errors=True)
    return report, t.seconds


def run(r: Run) -> None:
    rng = random.Random(r.seed)
    seeds = {w: (rng.randrange(1 << 20), rng.randrange(1 << 20)) for w, _, _ in CAMPAIGNS}

    # outside the timed region and set-up: the jobs=1 reference reports
    # and corpora every timed campaign must reproduce exactly
    reference = {}
    for workload, bound, budget in CAMPAIGNS:
        corpus = r.tmp / f"reference-{workload}"
        report = _campaign(workload, bound, budget, seeds[workload], 1, corpus)
        reference[workload] = (report.digest(), _corpus_bytes(corpus))

    samples = {w: _serial_sample(w, b, n, seeds[w]) for w, b, n in CAMPAIGNS if w in SERIAL}
    evaluated = {}
    reports = {}
    incidents = 0
    walls = {w: [] for w, _, _ in CAMPAIGNS}
    serial_s = {w: [] for w in SERIAL}
    # rounds of every operation, while the next one would end less than
    # half a round past the time asked for
    t0 = time.perf_counter()
    last = 0.0
    rounds = 0
    while not last or time.perf_counter() - t0 + last / 2 < r.seconds:
        start = time.perf_counter()
        with r.span("bench:explore_campaign"):
            for workload, bound, budget in CAMPAIGNS:
                corpus = r.tmp / f"corpus-{workload}-{rounds}"
                report, seconds = _timed_campaign(
                    r, workload, bound, budget, seeds[workload], corpus, reference[workload],
                )
                reports.setdefault(workload, report)
                incidents += len(report.incidents)
                walls[workload].append(seconds)
            for workload in SERIAL:
                explorer, items = samples[workload]
                with r.op(f"{workload}.evaluate", "explore:Explorer.evaluate", workload) as t:
                    outcomes = [explorer.evaluate(positions) for positions in items]
                serial_s[workload].append(t.seconds / len(items))
                digests = [(o.digest, o.reason) for o in outcomes]
                first = evaluated.setdefault(workload, digests)
                r.checks.expect(
                    digests == first, f"{workload}: serial evaluation differs from round 0"
                )
        rounds += 1
        last = time.perf_counter() - start
    r.wall = time.perf_counter() - t0
    blob = next(b for name, b in sorted(reference["bank"][1].items()) if name != "index.json")
    checks.self_check(r, blob)

    schedules = sum(rep.schedules_run for rep in reports.values()) * rounds
    failing = [
        b for _, corpus in reference.values() for name, b in corpus.items()
        if name != "index.json"
    ]
    r.trace_bytes = sum(map(len, failing)) / len(failing)
    if (os.cpu_count() or 1) > 1:
        r.metric("schedules_per_s", schedules / sum(map(sum, walls.values())), "1/s")
    else:
        r.metric("schedules_per_s", "not applicable on a 1-CPU host", "")
    r.metric("trace_bytes per failing schedule", r.trace_bytes, "bytes")
    r.metric("trace digest", checks.digest_of(
        {f"{w}/{name}": b for w, (_, corpus) in reference.items() for name, b in corpus.items()}
    ), "")
    efficiency = []
    for workload, _, _ in CAMPAIGNS:
        rep = reports[workload]
        r.metric(f"explore.{workload}.distinct_ratio", rep.unique_behaviors / rep.schedules_run, "ratio")
        r.metric(f"explore.{workload}.failures", len(rep.failures), "count")
    for workload in SERIAL:
        per = median(serial_s[workload])
        r.metric(f"explore.{workload}.schedule_ms", per * 1000.0, "ms")
        items = reports[workload].schedules_run
        efficiency.append(items * per / (JOBS * median(walls[workload])))
    r.metric("campaign.efficiency", median(efficiency), "ratio")
    r.metric("campaign.incidents", incidents, "count")
    r.peak_rss_mb = peak_rss_mb()

    if r.traced:
        programs = []
        for workload, _, _ in CAMPAIGNS:
            spec = get_workload(workload)
            kwargs = spec.merged_kwargs(explore=True)
            programs.append((workload, spec.program_factory(kwargs), seeds[workload][1]))
        layers.probe_common(r, programs)
